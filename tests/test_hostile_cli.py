"""Hostile command lines and environment values: every run of `main` ends
in a documented exit code (0-3), prints no traceback, and ends quickly.

p and m are drawn so that any run the program accepts is small: (p, m)
from a few fields of at most 25 elements, or a value the program refuses
(p <= 2, a multiple of 3 past 3, m <= 0, or p >= 2^16 or m >= 16, which
the 64-bit codeword guard refuses).  A positive --samples stays small, as
does a positive --trials or a work budget that lets a long run through:
the class method bounds no sample count, and the identity suite runs as
many trials as the budget admits.
"""

import contextlib
import io
import os
import time
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracecodes.cli import main

#: Near-numbers and separators, a few non-ASCII digits and letters.
JUNK = st.text("0123456789-+_,.x e\t\u0661\u00e9", max_size=8)
BIG = st.integers(-2**70, 2**70)
SMALL_FIELDS = st.sampled_from([(3, 1), (3, 2), (5, 1), (5, 2), (11, 1)])
REFUSED_P = st.one_of(st.integers(max_value=2), st.integers(2, 2**40).map(lambda k: 3 * k),
                      st.integers(2**16, 2**70))
REFUSED_M = st.one_of(st.integers(max_value=0), st.integers(16, 2**70))
MODULUS = st.one_of(JUNK, st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=4)
                    .map(lambda cs: ",".join(map(str, cs))))
BUDGET_ENV = st.one_of(st.none(), JUNK, st.integers(-2**70, 10**12).map(str))


def _value(values):
    return st.one_of(values.map(str), JUNK)


@st.composite
def hostile_argv(draw):
    command = draw(st.sampled_from(["analyze", "dual", "verify"]))
    p, m = draw(st.one_of(SMALL_FIELDS,
                          st.tuples(REFUSED_P, st.sampled_from([1, 2])),
                          st.tuples(st.sampled_from([3, 5]), REFUSED_M),
                          st.tuples(JUNK, JUNK)))
    argv = [command, "-p", str(p), "-m", str(m)]
    options = {"-N": _value(st.one_of(st.integers(-2, 30), BIG)), "--modulus": MODULUS,
               "--seed": _value(BIG)}
    if command == "analyze":
        options["--samples"] = _value(st.integers(-2**70, 50))
        options["--budget"] = _value(BIG)
    if command == "verify":
        options["--trials"] = _value(st.one_of(st.integers(-2**70, 20),
                                               st.integers(10**15, 2**70)))
    for flag, values in options.items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


@given(hostile_argv(), BUDGET_ENV)
@example(["verify", "-p", "3", "-m", "1", "--trials", str(2**70)], None)  # past a range()'s length
@example(["analyze", "-p", str(2**61 - 1), "-m", "0"], None)  # a large prime p and a bad m
@settings(max_examples=60, deadline=None, derandomize=True)
def test_hostile_input_ends_in_a_documented_exit_code(argv, budget_env):
    env = {k: v for k, v in os.environ.items() if k != "TRACECODES_WORK_BUDGET"}
    if budget_env is not None:
        env["TRACECODES_WORK_BUDGET"] = budget_env
    out, err = io.StringIO(), io.StringIO()
    start = time.monotonic()
    with mock.patch.dict(os.environ, env, clear=True), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in {0, 1, 2, 3}, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert time.monotonic() - start < 20, argv
