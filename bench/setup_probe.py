"""What every CLI invocation pays before its first codeword.

Usage, from the repository root with ``PYTHONPATH=src``::

    python bench/setup_probe.py analyze -p 3 -m 2 --threads 1 ...

A fresh interpreter imports ``tracecodes.cli``, parses the job's arguments
with the CLI's own parser, builds the field and derives the code parameters,
then exits 0.  A parameter refusal ends set-up early and also exits 0.
"""

import sys

import tracecodes.cli as cli
from tracecodes import CodeParams, Field, ParameterError, Variant, derive_params, parse_modulus


def main(argv: list[str]) -> int:
    ns = cli.build_parser().parse_args(argv)
    try:
        modulus = parse_modulus(ns.modulus) if ns.modulus else None
        field = Field(ns.p, ns.m, modulus=modulus)
        derive_params(CodeParams(field, ns.N, Variant(ns.variant)))
    except ParameterError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
