"""Traced replay of one CLI job, with spans around calls into each layer.

Usage, from the repository root with ``PYTHONPATH=src``::

    python bench/tracer.py SPANS_DIR -- analyze -p 3 -m 2 --threads 1 ...

The process behaves like ``python -m tracecodes.cli ...`` (same report on
stdout, same stderr and exit code) and also writes the spans it recorded to
``SPANS_DIR/main.json``.  Pool workers forked by the job inherit the
wrappers and write ``SPANS_DIR/worker-<pid>-<k>.json`` after each task.

Nothing under ``src/`` is edited: after ``import tracecodes.cli`` the public
functions of ``field``, ``construction``, ``analysis`` and ``bounds`` (and
the few private ones that carry the work: the kernel, the pool task, the
class sampler) are replaced by wrappers, in every ``tracecodes`` module
namespace that binds them.  Spans are kept in memory and written when the
job ends.  ``layer_metrics`` turns the span files of a job into per-layer
numbers.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path


class Tracer:
    """Spans of one process: name, start, end, parent, job, pid, counters."""

    def __init__(self, job: str):
        self.job = job
        self.pid = os.getpid()
        self.spans: list[dict] = []  # finished spans
        self.stack: list[dict] = []  # open spans, innermost last
        self.fields: list = []       # Field instances built in this process
        self._count = 0

    def begin(self, name: str) -> dict:
        self._count += 1
        span = {"id": f"{self.pid}.{self._count}",
                "parent": self.stack[-1]["id"] if self.stack else None,
                "name": name, "job": self.job, "pid": self.pid,
                "start": time.perf_counter_ns(), "end": None, "attrs": {}}
        self.stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter_ns()
        self.stack.pop()
        self.spans.append(span)

    def bump(self, key: str, n: int = 1) -> None:
        """Add n to a counter of the innermost open span."""
        if self.stack:
            attrs = self.stack[-1]["attrs"]
            attrs[key] = attrs.get(key, 0) + n

    def after_fork(self) -> None:
        """In a forked pool worker: keep the inherited stack as parents,
        drop what the parent process already owns."""
        self.pid = os.getpid()
        self.spans = []
        self.fields = []
        self._count = 0

    def dump(self, path: Path, spans: list[dict], fields: list) -> None:
        data = {"pid": self.pid, "spans": spans,
                "table_bytes": sum(_table_bytes(f) for f in fields)}
        path.write_text(json.dumps(data))


def _table_bytes(obj) -> int:
    """Bytes held by an object's numpy arrays and int lists (list storage
    plus the int objects outside CPython's small-int cache)."""
    import numpy as np

    total = 0
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, list):
            total += sys.getsizeof(value)
            total += sum(sys.getsizeof(x) for x in value
                         if isinstance(x, int) and not -5 <= x <= 256)
    return total


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------

def _rebind(original, replacement) -> None:
    """Point every tracecodes module attribute bound to `original` at
    `replacement` (covers ``from .x import f`` bindings)."""
    for name, module in list(sys.modules.items()):
        if name == "tracecodes" or name.startswith("tracecodes."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _spanned(tr: Tracer, name: str, fn, before=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tr.begin(name)
        try:
            if before is not None:
                before(span, *args, **kwargs)
            return fn(*args, **kwargs)
        finally:
            tr.end(span)
    return wrapper


def _wrap(tr: Tracer, module, attr: str, name: str, before=None) -> None:
    original = getattr(module, attr)
    _rebind(original, _spanned(tr, name, original, before))


def _count(tr: Tracer, module, attr: str, key: str, amount=lambda *args: 1) -> None:
    """Add amount(*args) to counter `key` of the caller's span on every call."""
    original = getattr(module, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        tr.bump(key, amount(*args, **kwargs))
        return original(*args, **kwargs)
    _rebind(original, wrapper)


def install(tr: Tracer, spans_dir: Path) -> None:
    """Wrap the layer entry points of an imported tracecodes package."""
    import numpy as np

    from tracecodes import analysis, bounds, construction
    from tracecodes import field as fieldmod

    derive = construction.derive_params

    # field: modulus search, irreducibility tests, table build, lazy tables
    _wrap(tr, fieldmod, "first_primitive_modulus", "field.first_primitive_modulus")
    _count(tr, fieldmod, "is_irreducible", "irreducibility_tests")

    Field = fieldmod.Field
    field_init = Field.__init__

    @functools.wraps(field_init)
    def traced_init(self, *args, **kwargs):
        span = tr.begin("field.Field")
        try:
            field_init(self, *args, **kwargs)
            tr.fields.append(self)
        finally:
            tr.end(span)
    Field.__init__ = traced_init

    for prop_name, cache_attr in (("trmul_flat", "_trmul_flat_np"),
                                  ("mul_table", "_mul_table_np")):
        getter = getattr(Field, prop_name).fget

        def first_access(self, getter=getter, cache_attr=cache_attr,
                         name=f"field.{prop_name}"):
            if getattr(self, cache_attr, None) is not None:
                return getter(self)
            span = tr.begin(name)
            try:
                return getter(self)
            finally:
                tr.end(span)
        setattr(Field, prop_name, property(first_access, doc=getter.__doc__))

    # construction: parameter derivation and coordinate-block decoding
    _wrap(tr, construction, "derive_params", "construction.derive_params")
    coord_blocks = construction.coord_blocks

    @functools.wraps(coord_blocks)
    def traced_coord_blocks(*args, **kwargs):
        tr.bump("stream_passes")
        blocks = coord_blocks(*args, **kwargs)
        while True:
            span = tr.begin("construction.coord_blocks")
            try:
                block = next(blocks)
            except StopIteration:
                return
            finally:
                tr.end(span)
            yield block
    _rebind(coord_blocks, traced_coord_blocks)

    # analysis: kernel, distributions, identities, predictions
    def kernel_ops(span, dp, rows, *args, **kwargs):
        ops = (np.size(rows) // 4) * dp.length
        span["attrs"]["entry_ops"] = ops
        if any(s["name"] == "analysis.distribution_by_class" for s in tr.stack):
            span["attrs"]["class_ops"] = ops

    def histogram_ops(span, r, params, *args, **kwargs):
        span["attrs"]["entry_ops"] = derive(params).length

    _wrap(tr, analysis, "_weights_serial", "analysis.kernel", kernel_ops)
    _wrap(tr, analysis, "gray_symbol_histogram", "analysis.gray_symbol_histogram",
          histogram_ops)
    for attr in ("distribution_exhaustive", "distribution_by_class",
                 "verify_identities", "subcode_report", "predict",
                 "compare_with_predictions"):
        _wrap(tr, analysis, attr, f"analysis.{attr}")

    _count(tr, analysis, "_sample_class", "validation_ops",
           lambda name, j, dp, rng: dp.length)

    bulk_worker = analysis._bulk_worker

    @functools.wraps(bulk_worker)
    def traced_bulk_worker(args):
        if tr.pid != os.getpid():
            tr.after_fork()
        mark, field_mark = len(tr.spans), len(tr.fields)
        span = tr.begin("analysis._bulk_worker")
        try:
            return bulk_worker(args)
        finally:
            tr.end(span)
            tr.dump(spans_dir / f"worker-{tr.pid}-{mark}.json",
                    tr.spans[mark:], tr.fields[field_mark:])
    _rebind(bulk_worker, traced_bulk_worker)

    # bounds: certificates and the dual search
    for attr in ("griesmer_optimal", "minimality_check", "sphere_packing_excludes",
                 "dual_lee_distance"):
        _wrap(tr, bounds, attr, f"bounds.{attr}")


# ---------------------------------------------------------------------------
# Per-layer numbers from span files
# ---------------------------------------------------------------------------

#: Each *_s metric sums the self time (duration minus the same-process
#: children) of these span names; every span name appears exactly once, so
#: the metrics of one process add up to its spanned time.
SELF_TIME_METRICS = {
    "field.modulus_search_s": ("field.first_primitive_modulus",),
    "field.table_build_s": ("field.Field",),
    "field.trmul_table_s": ("field.trmul_flat", "field.mul_table"),
    "construction.derive_params_s": ("construction.derive_params",),
    "construction.coord_blocks_s": ("construction.coord_blocks",),
    "analysis.kernel_s": ("analysis.kernel",),
    "analysis.distribution_s": ("analysis.distribution_exhaustive",
                                "analysis.distribution_by_class",
                                "analysis._bulk_worker"),
    "analysis.identities_s": ("analysis.verify_identities",),
    "analysis.histogram_s": ("analysis.gray_symbol_histogram",),
    "analysis.subcode_s": ("analysis.subcode_report",),
    "analysis.predict_compare_s": ("analysis.predict",
                                   "analysis.compare_with_predictions"),
    "bounds.certificates_s": ("bounds.griesmer_optimal", "bounds.minimality_check",
                              "bounds.sphere_packing_excludes"),
    "bounds.dual_s": ("bounds.dual_lee_distance",),
    "cli.import_s": ("cli.import",),
    "cli.report_s": ("cli.main",),
}

ROOT_SPANS = ("cli.import", "cli.main")


def load_spans(spans_dir: Path) -> tuple[list[dict], int]:
    """All spans of one traced job and the table bytes its fields hold."""
    spans: list[dict] = []
    table_bytes = 0
    for path in sorted(spans_dir.glob("*.json")):
        data = json.loads(path.read_text())
        spans.extend(data["spans"])
        table_bytes += data["table_bytes"]
    return spans, table_bytes


def layer_metrics(spans: list[dict], table_bytes: int) -> dict[str, float]:
    """Per-layer self times, counters and the main-process spanned time."""
    duration = {s["id"]: (s["end"] - s["start"]) / 1e9 for s in spans}
    pid_of = {s["id"]: s["pid"] for s in spans}
    child_time: dict[str, float] = {}
    for s in spans:
        parent = s["parent"]
        if parent in pid_of and pid_of[parent] == s["pid"]:
            child_time[parent] = child_time.get(parent, 0.0) + duration[s["id"]]
    self_by_name: dict[str, float] = {}
    for s in spans:
        own = duration[s["id"]] - child_time.get(s["id"], 0.0)
        self_by_name[s["name"]] = self_by_name.get(s["name"], 0.0) + own

    out = {metric: sum(self_by_name.get(n, 0.0) for n in names)
           for metric, names in SELF_TIME_METRICS.items()}

    def total(key: str, name: str | None = None) -> int:
        return sum(s["attrs"].get(key, 0) for s in spans
                   if name is None or s["name"] == name)

    kernel_spans = [s for s in spans if s["name"] == "analysis.kernel"]
    histogram_spans = [s for s in spans if s["name"] == "analysis.gray_symbol_histogram"]
    out.update({
        "field.irreducibility_tests": total("irreducibility_tests"),
        "field.table_bytes": table_bytes,
        "construction.stream_passes": total("stream_passes"),
        "analysis.kernel_calls": len(kernel_spans),
        "analysis.kernel_entry_ops": total("entry_ops", "analysis.kernel"),
        "analysis.kernel_inclusive_s": sum(duration[s["id"]] for s in kernel_spans),
        "analysis.class_ops": total("class_ops"),
        "analysis.validation_ops": total("validation_ops"),
        "analysis.histogram_calls": len(histogram_spans),
        "analysis.histogram_entry_ops": total("entry_ops",
                                              "analysis.gray_symbol_histogram"),
        "trace.spanned_s": sum(duration[s["id"]] for s in spans
                               if s["name"] in ROOT_SPANS and s["parent"] is None),
    })
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_DIR -- <tracecodes cli args>", file=sys.stderr)
        return 2
    spans_dir = Path(argv[0])
    tr = Tracer(job=spans_dir.name)
    span = tr.begin("cli.import")
    import tracecodes.cli as cli
    tr.end(span)
    install(tr, spans_dir)
    span = tr.begin("cli.main")
    try:
        return cli.main(argv[2:])
    finally:
        tr.end(span)
        tr.dump(spans_dir / "main.json", tr.spans, tr.fields)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
