"""Few-weight p-ary linear codes from trace evaluations over the local ring
F_p + uF_p + vF_p + uvF_p, via the Gray isometry onto F_p^4.

The package builds the evaluation codes, computes exact Lee-weight
distributions from a closed form, mirrors the closed-form weight tables as
predictions, and certifies optimality (Griesmer), dual distance and
secret-sharing structure.

The names in __all__ are re-exported lazily (PEP 562): ``import tracecodes``
loads no submodule, so ``python -m tracecodes.cli`` can refuse a bad request
before numpy is imported, and the first read of a name imports its module.
`main`, the entry of the ``tracecodes`` script, runs the CLI module as
``python -m`` does, so the script refuses such a request as early.
"""

import importlib

_EXPORTS = {
    "analysis": ("IdentityReport", "Prediction", "WeightDistribution",
                 "compare_with_predictions", "distribution_by_class",
                 "distribution_exhaustive", "gray_symbol_histogram", "predict",
                 "predict_subcode", "semiprimitive_exponent", "subcode_report",
                 "verify_identities"),
    "bounds": ("DualDistanceResult", "GriesmerVerdict", "SssVerdict", "dual_lee_distance",
               "griesmer_optimal", "griesmer_sum", "minimality_check",
               "sphere_packing_excludes"),
    "construction": ("CodeParams", "DerivedParams", "Variant", "coord_at",
                     "derive_params", "subcode_distribution"),
    "errors": ("ParameterError", "WorkBudgetExceeded"),
    "field": ("Field", "gauss_sums"),
    "limits": ("DEFAULT_SEED", "DEFAULT_WORK_BUDGET", "parse_modulus"),
    "ring": ("RingElem", "gray", "gray_inverse", "is_unit", "lee_weight", "ring_inv"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def main() -> None:
    """The ``tracecodes`` script: ``tracecodes.cli`` run as ``__main__``."""
    import runpy

    runpy.run_module("tracecodes.cli", run_name="__main__", alter_sys=True)


def __dir__() -> list[str]:
    return sorted([*globals(), *__all__])
