"""Few-weight p-ary linear codes from trace evaluations over the local ring
F_p + uF_p + vF_p + uvF_p, via the Gray isometry onto F_p^4.

The package builds the evaluation codes, computes exact Lee-weight
distributions from a closed form, mirrors the closed-form weight tables as
predictions, and certifies optimality (Griesmer), dual distance and
secret-sharing structure.
"""

from .analysis import (
    DEFAULT_WORK_BUDGET,
    IdentityReport,
    Prediction,
    WeightDistribution,
    compare_with_predictions,
    distribution_by_class,
    distribution_exhaustive,
    gray_symbol_histogram,
    predict,
    predict_subcode,
    semiprimitive_exponent,
    subcode_report,
    verify_identities,
)
from .bounds import (
    DualDistanceResult,
    GriesmerVerdict,
    SssVerdict,
    dual_lee_distance,
    griesmer_optimal,
    griesmer_sum,
    minimality_check,
    sphere_packing_excludes,
)
from .construction import (
    DEFAULT_SEED,
    CodeParams,
    DerivedParams,
    Variant,
    coord_at,
    coord_index,
    derive_params,
    subcode_distribution,
)
from .errors import ParameterError, WorkBudgetExceeded
from .field import Field, gauss_sums, parse_modulus
from .ring import RingElem, gray, gray_inverse, is_unit, lee_weight, ring_inv

__version__ = "0.1.0"
