"""Quadratic twists of elliptic curves over Q.

Exact Weierstrass-model arithmetic (invariants, coordinate changes, twists,
Laska-Kraus-Connell minimal models), the per-prime scaling factor of a
minimal quadratic twist, arbitrary-precision period lattices from an integer
fixed-point kernel (certified cubic roots and the real AGM), and numerical
verification that the real period of a twist matches
(utilde / sqrt(d)) times the (real or imaginary) period of the original curve.
"""

from .exact import (
    FactorizationBudgetError,
    factorize,
    is_prime,
    is_square_free,
    odd_prime_divisors,
    vp,
)
from .minimality import (
    CASE_LABELS,
    ConsistencyError,
    MinimalModelResult,
    UTildeResult,
    compute_utilde,
    minimal_model_of_twist,
    minimize,
    utilde_factor_at,
)
from .periods import (
    DEFAULT_PRECISION_BITS,
    PeriodReport,
    PrecisionError,
    complex_agm,
    imaginary_period,
    lattice_periods,
    period_report,
    raw_real_period,
    real_components,
    real_period,
)
from .twisting import twist
from .verification import (
    FILTERS,
    VerificationReport,
    iter_curve_file,
    scan,
    verify_twist_period_relation,
)
from .weierstrass import (
    Invariants,
    SingularCurveError,
    Transformation,
    WeierstrassModel,
    padic_signature,
)

__version__ = "0.1.0"

__all__ = [
    "CASE_LABELS",
    "ConsistencyError",
    "DEFAULT_PRECISION_BITS",
    "FILTERS",
    "FactorizationBudgetError",
    "Invariants",
    "MinimalModelResult",
    "PeriodReport",
    "PrecisionError",
    "SingularCurveError",
    "Transformation",
    "UTildeResult",
    "VerificationReport",
    "WeierstrassModel",
    "complex_agm",
    "compute_utilde",
    "factorize",
    "imaginary_period",
    "is_prime",
    "is_square_free",
    "iter_curve_file",
    "lattice_periods",
    "minimal_model_of_twist",
    "minimize",
    "odd_prime_divisors",
    "padic_signature",
    "period_report",
    "raw_real_period",
    "real_components",
    "real_period",
    "scan",
    "twist",
    "utilde_factor_at",
    "verify_twist_period_relation",
    "vp",
]
