"""Exact construction and verification of poly-Genocchi type families."""

from .combinatorics import stirling1_signed, stirling2
from .errors import (
    ConfigError,
    DivisionByNonUnit,
    PolyGenocchiError,
    RangeError,
    SingularDenominator,
    ValuationError,
)
from .families import (
    ALL_TAGS,
    APOSTOL_BERNOULLI,
    APOSTOL_GENOCCHI,
    APOSTOL_GENOCCHI_HIGHER,
    BERNOULLI_T1,
    BERNOULLI_T2,
    CLASSICAL_GENOCCHI,
    CLASSICAL_GENOCCHI_HIGHER,
    FROBENIUS,
    TYPE1,
    TYPE2,
    FamilyExpansion,
    FamilySpec,
    double_gf_rhs,
    family_series,
)
from .kernels import (
    CLASSICAL_POINT,
    K_MAX,
    ParamPoint,
    polyexp_series,
    polylog_series,
)
from .series import (
    Poly,
    Series,
    binomial_convolution,
    ps_div,
    ps_exp_linear,
    ps_lincomb,
    ps_mul,
)
from .verifier import (
    CheckConfig,
    CheckResult,
    Mismatch,
    Report,
    SUITES,
    default_config,
    default_samples,
    run_suite,
    stirling_weights,
)

__version__ = "0.1.0"
