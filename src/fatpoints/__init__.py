"""Fat-point linear systems on P^n and products of projective spaces:
virtual/expected dimensions, special-effect-variety classification, bounded
classification scans, and an exact finite-field interpolation oracle."""

from .combinatorics import (
    A_ratio,
    binom,
    linear_expected_h0,
    phi_hyp,
    psi_hyp_alpha1,
    rising,
)
from .effect_varieties import (
    ConfigStep,
    EffectVariety,
    H1Report,
    Hypersurface,
    Line,
    LinearSubspace,
    RationalCurveP3,
    RationalNormalCurve,
    SevReport,
    classify_alpha_sev,
    classify_configuration,
    curve_restriction_cohomology,
    h1_sev_check,
    p3_rational_curve_chi,
    residual_divisor,
)
from .oracle import (
    OracleConfig,
    OracleResult,
    PrimeField,
    cross_checked_h0,
    h0_oracle,
    h0_prefix_oracle,
    sample_points,
)
from .systems import (
    DimReport,
    FatPointGroup,
    LinearSystem,
    Space,
    dim_report,
    lower_h0,
    make_system,
    monomial_count,
    point_conditions,
    system_from_json,
    virtual_dim,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
