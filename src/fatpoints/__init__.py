"""Fat-point linear systems on P^n and products of projective spaces:
virtual/expected dimensions, special-effect-variety classification, bounded
classification scans, and an exact finite-field interpolation oracle."""

from .combinatorics import (
    A_ratio,
    binom,
    eta_product,
    linear_expected_h0,
    phi_hyp,
    phi_product,
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
    linear_space_residual_nu,
    p3_rational_curve_chi,
    residual_divisor,
    rnc_double_residual_nu,
)
from .oracle import (
    OracleConfig,
    OracleResult,
    PrimeField,
    cross_checked_h0,
    h0_oracle,
    h0_prefix_oracle,
    restrict_to_subspace,
    sample_points,
)
from .systems import (
    DimReport,
    FatPointGroup,
    LinearSystem,
    Space,
    dim_report,
    expected_dim,
    lower_h0,
    make_system,
    monomial_count,
    point_conditions,
    system_from_json,
    system_to_json,
    virtual_dim,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
