"""Finite-blocklength joint source-channel coding dispersion toolkit.

Computes channel, source, joint, and separation dispersion quantities for
finite alphabets and validates their Gaussian approximations by seeded
Monte-Carlo simulation over empirical types.
"""

from .channel import (
    CapacityResult,
    ChannelDispersion,
    ChannelRatePoint,
    capacity,
    channel_rate_at,
    conditional_information_variance,
    information_density,
    mutual_information,
    unconditional_information_variance,
    vmin_vmax,
)
from .errors import (
    AbsoluteContinuityViolated,
    BoundaryDistortion,
    DeltaTooLarge,
    DimensionMismatch,
    DomainError,
    EnumerationTooLarge,
    JsccDispError,
    LengthMismatch,
    NonConvergence,
    RateCapViolated,
    RateOutOfRange,
    SymbolOutOfRange,
    UndefinedAtHalf,
    UnreachableOutput,
    UselessChannel,
    ZeroVariance,
)
from .jscc import (
    DispersionReport,
    JsccProblem,
    LosslessRhoPoint,
    DEFAULT_LAMBDA_CURVES,
    ThresholdPoint,
    combine_error_probs,
    dispersion_report,
    distortion_threshold,
    distortion_thresholds,
    jscc_dispersion,
    log_prob_variance,
    lossless_rho,
    opta,
    separation_curve,
    separation_equivalent_eps,
    separation_split,
    separation_vsep,
)
from .mcsim import (
    CltResult,
    SimConfig,
    SimResult,
    UepConfig,
    UepResult,
    dball_bound,
    dball_count_exact,
    eta_n,
    excess_event_probability,
    first_order_jscc_samples,
    first_order_mi_samples,
    gamma_n,
    mi_continuity_check,
    sample_channel_output,
    sample_source_block,
    uep_simulate,
    xi_n_violation_rate,
)
from .probcore import (
    Channel,
    ConditionalType,
    Distribution,
    EmpiricalType,
    conditional_type,
    divergence_variance,
    empirical_type,
    entropy,
    enumerate_n_types,
    kl_divergence,
    nearest_type,
    q_function,
    q_inverse,
)
from .source import (
    RdfResult,
    SourceSpec,
    d_max,
    distortion_rate,
    rdf,
    rdf_gradient,
    source_dispersion,
    source_rate_at,
)

__version__ = "0.1.0"
