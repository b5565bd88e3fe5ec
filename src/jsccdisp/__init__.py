"""Finite-blocklength joint source-channel coding dispersion toolkit.

Computes channel, source, joint, and separation dispersion quantities for
finite alphabets and validates their Gaussian approximations by seeded
Monte-Carlo simulation over empirical types.

The Monte-Carlo layer loads on first use. The package registers
``jsccdisp.mcsim`` in ``sys.modules`` through ``importlib.util.LazyLoader``,
and imports ``jsccdisp.uep`` (UEP simulation, exact counts and continuity
checks) only when one of its names is asked for; a module ``__getattr__``
serves the names re-exported from either. So a run that only computes
dispersion quantities never compiles or runs them, and a run that only
draws excess, CLT or Xi_n trials never compiles ``uep``.
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


def _lazy_submodule(name: str):
    """The submodule ``name``, in ``sys.modules`` and bound here, its code
    run on the first attribute access."""
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


mcsim = _lazy_submodule("mcsim")

# the names re-exported from the Monte-Carlo layer, by defining module
_LAZY_NAMES = {
    "CltResult": "mcsim",
    "SimConfig": "mcsim",
    "SimResult": "mcsim",
    "UepConfig": "uep",
    "UepResult": "uep",
    "dball_bound": "uep",
    "dball_count_exact": "uep",
    "eta_n": "uep",
    "excess_event_probability": "mcsim",
    "first_order_jscc_samples": "mcsim",
    "first_order_mi_samples": "mcsim",
    "gamma_n": "uep",
    "mi_continuity_check": "uep",
    "sample_channel_output": "mcsim",
    "sample_source_block": "mcsim",
    "uep_simulate": "uep",
    "xi_n_violation_rate": "mcsim",
}

__all__ = sorted({name for name in globals() if not name.startswith("_")}
                 | set(_LAZY_NAMES))


def __getattr__(name: str):
    if name in _LAZY_NAMES:
        import importlib

        module = importlib.import_module(f"{__name__}.{_LAZY_NAMES[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_NAMES))
