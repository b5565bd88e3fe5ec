"""Exception hierarchy shared by all jsccdisp modules.

Every error raised by the library derives from :class:`JsccDispError`, so
callers (notably the CLI) can map failures to stable exit codes without
enumerating individual conditions.
"""


class JsccDispError(Exception):
    """Base class for all library errors."""


class DomainError(JsccDispError, ValueError):
    """An argument lies outside its mathematical domain."""


class DimensionMismatch(JsccDispError, ValueError):
    """Vector/matrix shapes do not agree."""


class LengthMismatch(JsccDispError, ValueError):
    """Paired sequences have different lengths."""


class SymbolOutOfRange(JsccDispError, ValueError):
    """A sequence contains a symbol outside the declared alphabet."""


class AbsoluteContinuityViolated(JsccDispError, ValueError):
    """support(p) is not contained in support(q) where required."""


class UnreachableOutput(JsccDispError, ValueError):
    """A channel output has zero probability yet positive transition mass."""


class EnumerationTooLarge(JsccDispError, RuntimeError):
    """An exact enumeration would exceed the configured size cap."""


class NonConvergence(JsccDispError, RuntimeError):
    """An iterative solver exhausted its iteration budget."""


class BoundaryDistortion(JsccDispError, ValueError):
    """The operating distortion sits on the boundary {0, d_max}."""


class RateOutOfRange(JsccDispError, ValueError):
    """A target rate left the achievable interval (0, R(P,0))."""


class UselessChannel(JsccDispError, ValueError):
    """The channel capacity is (numerically) zero where positivity is needed."""


class UndefinedAtHalf(JsccDispError, ValueError):
    """The requested quantity is undefined at eps = 1/2."""


class ZeroVariance(JsccDispError, ValueError):
    """A statistic cannot be standardized because its variance vanishes."""


class RateCapViolated(JsccDispError, ValueError):
    """A per-class rate exceeds the entropy cap H(type) - eta_n."""


class DeltaTooLarge(JsccDispError, ValueError):
    """A perturbation radius exceeds the bound's validity range."""
