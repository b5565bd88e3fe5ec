"""Joint source-channel coding dispersion analysis.

OPTA distortion, the dispersion sum V_J = V_S(P, D*) + rho * V_C(W),
normal-approximation distortion thresholds D_n (D* by one slope search of
the distortion-rate function, and a whole table of D_n by one batched
search), the lossless bandwidth-expansion sequence rho_n, and the
separation-loss quantities eps_tilde(eps, lambda) and V_sep, both from the
exact optimality condition of the best split of eps between source and
channel code.

Whenever V_min != V_max the normal-approximation outputs become intervals
(one value per extreme). Every output in this family omits the
asymptotic O(log n / n) correction term; reports carry an explicit note.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel as ch
from . import source as sa
from .errors import (
    DomainError,
    NonConvergence,
    RateOutOfRange,
    UndefinedAtHalf,
    UselessChannel,
)
from .probcore import (
    Channel,
    Distribution,
    _log_ratio,
    _weighted_variance,
    entropy,
    ndtr,
    ndtri,
    q_inverse,
)
from .source import SourceSpec

DEFAULT_LAMBDA_CURVES = (1.0, 2.0, 3.0, 5.0, 10.0, 30.0, 100.0, 1000.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_TINY = math.ulp(0.0)  # the smallest positive double
_MAX_SPLIT_ROUNDS = 100  # ``_best_split`` took at most 6 on random points


@dataclass(frozen=True)
class JsccProblem:
    """A source, a channel, a bandwidth expansion factor, and a target eps."""

    source: SourceSpec
    channel: Channel
    rho: float
    eps: float

    def __post_init__(self):
        if not (self.rho > 0):
            raise DomainError("rho must be positive")
        if not (0.0 < self.eps < 1.0):
            raise DomainError("eps must lie in (0, 1)")


@dataclass(frozen=True)
class DispersionReport:
    """The dispersion quantities of a problem; ``channel_dispersion`` is the
    channel solve that C, V_min and V_max come from."""

    capacity: float
    v_min: float
    v_max: float
    capacity_set_is_singleton: bool
    d_star: float
    r_at_d_star: float
    v_s_at_d_star: float
    v_j_low: float
    v_j_high: float
    channel_dispersion: ch.ChannelDispersion
    correction_note: str = ch.CORRECTION_NOTE


@dataclass(frozen=True)
class ThresholdPoint:
    """Distortion thresholds D_n for both V_J extremes at one n."""

    n: int
    d_with_vlow: float
    d_with_vhigh: float
    target_rate_with_vlow: float
    target_rate_with_vhigh: float


@dataclass(frozen=True)
class LosslessRhoPoint:
    """Channel uses per sample for (near) lossless coding at block length n."""

    n: int
    h_over_c: float
    v_source: float
    rho_with_vlow: float
    rho_with_vhigh: float


def opta(problem: JsccProblem, tol: float = sa.DEFAULT_RDF_TOL) -> float:
    """The distortion D* solving R(P, D*) = rho * C(W), by one slope search.

    Returns 0 when rho*C >= R(P,0) (lossless regime) and d_max when the
    channel is useless.
    """
    cap = ch.capacity(problem.channel)
    return sa.distortion_rate(problem.source, problem.rho * cap.capacity, tol)


def jscc_dispersion(problem: JsccProblem) -> tuple[float, float]:
    """(v_j_low, v_j_high) = V_S(P,D*) + rho * (V_min, V_max), nats^2."""
    rep = dispersion_report(problem)
    return rep.v_j_low, rep.v_j_high


def dispersion_report(problem: JsccProblem) -> DispersionReport:
    """All dispersion quantities for a problem, in nats; C comes from the
    capacity solve inside ``vmin_vmax``, and D* and V_S(P, D*) from one
    ``source._tilted_at_rate`` call at rho*C. A D* on the boundary of
    (0, d_max) raises BoundaryDistortion by the rule of ``source._tilted``."""
    disp = ch.vmin_vmax(problem.channel)
    cap = disp.capacity.capacity
    d_star, _, _, v_s = sa._tilted_at_rate(problem.source, problem.rho * cap)
    return DispersionReport(
        capacity=cap,
        v_min=disp.v_min,
        v_max=disp.v_max,
        capacity_set_is_singleton=disp.capacity_set_is_singleton,
        d_star=d_star,
        r_at_d_star=problem.rho * cap,
        v_s_at_d_star=v_s,
        v_j_low=v_s + problem.rho * disp.v_min,
        v_j_high=v_s + problem.rho * disp.v_max,
        channel_dispersion=disp,
    )


def distortion_threshold(problem: JsccProblem, n: int,
                         tol: float = sa.DEFAULT_RDF_TOL,
                         report: DispersionReport | None = None
                         ) -> ThresholdPoint:
    """D_n solving R(P, D_n) = rho*C - sqrt(V_J/n) * Qinv(eps), both V_J ends:
    the table of ``distortion_thresholds`` at the one block length n."""
    return distortion_thresholds(problem, [n], tol, report)[0]


def distortion_thresholds(problem: JsccProblem, ns,
                          tol: float = sa.DEFAULT_RDF_TOL,
                          report: DispersionReport | None = None
                          ) -> list[ThresholdPoint]:
    """The thresholds of ``distortion_threshold`` for every n of ``ns``.

    Every distinct target rate of the table, over all n and both V_J ends,
    is solved in one batched slope search of the distortion-rate function
    (``source._distortion_rates``), each row from s = -1, so each D_n is
    bit for bit what ``distortion_rate`` gives at its target. ``report``
    reuses the dispersion quantities of the problem; without it they are
    computed here. Before any search, raises DomainError for an n below 1
    and RateOutOfRange when a target rate leaves (0, R(P,0)), for the first
    such n in order (the value is reported in the message rather than
    clamped); NonConvergence names the first failed search in that order.
    """
    ns = list(ns)
    if any(n < 1 for n in ns):
        raise DomainError("n must be at least 1")
    rep = report if report is not None else dispersion_report(problem)
    qi = q_inverse(problem.eps)
    r_zero = problem.source._zero_rate
    targets = []
    for n in ns:
        for tag, v in (("low", rep.v_j_low), ("high", rep.v_j_high)):
            t = rep.r_at_d_star - math.sqrt(v / n) * qi
            if not (0.0 < t < r_zero):
                raise RateOutOfRange(
                    f"target rate {t} nats (using v_j_{tag}) "
                    f"is outside (0, {r_zero})"
                )
            targets.append(t)
    rates = list(dict.fromkeys(targets))
    d, _ = sa._distortion_rates(problem.source, np.array(rates), tol)
    d = dict(zip(rates, d.tolist()))
    return [ThresholdPoint(n=n, d_with_vlow=d[lo], d_with_vhigh=d[hi],
                           target_rate_with_vlow=lo, target_rate_with_vhigh=hi)
            for n, lo, hi in zip(ns, targets[::2], targets[1::2])]


def log_prob_variance(p: Distribution) -> float:
    """Var[log P(S)] in nats^2, the lossless source dispersion."""
    return float(_weighted_variance(p.probs, _log_ratio(p.probs, 1.0)))


def lossless_rho(src: SourceSpec, channel: Channel, n: int, eps: float,
                 disp: ch.ChannelDispersion | None = None) -> LosslessRhoPoint:
    """Bandwidth expansion rho_n for (near) lossless transmission.

    rho_n = H/C + sqrt((Var[log P] + rho*V_C)/n) * Qinv(eps)/C with
    rho = H/C inside V_J (the limiting value). C and V_C come from
    ``disp``, solved here by ``vmin_vmax`` at ``channel.DEFAULT_TOL`` when
    not given; a C at or below that tolerance raises UselessChannel.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    if not (0.0 < eps < 1.0):
        raise DomainError("eps must lie in (0, 1)")
    if disp is None:
        disp = ch.vmin_vmax(channel)
    c = disp.capacity.capacity
    if c <= ch.DEFAULT_TOL:
        raise UselessChannel("lossless transmission needs positive capacity")
    h = entropy(src.distribution)
    ratio = h / c
    v_source = log_prob_variance(src.distribution)
    qi = q_inverse(eps)
    rho_low = ratio + math.sqrt((v_source + ratio * disp.v_min) / n) * qi / c
    rho_high = ratio + math.sqrt((v_source + ratio * disp.v_max) / n) * qi / c
    return LosslessRhoPoint(
        n=n,
        h_over_c=ratio,
        v_source=v_source,
        rho_with_vlow=rho_low,
        rho_with_vhigh=rho_high,
    )


# ---------------------------------------------------------------------------
# Separation loss
# ---------------------------------------------------------------------------

def combine_error_probs(a: float, b: float) -> float:
    """a * b in the union sense: a + b - ab."""
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise DomainError("combine_error_probs needs probabilities in [0, 1]")
    return a + b - a * b


def _best_split(eps, a, b):
    """Minimize a*Qinv(e_s) + b*Qinv(e_c) over (1 - e_s)(1 - e_c) = 1 - eps,
    elementwise for eps in (0, 1) and a, b > 0; returns (e_s, e_c, minimum).

    With x = Qinv(e_s), y = Qinv(e_c) the constraint is log Phi(x) +
    log Phi(y) = L, L = log(1 - eps), with log Phi strictly concave, so the
    single minimizer solves a*h(y) = b*h(x), h = phi/Phi. On 1 - e_s =
    (1 - eps)^t, 1 - e_c = (1 - eps)^(1 - t), g(t) = log(a*h(y) / (b*h(x)))
    = log(a/b) + (x^2 - y^2)/2 + (2t - 1)L falls strictly from > 0 at t = 0
    to < 0 at t = 1, and g(1/2) = log(a/b). So the root lies in (0, 1/2]
    once a <= b; for a > b the search swaps a and b and then e_s and e_c,
    which keeps t where doubles are dense (a t that rounds to 1 would make
    e_c = 0) and the split symmetric under a <-> b.

    From t = 1/2 each round takes the Newton step of g in log t, with
    t g'(t) = t L (x Phi(x)/phi(x) + y Phi(y)/phi(y) + 2) and t L Phi/phi
    in logs, when it lands strictly inside the bracket of the signs of g
    seen so far, and bisects that bracket in log t otherwise, reading a
    lower end of 0 as the smallest positive double. For small t, g is
    nearly linear in log t (x^2/2 grows like -log t), so a root t* that
    shrinks like a/b takes a few rounds at any a/b, where halving t took
    log2(1/t*). g is never evaluated at t = 0 or 1. A share e that
    underflows to 0 enters its quantile as the smallest positive double,
    so g stays finite, and is returned as 0. A point stops once |g| is
    below its rounding bound 4 * 2^-52 * (|log(a/b)| + (x^2 + y^2)/2 + |L|)
    plus, for a subnormal share e, 2^-1074 / e; when its root lies where
    the small share underflows; or when no step lies strictly inside its
    bracket. Each point runs on its own.

    A share e above 1/2 takes its quantile from the other tail, as
    Phi^{-1}(exp(log Phi)) of the log Phi(x) = t L or log Phi(y) =
    (1 - t) L at hand: as eps nears 1, 1 - e keeps only a few digits, and
    the noise that puts into g would keep the steps hopping inside a
    bracket that narrows by ulps. A point still open after
    ``_MAX_SPLIT_ROUNDS`` rounds raises NonConvergence naming eps and
    lambda = (b/a)^2.
    """
    eps, a, b = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (eps, a, b)))
    swap = a > b
    found = np.empty((4, eps.size))  # e_s, e_c, x, y with a and b ordered
    live = np.arange(eps.size)
    log_keep = np.log1p(-eps).ravel()
    log_ratio = np.log(np.where(swap, b / a, a / b)).ravel()
    lo, hi = np.zeros(eps.size), np.full(eps.size, 0.5)
    t = hi.copy()
    for _ in range(_MAX_SPLIT_ROUNDS):
        log_cdf = np.array((t, 1.0 - t)) * log_keep  # log Phi(x), log Phi(y)
        e = -np.expm1(log_cdf)
        # Qinv(e) = -Phi^{-1}(e), or Phi^{-1}(1 - e) past e = 1/2
        far = e > 0.5
        prob = np.maximum(e, _TINY)
        prob[far] = np.exp(log_cdf[far])
        q = np.where(far, 1.0, -1.0) * ndtri(prob)
        g = (log_ratio + 0.5 * (q[0] * q[0] - q[1] * q[1])
             + (2.0 * t - 1.0) * log_keep)
        right = g > 0
        lo = np.where(right, t, lo)
        hi = np.where(right, hi, t)
        # t g'(t), with t L Phi/phi in logs, where both factors may be out
        # of range while their product is near 1
        slope = 2.0 * t * log_keep - (q * np.exp(
            np.log(t) + np.log(-log_keep) + log_cdf + 0.5 * q * q
            + _LOG_SQRT_2PI)).sum(axis=0)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            step = t * np.exp(-g / slope)  # a non-finite step is not taken
        step = np.where((lo < step) & (step < hi), step,
                        np.sqrt(np.maximum(lo, _TINY)) * np.sqrt(hi))
        # a subnormal e is a multiple of the smallest double, which moves
        # log e, and g with it, by up to that double over e
        rounding = 4.0 * 2.0 ** -52 * (
            np.abs(log_ratio) + 0.5 * (q * q).sum(axis=0) - log_keep) + (
            _TINY / np.maximum(e, _TINY)).sum(axis=0)
        # a root where the small side underflows leaves every t of the
        # bracket with the same split
        done = ((np.abs(g) < rounding) | (~right & (e[0] == 0.0))
                | ~((lo < step) & (step < hi)))
        found[:, live[done]] = np.concatenate((e, q))[:, done]
        going = ~done
        live, t, lo, hi = live[going], step[going], lo[going], hi[going]
        log_keep, log_ratio = log_keep[going], log_ratio[going]
        if not live.size:
            break
    else:
        i = live[0]
        raise NonConvergence(
            f"best split of eps = {float(eps.flat[i])!r} at lambda = "
            f"{(b.flat[i] / a.flat[i]) ** 2:.15g}: still searching after "
            f"{_MAX_SPLIT_ROUNDS} rounds ({live.size} points open)")
    found = found.reshape((4,) + eps.shape)
    e_s, e_c, x, y = np.where(swap, found[[1, 0, 3, 2]], found)
    return e_s, e_c, a * x + b * y


def _separation(eps, lam):
    """(e_s, e_c, eps_tilde) arrays: the best split for Qinv(e_s) +
    sqrt(lam)*Qinv(e_c), and eps_tilde = Q(its minimum / sqrt(1 + lam))."""
    if not np.all((0.0 < eps) & (eps < 1.0)):
        raise DomainError("eps must lie in (0, 1)")
    if not np.all((0.0 < lam) & (lam < math.inf)):
        raise DomainError("lambda must be positive and finite")
    e_s, e_c, best = _best_split(eps, 1.0, np.sqrt(lam))
    return e_s, e_c, ndtr(-best / np.sqrt(1.0 + lam))


def separation_split(eps: float, lam: float) -> tuple[float, float, float]:
    """Optimal (eps_s, eps_c, eps_tilde) for the separation comparison."""
    return tuple(float(v) for v in _separation(eps, lam))


def separation_equivalent_eps(eps: float, lam: float) -> float:
    """eps_tilde(eps, lambda): the excess probability a joint scheme would
    need to match the best separation scheme. Symmetric under lam <-> 1/lam.
    """
    return separation_split(eps, lam)[2]


def separation_vsep(eps: float, v_s: float, rho_v_c: float) -> float:
    """V_sep: the dispersion of the optimal separation scheme, nats^2.

    V_sep = (min over splits of [sqrt(v_s) Qinv(e_s) + sqrt(rho v_c) Qinv(e_c)]
    / Qinv(eps))^2. Undefined at eps = 1/2 where Qinv vanishes.
    """
    if not (0.0 < eps < 1.0):
        raise DomainError("eps must lie in (0, 1)")
    if eps == 0.5:
        raise UndefinedAtHalf("V_sep is undefined at eps = 1/2")
    if not (v_s >= 0 and rho_v_c >= 0) or v_s == rho_v_c == 0:
        raise DomainError("v_s and rho_v_c must be nonnegative, not both zero")
    if v_s == 0 or rho_v_c == 0:
        return v_s + rho_v_c  # all of eps goes to the side with dispersion
    best = _best_split(eps, math.sqrt(v_s), math.sqrt(rho_v_c))[2]
    return float(best / q_inverse(eps)) ** 2


def separation_curve(eps_grid, lambda_list) -> list[tuple[float, float, float]]:
    """Rows (eps, lambda, eps_tilde), lambda-major, for CSV emission; one
    vectorized solve, each row equal to ``separation_equivalent_eps``."""
    lam, eps = (m.astype(float).ravel() for m in np.meshgrid(
        lambda_list, eps_grid, indexing="ij"))
    if not eps.size:
        raise DomainError("eps grid and lambda list must be nonempty")
    tilde = _separation(eps, lam)[2]
    return list(zip(eps.tolist(), lam.tolist(), tilde.tolist()))
