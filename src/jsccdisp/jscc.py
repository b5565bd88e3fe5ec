"""Joint source-channel coding dispersion analysis.

OPTA distortion, the dispersion sum V_J = V_S(P, D*) + rho * V_C(W),
normal-approximation distortion thresholds D_n (D* and each D_n by one
slope search of the distortion-rate function), the lossless
bandwidth-expansion sequence rho_n, and the separation-loss quantities
eps_tilde(eps, lambda) and V_sep.

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
    BoundaryDistortion,
    DomainError,
    RateOutOfRange,
    UndefinedAtHalf,
    UselessChannel,
)
from .probcore import Channel, Distribution, q_function, q_inverse
from .source import SourceSpec

CORRECTION_NOTE = "O(log n / n) correction term omitted"
DEFAULT_LAMBDA_CURVES = (1.0, 2.0, 3.0, 5.0, 10.0, 30.0, 100.0, 1000.0)

_BOUNDARY_TOL = 1e-9
_SPLIT_DELTA = 1e-12


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
    capacity: float
    v_min: float
    v_max: float
    capacity_set_is_singleton: bool
    d_star: float
    r_at_d_star: float
    v_s_at_d_star: float
    v_j_low: float
    v_j_high: float
    units: str = "nats"
    correction_note: str = CORRECTION_NOTE


@dataclass(frozen=True)
class ThresholdPoint:
    """Distortion thresholds D_n for both V_J extremes at one n."""

    n: int
    d_with_vlow: float
    d_with_vhigh: float
    target_rate_with_vlow: float
    target_rate_with_vhigh: float
    correction_note: str = CORRECTION_NOTE


@dataclass(frozen=True)
class LosslessRhoPoint:
    """Channel uses per sample for (near) lossless coding at block length n."""

    n: int
    h_over_c: float
    v_source: float
    rho_with_vlow: float
    rho_with_vhigh: float
    correction_note: str = CORRECTION_NOTE


def opta(problem: JsccProblem, tol: float = 1e-9) -> float:
    """The distortion D* solving R(P, D*) = rho * C(W), by one slope search.

    Returns 0 when rho*C >= R(P,0) (lossless regime) and d_max when the
    channel is useless.
    """
    cap = ch.capacity(problem.channel)
    return sa.distortion_rate(problem.source, problem.rho * cap.capacity, tol)


def _check_interior(problem: JsccProblem, d_star: float) -> None:
    dm = sa.d_max(problem.source)
    if d_star <= _BOUNDARY_TOL or d_star >= dm - _BOUNDARY_TOL:
        raise BoundaryDistortion(
            f"D* = {d_star} sits on the boundary of (0, {dm}); the lossy "
            "dispersion is undefined there (use lossless_rho for D = 0)"
        )


def jscc_dispersion(problem: JsccProblem) -> tuple[float, float]:
    """(v_j_low, v_j_high) = V_S(P,D*) + rho * (V_min, V_max), nats^2."""
    rep = dispersion_report(problem)
    return rep.v_j_low, rep.v_j_high


def dispersion_report(problem: JsccProblem) -> DispersionReport:
    """All dispersion quantities for a problem, in nats."""
    cap = ch.capacity(problem.channel)
    disp = ch.vmin_vmax(problem.channel)
    d_star = opta(problem)
    _check_interior(problem, d_star)
    v_s = sa.source_dispersion(problem.source, d_star)
    return DispersionReport(
        capacity=cap.capacity,
        v_min=disp.v_min,
        v_max=disp.v_max,
        capacity_set_is_singleton=disp.capacity_set_is_singleton,
        d_star=d_star,
        r_at_d_star=problem.rho * cap.capacity,
        v_s_at_d_star=v_s,
        v_j_low=v_s + problem.rho * disp.v_min,
        v_j_high=v_s + problem.rho * disp.v_max,
    )


def distortion_threshold(problem: JsccProblem, n: int, tol: float = 1e-9,
                         report: DispersionReport | None = None
                         ) -> ThresholdPoint:
    """D_n solving R(P, D_n) = rho*C - sqrt(V_J/n) * Qinv(eps), both V_J ends.

    Each D_n comes from one slope search, made once when V_J is a single
    value (a singleton capacity set). ``report`` reuses the dispersion
    quantities of the problem across block lengths; without it they are
    computed here. Raises RateOutOfRange when a target rate leaves
    (0, R(P,0)); the value is reported in the message rather than clamped.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    rep = report if report is not None else dispersion_report(problem)
    qi = q_inverse(problem.eps)
    r_zero = sa.rdf(problem.source, 0.0, tol).rate
    targets = {}
    for tag, v in (("vlow", rep.v_j_low), ("vhigh", rep.v_j_high)):
        t = rep.r_at_d_star - math.sqrt(v / n) * qi
        if not (0.0 < t < r_zero):
            raise RateOutOfRange(
                f"target rate {t} nats (using v_j_{tag.replace('v', '')}) "
                f"is outside (0, {r_zero})"
            )
        targets[tag] = t
    d_low = sa.distortion_rate(problem.source, targets["vlow"], tol)
    if targets["vhigh"] == targets["vlow"]:
        d_high = d_low
    else:
        d_high = sa.distortion_rate(problem.source, targets["vhigh"], tol)
    return ThresholdPoint(
        n=n,
        d_with_vlow=d_low,
        d_with_vhigh=d_high,
        target_rate_with_vlow=targets["vlow"],
        target_rate_with_vhigh=targets["vhigh"],
    )


def log_prob_variance(p: Distribution) -> float:
    """Var[log P(S)] in nats^2, the lossless source dispersion."""
    probs = p.probs
    mask = probs > 0
    logs = np.log(probs[mask])
    mean = float(np.sum(probs[mask] * logs))
    return max(float(np.sum(probs[mask] * logs * logs)) - mean * mean, 0.0)


def lossless_rho(src: SourceSpec, channel: Channel, n: int, eps: float,
                 tol: float = 1e-10) -> LosslessRhoPoint:
    """Bandwidth expansion rho_n for (near) lossless transmission.

    rho_n = H/C + sqrt((Var[log P] + rho*V_C)/n) * Qinv(eps)/C with
    rho = H/C inside V_J (the limiting value).
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    if not (0.0 < eps < 1.0):
        raise DomainError("eps must lie in (0, 1)")
    cap = ch.capacity(channel, tol)
    if cap.capacity <= tol:
        raise UselessChannel("lossless transmission needs positive capacity")
    from .probcore import entropy

    h = entropy(src.distribution)
    c = cap.capacity
    ratio = h / c
    v_source = log_prob_variance(src.distribution)
    disp = ch.vmin_vmax(channel, tol)
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


def _minimize_split(eps: float, weight_s: float, weight_c: float,
                    obj_tol: float) -> tuple[float, float]:
    """Minimize weight_s*Qinv(e_s) + weight_c*Qinv(e_c) on e_s * e_c = eps.

    Returns (best e_s, best objective value). Coarse log-spaced scan toward
    both endpoints, then golden-section refinement of the best bracket (the
    objective is unimodal in practice; the scan guards against surprises).
    """

    def eps_c(e_s: float) -> float:
        return (eps - e_s) / (1.0 - e_s)

    def obj(e_s: float) -> float:
        return weight_s * q_inverse(e_s) + weight_c * q_inverse(eps_c(e_s))

    lo_u, hi_u = _SPLIT_DELTA, 1.0 - _SPLIT_DELTA
    height = np.geomspace(_SPLIT_DELTA, 0.5, 33)
    us = np.unique(np.concatenate([height, 1.0 - height]))
    grid = [lo_u] + [float(u) for u in us if lo_u < u < hi_u] + [hi_u]
    vals = [obj(eps * u) for u in grid]
    i = int(np.argmin(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, len(grid) - 1)]

    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = obj(eps * c), obj(eps * d)
    for _ in range(300):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = obj(eps * c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = obj(eps * d)
        if (b - a) < 1e-12 or abs(fc - fd) < obj_tol * 1e-3:
            break
    u_best = 0.5 * (a + b)
    return eps * u_best, obj(eps * u_best)


def separation_split(eps: float, lam: float,
                     grid_tol: float = 1e-10) -> tuple[float, float, float]:
    """Optimal (eps_s, eps_c, eps_tilde) for the separation comparison."""
    if not (0.0 < eps < 1.0):
        raise DomainError("eps must lie in (0, 1)")
    if not (lam > 0):
        raise DomainError("lambda must be positive")
    e_s, best = _minimize_split(eps, 1.0, math.sqrt(lam), grid_tol)
    e_c = (eps - e_s) / (1.0 - e_s)
    return e_s, e_c, q_function(best / math.sqrt(1.0 + lam))


def separation_equivalent_eps(eps: float, lam: float,
                              grid_tol: float = 1e-10) -> float:
    """eps_tilde(eps, lambda): the excess probability a joint scheme would
    need to match the best separation scheme. Symmetric under lam <-> 1/lam.
    """
    return separation_split(eps, lam, grid_tol)[2]


def separation_vsep(eps: float, v_s: float, rho_v_c: float,
                    grid_tol: float = 1e-10) -> float:
    """V_sep: the dispersion of the optimal separation scheme, nats^2.

    V_sep = (min over splits of [sqrt(v_s) Qinv(e_s) + sqrt(rho v_c) Qinv(e_c)]
    / Qinv(eps))^2. Undefined at eps = 1/2 where Qinv vanishes.
    """
    if not (0.0 < eps < 1.0):
        raise DomainError("eps must lie in (0, 1)")
    if eps == 0.5:
        raise UndefinedAtHalf("V_sep is undefined at eps = 1/2")
    if v_s < 0 or rho_v_c < 0 or (v_s == 0 and rho_v_c == 0):
        raise DomainError("v_s and rho_v_c must be nonnegative, not both zero")
    _, best = _minimize_split(eps, math.sqrt(v_s), math.sqrt(rho_v_c), grid_tol)
    qi = q_inverse(eps)
    return (best / qi) ** 2


def separation_curve(eps_grid, lambda_list,
                     grid_tol: float = 1e-10) -> list[tuple[float, float, float]]:
    """Rows (eps, lambda, eps_tilde), lambda-major, for CSV emission."""
    eps_grid = [float(e) for e in eps_grid]
    lambda_list = [float(l) for l in lambda_list]
    if not eps_grid or not lambda_list:
        raise DomainError("eps grid and lambda list must be nonempty")
    rows = []
    for lam in lambda_list:
        for eps in eps_grid:
            rows.append((eps, lam, separation_equivalent_eps(eps, lam, grid_tol)))
    return rows
