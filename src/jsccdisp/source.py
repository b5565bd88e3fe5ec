"""Discrete memoryless source analysis.

Rate-distortion function R(P,D) and its inverse D(P,R) by one Lagrangian
slope search, each slope solved by the simplex Newton kernel of
``probcore`` with Blahut's bound as its certificate, the simplex gradient
of R as the centered d-tilted information, and the source dispersion Var_P
of that gradient.

Rates are nats per source sample; the gradient convention is centered
(g(s) = d/de R((1-e)P + e*delta_s, D) at e=0), which differs from raw
partial derivatives by an additive constant that the variance ignores.
The d-tilted information j(x) = s*D - log sum_z q*(z) exp(s*d(x,z)), with
s the slope and q* the reproduction marginal of the solve at D, has
E_P[j] = R(P,D) and centered version g (Kostina & Verdu, IEEE-IT 2012;
Ingber & Kochman, DCC 2011).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryDistortion, DomainError, NonConvergence
from .probcore import (
    Distribution,
    _joint_mutual_information,
    _simplex_newton,
    q_inverse,
)

BOUNDARY_TOL = 1e-12
DEFAULT_RDF_TOL = 1e-9
_INNER_TOL = 1e-13
_MAX_SLOPE_ITER = 300


@dataclass(frozen=True)
class SourceSpec:
    """A source distribution plus a nonnegative |S| x |Shat| distortion matrix.

    Normalization: every source symbol has at least one zero-distortion
    reproduction, so the minimal achievable distortion is 0.
    """

    distribution: Distribution
    distortion: np.ndarray

    def __post_init__(self):
        mat = np.array(self.distortion, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != self.distribution.alphabet_size:
            raise DomainError(
                "distortion must be 2-D with one row per source symbol"
            )
        if not np.all(np.isfinite(mat)) or np.any(mat < 0):
            raise DomainError("distortion entries must be finite and nonnegative")
        if np.any(mat.min(axis=1) > 0):
            raise DomainError(
                "every source symbol needs a zero-distortion reproduction"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "distortion", mat)

    @property
    def source_size(self) -> int:
        return int(self.distortion.shape[0])

    @property
    def reproduction_size(self) -> int:
        return int(self.distortion.shape[1])

    @functools.cached_property
    def _zero_rate(self) -> float:
        """R(P, 0), at and above which D(P, R) is 0: solved on first use
        and kept with the source, so every later caller reads it."""
        return rdf(self, 0.0).rate


@dataclass(frozen=True)
class RdfResult:
    rate: float
    test_channel: np.ndarray
    lagrange_slope: float
    achieved_distortion: float
    reproduction: np.ndarray


def d_max(src: SourceSpec) -> float:
    """Distortion where R hits zero: the best constant reproduction."""
    return float(np.min(src.distribution.probs @ src.distortion))


def _fixed_slope(p: np.ndarray, dmat: np.ndarray, slope: float, tol: float,
                 zero_mask: np.ndarray | None = None):
    """The rate-distortion problem at a fixed Lagrangian slope s <= 0.

    Returns (rate, distortion, test_channel, q). The reproduction marginal q
    minimises -sum_x P(x) log (A q)_x over the simplex, A = exp(s*d)
    (Csiszar's dual form), by ``probcore._simplex_newton`` with the gradient
    -c, c = A^T (P / A q), the Hessian A^T diag(P / (A q)^2) A and Blahut's
    bound log max c on the gap. The solve aims for 1e-13 and accepts any gap
    within ``tol``, or within 1e-13 for a smaller ``tol``. With ``zero_mask``
    the weights A become the indicator of d == 0 (the s -> -inf limit),
    which solves the D = 0 endpoint.
    """
    a = zero_mask.astype(float) if zero_mask is not None else np.exp(slope * dmat)
    support = p > 0
    p_s = p[support]
    a_s = a[support]

    def oracle(q):
        denom = a_s @ q
        c = (p_s / denom) @ a_s
        hess = (a_s.T * (p_s / denom ** 2)) @ a_s
        return -float(p_s @ np.log(denom)), -c, hess, math.log(float(c.max()))

    q, gap, _ = _simplex_newton(oracle, dmat.shape[1], _INNER_TOL)
    denom = a_s @ q
    lam = np.zeros_like(a)
    lam[support] = (q[None, :] * a_s) / denom[:, None]
    if np.any(~support):
        lam[~support] = q  # rows off the source support never matter
    dist = float(np.sum(p[:, None] * lam * dmat))
    rate = float(_joint_mutual_information(p[:, None] * lam))
    if not (gap <= max(tol, _INNER_TOL) and math.isfinite(rate)):
        raise NonConvergence(
            f"rate-distortion solve at slope {slope} for P = {p.tolist()}: "
            f"gap {gap:.3e} (tol {tol}), test channel rate {rate}")
    return rate, dist, lam, q


def _slope_search(p: np.ndarray, dmat: np.ndarray, target: float,
                  by_rate: bool, tol: float):
    """Find the Lagrangian slope s < 0 at which D(s), or R(s) with
    ``by_rate``, is within ``tol`` of ``target``.

    D(s) grows toward d_max and R(s) falls toward 0 as s -> 0-. The slope
    is bracketed by doubling from -1 and by 0, then narrowed by bisection
    with secant proposals. Returns (slope, rate, distortion, test_channel,
    reproduction) at the last slope tried.
    """
    key, sign = (0, -1.0) if by_rate else (1, 1.0)
    s_lo = -1.0
    for _ in range(80):
        sol = _fixed_slope(p, dmat, s_lo, tol)
        if sign * (sol[key] - target) <= 0:
            break
        s_lo *= 2.0
    else:
        raise NonConvergence(f"could not bracket the slope for P = {p.tolist()}")
    s_hi = 0.0
    evals = [(s_lo, sol[key])]
    for _ in range(_MAX_SLOPE_ITER):
        # secant proposal from the two most recent evaluations, clipped to
        # the bracket; fall back to its midpoint
        slope = 0.5 * (s_lo + s_hi)
        if len(evals) >= 2:
            (s1, v1), (s2, v2) = evals[-2], evals[-1]
            if v2 != v1:
                cand = s2 + (target - v2) * (s1 - s2) / (v1 - v2)
                if s_lo < cand < s_hi:
                    slope = cand
        sol = _fixed_slope(p, dmat, slope, tol)
        evals.append((slope, sol[key]))
        if abs(sol[key] - target) <= tol:
            break
        if sign * (sol[key] - target) < 0:
            s_lo = slope
        else:
            s_hi = slope
        if s_hi - s_lo <= 1e-15 * max(1.0, abs(s_lo)):
            break  # slope pinned; the tangent correction handles the rest
    return (slope,) + sol


def rdf(src: SourceSpec, d: float, tol: float = DEFAULT_RDF_TOL) -> RdfResult:
    """R(P,D): minimal mutual information over test channels meeting D.

    Searches the Lagrangian slope until the achieved distortion is within
    ``tol`` of D, then applies the tangent-line correction
    R(D) ~= R(D(s)) + s*(D - D(s)), exact to O((D - D(s))^2) and exact on
    linear segments. Values of D within 1e-12 of 0 or d_max route to
    closed-form endpoints.
    """
    if d < 0:
        raise DomainError("distortion level must be nonnegative")
    if tol <= 0:
        raise DomainError("tol must be positive")
    p = src.distribution.probs
    dmat = src.distortion
    dm = d_max(src)

    if d >= dm - BOUNDARY_TOL:
        best = int(np.argmin(p @ dmat))
        lam = np.zeros_like(dmat)
        lam[:, best] = 1.0
        return RdfResult(0.0, lam, 0.0, float((p @ dmat)[best]),
                         lam[0].copy())

    if d <= BOUNDARY_TOL:
        rate, dist, lam, q = _fixed_slope(p, dmat, 0.0, tol,
                                          zero_mask=(dmat == 0))
        return RdfResult(rate, lam, -math.inf, dist, q)

    slope, rate_s, dist_s, lam, q = _slope_search(p, dmat, d, False, tol)
    rate = max(rate_s + slope * (d - dist_s), 0.0)
    return RdfResult(rate, lam, slope, dist_s, q)


def distortion_rate(src: SourceSpec, rate: float,
                    tol: float = DEFAULT_RDF_TOL) -> float:
    """D(P,R): the distortion at which R(P,D) equals ``rate``.

    Searches the Lagrangian slope until R(s) is within ``tol`` of the
    rate, then applies the tangent-line correction
    D(R) ~= D(s) + (R - R(s))/s. Returns d_max for rate <= 0 and 0 for
    rate >= R(P,0), which is solved once per source.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    dm = d_max(src)
    if rate <= 0.0:
        return dm
    if rate >= src._zero_rate:
        return 0.0
    slope, rate_s, dist_s, _, _ = _slope_search(
        src.distribution.probs, src.distortion, rate, True, tol)
    return min(max(dist_s + (rate - rate_s) / slope, 0.0), dm)


def _tilted_solve(src: SourceSpec, d: float, tol: float = 1e-11
                  ) -> tuple[RdfResult, np.ndarray, float]:
    """(res, g, V_S) from one rdf solve at D: the solve, the centered
    d-tilted information g = j - E_P[j] built from its slope s < 0 and q*,
    and V_S = Var_P[j]."""
    dm = d_max(src)
    if not (BOUNDARY_TOL < d < dm - BOUNDARY_TOL):
        raise BoundaryDistortion(
            f"gradient needs D strictly inside (0, {dm}); got {d}"
        )
    res = rdf(src, d, tol)
    s = res.lagrange_slope
    j = s * d - np.log(np.exp(s * src.distortion) @ res.reproduction)
    p = src.distribution.probs
    g = j - float(np.dot(p, j))
    return res, g, float(np.dot(p, g ** 2))


def rdf_gradient(src: SourceSpec, d: float) -> np.ndarray:
    """Centered simplex gradient of R(Q,D) at Q=P: j - E_P[j].

    j is the d-tilted information, built from the slope and the
    reproduction marginal of one rdf solve at D.
    """
    return _tilted_solve(src, d)[1]


def source_dispersion(src: SourceSpec, d: float) -> float:
    """V_S(P,D) = Var_P[j(S,D)], the variance of the d-tilted information."""
    return _tilted_solve(src, d)[2]


def _normal_rate(rate: float, v_s: float, n: int, eps: float) -> float:
    """R + sqrt(V_S/n) * Qinv(eps), the rate the normal approximation
    needs at block length n."""
    return rate + math.sqrt(v_s / n) * q_inverse(eps)


def source_rate_at(src: SourceSpec, d: float, n: int, eps: float) -> float:
    """Normal approximation R(P,D) + sqrt(V_S/n) * Qinv(eps), in nats, with
    R and V_S from one rdf solve.

    The O(log n / n) correction term is omitted (flagged in CLI reports).
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    if not (0.0 < eps < 1.0):
        raise DomainError("eps must lie in (0, 1)")
    res, _, v_s = _tilted_solve(src, d)
    return _normal_rate(res.rate, v_s, n, eps)
