"""Discrete memoryless source analysis.

Rate-distortion function R(P,D) and its inverse D(P,R) by one Lagrangian
slope search in Blahut's parametrisation (IEEE-IT 1972), the simplex
gradient of R as the centered d-tilted information, and the source
dispersion Var_P of that gradient. The slope search is a single loop of
Newton steps on the slope s, with dD/ds from implicit differentiation of
each solved problem (D(s) is the smooth map of Rose, IEEE-IT 1994). A
Newton point that leaves the bracket, or moves more than a quarter of its
width, gives way to the midpoint, or to a doubling of the slope until the
slope is bracketed; a row still open after ``_MAX_SLOPE_ITER`` rounds fails
with NonConvergence naming P. Each slope is solved by the simplex Newton
kernel of ``probcore`` with Blahut's bound as its certificate. The search
runs on a batch of source laws at once (``_rdf_rates``), from a start
slope that a caller may give, and to a target that may differ per row:
the excess simulator seeds its batch of source types with the slope of
``rdf`` at P itself, and ``_distortion_rates`` searches a whole table of
rates (every D_n of a ``jscc`` report) as one batch, each row from s = -1.
``rdf`` and ``distortion_rate`` are batches of one from s = -1. Each
fixed-slope solve writes its rows into one record (``_Solves``), which
never leaves this module: a solved point leaves it as an ``RdfResult``,
or as its bare rate (``_rdf_rates``, NaN where the solve failed) or
distortion (``_distortion_rates``, which raises the first failed row's
NonConvergence through ``_Solves.result``). V_S at a point is read off the
solve that found the point (``_tilted``, the one boundary rule), so D*
and V_S(P, D*) take one search (``_tilted_at_rate``).

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
# the loosest rdf tolerance behind a V_S read off a solve at D
_TILTED_TOL = 1e-11
# a rate search to 1e-12 whose solve gives V_S puts D(s) within 1e-12 / |s|,
# inside the ``_TILTED_TOL`` of ``_tilted`` wherever s < -0.1
_TILTED_RATE_TOL = 1e-12


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

    @functools.cached_property
    def _zero_rate(self) -> float:
        """R(P, 0), at and above which D(P, R) is 0: solved on first use
        and kept with the source, so every later caller reads it."""
        return rdf(self, 0.0).rate


@dataclass(frozen=True)
class RdfResult:
    """R(P, D) with the solve behind it: the test channel and reproduction
    marginal at the accepted Lagrangian slope, the distortion they achieve,
    ``gap``, the final Blahut bound of that slope's solve, and
    ``iterations``, the Newton steps of the whole slope search (both 0 at
    D >= d_max)."""

    rate: float
    test_channel: np.ndarray
    lagrange_slope: float
    achieved_distortion: float
    reproduction: np.ndarray
    gap: float
    iterations: int


def d_max(src: SourceSpec) -> float:
    """Distortion where R hits zero: the best constant reproduction."""
    return float(np.min(src.distribution.probs @ src.distortion))


class _Solves:
    """The record of a batch of rate-distortion solves, one row per problem,
    written by ``_fixed_slope``: the slope, rate, distortion, test channel,
    reproduction and gap of the last slope solved, the Newton steps summed
    over every slope tried, and an error message for each row that failed
    (None elsewhere)."""

    def __init__(self, t: int, ns: int, nr: int):
        self.slope = np.zeros(t)
        self.rate = np.zeros(t)
        self.dist = np.zeros(t)
        self.lam = np.zeros((t, ns, nr))
        self.q = np.zeros((t, nr))
        self.gap = np.zeros(t)
        self.iterations = np.zeros(t, dtype=np.int64)
        self.error: list[str | None] = [None] * t

    def result(self, row: int) -> RdfResult:
        """The solve of one row, or its NonConvergence."""
        if self.error[row] is not None:
            raise NonConvergence(self.error[row])
        return RdfResult(float(self.rate[row]), self.lam[row],
                         float(self.slope[row]), float(self.dist[row]),
                         self.q[row], float(self.gap[row]),
                         int(self.iterations[row]))


def _rd_oracle(q: np.ndarray, p: np.ndarray, a: np.ndarray):
    """``probcore._simplex_newton`` oracle of F(q) = -sum_x P(x) log (A q)_x
    at the reproduction marginals q (R, |Shat|) of the problems with source
    laws ``p`` (R, |S|) and weights ``a`` (R, |S|, |Shat|): the gradient is
    -c, c = A^T (P / A q), the Hessian A^T diag(P / (A q)^2) A, and the gap
    Blahut's bound log max c. A source letter of zero mass adds 0 to each,
    as long as its (A q)_x is positive: ``_fixed_slope`` gives it a row of
    ones."""
    denom = (a @ q[:, :, None])[:, :, 0]
    c = ((p / denom)[:, None, :] @ a)[:, 0, :]
    hess = (a.transpose(0, 2, 1) * (p / denom ** 2)[:, None, :]) @ a
    return (-(p * np.log(denom)).sum(axis=1), -c, hess,
            np.log(c.max(axis=1)))


def _fixed_slope(p: np.ndarray, dmat: np.ndarray, slope: np.ndarray,
                 tol: float, out: _Solves,
                 rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rate-distortion problems of the rows of ``p`` (T, |S|), each at
    its own fixed Lagrangian slope s <= 0, written into ``out`` at ``rows``.

    Each row's slope, rate, distortion, test channel, reproduction and gap
    replace what ``out`` held at its row, its Newton steps are added to
    ``out.iterations``, and a failed row gets its error message. Returns
    what a slope search reads: dD/ds per row and the mask of the rows that
    failed. Each reproduction marginal q minimises -sum_x P(x) log (A q)_x
    over the simplex, A = exp(s*d) (Csiszar's dual form), in one
    ``probcore._simplex_newton`` call on ``_rd_oracle``. A solve aims for
    1e-13 and passes with a finite rate and any gap within ``tol``, or
    within 1e-13 for a smaller ``tol``. The exponent s*d is read as 0 where
    d = 0, so the slope -inf makes A the indicator of d = 0 and solves the
    D = 0 endpoint. It is read as 0 on the row of a source letter of zero
    mass as well: a row of ones has (A q)_x = 1, so that letter adds 0 to
    the oracle even where q puts no mass on its zero-distortion
    reproductions, where its indicator row would give 0/0.

    dD/ds comes from implicit differentiation of the optimality condition
    c(q, s) = A^T (P / A q) = 1 on the support of q: it is
    sum_x P(x) Var_lambda[d | x] + b^T dq/ds, where H dq/ds = b, H is the
    Hessian of ``_rd_oracle`` and b_z = sum_x P(x) A_xz / (Aq)_x
    (d_xz - D_x), D_x = E_lambda[d | x]; a letter whose mass q_z is below
    its slack 1 - c_z is off the support, where dq_z/ds = 0 (the kernel
    ends most such letters at exactly 0, where the rule holds as well).
    The system is solved in the sqrt(q)-scaled variable by a
    pseudo-inverse, as H is singular when |Shat| > |S|. dR/ds is s * dD/ds.
    """
    a = np.exp(np.multiply(slope[:, None, None], dmat,
                           where=(dmat > 0) & (p[:, :, None] > 0),
                           out=np.zeros((len(p),) + dmat.shape)))
    q, gap, steps = _simplex_newton(_rd_oracle, (p, a), dmat.shape[1],
                                    _INNER_TOL)
    aq = (a @ q[:, :, None])[:, :, 0]
    lam = np.where(p[:, :, None] > 0, q[:, None, :] * a / aq[:, :, None],
                   q[:, None, :])  # rows off the source support never matter
    joint = p[:, :, None] * lam
    dist = (joint * dmat).sum(axis=(1, 2))
    rate = np.full(len(p), _joint_mutual_information(joint))
    # dD/ds as derived above, b and H taken in the sqrt(q)-scaled variable
    dist_x = (lam * dmat).sum(axis=2)
    w = p / aq
    root = np.where(q > 1.0 - (w[:, None, :] @ a)[:, 0, :], np.sqrt(q), 0.0)
    u = root * np.einsum("ts,tsz->tz", w, a * (dmat - dist_x[:, :, None]))
    scaled = (a.transpose(0, 2, 1) * (w / aq)[:, None, :]) @ a
    scaled *= root[:, :, None] * root[:, None, :]
    ddist = ((joint * dmat * dmat).sum(axis=(1, 2)) - (p * dist_x ** 2).sum(1)
             + (u * (np.linalg.pinv(scaled, 1e-10)
                     @ u[:, :, None])[:, :, 0]).sum(axis=1))
    out.slope[rows], out.rate[rows], out.dist[rows] = slope, rate, dist
    out.lam[rows], out.q[rows], out.gap[rows] = lam, q, gap
    out.iterations[rows] += steps
    failed = ~((gap <= max(tol, _INNER_TOL)) & np.isfinite(rate))
    for i in np.flatnonzero(failed):
        out.error[rows[i]] = (
            f"rate-distortion solve at slope {slope[i]} for "
            f"P = {p[i].tolist()}: gap {gap[i]:.3e} (tol {tol}), "
            f"test channel rate {rate[i]}")
    return ddist, failed


def _slope_search(p: np.ndarray, dmat: np.ndarray, target,
                  by_rate: bool, tol: float, out: _Solves,
                  rows: np.ndarray, start: float = -1.0) -> None:
    """For each of the ``rows`` of ``p`` (T, |S|), find the Lagrangian slope
    s < 0 at which D(s), or R(s) with ``by_rate``, is within ``tol`` of
    its ``target`` (one value for every row, or one per row of ``rows``),
    and record it in ``out``.

    D(s) grows toward d_max and R(s) falls toward 0 as s -> 0-, so the
    signed residual g = +-(value - target) rises through 0 at the slope
    sought, with slope g' = dD/ds or -s dD/ds from ``_fixed_slope``. One
    loop: each row starts at ``start`` (at -1 where that is not a finite
    negative slope) and keeps a bracket [lo, hi] with g(lo) < 0 <= g(hi),
    lo = -inf until a slope lands below and hi = 0 at first. The next slope
    is the Newton point s - g/g' when it lies strictly inside the bracket
    and no farther from s than a quarter of the bracket width, or no
    farther than 4 s while lo = -inf; otherwise it is the midpoint of the
    bracket, or 2 s while lo = -inf. A row stops when its value is within
    ``tol``, when its solve failed, or when its bracket is pinned to 1e-15
    relative, which leaves it to the tangent correction. Each round solves
    every row still searching as one batch and overwrites its record, so
    ``out`` ends with each row at the slope it stopped at, or with its
    error; a row still open after ``_MAX_SLOPE_ITER`` rounds gets an error
    naming P and the round count.
    """
    value, sign = (out.rate, -1.0) if by_rate else (out.dist, 1.0)
    target = np.full(len(rows), target)
    slope = np.full(len(rows), start if -math.inf < start < 0 else -1.0)
    lo, hi = np.full(len(rows), -np.inf), np.zeros(len(rows))
    for _ in range(_MAX_SLOPE_ITER):
        ddist, failed = _fixed_slope(p[rows], dmat, slope, tol, out, rows)
        g = sign * (value[rows] - target)
        dg = -slope * ddist if by_rate else ddist
        below = g < 0
        lo, hi = np.where(below, slope, lo), np.where(below, hi, slope)
        # a pinned slope is left to the tangent correction
        going = (np.abs(g) > tol) & ~failed & ((lo == -np.inf) | (
            hi - lo > 1e-15 * np.maximum(1.0, np.abs(lo))))
        if not going.all():
            rows, target, slope, lo, hi, g, dg = (part[going] for part in (
                rows, target, slope, lo, hi, g, dg))
            if not rows.size:
                return
        with np.errstate(over="ignore"):  # an infinite step is never taken
            step = np.divide(g, dg, out=np.full(len(rows), np.inf),
                             where=dg > 0)
        newton = slope - step
        # a Newton point past 4 s comes from the flat part of D(s), as s
        # nears the slope where R reaches 0
        reach = np.where(lo == -np.inf, -3.0 * slope, 0.25 * (hi - lo))
        slope = np.where((lo < newton) & (newton < hi)
                         & (np.abs(step) <= reach), newton,
                         np.where(lo == -np.inf, 2.0 * slope,
                                  0.5 * (lo + hi)))
    for r in rows:
        out.error[r] = (f"rate-distortion slope search for P = "
                        f"{p[r].tolist()}: still searching after "
                        f"{_MAX_SLOPE_ITER} rounds")


def _rdf_solves(p: np.ndarray, dmat: np.ndarray, d: float,
                tol: float, start: float = -1.0) -> _Solves:
    """R(P_t, D) for every row P_t of ``p`` (T, |S|) at one D, as in
    ``rdf``: the rows at or above their d_max, within 1e-12, take the
    constant reproduction and rate 0; for D within 1e-12 of 0 the rest
    solve the zero-distortion endpoint in one ``_fixed_slope`` call at the
    slope -inf; otherwise one batched slope search from ``start`` solves
    them, and their rates get the tangent-line correction."""
    out = _Solves(len(p), *dmat.shape)
    expected = p @ dmat
    best = np.argmin(expected, axis=1)
    at_max = d >= expected[np.arange(len(p)), best] - BOUNDARY_TOL
    ends, rows = np.flatnonzero(at_max), np.flatnonzero(~at_max)
    out.lam[ends, :, best[ends]] = 1.0
    out.q[ends, best[ends]] = 1.0
    out.dist[ends] = expected[ends, best[ends]]
    if not rows.size:
        return out
    if d <= BOUNDARY_TOL:
        _fixed_slope(p[rows], dmat, np.full(rows.size, -math.inf), tol, out,
                     rows)
        return out
    _slope_search(p, dmat, d, False, tol, out, rows, start)
    out.rate[rows] = np.maximum(
        out.rate[rows] + out.slope[rows] * (d - out.dist[rows]), 0.0)
    return out


def _rdf_rates(p: np.ndarray, dmat: np.ndarray, d: float,
               tol: float, start: float = -1.0) -> np.ndarray:
    """R(P_t, D) for every row of ``p`` (T, |S|) from one batched solve
    whose slope search starts at ``start``, as ``rdf`` gives it, with NaN
    for each row whose ``rdf`` would raise."""
    out = _rdf_solves(p, dmat, d, tol, start)
    return np.where([e is None for e in out.error], out.rate, np.nan)


def rdf(src: SourceSpec, d: float, tol: float = DEFAULT_RDF_TOL) -> RdfResult:
    """R(P,D): minimal mutual information over test channels meeting D.

    Searches the Lagrangian slope until the achieved distortion is within
    ``tol`` of D, then applies the tangent-line correction
    R(D) ~= R(D(s)) + s*(D - D(s)), exact to O((D - D(s))^2) and exact on
    linear segments. Values of D within 1e-12 of 0 or d_max route to
    closed-form endpoints (D = +inf is the d_max one). A batch of one of
    ``_rdf_solves``. Raises DomainError unless D >= 0, NaN included, and
    NonConvergence naming P when a slope solve fails or the search is
    still open after ``_MAX_SLOPE_ITER`` rounds.
    """
    if not d >= 0:
        raise DomainError(f"distortion level must be nonnegative; got {d}")
    if not tol > 0:
        raise DomainError("tol must be positive")
    return _rdf_solves(src.distribution.probs[None], src.distortion, d,
                       tol).result(0)


def distortion_rate(src: SourceSpec, rate: float,
                    tol: float = DEFAULT_RDF_TOL) -> float:
    """D(P,R): the distortion at which R(P,D) equals ``rate``.

    Searches the Lagrangian slope until R(s) is within ``tol`` of the
    rate, then applies the tangent-line correction
    D(R) ~= D(s) + (R - R(s))/s. Returns d_max for rate <= 0 and 0 for
    rate >= R(P,0), which is solved once per source. Raises DomainError on
    a NaN rate, and NonConvergence as ``rdf`` does.
    """
    d, _ = _distortion_rates(src, np.array([rate], dtype=float), tol)
    return float(d[0])


def _distortion_rates(src: SourceSpec, rates: np.ndarray, tol: float
                      ) -> tuple[np.ndarray, dict[int, RdfResult]]:
    """D(P, R) for each of ``rates`` (T,), as ``distortion_rate`` gives it,
    and the ``RdfResult`` of the final solve of each row that took a search,
    by row.

    A rate <= 0 gives d_max and a rate >= R(P,0) gives 0 (R(P,0) is solved
    only when some rate is positive), with no solve; the rates between take
    one batched slope search, every row from s = -1, and the tangent
    correction. Raises the NonConvergence of the first failed row, in row
    order, naming P (``_Solves.result``).
    """
    if not tol > 0:
        raise DomainError("tol must be positive")
    if np.isnan(rates).any():
        raise DomainError("rate must not be NaN")
    dm = d_max(src)
    d = np.where(rates <= 0.0, dm, 0.0)
    out = _Solves(len(rates), *src.distortion.shape)
    inside = rates > 0.0
    if inside.any():
        inside &= rates < src._zero_rate
    rows = np.flatnonzero(inside)
    if rows.size:
        probs = src.distribution.probs
        _slope_search(np.broadcast_to(probs, (len(rates), probs.size)),
                      src.distortion, rates[rows], True, tol, out, rows)
    solves = {r: out.result(r) for r in rows.tolist()}
    d[rows] = np.minimum(np.maximum(
        out.dist[rows] + (rates[rows] - out.rate[rows]) / out.slope[rows],
        0.0), dm)
    return d, solves


def _tilted(src: SourceSpec, d: float, res: RdfResult | None = None,
            tol: float = _TILTED_TOL) -> tuple[RdfResult, np.ndarray, float]:
    """(res, g, V_S) at D: g = j - E_P[j], the centered d-tilted information
    of the slope and q* of the solve ``res`` that found D, and V_S = Var_P[j].
    Without ``res``, D is solved here by one ``rdf`` call to
    min(``tol``, ``_TILTED_TOL``).

    The one boundary rule for V_S: BoundaryDistortion, before any solve is
    made or read, unless D lies more than ``BOUNDARY_TOL`` inside
    (0, d_max)."""
    dm = d_max(src)
    if not (BOUNDARY_TOL < d < dm - BOUNDARY_TOL):
        raise BoundaryDistortion(
            "V_S and the d-tilted information need D strictly inside "
            f"(0, {dm}); got D = {d} (D = 0 is the lossless regime: "
            "jscc --lossless)"
        )
    if res is None:
        res = rdf(src, d, min(tol, _TILTED_TOL))
    s = res.lagrange_slope
    j = s * d - np.log(np.exp(s * src.distortion) @ res.reproduction)
    p = src.distribution.probs
    g = j - float(np.dot(p, j))
    return res, g, float(np.dot(p, g ** 2))


def _tilted_at_rate(src: SourceSpec, rate: float
                    ) -> tuple[float, RdfResult, np.ndarray, float]:
    """(D, res, g, V_S) at D = D(P, ``rate``): one ``_distortion_rates``
    search to ``_TILTED_RATE_TOL``, whose final solve gives ``_tilted`` at
    D. NonConvergence names P when the search failed; an endpoint D, where
    the search makes no solve, is refused by ``_tilted`` as it is on the
    boundary."""
    d, solves = _distortion_rates(src, np.array([rate]), _TILTED_RATE_TOL)
    return (float(d[0]),) + _tilted(src, float(d[0]), solves.get(0))


def rdf_gradient(src: SourceSpec, d: float) -> np.ndarray:
    """Centered simplex gradient of R(Q,D) at Q=P: j - E_P[j].

    j is the d-tilted information, built from the slope and the
    reproduction marginal of one rdf solve at D.
    """
    return _tilted(src, d)[1]


def source_dispersion(src: SourceSpec, d: float) -> float:
    """V_S(P,D) = Var_P[j(S,D)], the variance of the d-tilted information."""
    return _tilted(src, d)[2]


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
    res, _, v_s = _tilted(src, d)
    return _normal_rate(res.rate, v_s, n, eps)
