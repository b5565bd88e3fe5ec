"""Finite-alphabet probability primitives and method-of-types machinery.

All logarithms are natural (nats); the CLI converts to bits on output.
The conventions 0*log(0) = 0 and 0*log(0/0) = 0 are applied throughout,
by the private kernels below that every information quantity is built on.
Every value type is immutable after construction, so everything here is
safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AbsoluteContinuityViolated,
    DomainError,
    EnumerationTooLarge,
    LengthMismatch,
    SymbolOutOfRange,
)

SUM_TOL = 1e-12
DEFAULT_ENUMERATION_CAP = 10_000_000


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Distribution:
    """A probability vector over a finite alphabet.

    Entries must be nonnegative and sum to 1 within ``SUM_TOL``.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.probs, float)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("probs must be a nonempty 1-D vector")
        if not np.all(np.isfinite(arr)):
            raise DomainError("probs must be finite")
        if np.any(arr < 0):
            raise DomainError("probs must be nonnegative")
        if abs(float(arr.sum()) - 1.0) > SUM_TOL:
            raise DomainError(
                f"probs must sum to 1 within {SUM_TOL}, got {float(arr.sum())!r}"
            )
        object.__setattr__(self, "probs", arr)

    @property
    def alphabet_size(self) -> int:
        return int(self.probs.size)


@dataclass(frozen=True)
class Channel:
    """A discrete memoryless channel: a row-stochastic |X| x |Y| matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _frozen_array(self.matrix, float)
        if mat.ndim != 2 or mat.size == 0:
            raise DomainError("channel matrix must be a nonempty 2-D array")
        if not np.all(np.isfinite(mat)):
            raise DomainError("channel matrix must be finite")
        if np.any(mat < 0):
            raise DomainError("channel matrix must be nonnegative")
        row_sums = mat.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > SUM_TOL):
            raise DomainError(
                f"each channel row must sum to 1 within {SUM_TOL}; "
                f"row sums are {row_sums.tolist()}"
            )
        object.__setattr__(self, "matrix", mat)

    @property
    def input_size(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def output_size(self) -> int:
        return int(self.matrix.shape[1])


@dataclass(frozen=True)
class EmpiricalType:
    """The type (empirical distribution scaled by n) of a length-n sequence."""

    counts: np.ndarray
    n: int

    def __post_init__(self):
        counts = _frozen_array(self.counts, np.int64)
        if counts.ndim != 1 or counts.size == 0:
            raise DomainError("counts must be a nonempty 1-D integer vector")
        if np.any(counts < 0):
            raise DomainError("counts must be nonnegative")
        if self.n < 1:
            raise DomainError("block length n must be positive")
        if int(counts.sum()) != int(self.n):
            raise DomainError(
                f"counts must sum to n={self.n}, got {int(counts.sum())}"
            )
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n", int(self.n))

    @property
    def alphabet_size(self) -> int:
        return int(self.counts.size)

    def distribution(self) -> Distribution:
        return Distribution(self.counts / self.n)


@dataclass(frozen=True)
class ConditionalType:
    """Joint counts of an (input, output) sequence pair.

    Row marginals reproduce the input sequence's type exactly.
    """

    joint_counts: np.ndarray
    n: int

    def __post_init__(self):
        joint = _frozen_array(self.joint_counts, np.int64)
        if joint.ndim != 2 or joint.size == 0:
            raise DomainError("joint_counts must be a nonempty 2-D integer array")
        if np.any(joint < 0):
            raise DomainError("joint_counts must be nonnegative")
        if self.n < 1:
            raise DomainError("block length n must be positive")
        if int(joint.sum()) != int(self.n):
            raise DomainError(
                f"joint counts must sum to n={self.n}, got {int(joint.sum())}"
            )
        object.__setattr__(self, "joint_counts", joint)
        object.__setattr__(self, "n", int(self.n))

    def row_marginal(self) -> EmpiricalType:
        return EmpiricalType(self.joint_counts.sum(axis=1), self.n)


# ---------------------------------------------------------------------------
# Entropy and divergence quantities
# ---------------------------------------------------------------------------

def _log_ratio(num, den) -> np.ndarray:
    """log(num / den) where num > 0 and 0 elsewhere, ``den`` broadcast to
    the shape of ``num``: the one place the 0*log(0) = 0 convention lives."""
    ratio = np.divide(num, den, out=np.ones(np.shape(num)), where=num > 0)
    return np.log(ratio, out=ratio)


def _weighted_variance(w, x, axis=None):
    """sum w*x^2 - (sum w*x)^2 along ``axis``, floored at 0."""
    mean = np.sum(w * x, axis=axis)
    return np.maximum(np.sum(w * x * x, axis=axis) - mean * mean, 0.0)


def _joint_mutual_information(joint):
    """I(X;Y) of the law joint / total over the last two axes, batched and
    floored at 0; ``joint`` may hold counts."""
    joint = np.asarray(joint, dtype=np.float64)
    rows = joint.sum(axis=-1, keepdims=True)
    cols = joint.sum(axis=-2, keepdims=True)
    total = rows.sum(axis=-2, keepdims=True)
    # the conditional first: rows * cols can underflow to 0 on a denormal
    # column, while cols >= joint keeps every denominator below positive
    cond = np.divide(joint, rows, out=np.zeros(joint.shape), where=joint > 0)
    terms = joint * _log_ratio(cond * total, cols)
    return np.maximum(terms.sum(axis=(-2, -1)) / total[..., 0, 0], 0.0)


def entropy(p: Distribution) -> float:
    """Shannon entropy H(p) in nats, with 0*log(0) = 0."""
    return float(-np.sum(p.probs * _log_ratio(p.probs, 1.0)))


def _log_likelihood_ratio(p: Distribution, q: Distribution) -> np.ndarray:
    """log(p/q) on the support of p, once p << q on a shared alphabet."""
    if p.alphabet_size != q.alphabet_size:
        raise DomainError("p and q must share an alphabet")
    if np.any((q.probs == 0) & (p.probs > 0)):
        raise AbsoluteContinuityViolated("support(p) must be contained in support(q)")
    return _log_ratio(p.probs, q.probs)


def kl_divergence(p: Distribution, q: Distribution) -> float:
    """Relative entropy D(p || q) in nats.

    Requires absolute continuity: q_i = 0 implies p_i = 0.
    """
    return float(np.sum(p.probs * _log_likelihood_ratio(p, q)))


def divergence_variance(p: Distribution, q: Distribution) -> float:
    """Variance of the log-likelihood ratio log(p/q) under p, in nats^2."""
    return float(_weighted_variance(p.probs, _log_likelihood_ratio(p, q)))


# ---------------------------------------------------------------------------
# Convex programs on the probability simplex
# ---------------------------------------------------------------------------

_MAX_NEWTON_ITER = 200


def _solve_each(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(a, b)`` for a stack of systems, one at a time, with
    NaN for each system that is singular in floating point."""
    out = np.full(b.shape, np.nan)
    for i in range(len(a)):
        try:
            out[i] = np.linalg.solve(a[i], b[i])
        except np.linalg.LinAlgError:
            pass
    return out


def _newton_direction(x, grad, hess, mu):
    """The Newton directions of F - mu * sum(log x) under sum(dx) = 0 at the
    rows x (R, k), with grad F (R, k), Hessian H (R, k, k) and a weight mu
    (R,) per row, in the scaled variable dy = dx / x (R, k). The barrier
    runs over the support x > 0 alone: a letter at x = 0 gets an identity
    row and column with a zero right-hand side, so it stays at 0.

    The system has matrix X H X + mu I, bordered by the constraint; a
    symmetric diagonal (Jacobi) scaling keeps it well conditioned as a
    letter nears 0, and its leading block is positive definite for mu > 0,
    so the bordered system is nonsingular even where H is singular, until
    mu falls below the rounding of that block's unit diagonal: with two
    equal rows of H (a channel with a repeated row) the two rows of the
    system then agree bit for bit, which happens at a gap near 1e-16. A
    singular system gives a NaN direction.
    """
    n, k = x.shape
    scale = 1.0 / np.sqrt(x * x * hess.diagonal(axis1=1, axis2=2)
                          + mu[:, None])
    sx = scale * x
    kkt = np.zeros((n, k + 1, k + 1))  # the corner stays 0
    np.multiply(sx[:, :, None] * hess, sx[:, None, :], out=kkt[:, :k, :k])
    kkt.reshape(n, -1)[:, :k * (k + 2):k + 2] += mu[:, None] * (scale * scale)
    kkt[:, :k, k] = sx
    kkt[:, k, :k] = sx
    rhs = np.zeros((n, k + 1, 1))
    weight = (mu[:, None] if np.count_nonzero(x) == x.size
              else np.where(x > 0.0, mu[:, None], 0.0))
    rhs[:, :k, 0] = scale * (weight - x * grad)
    try:
        dy = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        dy = _solve_each(kkt, rhs)
    return scale * dy[:, :k, 0]


def _log_support(x) -> np.ndarray:
    """sum(log x) over the support x > 0 of each row of x."""
    if np.count_nonzero(x) == x.size:
        return np.log(x).sum(axis=1)
    return np.log(x, out=np.zeros(x.shape), where=x > 0.0).sum(axis=1)


# A step cut at 0.99 of the way to the boundary leaves a letter at 1/100 of
# its mass, so a letter that stopped a long step at the boundary is below
# the floor on the next round.
_FLOOR = 1e-2


def _reduced_gradient(x, grad) -> np.ndarray:
    """grad F minus its x-weighted mean, per row: the rate at which F
    changes as a letter takes mass from the rest of its row."""
    return grad - (x * grad).sum(axis=1, keepdims=True)


def _rebuild_support(oracle, data, x, f, grad, hess, gap, log_x, mu, kept):
    """Move letters off and onto the supports of the rows x, whose problems
    have the rows ``data``, in place, by the rules of ``_simplex_newton``;
    ``kept`` marks the letters that may not leave. Returns the indices of
    the rows whose support changed."""
    small = x < _FLOOR
    if not np.count_nonzero(small):
        return ()
    reduced = _reduced_gradient(x, grad)
    leave = small & (x > 0.0) & (reduced > gap[:, None]) & ~kept
    enter = (x == 0.0) & (reduced < 0.0)
    change = (leave | enter).any(axis=1)
    if not np.count_nonzero(change):
        return ()
    at = np.flatnonzero(change)
    leave, enter = leave[change], enter[change]
    moved = np.where(leave, 0.0, np.where(enter, _FLOOR, x[change]))
    moved /= moved.sum(axis=1, keepdims=True)
    with np.errstate(all="ignore"):  # judged by the finite test below
        values = oracle(moved, *(d[at] for d in data))
    finite = (np.isfinite(values[0]) & np.isfinite(values[3])
              & np.isfinite(values[1]).all(axis=1)
              & np.isfinite(values[2]).all(axis=(1, 2)))
    kept[at] |= np.where(finite[:, None], enter, leave)
    at = at[finite]
    x[at] = moved[finite]
    f[at], grad[at], hess[at], gap[at] = (v[finite] for v in values)
    log_x[at] = _log_support(x[at])
    mu[at] = math.inf
    return at


def _line_search(oracle, data, x, f, log_x, dy, mu):
    """The step along the directions dy of the rows x, whose problems have
    the rows ``data``: from 1, or 0.99 of the way to the boundary, halved
    until the barrier F - mu * sum(log x) rises by at most its rounding
    error at F, 1e-15 * (1 + |F|); 0 for a row whose step fell below 1e-12
    or is NaN. Returns the steps, the trial points, the oracle's values
    there and the barrier's sum(log x) at them; a halving evaluates only the
    rows that failed."""
    ceiling = f - mu * log_x + 1e-15 * (1.0 + np.abs(f))
    step = 0.99 / np.maximum(np.maximum.reduce(-dy, axis=1), 1e-300)
    np.minimum(step, 1.0, out=step)
    stop = ~(step >= 1e-12)
    if np.count_nonzero(stop):
        step[stop], dy[stop] = 0.0, 0.0
    trial = x * (1.0 + step[:, None] * dy)
    values, logs = oracle(trial, *data), _log_support(trial)
    failed = ~(stop | (values[0] - mu * logs <= ceiling))
    at = np.flatnonzero(failed) if np.count_nonzero(failed) else ()
    while len(at):
        step[at] *= 0.5
        stop = ~(step[at] >= 1e-12)
        step[at[stop]] = 0.0
        trial[at] = x[at] * (1.0 + step[at, None] * dy[at])
        part = oracle(trial[at], *(d[at] for d in data))
        for whole, piece in zip(values, part):
            whole[at] = piece
        logs[at] = _log_support(trial[at])
        at = at[~(stop | (part[0] - mu[at] * logs[at] <= ceiling[at]))]
    return step, trial, values, logs


def _simplex_newton(oracle, data: tuple, k: int, tol: float):
    """Minimise T convex functions F_t over the probability simplex in R^k
    by a log-barrier Newton method on an active set, all at once. Returns
    (x, gap, iterations) with shapes (T, k), (T,) and (T,).

    ``data`` is a tuple of arrays whose first axis is the problem, of
    length T, and ``oracle(x, *rows)`` a plain function that returns fresh
    arrays (F, grad F, Hessian H of F, gap) at the iterates x (R, k) of the
    problems whose data are ``rows``, the same R rows of each array of
    ``data``, with shapes (R,), (R, k), (R, k, k) and (R,), where gap is a
    certified bound on F(x) - min F over the whole simplex. An oracle that
    needs each problem's index passes ``np.arange(T)`` as data. Each row
    runs on its own from uniform, with a barrier weight mu that never
    rises while its support stays put. The kernel carries only the rows
    still running: a row that stops leaves its x, gap and step count in
    the result at its index, and every per-row array, ``data`` included,
    drops it.

    Support. Each round starts by rebuilding the support of every row. With
    r the reduced gradient (``_reduced_gradient``), a letter leaves when
    its mass is below ``_FLOOR``, r exceeds the gap, and the oracle stays
    finite without it. The margin keeps a support letter of small mass: on
    the barrier's path its r is near mu / x, which falls with the gap,
    while a letter whose optimum is 0 keeps r near its slack as the gap
    falls to tol. A letter off the support re-enters at the floor's mass
    once its r turns negative. A letter that re-entered, or whose removal
    made the oracle non-finite (the only input that reaches a channel
    output, the only zero-distortion reproduction of a source letter),
    never leaves again, so no letter cycles. A row whose support changed
    is renormalised, evaluated again and starts a new barrier weight.
    Letters off the support sit at exactly 0, where the barrier does not
    reach (``_newton_direction``); the gap still covers them, so it
    certifies a boundary point as it does an interior one.

    Steps. Every step first tries a long step: the Newton direction at mu
    = min(mu, gap / (10 k), gap^2). Its full length may take a letter out
    of the simplex (dx / x at or below -0.99) only if that letter may leave
    the support, with r > 0 and not held on it; the step then stops at
    0.99 of the way to the boundary, and the letter leaves on the next
    round. A row whose long step would take out any other letter, or finds
    no step (``_line_search``: a singular system, or the rounding at a tiny
    mu), takes the direction at min(mu, gap / (10 k)) instead; where that
    is already at most gap^2 the two are one. A row keeps the weight of
    its step, or min(mu, gap / (10 k)) after a long step cut at the
    boundary, whose point has not reached the path of the smaller weight.
    A row stops once gap <= tol, when no step passes the line search, or
    after 200 steps; the caller judges the gap of the returned x, floored
    at 0 (a bound that rounds below 0 certifies an optimum).
    """
    t = len(data[0])
    x = np.full((t, k), 1.0 / k)
    f, grad, hess, gap = oracle(x, *data)
    log_x = np.log(x).sum(axis=1)
    mu = np.full(t, math.inf)
    steps = np.zeros(t, dtype=np.int64)
    kept = np.zeros((t, k), dtype=bool)
    index = np.arange(t)
    result = x, gap, steps  # a row's final values land here when it stops
    live, rebuilt = gap > tol, False
    while True:
        if (n := np.count_nonzero(live)) < len(live):
            stop = ~live
            at = index[stop]
            for whole, part in zip(result, (x, gap, steps)):
                whole[at] = part[stop]
            if not n:
                return result[0], np.maximum(result[1], 0.0), result[2]
            index, x, f, grad, hess, gap, log_x, mu, steps, kept, *data = (
                v[live] for v in (index, x, f, grad, hess, gap, log_x, mu,
                                  steps, kept, *data))
        # a row whose new support meets tol stops before the round's step
        if not rebuilt and len(_rebuild_support(oracle, data, x, f, grad, hess,
                                                gap, log_x, mu, kept)):
            live, rebuilt = gap > tol, True
            continue
        short = np.minimum(mu, gap / (10 * k))
        mu = np.minimum(short, gap ** 2)
        dy = _newton_direction(x, grad, hess, mu)
        crossing = ~(dy > -0.99)
        cut = None
        if np.count_nonzero(crossing):
            held = crossing & (kept | ~(_reduced_gradient(x, grad) > 0.0))
            refused = held.any(axis=1) & (mu < short)
            if np.count_nonzero(refused):
                mu[refused] = short[refused]
                dy[refused] = _newton_direction(x[refused], grad[refused],
                                                hess[refused], mu[refused])
            cut = crossing.any(axis=1) & (mu < short)
        step, trial, values, logs = _line_search(oracle, data, x, f, log_x,
                                                 dy, mu)
        if np.count_nonzero(step) < len(step):
            again = np.flatnonzero((step == 0.0) & (mu < short))
            if again.size:
                mu[again] = short[again]
                step[again], trial[again], part, logs[again] = _line_search(
                    oracle, [d[again] for d in data], x[again], f[again],
                    log_x[again], _newton_direction(
                        x[again], grad[again], hess[again], mu[again]),
                    mu[again])
                for whole, piece in zip(values, part):
                    whole[again] = piece
        if cut is not None:  # a step cut at the boundary is short of mu
            mu[cut] = short[cut]
        moved = step > 0.0  # else no step lowers the barrier
        x, (f, grad, hess, gap), log_x = trial, values, logs
        steps += moved
        live = moved & (gap > tol) & (steps < _MAX_NEWTON_ITER)
        rebuilt = False


# ---------------------------------------------------------------------------
# Gaussian tail utilities
# ---------------------------------------------------------------------------

_SQRT_HALF = math.sqrt(0.5)

# Wichura's AS 241 (PPND16) rational functions, highest degree first: the
# central one in r = 0.180625 - q^2 for |q| <= 0.425, q = p - 1/2, and two
# tail ones in r = sqrt(-log min(p, 1 - p)) - 1.6 for r <= 5, else - 5.
_AS241_CENTRAL = (
    (2509.0809287301226727, 33430.575583588128105, 67265.770927008700853,
     45921.953931549871457, 13731.693765509461125, 1971.5909503065514427,
     133.14166789178437745, 3.387132872796366608),
    (5226.495278852854561, 28729.085735721942674, 39307.89580009271061,
     21213.794301586595867, 5394.1960214247511077, 687.1870074920579083,
     42.313330701600911252, 1.0),
)
_AS241_NEAR = (
    (7.7454501427834140764e-4, 0.0227238449892691845833,
     0.24178072517745061177, 1.27045825245236838258, 3.64784832476320460504,
     5.7694972214606914055, 4.6303378461565452959, 1.42343711074968357734),
    (1.05075007164441684324e-9, 5.475938084995344946e-4,
     0.0151986665636164571966, 0.14810397642748007459, 0.68976733498510000455,
     1.6763848301838038494, 2.05319162663775882187, 1.0),
)
_AS241_FAR = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5,
     1.24266094738807843860e-3, 0.026532189526576123093,
     0.29656057182850489123, 1.7848265399172913358, 5.4637849111641143699,
     6.6579046435011037772),
    (2.04426310338993978564e-15, 1.4215117583164458887e-7,
     1.8463183175100546818e-5, 7.868691311456132591e-4,
     0.0148753612908506148525, 0.13692988092273580531,
     0.59983220655588793769, 1.0),
)


def _as241_ratio(coeffs, r: np.ndarray) -> np.ndarray:
    """num(r) / den(r) for one AS 241 pair, by Horner's rule in place."""
    if not r.size:
        return r
    num, den = (r * poly[0] + poly[1] for poly in coeffs)
    for a, b in zip(coeffs[0][2:], coeffs[1][2:]):
        num *= r
        num += a
        den *= r
        den += b
    num /= den
    return num


def ndtri(p):
    """Phi^{-1}(p), the standard normal quantile, elementwise.

    Wichura's AS 241 (Applied Statistics 37, 1988), the algorithm of the
    standard library's ``NormalDist.inv_cdf``: three rational functions,
    each evaluated only on the elements in its range. Against 50-digit
    arithmetic the relative error is below 7e-16 on (0, 1), down to
    p = 1e-300, with a median of about 1.3e-16. ndtri(0) = -inf,
    ndtri(1) = +inf, and NaN or p outside [0, 1] give NaN.
    """
    p = np.asarray(p, dtype=float)
    q = p - 0.5
    out = np.where(p == 0.0, -np.inf, np.where(p == 1.0, np.inf, np.nan))
    central = np.abs(q) <= 0.425
    qc = q[central]
    out[central] = qc * _as241_ratio(_AS241_CENTRAL, 0.180625 - qc * qc)
    tail = ~central & (p > 0.0) & (p < 1.0)
    pt = p[tail]
    r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
    near = r <= 5.0
    x = np.empty(r.shape)
    x[near] = _as241_ratio(_AS241_NEAR, r[near] - 1.6)
    x[~near] = _as241_ratio(_AS241_FAR, r[~near] - 5.0)
    out[tail] = np.where(pt < 0.5, -x, x)
    return out[()]


_erfc = np.frompyfunc(math.erfc, 1, 1)


def ndtr(x):
    """Phi(x) = erfc(-x/sqrt(2))/2, the standard normal CDF, elementwise.

    One ``math.erfc`` call per element, so it is meant for small arrays.
    Its relative error is a few units in the last place, times about x^2
    for x < -1: Phi's condition number there turns the rounding of
    x/sqrt(2) into that much. ndtr(-inf) = 0, ndtr(+inf) = 1, NaN gives NaN.
    """
    return 0.5 * np.asarray(_erfc(np.multiply(x, -_SQRT_HALF)), dtype=float)


def q_function(x: float) -> float:
    """Gaussian tail Q(x) = P[N(0,1) > x] = Phi(-x), by :func:`ndtr`.

    Max absolute error is that of the platform erfc, well below 1e-12.
    """
    if not math.isfinite(x):
        raise DomainError("q_function requires finite x")
    return float(ndtr(-x))


def q_inverse(eps: float) -> float:
    """Inverse of :func:`q_function` on (0, 1): Qinv(eps) = -Phi^{-1}(eps).

    q_inverse(0.5) returns exactly 0.
    """
    if not (0.0 < eps < 1.0):
        raise DomainError("q_inverse requires eps in (0, 1)")
    return -float(ndtri(eps)) + 0.0  # + 0.0 turns -0.0 into 0.0


# ---------------------------------------------------------------------------
# Types of sequences
# ---------------------------------------------------------------------------

def _as_symbols(seq, alphabet_size: int, what: str) -> np.ndarray:
    arr = np.asarray(seq, dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError(f"{what} must be a nonempty 1-D symbol sequence")
    if np.any(arr < 0) or np.any(arr >= alphabet_size):
        raise SymbolOutOfRange(
            f"{what} contains symbols outside [0, {alphabet_size})"
        )
    return arr


def empirical_type(sequence, alphabet_size: int) -> EmpiricalType:
    """Count occurrences of each symbol: P_x(a) = N(a|x)/n scaled by n."""
    if alphabet_size < 1:
        raise DomainError("alphabet_size must be positive")
    arr = _as_symbols(sequence, alphabet_size, "sequence")
    counts = np.bincount(arr, minlength=alphabet_size)
    return EmpiricalType(counts, int(arr.size))


def conditional_type(x, y, input_size: int | None = None,
                     output_size: int | None = None) -> ConditionalType:
    """Joint counts N(a,b | x,y) of a paired sequence, as a ConditionalType."""
    xa = np.asarray(x, dtype=np.int64)
    ya = np.asarray(y, dtype=np.int64)
    if xa.size != ya.size:
        raise LengthMismatch(f"len(x)={xa.size} != len(y)={ya.size}")
    if input_size is None:
        input_size = int(xa.max()) + 1 if xa.size else 1
    if output_size is None:
        output_size = int(ya.max()) + 1 if ya.size else 1
    xa = _as_symbols(xa, input_size, "x")
    ya = _as_symbols(ya, output_size, "y")
    flat = np.bincount(xa * output_size + ya, minlength=input_size * output_size)
    joint = flat.reshape(input_size, output_size)
    return ConditionalType(joint, int(xa.size))


def count_n_types(alphabet_size: int, n: int) -> int:
    """Number of n-types over a k-symbol alphabet: C(n+k-1, k-1)."""
    return math.comb(n + alphabet_size - 1, alphabet_size - 1)


def enumerate_n_types(alphabet_size: int, n: int,
                      cap: int = DEFAULT_ENUMERATION_CAP) -> list[EmpiricalType]:
    """All count vectors summing to n, in colexicographic order.

    Raises EnumerationTooLarge when the stars-and-bars count exceeds ``cap``.
    """
    if alphabet_size < 1 or n < 1:
        raise DomainError("alphabet_size and n must be positive")
    total = count_n_types(alphabet_size, n)
    if total > cap:
        raise EnumerationTooLarge(
            f"{total} types exceed the cap of {cap}"
        )
    return [EmpiricalType(c, n)
            for c in _compositions(n, [n] * alphabet_size)]


def _compositions(n: int, upper) -> np.ndarray:
    """Every nonnegative integer vector x with sum n and x <= ``upper``, as
    the rows of one int64 array in colexicographic order. Coordinates are
    fixed from the last down, each within what the ones below it can hold."""
    upper = np.asarray(upper, dtype=np.int64)
    below = np.cumsum(upper) - upper   # the most coordinates < a can hold
    out = np.zeros((int(0 <= n <= upper.sum()), upper.size), dtype=np.int64)
    out[:, 0] = n                      # what is left for the coordinates
    for a in range(upper.size - 1, 0, -1):
        lo = np.maximum(out[:, 0] - below[a], 0)
        width = np.minimum(out[:, 0], upper[a]) - lo + 1
        parent = np.repeat(np.arange(len(out)), width)
        value = np.arange(parent.size) - (np.cumsum(width) - width - lo)[parent]
        out = out[parent]
        out[:, a] = value
        out[:, 0] -= value
    return out


def nearest_type(dist: Distribution, n: int) -> EmpiricalType:
    """An n-type within 1/n of ``dist`` in sup norm (largest-remainder rounding)."""
    if n < 1:
        raise DomainError("n must be positive")
    scaled = dist.probs * n
    base = np.floor(scaled).astype(np.int64)
    short = n - int(base.sum())
    if short:
        order = np.argsort(scaled - base, kind="stable")[::-1]
        base[order[:short]] += 1
    return EmpiricalType(base, n)
