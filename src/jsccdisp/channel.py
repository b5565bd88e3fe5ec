"""Discrete memoryless channel analysis.

Capacity with a certified Blahut-Arimoto bracket, information density,
conditional/unconditional information variances, the V_min/V_max extremes
over the capacity-achieving set, and the channel normal approximation
C - sqrt(V/n) * Qinv(eps).

All rates are in nats per channel use, variances in nats^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, NonConvergence, UnreachableOutput
from .probcore import Channel, Distribution, q_inverse

DEFAULT_TOL = 1e-10
_MAX_BA_ITER = 200_000
_N_STARTS = 32
_SINGLETON_TOL = 1e-8
_START_SEED = 20240917  # fixed so multi-start results are reproducible

CORRECTION_NOTE = "O(log n / n) correction term omitted"


@dataclass(frozen=True)
class CapacityResult:
    capacity: float
    input_distribution: Distribution
    lower_bound: float
    upper_bound: float
    iterations: int


@dataclass(frozen=True)
class ChannelDispersion:
    """Extremes of the conditional information variance over Pi(W).

    ``capacity_set_is_singleton`` is best-effort: it reports whether all
    multi-start searches collapsed to a single input distribution.
    ``v_min_positive`` surfaces the V_min > 0 assumption as a flag.
    """

    v_min: float
    v_max: float
    capacity_set_is_singleton: bool
    v_min_positive: bool


@dataclass(frozen=True)
class ChannelRatePoint:
    """Normal-approximation rate at (n, eps), for both dispersion extremes.

    ``rate`` uses V_min for eps <= 1/2 and V_max otherwise; the O(log n/n)
    correction is omitted (see ``correction_note``).
    """

    rate: float
    rate_with_vmin: float
    rate_with_vmax: float
    capacity: float
    n: int
    eps: float
    correction_note: str = CORRECTION_NOTE


def _check_dims(phi: Distribution, w: Channel):
    if phi.alphabet_size != w.input_size:
        raise DimensionMismatch(
            f"input distribution has {phi.alphabet_size} symbols, "
            f"channel expects {w.input_size}"
        )


def output_distribution(phi: Distribution, w: Channel) -> np.ndarray:
    _check_dims(phi, w)
    return phi.probs @ w.matrix


def mutual_information(phi: Distribution, w: Channel) -> float:
    """I(phi, W) = sum phi(x) W(y|x) log[W(y|x) / phiW(y)] in nats."""
    _check_dims(phi, w)
    out = phi.probs @ w.matrix
    joint = phi.probs[:, None] * w.matrix
    mask = joint > 0
    vals = joint[mask] * np.log(w.matrix[mask] / np.broadcast_to(out, joint.shape)[mask])
    return max(float(vals.sum()), 0.0)


def information_density(phi: Distribution, w: Channel) -> np.ndarray:
    """i(x,y) = log[W(y|x) / phiW(y)] as an |X| x |Y| table.

    Entries with W(y|x) = 0 are -inf (never hit under phi x W). Raises
    UnreachableOutput if some cell has W(y|x) > 0 but phiW(y) = 0.
    """
    _check_dims(phi, w)
    out = phi.probs @ w.matrix
    bad = (w.matrix > 0) & (np.broadcast_to(out, w.matrix.shape) == 0)
    if np.any(bad):
        raise UnreachableOutput(
            "some output with positive transition probability is unreachable "
            "under the given input distribution"
        )
    dens = np.full_like(w.matrix, -np.inf)
    mask = w.matrix > 0
    dens[mask] = np.log(w.matrix[mask] / np.broadcast_to(out, w.matrix.shape)[mask])
    dens.setflags(write=False)
    return dens


def _row_divergences(phi_probs: np.ndarray, w_mat: np.ndarray) -> np.ndarray:
    """D(W_x || phiW) for every input row x, with the support convention.

    Output letters that phi cannot reach get their marginal floored, which
    keeps the divergence finite so boundary iterates can re-enter the
    interior during the capacity searches.
    """
    out = np.maximum(phi_probs @ w_mat, 1e-300)
    ratio = np.zeros_like(w_mat)
    mask = w_mat > 0
    ratio[mask] = np.log(w_mat[mask] / np.broadcast_to(out, w_mat.shape)[mask])
    return (w_mat * ratio).sum(axis=1)


def capacity(w: Channel, tol: float = DEFAULT_TOL,
             max_iter: int = _MAX_BA_ITER) -> CapacityResult:
    """Channel capacity by alternating maximization with a certified bracket.

    Iterates phi <- phi * exp(D(W_x || phiW)) / Z; at every step
    I(phi, W) <= C <= max_x D(W_x || phiW), and the loop stops once the
    bracket width is at most ``tol``.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    phi = np.full(w.input_size, 1.0 / w.input_size)
    lower = upper = 0.0
    for it in range(1, max_iter + 1):
        t = _row_divergences(phi, w.matrix)
        lower = float(np.dot(phi, t))
        upper = float(np.max(t))
        if upper - lower <= tol:
            return CapacityResult(
                capacity=max(lower, 0.0),
                input_distribution=Distribution(phi / phi.sum()),
                lower_bound=max(lower, 0.0),
                upper_bound=upper,
                iterations=it,
            )
        phi = phi * np.exp(t - upper)
        phi /= phi.sum()
    raise NonConvergence(
        f"capacity bracket {upper - lower:.3e} > tol {tol} after {max_iter} iterations"
    )


def unconditional_information_variance(phi: Distribution, w: Channel) -> float:
    """Var of i(X,Y) under phi x W, in nats^2."""
    _check_dims(phi, w)
    out = phi.probs @ w.matrix
    joint = phi.probs[:, None] * w.matrix
    mask = joint > 0
    dens = np.log(w.matrix[mask] / np.broadcast_to(out, joint.shape)[mask])
    mean = float(np.sum(joint[mask] * dens))
    second = float(np.sum(joint[mask] * dens * dens))
    return max(second - mean * mean, 0.0)


def conditional_information_variance(phi: Distribution, w: Channel) -> float:
    """E_X[ Var(i(X,Y) | X) ] under phi x W, in nats^2."""
    _check_dims(phi, w)
    out = phi.probs @ w.matrix
    w_mat = w.matrix
    ratio = np.zeros_like(w_mat)
    mask = w_mat > 0
    ratio[mask] = np.log(w_mat[mask] / np.broadcast_to(out, w_mat.shape)[mask])
    row_mean = (w_mat * ratio).sum(axis=1)
    row_second = (w_mat * ratio * ratio).sum(axis=1)
    per_row = np.maximum(row_second - row_mean * row_mean, 0.0)
    return float(np.dot(phi.probs, per_row))


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def _ascend_to_capacity(w: Channel, start: np.ndarray, c_target: float,
                        tol: float, max_iter: int = 20_000) -> np.ndarray | None:
    """Projected gradient ascent on I(phi, W), polished by alternating
    maximization until I is within tol of capacity. Returns None on failure."""
    phi = _project_simplex(start.astype(float))
    step = 1.0
    for _ in range(max_iter):
        grad = _row_divergences(phi, w.matrix)
        val = float(np.dot(phi, grad))
        if c_target - val <= tol:
            break
        # backtracking line search on the projected step
        improved = False
        while step > 1e-14:
            cand = _project_simplex(phi + step * grad)
            cand_val = float(np.dot(cand, _row_divergences(cand, w.matrix)))
            if cand_val > val + 1e-16:
                phi = cand
                step *= 1.3
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    # alternating-maximization polish from wherever PGA stopped
    phi = np.maximum(phi, 1e-300)
    phi /= phi.sum()
    reached = False
    for _ in range(max_iter):
        t = _row_divergences(phi, w.matrix)
        val = float(np.dot(phi, t))
        if c_target - val <= tol:
            reached = True
            break
        phi = phi * np.exp(t - np.max(t))
        phi /= phi.sum()
    if not reached:
        return None
    # polish in argument: the fixed-point map contracts toward the nearest
    # capacity achiever, leaving flat directions of Pi(W) untouched
    for _ in range(max_iter):
        t = _row_divergences(phi, w.matrix)
        new = phi * np.exp(t - np.max(t))
        new /= new.sum()
        moved = float(np.max(np.abs(new - phi)))
        phi = new
        if moved <= 1e-13:
            break
    return phi


def vmin_vmax(w: Channel, tol: float = DEFAULT_TOL) -> ChannelDispersion:
    """Extremes of V(phi, W) over capacity-achieving inputs, best-effort.

    Explores Pi(W) with 32 random simplex starts (fixed seed) plus the
    alternating-maximization fixed point; candidates within ``tol`` of
    capacity form the feasible set. When all candidates coincide within
    1e-8 the set is flagged singleton and v_min = v_max.
    """
    cap = capacity(w, tol)
    rng = np.random.default_rng(_START_SEED)
    starts = [rng.dirichlet(np.ones(w.input_size)) for _ in range(_N_STARTS)]

    members = [cap.input_distribution.probs]
    for start in starts:
        phi = _ascend_to_capacity(w, start, cap.capacity, tol)
        if phi is not None:
            members.append(phi)

    spread = max(
        float(np.max(np.abs(m - members[0]))) for m in members
    )
    singleton = spread <= _SINGLETON_TOL
    if singleton:
        v = conditional_information_variance(Distribution(members[0]), w)
        v_min = v_max = v
    else:
        values = [
            conditional_information_variance(Distribution(m), w) for m in members
        ]
        v_min = min(values)
        v_max = max(values)
    v_min = max(v_min, 0.0)
    v_max = max(v_max, v_min)
    return ChannelDispersion(
        v_min=v_min,
        v_max=v_max,
        capacity_set_is_singleton=singleton,
        v_min_positive=v_min > tol,
    )


def channel_rate_at(w: Channel, n: int, eps: float,
                    disp: ChannelDispersion | None = None,
                    tol: float = DEFAULT_TOL) -> ChannelRatePoint:
    """Normal approximation C - sqrt(V/n) * Qinv(eps) at block length n.

    V follows the eps <= 1/2 -> V_min, else V_max case split; the rates
    for both extremes are reported alongside.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    if not (0.0 < eps < 1.0):
        raise DomainError("eps must lie in (0, 1)")
    cap = capacity(w, tol)
    if disp is None:
        disp = vmin_vmax(w, tol)
    qi = q_inverse(eps)
    rate_vmin = cap.capacity - math.sqrt(disp.v_min / n) * qi
    rate_vmax = cap.capacity - math.sqrt(disp.v_max / n) * qi
    selected = rate_vmin if eps <= 0.5 else rate_vmax
    return ChannelRatePoint(
        rate=selected,
        rate_with_vmin=rate_vmin,
        rate_with_vmax=rate_vmax,
        capacity=cap.capacity,
        n=n,
        eps=eps,
    )
