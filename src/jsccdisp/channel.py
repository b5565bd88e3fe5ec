"""Discrete memoryless channel analysis.

Capacity with a certified bracket from the simplex Newton kernel of
``probcore``, information density, conditional/unconditional information
variances, the exact V_min/V_max extremes over the capacity-achieving set
(the vertices of a polytope, enumerated with numpy up to a cap on their
number), and the channel normal approximation C - sqrt(V/n) * Qinv(eps).

All rates are in nats per channel use, variances in nats^2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    EnumerationTooLarge,
    NonConvergence,
    UnreachableOutput,
)
from .probcore import (
    Channel,
    Distribution,
    _joint_mutual_information,
    _log_ratio,
    _simplex_newton,
    _weighted_variance,
    q_inverse,
)

DEFAULT_TOL = 1e-10
_SINGLETON_TOL = 1e-8
_VERTEX_CAP = 1_000_000  # most candidate vertex subsets vmin_vmax enumerates

CORRECTION_NOTE = "O(log n / n) correction term omitted"


@dataclass(frozen=True)
class CapacityResult:
    """C within the certified bracket [lower_bound, upper_bound], the input
    law that attains the lower bound, and the number of Newton steps the
    solve took (0 when the uniform input already meets the tolerance)."""

    capacity: float
    input_distribution: Distribution
    lower_bound: float
    upper_bound: float
    iterations: int


@dataclass(frozen=True)
class ChannelDispersion:
    """Extremes of the conditional information variance over Pi(W).

    Exact up to the tolerance of the capacity solve; see ``vmin_vmax`` for
    the vertex enumeration, the X* tolerance tau = sqrt(2 * tol) and the cap.
    ``capacity_set_is_singleton`` is true when all vertices of Pi(W)
    coincide within 1e-8. ``v_min_positive`` surfaces the V_min > 0
    assumption as a flag. ``capacity`` is the capacity solve behind them.
    """

    v_min: float
    v_max: float
    capacity_set_is_singleton: bool
    v_min_positive: bool
    capacity: CapacityResult


@dataclass(frozen=True)
class ChannelRatePoint:
    """Normal-approximation rate at (n, eps), for both dispersion extremes.

    ``rate`` uses V_min for eps <= 1/2 and V_max otherwise; the O(log n/n)
    correction is omitted (see ``CORRECTION_NOTE``).
    """

    rate: float
    rate_with_vmin: float
    rate_with_vmax: float
    capacity: float
    n: int
    eps: float


def _check_dims(phi: Distribution, w: Channel):
    if phi.alphabet_size != w.input_size:
        raise DimensionMismatch(
            f"input distribution has {phi.alphabet_size} symbols, "
            f"channel expects {w.input_size}"
        )


def mutual_information(phi: Distribution, w: Channel) -> float:
    """I(phi, W) = sum phi(x) W(y|x) log[W(y|x) / phiW(y)] in nats."""
    _check_dims(phi, w)
    return float(_joint_mutual_information(phi.probs[:, None] * w.matrix))


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
    dens = np.where(w.matrix > 0, _log_ratio(w.matrix, out), -np.inf)
    dens.setflags(write=False)
    return dens


def _row_divergences(phi_probs: np.ndarray, w_mat: np.ndarray) -> np.ndarray:
    """D(W_x || phiW) for every input row x, with the support convention.

    The capacity solve may end inputs at exactly 0, but never one whose
    removal leaves an output that its row reaches with phiW = 0, as that
    makes the kernel's oracle infinite; so phiW is positive on every output
    that some row reaches, and no divergence is infinite.
    """
    return (w_mat * _log_ratio(w_mat, phi_probs @ w_mat)).sum(axis=1)


def _row_variances(out: np.ndarray, w_mat: np.ndarray) -> np.ndarray:
    """Var(i(x, Y) | X = x) for every input row x, at the output law ``out``."""
    return _weighted_variance(w_mat, _log_ratio(w_mat, out), axis=1)


def _capacity_oracle(phi: np.ndarray, mat: np.ndarray):
    """``probcore._simplex_newton`` oracle of F = -I(phi, W) at the input
    laws phi (R, |X|) of the problems with channel matrices ``mat``
    (R, |X|, |Y|): the gradient is -D(W_x || phiW), the Hessian
    W diag(1/phiW) W^T and the gap max_x D(W_x || phiW) - I."""
    out = phi[:, None, :] @ mat  # phi W, as (R, 1, |Y|)
    t = (mat * _log_ratio(mat, out)).sum(axis=2)
    lower = (phi * t).sum(axis=1)
    scaled = np.divide(mat, out, out=np.zeros(mat.shape), where=mat > 0)
    return -lower, -t, scaled @ mat.transpose(0, 2, 1), t.max(axis=1) - lower


def capacity(w: Channel, tol: float = DEFAULT_TOL) -> CapacityResult:
    """Channel capacity with a certified bracket.

    Minimises -I(phi, W) over the input simplex with
    ``probcore._simplex_newton`` on ``_capacity_oracle``, a batch of one;
    I(phi, W) <= C <= max_x D(W_x || phiW) brackets C at every iterate.
    Raises NonConvergence naming W when the width of the returned bracket,
    evaluated again at the final iterate, exceeds ``tol`` (at a tol near
    1e-15 it can round above the kernel's own gap); ``iterations`` counts
    the Newton steps.
    """
    if not tol > 0:
        raise DomainError(f"tol must be positive; got {tol}")
    mat = w.matrix
    phi, _, steps = _simplex_newton(_capacity_oracle, (mat[None],),
                                    w.input_size, tol)
    phi, steps = phi[0], int(steps[0])
    t = _row_divergences(phi, mat)
    lower, upper = max(float(np.dot(phi, t)), 0.0), float(np.max(t))
    if not upper - lower <= tol:
        raise NonConvergence(f"capacity: bracket {upper - lower:.3e} > tol "
                             f"{tol} after {steps} Newton steps for W = "
                             f"{mat.tolist()}")
    return CapacityResult(lower, Distribution(phi / phi.sum()), lower, upper,
                          steps)


def unconditional_information_variance(phi: Distribution, w: Channel) -> float:
    """Var of i(X,Y) under phi x W, in nats^2."""
    _check_dims(phi, w)
    joint = phi.probs[:, None] * w.matrix
    product = np.outer(phi.probs, phi.probs @ w.matrix)
    return float(_weighted_variance(joint, _log_ratio(joint, product)))


def conditional_information_variance(phi: Distribution, w: Channel) -> float:
    """E_X[ Var(i(X,Y) | X) ] under phi x W, in nats^2."""
    _check_dims(phi, w)
    return float(np.dot(phi.probs, _row_variances(phi.probs @ w.matrix, w.matrix)))


def vmin_vmax(w: Channel, tol: float = DEFAULT_TOL) -> ChannelDispersion:
    """Exact extremes of V(phi, W) over the capacity-achieving inputs Pi(W).

    One ``capacity(w, tol)`` solve gives phi and q = phi W. X* is the set of
    rows with D(W_x || q) >= C - tau, where tau = sqrt(2 * tol): the bracket
    bounds D(q* || q) by tol, so by Pinsker's inequality q is within tau of
    the capacity-achieving output law q* in L1, the scale at which
    D(W_x || q) can miss C for a row of X*; a row outside X* carries at most
    tol / tau of phi's mass. With A = [W_{X*}^T; 1^T] and phi restricted to
    X* and renormalised, Pi(W) is {phi >= 0 on X* : A phi = A phi_{X*}}, on
    which V = sum_x phi(x) v_x is linear (v_x the variance of i(x, Y) at q).
    Its extremes therefore sit at vertices: every set of rank(A) inputs of
    X* whose square subsystem is nonsingular and whose solution is >= 0.
    The set is flagged singleton when all vertices coincide within 1e-8.

    Raises EnumerationTooLarge when C(|X*|, rank(A)) exceeds 1,000,000.
    """
    cap = capacity(w, tol)
    phi = cap.input_distribution.probs
    star = np.flatnonzero(
        _row_divergences(phi, w.matrix) >= cap.capacity - math.sqrt(2.0 * tol))
    v_star = _row_variances(phi @ w.matrix, w.matrix)[star]
    a = np.vstack([w.matrix[star].T, np.ones(star.size)])
    _, sing, vt = np.linalg.svd(a)
    rank = int(np.sum(sing > sing[0] * max(a.shape) * np.finfo(float).eps))
    # orthonormal rows with the null space of A: same polytope, unit scale
    basis = vt[:rank]
    rhs = basis @ (phi[star] / phi[star].sum())
    count = math.comb(star.size, rank)
    if count > _VERTEX_CAP:
        raise EnumerationTooLarge(
            f"vmin_vmax: {count} candidate vertices ({rank} of |X*| = "
            f"{star.size} inputs) exceed the cap of {_VERTEX_CAP}"
        )

    subsets = itertools.combinations(range(star.size), rank)
    first = None
    spread, v_min, v_max = 0.0, math.inf, -math.inf
    while chunk := list(itertools.islice(subsets, 4096)):
        cols = np.array(chunk)
        blocks = np.moveaxis(basis[:, cols], 1, 0)
        # the LU factorisation drops exactly singular blocks and solves the
        # rest; only solutions >= 0 pay for the SVD that certifies the block
        lu_ok = np.linalg.det(blocks) != 0
        cols, blocks = cols[lu_ok], blocks[lu_ok]
        sol = np.linalg.solve(blocks, rhs[:, None])[..., 0]
        keep = sol.min(axis=1) >= -_SINGLETON_TOL
        keep[keep] = np.linalg.svd(blocks[keep], compute_uv=False)[:, -1] > _SINGLETON_TOL
        if not keep.any():
            continue
        vertices = np.zeros((int(keep.sum()), star.size))
        np.put_along_axis(vertices, cols[keep], sol[keep], axis=1)
        if first is None:
            first = vertices[0]
        spread = max(spread, float(np.max(np.abs(vertices - first))))
        values = vertices @ v_star
        v_min = min(v_min, float(values.min()))
        v_max = max(v_max, float(values.max()))
    if first is None:
        raise NonConvergence(
            f"vmin_vmax: no feasible vertex among {count} subsets of X*")
    v_min = max(v_min, 0.0)
    v_max = max(v_max, v_min)
    return ChannelDispersion(
        v_min=v_min,
        v_max=v_max,
        capacity_set_is_singleton=spread <= _SINGLETON_TOL,
        v_min_positive=v_min > tol,
        capacity=cap,
    )


def channel_rate_at(w: Channel, n: int, eps: float,
                    disp: ChannelDispersion | None = None) -> ChannelRatePoint:
    """Normal approximation C - sqrt(V/n) * Qinv(eps) at block length n.

    V follows the eps <= 1/2 -> V_min, else V_max case split; the rates
    for both extremes are reported alongside. C and V come from ``disp``,
    solved here by ``vmin_vmax`` at ``DEFAULT_TOL`` when not given.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    if not (0.0 < eps < 1.0):
        raise DomainError("eps must lie in (0, 1)")
    if disp is None:
        disp = vmin_vmax(w)
    c = disp.capacity.capacity
    qi = q_inverse(eps)
    rate_vmin = c - math.sqrt(disp.v_min / n) * qi
    rate_vmax = c - math.sqrt(disp.v_max / n) * qi
    selected = rate_vmin if eps <= 0.5 else rate_vmax
    return ChannelRatePoint(
        rate=selected,
        rate_with_vmin=rate_vmin,
        rate_with_vmax=rate_vmax,
        capacity=c,
        n=n,
        eps=eps,
    )
