"""Properties of the two simplex solves: the fixed-slope rate-distortion
problem inside ``rdf``/``distortion_rate`` and ``capacity``.

Both run on the same batched Newton kernel. The properties draw the inputs
on which first-order updates converge sublinearly: zero-mass source
letters, more reproduction letters than source letters, duplicate
reproduction columns, and channels with duplicate or near-duplicate rows.
A batch of solves must give each row what a batch of one gives it: the
excess simulator's batch of source laws, and the D_n table's batch of
rates. At every tolerance a solve converges or fails with a named error.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from jsccdisp import (
    BoundaryDistortion,
    Channel,
    Distribution,
    JsccProblem,
    NonConvergence,
    RateOutOfRange,
    SourceSpec,
    capacity,
    conditional_information_variance,
    d_max,
    dispersion_report,
    distortion_rate,
    distortion_thresholds,
    excess_event_probability,
    mutual_information,
    nearest_type,
    q_inverse,
    rdf,
    vmin_vmax,
)
from jsccdisp.channel import _capacity_oracle
from jsccdisp.probcore import _simplex_newton
from jsccdisp.source import (
    _fixed_slope,
    _rd_oracle,
    _rdf_rates,
    _Solves,
    _tilted,
)
from conftest import two_orbit_cyclic

TOL = 1e-10

weights = st.floats(1e-3, 1.0)


def laws(draw, k: int) -> np.ndarray:
    """A law on k letters, maybe with a zero-mass letter."""
    p = np.array(draw(st.lists(weights, min_size=k, max_size=k)))
    if draw(st.booleans()):
        p[draw(st.integers(0, k - 1))] = 0.0
    return p / p.sum()


def distortions(draw, k: int, m: int) -> np.ndarray:
    """A distortion matrix of k rows and m or m + 1 columns, one zero per
    row, maybe with a duplicate column."""
    cells = st.lists(st.floats(0.05, 3.0), min_size=k * m, max_size=k * m)
    d = np.array(draw(cells)).reshape(k, m)
    for row in range(k):
        d[row, draw(st.integers(0, m - 1))] = 0.0
    if draw(st.booleans()):
        d = np.hstack([d, d[:, [draw(st.integers(0, m - 1))]]])
    return d


@st.composite
def sources(draw):
    """A 2-5-letter source, maybe with a zero-mass letter, with a distortion
    matrix of 2-7 columns, one zero per row, maybe with a duplicate column."""
    k, m = draw(st.integers(2, 5)), draw(st.integers(2, 6))
    p = laws(draw, k)
    return SourceSpec(Distribution(p), distortions(draw, k, m))


@st.composite
def type_batches(draw):
    """1-40 laws on one 2-5-letter alphabet, each maybe with a zero-mass
    letter, and one distortion matrix as in ``sources``."""
    k, m = draw(st.integers(2, 5)), draw(st.integers(2, 6))
    t = draw(st.integers(1, 40))
    p = np.array([laws(draw, k) for _ in range(t)])
    return p, distortions(draw, k, m)


@given(sources(), st.floats(0.02, 0.95))
def test_distortion_rate_inverts_rdf(src, fraction):
    assume(d_max(src) > 1e-3)  # else one column is free for every letter
    d = fraction * d_max(src)
    rate = rdf(src, d).rate
    assert math.isfinite(rate) and rate > 0.0
    assert math.isclose(distortion_rate(src, rate), d, rel_tol=0.0, abs_tol=1e-8)


def channel_matrix(draw, nx: int, ny: int) -> np.ndarray:
    """An nx x ny channel matrix whose second row is a copy of the first,
    exact or moved by at most 1e-4 in each entry."""
    rows = [np.array(draw(st.lists(weights, min_size=ny, max_size=ny)))
            for _ in range(nx)]
    shift = np.array(draw(st.lists(st.floats(-1e-4, 1e-4), min_size=ny,
                                   max_size=ny)))
    rows[1] = rows[0] / rows[0].sum() + draw(st.sampled_from([0.0, 1.0])) * shift
    mat = np.abs(np.array(rows))
    return mat / mat.sum(axis=1, keepdims=True)


@st.composite
def channels(draw):
    """A 2-6 x 2-6 channel as in ``channel_matrix``."""
    return Channel(channel_matrix(draw, draw(st.integers(2, 6)),
                                  draw(st.integers(2, 6))))


@given(channels())
def test_capacity_bracket_holds_the_mutual_information(w):
    res = capacity(w, TOL)
    assert res.upper_bound - res.lower_bound <= TOL
    mi = mutual_information(res.input_distribution, w)
    # the two routes to I(phi, W) round differently by a few ulp
    assert res.lower_bound - 1e-14 <= mi <= res.upper_bound + 1e-14


@given(channels())
def test_capacity_input_dispersion_lies_in_the_vertex_range(w):
    # V(phi) at the capacity solve's phi is a point of [V_min, V_max] up to
    # the solve's tolerance: phi is within tau = sqrt(2 tol) of Pi(W), the
    # scale at which vmin_vmax admits rows to X*, and its mass off X* is at
    # most tol / tau
    disp = vmin_vmax(w, TOL)
    v = conditional_information_variance(disp.capacity.input_distribution, w)
    slack = math.sqrt(2.0 * TOL) * max(1.0, disp.v_max)
    assert disp.v_min - slack <= v <= disp.v_max + slack


@settings(max_examples=40)
@given(st.floats(0.02, 0.5), st.floats(0.02, 0.98), st.floats(0.01, 0.3),
       st.integers(20, 200), st.integers(0, 2 ** 32 - 1))
def test_excess_run_has_no_boundary_trials(p, fraction, crossover, n, seed):
    # a binary Hamming source at D below min P, where every source type of
    # the run has a well-posed rate, over a BSC at rho = 1
    src = SourceSpec(Distribution(np.array([1.0 - p, p])), 1.0 - np.eye(2))
    w = Channel(np.array([[1.0 - crossover, crossover],
                          [crossover, 1.0 - crossover]]))
    phi = nearest_type(Distribution(np.array([0.5, 0.5])), n)
    res = excess_event_probability(src, w, phi, fraction * p, n, 500, seed)
    assert res.diagnostics["boundary_trials"] == 0


@settings(max_examples=40)
@given(type_batches(), st.floats(0.02, 1.2))
def test_batched_rates_equal_rdf_row_by_row(batch, fraction):
    p, dmat = batch
    # D up to above the largest d_max, so that some rows are endpoints
    d = fraction * float(np.max(np.min(p @ dmat, axis=1)))
    rates = _rdf_rates(p, dmat, d, TOL)
    for row, rate in zip(p, rates):
        try:
            want = rdf(SourceSpec(Distribution(row), dmat), d, TOL).rate
        except NonConvergence:
            assert math.isnan(rate)
        else:
            assert math.isclose(rate, want, rel_tol=1e-12, abs_tol=0.0)


@st.composite
def mixed_problems(draw):
    """1-5 capacity problems on k-input channels and 1-5 fixed-slope
    rate-distortion problems with k reproduction letters, k in 2-5, as one
    stacked ``_simplex_newton`` oracle of the problems' indices, and the
    oracle and data of each row alone."""
    k, ny, ns = (draw(st.integers(2, 5)) for _ in range(3))
    mats = np.array([channel_matrix(draw, k, ny)
                     for _ in range(draw(st.integers(1, 5)))])
    n_rd = draw(st.integers(1, 5))
    p = np.array([laws(draw, ns) for _ in range(n_rd)])
    cells = st.lists(st.floats(0.05, 3.0), min_size=ns * k, max_size=ns * k)
    a = []
    for _ in range(n_rd):
        d = np.array(draw(cells)).reshape(ns, k)
        d[np.arange(ns), draw(st.lists(st.integers(0, k - 1), min_size=ns,
                                       max_size=ns))] = 0.0
        a.append(np.exp(-draw(st.floats(0.1, 20.0)) * d))
    a = np.array(a)

    def stacked(x, rows):
        first = rows < len(mats)  # a prefix: rows come in ascending order
        rd = rows[~first] - len(mats)
        parts = zip(_capacity_oracle(x[first], mats[rows[first]]),
                    _rd_oracle(x[~first], p[rd], a[rd]))
        return tuple(np.concatenate(pair) for pair in parts)

    alone = ([(_capacity_oracle, (m[None],)) for m in mats]
             + [(_rd_oracle, (p[[i]], a[[i]])) for i in range(n_rd)])
    return k, stacked, alone


@given(mixed_problems())
def test_stacked_newton_equals_batches_of_one(problem):
    k, stacked, alone = problem
    tol = 1e-11
    x, gap, steps = _simplex_newton(stacked, (np.arange(len(alone)),), k, tol)
    assert np.all(gap <= tol)
    for row, (oracle, data) in enumerate(alone):
        x1, gap1, steps1 = _simplex_newton(oracle, data, k, tol)
        assert np.allclose(x[row], x1[0], rtol=0.0, atol=1e-12)
        assert abs(gap[row] - gap1[0]) <= 1e-12 and steps[row] == steps1[0]


@settings(max_examples=50)
@given(sources(), st.floats(0.02, 0.9), st.floats(0.05, 0.95))
def test_rate_is_nonincreasing_and_convex_in_d(src, fraction, split):
    assume(d_max(src) > 1e-3)
    d1, d3 = 0.5 * fraction * d_max(src), fraction * d_max(src)
    d2 = d1 + split * (d3 - d1)
    r1, r2, r3 = (rdf(src, d).rate for d in (d1, d2, d3))
    assert r1 >= r2 - 1e-9 and r2 >= r3 - 1e-9
    assert r2 <= (1.0 - split) * r1 + split * r3 + 1e-9


@given(sources(), st.floats(0.02, 0.95))
def test_tilted_information_averages_to_the_rate(src, fraction):
    assume(d_max(src) > 1e-3)
    d = fraction * d_max(src)
    res, g, _ = _tilted(src, d)
    s = res.lagrange_slope
    j = s * d - np.log(np.exp(s * src.distortion) @ res.reproduction)
    p = src.distribution.probs
    assert math.isclose(float(p @ j), res.rate, rel_tol=0.0, abs_tol=1e-10)
    assert np.allclose(g, j - p @ j, rtol=0.0, atol=1e-12)


@st.composite
def slope_points(draw):
    """A 2-3-letter law as in ``laws``, a distortion matrix of 2-5 columns
    as in ``distortions``, and a slope s in [-20, -0.05]."""
    k, m = draw(st.integers(2, 3)), draw(st.integers(2, 4))
    return laws(draw, k), distortions(draw, k, m), -draw(st.floats(0.05, 20.0))


@settings(max_examples=150)
@given(slope_points())
# reproduction letter 0, the only zero-distortion letter of the 0.002-mass
# source letter, is held off the support, so D(s) is flat here; its
# barrier-floor mass once left dD/ds at 0.0117
@example((np.array([0.002003690409358, 0.0, 0.9979963095906419]),
          np.array([[0.0, 2.4217758721240905, 2.4217758721240905],
                    [2.5288306015563133, 0.0, 0.0],
                    [2.451960005096619, 0.0, 0.0]]), -2.553125644147972))
def test_slope_derivative_matches_central_differences(point):
    # Q(h) = (D(s + h) - D(s - h)) / 2h misses dD/ds by h^2 D'''/6 + O(h^4),
    # so Richardson's (Q(2h) - Q(h)) / 3 estimates that truncation error
    # and twice it bounds it. Each D is accurate to delta = 1e-10 (solves at
    # the kernel's 1e-13 came within 3.5e-11 of solves at 1e-15 over 800
    # random problems), which puts at most delta / h into Q(h) and
    # delta / 2h into the estimate.
    p, d, s = point
    h = 1e-3 * abs(s)
    slopes = s + h * np.array([0.0, 1.0, -1.0, 2.0, -2.0])
    out = _Solves(5, *d.shape)
    ddist, failed = _fixed_slope(np.repeat(p[None], 5, axis=0), d, slopes,
                                 TOL, out, np.arange(5))
    assert not failed.any()
    dist, q = out.dist, out.q
    # D(s) is smooth while the support stays put: a letter is on it while
    # its mass q_z exceeds its slack 1 - c_z, c = A^T (P / A q)
    a = np.exp(slopes[:, None, None] * d)
    c = ((p / (a @ q[:, :, None])[:, :, 0])[:, None, :] @ a)[:, 0, :]
    support = q > 1.0 - c
    assume((support == support[0]).all())
    q1 = (dist[1] - dist[2]) / (2 * h)
    q2 = (dist[3] - dist[4]) / (4 * h)
    assert abs(ddist[0] - q1) <= 2 * abs(q2 - q1) / 3 + 2e-10 / h


@st.composite
def hamming_points(draw):
    """A law on 2-5 letters, each of mass at least 1e-3, with Hamming
    distortion, and a D in (0, d_max); half the D lie where the Shannon
    lower bound is tight, D <= (k - 1) min P."""
    k = draw(st.integers(2, 5))
    w = np.array(draw(st.lists(weights, min_size=k, max_size=k)))
    p = 1e-3 + (1.0 - k * 1e-3) * w / w.sum()
    src = SourceSpec(Distribution(p / p.sum()), 1.0 - np.eye(k))
    top = (k - 1) * p.min() if draw(st.booleans()) else d_max(src)
    return src, draw(st.floats(0.02, 0.98)) * top


@settings(max_examples=30)
@given(hamming_points())
def test_rdf_meets_the_shannon_lower_bound(point):
    # R(D) >= H(P) - h(D) - D log(k - 1), with equality for D <= (k - 1) min P
    src, d = point
    p = src.distribution.probs
    k = len(p)
    slb = (-float(p @ np.log(p)) + d * math.log(d) + (1 - d) * math.log1p(-d)
           - d * math.log(k - 1))
    rate = rdf(src, d).rate
    assert rate >= slb - 1e-9
    if d <= (k - 1) * p.min():
        assert abs(rate - slb) <= 1e-9


def slsqp_rate(p: np.ndarray, d: np.ndarray, level: float,
               start: np.ndarray) -> tuple[float, float]:
    """(I(P, W), E d - D) at the test channel W that scipy's SLSQP reaches
    from ``start`` when it minimises I(P, W) over row-stochastic W with
    E d <= D, with the gradient P(x) log(W(z|x) / q(z)); a second run
    from the first one's W, as SLSQP's line search can stall near a zero
    entry of W."""
    from scipy.optimize import minimize

    k, m = d.shape

    def info(w):
        w = np.maximum(w.reshape(k, m), 1e-300)
        ratio = np.log(w / (p @ w))
        return float((p[:, None] * w * ratio).sum()), (p[:, None] * ratio).ravel()

    rows = np.kron(np.eye(k), np.ones(m))
    cost = (p[:, None] * d).ravel()
    w = start.ravel()
    for _ in range(2):
        w = minimize(info, w, jac=True, method="SLSQP",
                     bounds=[(0.0, 1.0)] * (k * m),
                     constraints=[
                         {"type": "eq", "fun": lambda w: rows @ w - 1.0,
                          "jac": lambda w: rows},
                         {"type": "ineq", "fun": lambda w: level - cost @ w,
                          "jac": lambda w: -cost[None, :]}],
                     options={"ftol": 1e-14, "maxiter": 500}).x
    w = np.clip(w.reshape(k, m), 0.0, None)
    w /= w.sum(axis=1, keepdims=True)
    return mutual_information(Distribution(p), Channel(w)), float(cost @ w.ravel()) - level


@st.composite
def small_points(draw):
    """A 2-3-letter source with 2-5 reproduction letters, as in ``sources``,
    and a D strictly inside (0, d_max)."""
    k, m = draw(st.integers(2, 3)), draw(st.integers(2, 4))
    src = SourceSpec(Distribution(laws(draw, k)), distortions(draw, k, m))
    return src, draw(st.floats(0.05, 0.95)) * d_max(src)


@settings(max_examples=25, deadline=None)
@given(small_points(), st.integers(0, 2 ** 32 - 1))
def test_rdf_agrees_with_slsqp(point, seed):
    # an independent convex solve over the test channels themselves:
    # SLSQP from a random row-stochastic W, from the uniform one, and from
    # the test channel of the rdf solve
    src, d = point
    assume(d > 1e-3)
    p, dmat = src.distribution.probs, src.distortion
    res = rdf(src, d, 1e-11)
    k, m = dmat.shape
    w = np.random.default_rng(seed).dirichlet(np.ones(m), size=k)
    rate, excess = min(slsqp_rate(p, dmat, d, start) for start in (
        w, np.full((k, m), 1.0 / m), res.test_channel))
    # no feasible point beats R(D), and a violation of the constraint by
    # excess buys at most |s| * excess of rate
    assert res.rate <= rate + abs(res.lagrange_slope) * max(excess, 0.0) + 1e-9
    # and SLSQP comes close to R(D): its line search stalls near a zero
    # entry of W, seen up to 1.1e-5 above R(D) from all three starts in
    # 3,200 random examples (each with a duplicate column)
    assert rate <= res.rate + 1e-4


@st.composite
def boundary_points(draw):
    """A point as in ``small_points`` whose optimum has a zero letter: one
    more reproduction column, a copy of another raised by 0.05-1 in every
    row, which no test channel uses."""
    src, d = draw(small_points())
    dmat = src.distortion
    extra = dmat[:, draw(st.integers(0, dmat.shape[1] - 1))] + draw(
        st.floats(0.05, 1.0))
    return SourceSpec(src.distribution, np.hstack([dmat, extra[:, None]])), d


@settings(max_examples=15, deadline=None)
@given(boundary_points(), st.integers(0, 2 ** 32 - 1))
def test_boundary_optimum_is_certified_and_agrees_with_slsqp(point, seed):
    # the dominated letter leaves the support; the solve still meets its
    # certificate and agrees with the SLSQP reference of
    # test_rdf_agrees_with_slsqp
    src, d = point
    assume(d > 1e-3)
    p, dmat = src.distribution.probs, src.distortion
    res = rdf(src, d, 1e-11)
    assert res.gap <= 1e-11
    k, m = dmat.shape
    w = np.random.default_rng(seed).dirichlet(np.ones(m), size=k)
    rate, excess = min(slsqp_rate(p, dmat, d, start) for start in (
        w, np.full((k, m), 1.0 / m), res.test_channel))
    assert res.rate <= rate + abs(res.lagrange_slope) * max(excess, 0.0) + 1e-9
    assert rate <= res.rate + 1e-4


def slsqp_capacity(w: np.ndarray) -> float:
    """max I(phi, W) over the input simplex by scipy's SLSQP from uniform."""
    from scipy.optimize import minimize

    def neg_info(phi):
        phi = np.maximum(phi, 0.0)
        return -mutual_information(Distribution(phi / phi.sum()), Channel(w))

    n = w.shape[0]
    phi = minimize(neg_info, np.full(n, 1.0 / n), method="SLSQP",
                   bounds=[(0.0, 1.0)] * n,
                   constraints=[{"type": "eq", "fun": lambda v: v.sum() - 1.0}],
                   options={"ftol": 1e-14, "maxiter": 500}).x
    return -neg_info(phi)


@settings(max_examples=40, deadline=None)
@given(channels(), st.floats(0.1, 0.9))
def test_dominated_input_is_certified_and_agrees_with_slsqp(w, mix):
    # one more input row, a strict mixture of the first two distinct rows,
    # has D(W_x || q) below C at every capacity-achieving q, so its mass is
    # 0 at the optimum
    mat = w.matrix
    other = next((r for r in mat[1:] if np.abs(r - mat[0]).max() > 1e-3),
                 None)
    assume(other is not None)
    mat = np.vstack([mat, mix * mat[0] + (1.0 - mix) * other])
    res = capacity(Channel(mat), TOL)
    assert res.upper_bound - res.lower_bound <= TOL
    assert res.lower_bound >= slsqp_capacity(mat) - 1e-9


# a channel whose capacity set is not a point, so that V_min < V_max
CYCLIC_6X3 = two_orbit_cyclic(3)


@st.composite
def table_problems(draw):
    """A 2-3-letter source with full support whose letter i has distortion 0
    at reproduction i only, maybe with a duplicate column; a BSC, a random
    3x3 channel or the cyclic 6x3 channel; a rho that puts rho*C inside
    (0, R(P,0)); eps; and a list of block lengths with a repeated n."""
    k = draw(st.integers(2, 3))
    p = np.array(draw(st.lists(weights, min_size=k, max_size=k)))
    d = np.array(draw(st.lists(st.floats(0.05, 3.0), min_size=k * k,
                               max_size=k * k))).reshape(k, k)
    np.fill_diagonal(d, 0.0)
    if draw(st.booleans()):
        d = np.hstack([d, d[:, [draw(st.integers(0, k - 1))]]])
    src = SourceSpec(Distribution(p / p.sum()), d)
    crossover = draw(st.floats(0.01, 0.3))
    rows = np.array(draw(st.lists(st.lists(weights, min_size=3, max_size=3),
                                  min_size=3, max_size=3)))
    mat = (CYCLIC_6X3 if draw(st.booleans()) else draw(st.sampled_from([
        np.array([[1.0 - crossover, crossover], [crossover, 1.0 - crossover]]),
        rows / rows.sum(axis=1, keepdims=True)])))
    r_zero, c = rdf(src, 0.0).rate, capacity(Channel(mat)).capacity
    assume(r_zero > 1e-3 and c > 1e-3)
    problem = JsccProblem(src, Channel(mat),
                          draw(st.floats(0.05, 0.95)) * r_zero / c,
                          draw(st.floats(0.01, 0.99)))
    ns = draw(st.lists(st.integers(1, 20000), min_size=1, max_size=4))
    ns.insert(draw(st.integers(0, len(ns))), draw(st.sampled_from(ns)))
    return problem, ns


@settings(max_examples=30)
@given(table_problems())
@example((JsccProblem(SourceSpec(Distribution(np.array([0.5, 0.3, 0.2])),
                                 1.0 - np.eye(3)),
                      Channel(CYCLIC_6X3), 1.0, 0.1), [1000, 30, 1000, 100]))
def test_threshold_table_equals_one_search_per_target(point):
    # the batched table against one distortion_rate call per target, in n
    # order, with the target-range check of one threshold at a time
    problem, ns = point
    try:
        rep = dispersion_report(problem)
    except BoundaryDistortion:
        return
    r_zero = rdf(problem.source, 0.0).rate
    want = []
    try:
        for n in ns:
            for tag, v in (("low", rep.v_j_low), ("high", rep.v_j_high)):
                t = rep.r_at_d_star - math.sqrt(v / n) * q_inverse(problem.eps)
                if not 0.0 < t < r_zero:
                    raise RateOutOfRange(f"target rate {t} nats (using v_j_"
                                         f"{tag}) is outside (0, {r_zero})")
                want.append((t, distortion_rate(problem.source, t, 1e-9)))
    except RateOutOfRange as exc:
        with pytest.raises(RateOutOfRange) as got:
            distortion_thresholds(problem, ns, report=rep)
        assert str(got.value) == str(exc)
        return
    pts = distortion_thresholds(problem, ns, report=rep)
    got = [(v, d) for pt in pts for v, d in (
        (pt.target_rate_with_vlow, pt.d_with_vlow),
        (pt.target_rate_with_vhigh, pt.d_with_vhigh))]
    assert [pt.n for pt in pts] == ns
    assert got == want


@st.composite
def duplicated_problems(draw):
    """A channel as in ``channel_matrix``; a source as in ``sources`` with
    one more letter that repeats the first letter's probability and
    distortion row, and a duplicate reproduction column; and a D of 5-95%
    of its d_max."""
    k, m = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    p = laws(draw, k)
    p = np.append(p, p[0]) / (1.0 + p[0])
    d = distortions(draw, k, m)
    d = np.vstack([d, d[:1]])
    d = np.hstack([d, d[:, [draw(st.integers(0, m - 1))]]])
    src = SourceSpec(Distribution(p), d)
    w = Channel(channel_matrix(draw, draw(st.integers(2, 6)),
                               draw(st.integers(2, 6))))
    return w, src, draw(st.floats(0.05, 0.95)) * d_max(src)


# the 5x3 channel whose first two rows are equal, on which capacity at tol
# 1e-16 once ended in a bare LinAlgError from the kernel's Newton system
DUPLICATED_5X3 = np.array([[0.11988, 0.087912, 0.792208],
                           [0.11988, 0.087912, 0.792208],
                           [0.581, 0.276, 0.143], [0.373, 0.339, 0.288],
                           [0.261, 0.258, 0.481]])


@settings(max_examples=20)
@given(duplicated_problems())
@example((Channel(DUPLICATED_5X3),
          SourceSpec(Distribution(np.array([0.3, 0.4, 0.3])),
                     np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0],
                               [0.0, 1.0, 1.0]])), 0.2))
def test_every_tolerance_converges_or_names_its_failure(point):
    # duplicated rows and columns make the kernel's Hessian singular; at a
    # tol the solves cannot certify, they fail with a named error. The
    # tolerances are dense where rounding sets in
    w, src, d = point
    for tol in (1e-16, 1e-15, 1e-14, 1e-13, 1e-10, 1e-6):
        try:
            res = capacity(w, tol)
        except NonConvergence as exc:
            assert str(exc).startswith("capacity: ") and "W = " in str(exc)
        else:
            assert res.upper_bound - res.lower_bound <= tol
        try:
            out = rdf(src, d, tol)
        except NonConvergence as exc:
            assert "P = " in str(exc)
        else:
            # the fixed-slope solves aim for 1e-13 at the finest
            assert math.isfinite(out.rate) and out.gap <= max(tol, 1e-13)
