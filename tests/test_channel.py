import math
import time
import tracemalloc

import numpy as np
import pytest

from jsccdisp import (
    Channel,
    DimensionMismatch,
    Distribution,
    DomainError,
    EnumerationTooLarge,
    UnreachableOutput,
    capacity,
    channel_rate_at,
    conditional_information_variance,
    divergence_variance,
    information_density,
    mutual_information,
    q_inverse,
    unconditional_information_variance,
    vmin_vmax,
)
from conftest import bsc, two_orbit_cyclic

LN2 = math.log(2.0)


def h2_nats(p: float) -> float:
    # closed-form binary entropy oracle
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


def bsc_capacity_oracle(p: float) -> float:
    return LN2 - h2_nats(p)


def bsc_cond_var_oracle(p: float) -> float:
    return p * (1 - p) * math.log((1 - p) / p) ** 2


UNIFORM2 = Distribution(np.array([0.5, 0.5]))


def uniform_output_variance_range(w: np.ndarray) -> tuple[float, float]:
    # oracle: min and max of sum_x phi(x) v_x over phi >= 0 with phi W
    # uniform, by two linear programs
    from scipy.optimize import linprog

    n_x, n_y = w.shape
    dens = np.log(w * n_y)
    div = (w * dens).sum(axis=1)
    v = (w * (dens - div[:, None]) ** 2).sum(axis=1)
    a_eq = np.vstack([w.T, np.ones(n_x)])
    b_eq = np.append(np.full(n_y, 1.0 / n_y), 1.0)
    ends = []
    for sign in (1.0, -1.0):
        res = linprog(sign * v, A_eq=a_eq, b_eq=b_eq,
                      bounds=[(0, None)] * n_x, method="highs")
        assert res.status == 0
        ends.append(sign * res.fun)
    return ends[0], ends[1]


class TestMutualInformation:
    def test_identity_uniform(self):
        for k in (2, 3, 5):
            w = Channel(np.eye(k))
            u = Distribution(np.full(k, 1.0 / k))
            assert mutual_information(u, w) == pytest.approx(math.log(k), abs=1e-12)

    def test_constant_output(self):
        w = Channel(np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert mutual_information(UNIFORM2, w) == 0.0

    def test_bsc_uniform_matches_closed_form(self):
        got = mutual_information(UNIFORM2, bsc(0.11))
        assert got == pytest.approx(bsc_capacity_oracle(0.11), abs=1e-13)

    def test_upper_bounds(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            w = Channel(rng.dirichlet(np.ones(3), size=3))
            phi = Distribution(rng.dirichlet(np.ones(3)))
            mi = mutual_information(phi, w)
            from jsccdisp import entropy
            out = Distribution(phi.probs @ w.matrix)
            assert -1e-12 <= mi <= min(entropy(phi), entropy(out)) + 1e-12

    def test_concavity_in_input(self):
        rng = np.random.default_rng(13)
        w = Channel(rng.dirichlet(np.ones(4), size=3))
        for _ in range(30):
            a = rng.random()
            p = rng.dirichlet(np.ones(3))
            q = rng.dirichlet(np.ones(3))
            mix = mutual_information(Distribution(a * p + (1 - a) * q), w)
            parts = (a * mutual_information(Distribution(p), w)
                     + (1 - a) * mutual_information(Distribution(q), w))
            assert mix >= parts - 1e-11

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mutual_information(Distribution(np.ones(3) / 3), bsc(0.1))


class TestInformationDensity:
    def test_identity_channel(self):
        w = Channel(np.eye(3))
        u = Distribution(np.ones(3) / 3)
        dens = information_density(u, w)
        for i in range(3):
            assert dens[i, i] == pytest.approx(math.log(3), abs=1e-13)
            for j in range(3):
                if i != j:
                    assert dens[i, j] == -math.inf

    def test_bsc_two_values(self):
        p = 0.11
        dens = information_density(UNIFORM2, bsc(p))
        assert dens[0, 0] == pytest.approx(math.log(2 * (1 - p)), abs=1e-13)
        assert dens[0, 1] == pytest.approx(math.log(2 * p), abs=1e-13)

    def test_expectation_is_mutual_information(self):
        rng = np.random.default_rng(14)
        w = Channel(rng.dirichlet(np.ones(3), size=2) + 0.0)
        phi = Distribution(np.array([0.3, 0.7]))
        dens = information_density(phi, w)
        joint = phi.probs[:, None] * w.matrix
        mask = joint > 0
        expectation = float(np.sum(joint[mask] * dens[mask]))
        assert expectation == pytest.approx(mutual_information(phi, w), abs=1e-12)


class TestCapacity:
    def test_noiseless_binary_exact(self):
        res = capacity(bsc(0.0), 1e-10)
        assert res.capacity == math.log(2)

    def test_useless_channel(self):
        res = capacity(bsc(0.5), 1e-10)
        assert res.capacity == pytest.approx(0.0, abs=1e-12)

    def test_bsc011_matches_closed_form(self):
        res = capacity(bsc(0.11), 1e-10)
        assert res.capacity == pytest.approx(bsc_capacity_oracle(0.11), abs=1e-10)
        assert res.upper_bound - res.lower_bound <= 1e-10
        assert res.lower_bound <= res.capacity <= res.upper_bound

    def test_input_distribution_achieves_lower_bound(self):
        rng = np.random.default_rng(15)
        w = Channel(rng.dirichlet(np.ones(4), size=3) + 0.0)
        res = capacity(w, 1e-10)
        assert mutual_information(res.input_distribution, w) == pytest.approx(
            res.lower_bound, abs=1e-9)

    def test_output_permutation_invariance(self):
        rng = np.random.default_rng(16)
        mat = rng.dirichlet(np.ones(4), size=3)
        perm = rng.permutation(4)
        c1 = capacity(Channel(mat), 1e-10).capacity
        c2 = capacity(Channel(mat[:, perm]), 1e-10).capacity
        assert c1 == pytest.approx(c2, abs=1e-10)

    def test_capacity_within_alphabet_bound(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            nx, ny = rng.integers(2, 5, 2)
            w = Channel(rng.dirichlet(np.ones(ny), size=nx))
            c = capacity(w, 1e-9).capacity
            assert -1e-12 <= c <= math.log(min(nx, ny)) + 1e-9

    @pytest.mark.parametrize("mat", [
        [[0.2469, 0.7531], [0.2504, 0.7496]],
        [[0.2631, 0.7369], [0.2632, 0.7368], [0.5685, 0.4315]],
    ])
    def test_near_duplicate_rows_converge(self, mat):
        # nearly equal rows: the Hessian is close to rank-deficient, and
        # first-order updates converge sublinearly (4.8e-10 after 200,000
        # Arimoto steps on the first)
        w = Channel(np.array(mat))
        start = time.perf_counter()
        res = capacity(w, 1e-10)
        assert time.perf_counter() - start < 0.05
        assert res.upper_bound - res.lower_bound <= 1e-10
        mi = mutual_information(res.input_distribution, w)
        assert res.lower_bound - 1e-14 <= mi <= res.upper_bound + 1e-14


    def test_only_input_to_an_output_keeps_its_mass(self):
        # input 2 alone reaches output 2, with mass 2.5e-4 at capacity,
        # below the kernel's floor: without it phi W puts 0 on that output
        # and D(W_2 || phi W) is infinite, so it stays on the support
        from scipy.optimize import minimize

        mat = np.array([[0.9, 0.1, 0.0], [0.1, 0.9, 0.0], [0.5, 0.45, 0.05]])
        w = Channel(mat)
        res = capacity(w, 1e-10)
        assert res.upper_bound - res.lower_bound <= 1e-10
        assert res.input_distribution.probs[2] > 1e-4

        def neg_info(phi):
            phi = np.maximum(phi, 0.0)
            return -mutual_information(Distribution(phi / phi.sum()), w)

        ref = minimize(neg_info, np.full(3, 1.0 / 3.0), method="SLSQP",
                       bounds=[(0.0, 1.0)] * 3, options={"ftol": 1e-15},
                       constraints=[{"type": "eq",
                                     "fun": lambda v: v.sum() - 1.0}])
        assert abs(res.capacity + ref.fun) <= 1e-9


class TestInformationVariances:
    def test_identity_unconditional_zero(self):
        w = Channel(np.eye(4))
        u = Distribution(np.ones(4) / 4)
        assert unconditional_information_variance(u, w) == pytest.approx(0, abs=1e-13)

    def test_constant_output_zero(self):
        w = Channel(np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert unconditional_information_variance(UNIFORM2, w) == 0.0
        assert conditional_information_variance(UNIFORM2, w) == 0.0

    def test_identity_conditional_zero(self):
        w = Channel(np.eye(3))
        u = Distribution(np.ones(3) / 3)
        assert conditional_information_variance(u, w) == pytest.approx(0, abs=1e-13)

    def test_identical_rows_conditional_zero(self):
        w = Channel(np.array([[0.2, 0.8], [0.2, 0.8], [0.2, 0.8]]))
        phi = Distribution(np.array([0.1, 0.4, 0.5]))
        assert conditional_information_variance(phi, w) == pytest.approx(0, abs=1e-13)

    def test_bsc_closed_form(self):
        got = conditional_information_variance(UNIFORM2, bsc(0.11))
        assert got == pytest.approx(bsc_cond_var_oracle(0.11), abs=1e-13)
        # in bits^2 this is the familiar 0.8907
        assert got / LN2 ** 2 == pytest.approx(0.8907017013975561, abs=1e-10)

    def test_conditional_equals_unconditional_at_capacity(self):
        # capacity-achieving input on a symmetric channel
        for p in (0.05, 0.11, 0.3):
            w = bsc(p)
            cond = conditional_information_variance(UNIFORM2, w)
            uncond = unconditional_information_variance(UNIFORM2, w)
            assert cond == pytest.approx(uncond, abs=1e-9)

    def test_unconditional_matches_divergence_variance_identity(self):
        # Var i(X,Y) = divergence variance between phi x W and phi x phiW
        rng = np.random.default_rng(17)
        w = Channel(rng.dirichlet(np.ones(3), size=2) + 0.0)
        phi = Distribution(np.array([0.4, 0.6]))
        joint = Distribution((phi.probs[:, None] * w.matrix).ravel())
        out = phi.probs @ w.matrix
        prod = Distribution((phi.probs[:, None] * out[None, :]).ravel())
        assert unconditional_information_variance(phi, w) == pytest.approx(
            divergence_variance(joint, prod), abs=1e-12)


class TestVminVmax:
    def test_bsc_singleton(self):
        disp = vmin_vmax(bsc(0.11), 1e-10)
        assert disp.capacity_set_is_singleton
        assert disp.v_min == disp.v_max
        assert disp.v_min == pytest.approx(bsc_cond_var_oracle(0.11), abs=1e-8)
        assert disp.v_min_positive

    def test_bsc_grid_oracle(self):
        # oracle: grid search over binary inputs for the capacity achiever
        p = 0.2
        w = bsc(p)
        grid = np.linspace(0.01, 0.99, 981)
        mis = [mutual_information(Distribution(np.array([a, 1 - a])), w)
               for a in grid]
        best = grid[int(np.argmax(mis))]
        assert best == pytest.approx(0.5, abs=2e-3)
        disp = vmin_vmax(w, 1e-10)
        assert disp.v_min == pytest.approx(bsc_cond_var_oracle(p), abs=1e-8)

    def test_identity_channel_zero(self):
        disp = vmin_vmax(Channel(np.eye(2)), 1e-10)
        assert disp.v_min == pytest.approx(0.0, abs=1e-10)
        assert disp.v_max == pytest.approx(0.0, abs=1e-10)
        assert not disp.v_min_positive

    def test_merged_rows_ordering(self):
        w = Channel(np.array([[0.8, 0.2, 0.0],
                              [0.8, 0.2, 0.0],
                              [0.1, 0.1, 0.8]]))
        disp = vmin_vmax(w, 1e-10)
        assert 0.0 <= disp.v_min <= disp.v_max
        # any split of mass between the two equal rows achieves capacity
        assert not disp.capacity_set_is_singleton

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_two_orbit_cyclic_exact_range(self, k):
        w = two_orbit_cyclic(k)
        lo, hi = uniform_output_variance_range(w)
        assert lo < hi
        disp = vmin_vmax(Channel(w), 1e-10)
        assert disp.v_min == pytest.approx(lo, abs=1e-12)
        assert disp.v_max == pytest.approx(hi, abs=1e-12)
        assert disp.capacity_set_is_singleton is False

    def test_vertex_cap(self):
        # C(24, 12) = 2,704,156 candidate vertices: refused before enumerating
        w = Channel(two_orbit_cyclic(12))
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(EnumerationTooLarge, match="vmin_vmax.*2704156"):
                vmin_vmax(w, 1e-10)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 10_000_000

    def test_members_reach_capacity(self):
        w = bsc(0.11)
        cap = capacity(w, 1e-10)
        disp = vmin_vmax(w, 1e-10)
        # the capacity solve's input achieves C, and for the BSC it is the
        # only capacity-achieving input
        assert mutual_information(cap.input_distribution, w) >= cap.capacity - 1e-10
        assert disp.capacity_set_is_singleton


    def test_carries_capacity_solve(self, bsc011):
        cap = capacity(bsc011, 1e-10)
        got = vmin_vmax(bsc011, 1e-10).capacity
        assert (got.capacity, got.lower_bound, got.upper_bound, got.iterations) == (
            cap.capacity, cap.lower_bound, cap.upper_bound, cap.iterations)
        assert np.array_equal(got.input_distribution.probs,
                              cap.input_distribution.probs)


class TestChannelRateAt:
    def test_given_dispersion_solves_no_capacity(self, bsc011, monkeypatch):
        import jsccdisp.channel as ch

        disp = vmin_vmax(bsc011)

        def fail(*args, **kwargs):
            raise AssertionError("capacity solved again")

        monkeypatch.setattr(ch, "capacity", fail)
        for n in (100, 1000):
            pt = channel_rate_at(bsc011, n, 0.1, disp)
            assert pt.capacity == disp.capacity.capacity

    def test_eps_half_is_capacity_exactly(self, bsc011):
        pt = channel_rate_at(bsc011, 977, 0.5)
        assert pt.rate == pt.capacity

    def test_monotone_in_n_below_half(self, bsc011):
        rates = [channel_rate_at(bsc011, n, 0.1).rate
                 for n in (100, 1000, 10000)]
        assert rates[0] < rates[1] < rates[2]
        assert rates[-1] < capacity(bsc011, 1e-10).capacity

    def test_chained_oracle_bsc011(self, bsc011):
        # 0.5
        pt = channel_rate_at(bsc011, 1000, 0.1)
        oracle = (bsc_capacity_oracle(0.11)
                  - math.sqrt(bsc_cond_var_oracle(0.11) / 1000)
                  * 1.2815515655446004)
        assert pt.rate == pytest.approx(oracle, abs=1e-9)
        assert pt.rate / LN2 == pytest.approx(0.4618, abs=1e-4)

    def test_case_split(self, bsc011):
        lo = channel_rate_at(bsc011, 500, 0.3)
        hi = channel_rate_at(bsc011, 500, 0.7)
        assert lo.rate == lo.rate_with_vmin
        assert hi.rate == hi.rate_with_vmax

    def test_reports_both_extremes(self, bsc011):
        pt = channel_rate_at(bsc011, 100, 0.25)
        assert pt.rate_with_vmin >= pt.rate_with_vmax  # eps < 1/2, Qinv > 0


class TestRefusals:
    @pytest.mark.parametrize("call,error,message", [
        (lambda w: information_density(Distribution(np.array([1.0, 0.0])),
                                       Channel(np.eye(2))),
         UnreachableOutput, "unreachable"),
        (lambda w: capacity(w, 0.0), DomainError, "tol must be positive"),
        (lambda w: channel_rate_at(w, 0, 0.1), DomainError,
         "n must be at least 1"),
        (lambda w: channel_rate_at(w, 100, 1.0), DomainError,
         "eps must lie in"),
    ], ids=["density-unreachable", "capacity-tol", "rate-n", "rate-eps"])
    def test_refuses(self, call, error, message, bsc011):
        with pytest.raises(error, match=message):
            call(bsc011)

    def test_nan_tolerance_is_a_domain_error(self, bsc011):
        # before any solve: not a NonConvergence against a NaN bracket
        with pytest.raises(DomainError, match=r"^tol must be positive; got nan"):
            capacity(bsc011, math.nan)
