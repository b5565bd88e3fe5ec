import itertools
import math

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from jsccdisp import (
    AbsoluteContinuityViolated,
    Channel,
    ConditionalType,
    Distribution,
    DomainError,
    EmpiricalType,
    EnumerationTooLarge,
    SymbolOutOfRange,
    conditional_type,
    divergence_variance,
    empirical_type,
    entropy,
    enumerate_n_types,
    kl_divergence,
    nearest_type,
    q_function,
    q_inverse,
)
from jsccdisp.probcore import (
    _compositions,
    _joint_mutual_information,
    _simplex_newton,
    ndtr,
    ndtri,
)
from jsccdisp.source import _rd_oracle


def direct_entropy(probs) -> float:
    # independent oracle: plain summation with explicit 0 log 0 handling
    return sum(-p * math.log(p) for p in probs if p > 0)


class TestDistribution:
    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            Distribution(np.array([1.1, -0.1]))

    def test_rejects_bad_sum(self):
        with pytest.raises(DomainError):
            Distribution(np.array([0.5, 0.5 + 1e-9]))

    def test_accepts_tolerated_dust(self):
        Distribution(np.array([0.5, 0.5 + 1e-13]))

    def test_immutable(self):
        d = Distribution(np.array([0.3, 0.7]))
        with pytest.raises(ValueError):
            d.probs[0] = 0.5


class TestEntropy:
    def test_uniform_two_symbols(self):
        assert entropy(Distribution(np.array([0.5, 0.5]))) == pytest.approx(
            math.log(2), abs=1e-15)

    def test_point_mass(self):
        assert entropy(Distribution(np.array([1.0, 0.0]))) == 0.0

    def test_skewed_binary_matches_direct_summation(self):
        p = (0.11, 0.89)
        expected = direct_entropy(p)  # = 0.34651533691866615 nats
        assert expected == pytest.approx(0.3465153369, abs=1e-9)
        assert entropy(Distribution(np.array(p))) == pytest.approx(
            expected, abs=1e-15)

    def test_concavity_spot_checks(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            a = rng.random()
            mix = entropy(Distribution(a * p + (1 - a) * q))
            parts = a * entropy(Distribution(p)) + (1 - a) * entropy(Distribution(q))
            assert mix >= parts - 1e-12

    def test_bounded_by_log_alphabet(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = rng.dirichlet(np.ones(5))
            h = entropy(Distribution(p))
            assert -1e-12 <= h <= math.log(5) + 1e-12


class TestKlDivergence:
    def test_identity_is_zero(self):
        p = Distribution(np.array([0.3, 0.7]))
        assert kl_divergence(p, p) == 0.0

    def test_point_mass_vs_uniform(self):
        p = Distribution(np.array([1.0, 0.0]))
        q = Distribution(np.array([0.5, 0.5]))
        assert kl_divergence(p, q) == pytest.approx(math.log(2), abs=1e-15)

    def test_against_direct_summation(self):
        p, q = (0.5, 0.5), (0.9, 0.1)
        expected = sum(pi * math.log(pi / qi) for pi, qi in zip(p, q))
        got = kl_divergence(Distribution(np.array(p)), Distribution(np.array(q)))
        assert got == pytest.approx(expected, abs=1e-15)
        assert got > 0

    def test_absolute_continuity(self):
        p = Distribution(np.array([0.5, 0.5]))
        q = Distribution(np.array([1.0, 0.0]))
        with pytest.raises(AbsoluteContinuityViolated):
            kl_divergence(p, q)


class TestDivergenceVariance:
    def test_identity_is_zero(self):
        p = Distribution(np.array([0.25, 0.75]))
        assert divergence_variance(p, p) == 0.0

    def test_against_two_term_oracle(self):
        p, q = (0.5, 0.5), (0.25, 0.75)
        ratio = [math.log(pi / qi) for pi, qi in zip(p, q)]
        mean = sum(pi * r for pi, r in zip(p, ratio))
        expected = sum(pi * r * r for pi, r in zip(p, ratio)) - mean ** 2
        got = divergence_variance(Distribution(np.array(p)),
                                  Distribution(np.array(q)))
        assert got == pytest.approx(expected, abs=1e-15)

    def test_binary_swap_symmetry(self):
        p = Distribution(np.array([0.5, 0.5]))
        q = Distribution(np.array([0.2, 0.8]))
        q_swapped = Distribution(np.array([0.8, 0.2]))
        assert divergence_variance(p, q) == pytest.approx(
            divergence_variance(p, q_swapped), abs=1e-15)

    def test_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            p = Distribution(rng.dirichlet(np.ones(3)) + 0.0)
            q = Distribution(rng.dirichlet(np.ones(3)) + 0.0)
            assert divergence_variance(p, q) >= 0.0


class TestGaussianTail:
    def test_q_at_zero(self):
        assert q_function(0.0) == 0.5

    def test_far_tail_positive(self):
        v = q_function(10.0)
        assert 0.0 < v < 1e-20

    def test_against_quadrature_oracle(self):
        # oracle: numerically integrate the standard normal density tail
        tail, err = quad(lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi),
                         1.2816, 40.0)
        assert err < 1e-10
        assert q_function(1.2816) == pytest.approx(tail, abs=1e-10)

    def test_symmetry(self):
        for x in (0.3, 1.7, 4.2):
            assert q_function(-x) == pytest.approx(1.0 - q_function(x), abs=1e-15)

    def test_strictly_decreasing(self):
        xs = np.linspace(-6, 6, 25)
        vals = [q_function(x) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_equals_ndtr_bit_for_bit(self):
        # one Gaussian CDF: Q(x) is Phi(-x) to the last bit
        xs = np.linspace(-8.0, 8.0, 20_001)
        assert np.array_equal([q_function(x) for x in xs], ndtr(-xs))

    def test_qinv_half_is_exact_zero(self):
        assert q_inverse(0.5) == 0.0

    def test_qinv_symmetry(self):
        for eps in (0.01, 0.2, 0.4):
            assert q_inverse(eps) == pytest.approx(-q_inverse(1 - eps), abs=1e-11)

    def test_qinv_at_point_one(self):
        # frozen from an independent evaluation of the inverse Gaussian tail
        assert q_inverse(0.1) == pytest.approx(1.2815515655446004, abs=1e-9)

    def test_roundtrip_identity(self):
        # Near x = -6 the value Q(x) = 1 - 9.9e-10 carries only ~1.1e-16 of
        # absolute information, so no inverse can do better than roughly
        # ulp(1) / (2 phi(6)) ~ 9e-9 there; 1e-9 holds away from that corner.
        for x in np.linspace(-5.5, 6, 47):
            assert q_inverse(q_function(x)) == pytest.approx(x, abs=1e-9)
        for x in np.linspace(-6, -5.5, 9):
            assert q_inverse(q_function(x)) == pytest.approx(x, abs=2e-8)

    def test_value_space_roundtrip(self):
        for eps in (1e-9, 1e-4, 0.03, 0.5, 0.77, 1 - 1e-6):
            assert q_function(q_inverse(eps)) == pytest.approx(eps, abs=1e-10)

    def test_qinv_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                q_inverse(bad)



class TestNormalQuantileAndCdf:
    # scipy.special is the independent reference for both functions
    @pytest.fixture
    def probs(self):
        rng = np.random.default_rng(11)
        sweep = np.geomspace(1e-300, 0.5, 3000)
        return np.concatenate([rng.random(100_000), sweep, 1.0 - sweep,
                               [1.0 - 1e-16]])

    def test_ndtri_against_scipy(self, probs):
        np.testing.assert_allclose(ndtri(probs), special.ndtri(probs),
                                   rtol=2e-15, atol=0)

    def test_ndtri_edge_values(self):
        got = ndtri(np.array([0.0, 1.0, 0.5, np.nan, -0.1, 1.1]))
        assert got[0] == -np.inf and got[1] == np.inf and got[2] == 0.0
        assert np.isnan(got[3:]).all()
        assert ndtri(0.0) == -np.inf and ndtri(1.0) == np.inf

    def test_ndtri_keeps_shape(self):
        p = np.array([[0.01, 0.3], [0.7, 1e-20]])
        assert ndtri(p).tolist() == ndtri(p.ravel()).reshape(2, 2).tolist()

    def test_ndtr_against_scipy(self, probs):
        # Phi's condition number at x < 0 is about x^2, so the two ways of
        # rounding x/sqrt(2) may differ by x^2 units in the last place
        x = np.concatenate([ndtri(probs), np.linspace(-37, 9, 10_001)])
        got, ref = ndtr(x), special.ndtr(x)
        assert np.all(np.abs(got - ref) <= 2e-15 * np.maximum(1.0, x * x) * ref)

    def test_ndtr_edge_values(self):
        got = ndtr(np.array([-np.inf, np.inf, 0.0, np.nan]))
        assert got[:3].tolist() == [0.0, 1.0, 0.5] and np.isnan(got[3])


class TestSimplexNewton:
    @staticmethod
    def projection(c):
        """Oracle of F(x) = |x - c|^2 / 2 with the Frank-Wolfe gap."""
        def oracle(x, rows):
            grad = x - c
            hess = np.tile(np.eye(c.size), (len(x), 1, 1))
            return (0.5 * (grad * grad).sum(axis=1), grad, hess,
                    (grad * x).sum(axis=1) - grad.min(axis=1))
        return oracle

    def test_projection_onto_a_face(self):
        # the projection of c onto the simplex is (0.75, 0.25, 0, 0): the
        # two letters whose optimum is 0 leave the support and end there
        # exactly
        c = np.array([1.0, 0.5, -0.5, -2.0])
        x, gap, steps = _simplex_newton(self.projection(c), (np.arange(1),), 4,
                                        1e-13)
        assert gap[0] <= 1e-13 and 0 < steps[0] < 200
        assert np.all(x[0, :2] > 0) and x[0, 2:].tolist() == [0.0, 0.0]
        assert np.allclose(x[0], [0.75, 0.25, 0.0, 0.0], atol=1e-12)

    def test_letter_reenters_the_support(self):
        # c lies in the simplex, so x* = c, whose third letter is below the
        # floor: it leaves the support on the way, the restricted optimum
        # shows a negative reduced gradient for it, and it comes back
        c = np.array([0.6, 0.395, 0.005])
        seen = []
        oracle = self.projection(c)

        def recording(x, rows):
            seen.append(x[:, 2].copy())
            return oracle(x, rows)

        x, gap, steps = _simplex_newton(recording, (np.arange(1),), 3, 1e-13)
        assert 0.0 in np.concatenate(seen)
        assert gap[0] <= 1e-13 and steps[0] <= 10
        assert np.allclose(x[0], c, rtol=0.0, atol=1e-12) and x[0, 2] > 0

    def test_optimal_start_takes_no_step(self):
        c = np.full(3, 1.0 / 3.0)
        x, gap, steps = _simplex_newton(self.projection(c), (np.arange(1),), 3,
                                        1e-13)
        assert (steps[0], gap[0]) == (0, 0.0)
        assert np.array_equal(x[0], c)

    def test_singular_hessian(self):
        # F is linear in x: the Hessian is 0 and the minimum is a vertex
        cost = np.array([0.3, 0.1, 0.7])

        def oracle(x, rows):
            f = x @ cost
            return (f, np.tile(cost, (len(x), 1)), np.zeros((len(x), 3, 3)),
                    f - cost.min())

        x, gap, _ = _simplex_newton(oracle, (np.arange(1),), 3, 1e-12)
        assert gap[0] <= 1e-12
        assert x[0, 1] == pytest.approx(1.0, abs=1e-11)

    def test_non_finite_step_stops_in_place(self):
        # a NaN Newton direction must end the row where it is, not loop
        def oracle(x, rows):
            f = (x * x).sum(axis=1)
            return (f, 2.0 * x, np.full((len(x), 3, 3), np.nan),
                    np.ones(len(x)))

        x, gap, steps = _simplex_newton(oracle, (np.arange(2),), 3, 1e-12)
        assert np.array_equal(x, np.full((2, 3), 1.0 / 3.0))
        assert steps.tolist() == [0, 0] and gap.tolist() == [1.0, 1.0]

    def test_stopped_rows_leave_the_batch(self):
        # three fixed-slope rate-distortion rows: row 0 is optimal at the
        # start, row 1 stops after 4 steps and row 2 runs for 28, halving
        # its step on 16 of them and ending with a letter near 0. The oracle
        # records the rows of each call through their indices, which travel
        # with the data; a row that the batch carried past its stop would
        # get more calls than it makes alone.
        ham, d = 1.0 - np.eye(3), np.array([[0.26, 0.0, 1.9],
                                            [2.37, 0.0, 1.58],
                                            [0.0, 2.22, 0.06]])
        p = np.array([np.full(3, 1.0 / 3.0), [0.3, 0.35, 0.35],
                      [0.57, 0.413, 0.017]])
        a = np.exp(np.array([-ham, -ham, -3.26 * d]))
        calls = []

        def oracle(q, p, a, index):
            calls.append(index.tolist())
            return _rd_oracle(q, p, a)

        x, gap, steps = _simplex_newton(oracle, (p, a, np.arange(3)), 3,
                                        1e-13)
        batch = calls[:]
        assert steps.tolist() == [0, 4, 28] and np.all(gap <= 1e-13)
        for row in range(3):
            calls.clear()
            x1, gap1, steps1 = _simplex_newton(
                oracle, (p[[row]], a[[row]], np.array([row])), 3, 1e-13)
            assert sum(row in rows for rows in batch) == len(calls)
            assert np.array_equal(x[row], x1[0])
            assert (gap[row], steps[row]) == (gap1[0], steps1[0])


class TestJointMutualInformation:
    def test_denormal_column_stays_finite(self):
        # rows * cols underflows to 0 here while the joint entry does not
        got = _joint_mutual_information(np.array([[0.5, 5e-324], [0.5, 0.0]]))
        assert np.isfinite(got) and got == pytest.approx(0.0, abs=1e-300)

class TestTypes:
    def test_empirical_type_counts(self):
        t = empirical_type([0, 0, 1, 0], 2)
        assert t.counts.tolist() == [3, 1]
        assert t.n == 4

    def test_point_mass_type(self):
        t = empirical_type([2] * 7, 3)
        assert t.counts.tolist() == [0, 0, 7]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        seq = rng.integers(0, 4, 40)
        perm = rng.permutation(seq)
        assert (empirical_type(seq, 4).counts ==
                empirical_type(perm, 4).counts).all()

    def test_symbol_out_of_range(self):
        with pytest.raises(SymbolOutOfRange):
            empirical_type([0, 3], 2)

    def test_conditional_type_diagonal(self):
        x = [0, 1, 2, 0, 1]
        ct = conditional_type(x, x, 3, 3)
        assert ct.joint_counts.tolist() == [[2, 0, 0], [0, 2, 0], [0, 0, 1]]

    def test_conditional_type_constant_x(self):
        y = [0, 1, 1, 0, 1]
        ct = conditional_type([0] * 5, y, 2, 2)
        assert ct.joint_counts[0].tolist() == \
            empirical_type(y, 2).counts.tolist()
        assert ct.joint_counts[1].tolist() == [0, 0]

    def test_conditional_type_matches_pair_count(self):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 4, 60)
        y = rng.integers(0, 4, 60)
        ct = conditional_type(x, y, 4, 4)
        # oracle: exhaustive pair count
        for a in range(4):
            for b in range(4):
                want = sum(1 for xi, yi in zip(x, y) if xi == a and yi == b)
                assert ct.joint_counts[a, b] == want

    def test_conditional_type_row_marginal_exact(self):
        rng = np.random.default_rng(6)
        x = rng.integers(0, 3, 50)
        y = rng.integers(0, 2, 50)
        ct = conditional_type(x, y, 3, 2)
        assert (ct.row_marginal().counts == empirical_type(x, 3).counts).all()

    def test_length_mismatch(self):
        from jsccdisp import LengthMismatch
        with pytest.raises(LengthMismatch):
            conditional_type([0, 1], [0], 2, 2)

    def test_conditional_type_marginal_invariant(self):
        with pytest.raises(DomainError):
            ConditionalType(np.array([[1, 0], [0, 1]]), 3)


class TestEnumerateTypes:
    def test_binary_n3(self):
        types = enumerate_n_types(2, 3)
        got = {tuple(t.counts) for t in types}
        assert got == {(0, 3), (1, 2), (2, 1), (3, 0)}

    def test_single_symbol(self):
        types = enumerate_n_types(1, 9)
        assert len(types) == 1 and types[0].counts.tolist() == [9]

    def test_ternary_matches_brute_force(self):
        types = enumerate_n_types(3, 4)
        # oracle: collect types of every length-4 ternary multiset
        brute = set()
        for comb in itertools.combinations_with_replacement(range(3), 4):
            counts = [comb.count(a) for a in range(3)]
            brute.add(tuple(counts))
        assert {tuple(t.counts) for t in types} == brute
        assert len(types) == 15

    def test_count_matches_binomial_exactly(self):
        for k, n in ((2, 10), (3, 7), (4, 5)):
            assert len(enumerate_n_types(k, n)) == math.comb(n + k - 1, k - 1)

    def test_colex_order_is_deterministic(self):
        a = [tuple(t.counts) for t in enumerate_n_types(3, 3)]
        b = [tuple(t.counts) for t in enumerate_n_types(3, 3)]
        assert a == b
        assert a[0] == (3, 0, 0)
        assert a == sorted(a, key=lambda c: tuple(reversed(c)))

    def test_cap(self):
        with pytest.raises(EnumerationTooLarge):
            enumerate_n_types(6, 200, cap=1000)

    def test_all_types_valid(self):
        for t in enumerate_n_types(3, 5):
            assert int(t.counts.sum()) == 5
            t.distribution()  # must not raise


class TestCompositions:
    @staticmethod
    def oracle(n, upper):
        # product over the coordinates, last one outermost: colex order
        return [x[::-1] for x in itertools.product(
            *(range(u + 1) for u in reversed(upper))) if sum(x) == n]

    @pytest.mark.parametrize("upper", [
        [3], [8], [0, 4], [2, 2], [4, 0, 3], [1, 1, 1, 1], [3, 2, 5, 1],
        [0, 0, 2], [8, 8, 8], [2, 0, 1, 3, 2],
    ])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8])
    def test_matches_filtered_product(self, n, upper):
        got = _compositions(n, upper)
        assert got.dtype == np.int64 and got.shape[1] == len(upper)
        assert [tuple(x) for x in got.tolist()] == self.oracle(n, upper)

    def test_out_of_reach_is_empty(self):
        assert _compositions(7, [2, 3, 1]).shape == (0, 3)
        assert _compositions(4, [3]).shape == (0, 1)


class TestNearestType:
    def test_within_one_over_n(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            p = Distribution(rng.dirichlet(np.ones(4)))
            for n in (7, 50, 333):
                t = nearest_type(p, n)
                assert int(t.counts.sum()) == n
                assert np.max(np.abs(t.counts / n - p.probs)) <= 1.0 / n + 1e-12

    def test_exact_when_representable(self):
        t = nearest_type(Distribution(np.array([0.5, 0.5])), 10)
        assert t.counts.tolist() == [5, 5]


class TestEmpiricalTypeInvariants:
    def test_counts_must_sum_to_n(self):
        with pytest.raises(DomainError):
            EmpiricalType(np.array([2, 1]), 4)

    def test_distribution_roundtrip(self):
        t = EmpiricalType(np.array([2, 3, 5]), 10)
        assert t.distribution().probs.tolist() == [0.2, 0.3, 0.5]


class TestRefusals:
    # the smallest input each refusal takes, and the part of its message
    # that tells it apart from the other refusals of its function
    @pytest.mark.parametrize("call,message", [
        (lambda: Distribution(np.array([])), "nonempty 1-D"),
        (lambda: Distribution(np.array([math.nan, 1.0])), "must be finite"),
        (lambda: Channel(np.array([0.5, 0.5])), "nonempty 2-D"),
        (lambda: Channel(np.array([[math.inf, 0.0]])), "must be finite"),
        (lambda: Channel(np.array([[1.5, -0.5]])), "must be nonnegative"),
        (lambda: EmpiricalType(np.array([], dtype=np.int64), 0),
         "nonempty 1-D"),
        (lambda: EmpiricalType(np.array([-1, 2]), 1), "must be nonnegative"),
        (lambda: EmpiricalType(np.array([0, 0]), 0), "n must be positive"),
        (lambda: ConditionalType(np.array([1, 1]), 2), "nonempty 2-D"),
        (lambda: ConditionalType(np.array([[-1, 2]]), 1),
         "must be nonnegative"),
        (lambda: ConditionalType(np.array([[0, 0]]), 0),
         "n must be positive"),
        (lambda: kl_divergence(Distribution(np.array([1.0])),
                               Distribution(np.array([0.5, 0.5]))),
         "share an alphabet"),
        (lambda: q_function(math.nan), "finite x"),
        (lambda: empirical_type([], 2), "sequence must be a nonempty"),
        (lambda: empirical_type([0], 0), "alphabet_size must be positive"),
        (lambda: enumerate_n_types(0, 1), "alphabet_size and n"),
        (lambda: nearest_type(Distribution(np.array([1.0])), 0),
         "n must be positive"),
    ], ids=["distribution-empty", "distribution-nan", "channel-1d",
            "channel-inf", "channel-negative", "type-empty", "type-negative",
            "type-n", "conditional-1d", "conditional-negative",
            "conditional-n", "kl-alphabets", "q-function-nan",
            "empirical-empty", "empirical-alphabet", "enumerate-alphabet",
            "nearest-n"])
    def test_refuses(self, call, message):
        with pytest.raises(DomainError, match=message):
            call()
