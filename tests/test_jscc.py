import math

import numpy as np
import pytest

from jsccdisp import (
    BoundaryDistortion,
    Channel,
    Distribution,
    DomainError,
    JsccProblem,
    DEFAULT_LAMBDA_CURVES,
    NonConvergence,
    RateOutOfRange,
    SourceSpec,
    UndefinedAtHalf,
    UselessChannel,
    capacity,
    combine_error_probs,
    dispersion_report,
    distortion_rate,
    distortion_threshold,
    distortion_thresholds,
    jscc_dispersion,
    log_prob_variance,
    lossless_rho,
    opta,
    q_function,
    q_inverse,
    rdf,
    separation_curve,
    separation_equivalent_eps,
    separation_split,
    separation_vsep,
)
import jsccdisp.jscc as jscc
from jsccdisp.probcore import ndtri
from jsccdisp.source import _tilted
from conftest import HAMMING, bernoulli, bsc, hamming_source

LN2 = math.log(2.0)
QINV_01 = 1.2815515655446004
# docs/examples/ternary_asymmetric.json
TERNARY_PROBLEM = JsccProblem(
    SourceSpec(Distribution(np.array([0.5, 0.3, 0.2])),
               np.ones((3, 3)) - np.eye(3)),
    Channel(np.array([[0.95, 0.05], [0.2, 0.8]])),
    2.0, 0.1)


def h_nats(q):
    if q <= 0 or q >= 1:
        return 0.0
    return -q * math.log(q) - (1 - q) * math.log(1 - q)


def bisect_h(target: float) -> float:
    # oracle: solve h(D) = target for D in (0, 1/2) by bisection
    lo, hi = 1e-15, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h_nats(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisection_split(eps, a, b):
    """The best split by bisection on the sign of g(t) over [0, 1] until no
    bracket can shrink: ``jscc._best_split`` before its Newton step."""
    eps, a, b = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (eps, a, b)))
    log_keep = np.log1p(-eps)
    log_ratio = np.log(a / b)
    lo, hi = np.zeros(eps.shape), np.ones(eps.shape)
    while True:
        t = 0.5 * (lo + hi)
        e_s, e_c = -np.expm1(t * log_keep), -np.expm1((1.0 - t) * log_keep)
        x, y = -ndtri((e_s, e_c))
        if not np.any((lo < t) & (t < hi)):
            return e_s, e_c, a * x + b * y
        right = (log_ratio + 0.5 * (x * x - y * y)
                 + (2.0 * t - 1.0) * log_keep) > 0
        lo = np.where(right, t, lo)
        hi = np.where(right, hi, t)


def fig3_grid():
    """(eps, lambda) of ``separation --paper-fig3``, as flat arrays."""
    lam, eps = np.meshgrid(jscc.DEFAULT_LAMBDA_CURVES,
                           np.geomspace(1e-4, 0.5, 200), indexing="ij")
    return eps.ravel(), lam.ravel()


@pytest.fixture
def fair_problem(fair_hamming, bsc011):
    return JsccProblem(fair_hamming, bsc011, 1.0, 0.1)


class TestOpta:
    def test_fair_bsc011(self, fair_problem):
        # oracle: 1 - h(D*) = 1 - h(0.11) so D* = 0.11 exactly
        assert opta(fair_problem) == pytest.approx(0.11, abs=1e-6)

    def test_useless_channel(self, fair_hamming):
        pb = JsccProblem(fair_hamming, bsc(0.5), 1.0, 0.1)
        assert opta(pb) == pytest.approx(0.5, abs=1e-6)

    def test_lossless_regime(self, fair_hamming):
        pb = JsccProblem(fair_hamming, bsc(0.11), 4.0, 0.1)
        assert opta(pb) == 0.0

    def test_rate_matches_target(self, fair_problem):
        d_star = opta(fair_problem, tol=1e-10)
        from jsccdisp import capacity
        target = fair_problem.rho * capacity(fair_problem.channel).capacity
        assert rdf(fair_problem.source, d_star, 1e-11).rate == pytest.approx(
            target, abs=1e-9)


class TestJsccDispersion:
    def test_fair_bsc011_is_channel_only(self, fair_problem):
        v_lo, v_hi = jscc_dispersion(fair_problem)
        oracle = 0.11 * 0.89 * math.log(0.89 / 0.11) ** 2
        assert v_lo == pytest.approx(oracle, abs=1e-8)
        assert v_hi == pytest.approx(oracle, abs=1e-8)

    def test_identity_channel_is_source_only(self):
        # 4-symbol uniform source over a clean binary channel: D* interior
        src = SourceSpec(Distribution(np.ones(4) / 4),
                         np.ones((4, 4)) - np.eye(4))
        pb = JsccProblem(src, Channel(np.eye(2)), 1.0, 0.1)
        from jsccdisp import source_dispersion
        d_star = opta(pb)
        v_lo, v_hi = jscc_dispersion(pb)
        v_s = source_dispersion(src, d_star)
        assert v_lo == pytest.approx(v_s, abs=1e-9)
        assert v_hi == pytest.approx(v_s, abs=1e-9)

    def test_linear_in_rho_when_vs_zero(self, fair_hamming, bsc011):
        v_half = jscc_dispersion(JsccProblem(fair_hamming, bsc011, 0.5, 0.1))
        v_one = jscc_dispersion(JsccProblem(fair_hamming, bsc011, 1.0, 0.1))
        assert v_one[0] == pytest.approx(2 * v_half[0], abs=1e-8)

    def test_boundary_raises(self, fair_hamming, bsc011):
        pb = JsccProblem(fair_hamming, bsc011, 4.0, 0.1)  # lossless regime
        with pytest.raises(BoundaryDistortion):
            jscc_dispersion(pb)

    def test_v_s_at_d_star_is_read_off_the_d_star_search(self):
        # a 2 x 4 source over BSC(0.0388) at rho = 1.0027, D* = 0.0014: a
        # distortion-targeted search at D* to 1e-11 may stop at a slope
        # that moves V_S by 1.1e-10 relative here; the reference solves at
        # tol 1e-15
        src = SourceSpec(
            Distribution(np.array([0.23407759075354564, 0.7659224092464544])),
            np.array([[1.8479615242277836, 0.0, 2.045498720952119,
                       0.8005973153383519],
                      [2.863055678694003, 0.5679323940839713, 0.0,
                       1.981803234093671]]))
        pb = JsccProblem(src, bsc(0.03882227019921258), 1.002737171152922,
                         0.1)
        rate = pb.rho * capacity(pb.channel).capacity
        v_s = _tilted(src, distortion_rate(src, rate, 1e-15), tol=1e-15)[2]
        assert v_s == pytest.approx(0.24748962749159162, rel=1e-13)
        assert dispersion_report(pb).v_s_at_d_star == pytest.approx(
            v_s, rel=1e-12)

    def test_report_solves_capacity_once(self, monkeypatch):
        # C comes from the capacity solve inside vmin_vmax
        import jsccdisp.channel as ch

        real = ch.capacity
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(ch, "capacity", counting)
        rep = dispersion_report(TERNARY_PROBLEM)
        assert len(calls) == 1
        assert rep.capacity == real(TERNARY_PROBLEM.channel).capacity

    def test_report_consistency(self, fair_problem):
        rep = dispersion_report(fair_problem)
        assert rep.r_at_d_star == pytest.approx(
            fair_problem.rho * rep.capacity, abs=1e-12)
        assert rep.v_j_low == pytest.approx(
            rep.v_s_at_d_star + fair_problem.rho * rep.v_min, abs=1e-15)
        assert rep.v_j_low <= rep.v_j_high
        assert "omitted" in rep.correction_note


class TestDistortionThreshold:
    def test_eps_half_equals_opta_exactly(self, fair_hamming, bsc011):
        pb = JsccProblem(fair_hamming, bsc011, 1.0, 0.5)
        pt = distortion_threshold(pb, 1234)
        assert pt.d_with_vlow == opta(pb)

    def test_chained_oracle_n1000(self, fair_problem):
        pt = distortion_threshold(fair_problem, 1000, tol=1e-12)
        v_j = 0.11 * 0.89 * math.log(0.89 / 0.11) ** 2
        target = (LN2 - h_nats(0.11)) - math.sqrt(v_j / 1000) * QINV_01
        d_oracle = bisect_h(LN2 - target)
        assert d_oracle == pytest.approx(0.1230847597852, abs=1e-10)
        assert pt.d_with_vlow == pytest.approx(d_oracle, abs=1e-6)

    @pytest.mark.parametrize("example", ["bsc011_fair", "ternary"])
    def test_round_trip_n1000(self, example, fair_problem):
        # the achieved rate meets the target rate D_n was solved for
        pb = fair_problem if example == "bsc011_fair" else TERNARY_PROBLEM
        pt = distortion_threshold(pb, 1000, tol=1e-12)
        rate = rdf(pb.source, pt.d_with_vlow, 1e-12).rate
        assert rate == pytest.approx(pt.target_rate_with_vlow, abs=1e-10)

    def test_single_v_j_solves_once(self, monkeypatch):
        # the whole table is one batched slope search, and a singleton
        # capacity set gives V_J one value, so each D_n is one row of it
        import jsccdisp.source as sa

        rep = dispersion_report(TERNARY_PROBLEM)
        assert rep.v_j_low == rep.v_j_high
        real = sa._slope_search
        calls = []

        def counting(p, dmat, target, *args, **kwargs):
            calls.append(np.array(target))
            return real(p, dmat, target, *args, **kwargs)

        monkeypatch.setattr(sa, "_slope_search", counting)
        pts = distortion_thresholds(TERNARY_PROBLEM, [100, 1000, 10000],
                                    report=rep)
        assert len(calls) == 1
        assert calls[0].tolist() == [pt.target_rate_with_vlow for pt in pts]
        for pt in pts:
            expected = distortion_rate(TERNARY_PROBLEM.source,
                                       pt.target_rate_with_vhigh, 1e-9)
            assert pt.d_with_vlow == pt.d_with_vhigh == expected

    def test_table_reads_an_iterator_once(self, fair_problem):
        ns = [1000, 30, 1000]
        assert (distortion_thresholds(fair_problem, iter(ns))
                == distortion_thresholds(fair_problem, ns)
                == [distortion_threshold(fair_problem, n) for n in ns])
        with pytest.raises(DomainError):
            distortion_thresholds(fair_problem, (n for n in (100, 0)))

    def test_failed_search_names_its_law(self, fair_problem, monkeypatch):
        # the report is built with the full round budget; the table's
        # search then stops after one round
        import jsccdisp.source as sa

        rep = dispersion_report(fair_problem)
        monkeypatch.setattr(sa, "_MAX_SLOPE_ITER", 1)
        with pytest.raises(NonConvergence,
                           match=r"P = \[0\.5, 0\.5\].*after 1 rounds"):
            distortion_thresholds(fair_problem, [100, 1000], report=rep)

    def test_exceeds_opta_at_small_eps(self, fair_problem):
        pt = distortion_threshold(fair_problem, 500)
        assert pt.d_with_vlow > opta(fair_problem)

    def test_quadrupling_n_halves_gap(self, fair_problem):
        d_star_rate = fair_problem.rho * (LN2 - h_nats(0.11))
        g1 = d_star_rate - distortion_threshold(fair_problem, 1000).target_rate_with_vlow
        g4 = d_star_rate - distortion_threshold(fair_problem, 4000).target_rate_with_vlow
        assert g1 == pytest.approx(2 * g4, rel=1e-6)

    def test_monotone_and_convergent(self, fair_problem):
        ns = [100, 1000, 10000, 100000]
        pts = [distortion_threshold(fair_problem, n) for n in ns]
        ds = [p.d_with_vlow for p in pts]
        assert all(a >= b for a, b in zip(ds, ds[1:]))
        v_hi = jscc_dispersion(fair_problem)[1]
        rho_c = fair_problem.rho * (LN2 - h_nats(0.11))
        for n, pt in zip(ns, pts):
            gap = abs(rdf(fair_problem.source, pt.d_with_vlow, 1e-11).rate - rho_c)
            assert gap <= math.sqrt(v_hi / n) * abs(q_inverse(0.1)) + 1e-9

    def test_rate_out_of_range(self, fair_hamming, bsc011):
        pb = JsccProblem(fair_hamming, bsc011, 1.0, 0.9)
        with pytest.raises(RateOutOfRange):
            distortion_threshold(pb, 1)


class TestLosslessRho:
    def test_eps_half_is_ratio(self, bsc011):
        src = hamming_source(0.11)
        pt = lossless_rho(src, bsc011, 999, 0.5)
        h = h_nats(0.11)
        c = LN2 - h_nats(0.11)
        assert pt.rho_with_vlow == pytest.approx(h / c, abs=1e-12)

    def test_deterministic_source(self, bsc011):
        src = SourceSpec(Distribution(np.array([1.0, 0.0])), HAMMING)
        pt = lossless_rho(src, bsc011, 100, 0.1)
        assert pt.rho_with_vlow == pytest.approx(0.0, abs=1e-12)

    def test_chained_oracle(self, bsc011):
        src = hamming_source(0.11)
        pt = lossless_rho(src, bsc011, 10_000, 0.1)
        h, c = h_nats(0.11), LN2 - h_nats(0.11)
        var_log = 0.11 * 0.89 * math.log(0.89 / 0.11) ** 2
        v_j = var_log + (h / c) * var_log
        oracle = h / c + math.sqrt(v_j / 10_000) * QINV_01 / c
        assert pt.rho_with_vlow == pytest.approx(oracle, abs=1e-9)
        assert pt.v_source == pytest.approx(var_log, abs=1e-12)

    def test_useless_channel(self):
        src = hamming_source(0.11)
        with pytest.raises(UselessChannel):
            lossless_rho(src, bsc(0.5), 100, 0.1)

    def test_log_prob_variance_direct(self):
        p = bernoulli(0.3)
        logs = np.log(p.probs)
        oracle = float(np.dot(p.probs, logs ** 2) - np.dot(p.probs, logs) ** 2)
        assert log_prob_variance(p) == pytest.approx(oracle, abs=1e-15)


class TestCombineErrorProbs:
    def test_identity_element(self):
        assert combine_error_probs(0.0, 0.37) == 0.37

    def test_absorbing_element(self):
        assert combine_error_probs(1.0, 0.37) == 1.0

    def test_direct_value(self):
        assert combine_error_probs(0.1, 0.1) == pytest.approx(0.19, abs=1e-15)

    def test_commutative_associative_monotone(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            a, b, c = rng.random(3)
            ab = combine_error_probs(a, b)
            assert ab == pytest.approx(combine_error_probs(b, a), abs=1e-15)
            left = combine_error_probs(ab, c)
            right = combine_error_probs(a, combine_error_probs(b, c))
            assert left == pytest.approx(right, abs=1e-12)
            assert combine_error_probs(min(a + 0.1, 1.0), b) >= ab - 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            combine_error_probs(-0.1, 0.5)


class TestSeparation:
    def test_symmetric_closed_form(self):
        # symmetric case has the closed form eps_s = eps_c = 1 - sqrt(1 - eps)
        eps = 0.1
        split = 1 - math.sqrt(1 - eps)
        oracle = q_function(math.sqrt(2) * q_inverse(split))
        got = separation_equivalent_eps(eps, 1.0)
        assert got == pytest.approx(oracle, abs=1e-9)
        e_s, e_c, _ = separation_split(eps, 1.0)
        assert e_s == pytest.approx(split, abs=1e-7)
        assert e_c == pytest.approx(split, abs=1e-7)

    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.4])
    def test_symmetric_split_is_exact(self, eps):
        split = 1 - math.sqrt(1 - eps)
        e_s, e_c, _ = separation_split(eps, 1.0)
        assert abs(e_s - split) <= 1e-12
        assert abs(e_c - split) <= 1e-12

    def test_split_no_worse_than_dense_grid(self):
        # the objective at the returned split against an independent scan of
        # e_s over (0, eps), dense toward both ends
        from scipy.special import ndtri

        rng = np.random.default_rng(4)
        u = np.geomspace(1e-14, 0.5, 20001)
        u = np.concatenate([u, 1.0 - u])
        for _ in range(40):
            eps = float(np.exp(rng.uniform(math.log(1e-6), math.log(0.5))))
            lam = float(np.exp(rng.uniform(math.log(1e-3), math.log(1e3))))
            e_s, e_c, _ = separation_split(eps, lam)
            assert (1 - e_s) * (1 - e_c) == pytest.approx(1 - eps, rel=1e-15)
            got = q_inverse(e_s) + math.sqrt(lam) * q_inverse(e_c)
            grid = eps * u
            scan = -ndtri(grid) - math.sqrt(lam) * ndtri((eps - grid) / (1 - grid))
            assert got <= scan.min() + 1e-12

    def test_vsep_one_sided_exact(self):
        # with no dispersion on one side all of eps goes to the other side
        assert separation_vsep(0.1, 0.0, 2.0) == 2.0
        assert separation_vsep(0.3, 3.0, 0.0) == 3.0

    def test_never_exceeds_eps(self):
        for eps in (0.01, 0.1, 0.3):
            for lam in (0.001, 0.1, 1.0, 7.0, 1000.0):
                assert separation_equivalent_eps(eps, lam) <= eps + 1e-12

    def test_lambda_inversion_symmetry(self):
        for eps in (0.01, 0.1, 0.3):
            for lam in (0.002, 0.4, 3.0, 250.0):
                a = separation_equivalent_eps(eps, lam)
                b = separation_equivalent_eps(eps, 1.0 / lam)
                assert a == pytest.approx(b, abs=1e-9)

    def test_lambda_inversion_symmetry_at_extremes(self):
        # a t that rounded to 1 made e_c = 0 and eps_tilde = 0 for every
        # lambda <= 1e-40, while 1/lambda gave eps. The rows of one curve
        # equal the scalar calls bit for bit
        lams = [1e-300, 1e-100, 1e-40, 1e-8, 1.0, 10.0]
        eps_grid = [1e-12, 0.1, 0.5, 1.0 - 1e-9]
        rows = separation_curve(eps_grid, lams + [1.0 / v for v in lams])
        tilde = np.array([r[2] for r in rows]).reshape(2, len(lams), 4)
        np.testing.assert_allclose(tilde[0], tilde[1], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(tilde[:, 0], [eps_grid] * 2, rtol=1e-12,
                                   atol=0.0)
        assert separation_equivalent_eps(0.1, 1e-300) == tilde[0, 0, 1]
        assert separation_equivalent_eps(0.1, 1e300) == tilde[1, 0, 1]

    def test_split_matches_bisection(self):
        # against bisection on the Fig. 3 grid and 2,000 random points. The
        # reference runs with a <= b (t <= 1/2): near t = 1 its e_c keeps
        # only 2^-53 / (1 - t) relative resolution. The minimum is compared
        # with the scale a|x| + b|y| of its two terms, |minimum| itself
        # when x, y >= 0 (every Fig. 3 point): for eps near 1 the two
        # terms cancel
        rng = np.random.default_rng(19)
        eps, lam = fig3_grid()
        fig3 = slice(0, eps.size)
        a = np.ones(eps.size + 2000)
        b = np.concatenate([np.sqrt(lam), np.exp(
            rng.uniform(math.log(1e-4), math.log(1e4), 2000))])
        eps = np.concatenate([
            eps, rng.uniform(1e-12, 0.999, 1000),
            np.exp(rng.uniform(math.log(1e-12), math.log(0.999), 1000))])
        e_s, e_c, best = jscc._best_split(eps, a, b)
        swap = a > b
        r_small, r_large, r_best = bisection_split(
            eps, np.minimum(a, b), np.maximum(a, b))
        np.testing.assert_allclose(e_s, np.where(swap, r_large, r_small),
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(e_c, np.where(swap, r_small, r_large),
                                   rtol=1e-12, atol=0.0)
        scale = a * np.abs(ndtri(e_s)) + b * np.abs(ndtri(e_c))
        assert np.all(np.abs(best - r_best) <= 1e-13 * scale)
        assert np.all(np.abs(best - r_best)[fig3]
                      <= 1e-13 * np.abs(r_best[fig3]))
        # the bisection with a and b unordered agrees on the minimum as well
        unordered = bisection_split(eps, a, b)[2]
        assert np.all(np.abs(best - unordered) <= 1e-13 * scale)

    @staticmethod
    def count_rounds(monkeypatch) -> list:
        """Wrap ``jscc.ndtri``, called once per round of the split."""
        rounds = []
        real = jscc.ndtri

        def counting(p):
            rounds.append(1)
            return real(p)

        monkeypatch.setattr(jscc, "ndtri", counting)
        return rounds

    def test_fig3_split_rounds(self, monkeypatch):
        # bisection took about 60 rounds (one ndtri call each) on this grid,
        # Newton steps in t 15, Newton steps in log t 6
        rounds = self.count_rounds(monkeypatch)
        eps, lam = fig3_grid()
        jscc._best_split(eps, 1.0, np.sqrt(lam))
        assert len(rounds) <= 8

    @pytest.mark.parametrize("lam", [1e-300, 1e-40, 1e300])
    def test_extreme_lambda_split_rounds(self, monkeypatch, lam):
        # the root t* shrinks like sqrt(lambda) and halving t down to it
        # took 505 rounds at lambda = 1e-300
        rounds = self.count_rounds(monkeypatch)
        e_s, e_c, tilde = separation_split(0.1, lam)
        assert len(rounds) <= 8
        assert tilde == pytest.approx(0.1, rel=1e-15)
        assert min(e_s, e_c) == pytest.approx(
            q_function(math.sqrt(q_inverse(0.1) ** 2 - math.log(lam) * (
                1.0 if lam < 1 else -1.0))), rel=0.05)

    def test_near_one_split_rounds(self, monkeypatch):
        # the quantile of a share e near 1 came from 1 - e, which keeps only
        # a few digits; the noise that put into g kept eps = 1 - 3.7e-10 at
        # lambda = 57.4 hopping inside its bracket for 981 rounds
        rng = np.random.default_rng(0)
        eps = 1.0 - 10.0 ** rng.uniform(-15, math.log10(0.5), 5000)
        lam = 10.0 ** rng.uniform(-30, 30, 5000)
        rounds = self.count_rounds(monkeypatch)
        best = jscc._best_split(eps, 1.0, np.sqrt(lam))[2]
        assert len(rounds) <= 8  # the points run as one batch
        assert np.all(np.isfinite(best))
        rounds.clear()
        separation_split(1.0 - 3.7e-10, 57.4)
        assert len(rounds) <= 8

    def test_split_round_cap(self, monkeypatch):
        monkeypatch.setattr(jscc, "_MAX_SPLIT_ROUNDS", 1)
        with pytest.raises(NonConvergence,
                           match=r"eps = 0\.1 at lambda = 2: .* 1 rounds"):
            jscc._best_split(np.array([0.1, 0.2]), 1.0, math.sqrt(2.0))

    def test_underflowing_side_keeps_eps_tilde(self):
        # the channel side's share, about 1e-452, is below the smallest
        # double; it used to make that side's quantile infinite and
        # eps_tilde 0.0, where it is Q(Qinv(eps)) to within 1e-154
        e_s, e_c, tilde = separation_split(1e-300, 1e-308)
        assert (e_s, e_c) == (1e-300, 0.0)
        assert tilde == pytest.approx(1e-300, rel=1e-12)
        # at the smallest double every share rounds to 0 or to eps itself;
        # a true eps_tilde of about 1e-645 rounds to 0
        assert separation_split(5e-324, 1e-308)[2] == 5e-324
        assert separation_split(5e-324, 1.0) == (0.0, 0.0, 0.0)

    def test_extreme_lambda_limits(self):
        # the loss vanishes as lambda -> 0 or infinity
        assert separation_equivalent_eps(0.1, 1e6) >= 0.099
        assert abs(separation_equivalent_eps(0.1, 1e6) - 0.1) <= 1e-3
        assert abs(separation_equivalent_eps(0.1, 1e-6) - 0.1) <= 1e-3

    def test_vsep_channel_only(self):
        # with v_s = 0 the whole budget goes to the channel side
        eps = 0.1
        got = separation_vsep(eps, 0.0, 2.0)
        # oracle: one-dimensional scan over the boundary split
        grid = np.linspace(eps * 1e-9, eps * (1 - 1e-9), 40001)
        vals = [math.sqrt(2.0) * q_inverse((eps - e) / (1 - e)) for e in grid]
        best = min(vals)
        oracle = (best / q_inverse(eps)) ** 2
        assert got == pytest.approx(oracle, rel=1e-6)
        assert got >= 2.0 - 1e-9

    def test_vsep_cross_check_with_eps_tilde(self):
        # V_sep / V_J = (Qinv(eps_tilde) / Qinv(eps))^2 when v_s = rho v_c
        eps, v = 0.1, 0.7
        v_sep = separation_vsep(eps, v, v)
        eps_tilde = separation_equivalent_eps(eps, 1.0)
        ratio = (q_inverse(eps_tilde) / q_inverse(eps)) ** 2
        assert v_sep / (2 * v) == pytest.approx(ratio, rel=1e-8)

    def test_vsep_small_eps_limit(self):
        # sqrt(V_sep) -> sqrt(v_s) + sqrt(rho v_c); the approach is slow
        # (log-scale), so check the trend plus closeness at eps = 1e-12
        vals = [math.sqrt(separation_vsep(e, 1.0, 1.0))
                for e in (1e-3, 1e-6, 1e-9, 1e-12)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > 2.0 for v in vals)
        assert vals[-1] == pytest.approx(2.0, rel=0.02)

    def test_vsep_dominates_joint(self):
        # separation never beats joint at the dispersion level for eps < 1/2
        rng = np.random.default_rng(22)
        for _ in range(25):
            v_s = rng.uniform(0.05, 2.0)
            rho_v_c = rng.uniform(0.05, 2.0)
            eps = rng.uniform(0.01, 0.45)
            assert separation_vsep(eps, v_s, rho_v_c) >= v_s + rho_v_c - 1e-9

    def test_vsep_undefined_at_half(self):
        with pytest.raises(UndefinedAtHalf):
            separation_vsep(0.5, 1.0, 1.0)

    def test_vsep_domain(self):
        with pytest.raises(DomainError):
            separation_vsep(0.1, 0.0, 0.0)

    def test_eps_domain(self):
        with pytest.raises(DomainError):
            separation_equivalent_eps(0.0, 1.0)
        with pytest.raises(DomainError):
            separation_equivalent_eps(0.1, -1.0)


class TestSeparationCurve:
    def test_row_count(self):
        rows = separation_curve([0.05, 0.1, 0.2], [1.0, 10.0])
        assert len(rows) == 6

    def test_lambda_one_matches_closed_form(self):
        rows = separation_curve([0.01, 0.1, 0.4], [1.0])
        for eps, lam, tilde in rows:
            split = 1 - math.sqrt(1 - eps)
            oracle = q_function(math.sqrt(2) * q_inverse(split))
            assert tilde == pytest.approx(oracle, abs=1e-9)

    def test_nondecreasing_in_lambda(self):
        eps_grid = [0.01, 0.1, 0.3]
        rows = separation_curve(eps_grid, DEFAULT_LAMBDA_CURVES)
        by_eps = {}
        for eps, lam, tilde in rows:
            by_eps.setdefault(eps, []).append((lam, tilde))
        for eps, series in by_eps.items():
            series.sort()
            vals = [t for _, t in series]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rows_equal_scalar_bit_for_bit(self):
        eps_grid = np.geomspace(1e-4, 0.5, 25).tolist()
        rows = separation_curve(eps_grid, DEFAULT_LAMBDA_CURVES)
        assert len(rows) == 25 * len(DEFAULT_LAMBDA_CURVES)
        assert [r[1] for r in rows[::25]] == list(DEFAULT_LAMBDA_CURVES)
        for eps, lam, tilde in rows:
            assert type(eps) is type(lam) is type(tilde) is float
            assert tilde == separation_equivalent_eps(eps, lam)

    def test_out_of_domain_grid_rejected(self):
        for eps_grid, lambdas in (([0.1, 1.5], [1.0]), ([0.1, math.nan], [1.0]),
                                  ([0.1], [2.0, 0.0]), ([0.1], [math.inf])):
            with pytest.raises(DomainError):
                separation_curve(eps_grid, lambdas)

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            separation_curve([], [1.0])


class TestRefusals:
    @pytest.mark.parametrize("call,message", [
        (lambda: JsccProblem(TERNARY_PROBLEM.source, TERNARY_PROBLEM.channel,
                             0.0, 0.1), "rho must be positive"),
        (lambda: JsccProblem(TERNARY_PROBLEM.source, TERNARY_PROBLEM.channel,
                             2.0, 1.0), "eps must lie in"),
        (lambda: lossless_rho(TERNARY_PROBLEM.source, TERNARY_PROBLEM.channel,
                              0, 0.1), "n must be at least 1"),
        (lambda: lossless_rho(TERNARY_PROBLEM.source, TERNARY_PROBLEM.channel,
                              100, 0.0), "eps must lie in"),
        (lambda: separation_vsep(1.0, 0.1, 0.1), "eps must lie in"),
    ], ids=["problem-rho", "problem-eps", "lossless-n", "lossless-eps",
            "vsep-eps"])
    def test_refuses(self, call, message):
        with pytest.raises(DomainError, match=message):
            call()

    @pytest.mark.parametrize("v_s,rho_v_c", [(math.nan, 0.5), (0.5, math.nan)])
    def test_vsep_refuses_a_nan_dispersion(self, v_s, rho_v_c):
        with pytest.raises(DomainError, match="v_s and rho_v_c"):
            separation_vsep(0.1, v_s, rho_v_c)
