import json
import math
import pathlib

import numpy as np
import pytest

from jsccdisp import (
    BoundaryDistortion,
    Channel,
    Distribution,
    DomainError,
    JsccProblem,
    NonConvergence,
    SourceSpec,
    d_max,
    distortion_rate,
    entropy,
    opta,
    q_inverse,
    rdf,
    rdf_gradient,
    source_dispersion,
    source_rate_at,
)
import jsccdisp.channel as ch
import jsccdisp.probcore as pc
import jsccdisp.source as sa
from jsccdisp.cli import load_problem_file, main
from conftest import HAMMING, hamming_source

REPO = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = REPO / "docs" / "examples"
TERNARY = str(EXAMPLES / "ternary_asymmetric.json")
CHANNEL_6X3 = str(REPO / "perfbench" / "inputs" / "channel_6x3.json")

LN2 = math.log(2.0)
TERNARY_PROBS = np.array([0.5, 0.3, 0.2])
HAMMING3 = np.ones((3, 3)) - np.eye(3)  # the ternary example's distortion


def h_nats(q: float) -> float:
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * math.log(q) - (1 - q) * math.log(1 - q)


def bernoulli_hamming_rdf_oracle(p: float, d: float) -> float:
    # closed form h(p) - h(D) for D < min(p, 1-p)
    return h_nats(p) - h_nats(d)


class TestSourceSpec:
    def test_requires_zero_per_row(self):
        with pytest.raises(DomainError):
            SourceSpec(Distribution(np.array([0.5, 0.5])),
                       np.array([[0.0, 1.0], [1.0, 0.5]]))

    def test_requires_nonnegative(self):
        with pytest.raises(DomainError):
            SourceSpec(Distribution(np.array([0.5, 0.5])),
                       np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_shape_must_match(self):
        with pytest.raises(DomainError):
            SourceSpec(Distribution(np.array([0.5, 0.5])), np.zeros((3, 2)))


class TestDmax:
    def test_fair_hamming(self, fair_hamming):
        assert d_max(fair_hamming) == pytest.approx(0.5, abs=1e-15)

    def test_skewed_hamming(self):
        assert d_max(hamming_source(0.11)) == pytest.approx(0.11, abs=1e-15)

    def test_three_symbol_uniform(self):
        src = SourceSpec(Distribution(np.ones(3) / 3),
                         np.ones((3, 3)) - np.eye(3))
        # oracle: enumerate constant reproducers
        best = min(float(np.dot(np.ones(3) / 3, src.distortion[:, j]))
                   for j in range(3))
        assert best == pytest.approx(2 / 3, abs=1e-15)
        assert d_max(src) == pytest.approx(best, abs=1e-15)


class TestRdf:
    def test_zero_distortion_is_entropy(self, fair_hamming):
        res = rdf(fair_hamming, 0.0)
        assert res.rate == pytest.approx(LN2, abs=1e-11)

    def test_zero_distortion_entropy_unique_zeros(self):
        # any distortion matrix whose per-row zero is unique and distinct
        src = SourceSpec(Distribution(np.array([0.2, 0.3, 0.5])),
                         np.array([[0.0, 2.0, 1.0],
                                   [1.0, 0.0, 3.0],
                                   [2.0, 1.0, 0.0]]))
        assert rdf(src, 0.0).rate == pytest.approx(
            entropy(src.distribution), abs=1e-10)

    def test_fair_hamming_closed_form(self, fair_hamming):
        res = rdf(fair_hamming, 0.1)
        assert res.rate == pytest.approx(
            bernoulli_hamming_rdf_oracle(0.5, 0.1), abs=1e-10)
        assert res.rate / LN2 == pytest.approx(0.5310, abs=1e-4)
        assert res.achieved_distortion == pytest.approx(0.1, abs=1e-9)

    def test_skewed_hamming_closed_form(self):
        src = hamming_source(0.11)
        for d in (0.02, 0.05, 0.09):
            assert rdf(src, d).rate == pytest.approx(
                bernoulli_hamming_rdf_oracle(0.11, d), abs=1e-10)

    def test_beyond_dmax_is_zero(self, fair_hamming):
        for d in (0.5, 0.7, 2.0):
            res = rdf(fair_hamming, d)
            assert res.rate == 0.0
            assert res.lagrange_slope == 0.0

    def test_at_dmax_consistency(self):
        for p in (0.5, 0.11, 0.3):
            src = hamming_source(p)
            assert rdf(src, d_max(src)).rate <= 1e-10

    def test_nonincreasing_and_convex_in_d(self):
        src = hamming_source(0.3)
        ds = np.linspace(0.01, 0.28, 16)
        rates = [rdf(src, float(d)).rate for d in ds]
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
        for i in range(len(rates) - 2):
            assert rates[i] + rates[i + 2] - 2 * rates[i + 1] >= -1e-8

    def test_test_channel_rows_stochastic(self, fair_hamming):
        res = rdf(fair_hamming, 0.17)
        sums = res.test_channel.sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-9)
        assert res.lagrange_slope <= 0

    def test_warm_start_revives_dead_letter(self):
        # a warm start carried q*(0) = 0 into steeper slopes, where letter 0
        # is needed; R(0.05) came back as 0.6224, above R(0.045)
        p = np.array([0.0818, 0.6308, 0.2874])
        d = np.array([[0.0, 1.475, 0.585], [1.181, 0.0, 0.293],
                      [1.424, 0.863, 0.0]])
        src = SourceSpec(Distribution(p / p.sum()), d)
        rates = [rdf(src, dd, 1e-12).rate for dd in (0.045, 0.0466, 0.05)]
        assert rates[0] >= rates[1] >= rates[2]
        assert distortion_rate(src, rates[1], 1e-12) == pytest.approx(0.0466, abs=1e-8)

    def test_denormal_test_channel_column(self):
        # a Blahut test channel here holds a column of mass about 5e-324:
        # the MI kernel returned +inf and D(P, 0.297101) came back as 0
        p = (0.6502521130101436, 0.03324047668541826, 0.31650741030443813)
        d = np.array([[0.0, 0.1756831022851436, 1.5752762308615476],
                      [2.8521232446353104, 0.0, 0.04965918310435646],
                      [0.9208449873225897, 0.5840085075607915, 0.0]])
        src = SourceSpec(Distribution(np.array(p)), d)
        rate = rdf(src, 0.1226).rate
        assert rate == pytest.approx(0.297101, abs=1e-6)
        assert distortion_rate(src, 0.297101) == pytest.approx(0.1226, abs=1e-6)
        assert distortion_rate(src, rate) == pytest.approx(0.1226, abs=1e-8)

    @pytest.mark.parametrize("d", [0.05, 0.1, 0.2, 0.3])
    def test_small_reproduction_mass(self, d):
        # q* at slope -1 is (0.780, 0.2198, 1.6e-4): near a zero letter
        # first-order updates converge sublinearly (Blahut's met no bracket
        # of 1e-13 within 100,000 steps at any of these D)
        p = np.array([248.0, 146.0, 106.0]) / 500.0
        src = SourceSpec(Distribution(p), np.ones((3, 3)) - np.eye(3))
        res = rdf(src, d)
        # Hamming: R = H(P) - h(D) - D log 2 for D <= 2 min P
        h = -d * math.log(d) - (1 - d) * math.log(1 - d)
        assert res.rate == pytest.approx(
            entropy(src.distribution) - h - d * LN2, abs=1e-10)
        assert distortion_rate(src, res.rate) == pytest.approx(d, abs=1e-8)

    @pytest.mark.parametrize("d", [0.0, 0.1])
    def test_non_finite_rate_raises(self, fair_hamming, monkeypatch, d):
        monkeypatch.setattr(sa, "_joint_mutual_information", lambda j: np.inf)
        with pytest.raises(NonConvergence, match="rate-distortion solve at slope"):
            rdf(fair_hamming, d)

    def test_sources_with_zero_mass_symbols(self):
        src = SourceSpec(Distribution(np.array([0.0, 1.0])), HAMMING)
        assert rdf(src, 0.05).rate == 0.0

    def test_negative_distortion_rejected(self, fair_hamming):
        with pytest.raises(DomainError):
            rdf(fair_hamming, -0.1)

    def test_nan_targets_rejected(self, fair_hamming):
        # a NaN target would otherwise stop the slope search on its first
        # round and come back as a NaN rate or distortion
        with pytest.raises(DomainError):
            rdf(fair_hamming, math.nan)
        with pytest.raises(DomainError):
            distortion_rate(fair_hamming, math.nan)

    def test_infinite_distortion_is_d_max_endpoint(self, fair_hamming):
        assert rdf(fair_hamming, math.inf).rate == 0.0


# A 3x5 source on which a secant slope search stalls: it took 303 slope
# rounds and stopped at its round cap with R off by 1.75e-6 at tol 1e-9.
STALLED_P = (0.0630908797936194, 0.8731816930372814, 0.0637274271690992)
STALLED_D = (
    (0.39363510617676256, 1.3003655126356062, 1.9730087580298847,
     0.5563586449401124, 0),
    (0.20727684779412303, 1.4165971471897532, 1.8936498731925784,
     2.737071359881961, 0),
    (0.19312233015617686, 0, 2.637380658566126, 1.313583084483086,
     2.402321166590463),
)


class TestSlopeSearch:
    @staticmethod
    def count_solves(monkeypatch) -> list:
        calls = []
        real = sa._fixed_slope

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(sa, "_fixed_slope", counting)
        return calls

    @staticmethod
    def count_newton_rounds(monkeypatch) -> list:
        """Wrap the Newton kernel of the source and channel solvers; each
        call appends its rounds, the largest step count of its rows."""
        rounds = []
        for module in (sa, ch):
            real = module._simplex_newton

            def counting(*args, _real=real, **kwargs):
                x, gap, steps = _real(*args, **kwargs)
                rounds.append(int(steps.max()))
                return x, gap, steps

            monkeypatch.setattr(module, "_simplex_newton", counting)
        return rounds

    def test_stalled_source_converges(self, monkeypatch):
        src = SourceSpec(Distribution(np.array(STALLED_P)),
                         np.array(STALLED_D))
        d = 0.01 * d_max(src)
        calls = self.count_solves(monkeypatch)
        res = rdf(src, d)
        assert len(calls) <= 60
        # independent value: scipy SLSQP minimising I(P, W) over the 3x5
        # test channels W with E[d] <= D (ftol 1e-15, best of 30 starts)
        assert res.rate == pytest.approx(0.2311030514525, abs=1e-9)
        assert abs(res.achieved_distortion - d) <= sa.DEFAULT_RDF_TOL
        calls.clear()
        assert distortion_rate(src, res.rate) == pytest.approx(d, abs=1e-9)
        assert len(calls) <= 60

    def test_round_cap_raises(self, fair_hamming, monkeypatch):
        monkeypatch.setattr(sa, "_MAX_SLOPE_ITER", 3)
        with pytest.raises(NonConvergence,
                           match=r"P = \[0\.5, 0\.5\].*after 3 rounds"):
            rdf(fair_hamming, 0.1)
        with pytest.raises(NonConvergence, match="after 3 rounds"):
            distortion_rate(fair_hamming, 0.3)
        # the second law sits at its d_max = 0 and needs no search
        rates = sa._rdf_rates(np.array([[0.5, 0.5], [1.0, 0.0]]), HAMMING,
                              0.1, sa.DEFAULT_RDF_TOL)
        assert math.isnan(rates[0]) and rates[1] == 0.0

    def test_failed_rate_search_names_its_law(self, fair_hamming,
                                              monkeypatch):
        # each D(P, R) search raises its failed row through _Solves.result
        monkeypatch.setattr(sa, "_MAX_SLOPE_ITER", 1)
        for solve in (distortion_rate, sa._tilted_at_rate):
            with pytest.raises(NonConvergence,
                               match=r"P = \[0\.5, 0\.5\].*after 1 rounds"):
                solve(fair_hamming, 0.3)

    def test_solve_counts(self, monkeypatch, capsys):
        # solve counts repeat exactly where times do not. Illinois regula
        # falsi from s = -1 took 57 solves over the four analytic benchmark
        # invocations (only jscc and source solve) and 10 for one rdf. The
        # Newton search with V_S at D* read off the D* search took 29 with
        # one search per D_n; the table of D_n as one batched search makes
        # 13 for jscc and 5 for source
        calls = self.count_solves(monkeypatch)
        for argv in (["jscc", TERNARY, "--n-list", "100,1000,10000"],
                     ["source", TERNARY, "-D", "0.1"],
                     ["channel", CHANNEL_6X3, "--n-list", "100,1000,10000"],
                     ["separation", "--paper-fig3"]):
            assert main(argv) == 0
        capsys.readouterr()
        assert len(calls) <= 18
        calls.clear()
        rdf(load_problem_file(TERNARY)["source"], 0.1)
        assert len(calls) <= 5

    def test_excess_types_solved_in_few_rounds(self, monkeypatch, capsys):
        # the batch of source types starts at the slope of P itself; from
        # s = -1 the run (20,000 trials, n = 500, seed 7) solved 22,739 rows.
        # Its 19 Newton batches took 203 rounds before the long step and 126
        # before letters heading to 0 left the support
        rows = self.count_solves(monkeypatch)
        rounds = self.count_newton_rounds(monkeypatch)
        assert main(["simulate", TERNARY, "--what", "excess"]) == 0
        (result,) = json.loads(capsys.readouterr().out)["results"]
        # 0.08485 from numpy's binomial channel rows, within 4 sqrt(2)
        # standard errors (0.011) of this inverse-CDF stream
        assert result["estimate"] == 0.0853
        assert result["diagnostics"]["boundary_trials"] == 0
        assert sum(rows) <= 2290
        assert sum(rounds) <= 100

    def test_newton_round_counts(self, monkeypatch, capsys):
        # with the barrier weight falling to gap / (10 k) at most, these
        # took 142 and 54 rounds; the long step at gap^2 took 86 and 34, of
        # which each solve with a letter heading to 0 took 14; the active
        # set takes 66 and 24
        rounds = self.count_newton_rounds(monkeypatch)
        assert main(["jscc", TERNARY, "--n-list", "100,1000,10000"]) == 0
        capsys.readouterr()
        assert sum(rounds) <= 66
        rounds.clear()
        rdf(load_problem_file(TERNARY)["source"], 0.1)
        assert sum(rounds) <= 26

    def test_boundary_letter_leaves_the_support(self, monkeypatch):
        # the first solve of rdf(ternary, 0.1), at s = -1: the third letter
        # heads to 0. Its long steps stop at the boundary until it is below
        # the floor, then it leaves the support and ends at exactly 0; no
        # round solves a second Newton system (the long step was refused on
        # 12 of 14 rounds before)
        calls = []
        real = pc._newton_direction

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(pc, "_newton_direction", counting)
        a = np.exp(-HAMMING3)[None]
        x, gap, steps = pc._simplex_newton(
            sa._rd_oracle, (TERNARY_PROBS[None], a), 3, sa._INNER_TOL)
        assert gap[0] <= sa._INNER_TOL and steps[0] <= 6
        assert len(calls) == steps[0]
        assert x[0, 2] == 0.0 and x[0, :2].min() > 0.0

    def test_zero_solve_keeps_the_only_zero_reproductions(self):
        # at D = 0 each source letter needs its one zero-distortion
        # reproduction; the fourth column has none, and the third serves
        # only a letter of zero mass, so both end at exactly 0, while the
        # oracle stays finite without either
        d = np.hstack([HAMMING3, np.full((3, 1), 0.5)])
        for p, off in (([0.5, 0.3, 0.2], [3]), ([0.6, 0.4, 0.0], [2, 3])):
            src = SourceSpec(Distribution(np.array(p)), d)
            res = rdf(src, 0.0)
            assert res.rate == pytest.approx(entropy(src.distribution),
                                             abs=1e-12)
            assert res.reproduction[off].tolist() == [0.0] * len(off)
            on = np.flatnonzero(np.array(p) > 0)
            np.testing.assert_allclose(res.reproduction[on], np.array(p)[on],
                                       rtol=1e-12)


class TestRdfCertificates:
    @pytest.mark.parametrize("name", ["bsc011_hamming", "ternary_asymmetric"])
    def test_gap_within_tol_on_shipped_examples(self, name):
        src = load_problem_file(str(EXAMPLES / f"{name}.json"))["source"]
        for tol in (1e-9, 1e-12, 1e-15):
            res = rdf(src, 0.5 * d_max(src), tol)
            assert 0.0 <= res.gap <= max(tol, 1e-13)

    def test_gap_is_never_negative(self):
        # uniform q is already optimal at this slope, and Blahut's bound
        # rounds to -1.1e-16 after 0 steps; the Newton slope search lands
        # on it for the fair Hamming source at D = 0.25
        out = sa._Solves(1, 2, 2)
        sa._fixed_slope(np.array([[0.5, 0.5]]), HAMMING,
                        np.array([-1.0986122886681096]), 1e-9, out,
                        np.array([0]))
        assert (out.gap[0], out.iterations[0]) == (0.0, 0)

    def test_no_iterations_at_d_max(self, fair_hamming):
        res = rdf(fair_hamming, d_max(fair_hamming))
        assert (res.rate, res.gap, res.iterations) == (0.0, 0.0, 0)


class TestRdfGradient:
    def test_fair_source_is_flat(self, fair_hamming):
        g = rdf_gradient(fair_hamming, 0.2)
        assert abs(g[0]) < 1e-7 and abs(g[1]) < 1e-7

    def test_skewed_matches_closed_form(self):
        # Hamming RDF gradient is -log Q up to an additive constant; the
        # centered version for Bernoulli(p) is (-pL, (1-p)L), L=log((1-p)/p)
        src = hamming_source(0.11)
        L = math.log(0.89 / 0.11)
        g = rdf_gradient(src, 0.05)
        assert g[0] == pytest.approx(-0.11 * L, abs=1e-7)
        assert g[1] == pytest.approx(0.89 * L, abs=1e-7)

    def test_matches_centered_neg_log(self):
        src = hamming_source(0.11)
        p = src.distribution.probs
        g = rdf_gradient(src, 0.05)
        neg_log = -np.log(p)
        centered = neg_log - np.dot(p, neg_log)
        assert np.allclose(g, centered, atol=1e-7)

    def test_relabeling_invariance(self):
        probs = np.array([0.3, 0.3, 0.4])
        src = SourceSpec(Distribution(probs), np.ones((3, 3)) - np.eye(3))
        g = rdf_gradient(src, 0.1)
        assert g[0] == pytest.approx(g[1], abs=1e-7)

    def test_boundary_rejected(self, fair_hamming):
        with pytest.raises(BoundaryDistortion):
            rdf_gradient(fair_hamming, 0.0)
        with pytest.raises(BoundaryDistortion):
            rdf_gradient(fair_hamming, 0.5)

    @pytest.mark.parametrize("name", ["bsc011_hamming", "ternary_asymmetric"])
    def test_boundary_rule_before_any_solve(self, name, monkeypatch):
        # _tilted refuses D within 1e-12 of 0 or d_max before it solves
        src = load_problem_file(str(EXAMPLES / f"{name}.json"))["source"]
        calls = []
        monkeypatch.setattr(sa, "rdf", lambda *a, **k: calls.append(a))
        dm = d_max(src)
        for d in (0.0, 1e-13, dm - 1e-13, dm):
            with pytest.raises(BoundaryDistortion):
                sa._tilted(src, d)
        assert calls == []

    @pytest.mark.parametrize("d", [0.05, 0.1, 0.2, 0.3])
    def test_tilted_information_absolute_distortion(self, d):
        # d(i,j) = |i - j|: the tilted information j(x) = s*D -
        # log sum_z q*(z) exp(s*d(x,z)) has mean R(P,D), and its centered
        # version matches central differences of R along (1-h)P + h*delta_x
        idx = np.arange(3)
        dmat = np.abs(idx[:, None] - idx[None, :]).astype(float)
        src = SourceSpec(Distribution(TERNARY_PROBS), dmat)
        res = rdf(src, d, 1e-11)
        s = res.lagrange_slope
        j = s * d - np.log(np.exp(s * dmat) @ res.reproduction)
        assert np.dot(TERNARY_PROBS, j) == pytest.approx(res.rate, abs=1e-12)

        h = 1e-5
        reference = np.empty(3)
        for x in range(3):
            delta = np.eye(3)[x]
            plus = (1 - h) * TERNARY_PROBS + h * delta
            minus = (1 + h) * TERNARY_PROBS - h * delta
            r_plus = rdf(SourceSpec(Distribution(plus), dmat), d, 1e-11).rate
            r_minus = rdf(SourceSpec(Distribution(minus), dmat), d, 1e-11).rate
            reference[x] = (r_plus - r_minus) / (2 * h)
        assert np.allclose(rdf_gradient(src, d), reference, rtol=0, atol=1e-8)


class TestSourceDispersion:
    def test_fair_hamming_zero(self, fair_hamming):
        assert source_dispersion(fair_hamming, 0.1) <= 1e-9

    def test_skewed_closed_form(self):
        src = hamming_source(0.11)
        oracle = 0.11 * 0.89 * math.log(0.89 / 0.11) ** 2
        got = source_dispersion(src, 0.05)
        assert got == pytest.approx(oracle, abs=1e-6)
        assert got / LN2 ** 2 == pytest.approx(0.8907, abs=1e-4)

    def test_independent_of_gradient_centering(self):
        src = hamming_source(0.2)
        p = src.distribution.probs
        g = rdf_gradient(src, 0.08)
        for shift in (0.0, 1.0, -3.7):
            shifted = g + shift
            mean = np.dot(p, shifted)
            var = np.dot(p, (shifted - mean) ** 2)
            assert var == pytest.approx(source_dispersion(src, 0.08), rel=1e-9)

    def test_ternary_example_equals_var_log_p(self):
        # the shipped ternary example: under Hamming distortion V_S(P, D*)
        # is exactly Var[log 1/P]
        src = SourceSpec(Distribution(TERNARY_PROBS), np.ones((3, 3)) - np.eye(3))
        channel = Channel(np.array([[0.95, 0.05], [0.2, 0.8]]))
        d_star = opta(JsccProblem(src, channel, 2.0, 0.1))
        logs = np.log(TERNARY_PROBS)
        var_log = float(np.dot(TERNARY_PROBS, logs ** 2)
                        - np.dot(TERNARY_PROBS, logs) ** 2)
        assert source_dispersion(src, d_star) == pytest.approx(var_log, abs=1e-12)

    def test_lossless_limit_matches_var_log_p(self):
        # as D -> 0 the dispersion approaches Var[log P]
        src = hamming_source(0.11)
        p = src.distribution.probs
        logs = np.log(p)
        var_log = float(np.dot(p, logs ** 2) - np.dot(p, logs) ** 2)
        small_d = source_dispersion(src, 1e-4)
        assert small_d == pytest.approx(var_log, rel=1e-3)


class TestSourceRateAt:
    def test_eps_half_is_rate(self, fair_hamming):
        got = source_rate_at(fair_hamming, 0.1, 500, 0.5)
        assert got == pytest.approx(rdf(fair_hamming, 0.1).rate, abs=1e-12)

    def test_zero_dispersion_eps_independent(self, fair_hamming):
        a = source_rate_at(fair_hamming, 0.1, 200, 0.05)
        b = source_rate_at(fair_hamming, 0.1, 200, 0.9)
        assert a == pytest.approx(b, abs=1e-6)

    def test_chained_oracle(self):
        src = hamming_source(0.11)
        v = 0.11 * 0.89 * math.log(0.89 / 0.11) ** 2
        oracle = (bernoulli_hamming_rdf_oracle(0.11, 0.05)
                  + math.sqrt(v / 1000) * 1.2815515655446004)
        assert source_rate_at(src, 0.05, 1000, 0.1) == pytest.approx(
            oracle, abs=1e-6)


class TestRefusals:
    @pytest.mark.parametrize("call,message", [
        (lambda src: rdf(src, 0.1, 0.0), "tol must be positive"),
        (lambda src: distortion_rate(src, 0.1, 0.0), "tol must be positive"),
        (lambda src: source_rate_at(src, 0.1, 0, 0.1),
         "n must be at least 1"),
        (lambda src: source_rate_at(src, 0.1, 100, 0.0), "eps must lie in"),
    ], ids=["rdf-tol", "distortion-rate-tol", "rate-at-n", "rate-at-eps"])
    def test_refuses(self, call, message, fair_hamming):
        with pytest.raises(DomainError, match=message):
            call(fair_hamming)
