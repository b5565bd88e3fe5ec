import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import hypergeom

from jsccdisp import (
    Channel,
    Distribution,
    DomainError,
    EmpiricalType,
    EnumerationTooLarge,
    RateCapViolated,
    SimConfig,
    SourceSpec,
    ZeroVariance,
    conditional_information_variance,
    dball_bound,
    dball_count_exact,
    distortion_threshold,
    eta_n,
    excess_event_probability,
    first_order_jscc_samples,
    first_order_mi_samples,
    gamma_n,
    JsccProblem,
    mi_continuity_check,
    mutual_information,
    q_inverse,
    sample_channel_output,
    sample_source_block,
    uep_simulate,
    xi_n_violation_rate,
)
from jsccdisp.mcsim import (
    UepConfig,
    _mi_tail_log_prob,
    ks_distance_to_normal,
    type_class_size,
    uep_dispersion_rate,
    union_bound_gamma,
)
import jsccdisp.mcsim as mcsim
import jsccdisp.probcore as probcore
import jsccdisp.source as sa
from jsccdisp.source import _tilted_solve
from conftest import HAMMING, bernoulli, bsc, hamming_source

LN2 = math.log(2.0)


def stream(seed):
    return np.random.default_rng(seed)


class TestSamplers:
    def test_point_mass_source(self):
        p = Distribution(np.array([0.0, 1.0, 0.0]))
        x = sample_source_block(p, 50, stream(0))
        assert (x == 1).all()

    def test_fixed_seed_reproduces(self):
        p = bernoulli(0.3)
        a = sample_source_block(p, 100, stream(42))
        b = sample_source_block(p, 100, stream(42))
        assert (a == b).all()

    def test_frequency_concentrates(self):
        p = bernoulli(0.3)
        x = sample_source_block(p, 100_000, stream(1))
        # CLT: 4 sigma ~ 0.0058 < 0.01
        assert abs(x.mean() - 0.3) < 0.01

    def test_identity_channel_copies(self):
        w = Channel(np.eye(3))
        x = stream(2).integers(0, 3, 200)
        y = sample_channel_output(x, w, stream(3))
        assert (y == x).all()

    def test_bsc_flip_fraction(self):
        w = bsc(0.11)
        x = np.zeros(100_000, dtype=np.int64)
        y = sample_channel_output(x, w, stream(4))
        assert abs(y.mean() - 0.11) < 0.01

    def test_constant_row_channel(self):
        w = Channel(np.array([[0.25, 0.75], [0.25, 0.75]]))
        x0 = np.zeros(50_000, dtype=np.int64)
        x1 = np.ones(50_000, dtype=np.int64)
        y0 = sample_channel_output(x0, w, stream(5))
        y1 = sample_channel_output(x1, w, stream(5))
        assert (y0 == y1).all()  # same uniforms, rows identical


class TestExcessEvent:
    def test_generous_threshold_never_exceeds(self, fair_hamming):
        # noiseless channel and d above every type's d_max
        w = Channel(np.eye(2))
        phi = EmpiricalType(np.array([50, 50]), 100)
        res = excess_event_probability(fair_hamming, w, phi, 0.6, 100, 2000, 9)
        assert res.estimate == 0.0

    def test_useless_channel_lossless_always_exceeds(self, fair_hamming):
        w = bsc(0.5)
        phi = EmpiricalType(np.array([50, 50]), 100)
        res = excess_event_probability(fair_hamming, w, phi, 0.0, 100, 2000, 9)
        assert res.estimate == 1.0

    def test_monotone_in_d_with_common_randomness(self, fair_hamming, bsc011):
        phi = EmpiricalType(np.array([100, 100]), 200)
        estimates = []
        for d in (0.08, 0.11, 0.14, 0.2):
            res = excess_event_probability(
                fair_hamming, bsc011, phi, d, 200, 4000, 77)
            estimates.append(res.estimate)
        assert all(a >= b for a, b in zip(estimates, estimates[1:]))

    def test_deterministic_across_workers(self, fair_hamming, bsc011):
        phi = EmpiricalType(np.array([250, 250]), 500)
        res1 = excess_event_probability(fair_hamming, bsc011, phi, 0.12,
                                        500, 10_000, 123, workers=1)
        res4 = excess_event_probability(fair_hamming, bsc011, phi, 0.12,
                                        500, 10_000, 123, workers=4)
        assert res1.estimate == res4.estimate
        assert res1.std_error == res4.std_error

    def test_std_error_formula(self, fair_hamming, bsc011):
        phi = EmpiricalType(np.array([100, 100]), 200)
        res = excess_event_probability(fair_hamming, bsc011, phi, 0.12,
                                       200, 3000, 5)
        want = math.sqrt(res.estimate * (1 - res.estimate) / res.trials)
        assert res.std_error == want
        assert 0.0 <= res.estimate <= 1.0

    @pytest.mark.parametrize("workers", [1, 4])
    def test_solves_distinct_types_once(self, fair_hamming, bsc011,
                                        monkeypatch, workers):
        calls = []
        solve = sa._rdf_rates

        def counted(p, *args):
            calls.append(p)
            return solve(p, *args)

        monkeypatch.setattr(sa, "_rdf_rates", counted)
        phi = EmpiricalType(np.array([100, 100]), 200)
        excess_event_probability(fair_hamming, bsc011, phi, 0.12, 200,
                                 10_000, 3, workers=workers)
        assert len(calls) == 1
        types = np.rint(calls[0] * 200).astype(int)
        assert len(np.unique(types, axis=0)) == len(types) > 1
        assert np.array_equal(types / 200, calls[0])

    def test_memory_does_not_grow_with_trials(self, fair_hamming, bsc011):
        # two passes redraw every batch instead of keeping per-trial arrays:
        # a batch works in about 1 MB, and 32 batches are enough for 8
        # bytes kept per trial to show
        phi = EmpiricalType(np.array([100, 100]), 200)

        def peak(trials):
            tracemalloc.start()
            try:
                excess_event_probability(fair_hamming, bsc011, phi, 0.12,
                                         200, trials, 5)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # one-time allocations of the first call
        assert peak(4 * 131_072) <= 1.5 * peak(131_072)

    def test_tracks_theorem_prediction_midscale(self, fair_hamming, bsc011):
        pb = JsccProblem(fair_hamming, bsc011, 1.0, 0.1)
        d_n = distortion_threshold(pb, 1000).d_with_vlow
        phi = EmpiricalType(np.array([500, 500]), 1000)
        res = excess_event_probability(fair_hamming, bsc011, phi, d_n,
                                       1000, 20_000, 31)
        assert abs(res.estimate - 0.1) <= max(3 * res.std_error, 0.04)


class TestFirstOrderMi:
    def test_moments_and_ks(self, bsc011):
        phi = EmpiricalType(np.array([1000, 1000]), 2000)
        res = first_order_mi_samples(phi, bsc011, 4000, 17)
        assert abs(res.sample_mean) <= 4 / math.sqrt(res.trials)
        assert 0.9 <= res.sample_variance <= 1.1
        assert res.ks_statistic <= 0.05

    def test_zero_variance_rejected(self):
        w = Channel(np.eye(2))
        phi = EmpiricalType(np.array([50, 50]), 100)
        with pytest.raises(ZeroVariance):
            first_order_mi_samples(phi, w, 100, 0)

    def test_deterministic(self, bsc011):
        phi = EmpiricalType(np.array([500, 500]), 1000)
        a = first_order_mi_samples(phi, bsc011, 5000, 3, workers=1)
        b = first_order_mi_samples(phi, bsc011, 5000, 3, workers=4)
        assert (a.samples == b.samples).all()

    def test_memory_per_trial(self, bsc011):
        # the samples and the KS statistic's sorted copy: 16 bytes per
        # trial; a list of batches and its concatenation add 16 more, and
        # full-length KS temporaries 48
        phi = EmpiricalType(np.array([500, 500]), 1000)

        def peak(trials):
            tracemalloc.start()
            try:
                first_order_mi_samples(phi, bsc011, trials, 5)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # one-time allocations of the first call
        small, large = peak(131_072), peak(4 * 131_072)
        assert (large - small) / (3 * 131_072) <= 20

    def test_rejects_no_trials(self, bsc011):
        phi = EmpiricalType(np.array([50, 50]), 100)
        with pytest.raises(DomainError):
            first_order_mi_samples(phi, bsc011, 0, 1)


class TestBatchFill:
    @pytest.mark.parametrize("trials", [5, 4096, 2 * 4096 + 17])
    def test_samples_are_the_batches_in_order(self, bsc011, monkeypatch,
                                              trials):
        batches = []
        real = mcsim._map_batches

        def recording(*args):
            for values in real(*args):
                batches.append(values.copy())
                yield values

        monkeypatch.setattr(mcsim, "_map_batches", recording)
        phi = EmpiricalType(np.array([60, 40]), 100)
        src = hamming_source(0.3)
        solve = _tilted_solve(src, 0.1)
        simulations = (
            lambda workers: first_order_mi_samples(
                phi, bsc011, trials, 9, workers),
            lambda workers: first_order_jscc_samples(
                src, 0.1, bsc011, phi, 100, trials, 9, workers, solve=solve),
        )
        for simulate in simulations:
            outs = []
            for workers in (1, 3):
                batches.clear()
                samples = simulate(workers).samples
                assert samples.shape == (trials,)
                assert [b.size for b in batches] == [
                    min(4096, trials - a) for a in range(0, trials, 4096)]
                assert samples.tobytes() == np.concatenate(batches).tobytes()
                outs.append(samples.tobytes())
            assert outs[0] == outs[1]


class TestKsDistance:
    @staticmethod
    def reference(samples, phi=ndtr):
        # the plain form: exact Phi at every sorted sample
        x = np.sort(samples)
        cdf = phi(x)
        k = x.size
        hi = np.arange(1, k + 1) / k
        lo = np.arange(0, k) / k
        return float(np.max(np.maximum(hi - cdf, cdf - lo)))

    @pytest.mark.parametrize("seed", range(12))
    def test_equals_full_evaluation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(10 ** rng.uniform(1, 5.5))
        samples = [
            rng.standard_normal(n),
            rng.standard_t(2, n),                      # heavy tails
            np.round(rng.standard_normal(n), 1),       # ties
            rng.integers(-3, 4, n).astype(float),      # few distinct values
            1.03 * rng.standard_normal(n) + 0.02,
            20.0 * rng.standard_normal(n),             # beyond the grid
        ][seed % 6]
        assert ks_distance_to_normal(samples) == pytest.approx(
            self.reference(samples), abs=2e-16)

    def test_nan_propagates(self):
        assert math.isnan(ks_distance_to_normal(np.array([0.1, np.nan])))

    def test_empty_sample_rejected(self):
        with pytest.raises(DomainError):
            ks_distance_to_normal(np.array([]))

    @given(st.integers(1, 17), st.lists(st.one_of(
        st.floats(-12.0, 12.0),
        st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 0.5, -9.5, 9.5]),
    ), min_size=1, max_size=300))
    def test_chunk_boundaries(self, chunk, values):
        # chunking leaves the same candidates for the supremum: the result
        # is the full exact evaluation with the same Phi, to the bit
        samples = np.array(values)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mcsim, "_KS_CHUNK", chunk)
            got = ks_distance_to_normal(samples)
        want = self.reference(samples, probcore.ndtr)
        assert got == want or (math.isnan(got) and math.isnan(want))

    @pytest.mark.parametrize("k", [2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1])
    def test_around_one_chunk(self, k):
        samples = np.random.default_rng(k).standard_normal(k)
        assert ks_distance_to_normal(samples) == self.reference(
            samples, probcore.ndtr)


class TestFirstOrderJscc:
    @pytest.fixture
    def skew_problem(self, bsc011):
        return hamming_source(0.25), bsc011

    def test_variance_matches_lemma_form(self, skew_problem):
        src, w = skew_problem
        pb = JsccProblem(src, w, 1.0, 0.1)
        from jsccdisp import opta
        d_star = opta(pb)
        phi = EmpiricalType(np.array([500, 500]), 1000)
        res = first_order_jscc_samples(src, d_star, w, phi, 1000, 4000, 5)
        # the lemma's variance form at rho = 1, evaluated from the parts
        d_r = res.diagnostics["d_prime_r"]
        v_s = res.diagnostics["v_s"]
        v_chan = res.diagnostics["v_channel"]
        lemma_form = (d_r ** 2 * v_s + 1.0 * d_r ** 2 * v_chan) / 1000
        assert res.diagnostics["standardizer_variance"] == pytest.approx(
            lemma_form, rel=1e-12)
        assert res.sample_variance == pytest.approx(1.0, abs=0.05)
        assert res.ks_statistic <= 0.05

    def test_given_solve_same_samples(self, skew_problem):
        src, w = skew_problem
        from jsccdisp import opta
        d_star = opta(JsccProblem(src, w, 1.0, 0.1))
        phi = EmpiricalType(np.array([250, 250]), 500)
        a = first_order_jscc_samples(src, d_star, w, phi, 500, 3000, 7)
        b = first_order_jscc_samples(src, d_star, w, phi, 500, 3000, 7,
                                     solve=_tilted_solve(src, d_star))
        assert a.samples.tobytes() == b.samples.tobytes()
        assert a.diagnostics == b.diagnostics

    def test_rejects_no_trials(self, skew_problem):
        src, w = skew_problem
        phi = EmpiricalType(np.array([50, 50]), 100)
        with pytest.raises(DomainError):
            first_order_jscc_samples(src, 0.1, w, phi, 100, 0, 1)

    def test_symmetric_source_reduces_to_channel_part(self, fair_hamming, bsc011):
        pb = JsccProblem(fair_hamming, bsc011, 1.0, 0.1)
        from jsccdisp import opta
        d_star = opta(pb)
        phi = EmpiricalType(np.array([250, 250]), 500)
        res = first_order_jscc_samples(fair_hamming, d_star, bsc011, phi,
                                       500, 2000, 6)
        assert res.diagnostics["v_s"] <= 1e-9
        assert res.sample_variance == pytest.approx(1.0, abs=0.1)


class TestXiN:
    def test_rejects_no_trials(self, bsc011):
        phi = EmpiricalType(np.array([50, 50]), 100)
        with pytest.raises(DomainError):
            xi_n_violation_rate(phi, bsc011, 0, 1)

    def test_noiseless_no_violations(self):
        w = Channel(np.eye(2))
        phi = EmpiricalType(np.array([30, 30]), 60)
        res = xi_n_violation_rate(phi, w, 5000, 2)
        assert res.estimate == 0.0

    def test_bound_respected_bsc02(self):
        w = bsc(0.2)
        phi = EmpiricalType(np.array([50, 50]), 100)
        res = xi_n_violation_rate(phi, w, 100_000, 8)
        assert res.estimate <= res.diagnostics["bound"] + 3 * res.std_error

    def test_nonincreasing_on_grid(self, bsc011):
        rates = []
        for n in (50, 100, 200, 400):
            phi = EmpiricalType(np.array([n // 2, n // 2]), n)
            rates.append(xi_n_violation_rate(phi, bsc011, 20_000, 13).estimate)
        assert all(a >= b for a, b in zip(rates, rates[1:]))


class TestUepMachinery:
    def test_eta_n_formula(self):
        # (2/n)(|X|^2 + log(n+1) + log k_n + 1)
        want = (2 / 128) * (4 + math.log(129) + math.log(2) + 1)
        assert eta_n(128, 2, 2) == pytest.approx(want, abs=1e-15)

    def test_gamma_n_formula(self):
        want = (2 * eta_n(128, 2, 2) + math.log(2) / 256
                + 0.5 * math.log(128) / 128)
        assert gamma_n(128, 2, 2, 0.0) == pytest.approx(want, abs=1e-15)

    def test_tail_prob_matches_hypergeometric(self):
        # binary/balanced case: the joint table is a single hypergeometric
        # cell and the empirical MI is log 2 - h(k/64)
        thr = 0.29
        lp = _mi_tail_log_prob((64, 64), (64, 64), thr)

        def h(q):
            return 0.0 if q in (0, 1) else -q * math.log(q) - (1 - q) * math.log(1 - q)

        oracle = sum(hypergeom.pmf(k, 128, 64, 64) for k in range(65)
                     if LN2 - h(k / 64) >= thr - 1e-12)
        assert math.exp(lp) == pytest.approx(oracle, rel=1e-9)

    def test_codebook_sizes(self):
        phi = EmpiricalType(np.array([8, 8]), 16)
        cfg = UepConfig(rates=(0.0, 0.25), input_types=(phi, phi))
        sizes = cfg.codewords_per_class()
        assert sizes[0] == 1
        assert sizes[1] == math.floor(math.exp(16 * 0.25))

    def test_rate_cap_violated(self, bsc011):
        phi = EmpiricalType(np.array([64, 64]), 128)
        cfg = UepConfig(rates=(LN2,), input_types=(phi,), gamma=0.0)
        sim = SimConfig(seed=1, trials=10, n=128)
        with pytest.raises(RateCapViolated):
            uep_simulate(cfg, bsc011, sim)


class TestUepSimulate:
    def test_single_codeword_generous_threshold(self, bsc011):
        n = 128
        phi = EmpiricalType(np.array([64, 64]), n)
        dist = phi.distribution()
        v = conditional_information_variance(dist, bsc011)
        mi = mutual_information(dist, bsc011)
        gamma = mi - 6 * math.sqrt(v / n)
        cfg = UepConfig(rates=(0.0,), input_types=(phi,), gamma=gamma)
        res = uep_simulate(cfg, bsc011, SimConfig(seed=3, trials=4000, n=n))
        cls = res.classes[0]
        assert cls.n_codewords == 1
        assert cls.e2.estimate == 0.0
        assert cls.overall.estimate <= 0.001

    def test_unreachable_threshold(self, bsc011):
        n = 64
        phi = EmpiricalType(np.array([32, 32]), n)
        cfg = UepConfig(rates=(0.0,), input_types=(phi,), gamma=LN2 + 0.1)
        res = uep_simulate(cfg, bsc011, SimConfig(seed=3, trials=500, n=n))
        assert res.classes[0].e1.estimate == 1.0

    def test_two_class_dispersion_targets(self, bsc011):
        n = 128
        phi = EmpiricalType(np.array([64, 64]), n)
        gamma = union_bound_gamma(n, 2)
        rate = uep_dispersion_rate(phi, bsc011, 0.2, gamma)
        cfg = UepConfig(rates=(rate, rate), input_types=(phi, phi), gamma=gamma)
        res = uep_simulate(cfg, bsc011, SimConfig(seed=99, trials=4000, n=n))
        for cls in res.classes:
            assert abs(cls.e1.estimate - 0.2) <= max(3 * cls.e1.std_error, 0.08)
            assert cls.e2.estimate <= 0.05
            # union-bound sanity (holds per trial, so no slack needed)
            assert (cls.e1.estimate + cls.e2.estimate
                    >= cls.overall.estimate - 3 * cls.overall.std_error)

    def test_deterministic_across_workers(self, bsc011):
        n = 64
        phi = EmpiricalType(np.array([32, 32]), n)
        gamma = union_bound_gamma(n, 1)
        rate = uep_dispersion_rate(phi, bsc011, 0.3, gamma)
        cfg = UepConfig(rates=(rate,), input_types=(phi,), gamma=gamma)
        r1 = uep_simulate(cfg, bsc011, SimConfig(seed=5, trials=6000, n=n), workers=1)
        r4 = uep_simulate(cfg, bsc011, SimConfig(seed=5, trials=6000, n=n), workers=4)
        for a, b in zip(r1.classes, r4.classes):
            assert a.e1.estimate == b.e1.estimate
            assert a.e2.estimate == b.e2.estimate
            assert a.overall.estimate == b.overall.estimate

    def test_every_competitor_scores(self, bsc011):
        # threshold 0: every table scores, so P(E2) = 1 exactly
        phi = EmpiricalType(np.array([64, 64]), 128)
        assert _mi_tail_log_prob((64, 64), (70, 58), 0.0) == 0.0
        cfg = UepConfig(rates=(0.0, 0.0), input_types=(phi, phi), gamma=0.0)
        res = uep_simulate(cfg, bsc011, SimConfig(seed=3, trials=2000, n=128))
        for cls in res.classes:
            assert cls.n_codewords == 1
            assert cls.e2.estimate == 1.0 and cls.overall.estimate == 1.0
            assert not any(math.isnan(r.estimate) or math.isnan(r.std_error)
                           for r in (cls.e1, cls.e2, cls.overall))

    def test_pinned_criterion_09_values(self, bsc011):
        # acceptance criterion 09's configuration; the values are those of
        # the per-trial decoder this two-pass simulator replaced
        n = 128
        phi = EmpiricalType(np.array([64, 64]), n)
        gamma = union_bound_gamma(n, 2)
        rate = uep_dispersion_rate(phi, bsc011, 0.2, gamma)
        cfg = UepConfig(rates=(rate, rate), input_types=(phi, phi), gamma=gamma)
        res = uep_simulate(cfg, bsc011,
                           SimConfig(seed=20240917, trials=10_000, n=n))
        got = [(c.e1.estimate, c.e2.estimate, c.overall.estimate)
               for c in res.classes]
        assert got == [(0.1679, 0.0244, 0.1891), (0.1649, 0.0231, 0.1853)]


def brute_force_dball(counts, s_hat, dmat, d):
    """Independent oracle: enumerate distinct words via position subsets."""
    n = int(sum(counts))
    positions = set(range(n))
    total = 0
    budget = n * d + 1e-9

    def assign(sym, remaining, cost):
        nonlocal total
        if sym == len(counts) - 1:
            extra = sum(dmat[sym][s_hat[i]] for i in remaining)
            if cost + extra <= budget:
                total += 1
            return
        for chosen in itertools.combinations(sorted(remaining), counts[sym]):
            c = cost + sum(dmat[sym][s_hat[i]] for i in chosen)
            assign(sym + 1, remaining - set(chosen), c)

    assign(0, positions, 0.0)
    return total


class TestDballCount:
    def test_full_ball_is_type_class(self):
        q = EmpiricalType(np.array([5, 5]), 10)
        got = dball_count_exact(q, np.zeros(10, dtype=int), HAMMING, 1.0)
        assert got == math.comb(10, 5)

    def test_below_min_distortion_is_zero(self):
        # every type-(5,5) word is at Hamming distance 0.5 from all-zeros
        q = EmpiricalType(np.array([5, 5]), 10)
        assert dball_count_exact(q, np.zeros(10, dtype=int), HAMMING, 0.2) == 0

    def test_matches_brute_force_binary(self):
        q = EmpiricalType(np.array([8, 2]), 10)
        s_hat = np.zeros(10, dtype=int)
        got = dball_count_exact(q, s_hat, HAMMING, 0.2)
        assert got == brute_force_dball([8, 2], s_hat, HAMMING, 0.2) == 45

    def test_matches_brute_force_ternary(self):
        dmat = np.ones((3, 3)) - np.eye(3)
        q = EmpiricalType(np.array([3, 2, 2]), 7)
        rng = np.random.default_rng(12)
        s_hat = rng.integers(0, 3, 7)
        for d in (0.0, 0.2, 0.4, 0.7, 1.0):
            got = dball_count_exact(q, s_hat, dmat, d)
            want = brute_force_dball([3, 2, 2], s_hat, dmat, d)
            assert got == want

    def test_respects_counting_bound(self, fair_hamming):
        src = fair_hamming
        for k in range(0, 11):
            q = EmpiricalType(np.array([10 - k, k]), 10)
            for frac in range(0, 11):
                d = frac / 10
                cnt = dball_count_exact(q, np.zeros(10, dtype=int), HAMMING, d)
                assert cnt <= dball_bound(q, src, d) * (1 + 1e-9)

    def test_cap(self):
        q = EmpiricalType(np.array([20, 20]), 40)
        with pytest.raises(EnumerationTooLarge):
            dball_count_exact(q, np.zeros(40, dtype=int), HAMMING, 0.5,
                              cap=1000)

    @given(st.data())
    def test_matches_brute_force_random(self, data):
        # 2-3 source letters, 1-4 reproduction letters (mostly |Shat| != |S|)
        # and an s_hat that may leave reproduction letters unused
        k = data.draw(st.integers(2, 3))
        k_hat = data.draw(st.integers(1, 4))
        counts = data.draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)
                           .filter(lambda c: 1 <= sum(c) <= 7))
        n = sum(counts)
        used = data.draw(st.lists(st.integers(0, k_hat - 1), min_size=1,
                                  unique=True))
        s_hat = np.array(data.draw(st.lists(st.sampled_from(used),
                                            min_size=n, max_size=n)))
        dmat = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0, 1.7]),
            min_size=k * k_hat, max_size=k * k_hat))).reshape(k, k_hat)
        d = data.draw(st.integers(0, 20)) / 10
        q = EmpiricalType(np.array(counts), n)
        got = dball_count_exact(q, s_hat, dmat, d)
        assert got == brute_force_dball(counts, s_hat, dmat, d)

    def test_cap_counts_words_not_tables(self):
        # 5 letters at n = 12: |T_Q| is within the cap while the product
        # bound on the tables is not
        q = EmpiricalType(np.array([3, 3, 2, 2, 2]), 12)
        s_hat = np.arange(12) % 5
        dmat = np.ones((5, 5)) - np.eye(5)
        assert type_class_size(q) <= 2_000_000
        got = dball_count_exact(q, s_hat, dmat, 1.0, cap=2_000_000)
        assert got == type_class_size(q)
        with pytest.raises(EnumerationTooLarge):
            dball_count_exact(q, s_hat, dmat, 1.0, cap=type_class_size(q) - 1)


class TestMiContinuity:
    def test_equal_inputs_hold(self, bsc011):
        p = bernoulli(0.3)
        lhs, rhs, holds = mi_continuity_check(p, p, bsc011, 1e-3)
        assert lhs == 0.0 and holds

    def test_random_binary_pairs_hold(self, bsc011):
        rng = np.random.default_rng(14)
        for _ in range(200):
            a = rng.uniform(0.05, 0.95)
            delta = 1e-3
            shift = rng.uniform(-delta, delta)
            b = min(max(a + shift, 0.0), 1.0)
            lhs, rhs, holds = mi_continuity_check(
                bernoulli(a), bernoulli(b), bsc011, delta)
            assert holds

    def test_delta_too_large(self, bsc011):
        from jsccdisp import DeltaTooLarge
        with pytest.raises(DeltaTooLarge):
            mi_continuity_check(bernoulli(0.4), bernoulli(0.4), bsc011, 0.3)

    def test_bound_scales_like_log_n_over_n(self, bsc011):
        # rhs at delta = 1/n behaves as |X||Y| log(n)/n up to lower order
        ratios = []
        for n in (100, 1000, 10_000):
            p = bernoulli(0.4)
            lhs, rhs, _ = mi_continuity_check(p, p, bsc011, 1.0 / n)
            ratios.append(rhs / (math.log(n) / n))
        assert all(3.0 <= r <= 4.0 for r in ratios)
        assert ratios[0] < ratios[1] < ratios[2]  # approaching |X||Y| = 4
