import itertools
import math
import pathlib
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import binom, chi2_contingency, hypergeom

from jsccdisp import (
    Channel,
    DeltaTooLarge,
    Distribution,
    DomainError,
    EmpiricalType,
    EnumerationTooLarge,
    LengthMismatch,
    RateCapViolated,
    SimConfig,
    SourceSpec,
    SymbolOutOfRange,
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
from jsccdisp.cli import load_problem_file
from jsccdisp.mcsim import ks_distance_to_normal
from jsccdisp.uep import (
    UepConfig,
    _mi_tail_log_prob,
    type_class_size,
    uep_dispersion_rate,
    union_bound_gamma,
)
import jsccdisp.mcsim as mcsim
import jsccdisp.uep as uep
import jsccdisp.probcore as probcore
import jsccdisp.source as sa
from jsccdisp.source import _tilted
from conftest import HAMMING, bernoulli, bsc, hamming_source
from functools import reduce

LN2 = math.log(2.0)
EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "docs" / "examples"


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

    def test_zero_uniform_skips_null_letters(self):
        # u = 0.0 is a draw of rng.random; both samplers take the first
        # letter whose CDF exceeds it, never one of probability 0
        class Zeros:
            def random(self, size):
                return np.zeros(size)

        w = Channel(np.array([[0.0, 1.0], [0.0, 1.0]]))
        y = sample_channel_output(np.array([0, 1]), w, Zeros())
        x = sample_source_block(bernoulli(1.0), 2, Zeros())
        assert y.tolist() == x.tolist() == [1, 1]


class Spy:
    """A generator that records which of its draws a sampler calls."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def random(self, *args):
        self.calls.append("random")
        return self.rng.random(*args)

    def multinomial(self, *args, **kwargs):
        self.calls.append("multinomial")
        return self.rng.multinomial(*args, **kwargs)


class Fixed:
    """A generator whose uniforms are the given values."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        assert size == self.u.size
        return self.u.copy()


def reference_rows(total, probs):
    """The draws of ``mcsim._row_sampler`` without its guide: over two
    letters, the first count is lo + searchsorted(cdf, u, "right") of one
    uniform u per trial; wider laws take rng.multinomial."""
    if len(probs) != 2:
        def wide(rng, out):
            out[...] = rng.multinomial(total, probs, size=len(out))
            return out

        return wide
    lo, cdf, _ = mcsim._binomial_table(total, float(probs[0]))

    def draw(rng, out):
        out[:, 0] = lo + np.searchsorted(cdf, rng.random(len(out)),
                                         side="right")
        out[:, 1] = total - out[:, 0]
        return out

    return draw


def reference_joint(row_counts, w_mat, rng, size):
    """The joint counts of ``mcsim._joint_sampler``, row by row from
    ``reference_rows`` in ascending input-letter order."""
    joint = np.zeros((size, *w_mat.shape), dtype=np.int64)
    for a, r_a in enumerate(row_counts):
        if r_a > 0:
            reference_rows(int(r_a), w_mat[a])(rng, joint[:, a, :])
    return joint


class TestTwoLetterRows:
    # a two-letter row is one binomial draw, taken by inverse CDF on one
    # uniform; r * min(p0, 1 - p0) from far below 1 to far above it
    @pytest.mark.parametrize("r", [1, 30, 31, 500, 1000, 100_000])
    @pytest.mark.parametrize("p0", [0.0, 1e-9, 0.11, 0.5, 0.89, 1.0])
    def test_binomial_is_the_multinomial_draw(self, r, p0):
        probs = np.array([p0, 1.0 - p0])
        draw = mcsim._row_sampler(r, probs)
        a, b = mcsim._stream(5, r), mcsim._stream(5, r)
        rows = draw(a, np.empty((4096, 2), dtype=np.int64))
        lo, cdf, guide = mcsim._binomial_table(r, p0)
        u = b.random(4096)
        assert np.array_equal(rows[:, 0],
                              lo + np.searchsorted(cdf, u, side="right"))
        assert np.array_equal(rows[:, 1], r - rows[:, 0])
        # the generator stands where rng.random(size) leaves it
        assert np.array_equal(a.random(4), b.random(4))
        # and so do uniforms at the bucket edges, on every CDF entry below
        # 1 and just beside it, at 0 and at the largest double below 1
        inner = cdf[cdf < 1.0]
        u = np.concatenate((np.arange(guide.size) / guide.size, inner,
                            np.nextafter(inner, 0.0), np.nextafter(inner, 1.0),
                            [0.0, np.nextafter(1.0, 0.0)]))
        u = u[(u >= 0.0) & (u < 1.0)]
        edges = draw(Fixed(u), np.empty((u.size, 2), dtype=np.int64))
        assert np.array_equal(edges[:, 0],
                              lo + np.searchsorted(cdf, u, side="right"))
        # a letter of probability 0 is never drawn
        for letter, prob in enumerate(probs):
            if prob == 0.0:
                assert not edges[:, letter].any() and not rows[:, letter].any()
        # the CDF of the binomial over the window, ending at exactly 1
        assert cdf[-1] == 1.0
        assert np.all(np.abs(cdf - binom.cdf(lo + np.arange(cdf.size), r, p0))
                      <= 1e-11)
        assert binom.cdf(lo - 1, r, p0) <= 2.0 ** -64
        assert binom.sf(lo + cdf.size - 1, r, p0) <= 2.0 ** -64
        # guide[i] counts the entries with cdf <= i / 2^j
        buckets = guide.size
        assert buckets & (buckets - 1) == 0
        assert buckets >= 16 * (math.sqrt(r * p0 * (1 - p0)) + 1)
        assert np.array_equal(guide, [(cdf <= i / buckets).sum()
                                      for i in range(buckets)])

    @pytest.mark.parametrize("r,p0", [(500, 0.11), (1000, 0.5),
                                      (50_000, 0.11)])
    def test_same_law_as_numpy_binomial(self, r, p0):
        # 10^6 draws of each against rng.binomial: chi-square homogeneity
        # over about 50 bins of consecutive counts, each near 2 % of the
        # pooled draws
        size = 10 ** 6
        rows = mcsim._row_sampler(r, np.array([p0, 1.0 - p0]))(
            mcsim._stream(3, r), np.empty((size, 2), dtype=np.int64))
        ours = rows[:, 0]
        theirs = mcsim._stream(4, r).binomial(r, p0, size)
        top = max(ours.max(), theirs.max()) + 1
        both = np.stack([np.bincount(x, minlength=top)
                         for x in (ours, theirs)])
        pooled = both.sum(axis=0)
        bins = np.minimum(np.cumsum(pooled) * 50 // pooled.sum(), 49)
        table = np.stack([np.bincount(bins, weights=row) for row in both])
        table = table[:, table.sum(axis=0) > 0]
        assert table.shape[1] >= 10
        assert chi2_contingency(table).pvalue > 1e-3
        sigma = math.sqrt(r * p0 * (1 - p0))
        assert abs(ours.mean() - theirs.mean()) <= 5 * sigma * math.sqrt(
            2.0 / size)

    def test_table_holds_order_sigma(self):
        # total 10^9 at p0 = 1/2: sigma is about 15,811, and a table over
        # 0..total would take 8 GB
        tracemalloc.start()
        try:
            draw = mcsim._row_sampler(10 ** 9, np.array([0.5, 0.5]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lo, cdf, guide = mcsim._binomial_table(10 ** 9, 0.5)
        sigma = math.sqrt(10 ** 9) / 2
        assert cdf.size <= 20 * (sigma + 1) and guide.size <= 32 * (sigma + 1)
        assert peak <= 8 * 10 ** 6
        rows = draw(mcsim._stream(1, 0), np.empty((1000, 2), dtype=np.int64))
        assert np.all(np.abs(rows[:, 0] - 5 * 10 ** 8) <= 6 * sigma)

    def test_other_rows_take_multinomial(self):
        rows = np.array([40, 60])
        for w, want in [(np.array([[0.5, 0.3, 0.2], [0.1, 0.9, 0.0]]),
                         ["multinomial", "multinomial"]),
                        (bsc(0.11).matrix, ["random", "random"])]:
            spy = Spy(mcsim._stream(1, 0))
            joint = mcsim._joint_sampler(rows, w)(spy, 100)
            assert spy.calls == want
            assert np.array_equal(joint, reference_joint(
                rows, w, mcsim._stream(1, 0), 100))

    SIMULATIONS = {
        "excess": lambda: excess_event_probability(
            hamming_source(0.3), bsc(0.11), EmpiricalType(np.array([60, 40]),
                                                          100),
            0.1, 120, 9000, 4, 2).estimate,
        "clt-mi": lambda: first_order_mi_samples(
            EmpiricalType(np.array([70, 30]), 100), bsc(0.2), 9000, 4,
            2).samples.tobytes(),
        "clt-jscc": lambda: first_order_jscc_samples(
            hamming_source(0.3), 0.1, bsc(0.11),
            EmpiricalType(np.array([60, 40]), 100), 120, 9000, 4,
            2).samples.tobytes(),
        "xi": lambda: xi_n_violation_rate(
            EmpiricalType(np.array([70, 30]), 100), bsc(0.2), 9000, 4,
            2).estimate,
        "uep": lambda: uep_simulate(
            UepConfig(rates=(0.1, 0.05), input_types=(
                EmpiricalType(np.array([32, 32]), 64),
                EmpiricalType(np.array([40, 24]), 64)), gamma=0.05),
            bsc(0.11), SimConfig(seed=5, trials=6000, n=64), 2),
    }

    @pytest.mark.parametrize("name", sorted(SIMULATIONS))
    def test_simulators_match_multinomial_draws(self, monkeypatch, name):
        # the guide changes no count
        got = self.SIMULATIONS[name]()
        monkeypatch.setattr(mcsim, "_row_sampler", reference_rows)
        assert got == self.SIMULATIONS[name]()


class TestCellSum:
    @staticmethod
    def tables(shape, seed):
        """4096 count tables, the first 64 equal to a table of whole
        expected counts, and per-cell coefficients of mixed sign and of
        one sign, the latter making the first 64 sums over -0.0 cells."""
        rng = np.random.default_rng(seed)
        expected = rng.integers(0, 50, size=shape).astype(float)
        joint = rng.integers(0, 50, size=(4096, *shape))
        joint[:64] = expected
        scales = 10.0 ** rng.uniform(-3, 3, size=shape)
        return rng, joint, expected, (rng.standard_normal(shape) * scales,
                                      -rng.random(shape) * scales)

    @staticmethod
    def first_order(joint, expected, coeff):
        old = ((joint - expected[None, :, :]) * coeff[None, :, :]).sum(
            axis=(1, 2))
        new = mcsim._cell_sum((joint[:, x, y] - expected[x, y]) * coeff[x, y]
                              for x, y in np.ndindex(coeff.shape))
        return old, new, (np.abs(joint - expected) * np.abs(coeff)).sum(
            axis=(1, 2))

    @staticmethod
    def xi(joint, counts, w):
        old = ((joint / counts[None, :, None] - w[None, :, :]) ** 2).sum(
            axis=(1, 2))
        new = mcsim._cell_sum((joint[:, x, y] / counts[x] - w[x, y]) ** 2
                              for x, y in np.ndindex(w.shape))
        return old, new, old

    def cases(self, shape, seed):
        rng, joint, expected, coeffs = self.tables(shape, seed)
        for coeff in coeffs:
            yield self.first_order(joint, expected, coeff)
        counts = rng.integers(1, 100, size=shape[0])
        yield self.xi(joint, counts, rng.dirichlet(np.ones(shape[1]),
                                                   size=shape[0]))

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (1, 7)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_under_eight_cells(self, shape, seed):
        _, joint, expected, (_, negative) = self.tables(shape, seed)
        assert np.signbit((joint[0] - expected) * negative).all()
        for old, new, _ in self.cases(shape, seed):
            assert new.tobytes() == old.tobytes()

    @pytest.mark.parametrize("shape", [(2, 4), (3, 3), (4, 5)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pairwise_tables_agree_to_rounding(self, shape, seed):
        # numpy sums 8 cells and more pairwise, the fold left to right
        for old, new, size in self.cases(shape, seed):
            assert np.all(np.abs(new - old) <= 1e-12 * size)


class TestExcessEvent:
    def test_generous_threshold_never_exceeds(self, fair_hamming):
        # noiseless channel and d above every type's d_max
        w = Channel(np.eye(2))
        phi = EmpiricalType(np.array([50, 50]), 100)
        res = excess_event_probability(fair_hamming, w, phi, 0.6, 100, 2000, 9)
        assert res.estimate == 0.0

    @pytest.mark.parametrize("d", [math.nan, -0.1])
    def test_rejects_a_distortion_rdf_refuses(self, fair_hamming, bsc011, d):
        # rdf's check: a NaN D would make every trial a boundary trial
        phi = EmpiricalType(np.array([50, 50]), 100)
        with pytest.raises(DomainError, match="distortion level"):
            excess_event_probability(fair_hamming, bsc011, phi, d, 100, 100, 1)

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
        # per-trial state is kept for one window of batches at a time, not
        # for the run: a batch works in about 1 MB, and 32 batches are
        # enough for 8 bytes kept per trial to show
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

    def test_memory_flat_at_two_workers(self, fair_hamming, bsc011,
                                        monkeypatch):
        # the threads draw a bounded number of batches ahead of the window
        monkeypatch.setattr(mcsim.os, "cpu_count", lambda: 2)
        phi = EmpiricalType(np.array([100, 100]), 200)

        def peak(trials):
            tracemalloc.start()
            try:
                excess_event_probability(fair_hamming, bsc011, phi, 0.12,
                                         200, trials, 5, workers=2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)
        assert peak(4 * 131_072) <= 1.5 * peak(131_072)

    def test_tracks_theorem_prediction_midscale(self, fair_hamming, bsc011):
        pb = JsccProblem(fair_hamming, bsc011, 1.0, 0.1)
        d_n = distortion_threshold(pb, 1000).d_with_vlow
        phi = EmpiricalType(np.array([500, 500]), 1000)
        res = excess_event_probability(fair_hamming, bsc011, phi, d_n,
                                       1000, 20_000, 31)
        assert abs(res.estimate - 0.1) <= max(3 * res.std_error, 0.04)

    def test_wide_keys_match_per_trial_solves(self, bsc011):
        # 9 letters at n = 1000 take Python-int keys; every trial is
        # redrawn from its stream and its source type solved by rdf
        n, trials, seed, d = 1000, 40, 3, 0.5475
        assert (n + 1) ** 8 >= 2 ** 63
        p = np.linspace(1.0, 2.0, 9)
        p /= p.sum()
        dmat = np.ones((9, 9)) - np.eye(9)
        phi = EmpiricalType(np.array([500, 500]), n)
        rng = mcsim._stream(seed, 0)
        types = rng.multinomial(n, p, size=trials)
        joint = reference_joint(phi.counts, bsc011.matrix, rng, trials)
        want = sum(
            sa.rdf(SourceSpec(Distribution(t / n), dmat), d, 1e-10).rate
            > probcore._joint_mutual_information(j)
            for t, j in zip(types, joint))
        res = excess_event_probability(SourceSpec(Distribution(p), dmat),
                                       bsc011, phi, d, n, trials, seed)
        assert 0 < want < trials
        assert res.estimate == want / trials
        assert res.diagnostics["boundary_trials"] == 0


def two_pass_excess(src, w, phi, d, n, trials, seed):
    """(excess trials, trials without a rate) by the plain two passes: fold
    every batch's source keys into one table and solve it, then redraw each
    batch and look every trial's key up in the table."""
    p, size = src.distribution.probs, mcsim.DEFAULT_BATCH
    batches = [(b, min(size, trials - b * size))
               for b in range(-(-trials // size))]
    src_rows = reference_rows(n, p)

    def source_keys(rng, k):
        return mcsim._type_keys(
            src_rows(rng, np.empty((k, p.size), dtype=np.int64)), n)

    table = reduce(np.union1d, (np.unique(source_keys(mcsim._stream(seed, b),
                                                      k))
                                for b, k in batches))
    start = sa._rdf_solves(p[None], src.distortion, d, 1e-10).slope[0]
    rates = sa._rdf_rates(mcsim._key_rows(table, n, p.size) / n,
                          src.distortion, d, 1e-10, start)
    xlogx, excess, undefined = mcsim._xlogx(phi.n), 0, 0
    for b, k in batches:
        rng = mcsim._stream(seed, b)
        keys = source_keys(rng, k)
        joint = reference_joint(phi.counts, w.matrix, rng, k)
        mi = mcsim._fixed_margin_mi(joint, phi.counts, xlogx)
        r = rates[np.searchsorted(table, keys)]
        excess += int((np.isnan(r) | (r > phi.n / n * mi)).sum())
        undefined += int(np.isnan(r).sum())
    return excess, undefined


def ternary_source():
    return SourceSpec(Distribution(np.array([0.5, 0.3, 0.2])),
                      np.ones((3, 3)) - np.eye(3))


class TestExcessSinglePass:
    # (source, channel, input type, d, n): the bsc011 example, and the
    # ternary one, whose n = 500 gives batches of more than 256 types
    PROBLEMS = {
        "bsc011": (hamming_source(0.5), bsc(0.11),
                   EmpiricalType(np.array([500, 500]), 1000), 0.115, 1000),
        "ternary": (ternary_source(), Channel(np.array([[0.95, 0.05],
                                                        [0.2, 0.8]])),
                    EmpiricalType(np.array([600, 400]), 1000), 0.1, 500),
    }

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("name", ["bsc011", "ternary"])
    def test_matches_two_pass_reference(self, monkeypatch, name, workers):
        # windows of 2 batches: 5 batches and 17 trials make 3 windows
        monkeypatch.setattr(mcsim, "_TYPE_WINDOW", 2)
        src, w, phi, d, n = self.PROBLEMS[name]
        trials, seed = 5 * mcsim.DEFAULT_BATCH + 17, 11
        res = excess_event_probability(src, w, phi, d, n, trials, seed,
                                       workers)
        excess, undefined = two_pass_excess(src, w, phi, d, n, trials, seed)
        assert 0 < excess < trials
        assert res.estimate == excess / trials
        assert res.diagnostics["boundary_trials"] == undefined == 0

    def test_ternary_batches_take_two_byte_indices(self):
        src, _, _, _, n = self.PROBLEMS["ternary"]
        counts = mcsim._stream(11, 0).multinomial(
            n, src.distribution.probs, size=mcsim.DEFAULT_BATCH)
        types = len(np.unique(mcsim._type_keys(counts, n)))
        assert np.min_scalar_type(types - 1) == np.uint16

    def test_default_window_matches_reference(self):
        src, w, phi, d, n = self.PROBLEMS["bsc011"]
        trials = (mcsim._TYPE_WINDOW + 1) * mcsim.DEFAULT_BATCH + 3
        res = excess_event_probability(src, w, phi, d, n, trials, 5, 2)
        excess, _ = two_pass_excess(src, w, phi, d, n, trials, 5)
        assert res.estimate == excess / trials

    def test_wide_keys_across_windows(self, monkeypatch, bsc011):
        # 9 letters at n = 1000 take Python-int keys; batches of 16 trials
        # in windows of 2 merge object tables
        monkeypatch.setattr(mcsim, "DEFAULT_BATCH", 16)
        monkeypatch.setattr(mcsim, "_TYPE_WINDOW", 2)
        n, trials, seed, d = 1000, 70, 3, 0.5475
        p = np.linspace(1.0, 2.0, 9)
        src = SourceSpec(Distribution(p / p.sum()),
                         np.ones((9, 9)) - np.eye(9))
        phi = EmpiricalType(np.array([500, 500]), n)
        assert mcsim._type_keys(np.zeros((1, 9), dtype=np.int64),
                                n).dtype == object
        res = excess_event_probability(src, bsc011, phi, d, n, trials, seed,
                                       workers=2)
        excess, _ = two_pass_excess(src, bsc011, phi, d, n, trials, seed)
        assert 0 < excess < trials
        assert res.estimate == excess / trials

    def test_rate_without_solve_counts_as_excess(self, monkeypatch):
        # a NaN rate, as a failed solve gives, on every type whose first
        # count is a multiple of 3
        solve = sa._rdf_rates
        n = 500

        def failing(p, *args):
            rates = solve(p, *args)
            rates[np.rint(p[:, 0] * n) % 3 == 0] = np.nan
            return rates

        monkeypatch.setattr(sa, "_rdf_rates", failing)
        monkeypatch.setattr(mcsim, "_TYPE_WINDOW", 2)
        src, w, phi, d, _ = self.PROBLEMS["ternary"]
        trials = 3 * mcsim.DEFAULT_BATCH + 1
        res = excess_event_probability(src, w, phi, d, n, trials, 2, 2)
        excess, undefined = two_pass_excess(src, w, phi, d, n, trials, 2)
        assert 0 < undefined < excess < trials
        assert res.estimate == excess / trials
        assert res.diagnostics["boundary_trials"] == undefined


class TestMapBatches:
    @pytest.mark.parametrize("batches, cpus, want", [
        (3, 8, [3]), (20, 8, [8]), (20, None, []), (1, 8, [])])
    def test_threads_capped(self, monkeypatch, pool_sizes, batches, cpus,
                            want):
        monkeypatch.setattr(mcsim.os, "cpu_count", lambda: cpus)
        trials = batches * mcsim.DEFAULT_BATCH - 1
        out = list(mcsim._map_batches(lambda b, size: (b, size), trials,
                                      10 ** 6))
        assert pool_sizes == want
        assert out == [(b, min(mcsim.DEFAULT_BATCH,
                               trials - b * mcsim.DEFAULT_BATCH))
                       for b in range(batches)]

    def test_threads_draw_a_bounded_way_ahead(self, monkeypatch):
        # real threads and a consumer slower than they are: a batch is
        # finished when fn returns and consumed when the loop receives it
        monkeypatch.setattr(mcsim.os, "cpu_count", lambda: 2)
        lock = threading.Lock()
        finished, consumed, most = 0, 0, 0

        def fn(b, size):
            nonlocal finished, most
            with lock:
                finished += 1
                most = max(most, finished - consumed)
            return b

        out = []
        for b in mcsim._map_batches(fn, 20 * mcsim.DEFAULT_BATCH, 2):
            with lock:
                consumed += 1
            out.append(b)
            time.sleep(0.01)
        assert out == list(range(20))
        assert 1 < most <= mcsim._LOOKAHEAD * 2

    def test_no_batch_drawn_past_its_window(self, monkeypatch):
        # windows of 3: a batch starts only when every batch of the windows
        # before its own has been consumed
        monkeypatch.setattr(mcsim.os, "cpu_count", lambda: 2)
        lock = threading.Lock()
        consumed, started = 0, {}

        def fn(b, size):
            with lock:
                started[b] = consumed
            return b

        out = []
        for b in mcsim._map_batches(fn, 10 * mcsim.DEFAULT_BATCH, 2, 3):
            with lock:
                consumed += 1
            out.append(b)
        assert out == list(range(10))
        assert all(started[b] >= b - b % 3 for b in range(10))

    def test_error_in_a_batch_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(mcsim.os, "cpu_count", lambda: 2)
        threads = threading.active_count()

        def fn(b, size):
            if b == 5:
                raise DomainError("batch 5")
            return b

        out = []
        with pytest.raises(DomainError, match="batch 5"):
            for b in mcsim._map_batches(fn, 20 * mcsim.DEFAULT_BATCH, 2):
                out.append(b)
        assert out == list(range(5))
        # the pool's threads are joined when the error leaves the map
        assert threading.active_count() == threads

    @pytest.mark.parametrize("workers", [2, 3])
    def test_threads_joined_when_the_consumer_stops(self, monkeypatch,
                                                    workers):
        # a middle batch raises while the consumer is still short of it,
        # and the consumer closes the map early: no thread outlives it
        monkeypatch.setattr(mcsim.os, "cpu_count", lambda: workers)
        threads = threading.active_count()

        def fn(b, size):
            if b == 7:
                raise DomainError("batch 7")
            time.sleep(0.001)
            return b

        batches = mcsim._map_batches(fn, 20 * mcsim.DEFAULT_BATCH, workers)
        assert [next(batches) for _ in range(3)] == [0, 1, 2]
        assert threading.active_count() == threads + workers
        batches.close()
        assert threading.active_count() == threads
        # and when the consumer's own code raises: _per_type closes the map
        # even while the traceback, which holds its frame, is kept
        with pytest.raises(DomainError, match="batch 7") as caught:
            mcsim._per_type(lambda b, size: (np.arange(3), fn(b, size)),
                            20 * mcsim.DEFAULT_BATCH, workers,
                            lambda keys: keys * 1.0, lambda b, v: 0)
        assert threading.active_count() == threads

        def failing(batch, values):
            raise DomainError("count")

        with pytest.raises(DomainError, match="count") as caught:
            mcsim._per_type(lambda b, size: (np.arange(3), b),
                            20 * mcsim.DEFAULT_BATCH, workers,
                            lambda keys: keys * 1.0, failing)
        assert threading.active_count() == threads
        assert caught.traceback


def composition_rows(data):
    """(rows, total): count rows over 1-9 letters, each summing to a total
    of at most 1000, drawn with repeats from a pool of up to 6 rows."""
    k = data.draw(st.integers(1, 9), label="letters")
    total = data.draw(st.integers(0, 1000), label="total")
    cuts = st.lists(st.integers(0, total), min_size=k - 1, max_size=k - 1)
    pool = [np.diff([0] + sorted(c) + [total]) for c in
            data.draw(st.lists(cuts, min_size=1, max_size=6), label="pool")]
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                               max_size=30), label="picks")
    return np.array([pool[i] for i in picks], dtype=np.int64), total


class TestTypeKeys:
    def check(self, rows, total, split):
        k = rows.shape[1]
        keys = mcsim._type_keys(rows, total)
        assert keys.dtype == (np.int64 if (total + 1) ** (k - 1) < 2 ** 63
                              else object)
        # decoding gives the rows back
        assert np.array_equal(mcsim._key_rows(keys, total, k), rows)
        # dedupe, folded over two batches as the simulators fold them
        table = np.union1d(np.unique(keys[:split]), np.unique(keys[split:]))
        distinct = mcsim._key_rows(table, total, k)
        assert len(distinct) == len({tuple(r) for r in rows.tolist()})
        assert ({tuple(r) for r in distinct.tolist()}
                == {tuple(r) for r in rows.tolist()})
        # lookup returns each row's own entry
        assert np.array_equal(distinct[np.searchsorted(table, keys)], rows)

    @given(st.data())
    def test_dedupe_lookup_and_decode(self, data):
        rows, total = composition_rows(data)
        self.check(rows, total, data.draw(st.integers(0, len(rows))))

    @pytest.mark.parametrize("example", ["bsc011_hamming",
                                         "ternary_asymmetric"])
    @pytest.mark.parametrize("size", [1, 300, mcsim.DEFAULT_BATCH])
    def test_type_table_is_unique(self, example, size):
        # the source and channel output types of draws from a shipped
        # example, at its n: the counting pass where the keys' span is
        # narrow, np.unique elsewhere, the same keys and inverse either way
        problem = load_problem_file(str(EXAMPLES / f"{example}.json"))
        src, w = problem["source"], problem["channel"]
        n = problem["sim"]["n_list"][0]
        rng = mcsim._stream(problem["sim"]["seed"], size)
        phi = EmpiricalType(np.full(w.input_size, n // w.input_size), n)
        for counts, total in [
                (mcsim._row_sampler(n, src.distribution.probs)(
                    rng, np.empty((size, src.distribution.alphabet_size),
                                  dtype=np.int64)), n),
                (mcsim._joint_sampler(phi.counts, w.matrix)(
                    rng, size).sum(axis=1), phi.n)]:
            keys = mcsim._type_keys(counts, total)
            distinct, inverse = mcsim._type_table(keys)
            want, want_inverse = np.unique(keys, return_inverse=True)
            assert distinct.dtype == want.dtype
            assert np.array_equal(distinct, want)
            assert np.array_equal(inverse, want_inverse)
            assert inverse.dtype == np.min_scalar_type(len(want) - 1)
        if size == mcsim.DEFAULT_BATCH:
            # the output types over two letters are their first counts,
            # which the counting pass takes
            assert keys.max() - keys.min() < mcsim._COUNT_SPAN * size

    @pytest.mark.parametrize("keys", [
        np.array([5, 3, 5, 2 ** 62, 0, 3]),            # a wide int64 span
        np.array([7, 7, 7]),
        np.array([-4, 9, -4, 2, 9, 9]),
        np.array([2 ** 70, 3, 2 ** 70, 2 ** 64 + 1], dtype=object),
        mcsim._type_keys(np.array([[1000] + [0] * 8, [0] * 8 + [1000],
                                   [1000] + [0] * 8]), 1000),
    ])
    def test_type_table_takes_any_keys(self, keys):
        distinct, inverse = mcsim._type_table(keys)
        want, want_inverse = np.unique(keys, return_inverse=True)
        assert np.array_equal(distinct, want)
        assert np.array_equal(inverse, want_inverse)
        assert distinct.dtype == want.dtype

    def test_type_table_ranks_past_one_byte(self):
        # 256 distinct keys: the ranks need two bytes, 255 fit in one
        for count in (255, 256, 257):
            keys = np.repeat(np.arange(count) * 3, 2)[::-1].copy()
            distinct, inverse = mcsim._type_table(keys)
            assert np.array_equal(distinct, np.arange(count) * 3)
            assert np.array_equal(distinct[inverse], keys)
            assert inverse.dtype == np.min_scalar_type(count - 1)

    @pytest.mark.parametrize("k,total", [(9, 1000), (7, 2 ** 11),
                                         (3, 2 ** 31 - 2), (2, 10 ** 9)])
    def test_int64_boundary_and_object_keys(self, k, total):
        # 1001^8 and 2049^6 overflow int64, and (2^31 - 1)^2 fits
        rng = np.random.default_rng(k)
        pool = rng.multinomial(total, np.ones(k) / k, size=5)
        pool[0] = 0
        pool[0, -1] = total
        pool[1] = 0
        pool[1, 0] = total
        self.check(pool[rng.integers(0, 5, size=40)], total, 17)


class TestFixedMarginMi:
    @pytest.mark.parametrize("m", [1, 2, 3, 10, 99, 1000, 10 ** 5])
    def test_matches_joint_mutual_information(self, m):
        rng = np.random.default_rng(m)
        xlogx = mcsim._xlogx(m)

        def sparse_laws(rows, cols):
            # about a third of the letters null: empty rows and columns
            law = rng.dirichlet(np.ones(cols), size=rows)
            law[:, rng.random(cols) < 0.3] = 0.0
            law[law.sum(axis=1) == 0, 0] = 1.0
            return law / law.sum(axis=1, keepdims=True)

        for n_x, n_y in [(1, 1), (1, 3), (2, 2), (3, 2), (4, 5)]:
            for _ in range(4):
                row_counts = rng.multinomial(m, sparse_laws(1, n_x)[0])
                w = sparse_laws(n_x, n_y)
                joint = mcsim._joint_sampler(row_counts, w)(rng, 64)
                got = mcsim._fixed_margin_mi(joint, row_counts, xlogx)
                want = probcore._joint_mutual_information(joint)
                assert np.all(np.abs(got - want) <= 1e-12)
                assert np.all(got >= 0.0)


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
        # the samples, sorted in place for the KS walk: 8 bytes per trial;
        # a sorted copy or a full-length moment temporary adds 8 more, a
        # list of batches and its concatenation 16, and full-length KS
        # temporaries 48
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
        assert (large - small) / (3 * 131_072) <= 9

    def test_rejects_no_trials(self, bsc011):
        phi = EmpiricalType(np.array([50, 50]), 100)
        with pytest.raises(DomainError):
            first_order_mi_samples(phi, bsc011, 0, 1)


class TestBatchFill:
    @pytest.mark.parametrize("trials", [5, mcsim.DEFAULT_BATCH,
                                        2 * mcsim.DEFAULT_BATCH + 17])
    def test_samples_are_the_batches_in_order(self, bsc011, monkeypatch,
                                              trials):
        # _fill_batches keeps trial order; the result holds it sorted
        batches, filled = [], []
        real_map, real_fill = mcsim._map_batches, mcsim._fill_batches

        def recording(*args):
            for values in real_map(*args):
                batches.append(values.copy())
                yield values

        def fill(*args):
            out = real_fill(*args)
            filled.append(out.copy())
            return out

        monkeypatch.setattr(mcsim, "_map_batches", recording)
        monkeypatch.setattr(mcsim, "_fill_batches", fill)
        phi = EmpiricalType(np.array([60, 40]), 100)
        src = hamming_source(0.3)
        solve = _tilted(src, 0.1)[0]
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
                filled.clear()
                samples = simulate(workers).samples
                assert samples.shape == (trials,)
                assert [b.size for b in batches] == [
                    min(mcsim.DEFAULT_BATCH, trials - a)
                    for a in range(0, trials, mcsim.DEFAULT_BATCH)]
                in_order = np.concatenate(batches)
                assert [f.tobytes() for f in filled] == [in_order.tobytes()]
                assert samples.tobytes() == np.sort(in_order).tobytes()
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

    @given(st.integers(1, 17), st.lists(st.tuples(
        st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0,
                                   0.5, -9.5, 9.5]),
                  st.integers(-40, 40).map(lambda i: i / 10.0)),
        st.integers(1, 40)), min_size=1, max_size=30))
    def test_chunk_boundaries_with_ties(self, chunk, runs):
        # runs of equal values, which sorting may merge, across chunk edges
        samples = np.repeat([v for v, _ in runs], [r for _, r in runs])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mcsim, "_KS_CHUNK", chunk)
            got = ks_distance_to_normal(samples)
        want = self.reference(samples, probcore.ndtr)
        assert got == want or (math.isnan(got) and math.isnan(want))

    @pytest.mark.parametrize("chunk", [1, 2, 3, 50, 64, 4096])
    @pytest.mark.parametrize("digits", [0, 1, 2])
    def test_rounded_samples(self, chunk, digits):
        # few distinct values, long runs: a chunk may lie inside one run
        rng = np.random.default_rng(chunk + digits)
        samples = np.round(rng.standard_normal(20_000), digits)
        samples[:3] = [np.inf, -np.inf, np.inf]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mcsim, "_KS_CHUNK", chunk)
            got = ks_distance_to_normal(samples)
        assert got == self.reference(samples, probcore.ndtr)

    @pytest.mark.parametrize("k", [2 ** 13 - 1, 2 ** 13, 2 ** 13 + 1,
                                   2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1])
    def test_around_one_chunk(self, k):
        samples = np.random.default_rng(k).standard_normal(k)
        assert ks_distance_to_normal(samples) == self.reference(
            samples, probcore.ndtr)


class TestCltResult:
    CHUNK = mcsim._KS_CHUNK
    SIZES = [2, 7, 8, 9, 127, 128, 129, CHUNK - 1, CHUNK, CHUNK + 1,
             2 * CHUNK + 7, 10 ** 6]

    @given(st.one_of(st.sampled_from(SIZES), st.integers(2, 5 * CHUNK)),
           st.integers(0, 2 ** 32 - 1), st.floats(-1e3, 1e3),
           st.floats(1e-3, 1e3),
           st.lists(st.sampled_from([math.nan, math.inf, -math.inf, 1e300]),
                    max_size=2))
    def test_moments_are_numpy_to_the_bit(self, size, seed, loc, scale,
                                          specials):
        # the variance follows numpy's pairwise split of add.reduce; any
        # other summation order differs from var() in the last bits
        rng = np.random.default_rng(seed)
        x = loc + scale * rng.standard_normal(size)
        x[rng.integers(0, size, len(specials))] = specials
        copy = x.copy()
        with np.errstate(all="ignore"):
            res = mcsim._clt_result(x, size)
            want = [float(copy.mean()), float(copy.var(ddof=1))]
        got = [res.sample_mean, res.sample_variance]
        for g, w in zip(got, want):
            assert g == w or (math.isnan(g) and math.isnan(w))
        ks = ks_distance_to_normal(copy)
        assert res.ks_statistic == ks or (
            math.isnan(res.ks_statistic) and math.isnan(ks))
        assert res.samples.tobytes() == np.sort(copy).tobytes()


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
                                     solve=_tilted(src, d_star)[0])
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

    def test_rejects_negative_seed(self, bsc011):
        phi = EmpiricalType(np.array([50, 50]), 100)
        with pytest.raises(DomainError, match="seed"):
            xi_n_violation_rate(phi, bsc011, 100, -1)

    def test_zero_letter_leaves_the_threshold_finite(self):
        # the capacity input of this channel is (1/2, 0, 1/2); a minimum
        # over every letter would be 0 and make the threshold inf
        w = Channel(np.array([[0.9, 0.1], [0.5, 0.5], [0.1, 0.9]]))
        phi = EmpiricalType(np.array([50, 0, 50]), 100)
        res = xi_n_violation_rate(phi, w, 1000, 3)
        assert res.diagnostics["threshold"] == pytest.approx(
            6 * math.log(100) / (100 * 0.5), rel=1e-15)

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


class TestSimConfig:
    def test_negative_seed_names_the_seed(self):
        # the error names the seed given, not the class lane uep_simulate
        # derives from it (-1000003 for class 0)
        with pytest.raises(DomainError, match=r"got -1$"):
            SimConfig(seed=-1, trials=10, n=128)

    @pytest.mark.parametrize("simulate", [
        lambda src, w, phi: excess_event_probability(src, w, phi, 0.1, 100,
                                                     10, -1),
        lambda src, w, phi: first_order_mi_samples(phi, w, 10, -1),
        lambda src, w, phi: first_order_jscc_samples(src, 0.1, w, phi, 100,
                                                     10, -1),
        lambda src, w, phi: xi_n_violation_rate(phi, w, 10, -1),
    ], ids=["excess", "clt-mi", "clt-jscc", "xi"])
    def test_every_simulator_checks_the_seed_first(self, simulate, bsc011,
                                                   monkeypatch):
        # refused by SimConfig before P is solved and before any draw
        calls = []
        monkeypatch.setattr(mcsim, "_stream", lambda *a: calls.append(a))
        monkeypatch.setattr(sa, "rdf", lambda *a: calls.append(a))
        phi = EmpiricalType(np.array([50, 50]), 100)
        with pytest.raises(DomainError, match=r"^seed .* got -1$"):
            simulate(hamming_source(0.25), bsc011, phi)
        assert calls == []

    @pytest.mark.parametrize("simulate", [
        lambda src, w, phi: first_order_mi_samples(phi, w, 1, 0),
        lambda src, w, phi: first_order_jscc_samples(src, 0.1, w, phi, 100,
                                                     1, 0),
    ], ids=["clt-mi", "clt-jscc"])
    def test_clt_simulators_need_two_trials(self, simulate, bsc011,
                                            monkeypatch):
        # one trial has no sample variance: refused before D* is solved
        # and before any draw
        calls = []
        monkeypatch.setattr(mcsim, "_stream", lambda *a: calls.append(a))
        monkeypatch.setattr(sa, "_tilted", lambda *a: calls.append(a))
        phi = EmpiricalType(np.array([50, 50]), 100)
        with pytest.raises(DomainError, match=r"trials >= 2; got 1$"):
            simulate(hamming_source(0.25), bsc011, phi)
        assert calls == []


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
        # acceptance criterion 09's configuration. The per-trial decoder
        # that the per-type simulator replaced gave (0.1679, 0.0244, 0.1891)
        # and (0.1649, 0.0231, 0.1853) from numpy's binomial draws; the
        # inverse-CDF rows, an independent stream, give these, each within
        # 4 sqrt(2) standard errors of the old value
        n = 128
        phi = EmpiricalType(np.array([64, 64]), n)
        gamma = union_bound_gamma(n, 2)
        rate = uep_dispersion_rate(phi, bsc011, 0.2, gamma)
        cfg = UepConfig(rates=(rate, rate), input_types=(phi, phi), gamma=gamma)
        res = uep_simulate(cfg, bsc011,
                           SimConfig(seed=20240917, trials=10_000, n=n))
        got = [(c.e1.estimate, c.e2.estimate, c.overall.estimate)
               for c in res.classes]
        assert got == [(0.1694, 0.0238, 0.1902), (0.1592, 0.0228, 0.1786)]


def two_pass_uep(cfg, w, sim):
    """[(e1, e2, overall) per class] by the plain two passes: fold every
    class's and batch's output-type keys into one table and solve P(E2) on
    it, summing the competitor classes with ``.sum(axis=1)``, then redraw
    each batch and look every trial's key up in the table."""
    m, k, size = sim.n, cfg.class_count, mcsim.DEFAULT_BATCH
    batches = [(b, min(size, sim.trials - b * size))
               for b in range(-(-sim.trials // size))]

    def joint(i, b, t):
        rng = mcsim._stream(uep.seed_for_class(sim.seed, i), b)
        return rng, reference_joint(cfg.input_types[i].counts, w.matrix,
                                    rng, t)

    table = reduce(np.union1d, (
        np.unique(mcsim._type_keys(joint(i, b, t)[1].sum(axis=1), m))
        for i in range(k) for b, t in batches))
    types = mcsim._key_rows(table, m, w.output_size).tolist()
    log_hit = np.array([[_mi_tail_log_prob(tuple(int(c) for c in e.counts),
                                           tuple(y), r + cfg.gamma)
                         for y in types]
                        for e, r in zip(cfg.input_types, cfg.rates)])
    log_miss = np.log1p(-np.exp(log_hit), out=np.full_like(log_hit, -np.inf),
                        where=log_hit < 0.0)
    n_eff = np.array([[float(n_j - (i == j)) for j, n_j in
                       enumerate(cfg.codewords_per_class())]
                      for i in range(k)])[:, :, None]
    log_none = np.multiply(n_eff, log_miss[None],
                           out=np.zeros((k, k, len(types))), where=n_eff > 0)
    p_e2 = -np.expm1(log_none.sum(axis=1))
    xlogx, out = mcsim._xlogx(m), []
    for i, etype in enumerate(cfg.input_types):
        e1 = e2 = both = 0
        for b, t in batches:
            rng, counts = joint(i, b, t)
            u = rng.random(t)
            hit1 = (mcsim._fixed_margin_mi(counts, etype.counts, xlogx)
                    - cfg.rates[i] < cfg.gamma)
            hit2 = u < p_e2[i, np.searchsorted(
                table, mcsim._type_keys(counts.sum(axis=1), m))]
            e1, e2 = e1 + int(hit1.sum()), e2 + int(hit2.sum())
            both += int((hit1 | hit2).sum())
        out.append((e1, e2, both))
    return out


def equal_classes(k, m=64, eps=0.2):
    """k classes of the balanced type at the dispersion rate for eps, with
    the union-bound threshold, on bsc(0.11)."""
    phi = EmpiricalType(np.array([m // 2, m // 2]), m)
    gamma = union_bound_gamma(m, k)
    rate = uep_dispersion_rate(phi, bsc(0.11), eps, gamma)
    return UepConfig(rates=(rate,) * k, input_types=(phi,) * k, gamma=gamma)


class TestUepSinglePass:
    CONFIGS = {
        "one": equal_classes(1),
        "two": equal_classes(2),
        "three": equal_classes(3),
        # different types and rates
        "mixed": UepConfig(rates=(0.1, 0.05), input_types=(
            EmpiricalType(np.array([32, 32]), 64),
            EmpiricalType(np.array([40, 24]), 64)), gamma=0.05),
    }

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_matches_two_pass_reference(self, monkeypatch, name, workers):
        # windows of 2 batches: 5 batches and 17 trials make 3 windows
        monkeypatch.setattr(mcsim, "_TYPE_WINDOW", 2)
        cfg, w = self.CONFIGS[name], bsc(0.11)
        sim = SimConfig(seed=11, trials=5 * mcsim.DEFAULT_BATCH + 17, n=64)
        res = uep_simulate(cfg, w, sim, workers)
        want = two_pass_uep(cfg, w, sim)
        assert [(c.e1.estimate, c.e2.estimate, c.overall.estimate)
                for c in res.classes] == [
            tuple(x / sim.trials for x in row) for row in want]
        assert all(0 < e2 < sim.trials for _, e2, _ in want)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_draws_each_stream_once(self, monkeypatch, workers):
        calls = []
        stream = mcsim._stream

        def recorded(seed, batch_index):
            calls.append((seed, batch_index))
            return stream(seed, batch_index)

        monkeypatch.setattr(mcsim, "_stream", recorded)
        uep_simulate(equal_classes(3), bsc(0.11),
                     SimConfig(seed=5, trials=3 * mcsim.DEFAULT_BATCH + 1,
                               n=64), workers)
        assert sorted(calls) == [(uep.seed_for_class(5, i), b)
                                 for i in range(3) for b in range(4)]

    @pytest.mark.parametrize("k", [2, 12])
    def test_p_e2_does_not_depend_on_its_batch(self, k):
        # one output type solved alone and among all 65 binary ones; classes
        # of two types and three rates
        types = (EmpiricalType(np.array([32, 32]), 64),
                 EmpiricalType(np.array([40, 24]), 64))
        cfg = UepConfig(rates=tuple(0.02 + 0.02 * (i % 3) for i in range(k)),
                        input_types=tuple(types[i % 2] for i in range(k)),
                        gamma=0.05)
        rows = np.array([[y, 64 - y] for y in range(65)])
        together = uep._p_e2(cfg, rows)
        assert together.shape == (k, 65)
        assert ((0 < together) & (together < 1)).any()
        for t in range(65):
            alone = uep._p_e2(cfg, rows[t:t + 1])
            assert alone.tobytes() == together[:, t:t + 1].tobytes()

    def test_memory_does_not_grow_with_trials(self):
        # per-trial state is kept for one window of batches at a time
        cfg = equal_classes(1)

        def peak(trials):
            tracemalloc.start()
            try:
                uep_simulate(cfg, bsc(0.11), SimConfig(seed=5, trials=trials,
                                                       n=64))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # one-time allocations of the first call
        assert peak(4 * 131_072) <= 1.5 * peak(131_072)


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
                              cap=20)

    def test_cap_counts_tables_not_words(self):
        # |T_Q| = C(40, 20) is far past the default cap, but all-zero s_hat
        # leaves one free cell, so at most 21 tables
        q = EmpiricalType(np.array([20, 20]), 40)
        got = dball_count_exact(q, np.zeros(40, dtype=int), HAMMING, 0.5)
        assert got == math.comb(40, 20) == 137_846_528_820

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


def brute_force_tail(rows, cols, threshold):
    """Independent oracle: the tail over every distinct word of the row
    type, paired against the fixed word 0..0 1..1 2..2 of the column type."""
    fixed = np.repeat(np.arange(len(cols)), cols)
    word = np.repeat(np.arange(len(rows)), rows)
    hits = total = 0
    for perm in set(itertools.permutations(word.tolist())):
        joint = np.zeros((len(rows), len(cols)))
        np.add.at(joint, (np.array(perm), fixed), 1)
        total += 1
        hits += probcore._joint_mutual_information(joint) >= threshold - 1e-12
    return math.log(hits / total) if hits else -math.inf


class TestArrangementSum:
    @given(st.data())
    def test_all_tables_give_the_type_class(self, data):
        # summed over every table, the arrangements are the whole class
        k, l = data.draw(st.integers(2, 4)), data.draw(st.integers(2, 4))
        n = data.draw(st.integers(0, 12))
        rows = np.bincount(data.draw(st.lists(st.integers(0, k - 1),
                                              min_size=n, max_size=n)),
                           minlength=k).tolist()
        cols = np.bincount(data.draw(st.lists(st.integers(0, l - 1),
                                              min_size=n, max_size=n)),
                           minlength=l).tolist()
        got = uep._arrangement_sum(rows, cols, 10 ** 7,
                                     lambda t: np.ones(len(t), dtype=bool))
        assert got == uep._multinomial(rows)

    @pytest.mark.parametrize("rows,cols,thr", [
        ((2, 2, 3), (3, 2, 2), 0.3),
        ((2, 2, 3), (3, 2, 2), 0.7),
        ((3, 2, 2), (1, 3, 3), 0.6),
        ((1, 2, 3), (2, 2, 2), 0.4),
        ((2, 2, 2), (4, 1, 1), 0.5),
        ((2, 2, 2), (4, 1, 1), 0.8),    # no table scores
        ((3, 3, 1), (2, 2, 3), 0.2),
    ])
    def test_ternary_tail_matches_brute_force(self, rows, cols, thr):
        got = _mi_tail_log_prob(rows, cols, thr)
        want = brute_force_tail(rows, cols, thr)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("block", [1, 7])
    def test_block_boundaries(self, block):
        # the blocks only split the enumeration: same exact counts
        q = EmpiricalType(np.array([4, 3, 2]), 9)
        s_hat = np.array([0, 1, 2, 0, 1, 2, 0, 0, 1])
        dmat = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.3], [0.5, 1.7, 0.0]])
        want = [dball_count_exact(q, s_hat, dmat, d) for d in (0.2, 0.4)]
        tail = _mi_tail_log_prob((4, 3, 2), (3, 3, 3), 0.3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(uep, "_TABLE_BLOCK", block)
            assert [dball_count_exact(q, s_hat, dmat, d)
                    for d in (0.2, 0.4)] == want
            assert _mi_tail_log_prob((4, 3, 2), (3, 3, 3), 0.3) == tail
        assert 0 < want[0] < want[1] < type_class_size(q)
        assert -math.inf < tail < 0.0

    def test_long_binary_column_is_fast(self):
        # one table: no factorial table over 0..n
        q = EmpiricalType(np.array([19999, 1]), 20000)
        start = time.perf_counter()
        got = dball_count_exact(q, np.zeros(20000, dtype=int), HAMMING, 0.5)
        assert got == 20000
        assert time.perf_counter() - start < 1.0

    def test_row_margins_bound_the_compositions(self):
        # a column of 55 over six rows: 32 compositions within the rows,
        # C(60, 5) without them
        tracemalloc.start()
        try:
            start = time.perf_counter()
            got = _mi_tail_log_prob((1, 1, 1, 1, 1, 55), (55, 5, 0), 0.05)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0 and peak < 8 * 2 ** 20
        # oracle: j of the five singleton letters meet column 1, in
        # C(5, j) perm(55, 5 - j) perm(5, j) words of perm(60, 5)
        hits = 0
        for j in range(6):
            table = np.zeros((6, 3))
            table[j:5, 0], table[:j, 1], table[5] = 1, 1, (50 + j, 5 - j, 0)
            if probcore._joint_mutual_information(table) >= 0.05 - 1e-12:
                hits += math.comb(5, j) * math.perm(55, 5 - j) * math.perm(5, j)
        assert got == pytest.approx(math.log(hits / math.perm(60, 5)),
                                    rel=1e-12)


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


PHI = EmpiricalType(np.array([50, 50]), 100)
PHI3 = EmpiricalType(np.array([40, 30, 30]), 100)  # off a binary channel


class TestRefusals:
    @pytest.mark.parametrize("call,error,message", [
        (lambda w: sample_source_block(bernoulli(0.5), 0, stream(0)),
         DomainError, "n must be positive"),
        (lambda w: sample_channel_output([2], w, stream(0)),
         SymbolOutOfRange, "channel input symbols"),
        (lambda w: excess_event_probability(hamming_source(0.25), w, PHI3,
                                            0.1, 100, 10, 0),
         DomainError, "phi_m must live on the channel input alphabet"),
        (lambda w: first_order_mi_samples(PHI3, w, 10, 0),
         DomainError, "phi_n must live on the channel input alphabet"),
        (lambda w: first_order_jscc_samples(hamming_source(0.25), 0.1, w,
                                            PHI3, 100, 10, 0),
         DomainError, "phi_m must live on the channel input alphabet"),
        (lambda w: xi_n_violation_rate(PHI3, w, 10, 0),
         DomainError, "phi_n must live on the channel input alphabet"),
        (lambda w: uep_simulate(UepConfig((0.0,), (PHI3,)), w,
                                SimConfig(0, 10, 100)),
         DomainError, "class types must live on the channel input alphabet"),
        # V_S = 0 for the fair source and V = 0 for the noiseless channel
        (lambda w: first_order_jscc_samples(hamming_source(0.5), 0.1,
                                            Channel(np.eye(2)), PHI, 100,
                                            10, 0),
         ZeroVariance, "vanishing variance"),
        (lambda w: uep_dispersion_rate(PHI, w, 1.0),
         DomainError, "eps must lie in"),
        (lambda w: uep_dispersion_rate(PHI, w, 0.1, gamma=1.0),
         DomainError, "block is too short"),
        (lambda w: UepConfig((0.1, 0.1), (PHI,)),
         DomainError, "one rate per input type"),
        (lambda w: UepConfig((-0.1,), (PHI,)),
         DomainError, "rates must be nonnegative"),
        (lambda w: UepConfig((0.1, 0.1),
                             (PHI, EmpiricalType(np.array([25, 25]), 50))),
         DomainError, "share the block length"),
        (lambda w: UepConfig((8.0,), (PHI,)).codewords_per_class(),
         EnumerationTooLarge, "overflows a float"),
        (lambda w: uep_simulate(UepConfig((0.0,), (PHI,)), w,
                                SimConfig(0, 10, 50)),
         DomainError, "class types have n=100, the simulation n=50"),
        (lambda w: dball_count_exact(EmpiricalType(np.array([5, 5]), 10),
                                     np.zeros(9, dtype=int), HAMMING, 0.5),
         LengthMismatch, "s_hat has length 9, expected 10"),
        (lambda w: dball_count_exact(EmpiricalType(np.array([5, 5]), 10),
                                     np.full(10, 2), HAMMING, 0.5),
         SymbolOutOfRange, r"s_hat contains symbols outside \[0, 2\)"),
        (lambda w: dball_count_exact(EmpiricalType(np.array([4, 3, 3]), 10),
                                     np.zeros(10, dtype=int), HAMMING, 0.5),
         DomainError, "type alphabet does not match"),
        (lambda w: dball_count_exact(EmpiricalType(np.array([5, 5]), 10),
                                     np.zeros(10, dtype=int), HAMMING, -0.1),
         DomainError, "^distortion level must be nonnegative; got -0.1$"),
        (lambda w: mi_continuity_check(bernoulli(0.4), bernoulli(0.3), w,
                                       0.05),
         DomainError, "exceeds delta"),
        (lambda w: ks_distance_to_normal(np.zeros((2, 500))),
         DomainError, r"1-D array of samples; got shape \(2, 500\)$"),
    ], ids=["source-block-n", "channel-output-symbols", "excess-alphabet",
            "clt-mi-alphabet", "clt-jscc-alphabet", "xi-alphabet",
            "uep-alphabet", "clt-jscc-zero-variance", "uep-rate-eps",
            "uep-rate-negative", "uep-config-classes", "uep-config-rates",
            "uep-config-block-length", "uep-config-overflow",
            "uep-block-length", "dball-length", "dball-symbols",
            "dball-alphabet", "dball-negative-d", "mi-cont-gap",
            "ks-two-dimensional"])
    def test_refuses(self, call, error, message, bsc011):
        with pytest.raises(error, match=message):
            call(bsc011)

    # a NaN fails every comparison, so each range check is written to
    # hold only for a value inside its range
    @pytest.mark.parametrize("call,error,message", [
        (lambda w: UepConfig((0.1,), (PHI,), gamma=math.nan),
         DomainError, "^gamma must be finite; got nan$"),
        (lambda w: UepConfig((math.nan,), (PHI,)),
         DomainError, "^rates must be nonnegative"),
        (lambda w: uep_dispersion_rate(PHI, w, 0.1, gamma=math.nan),
         DomainError, "gamma=nan"),
        (lambda w: mi_continuity_check(bernoulli(0.4), bernoulli(0.4), w,
                                       math.nan),
         DeltaTooLarge, "^delta = nan outside"),
        (lambda w: dball_count_exact(EmpiricalType(np.array([5, 5]), 10),
                                     np.zeros(10, dtype=int), HAMMING,
                                     math.nan),
         DomainError, "^distortion level must be nonnegative; got nan$"),
    ], ids=["uep-config-gamma", "uep-config-rates", "uep-rate-gamma",
            "mi-cont-delta", "dball-d"])
    def test_refuses_nan(self, call, error, message, bsc011):
        with pytest.raises(error, match=message):
            call(bsc011)
