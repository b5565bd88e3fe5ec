"""Monte-Carlo and exact-enumeration validation of the dispersion claims.

Simulations are organized around empirical types: for a fixed
constant-composition input word only the joint counts matter, so trials
sample sufficient counts (multinomials) instead of symbol sequences, which
has the identical law and vectorizes across trials.

Reproducibility contract: trials are grouped into fixed-size batches
(``DEFAULT_BATCH``); batch b draws from a Philox stream keyed by
(seed, b). Workers consume whole batches and aggregation is associative
and order-fixed, so results are bit-identical for any worker count.
Because sampling never depends on swept parameters (thresholds, distortion
levels), a shared seed acts as common random numbers across a sweep.

The excess-event and UEP simulators need a per-type quantity for every
type a run draws: R(P_S, D) of each source type, P(E2) of each channel
output type. A type is one integer key (``_type_keys``: its counts as
digits in base n + 1, int64 while they fit, Python ints otherwise). Both
draw each batch once, in one ``_map_batches`` call per run; a batch
returns its sorted distinct keys, each trial's index into them and its
per-trial values. Per window of ``_TYPE_WINDOW`` batches, ``_per_type``
solves the keys the run's sorted table does not hold yet in one call and
merges them in, so each distinct type is solved once per call and a run
holds its table and one window of per-trial arrays; no batch of the next
window is drawn while one is held. The empirical MI of a sampled joint,
whose row margins are the fixed input type, comes from a k log k table
over 0..m built once per call (``_fixed_margin_mi``).

Little besides the draws themselves runs per batch. A count row over two
letters is one uniform per trial, turned into its first count by inverse
CDF on an exact table of the binomial (``_binomial_table``), within 2^-64
of the binomial law in total variation; wider rows take
``rng.multinomial``. The tables are built once per simulator call, in the
calling thread before its batches, by ``_row_sampler`` and
``_joint_sampler``, whose draws write into the batch's count arrays in
place. Per-trial sums over the cells of a table are one left fold of cell
columns (``_cell_sum``), not a reduction over two short axes. Batches
hold 16,384 trials, so that each numpy call is long enough for threads to
overlap, and ``_map_batches`` keeps at most ``_LOOKAHEAD`` batches per
thread submitted and not yet consumed.

Exact counts are one ``_arrangement_sum`` call each: it builds the joint
tables with fixed margins from per-column ``_compositions``, in blocks of
``_TABLE_BLOCK``, and sums the arrangements of those a vectorized predicate
keeps (the D-ball count: within the distortion budget; the UEP tail: at or
above the threshold), with one multinomial per distinct column key.

The CLT simulators keep one float64 per trial: each batch's values are
written into their slice of one preallocated array, in trial order. The
sample mean and variance are taken from it in that order, the variance in
leaves of at most ``_KS_CHUNK`` samples split as numpy splits its pairwise
sum (``_sq_dev_sum``), so both are numpy's to the bit. The array is then
sorted in place and the KS distance walks it in chunks of ``_KS_CHUNK``
samples, so a CLT run holds one float64 per trial plus a constant.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from itertools import islice

import numpy as np

from . import source as sa
from .channel import conditional_information_variance, mutual_information
from .errors import (
    DeltaTooLarge,
    DomainError,
    EnumerationTooLarge,
    LengthMismatch,
    RateCapViolated,
    SymbolOutOfRange,
    ZeroVariance,
)
from .probcore import (
    Channel,
    DEFAULT_ENUMERATION_CAP,
    Distribution,
    EmpiricalType,
    _as_symbols,
    _compositions,
    _joint_mutual_information,
    _log_ratio,
    entropy,
    ndtr,
    q_inverse,
)
from .source import SourceSpec

DEFAULT_BATCH = 16384

# Phi on a grid over [-9, 9] for the KS statistic: linear interpolation of
# it is within h^2/8 * max|Phi''| + Phi(-9) of Phi, h the grid step and
# max|Phi''| = phi(1), the second term for the clamping outside the grid.
_KS_GRID = np.linspace(-9.0, 9.0, 4097)
_KS_GRID_CDF = ndtr(_KS_GRID)
_KS_INTERP_ERR = ((_KS_GRID[1] - _KS_GRID[0]) ** 2 / 8.0
                  * math.exp(-0.5) / math.sqrt(2.0 * math.pi)
                  + float(_KS_GRID_CDF[0]))
# samples per step of the KS walk and per leaf of the variance sum; bounds
# their temporaries
_KS_CHUNK = 1 << 13
_TABLE_BLOCK = 1 << 16   # (table, column) pairs per step of an exact count
# batches of a run whose new types are solved together (``_per_type``)
_TYPE_WINDOW = 8
# batches submitted to a thread pool and not yet yielded, per thread
_LOOKAHEAD = 2


@dataclass(frozen=True)
class SimConfig:
    """Common simulation knobs: seed, trial count and block length, and
    the one check of seed, trials and n for every simulator (the CLT
    simulators then ask for two trials, for their sample variance)."""

    seed: int
    trials: int
    n: int

    def __post_init__(self):
        if self.seed < 0:
            raise DomainError(
                f"seed must be a nonnegative integer; got {self.seed}")
        if self.trials < 1 or self.n < 1:
            raise DomainError("trials and n must be positive")


@dataclass(frozen=True)
class SimResult:
    """A Monte-Carlo estimate of a probability: the fraction of ``trials``
    in which the event occurred, its binomial standard error, and the
    simulator's ``diagnostics``."""

    estimate: float
    std_error: float
    trials: int
    diagnostics: dict = field(default_factory=dict)


def _binomial_result(successes: int, trials: int, **diag) -> SimResult:
    est = successes / trials
    return SimResult(
        estimate=est,
        std_error=math.sqrt(est * (1.0 - est) / trials),
        trials=trials,
        diagnostics=dict(diag),
    )


# ---------------------------------------------------------------------------
# Seeding and batching
# ---------------------------------------------------------------------------

def _stream(seed: int, batch_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((seed, batch_index)))
    )


def _map_batches(fn, trials: int, workers: int, window: int = 0):
    """fn(batch_index, size) over every batch of ``DEFAULT_BATCH`` trials
    (the last may be shorter), yielded in batch order. At most
    min(workers, batches, ``os.cpu_count()``) threads run them, and at most
    ``_LOOKAHEAD`` batches per thread are submitted and not yet yielded, so
    the threads draw ahead of a slow consumer by a bounded amount and a
    caller that folds the results holds few of them at a time. With
    ``window``, no batch of a window of that many batches is submitted
    before every batch of the window before it has been yielded, so a
    caller that holds a whole window (``_per_type``) holds no batch in
    flight beside it. The results do not depend on the thread count."""
    batches = [(b, min(DEFAULT_BATCH, trials - b * DEFAULT_BATCH))
               for b in range((trials + DEFAULT_BATCH - 1) // DEFAULT_BATCH)]
    workers = min(workers, len(batches), os.cpu_count() or 1)
    if workers <= 1:
        yield from (fn(b, size) for b, size in batches)
        return
    # imported here: a run that starts no pool never loads the module
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for b, size in batches:
            while pending and (len(pending) == _LOOKAHEAD * workers
                               or window and b % window == 0):
                yield pending.popleft().result()
            pending.append(pool.submit(fn, b, size))
        while pending:
            yield pending.popleft().result()


def _fill_batches(fn, trials: int, workers: int) -> np.ndarray:
    """The per-trial values of fn(batch_index, size) over every batch, each
    batch written into its slice of one array, in trial order."""
    out = np.empty(trials)
    start = 0
    for values in _map_batches(fn, trials, workers):
        out[start:start + values.size] = values
        start += values.size
    return out


# ---------------------------------------------------------------------------
# Type keys and fixed-margin mutual information
# ---------------------------------------------------------------------------

def _type_keys(counts: np.ndarray, total: int) -> np.ndarray:
    """One integer key per count row of ``counts`` (last axis), every row
    summing to ``total``: the first |A| - 1 counts as digits in base
    total + 1, the row sum fixing the last count. The keys are int64 when
    (total + 1)^(|A| - 1) < 2^63 and Python ints in an object array
    otherwise; ``np.unique``, ``np.union1d`` and ``np.searchsorted`` take
    either."""
    base = int(total) + 1   # a Python int: base ** (|A| - 1) must not wrap
    wide = base ** (counts.shape[-1] - 1) >= 2 ** 63
    keys = np.zeros(counts.shape[:-1], dtype=object if wide else np.int64)
    for digit in np.moveaxis(counts[..., :-1], -1, 0):
        keys *= base
        keys += digit
    return keys


def _key_rows(keys: np.ndarray, total: int, letters: int) -> np.ndarray:
    """The int64 count rows over ``letters`` letters that ``_type_keys``
    gave ``keys`` for at this ``total``."""
    rows = np.empty((len(keys), letters), dtype=np.int64)
    base = int(total) + 1
    for a in range(letters - 2, -1, -1):
        rows[:, a] = keys % base
        keys = keys // base
    rows[:, -1] = total - rows[:, :-1].sum(axis=1)
    return rows


def _per_type(draw, trials: int, workers: int, solve, count):
    """The sum of count(batch, values) over the batches of
    ``_map_batches(draw, trials, workers)``, ``values`` those of the
    batch's keys (its first item, sorted and distinct). Per window of
    ``_TYPE_WINDOW`` batches, ``solve(new)`` gives the values (keys on the
    last axis) of the keys the run's sorted table does not hold yet, which
    are merged into it. No batch of the next window is drawn while a
    window is held, and a window is released before the next one is
    drawn."""
    batches = _map_batches(draw, trials, workers, _TYPE_WINDOW)
    table = values = None
    total = 0
    for window in iter(lambda: list(islice(batches, _TYPE_WINDOW)), []):
        keys = reduce(np.union1d, (batch[0] for batch in window))
        if table is None:
            table, values = keys, solve(keys)
        else:
            new = np.setdiff1d(keys, table, assume_unique=True)
            if new.size:
                at = np.searchsorted(table, new)
                table = np.insert(table, at, new)
                values = np.insert(values, at, solve(new), axis=-1)
        total += sum(count(b, values[..., np.searchsorted(table, b[0])])
                     for b in window)
        window.clear()
    return total


def _xlogx(m: int) -> np.ndarray:
    """k log k for k = 0..m, with 0 log 0 = 0: the table of
    ``_fixed_margin_mi`` for tables of total m."""
    k = np.arange(m + 1, dtype=np.float64)
    return k * _log_ratio(k, 1.0)


def _fixed_margin_mi(joint: np.ndarray, row_counts: np.ndarray,
                     xlogx: np.ndarray) -> np.ndarray:
    """The empirical MI of count tables (B, rows, cols) whose rows all sum
    to ``row_counts``, total m, floored at 0: with L[k] = k log k from
    ``xlogx`` = ``_xlogx(m)``, m I = sum L[N_xy] - sum_y L[c_y]
    - sum_x L[r_x] + L[m], c the column sums. Both per-trial sums are
    ``_cell_sum`` folds of gathered cell columns (the cells in row-major
    order), and each c_y a left fold of its column's counts; the rest is
    done in place on the cell sum. Agrees with ``_joint_mutual_information``
    of the same tables to rounding."""
    m = int(row_counts.sum())
    fixed = xlogx[m] - xlogx[row_counts].sum()
    cols = _cell_sum(xlogx[reduce(np.add, c)] for c in joint.T)
    mi = _cell_sum(xlogx[c] for r in joint.transpose(1, 2, 0) for c in r)
    mi -= cols
    mi += fixed
    mi /= m
    return np.maximum(mi, 0.0, out=mi)


# ---------------------------------------------------------------------------
# Elementary samplers
# ---------------------------------------------------------------------------

def sample_source_block(p: Distribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. symbols from p, by inverse CDF on rng.random."""
    if n < 1:
        raise DomainError("n must be positive")
    cdf = np.cumsum(p.probs)
    u = rng.random(n)
    return np.minimum(
        np.searchsorted(cdf, u, side="right"), p.alphabet_size - 1
    ).astype(np.int64)


def sample_channel_output(x, w: Channel, rng: np.random.Generator) -> np.ndarray:
    """Independent per-position draws from the rows W(. | x_i), by inverse
    CDF on rng.random: the first letter whose CDF exceeds u, as in
    ``sample_source_block``, so a zero-probability letter is never drawn."""
    xa = np.asarray(x, dtype=np.int64)
    if np.any(xa < 0) or np.any(xa >= w.input_size):
        raise SymbolOutOfRange("channel input symbols out of range")
    cdf = np.cumsum(w.matrix, axis=1)[xa]
    u = rng.random(xa.size)
    return np.minimum(
        (cdf <= u[:, None]).sum(axis=1), w.output_size - 1
    ).astype(np.int64)


def _binomial_table(total: int, p0: float):
    """(lo, cdf, guide) of Binomial(total, p0), the law of the first count
    of a two-letter row.

    ``cdf[i]`` is P[K <= lo + i | lo <= K <= lo + len(cdf) - 1], in
    float64, its last entry exactly 1.0. The window is the mean plus or
    minus t, t = c/3 + sqrt(c^2/9 + 2 c sigma^2) with c = 46 and sigma^2 =
    total p0 (1 - p0): by Bernstein's inequality each tail beyond it has
    mass at most exp(-c) < 2^-66, so the law drawn from the table is
    within 2^-64 of the binomial in total variation, and the table holds
    O(sigma + 1) entries. The pmf comes from the cumulative log-ratios
    log((total - k) / (k + 1) * p0 / (1 - p0)) across the window,
    exponentiated relative to their maximum and normalized.

    ``guide`` has 2^j >= 16 (sigma + 1) buckets, ``guide[i]`` the number of
    entries with ``cdf <= i / 2^j``: for u in bucket i, the index
    ``searchsorted(cdf, u, side="right")`` is at least ``guide[i]``."""
    if p0 <= 0.0 or p0 >= 1.0:
        # all the mass on one count, which every uniform selects
        lo, cdf, sigma = (0 if p0 <= 0.0 else total), np.ones(1), 0.0
    else:
        sigma = math.sqrt(total * p0 * (1.0 - p0))
        c = 46.0
        t = c / 3.0 + math.sqrt(c * c / 9.0 + 2.0 * c * sigma * sigma)
        lo = max(0, math.floor(total * p0 - t))
        hi = min(total, math.ceil(total * p0 + t))
        # in place, so that the build holds at most two window-long arrays
        k = np.arange(lo, hi, dtype=np.float64)
        ratio = total - k
        ratio /= np.add(k, 1.0, out=k)
        del k
        np.log(ratio, out=ratio)
        ratio += math.log(p0) - math.log1p(-p0)
        cdf = np.empty(hi - lo + 1)
        cdf[0] = 0.0
        np.cumsum(ratio, out=cdf[1:])
        del ratio
        cdf -= cdf.max()
        np.cumsum(np.exp(cdf, out=cdf), out=cdf)
        cdf /= cdf[-1]
    buckets = 1 << max(4, math.ceil(math.log2(16.0 * (sigma + 1.0))))
    grid = np.arange(buckets, dtype=np.float64)
    grid /= buckets
    return lo, cdf, np.searchsorted(cdf, grid, side="right")


def _row_sampler(total: int, probs: np.ndarray):
    """draw(rng, out): fills the count rows ``out`` (trials, letters), each
    a Multinomial(total, probs) draw, and returns it.

    A law over two letters draws one uniform u per trial and takes its
    first count by inverse CDF on the ``_binomial_table`` of total and
    probs[0], built here once: lo + ``searchsorted(cdf, u, side="right")``,
    total minus it in the other letter. The guide bucket of u gives that
    index at once unless a CDF entry lies in the bucket below u; those few
    trials are finished by ``searchsorted``, so the counts do not depend on
    the guide, and a letter of probability 0 is never drawn. Their law is
    the binomial within 2^-64 in total variation. Wider laws take
    ``rng.multinomial``."""
    if len(probs) != 2:
        def draw(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
            out[...] = rng.multinomial(total, probs, size=len(out))
            return out

        return draw
    lo, cdf, guide = _binomial_table(total, float(probs[0]))
    buckets = len(guide)

    def draw(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        u = rng.random(len(out))
        k = out[:, 0]
        # each uniform's bucket, then the guide's index for it
        np.multiply(u, buckets, out=k, casting="unsafe")
        k[...] = guide[k]
        late = np.flatnonzero(cdf[k] <= u)
        k[late] = np.searchsorted(cdf, u[late], side="right")
        k += lo
        np.subtract(total, k, out=out[:, 1])
        return out

    return draw


def _joint_sampler(row_counts: np.ndarray, w_mat: np.ndarray):
    """draw(rng, size): the joint (X,Y) counts (size, |X|, |Y|) of ``size``
    trials of a fixed input word of type ``row_counts``. For each input
    symbol a, the output counts are Multinomial(r_a, W_a), independently,
    drawn by its ``_row_sampler`` (built here once) into the table's row a,
    in ascending symbol order; a row with r_a = 0 stays zero."""
    n_x, n_y = w_mat.shape
    rows = [(a, _row_sampler(int(r_a), w_mat[a]))
            for a, r_a in enumerate(row_counts) if r_a > 0]

    def draw(rng: np.random.Generator, size: int) -> np.ndarray:
        joint = np.zeros((size, n_x, n_y), dtype=np.int64)
        for a, row in rows:
            row(rng, joint[:, a, :])
        return joint

    return draw


def _cell_sum(cells) -> np.ndarray:
    """The per-trial sum of the cell columns ``cells``, each one value per
    trial, as one left fold from 0.0 in the order given. Over a table's
    cells in row-major order this is how numpy's ``.sum(axis=(1, 2))`` adds
    a table of under 8 cells, so the sums are bitwise equal to it there;
    from 8 cells numpy sums pairwise, and the two differ by rounding, at
    most (cells - 1) * 2^-52 of the sum of the cells' magnitudes. It avoids
    the reduction over two short axes, which costs several times the
    arithmetic. After the first cell the fold adds in place, and each cell
    is dropped before the next is made, so it holds one running sum and
    one cell."""
    cells = iter(cells)
    total = 0.0 + next(cells, 0.0)
    for cell in cells:
        total += cell
        del cell
    return total


# ---------------------------------------------------------------------------
# Excess-distortion event (Lemma-level simulation)
# ---------------------------------------------------------------------------

def excess_event_probability(src: SourceSpec, w: Channel, phi_m: EmpiricalType,
                             d: float, n: int, trials: int, seed: int,
                             workers: int = 1) -> SimResult:
    """Estimate P[ R(P_S, d) > rho * I(Phi_m, P_{Y|x}) ].

    Per trial the source type is a Multinomial(n, P) draw and the channel
    conditional type comes from a fixed word of type phi_m; rho is realized
    as m/n with m = phi_m.n. A batch draws the source counts, then the
    channel counts, and returns its distinct source keys, each trial's
    index into them and each trial's rho times its ``_fixed_margin_mi``;
    new types are solved with the slope search started at the slope of
    ``rdf`` at P and d, which refuses a negative or NaN d and names P when
    its solve fails. A window of 8 batches holds, per trial, an index byte
    (two past 256 types in a batch) and one float64, at most 1.3 MB for its
    131,072 trials, and no thread draws while it is held. Every type at or
    above its d_max has rate 0 and every type at D within 1e-12 of 0 takes
    the zero-distortion solve, so a type has no rate only when its solve
    failed; such a type counts as excess, and its trials are reported as
    ``boundary_trials`` in the diagnostics.
    """
    SimConfig(seed, trials, n)
    if phi_m.alphabet_size != w.input_size:
        raise DomainError("phi_m must live on the channel input alphabet")
    m = phi_m.n
    rho_eff = m / n
    p = src.distribution.probs
    row_counts = phi_m.counts

    start = sa.rdf(src, d, 1e-10).lagrange_slope
    xlogx = _xlogx(m)
    src_rows = _row_sampler(n, p)
    chan = _joint_sampler(row_counts, w.matrix)

    def draw(batch_index: int, size: int):
        rng = _stream(seed, batch_index)
        keys, inverse = np.unique(
            _type_keys(src_rows(rng, np.empty((size, p.size),
                                              dtype=np.int64)), n),
            return_inverse=True)
        inverse = inverse.astype(np.min_scalar_type(len(keys) - 1))
        bar = _fixed_margin_mi(chan(rng, size), row_counts, xlogx)
        bar *= rho_eff
        return keys, inverse, bar

    def solve(new):
        return sa._rdf_rates(_key_rows(new, n, p.size) / n, src.distortion,
                             d, 1e-10, start)

    def count(batch, rates):
        # NaN marks a failed solve and counts as excess
        _, inverse, bar = batch
        r_t = rates[inverse]
        undefined = np.isnan(r_t)
        return np.array([(undefined | (r_t > bar)).sum(), undefined.sum()])

    total, boundary = _per_type(draw, trials, workers, solve, count)
    return _binomial_result(int(total), trials, boundary_trials=int(boundary),
                            rho_effective=rho_eff)


# ---------------------------------------------------------------------------
# First-order Gaussian statistics and their empirical CLT checks
# ---------------------------------------------------------------------------

def ks_distance_to_normal(samples: np.ndarray) -> float:
    """Kolmogorov-Smirnov sup distance between the ECDF and N(0,1), exact.

    The samples are sorted into one copy (the caller's array keeps its
    order), which ``_ks_sorted`` walks. Memory is the sorted copy plus a
    constant. NaN samples give NaN; an empty sample, or one that is not a
    1-D array, raises DomainError.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise DomainError(
            "the KS distance takes a 1-D array of samples; "
            f"got shape {x.shape}")
    return _ks_sorted(np.sort(x))


def _ks_sorted(x: np.ndarray) -> float:
    """The KS distance of the ascending samples ``x``, walked in chunks of
    ``_KS_CHUNK``. In each chunk the deviation of every sample is first
    taken against the interpolated Phi, and exact Phi is evaluated only on
    the samples within twice its error bound of the largest deviation seen
    so far. That running maximum never exceeds the final one, so every
    sample that can attain the supremum is evaluated exactly and the result
    does not depend on the chunk size. Memory is a constant."""
    k = x.size
    if k == 0:
        raise DomainError("the KS distance needs at least one sample")
    top = best = -np.inf
    for a in range(0, k, _KS_CHUNK):
        b = min(a + _KS_CHUNK, k)
        xs = x[a:b]
        hi = np.arange(a + 1, b + 1) / k
        lo = np.arange(a, b) / k
        approx = np.interp(xs, _KS_GRID, _KS_GRID_CDF)
        dev = np.maximum(hi - approx, approx - lo)
        # negated so that NaN samples stay candidates; np.maximum, unlike
        # max, carries a NaN deviation into the result
        top = np.maximum(top, dev.max())
        keep = ~(dev < top - 2.0 * _KS_INTERP_ERR)
        cdf = ndtr(xs[keep])
        best = np.maximum(best, np.max(
            np.maximum(hi[keep] - cdf, cdf - lo[keep]), initial=-np.inf))
    return float(best)


@dataclass(frozen=True)
class CltResult:
    """Standardized samples of a first-order statistic, with diagnostics.

    ``samples`` holds one float64 per trial, sorted ascending (the ECDF
    order), the same bytes whatever the worker count. The moments are
    taken before the sort, in trial order, and the KS statistic on the
    sorted array itself, so a CLT run holds one float64 per trial plus a
    constant.
    """

    samples: np.ndarray
    ks_statistic: float
    sample_mean: float
    sample_variance: float
    trials: int
    diagnostics: dict = field(default_factory=dict)


def _sq_dev_sum(x: np.ndarray, mean) -> np.float64:
    """sum((x - mean)**2) over the contiguous float64 ``x``, summed as
    ``np.add.reduce`` sums it: numpy's pairwise sum halves n, rounded down
    to a multiple of 8, until a block is small, so a leaf of at most
    ``_KS_CHUNK`` samples squares its own deviations and reduces them."""
    if x.size <= _KS_CHUNK:
        dev = x - mean
        return np.add.reduce(np.multiply(dev, dev, out=dev))
    half = x.size // 2
    half -= half % 8
    return _sq_dev_sum(x[:half], mean) + _sq_dev_sum(x[half:], mean)


def _clt_result(samples: np.ndarray, trials: int, **diagnostics) -> CltResult:
    """The CLT result of ``samples`` (trial order, sorted in place here):
    the mean and variance are ``samples.mean()`` and
    ``samples.var(ddof=1)`` to the bit, without their full-length
    temporaries."""
    mean = np.add.reduce(samples) / samples.size
    variance = _sq_dev_sum(samples, mean) / (samples.size - 1)
    samples.sort()
    return CltResult(
        samples=samples,
        ks_statistic=_ks_sorted(samples),
        sample_mean=float(mean),
        sample_variance=float(variance),
        trials=trials,
        diagnostics=diagnostics,
    )


def _channel_first_order(phi_type: EmpiricalType, w: Channel):
    """(V(phi, W), draw): draw(rng, size) draws the joint counts N of
    ``size`` trials of a fixed input word of type ``phi_type`` from ``rng``
    and returns each trial's sum_{x,y} (N_xy - E N_xy) log W(y|x)/(phi W)(y),
    whose variance is m V(phi, W)."""
    phi = phi_type.counts / phi_type.n
    coeff = _log_ratio(w.matrix, phi @ w.matrix)
    expected = phi_type.counts[:, None] * w.matrix
    cells = list(np.ndindex(coeff.shape))
    joint_draw = _joint_sampler(phi_type.counts, w.matrix)

    def draw(rng: np.random.Generator, size: int) -> np.ndarray:
        joint = joint_draw(rng, size)
        return _cell_sum((joint[:, x, y] - expected[x, y]) * coeff[x, y]
                         for x, y in cells)

    return conditional_information_variance(Distribution(phi), w), draw


def first_order_mi_samples(phi_n: EmpiricalType, w: Channel, trials: int,
                           seed: int, workers: int = 1) -> CltResult:
    """First-order term of the empirical-MI Taylor expansion, standardized.

    The statistic sum_{x,y} (P_{Y|x}(y|x) - W(y|x)) * I'_W(y|x) has variance
    exactly V(phi_n, W)/n; each sample is divided by its square root.
    Fewer than 2 trials leave no sample variance and raise DomainError
    before any draw.
    """
    SimConfig(seed, trials, phi_n.n)
    if trials < 2:
        raise DomainError(f"a CLT run needs trials >= 2; got {trials}")
    if phi_n.alphabet_size != w.input_size:
        raise DomainError("phi_n must live on the channel input alphabet")
    n = phi_n.n
    v_cond, chan = _channel_first_order(phi_n, w)
    if v_cond <= 1e-15:
        raise ZeroVariance(f"V(phi_n, W) = {v_cond} is numerically zero")
    scale = 1.0 / (n * math.sqrt(v_cond / n))
    samples = _fill_batches(lambda b, size: chan(_stream(seed, b), size)
                            * scale, trials, workers)
    return _clt_result(samples, trials, standardizer_variance=v_cond / n)


def first_order_jscc_samples(src: SourceSpec, d_star: float, w: Channel,
                             phi_m: EmpiricalType, n: int, trials: int,
                             seed: int, workers: int = 1,
                             solve: sa.RdfResult | None = None) -> CltResult:
    """First-order term of the distortion-rate expansion, standardized.

    A(S,Y) = sum_s (P_S(s)-P(s)) D'_P(s)
           + rho * D'_R * sum_{x,y} (P_{Y|x}(y|x)-W(y|x)) I'_W(y|x),
    a sum of n + m independent variables; the standardizer is its exact
    variance (D'_R)^2 V_S / n + (rho D'_R)^2 V(phi_m, W) / m with rho = m/n.
    g and V_S come from ``source._tilted`` at D*, read off ``solve``, the
    ``RdfResult`` of the solve that found D* (what ``rdf`` returns), so that
    one solve at D* serves every block length; without it ``_tilted``
    solves D* itself. A D* on the boundary of (0, d_max) raises
    BoundaryDistortion. Fewer than 2 trials raise DomainError before D* is
    read or solved.
    """
    SimConfig(seed, trials, n)
    if trials < 2:
        raise DomainError(f"a CLT run needs trials >= 2; got {trials}")
    if phi_m.alphabet_size != w.input_size:
        raise DomainError("phi_m must live on the channel input alphabet")
    m = phi_m.n
    rho_eff = m / n
    p = src.distribution.probs

    res, grad, v_s = sa._tilted(src, d_star, solve)
    d_r = 1.0 / res.lagrange_slope
    dp = -grad * d_r                      # centered; constants cancel in A

    v_chan, chan = _channel_first_order(phi_m, w)
    sigma2 = (d_r ** 2) * v_s / n + (rho_eff * d_r) ** 2 * v_chan / m
    if sigma2 <= 1e-18:
        raise ZeroVariance("the first-order statistic has vanishing variance")

    chan_scale = rho_eff * d_r / m
    scale = 1.0 / math.sqrt(sigma2)
    src_rows = _row_sampler(n, p)

    def run(batch_index: int, size: int):
        rng = _stream(seed, batch_index)
        src_counts = src_rows(rng, np.empty((size, p.size), dtype=np.int64))
        src_part = (src_counts / n - p) @ dp
        return (src_part + chan(rng, size) * chan_scale) * scale

    samples = _fill_batches(run, trials, workers)
    return _clt_result(samples, trials, standardizer_variance=sigma2,
                       d_prime_r=d_r, v_s=v_s, v_channel=v_chan,
                       rho_effective=rho_eff)


def xi_n_violation_rate(phi_n: EmpiricalType, w: Channel, trials: int,
                        seed: int, workers: int = 1) -> SimResult:
    """Estimate P[ conditional type outside Xi_n ].

    Xi_n is the set of conditional types V with
    sum (V - W)^2 <= |X||Y| (log n / n) / min_x phi_n(x), the sum and the
    minimum over the input letters x in the support of phi_n; the Hoeffding
    bound 2|X||Y| / n^2 is reported in the diagnostics.
    """
    SimConfig(seed, trials, phi_n.n)
    if phi_n.alphabet_size != w.input_size:
        raise DomainError("phi_n must live on the channel input alphabet")
    n = phi_n.n
    n_x, n_y = w.matrix.shape
    phi_min = float(phi_n.counts[phi_n.counts > 0].min()) / n
    threshold = n_x * n_y * (math.log(n) / n) / phi_min
    # the cells of the rows in the support of phi_n
    cells = [(x, y) for x, y in np.ndindex(w.matrix.shape)
             if phi_n.counts[x] > 0]
    chan = _joint_sampler(phi_n.counts, w.matrix)

    def run(batch_index: int, size: int):
        joint = chan(_stream(seed, batch_index), size)
        sq = _cell_sum((joint[:, x, y] / phi_n.counts[x] - w.matrix[x, y]) ** 2
                       for x, y in cells)
        return int((sq > threshold).sum())

    total = sum(_map_batches(run, trials, workers))
    return _binomial_result(total, trials,
                            bound=2.0 * n_x * n_y / n ** 2,
                            threshold=threshold)


# ---------------------------------------------------------------------------
# UEP decoder simulation
# ---------------------------------------------------------------------------

def eta_n(n: int, input_alphabet_size: int, k_n: int) -> float:
    """Rate-cap margin (2/n)(|X|^2 + log(n+1) + log k_n + 1), nats."""
    return (2.0 / n) * (
        input_alphabet_size ** 2 + math.log(n + 1) + math.log(k_n) + 1.0
    )


def gamma_n(n: int, input_alphabet_size: int, k_n: int,
            poly_degree: float) -> float:
    """Decoder threshold 2*eta_n + log(k_n)/(2n) + a*log(n)/n, a=(d+1)/2."""
    return (2.0 * eta_n(n, input_alphabet_size, k_n)
            + union_bound_gamma(n, k_n, poly_degree))


def union_bound_gamma(m: int, k_n: int, poly_degree: float = 0.0) -> float:
    """Decoder threshold keeping the wrong-codeword union bound small.

    These are the log(k_n)/(2n) + a*log(n)/n terms of the asymptotic
    threshold; the remaining 2*eta_n margin belongs to the derandomized
    packing construction and exceeds capacity at desk-scale block lengths,
    so it is not included here.
    """
    a = (poly_degree + 1.0) / 2.0
    return math.log(k_n) / (2.0 * m) + a * math.log(m) / m


def uep_dispersion_rate(phi_m: EmpiricalType, w: Channel, eps: float,
                        gamma: float = 0.0) -> float:
    """Class rate targeting error probability eps at the decoder threshold.

    R = I(phi, W) - sqrt(V(phi, W)/m) * Qinv(eps) - gamma, so the event
    {empirical MI < R + gamma} has probability ~ eps; the -gamma term is
    the construction's O(log m / m) rate correction. A negative or NaN R
    (a NaN gamma) raises DomainError.
    """
    if not (0.0 < eps < 1.0):
        raise DomainError("eps must lie in (0, 1)")
    m = phi_m.n
    phi = phi_m.distribution()
    v = conditional_information_variance(phi, w)
    rate = mutual_information(phi, w) - math.sqrt(v / m) * q_inverse(eps) - gamma
    if not rate >= 0:
        raise DomainError(
            f"dispersion rate {rate} is not >= 0 at m={m}, eps={eps}, "
            f"gamma={gamma}; the block is too short for this target"
        )
    return rate


@dataclass(frozen=True)
class UepConfig:
    """A UEP code family: per-class rates and constant-composition types.

    N_i = floor(exp(m * R_i)) codewords per class are drawn uniformly from
    the type class of input_types[i] (random constant composition, not the
    packing construction). ``gamma`` is the decoder threshold in nats, and
    finite; the asymptotic gamma_n formula is provided separately because
    at desk-scale block lengths it dwarfs the dispersion term.
    """

    rates: tuple
    input_types: tuple
    gamma: float = 0.0

    def __post_init__(self):
        rates = tuple(float(r) for r in self.rates)
        types = tuple(self.input_types)
        if len(rates) != len(types) or not rates:
            raise DomainError("need one rate per input type, at least one class")
        if not all(r >= 0 for r in rates):
            raise DomainError("rates must be nonnegative (N_i >= 1)")
        if not math.isfinite(self.gamma):
            raise DomainError(f"gamma must be finite; got {self.gamma}")
        m = types[0].n
        if any(t.n != m for t in types):
            raise DomainError("all class types must share the block length m")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "input_types", types)

    @property
    def class_count(self) -> int:
        return len(self.rates)

    @property
    def m(self) -> int:
        return self.input_types[0].n

    def codewords_per_class(self) -> tuple:
        out = []
        for r in self.rates:
            if self.m * r > 700:
                raise EnumerationTooLarge("codebook size overflows a float")
            out.append(int(math.floor(math.exp(self.m * r))))
        return tuple(out)


def _multinomial(counts) -> int:
    """multinomial(sum(counts); counts), exact."""
    total, remaining = 1, 0
    for c in counts:
        remaining += int(c)
        total *= math.comb(remaining, int(c))
    return total


def _extend(blocks, comps: np.ndarray, rows: np.ndarray):
    """Each partial table of ``blocks`` with each column of ``comps`` that
    keeps every row within its margin ``rows``, ``_TABLE_BLOCK`` at a time."""
    for tables in blocks:
        used, pairs = tables.sum(axis=2), len(tables) * len(comps)
        for start in range(0, pairs, _TABLE_BLOCK):
            p, q = np.divmod(np.arange(start, min(start + _TABLE_BLOCK, pairs)),
                             len(comps))
            fits = np.all(used[p] + comps[q] <= rows, axis=1)
            if fits.any():
                yield np.concatenate((tables[p[fits]], comps[q[fits], :, None]),
                                     axis=2)


def _arrangement_sum(row_counts, col_counts, limit: int, keep) -> int:
    """The exact sum, over the tables T with these margins where ``keep``
    holds, of prod_b multinomial(col_b; T[:, b]): the words of the row type
    giving T against a fixed word of the column type. ``keep`` maps tables
    (B, rows, cols) to B booleans. Each column but the last comes from its
    ``_compositions`` within the row margins, so every partial table
    completes, and the last is what the rows have left. Each column's
    multinomial is taken once per distinct column: ``np.unique`` of the
    ``_type_keys`` at the column's fixed sum gives the first table holding
    it and every table's index into them. Raises
    EnumerationTooLarge when a bound on the table count exceeds ``limit``:
    the product over the free cells of min(r, c) + 1, or |T_rows| when
    smaller, as distinct tables arrange distinct words."""
    est = math.prod(min(r, c) + 1 for r in row_counts[:-1]
                    for c in col_counts[:-1])
    if min(est, _multinomial(row_counts)) > limit:
        raise EnumerationTooLarge(
            "too many contingency tables for exact enumeration")
    rows = np.array(row_counts, dtype=np.int64)
    blocks = [np.zeros((1, rows.size, 0), dtype=np.int64)]
    for c in col_counts[:-1]:
        blocks = _extend(blocks, _compositions(c, rows), rows)
    # each column's sum is fixed, the last's by what the rows have left
    sums = [*col_counts[:-1], sum(row_counts) - sum(col_counts[:-1])]
    total = 0
    for tables in blocks:
        tables = np.concatenate(
            (tables, (rows - tables.sum(axis=2))[:, :, None]), axis=2)
        tables = tables[keep(tables)]
        weight = np.ones(len(tables), dtype=object)
        for col, c in zip(np.moveaxis(tables, 2, 0), sums):
            # once per distinct column
            _, first, inverse = np.unique(_type_keys(col, c),
                                          return_index=True,
                                          return_inverse=True)
            weight *= np.array([_multinomial(d) for d in col[first].tolist()],
                               dtype=object)[inverse]
        total += int(weight.sum())
    return total


def _mi_tail_log_prob(row_counts: tuple, col_counts: tuple,
                      threshold: float) -> float:
    """log P[ I(table) >= threshold ] for a uniformly random arrangement.

    The arrangement is a word drawn uniformly from the type class of
    row_counts, paired against a fixed word with counts col_counts; the
    joint table is hypergeometric-like with both margins fixed. The
    arrangements of the scoring tables are summed exactly, so a sure event
    gives 0 and no value exceeds it.
    """
    hits = _arrangement_sum(
        row_counts, col_counts, DEFAULT_ENUMERATION_CAP,
        lambda t: _joint_mutual_information(t) >= threshold - 1e-12)
    if hits == 0:
        return -math.inf
    return min(math.log(hits) - math.log(_multinomial(row_counts)), 0.0)


def _p_e2(cfg: UepConfig, types: np.ndarray) -> np.ndarray:
    """P(E2) per [true class, output type] for output count rows ``types``
    (T, |Y|): some competitor, one of the true class's other N_i - 1
    codewords or another class's N_j, scores at or above its threshold.
    Each tail is solved once per distinct (class type, threshold); the
    classes are summed as a left fold (``_cell_sum``), so a type's value
    does not depend on the other rows."""
    k = cfg.class_count
    keys = [(tuple(int(c) for c in t.counts), r + cfg.gamma)
            for t, r in zip(cfg.input_types, cfg.rates)]
    tails = {key: [_mi_tail_log_prob(key[0], tuple(y), key[1])
                   for y in types.tolist()] for key in dict.fromkeys(keys)}
    # log P[a codeword of class j scores >= its threshold | output type]
    log_hit = np.array([tails[key] for key in keys])
    # log P[it does not]; -inf where it surely does
    log_miss = np.log1p(-np.exp(log_hit), out=np.full_like(log_hit, -np.inf),
                        where=log_hit < 0.0)
    # competitors of true class i from class j; the product is masked where
    # there are none, so a sure score never meets a zero count
    n_eff = np.array([[float(n_j - (i == j)) for j, n_j in
                       enumerate(cfg.codewords_per_class())]
                      for i in range(k)])[:, :, None]
    log_none = np.multiply(n_eff, log_miss[None],
                           out=np.zeros((k, k, len(types))), where=n_eff > 0)
    return -np.expm1(_cell_sum(log_none[:, j] for j in range(k)))


@dataclass(frozen=True)
class UepClassResult:
    """The simulated error events of one UEP class: its rate, its number of
    codewords, and the estimates of E1 (the true codeword scores below the
    threshold), E2 (a competitor scores above it) and their union."""

    class_index: int
    rate: float
    n_codewords: int
    e1: SimResult
    e2: SimResult
    overall: SimResult


@dataclass(frozen=True)
class UepResult:
    """A UEP simulation: one ``UepClassResult`` per class, in class order,
    the decoder threshold ``gamma`` and the rate-cap margin ``eta``."""

    classes: tuple
    gamma: float
    eta: float


def uep_simulate(cfg: UepConfig, w: Channel, sim: SimConfig,
                 workers: int = 1) -> UepResult:
    """Simulate the empirical-MI threshold decoder over random
    constant-composition codebooks.

    For each class the true codeword is a fixed word of the class type
    (conditional-type laws depend only on the type). E1 is the event that
    the true score I(type, P_{Y|x}) - R_i falls below gamma. E2 marginalizes
    the codebook: given the received word's type, the probability that any
    of the other N-1 (same class) or N_j (other classes) codewords, each
    uniform over its type class, scores above gamma is computed exactly by
    contingency-table enumeration, and the event is then drawn as one
    Bernoulli per trial. Estimates are therefore random-coding averages.

    Each batch draws each class's stream once, in class order: the joint
    counts, then one uniform per trial; E2 is u < P(E2) of the output
    type, solved once per run and type by ``_per_type`` (``_p_e2``). A
    window of 8 batches holds, per trial and class, an index byte (two past
    256 output types in a batch), an E1 byte and one float64, at most
    1.4 MB per class for its 131,072 trials.
    """
    m = sim.n
    if cfg.m != m:
        raise DomainError(f"class types have n={cfg.m}, the simulation n={m}")
    if any(t.alphabet_size != w.input_size for t in cfg.input_types):
        raise DomainError("class types must live on the channel input alphabet")
    k = cfg.class_count
    eta = eta_n(m, w.input_size, k)
    for i, (rate, etype) in enumerate(zip(cfg.rates, cfg.input_types)):
        cap = entropy(etype.distribution()) - eta
        if rate > cap:
            raise RateCapViolated(
                f"class {i}: rate {rate} exceeds H(type) - eta_n = {cap}"
            )
    n_codewords = cfg.codewords_per_class()
    xlogx = _xlogx(m)
    chans = [_joint_sampler(t.counts, w.matrix) for t in cfg.input_types]

    def draw(batch_index: int, size: int):
        keys, e1, u = [], [], []
        for i, (etype, chan) in enumerate(zip(cfg.input_types, chans)):
            rng = _stream(seed_for_class(sim.seed, i), batch_index)
            joint = chan(rng, size)
            keys.append(_type_keys(joint.sum(axis=1), m))
            e1.append(_fixed_margin_mi(joint, etype.counts, xlogx)
                      - cfg.rates[i] < cfg.gamma)
            u.append(rng.random(size))
        table, inverse = np.unique(np.concatenate(keys), return_inverse=True)
        return (table, inverse.reshape(k, size).astype(
            np.min_scalar_type(len(table) - 1)), np.array(e1), np.array(u))

    classes = np.arange(k)[:, None]

    def count(batch, p_e2):
        # E1, E2 and either, per class
        _, inverse, e1, u = batch
        e2 = u < p_e2[classes, inverse]
        return np.array([e1.sum(axis=1), e2.sum(axis=1),
                         (e1 | e2).sum(axis=1)])

    counts = _per_type(
        draw, sim.trials, workers,
        lambda new: _p_e2(cfg, _key_rows(new, m, w.output_size)), count)
    return UepResult(classes=tuple(
        UepClassResult(i, cfg.rates[i], n_codewords[i],
                       *(_binomial_result(int(c), sim.trials) for c in row))
        for i, row in enumerate(counts.T)), gamma=cfg.gamma, eta=eta)


def seed_for_class(seed: int, class_index: int) -> int:
    """Disjoint seed lanes for per-class trial streams."""
    return seed * 1000003 + class_index


# ---------------------------------------------------------------------------
# Exact counting and continuity bounds
# ---------------------------------------------------------------------------

def type_class_size(etype: EmpiricalType) -> int:
    """|T_Q| = multinomial(n; counts)."""
    return _multinomial(etype.counts)


def dball_count_exact(q_type: EmpiricalType, s_hat, distortion: np.ndarray,
                      d: float, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Exact |{s in T_Q : d(s, s_hat) <= D}|: the arrangements of the joint
    tables with s_hat (margins Q and the type of s_hat) whose cost
    sum N(a,b) d(a,b) is within n D + 1e-9, the slack for float dust.
    ``cap`` limits the tables, not the words: EnumerationTooLarge is raised
    when ``_arrangement_sum``'s bound on the table count exceeds it."""
    dmat = np.asarray(distortion, dtype=float)
    n = q_type.n
    s_hat = _as_symbols(s_hat, dmat.shape[1], "s_hat")
    if s_hat.size != n:
        raise LengthMismatch(f"s_hat has length {s_hat.size}, expected {n}")
    if q_type.alphabet_size != dmat.shape[0]:
        raise DomainError("type alphabet does not match the distortion matrix")
    if not d >= 0:
        raise DomainError(f"distortion level must be nonnegative; got {d}")

    budget = n * d + 1e-9
    cols = np.bincount(s_hat, minlength=dmat.shape[1]).tolist()
    return _arrangement_sum(q_type.counts.tolist(), cols, cap,
                            lambda t: (t * dmat).sum(axis=(1, 2)) <= budget)


def dball_bound(q_type: EmpiricalType, src: SourceSpec, d: float) -> float:
    """The counting bound (n+1)^(|S||Shat|) exp{n [H(P) - R(P,D)]}."""
    n = q_type.n
    p = Distribution(q_type.counts / n)
    typed = SourceSpec(p, src.distortion)
    h = entropy(p)
    r = sa.rdf(typed, d, 1e-10).rate
    s_sz, shat_sz = src.distortion.shape
    return (n + 1) ** (s_sz * shat_sz) * math.exp(n * (h - r))


def mi_continuity_check(p: Distribution, q: Distribution, w: Channel,
                        delta: float) -> tuple[float, float, bool]:
    """Check |I(p,W) - I(q,W)| against the continuity bound
    delta |X| log|Y| - |Y||X| delta log(|X| delta), valid for
    sup|p-q| <= delta <= 1 / (2 |X||Y|)."""
    n_x, n_y = w.matrix.shape
    if not 0 <= delta <= 1.0 / (2 * n_x * n_y):
        raise DeltaTooLarge(f"delta = {delta} outside [0, 1/(2*{n_x}*{n_y})]")
    gap = float(np.max(np.abs(p.probs - q.probs)))
    if gap > delta + 1e-15:
        raise DomainError(f"sup|p - q| = {gap} exceeds delta = {delta}")
    lhs = abs(mutual_information(p, w) - mutual_information(q, w))
    if delta == 0:
        rhs = 0.0
    else:
        rhs = delta * n_x * math.log(n_y) - n_y * n_x * delta * math.log(n_x * delta)
    return lhs, rhs, lhs <= rhs + 1e-12
