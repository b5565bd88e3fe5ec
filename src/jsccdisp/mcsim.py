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
type a run draws: R(P_S, D) of each source type, the competitors' tail
probability of each channel output type. Both make two passes over the
same streams: the first collects the distinct types (``_distinct_rows``),
each type is then solved once, and the second redraws each batch and
looks its rows up in the solved table (``_row_index``). No per-trial
array outlives its batch, and no solve is kept between calls.

Exact counts go through one enumerator of the joint tables with fixed
margins (``_enumerate_tables``) and one arrangement count per table
(``_arrangements``): the D-ball count sums the arrangements of the tables
within the distortion budget, and the UEP tail those of the tables that
score above the threshold.

The CLT simulators keep one float64 per trial: each batch's values are
written into their slice of one preallocated array, in trial order. The KS
distance sorts a copy of it and walks the copy in fixed chunks
(``_KS_CHUNK`` samples), so a CLT run holds two float64 per trial plus a
constant.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

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
    _joint_mutual_information,
    _log_ratio,
    entropy,
    ndtr,
    q_inverse,
)
from .source import SourceSpec

DEFAULT_BATCH = 4096
_TABLE_CAP = 5_000_000

# Phi on a grid over [-9, 9] for the KS statistic: linear interpolation of
# it is within h^2/8 * max|Phi''| + Phi(-9) of Phi, h the grid step and
# max|Phi''| = phi(1), the second term for the clamping outside the grid.
_KS_GRID = np.linspace(-9.0, 9.0, 4097)
_KS_GRID_CDF = ndtr(_KS_GRID)
_KS_INTERP_ERR = ((_KS_GRID[1] - _KS_GRID[0]) ** 2 / 8.0
                  * math.exp(-0.5) / math.sqrt(2.0 * math.pi)
                  + float(_KS_GRID_CDF[0]))
# sorted samples per step of the KS walk; bounds its temporaries
_KS_CHUNK = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    """Common simulation knobs: seed, trial count and block length."""

    seed: int
    trials: int
    n: int

    def __post_init__(self):
        if self.trials < 1 or self.n < 1:
            raise DomainError("trials and n must be positive")


@dataclass(frozen=True)
class SimResult:
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


def _batches(trials: int, batch: int = DEFAULT_BATCH):
    return [(b, min(batch, trials - b * batch))
            for b in range((trials + batch - 1) // batch)]


def _map_batches(fn, trials: int, workers: int):
    """fn(batch_index, size) over every batch, yielded in batch order as
    each is consumed, so a caller that folds them holds none for long."""
    batches = _batches(trials)
    if workers <= 1:
        yield from (fn(b, size) for b, size in batches)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(lambda args: fn(*args), batches)


def _fill_batches(fn, trials: int, workers: int) -> np.ndarray:
    """The per-trial values of fn(batch_index, size) over every batch, each
    batch written into its slice of one array, in trial order."""
    out = np.empty(trials)
    start = 0
    for values in _map_batches(fn, trials, workers):
        out[start:start + values.size] = values
        start += values.size
    return out


def _unique_rows(a: np.ndarray):
    """The distinct rows of a 2-D array and, for each row of ``a``, the
    index of its distinct row. The distinct rows come in ``np.lexsort``
    order of the columns (the last column the primary key), which one
    stable sort per column gives without ``np.unique(axis=0)``'s sort of a
    void view."""
    order = np.lexsort(a.T)
    rows = a[order]
    first = np.ones(len(a), dtype=bool)
    np.any(rows[1:] != rows[:-1], axis=1, out=first[1:])
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return rows[first], inverse


def _distinct_rows(batches, width: int) -> np.ndarray:
    """The distinct rows of every 2-D array in ``batches``, folded in one
    array at a time, in ``_unique_rows`` order."""
    rows = np.empty((0, width), dtype=np.int64)
    for batch in batches:
        rows = _unique_rows(np.concatenate([rows, batch]))[0]
    return rows


def _row_index(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """For each row of ``rows``, the index of the equal row of ``table``.

    ``table`` is a ``_distinct_rows`` result holding every row of ``rows``,
    so the distinct rows of the stack are ``table`` in its own order.
    """
    return _unique_rows(np.concatenate([table, rows]))[1][len(table):]


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
    """Independent per-position draws from the rows W(. | x_i)."""
    xa = np.asarray(x, dtype=np.int64)
    if np.any(xa < 0) or np.any(xa >= w.input_size):
        raise SymbolOutOfRange("channel input symbols out of range")
    cdf = np.cumsum(w.matrix, axis=1)[xa]
    u = rng.random(xa.size)
    return np.minimum(
        (u[:, None] > cdf).sum(axis=1), w.output_size - 1
    ).astype(np.int64)


def _joint_counts_given_type(row_counts: np.ndarray, w_mat: np.ndarray,
                             rng: np.random.Generator, size: int) -> np.ndarray:
    """Joint (X,Y) counts for a fixed input word of the given type.

    For each input symbol a, the output counts are Multinomial(r_a, W_a),
    independently; rows are drawn in ascending symbol order.
    """
    n_x, n_y = w_mat.shape
    joint = np.zeros((size, n_x, n_y), dtype=np.int64)
    for a in range(n_x):
        r_a = int(row_counts[a])
        if r_a > 0:
            joint[:, a, :] = rng.multinomial(r_a, w_mat[a], size=size)
    return joint


# ---------------------------------------------------------------------------
# Excess-distortion event (Lemma-level simulation)
# ---------------------------------------------------------------------------

def excess_event_probability(src: SourceSpec, w: Channel, phi_m: EmpiricalType,
                             d: float, n: int, trials: int, seed: int,
                             workers: int = 1) -> SimResult:
    """Estimate P[ R(P_S, d) > rho * I(Phi_m, P_{Y|x}) ].

    Per trial the source type is a Multinomial(n, P) draw and the channel
    conditional type comes from a fixed word of type phi_m; rho is realized
    as m/n with m = phi_m.n. Two passes run over the same batch streams,
    each batch held only while it is drawn. The first draws only the
    source counts, which each stream draws first, and collects the
    distinct source types; one batched solve then gives R(P_S, d) for all
    of them. The second redraws every batch with its channel counts and
    compares. Types whose RDF cannot be evaluated count as excess
    (conservative boundary convention); their trials are reported as
    ``boundary_trials`` in the diagnostics.
    """
    if phi_m.alphabet_size != w.input_size:
        raise DomainError("phi_m must live on the channel input alphabet")
    if trials < 1 or n < 1:
        raise DomainError("trials and n must be positive")
    if d < 0:
        raise DomainError("distortion level must be nonnegative")
    m = phi_m.n
    rho_eff = m / n
    p = src.distribution.probs
    row_counts = phi_m.counts

    def types_of(batch_index: int, size: int):
        src_counts = _stream(seed, batch_index).multinomial(n, p, size=size)
        return _unique_rows(src_counts)[0]

    types = _distinct_rows(_map_batches(types_of, trials, workers), p.size)
    # NaN marks "RDF undefined" and is counted as excess below
    rates = sa._rdf_rates(types / n, src.distortion, d, 1e-10)

    def run(batch_index: int, size: int):
        rng = _stream(seed, batch_index)
        src_counts = rng.multinomial(n, p, size=size)
        joint = _joint_counts_given_type(row_counts, w.matrix, rng, size)
        mi = _joint_mutual_information(joint)  # empirical MI per trial
        r_t = rates[_row_index(types, src_counts)]
        undefined = np.isnan(r_t)
        excess = undefined | (r_t > rho_eff * mi)
        return int(excess.sum()), int(undefined.sum())

    total = boundary = 0
    for excess, undefined in _map_batches(run, trials, workers):
        total += excess
        boundary += undefined
    return _binomial_result(total, trials,
                            boundary_trials=boundary, rho_effective=rho_eff)


# ---------------------------------------------------------------------------
# First-order Gaussian statistics and their empirical CLT checks
# ---------------------------------------------------------------------------

def ks_distance_to_normal(samples: np.ndarray) -> float:
    """Kolmogorov-Smirnov sup distance between the ECDF and N(0,1), exact.

    The samples are sorted into one copy (the caller's array keeps its
    order), which is then walked in chunks of ``_KS_CHUNK``. In each chunk
    the deviation of every sample is first taken against the interpolated
    Phi, and exact Phi is evaluated only on the samples within twice its
    error bound of the largest deviation seen so far. That running maximum
    never exceeds the final one, so every sample that can attain the
    supremum is evaluated exactly and the result does not depend on the
    chunk size. Memory is the sorted copy plus a constant. NaN samples give
    NaN; an empty sample raises DomainError.
    """
    x = np.sort(np.asarray(samples, dtype=float))
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

    ``samples`` holds one float64 per trial, in trial order (batch b's
    trials follow batch b-1's), whatever the worker count. Computing the
    KS statistic takes one sorted copy of it more, so a CLT run holds two
    float64 per trial plus a constant.
    """

    samples: np.ndarray
    ks_statistic: float
    sample_mean: float
    sample_variance: float
    trials: int
    diagnostics: dict = field(default_factory=dict)


def _clt_result(samples: np.ndarray, trials: int, **diagnostics) -> CltResult:
    return CltResult(
        samples=samples,
        ks_statistic=ks_distance_to_normal(samples),
        sample_mean=float(samples.mean()),
        sample_variance=float(samples.var(ddof=1)),
        trials=trials,
        diagnostics=diagnostics,
    )


def first_order_mi_samples(phi_n: EmpiricalType, w: Channel, trials: int,
                           seed: int, workers: int = 1) -> CltResult:
    """First-order term of the empirical-MI Taylor expansion, standardized.

    The statistic sum_{x,y} (P_{Y|x}(y|x) - W(y|x)) * I'_W(y|x) has variance
    exactly V(phi_n, W)/n; each sample is divided by its square root.
    """
    if phi_n.alphabet_size != w.input_size:
        raise DomainError("phi_n must live on the channel input alphabet")
    if trials < 1:
        raise DomainError("trials must be positive")
    n = phi_n.n
    phi = phi_n.counts / n
    v_cond = conditional_information_variance(Distribution(phi), w)
    if v_cond <= 1e-15:
        raise ZeroVariance(f"V(phi_n, W) = {v_cond} is numerically zero")
    coeff = _log_ratio(w.matrix, phi @ w.matrix)
    expected = phi_n.counts[:, None] * w.matrix
    scale = 1.0 / (n * math.sqrt(v_cond / n))

    def run(batch_index: int, size: int):
        rng = _stream(seed, batch_index)
        joint = _joint_counts_given_type(phi_n.counts, w.matrix, rng, size)
        dev = joint - expected[None, :, :]
        return (dev * coeff[None, :, :]).sum(axis=(1, 2)) * scale

    samples = _fill_batches(run, trials, workers)
    return _clt_result(samples, trials, standardizer_variance=v_cond / n)


def first_order_jscc_samples(src: SourceSpec, d_star: float, w: Channel,
                             phi_m: EmpiricalType, n: int, trials: int,
                             seed: int, workers: int = 1,
                             solve=None) -> CltResult:
    """First-order term of the distortion-rate expansion, standardized.

    A(S,Y) = sum_s (P_S(s)-P(s)) D'_P(s)
           + rho * D'_R * sum_{x,y} (P_{Y|x}(y|x)-W(y|x)) I'_W(y|x),
    a sum of n + m independent variables; the standardizer is its exact
    variance (D'_R)^2 V_S / n + (rho D'_R)^2 V(phi_m, W) / m with rho = m/n.
    ``solve``, the value of ``source._tilted_solve(src, d_star)``, lets one
    rdf solve at D* serve every block length; it is computed here when not
    given.
    """
    if phi_m.alphabet_size != w.input_size:
        raise DomainError("phi_m must live on the channel input alphabet")
    if trials < 1 or n < 1:
        raise DomainError("trials and n must be positive")
    m = phi_m.n
    rho_eff = m / n
    p = src.distribution.probs

    res, grad, v_s = solve if solve is not None else sa._tilted_solve(src, d_star)
    d_r = 1.0 / res.lagrange_slope
    dp = -grad * d_r                      # centered; constants cancel in A

    phi = phi_m.counts / m
    v_chan = conditional_information_variance(Distribution(phi), w)
    sigma2 = (d_r ** 2) * v_s / n + (rho_eff * d_r) ** 2 * v_chan / m
    if sigma2 <= 1e-18:
        raise ZeroVariance("the first-order statistic has vanishing variance")

    coeff = _log_ratio(w.matrix, phi @ w.matrix)
    expected = phi_m.counts[:, None] * w.matrix
    chan_scale = rho_eff * d_r / m
    scale = 1.0 / math.sqrt(sigma2)

    def run(batch_index: int, size: int):
        rng = _stream(seed, batch_index)
        src_counts = rng.multinomial(n, p, size=size)
        joint = _joint_counts_given_type(phi_m.counts, w.matrix, rng, size)
        src_part = (src_counts / n - p) @ dp
        dev = joint - expected[None, :, :]
        chan_part = (dev * coeff[None, :, :]).sum(axis=(1, 2)) * chan_scale
        return (src_part + chan_part) * scale

    samples = _fill_batches(run, trials, workers)
    return _clt_result(samples, trials, standardizer_variance=sigma2,
                       d_prime_r=d_r, v_s=v_s, v_channel=v_chan,
                       rho_effective=rho_eff)


def xi_n_violation_rate(phi_n: EmpiricalType, w: Channel, trials: int,
                        seed: int, workers: int = 1) -> SimResult:
    """Estimate P[ conditional type outside Xi_n ].

    Xi_n is the set of conditional types V with
    sum (V - W)^2 <= |X||Y| (log n / n) / min_x phi_n(x); the Hoeffding
    bound 2|X||Y| / n^2 is reported in the diagnostics.
    """
    if phi_n.alphabet_size != w.input_size:
        raise DomainError("phi_n must live on the channel input alphabet")
    if trials < 1:
        raise DomainError("trials must be positive")
    n = phi_n.n
    n_x, n_y = w.matrix.shape
    phi_min = float(phi_n.counts.min()) / n
    threshold = (
        n_x * n_y * (math.log(n) / n) / phi_min if phi_min > 0 else math.inf
    )
    support = phi_n.counts > 0

    def run(batch_index: int, size: int):
        rng = _stream(seed, batch_index)
        joint = _joint_counts_given_type(phi_n.counts, w.matrix, rng, size)
        cond = joint[:, support, :] / phi_n.counts[support][None, :, None]
        sq = ((cond - w.matrix[support][None, :, :]) ** 2).sum(axis=(1, 2))
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
    a = (poly_degree + 1.0) / 2.0
    return (2.0 * eta_n(n, input_alphabet_size, k_n)
            + math.log(k_n) / (2.0 * n) + a * math.log(n) / n)


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
    the construction's O(log m / m) rate correction.
    """
    if not (0.0 < eps < 1.0):
        raise DomainError("eps must lie in (0, 1)")
    m = phi_m.n
    phi = phi_m.distribution()
    v = conditional_information_variance(phi, w)
    rate = mutual_information(phi, w) - math.sqrt(v / m) * q_inverse(eps) - gamma
    if rate < 0:
        raise DomainError(
            f"dispersion rate {rate} is negative at m={m}, eps={eps}, "
            f"gamma={gamma}; the block is too short for this target"
        )
    return rate


@dataclass(frozen=True)
class UepConfig:
    """A UEP code family: per-class rates and constant-composition types.

    N_i = floor(exp(m * R_i)) codewords per class are drawn uniformly from
    the type class of input_types[i] (random constant composition, not the
    packing construction). ``gamma`` is the decoder threshold in nats; the
    asymptotic gamma_n formula is provided separately because at desk-scale
    block lengths it dwarfs the dispersion term.
    """

    rates: tuple
    input_types: tuple
    gamma: float = 0.0

    def __post_init__(self):
        rates = tuple(float(r) for r in self.rates)
        types = tuple(self.input_types)
        if len(rates) != len(types) or not rates:
            raise DomainError("need one rate per input type, at least one class")
        if any(r < 0 for r in rates):
            raise DomainError("rates must be nonnegative (N_i >= 1)")
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


def _arrangements(table: np.ndarray) -> int:
    """The words of the row type that give this joint table against a fixed
    word of the column type: prod_b multinomial(col_b; table[:, b])."""
    return math.prod(_multinomial(col) for col in table.T.tolist())


def _enumerate_tables(row_counts: tuple, col_counts: tuple, limit: int):
    """All nonnegative integer tables with the given margins, yielded as one
    array that is overwritten between yields.

    Raises EnumerationTooLarge when a bound on their number exceeds
    ``limit``: the product over the free cells of min(r, c) + 1, or
    |T_rows| when smaller, since every table arranges at least one word of
    the row type class and distinct tables arrange distinct words.
    """
    n_x, n_y = len(row_counts), len(col_counts)
    est = math.prod(min(r, c) + 1 for r in row_counts[:-1]
                    for c in col_counts[:-1])
    if min(est, _multinomial(row_counts)) > limit:
        raise EnumerationTooLarge(
            "too many contingency tables for exact enumeration"
        )
    table = np.zeros((n_x, n_y), dtype=np.int64)
    rows_left = list(row_counts)
    cols_left = list(col_counts)

    def rec(idx: int):
        a, b = divmod(idx, n_y)
        if a == n_x - 1:
            # last row forced by the remaining column budgets
            if sum(cols_left) == rows_left[a]:
                table[a, :] = cols_left
                yield table
            return
        # every cell is set before a yield; a row's last cell takes its rest
        lo = rows_left[a] if b == n_y - 1 else 0
        for v in range(lo, min(rows_left[a], cols_left[b]) + 1):
            table[a, b] = v
            rows_left[a] -= v
            cols_left[b] -= v
            yield from rec(idx + 1)
            rows_left[a] += v
            cols_left[b] += v

    yield from rec(0)


def _mi_tail_log_prob(row_counts: tuple, col_counts: tuple,
                      threshold: float) -> float:
    """log P[ I(table) >= threshold ] for a uniformly random arrangement.

    The arrangement is a word drawn uniformly from the type class of
    row_counts, paired against a fixed word with counts col_counts; the
    joint table is hypergeometric-like with both margins fixed. The
    arrangements of the scoring tables are summed exactly, so a sure event
    gives 0 and no value exceeds it.
    """
    hits = sum(_arrangements(table)
               for table in _enumerate_tables(row_counts, col_counts,
                                              _TABLE_CAP)
               if _joint_mutual_information(table) >= threshold - 1e-12)
    if hits == 0:
        return -math.inf
    return min(math.log(hits) - math.log(_multinomial(row_counts)), 0.0)


@dataclass(frozen=True)
class UepClassResult:
    class_index: int
    rate: float
    n_codewords: int
    e1: SimResult
    e2: SimResult
    overall: SimResult


@dataclass(frozen=True)
class UepResult:
    classes: tuple
    gamma: float
    eta: float
    m: int


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

    Two passes run over each class's streams: the first collects the
    distinct output types, each tail is solved once per type and distinct
    (class type, threshold), and the second redraws and looks P(E2) up.
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

    def joint_counts(i: int, batch_index: int, size: int):
        rng = _stream(seed_for_class(sim.seed, i), batch_index)
        counts = cfg.input_types[i].counts
        return rng, _joint_counts_given_type(counts, w.matrix, rng, size)

    def output_types(i: int, batch_index: int, size: int):
        return _unique_rows(joint_counts(i, batch_index, size)[1].sum(axis=1))[0]

    types = _distinct_rows(
        (rows for i in range(k)
         for rows in _map_batches(partial(output_types, i), sim.trials,
                                  workers)),
        w.output_size)
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
                       enumerate(n_codewords)] for i in range(k)])[:, :, None]
    log_none = np.multiply(n_eff, log_miss[None],
                           out=np.zeros((k, k, len(types))), where=n_eff > 0)
    p_e2 = -np.expm1(log_none.sum(axis=1))      # [true class, output type]

    def errors(i: int, batch_index: int, size: int):
        rng, joint = joint_counts(i, batch_index, size)
        u = rng.random(size)
        e1 = _joint_mutual_information(joint) - cfg.rates[i] < cfg.gamma
        e2 = u < p_e2[i, _row_index(types, joint.sum(axis=1))]
        return np.array([e1.sum(), e2.sum(), (e1 | e2).sum()])

    classes = []
    for i in range(k):
        e1, e2, both = (int(t) for t in sum(
            _map_batches(partial(errors, i), sim.trials, workers)))
        classes.append(UepClassResult(
            class_index=i,
            rate=cfg.rates[i],
            n_codewords=n_codewords[i],
            e1=_binomial_result(e1, sim.trials),
            e2=_binomial_result(e2, sim.trials),
            overall=_binomial_result(both, sim.trials),
        ))
    return UepResult(classes=tuple(classes), gamma=cfg.gamma, eta=eta, m=m)


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
    Raises EnumerationTooLarge if |T_Q| exceeds ``cap``; no table count
    can exceed it then, since distinct tables arrange distinct words.
    """
    dmat = np.asarray(distortion, dtype=float)
    n = q_type.n
    s_hat = np.asarray(s_hat, dtype=np.int64)
    if s_hat.size != n:
        raise LengthMismatch(f"s_hat has length {s_hat.size}, expected {n}")
    if np.any(s_hat < 0) or np.any(s_hat >= dmat.shape[1]):
        raise SymbolOutOfRange("s_hat symbols outside the reproduction alphabet")
    if q_type.alphabet_size != dmat.shape[0]:
        raise DomainError("type alphabet does not match the distortion matrix")
    if type_class_size(q_type) > cap:
        raise EnumerationTooLarge(f"|T_Q| exceeds the cap of {cap}")

    budget = n * d + 1e-9
    rows = tuple(int(c) for c in q_type.counts)
    cols = tuple(np.bincount(s_hat, minlength=dmat.shape[1]).tolist())
    return sum(_arrangements(table)
               for table in _enumerate_tables(rows, cols, cap)
               if float((table * dmat).sum()) <= budget)


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
    if delta < 0 or delta > 1.0 / (2 * n_x * n_y):
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
