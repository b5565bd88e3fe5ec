"""UEP decoder simulation, exact type-class counts and continuity checks.

The half of the Monte-Carlo layer that the excess, CLT and Xi_n simulators
do not use, kept out of ``jsccdisp.mcsim`` so that their runs never load
it. ``uep_simulate`` draws through ``mcsim``'s samplers, type keys and
per-type table (``mcsim._per_type``); it reads ``mcsim._stream`` at each
draw, so a stream patched there is the one it uses.

Exact counts are one ``_arrangement_sum`` call each: it builds the joint
tables with fixed margins from per-column ``_compositions``, in blocks of
``_TABLE_BLOCK``, and sums the arrangements of those a vectorized predicate
keeps (the D-ball count: within the distortion budget; the UEP tail: at or
above the threshold), with one multinomial per distinct column key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mcsim
from . import source as sa
from .channel import conditional_information_variance, mutual_information
from .errors import (
    DeltaTooLarge,
    DomainError,
    EnumerationTooLarge,
    LengthMismatch,
    RateCapViolated,
)
from .mcsim import (
    SimConfig,
    SimResult,
    _binomial_result,
    _cell_sum,
    _fixed_margin_mi,
    _joint_sampler,
    _key_rows,
    _per_type,
    _type_keys,
    _type_table,
    _xlogx,
)
from .probcore import (
    Channel,
    DEFAULT_ENUMERATION_CAP,
    Distribution,
    EmpiricalType,
    _as_symbols,
    _compositions,
    _joint_mutual_information,
    entropy,
    q_inverse,
)
from .source import SourceSpec

_TABLE_BLOCK = 1 << 16   # (table, column) pairs per step of an exact count


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
            rng = mcsim._stream(seed_for_class(sim.seed, i), batch_index)
            joint = chan(rng, size)
            keys.append(_type_keys(joint.sum(axis=1), m))
            e1.append(_fixed_margin_mi(joint, etype.counts, xlogx)
                      - cfg.rates[i] < cfg.gamma)
            u.append(rng.random(size))
        table, inverse = _type_table(np.concatenate(keys))
        return table, inverse.reshape(k, size), np.array(e1), np.array(u)

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
