"""Output checks and reference values for the benchmark workloads.

Every reference is computed here from a closed form or an independent
one-dimensional solve, in plain Python, so that no check relies on the
jsccdisp code it checks. The exact V_min/V_max of the 6x3 channel come from
``inputs/refs.json``, written by ``make_refs.py`` with a linear program.
"""

from __future__ import annotations

import csv
import io
import json
import math
from statistics import NormalDist

import workloads

LN2 = math.log(2.0)
_NORMAL = NormalDist()

# Deterministic outputs must match their reference to this relative error.
# The solvers state tolerances of 1e-9 to 1e-12 and V_S comes from central
# differences, so 1e-6 leaves room without hiding a wrong formula.
REL_TOL = 1e-6
# V_min/V_max of a channel whose capacity-achieving set is not a point come
# from a multi-start search, an inner approximation of the exact range: the
# reported pair must lie inside the exact range and within this share of it.
VRANGE_TOL = 0.05
# Band of a Monte-Carlo excess estimate around eps; criterion 07 of the
# acceptance suite budgets the omitted O(log n / n) term with the same 0.04.
EXCESS_BAND = 0.04
# Mean 0 and variance 1 of a standardized first-order statistic, at 10^6
# trials (standard errors about 0.001 and 0.0014).
CLT_TOL = 0.01

# docs/examples/ternary_asymmetric.json: Hamming distortion on three letters
TERNARY_P = (0.5, 0.3, 0.2)
TERNARY_W = ((0.95, 0.05), (0.2, 0.8))
TERNARY_RHO, TERNARY_EPS = 2.0, 0.1
# docs/examples/bsc011_hamming.json: fair bit, Hamming distortion, BSC(0.11)
BSC_P, BSC_RHO, BSC_EPS = 0.11, 1.0, 0.1


def q_inverse(eps: float) -> float:
    return -_NORMAL.inv_cdf(eps)


def q_function(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def entropy(p) -> float:
    return -sum(x * math.log(x) for x in p if x > 0)


def varentropy(p) -> float:
    h = entropy(p)
    return sum(x * (-math.log(x) - h) ** 2 for x in p if x > 0)


def bisect(f, lo: float, hi: float) -> float:
    """Root of f on [lo, hi], where f(lo) and f(hi) differ in sign."""
    f_lo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == (f_lo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def hamming_rdf(p, d: float) -> float:
    """R(P,D) under Hamming distortion, valid for D <= (|S|-1) min P."""
    k = len(p)
    if not 0.0 <= d <= (k - 1) * min(p):
        raise ValueError(f"D = {d} is outside the closed-form range")
    h_d = entropy((d, 1.0 - d))
    return entropy(p) - h_d - d * math.log(k - 1)


def hamming_distortion_for_rate(p, rate: float) -> float:
    return bisect(lambda d: hamming_rdf(p, d) - rate, 1e-15, (len(p) - 1) * min(p))


def binary_input_capacity(w) -> tuple[float, float]:
    """(C, V) of a two-input channel: I(phi) is concave in phi_0 and its
    derivative D(W_0||q) - D(W_1||q) is decreasing, so bisect on it. The
    capacity-achieving input is unique, so V_min = V_max = V."""

    def stats(phi0):
        q = [phi0 * a + (1 - phi0) * b for a, b in zip(*w)]
        dens = [[math.log(wy / qy) for wy, qy in zip(row, q)] for row in w]
        divs = [sum(wy * i for wy, i in zip(row, dr)) for row, dr in zip(w, dens)]
        var = [sum(wy * (i - dv) ** 2 for wy, i in zip(row, dr))
               for row, dr, dv in zip(w, dens, divs)]
        return divs, var

    phi0 = bisect(lambda x: stats(x)[0][0] - stats(x)[0][1], 1e-12, 1 - 1e-12)
    divs, var = stats(phi0)
    weights = (phi0, 1 - phi0)
    return (sum(a * b for a, b in zip(weights, divs)),
            sum(a * b for a, b in zip(weights, var)))


def ternary_refs() -> dict:
    """References for the ternary example, in nats."""
    cap, v_c = binary_input_capacity(TERNARY_W)
    v_s = varentropy(TERNARY_P)  # V_S is constant in D where R is Erokhin's
    v_j = v_s + TERNARY_RHO * v_c
    d_n = {n: hamming_distortion_for_rate(
        TERNARY_P, TERNARY_RHO * cap - math.sqrt(v_j / n) * q_inverse(TERNARY_EPS))
        for n in (100, 500, 1000, 10000)}
    return {"capacity": cap, "v_c": v_c, "v_s": v_s, "v_j": v_j,
            "d_star": hamming_distortion_for_rate(TERNARY_P, TERNARY_RHO * cap),
            "d_n": d_n}


def bsc_d_n(n: int) -> float:
    """The acceptance suite's oracle chain for D_n of the bsc011 example."""
    p = BSC_P
    cap = LN2 - entropy((p, 1 - p))
    v_c = p * (1 - p) * math.log((1 - p) / p) ** 2
    target = BSC_RHO * cap - math.sqrt(v_c / n) * q_inverse(BSC_EPS)
    return bisect(lambda d: LN2 - entropy((d, 1 - d)) - target, 1e-15, 0.5)


class Report:
    """Accumulates the checks of one run: problems found, largest deviation
    from a reference, and the simulation trial counts."""

    def __init__(self, refs_path: str):
        with open(refs_path, encoding="utf-8") as fh:
            self.channel_6x3 = json.load(fh)["channel_6x3"]
        self.ternary = ternary_refs()
        self.problems: list[str] = []
        self.ref_err = 0.0
        self.trials = 0
        self.failed_trials = 0

    def problem(self, text: str) -> None:
        if text not in self.problems:
            self.problems.append(text)

    def ref(self, what: str, value: float, expected: float,
            tol: float = REL_TOL) -> None:
        err = abs(value - expected) / abs(expected)
        self.ref_err = max(self.ref_err, err)
        if not err <= tol:
            self.problem(f"{what}: {value!r} differs from reference "
                         f"{expected!r} by {err:.2e} (tolerance {tol:g})")

    # -- one invocation ---------------------------------------------------

    def invocation(self, argv: list[str], rc: int, out: str) -> None:
        trials = sim_trials(argv)
        self.trials += trials
        if rc != 0:
            self.failed_trials += trials
            return
        if argv[0] == "separation":
            self._fig3(out)
            return
        try:
            report = json.loads(out)
        except json.JSONDecodeError as exc:
            self.problem(f"{argv[0]}: report is not JSON ({exc})")
            return
        try:
            if argv[0] == "simulate":
                self._simulate(argv, report)
            else:
                if "correction_note" not in report:
                    self.problem(f"{argv[0]}: report carries no correction_note")
                getattr(self, "_" + argv[0])(argv, report)
        except (KeyError, TypeError) as exc:
            self.problem(f"{argv[0]}: report lacks a checked field ({exc!r})")

    def _jscc(self, argv, rep) -> None:
        r = self.ternary
        u, u2 = LN2, LN2 ** 2
        self.ref("jscc capacity", rep["capacity"], r["capacity"] / u)
        self.ref("jscc v_min", rep["v_min"], r["v_c"] / u2)
        self.ref("jscc v_max", rep["v_max"], r["v_c"] / u2)
        self.ref("jscc d_star", rep["d_star"], r["d_star"])
        self.ref("jscc v_s_at_d_star", rep["v_s_at_d_star"], r["v_s"] / u2)
        self.ref("jscc v_j_low", rep["v_j_low"], r["v_j"] / u2)
        for row in rep["thresholds"]:
            self.ref(f"jscc d_n(n={row['n']})", row["d_n_with_vlow"],
                     r["d_n"][row["n"]])

    def _source(self, argv, rep) -> None:
        d = float(argv[argv.index("-D") + 1])
        self.ref("source rate", rep["rate"], hamming_rdf(TERNARY_P, d) / LN2)
        self.ref("source v_s", rep["v_s"], self.ternary["v_s"] / LN2 ** 2)

    def _channel(self, argv, rep) -> None:
        ref = self.channel_6x3
        self.ref("channel capacity", rep["capacity"], ref["capacity"])
        if rep["capacity_set_is_singleton"]:
            self.problem("channel: the 6x3 capacity-achieving set is not a point")
        lo, hi = ref["v_min"], ref["v_max"]
        if not (lo - 1e-9 <= rep["v_min"] <= rep["v_max"] <= hi + 1e-9):
            self.problem(f"channel: [{rep['v_min']}, {rep['v_max']}] leaves the "
                         f"exact range [{lo}, {hi}]")
        self.ref("channel v_min", rep["v_min"], lo, VRANGE_TOL)
        self.ref("channel v_max", rep["v_max"], hi, VRANGE_TOL)

    def _fig3(self, out: str) -> None:
        rows = list(csv.reader(io.StringIO(out)))
        if rows[:1] != [["eps", "lambda", "eps_tilde"]] or len(rows) != 1601:
            self.problem("separation: expected a header and 8 x 200 rows")
            return
        lambdas = {float(r[1]) for r in rows[1:]}
        if len(lambdas) != 8:
            self.problem(f"separation: {len(lambdas)} lambda curves, not 8")
        for eps, lam, tilde in ((float(a), float(b), float(c)) for a, b, c in rows[1:]):
            if lam == 1.0:  # closed form of criterion 03
                split = 1.0 - math.sqrt(1.0 - eps)
                self.ref(f"separation eps_tilde(eps={eps:.3g}, lambda=1)", tilde,
                         q_function(math.sqrt(2.0) * q_inverse(split)))

    def _simulate(self, argv, rep) -> None:
        what = argv[argv.index("--what") + 1]
        bsc = argv[1] == workloads.BSC011
        for row in rep.get("results", ()):
            n = row["n"]
            if what == "excess":
                d_ref = bsc_d_n(n) if bsc else self.ternary["d_n"][n]
                self.ref(f"excess d_n(n={n})", row["d_n_with_vlow"], d_ref)
                band = EXCESS_BAND + 4 * math.sqrt(
                    row["eps_target"] * (1 - row["eps_target"]) / row["trials"])
                if abs(row["estimate"] - row["eps_target"]) > band:
                    self.problem(f"excess: estimate {row['estimate']} is more "
                                 f"than {band:.3f} from eps {row['eps_target']}")
                self.failed_trials += row["diagnostics"]["boundary_trials"]
            elif what == "clt-mi":
                if (abs(row["sample_mean"]) > CLT_TOL
                        or abs(row["sample_variance"] - 1.0) > CLT_TOL):
                    self.problem(f"clt-mi n={n}: mean {row['sample_mean']}, "
                                 f"variance {row['sample_variance']}")
            elif what == "xi":
                # Hoeffding: 2 |X| |Y| / n^2 with the 2x2 channel of bsc011
                self.ref(f"xi bound(n={n})", row["bound"], 8.0 / n ** 2)
                if not row["bound_respected"]:
                    self.problem(f"xi n={n}: estimate {row['estimate']} "
                                 f"above the Hoeffding bound")
        if not rep.get("results"):
            self.problem(f"simulate {what}: report has no results")


def sim_trials(argv: list[str]) -> int:
    """Trials an invocation simulates: --trials per block length."""
    if argv[0] != "simulate":
        return 0
    n_count = (len(argv[argv.index("--n-list") + 1].split(","))
               if "--n-list" in argv else 1)  # both example files list one n
    return int(argv[argv.index("--trials") + 1]) * n_count
