"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; all expected values come from closed-form oracles evaluated inline
or frozen from independent computations.
"""

import json
import math
import time

import numpy as np

from jsccdisp import (
    Channel,
    Distribution,
    EmpiricalType,
    JsccProblem,
    DEFAULT_LAMBDA_CURVES,
    SourceSpec,
    dball_bound,
    dball_count_exact,
    dispersion_report,
    distortion_threshold,
    excess_event_probability,
    first_order_mi_samples,
    lossless_rho,
    mi_continuity_check,
    q_function,
    q_inverse,
    rdf,
    separation_equivalent_eps,
    separation_split,
    uep_simulate,
    xi_n_violation_rate,
)
from jsccdisp.cli import main as cli_main
from jsccdisp.mcsim import SimConfig
from jsccdisp.uep import UepConfig, uep_dispersion_rate, union_bound_gamma

LN2 = math.log(2.0)
HAMMING = np.array([[0.0, 1.0], [1.0, 0.0]])
SEED = 20240917


def h_nats(q: float) -> float:
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * math.log(q) - (1 - q) * math.log(1 - q)


def bisect_h(target_nats: float) -> float:
    lo, hi = 1e-15, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h_nats(mid) < target_nats:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fair_problem() -> JsccProblem:
    src = SourceSpec(Distribution(np.array([0.5, 0.5])), HAMMING)
    w = Channel(np.array([[0.89, 0.11], [0.11, 0.89]]))
    return JsccProblem(src, w, 1.0, 0.1)


def report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_01_dispersion_formula_wiring():
    t0 = time.monotonic()
    pb = fair_problem()
    rep = dispersion_report(pb)
    elapsed = time.monotonic() - t0

    # independent closed-form oracles, p = 0.11
    p = 0.11
    v_c_bits2 = p * (1 - p) * math.log2((1 - p) / p) ** 2  # ~ 0.8907
    d_star_err = abs(rep.d_star - 0.110)
    v_s_err = abs(rep.v_s_at_d_star)
    v_j_bits2 = rep.v_j_low / LN2 ** 2
    v_j_err = abs(v_j_bits2 - v_c_bits2)

    ok = (d_star_err <= 1e-6 and v_s_err <= 1e-9 and v_j_err <= 1e-6
          and abs(rep.v_j_high / LN2 ** 2 - v_c_bits2) <= 1e-6
          and elapsed < 1.0)
    report(1, "dispersion-formula-wiring", ok,
           f"D*={rep.d_star:.8f}, V_S={rep.v_s_at_d_star:.2e}, "
           f"V_J={v_j_bits2:.7f} bits^2 vs {v_c_bits2:.7f}, {elapsed:.2f}s")
    assert d_star_err <= 1e-6
    assert v_s_err <= 1e-9
    assert v_j_err <= 1e-6
    assert elapsed < 1.0


def test_criterion_02_theorem2_threshold():
    pb = fair_problem()
    pt = distortion_threshold(pb, 1000, tol=1e-12)

    # oracle chain: target = C - sqrt(V_J/1000) Qinv(0.1) in bits, then
    # solve h(D) = 1 - target by bisection
    p = 0.11
    c_bits = 1 - (h_nats(p) / LN2)
    v_j_bits2 = p * (1 - p) * math.log2((1 - p) / p) ** 2
    target_bits = c_bits - math.sqrt(v_j_bits2 / 1000) * q_inverse(0.1)
    d_oracle = bisect_h((1 - target_bits) * LN2)

    achieved_bits = rdf(pb.source, pt.d_with_vlow, 1e-12).rate / LN2
    rate_gap = abs(achieved_bits - target_bits)
    d_err = abs(pt.d_with_vlow - d_oracle)

    ns = [100, 1000, 10_000, 100_000]
    pts = [distortion_threshold(pb, n) for n in ns]
    ds = [q.d_with_vlow for q in pts]
    monotone = all(a >= b for a, b in zip(ds, ds[1:]))
    d_star = dispersion_report(pb).d_star
    rho_c = pb.rho * (LN2 - h_nats(p))
    v_j_high = v_j_bits2 * LN2 ** 2
    converges = all(
        abs(rdf(pb.source, q.d_with_vlow, 1e-11).rate - rho_c)
        <= math.sqrt(v_j_high / n) * abs(q_inverse(0.1)) + 1e-9
        for n, q in zip(ns, pts)
    ) and all(d >= d_star for d in ds)

    ok = rate_gap <= 1e-9 and d_err <= 1e-4 and monotone and converges
    report(2, "theorem2-threshold", ok,
           f"D_1000={pt.d_with_vlow:.6f} vs oracle {d_oracle:.6f}, "
           f"rate gap {rate_gap:.1e} bits, monotone={monotone}")
    assert rate_gap <= 1e-9
    assert d_err <= 1e-4
    assert monotone and converges


def test_criterion_03_separation_closed_form():
    eps = 0.1
    split_oracle = 1 - math.sqrt(1 - eps)
    tilde_oracle = q_function(math.sqrt(2) * q_inverse(split_oracle))
    tilde = separation_equivalent_eps(eps, 1.0)
    e_s, e_c, _ = separation_split(eps, 1.0)
    tilde_err = abs(tilde - tilde_oracle)
    split_err = max(abs(e_s - split_oracle), abs(e_c - split_oracle))
    ok = tilde_err <= 1e-6 and split_err <= 1e-6
    report(3, "separation-closed-form", ok,
           f"eps_tilde={tilde:.8f} vs {tilde_oracle:.8f}, "
           f"split err {split_err:.1e}")
    assert tilde_err <= 1e-6
    assert split_err <= 1e-6


def test_criterion_04_separation_symmetry_and_limits(tmp_path):
    t0 = time.monotonic()
    lambdas = np.geomspace(1e-3, 1e3, 13)
    worst = 0.0
    for eps in (0.01, 0.1, 0.3):
        for lam in lambdas:
            a = separation_equivalent_eps(eps, float(lam))
            b = separation_equivalent_eps(eps, float(1.0 / lam))
            worst = max(worst, abs(a - b))
    limit_ok = separation_equivalent_eps(0.1, 1e6) >= 0.099

    out = tmp_path / "fig3.csv"
    code = cli_main(["separation", "--paper-fig3", "--out", str(out)])
    lines = out.read_text().strip().split("\n")
    curves: dict[float, list[tuple[float, float]]] = {}
    for line in lines[1:]:
        e, lam, tilde = (float(v) for v in line.split(","))
        curves.setdefault(lam, []).append((e, tilde))
    eight_curves = sorted(curves) == sorted(DEFAULT_LAMBDA_CURVES)
    eps_sorted = sorted(e for e, _ in curves[1.0])
    nondecreasing = True
    ordered_lams = sorted(curves)
    for i in range(len(ordered_lams) - 1):
        lo = dict(curves[ordered_lams[i]])
        hi = dict(curves[ordered_lams[i + 1]])
        for e in eps_sorted:
            if hi[e] < lo[e] - 1e-12:
                nondecreasing = False
    elapsed = time.monotonic() - t0

    ok = (worst <= 1e-6 and limit_ok and code == 0 and eight_curves
          and nondecreasing and elapsed < 30.0)
    report(4, "separation-symmetry-and-limits", ok,
           f"max asymmetry {worst:.1e}, eps_tilde(0.1,1e6)="
           f"{separation_equivalent_eps(0.1, 1e6):.5f}, {elapsed:.1f}s")
    assert worst <= 1e-6
    assert limit_ok
    assert code == 0 and eight_curves and nondecreasing
    assert elapsed < 30.0


def test_criterion_05_lossless_dispersion():
    w = Channel(np.array([[0.89, 0.11], [0.11, 0.89]]))
    rng = np.random.default_rng(5)
    worst = 0.0
    for probs in ([0.11, 0.89], [0.3, 0.7], list(rng.dirichlet(np.ones(4)))):
        arr = np.array(probs)
        k = arr.size
        src = SourceSpec(Distribution(arr), np.ones((k, k)) - np.eye(k))
        pt = lossless_rho(src, w, 1000, 0.1)
        logs = np.log(np.where(arr > 0, arr, 1.0))
        var_oracle = float(np.dot(arr, logs ** 2) - np.dot(arr, logs) ** 2)
        worst = max(worst, abs(pt.v_source - var_oracle))

    # Bernoulli(0.11): Var[log P] coincides with the Hamming V_S oracle
    p = 0.11
    v_s_oracle = p * (1 - p) * math.log((1 - p) / p) ** 2
    src11 = SourceSpec(Distribution(np.array([0.89, 0.11])), HAMMING)
    gap = abs(lossless_rho(src11, w, 1000, 0.1).v_source - v_s_oracle)

    ok = worst <= 1e-9 and gap <= 1e-6
    report(5, "lossless-dispersion", ok,
           f"max |v_source - Var log P| = {worst:.1e}, "
           f"|v_source - V_S oracle| = {gap:.1e}")
    assert worst <= 1e-9
    assert gap <= 1e-6


def test_criterion_06_gaussian_statistic_validation():
    t0 = time.monotonic()
    w = Channel(np.array([[0.89, 0.11], [0.11, 0.89]]))
    phi = EmpiricalType(np.array([5000, 5000]), 10_000)
    res = first_order_mi_samples(phi, w, 10_000, SEED)
    elapsed = time.monotonic() - t0
    ok = (0.95 <= res.sample_variance <= 1.05 and res.ks_statistic <= 0.02
          and elapsed < 60.0)
    report(6, "gaussian-statistic-validation", ok,
           f"variance={res.sample_variance:.4f}, KS={res.ks_statistic:.4f}, "
           f"{elapsed:.1f}s")
    assert 0.95 <= res.sample_variance <= 1.05
    assert res.ks_statistic <= 0.02
    assert elapsed < 60.0


def test_criterion_07_excess_event_validation():
    t0 = time.monotonic()
    pb = fair_problem()
    d_n = distortion_threshold(pb, 1000).d_with_vlow
    phi = EmpiricalType(np.array([500, 500]), 1000)
    res = excess_event_probability(pb.source, pb.channel, phi, d_n, 1000,
                                   100_000, SEED)
    elapsed = time.monotonic() - t0
    # the +-0.04 slack budgets the omitted O(log n / n) term
    ok = 0.06 <= res.estimate <= 0.14 and elapsed < 300.0
    report(7, "excess-event-validation", ok,
           f"estimate={res.estimate:.4f} (3sig={3 * res.std_error:.4f}), "
           f"{elapsed:.1f}s")
    assert 0.06 <= res.estimate <= 0.14
    assert elapsed < 300.0


def test_criterion_08_bound_suite():
    t0 = time.monotonic()
    w = Channel(np.array([[0.89, 0.11], [0.11, 0.89]]))

    xi_ok = True
    for n in (50, 100, 200, 400):
        phi = EmpiricalType(np.array([n // 2, n // 2]), n)
        res = xi_n_violation_rate(phi, w, 100_000, SEED)
        if res.estimate > res.diagnostics["bound"] + 3 * res.std_error:
            xi_ok = False

    dball_ok = True
    rng = np.random.default_rng(SEED)
    src = SourceSpec(Distribution(np.array([0.5, 0.5])), HAMMING)
    for n in range(1, 13):
        shats = [np.zeros(n, dtype=int), np.ones(n, dtype=int),
                 np.array(([0, 1] * n)[:n], dtype=int),
                 rng.integers(0, 2, n)]
        for k in range(0, n + 1):
            q = EmpiricalType(np.array([n - k, k]), n)
            for s_hat in shats:
                for frac in range(0, 11):
                    d = frac / 10.0
                    cnt = dball_count_exact(q, s_hat, HAMMING, d)
                    if cnt > dball_bound(q, src, d) * (1 + 1e-9):
                        dball_ok = False

    cont_ok = True
    delta_cap = 1.0 / (2 * 2 * 2)
    for _ in range(1000):
        p = rng.dirichlet(np.ones(2))
        t = rng.uniform(0, delta_cap)
        shift = min(t, p[0], p[1])
        qv = np.array([p[0] - shift, p[1] + shift])
        delta = max(shift, 1e-300)
        _, _, holds = mi_continuity_check(
            Distribution(p), Distribution(qv), w, delta)
        if not holds:
            cont_ok = False
    elapsed = time.monotonic() - t0

    ok = xi_ok and dball_ok and cont_ok and elapsed < 120.0
    report(8, "bound-suite", ok,
           f"xi={xi_ok}, dball={dball_ok}, continuity={cont_ok}, "
           f"{elapsed:.1f}s")
    assert xi_ok and dball_ok and cont_ok
    assert elapsed < 120.0


def test_criterion_09_uep_random_coding_average():
    # validates the random-coding average, not the derandomized per-code
    # guarantee (the packing construction is out of scope)
    t0 = time.monotonic()
    w = Channel(np.array([[0.89, 0.11], [0.11, 0.89]]))
    n = 128
    phi = EmpiricalType(np.array([64, 64]), n)
    gamma = union_bound_gamma(n, 2)
    rate = uep_dispersion_rate(phi, w, 0.2, gamma)
    cfg = UepConfig(rates=(rate, rate), input_types=(phi, phi), gamma=gamma)
    res = uep_simulate(cfg, w, SimConfig(seed=SEED, trials=10_000, n=n))
    elapsed = time.monotonic() - t0

    e1s = [c.e1.estimate for c in res.classes]
    e2s = [c.e2.estimate for c in res.classes]
    e1_ok = all(abs(e - 0.2) <= 0.08 for e in e1s)
    e2_ok = all(e <= 0.05 for e in e2s)
    ok = e1_ok and e2_ok and elapsed < 120.0
    report(9, "uep-random-coding-average", ok,
           f"E1={e1s}, E2={e2s}, {elapsed:.1f}s")
    assert e1_ok
    assert e2_ok
    assert elapsed < 120.0


def test_criterion_10_determinism(tmp_path):
    problem = {
        "source": {"probs": [0.5, 0.5], "distortion": [[0.0, 1.0], [1.0, 0.0]]},
        "channel": {"matrix": [[0.89, 0.11], [0.11, 0.89]]},
        "rho": 1.0,
        "eps": 0.1,
        "units": "bits",
        "sim": {"seed": SEED, "trials": 2000, "n_list": [200]},
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))

    all_ok = True
    for what, extra in (("excess", []), ("xi", []), ("clt-mi", []),
                        ("uep", ["--eps", "0.2", "--n-list", "128"])):
        outputs = []
        for i, workers in enumerate((1, 1, 4)):
            out = tmp_path / f"{what}-{i}.json"
            code = cli_main(["simulate", str(path), "--what", what,
                             "--workers", str(workers), "--out", str(out)]
                            + extra)
            assert code == 0
            outputs.append(out.read_bytes())
        if not (outputs[0] == outputs[1] == outputs[2]):
            all_ok = False
    report(10, "simulate-determinism", all_ok,
           "byte-identical across two runs and workers {1,4} "
           "for excess/xi/clt-mi/uep")
    assert all_ok
