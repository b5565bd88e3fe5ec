"""Command-line front end.

Subcommands: channel, source, jscc, separation, simulate. Structured
reports are JSON; curves and tables are CSV with a header row, '.' decimal
separator, and '\\n' newlines. Rates are reported in bits by default
(--units nats switches); internal computation is always in nats.

Exit codes: 0 ok, 2 parse/usage error, 3 numerical failure,
4 boundary condition (OPTA on the boundary, target rate out of range).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import channel as ch
from . import jscc
from . import mcsim
from . import source as sa
from .errors import BoundaryDistortion, JsccDispError, RateOutOfRange
from .probcore import Channel, Distribution, nearest_type
from .source import SourceSpec

LN2 = math.log(2.0)


class ProblemFileError(Exception):
    """A problem file (or CLI grid) failed to parse or validate."""


# ---------------------------------------------------------------------------
# Problem file handling
# ---------------------------------------------------------------------------

def _get(mapping, key, path, required=True):
    if not isinstance(mapping, dict):
        raise ProblemFileError(f"{path or 'top level'}: expected an object")
    if key not in mapping:
        if required:
            raise ProblemFileError(f"missing field '{path}{key}'")
        return None
    return mapping[key]


def load_problem_file(path: str) -> dict:
    """Parse a ProblemFile JSON into validated library objects.

    Returns a dict with any of: source, channel, rho, eps, units, sim.
    Field errors name the offending field.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc

    out: dict = {}
    if "source" in raw:
        src = raw["source"]
        probs = _get(src, "probs", "source.")
        dist = _get(src, "distortion", "source.")
        try:
            out["source"] = SourceSpec(Distribution(np.array(probs, dtype=float)),
                                       np.array(dist, dtype=float))
        except (JsccDispError, ValueError, TypeError) as exc:
            raise ProblemFileError(f"field 'source': {exc}") from exc
    if "channel" in raw:
        mat = _get(raw["channel"], "matrix", "channel.")
        try:
            out["channel"] = Channel(np.array(mat, dtype=float))
        except (JsccDispError, ValueError, TypeError) as exc:
            raise ProblemFileError(f"field 'channel.matrix': {exc}") from exc
    for key in ("rho", "eps"):
        if key in raw:
            try:
                out[key] = float(raw[key])
            except (TypeError, ValueError) as exc:
                raise ProblemFileError(f"field '{key}': not a number") from exc
    units = raw.get("units", "bits")
    if units not in ("bits", "nats"):
        raise ProblemFileError("field 'units': must be 'bits' or 'nats'")
    out["units"] = units
    if "sim" in raw:
        sim = raw["sim"]
        try:
            out["sim"] = {
                "seed": int(_get(sim, "seed", "sim.")),
                "trials": int(_get(sim, "trials", "sim.")),
                "n_list": [int(v) for v in _get(sim, "n_list", "sim.")],
            }
        except (TypeError, ValueError) as exc:
            raise ProblemFileError(f"field 'sim': {exc}") from exc
        if out["sim"]["trials"] < 1:
            raise ProblemFileError("field 'sim.trials': must be a positive integer")
    return out


def _load(args) -> dict:
    """The problem file of a command, with ``--eps`` overriding its eps."""
    problem = load_problem_file(args.file)
    if args.eps is not None:
        problem["eps"] = args.eps
    return problem


def _require(problem: dict, key: str):
    if key not in problem:
        raise ProblemFileError(f"this command needs field '{key}' in the file")
    return problem[key]


class Units:
    """Converts nats-valued quantities for reporting."""

    def __init__(self, name: str):
        if name not in ("bits", "nats"):
            raise ProblemFileError("units must be 'bits' or 'nats'")
        self.name = name
        self._div = LN2 if name == "bits" else 1.0

    def rate(self, x: float) -> float:
        return x / self._div

    def var(self, x: float) -> float:
        return x / (self._div * self._div)


# ---------------------------------------------------------------------------
# Emission helpers (deterministic byte output)
# ---------------------------------------------------------------------------

def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out_path: str | None):
    _emit(json.dumps(obj, sort_keys=True, indent=2) + "\n", out_path)


def _emit_csv(header: list[str], rows: list[tuple], out_path: str | None):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row))
    _emit("\n".join(lines) + "\n", out_path)


def _parse_float_list(text: str, what: str, valid, need: str) -> list[float]:
    """The comma-separated values of flag ``what``, each passing ``valid``."""
    items = [t for t in text.split(",") if t.strip()]
    if not items:
        raise ProblemFileError(f"{what}: empty grid")
    try:
        values = [float(t) for t in items]
    except ValueError as exc:
        raise ProblemFileError(f"{what}: {exc}") from exc
    for text_v, v in zip(items, values):
        if not valid(v):
            raise ProblemFileError(f"{what}: {text_v.strip()} is not {need}")
    return values


def _n_list(args, problem) -> list[int]:
    if args.n_list:
        return [int(v) for v in _parse_float_list(
            args.n_list, "--n-list", lambda v: v.is_integer() and v >= 1,
            "a positive integer")]
    sim = problem.get("sim")
    if sim and sim["n_list"]:
        return sim["n_list"]
    return [1000]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_channel(args) -> int:
    problem = _load(args)
    w = _require(problem, "channel")
    units = Units(args.units or problem.get("units", "bits"))
    disp = ch.vmin_vmax(w, args.tol)
    cap = disp.capacity
    report = {
        "units": units.name,
        "capacity": units.rate(cap.capacity),
        "capacity_bracket": [units.rate(cap.lower_bound),
                             units.rate(cap.upper_bound)],
        "iterations": cap.iterations,
        "input_distribution": cap.input_distribution.probs.tolist(),
        "v_min": units.var(disp.v_min),
        "v_max": units.var(disp.v_max),
        "capacity_set_is_singleton": disp.capacity_set_is_singleton,
        "v_min_positive": disp.v_min_positive,
        "correction_note": ch.CORRECTION_NOTE,
    }
    eps = problem.get("eps")
    if eps is not None:
        rows = []
        for n in _n_list(args, problem):
            pt = ch.channel_rate_at(w, n, eps, disp, args.tol)
            rows.append({
                "n": n,
                "eps": eps,
                "rate": units.rate(pt.rate),
                "rate_with_vmin": units.rate(pt.rate_with_vmin),
                "rate_with_vmax": units.rate(pt.rate_with_vmax),
            })
        report["rates"] = rows
    _emit_json(report, args.out)
    return 0


def cmd_source(args) -> int:
    problem = _load(args)
    src = _require(problem, "source")
    units = Units(args.units or problem.get("units", "bits"))
    d = args.distortion
    if d is None:
        raise ProblemFileError("the source command needs --distortion")
    dm = sa.d_max(src)
    interior = sa.BOUNDARY_TOL < d < dm - sa.BOUNDARY_TOL
    if interior:
        res, _, v_s = sa._tilted_solve(src, d, min(args.tol, 1e-11))
    else:
        res = sa.rdf(src, d, min(args.tol, 1e-9))
    report = {
        "units": units.name,
        "distortion": d,
        "rate": units.rate(res.rate),
        "achieved_distortion": res.achieved_distortion,
        "lagrange_slope": None if not math.isfinite(res.lagrange_slope)
        else units.rate(res.lagrange_slope),
        "d_max": dm,
        "correction_note": jscc.CORRECTION_NOTE,
    }
    if interior:
        report["v_s"] = units.var(v_s)
        eps = problem.get("eps")
        if eps is not None:
            report["rates"] = [
                {"n": n, "eps": eps,
                 "rate": units.rate(sa._normal_rate(res.rate, v_s, n, eps))}
                for n in _n_list(args, problem)]
    _emit_json(report, args.out)
    return 0


def _jscc_problem(problem: dict) -> jscc.JsccProblem:
    return jscc.JsccProblem(
        source=_require(problem, "source"),
        channel=_require(problem, "channel"),
        rho=_require(problem, "rho"),
        eps=_require(problem, "eps"),
    )


def cmd_jscc(args) -> int:
    problem = _load(args)
    units = Units(args.units or problem.get("units", "bits"))
    pb = _jscc_problem(problem)
    n_list = _n_list(args, problem)

    if args.lossless:
        disp = ch.vmin_vmax(pb.channel)
        pts = [jscc.lossless_rho(pb.source, pb.channel, n, pb.eps, disp=disp)
               for n in n_list]
        rows = [(pt.n, pt.rho_with_vlow, pt.rho_with_vhigh) for pt in pts]
        if args.format == "csv":
            _emit_csv(["n", "rho_n_with_vlow", "rho_n_with_vhigh"], rows, args.out)
        else:
            _emit_json({
                "units": units.name,
                "mode": "lossless",
                "h_over_c": pts[0].h_over_c,
                "v_source": units.var(pts[0].v_source),
                "rho_n": [{"n": n, "with_vlow": lo, "with_vhigh": hi}
                          for n, lo, hi in rows],
                "correction_note": jscc.CORRECTION_NOTE,
            }, args.out)
        return 0

    rep = jscc.dispersion_report(pb)
    thresholds = []
    for n in n_list:
        pt = jscc.distortion_threshold(pb, n, report=rep)
        thresholds.append({
            "n": n,
            "d_n_with_vlow": pt.d_with_vlow,
            "d_n_with_vhigh": pt.d_with_vhigh,
            "target_rate_with_vlow": units.rate(pt.target_rate_with_vlow),
            "target_rate_with_vhigh": units.rate(pt.target_rate_with_vhigh),
        })
    if args.format == "csv":
        rows = [(t["n"], t["d_n_with_vlow"], t["d_n_with_vhigh"],
                 t["target_rate_with_vlow"], t["target_rate_with_vhigh"])
                for t in thresholds]
        _emit_csv(["n", "d_n_with_vlow", "d_n_with_vhigh",
                   "target_rate_with_vlow", "target_rate_with_vhigh"],
                  rows, args.out)
    else:
        _emit_json({
            "units": units.name,
            "eps": pb.eps,
            "rho": pb.rho,
            "capacity": units.rate(rep.capacity),
            "v_min": units.var(rep.v_min),
            "v_max": units.var(rep.v_max),
            "capacity_set_is_singleton": rep.capacity_set_is_singleton,
            "d_star": rep.d_star,
            "r_at_d_star": units.rate(rep.r_at_d_star),
            "v_s_at_d_star": units.var(rep.v_s_at_d_star),
            "v_j_low": units.var(rep.v_j_low),
            "v_j_high": units.var(rep.v_j_high),
            "thresholds": thresholds,
            "correction_note": rep.correction_note,
        }, args.out)
    return 0


def cmd_separation(args) -> int:
    if args.paper_fig3:
        lambdas = list(jscc.DEFAULT_LAMBDA_CURVES)
        eps_grid = np.geomspace(1e-4, 0.5, 200).tolist()
    else:
        lambdas = (_parse_float_list(args.lambda_list, "--lambda-list",
                                     lambda v: 0.0 < v < math.inf,
                                     "positive and finite")
                   if args.lambda_list else list(jscc.DEFAULT_LAMBDA_CURVES))
        if not args.eps_grid:
            raise ProblemFileError("separation needs --eps-grid or --paper-fig3")
        eps_grid = _parse_float_list(args.eps_grid, "--eps-grid",
                                     lambda v: 0.0 < v < 1.0, "in (0, 1)")
    rows = jscc.separation_curve(eps_grid, lambdas)
    _emit_csv(["eps", "lambda", "eps_tilde"], rows, args.out)
    return 0


def _sim_context(args, problem):
    sim = problem.get("sim")
    if sim is None:
        raise JsccDispError("the simulate command needs a 'sim' block")
    seed = args.seed if args.seed is not None else sim["seed"]
    trials = args.trials if args.trials is not None else sim["trials"]
    return int(seed), int(trials)


# One function per ``simulate --what`` mode: (args, problem, seed, trials,
# n_list) -> the report's "results". The CLT modes build each block
# length's row in a function of its own, so that the row's samples are
# freed before the next block length is drawn.

def _simulate_excess(args, problem, seed, trials, n_list):
    pb = _jscc_problem(problem)
    rep = jscc.dispersion_report(pb)
    cap = rep.channel_dispersion.capacity

    def row(n):
        pt = jscc.distortion_threshold(pb, n, report=rep)
        m = int(math.floor(pb.rho * n))
        phi_m = nearest_type(cap.input_distribution, m)
        res = mcsim.excess_event_probability(
            pb.source, pb.channel, phi_m, pt.d_with_vlow, n,
            trials, seed, args.workers)
        return {
            "n": n,
            "d_n_with_vlow": pt.d_with_vlow,
            "d_n_with_vhigh": pt.d_with_vhigh,
            "eps_target": pb.eps,
            "estimate": res.estimate,
            "std_error": res.std_error,
            "trials": res.trials,
            "diagnostics": res.diagnostics,
        }

    return [row(n) for n in n_list]


def _clt_row(res: mcsim.CltResult, n: int, **extra) -> dict:
    return {"n": n, "ks_statistic": res.ks_statistic,
            "sample_mean": res.sample_mean,
            "sample_variance": res.sample_variance,
            "trials": res.trials, **extra}


def _simulate_clt_mi(args, problem, seed, trials, n_list):
    w = _require(problem, "channel")
    cap = ch.capacity(w)

    def row(n):
        phi_n = nearest_type(cap.input_distribution, n)
        return _clt_row(mcsim.first_order_mi_samples(
            phi_n, w, trials, seed, args.workers), n)

    return [row(n) for n in n_list]


def _simulate_clt_jscc(args, problem, seed, trials, n_list):
    pb = _jscc_problem(problem)
    cap = ch.capacity(pb.channel)
    d_star = sa.distortion_rate(pb.source, pb.rho * cap.capacity)
    solve = sa._tilted_solve(pb.source, d_star)

    def row(n):
        m = int(math.floor(pb.rho * n))
        phi_m = nearest_type(cap.input_distribution, m)
        return _clt_row(mcsim.first_order_jscc_samples(
            pb.source, d_star, pb.channel, phi_m, n, trials, seed,
            args.workers, solve=solve), n, d_star=d_star)

    return [row(n) for n in n_list]


def _simulate_xi(args, problem, seed, trials, n_list):
    w = _require(problem, "channel")
    cap = ch.capacity(w)

    def row(n):
        phi_n = nearest_type(cap.input_distribution, n)
        res = mcsim.xi_n_violation_rate(phi_n, w, trials, seed, args.workers)
        bound = res.diagnostics["bound"]
        return {
            "n": n,
            "estimate": res.estimate,
            "std_error": res.std_error,
            "bound": bound,
            "bound_respected": res.estimate <= bound + 3 * res.std_error,
            "trials": res.trials,
        }

    return [row(n) for n in n_list]


def _simulate_uep(args, problem, seed, trials, n_list):
    w = _require(problem, "channel")
    eps_i = _require(problem, "eps")
    n = n_list[0]
    cap = ch.capacity(w)
    phi_n = nearest_type(cap.input_distribution, n)
    classes = args.uep_classes
    gamma = (args.uep_gamma if args.uep_gamma is not None
             else mcsim.union_bound_gamma(n, classes))
    rate = mcsim.uep_dispersion_rate(phi_n, w, eps_i, gamma)
    cfg = mcsim.UepConfig(
        rates=tuple([rate] * classes),
        input_types=tuple([phi_n] * classes),
        gamma=gamma,
    )
    sim = mcsim.SimConfig(seed=seed, trials=trials, n=n)
    res = mcsim.uep_simulate(cfg, w, sim, args.workers)
    return {
        "n": n,
        "gamma": res.gamma,
        "eta_n": res.eta,
        "eps_target": eps_i,
        "classes": [{
            "class_index": c.class_index,
            "rate_nats": c.rate,
            "n_codewords": c.n_codewords,
            "e1": c.e1.estimate,
            "e1_std_error": c.e1.std_error,
            "e2": c.e2.estimate,
            "e2_std_error": c.e2.std_error,
            "overall": c.overall.estimate,
        } for c in res.classes],
    }


def _simulate_dball(args, problem, seed, trials, n_list):
    src = _require(problem, "source")
    n = min(min(n_list), 14)
    q_type = nearest_type(src.distribution, n)
    best = int(np.argmin(src.distribution.probs @ src.distortion))
    s_hat = np.full(n, best, dtype=np.int64)
    dm = sa.d_max(src)
    results = []
    for frac in range(0, 11):
        d = dm * frac / 10.0
        count = mcsim.dball_count_exact(q_type, s_hat, src.distortion, d)
        bound = mcsim.dball_bound(q_type, src, d)
        results.append({
            "n": n,
            "d": d,
            "count": count,
            "bound": bound,
            "bound_respected": count <= bound * (1 + 1e-9),
        })
    return results


def _simulate_mi_cont(args, problem, seed, trials, n_list):
    w = _require(problem, "channel")
    rng = np.random.default_rng(seed)
    n_x = w.input_size
    delta_cap = 1.0 / (2 * n_x * w.output_size)
    held = 0
    worst = 0.0
    for _ in range(trials):
        p = rng.dirichlet(np.ones(n_x))
        v = rng.uniform(-1.0, 1.0, n_x)
        v -= v.mean()
        vmax = np.max(np.abs(v))
        if vmax == 0:
            continue
        v /= vmax
        t = rng.uniform(0.0, delta_cap)
        neg = v < 0
        if np.any(neg):
            t = min(t, float(np.min(p[neg] / -v[neg])))
        q = np.maximum(p + t * v, 0.0)
        q /= q.sum()
        delta = max(float(np.max(np.abs(p - q))), 1e-300)
        delta = min(delta, delta_cap)
        lhs, rhs, ok = mcsim.mi_continuity_check(
            Distribution(p), Distribution(q), w, delta)
        held += int(ok)
        if rhs > 0:
            worst = max(worst, lhs / rhs)
    return {
        "held": held,
        "trials": trials,
        "all_held": held == trials,
        "worst_lhs_over_rhs": worst,
    }


_SIMULATIONS = {
    "excess": _simulate_excess,
    "clt-mi": _simulate_clt_mi,
    "clt-jscc": _simulate_clt_jscc,
    "xi": _simulate_xi,
    "uep": _simulate_uep,
    "dball": _simulate_dball,
    "mi-cont": _simulate_mi_cont,
}


def cmd_simulate(args) -> int:
    problem = _load(args)
    seed, trials = _sim_context(args, problem)
    n_list = _n_list(args, problem)
    report = {"what": args.what, "seed": seed, "trials": trials,
              "results": _SIMULATIONS[args.what](args, problem, seed, trials,
                                                 n_list)}
    _emit_json(report, args.out)
    return 0


def _positive_int(text: str) -> int:
    """An argparse type: a positive integer, else a usage error."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{text} is not a positive integer")


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

_COMMON_FLAGS = {
    "--units": dict(choices=["bits", "nats"],
                    help="output units (default: file setting, else bits)"),
    "--out": dict(help="output path (default stdout)"),
    "--tol": dict(type=float, default=1e-10, help="numerical tolerance in nats"),
    "--seed": dict(type=int, help="override the simulation seed"),
    "--eps": dict(type=float, help="override the target probability"),
    "--n-list": dict(help="comma-separated block lengths"),
}


def _subcommand(sub, name: str, flags: tuple, **kwargs) -> argparse.ArgumentParser:
    """A subcommand that accepts the common ``flags`` it reads, and no other.

    Flags are matched whole: a prefix such as ``--eps`` would otherwise be
    taken for ``--eps-grid``.
    """
    p = sub.add_parser(name, allow_abbrev=False, **kwargs)
    for flag in flags:
        p.add_argument(flag, **_COMMON_FLAGS[flag])
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jsccdisp",
        description="Finite-blocklength joint source-channel dispersion toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "channel", ("--units", "--out", "--tol", "--eps", "--n-list"),
                    help="capacity, V_min/V_max, and rate approximations")
    p.add_argument("file")
    p.set_defaults(fn=cmd_channel)

    p = _subcommand(sub, "source", ("--units", "--out", "--tol", "--eps", "--n-list"),
                    help="rate-distortion, V_S, and rate approximations")
    p.add_argument("file")
    p.add_argument("--distortion", "-D", type=float, default=None)
    p.set_defaults(fn=cmd_source)

    p = _subcommand(sub, "jscc", ("--units", "--out", "--eps", "--n-list"),
                    help="dispersion report and D_n (or rho_n) tables")
    p.add_argument("file")
    p.add_argument("--lossless", action="store_true",
                   help="emit the lossless rho_n table instead")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(fn=cmd_jscc)

    p = _subcommand(sub, "separation", ("--out",),
                    help="eps_tilde(eps, lambda) curves as CSV")
    p.add_argument("--eps-grid", default=None,
                   help="comma-separated eps values")
    p.add_argument("--lambda-list", default=None,
                   help="comma-separated lambda values (default: the standard eight)")
    p.add_argument("--paper-fig3", action="store_true",
                   help="preset: 8 lambda curves on 200 log-spaced eps in [1e-4, 0.5]")
    p.set_defaults(fn=cmd_separation)

    p = _subcommand(sub, "simulate", ("--out", "--seed", "--eps", "--n-list"),
                    help="Monte-Carlo and exact-enumeration validations")
    p.add_argument("file")
    p.add_argument("--what", required=True, choices=list(_SIMULATIONS))
    p.add_argument("--trials", type=_positive_int, default=None)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--uep-classes", type=_positive_int, default=2)
    p.add_argument("--uep-gamma", type=float, default=None,
                   help="decoder threshold in nats (default: union-bound terms)")
    p.set_defaults(fn=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ProblemFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BoundaryDistortion, RateOutOfRange) as exc:
        print(f"boundary error: {exc}", file=sys.stderr)
        return 4
    except JsccDispError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
