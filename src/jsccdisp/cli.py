"""Command-line front end.

Subcommands: channel, source, jscc, separation, simulate. Structured
reports are JSON; curves and tables are CSV with a header row, '.' decimal
separator, and '\\n' newlines. Rates are reported in bits by default
(--units nats switches); internal computation is always in nats.

Exit codes: 0 ok, 2 parse/usage error, 3 numerical failure,
4 boundary condition (D* on the boundary of (0, d_max) by the rule of
source._tilted, target rate out of range).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import operator
import pathlib
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

SCHEMA_PATH = pathlib.Path(__file__).with_name("problem_file.schema.json")


def _number(value) -> bool:
    """A JSON number that is finite as a float; true and false are not."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


# schema type -> (test, wording in an error)
_TYPES = {
    "object": (lambda v: isinstance(v, dict), "an object"),
    "array": (lambda v: isinstance(v, list), "an array"),
    "number": (_number, "a finite number"),
    "integer": (lambda v: _number(v) and float(v).is_integer(), "an integer"),
}
# schema keyword -> (comparison of value and bound, wording in an error)
_BOUNDS = {"minimum": (operator.ge, ">="), "exclusiveMinimum": (operator.gt, ">"),
           "exclusiveMaximum": (operator.lt, "<")}


def _where(field: str, item: tuple) -> str:
    """The place of a value in an error: its field, and the indices of the
    array items on the way to it."""
    return ((f"field '{field}'" if field else "top level")
            + (", item " + "".join(f"[{i}]" for i in item) if item else ""))


def _check(value, schema: dict, field: str = "", item: tuple = ()) -> None:
    """Raise ProblemFileError naming the field (and the array item) unless
    ``value`` meets ``schema``, read as JSON Schema with the keywords that
    the problem-file schema uses (``additionalProperties`` false only).
    ``item`` holds the array indices, which only an error formats."""
    need = None
    if "enum" in schema and value not in schema["enum"]:
        need = "one of " + json.dumps(schema["enum"])
    elif "type" in schema and not _TYPES[schema["type"]][0](value):
        need = _TYPES[schema["type"]][1]
    elif _number(value):
        for key, (holds, op) in _BOUNDS.items():
            if key in schema and not holds(value, schema[key]):
                need = f"{op} {schema[key]}"
    elif isinstance(value, list) and len(value) < schema.get("minItems", 0):
        need = f"an array of {schema['minItems']} or more items"
    if need:
        raise ProblemFileError(
            f"{_where(field, item)}: {json.dumps(value)} is not {need}")
    if isinstance(value, dict):
        prefix = (field + "".join(f"[{i}]" for i in item) + ".") if field else ""
        if missing := [k for k in schema.get("required", ()) if k not in value]:
            raise ProblemFileError(f"missing field '{prefix}{missing[0]}'")
        props = schema.get("properties", {})
        if schema.get("additionalProperties") is False and (
                extra := set(value) - set(props)):
            raise ProblemFileError(
                f"{_where(field, item)}: unknown keys {sorted(extra)}")
        for key in props:
            if key in value:
                _check(value[key], props[key], prefix + key)
    if isinstance(value, list) and "items" in schema:
        for i, entry in enumerate(value):
            _check(entry, schema["items"], field, item + (i,))


def load_problem_file(path: str) -> dict:
    """Check a ProblemFile JSON against ``SCHEMA_PATH``, naming the field of
    any error, and return a dict with ``units`` (default "bits") and any of:
    source, channel, rho and eps (floats), sim (seed, trials, n_list: ints)."""
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
    _check(raw, json.loads(SCHEMA_PATH.read_text(encoding="utf-8")))

    out: dict = {"units": raw.get("units", "bits")}
    if "source" in raw:
        try:
            out["source"] = SourceSpec(
                Distribution(np.array(raw["source"]["probs"], dtype=float)),
                np.array(raw["source"]["distortion"], dtype=float))
        except (JsccDispError, ValueError) as exc:
            raise ProblemFileError(f"field 'source': {exc}") from exc
    if "channel" in raw:
        try:
            out["channel"] = Channel(np.array(raw["channel"]["matrix"],
                                              dtype=float))
        except (JsccDispError, ValueError) as exc:
            raise ProblemFileError(f"field 'channel.matrix': {exc}") from exc
    out.update((key, float(raw[key])) for key in ("rho", "eps") if key in raw)
    if sim := raw.get("sim"):
        out["sim"] = {"seed": int(sim["seed"]), "trials": int(sim["trials"]),
                      "n_list": [int(n) for n in sim["n_list"]]}
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


def _units(args, problem) -> tuple[str, float]:
    """The report's unit name and its size in nats, the divisor of rates."""
    name = args.units or problem["units"]
    return name, LN2 if name == "bits" else 1.0


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
    """Write ``obj`` as strict JSON: a NaN or infinite value raises instead
    of writing a token that JSON does not have."""
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise JsccDispError(f"report has a non-finite value: {exc}") from exc
    _emit(text + "\n", out_path)


def _emit_csv(header: list[str], rows: list[tuple], out_path: str | None):
    """Write the rows, whose cells are Python ints and floats, as CSV."""
    lines = [",".join(header)]
    lines.extend(",".join(map(repr, row)) for row in rows)
    _emit("\n".join(lines) + "\n", out_path)


def _parse_float_list(text: str, what: str, valid, need: str) -> list[float]:
    """The comma-separated values of flag ``what``, each passing ``valid``."""
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise ProblemFileError(f"{what}: empty grid")
    parse = _float_type(valid, need)
    try:
        return [parse(t) for t in items]
    except argparse.ArgumentTypeError as exc:
        raise ProblemFileError(f"{what}: {exc}") from exc


def _n_list(args, problem) -> list[int]:
    if args.n_list is not None:
        return [int(v) for v in _parse_float_list(
            args.n_list, "--n-list", lambda v: v.is_integer() and v >= 1,
            "a positive integer")]
    if sim := problem.get("sim"):
        return sim["n_list"]
    return [1000]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_channel(args) -> int:
    problem = _load(args)
    w = _require(problem, "channel")
    units, div = _units(args, problem)
    disp = ch.vmin_vmax(w, args.tol)
    cap = disp.capacity
    report = {
        "units": units,
        "capacity": cap.capacity / div,
        "capacity_bracket": [cap.lower_bound / div, cap.upper_bound / div],
        "iterations": cap.iterations,
        "input_distribution": cap.input_distribution.probs.tolist(),
        "v_min": disp.v_min / (div * div),
        "v_max": disp.v_max / (div * div),
        "capacity_set_is_singleton": disp.capacity_set_is_singleton,
        "v_min_positive": disp.v_min_positive,
        "correction_note": ch.CORRECTION_NOTE,
    }
    eps = problem.get("eps")
    if eps is not None:
        rows = []
        for n in _n_list(args, problem):
            pt = ch.channel_rate_at(w, n, eps, disp)
            rows.append({
                "n": n,
                "eps": eps,
                "rate": pt.rate / div,
                "rate_with_vmin": pt.rate_with_vmin / div,
                "rate_with_vmax": pt.rate_with_vmax / div,
            })
        report["rates"] = rows
    _emit_json(report, args.out)
    return 0


def cmd_source(args) -> int:
    problem = _load(args)
    src = _require(problem, "source")
    units, div = _units(args, problem)
    d = args.distortion
    if d is None:
        raise ProblemFileError("the source command needs --distortion")
    try:
        res, _, v_s = sa._tilted(src, d, tol=args.tol)
    except BoundaryDistortion:
        res, v_s = sa.rdf(src, d, min(args.tol, sa.DEFAULT_RDF_TOL)), None
    report = {
        "units": units,
        "distortion": d,
        "rate": res.rate / div,
        "achieved_distortion": res.achieved_distortion,
        "lagrange_slope": None if not math.isfinite(res.lagrange_slope)
        else res.lagrange_slope / div,
        "d_max": sa.d_max(src),
        "correction_note": ch.CORRECTION_NOTE,
    }
    if v_s is not None:
        report["v_s"] = v_s / (div * div)
        eps = problem.get("eps")
        if eps is not None:
            report["rates"] = [
                {"n": n, "eps": eps,
                 "rate": sa._normal_rate(res.rate, v_s, n, eps) / div}
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
    units, div = _units(args, problem)

    # one table per mode; its JSON keys are the CSV header less the table name
    if args.lossless:
        # the lossless table reads no rho
        src, w, eps = (_require(problem, key)
                       for key in ("source", "channel", "eps"))
        n_list = _n_list(args, problem)
        disp = ch.vmin_vmax(w)
        pts = [jscc.lossless_rho(src, w, n, eps, disp=disp) for n in n_list]
        table, header = "rho_n", ["n", "rho_n_with_vlow", "rho_n_with_vhigh"]
        rows = [(pt.n, pt.rho_with_vlow, pt.rho_with_vhigh) for pt in pts]
        report = {"units": units, "mode": "lossless",
                  "h_over_c": pts[0].h_over_c,
                  "v_source": pts[0].v_source / (div * div),
                  "correction_note": ch.CORRECTION_NOTE}
    else:
        pb = _jscc_problem(problem)
        n_list = _n_list(args, problem)
        rep = jscc.dispersion_report(pb)
        pts = jscc.distortion_thresholds(pb, n_list, report=rep)
        table, header = "thresholds", [
            "n", "d_n_with_vlow", "d_n_with_vhigh", "target_rate_with_vlow",
            "target_rate_with_vhigh"]
        rows = [(pt.n, pt.d_with_vlow, pt.d_with_vhigh,
                 pt.target_rate_with_vlow / div,
                 pt.target_rate_with_vhigh / div) for pt in pts]
        report = {
            "units": units,
            "eps": pb.eps,
            "rho": pb.rho,
            "capacity": rep.capacity / div,
            "v_min": rep.v_min / (div * div),
            "v_max": rep.v_max / (div * div),
            "capacity_set_is_singleton": rep.capacity_set_is_singleton,
            "d_star": rep.d_star,
            "r_at_d_star": rep.r_at_d_star / div,
            "v_s_at_d_star": rep.v_s_at_d_star / (div * div),
            "v_j_low": rep.v_j_low / (div * div),
            "v_j_high": rep.v_j_high / (div * div),
            "correction_note": rep.correction_note,
        }
    if args.format == "csv":
        _emit_csv(header, rows, args.out)
    else:
        keys = [h.removeprefix(table + "_") for h in header]
        report[table] = [dict(zip(keys, row)) for row in rows]
        _emit_json(report, args.out)
    return 0


def cmd_separation(args) -> int:
    if args.paper_fig3:
        for flag, value in (("--eps-grid", args.eps_grid),
                            ("--lambda-list", args.lambda_list)):
            if value is not None:
                raise ProblemFileError(f"{flag} cannot be given with "
                                       "--paper-fig3, which sets both grids")
        lambdas = list(jscc.DEFAULT_LAMBDA_CURVES)
        eps_grid = np.geomspace(1e-4, 0.5, 200).tolist()
    else:
        lambdas = (list(jscc.DEFAULT_LAMBDA_CURVES) if args.lambda_list is None
                   else _parse_float_list(args.lambda_list, "--lambda-list",
                                          lambda v: 0.0 < v < math.inf,
                                          "positive and finite"))
        if args.eps_grid is None:
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
    return (sim["seed"] if args.seed is None else args.seed,
            sim["trials"] if args.trials is None else args.trials)


# One function per ``simulate --what`` mode: (args, problem, seed, trials,
# n_list) -> the report's "results". The CLT modes build each block
# length's row in a function of its own, so that the row's samples are
# freed before the next block length is drawn.

def _simulate_excess(args, problem, seed, trials, n_list):
    pb = _jscc_problem(problem)
    rep = jscc.dispersion_report(pb)
    cap = rep.channel_dispersion.capacity

    def row(pt):
        n = pt.n
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

    return [row(pt)
            for pt in jscc.distortion_thresholds(pb, n_list, report=rep)]


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
    d_star, res, _, _ = sa._tilted_at_rate(pb.source, pb.rho * cap.capacity)

    def row(n):
        m = int(math.floor(pb.rho * n))
        phi_m = nearest_type(cap.input_distribution, m)
        return _clt_row(mcsim.first_order_jscc_samples(
            pb.source, d_star, pb.channel, phi_m, n, trials, seed,
            args.workers, solve=res), n, d_star=d_star)

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
        if vmax > 0:  # one input letter: q = p, a check at delta = 0
            v /= vmax
        t = rng.uniform(0.0, delta_cap)
        neg = v < 0
        if np.any(neg):
            t = min(t, float(np.min(p[neg] / -v[neg])))
        q = np.maximum(p + t * v, 0.0)
        q /= q.sum()
        delta = min(float(np.max(np.abs(p - q))), delta_cap)
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
    if args.what in ("clt-mi", "clt-jscc") and trials < 2:
        raise ProblemFileError(
            f"simulate --what {args.what} needs at least 2 trials for its "
            f"sample variance, got {trials}")
    n_list = _n_list(args, problem)
    report = {"what": args.what, "seed": seed, "trials": trials,
              "results": _SIMULATIONS[args.what](args, problem, seed, trials,
                                                 n_list)}
    _emit_json(report, args.out)
    return 0


def _int_type(minimum: int):
    """An argparse type: an integer >= ``minimum``, else a usage error."""
    def parse(text: str) -> int:
        try:
            if (value := int(text)) >= minimum:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"{text} is not an integer >= {minimum}")
    return parse


def _path_type(text: str) -> str:
    """An argparse type: a nonempty path, else a usage error (an empty
    ``--out`` would otherwise write to stdout)."""
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    return text


def _float_type(valid, need: str):
    """An argparse type: a float passing ``valid``, else a usage error."""
    def parse(text: str) -> float:
        try:
            if valid(value := float(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text} is not {need}")
    return parse


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

_COMMON_FLAGS = {
    "--units": dict(choices=["bits", "nats"],
                    help="output units (default: file setting, else bits)"),
    "--out": dict(type=_path_type, help="output path (default stdout)"),
    "--tol": dict(type=_float_type(lambda v: 0 < v < math.inf,
                                   "positive and finite"),
                  default=1e-10, help="numerical tolerance in nats "
                  "(source: it can only tighten the rdf solves)"),
    "--seed": dict(type=_int_type(0), help="override the simulation seed"),
    "--eps": dict(type=_float_type(lambda v: 0 < v < 1, "in (0, 1)"),
                  help="override the target probability"),
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


def _channel_parser(sub) -> None:
    p = _subcommand(sub, "channel", ("--units", "--out", "--tol", "--eps", "--n-list"),
                    help="capacity, V_min/V_max, and rate approximations")
    p.add_argument("file")
    p.set_defaults(fn=cmd_channel)


def _source_parser(sub) -> None:
    p = _subcommand(sub, "source", ("--units", "--out", "--tol", "--eps", "--n-list"),
                    help="rate-distortion, V_S, and rate approximations")
    p.add_argument("file")
    p.add_argument("--distortion", "-D", default=None,
                   type=_float_type(lambda v: 0 <= v < math.inf,
                                    "nonnegative and finite"))
    p.set_defaults(fn=cmd_source)


def _jscc_parser(sub) -> None:
    p = _subcommand(sub, "jscc", ("--units", "--out", "--eps", "--n-list"),
                    help="dispersion report and D_n (or rho_n) tables")
    p.add_argument("file")
    p.add_argument("--lossless", action="store_true",
                   help="emit the lossless rho_n table instead")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(fn=cmd_jscc)


def _separation_parser(sub) -> None:
    p = _subcommand(sub, "separation", ("--out",),
                    help="eps_tilde(eps, lambda) curves as CSV")
    p.add_argument("--eps-grid", default=None,
                   help="comma-separated eps values")
    p.add_argument("--lambda-list", default=None,
                   help="comma-separated lambda values (default: the standard eight)")
    p.add_argument("--paper-fig3", action="store_true",
                   help="preset: 8 lambda curves on 200 log-spaced eps in [1e-4, 0.5]")
    p.set_defaults(fn=cmd_separation)


def _simulate_parser(sub) -> None:
    p = _subcommand(sub, "simulate", ("--out", "--seed", "--eps", "--n-list"),
                    help="Monte-Carlo and exact-enumeration validations")
    p.add_argument("file")
    p.add_argument("--what", required=True, choices=list(_SIMULATIONS))
    p.add_argument("--trials", type=_int_type(1), default=None)
    p.add_argument("--workers", type=_int_type(1), default=1)
    p.add_argument("--uep-classes", type=_int_type(1), default=2)
    p.add_argument("--uep-gamma", type=_float_type(math.isfinite, "finite"),
                   default=None,
                   help="decoder threshold in nats (default: union-bound terms)")
    p.set_defaults(fn=cmd_simulate)


_COMMANDS = {"channel": _channel_parser, "source": _source_parser,
             "jscc": _jscc_parser, "separation": _separation_parser,
             "simulate": _simulate_parser}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of ``argv``: when its first item names a command, only that
    subcommand is built, as parsing the rest needs no other; otherwise all
    five, so help and the usage errors list every command. The command list
    in the top-level usage line is the same either way."""
    parser = argparse.ArgumentParser(
        prog="jsccdisp",
        description="Finite-blocklength joint source-channel dispersion toolkit",
    )
    names = [argv[0]] if argv and argv[0] in _COMMANDS else list(_COMMANDS)
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None)
    for name in names:
        _COMMANDS[name](sub)
    return parser


def main(argv=None) -> int:
    # What exists before a command, the modules, classes and functions of
    # the start-up, outlives it, so it is kept out of the collected
    # generations while the command runs: no collection rescans it, however
    # near to due the start-up left one.
    gc.freeze()
    try:
        return _run(argv)
    finally:
        gc.unfreeze()


def _run(argv) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
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
