"""jsccdisp benchmark: times the CLI end to end, or layer by layer when traced.

    python3 perfbench/run.py --workload analytic --seed 7 --seconds 50 --trace 0

Run it from anywhere inside a checkout; it reads and writes only there. The
workloads are defined in ``workloads.py`` and documented in ``README.md``.

One client sends the workload's CLI invocations in a closed loop: each
starts when the previous one has returned. Every invocation runs in a fresh
interpreter (``worker.py``), as it does from a shell, and is timed around
``jsccdisp.cli.main``; the interpreter's import and problem-file load give
a set-up sample. Passes over the invocation list repeat until the next pass
would end after ``--seconds``. With ``--trace 1`` each untraced pass is
followed by the same pass traced. Outputs are checked by ``checks.py``.

Standard output: a ``report`` line with every end-to-end figure, then, as
the last line, a JSON object with ``correct``, ``attempted`` (invocations),
``failed`` (invocations that exited non-zero) and ``metrics``: the
end-to-end metrics gated in BENCHMARK.json with ``--trace 0``, the
per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
MIN_SETUP_SAMPLES = 12
DEADLINE_S = 170.0  # a run must end within 180 s
GATED = ("wall_s", "setup_s", "peak_rss_mb")


class Client:
    """Starts one worker interpreter at a time and waits for it."""

    def __init__(self, workload: str, spans_dir: Path):
        self.problem = workloads.problem_file(workload)
        self.spans_dir = spans_dir
        self.began = time.monotonic()
        self.setups: list[float] = []

    def call(self, argv: list[str] | None, trace: bool = False,
             label: str = "") -> dict:
        spec = {"argv": argv, "problem": self.problem, "trace": trace,
                "spans_path": str(self.spans_dir / f"{label}.jsonl.gz"),
                "spawned": time.monotonic()}
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
            timeout=DEADLINE_S - (time.monotonic() - self.began))
        if proc.returncode != 0:
            raise RuntimeError(f"worker for {argv} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.setups.append(result["setup_s"])
        return result

    def one_pass(self, argvs: list[list[str]], trace: bool, index: int) -> dict:
        calls = []
        for i, argv in enumerate(argvs):
            res = self.call(argv, trace, f"pass{index}.{i}")
            res["argv"] = argv
            calls.append(res)
        return {"traced": trace, "wall_s": sum(c["s"] for c in calls),
                "peak_rss_mb": max(c["peak_rss_mb"] for c in calls),
                "calls": calls}


def run(client: Client, workload: str, seed: int, seconds: float,
        trace: bool) -> tuple[list[dict], list[dict]]:
    """The closed loop, then the determinism calls outside it."""
    argvs = workloads.invocations(workload, seed)
    passes = []
    start = time.monotonic()
    while True:
        group_start = time.monotonic()
        passes.append(client.one_pass(argvs, False, len(passes)))
        if trace:
            passes.append(client.one_pass(argvs, True, len(passes)))
        now = time.monotonic()
        if now - start + (now - group_start) > seconds:
            break
    determinism = []
    for index, argv in workloads.determinism_pairs(workload, seed):
        single = client.call(argv)
        timed = passes[0]["calls"][index]
        determinism.append({"argv": argv, "rc": single["rc"],
                            "identical": single["out"] == timed["out"]})
    while len(client.setups) < MIN_SETUP_SAMPLES:
        client.call(None)
    return passes, determinism


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so that subprocess.run kills and waits
    # for the worker it is running before this process ends
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    needed = [ROOT / "src" / "jsccdisp" / "cli.py", ROOT / workloads.TERNARY,
              ROOT / workloads.BSC011, ROOT / workloads.CHANNEL_6X3,
              ROOT / workloads.REFS]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a jsccdisp checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    spans_dir = OUT_DIR / f"spans-{args.workload}-seed{args.seed}"
    if args.trace:
        spans_dir.mkdir(parents=True, exist_ok=True)
        for old in spans_dir.glob("*.jsonl.gz"):
            old.unlink()
    client = Client(args.workload, spans_dir)
    try:
        passes, determinism = run(client, args.workload, args.seed,
                                  args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report = checks.Report(str(ROOT / workloads.REFS))
    calls = [c for p in passes for c in p["calls"]]
    for c in calls:
        report.invocation(c["argv"], c["rc"], c["out"])
    for d in determinism:
        if d["rc"] != 0 or not d["identical"]:
            report.problem(f"{' '.join(d['argv'][:4])}: output differs between "
                           "--workers 1 and --workers 2")
    attempted = len(calls)
    failed = sum(c["rc"] != 0 for c in calls)

    untraced = [p for p in passes if not p["traced"]]
    median = statistics.median
    sim_s = sum(c["s"] for p in untraced for c in p["calls"]
                if c["argv"][0] == "simulate")
    sim_trials = sum(checks.sim_trials(c["argv"])
                     for p in untraced for c in p["calls"])
    full = {
        "wall_s": (median(p["wall_s"] for p in untraced), "s"),
        "setup_s": (median(client.setups), "s"),
        "trials_per_s": (sim_trials / sim_s if sim_s else None, "1/s"),
        "fail_frac": (report.failed_trials / report.trials if report.trials
                      else failed / attempted, "1"),
        "ref_err": (report.ref_err, "1"),
        "peak_rss_mb": (median(p["peak_rss_mb"] for p in untraced), "MB"),
    }
    argvs = workloads.invocations(args.workload, args.seed)
    invocation_s = {" ".join(argv): median(p["calls"][i]["s"] for p in untraced)
                    for i, argv in enumerate(argvs)}
    print("report " + json.dumps({
        "workload": args.workload, "seed": args.seed, "passes": len(untraced),
        "setup_samples": len(client.setups),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in full.items()},
        "invocation_s": invocation_s,
        "problems": report.problems,
    }))

    if args.trace:
        traced = [p for p in passes if p["traced"]]
        per_pass = [tracing.pass_metrics([c["layers"] for c in p["calls"]])
                    for p in traced]
        # the mean, so that a race that duplicates work in some passes shows
        layers = {k: statistics.fmean(m[k] for m in per_pass) for k in per_pass[0]}
        layers["trace_overhead_s"] = (median(p["wall_s"] for p in traced)
                                      - full["wall_s"][0])
        print(f"spans written to {spans_dir.relative_to(ROOT)}/")
        metrics = {k: {"value": layers[k], "unit": tracing.unit(k)}
                   for k in tracing.metric_names()}
    else:
        metrics = {k: {"value": full[k][0], "unit": full[k][1]} for k in GATED}
    print(json.dumps({"correct": not report.problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
