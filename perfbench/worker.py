"""One CLI invocation in a fresh interpreter, as a user's shell would run it.

    python3 perfbench/worker.py <spec-json>

The spec holds ``argv`` (the CLI arguments, or null to only time set-up),
``problem`` (the workload's problem file), ``spawned`` (``time.monotonic()``
of the parent just before it started this process), ``trace`` and
``spans_path``.

The worker imports ``jsccdisp.cli`` and loads the problem file; the time
from ``spawned`` to that point is one set-up sample. It then calls
``jsccdisp.cli.main(argv)`` in-process, with stdout captured, and prints
one JSON object on its last stdout line.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent


def import_cli():
    sys.path.insert(0, str(ROOT / "src"))
    import jsccdisp.cli as cli

    where = Path(cli.__file__).resolve().parent
    if where != ROOT / "src" / "jsccdisp":
        raise SystemExit(f"jsccdisp imported from {where}, not from {ROOT / 'src'}")
    return cli


def invoke(cli, argv: list[str]) -> dict:
    """Run one CLI invocation; its stdout is captured, not printed."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a malformed argv
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # reported as a failed invocation, not a crash
        traceback.print_exc()
        rc = 1
    return {"rc": rc, "s": time.perf_counter() - start, "out": buf.getvalue()}


def main(spec: dict) -> None:
    cli = import_cli()
    cli.load_problem_file(spec["problem"])
    result = {"setup_s": time.monotonic() - spec["spawned"]}
    if spec["argv"] is not None:
        recorder = None
        if spec["trace"]:
            recorder = tracing.Recorder(" ".join(spec["argv"]))
            recorder.install()
        result.update(invoke(cli, spec["argv"]))
        if recorder is not None:
            result["layers"] = recorder.layer_counts()
            recorder.write(spec["spans_path"])
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
