"""Per-layer call tracing from outside the program.

The recorder wraps public functions of the jsccdisp modules at every module
binding that refers to them (``jscc``, ``channel``, ``source``, ``mcsim``
and ``cli`` each bind ``q_inverse`` by name), records one span per call and
derives calls, inclusive time, self time and failures per function. Nothing
in the package is edited: the wrappers live only in the interpreter of the
one traced invocation.
"""

from __future__ import annotations

import gzip
import itertools
import json
import sys
import threading
import time

# (module, function) pairs; the module is the one that defines the function.
TARGETS = (
    ("probcore", "q_inverse"),
    ("channel", "capacity"),
    ("channel", "vmin_vmax"),
    ("source", "rdf"),
    ("source", "source_dispersion"),
    ("jscc", "opta"),
    ("jscc", "distortion_threshold"),
    ("jscc", "dispersion_report"),
    ("jscc", "separation_curve"),
    ("mcsim", "excess_event_probability"),
    ("mcsim", "first_order_mi_samples"),
    ("mcsim", "xi_n_violation_rate"),
    ("cli", "load_problem_file"),
)
NAMES = tuple(f"{mod}.{fn}" for mod, fn in TARGETS)
RDF = "source.rdf"
CAPACITY = "channel.capacity"
EXCESS = "mcsim.excess_event_probability"

# span fields, kept as tuples to hold memory down on the 331,697
# q_inverse calls of one Fig. 3 invocation
SID, NAME, START, END, PARENT, FAILED, EXTRA = range(7)


def _rdf_key(args, kwargs):
    """(P, D, tol) of an rdf(src, d, tol=DEFAULT_RDF_TOL) call."""
    src = args[0] if args else kwargs["src"]
    d = args[1] if len(args) > 1 else kwargs["d"]
    tol = args[2] if len(args) > 2 else kwargs.get("tol")
    return (src.distribution.probs.tobytes(), src.distortion.tobytes(),
            float(d), tol)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    out = [f"{name}.{k}" for name in NAMES for k in ("calls", "s", "self_s", "fail")]
    return out + [f"{CAPACITY}.iters", f"{RDF}.repeat_frac",
                  f"{EXCESS}.rdf_calls", f"{EXCESS}.rdf_dup",
                  f"{EXCESS}.boundary_trials", "trace_overhead_s"]


def unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    return "1" if name.endswith("repeat_frac") else "count"


class Recorder:
    """Collects the spans of one invocation (the run id) in memory."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.main_thread()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        spans, ids, stack_of = self.spans, self._ids, self._stack
        main_stack = self._main_stack
        clock = time.perf_counter

        def extra_of(args, kwargs, result):
            if name == RDF:
                return _rdf_key(args, kwargs)
            if result is None:
                return None
            if name == CAPACITY:
                return result.iterations
            if name == EXCESS:
                return result.diagnostics["boundary_trials"]
            return None

        def wrapper(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1]
            elif stack is not main_stack and main_stack:
                # first span in a pool thread: caused by the main thread's
                # innermost open span, which is waiting for the pool
                parent = main_stack[-1]
            else:
                parent = None
            sid = next(ids)
            stack.append(sid)
            result, failed = None, False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                failed = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, failed,
                              extra_of(args, kwargs, result)))

        return wrapper

    def install(self) -> None:
        """Replace each target at every jsccdisp module binding of it."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "jsccdisp" or key.startswith("jsccdisp.")]
        for mod_name, fn_name in TARGETS:
            orig = getattr(sys.modules[f"jsccdisp.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)

    def write(self, path) -> None:
        """Write the spans as JSON lines, gzip-compressed: a header naming
        the fields, then one array per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent",
                                 "run", "failed"]) + "\n")
            for s in self.spans:
                fh.write(json.dumps([s[SID], s[NAME], s[START], s[END],
                                     s[PARENT], self.run, s[FAILED]]) + "\n")

    def layer_counts(self) -> dict[str, float]:
        """Additive per-layer counts over every recorded span."""
        spans = self.spans
        by_id = {s[SID]: s for s in spans}
        children: dict[int, list[tuple]] = {}
        for s in spans:
            if s[PARENT] is not None:
                children.setdefault(s[PARENT], []).append(s)

        out = {f"{name}.{k}": 0.0 for name in NAMES
               for k in ("calls", "s", "self_s", "fail")}
        iters = 0
        for s in spans:
            dur = s[END] - s[START]
            out[f"{s[NAME]}.calls"] += 1
            out[f"{s[NAME]}.s"] += dur
            out[f"{s[NAME]}.self_s"] += dur - _covered(s, children.get(s[SID], ()))
            out[f"{s[NAME]}.fail"] += s[FAILED]
            if s[NAME] == CAPACITY and s[EXTRA] is not None:
                iters += s[EXTRA]
        out[f"{CAPACITY}.iters"] = iters

        # repeats within this invocation only: from a shell every CLI call
        # is its own process, so nothing carries over between calls
        seen: set = set()
        rdf = sorted((s for s in spans if s[NAME] == RDF), key=lambda s: s[START])
        repeats = 0
        for s in rdf:
            repeats += s[EXTRA] in seen
            seen.add(s[EXTRA])
        out[f"{RDF}.repeats"] = repeats

        under: dict[int, list] = {}
        for s in rdf:
            anc = by_id.get(s[PARENT])
            while anc is not None and anc[NAME] != EXCESS:
                anc = by_id.get(anc[PARENT])
            if anc is not None:
                under.setdefault(anc[SID], []).append(s[EXTRA][0])
        out[f"{EXCESS}.rdf_calls"] = sum(len(v) for v in under.values())
        out[f"{EXCESS}.rdf_dup"] = sum(len(v) - len(set(v)) for v in under.values())
        out[f"{EXCESS}.boundary_trials"] = sum(
            s[EXTRA] for s in spans if s[NAME] == EXCESS and s[EXTRA] is not None)
        return out


def pass_metrics(counts: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass from the counts of its invocations."""
    out = {k: sum(c[k] for c in counts) for k in counts[0]}
    repeats = out.pop(f"{RDF}.repeats")
    calls = out[f"{RDF}.calls"]
    out[f"{RDF}.repeat_frac"] = repeats / calls if calls else 0.0
    return out


def _covered(parent: tuple, kids) -> float:
    """Length of the part of the parent's interval its children cover.

    Children in one thread never overlap; children in pool threads can, so
    the intervals are merged before they are summed.
    """
    total, cur_lo, cur_hi = 0.0, None, None
    lo_bound, hi_bound = parent[START], parent[END]
    for lo, hi in sorted((max(k[START], lo_bound), min(k[END], hi_bound))
                         for k in kids):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
