"""Workload definitions: the jsccdisp CLI invocations one pass runs.

Paths are relative to the repository root. The workload seed is passed as
``--seed`` to every ``simulate`` call; the analytic workload has no random
input, so the seed does not change it.
"""

TERNARY = "docs/examples/ternary_asymmetric.json"
BSC011 = "docs/examples/bsc011_hamming.json"
CHANNEL_6X3 = "perfbench/inputs/channel_6x3.json"
REFS = "perfbench/inputs/refs.json"

DEFAULT_SEED = 7  # the sim seed of the shipped ternary example

SAMPLING_TRIALS = 1_000_000
EXCESS_TYPES_TRIALS = 500

NAMES = ("analytic", "sampling", "excess-types")


def invocations(workload: str, seed: int) -> list[list[str]]:
    """The argv lists of one pass, in the order a single client sends them."""
    if workload == "analytic":
        return [
            ["jscc", TERNARY, "--n-list", "100,1000,10000"],
            ["source", TERNARY, "-D", "0.1"],
            ["channel", CHANNEL_6X3, "--n-list", "100,1000,10000"],
            ["separation", "--paper-fig3"],
        ]
    if workload == "sampling":
        sim = ["--trials", str(SAMPLING_TRIALS), "--workers", "2",
               "--seed", str(seed)]
        return [
            ["simulate", BSC011, "--what", "excess"] + sim,
            ["simulate", BSC011, "--what", "clt-mi",
             "--n-list", "1000,100000"] + sim,
            ["simulate", BSC011, "--what", "xi"] + sim,
        ]
    if workload == "excess-types":
        return [
            ["simulate", TERNARY, "--what", "excess", "--n-list", "500",
             "--workers", "1", "--trials", str(EXCESS_TYPES_TRIALS),
             "--seed", str(seed)],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def determinism_pairs(workload: str, seed: int) -> list[tuple[int, list[str]]]:
    """(index into the pass, the same argv at --workers 1) for the README
    contract that simulate output bytes do not depend on --workers."""
    if workload != "sampling":
        return []
    pairs = []
    for i, argv in enumerate(invocations(workload, seed)):
        if "--what" in argv and argv[argv.index("--what") + 1] in ("clt-mi", "xi"):
            one = list(argv)
            one[one.index("--workers") + 1] = "1"
            pairs.append((i, one))
    return pairs


def problem_file(workload: str) -> str:
    """The file the first invocation loads, used to time set-up."""
    return {"analytic": TERNARY, "sampling": BSC011,
            "excess-types": TERNARY}[workload]
