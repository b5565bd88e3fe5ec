"""Write the 6x3 channel input and its exact V_min/V_max reference.

The rows of the channel are the cyclic shifts of (0.7, 0.2, 0.1) and of
(a, b, b), with a chosen so that both rows have the same entropy. Every
row then has divergence log 3 - H from the uniform output law, so
C = log 3 - H and the capacity-achieving inputs are all phi >= 0 with
phi W uniform, a polytope rather than a point. On it the conditional
information variance is linear in phi, so its extremes are two linear
programs.

Run from the repository root:  python3 perfbench/make_refs.py
"""

import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import brentq, linprog

HERE = Path(__file__).resolve().parent


def entropy(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def channel_6x3() -> np.ndarray:
    base = (0.7, 0.2, 0.1)
    h = entropy(base)
    a = brentq(lambda x: entropy((x, (1 - x) / 2, (1 - x) / 2)) - h,
               0.5, 0.999, xtol=1e-16)
    rows = [np.roll(base, k) for k in range(3)]
    rows += [np.roll((a, (1 - a) / 2, (1 - a) / 2), k) for k in range(3)]
    return np.array(rows)


def variance_range(w: np.ndarray) -> tuple[float, float]:
    """min and max of sum_x phi(x) v_x over phi >= 0 with phi W uniform."""
    n_x, n_y = w.shape
    q = np.full(n_y, 1.0 / n_y)
    dens = np.log(w / q)
    div = (w * dens).sum(axis=1)
    v = (w * (dens - div[:, None]) ** 2).sum(axis=1)
    a_eq, b_eq = np.vstack([w.T, np.ones(n_x)]), np.append(q, 1.0)
    out = []
    for sign in (1.0, -1.0):
        res = linprog(sign * v, A_eq=a_eq, b_eq=b_eq,
                      bounds=[(0, None)] * n_x, method="highs")
        if res.status != 0:
            raise RuntimeError(f"LP failed: {res.message}")
        out.append(sign * res.fun)
    return out[0], out[1]


def main() -> None:
    w = channel_6x3()
    v_min, v_max = variance_range(w)
    problem = {"channel": {"matrix": w.tolist()}, "eps": 0.1, "units": "nats"}
    (HERE / "inputs").mkdir(exist_ok=True)
    (HERE / "inputs" / "channel_6x3.json").write_text(
        json.dumps(problem, indent=2) + "\n")
    refs = {"channel_6x3": {
        "capacity": math.log(3.0) - entropy(w[0]),
        "v_min": v_min,
        "v_max": v_max,
        "units": "nats",
        "method": "scipy.optimize.linprog (HiGHS) over phi >= 0, phi W = uniform",
    }}
    (HERE / "inputs" / "refs.json").write_text(json.dumps(refs, indent=2) + "\n")
    print(json.dumps(refs))


if __name__ == "__main__":
    main()
