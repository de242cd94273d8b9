"""Time ``linalg.jacobi_eigh`` on seeded inputs, optionally against another checkout.

Two inputs per size p, both seeded:

- dense: the sample covariance of 20 p rows of ``synth.stationary_gaussian``
  (a geometric spectrum, rotated by a random basis);
- near-diagonal: a geometric diagonal spanning 1e3, plus a symmetric
  Gaussian perturbation of size 1e-4.

With ``--baseline DIR`` the ``linalg.py`` of that checkout is loaded too and
the two solvers run interleaved, one call each in turn, so that both see the
same load on the host.  Prints one JSON object: per p and input, the median
milliseconds of each side, their ratio, and the residual
||A V - V diag(values)||_F / max(1, ||A||_F) and the orthonormality
||V^T V - I||_F of this checkout's result.

Usage: python scripts/jacobi_timing.py [--baseline DIR] [--sizes 9 12 32 100]
           [--repeats 15] [--seed 0]
"""

import argparse
import importlib.util
import json
import os
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from streampca.linalg import sample_covariance  # noqa: E402
from streampca.synth import stationary_gaussian  # noqa: E402


def load_linalg(checkout: Path, name: str):
    path = checkout / "src" / "streampca" / "linalg.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def inputs(p: int, seed: int) -> dict:
    _, dense = sample_covariance(stationary_gaussian(20 * p, p, seed))
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((p, p))
    near = np.diag(np.power(10.0, -3.0 * np.arange(p) / p)) + 1e-4 * (g + g.T) / 2.0
    return {"dense": dense, "near-diagonal": near}


def quality(a: np.ndarray, basis) -> dict:
    v = basis.vectors
    scale = max(1.0, float(np.linalg.norm(a)))
    return {
        "residual": float(np.linalg.norm(a @ v - v * basis.values) / scale),
        "orthonormality": float(np.linalg.norm(v.T @ v - np.eye(a.shape[0]))),
    }


def median_ms(times: list[float]) -> float:
    return round(1e3 * float(np.median(times)), 3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, help="another checkout to time against")
    parser.add_argument("--sizes", type=int, nargs="+", default=[9, 12, 32, 100])
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sides = {"this": load_linalg(ROOT, "linalg_this")}
    if args.baseline is not None:
        sides["baseline"] = load_linalg(args.baseline, "linalg_baseline")
    table = []
    for p in args.sizes:
        for kind, a in inputs(p, args.seed).items():
            times = {side: [] for side in sides}
            for rep in range(args.repeats):
                # alternate which side goes first
                order = list(sides) if rep % 2 == 0 else list(reversed(sides))
                for side in order:
                    start = time.perf_counter()
                    sides[side].jacobi_eigh(a)
                    times[side].append(time.perf_counter() - start)
            row = {"p": p, "input": kind, "this_ms": median_ms(times["this"])}
            if "baseline" in sides:
                row["baseline_ms"] = median_ms(times["baseline"])
                row["speedup"] = round(row["baseline_ms"] / row["this_ms"], 2)
            row.update(quality(a, sides["this"].jacobi_eigh(a)))
            table.append(row)
    print(json.dumps({"repeats": args.repeats, "seed": args.seed, "table": table}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
