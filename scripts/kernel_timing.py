"""Time the two eigensolvers, ``linalg.jacobi_eigh`` and
``refine.refine_to_convergence``, optionally against another checkout.

The ``jacobi`` table has two seeded inputs per size p (``--sizes``):

- dense: the sample covariance of 20 p rows of ``synth.stationary_gaussian``
  (a geometric spectrum, rotated by a random basis);
- near-diagonal: a geometric diagonal spanning 1e3, plus a symmetric
  Gaussian perturbation of size 1e-4.

The ``refine`` table replays two inputs built from the generators of
``perfbench/workloads.py`` (fixed by the benchmark, whatever ``--seed``):

- ewm p=9: the 2800 timed rows of the ``ewm-online`` stream.  Each row hands
  the kernel the EWM covariance after that row and the basis the previous
  row returned, as ``EwmPCA.add`` does; both sides start from the same
  basis, warmed up over the stream's first 100 rows.
- ipca p=12: the days of the ``ipca-csv`` input at seed 1.  Each day
  after the first hands the kernel its sample covariance and the previous
  day's basis, as ``IteratedPCA.fit`` does; the first day is fitted by
  ``jacobi_eigh``.

A repeat of a ``jacobi`` row times ``JACOBI_BATCH`` calls, a repeat of a
``refine`` row one replay.  With ``--baseline DIR`` the ``streampca`` package
of that checkout is loaded too, under another name, and the two sides run
interleaved, one call each in turn with the side that goes first
alternating, so that both see the same load on the host; in a replay each
side follows its own chain of bases.  Prints one JSON object with both
tables.  A ``jacobi`` row holds the milliseconds per call of each side (the
median over repeats, and the quartiles as ``_q1`` and ``_q3``), the ratio of
the medians, and the residual ||A V - V diag(values)||_F / max(1, ||A||_F)
and the orthonormality ||V^T V - I||_F of this checkout's result.  A
``refine`` row holds the microseconds per iteration of each side (median and
quartiles), the iterations per replay, the ratio of the medians, and whether
the baseline's bases, eigenvalues and iteration counts are bit-identical
(``np.array_equal``) to this checkout's.

Usage: python scripts/kernel_timing.py [--baseline DIR] [--sizes 9 12 32 100]
           [--repeats 9] [--seed 0]
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
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

import streampca  # noqa: E402
import workloads  # noqa: E402
from streampca.ewmpca import EwmPCA, seed_initial_basis  # noqa: E402
from streampca.ewmstats import ewm_update  # noqa: E402
from streampca.linalg import jacobi_eigh, sample_covariance  # noqa: E402
from streampca.refine import DEFAULT_TOL  # noqa: E402
from streampca.synth import stationary_gaussian  # noqa: E402

# jacobi_eigh calls per repeat: one call of 1-12 ms is too short for a
# stable median on a shared host
JACOBI_BATCH = 10


def load_package(checkout: Path, name: str):
    """The ``streampca`` package in ``checkout``, imported as package ``name``
    so that it does not shadow this checkout's."""
    package = checkout / "src" / "streampca"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def interleave(sides: dict, calls: list, start, repeats: int):
    """Run ``calls`` in order on every side, ``repeats`` times over.  Each call
    gets the side's package and what the side's previous call returned
    (``start`` for the first).  Returns per side the seconds of each repeat
    and the return values of the last one."""
    seconds = {side: [] for side in sides}
    for rep in range(repeats):
        out = {side: [start] for side in sides}
        spent = dict.fromkeys(sides, 0.0)
        for t, call in enumerate(calls):
            order = list(sides) if (rep + t) % 2 == 0 else list(reversed(sides))
            for side in order:
                t0 = time.perf_counter()
                value = call(sides[side], out[side][-1])
                spent[side] += time.perf_counter() - t0
                out[side].append(value)
        for side in sides:
            seconds[side].append(spent[side])
    return seconds, {side: out[side][1:] for side in sides}


def quartiles(key: str, seconds: list, scale: float, digits: int) -> dict:
    """``key`` and ``key_q1``, ``key_q3``: the median and the quartiles of
    ``seconds`` times ``scale``, rounded to ``digits``."""
    q1, median, q3 = (round(scale * float(q), digits) for q in np.percentile(seconds, [25, 50, 75]))
    return {key: median, f"{key}_q1": q1, f"{key}_q3": q3}


def jacobi_inputs(p: int, seed: int) -> dict:
    _, dense = sample_covariance(stationary_gaussian(20 * p, p, seed))
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((p, p))
    near = np.diag(np.power(10.0, -3.0 * np.arange(p) / p)) + 1e-4 * (g + g.T) / 2.0
    return {"dense": dense, "near-diagonal": near}


def jacobi_row(sides: dict, p: int, kind: str, a: np.ndarray, repeats: int) -> dict:
    calls = [lambda package, _: package.linalg.jacobi_eigh(a)] * JACOBI_BATCH
    seconds, out = interleave(sides, calls, None, repeats)
    row = {"p": p, "input": kind}
    for side in sides:
        row.update(quartiles(f"{side}_ms", seconds[side], 1e3 / JACOBI_BATCH, 3))
    if "baseline" in sides:
        row["speedup"] = round(row["baseline_ms"] / row["this_ms"], 2)
    v, values = out["this"][0].vectors, out["this"][0].values
    row["residual"] = float(np.linalg.norm(a @ v - v * values) / max(1.0, np.linalg.norm(a)))
    row["orthonormality"] = float(np.linalg.norm(v.T @ v - np.eye(p)))
    return row


def ewm_replay():
    """(covariances, starting basis, tol, cap) of the ewm-online timed rows."""
    w = workloads
    x = w.geometric_gaussian(
        np.random.default_rng(w.EWM_STREAM_SEED), w.EWM_WARMUP_ROWS + w.EWM_ROWS, w.EWM_P
    )
    head = x[: w.EWM_WARMUP_ROWS]
    model = EwmPCA(w.EWM_ALPHA, initial_basis=seed_initial_basis(head))
    model.add_all(head)
    state, covs = model.state, []
    for row in x[w.EWM_WARMUP_ROWS :]:
        state = ewm_update(state, row)
        covs.append(state.cov)
    return covs, model.basis, model.tol, model.max_iter_count


def ipca_replay():
    """(covariances, starting basis, tol, cap) of the ipca-csv warm fits."""
    w = workloads
    days = w.IPCA_DAYS
    x = w.geometric_gaussian(np.random.default_rng(1), days * w.IPCA_ROWS_PER_DAY, w.IPCA_P)
    covs = [sample_covariance(day)[1] for day in np.split(x, days)]
    return covs[1:], jacobi_eigh(covs[0]).vectors, DEFAULT_TOL, None


def refine_row(sides: dict, name: str, covs, start, tol, cap, repeats: int) -> dict:
    calls = [
        lambda package, previous, a=a: package.refine.refine_to_convergence(
            a, previous[0], tol, cap
        )
        for a in covs
    ]
    seconds, out = interleave(sides, calls, (start, None), repeats)
    iters = {side: [diag.iterations for _, diag in out[side]] for side in sides}
    row = {"input": name, "calls": len(covs)}
    for side in sides:
        per_iteration = 1e6 / sum(iters[side])
        row.update(quartiles(f"{side}_us_per_iteration", seconds[side], per_iteration, 2))
        row[f"{side}_iterations"] = sum(iters[side])
    if "baseline" in sides:
        row["speedup"] = round(row["baseline_us_per_iteration"] / row["this_us_per_iteration"], 3)
        row["bit_identical"] = iters["this"] == iters["baseline"] and all(
            np.array_equal(x, y) and np.array_equal(d.eigenvalues, e.eigenvalues)
            for (x, d), (y, e) in zip(out["this"], out["baseline"])
        )
    return row


def at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, help="another checkout to time against")
    parser.add_argument("--sizes", type=at_least_one, nargs="+", default=[9, 12, 32, 100])
    parser.add_argument("--repeats", type=at_least_one, default=9)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sides = {"this": streampca}
    if args.baseline is not None:
        sides["baseline"] = load_package(args.baseline, "streampca_baseline")
    jacobi = [
        jacobi_row(sides, p, kind, a, args.repeats)
        for p in args.sizes
        for kind, a in jacobi_inputs(p, args.seed).items()
    ]
    refine = [
        refine_row(sides, name, *inputs, args.repeats)
        for name, inputs in (("ewm p=9", ewm_replay()), ("ipca p=12", ipca_replay()))
    ]
    result = {"repeats": args.repeats, "seed": args.seed, "jacobi": jacobi, "refine": refine}
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
