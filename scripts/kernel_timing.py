"""Time the two eigensolvers, ``linalg.jacobi_eigh`` and
``refine.refine_to_convergence``, the decay grid search
``ewmstats.estimate_alpha`` and ``EwmPCA.add``, optionally against another
checkout.

The ``jacobi`` table has two seeded inputs per size p (``--sizes``):

- dense: the sample covariance of 20 p rows of ``synth.stationary_gaussian``
  (a geometric spectrum, rotated by a random basis);
- near-diagonal: a geometric diagonal spanning 1e3, plus a symmetric
  Gaussian perturbation of size 1e-4.

The ``refine`` table replays two inputs built from the generators of
``perfbench/workloads.py`` (fixed by the benchmark, whatever ``--seed``):

- ewm p=9: the 2800 timed rows of the ``ewm-online`` stream.  Each row hands
  the kernel the EWM covariance after that row and the basis the previous
  row returned, as ``EwmPCA.add`` does; both sides start from the basis of
  the benchmark's own warmed-up model (``workloads.EwmOnline``).
- ipca p=12: the days of the ``ipca-csv`` input at seed 1.  Each day
  after the first hands the kernel its sample covariance and the previous
  day's basis, as ``IteratedPCA.fit`` does; the first day is fitted by
  ``jacobi_eigh``.

The ``loglik`` table scores two decay grids at the default burn-in:

- alpha-grid: the input of the benchmark's ``alpha-grid`` workload, the
  200 x 9 ``workloads.bekk_series`` at seed 1 on ``workloads.ALPHA_GRID``
  (19 decays, 10 rows per block of the scorer);
- gaussian 300x9: 300 rows of ``synth.stationary_gaussian`` at ``--seed`` on
  the default 500-value grid, where each block of the scorer holds one row.

The ``ewm`` table has one row, ``ewm-online``: each side seeds its own
``EwmPCA(0.97)`` by its own ``seed_initial_basis`` of the stream's 100 head
rows and adds those rows, as ``workloads.EwmOnline`` does, untimed; then the
2800 timed rows are added one ``add`` call each.

A repeat of a ``jacobi`` row times ``BATCH`` calls, a repeat of a ``refine``
row one replay, a repeat of a ``loglik`` row the number of calls in its
``calls`` (``BATCH`` for the short alpha-grid call), and a repeat of the
``ewm`` row the 2800 ``add`` calls of a freshly warmed model.  With
``--baseline DIR`` the ``streampca`` package of that checkout is loaded too,
under another name, and the two sides run interleaved, one call each in turn
with the side that goes first alternating, so that both see the same load on
the host; in a replay each side follows its own chain of bases.  Prints one JSON object with
the four tables.  A ``jacobi`` row holds the milliseconds per call of each
side (the median over repeats, and the quartiles as ``_q1`` and ``_q3``), the
ratio of the medians, and the residual ||A V - V diag(values)||_F / ||A||_F
and the orthonormality ||V^T V - I||_F of this checkout's result.  A
``refine`` row holds the microseconds per iteration of each side
(median and quartiles), the iterations per replay, the ratio of the medians,
and whether the baseline's bases, eigenvalues and iteration counts are
bit-identical (``np.array_equal``) to this checkout's.  A ``loglik`` row holds
the milliseconds per call of each side (median and quartiles), the ratio of
the medians, and whether the baseline's argmax and likelihood curve are
bit-identical to this checkout's.  The ``ewm`` row holds the microseconds per
row of each side (median and quartiles), its refinement steps per row and
Jacobi fallbacks over the timed rows, the ratio of the medians, and whether
the baseline's component rows, bases, steps and fallbacks are bit-identical
to this checkout's.

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
from streampca.cli import parse_grid_spec  # noqa: E402
from streampca.ewmstats import default_alpha_grid, ewm_update  # noqa: E402
from streampca.linalg import jacobi_eigh, sample_covariance  # noqa: E402
from streampca.synth import stationary_gaussian  # noqa: E402

# calls per repeat of a short call: one jacobi_eigh call of 1-12 ms, or one
# estimate_alpha call of ~6 ms, is too short for a stable median on a shared
# host
BATCH = 10


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
    calls = [lambda package, _: package.linalg.jacobi_eigh(a)] * BATCH
    seconds, out = interleave(sides, calls, None, repeats)
    row = {"p": p, "input": kind}
    for side in sides:
        row.update(quartiles(f"{side}_ms", seconds[side], 1e3 / BATCH, 3))
    if "baseline" in sides:
        row["speedup"] = round(row["baseline_ms"] / row["this_ms"], 2)
    v, values = out["this"][0].vectors, out["this"][0].values
    row["residual"] = float(np.linalg.norm(a @ v - v * values) / np.linalg.norm(a))
    row["orthonormality"] = float(np.linalg.norm(v.T @ v - np.eye(p)))
    return row


def ewm_replay():
    """(covariances, starting basis) of the ewm-online timed rows."""
    online = workloads.EwmOnline(0, None)  # its stream does not depend on the seed
    model = online.starts[0]
    state, covs = model.state, []
    for row in online.x[workloads.EWM_WARMUP_ROWS :]:
        state = ewm_update(state, row)
        covs.append(state.cov)
    return covs, model.basis


def ipca_replay():
    """(covariances, starting basis) of the ipca-csv warm fits."""
    w = workloads
    days = w.IPCA_DAYS
    x = w.geometric_gaussian(np.random.default_rng(1), days * w.IPCA_ROWS_PER_DAY, w.IPCA_P)
    covs = [sample_covariance(day)[1] for day in np.split(x, days)]
    return covs[1:], jacobi_eigh(covs[0]).vectors


def refine_row(sides: dict, name: str, covs, start, repeats: int) -> dict:
    calls = [
        lambda package, previous, a=a: package.refine.refine_to_convergence(a, previous[0])
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


def ewm_row(sides: dict, repeats: int) -> dict:
    w = workloads
    x = w.EwmOnline(0, None).x  # its stream does not depend on the seed
    head, rows = x[: w.EWM_WARMUP_ROWS], x[w.EWM_WARMUP_ROWS :]
    seconds = {side: [] for side in sides}
    for _ in range(repeats):
        models = {}
        for package in sides.values():
            model = package.EwmPCA(w.EWM_ALPHA, initial_basis=package.seed_initial_basis(head))
            for row in head:
                model.add(row)
            models[package] = model
        warm = {package: (m.iterations_total, m.fallback_count) for package, m in models.items()}
        calls = [
            lambda package, _, row=row: (models[package].add(row), models[package].basis)
            for row in rows
        ]
        spent, out = interleave(sides, calls, None, 1)
        for side in sides:
            seconds[side] += spent[side]
    row = {"input": w.EwmOnline.name, "rows": len(rows)}
    costs = {}
    for side, package in sides.items():
        model = models[package]
        costs[side] = (model.iterations_total - warm[package][0],
                       model.fallback_count - warm[package][1])
        row.update(quartiles(f"{side}_us_per_row", seconds[side], 1e6 / len(rows), 2))
        row[f"{side}_steps_per_row"] = round(costs[side][0] / len(rows), 3)
        row[f"{side}_fallbacks"] = costs[side][1]
    if "baseline" in sides:
        row["speedup"] = round(row["baseline_us_per_row"] / row["this_us_per_row"], 3)
        row["bit_identical"] = costs["this"] == costs["baseline"] and all(
            np.array_equal(z, y) and np.array_equal(v, u)
            for (z, v), (y, u) in zip(out["this"], out["baseline"])
        )
    return row


def loglik_inputs(seed: int) -> dict:
    """name: (table, grid, calls per repeat) of the two likelihood inputs."""
    w = workloads
    bekk = w.bekk_series(np.random.default_rng(1), w.ALPHA_ROWS, w.ALPHA_P)
    return {
        "alpha-grid": (bekk, parse_grid_spec(w.ALPHA_GRID), BATCH),
        "gaussian 300x9": (stationary_gaussian(300, 9, seed), default_alpha_grid(), 1),
    }


def loglik_row(sides: dict, name: str, x, grid, batch: int, repeats: int) -> dict:
    calls = [lambda package, _: package.estimate_alpha(x, grid)] * batch
    seconds, out = interleave(sides, calls, None, repeats)
    row = {"input": name, "rows": x.shape[0], "p": x.shape[1], "decays": grid.shape[0],
           "calls": batch}
    for side in sides:
        row.update(quartiles(f"{side}_ms", seconds[side], 1e3 / batch, 3))
    if "baseline" in sides:
        row["speedup"] = round(row["baseline_ms"] / row["this_ms"], 3)
        row["bit_identical"] = all(
            a == b and np.array_equal(c, d)
            for (a, c), (b, d) in zip(out["this"], out["baseline"])
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
    loglik = [
        loglik_row(sides, name, *inputs, args.repeats)
        for name, inputs in loglik_inputs(args.seed).items()
    ]
    result = {"repeats": args.repeats, "seed": args.seed, "jacobi": jacobi, "refine": refine,
              "loglik": loglik, "ewm": [ewm_row(sides, args.repeats)]}
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
