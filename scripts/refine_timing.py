"""Time ``refine.refine_to_convergence`` on the benchmark's inputs, optionally
against another checkout.

Two replays, built from the generators of ``perfbench/workloads.py``:

- ewm p=9: the 2800 timed rows of the ``ewm-online`` stream.  Each row hands
  the kernel the EWM covariance after that row and the basis the previous
  row returned, as ``EwmPCA.add`` does; both sides start from the same
  basis, warmed up over the stream's first 100 rows.
- ipca p=12: the days of the ``ipca-csv`` input at seed 1.  Each day
  after the first hands the kernel its sample covariance and the previous
  day's basis, as ``IteratedPCA.fit`` does; the first day is fitted by
  ``jacobi_eigh``.

With ``--baseline DIR`` the ``streampca`` package of that checkout is loaded
too, under another name, and the two kernels run interleaved, one call each
in turn with the side that goes first alternating, so that both see the same
load on the host.  Each side follows its own chain of bases.  Prints one JSON
object: per replay, the median microseconds per iteration over the repeats
and the iterations per replay of each side, their ratio, and whether the
baseline's bases, eigenvalues and iteration counts are bit-identical
(``np.array_equal``) to this checkout's.

Usage: python scripts/refine_timing.py [--baseline DIR] [--repeats 5]
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

import workloads  # noqa: E402
from streampca import refine  # noqa: E402
from streampca.ewmpca import EwmPCA, seed_initial_basis  # noqa: E402
from streampca.ewmstats import ewm_update  # noqa: E402
from streampca.linalg import jacobi_eigh, sample_covariance  # noqa: E402


def load_refine(checkout: Path, name: str):
    """The ``refine`` module of the ``streampca`` package in ``checkout``,
    imported as package ``name`` so that it does not shadow this checkout's."""
    package = checkout / "src" / "streampca"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return sys.modules[f"{name}.refine"]


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
    return covs[1:], jacobi_eigh(covs[0]).vectors, 1e-6, None


def replay(sides: dict, covs, start, tol, cap, repeats: int) -> dict:
    """Per side: median us per iteration, and the bases, eigenvalues and
    iteration counts of the last repeat."""
    us = {side: [] for side in sides}
    for rep in range(repeats):
        bases = {side: start for side in sides}
        out = {side: ([], [], []) for side in sides}
        spent = dict.fromkeys(sides, 0.0)
        for t, a in enumerate(covs):
            order = list(sides) if (rep + t) % 2 == 0 else list(reversed(sides))
            for side in order:
                t0 = time.perf_counter()
                basis, diag = sides[side].refine_to_convergence(a, bases[side], tol, cap)
                spent[side] += time.perf_counter() - t0
                bases[side] = basis
                for kept, value in zip(out[side], (basis, diag.eigenvalues, diag.iterations)):
                    kept.append(value)
        for side in sides:
            us[side].append(1e6 * spent[side] / sum(out[side][2]))
    return {side: (float(np.median(us[side])), out[side]) for side in sides}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, help="another checkout to time against")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    sides = {"this": refine}
    if args.baseline is not None:
        sides["baseline"] = load_refine(args.baseline, "streampca_baseline")
    table = []
    for name, inputs in (("ewm p=9", ewm_replay()), ("ipca p=12", ipca_replay())):
        result = replay(sides, *inputs, args.repeats)
        this_us, (this_bases, this_values, this_iters) = result["this"]
        row = {
            "input": name,
            "calls": len(this_iters),
            "this_us_per_iteration": round(this_us, 2),
            "this_iterations": sum(this_iters),
        }
        if "baseline" in result:
            base_us, (bases, values, iters) = result["baseline"]
            row["baseline_us_per_iteration"] = round(base_us, 2)
            row["baseline_iterations"] = sum(iters)
            row["speedup"] = round(base_us / this_us, 3)
            row["bit_identical"] = bool(
                iters == this_iters
                and all(map(np.array_equal, bases, this_bases))
                and all(map(np.array_equal, values, this_values))
            )
        table.append(row)
    print(json.dumps({"repeats": args.repeats, "table": table}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
