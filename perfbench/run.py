"""Benchmark for streampca: online EWMPCA, chunked IPCA from CSV, alpha grid.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload ewm-online|ipca-csv|alpha-grid \
        --seed N --seconds S --trace 0|1

It imports ``streampca`` from ``src/`` of the checkout, sets the workload up,
runs whole rounds of it for at least ``--seconds`` seconds in this process,
checks every output against its own computation (``checks.py``) and prints
one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: ``rows_per_s``,
``latency_us``, ``setup_s`` and ``peak_rss_mb``.  With ``--trace 1`` every
piece of every round runs twice, once plain and once with timing wrappers
around the program's public functions (``tracing.py``), and the metrics are
the per-layer ones, per round.  See README.md for what each metric means.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is first imported: threaded BLAS on
# 9 x 9 products only adds hand-offs and scheduler noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up is timed in this many fresh processes, spread over the run; the
# median is reported.
SETUP_REPEATS = 5
MIN_ROUNDS = 4


def monotonic() -> float:
    """CLOCK_MONOTONIC, which is the same clock in every process."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["ewm-online", "ipca-csv", "alpha-grid"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_once(args) -> float:
    """Time from spawning a fresh process to the point where its first timed
    operation would start."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-only",
    ]
    spawned = monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed: {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])["ready"] - spawned


def run_rounds(workload, args, tracer=None):
    """Whole rounds until ``args.seconds`` have passed.  Returns the plain
    pieces as pieces[k][round], with a tracer the traced ones and, per traced
    piece, the sum of span self times, and without one the set-up times of
    SETUP_REPEATS fresh processes started at even intervals between rounds."""
    plain = [[] for _ in range(workload.n_pieces)]
    traced = [[] for _ in range(workload.n_pieces)]
    self_sums = [[] for _ in range(workload.n_pieces)]
    setups = []
    start = monotonic()
    rounds = 0
    while rounds < MIN_ROUNDS or monotonic() < start + args.seconds:
        gc.collect()
        for k in range(workload.n_pieces):
            plain[k].append(workload.run_piece(k))
            if tracer is not None:
                before = tracer.root_s
                tracer.install()
                try:
                    traced[k].append(workload.run_piece(k))
                finally:
                    tracer.uninstall()
                self_sums[k].append(tracer.root_s - before)
        rounds += 1
        due = SETUP_REPEATS * (monotonic() - start) / args.seconds
        while tracer is None and len(setups) < min(due, SETUP_REPEATS):
            setups.append(setup_once(args))
    while tracer is None and len(setups) < SETUP_REPEATS:
        setups.append(setup_once(args))
    return plain, traced, self_sums, setups


def median_piece(pieces):
    """The run of a piece with the median wall time (the upper one of two)."""
    return sorted(pieces, key=lambda p: p.wall_s)[len(pieces) // 2]


def end_to_end(workload, plain) -> dict:
    """rows_per_s and latency_us from the median run of each piece."""
    rounds = len(plain[0])
    rows_ok = sum(p.rows_ok for pieces in plain for p in pieces) / rounds
    typical = [median_piece(pieces) for pieces in plain]
    wall = sum(p.wall_s for p in typical)
    if workload.name == "ewm-online":
        latencies = sorted(t for p in typical for t in p.latencies_s)
        latency_us = 1e6 * latencies[int(0.99 * (len(latencies) - 1))]
    else:
        latency_us = 1e6 * wall
    return {"rows_per_s": (rows_ok / wall, "rows/s"), "latency_us": (latency_us, "us")}


def totals(groups) -> tuple[int, int, int, list[str]]:
    pieces = [p for group in groups for pieces in group for p in pieces]
    problems = [msg for p in pieces for msg in p.problems]
    return (
        sum(p.attempted for p in pieces),
        sum(p.failed for p in pieces),
        sum(p.wrong for p in pieces),
        problems,
    )


def trace_overhead(plain, traced, self_sums) -> dict:
    """Wall time of a plain round, and the medians over pieces, taken next to
    each other, of (traced - plain) and (span self times - plain), per round."""
    rounds = len(plain[0])
    wall = sum(p.wall_s for pieces in plain for p in pieces) / rounds
    over, gap = [], []
    for k in range(len(plain)):
        for r in range(rounds):
            base = plain[k][r].wall_s
            over.append(traced[k][r].wall_s - base)
            gap.append(self_sums[k][r] - base)
    n_pieces = len(plain)
    return {
        "trace.plain_round_s": (wall, "s"),
        "trace.overhead_s": (n_pieces * sorted(over)[len(over) // 2], "s"),
        "trace.self_minus_plain_s": (n_pieces * sorted(gap)[len(gap) // 2], "s"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "streampca" / "__init__.py").is_file():
        print(f"error: no streampca sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"ready": monotonic()}))
            return 0
        if tracer is not None:
            tracer.uninstall()
            seed_s = tracer.total["ewmpca.seed_initial_basis"]
            tracer.reset()
        plain, traced, self_sums, setups = run_rounds(workload, args, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed, wrong, problems = totals([plain, traced])
        if tracer is None:
            metrics = end_to_end(workload, plain)
            metrics["setup_s"] = (sorted(setups)[len(setups) // 2], "s")
            metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        else:
            metrics = tracer.layer_metrics(len(traced[0]))
            metrics["ewmpca.seed_s"] = (seed_s, "s")
            metrics.update(trace_overhead(plain, traced, self_sums))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for msg in sorted(set(problems)):
        print(f"{args.workload}: check failed: {msg}", file=sys.stderr)
    result = {
        # Rows stalled at the refinement's false fixed point are failed
        # operations of a known fault; every other failure is a wrong output.
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
