"""Snapshot of the CLI: a fixed command set, every output captured.

Runs ``python -m streampca`` from the ``src/`` directory next to this script
on seeded ``synth`` tables and on a few tables derived from them by plain
text edits (timestamps, overflowing halves, a 1e160 entry, a tail in reverse
order, a rank-one table, small noise ending in a 1e150 outlier, the Gaussian
table times 2^-20 and times 2^-300).  Two derived tables are not plain, so
that they take the ``csv`` row reader where the others take numpy's: one has
quoted timestamps that hold a comma, one LF line ends and blank lines.
Every command runs in OUTDIR with relative paths, so the files it writes,
and the stdout, stderr and exit code captured as ``<case>.stdout``,
``<case>.stderr`` and ``<case>.exit``, do not depend on where the checkout
lives.  Commands run
with ``-W error::RuntimeWarning``, so a numpy warning fails its case with a
traceback instead of passing unseen.  Two snapshots compare with
``diff -r``: run this script from each checkout into its own OUTDIR.

Usage: python scripts/cli_snapshot.py OUTDIR
"""

import argparse
import os
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

ROWS = 600
SYNTH = [
    ("synth-gaussian", ["--kind", "stationary-gaussian", "--rows", str(ROWS), "--cols", "4",
                        "--seed", "1", "--output", "gauss.csv"]),
    ("synth-regime", ["--kind", "regime-switch", "--rows", str(ROWS), "--cols", "3",
                      "--switch-points", "300", "--seed", "2", "--output", "regime.csv"]),
    ("synth-vc", ["--kind", "volatility-cluster", "--rows", str(ROWS), "--cols", "4",
                  "--seed", "3", "--output", "vc.csv"]),
    ("synth-short", ["--kind", "stationary-gaussian", "--rows", "80", "--cols", "9",
                     "--seed", "4", "--output", "short.csv"]),
    ("synth-wide", ["--kind", "stationary-gaussian", "--rows", "150", "--cols", "48",
                    "--seed", "2", "--output", "wide.csv"]),
    ("synth-regime9", ["--kind", "regime-switch", "--rows", "3000", "--cols", "9",
                       "--switch-points", "1500", "--seed", "7", "--output", "regime9.csv"]),
]
ML_GRID = ["--grid", "0.9:0.99:0.01"]
TERM_FIT = ["--grid", "0.9:0.95:0.05", "--burn-in", "5"]
# (case, argv); the cases named error-* are expected to exit 1
COMMANDS = [
    ("ipca-chunk200", ["ipca", "gauss.csv", "--chunk-spec", "chunk=200"]),
    ("ipca-by-day", ["ipca", "stamped.csv", "--chunk-spec", "by=day"]),
    ("ipca-regime", ["ipca", "regime.csv", "--chunk-spec", "chunk=401"]),
    ("ipca-chunk100", ["ipca", "regime.csv", "--chunk-spec", "chunk=100"]),
    # chunks 3 and 4 straddle the switch and take the kernel's Jacobi rotation
    ("ipca-regime9", ["ipca", "regime9.csv", "--chunk-spec", "chunk=401"]),
    ("ewmpca-numeric", ["ewmpca", "gauss.csv", "--alpha", "0.97"]),
    # gauss.csv after row 100 reversed: rows 1-100 match ewmpca-numeric's
    ("ewmpca-tail", ["ewmpca", "gauss_tail.csv", "--alpha", "0.97"]),
    ("ewmpca-regime", ["ewmpca", "regime.csv", "--alpha", "0.95"]),
    # p = 48: from p = 32 on, a basis's memory layout can change BLAS product bits
    ("ewmpca-wide", ["ewmpca", "wide.csv", "--alpha", "0.97"]),
    ("ewmpca-ml", ["ewmpca", "vc.csv", "--alpha", "ml", *ML_GRID]),
    ("ewmpca-ml-burn-in", ["ewmpca", "vc.csv", "--alpha", "ml", *ML_GRID, "--burn-in", "50"]),
    ("estimate-alpha-default", ["estimate-alpha", "vc.csv"]),
    ("estimate-alpha-grid", ["estimate-alpha", "regime.csv", "--grid", "0.85:0.97:0.02",
                             "--burn-in", "21"]),
    # p >= 8: numpy sums a contiguous row of 8 or more entries in unrolled
    # partial sums, so these curves' last bits depend on the order of each sum
    # (10-row blocks of 19 decays at p = 9, as in the benchmark's alpha-grid)
    ("estimate-alpha-regime9", ["estimate-alpha", "regime9.csv", "--grid", "0.905:0.995:0.005"]),
    ("estimate-alpha-wide", ["estimate-alpha", "wide.csv", "--grid", "0.97:0.99:0.01",
                             "--burn-in", "60"]),
    ("compare-numeric", ["compare", "gauss.csv", "--alpha", "0.97"]),
    ("compare-ml", ["compare", "vc.csv", "--alpha", "ml", *ML_GRID]),
    # tables that take the row reader
    ("ipca-quoted-stamps", ["ipca", "quoted.csv", "--chunk-spec", "by=day"]),
    ("ewmpca-quoted-stamps", ["ewmpca", "quoted.csv", "--alpha", "0.97"]),
    ("ipca-blank-lines", ["ipca", "blank_lines.csv", "--chunk-spec", "chunk=200"]),
    ("ewmpca-blank-lines", ["ewmpca", "blank_lines.csv", "--alpha", "0.97"]),
    # gauss.csv times 2^-20: every output is a power of two times its twin's
    # (ipca-chunk200, ewmpca-numeric, compare-numeric)
    ("ipca-micro", ["ipca", "gauss_micro.csv", "--chunk-spec", "chunk=200"]),
    ("ewmpca-micro", ["ewmpca", "gauss_micro.csv", "--alpha", "0.97"]),
    ("compare-micro", ["compare", "gauss_micro.csv", "--alpha", "0.97"]),
    # gauss.csv times 2^-300, where the squares of the unscaled covariance underflow
    ("ipca-tiny", ["ipca", "gauss_tiny.csv", "--chunk-spec", "chunk=200"]),
    ("ewmpca-tiny", ["ewmpca", "gauss_tiny.csv", "--alpha", "0.97"]),
    ("compare-tiny", ["compare", "gauss_tiny.csv", "--alpha", "0.97"]),
    # error cases
    ("error-ipca-overflow-first-chunk", ["ipca", "overflow_head.csv", "--chunk-spec",
                                         "chunk=100"]),
    ("error-ipca-overflow-warm-chunk", ["ipca", "overflow_tail.csv", "--chunk-spec",
                                        "chunk=300"]),
    ("error-ewmpca-overflow", ["ewmpca", "overflow_tail.csv", "--alpha", "0.97"]),
    # the first refinement, at observation 2, overflows
    ("error-ewmpca-overflow-head", ["ewmpca", "overflow_head.csv", "--alpha", "0.97"]),
    ("error-compare-overflow-head", ["compare", "overflow_head.csv", "--alpha", "0.97"]),
    # 1e160 in row 41: the moments overflow, named before any numpy warning
    ("error-ipca-overflow-moment", ["ipca", "overflow_moment.csv", "--chunk-spec", "chunk=100"]),
    ("error-ewmpca-overflow-moment", ["ewmpca", "overflow_moment.csv", "--alpha", "0.97"]),
    ("error-estimate-alpha-overflow-moment", ["estimate-alpha", "overflow_moment.csv", *ML_GRID,
                                              "--burn-in", "20"]),
    ("error-ipca-bad-date", ["ipca", "bad_date.csv", "--chunk-spec", "by=day"]),
    ("error-compare-bad-alpha", ["compare", "gauss.csv", "--alpha", "nope"]),
    ("error-estimate-alpha-inf-step", ["estimate-alpha", "vc.csv", "--grid", "0.5:0.9:inf"]),
    # 1e15 decays: refused before the grid is built
    ("error-estimate-alpha-fine-grid", ["estimate-alpha", "vc.csv", "--grid",
                                        "0.0001:0.9999:1e-15"]),
    ("error-estimate-alpha-short", ["estimate-alpha", "short.csv"]),
    ("error-ewmpca-ml-short", ["ewmpca", "short.csv", "--alpha", "ml"]),
    ("error-estimate-alpha-singular", ["estimate-alpha", "rank_one.csv", *ML_GRID,
                                       "--burn-in", "5"]),
    # the 1e150 outlier in row 60 overflows its likelihood term, not the moments
    ("error-estimate-alpha-overflow-term", ["estimate-alpha", "overflow_term.csv", *TERM_FIT]),
    ("error-ewmpca-ml-overflow-term", ["ewmpca", "overflow_term.csv", "--alpha", "ml",
                                       *TERM_FIT]),
    # alpha = 0.5 is too low for 48 columns: alpha^p < p eps
    ("error-estimate-alpha-wide", ["estimate-alpha", "wide.csv", "--grid", "0.5:0.9:0.4",
                                   "--burn-in", "60"]),
    ("error-ipca-missing-input", ["ipca", "missing.csv", "--chunk-spec", "chunk=10"]),
]


def output_flag(case: str, argv: list[str]) -> list[str]:
    """Each command writes under its own case name."""
    if argv[0] == "compare":
        return ["--output-prefix", f"{case}_"]
    return ["--output", f"{case}.csv"]


def run(outdir: Path, case: str, argv: list[str], env: dict) -> int:
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "streampca", *argv],
        cwd=outdir, env=env, capture_output=True,
    )
    (outdir / f"{case}.stdout").write_bytes(proc.stdout)
    (outdir / f"{case}.stderr").write_bytes(proc.stderr)
    (outdir / f"{case}.exit").write_text(f"{proc.returncode}\n")
    return proc.returncode


def derive_inputs(outdir: Path) -> None:
    """Tables made from the synth output by text edits alone, so they do not
    depend on the program's CSV writer."""
    header, *rows = (outdir / "gauss.csv").read_text().splitlines()
    start = date(2021, 1, 4)
    stamped = [f"timestamp,{header}"] + [
        f"{start + timedelta(days=i // 150)}T09:{30 + i % 30:02d}:00,{row}"
        for i, row in enumerate(rows)
    ]
    tail = [header, *rows[:100], *rows[:99:-1]]
    (outdir / "gauss_tail.csv").write_text("\r\n".join(tail) + "\r\n", newline="")
    (outdir / "stamped.csv").write_text("\r\n".join(stamped) + "\r\n", newline="")
    quoted = [f"timestamp,{header}"] + [
        f'"{start + timedelta(days=i // 150)}, 09:{30 + i % 30:02d}",{row}'
        for i, row in enumerate(rows)
    ]
    (outdir / "quoted.csv").write_text("\r\n".join(quoted) + "\r\n", newline="")
    # a blank line after every 100th row
    spaced = [header] + [row + "\n" * (i % 100 == 99) for i, row in enumerate(rows)]
    (outdir / "blank_lines.csv").write_text("\n".join(spaced) + "\n", newline="")
    # the second day's date does not exist: every row of that day is bad
    bad_date = [line.replace("2021-01-05", "2021-02-30") for line in stamped]
    (outdir / "bad_date.csv").write_text("\r\n".join(bad_date) + "\r\n", newline="")
    # one half scaled by 1e78: finite entries, an overflowing ||S||_F
    half = len(rows) // 2
    scaled = [",".join(f"{float(v) * 1e78:.17g}" for v in row.split(",")) for row in rows]
    for name, table in (("overflow_head", scaled[:half] + rows[half:]),
                        ("overflow_tail", rows[:half] + scaled[half:])):
        (outdir / f"{name}.csv").write_text("\r\n".join([header, *table]) + "\r\n", newline="")
    moment = [header, *rows[:40], "1e160," + rows[40].partition(",")[2], *rows[41:]]
    (outdir / "overflow_moment.csv").write_text("\r\n".join(moment) + "\r\n", newline="")
    rank_one = ["x1,x2"] + [f"{t},{2 * t}" for t in range(1, 61)]
    (outdir / "rank_one.csv").write_text("\r\n".join(rank_one) + "\r\n", newline="")
    # 60 rows of the first two columns scaled by 1e-5, the last x1 replaced by 1e150
    small = [",".join(f"{float(v) * 1e-5:.17g}" for v in row.split(",")[:2])
             for row in rows[:60]]
    term = ["x1,x2", *small[:59], "1e150," + small[59].partition(",")[2]]
    (outdir / "overflow_term.csv").write_text("\r\n".join(term) + "\r\n", newline="")
    # every value times 2^-20 or 2^-300, which is exact in binary and written exactly
    for name, k in (("micro", 20), ("tiny", 300)):
        small = [",".join(f"{float(v) * 2.0**-k:.17g}" for v in row.split(",")) for row in rows]
        (outdir / f"gauss_{name}.csv").write_text("\r\n".join([header, *small]) + "\r\n",
                                                  newline="")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", help="directory to create and fill (must not exist)")
    args = parser.parse_args(argv)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in [str(SRC), env.get("PYTHONPATH")] if p)
    env["OPENBLAS_NUM_THREADS"] = "1"
    unexpected = []
    for case, synth_args in SYNTH:
        if run(outdir, case, ["synth", *synth_args], env) != 0:
            unexpected.append(case)
    derive_inputs(outdir)
    for case, cmd in COMMANDS:
        code = run(outdir, case, [*cmd, *output_flag(case, cmd)], env)
        if code != (1 if case.startswith("error-") else 0):
            unexpected.append(case)
    for case in unexpected:
        print(f"cli_snapshot: {case} exited with an unexpected code", file=sys.stderr)
    print(f"cli_snapshot: {len(SYNTH) + len(COMMANDS)} commands captured in {outdir}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
