"""Snapshot of the CLI: a fixed command set, every output captured.

Runs ``python -m streampca`` from the ``src/`` directory next to this script
on seeded ``synth`` tables and on a few tables derived from them by plain
text edits (timestamps, overflowing halves, a rank-one table, a table too
short for the default burn-in).  Two derived tables are not plain, so that
they take the ``csv`` row reader where the others take numpy's: one has
quoted timestamps that hold a comma, one LF line ends and blank lines.  Every
command runs in OUTDIR with relative paths, so the files it writes, and the
stdout, stderr and exit code captured as ``<case>.stdout``, ``<case>.stderr``
and ``<case>.exit``, do not depend on where the checkout lives.  Two
snapshots compare with ``diff -r``: run this script from each checkout into
its own OUTDIR.

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
]
ML_GRID = ["--grid", "0.9:0.99:0.01"]
# (case, argv); the cases named error-* are expected to exit 1
COMMANDS = [
    ("ipca-chunk200", ["ipca", "gauss.csv", "--chunk-spec", "chunk=200"]),
    ("ipca-by-day", ["ipca", "stamped.csv", "--chunk-spec", "by=day"]),
    ("ipca-reseed", ["ipca", "regime.csv", "--chunk-spec", "chunk=401", "--reseed",
                     "--tol", "1e-8", "--max-iter", "30"]),
    ("ipca-chunk100", ["ipca", "regime.csv", "--chunk-spec", "chunk=100"]),
    ("ipca-max-iter", ["ipca", "vc.csv", "--chunk-spec", "chunk=100", "--max-iter", "2"]),
    ("ipca-reseed-max-iter", ["ipca", "regime.csv", "--chunk-spec", "chunk=100", "--reseed",
                              "--max-iter", "2"]),
    ("ewmpca-numeric", ["ewmpca", "gauss.csv", "--alpha", "0.97"]),
    ("ewmpca-numeric-controls", ["ewmpca", "regime.csv", "--alpha", "0.95", "--tol", "1e-9",
                                 "--max-iter", "5"]),
    ("ewmpca-ml", ["ewmpca", "vc.csv", "--alpha", "ml", *ML_GRID]),
    ("ewmpca-ml-burn-in", ["ewmpca", "vc.csv", "--alpha", "ml", *ML_GRID, "--burn-in", "50",
                           "--warmup", "30"]),
    ("estimate-alpha-default", ["estimate-alpha", "vc.csv"]),
    ("estimate-alpha-grid", ["estimate-alpha", "regime.csv", "--grid", "0.85:0.97:0.02",
                             "--burn-in", "21"]),
    ("compare-numeric", ["compare", "gauss.csv", "--alpha", "0.97", "--max-iter", "50"]),
    ("compare-ml", ["compare", "vc.csv", "--alpha", "ml", *ML_GRID]),
    # tables that take the row reader
    ("ipca-quoted-stamps", ["ipca", "quoted.csv", "--chunk-spec", "by=day"]),
    ("ewmpca-quoted-stamps", ["ewmpca", "quoted.csv", "--alpha", "0.97"]),
    ("ipca-blank-lines", ["ipca", "blank_lines.csv", "--chunk-spec", "chunk=200"]),
    ("ewmpca-blank-lines", ["ewmpca", "blank_lines.csv", "--alpha", "0.97"]),
    # error cases
    ("error-ipca-overflow-first-chunk", ["ipca", "overflow_head.csv", "--chunk-spec",
                                         "chunk=100"]),
    ("error-ipca-overflow-warm-chunk", ["ipca", "overflow_tail.csv", "--chunk-spec",
                                        "chunk=300"]),
    ("error-ewmpca-overflow", ["ewmpca", "overflow_tail.csv", "--alpha", "0.97"]),
    ("error-ewmpca-overflow-seed", ["ewmpca", "overflow_head.csv", "--alpha", "0.97"]),
    ("error-compare-overflow-seed", ["compare", "overflow_head.csv", "--alpha", "0.97"]),
    ("error-ipca-bad-date", ["ipca", "bad_date.csv", "--chunk-spec", "by=day"]),
    ("error-compare-bad-alpha", ["compare", "gauss.csv", "--alpha", "nope"]),
    ("error-ewmpca-ml-bad-tol", ["ewmpca", "vc.csv", "--alpha", "ml", "--tol", "-1"]),
    ("error-compare-ml-bad-max-iter", ["compare", "vc.csv", "--alpha", "ml", "--max-iter", "0"]),
    ("error-estimate-alpha-short", ["estimate-alpha", "short.csv"]),
    ("error-ewmpca-ml-short", ["ewmpca", "short.csv", "--alpha", "ml"]),
    ("error-estimate-alpha-singular", ["estimate-alpha", "rank_one.csv", *ML_GRID,
                                       "--burn-in", "5"]),
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
        [sys.executable, "-m", "streampca", *argv],
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
    rank_one = ["x1,x2"] + [f"{t},{2 * t}" for t in range(1, 61)]
    (outdir / "rank_one.csv").write_text("\r\n".join(rank_one) + "\r\n", newline="")


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
