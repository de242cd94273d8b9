"""Smoke runs of the scripts: exit 0 and the files each writes."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, written",
    [
        (
            "nonstationarity_experiment.py",
            ["--rows", "600", "--cols", "3", "--switch-points", "300"],
            ["covariance_distance.csv", "crosscovariance.csv", "crosscorrelation.csv"],
        ),
        (
            "sign_stability_experiment.py",
            ["--rows", "1000", "--cols", "3", "--chunks", "4"],
            ["ipca_stacked.csv", "classical_stacked.csv", "whole_sample.csv"],
        ),
    ],
)
def test_script_runs_and_writes(tmp_path, script, args, written):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [str(ROOT / "src"), env.get("PYTHONPATH")] if p
    )
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--output-dir", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(f.name for f in out.iterdir()) == sorted(written)
    assert all((out / name).stat().st_size > 0 for name in written)


def test_cli_snapshot_captures_every_command(tmp_path):
    spec = importlib.util.spec_from_file_location("cli_snapshot", ROOT / "scripts" / "cli_snapshot.py")
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)
    out = tmp_path / "snap"
    # exit 0: every error-* case exited 1 and every other case 0
    assert snapshot.main([str(out)]) == 0
    cases = [case for case, _ in snapshot.SYNTH + snapshot.COMMANDS]
    for case in cases:
        assert (out / f"{case}.exit").read_text() in ("0\n", "1\n")
        assert (out / f"{case}.stdout").exists() and (out / f"{case}.stderr").exists()
    assert (out / "estimate-alpha-default.csv").stat().st_size > 0
    assert (out / "compare-ml_run.json").stat().st_size > 0
    assert (out / "error-ewmpca-overflow.stderr").read_text().startswith("error: observation 301:")


def run_kernel_timing(*args):
    script = ROOT / "scripts" / "kernel_timing.py"
    return subprocess.run([sys.executable, str(script), *args], capture_output=True, text=True)


@pytest.fixture(scope="module")
def kernel_timing_result():
    proc = run_kernel_timing("--baseline", str(ROOT), "--sizes", "3", "4", "--repeats", "1")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_jacobi_timing_reports_every_size_and_input(kernel_timing_result):
    table = kernel_timing_result["jacobi"]
    assert [(row["p"], row["input"]) for row in table] == [
        (3, "dense"), (3, "near-diagonal"), (4, "dense"), (4, "near-diagonal")
    ]
    assert all(row["residual"] <= 1e-12 and row["orthonormality"] <= 1e-12 for row in table)
    assert_quartiles(table, ["this_ms", "baseline_ms"])


def test_refine_timing_replays_both_inputs_bit_identically(kernel_timing_result):
    table = kernel_timing_result["refine"]
    assert [(row["input"], row["calls"]) for row in table] == [("ewm p=9", 2800), ("ipca p=12", 4)]
    for row in table:
        assert row["this_iterations"] == row["baseline_iterations"] >= row["calls"]
        assert row["bit_identical"] is True
    assert_quartiles(table, ["this_us_per_iteration", "baseline_us_per_iteration"])


def assert_quartiles(table, keys):
    """Each timing sits between its quartiles, ``_q1`` and ``_q3``."""
    for row in table:
        for key in keys:
            assert 0 < row[f"{key}_q1"] <= row[key] <= row[f"{key}_q3"]


@pytest.mark.parametrize("flag", ["--repeats", "--sizes"])
def test_kernel_timing_rejects_a_count_below_one(flag):
    proc = run_kernel_timing(flag, "0")
    assert proc.returncode == 2
    assert f"argument {flag}: must be at least 1, got 0" in proc.stderr
    assert proc.stdout == ""
