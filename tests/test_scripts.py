"""Smoke runs of the experiment scripts: exit 0 and the files each writes."""

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
