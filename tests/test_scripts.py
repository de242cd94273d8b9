"""Smoke runs of the scripts: exit 0 and the files each writes."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from streampca.ewmpca import EwmPCA, seed_initial_basis
from streampca.ewmstats import ewm_update
from streampca.tableio import read_table

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, written",
    [
        (
            "nonstationarity_experiment.py",
            ["--rows", "600", "--cols", "3", "--switch-points", "300"],
            [
                "covariance_distance.csv",
                "regime_switch.csv",
                "crosscovariance.csv",
                "crosscorrelation.csv",
                "run.json",
            ],
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


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_snapshot_captures_every_command(tmp_path):
    snapshot = load_script("cli_snapshot")
    out = tmp_path / "snap"
    # exit 0: every error-* case exited 1 and every other case 0
    assert snapshot.main([str(out)]) == 0
    cases = [case for case, _ in snapshot.SYNTH + snapshot.COMMANDS]
    assert len(cases) == 54
    for case in cases:
        assert (out / f"{case}.exit").read_text() in ("0\n", "1\n")
        assert (out / f"{case}.stdout").exists()
        # one line, the report or the named error: no warning, no traceback
        err = (out / f"{case}.stderr").read_text()
        assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err
    assert (out / "estimate-alpha-default.csv").stat().st_size > 0
    assert (out / "compare-ml_run.json").stat().st_size > 0
    assert (out / "error-ewmpca-overflow.stderr").read_text().startswith("error: observation 301:")
    assert (out / "error-ewmpca-overflow-head.stderr").read_text().startswith("error: observation 2:")
    # each refusal is one line: the named error, no numpy warning before it
    for case in ("ipca", "ewmpca", "estimate-alpha"):
        err = (out / f"error-{case}-overflow-moment.stderr").read_text()
        assert err.count("\n") == 1 and " overflows float64 " in err
    for case in ("estimate-alpha", "ewmpca-ml"):
        err = (out / f"error-{case}-overflow-term.stderr").read_text()
        assert err.startswith("error: log-likelihood overflows float64 at observation t=60 "
                              "(alpha=0.9)") and err.count("\n") == 1
    assert (out / "error-ipca-out-of-order.stderr").read_text() == (
        "error: line 452: timestamp '2021-01-04T09:30:00' sorts before the previous chunk's "
        "'2021-01-07'; by=day needs rows in time order\n")
    assert (out / "error-ipca-underflow.stderr").read_text().startswith(
        "error: chunk 0 (rows 1-200): sample covariance of the 200 x 4 input underflows float64")
    fine = (out / "error-estimate-alpha-fine-grid.stderr").read_text()
    assert fine.startswith("error: grid spec '0.0001:0.9999:1e-15' asks for 1e+15 decays")
    # causal: the header and rows 1-100 do not depend on the reversed tail
    numeric, tail = ((out / f"{case}.csv").read_bytes().splitlines() for case in
                     ("ewmpca-numeric", "ewmpca-tail"))
    assert numeric[:101] == tail[:101] and numeric[101] != tail[101]
    # the regime switch: rotated chunks, exact eigenvalues, no sign flip
    assert "8 chunk(s), 0 sign discontinuities" in (out / "ipca-regime9.stderr").read_text()
    sidecar = json.loads((out / "ipca-regime9.json").read_text())
    assert sidecar["diagnostics"]["fallback_chunks"] == [3, 4]
    removed = {"--reseed", "--warmup", "--max-iter", "--tol"}
    assert all(removed.isdisjoint(argv) for _, argv in snapshot.COMMANDS)
    assert_micro_cases_scale_exactly(out)


def assert_micro_cases_scale_exactly(out):
    """The *-micro and *-tiny cases run on gauss.csv times c = 2^-20 and
    c = 2^-300: series c times, eigenvalues and cross-covariances c^2 times
    their twins', the same cross-correlations and iterations."""
    for size, c in (("micro", 2.0**-20), ("tiny", 2.0**-300)):
        ipca, ewmpca, compare = (f"{cmd}-{size}" for cmd in ("ipca", "ewmpca", "compare"))
        for case, twin in ((ipca, "ipca-chunk200"), (ewmpca, "ewmpca-numeric")):
            assert np.array_equal(read_table(out / f"{case}.csv").data,
                                  c * read_table(out / f"{twin}.csv").data)
        runs = {case: json.loads((out / f"{case}.json").read_text())
                for case in (ipca, "ipca-chunk200", ewmpca, "ewmpca-numeric")}
        runs.update({case: json.loads((out / f"{case}_run.json").read_text())
                     for case in (compare, "compare-numeric")})
        for case, twin in ((ipca, "ipca-chunk200"), (ewmpca, "ewmpca-numeric"),
                           (compare, "compare-numeric")):
            assert np.array_equal(np.array(runs[case]["eigenvalues"]),
                                  c * c * np.array(runs[twin]["eigenvalues"]))
            assert runs[case]["iterations"] == runs[twin]["iterations"]
        assert (runs[ipca]["diagnostics"]["fallback_chunks"]
                == runs["ipca-chunk200"]["diagnostics"]["fallback_chunks"])
        assert np.array_equal(labeled_matrix(out / f"{compare}_crosscovariance.csv"),
                              c * c * labeled_matrix(out / "compare-numeric_crosscovariance.csv"))
        assert ((out / f"{compare}_crosscorrelation.csv").read_bytes()
                == (out / "compare-numeric_crosscorrelation.csv").read_bytes())


def labeled_matrix(path):
    """The numbers of a matrix CSV written with a header and a label column."""
    lines = path.read_text().splitlines()[1:]
    return np.array([[float(cell) for cell in line.split(",")[1:]] for line in lines])


def test_kernel_timing_replays_from_the_benchmark_model():
    timing = load_script("kernel_timing")
    covs, start = timing.ewm_replay()
    w = timing.workloads
    online = w.EwmOnline(0, None)
    # the model as seeded and warmed up from scratch, outside the benchmark
    head = online.x[: w.EWM_WARMUP_ROWS]
    rebuilt = EwmPCA(w.EWM_ALPHA, initial_basis=seed_initial_basis(head))
    rebuilt.add_all(head)
    for model in (online.starts[0], rebuilt):
        assert np.array_equal(start, model.basis)
        assert model.observation_count == w.EWM_WARMUP_ROWS
    assert np.array_equal(online.starts[0].state.mean, rebuilt.state.mean)
    assert np.array_equal(online.starts[0].state.cov, rebuilt.state.cov)
    assert len(covs) == w.EWM_ROWS
    assert np.array_equal(covs[0], ewm_update(rebuilt.state, online.x[w.EWM_WARMUP_ROWS]).cov)


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


def test_loglik_timing_scores_both_grids_bit_identically(kernel_timing_result):
    table = kernel_timing_result["loglik"]
    assert [(row["input"], row["rows"], row["p"], row["decays"]) for row in table] == [
        ("alpha-grid", 200, 9, 19), ("gaussian 300x9", 300, 9, 500)
    ]
    assert all(row["bit_identical"] is True for row in table)
    assert_quartiles(table, ["this_ms", "baseline_ms"])


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
