"""The CLI contract: parse results and sidecar key orders.

The parse cases are the command lines of ``test_cli.py``.  The expected
namespaces and key orders are written out by hand, so that a change to a
flag's name, default or type, or to the layout of a sidecar, fails here.
"""

import json

import pytest

from streampca import cli
from streampca.cli import build_parser, main

PARSE_CASES = [
    (
        ["synth", "--kind", "stationary-gaussian", "--rows", "1001", "--cols", "4",
         "--seed", "1", "--output", "d.csv"],
        {"command": "synth", "kind": "stationary-gaussian", "rows": 1001, "cols": 4,
         "seed": 1, "switch_points": None, "regime_seeds": None, "persistence": 0.97,
         "output": "d.csv"},
    ),
    (
        ["synth", "--kind", "stationary-gaussian", "--rows", "50", "--cols", "3",
         "--seed", "9", "--output", "a.csv"],
        {"command": "synth", "kind": "stationary-gaussian", "rows": 50, "cols": 3,
         "seed": 9, "switch_points": None, "regime_seeds": None, "persistence": 0.97,
         "output": "a.csv"},
    ),
    (
        ["synth", "--kind", "regime-switch", "--rows", "50", "--cols", "2",
         "--output", "r.csv"],
        {"command": "synth", "kind": "regime-switch", "rows": 50, "cols": 2,
         "seed": 0, "switch_points": None, "regime_seeds": None, "persistence": 0.97,
         "output": "r.csv"},
    ),
    (
        ["synth", "--kind", "stationary-gaussian", "--rows", "10", "--cols", "2",
         "--seed", "1", "--output", "s.csv"],
        {"command": "synth", "kind": "stationary-gaussian", "rows": 10, "cols": 2,
         "seed": 1, "switch_points": None, "regime_seeds": None, "persistence": 0.97,
         "output": "s.csv"},
    ),
    (
        ["ipca", "d.csv", "--chunk-spec", "chunk=250", "--output", "z.csv"],
        {"command": "ipca", "input": "d.csv", "chunk_spec": "chunk=250", "output": "z.csv"},
    ),
    (
        ["ipca", "in.csv", "--chunk-spec", "by=year", "--output", "z.csv"],
        {"command": "ipca", "input": "in.csv", "chunk_spec": "by=year", "output": "z.csv"},
    ),
    (
        ["ipca", "regime.csv", "--chunk-spec", "chunk=401", "--output", "z.csv"],
        {"command": "ipca", "input": "regime.csv", "chunk_spec": "chunk=401", "output": "z.csv"},
    ),
    (
        ["ewmpca", "in.csv", "--alpha", "0.9305", "--output", "z.csv"],
        {"command": "ewmpca", "input": "in.csv", "alpha": "0.9305",
         "grid": None, "burn_in": None, "output": "z.csv"},
    ),
    (
        ["ewmpca", "in.csv", "--alpha", "ml", "--grid", "0.9:0.98:0.04", "--output", "z.csv"],
        {"command": "ewmpca", "input": "in.csv", "alpha": "ml",
         "grid": "0.9:0.98:0.04", "burn_in": None, "output": "z.csv"},
    ),
    (
        ["ewmpca", "in.csv", "--alpha", "maximum", "--output", "z.csv"],
        {"command": "ewmpca", "input": "in.csv", "alpha": "maximum",
         "grid": None, "burn_in": None, "output": "z.csv"},
    ),
    (
        ["estimate-alpha", "in.csv", "--grid", "0.85:0.97:0.02", "--burn-in", "21",
         "--output", "curve.csv"],
        {"command": "estimate-alpha", "input": "in.csv", "grid": "0.85:0.97:0.02",
         "burn_in": 21, "output": "curve.csv"},
    ),
    (
        ["estimate-alpha", "in.csv", "--grid", "0.9:0.9:1.0", "--burn-in", "5",
         "--output", "c.csv"],
        {"command": "estimate-alpha", "input": "in.csv", "grid": "0.9:0.9:1.0",
         "burn_in": 5, "output": "c.csv"},
    ),
    (
        ["compare", "in.csv", "--alpha", "0.97", "--output-prefix", "cmp_"],
        {"command": "compare", "input": "in.csv", "alpha": "0.97",
         "grid": None, "burn_in": None, "output_prefix": "cmp_"},
    ),
]


@pytest.mark.parametrize(
    "argv, expected",
    PARSE_CASES,
    ids=[f"{i}-{argv[0]}" for i, (argv, _) in enumerate(PARSE_CASES)],
)
def test_parse_result_is_unchanged(argv, expected):
    parsed = vars(build_parser().parse_args(argv))
    # main runs the command function that the parsed command names
    assert callable(getattr(cli, "cmd_" + parsed["command"].replace("-", "_")))
    assert parsed == expected
    assert all(type(parsed[k]) is type(v) for k, v in expected.items())


@pytest.mark.parametrize(
    "argv",
    [
        ["ewmpca", "in.csv", "--output", "z.csv"],
        ["compare", "in.csv", "--output-prefix", "cmp_"],
        ["ipca", "in.csv", "--output", "z.csv"],
    ],
)
def test_missing_required_flag_exits_2(argv):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(argv)
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["ipca", "in.csv", "--chunk-spec", "chunk=100", "--output", "z.csv", "--reseed"],
        ["ewmpca", "in.csv", "--alpha", "0.97", "--output", "z.csv", "--warmup", "30"],
        ["compare", "in.csv", "--alpha", "0.97", "--output-prefix", "cmp_", "--warmup", "30"],
        ["ipca", "in.csv", "--chunk-spec", "chunk=100", "--output", "z.csv", "--max-iter", "30"],
        ["ewmpca", "in.csv", "--alpha", "0.97", "--output", "z.csv", "--max-iter", "30"],
        ["compare", "in.csv", "--alpha", "0.97", "--output-prefix", "cmp_", "--max-iter", "30"],
        ["ipca", "in.csv", "--chunk-spec", "chunk=100", "--output", "z.csv", "--tol", "1e-8"],
        ["ewmpca", "in.csv", "--alpha", "0.97", "--output", "z.csv", "--tol", "1e-8"],
        ["compare", "in.csv", "--alpha", "0.97", "--output-prefix", "cmp_", "--tol", "1e-8"],
    ],
    ids=["ipca-reseed", "ewmpca-warmup", "compare-warmup",
         "ipca-max-iter", "ewmpca-max-iter", "compare-max-iter",
         "ipca-tol", "ewmpca-tol", "compare-tol"],
)
def test_removed_flag_exits_2(argv):
    # the refinement recovers by itself and certifies every stop, made by
    # its fixed tolerance and step cap: no reseed, cap or tolerance to ask for
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(argv)
    assert excinfo.value.code == 2


TOP_KEYS = ["command", "params", "alpha", "eigenvalues", "iterations", "diagnostics"]
EWM_PARAMS = ["input", "alpha", "grid", "burn_in"]
ML_KEYS = ["argmax", "grid", "loglik", "burn_in"]


@pytest.fixture
def table(tmp_path):
    path = tmp_path / "in.csv"
    assert main(["synth", "--kind", "stationary-gaussian", "--rows", "300", "--cols", "3",
                 "--seed", "1", "--output", str(path)]) == 0
    return str(path)


def read_sidecar(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "kind, extra, params",
    [
        ("stationary-gaussian", [], ["kind", "rows", "cols", "seed"]),
        ("regime-switch", ["--switch-points", "20"],
         ["kind", "rows", "cols", "seed", "switch_points", "regime_seeds"]),
        ("volatility-cluster", [], ["kind", "rows", "cols", "seed", "persistence"]),
    ],
)
def test_synth_sidecar_keys(tmp_path, kind, extra, params):
    out = tmp_path / "s.csv"
    assert main(["synth", "--kind", kind, "--rows", "40", "--cols", "2", *extra,
                 "--output", str(out)]) == 0
    sidecar = read_sidecar(tmp_path / "s.json")
    assert list(sidecar) == TOP_KEYS
    assert list(sidecar["params"]) == params
    assert sidecar["command"] == "synth"


def test_ipca_sidecar_keys(tmp_path, table):
    out = tmp_path / "z.csv"
    assert main(["ipca", table, "--chunk-spec", "chunk=100", "--output", str(out)]) == 0
    sidecar = read_sidecar(tmp_path / "z.json")
    assert list(sidecar) == TOP_KEYS
    assert sidecar["params"] == {"input": table, "chunk_spec": "chunk=100"}
    assert list(sidecar["params"]) == ["input", "chunk_spec"]
    assert list(sidecar["diagnostics"]) == ["chunk_bounds", "sign_continuity", "fallback_chunks"]


def test_ewmpca_sidecar_keys(tmp_path, table):
    out = tmp_path / "z.csv"
    assert main(["ewmpca", table, "--alpha", "ml", "--grid", "0.9:0.98:0.04",
                 "--output", str(out)]) == 0
    sidecar = read_sidecar(tmp_path / "z.json")
    assert list(sidecar) == TOP_KEYS
    assert list(sidecar["params"]) == EWM_PARAMS
    assert sidecar["params"]["alpha"] == "ml"
    assert sidecar["params"]["grid"] == "0.9:0.98:0.04"
    assert sidecar["params"]["burn_in"] is None
    assert list(sidecar["iterations"]) == ["observations", "refinements", "min", "max", "mean"]
    assert list(sidecar["diagnostics"]) == ["ml"]
    assert list(sidecar["diagnostics"]["ml"]) == ML_KEYS
    # --burn-in left out: the fit used 10 x p of the 300 x 3 table
    assert sidecar["diagnostics"]["ml"]["burn_in"] == 30


def test_estimate_alpha_sidecar_keys(tmp_path, table):
    out = tmp_path / "c.csv"
    assert main(["estimate-alpha", table, "--grid", "0.9:0.98:0.04", "--output", str(out)]) == 0
    sidecar = read_sidecar(tmp_path / "c.json")
    assert list(sidecar) == TOP_KEYS
    assert list(sidecar["params"]) == ["input", "grid", "burn_in"]
    assert sidecar["diagnostics"] == {"grid_size": 3, "burn_in": 30}
    assert list(sidecar["diagnostics"]) == ["grid_size", "burn_in"]


def test_estimate_alpha_sidecar_records_a_given_burn_in(tmp_path, table):
    out = tmp_path / "c.csv"
    assert main(["estimate-alpha", table, "--grid", "0.9:0.98:0.04", "--burn-in", "50",
                 "--output", str(out)]) == 0
    sidecar = read_sidecar(tmp_path / "c.json")
    assert sidecar["params"]["burn_in"] == 50
    assert sidecar["diagnostics"] == {"grid_size": 3, "burn_in": 50}


def test_compare_sidecar_keys(tmp_path, table):
    prefix = str(tmp_path / "cmp_")
    assert main(["compare", table, "--alpha", "0.97", "--output-prefix", prefix]) == 0
    sidecar = read_sidecar(tmp_path / "cmp_run.json")
    assert list(sidecar) == TOP_KEYS
    assert list(sidecar["params"]) == EWM_PARAMS
    assert list(sidecar["iterations"]) == ["refinements", "min", "max", "mean"]
    assert list(sidecar["diagnostics"]) == ["max_abs_offdiag_crosscorr"]


def test_compare_ml_sidecar_keys(tmp_path, table):
    prefix = str(tmp_path / "cmp_")
    assert main(["compare", table, "--alpha", "ml", "--grid", "0.9:0.98:0.04",
                 "--output-prefix", prefix]) == 0
    sidecar = read_sidecar(tmp_path / "cmp_run.json")
    assert list(sidecar) == TOP_KEYS
    assert list(sidecar["diagnostics"]) == ["max_abs_offdiag_crosscorr", "ml"]
    assert list(sidecar["diagnostics"]["ml"]) == ML_KEYS
    assert sidecar["diagnostics"]["ml"]["burn_in"] == 30
    assert sidecar["diagnostics"]["ml"]["argmax"] == sidecar["alpha"]
