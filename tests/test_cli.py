import json

import numpy as np
import pytest

from streampca.cli import chunk_bounds, main, parse_chunk_spec, parse_grid_spec
from streampca.ipca import IteratedPCA
from streampca.linalg import cross_correlation, cross_covariance
from streampca.refine import DivergenceError
from streampca.synth import regime_switch, stationary_gaussian
from streampca.tableio import ObservationTable, read_table, write_table


def write_data(tmp_path, data, name="in.csv", timestamps=None):
    path = tmp_path / name
    cols = [f"x{j + 1}" for j in range(data.shape[1])]
    write_table(path, ObservationTable(cols, data, timestamps=timestamps))
    return path


# ---------------------------------------------------------------------------
# parsers


def test_parse_chunk_spec():
    assert parse_chunk_spec("chunk=2000") == ("chunk", 2000)
    assert parse_chunk_spec("by=year") == ("by", "year")
    with pytest.raises(ValueError, match="unrecognized"):
        parse_chunk_spec("every=2")
    with pytest.raises(ValueError, match=">= 1"):
        parse_chunk_spec("chunk=0")
    with pytest.raises(ValueError, match="unknown chunking unit"):
        parse_chunk_spec("by=week")


def test_parse_grid_spec():
    grid = parse_grid_spec("0.8:0.9:0.05")
    assert grid == pytest.approx([0.8, 0.85, 0.9])
    with pytest.raises(ValueError, match="start:stop:step"):
        parse_grid_spec("0.8,0.9")
    with pytest.raises(ValueError, match="positive"):
        parse_grid_spec("0.8:0.9:-0.1")


def test_chunk_bounds_by_year(tmp_path):
    ts = [f"2020-01-{d + 1:02d} 10:00:00" for d in range(3)] + [
        f"2021-01-{d + 1:02d} 10:00:00" for d in range(4)
    ]
    table = ObservationTable(["a"], np.arange(7.0)[:, None], timestamps=ts)
    assert chunk_bounds(table, "by=year") == [(0, 3), (3, 7)]
    assert chunk_bounds(table, "by=day") == [(i, i + 1) for i in range(7)]
    assert chunk_bounds(table, "chunk=3") == [(0, 3), (3, 6), (6, 7)]


def test_ipca_folds_single_row_final_chunk(tmp_path):
    data = tmp_path / "d.csv"
    out = tmp_path / "z.csv"
    assert main(["synth", "--kind", "stationary-gaussian", "--rows", "1001",
                 "--cols", "4", "--seed", "1", "--output", str(data)]) == 0
    assert main(["ipca", str(data), "--chunk-spec", "chunk=250",
                 "--output", str(out)]) == 0
    sidecar = json.loads((tmp_path / "z.json").read_text())
    bounds = sidecar["diagnostics"]["chunk_bounds"]
    assert bounds == [[0, 250], [250, 500], [500, 750], [750, 1001]]
    assert read_table(out).n_rows == 1001


def test_chunk_bounds_by_year_needs_timestamps():
    table = ObservationTable(["a"], np.zeros((4, 1)))
    with pytest.raises(ValueError, match="timestamp column"):
        chunk_bounds(table, "by=year")


def test_chunk_bounds_rejects_bad_timestamp():
    table = ObservationTable(["a"], np.zeros((1, 1)), timestamps=["not-a-date"])
    with pytest.raises(ValueError, match="line 2.*ISO-8601"):
        chunk_bounds(table, "by=year")


# ---------------------------------------------------------------------------
# cross statistics


def test_cross_correlation_of_pca_with_itself_is_identity():
    x = stationary_gaussian(400, 4, seed=2)
    z = IteratedPCA().fit_transform(x)
    corr = cross_correlation(z, z)
    assert np.max(np.abs(corr - np.eye(4))) <= 1e-10


def test_cross_covariance_matches_manual():
    rng = np.random.default_rng(3)
    z1 = rng.standard_normal((50, 2))
    z2 = rng.standard_normal((50, 2))
    cov = cross_covariance(z1, z2)
    manual = np.cov(np.hstack([z1, z2]).T)[:2, 2:]
    assert np.max(np.abs(cov - manual)) <= 1e-12


# ---------------------------------------------------------------------------
# synth command


def test_synth_same_seed_identical_bytes(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["synth", "--kind", "stationary-gaussian", "--rows", "50", "--cols", "3", "--seed", "9"]
    assert main([*argv, "--output", str(out1)]) == 0
    assert main([*argv, "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    table = read_table(out1)
    assert table.data.shape == (50, 3)


def test_synth_regime_switch_needs_switch_points(tmp_path, capsys):
    rc = main(
        ["synth", "--kind", "regime-switch", "--rows", "50", "--cols", "2",
         "--output", str(tmp_path / "r.csv")]
    )
    assert rc == 1
    assert "switch-points" in capsys.readouterr().err


def test_synth_unknown_kind_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["synth", "--kind", "bogus", "--rows", "5", "--cols", "2",
              "--output", str(tmp_path / "x.csv")])


# ---------------------------------------------------------------------------
# ipca command


def test_ipca_single_chunk_matches_whole_sample_pca(tmp_path):
    data = stationary_gaussian(200, 3, seed=4)
    inp = write_data(tmp_path, data)
    out = tmp_path / "z.csv"
    assert main(["ipca", str(inp), "--chunk-spec", "chunk=100000",
                 "--output", str(out)]) == 0
    got = read_table(out)
    assert got.column_names == ["PC1", "PC2", "PC3"]
    expected = IteratedPCA().fit_transform(data)
    assert np.max(np.abs(got.data - expected)) <= 1e-8


def test_ipca_identical_chunks_same_eigenvalues(tmp_path):
    chunk = stationary_gaussian(150, 3, seed=5)
    inp = write_data(tmp_path, np.vstack([chunk, chunk]))
    out = tmp_path / "z.csv"
    assert main(["ipca", str(inp), "--chunk-spec", "chunk=150",
                 "--output", str(out)]) == 0
    sidecar = json.loads((tmp_path / "z.json").read_text())
    ev = sidecar["eigenvalues"]
    assert len(ev) == 2
    assert np.max(np.abs(np.array(ev[0]) - np.array(ev[1]))) <= 1e-10


def test_ipca_stationary_chunks_sign_continuous(tmp_path):
    inp = write_data(tmp_path, stationary_gaussian(2500, 4, seed=6))
    out = tmp_path / "z.csv"
    assert main(["ipca", str(inp), "--chunk-spec", "chunk=500",
                 "--output", str(out)]) == 0
    sidecar = json.loads((tmp_path / "z.json").read_text())
    continuity = np.array(sidecar["diagnostics"]["sign_continuity"])
    assert continuity.shape == (4, 4)
    assert np.all(continuity > 0.0)
    assert sidecar["iterations"][0] is None
    assert all(isinstance(i, int) for i in sidecar["iterations"][1:])


def test_ipca_by_year_chunks_and_keeps_timestamps(tmp_path):
    rng = np.random.default_rng(7)
    ts = [f"2019-0{1 + d // 10}-{1 + d % 10:02d} 09:00:00" for d in range(30)] + [
        f"2020-0{1 + d // 10}-{1 + d % 10:02d} 09:00:00" for d in range(30)
    ]
    inp = write_data(tmp_path, rng.standard_normal((60, 2)), timestamps=ts)
    out = tmp_path / "z.csv"
    assert main(["ipca", str(inp), "--chunk-spec", "by=year", "--output", str(out)]) == 0
    sidecar = json.loads((tmp_path / "z.json").read_text())
    assert sidecar["diagnostics"]["chunk_bounds"] == [[0, 30], [30, 60]]
    assert read_table(out).timestamps == ts


def test_ipca_by_year_without_timestamps_fails(tmp_path, capsys):
    inp = write_data(tmp_path, stationary_gaussian(40, 2, seed=8))
    rc = main(["ipca", str(inp), "--chunk-spec", "by=year",
               "--output", str(tmp_path / "z.csv")])
    assert rc == 1
    assert "timestamp" in capsys.readouterr().err


def test_ipca_unparseable_row_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1.0,2.0\nx,3.0\n")
    rc = main(["ipca", str(bad), "--chunk-spec", "chunk=10",
               "--output", str(tmp_path / "z.csv")])
    assert rc == 1
    assert "line 3" in capsys.readouterr().err


def test_ipca_divergence_names_chunk_and_reseed_recovers(tmp_path, capsys, monkeypatch):
    inp = write_data(tmp_path, stationary_gaussian(300, 3, seed=9))
    out = tmp_path / "z.csv"

    def always_diverge(*args, **kwargs):
        raise DivergenceError("synthetic divergence")

    monkeypatch.setattr("streampca.ipca.refine_to_convergence", always_diverge)
    rc = main(["ipca", str(inp), "--chunk-spec", "chunk=100", "--output", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "chunk 1" in err and "synthetic divergence" in err
    # one hint, in the CLI's own terms
    assert err.count("--reseed") == 1
    assert "reseed=True" not in err
    rc = main(["ipca", str(inp), "--chunk-spec", "chunk=100", "--output", str(out),
               "--reseed"])
    assert rc == 0
    sidecar = json.loads((tmp_path / "z.json").read_text())
    assert sidecar["diagnostics"]["reseeded_chunks"] == [1, 2]


@pytest.mark.parametrize("flags", [["--tol", "-1"], ["--max-iter", "0"]], ids=["tol", "max-iter"])
def test_ipca_bad_refinement_controls_fail_before_any_fit(tmp_path, capsys, flags):
    # one chunk: no warm fit would ever reach the refinement's own check
    inp = write_data(tmp_path, stationary_gaussian(300, 3, seed=9))
    out = tmp_path / "z.csv"
    rc = main(["ipca", str(inp), "--chunk-spec", "chunk=300", "--output", str(out), *flags])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists() and not (tmp_path / "z.json").exists()


def test_ipca_overflowing_covariance_fails_and_writes_nothing(tmp_path, capsys):
    # values ~1e78: finite covariance entries ~1e156 whose Frobenius norm
    # overflows; the first fit used to exit 0 with the diagonal as eigenvalues
    data = 1e78 * np.random.default_rng(21).standard_normal((300, 3))
    inp = write_data(tmp_path, data)
    out = tmp_path / "z.csv"
    rc = main(["ipca", str(inp), "--chunk-spec", "chunk=300", "--output", str(out)])
    assert rc == 1
    assert "error: Jacobi eigensolver: the Frobenius norm" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "z.json").exists()


def test_ipca_reruns_are_byte_identical(tmp_path):
    inp = write_data(tmp_path, stationary_gaussian(300, 3, seed=10))
    out1, out2 = tmp_path / "z1.csv", tmp_path / "z2.csv"
    for out in (out1, out2):
        assert main(["ipca", str(inp), "--chunk-spec", "chunk=100",
                     "--output", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    j1 = json.loads((tmp_path / "z1.json").read_text())
    j2 = json.loads((tmp_path / "z2.json").read_text())
    j1["params"]["input"] = j2["params"]["input"] = ""
    assert j1 == j2


# ---------------------------------------------------------------------------
# ewmpca command


def test_ewmpca_typical_alpha_and_zero_first_row(tmp_path):
    inp = write_data(tmp_path, stationary_gaussian(300, 3, seed=11))
    out = tmp_path / "z.csv"
    assert main(["ewmpca", str(inp), "--alpha", "0.9305", "--output", str(out)]) == 0
    got = read_table(out)
    assert got.column_names == ["PC1", "PC2", "PC3"]
    assert np.array_equal(got.data[0], np.zeros(3))
    assert np.any(got.data[1] != 0.0)
    sidecar = json.loads((tmp_path / "z.json").read_text())
    assert sidecar["alpha"] == 0.9305
    assert len(sidecar["eigenvalues"]) == 3
    assert sidecar["iterations"]["observations"] == 300
    assert sidecar["diagnostics"]["ml"] is None


def test_ewmpca_ml_alpha_records_grid_and_argmax(tmp_path):
    inp = write_data(tmp_path, stationary_gaussian(400, 2, seed=12))
    out = tmp_path / "z.csv"
    assert main(["ewmpca", str(inp), "--alpha", "ml", "--grid", "0.9:0.98:0.04",
                 "--output", str(out)]) == 0
    sidecar = json.loads((tmp_path / "z.json").read_text())
    ml = sidecar["diagnostics"]["ml"]
    assert ml["argmax"] == sidecar["alpha"]
    assert len(ml["grid"]) == len(ml["loglik"]) == 3
    assert sidecar["alpha"] in ml["grid"]


def test_ewmpca_bad_alpha_is_an_error(tmp_path, capsys):
    inp = write_data(tmp_path, stationary_gaussian(50, 2, seed=13))
    rc = main(["ewmpca", str(inp), "--alpha", "maximum",
               "--output", str(tmp_path / "z.csv")])
    assert rc == 1
    assert "--alpha" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--tol", "-1"], ["--max-iter", "0"]], ids=["tol", "max-iter"])
@pytest.mark.parametrize("command", ["ewmpca", "compare"])
def test_ewm_bad_refinement_controls_fail_before_the_ml_fit(
    tmp_path, capsys, monkeypatch, command, flags
):
    def no_fit(*args, **kwargs):
        raise AssertionError("the ML fit ran before the controls were checked")

    monkeypatch.setattr("streampca.cli.estimate_alpha", no_fit)
    inp = write_data(tmp_path, stationary_gaussian(300, 3, seed=9))
    target = ["--output", str(tmp_path / "z.csv")] if command == "ewmpca" else [
        "--output-prefix", str(tmp_path / "c_")]
    rc = main([command, str(inp), "--alpha", "ml", *target, *flags])
    assert rc == 1
    expected = "tol must be positive, got -1.0" if flags[0] == "--tol" else (
        "max_iter_count must be >= 1, got 0")
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert list(tmp_path.iterdir()) == [inp]


@pytest.mark.parametrize("command", ["ewmpca", "estimate-alpha"])
def test_default_burn_in_that_scores_no_row_fails(tmp_path, capsys, command):
    # 80 x 9: the default burn-in 10 p = 90 drops every term; estimate-alpha
    # used to print 0.5 (the argmax of a curve of -0) and ewmpca ran with it
    inp = write_data(tmp_path, stationary_gaussian(80, 9, seed=3))
    out = tmp_path / "z.csv"
    alpha = ["--alpha", "ml"] if command == "ewmpca" else []
    rc = main([command, str(inp), *alpha, "--output", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "burn_in = 90 leaves no observation to score" in captured.err
    assert "n = 80" in captured.err
    assert not out.exists()


# ---------------------------------------------------------------------------
# estimate-alpha command


def test_estimate_alpha_prints_value_and_writes_curve(tmp_path, capsys):
    from streampca.synth import volatility_cluster

    inp = write_data(tmp_path, volatility_cluster(600, 2, persistence=0.97, seed=14))
    out = tmp_path / "curve.csv"
    rc = main(["estimate-alpha", str(inp), "--grid", "0.85:0.97:0.02",
               "--burn-in", "21", "--output", str(out)])
    assert rc == 0
    printed = float(capsys.readouterr().out.strip())
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,loglik"
    grid = np.array([float(l.split(",")[0]) for l in lines[1:]])
    curve = np.array([float(l.split(",")[1]) for l in lines[1:]])
    assert printed == grid[int(np.argmax(curve))]
    sidecar = json.loads((tmp_path / "curve.json").read_text())
    assert sidecar["alpha"] == printed
    # curve CSV is itself a valid observation table (lossless round trip)
    back = read_table(out)
    assert back.column_names == ["alpha", "loglik"]
    assert np.array_equal(back.data[:, 0], grid)


def test_estimate_alpha_curve_bytes(tmp_path, monkeypatch):
    # A stub curve pins the file format alone: CRLF line ends and %.17g.
    def fixed_curve(data, grid, burn_in):
        return grid[1], np.array([-1234.5, 1.0 / 3.0, -0.0])

    monkeypatch.setattr("streampca.cli.estimate_alpha", fixed_curve)
    inp = write_data(tmp_path, stationary_gaussian(50, 2, seed=1))
    out = tmp_path / "curve.csv"
    assert main(["estimate-alpha", str(inp), "--grid", "0.5:0.7:0.1",
                 "--output", str(out)]) == 0
    assert out.read_bytes() == (
        b"alpha,loglik\r\n"
        b"0.5,-1234.5\r\n"
        b"0.59999999999999998,0.33333333333333331\r\n"
        b"0.69999999999999996,-0\r\n"
    )


def test_estimate_alpha_singular_names_observation(tmp_path, capsys):
    t = np.arange(40, dtype=float) + 1.0
    inp = write_data(tmp_path, np.column_stack([t, 2.0 * t]))
    rc = main(["estimate-alpha", str(inp), "--grid", "0.9:0.9:1.0",
               "--burn-in", "5", "--output", str(tmp_path / "c.csv")])
    assert rc == 1
    assert "t=6" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# compare command


def test_compare_writes_labeled_matrices(tmp_path):
    # pure rotation switch: the moving basis genuinely departs from the
    # whole-sample one (max offdiag crosscorr ~0.9 for this seed)
    data = regime_switch(800, 3, [400], seed=17, scale_step=1.0)
    inp = write_data(tmp_path, data)
    prefix = str(tmp_path / "cmp_")
    assert main(["compare", str(inp), "--alpha", "0.97",
                 "--output-prefix", prefix]) == 0
    lines = (tmp_path / "cmp_crosscorrelation.csv").read_text().splitlines()
    assert lines[0] == "component,EWMPC1,EWMPC2,EWMPC3"
    assert lines[1].startswith("PC1,")
    corr = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
    assert corr.shape == (3, 3)
    # nonstationary data: moving components genuinely differ from classical
    off = np.abs(corr[~np.eye(3, dtype=bool)])
    assert off.max() > 0.05
    sidecar = json.loads((tmp_path / "cmp_run.json").read_text())
    assert sidecar["diagnostics"]["max_abs_offdiag_crosscorr"] == pytest.approx(off.max())
    assert (tmp_path / "cmp_crosscovariance.csv").exists()


@pytest.mark.parametrize(
    "command", ["synth", "ipca", "ewmpca", "estimate-alpha", "compare"]
)
def test_every_command_has_help(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    assert "--" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# console entry point


def test_console_script_runs(tmp_path):
    import subprocess
    import sys

    out = tmp_path / "s.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "streampca", "synth", "--kind", "stationary-gaussian",
         "--rows", "10", "--cols", "2", "--seed", "1", "--output", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.exists()
    assert proc.stdout == ""  # data to files, diagnostics to stderr
    assert "synth" in proc.stderr


def test_import_loads_no_scipy():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, streampca; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
