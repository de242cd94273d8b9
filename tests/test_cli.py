import json
import warnings

import numpy as np
import pytest

from streampca.cli import chunk_bounds, main, parse_chunk_spec, parse_grid_spec
from streampca.ewmpca import EwmPCA, seed_initial_basis
from streampca.ipca import IteratedPCA
from streampca.linalg import cross_statistics
from streampca.refine import RecoveryError, refine_to_convergence
from streampca.synth import regime_switch, stationary_gaussian, volatility_cluster
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
    # an infinite step used to give the grid [nan], a NaN or infinite start or
    # stop "cannot convert float NaN to integer"
    for spec in ("0.5:0.9:inf", "nan:0.9:0.1", "0.5:inf:0.1"):
        with pytest.raises(ValueError, match=f"^grid spec '{spec}' has a non-finite start"):
            parse_grid_spec(spec)


def test_parse_grid_spec_refuses_too_many_points_before_allocating(monkeypatch):
    # a step of 1e-15 used to die allocating 7.10 PiB in np.arange
    def no_arange(*args, **kwargs):
        raise AssertionError("np.arange called")

    monkeypatch.setattr(np, "arange", no_arange)
    with pytest.raises(ValueError, match=r"^grid spec '0.0001:0.9999:1e-15' asks for 1e\+15 "
                       r"decays; at most 100000 are scored"):
        parse_grid_spec("0.0001:0.9999:1e-15")


def test_chunk_bounds_by_year(tmp_path):
    ts = [f"2020-01-{d + 1:02d} 10:00:00" for d in range(3)] + [
        f"2021-01-{d + 1:02d} 10:00:00" for d in range(4)
    ]
    table = ObservationTable(["a"], np.arange(7.0)[:, None], timestamps=ts)
    assert chunk_bounds(table, "by=year") == [(0, 3), (3, 7)]
    assert chunk_bounds(table, "by=day") == [(i, i + 1) for i in range(7)]
    # the 1-row remainder joins the chunk before it
    assert chunk_bounds(table, "chunk=3") == [(0, 3), (3, 7)]


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


def test_chunk_bounds_names_the_first_line_of_a_repeated_bad_date():
    ts = ["2021-01-04T09:30:00", "2021-01-04T09:31:00", "2021-01-05T09:30:00",
          "2021-02-30T09:30:00", "2021-02-30T09:31:00", "2021-01-06T09:30:00",
          "2021-02-30T09:32:00"]
    table = ObservationTable(["a"], np.zeros((7, 1)), timestamps=ts)
    with pytest.raises(ValueError) as excinfo:
        chunk_bounds(table, "by=day")
    assert str(excinfo.value) == (
        "line 5: timestamp '2021-02-30T09:30:00' is not ISO-8601 (YYYY-MM-DD...)"
    )


def test_bad_timestamp_names_its_line_after_blank_lines(tmp_path, capsys):
    # the row reader skips the blank lines 3 and 4: row index + 2 is line 3
    path = tmp_path / "blank.csv"
    path.write_text("timestamp,a\n2021-01-04,1\n\n\n2021-02-30,2\n")
    rc = main(["ipca", str(path), "--chunk-spec", "by=day", "--output", str(tmp_path / "z.csv")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: line 5: timestamp '2021-02-30' is not ISO-8601 (YYYY-MM-DD...)\n"
    )


# ---------------------------------------------------------------------------
# cross statistics


def test_cross_correlation_of_pca_with_itself_is_identity():
    x = stationary_gaussian(400, 4, seed=2)
    z = IteratedPCA().fit_transform(x)
    _, corr = cross_statistics(z, z)
    assert np.max(np.abs(corr - np.eye(4))) <= 1e-10


def test_cross_covariance_matches_manual():
    rng = np.random.default_rng(3)
    z1 = rng.standard_normal((50, 2))
    z2 = rng.standard_normal((50, 2))
    cov, _ = cross_statistics(z1, z2)
    manual = np.cov(np.hstack([z1, z2]).T)[:2, 2:]
    assert np.max(np.abs(cov - manual)) <= 1e-12


def separate_cross_statistics(z1, z2):
    """Covariance and correlation as two functions formed them, each product
    of two separately centred copies."""

    def covariance(a, b):
        return (a - a.mean(axis=0)).T @ (b - b.mean(axis=0)) / (a.shape[0] - 1)

    cov = covariance(z1, z2)
    s1 = np.sqrt(np.diag(covariance(z1, z1)))
    s2 = np.sqrt(np.diag(covariance(z2, z2)))
    return cov, cov / np.outer(s1, s2)


@pytest.mark.parametrize(
    "x, alpha",
    [
        (stationary_gaussian(600, 4, seed=1), 0.97),
        (volatility_cluster(600, 4, seed=3), 0.95),
        (regime_switch(600, 3, [300], seed=11), 0.97),
        (regime_switch(3000, 4, [1000, 2000], seed=11), 0.97),
    ],
    ids=["gaussian", "volatility-cluster", "regime-600", "regime-3000"],
)
def test_cross_statistics_are_bit_identical_to_separate_products(x, alpha):
    # compare's two series; a single c.T @ c would take BLAS's syrk path
    z_classic = IteratedPCA().fit_transform(x)
    z_moving = EwmPCA(alpha).add_all(x)
    cov, corr = cross_statistics(z_classic, z_moving)
    expected_cov, expected_corr = separate_cross_statistics(z_classic, z_moving)
    assert np.array_equal(cov, expected_cov)
    assert np.array_equal(corr, expected_corr)


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


def regime_switch_table(tmp_path, rows, cols, seed, switch):
    regime = tmp_path / "regime.csv"
    assert main(["synth", "--kind", "regime-switch", "--rows", str(rows), "--cols", str(cols),
                 "--switch-points", str(switch), "--seed", str(seed), "--output", str(regime)]) == 0
    return regime


def assert_chunk_eigenvalues_exact(table, sidecar, rtol):
    """Every chunk's eigenvalues against numpy's eigvalsh of its covariance."""
    data = read_table(table).data
    for (lo, hi), values in zip(sidecar["diagnostics"]["chunk_bounds"], sidecar["eigenvalues"]):
        exact = np.linalg.eigvalsh(np.cov(data[lo:hi], rowvar=False))[::-1]
        assert np.max(np.abs(np.array(values) - exact) / np.abs(exact)) <= rtol


def test_ipca_counts_flipped_columns_not_swapped_ones(tmp_path, capsys, monkeypatch):
    # the ipca-chunk100 case of scripts/cli_snapshot.py: at the regime switch
    # chunk 3 is rotated onto its new eigenbasis, whose columns pair with the
    # previous ones by their largest |dot|, not by index
    regime = regime_switch_table(tmp_path, 600, 3, 2, 300)
    out = tmp_path / "z.csv"
    assert main(["ipca", str(regime), "--chunk-spec", "chunk=100", "--output", str(out)]) == 0
    assert "6 chunk(s), 0 sign discontinuities" in capsys.readouterr().err
    sidecar = json.loads((tmp_path / "z.json").read_text())
    assert sidecar["diagnostics"]["fallback_chunks"] == [3]
    assert min(map(min, sidecar["diagnostics"]["sign_continuity"])) < -0.2
    assert_chunk_eigenvalues_exact(regime, sidecar, 1e-12)

    fit = IteratedPCA.fit

    def flip_second_fit(self, x):
        fit(self, x)
        if self.fit_count_ == 2:
            self.components_ = self.components_ * [1.0, -1.0, 1.0, 1.0]
        return self

    monkeypatch.setattr(IteratedPCA, "fit", flip_second_fit)
    inp = write_data(tmp_path, stationary_gaussian(300, 4, seed=6))
    assert main(["ipca", str(inp), "--chunk-spec", "chunk=100", "--output", str(out)]) == 0
    assert "3 chunk(s), 1 sign discontinuities" in capsys.readouterr().err
    continuity = json.loads((tmp_path / "z.json").read_text())["diagnostics"]["sign_continuity"]
    assert continuity[0][1] < -0.9 and continuity[1][1] > 0.9


def test_ipca_across_a_regime_switch_is_exact_and_sign_continuous(tmp_path, capsys):
    # without the certificate, chunks from the switch on stop at a false
    # fixed point with eigenvalues tens of percent off
    regime = regime_switch_table(tmp_path, 3000, 9, 7, 1500)
    out = tmp_path / "z.csv"
    assert main(["ipca", str(regime), "--chunk-spec", "chunk=401", "--output", str(out)]) == 0
    assert "8 chunk(s), 0 sign discontinuities" in capsys.readouterr().err
    sidecar = json.loads((tmp_path / "z.json").read_text())
    assert sidecar["diagnostics"]["fallback_chunks"]
    assert_chunk_eigenvalues_exact(regime, sidecar, 1e-12)


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


def test_ipca_divergence_names_chunk_and_fallback_is_reported(tmp_path, capsys, monkeypatch):
    inp = write_data(tmp_path, stationary_gaussian(300, 3, seed=9))
    out = tmp_path / "z.csv"

    def always_diverge(*args, **kwargs):
        raise RecoveryError("synthetic divergence")

    with monkeypatch.context() as patch:
        patch.setattr("streampca.ipca.refine_to_convergence", always_diverge)
        rc = main(["ipca", str(inp), "--chunk-spec", "chunk=100", "--output", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: chunk 1 (rows 101-200): synthetic divergence\n"

    def from_identity(a, xhat):
        # the identity: a false fixed point of this covariance
        return refine_to_convergence(a, np.eye(len(xhat)))

    monkeypatch.setattr("streampca.ipca.refine_to_convergence", from_identity)
    rc = main(["ipca", str(inp), "--chunk-spec", "chunk=100", "--output", str(out)])
    assert rc == 0
    sidecar = json.loads((tmp_path / "z.json").read_text())
    assert sidecar["diagnostics"]["fallback_chunks"] == [1, 2]
    assert_chunk_eigenvalues_exact(inp, sidecar, 1e-12)


@pytest.mark.parametrize("flags", [["--tol", "-1"]], ids=["tol"])
def test_ipca_bad_refinement_controls_fail_before_any_fit(tmp_path, capsys, flags):
    # the refinement takes no control: the parser refuses the flag
    inp = write_data(tmp_path, stationary_gaussian(300, 3, seed=9))
    out = tmp_path / "z.csv"
    with pytest.raises(SystemExit) as exit_:
        main(["ipca", str(inp), "--chunk-spec", "chunk=300", "--output", str(out), *flags])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [inp]


def test_ipca_overflowing_covariance_fails_and_writes_nothing(tmp_path, capsys):
    # values ~1e78: finite covariance entries ~1e156 whose Frobenius norm
    # overflows; the first fit used to exit 0 with the diagonal as eigenvalues
    data = 1e78 * np.random.default_rng(21).standard_normal((300, 3))
    inp = write_data(tmp_path, data)
    out = tmp_path / "z.csv"
    rc = main(["ipca", str(inp), "--chunk-spec", "chunk=300", "--output", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: chunk 0 (rows 1-300): Jacobi eigensolver: the Frobenius norm" in err
    assert not out.exists() and not (tmp_path / "z.json").exists()


def overflowing_tail():
    # 600 x 3, the last 300 rows scaled by 1e78: the covariance entries stay
    # finite (~1e156), their Frobenius norm does not
    data = stationary_gaussian(600, 3, seed=5)
    data[300:] *= 1e78
    return data


def test_ipca_warm_chunk_overflow_names_the_chunk(tmp_path, capsys):
    inp = write_data(tmp_path, overflowing_tail())
    out = tmp_path / "z.csv"
    rc = main(["ipca", str(inp), "--chunk-spec", "chunk=300", "--output", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(
        "error: chunk 1 (rows 301-600): refinement: the Frobenius norm of the 3 x 3 "
        "input overflows float64"
    )
    assert not out.exists() and not (tmp_path / "z.json").exists()


def test_ewmpca_overflow_names_the_observation(tmp_path, capsys):
    inp = write_data(tmp_path, overflowing_tail())
    out = tmp_path / "z.csv"
    rc = main(["ewmpca", str(inp), "--alpha", "0.97", "--output", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: observation 301: refinement: the Frobenius norm")
    assert not out.exists() and not (tmp_path / "z.json").exists()


OVERFLOWING_MOMENTS = [
    (["ipca", "--chunk-spec", "chunk=20", "--output", "z.csv"],
     "chunk 2 (rows 41-60): sample covariance of the 20 x 2 input"),
    (["ewmpca", "--alpha", "0.9", "--output", "z.csv"], "observation 41: moving covariance"),
    (["compare", "--alpha", "0.9", "--output-prefix", "z_"], "observation 41: moving covariance"),
    (["estimate-alpha", "--grid", "0.9:0.95:0.01", "--burn-in", "5", "--output", "z.csv"],
     "observation 41: moving covariance"),
]


@pytest.mark.parametrize(
    "argv, where", OVERFLOWING_MOMENTS, ids=[argv[0] for argv, _ in OVERFLOWING_MOMENTS]
)
def test_overflowing_moments_are_named(tmp_path, capsys, monkeypatch, argv, where):
    # 1e160 at row 41: every square, and so every moment after it, overflows.
    # ipca and ewmpca used to warn and then name an infinite matrix, and
    # estimate-alpha a singular covariance at t=42.
    data = np.random.default_rng(0).standard_normal((60, 2))
    data[40, 0] = 1e160
    inp = write_data(tmp_path, data)
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([argv[0], str(inp), *argv[1:]])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {where} overflows float64 (largest entry 1.000e+160); rescale the data\n"
    )
    assert sorted(f.name for f in tmp_path.iterdir()) == ["in.csv"]


@pytest.mark.parametrize(
    "command, output", [("ewmpca", ["--output", "z.csv"]), ("compare", ["--output-prefix", "z_"])]
)
def test_seed_overflow_names_the_seed_rows(tmp_path, capsys, monkeypatch, command, output):
    # 600 x 4, the first 300 rows scaled by 1e78: the library's seed names the
    # rows it read when their covariance overflows
    data = stationary_gaussian(600, 4, seed=5)
    data[:300] *= 1e78
    with pytest.raises(OverflowError) as err:
        seed_initial_basis(data[:100])
    assert str(err.value).startswith(
        "seed rows 1-100: Jacobi eigensolver: the Frobenius norm of the 4 x 4 "
        "input overflows float64"
    )
    # the CLI does not seed: its first refinement, at observation 2, overflows
    inp = write_data(tmp_path, data)
    monkeypatch.chdir(tmp_path)
    rc = main([command, str(inp), "--alpha", "0.97", *output])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: observation 2: refinement: the Frobenius norm of the 4 x 4 "
        "input overflows float64"
    )
    assert sorted(f.name for f in tmp_path.iterdir()) == ["in.csv"]


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


def test_ewmpca_rows_depend_on_earlier_rows_only(tmp_path):
    # 400 x 9; the copy redraws rows 61-400, inside the 100 rows a seed reads
    k = 60
    data = stationary_gaussian(400, 9, seed=3)
    edited = data.copy()
    edited[k:] = stationary_gaussian(400 - k, 9, seed=4)
    lines = []
    for name, table in (("a", data), ("b", edited)):
        inp = write_data(tmp_path, table, name=f"{name}.csv")
        out = tmp_path / f"z_{name}.csv"
        assert main(["ewmpca", str(inp), "--alpha", "0.97", "--output", str(out)]) == 0
        lines.append(out.read_bytes().splitlines())
    assert lines[0][: k + 1] == lines[1][: k + 1]  # the header and rows 1..k
    assert lines[0][k + 1] != lines[1][k + 1]


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
    rc = main(["ewmpca", str(inp), "--alpha", "1.5", "--output", str(tmp_path / "z.csv")])
    assert rc == 1
    assert capsys.readouterr().err == "error: alpha must lie strictly between 0 and 1, got 1.5\n"
    assert list(tmp_path.iterdir()) == [inp]


@pytest.mark.parametrize("flags", [["--tol", "-1"]], ids=["tol"])
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
    with pytest.raises(SystemExit) as exit_:
        main([command, str(inp), "--alpha", "ml", *target, *flags])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
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


def test_estimate_alpha_decay_too_low_for_wide_table(tmp_path, capsys):
    inp = write_data(tmp_path, stationary_gaussian(150, 48, seed=2))
    rc = main(["estimate-alpha", str(inp), "--grid", "0.5:0.9:0.4", "--burn-in", "60",
               "--output", str(tmp_path / "c.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: moving covariance matrix is singular at observation t=61 "
                          "(alpha=0.5); at this decay only about 46 recent rows")
    assert "raise the grid's lowest decay (alpha^p >= p*eps needs alpha >= 0.512)" in err
    assert not (tmp_path / "c.csv").exists()


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
