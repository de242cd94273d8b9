import numpy as np
import pytest

from streampca.tableio import (
    ObservationTable,
    format_float,
    read_table,
    write_labeled_matrix,
    write_sidecar,
    write_table,
)


def test_round_trip_is_lossless(tmp_path):
    rng = np.random.default_rng(5)
    data = rng.standard_normal((40, 3)) * np.array([1e-9, 1.0, 1e12])
    table = ObservationTable(["a", "b", "c"], data)
    path = tmp_path / "t.csv"
    write_table(path, table)
    back = read_table(path)
    assert back.column_names == ["a", "b", "c"]
    assert np.array_equal(back.data, data)
    assert back.timestamps is None


ODD_TIMESTAMPS = ["2020-01-01, 10:00", 'say "hi"', "two\nlines", "", " lead"]


def test_round_trip_with_timestamps(tmp_path):
    path = tmp_path / "t.csv"
    for ts in (["2020-01-01 10:00:00", "2020-01-01 11:00:00"], ODD_TIMESTAMPS):
        data = np.arange(2.0 * len(ts)).reshape(-1, 2) + 0.5
        write_table(path, ObservationTable(["u", "v"], data, timestamps=ts))
        back = read_table(path)
        assert back.timestamps == ts
        assert np.array_equal(back.data, data)


def test_write_table_bytes(tmp_path):
    # -0.0, the smallest subnormal, a huge value, the smallest normal and
    # values that need all 17 significant digits, each as %.17g.
    data = np.array(
        [
            [-0.0, 5e-324, 1e308],
            [2.2250738585072014e-308, 0.1, 1 / 3],
            [-1.2345678901234567e-5, 123456789.01234567, 2.0**53 + 2],
        ]
    )
    path = tmp_path / "t.csv"
    write_table(path, ObservationTable(["a", "b", "c"], data))
    assert path.read_bytes() == (
        b"a,b,c\r\n"
        b"-0,4.9406564584124654e-324,1e+308\r\n"
        b"2.2250738585072014e-308,0.10000000000000001,0.33333333333333331\r\n"
        b"-1.2345678901234568e-05,123456789.01234567,9007199254740994\r\n"
    )


def test_write_table_quotes_timestamps_as_csv_does(tmp_path):
    data = np.arange(10.0).reshape(5, 2) / 4
    path = tmp_path / "t.csv"
    write_table(path, ObservationTable(["u", "v"], data, timestamps=ODD_TIMESTAMPS))
    assert path.read_bytes() == (
        b"timestamp,u,v\r\n"
        b'"2020-01-01, 10:00",0,0.25\r\n'
        b'"say ""hi""",0.5,0.75\r\n'
        b'"two\nlines",1,1.25\r\n'
        b",1.5,1.75\r\n"
        b" lead,2,2.25\r\n"
    )


def test_format_float_round_trips_doubles():
    rng = np.random.default_rng(6)
    for x in rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200):
        assert float(format_float(x)) == x


def test_unparseable_cell_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    cases = [
        ("3.0,oops\n", "line 3: could not parse 'oops' in column 'b' as a number"),
        # Blank lines are skipped but still counted.
        ("\n\n3.0,oops\n", "line 5: could not parse 'oops' in column 'b' as a number"),
        # The first bad cell in column order is the one reported.
        ("nan,oops\n", "line 3: non-finite value 'nan' in column 'a'"),
    ]
    for body, message in cases:
        path.write_text("a,b\n1.0,2.0\n" + body)
        with pytest.raises(ValueError) as err:
            read_table(path)
        assert str(err.value) == f"{path}, {message}"


def test_wrong_field_count_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1.0\n")
    with pytest.raises(ValueError, match="line 2"):
        read_table(path)


def test_non_finite_cell_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a\nnan\n")
    with pytest.raises(ValueError, match="non-finite"):
        read_table(path)
    path.write_text("a,b\n1.0,2.0\n3.0,-inf\n")
    with pytest.raises(ValueError) as err:
        read_table(path)
    assert str(err.value) == f"{path}, line 3: non-finite value '-inf' in column 'b'"


def test_missing_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="header"):
        read_table(path)


def test_empty_body_gives_zero_rows(tmp_path):
    path = tmp_path / "only_header.csv"
    path.write_text("a,b\n")
    table = read_table(path)
    assert table.data.shape == (0, 2)


def test_labeled_matrix_layout(tmp_path):
    path = tmp_path / "m.csv"
    write_labeled_matrix(path, np.eye(2), ["r1", "r2"], ["c1", "c2"], corner="id")
    lines = path.read_text().splitlines()
    assert lines[0] == "id,c1,c2"
    assert lines[1].startswith("r1,1,")


def test_labeled_matrix_bytes_quote_labels_and_corner(tmp_path):
    path = tmp_path / "m.csv"
    matrix = np.array([[1.0, -0.5], [0.25, 1e-20]])
    write_labeled_matrix(path, matrix, ["PC 1, first", 'say "x"'], ["c,1", "c2"], corner='comp"onent')
    assert path.read_bytes() == (
        b'"comp""onent","c,1",c2\r\n'
        b'"PC 1, first",1,-0.5\r\n'
        b'"say ""x""",0.25,9.9999999999999995e-21\r\n'
    )


def test_sidecar_is_deterministic(tmp_path):
    payload = {"command": "x", "params": {"a": 1}, "alpha": 0.5}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_sidecar(p1, payload)
    write_sidecar(p2, payload)
    assert p1.read_bytes() == p2.read_bytes()
