from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streampca import tableio
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


def test_errors_name_the_physical_line_after_a_quoted_line_break(tmp_path):
    # the record on lines 2-3 is one row: csv's record count is one line short
    path = tmp_path / "bad.csv"
    path.write_text('timestamp,a\n"two\nlines",1\n2021-01-04,x\n')
    with pytest.raises(ValueError) as err:
        read_table(path)
    assert str(err.value) == f"{path}, line 4: could not parse 'x' in column 'a' as a number"
    path.write_text('timestamp,a\n"two\nlines",1\n2021-01-04\n')
    with pytest.raises(ValueError, match="line 4: expected 2 fields, got 1"):
        read_table(path)


def test_row_reader_keeps_each_rows_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text('timestamp,a\n"two\nlines",1\n\n2021-01-04,2\n')
    table = read_table(path)
    assert [table.line_of(i) for i in range(table.n_rows)] == [3, 5]
    # a plain table has row i on line i + 2
    path.write_text("a\n1\n2\n")
    assert tableio._read_plain(path).line_of(1) == 3


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


def test_plain_table_takes_numpys_reader(tmp_path, monkeypatch):
    def no_row_reader(path):
        raise AssertionError("the row reader ran")

    data = np.array([[0.1, -2.5e-300], [1 / 3, 7.0]])
    cases = [
        (["a", "b"], None),
        (["u", "v"], ["2021-01-04T09:30:00", "2021-01-05T16:00:00"]),
    ]
    for names, stamps in cases:
        path = tmp_path / "plain.csv"
        write_table(path, ObservationTable(names, data, timestamps=stamps))
        reference = tableio._read_rows(path)
        monkeypatch.setattr(tableio, "_read_rows", no_row_reader)
        table = read_table(path)
        monkeypatch.undo()
        assert table.column_names == reference.column_names == names
        assert table.timestamps == reference.timestamps == stamps
        assert np.array_equal(table.data.view(np.uint64), data.view(np.uint64))
    # LF line ends and padded cells are plain too
    path.write_text("a, b\n 1.5,2\n-0, 3e-5 \n", newline="")
    monkeypatch.setattr(tableio, "_read_rows", no_row_reader)
    table = read_table(path)
    assert table.column_names == ["a", "b"]
    assert np.array_equal(table.data, [[1.5, 2.0], [-0.0, 3e-5]])


def read_outcome(read, path):
    try:
        table = read(path)
    except Exception as err:  # the exception itself is compared
        return type(err), str(err)
    return table.column_names, table.timestamps, table.data.shape, table.data.view(np.uint64)


def assert_same_outcome(path):
    """``read_table`` gives the row reader's table, bit for bit, or its error."""
    got = read_outcome(read_table, path)
    want = read_outcome(tableio._read_rows, path)
    assert len(got) == len(want)
    if len(want) == 2:
        assert got == want
    else:
        assert got[:3] == want[:3]
        assert np.array_equal(got[3], want[3])


# Hand-made files, one for each thing that keeps a file off numpy's reader.
ODD_FILES = [
    'timestamp,a\r\n"2021-01-04, 09:30",1\r\n',  # quoting
    'timestamp,a\r\n"2021-01-04",1\r\n',
    "a\r\n\uff11\r\n",  # non-ASCII
    "\ufeffa\r\n1\r\n",
    "a\r\n\x1c1\r\n",  # a separator numpy strips and float() does not
    "a,b\r\n1,2\x1f\r\n",
    "a\r1.5\r\n2.5\r\n",  # a lone CR
    "a,b\r1,2\r",
    "a\n1\r",
    "a\r\n1\n2\r\n",  # CRLF and LF mixed
    "a\r\n1\n2",
    "a\n1\n\n2\n",  # blank lines
    "a\n\n",
    "a\r\n\r\n",
    "\na\n1\n",
    "a,b\n1,2\n\n3,4\n",
    "timestamp,a\n2021-01-04,1,2\n",  # an extra and a missing field
    "timestamp,a,b\n2021-01-04,1\n",
    "a,b\r\n",  # no rows, no header
    "",
    "a\nnan\n",  # non-finite and unparseable cells
    "a\n1e400\n",
    "a\n1_000\n",
    "a\n \n",
    "timestamp,a\n" + "x" * 140000 + ",1\n",  # over csv's field size limit
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ODD_FILES)
def test_both_readers_agree_on_odd_files(tmp_path, text):
    path = tmp_path / "odd.csv"
    path.write_text(text, newline="")
    assert tableio._read_plain(path) is None
    assert_same_outcome(path)


# Generated tables for the reader-agreement test.  Half of them hold no
# oddity, so that numpy's reader parses them; the others hold one kind of
# oddity or two.  An oddity is something that only the row reader takes, or
# that fails the read.
DIGITS = st.text("0123456789", max_size=40)
NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: format(v, ".17g")),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr),
    # up to 80 digits, exponents down among the subnormals
    st.builds(
        "{}{}.{}1e{}".format, st.sampled_from(["", "+", "-"]), DIGITS, DIGITS, st.integers(-345, 60)
    ),
)
NAMES = ["a", " b", "c ", "x1", "timestamp"]
ODD_CELLS = [
    " 1.5", "2.5 ", "\t-3e-2\t", "1_000", "\uff11\uff12", "nan", "-inf", "Infinity", "",
    " ", "1e400", "x", "0x10", "\x1c4", "5\x1d", "\x1e6", "7\x1f", '"8"',
]
PLAIN_STAMPS = ["2021-01-04T09:30:00", "2021-01-05", "", " x ", "1.5"]
ODD_STAMPS = ['"2021-01-04, 09:30"', '"say ""hi"""', '"two\nlines"', '""', 'a"b', "t\x1e"]
LINE_ENDS = ["\r\n", "\n", "\r"]
ODDITIES = ["cell", "field count", "stamp", "blank line", "mixed line ends", "BOM"]
ODDITY_SETS = [*zip(ODDITIES), *combinations(ODDITIES, 2)]


@st.composite
def csv_text(draw):
    odd = set(draw(st.sampled_from(ODDITY_SETS))) if draw(st.booleans()) else set()

    def sometimes(oddity: str) -> bool:
        return oddity in odd and draw(st.booleans())

    cols = draw(st.integers(1, 4))
    stamped = draw(st.booleans())
    names = draw(st.lists(st.sampled_from(NAMES), min_size=cols, max_size=cols))
    lines = [",".join((["timestamp"] if stamped else []) + names)]
    for _ in range(draw(st.integers(0, 5))):
        cells = draw(st.lists(NUMBER, min_size=cols, max_size=cols))
        if sometimes("cell"):
            cells[draw(st.integers(0, cols - 1))] = draw(st.sampled_from(ODD_CELLS))
        if sometimes("field count"):
            cells = cells[1:] if draw(st.booleans()) else [*cells, "0"]
        if stamped:
            cells.insert(0, draw(st.sampled_from(ODD_STAMPS if sometimes("stamp") else PLAIN_STAMPS)))
        lines.append(",".join(cells))
        if sometimes("blank line"):  # a blank, a space-only or a CR-only line
            lines.append(draw(st.sampled_from(["", " ", "\r"])))
    if "mixed line ends" in odd:
        ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
    else:
        ends = [draw(st.sampled_from(LINE_ENDS))] * len(lines)
    if draw(st.booleans()):
        ends[-1] = ""
    return ("\ufeff" if "BOM" in odd else "") + "".join(map(str.__add__, lines, ends))


@pytest.fixture(scope="module")
def agreement_path(tmp_path_factory):
    return tmp_path_factory.mktemp("agree") / "t.csv"


@pytest.mark.filterwarnings("error")
@given(text=csv_text())
@settings(max_examples=300, deadline=None)
def test_both_readers_agree(agreement_path, text):
    agreement_path.write_text(text, newline="")
    assert_same_outcome(agreement_path)
