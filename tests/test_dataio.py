import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from symmpi.calibrate import PredictionSet
from symmpi.dataio import (
    DataError,
    _row_width,
    prediction_set_payload,
    read_adjacency,
    read_generators,
    read_graph_values_csv,
    read_hierarchical_csv,
    write_bench_rows,
    write_prediction_set,
)
from symmpi.sim import BenchRow


def test_read_hierarchical_unsup(tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("branch_id,y\na,1.0\na,2.0\nb,3.0\nb,\n")
    order, xs, ys, target = read_hierarchical_csv(p)
    assert order == ["a", "b"] and xs is None
    assert target == (1, 1)
    assert np.array_equal(ys[0], [1.0, 2.0])
    assert np.isnan(ys[1][1])


def test_read_hierarchical_sup_multivariate(tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("branch_id,x_1,x_2,y\n0,0.1,0.2,1.0\n0,0.3,0.4,\n")
    order, xs, ys, target = read_hierarchical_csv(p)
    assert xs[0].shape == (2, 2)
    assert target == (0, 1)


def test_read_hierarchical_ragged_multivariate_matches_row_reader(tmp_path):
    # quoted fields, blank lines, interleaved branches and a mid-branch target
    rng = np.random.default_rng(12)
    lines = ['"branch_id",x_a,x_b,"x_c",y,note']
    sizes = {"b 1": 5, "b,2": 1, "b3": 9, "b4": 3}
    rows = [(b, i) for b, n in sizes.items() for i in range(n)]
    for b, i in [rows[j] for j in rng.permutation(len(rows))]:
        x = rng.normal(0, 3, 3).tolist()
        y = "" if (b, i) == ("b3", 4) else repr(float(rng.normal()))
        lines.append(f'"{b}",{x[0]!r}, {x[1]!r} ,"{x[2]!r}",{y},"a, b"')
        if i == 2:
            lines.append(" , ,")
    p = tmp_path / "ragged.csv"
    p.write_text("\n".join(lines) + "\n\n")
    order, xs, ys, target = read_hierarchical_csv(p)
    want = oracles.read_hierarchical_rows(p)
    assert order == want[0] and target == want[3]
    assert [x.shape for x in xs] == [(n, 3) for n in (sizes[b] for b in order)]
    for got, ref in zip(xs + ys, want[1] + want[2]):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def test_read_hierarchical_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("branch_id,y\n0,1.0\n")
    with pytest.raises(DataError):
        read_hierarchical_csv(p)  # no target
    p.write_text("branch_id,y\n0,\n1,\n")
    with pytest.raises(DataError):
        read_hierarchical_csv(p)  # two targets
    p.write_text("foo,bar\n1,2\n")
    with pytest.raises(DataError):
        read_hierarchical_csv(p)


def test_read_graph_values(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("vertex_id,value\n1,2.0\n0,1.0\n2,\n")
    vals, missing = read_graph_values_csv(p)
    assert missing == 2
    assert np.array_equal(vals[:2], [1.0, 2.0])
    p.write_text("vertex_id,value\n0,\n1,\n")
    with pytest.raises(DataError):
        read_graph_values_csv(p)


def test_read_adjacency_dense_and_edges(tmp_path):
    dense = tmp_path / "a.csv"
    dense.write_text("0,1,0\n1,0,1\n0,1,0\n")
    A = read_adjacency(dense)
    assert A.shape == (3, 3) and A[0, 1] == 1.0
    edges = tmp_path / "e.txt"
    edges.write_text("0 1\n1 2 2.5\n2 3\n")
    B = read_adjacency(edges)
    assert B.shape == (4, 4)
    assert B[1, 2] == 2.5 and B[2, 1] == 2.5
    dense.write_text("0,1\n0,0\n")
    with pytest.raises(DataError):
        read_adjacency(dense)  # asymmetric dense matrix


@pytest.mark.parametrize("text, edges", [
    ("0 1\n1 2\n", {(0, 1): 1.0, (1, 2): 1.0}),  # as many lines as cells
    ("0 1 1\n1 2 1\n2 0 1\n", {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0}),
    ("u v w\n0 1 2.5\n1 2 1\n", {(0, 1): 2.5, (1, 2): 1.0}),
])
def test_whitespace_adjacency_is_an_edge_list(tmp_path, text, edges):
    path = tmp_path / "edges.txt"
    path.write_text(text)
    want = np.zeros((3, 3))
    for (u, v), w in edges.items():
        want[u, v] = want[v, u] = w
    assert np.array_equal(read_adjacency(path), want)


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
def test_non_finite_dense_adjacency_is_data_error(tmp_path, cell):
    path = tmp_path / "a.csv"
    path.write_text(f"a,b,c\n0,1,0\n1,0,{cell}\n0,{cell},0\n")
    with pytest.raises(DataError, match=f"finite, got '{cell}' between vertices 1 and 2"):
        read_adjacency(path)


@pytest.mark.parametrize("text, error, message", [
    # a cell that is not a number: float's own message, the first such cell
    ("a,b,c\n\n0,1,x\n1,0, y \nx,1,0\n", ValueError,
     "could not convert string to float: 'x'"),
    ("0,1,2\n1,0, abc \n2,1,0\n", ValueError, "could not convert string to float: ' abc'"),
    ("0,1,2\n1,0,3\n2,-inf,0\n\n", DataError,
     "adjacency entries must be finite, got '-inf' between vertices 2 and 1"),
    ("  0,1,0\n0,0,1  \n\n0,1,0\n", DataError, "adjacency must be symmetric"),
])
def test_dense_adjacency_keeps_its_messages(tmp_path, text, error, message):
    path = tmp_path / "a.csv"
    path.write_text(text)
    with pytest.raises(error) as info:
        read_adjacency(path)
    assert str(info.value) in (message, f"{path}: {message}")


def test_dense_adjacency_skips_blank_lines_and_a_header(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("\n  u,v,w\n\n0, 1,2.5\n1,0,3\n\n2.5,3 ,0\n\n")
    assert np.array_equal(read_adjacency(path), [[0, 1, 2.5], [1, 0, 3], [2.5, 3, 0]])


def test_read_generators(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("1 2 0\n0,2,1\n")
    gens = read_generators(p, 3)
    assert len(gens) == 2
    assert gens[0](0) == 1
    with pytest.raises(DataError):
        read_generators(p, 4)


def test_write_prediction_set_csv_and_json(tmp_path):
    ps = PredictionSet(np.linspace(0, 1, 5), np.array([0, 1, 1, 0, 0], dtype=bool))
    j = tmp_path / "s.json"
    write_prediction_set(ps, j, "json")
    import json

    payload = json.load(open(j))
    assert payload["unbounded"] is False
    assert payload["member"] == [0, 1, 1, 0, 0]
    want = json.dumps(prediction_set_payload(ps), sort_keys=True) + "\n"
    assert j.read_bytes() == want.encode()  # one dumps call, one write
    c = tmp_path / "s.csv"
    write_prediction_set(ps, c, "csv")
    lines = c.read_text().strip().splitlines()
    assert lines[0] == "candidate,member"
    assert len(lines) == 6


def test_write_bench_rows_inf_handling(tmp_path):
    rows = [
        BenchRow("single_tree", 0.05, 10.0, float("inf"), 0.0, 1.0, 0.0, 1.0),
        BenchRow("symmpi", 0.05, 10.0, 2.05, 0.01, 0.95, 0.02, 0.0),
    ]
    p = tmp_path / "b.csv"
    write_bench_rows(rows, p, "csv")
    text = p.read_text()
    assert "Inf" in text and "2.05" in text
    pj = tmp_path / "b.json"
    write_bench_rows(rows, pj, "json")
    import json

    payload = json.load(open(pj))
    assert payload[0]["mean_length"] == "Inf"


# ----------------------------------------------------------------------
# read_hierarchical_csv against the row-by-row oracle
# ----------------------------------------------------------------------

# whitespace that str.strip and float take off a cell, some of which
# str.splitlines would also break a line on
PAD = st.sampled_from(["", " ", "\t", " \t ", "\x0b", "\x85", "\u2028", "\xa0"])
NUMBER = st.floats(allow_nan=False, allow_infinity=False).map(repr)


@st.composite
def branch_files(draw):
    """A branch CSV and how it is written: ragged branches whose rows are
    interleaved, one target cell anywhere, padded cells, extra trailing
    cells, blank lines, and quoted or quote-free text with one line ending.
    A file with every row as wide as the header and no blank line can be
    read by columns."""
    n_x = draw(st.integers(0, 3))
    extra, blank = draw(st.booleans()), draw(st.booleans())  # trailing cells, blank lines
    quoted = draw(st.booleans())
    # a third of the files are quote-free with "\n" endings, which may be split by columns
    split = not quoted and draw(st.booleans())
    ending = "\n" if split else draw(st.sampled_from(["\n", "\r\n", "\r"]))
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    rows = [(b, i) for b, n in enumerate(sizes) for i in range(n)]
    rows = draw(st.permutations(rows))
    target = draw(st.sampled_from(rows))

    def cell(text):
        if quoted and ("," in text or draw(st.booleans())):
            return '"' + draw(PAD) + text + draw(PAD) + '"'
        return draw(PAD) + text + draw(PAD)

    xnames = ["x"] if n_x == 1 else [f"x_{j}" for j in range(n_x)]
    lines = [",".join(cell(name) for name in ["branch_id", *xnames, "y"])]
    for b, i in rows:
        name = f"b,{b}" if quoted and b % 2 else f"b{b}"
        y = "" if (b, i) == target else draw(NUMBER)
        cells = [name, *(draw(NUMBER) for _ in xnames), y]
        if extra:
            cells += draw(st.lists(st.sampled_from(["", " ", "note", "1.5"]), max_size=2))
        lines.append(",".join(map(cell, cells)))
        if blank and draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", ",", " , ,\t", ",,", "\x1c,\x0c"])))
    return ending.join(lines) + ending * draw(st.integers(0, 2))


def assert_reads_as_row_reader(path):
    order, xs, ys, target = read_hierarchical_csv(path)
    want = oracles.read_hierarchical_rows(path)
    assert order == want[0] and target == want[3]
    assert (xs is None) == (want[1] is None)
    for got, ref in zip((xs or []) + ys, (want[1] or []) + want[2]):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


@settings(max_examples=150, deadline=None)
@given(text=branch_files())
def test_read_hierarchical_matches_row_reader(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "branches.csv"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        assert_reads_as_row_reader(path)


@pytest.mark.parametrize("text", [
    "branch_id,x,y\n,0.1,1\nb,0.2,2\n,0.3,\n",  # rows of the branch ''
    "branch_id,y\nb,1\n , \nb,\n",  # a blank row as wide as the header
    ",\nbranch_id,y\nb,1\nb,\n",  # a blank line before the header
    "branch_id,y\nb0,1,note,2\nb1,\nb1,2\n",  # 10 cells, 4 rows wide; one row is wider
])
def test_read_hierarchical_rows_not_split_by_columns(tmp_path, text):
    # quote-free files that one split into columns would misread
    path = tmp_path / "h.csv"
    path.write_text(text)
    assert_reads_as_row_reader(path)


@pytest.mark.parametrize("text, width", [
    # comma totals that balance across lines of different widths
    ("branch_id,y\nb0,1,\n\nb1,\n", None),  # a long line and a blank one
    ("branch_id,x,y\nb0,0.1,1,7\nb0,0.2\nb1,0.3,\n", None),  # a long line and a short one
    ("branch_id,y\nb0,1,\nb1", None),  # the same, and no final newline
    ("branch_id,x,y\nb0,0.1,1\nb1,0.2,", 3),  # no final newline
    # padding that is whitespace to str.strip and float, in one or more UTF-8 bytes
    ("branch_id,\x85x\xa0,y\u2028\n\xa0b0\x85,0.1\u2028,1\nb1,\u20280.2,\x85\n", 3),
    ("\u2028branch_id\xa0,y\n\x85b0,\u20281\xa0\n\xa0b1\u2028,\x85\nb0,2\n", 2),
])
def test_row_width_is_checked_by_position(tmp_path, text, width):
    # a file of one width reads by columns, any other by rows; either way it
    # reads as the row reader does, or raises what the row-by-row path raises
    assert _row_width(text) == width
    path, by_rows = tmp_path / "h.csv", tmp_path / "rows.csv"
    for name, body in ((path, text), (by_rows, text.replace("\n", "\r\n"))):
        with open(name, "w", newline="") as fh:
            fh.write(body)
    try:
        read_hierarchical_csv(by_rows)
    except DataError as exc:
        with pytest.raises(DataError) as err:
            read_hierarchical_csv(path)
        assert str(err.value) == str(exc).replace(str(by_rows), str(path))
    else:
        assert_reads_as_row_reader(path)


@pytest.mark.parametrize("text, cell", [
    ("branch_id,x,y\na,0.1,1\na,?,2\nb,-,3\nb,0.4,\n", "row 'a,?,2' has '?' in column 'x'"),
    ("branch_id,x,y\na,0.1,1\na,?,2\nb,0.3,-\nb,0.4,\n", "row 'b,0.3,-' has '-' in column 'y'"),
    ("branch_id,x_1,x_2,y\na,0.1,?,1\na,-,0,2\nb,0.4,0,\n",
     "row 'a,-,0,2' has '-' in column 'x_1'"),
])
def test_the_first_cell_that_is_not_a_number_is_named(tmp_path, text, cell):
    # the y column first, then each x column in header order, each from the top
    path = tmp_path / "h.csv"
    path.write_text(text)
    with pytest.raises(DataError) as err:
        read_hierarchical_csv(path)
    assert str(err.value) == f"{path}: {cell}, which is not a number"


@pytest.mark.parametrize("lines", [
    ["branch_id,x,y", "a,0.1,1", "a,0.2", "b,0.3,"],  # a short row
    ["branch_id,y", "a,1", "b,2"],  # no target
    ["branch_id,y", "a,", "b,"],  # two targets
    ["branch_id,y", "a,1", "a,inf", "b,"],  # a value that is not finite
    ["branch_id,x,y", "a,0.1,1", "a,0.2,2", "b,0x3,"],  # a cell that is not a number
    ["branch_id,y", " , ", ""],  # no rows but the header
])
def test_read_hierarchical_errors_are_the_same_on_every_path(tmp_path, lines):
    path = tmp_path / "bad.csv"
    messages = []
    # by columns where every row is as wide as the header, then by csv.reader
    # with blank lines between the rows, then with "\r\n" endings
    for ending in ("\n", "\n\n", "\r\n"):
        with open(path, "w", newline="") as fh:
            fh.write(ending.join(lines) + ending)
        with pytest.raises(DataError) as err:
            read_hierarchical_csv(path)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == messages[2]
