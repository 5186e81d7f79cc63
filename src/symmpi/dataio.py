"""CSV / JSON interchange for data files, prediction sets, and benchmark rows."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, fields
from itertools import compress
from typing import NamedTuple

import numpy as np

from .calibrate import PredictionSet
from .groups import Permutation


class DataError(ValueError):
    """Malformed input file or schema violation."""


def _csv_text(path) -> str:
    with open(path, newline="") as fh:
        return fh.read()


_COMMA, _NEWLINE = ord(","), ord("\n")


def _quote_free(text) -> bool:
    """Whether splitting on newlines and commas gives the rows ``csv.reader``
    would: the text has no quote, carriage return or NUL."""
    return not ('"' in text or "\r" in text or "\0" in text)


def _csv_rows(text) -> list[list[str]]:
    """The rows of CSV text as lists of cells, read by ``csv.reader``, without
    blank rows (rows whose cells are all empty or whitespace)."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    return list(compress(rows, map(str.strip, map("".join, rows))))


def _row_width(text):
    """The number of cells on every line of quote-free text, one final
    newline ending the last line, or None when the lines differ in it.

    Commas and newlines are ASCII bytes, which UTF-8 never uses inside a
    multibyte sequence, so the separators of the encoded text are the
    text's, in order. The lines have w cells each exactly when, with the
    last line ended, every w-th separator is a newline and no other is:
    one numpy pass over the bytes.
    """
    if not text:
        return None
    first = text.find("\n")
    w = text.count(",", 0, len(text) if first < 0 else first) + 1
    codes = np.frombuffer(text.encode(), np.uint8)
    seps = codes[np.flatnonzero((codes == _COMMA) | (codes == _NEWLINE))]
    if not text.endswith("\n"):
        seps = np.append(seps, _NEWLINE)
    if seps.size % w:
        return None
    ends = seps.reshape(-1, w) == _NEWLINE
    return w if ends[:, -1].all() and not ends[:, :-1].any() else None


def _csv_table(text):
    """The rows of CSV text by columns: (head, cols, row), where ``head`` is
    the first row, ``cols[j]`` the j-th cells of the other rows, for every j
    below the shortest row's length, the first column's stripped, and
    ``row(i)`` the i-th other row; None when the text has no rows. Blank
    rows are skipped, as ``_csv_rows`` skips them.

    When the text is quote-free, all its lines have one width, and neither
    the first line nor any other row's first cell is blank, so that no row
    is blank, one split on commas gives every cell and the columns are
    slices of it. Any other text is read row by row, by ``_csv_rows``.
    """
    w = _quote_free(text) and _row_width(text)
    if w:
        cells = text.replace("\n", ",").split(",")
        if text.endswith("\n"):
            cells.pop()
        head, cols = cells[:w], [cells[w + j::w] for j in range(w)]
        cols[0] = list(map(str.strip, cols[0]))
        if "".join(head).strip() and all(cols[0]):
            return head, cols, lambda i: cells[w * (i + 1):w * (i + 2)]
    rows = _csv_rows(text)
    if not rows:
        return None
    head, body = rows[0], rows[1:]
    cols = list(zip(*body)) or [()] * len(head)
    cols[0] = list(map(str.strip, cols[0]))
    return head, cols, body.__getitem__


def _bad_cell(path, row, cell, column, kind="a number"):
    """The DataError naming a cell of ``row``, a list of cells, that is not ``kind``."""
    return DataError(f"{path}: row {','.join(row)!r} has {cell.strip()!r} in column {column!r}, "
                     f"which is not {kind}")


def _not_a_number(path, columns, row):
    """The DataError naming the first cell that ``float`` does not parse in
    ``columns``, pairs of a column name and its (row index, cell) pairs;
    ``row(i)`` is the row of index i."""
    for name, cells in columns:
        for i, cell in cells:
            try:
                float(cell)
            except ValueError:
                return _bad_cell(path, row(i), cell, name)
    return None


class BranchRows(NamedTuple):
    """A branch file's rows, in file order: ``branch`` (n,) holds each row's
    index into ``order``, the branch ids in order of first appearance; ``x``
    (n, d) the x columns, or None for unsupervised files; ``y`` (n,) the
    responses, NaN at ``target``, the row of the one blank y cell."""

    order: list
    branch: np.ndarray
    x: np.ndarray | None
    y: np.ndarray
    target: int


def read_branch_rows(path) -> BranchRows:
    """Read branch data by columns: branch_id, [x...,] y; blank y marks the target.

    Every row has at least as many cells as the header (a blank trailing y
    cell, as in ``b1,0.5,``, still counts); a shorter row, or an x or given
    y cell that is not a finite number, is a DataError, and one that is not
    a number is named with its row and column. Each column is stripped or
    parsed, by ``float``, in one pass.
    """
    table = _csv_table(_csv_text(path))
    if table is None:
        raise DataError(f"{path}: empty file")
    head, cols, row = table
    header = [c.strip().lower() for c in head]
    if "branch_id" not in header:
        raise DataError(f"{path}: need a header row with branch_id and y/value columns")
    bcol = header.index("branch_id")
    if "y" in header:
        ycol = header.index("y")
    elif "value" in header:
        ycol = header.index("value")
    else:
        raise DataError(f"{path}: no y or value column")
    xcols = [i for i, name in enumerate(header) if name == "x" or name.startswith("x_")]

    n = len(cols[0])
    if len(cols) < len(header):
        short = next(r for r in map(row, range(n)) if len(r) < len(header))
        raise DataError(f"{path}: row {','.join(short)!r} has {len(short)} cells, "
                        f"the header has {len(header)}")
    # the first column comes stripped
    ids, ycells = (cols[j] if j == 0 else list(map(str.strip, cols[j])) for j in (bcol, ycol))
    if ycells.count("") == 1:
        blank = [ycells.index("")]
    else:
        blank = [i for i, c in enumerate(ycells) if not c]
    filled = ycells.copy()
    for i in blank:
        filled[i] = "nan"  # a blank cell reads as NaN, which no given value may be
    x = None
    try:
        y = np.fromiter(map(float, filled), float, n)
        if xcols:
            x = np.empty((n, len(xcols)))
            for j, i in enumerate(xcols):
                x[:, j] = np.fromiter(map(float, cols[i]), float, n)
    except ValueError:
        columns = [(header[ycol], [(i, c) for i, c in enumerate(ycells) if c])]
        columns += [(header[i], enumerate(cols[i])) for i in xcols]
        raise _not_a_number(path, columns, row) from None
    given = np.isfinite(y)
    given[blank] = True
    if not given.all() or (x is not None and not np.isfinite(x).all()):
        raise DataError(f"{path}: x and y values must be finite numbers")
    if len(blank) > 1:
        raise DataError(f"{path}: more than one missing target value")
    if not blank:
        raise DataError(f"{path}: no missing target value (leave one y empty)")
    code = {b: i for i, b in enumerate(dict.fromkeys(ids))}
    branch = np.fromiter(map(code.__getitem__, ids), np.intp, n)
    return BranchRows(list(code), branch, x, y, blank[0])


def read_graph_values_csv(path):
    """Read vertex values: columns vertex_id, value; blank value = unobserved.

    The ids are 0..n-1, each once, in any order, and a given value is a finite
    number; anything else is a DataError, and an id that is not an integer or
    a value that is not a number is named with its row and column. A row
    without a vertex_id cell is a DataError; a row that ends before its value
    cell leaves that vertex unobserved.
    """
    rows = _csv_rows(_csv_text(path))
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [c.strip().lower() for c in rows[0]]
    if "vertex_id" not in header or "value" not in header:
        raise DataError(f"{path}: need vertex_id and value columns")
    vcol, col = header.index("vertex_id"), header.index("value")
    ids, vals = [], []
    for r in rows[1:]:
        if vcol >= len(r):
            raise DataError(f"{path}: row {','.join(r)!r} has {len(r)} cells and no vertex_id")
        try:
            ids.append(int(r[vcol]))
        except ValueError:
            raise _bad_cell(path, r, r[vcol], header[vcol], "an integer") from None
        raw = r[col].strip() if col < len(r) else ""
        try:
            vals.append(float(raw) if raw else np.nan)
        except ValueError:
            raise _bad_cell(path, r, raw, header[col]) from None
        if raw and not np.isfinite(vals[-1]):
            raise DataError(f"{path}: vertex {ids[-1]} has the non-finite value {raw!r}")
    if sorted(ids) != list(range(len(ids))):
        raise DataError(f"{path}: vertex ids must be 0..{len(ids) - 1}, each once")
    order = np.argsort(ids)
    vals = np.array(vals)[order]
    missing = np.flatnonzero(np.isnan(vals))
    if missing.size != 1:
        raise DataError(f"{path}: need exactly one unobserved vertex, found {missing.size}")
    return vals, int(missing[0])


def read_adjacency(path):
    """Adjacency from a dense CSV (optional header) or an edge list "u v [w]".

    A file with no comma on its first line is an edge list. A comma file is
    a square matrix when its n lines (after the header) have n cells each,
    and an edge list otherwise. A matrix is split into cells once and parsed
    in one ``float`` pass.
    """
    with open(path) as fh:
        text = fh.read()
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty adjacency file")
    delim = "," if "," in lines[0] else None
    first = lines[0].split(delim)
    try:
        float(first[0])
        has_header = False
    except ValueError:
        has_header = True
    body = lines[1:] if has_header else lines
    if not body:
        raise DataError(f"{path}: no edges or matrix rows")
    n = len(body)
    if delim is None or {ln.count(",") for ln in body} != {n - 1}:
        return _edges_to_matrix([ln.split(delim) for ln in body], path)
    # n lines of n cells: a matrix, split once and parsed in one pass
    cells = ",".join(body).split(",")
    A = np.fromiter(map(float, cells), float, n * n).reshape(n, n)
    bad = np.flatnonzero(~np.isfinite(A))
    if bad.size:
        r, c = divmod(int(bad[0]), n)
        raise DataError(f"{path}: adjacency entries must be finite, got {cells[bad[0]]!r} "
                        f"between vertices {r} and {c}")
    if not np.array_equal(A, A.T):
        raise DataError(f"{path}: adjacency must be symmetric")
    return A


def _edges_to_matrix(cells, path):
    edges = []
    for row in cells:
        if len(row) not in (2, 3):
            raise DataError(f"{path}: edge lines need 'u v [weight]'")
        u, v = int(row[0]), int(row[1])
        w = float(row[2]) if len(row) == 3 else 1.0
        if u < 0 or v < 0:
            raise DataError(f"{path}: vertex ids must be nonnegative, got edge {u} {v}")
        if not math.isfinite(w):
            raise DataError(f"{path}: edge weights must be finite, got {row[2]!r}")
        edges.append((u, v, w))
    n = max(max(u, v) for u, v, _ in edges) + 1
    A = np.zeros((n, n))
    for u, v, w in edges:
        A[u, v] += w
        if u != v:
            A[v, u] += w
    return A


def read_generators(path, n: int) -> list[Permutation]:
    """One permutation per line in image notation, e.g. '1 2 0'."""
    gens = []
    with open(path) as fh:
        for ln in fh:
            if not ln.strip():
                continue
            imgs = [int(v) for v in ln.replace(",", " ").split()]
            if len(imgs) != n:
                raise DataError(f"{path}: generator length {len(imgs)} != {n}")
            gens.append(Permutation(imgs))
    if not gens:
        raise DataError(f"{path}: no generators found")
    return gens


def prediction_set_payload(ps: PredictionSet) -> dict:
    length = ps.length
    return {
        "candidates": ps.candidates.tolist(),
        "member": ps.member.astype(int).tolist(),
        "intervals": ps.intervals(),
        "length": length if np.isfinite(length) else "Inf",
        "unbounded": ps.unbounded,
        **ps.meta,
    }


def write_prediction_set(ps: PredictionSet, path: str, fmt: str = "json") -> None:
    if fmt == "json":
        # json.dumps takes the C encoder, which json.dump does not
        text = json.dumps(prediction_set_payload(ps), sort_keys=True) + "\n"
        with open(path, "w") as fh:
            fh.write(text)
    elif fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["candidate", "member"])
            for c, m in zip(ps.candidates, ps.member):
                writer.writerow([repr(float(c)), int(m)])
    else:
        raise DataError(f"unknown format {fmt!r}")


@dataclass
class BenchRow:
    """One row of a benchmark table: a method's mean set length and coverage,
    with their standard errors, at one alpha and one sigma2."""

    method: str
    alpha: float
    sigma2: float
    mean_length: float
    se_length: float
    mean_coverage: float
    se_coverage: float
    unbounded_rate: float


BENCH_FIELDS = [f.name for f in fields(BenchRow)]


def write_bench_rows(rows: list[BenchRow], path: str, fmt: str = "csv") -> None:
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(BENCH_FIELDS)
            for r in rows:
                d = asdict(r)
                writer.writerow(
                    ["Inf" if f == "mean_length" and not np.isfinite(d[f]) else d[f] for f in BENCH_FIELDS]
                )
    elif fmt == "json":
        payload = []
        for r in rows:
            d = asdict(r)
            if not np.isfinite(d["mean_length"]):
                d["mean_length"] = "Inf"
            payload.append(d)
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")
    else:
        raise DataError(f"unknown format {fmt!r}")
