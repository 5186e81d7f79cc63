"""CSV / JSON interchange for data files, prediction sets, and benchmark rows."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict

import numpy as np

from .calibrate import PredictionSet
from .groups import Permutation
from .sim import BenchRow


class DataError(ValueError):
    """Malformed input file or schema violation."""


def read_hierarchical_csv(path):
    """Read branch data: columns branch_id, [x...,] y; blank y marks the target.

    Every row has at least as many cells as the header (a blank trailing y
    cell, as in ``b1,0.5,``, still counts); a shorter row, or an x or given
    y cell that is not a finite number, is a DataError.

    Returns (branch_ids, xs, ys, target), where xs is None for unsupervised
    files, ys holds per-branch value arrays with NaN at the target slot, and
    target is (branch_index, row_index).
    """
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if "".join(r).strip()]  # skip blank rows
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [c.strip().lower() for c in rows[0]]
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

    body = rows[1:]
    short = next((r for r in body if len(r) < len(header)), None)
    if short is not None:
        raise DataError(f"{path}: row {','.join(short)!r} has {len(short)} cells, "
                        f"the header has {len(header)}")
    ids = [r[bcol].strip() for r in body]
    ycells = [r[ycol].strip() for r in body]
    y = np.array([float(c) if c else np.nan for c in ycells])
    x = np.array([[float(r[i]) for r in body] for i in xcols]).T if xcols else None
    given = np.array([bool(c) for c in ycells])
    if not np.isfinite(y[given]).all() or (x is not None and not np.isfinite(x).all()):
        raise DataError(f"{path}: x and y values must be finite numbers")
    order = list(dict.fromkeys(ids))
    code = {b: i for i, b in enumerate(order)}
    branch = np.array([code[b] for b in ids], dtype=np.intp)

    missing = np.flatnonzero(np.isnan(y))
    if missing.size > 1:
        raise DataError(f"{path}: more than one missing target value")
    if missing.size == 0:
        raise DataError(f"{path}: no missing target value (leave one y empty)")
    bi = int(branch[missing[0]])
    target = (bi, int(np.count_nonzero(branch[: missing[0]] == bi)))
    # rows grouped by branch, in file order within each
    by_branch = np.argsort(branch, kind="stable")
    cuts = np.cumsum(np.bincount(branch, minlength=len(order)))[:-1]
    ys = np.split(y[by_branch], cuts)
    xs = None
    if xcols:
        xs = np.split(x[by_branch, 0] if len(xcols) == 1 else x[by_branch], cuts)
    return order, xs, ys, target


def read_graph_values_csv(path):
    """Read vertex values: columns vertex_id, value; blank value = unobserved.

    The ids are 0..n-1, each once, in any order, and a given value is a finite
    number; anything else is a DataError. A row without a vertex_id cell is a
    DataError; a row that ends before its value cell leaves that vertex
    unobserved.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [r for r in reader if r and any(c.strip() for c in r)]
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
        ids.append(int(r[vcol]))
        raw = r[col].strip() if col < len(r) else ""
        vals.append(float(raw) if raw else np.nan)
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
    an edge list too when its lines have 2 or 3 cells and there are not as
    many lines as cells; otherwise it is a square matrix.
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
    cells = [ln.split(delim) for ln in body]
    widths = {len(c) for c in cells}
    if delim is None or (widths <= {2, 3} and len(cells) != max(widths)):
        return _edges_to_matrix(cells, path)
    if len(widths) == 1 and len(cells) == len(cells[0]):
        A = np.array([[float(v) for v in row] for row in cells])
        bad = np.argwhere(~np.isfinite(A))
        if bad.size:
            r, c = bad[0]
            raise DataError(f"{path}: adjacency entries must be finite, got {cells[r][c]!r} "
                            f"between vertices {r} and {c}")
        if not np.array_equal(A, A.T):
            raise DataError(f"{path}: adjacency must be symmetric")
        return A
    return _edges_to_matrix(cells, path)


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


BENCH_FIELDS = [
    "method",
    "alpha",
    "sigma2",
    "mean_length",
    "se_length",
    "mean_coverage",
    "se_coverage",
    "unbounded_rate",
]


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
