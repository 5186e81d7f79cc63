import csv
import json
from pathlib import Path

import numpy as np
import pytest

from symmpi.calibrate import candidate_grid, supervised_hierarchical_set
from symmpi.cli import main
from symmpi.dataio import prediction_set_payload


def write_hier_csv(path, branches, target=None, xs=None):
    """branches: list of value arrays; target: (branch, row) left blank."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["branch_id", "x", "y"] if xs is not None else ["branch_id", "y"])
        for bi, vals in enumerate(branches):
            for ri, v in enumerate(vals):
                y = "" if target == (bi, ri) else repr(float(v))
                if xs is not None:
                    writer.writerow([bi, repr(float(xs[bi][ri])), y])
                else:
                    writer.writerow([bi, y])


def write_graph_files(tmp_path, values, edges, missing):
    vpath = tmp_path / "values.csv"
    with open(vpath, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vertex_id", "value"])
        for i, v in enumerate(values):
            writer.writerow([i, "" if i == missing else repr(float(v))])
    apath = tmp_path / "adjacency.txt"
    with open(apath, "w") as fh:
        for u, v in edges:
            fh.write(f"{u} {v}\n")
    return str(vpath), str(apath)


def test_bench_smoke_single_cell(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main([
        "bench", "--preset", "table1", "--alpha", "0.05", "--sigma2", "10",
        "--trials", "1", "--tests", "1", "--seed", "7", "--grid", "301",
        "--out", str(out),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "symmpi" in text and "single_tree" in text
    rows = list(csv.DictReader(open(out)))
    assert {r["method"] for r in rows} == {"symmpi", "conformal", "subsampling", "single_tree"}


def test_bench_missing_preset_is_usage_error():
    with pytest.raises(SystemExit) as e:
        main(["bench", "--trials", "1"])
    assert e.value.code == 2


def test_bench_rerun_is_byte_identical(tmp_path):
    args = ["bench", "--preset", "table1", "--alpha", "0.1", "--sigma2", "1",
            "--trials", "2", "--tests", "3", "--seed", "3", "--grid", "301"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("preset", ["table1", "table1-random", "table2", "table2-random"])
def test_bench_csv_matches_golden_output(preset, tmp_path, capsys):
    # tests/golden holds each preset's CSV at this size; any change to a
    # draw, a set or the arithmetic of a row shows as a byte difference
    out = tmp_path / "bench.csv"
    assert main(["bench", "--preset", preset, "--trials", "2", "--tests", "12", "--grid", "201",
                 "--sigma2", "0.5", "10", "--out", str(out)]) == 0
    golden = Path(__file__).parent / "golden" / f"bench_{preset}.csv"
    assert out.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("name, data, args", [
    ("predict_sup_ragged_a0.1", "hier_sup_ragged.csv", ["--mode", "sup", "--alpha", "0.1"]),
    ("predict_sup_ragged_a0.3", "hier_sup_ragged.csv", ["--mode", "sup", "--alpha", "0.3"]),
    ("predict_unsup_fixed", "hier_fixed.csv", ["--alpha", "0.2"]),
    ("predict_unsup_ragged", "hier_ragged.csv", ["--alpha", "0.2"]),
])
def test_predict_hierarchical_json_matches_golden_output(name, data, args, tmp_path, capsys):
    # tests/golden holds the input files and each set's JSON at a 401-point
    # grid: a supervised ragged file at two alphas, unsupervised fixed and
    # ragged files
    golden = Path(__file__).parent / "golden"
    out = tmp_path / "set.json"
    assert main(["predict-hierarchical", str(golden / data), *args, "--grid", "401",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (golden / f"{name}.json").read_bytes()


def test_bench_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[bench]\npreset = table1\ntrials = 1\ntests = 2\nsigma2 = 1\n"
                   "alpha = 0.2\ngrid = 301\nseed = 5\n")
    out = tmp_path / "c.csv"
    code = main(["--config", str(cfg), "bench", "--tests", "1", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(open(out)))
    assert rows and rows[0]["alpha"] == "0.2"


def test_bench_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[bench]\npreset = table1\nbogus_key = 1\n")
    assert main(["--config", str(cfg), "bench"]) == 2


def test_predict_hierarchical_zero_spread_data(tmp_path, capsys):
    data = tmp_path / "h.csv"
    branches = [np.full(4, 2.5) for _ in range(3)]
    write_hier_csv(data, branches, target=(2, 3))
    out = tmp_path / "set.json"
    code = main(["predict-hierarchical", str(data), "--alpha", "0.2",
                 "--grid", "501", "--out", str(out)])
    assert code == 0
    payload = json.load(open(out))
    kept = [c for c, m in zip(payload["candidates"], payload["member"]) if m]
    assert kept and max(abs(c - 2.5) for c in kept) <= 0.02


def test_predict_hierarchical_coverage_over_seeds(tmp_path):
    alpha = 0.25
    rng = np.random.default_rng(0)
    covered = 0
    reps = 200
    for _ in range(reps):
        mu = rng.normal(0, 1.0, 2)
        branches = [mu[k] + rng.normal(0, 0.5, 5) for k in range(2)]
        truth = branches[-1][-1]
        data = tmp_path / "cov.csv"
        write_hier_csv(data, branches, target=(1, 4))
        out = tmp_path / "cov.json"
        assert main(["predict-hierarchical", str(data), "--alpha", str(alpha),
                     "--grid", "301", "--out", str(out)]) == 0
        payload = json.load(open(out))
        cands = np.array(payload["candidates"])
        member = np.array(payload["member"], dtype=bool)
        spacing = cands[1] - cands[0]
        covered += int(np.any(member & (np.abs(cands - truth) <= spacing)))
    se = np.sqrt(alpha * (1 - alpha) / reps)
    assert covered / reps >= 1 - alpha - 3 * se


def test_predict_hierarchical_single_branch_is_within_branch_conformal(tmp_path):
    rng = np.random.default_rng(1)
    vals = rng.normal(0, 1, 9)
    data = tmp_path / "one.csv"
    write_hier_csv(data, [vals], target=(0, 8))
    out = tmp_path / "one.json"
    assert main(["predict-hierarchical", str(data), "--alpha", "0.4",
                 "--grid", "401", "--out", str(out)]) == 0
    payload = json.load(open(out))
    assert any(payload["member"]) and not all(payload["member"])


def test_predict_hierarchical_supervised(tmp_path):
    rng = np.random.default_rng(2)
    xs = [rng.uniform(-0.5, 0.5, 10) for _ in range(4)]
    theta = [3.0, -2.0, 1.0, 0.5]
    ys = [theta[k] * xs[k] + rng.normal(0, 0.3, 10) for k in range(4)]
    data = tmp_path / "sup.csv"
    write_hier_csv(data, ys, target=(3, 9), xs=xs)
    out = tmp_path / "sup.json"
    code = main(["predict-hierarchical", str(data), "--mode", "sup",
                 "--alpha", "0.2", "--grid", "401", "--out", str(out)])
    assert code == 0
    payload = json.load(open(out))
    assert any(payload["member"])


def test_predict_hierarchical_supervised_multivariate_x(tmp_path):
    rng = np.random.default_rng(6)
    data = tmp_path / "mv.csv"
    with open(data, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["branch_id", "x_1", "x_2", "y"])
        for b in range(3):
            theta = rng.normal(0, 2, 2)
            for i in range(10):
                x = rng.uniform(-0.5, 0.5, 2)
                y = theta @ x + rng.normal(0, 0.3)
                w.writerow([b, x[0], x[1], "" if (b, i) == (2, 9) else y])
    out = tmp_path / "mv.json"
    assert main(["predict-hierarchical", str(data), "--mode", "sup",
                 "--alpha", "0.2", "--grid", "301", "--out", str(out)]) == 0
    payload = json.load(open(out))
    assert 0 < sum(payload["member"]) < len(payload["member"])


def test_predict_hierarchical_supervised_is_the_library_set_on_a_ragged_file(tmp_path):
    # the target is row 1 of an 8-row branch, in its training half as written
    rng = np.random.default_rng(11)
    sizes = [7, 8, 10, 6]
    theta = rng.normal(0, 2, 4)
    xs = [rng.uniform(-0.5, 0.5, n) for n in sizes]
    ys = [theta[k] * xs[k] + rng.normal(0, 0.3, n) for k, n in enumerate(sizes)]
    data, out = tmp_path / "ragged.csv", tmp_path / "ragged.json"
    write_hier_csv(data, ys, target=(1, 1), xs=xs)
    assert main(["predict-hierarchical", str(data), "--mode", "sup", "--alpha", "0.2",
                 "--grid", "301", "--out", str(out)]) == 0

    # by hand: the target branch goes last and the target row to its end,
    # then each branch's first ceil(n_k / 2) rows train and the rest calibrate
    bx = [xs[0], xs[2], xs[3], np.append(np.delete(xs[1], 1), xs[1][1])]
    by = [ys[0], ys[2], ys[3], np.delete(ys[1], 1)]
    m = [4, 5, 3, 4]
    tr_x, tr_y = [x[:n] for x, n in zip(bx, m)], [y[:n] for y, n in zip(by, m)]
    cal_x, cal_y = [x[n:] for x, n in zip(bx, m)], [y[n:] for y, n in zip(by, m)]
    x_new = cal_x[-1][-1]
    cal_x[-1] = cal_x[-1][:-1]
    ps = supervised_hierarchical_set(tr_x, tr_y, cal_x, cal_y, x_new,
                                     candidate_grid(np.concatenate(cal_y), 301), 0.2)
    assert 0 < ps.member.sum() < ps.member.size
    assert json.load(open(out)) == json.loads(json.dumps(prediction_set_payload(ps)))


def test_predict_hierarchical_supervised_one_row_donor_is_data_error(tmp_path, capsys):
    # a 1-row donor branch only trains: it has no calibration score to weigh
    rng = np.random.default_rng(4)
    sizes = [6, 1, 6, 6]
    xs = [rng.uniform(-0.5, 0.5, n) for n in sizes]
    ys = [k * xs[k] + rng.normal(0, 0.5, n) for k, n in enumerate(sizes)]
    data = tmp_path / "sup.csv"
    write_hier_csv(data, ys, target=(3, 5), xs=xs)
    assert main(["predict-hierarchical", str(data), "--mode", "sup", "--alpha", "0.2"]) == 3
    assert "every donor branch needs a calibration value" in capsys.readouterr().err


def test_predict_hierarchical_rejects_bad_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("branch_id,y\n0,1.0\n0,2.0\n")  # no missing target
    assert main(["predict-hierarchical", str(bad)]) == 3
    bad2 = tmp_path / "bad2.csv"
    bad2.write_text("branch_id,y\n0,\n0,\n")  # two targets
    assert main(["predict-hierarchical", str(bad2)]) == 3


def test_predict_hierarchical_rerun_byte_identical(tmp_path):
    rng = np.random.default_rng(9)
    branches = [rng.normal(0, 1, 6) for _ in range(3)]
    data = tmp_path / "d.csv"
    write_hier_csv(data, branches, target=(2, 5))
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert main(["predict-hierarchical", str(data), "--alpha", "0.2",
                     "--grid", "201", "--seed", "4", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_predict_graph_cycle6(tmp_path, capsys):
    rng = np.random.default_rng(3)
    vals = rng.normal(size=6)
    edges = [(i, (i + 1) % 6) for i in range(6)]
    vpath, apath = write_graph_files(tmp_path, vals, edges, missing=2)
    out = tmp_path / "g.json"
    code = main(["predict-graph", vpath, apath, "--alpha", "0.3", "--grid", "301",
                 "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "orbit size: 6" in text
    assert "automorphisms: 12" in text


def test_predict_graph_edgeless(tmp_path, capsys):
    rng = np.random.default_rng(4)
    vals = rng.normal(size=5)
    vpath = tmp_path / "v.csv"
    with open(vpath, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["vertex_id", "value"])
        for i, v in enumerate(vals):
            w.writerow([i, "" if i == 4 else repr(float(v))])
    apath = tmp_path / "a.csv"
    apath.write_text("\n".join(",".join("0" for _ in range(5)) for _ in range(5)))
    assert main(["predict-graph", str(vpath), str(apath), "--grid", "201"]) == 0
    assert "orbit size: 5" in capsys.readouterr().out


def test_predict_graph_asymmetric_warns_trivial(tmp_path, capsys):
    # a path with a pendant makes the target vertex fixed
    vals = [0.1, 0.2, 0.3, 0.4]
    edges = [(0, 1), (1, 2), (1, 3), (2, 3)]
    vpath, apath = write_graph_files(tmp_path, vals, edges, missing=0)
    assert main(["predict-graph", vpath, apath, "--grid", "101"]) == 0
    assert "trivial" in capsys.readouterr().out


def test_predict_graph_empty_values_file_is_data_error(tmp_path):
    vpath = tmp_path / "empty.csv"
    vpath.write_text("")
    apath = tmp_path / "adjacency.txt"
    apath.write_text("0 1\n1 2\n")
    assert main(["predict-graph", str(vpath), str(apath)]) == 3


def test_predict_graph_header_only_adjacency_is_data_error(tmp_path, capsys):
    vpath = write_graph_files(tmp_path, [0.1, 0.2, 0.3], [(0, 1), (1, 2)], 2)[0]
    apath = tmp_path / "header_only.csv"
    apath.write_text("u,v\n")
    assert main(["predict-graph", str(vpath), str(apath)]) == 3
    assert f"data error: {apath}: no edges or matrix rows" in capsys.readouterr().err


def test_predict_rotation(tmp_path, capsys):
    rng = np.random.default_rng(5)
    pts = rng.normal(0, np.sqrt(30), (12, 2))
    data = tmp_path / "rot.csv"
    np.savetxt(data, pts, delimiter=",")
    out = tmp_path / "rot.json"
    code = main(["predict-rotation", str(data), "--alpha", "0.05", "--mc", "399",
                 "--seed", "1", "--grid", "401", "--out", str(out)])
    assert code == 0
    assert "strip half-width" in capsys.readouterr().out


def test_equivariance_cli_pass_and_fail(capsys):
    assert main(["test-equivariance", "--map", "hier-unsup", "--samples", "2000",
                 "--seed", "0"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["test-equivariance", "--map", "sort", "--samples", "2000",
                 "--seed", "0"]) == 0
    assert "FAIL" in capsys.readouterr().out


def test_equivariance_cli_usage_errors(capsys):
    assert main(["test-equivariance", "--map", "sort", "--samples", "0"]) == 2
    assert main(["test-equivariance", "--map", "no-such-map"]) == 2


@pytest.mark.parametrize("argv", [
    ["bench", "--preset", "table1", "--alpha", "0.05", "1.5"],
    ["predict-hierarchical", "data.csv", "--alpha", "-0.1"],
    ["predict-graph", "values.csv", "adjacency.txt", "--alpha", "nan"],
    ["predict-rotation", "points.csv", "--alpha", "2"],
])
def test_alpha_outside_unit_interval_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert "alpha must be in [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("points", ["0", "1"])
@pytest.mark.parametrize("argv", [
    ["bench", "--preset", "table1"],
    ["predict-hierarchical", "data.csv"],
    ["predict-graph", "values.csv", "adjacency.txt"],
    ["predict-rotation", "points.csv"],
])
def test_grid_below_two_points_is_usage_error(argv, points, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv + ["--grid", points])
    assert e.value.code == 2
    assert "a grid needs at least 2 points" in capsys.readouterr().err


def test_predict_hierarchical_short_rows_are_data_errors(tmp_path, capsys):
    rows = ["b0,0.1,1.0", "b0,0.4,2.0", "b1,0.3,1.5", "b1,0.7,0.5"]
    data = tmp_path / "h.csv"
    for bad in ("b0", "b0,0.2"):
        data.write_text("\n".join(["branch_id,x,y"] + rows + ["b1,0.5,", bad]) + "\n")
        assert main(["predict-hierarchical", str(data)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and f"row {bad!r} has" in err
        assert "Traceback" not in err
    # a blank trailing y cell still marks the target
    data.write_text("\n".join(["branch_id,x,y"] + rows + ["b1,0.5,"]) + "\n")
    assert main(["predict-hierarchical", str(data), "--grid", "101"]) == 0


def test_predict_graph_short_rows_are_data_errors(tmp_path, capsys):
    apath = tmp_path / "adjacency.txt"
    apath.write_text("0 1\n1 2\n0 2\n")
    vpath = tmp_path / "values.csv"
    vpath.write_text("value,vertex_id\n0.1,0\n,1\n2.0\n")
    assert main(["predict-graph", str(vpath), str(apath)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "row '2.0' has 1 cells and no vertex_id" in err
    assert "Traceback" not in err
    # a row that ends before its value cell still marks the unobserved vertex
    vpath.write_text("vertex_id,value\n0,0.1\n1\n2,2.0\n")
    assert main(["predict-graph", str(vpath), str(apath), "--grid", "101"]) == 0


def test_random_sizes_option_is_gone(tmp_path):
    data = tmp_path / "h.csv"
    write_hier_csv(data, [np.arange(3.0), np.arange(4.0)], target=(1, 3))
    with pytest.raises(SystemExit) as e:
        main(["predict-hierarchical", str(data), "--random-sizes"])
    assert e.value.code == 2
    cfg = tmp_path / "run.ini"
    cfg.write_text("[predict-hierarchical]\nrandom-sizes = true\n")
    assert main(["--config", str(cfg), "predict-hierarchical", str(data)]) == 2


@pytest.mark.parametrize("command, text", [
    ("predict-hierarchical", "branch_id,y\na,1\na,2\na,inf\nb,3\nb,\nb,4\n"),
    ("predict-hierarchical", "branch_id,y\na,1\na,2\na,nan\nb,3\nb,\nb,4\n"),
    ("predict-hierarchical --mode sup",
     "branch_id,x,y\na,0.1,1\na,-inf,2\na,0.3,3\nb,0.2,3\nb,0.4,\nb,0.5,4\nb,0.7,4\n"),
    ("predict-graph", "vertex_id,value\n0,1\n1,inf\n2,\n3,2\n"),
    ("predict-rotation", "0.1,0.2\n-0.3,inf\n0.5,0.5\n"),
])
def test_non_finite_values_are_data_errors(tmp_path, capsys, command, text):
    data = tmp_path / "data.csv"
    data.write_text(text)
    argv = command.split() + [str(data)]
    if command == "predict-graph":
        adjacency = tmp_path / "cycle4.txt"
        adjacency.write_text("0 1\n1 2\n2 3\n3 0\n")
        argv.append(str(adjacency))
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("data error: ") and "finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("ids", [(0, 1, 2, 4), (0, 1, 1, 3), (1, 2, 3, 4)])
def test_predict_graph_ids_must_be_the_adjacency_vertices(tmp_path, capsys, ids):
    vpath = tmp_path / "values.csv"
    vpath.write_text("vertex_id,value\n" + "".join(
        f"{v},{'' if i == 2 else float(i)}\n" for i, v in enumerate(ids)))
    apath = tmp_path / "cycle4.txt"
    apath.write_text("0 1\n1 2\n2 3\n3 0\n")
    assert main(["predict-graph", str(vpath), str(apath)]) == 3
    assert "vertex ids must be 0..3, each once" in capsys.readouterr().err
    # the same values under the ids 0..3, in file order 3, 0, 1, 2, are a graph set
    vpath.write_text("vertex_id,value\n3,3.0\n0,0.0\n1,1.0\n2,\n")
    assert main(["predict-graph", str(vpath), str(apath), "--grid", "101"]) == 0


@pytest.mark.parametrize("edges, message", [
    ("0 1\n1 2\n2 -1\n", "vertex ids must be nonnegative, got edge 2 -1"),
    ("0 1 inf\n1 2\n2 0\n", "edge weights must be finite, got 'inf'"),
])
def test_predict_graph_bad_edge_lines_are_data_errors(tmp_path, capsys, edges, message):
    vpath = tmp_path / "values.csv"
    vpath.write_text("vertex_id,value\n0,0.5\n1,1.5\n2,\n")
    apath = tmp_path / "edges.txt"
    apath.write_text(edges)
    assert main(["predict-graph", str(vpath), str(apath)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("data error: ") and message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
