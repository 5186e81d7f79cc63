import argparse
import csv
import io
import json
import tempfile
import warnings
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from symmpi.calibrate import (candidate_grid, score_intervals, supervised_hierarchical_set,
                              symmpi_set_randomsize)
from symmpi import cli
from symmpi.cli import main
from symmpi.dataio import prediction_set_payload, write_prediction_set


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


@pytest.mark.parametrize("preset", ["table1", "table1-random", "table2", "table2-random",
                                    "table1_studentized", "table2_studentized"])
def test_bench_csv_matches_golden_output(preset, tmp_path, capsys):
    # tests/golden holds each preset's CSV at this size, and the table
    # presets' with --studentize; any change to a draw, a set or the
    # arithmetic of a row shows as a byte difference
    out = tmp_path / "bench.csv"
    name, _, studentized = preset.partition("_")
    assert main(["bench", "--preset", name, "--trials", "2", "--tests", "12", "--grid", "201",
                 "--sigma2", "0.5", "10", "--out", str(out)]
                + (["--studentize"] if studentized else [])) == 0
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


def handed_args(monkeypatch, argv):
    """The namespace that ``main(argv)`` hands its command's handler."""
    seen = []
    for name, command in cli.COMMANDS.items():
        monkeypatch.setitem(cli.COMMANDS, name,
                            command._replace(handler=lambda args: seen.append(args) or 0))
    assert main(argv) == 0
    (args,) = seen
    return args


def test_config_spellings_give_the_same_output(tmp_path, capsys):
    data = tmp_path / "d.csv"
    write_hier_csv(data, [np.arange(4.0), np.arange(5.0) / 2], target=(1, 4))
    cfg = tmp_path / "run.ini"
    cfg.write_text("[predict-hierarchical]\nalpha = 0.3\ngrid = 101\n")
    out = tmp_path / "set.json"
    outputs = []
    for spelling in (["--config", str(cfg)], [f"--config={cfg}"]):
        assert main(spelling + ["predict-hierarchical", str(data), "--out", str(out)]) == 0
        outputs.append((capsys.readouterr(), out.read_bytes()))
    assert outputs[0] == outputs[1]
    assert len(json.loads(outputs[0][1])["candidates"]) == 101
    # an abbreviation of --config is not taken for it
    with pytest.raises(SystemExit) as e:
        main(["--conf", str(cfg), "predict-hierarchical", str(data)])
    assert e.value.code == 2


@pytest.mark.parametrize("section, argv, expected", [
    ("studentize = yes", [], {"studentize": True, "alpha": [0.05, 0.15]}),
    ("studentize = no", [], {"studentize": False}),
    ("studentize = no", ["--studentize"], {"studentize": True}),
    ("alpha = 0.05 0.2 0.3", [], {"alpha": [0.05, 0.2, 0.3], "studentize": False}),
    ("alpha = 0.05 0.2\nstudentize = true", ["--alpha", "0.4"],
     {"alpha": [0.4], "studentize": True}),
])
def test_config_keys_of_flags_and_lists(tmp_path, monkeypatch, section, argv, expected):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[other]\nx = 1\n[bench]\npreset = table1\n{section}\n")
    args = handed_args(monkeypatch, ["--config", str(cfg), "bench"] + argv)
    assert args.preset == "table1"
    assert {key: getattr(args, key) for key in expected} == expected


@pytest.mark.parametrize("text, command, message", [
    ("[bench]\npreset = table1\nbogus_key = 1\n", "bench",
     "unknown config key 'bogus_key' in [bench]"),
    ("[predict-graph]\nvalues = v.csv\n", "predict-graph",
     "unknown config key 'values' in [predict-graph]"),
    ("[bogus]\nx = 1\n", "bogus", "unknown subcommand 'bogus'"),
])
def test_config_sections_and_keys_must_be_declared(tmp_path, capsys, text, command, message):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    for spelling in (["--config", str(cfg)], [f"--config={cfg}"]):
        assert main(spelling + [command]) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["--config"], "--config needs a file path"),
    (["--config", "run.ini"], "--config requires a subcommand"),
    (["--config=run.ini"], "--config requires a subcommand"),
])
def test_config_needs_a_path_and_a_command(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_a_call_declares_only_its_own_arguments(tmp_path, monkeypatch, capsys):
    # a known command is parsed by its own parser alone; build_parser only
    # refuses the arguments that parser leaves over
    built, make = [], cli._command_parser
    monkeypatch.setattr(cli, "_command_parser",
                        lambda command: built.append(make(command)) or built[-1])
    full, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: full.append(build()) or full[-1])
    data = tmp_path / "d.csv"
    write_hier_csv(data, [np.arange(4.0), np.arange(5.0) / 2], target=(1, 4))
    assert main(["predict-hierarchical", str(data), "--grid", "101"]) == 0
    (parser,) = built
    assert full == []
    own = {arg for arg, _ in cli.COMMANDS["predict-hierarchical"].args if arg.startswith("--")}
    others = {arg for cmd in cli.COMMANDS.values() for arg, _ in cmd.args
              if arg.startswith("--")} - own
    usage = parser.format_usage()
    assert all(f"[{arg} " in usage for arg in own)
    for arg in sorted(others):
        assert arg in parser.parse_known_args([str(data), arg, "1"])[1]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["predict-hierarchical", str(data), "--preset", "table1"])
    (top,) = full
    assert exc.value.code == 2
    assert capsys.readouterr().err == (top.format_usage() + "symmpi: error: "
                                       "unrecognized arguments: --preset table1\n")


def _full_parser(command):
    """``build_parser()`` with ``command``'s arguments declared on its subparser."""
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for arg, kwargs in cli.COMMANDS[command].args:
        sub.choices[command].add_argument(arg, **kwargs)
    return parser


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_a_command_parser_helps_as_its_subparser(command, capsys):
    with pytest.raises(SystemExit) as exc:
        _full_parser(command).parse_args([command, "-h"])
    assert exc.value.code == 0
    want = capsys.readouterr().out
    assert cli._command_parser(command).format_help() == want
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == 0 and capsys.readouterr().out == want


CALLS = {
    "bench": ["--preset", "table1", "--alpha", "0.1", "0.2", "--studentize"],
    "predict-hierarchical": ["d.csv", "--mode", "sup", "--grid", "101"],
    "predict-graph": ["v.csv", "a.csv", "--cap", "8", "--format", "csv"],
    "predict-rotation": ["p.csv", "--mc", "50", "--out", "r.json"],
    "test-equivariance": ["--map", "mean", "--samples", "20"],
}


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_a_command_call_parses_as_through_the_full_parser(command):
    # the namespace holds the top-level options as build_parser gives them,
    # so a top-level option added there must be added to _parse_args too
    argv = [command, *CALLS[command]]
    assert cli._parse_args(argv) == _full_parser(command).parse_args(argv)
    assert vars(cli.build_parser().parse_args([command])).keys() < vars(cli._parse_args(argv)).keys()


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


@st.composite
def set_files(draw):
    """A branch file whose set the library builds: (mode, rows, target,
    alpha, number of x columns), where ``rows`` holds the (branch, x, y)
    rows in file order, interleaved across ragged branches, and ``target``
    is the row whose y is blank: in the first branch of the file, the last
    row of a branch, a row of a branch's training half, or any row."""
    mode = draw(st.sampled_from(["unsup", "sup"]))
    d = draw(st.sampled_from([1, 2])) if mode == "sup" else 0
    # supervised branches keep a calibration row; with two x columns every
    # fitted branch needs three training rows
    low = {0: 1, 1: 2, 2: 5}[d]
    sizes = draw(st.lists(st.integers(low, low + 5), min_size=1 if d == 0 else 2, max_size=5))
    sizes[0] += sum(sizes) < 2  # a value besides the target's, for the grid
    slots = draw(st.permutations([(b, i) for b, n in enumerate(sizes) for i in range(n)]))
    where = draw(st.sampled_from(["first branch", "last row", "training half", "any"]))
    b = slots[0][0] if where == "first branch" else draw(st.integers(0, len(sizes) - 1))
    i = {"last row": sizes[b] - 1, "training half": (sizes[b] - 1) // 2}.get(where)
    if i is None:
        i = draw(st.integers(0, sizes[b] - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = rng.normal(0.0, 3.0, (len(sizes), max(d, 1)))
    mu = rng.normal(0.0, draw(st.sampled_from([0.0, 0.5, 5.0])), len(sizes))
    rows = []
    for k, _ in slots:
        x = rng.uniform(-0.5, 0.5, d)
        rows.append((k, x, float(mu[k] + x @ theta[k, :d] + rng.normal(0.0, 0.5))))
    target = slots.index((b, i))
    return mode, rows, target, draw(st.sampled_from([0.1, 0.2, 0.35])), d


@settings(max_examples=60, deadline=None)
@given(case=set_files())
def test_predict_hierarchical_is_the_library_set(case):
    """The command line's JSON is the library's set, built by hand from the
    per-branch lists in either mode."""
    mode, rows, target, alpha, d = case
    xnames = ["x"] if d == 1 else [f"x_{j}" for j in range(d)]
    with tempfile.TemporaryDirectory() as tmp:
        data, out, want = (Path(tmp) / name for name in ("h.csv", "cli.json", "lib.json"))
        with open(data, "w", newline="") as fh:
            fh.write(",".join(["branch_id", *xnames, "y"]) + "\n")
            for r, (k, x, y) in enumerate(rows):
                cells = [f"b{k}", *map(repr, x.tolist()), "" if r == target else repr(y)]
                fh.write(",".join(cells) + "\n")
        with redirect_stdout(io.StringIO()):
            assert main(["predict-hierarchical", str(data), "--mode", mode, "--alpha",
                         str(alpha), "--grid", "101", "--out", str(out)]) == 0

        # by hand: the other branches in order of first appearance, then the
        # target's branch with the target row moved to its end
        bt = rows[target][0]
        order = [k for k in dict.fromkeys(k for k, _, _ in rows) if k != bt] + [bt]
        picked = [[r for r in range(len(rows)) if rows[r][0] == k and r != target]
                  for k in order]
        picked[-1].append(target)
        bx = [np.array([rows[r][1] for r in rs]) for rs in picked]
        by = [np.array([rows[r][2] for r in rs]) for rs in picked]
        if mode == "unsup":
            observed = by[:-1] + [by[-1][:-1]]
            ps = symmpi_set_randomsize(observed, candidate_grid(np.concatenate(observed), 101),
                                       alpha)
        else:
            bx = [x[:, 0] for x in bx] if d == 1 else bx
            m = [(y.size + 1) // 2 for y in by]
            tr_x, tr_y = [x[:n] for x, n in zip(bx, m)], [y[:n] for y, n in zip(by, m)]
            cal_x, cal_y = [x[n:] for x, n in zip(bx, m)], [y[n:] for y, n in zip(by, m)]
            x_new, cal_x[-1], cal_y[-1] = cal_x[-1][-1], cal_x[-1][:-1], cal_y[-1][:-1]
            ps = supervised_hierarchical_set(tr_x, tr_y, cal_x, cal_y, x_new,
                                             candidate_grid(np.concatenate(cal_y), 101), alpha)
        write_prediction_set(ps, want)
        assert out.read_bytes() == want.read_bytes()


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


def test_predict_graph_star_beyond_the_default_cap(tmp_path, capsys):
    rng = np.random.default_rng(12)
    vals = rng.normal(size=13)
    vpath, apath = write_graph_files(tmp_path, vals, [(0, j) for j in range(1, 13)], missing=12)
    out = tmp_path / "g.json"
    assert main(["predict-graph", vpath, apath, "--cap", "13", "--alpha", "0.2",
                 "--grid", "301", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "automorphisms: 479001600" in text
    assert "orbit size: 12" in text
    grid = candidate_grid(vals[:12], 301)
    want = score_intervals(vals[1:12][None], (0.2,)).member(grid[None])[0, 0]
    assert json.loads(out.read_text())["member"] == want.astype(int).tolist()


def test_predict_graph_on_a_1000_vertex_tree(tmp_path, capsys):
    A = oracles.random_tree(1000, 5)
    edges = [(u, v) for u, v in zip(*np.nonzero(np.triu(A)))]
    # a leaf with a sibling leaf, so that its orbit is not trivial
    leaves = np.flatnonzero(A.sum(axis=1) == 1)
    parent = A[leaves].argmax(axis=1)
    target = int(leaves[np.flatnonzero(np.bincount(parent)[parent] > 1)[0]])
    vals = np.random.default_rng(13).normal(size=1000)
    vpath, apath = write_graph_files(tmp_path, vals, edges, missing=target)
    assert main(["predict-graph", vpath, apath, "--cap", "1000", "--grid", "101"]) == 0
    text = capsys.readouterr().out
    assert f"automorphisms: {oracles.tree_automorphism_count(A)}\n" in text
    assert "trivial" not in text


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


def test_predict_rotation_matches_golden_output(tmp_path, capsys):
    # tests/golden holds 12 seeded 2-D points and their region at a 401-point grid
    golden = Path(__file__).parent / "golden"
    out = tmp_path / "region.json"
    assert main(["predict-rotation", str(golden / "rot_points.csv"), "--alpha", "0.1", "--mc",
                 "399", "--seed", "1", "--grid", "401", "--out", str(out)]) == 0
    assert out.read_bytes() == (golden / "predict_rotation.json").read_bytes()
    assert capsys.readouterr().out == (
        "strip half-width: 0.202082\nlength: 6.3656\n"
        f"intervals: [-3.36804, -0.202082], [0.202082, 3.36804]\nwrote {out}\n")


@pytest.mark.parametrize("text, problem", [
    ("", "at least one observed point"),
    ("0.5,x\n", "could not convert"),
    ("0.5,0.1\n0.3\n", "number of columns changed"),
])
def test_predict_rotation_names_the_file_it_cannot_read(tmp_path, capsys, text, problem):
    data = tmp_path / "points.csv"
    data.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["predict-rotation", str(data)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"data error: {data}: ") and problem in captured.err
    assert captured.out == ""


def test_predict_rotation_one_coordinate(tmp_path, capsys):
    # p = 1: the region is the complement of a strip around zero on the line
    data = tmp_path / "line.csv"
    data.write_text("0.5\n-1.2\n2.0\n0.3\n")
    out = tmp_path / "line.json"
    assert main(["predict-rotation", str(data), "--alpha", "0.5", "--seed", "1", "--grid", "101",
                 "--out", str(out)]) == 0
    assert "strip half-width: 0.56" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert len(payload["candidates"]) == 101 and payload["transverse_height"] == 0.0
    assert np.allclose(payload["intervals"], [[-4.0, -0.56], [0.56, 4.0]])


@pytest.mark.parametrize("option, value, text", [
    ("--alpha", "x", "alpha must be a number, got 'x'"),
    ("--grid", "x", "a grid size must be an integer, got 'x'"),
    ("--grid", "2.5", "a grid size must be an integer, got '2.5'"),
])
@pytest.mark.parametrize("argv", [["bench", "--preset", "table1"], ["predict-rotation", "p.csv"]])
def test_unparsable_option_values_are_usage_errors(argv, option, value, text, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv + [option, value])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: {text}" in err and "invalid" not in err


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


@pytest.mark.parametrize("value", ["-1", "-0.3", "nan", "-inf"])
@pytest.mark.parametrize("argv", [
    ["bench", "--preset", "table1"],
    ["predict-hierarchical", "data.csv"],
])
def test_c_that_is_negative_or_not_a_number_is_usage_error(argv, value, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv + [f"--c={value}"])
    assert e.value.code == 2
    assert "argument --c: c must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["bench", "--preset", "table1"], ["predict-hierarchical", "d.csv"]])
def test_c_that_is_no_number_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv + ["--c", "two"])
    assert e.value.code == 2
    assert "argument --c: c must be a number, got 'two'" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("c, sigma2", [("inf", ["0.5", "10"]), ("1e150", ["1e10"]),
                                       ("1e140", ["1e10", "1e-6"])])
def test_bench_with_huge_c_warns_of_nothing(c, sigma2, capsys):
    """c = inf is valid: every branch is centered at the grand mean. The
    harness's hole count of the unstudentized sets ranks a test whole where
    c, or c times its data, would overflow the hole form's arithmetic, so
    it warns of nothing."""
    assert main(["bench", "--preset", "table1", "--trials", "1", "--tests", "6", "--grid", "101",
                 "--sigma2", *sigma2, "--c", c, "--methods", "symmpi"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 2 * len(sigma2) and all("symmpi" in r for r in rows)


@pytest.mark.parametrize("preset, method", [("table1", "subsampling"), ("table1-random", "hcp"),
                                            ("table2", "subsampling"),
                                            ("table2-random", "subsampling")])
def test_bench_on_one_branch_gives_donor_methods_unbounded_sets(preset, method, tmp_path):
    """With one branch there is no donor branch: the subsampling and
    first-observation sets keep every candidate, as the library's sets do
    without calibration scores."""
    out = tmp_path / "one.csv"
    assert main(["bench", "--preset", preset, "--branches", "1", "--trials", "1", "--tests", "2",
                 "--grid", "51", "--out", str(out)]) == 0
    rows = [r for r in csv.DictReader(open(out)) if r["method"] == method]
    assert len(rows) == 2
    assert all(float(r["unbounded_rate"]) == 1.0 and float(r["mean_coverage"]) == 1.0
               for r in rows)


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


@pytest.mark.parametrize("draws", ["0", "-1"])
def test_mc_draws_below_one_is_usage_error(draws, capsys):
    assert main(["predict-rotation", "points.csv", "--mc", draws]) == 2
    assert f"usage error: --mc must be at least 1, got {draws}" in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [("--tests", "0"), ("--trials", "0"),
                                           ("--tests", "-2"), ("--threads", "0"),
                                           ("--branches", "0"), ("--sigma2", "-1"),
                                           ("--sigma2", "nan")])
def test_bench_counts_below_one_are_usage_errors(option, value, capsys):
    """A count below 1, and a negative or NaN sigma2 (refused by its argparse
    type, as --c is), are usage errors that name their option."""
    if option == "--sigma2":
        with pytest.raises(SystemExit) as e:
            main(["bench", "--preset", "table1", option, value])
        assert e.value.code == 2
        want = f"argument --sigma2: sigma2 must be nonnegative, got {float(value)!r}"
    else:
        assert main(["bench", "--preset", "table1", option, value]) == 2
        want = f"usage error: {option} must be at least 1, got {value}"
    assert want in capsys.readouterr().err


@pytest.mark.parametrize("value, message", [("-1", "must be nonnegative, got -1"),
                                            ("1.5", "must be an integer, got '1.5'")])
@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_a_negative_seed_is_a_usage_error(command, value, message, capsys):
    with pytest.raises(SystemExit) as e:
        main([command, *CALLS[command], "--seed", value])
    assert e.value.code == 2
    assert f"argument --seed: a seed {message}" in capsys.readouterr().err


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


@pytest.mark.parametrize("mode, text, message", [
    ("unsup", "branch_id,y\na,1\na,abc\nb,3\nb,\n",
     "row 'a,abc' has 'abc' in column 'y', which is not a number"),
    ("sup", "branch_id,x,y\na,0.1,1\na,0.2,2\nb, zz ,3\nb,0.4,\nb,0.5,4\n",
     "row 'b, zz ,3' has 'zz' in column 'x', which is not a number"),
])
def test_cells_that_are_not_numbers_are_named(tmp_path, capsys, mode, text, message):
    data = tmp_path / "data.csv"
    data.write_text(text)
    assert main(["predict-hierarchical", str(data), "--mode", mode]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"data error: {data}: {message}\n"
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("rows, message", [
    ("0,0.5\nx,1.5\n2,\n", "row 'x,1.5' has 'x' in column 'vertex_id', which is not an integer"),
    ("0,0.5\n1.0,1.5\n2,\n",
     "row '1.0,1.5' has '1.0' in column 'vertex_id', which is not an integer"),
    ("0,0.5\n1, abc\n2,\n", "row '1, abc' has 'abc' in column 'value', which is not a number"),
])
def test_predict_graph_cells_that_are_not_numbers_are_named(tmp_path, capsys, rows, message):
    vpath = tmp_path / "values.csv"
    vpath.write_text("vertex_id,value\n" + rows)
    apath = tmp_path / "cycle3.txt"
    apath.write_text("0 1\n1 2\n2 0\n")
    assert main(["predict-graph", str(vpath), str(apath)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"data error: {vpath}: {message}\n" and captured.out == ""


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


@pytest.mark.parametrize("edges, order", [("0 1\n1 2\n", 2), ("0 1 1\n1 2 1\n2 0 1\n", 6)])
def test_predict_graph_reads_square_edge_lists_as_edges(tmp_path, capsys, edges, order):
    vpath = tmp_path / "values.csv"
    vpath.write_text("vertex_id,value\n0,\n1,1.5\n2,0.5\n")
    apath = tmp_path / "edges.txt"
    apath.write_text(edges)
    assert main(["predict-graph", str(vpath), str(apath), "--grid", "101"]) == 0
    assert f"automorphisms: {order}" in capsys.readouterr().out


@pytest.mark.parametrize("edges, message", [
    ("0 1\n1 2\n2 -1\n", "vertex ids must be nonnegative, got edge 2 -1"),
    ("0 1 inf\n1 2\n2 0\n", "edge weights must be finite, got 'inf'"),
    ("0,1,0\n1,0,inf\n0,inf,0\n", "entries must be finite, got 'inf' between vertices 1 and 2"),
    ("0,1,nan\n1,0,1\nnan,1,0\n", "entries must be finite, got 'nan' between vertices 0 and 2"),
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
