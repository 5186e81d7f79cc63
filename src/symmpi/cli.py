"""Command-line front end: benchmarks, CSV predictors, equivariance testing.

Every command is deterministic given --seed. Exit codes: 0 success, 2 usage
error, 3 data error, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import configparser
import sys

import numpy as np

from . import calibrate, dataio, groups, network, sim, transforms
from .dataio import DataError


class UsageError(ValueError):
    pass


PRESETS = {
    "table1": dict(supervised=False, branch_size=15),
    "table2": dict(supervised=True, branch_size=30),
    "table1-random": dict(supervised=False, branch_size=(10, 20)),
    "table2-random": dict(supervised=True, branch_size=(20, 40)),
}

EQUIVARIANCE_MAPS = ("hier-unsup", "identity", "median-dev", "sort")


def _alpha(text: str) -> float:
    """argparse type for a miscoverage level, checked as the library checks it."""
    value = float(text)
    try:
        calibrate._check_alpha(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _grid_points(text: str) -> int:
    """argparse type for a candidate grid size: an integer of at least 2."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"a grid needs at least 2 points, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="symmpi", description=__doc__)
    parser.add_argument("--config", help="INI file whose [<subcommand>] section supplies defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", help="run a benchmark table")
    b.add_argument("--preset", required=True, choices=sorted(PRESETS))
    b.add_argument("--alpha", type=_alpha, nargs="+", default=[0.05, 0.15])
    b.add_argument("--sigma2", type=float, nargs="+", default=[10.0])
    b.add_argument("--branches", type=int, default=20)
    b.add_argument("--trials", type=int, default=40)
    b.add_argument("--tests", type=int, default=100)
    b.add_argument("--c", type=float, default=2.0)
    b.add_argument("--grid", type=_grid_points, default=2001)
    b.add_argument("--studentize", action="store_true",
                   help="divide scores by the within-branch scale (see docs)")
    b.add_argument("--methods", nargs="+", default=None)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--threads", type=int, default=1)
    b.add_argument("--out", default=None)
    b.add_argument("--format", choices=["csv", "json"], default="csv")
    b.set_defaults(func=cmd_bench)

    p = sub.add_parser("predict-hierarchical", help="prediction set from a branch CSV")
    p.add_argument("data")
    p.add_argument("--alpha", type=_alpha, default=0.1)
    p.add_argument("--mode", choices=["unsup", "sup"], default="unsup")
    p.add_argument("--c", type=float, default=2.0)
    p.add_argument("--grid", type=_grid_points, default=2001)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="json")
    p.set_defaults(func=cmd_predict_hierarchical)

    g = sub.add_parser("predict-graph", help="vertex prediction set from value/adjacency CSVs")
    g.add_argument("values")
    g.add_argument("adjacency")
    g.add_argument("--alpha", type=_alpha, default=0.1)
    g.add_argument("--generators", default=None, help="file of permutations, one per line")
    g.add_argument("--cap", type=int, default=10)
    g.add_argument("--grid", type=_grid_points, default=2001)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None)
    g.add_argument("--format", choices=["csv", "json"], default="json")
    g.set_defaults(func=cmd_predict_graph)

    r = sub.add_parser("predict-rotation", help="strip-complement region from a point CSV")
    r.add_argument("data")
    r.add_argument("--alpha", type=_alpha, default=0.05)
    r.add_argument("--mc", type=int, default=400)
    r.add_argument("--grid", type=_grid_points, default=2001)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out", default=None)
    r.add_argument("--format", choices=["csv", "json"], default="json")
    r.set_defaults(func=cmd_predict_rotation)

    t = sub.add_parser("test-equivariance", help="two-sample test of a builtin map")
    t.add_argument("--map", required=True, dest="map_name")
    t.add_argument("--group", choices=["auto", "permutation", "block"], default="auto")
    t.add_argument("--samples", type=int, default=10_000)
    t.add_argument("--seed", type=int, default=0)
    t.set_defaults(func=cmd_test_equivariance)
    return parser


def _apply_config(parser, argv):
    """Use [<subcommand>] keys from --config as parser defaults."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    try:
        path = argv[i + 1]
    except IndexError:
        raise UsageError("--config needs a file path")
    if not argv[i + 2 :]:
        raise UsageError("--config requires a subcommand")
    command = argv[i + 2]
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise DataError(f"config file {path} not found")
    if not cp.has_section(command):
        return argv
    subparser = None
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            subparser = action.choices.get(command)
    if subparser is None:
        raise UsageError(f"unknown subcommand {command!r}")
    known = {}
    for action in subparser._actions:
        for opt in action.option_strings:
            known[opt.lstrip("-")] = action
    extra = []
    for key, value in cp.items(command):
        if key not in known:
            raise UsageError(f"unknown config key {key!r} in [{command}]")
        action = known[key]
        if isinstance(action, argparse._StoreTrueAction):
            if value.strip().lower() in ("1", "true", "yes"):
                extra.append(f"--{key}")
        else:
            extra.extend([f"--{key}"] + value.split())
    # config-derived options go right after the subcommand so explicit
    # flags, parsed later, win
    out = argv[: i + 3] + extra + argv[i + 3 :]
    del out[i : i + 2]
    return out


def cmd_bench(args) -> int:
    preset = PRESETS[args.preset]
    methods = tuple(args.methods) if args.methods else (
        ("symmpi", "conformal", "hcp", "single_tree")
        if isinstance(preset["branch_size"], tuple) and not preset["supervised"]
        else ("symmpi", "conformal", "subsampling", "single_tree")
    )
    all_rows = []
    for sigma2 in args.sigma2:
        cfg = sim.HierarchicalConfig(
            n_branches=args.branches,
            branch_size=preset["branch_size"],
            sigma2=sigma2,
            supervised=preset["supervised"],
            c=args.c,
            alphas=tuple(args.alpha),
            trials=args.trials,
            tests=args.tests,
            grid_points=args.grid,
            seed=args.seed,
            studentize=args.studentize,
        )
        all_rows.extend(sim.run_benchmark(cfg, methods=methods, threads=args.threads))
    print(sim.bench_table(all_rows))
    if args.out:
        dataio.write_bench_rows(all_rows, args.out, args.format)
        print(f"wrote {args.out}")
    return 0


def cmd_predict_hierarchical(args) -> int:
    order, xs, ys, target = dataio.read_hierarchical_csv(args.data)
    if args.mode == "sup" and xs is None:
        raise DataError("supervised mode needs x columns")
    bi, ri = target
    # Move the target branch last and the target row to its end; both moves
    # are symmetries of the model, and the split/quantile conventions assume
    # this position: the target row is then always a calibration row.
    def reorder(seq):
        seq = list(seq)
        seq.append(seq.pop(bi))
        seq[-1] = seq[-1][np.r_[np.delete(np.arange(len(seq[-1])), ri), ri]]
        return seq

    ys = reorder(ys)
    if args.mode == "unsup":
        # The branch-weighted quantile reduces to the flat one for equal
        # sizes, so ragged and fixed data share a single path.
        observed = ys[:-1] + [ys[-1][:-1]]
        grid = calibrate.candidate_grid(np.concatenate(observed), args.grid)
        ps = calibrate.symmpi_set_randomsize(observed, grid, args.alpha, c=args.c)
    else:
        xs, sizes = reorder(xs), [y.size for y in ys]
        train = np.split(calibrate._split_branches(sizes)[0], np.cumsum(sizes)[:-1])
        tr_x, cal_x = [x[m] for x, m in zip(xs, train)], [x[~m] for x, m in zip(xs, train)]
        tr_y, cal_y = [y[m] for y, m in zip(ys, train)], [y[~m] for y, m in zip(ys, train)]
        if not cal_y[-1].size:
            raise DataError("target branch needs at least one calibration point")
        x_new = cal_x[-1][-1]
        cal_x[-1], cal_y[-1] = cal_x[-1][:-1], cal_y[-1][:-1]
        grid = calibrate.candidate_grid(np.concatenate(cal_y), args.grid)
        ps = calibrate.supervised_hierarchical_set(
            tr_x, tr_y, cal_x, cal_y, x_new, grid, args.alpha, c=args.c
        )
    _report_set(ps, args)
    return 0


def cmd_predict_graph(args) -> int:
    values, missing = dataio.read_graph_values_csv(args.values)
    A = dataio.read_adjacency(args.adjacency)
    if A.shape[0] != values.size:
        raise DataError("adjacency size does not match the value count")
    gens = dataio.read_generators(args.generators, A.shape[0]) if args.generators else None
    aut = groups.enumerate_automorphisms(A, cap=args.cap, generators=gens)
    observed = values[~np.isnan(values)]
    grid = calibrate.candidate_grid(observed, args.grid)
    ps = network.graph_vertex_set(values, aut, missing, grid, args.alpha)
    print(f"automorphisms: {aut.order()}")
    print(f"orbit size: {ps.meta['orbit_size']}")
    print(f"over-coverage bound |H|/|G|: {ps.meta['overcoverage_bound']:.6g}")
    if ps.meta.get("trivial_orbit"):
        print("warning: the unobserved vertex is fixed by every automorphism; set is trivial")
    _report_set(ps, args)
    return 0


def cmd_predict_rotation(args) -> int:
    pts = np.loadtxt(args.data, delimiter=",", ndmin=2)
    if pts.shape[1] < 2:
        raise DataError("rotation data needs at least two coordinates per point")
    if not np.isfinite(pts).all():
        raise DataError("rotation coordinates must be finite numbers")
    rng = np.random.default_rng(args.seed)
    ps = sim.rotation_region(pts, args.alpha, mc_draws=args.mc, rng=rng, grid_points=args.grid)
    print(f"strip half-width: {ps.meta['strip_halfwidth']:.6g}")
    _report_set(ps, args)
    return 0


def cmd_test_equivariance(args) -> int:
    if args.samples < 1000:
        raise UsageError("--samples must be at least 1000")
    if args.map_name not in EQUIVARIANCE_MAPS:
        raise UsageError(f"unknown map {args.map_name!r}; choose from {EQUIVARIANCE_MAPS}")
    natural = "block" if args.map_name == "hier-unsup" else "permutation"
    if args.group not in ("auto", natural):
        raise UsageError(f"map {args.map_name!r} acts under the {natural} group")
    rng = np.random.default_rng(args.seed)
    if args.map_name == "hier-unsup":
        K, M = 3, 4
        group = groups.BlockPermutationGroup(K, M)

        def sampler(r, size):
            mu = r.normal(0.0, 1.0, (size, K))
            return mu[:, :, None] + r.normal(0.0, 1.0, (size, K, M))

        V = lambda z: transforms.hierarchical_unsup_transform(z, 2.0)
    else:
        n = 6
        group = groups.SymmetricGroup(n)

        def sampler(r, size):
            return r.normal(0.0, 1.0, (size, n))

        if args.map_name == "identity":
            V = lambda z: z
        elif args.map_name == "median-dev":
            V = lambda z: np.abs(z - np.median(z, axis=-1, keepdims=True))
        else:  # sort
            V = lambda z: np.sort(z, axis=-1)
    report = transforms.check_distributional_equivariance(V, sampler, group, args.samples, rng)
    verdict = "PASS" if report.passed else "FAIL"
    print(f"statistic: {report.statistic:.6g}")
    print(f"p-value: {report.p_value:.6g}")
    print(verdict)
    return 0


def _report_set(ps, args) -> None:
    ivs = ps.intervals()
    if ps.unbounded:
        print("prediction set: unbounded (every candidate kept)")
    else:
        if ps.edge_clipped:
            print("warning: the set reaches an end of the candidate grid; its length is a "
                  "lower bound", file=sys.stderr)
        print(f"length: {ps.length:.6g}")
        shown = ", ".join(f"[{lo:.6g}, {hi:.6g}]" for lo, hi in ivs[:4])
        more = "" if len(ivs) <= 4 else f" (+{len(ivs) - 4} more)"
        print(f"intervals: {shown}{more}")
    if args.out:
        dataio.write_prediction_set(ps, args.out, args.format)
        print(f"wrote {args.out}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
