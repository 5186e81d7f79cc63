"""Command-line front end: benchmarks, CSV predictors, equivariance testing.

Every command is deterministic given --seed. Exit codes: 0 success, 2 usage
error, 3 data error, 4 internal invariant violation.

Each command is declared once, in ``COMMANDS``; ``main`` declares the
arguments of the one it runs, and checks ``--config`` keys against them.
"""

from __future__ import annotations

import argparse
import configparser
import sys
import warnings
from typing import Callable, NamedTuple

import numpy as np

from . import calibrate, dataio, groups, network, transforms
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


def _number(text: str, name: str, check) -> float:
    """The body of an argparse type for a number option: ``text`` as a float,
    checked by the library's ``check``."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{name} must be a number, got {text!r}") from None
    try:
        check(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _alpha(text: str) -> float:
    """argparse type for a miscoverage level, checked as the library checks it."""
    return _number(text, "alpha", calibrate._check_alpha)


def _c(text: str) -> float:
    """argparse type for the centering threshold c, checked as the library
    checks it."""
    return _number(text, "c", calibrate._check_c)


def _sigma2(text: str) -> float:
    """argparse type for the benchmark's sigma2, checked as
    ``sim.HierarchicalConfig`` checks it."""
    from . import sim

    return _number(text, "sigma2", sim._check_sigma2)


def _seed(text: str) -> int:
    """argparse type for a seed: a nonnegative integer, as numpy's
    generators take."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"a seed must be an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"a seed must be nonnegative, got {value}")
    return value


def _grid_points(text: str) -> int:
    """argparse type for a candidate grid size: an integer of at least 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"a grid size must be an integer, got {text!r}") from None
    if value < 2:
        raise argparse.ArgumentTypeError(f"a grid needs at least 2 points, got {value}")
    return value


def cmd_bench(args) -> int:
    from . import sim

    for name in ("branches", "trials", "tests", "threads"):
        if getattr(args, name) < 1:
            raise UsageError(f"--{name} must be at least 1, got {getattr(args, name)}")
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
    order, branch, x, y, target = dataio.read_branch_rows(args.data)
    if args.mode == "sup" and x is None:
        raise DataError("supervised mode needs x columns")
    # Move the target branch last and the target row to its end; both moves
    # are symmetries of the model, and the split/quantile conventions assume
    # this position: the target row is then always a calibration row. One
    # stable sort puts the other branches in order of first appearance and
    # keeps each branch's rows in file order.
    bi = branch[target]
    key = np.where(branch == bi, len(order), branch)
    key[target] = len(order) + 1
    perm = np.argsort(key, kind="stable")
    sizes = np.bincount(branch)
    sizes = np.append(np.delete(sizes, bi), sizes[bi])
    if args.mode == "unsup":
        # The branch-weighted quantile reduces to the flat one for equal
        # sizes, so ragged and fixed data share a single path.
        observed = y[perm[:-1]]
        sizes[-1] -= 1
        grid = calibrate.candidate_grid(observed, args.grid)
        ps = calibrate._randomsize_set(observed, sizes, grid, args.alpha, args.c)
    else:
        train, n_train, n_cal = calibrate._split_branches(sizes)
        if not n_cal[-1]:
            raise DataError("target branch needs at least one calibration point")
        tr, cal = np.compress(train, perm), np.compress(~train, perm)
        cal_y = y[cal[:-1]]
        grid = calibrate.candidate_grid(cal_y, args.grid)
        ps = calibrate._supervised_set(x[tr], y[tr], n_train, x[cal], cal_y, n_cal, grid,
                                       args.alpha, args.c)
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
    if args.mc < 1:
        raise UsageError(f"--mc must be at least 1, got {args.mc}")
    rng = np.random.default_rng(args.seed)
    try:
        with warnings.catch_warnings():  # of an empty file, which rotation_region rejects
            warnings.simplefilter("ignore", UserWarning)
            pts = np.loadtxt(args.data, delimiter=",", ndmin=2)
        ps = calibrate.rotation_region(pts, args.alpha, mc_draws=args.mc, rng=rng,
                                       grid_points=args.grid)
    except ValueError as exc:
        raise DataError(f"{args.data}: {exc}") from None
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



class Command(NamedTuple):
    help: str
    handler: Callable[[argparse.Namespace], int]
    args: tuple  # (name or flag, add_argument keywords) pairs, in help order


GRID = ("--grid", dict(type=_grid_points, default=2001))
SEED = ("--seed", dict(type=_seed, default=0))
OUT = ("--out", dict(default=None))
FORMAT = ("--format", dict(choices=["csv", "json"], default="json"))

COMMANDS = {
    "bench": Command("run a benchmark table", cmd_bench, (
        ("--preset", dict(required=True, choices=sorted(PRESETS))),
        ("--alpha", dict(type=_alpha, nargs="+", default=[0.05, 0.15])),
        ("--sigma2", dict(type=_sigma2, nargs="+", default=[10.0])),
        ("--branches", dict(type=int, default=20)),
        ("--trials", dict(type=int, default=40)),
        ("--tests", dict(type=int, default=100)),
        ("--c", dict(type=_c, default=2.0)),
        GRID,
        ("--studentize", dict(action="store_true",
                              help="divide scores by the within-branch scale (see docs)")),
        ("--methods", dict(nargs="+", default=None)),
        SEED,
        ("--threads", dict(type=int, default=1)),
        OUT,
        ("--format", dict(FORMAT[1], default="csv")),
    )),
    "predict-hierarchical": Command("prediction set from a branch CSV", cmd_predict_hierarchical, (
        ("data", {}),
        ("--alpha", dict(type=_alpha, default=0.1)),
        ("--mode", dict(choices=["unsup", "sup"], default="unsup")),
        ("--c", dict(type=_c, default=2.0)),
        GRID, SEED, OUT, FORMAT,
    )),
    "predict-graph": Command(
        "vertex prediction set from value/adjacency CSVs", cmd_predict_graph, (
        ("values", {}),
        ("adjacency", {}),
        ("--alpha", dict(type=_alpha, default=0.1)),
        ("--generators", dict(default=None, help="file of permutations, one per line")),
        ("--cap", dict(type=int, default=groups.AUTOMORPHISM_SEARCH_CAP)),
        GRID, SEED, OUT, FORMAT,
    )),
    "predict-rotation": Command("strip-complement region from a point CSV", cmd_predict_rotation, (
        ("data", {}),
        ("--alpha", dict(type=_alpha, default=0.05)),
        ("--mc", dict(type=int, default=400)),
        GRID, SEED, OUT, FORMAT,
    )),
    "test-equivariance": Command("two-sample test of a builtin map", cmd_test_equivariance, (
        ("--map", dict(required=True, dest="map_name")),
        ("--group", dict(choices=["auto", "permutation", "block"], default="auto")),
        ("--samples", dict(type=int, default=10_000)),
        SEED,
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser that lists every command by its help; -h shows the module
    docstring less its last paragraph. It declares no command's arguments:
    ``_command_parser`` parses those."""
    parser = argparse.ArgumentParser(prog="symmpi", description=__doc__.rsplit("\n\n", 1)[0],
                                     allow_abbrev=False)
    parser.add_argument("--config", help="INI file whose [<subcommand>] section supplies defaults")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        sub.add_parser(name, help=cmd.help)
    return parser


def _command_parser(command: str) -> argparse.ArgumentParser:
    """The parser of one command's arguments, made as ``add_parser`` makes the
    subparser: the same prog, no description and the default ``allow_abbrev``,
    so its help and its errors are the subparser's."""
    parser = argparse.ArgumentParser(prog=f"symmpi {command}")
    for arg, kwargs in COMMANDS[command].args:
        parser.add_argument(arg, **kwargs)
    return parser


def _parse_args(argv: list) -> argparse.Namespace:
    """argv parsed by its command's parser when it names one, into the
    namespace ``build_parser`` gives (``--config`` was read by
    ``_apply_config``). The arguments that parser leaves over are refused by
    ``build_parser``'s, which reports a subparser's unrecognized arguments;
    it parses every other argv."""
    if argv and argv[0] in COMMANDS:
        args, extra = _command_parser(argv[0]).parse_known_args(
            argv[1:], argparse.Namespace(config=None, command=argv[0]))
        if extra:
            build_parser().error(f"unrecognized arguments: {' '.join(extra)}")
        return args
    return build_parser().parse_args(argv)


def _apply_config(argv):
    """argv less a leading ``--config PATH`` or ``--config=PATH``, with that INI file's
    [<command>] keys as options right after the command: explicit flags, parsed later, win."""
    if argv and argv[0].startswith("--config="):
        argv = argv[0].split("=", 1) + argv[1:]
    if argv[:1] != ["--config"]:
        return argv
    if len(argv) < 3:
        raise UsageError("--config needs a file path" if len(argv) == 1
                         else "--config requires a subcommand")
    path, command, argv = argv[1], argv[2], argv[2:]
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise DataError(f"config file {path} not found")
    if not cp.has_section(command):
        return argv
    if command not in COMMANDS:
        raise UsageError(f"unknown subcommand {command!r}")
    known = {arg[2:]: kwargs for arg, kwargs in COMMANDS[command].args if arg.startswith("--")}
    extra = []
    for key, value in cp.items(command):
        if key not in known:
            raise UsageError(f"unknown config key {key!r} in [{command}]")
        if known[key].get("action") != "store_true":
            extra.extend([f"--{key}"] + value.split())
        elif value.strip().lower() in ("1", "true", "yes"):
            extra.append(f"--{key}")
    return argv[:1] + extra + argv[1:]


def main(argv=None) -> int:
    try:
        argv = _apply_config(list(sys.argv[1:] if argv is None else argv))
        args = _parse_args(argv)
        return COMMANDS[args.command].handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
