"""The four workloads: their inputs, operations and output checks.

A workload turns a seed into one round: a fixed list of operations on fresh
inputs. The worker replays that round until the run's time is up. Every
operation builds its own group objects, as one CLI invocation would, and calls
the program through its module attributes, so that the tracer's wrappers see
each call. Checks run on the first round's outputs; later rounds must give
byte-identical outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from symmpi import calibrate, cli, groups, network, sim, transforms

import checks


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    sets: int
    group_order: int | None = None  # |G| when the builder enumerates the group
    info: dict = field(default_factory=dict)


def _rng(seed, *path):
    return np.random.default_rng([seed, *path])


def _last_entry(z):
    """psi for (..., K, M) block data: the final entry of the final block."""
    return np.asarray(z)[..., -1, -1]


def _last_coordinate(z):
    return np.asarray(z)[..., -1]


def _append(observed, c):
    return np.append(observed, c)


def _hier_v(z):
    return transforms.hierarchical_unsup_transform(z, 2.0)


class Workload:
    name = ""

    def round(self, seed: int, workdir: str, small: bool = False) -> list[Op]:
        """The seed's round of operations; ``small`` gives the warm-up instance."""
        raise NotImplementedError

    def warmup(self, workdir: str) -> None:
        for op in self.round(0, workdir, small=True):
            self.collect(op, op.run())

    def collect(self, op: Op, raw):
        """Turn an operation's return value into its comparable output."""
        return raw

    def failed(self, op: Op, raw) -> bool:
        return False

    def written(self, op: Op, out) -> int:
        """Bytes the operation wrote to its output file."""
        return 0

    def fingerprint(self, op: Op, out) -> bytes:
        raise NotImplementedError

    def check(self, ops: list[Op], outs: list) -> list[str]:
        raise NotImplementedError


# --------------------------------------------------------------------------
# hier-predict: the CLI on branch CSVs at the default 2001-point grid
# --------------------------------------------------------------------------


def _write_branch_csv(path, branches, xs, target):
    bi, ri = target
    with open(path, "w") as fh:
        fh.write("branch_id,x,y\n" if xs is not None else "branch_id,y\n")
        for b, ys in enumerate(branches):
            for r, y in enumerate(ys):
                cell = "" if (b, r) == target else repr(float(y))
                if xs is not None:
                    fh.write(f"b{b},{float(xs[b][r])!r},{cell}\n")
                else:
                    fh.write(f"b{b},{cell}\n")


class HierPredict(Workload):
    """Fixed-size and ragged unsupervised files, and ragged supervised files.

    The unsupervised files have the ROADMAP's table-1 shape: K = 20 branches
    of M = 15 rows, or of 15 +- 3 rows. The supervised files have table 2's
    branch size, 30 +- 6 rows, but K = 160 branches, so that a supervised call
    costs about as much as an unsupervised one (at K = 20 it costs a seventh).
    Ragged sizes are a seeded permutation of fixed offsets that sum to zero,
    so every seed's files hold the same number of rows.
    """

    name = "hier-predict"
    GRID = 2001  # the CLI's default, which the operations do not override
    FIXED, RAGGED, SUP = 2, 2, 4
    K, UNSUP_M = 20, 15
    SUP_K, SUP_M, SUP_STEP = 160, 30, 2
    OFFSETS = (-3, -2, -2, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 3)
    SUP_ALPHAS = (0.1, 0.2)

    def _cli(self, argv, out):
        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv + ["--out", out])

        return run

    def _ragged(self, rng, k, m, step=1):
        return m + step * rng.permutation(np.resize(self.OFFSETS, k))

    def round(self, seed, workdir, small=False):
        ops = []
        n_fixed, n_ragged, n_sup = (1, 1, 1) if small else (self.FIXED, self.RAGGED, self.SUP)
        grid = ["--grid", "51"] if small else []
        K = self.K
        for i in range(n_fixed + n_ragged):
            rng = _rng(seed, 0, i)
            if i < n_fixed:
                sizes = np.full(K, self.UNSUP_M)
            else:
                sizes = self._ragged(rng, K, self.UNSUP_M)
            mu = rng.normal(0.0, (10.0, 2.0, 0.5, 0.0)[i % 4], K)
            branches = [mu[k] + rng.normal(0.0, 0.5, int(n)) for k, n in enumerate(sizes)]
            bi = int(rng.integers(K))
            ri = int(rng.integers(sizes[bi]))
            path = os.path.join(workdir, f"unsup{i}.csv")
            _write_branch_csv(path, branches, None, (bi, ri))
            donors = [b for k, b in enumerate(branches) if k != bi]
            observed = donors + [np.delete(branches[bi], ri)]
            alpha = (0.1, 0.2)[i % 2]
            out = os.path.join(workdir, f"unsup{i}.json")
            ops.append(Op(
                "unsup-fixed" if i < n_fixed else "unsup-ragged",
                self._cli(["predict-hierarchical", path, "--alpha", str(alpha)] + grid, out),
                sets=1,
                info=dict(out=out, observed=observed, alpha=alpha, truth=branches[bi][ri]),
            ))
        for j in range(n_sup):
            rng = _rng(seed, 1, j)
            K = self.SUP_K
            sizes = self._ragged(rng, K, self.SUP_M, self.SUP_STEP)
            theta = rng.normal(0.0, 10.0, K)
            xs = [rng.uniform(-0.5, 0.5, int(n)) for n in sizes]
            ys = [theta[k] * x + rng.normal(0.0, 0.5, x.size) for k, x in enumerate(xs)]
            bi = int(rng.integers(K))
            ri = int(rng.integers(sizes[bi]))
            path = os.path.join(workdir, f"sup{j}.csv")
            _write_branch_csv(path, ys, xs, (bi, ri))
            # Every dataset is run at the first alpha, which the coverage check
            # reads; dataset 0 also at the second alpha, and dataset 1 also
            # with its donor branches reordered (the target keeps its slot).
            runs = [("a", path, self.SUP_ALPHAS[0])]
            if j == 0:
                runs.append(("b", path, self.SUP_ALPHAS[1]))
            if j == 1 or small:
                donors = [k for k in range(K) if k != bi]
                perm = [donors[k] for k in rng.permutation(len(donors))]
                perm.insert(bi, bi)
                rpath = os.path.join(workdir, f"sup{j}r.csv")
                _write_branch_csv(rpath, [ys[k] for k in perm], [xs[k] for k in perm], (bi, ri))
                runs.append(("r", rpath, self.SUP_ALPHAS[0]))
            info = dict(dataset=j, truth=ys[bi][ri])
            for tag, csv_path, alpha in runs:
                out = os.path.join(workdir, f"sup{j}{tag}.json")
                argv = ["predict-hierarchical", csv_path, "--mode", "sup", "--alpha", str(alpha)]
                ops.append(Op("sup", self._cli(argv + grid, out), sets=1,
                              info=dict(info, out=out, alpha=alpha, tag=tag)))
        return ops

    def failed(self, op, raw):
        return raw != 0

    def collect(self, op, raw):
        with open(op.info["out"], "rb") as fh:
            data = fh.read()
        payload = json.loads(data)
        return dict(bytes=data, candidates=np.array(payload["candidates"]),
                    member=np.array(payload["member"], dtype=bool))

    def fingerprint(self, op, out):
        return out["bytes"]

    def written(self, op, out):
        return len(out["bytes"])

    def check(self, ops, outs):
        errors = []
        sup = {}
        for i, (op, out) in enumerate(zip(ops, outs)):
            name = f"{op.kind} op {i}"
            if op.kind != "sup":
                observed = op.info["observed"]
                errors += checks.check_grid(name, out["candidates"], observed, self.GRID)
                want = checks.hier_unsup_expected(observed, out["candidates"], op.info["alpha"])
                errors += checks.check_equal(name, out["member"], want)
            else:
                sup.setdefault(op.info["dataset"], {})[op.info["tag"]] = (op, out)
        covered = []
        for j, d in sorted(sup.items()):
            op_a, a = d["a"]
            errors += checks.check_grid_size(f"sup dataset {j}", a["candidates"], self.GRID)
            if "b" in d:
                errors += checks.check_subset(f"sup dataset {j} alpha grows",
                                              d["b"][1]["member"], a["member"])
            if "r" in d:
                r = d["r"][1]
                errors += checks.check_same_set(f"sup dataset {j} donors reordered",
                                                a["candidates"], a["member"],
                                                r["candidates"], r["member"])
            covered.append(checks.nearest_member(a["candidates"], a["member"], op_a.info["truth"]))
        errors += checks.check_coverage(f"sup coverage alpha={self.SUP_ALPHAS[0]}", covered,
                                        self.SUP_ALPHAS[0])
        return errors


# --------------------------------------------------------------------------
# orbit-exact: enumerated orbits over S_n, Lambda(K, M) and graph automorphisms
# --------------------------------------------------------------------------

# name, vertex count, edges, closed-form |Aut|, target vertex, target's orbit
GRAPHS = (
    ("edgeless-7", 7, [], 5040, 0, range(7)),
    ("complete-7", 7, [(i, j) for i in range(7) for j in range(i + 1, 7)], 5040, 0, range(7)),
    ("star-1-7", 8, [(0, j) for j in range(1, 8)], 5040, 1, range(1, 8)),
    ("complete-7-plus-isolated", 8, [(i, j) for i in range(7) for j in range(i + 1, 7)],
     5040, 0, range(7)),
)


def _adjacency(n, edges):
    A = np.zeros((n, n))
    for i, j in edges:
        A[i, j] = A[j, i] = 1.0
    return A


class OrbitExact(Workload):
    """symmpi_set and randomized_set by full enumeration, and automorphism
    enumeration with graph vertex sets."""

    name = "orbit-exact"
    PER_KIND = 4
    SN, SN_GRID = 6, 201
    BLOCK, BLOCK_GRID = (2, 3), 101
    ALPHAS = (0.2, 0.35)  # every set is bounded: (1 - alpha) * 6 <= 5

    def round(self, seed, workdir, small=False):
        ops = []
        per = 1 if small else self.PER_KIND
        n = 4 if small else self.SN
        K, M = (2, 2) if small else self.BLOCK
        for i in range(per):
            rng = _rng(seed, 0, i)
            alpha = self.ALPHAS[i % 2]
            obs = rng.normal(size=n - 1)
            grid = np.linspace(obs.min() - 2, obs.max() + 2, 21 if small else self.SN_GRID)
            u = float(rng.uniform())
            info = dict(observed=obs, grid=grid, alpha=alpha, pair=("sn", i))

            def sn(obs=obs, grid=grid, alpha=alpha, u=u, randomized=False, n=n):
                group = groups.SymmetricGroup(n)
                if randomized:
                    return calibrate.randomized_set(obs, grid, _append, lambda z: z,
                                                    _last_coordinate, group, alpha, u)
                return calibrate.symmpi_set(obs, grid, _append, lambda z: z,
                                            _last_coordinate, group, alpha)

            order = math.factorial(n)
            ops.append(Op("sn-det", sn, 1, order, info))
            ops.append(Op("sn-rand", lambda f=sn: f(randomized=True), 1, order, info))

            mu = rng.normal(0.0, 1.0, K)
            z = (mu[:, None] + rng.normal(0.0, 1.0, (K, M))).ravel()
            bgrid = np.linspace(z.min() - 2, z.max() + 2, 21 if small else self.BLOCK_GRID)
            u = float(rng.uniform())
            binfo = dict(observed=z[:-1], grid=bgrid, alpha=alpha, K=K, M=M, pair=("block", i))

            def block(obs=z[:-1], grid=bgrid, alpha=alpha, u=u, randomized=False, K=K, M=M):
                group = groups.BlockPermutationGroup(K, M)
                embed = lambda o, c: np.append(o, c).reshape(K, M)  # noqa: E731
                if randomized:
                    return calibrate.randomized_set(obs, grid, embed, _hier_v, _last_entry,
                                                    group, alpha, u)
                return calibrate.symmpi_set(obs, grid, embed, _hier_v, _last_entry, group, alpha)

            border = math.factorial(K) * math.factorial(M) ** K
            ops.append(Op("block-det", block, 1, border, binfo))
            ops.append(Op("block-rand", lambda f=block: f(randomized=True), 1, border, binfo))

            gname, nv, edges, g_order, target, orbit = GRAPHS[(i + seed) % len(GRAPHS)]
            if small:
                gname, nv, edges, g_order, target, orbit = ("edgeless-4", 4, [], 24, 0, range(4))
            values = rng.normal(size=nv)
            values[target] = np.nan
            A = _adjacency(nv, edges)

            def graph(A=A, values=values, target=target, alpha=alpha):
                aut = groups.enumerate_automorphisms(A)
                grid = calibrate.candidate_grid(values[~np.isnan(values)])
                return aut.order(), network.graph_vertex_set(values, aut, target, grid, alpha)

            ginfo = dict(graph=gname, order=g_order, alpha=alpha,
                         orbit_values=values[[v for v in orbit if v != target]])
            ops.append(Op("graph", graph, 1, g_order, ginfo))
        return ops

    def fingerprint(self, op, out):
        ps = out[1] if op.kind == "graph" else out
        return ps.candidates.tobytes() + ps.member.tobytes()

    def check(self, ops, outs):
        errors = []
        det = {}
        for i, (op, out) in enumerate(zip(ops, outs)):
            name = f"{op.kind} op {i}"
            info = op.info
            if op.kind == "graph":
                order, ps = out
                errors += checks.check_order(f"{name} ({info['graph']})", order, info["order"])
                want = checks.vertex_set_expected(info["orbit_values"], ps.candidates, info["alpha"])
                errors += checks.check_equal(name, ps.member, want)
                continue
            if op.kind.startswith("sn"):
                want = checks.split_conformal_expected(info["observed"], info["grid"], info["alpha"])
            else:
                s, own = checks.block_scores(info["observed"], info["grid"], info["K"], info["M"])
                want = checks.transitive_quantile_expected(s, own, info["alpha"])
            if op.kind.endswith("det"):
                errors += checks.check_equal(name, out.member, want)
                det[info["pair"]] = out.member
            else:
                errors += checks.check_subset(f"{name} randomized", out.member, det[info["pair"]])
        return errors


# --------------------------------------------------------------------------
# orbit-mc: sampled orbits of groups too large to enumerate
# --------------------------------------------------------------------------


class OrbitMC(Workload):
    """Monte-Carlo symmpi_set and randomized_set over S_50 and Lambda(10, 10).

    The held-out truth is one of the candidates, so coverage is read off the
    set itself. The randomized set reuses the deterministic set's generator
    seed, so it sees the same draws and must be a subset.
    """

    name = "orbit-mc"
    PER_KIND = 6
    SN, SN_DRAWS, SN_GRID = 50, 299, 45
    BLOCK, BLOCK_DRAWS, BLOCK_GRID = (10, 10), 199, 9
    ALPHA = 0.1

    def round(self, seed, workdir, small=False):
        ops = []
        per = 1 if small else self.PER_KIND
        alpha = self.ALPHA
        for i in range(per):
            rng = _rng(seed, 0, i)
            n, draws, gp = (10, 5, 5) if small else (self.SN, self.SN_DRAWS, self.SN_GRID)
            z = rng.normal(size=n)
            grid = np.sort(np.append(np.linspace(z[:-1].min() - 1, z[:-1].max() + 1, gp), z[-1]))
            u = float(rng.uniform())
            mc_seed = [seed, 1, i]

            def sn(obs=z[:-1], grid=grid, u=u, n=n, draws=draws, mc_seed=mc_seed, randomized=False):
                group = groups.SymmetricGroup(n)
                kw = dict(mode="mc", mc_draws=draws, rng=np.random.default_rng(mc_seed))
                if randomized:
                    return calibrate.randomized_set(obs, grid, _append, lambda v: v,
                                                    _last_coordinate, group, alpha, u, **kw)
                return calibrate.symmpi_set(obs, grid, _append, lambda v: v,
                                            _last_coordinate, group, alpha, **kw)

            full = np.concatenate([np.broadcast_to(z[:-1], (grid.size, n - 1)), grid[:, None]], axis=1)
            info = dict(pair=("sn", i), truth=z[-1], draws=draws, scores=full, own=grid)
            ops.append(Op("sn-det", sn, 1, info=info))
            ops.append(Op("sn-rand", lambda f=sn: f(randomized=True), 1, info=info))

            K, M = (2, 2) if small else self.BLOCK
            draws, gp = (5, 5) if small else (self.BLOCK_DRAWS, self.BLOCK_GRID)
            mu = rng.normal(0.0, 1.0, K)
            zb = (mu[:, None] + rng.normal(0.0, 1.0, (K, M))).ravel()
            bgrid = np.sort(np.append(np.linspace(zb[:-1].min() - 1, zb[:-1].max() + 1, gp), zb[-1]))
            u = float(rng.uniform())
            mc_seed = [seed, 2, i]

            def block(obs=zb[:-1], grid=bgrid, u=u, K=K, M=M, draws=draws, mc_seed=mc_seed,
                      randomized=False):
                group = groups.BlockPermutationGroup(K, M)
                embed = lambda o, c: np.append(o, c).reshape(K, M)  # noqa: E731
                kw = dict(mode="mc", mc_draws=draws, rng=np.random.default_rng(mc_seed))
                if randomized:
                    return calibrate.randomized_set(obs, grid, embed, _hier_v, _last_entry,
                                                    group, alpha, u, **kw)
                return calibrate.symmpi_set(obs, grid, embed, _hier_v, _last_entry, group, alpha, **kw)

            s, own = checks.block_scores(zb[:-1], bgrid, K, M)
            binfo = dict(pair=("block", i), truth=zb[-1], draws=draws, scores=s, own=own)
            ops.append(Op("block-det", block, 1, info=binfo))
            ops.append(Op("block-rand", lambda f=block: f(randomized=True), 1, info=binfo))
        return ops

    def fingerprint(self, op, out):
        return out.candidates.tobytes() + out.member.tobytes()

    def check(self, ops, outs):
        errors = []
        det = {}
        dets = [(op, out) for op, out in zip(ops, outs) if op.kind.endswith("det")]
        n_checked = sum(out.member.size for _, out in dets)
        covered = []
        for op, out in dets:
            info = op.info
            scores, own = info["scores"], info["own"]
            frac = (scores < own[:, None]).sum(axis=1) / scores.shape[1]
            exact = checks.transitive_quantile_expected(scores, own, self.ALPHA)
            errs, _ = checks.mc_margin_check(f"{op.kind} {info['pair']}", out.member, frac, exact,
                                             info["draws"], self.ALPHA, n_checked)
            errors += errs
            covered.append(bool(out.member[int(np.flatnonzero(out.candidates == info["truth"])[0])]))
            det[info["pair"]] = out.member
        for op, out in zip(ops, outs):
            if op.kind.endswith("rand"):
                errors += checks.check_subset(f"{op.kind} {op.info['pair']} randomized",
                                              out.member, det[op.info["pair"]])
        errors += checks.check_coverage("mc coverage", covered, self.ALPHA)
        return errors


# --------------------------------------------------------------------------
# bench-table: the simulation harness on the table-1 and table-2 presets
# --------------------------------------------------------------------------


class BenchTable(Workload):
    """run_benchmark calls alternating the two presets, single-threaded."""

    name = "bench-table"
    PER_PRESET = 10
    PRESETS = {  # preset: (supervised, branch size, trials, tests)
        "table1": (False, 15, 3, 40),
        "table2": (True, 30, 2, 32),
    }
    METHODS = ("symmpi", "conformal", "subsampling", "single_tree")
    ALPHAS = (0.05, 0.15)

    def round(self, seed, workdir, small=False):
        ops = []
        for i in range(1 if small else self.PER_PRESET):
            for p, (preset, (sup, size, trials, tests)) in enumerate(self.PRESETS.items()):
                cfg = sim.HierarchicalConfig(
                    n_branches=20, branch_size=size, supervised=sup,
                    sigma2=(10.0, 2.0, 0.5, 0.0)[i % 4], alphas=self.ALPHAS,
                    trials=1 if small else trials, tests=2 if small else tests,
                    seed=int(_rng(seed, p, i).integers(2**31)),
                )

                def run(cfg=cfg):
                    return sim.run_benchmark(cfg, methods=self.METHODS, threads=1)

                sets = cfg.trials * cfg.tests * len(self.METHODS) * len(self.ALPHAS)
                ops.append(Op(preset, run, sets, info=dict(n=cfg.trials * cfg.tests)))
        return ops

    def fingerprint(self, op, out):
        return repr([asdict(r) for r in out]).encode()

    def check(self, ops, outs):
        errors = []
        covered = total = 0
        for i, (op, rows) in enumerate(zip(ops, outs)):
            by = {(r.method, r.alpha): r for r in rows}
            s = by[("symmpi", 0.05)]
            covered += round(s.mean_coverage * op.info["n"])
            total += op.info["n"]
            st = by[("single_tree", 0.05)]
            errors += checks.check_always_unbounded(f"{op.kind} op {i} single_tree",
                                                    st.unbounded_rate, st.mean_length)
        errors += checks.check_coverage_band("symmpi coverage alpha=0.05", covered, total)
        return errors


WORKLOADS = {w.name: w for w in (HierPredict(), OrbitExact(), OrbitMC(), BenchTable())}
