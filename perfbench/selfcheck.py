"""Self-test of the output checks in checks.py.

    python3 perfbench/selfcheck.py

Each check gets a right answer, which it must accept, and a deliberately
wrong set, which it must reject. Exits with code 1 when a check misses a
wrong set or rejects a right one. Needs only numpy, not symmpi.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import checks
from run import END_TO_END, PER_LAYER, WORKLOADS

FAILURES = []


def expect(name, errors, wrong):
    """``wrong`` says whether the input was deliberately wrong."""
    if bool(errors) != wrong:
        FAILURES.append(f"{name}: {'accepted a wrong set' if wrong else errors}")
    print(f"{'ok  ' if bool(errors) == wrong else 'FAIL'} {name}")


def flip(member, i):
    m = np.array(member, dtype=bool)
    m[i] = not m[i]
    return m


def hier_predict(rng):
    branches = [rng.normal(m, 0.5, n) for m, n in zip((0.0, 3.0, 0.2), (10, 7, 12))]
    grid = checks.expected_grid(branches)
    want = checks.hier_unsup_expected(branches, grid, 0.1)
    edge = int(np.flatnonzero(np.diff(want.astype(int)))[0])
    expect("unsup reference: the same set", checks.check_equal("u", want, want), False)
    expect("unsup reference: one boundary candidate flipped",
           checks.check_equal("u", flip(want, edge), want), True)
    other = checks.hier_unsup_expected(branches, grid, 0.15)
    expect("unsup reference: the alpha = 0.15 set given for alpha = 0.1",
           checks.check_equal("u", other, want), True)
    expect("grid: the data range +- 4 SD", checks.check_grid("g", grid, branches), False)
    expect("grid: padded by 3 SD instead of 4",
           checks.check_grid("g", checks.expected_grid(branches, pad_sd=3.0), branches), True)
    expect("grid: 51 points instead of the default 2001",
           checks.check_grid("g", checks.expected_grid(branches, 51), branches, 2001), True)
    expect("grid size: the default 2001", checks.check_grid_size("n", grid, 2001), False)
    expect("grid size: 51 points", checks.check_grid_size("n", grid[::40], 2001), True)

    small = checks.hier_unsup_expected(branches, grid, 0.2)
    expect("sup alpha grows: set shrinks", checks.check_subset("s", small, want), False)
    expect("sup alpha grows: set grows", checks.check_subset("s", want, small), True)
    expect("sup reordered: same set", checks.check_same_set("r", grid, want, grid.copy(), want), False)
    expect("sup reordered: one membership differs",
           checks.check_same_set("r", grid, want, grid, flip(want, edge)), True)
    expect("sup reordered: grid moved", checks.check_same_set("r", grid, want, grid + 1e-6, want), True)
    expect("coverage: 3 of 4 at alpha 0.1", checks.check_coverage("c", [1] * 3 + [0], 0.1), False)
    expect("coverage: 0 of 4 at alpha 0.1", checks.check_coverage("c", [0] * 4, 0.1), True)


def orbit_exact(rng):
    obs = rng.normal(size=5)
    grid = np.linspace(obs.min() - 2, obs.max() + 2, 201)
    want = checks.split_conformal_expected(obs, grid, 0.2)
    # Off by one rank: the (k-1)-th order statistic as the threshold.
    wrong = grid <= np.sort(obs)[3]
    expect("S_n closed form: the same set", checks.check_equal("s", want, want), False)
    expect("S_n closed form: threshold one rank low", checks.check_equal("s", wrong, want), True)
    expect("S_n closed form: unbounded at alpha 0.1",
           [] if checks.split_conformal_expected(obs, grid, 0.1).all() else ["x"], False)

    K, M = 2, 3
    z = rng.normal(size=K * M)
    bgrid = np.linspace(z.min() - 2, z.max() + 2, 101)
    s, own = checks.block_scores(z[:-1], bgrid, K, M)
    want = checks.transitive_quantile_expected(s, own, 0.35)
    # Wrong rule: quantile of the raw entries instead of the transformed ones.
    raw = np.concatenate([np.broadcast_to(z[:-1], (bgrid.size, K * M - 1)), bgrid[:, None]], axis=1)
    wrong = checks.transitive_quantile_expected(raw, bgrid, 0.35)
    expect("Lambda quantile: the same set", checks.check_equal("b", want, want), False)
    expect("Lambda quantile: untransformed entries", checks.check_equal("b", wrong, want), True)
    expect("randomized subset: subset", checks.check_subset("r", want & (bgrid < 0), want), False)
    expect("randomized subset: keeps an extra candidate",
           checks.check_subset("r", flip(want, int(np.argmin(want))), want), True)

    expect("automorphism order: 5040 = 7!", checks.check_order("a", 5040, 5040), False)
    expect("automorphism order: 720 for 7!", checks.check_order("a", 720, 5040), True)
    others = rng.normal(size=6)
    vgrid = np.linspace(-4, 4, 2001)
    want = checks.vertex_set_expected(others, vgrid, 0.35)
    expect("vertex set: the same set", checks.check_equal("v", want, want), False)
    expect("vertex set: threshold at the largest value, not the fifth of six",
           checks.check_equal("v", vgrid <= others.max() + 1e-3, want), True)


def orbit_mc(rng):
    n, draws, alpha = 50, 299, 0.1
    z = rng.normal(size=n)
    grid = np.sort(np.append(np.linspace(z[:-1].min() - 1, z[:-1].max() + 1, 45), z[-1]))
    scores = np.concatenate([np.broadcast_to(z[:-1], (grid.size, n - 1)), grid[:, None]], axis=1)
    frac = (scores < grid[:, None]).sum(axis=1) / n
    exact = checks.transitive_quantile_expected(scores, grid, alpha)
    errors, _ = checks.mc_margin_check("m", exact, frac, exact, draws, alpha, grid.size)
    expect("MC margin: the exact set itself", errors, False)
    kept_clear = int(np.flatnonzero(exact)[0])
    dropped_clear = int(np.flatnonzero(~exact)[-1])
    expect("MC margin: a clearly kept candidate dropped",
           checks.mc_margin_check("m", flip(exact, kept_clear), frac, exact, draws, alpha,
                                  grid.size)[0], True)
    expect("MC margin: a clearly dropped candidate kept",
           checks.mc_margin_check("m", flip(exact, dropped_clear), frac, exact, draws, alpha,
                                  grid.size)[0], True)
    boundary = int(np.flatnonzero(exact)[-1])
    expect("MC margin: a candidate at the boundary may go either way",
           checks.mc_margin_check("m", flip(exact, boundary), frac, exact, draws, alpha,
                                  grid.size)[0], False)
    expect("MC coverage: 11 of 12", checks.check_coverage("c", [1] * 11 + [0], alpha), False)
    expect("MC coverage: 5 of 12", checks.check_coverage("c", [1] * 5 + [0] * 7, alpha), True)


def bench_table(rng):
    expect("coverage band: 1748 of 1840", checks.check_coverage_band("b", 1748, 1840), False)
    expect("coverage band: 0.90", checks.check_coverage_band("b", 1656, 1840), True)
    expect("coverage band: 0.99", checks.check_coverage_band("b", 1822, 1840), True)
    expect("single_tree: always unbounded", checks.check_always_unbounded("t", 1.0, float("inf")), False)
    expect("single_tree: bounded on some tests", checks.check_always_unbounded("t", 0.95, 3.2), True)


def benchmark_json():
    """BENCHMARK.json names the workloads and metrics run.py reports."""
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    spec = json.loads(path.read_text())
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        expect(f"BENCHMARK.json {key} match run.py", [] if listed == ours else [listed], False)
    names = [w["name"] for w in spec["workloads"]]
    expect("BENCHMARK.json workloads match run.py", [] if tuple(names) == WORKLOADS else names, False)


def main():
    rng = np.random.default_rng(2024)
    for part in (hier_predict, orbit_exact, orbit_mc, bench_table):
        part(rng)
    benchmark_json()
    if FAILURES:
        print("\n".join(FAILURES), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
