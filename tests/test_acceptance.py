"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all);
a FAIL also fails the test. Tolerances are pinned here, not configurable.
"""

import time

import numpy as np
import pytest

from symmpi.calibrate import (
    _LEVEL_EPS,
    nonsym_set,
    overcoverage_bound,
    rotation_region_covers,
    symmpi_set,
    threshold,
    WeightSpec,
)
from symmpi.groups import (
    BlockPermutationGroup,
    CosetDecomposition,
    Permutation,
    SymmetricGroup,
    coset_representatives,
    default_probes,
    enumerate_automorphisms,
    sample_haar_orthogonal,
)
from symmpi.network import graph_vertex_set
from symmpi.sim import (
    HierarchicalConfig,
    gen_rotational,
    run_benchmark,
)
from symmpi.transforms import (
    check_distributional_equivariance,
    energy_permutation_test,
    hierarchical_unsup_transform,
)


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def last_coordinate(z):
    return np.asarray(z)[..., -1]


def swap_with_last_cosets(n):
    reps = []
    for j in range(n):
        m = list(range(n))
        m[j], m[n - 1] = m[n - 1], m[j]
        reps.append(Permutation(m))
    import math

    return CosetDecomposition(reps, math.factorial(n - 1))


# ----------------------------------------------------------------------
# 1. Table 1 reproduction (unsupervised, fixed sizes)
# ----------------------------------------------------------------------


def test_criterion_1_table1_unsup():
    t0 = time.time()
    cells = {}
    for sigma2 in (10.0, 2.0, 0.5, 0.0):
        cfg = HierarchicalConfig(sigma2=sigma2, trials=40, tests=100, seed=101,
                                 alphas=(0.05, 0.15))
        rows = run_benchmark(cfg, methods=("symmpi", "conformal", "single_tree"))
        cells[sigma2] = {(r.method, r.alpha): r for r in rows}
    elapsed = time.time() - t0

    checks = []
    for sigma2, by in cells.items():
        s = by[("symmpi", 0.05)]
        checks.append((f"symmpi len sigma2={sigma2}", 1.95 <= s.mean_length <= 2.20,
                       f"{s.mean_length:.3f}"))
        checks.append((f"symmpi cov sigma2={sigma2}", 0.92 <= s.mean_coverage <= 0.98,
                       f"{s.mean_coverage:.3f}"))
        st = by[("single_tree", 0.05)]
        checks.append((f"single-tree Inf sigma2={sigma2}", st.unbounded_rate == 1.0,
                       f"unbounded_rate={st.unbounded_rate}"))
        st15 = by[("single_tree", 0.15)]
        checks.append((f"single-tree len alpha=.15 sigma2={sigma2}",
                       1.55 <= st15.mean_length <= 1.80, f"{st15.mean_length:.3f}"))
    c10 = cells[10.0][("conformal", 0.05)]
    checks.append(("conformal len sigma2=10", 37.0 <= c10.mean_length <= 44.0,
                   f"{c10.mean_length:.3f}"))
    checks.append(("runtime < 5 min", elapsed < 300.0, f"{elapsed:.1f}s"))

    ok = all(c[1] for c in checks)
    detail = "; ".join(f"{name}={val}{'' if passed else ' (out of band)'}"
                       for name, passed, val in checks)
    report(1, ok, detail)


# ----------------------------------------------------------------------
# 2. Table 2 reproduction (supervised)
# ----------------------------------------------------------------------


def test_criterion_2_table2_sup():
    t0 = time.time()
    cfg = HierarchicalConfig(branch_size=30, supervised=True, sigma2=10.0,
                             trials=40, tests=100, seed=202, alphas=(0.05,))
    rows = run_benchmark(cfg, methods=("symmpi", "conformal"))
    elapsed = time.time() - t0
    by = {r.method: r for r in rows}
    s, c = by["symmpi"], by["conformal"]
    ok = (1.95 <= s.mean_length <= 2.15) and (11.5 <= c.mean_length <= 13.5) and elapsed < 600
    report(2, ok, f"symmpi={s.mean_length:.3f} (band [1.95,2.15]), "
                  f"conformal={c.mean_length:.3f} (band [11.5,13.5]), {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 3. Random-size supplement tables
# ----------------------------------------------------------------------


def test_criterion_3_random_sizes():
    cfg = HierarchicalConfig(branch_size=(10, 20), sigma2=10.0, trials=40, tests=100,
                             seed=303, alphas=(0.05,))
    rows = run_benchmark(cfg, methods=("symmpi", "hcp"))
    by = {r.method: r for r in rows}
    s, h = by["symmpi"], by["hcp"]
    ok = (1.95 <= s.mean_length <= 2.20) and (38.0 <= h.mean_length <= 44.0)
    report(3, ok, f"symmpi={s.mean_length:.3f} (band [1.95,2.20]), "
                  f"hcp={h.mean_length:.3f} (band [38,44])")


# ----------------------------------------------------------------------
# 4. Coverage sandwich on exactly invariant data
# ----------------------------------------------------------------------


def test_criterion_4_coverage_sandwich():
    rng = np.random.default_rng(404)
    K, M, trials = 4, 5, 10_000
    mu = rng.normal(0.0, 1.0, (trials, K))
    z = mu[:, :, None] + rng.normal(0.0, 1.0, (trials, K, M))
    scores = hierarchical_unsup_transform(z, 2.0)
    flat = scores.reshape(trials, K * M)
    own = scores[:, -1, -1]
    count_less = (flat < own[:, None]).sum(axis=1)
    u = rng.uniform(size=trials)

    lines = []
    ok = True
    for alpha in (0.05, 0.15, 0.3):
        level = 1.0 - alpha
        k_idx = int(np.ceil(level * K * M - _LEVEL_EPS))
        det_cover = (count_less / (K * M) < level - _LEVEL_EPS).mean()
        se = np.sqrt(level * alpha / trials)
        lo, hi = level - 3 * se, level + 1.0 / (K * M) + 3 * se
        ok_det = lo <= det_cover <= hi
        # randomized: ties at the threshold kept with probability Delta
        is_tie = count_less == k_idx - 1
        delta = (level - (k_idx - 1) / (K * M)) * (K * M)
        ran_cover = ((count_less < k_idx - 1) | (is_tie & (u < delta))).mean()
        ok_ran = abs(ran_cover - level) <= 3 * se
        ok &= ok_det and ok_ran
        lines.append(f"alpha={alpha}: det={det_cover:.4f} in [{lo:.4f},{hi:.4f}], "
                     f"rand={ran_cover:.4f} vs {level}")
    report(4, ok, "; ".join(lines))


# ----------------------------------------------------------------------
# 5. Conformal recovery at n = 50
# ----------------------------------------------------------------------


def test_criterion_5_conformal_recovery():
    rng = np.random.default_rng(505)
    n = 50
    alpha = 0.1
    cosets = swap_with_last_cosets(n + 1)
    group = SymmetricGroup(n + 1)
    k_conf = int(np.ceil((n + 1) * (1 - alpha)))
    mismatches = 0
    for _ in range(100):
        obs = rng.normal(size=n)
        grid = np.linspace(obs.min() - 2, obs.max() + 2, 201)
        ps = symmpi_set(obs, grid, lambda o, c: np.append(o, c), lambda z: z,
                        last_coordinate, group, alpha, cosets=cosets)
        t_split = np.sort(obs)[k_conf - 1] if k_conf <= n else np.inf
        expect = grid <= t_split
        mismatches += int(np.sum(ps.member != expect))
    report(5, mismatches == 0, f"{mismatches} membership discrepancies over 100 instances")


# ----------------------------------------------------------------------
# 6. Coset representatives equal full enumeration
# ----------------------------------------------------------------------


def test_criterion_6_coset_vs_full_enumeration():
    rng = np.random.default_rng(606)
    c4 = np.zeros((4, 4))
    for a, b in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        c4[a, b] = c4[b, a] = 1.0
    groups_under_test = [
        ("S4", SymmetricGroup(4)),
        ("Lambda22", BlockPermutationGroup(2, 2)),
        ("AutC4", enumerate_automorphisms(c4)),
    ]
    bad = 0
    for name, group in groups_under_test:
        probes = default_probes(rng.normal(size=4), rng)
        dec = coset_representatives(group, last_coordinate, probes)
        for _ in range(100):
            z = rng.normal(size=4)
            full = threshold(z, last_coordinate, group, 0.25)
            part = threshold(z, last_coordinate, group, 0.25, cosets=dec)
            bad += int(full.value != part.value)
    report(6, bad == 0, f"{bad} threshold mismatches over 300 comparisons")


# ----------------------------------------------------------------------
# 7. Non-symmetric set matches the symmetric one under uniform weights
# ----------------------------------------------------------------------


def test_criterion_7_nonsym_consistency():
    n = 4
    cosets = swap_with_last_cosets(n)
    spec = WeightSpec(cosets.representatives, np.full(n, 1.0 / n))
    group = SymmetricGroup(n)
    bad = 0
    for seed in range(100):
        rng = np.random.default_rng((707, seed))
        obs = rng.normal(size=n - 1)
        grid = np.linspace(-3, 3, 41)
        ns = nonsym_set(obs, grid, lambda o, c: np.append(o, c), lambda z: z,
                        last_coordinate, spec, group, 0.25, rng)
        sym = symmpi_set(obs, grid, lambda o, c: np.append(o, c), lambda z: z,
                         last_coordinate, group, 0.25, cosets=cosets)
        bad += int(not np.array_equal(ns.member, sym.member))
    report(7, bad == 0, f"{bad} differing realizations over 100 seeds")


# ----------------------------------------------------------------------
# 8. Monte-Carlo threshold validity with five draws
# ----------------------------------------------------------------------


def test_criterion_8_mc_threshold_validity():
    rng = np.random.default_rng(808)
    trials, n, draws = 10_000, 8, 5
    z = rng.normal(size=(trials, n))  # exchangeable; last entry is the target
    own = z[:, -1]
    js = rng.integers(0, n, (trials, draws))  # uniform coset representatives
    sampled = np.take_along_axis(z, js, axis=1)
    lines = []
    ok = True
    for alpha in (0.05, 0.3):
        level = 1.0 - alpha
        below = (sampled < own[:, None]).sum(axis=1)
        cover = (below / (draws + 1) < level - _LEVEL_EPS).mean()
        se = np.sqrt(level * alpha / trials)
        ok &= cover >= level - 3 * se
        lines.append(f"alpha={alpha}: coverage={cover:.4f} >= {level - 3 * se:.4f}")
    report(8, ok, "; ".join(lines))


# ----------------------------------------------------------------------
# 9. Equivariance checker discrimination
# ----------------------------------------------------------------------


def test_criterion_9_equivariance_discrimination():
    K, M = 3, 4
    group = BlockPermutationGroup(K, M)
    sgroup = SymmetricGroup(6)

    def hier_sampler(r, size):
        mu = r.normal(0.0, 1.0, (size, K))
        return mu[:, :, None] + r.normal(0.0, 1.0, (size, K, M))

    def exch_sampler(r, size):
        return r.normal(0.0, 1.0, (size, 6))

    agree = 0
    seeds = 20
    for seed in range(seeds):
        rng = np.random.default_rng((909, seed))
        good = check_distributional_equivariance(
            lambda z: hierarchical_unsup_transform(z, 2.0), hier_sampler, group,
            10_000, rng)
        badm = check_distributional_equivariance(
            lambda z: np.sort(z, axis=-1), exch_sampler, sgroup, 10_000, rng)
        agree += int(good.passed and (not badm.passed) and badm.p_value < 0.01)
    ok = agree >= int(0.95 * seeds)
    report(9, ok, f"{agree}/{seeds} seeds discriminate (need >= {int(0.95 * seeds)})")


# ----------------------------------------------------------------------
# 10. Rotational region coverage and Haar sampler checks
# ----------------------------------------------------------------------


def test_criterion_10_rotation_region():
    rng = np.random.default_rng(1010)
    covers = []
    for _ in range(25):
        pts = gen_rotational(12, 2, 30.0, rng)
        fresh = gen_rotational(400, 2, 30.0, rng)
        covers.append(rotation_region_covers(pts, fresh, alpha=0.05, mc_draws=499, rng=rng))
    coverage = float(np.mean(np.concatenate(covers)))
    ok_cov = 0.93 <= coverage <= 0.97

    orth_err = 0.0
    for _ in range(50):
        q = sample_haar_orthogonal(3, rng)
        orth_err = max(orth_err, float(np.abs(q.T @ q - np.eye(3)).max()))
    ok_orth = orth_err <= 1e-10

    theta = 0.9
    R = np.eye(3)
    R[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    a = np.array([(R @ sample_haar_orthogonal(3, rng))[:, 0] for _ in range(10_000)])
    b = np.array([sample_haar_orthogonal(3, rng)[:, 0] for _ in range(10_000)])
    _, pval = energy_permutation_test(a, b, rng)
    ok_inv = pval > 0.01

    ok = ok_cov and ok_orth and ok_inv
    report(10, ok, f"coverage={coverage:.4f} in [0.93,0.97]; max ||QtQ-I||={orth_err:.2e}; "
                   f"left-invariance p={pval:.3f}")


# ----------------------------------------------------------------------
# 11. Graph relabeling invariance on the six-cycle
# ----------------------------------------------------------------------


def test_criterion_11_cycle6_relabeling_invariance():
    rng = np.random.default_rng(1111)
    n = 6
    A = np.zeros((n, n))
    for i in range(n):
        A[i, (i + 1) % n] = A[(i + 1) % n, i] = 1.0
    aut = enumerate_automorphisms(A)
    assert aut.order() == 12
    vals = rng.normal(size=n)
    grid = np.linspace(-3, 3, 201)
    target = 4
    base = graph_vertex_set(vals, aut, target, grid, alpha=0.2)
    bad = 0
    for g in aut.elements():
        moved = graph_vertex_set(g.act(vals), aut, g(target), grid, alpha=0.2)
        bad += int(not np.array_equal(base.member, moved.member))
    report(11, bad == 0, f"{bad}/12 automorphisms changed a membership decision")


# ----------------------------------------------------------------------
# 12. Over-coverage bound matches enumeration
# ----------------------------------------------------------------------


def test_criterion_12_overcoverage_bounds():
    rng = np.random.default_rng(1212)
    ok = True
    details = []
    for n in (3, 5, 9):
        z = rng.normal(size=n + 1)
        got = overcoverage_bound(SymmetricGroup(n + 1), last_coordinate, z)
        ok &= got == pytest.approx(1.0 / (n + 1), abs=0)
        details.append(f"S{n + 1}: {got:.6g} == 1/{n + 1}")
    for K in (2, 3):
        for M in (2, 3):
            z = rng.normal(size=K * M)
            got = overcoverage_bound(BlockPermutationGroup(K, M), last_coordinate, z)
            ok &= got == pytest.approx(1.0 / (K * M), abs=0)
            details.append(f"Lambda({K},{M}): {got:.6g} == 1/{K * M}")
    report(12, ok, "; ".join(details))
