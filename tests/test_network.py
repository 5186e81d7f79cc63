import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import TreeGraph
from symmpi.calibrate import _rows_below, candidate_grid, finite_quantile, rank_member
from symmpi.groups import enumerate_automorphisms, orbit_of_index
from symmpi.network import cluster_sum_set, coarsen_graph, graph_vertex_set, tree_leaf_set


def cycle_graph(n):
    A = np.zeros((n, n))
    for i in range(n):
        A[i, (i + 1) % n] = A[(i + 1) % n, i] = 1.0
    return A


def path_graph(n):
    A = np.zeros((n, n))
    for i in range(n - 1):
        A[i, i + 1] = A[i + 1, i] = 1.0
    return A


def test_edgeless_graph_reduces_to_conformal():
    rng = np.random.default_rng(0)
    n = 6
    aut = enumerate_automorphisms(np.zeros((n, n)))
    vals = rng.normal(size=n)
    vals[-1] = np.nan
    obs = vals[:-1]
    grid = np.linspace(-3, 3, 121)
    ps = graph_vertex_set(vals, aut, n - 1, grid, alpha=0.25)
    assert ps.meta["orbit_size"] == n
    for c, m in zip(grid, ps.member):
        pool = np.append(obs, c)
        assert m == (c <= finite_quantile(pool, 0.75))


def test_path3_center_is_trivial_flagged():
    aut = enumerate_automorphisms(path_graph(3))
    vals = np.array([1.0, np.nan, 2.0])
    grid = np.linspace(-3, 3, 11)
    ps = graph_vertex_set(vals, aut, 1, grid, alpha=0.2)
    assert ps.meta["trivial_orbit"] and ps.unbounded


def test_cycle6_uses_all_six_values():
    rng = np.random.default_rng(1)
    aut = enumerate_automorphisms(cycle_graph(6))
    vals = rng.normal(size=6)
    target = 2
    grid = np.linspace(-3, 3, 61)
    ps = graph_vertex_set(vals, aut, target, grid, alpha=0.3)
    others = np.delete(vals, target)
    for c, m in zip(grid, ps.member):
        pool = np.append(others, c)
        assert m == (c <= finite_quantile(pool, 0.7))


def test_orbit_deviation_psi():
    rng = np.random.default_rng(2)
    aut = enumerate_automorphisms(cycle_graph(4))
    vals = rng.normal(size=4)
    grid = np.linspace(-3, 3, 41)
    ps = graph_vertex_set(vals, aut, 0, grid, alpha=0.25)
    others = np.delete(vals, 0)
    for c, m in zip(grid, ps.member):
        pool = np.append(others, c)
        dev = pool - pool.mean()
        assert m == ((c - pool.mean()) <= finite_quantile(dev, 0.75))


GRAPHS = {"cycle": cycle_graph, "path": path_graph, "edgeless": lambda n: np.zeros((n, n))}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(GRAPHS)), st.integers(3, 8), st.data())
def test_orbit_deviation_is_the_last_coordinate_set(graph, n, data):
    # values on a 0.1 lattice, some tied, offset by up to 1e6: the orbit mean
    # of each candidate is on both sides of every deviation comparison, so
    # the deviation rule, run per candidate as a rank count, keeps the
    # candidates that the last-coordinate rule keeps
    offset = data.draw(st.sampled_from([0.0, -250.0, 1e6]))
    lattice = data.draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n))
    vals = offset + np.array(lattice) / 10
    target = data.draw(st.integers(0, n - 1))
    alpha = data.draw(st.sampled_from([0.1, 0.25, 0.4, 0.7]))
    aut = enumerate_automorphisms(GRAPHS[graph](n))
    observed = np.delete(vals, target)
    cands = np.concatenate([candidate_grid(observed, 41), observed])
    last = graph_vertex_set(vals, aut, target, cands, alpha)
    orbit, _ = orbit_of_index(aut, target)
    if orbit.size > 1:
        others = vals[orbit[orbit != target]]
        means = (others.sum() + cands) / orbit.size
        below = _rows_below(others[None, :] - means[:, None], cands - means)
        assert np.array_equal(last.member, rank_member(below, alpha))


def test_relabeling_invariance_exact():
    # relabeling the data by any automorphism leaves every decision unchanged
    rng = np.random.default_rng(3)
    for A in [cycle_graph(6), path_graph(5), cycle_graph(4)]:
        n = A.shape[0]
        aut = enumerate_automorphisms(A)
        vals = rng.normal(size=n)
        grid = np.linspace(-2.5, 2.5, 41)
        for g in aut.elements():
            target = n - 1
            base = graph_vertex_set(vals, aut, target, grid, alpha=0.3)
            relabeled_vals = g.act(vals)
            relabeled_aut = enumerate_automorphisms(A)  # graph unchanged
            moved = graph_vertex_set(relabeled_vals, relabeled_aut, g(target), grid, alpha=0.3)
            assert np.array_equal(base.member, moved.member)


def test_tree_leaf_set_examples():
    # all leaves zero: candidate 0 kept
    ps = tree_leaf_set(np.zeros((2, 2)), np.array([0.0]), alpha=0.3)
    assert ps.member[0]
    # |leaves| = (1, 2, 3, cand); cand 2.5 at alpha = 0.25 -> quantile 2.5 kept
    leaves = np.array([[1.0, -2.0], [3.0, 999.0]])  # last value is ignored
    ps2 = tree_leaf_set(leaves, np.array([2.5]), alpha=0.25)
    assert ps2.member[0]
    ps3 = tree_leaf_set(leaves, np.array([3.5]), alpha=0.25)
    assert not ps3.member[0]


def test_tree_leaf_coverage():
    rng = np.random.default_rng(4)
    trials = 4000
    alpha = 0.25
    covered = 0
    K, M = 3, 3
    for _ in range(trials):
        # exchangeable-branch tree: branch effects plus leaf noise
        mu = rng.normal(0, 1.0, K)
        leaves = mu[:, None] + rng.normal(0, 1.0, (K, M))
        truth = leaves[-1, -1]
        covered += int(tree_leaf_set(leaves, np.array([truth]), alpha).member[0])
    se = np.sqrt(alpha * (1 - alpha) / trials)
    assert covered / trials >= 1 - alpha - 3 * se


def test_coarsen_singleton_clusters_identity():
    A = cycle_graph(5)
    cg = coarsen_graph(A, [[i] for i in range(5)])
    assert np.array_equal(cg.multi_adjacency, A)


def test_coarsen_tree_by_branch():
    tree = TreeGraph(0.0, np.zeros(3), np.zeros((3, 4)))
    A = tree.adjacency()
    K, M = 3, 4
    clusters = [[0] + [1 + k for k in range(K)]]  # root plus branch nodes
    clusters += [[1 + K + k * M + i for i in range(M)] for k in range(K)]
    cg = coarsen_graph(A, clusters)
    # each leaf cluster connects to the top cluster with multiplicity M
    for k in range(K):
        assert cg.multi_adjacency[0, 1 + k] == M
    assert cg.multi_adjacency.sum() == A.sum()


def test_coarsen_merge_all():
    A = cycle_graph(4)
    cg = coarsen_graph(A, [[0, 1, 2, 3]])
    assert cg.multi_adjacency.shape == (1, 1)
    assert cg.multi_adjacency[0, 0] == A.sum()


def test_coarsen_rejects_non_partition():
    A = cycle_graph(4)
    with pytest.raises(ValueError):
        coarsen_graph(A, [[0, 1], [1, 2, 3]])
    with pytest.raises(ValueError):
        coarsen_graph(A, [[0, 1], [2]])


def test_coarsened_automorphisms_permute_equal_clusters():
    tree = TreeGraph(0.0, np.zeros(2), np.zeros((2, 3)))
    clusters = [[0], [1, 3, 4, 5, 6][:4], [2, 7, 8, 9][:4]]
    # branch clusters: branch node plus its leaves
    clusters = [[0], [1] + [3 + i for i in range(3)], [2] + [6 + i for i in range(3)]]
    cg = coarsen_graph(tree.adjacency(), clusters)
    aut = cg.automorphism_group()
    assert aut.order() == 2  # the two identical branch clusters swap


def test_cluster_sum_set_examples():
    # K = 1: quantile is the candidate itself, kept
    ps = cluster_sum_set(np.array([]), np.array([4.2]), alpha=0.3)
    assert ps.member[0]
    # K = 3 sums (1, 5, cand); cand 3 at alpha = 1/3: quantile of (1, 3, 5)
    # at level 2/3 is 3 -> kept
    ps2 = cluster_sum_set(np.array([1.0, 5.0]), np.array([3.0]), alpha=1 / 3)
    assert ps2.member[0]
    ps3 = cluster_sum_set(np.array([1.0, 5.0]), np.array([5.5]), alpha=1 / 3)
    assert not ps3.member[0]


def test_cluster_sum_coverage():
    rng = np.random.default_rng(5)
    trials = 4000
    alpha = 0.25
    covered = 0
    K, M = 4, 3
    for _ in range(trials):
        branch_vals = rng.normal(0, 1.0, (K, M + 1))  # branch node + leaves
        sums = branch_vals.sum(axis=1)
        covered += int(cluster_sum_set(sums[:-1], np.array([sums[-1]]), alpha).member[0])
    se = np.sqrt(alpha * (1 - alpha) / trials)
    assert covered / trials >= 1 - alpha - 3 * se


def test_backing_out_single_missing_node():
    # with one missing leaf, the sum set minus the observed partial sum is
    # exactly the induced set for the leaf value
    rng = np.random.default_rng(6)
    sums_obs = rng.normal(size=3)
    partial = 1.7  # observed part of the last branch
    leaf_grid = np.linspace(-4, 4, 81)
    sum_set = cluster_sum_set(sums_obs, partial + leaf_grid, alpha=0.3)
    for v, m in zip(leaf_grid, sum_set.member):
        direct = cluster_sum_set(sums_obs, np.array([partial + v]), alpha=0.3)
        assert m == direct.member[0]
