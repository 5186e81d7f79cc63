import numpy as np
import pytest

import oracles
from symmpi.calibrate import (
    PredictionSet,
    WeightSpec,
    candidate_grid,
    estimate_shift_gap,
    finite_quantile,
    hcp_first_obs_set,
    hierarchical_below,
    nonsym_set,
    orbit_scores,
    overcoverage_bound,
    randomized_set,
    rank_member,
    supervised_hierarchical_set,
    symmpi_set,
    symmpi_set_randomsize,
    threshold,
    threshold_from_scores,
)
from symmpi.baselines import single_tree_set, split_conformal_set, subsampling_set
from symmpi.network import cluster_sum_set, graph_vertex_set, tree_leaf_set
from symmpi.groups import (
    BlockPermutationGroup,
    NotEnumerableError,
    OrthogonalGroup,
    Permutation,
    SymmetricGroup,
    TrivialGroup,
    coset_representatives,
    default_probes,
    enumerate_automorphisms,
)
from symmpi.transforms import hierarchical_unsup_transform


def last_coordinate(z):
    return np.asarray(z)[..., -1]


def identity_map(z):
    return np.asarray(z, dtype=float)


def append_embed(observed, cand):
    return np.append(observed, cand)


def swap_with_last_cosets(n):
    reps = []
    for j in range(n):
        m = list(range(n))
        m[j], m[n - 1] = m[n - 1], m[j]
        reps.append(Permutation(m))
    import math

    return reps, math.factorial(n - 1)


# ----------------------------------------------------------------------
# finite_quantile
# ----------------------------------------------------------------------


def test_finite_quantile_examples():
    assert finite_quantile([1, 2, 3, 4], 0.75) == 3.0
    assert finite_quantile([5], 0.3) == 5.0
    assert finite_quantile([5], 1.0) == 5.0
    assert finite_quantile([1, 2, 3], 0.5, [0.1, 0.1, 0.8]) == 3.0


def test_finite_quantile_edges():
    assert finite_quantile([4, 1, 9], 1.0) == 9.0
    assert finite_quantile([4, 1, 9], 0.0) == 1.0
    assert finite_quantile([1.0, 2.0], 1.5) == float("inf")
    with pytest.raises(ValueError):
        finite_quantile([], 0.5)
    with pytest.raises(ValueError):
        finite_quantile([1, 2], 0.5, [0.6])


def test_finite_quantile_rejects_weights_without_mass():
    for weights in ([0.0, 0.0], [0.0, np.nan]):
        for level in (0.9, 0.0):
            with pytest.raises(ValueError, match="positive total"):
                finite_quantile([1.0, 2.0], level, weights)


def test_finite_quantile_float_level_guard():
    # 0.95 * 20 evaluates to 19.000000000000004 in floating point
    vals = np.arange(1.0, 21.0)
    assert finite_quantile(vals, 0.95) == 19.0


def test_finite_quantile_matches_weighted_equal_case():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.normal(size=9)
        level = rng.uniform(0.05, 1.0)
        w = np.full(9, 1 / 9)
        assert finite_quantile(v, level) == finite_quantile(v, level, w)


# ----------------------------------------------------------------------
# threshold
# ----------------------------------------------------------------------


def test_threshold_from_scores_invariants():
    rng = np.random.default_rng(100)
    for _ in range(200):
        scores = rng.choice(rng.normal(size=5), size=rng.integers(1, 12))
        alpha = float(rng.uniform(0.01, 0.9))
        th = threshold_from_scores(scores, alpha)
        assert th.cdf_left + th.jump == pytest.approx(th.cdf_at_t)
        assert th.cdf_at_t >= 1 - alpha - 1e-9
        if th.jump > 0:
            assert 0.0 < th.delta <= 1.0
        else:
            assert th.delta == 0.0


def test_threshold_from_scores_rejects_weights_without_mass():
    for weights in ([0.0, 0.0], [0.0, np.nan]):
        with pytest.raises(ValueError, match="positive total"):
            threshold_from_scores([1.0, 2.0], 0.2, weights)


def test_threshold_trivial_group():
    th = threshold(np.array([2.5]), last_coordinate, TrivialGroup(), alpha=0.3)
    assert th.value == 2.5
    assert th.jump == 1.0
    assert th.delta == pytest.approx(0.7)


def test_threshold_s4_order_statistic():
    z = np.array([1.0, 2.0, 3.0, 4.0])
    th = threshold(z, last_coordinate, SymmetricGroup(4), alpha=0.25)
    assert th.value == 3.0  # ceil(4 * 0.75) = 3rd order statistic


def test_threshold_s4_cdf_bookkeeping():
    z = np.array([1.0, 2.0, 3.0, 4.0])
    th = threshold(z, last_coordinate, SymmetricGroup(4), alpha=0.2)
    assert th.value == 4.0
    assert th.cdf_left == pytest.approx(0.75)
    assert th.jump == pytest.approx(0.25)
    assert th.delta == pytest.approx(0.2)


def test_threshold_cuts_where_the_set_does():
    # 1 - alpha exceeds 4/5 by less than the float guard: the threshold and the
    # set both cut at rank_member's count, 96 of the 120 orbit scores
    observed, alpha = np.array([1.0, 2.0, 3.0, 4.0]), 0.2 - 5e-10
    G = SymmetricGroup(5)
    th = threshold(np.append(observed, 5.0), last_coordinate, G, alpha)
    assert th.value == 4.0
    assert finite_quantile(np.repeat(np.arange(1.0, 6.0), 24), 1.0 - alpha) == 4.0
    ps = symmpi_set(observed, np.array([4.0, 5.0]), append_embed, identity_map,
                    last_coordinate, G, alpha)
    assert ps.member.tolist() == [True, False]


def test_threshold_invariance_over_orbit():
    rng = np.random.default_rng(1)
    G = SymmetricGroup(5)
    z = rng.normal(size=5)
    base = threshold(z, last_coordinate, G, alpha=0.2).value
    for g in G.elements():
        assert threshold(G.act(g, z), last_coordinate, G, alpha=0.2).value == base


def test_threshold_coset_equals_full_enumeration():
    # acceptance-style: coset path equals the full group on random scores
    rng = np.random.default_rng(2)
    cases = []
    reps4, h4 = swap_with_last_cosets(4)
    cases.append((SymmetricGroup(4), reps4))
    probes = default_probes(rng.normal(size=4), rng)
    cases.append(
        (BlockPermutationGroup(2, 2), coset_representatives(
            BlockPermutationGroup(2, 2), last_coordinate, probes).representatives)
    )
    c4 = np.zeros((4, 4))
    for a, b in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        c4[a, b] = c4[b, a] = 1.0
    aut = enumerate_automorphisms(c4)
    aut_probes = default_probes(rng.normal(size=4), rng)
    cases.append((aut, coset_representatives(aut, last_coordinate, aut_probes).representatives))
    from symmpi.groups import CosetDecomposition

    for group, reps in cases:
        for _ in range(34):
            z = rng.normal(size=4)
            for alpha in (0.05, 0.25, 0.5):
                full = threshold(z, last_coordinate, group, alpha)
                via_cosets = threshold(
                    z, last_coordinate, group, alpha,
                    cosets=CosetDecomposition(reps, group.order() // len(reps)),
                )
                assert full.value == via_cosets.value


def test_threshold_mc_includes_own_point():
    # alpha = 0: quantile is the max, which includes psi(z) itself
    rng = np.random.default_rng(3)
    z = np.array([5.0, 1.0, 0.0])  # last coordinate smallest
    th = threshold(z, last_coordinate, SymmetricGroup(3), alpha=0.999, mode="mc", mc_draws=3, rng=rng)
    # with alpha near 1 the quantile is the smallest sampled value; the
    # sample must contain psi(z) = 0 even if no draw hits it
    assert th.value <= 0.0


def test_threshold_mc_requires_rng_and_draws():
    with pytest.raises(ValueError):
        threshold(np.zeros(3), last_coordinate, SymmetricGroup(3), 0.1, mode="mc")
    with pytest.raises(ValueError):
        threshold(np.zeros(3), last_coordinate, SymmetricGroup(3), 0.1, mode="mc", mc_draws=4)


@pytest.mark.parametrize("draws", [2.5, 0, -3, None])
def test_mc_draws_must_be_a_positive_integer(draws):
    obs, grid = np.array([0.3, -1.0, 0.8]), np.linspace(-2, 2, 9)
    with pytest.raises(ValueError, match="mc_draws must be a positive integer"):
        symmpi_set(obs, grid, append_embed, identity_map, last_coordinate, SymmetricGroup(4),
                   0.2, mode="mc", mc_draws=draws, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="mc_draws must be a positive integer"):
        threshold(np.zeros(3), last_coordinate, SymmetricGroup(3), 0.1, mode="mc",
                  mc_draws=draws, rng=np.random.default_rng(0))


def test_mc_draws_accepts_numpy_integers():
    obs, grid = np.array([0.3, -1.0, 0.8]), np.linspace(-2, 2, 9)
    sets = [symmpi_set(obs, grid, append_embed, identity_map, last_coordinate,
                       SymmetricGroup(4), 0.2, mode="mc", mc_draws=draws,
                       rng=np.random.default_rng(3))
            for draws in (np.int64(5), 5)]
    assert np.array_equal(sets[0].member, sets[1].member)
    assert sets[0].meta == {"mode": "mc", "orbit_size": 6}


def test_threshold_exact_rejects_continuous_group():
    with pytest.raises(NotEnumerableError):
        threshold(np.zeros((2, 2)), lambda z: z[..., 0, 0], OrthogonalGroup(2), 0.1)


# ----------------------------------------------------------------------
# symmpi_set and randomized_set
# ----------------------------------------------------------------------


def test_symmpi_set_trivial_group_keeps_everything():
    grid = np.linspace(-1, 1, 21)
    ps = symmpi_set(np.zeros(3), grid, append_embed, identity_map, last_coordinate,
                    TrivialGroup(), alpha=0.2)
    assert ps.member.all() and ps.unbounded
    assert ps.length == float("inf")


def test_symmpi_set_alpha_zero_keeps_everything():
    grid = np.linspace(-5, 5, 31)
    ps = symmpi_set(np.array([0.1, 0.5, -0.3]), grid, append_embed, identity_map,
                    last_coordinate, SymmetricGroup(4), alpha=0.0)
    assert ps.member.all()


def conformal_member(cal_scores, cand_score, n_plus_1_level):
    """Classical split conformal: candidate kept iff its score is within the
    ceil((n+1)(1-alpha))-th order statistic of the n calibration scores."""
    n = len(cal_scores)
    k = int(np.ceil(n_plus_1_level))
    if k > n:
        return True
    return cand_score <= np.sort(cal_scores)[k - 1]


def test_conformal_recovery_small():
    # exchangeable scalars, V identity, psi last coordinate
    rng = np.random.default_rng(4)
    n = 7
    reps, h = swap_with_last_cosets(n + 1)
    from symmpi.groups import CosetDecomposition

    cosets = CosetDecomposition(reps, h)
    for _ in range(25):
        obs = rng.normal(size=n)
        grid = np.linspace(-4, 4, 101)
        for alpha in (0.25, 0.4):
            ps = symmpi_set(obs, grid, append_embed, identity_map, last_coordinate,
                            SymmetricGroup(n + 1), alpha=alpha, cosets=cosets)
            expect = np.array([
                conformal_member(obs, c, (n + 1) * (1 - alpha)) for c in grid
            ])
            assert np.array_equal(ps.member, expect)


def test_symmpi_set_exchangeable_observed_123():
    # observed (1, 2, 3) at alpha = 0.25: kept candidates are those at or
    # below the third of the four order statistics (candidate included)
    obs = np.array([1.0, 2.0, 3.0])
    grid = np.array([0.5, 1.5, 2.5, 3.0, 3.5, 10.0])
    ps = symmpi_set(obs, grid, append_embed, identity_map, last_coordinate,
                    SymmetricGroup(4), alpha=0.25)
    assert np.array_equal(ps.member, [True, True, True, True, False, False])


def test_randomized_subset_of_deterministic():
    rng = np.random.default_rng(5)
    n = 5
    for seed in range(100):
        obs = rng.normal(size=n)
        grid = np.linspace(-3, 3, 41)
        u = rng.uniform()
        det = symmpi_set(obs, grid, append_embed, identity_map, last_coordinate,
                         SymmetricGroup(n + 1), alpha=0.3)
        ran = randomized_set(obs, grid, append_embed, identity_map, last_coordinate,
                             SymmetricGroup(n + 1), alpha=0.3, u_prime=u)
        assert not np.any(ran.member & ~det.member)


def test_randomized_tie_rule():
    # 4 distinct orbit values, alpha = 0.2 -> delta = 0.2; the tie candidate
    # (the largest value) is kept iff u' < 0.2
    obs = np.array([1.0, 2.0, 3.0])
    grid = np.array([4.0])
    kept_low = randomized_set(obs, grid, append_embed, identity_map, last_coordinate,
                              SymmetricGroup(4), alpha=0.2, u_prime=0.19).member[0]
    kept_high = randomized_set(obs, grid, append_embed, identity_map, last_coordinate,
                               SymmetricGroup(4), alpha=0.2, u_prime=0.21).member[0]
    assert kept_low and not kept_high


def test_monotonicity_in_alpha():
    rng = np.random.default_rng(6)
    obs = rng.normal(size=6)
    grid = np.linspace(-4, 4, 81)
    members = []
    for alpha in (0.05, 0.2, 0.4, 0.6):
        ps = symmpi_set(obs, grid, append_embed, identity_map, last_coordinate,
                        SymmetricGroup(7), alpha=alpha)
        members.append(ps.member)
    for tighter, looser in zip(members[1:], members[:-1]):
        assert not np.any(tighter & ~looser)


def test_mc_set_coverage_sandwich():
    # exchangeable scalars with the truth as the candidate: the Monte-Carlo set
    # covers it with probability in [1 - alpha, 1 - alpha + 1/(draws + 1)]
    rng = np.random.default_rng(17)
    n, draws, alpha, trials = 12, 19, 0.2, 1000
    hits = 0
    for _ in range(trials):
        z = rng.normal(size=n)
        ps = symmpi_set(z[:-1], z[-1:], append_embed, identity_map, last_coordinate,
                        SymmetricGroup(n), alpha, mode="mc", mc_draws=draws, rng=rng)
        hits += int(ps.member[0])
    se = np.sqrt(alpha * (1 - alpha) / trials)
    assert 1 - alpha - 3 * se <= hits / trials <= 1 - alpha + 1 / (draws + 1) + 3 * se


def test_orbit_sets_drop_candidates_with_nan_score():
    grid = np.array([-1.0, np.nan, 1.0])
    obs = np.array([0.0, 2.0])
    det = symmpi_set(obs, grid, append_embed, identity_map, last_coordinate,
                     SymmetricGroup(3), alpha=0.0)
    ran = randomized_set(obs, grid, append_embed, identity_map, last_coordinate,
                         SymmetricGroup(3), alpha=0.0, u_prime=0.5)
    assert det.member.tolist() == ran.member.tolist() == [True, False, True]


def _supervised_case(grid):
    rng = np.random.default_rng(3)
    xs = [rng.uniform(-0.5, 0.5, n) for n in (4, 5, 4)]
    ys = [k * x + rng.normal(0, 0.3, x.size) for k, x in enumerate(xs)]
    return supervised_hierarchical_set([x[:2] for x in xs], [y[:2] for y in ys],
                                       [x[2:] for x in xs], [y[2:] for y in ys], 0.1, grid, 0.3)


NON_FINITE_BUILDERS = {
    "split_conformal": lambda g: split_conformal_set([1.0, 2.0, 3.0], g, 0.5),
    "single_tree": lambda g: single_tree_set([1.0, 2.0, 3.0], g, 0.5),
    "single_tree_score": lambda g: single_tree_set([1.0, 2.0, 3.0], g, 0.5, score=np.abs),
    "subsampling": lambda g: subsampling_set([[1.0, 2.0], [3.0], [2.5, 1.5]], g, 0.5,
                                             np.random.default_rng(0)),
    "hcp_first_obs": lambda g: hcp_first_obs_set([[1.0, 2.0], [3.0, 2.2], [2.5]], g, 0.4),
    "graph_last": lambda g: graph_vertex_set([1.0, 2.0, 3.0, 0.0],
                                             enumerate_automorphisms(np.zeros((4, 4))), 3, g, 0.4),
    "graph_star": lambda g: graph_vertex_set([1.0, 2.0, 3.0, 0.0], enumerate_automorphisms(
        np.array([[0.0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]])), 3, g, 0.4),
    "graph_trivial": lambda g: graph_vertex_set([1.0, 2.0, 0.0], enumerate_automorphisms(
        np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])), 2, g, 0.4),
    "tree_leaf": lambda g: tree_leaf_set([1.0, -2.0, 3.0, 0.0], g, 0.4),
    "cluster_sum": lambda g: cluster_sum_set([1.0, -2.0, 3.0], g, 0.4),
    "randomsize": lambda g: symmpi_set_randomsize([[1.0, 2, 3], [2.0, 3, 4], [1.5]], g, 0.2),
    "supervised": _supervised_case,
    "orbit_exact": lambda g: symmpi_set([1.0, 2.0, 3.0], g, append_embed, identity_map,
                                        last_coordinate, SymmetricGroup(4), 0.1),
    "orbit_mc": lambda g: symmpi_set([1.0, 2.0, 3.0], g, append_embed, identity_map,
                                     last_coordinate, SymmetricGroup(4), 0.1, mode="mc",
                                     mc_draws=30, rng=np.random.default_rng(4)),
    "orbit_randomized": lambda g: randomized_set([1.0, 2.0, 3.0], g, append_embed, identity_map,
                                                 last_coordinate, SymmetricGroup(4), 0.3, 0.5),
    "orbit_nonsym": lambda g: nonsym_set([1.0, 2.0, 3.0], g, append_embed, identity_map,
                                         last_coordinate,
                                         WeightSpec(swap_with_last_cosets(4)[0],
                                                    [0.1, 0.2, 0.3, 0.4]),
                                         SymmetricGroup(4), 0.1, np.random.default_rng(5)),
    "orbit_block_hierarchical": lambda g: symmpi_set([0.2, -1.1, 0.4, 1.3, 0.9], g, _block_embed,
                                                     hierarchical_unsup_transform, _last_entry,
                                                     BlockPermutationGroup(2, 3), 0.2),
}


ORBIT_BUILDERS = {
    "exact": lambda g, embed: symmpi_set([1.0, 2.0], g, embed, identity_map, last_coordinate,
                                         SymmetricGroup(3), 0.2),
    "randomized": lambda g, embed: randomized_set([1.0, 2.0], g, embed, identity_map,
                                                  last_coordinate, SymmetricGroup(3), 0.2, 0.5),
    "mc": lambda g, embed: symmpi_set([1.0, 2.0], g, embed, identity_map, last_coordinate,
                                      SymmetricGroup(3), 0.2, mode="mc", mc_draws=20,
                                      rng=np.random.default_rng(6)),
    "nonsym": lambda g, embed: nonsym_set([1.0, 2.0], g, embed, identity_map, last_coordinate,
                                          WeightSpec(swap_with_last_cosets(3)[0], [0.2, 0.3, 0.5]),
                                          SymmetricGroup(3), 0.2, np.random.default_rng(7)),
}


@pytest.mark.parametrize("builder", sorted(ORBIT_BUILDERS))
def test_embed_receives_each_finite_candidate_as_a_float(builder):
    grid = np.array([0.1, np.nan, -2.5, np.inf, 1 / 3, 5e-324, -0.0, 2.0])
    seen = []

    def embed(observed, cand):
        seen.append(cand)
        return np.append(observed, cand)

    ORBIT_BUILDERS[builder](grid, embed)
    assert [type(c) for c in seen] == [float] * 6
    # bit for bit, in candidate order: -0.0 and the subnormal too
    assert np.array_equal(np.array(seen).view(np.int64), grid[np.isfinite(grid)].view(np.int64))


@pytest.mark.parametrize("builder", sorted(ORBIT_BUILDERS))
def test_ragged_embedded_points_raise(builder):
    def embed(observed, cand):
        return np.append(observed, [cand] * (1 if cand < 1 else 2))

    with pytest.raises(ValueError):
        ORBIT_BUILDERS[builder](np.array([0.0, 2.0]), embed)


@pytest.mark.parametrize("builder", sorted(ORBIT_BUILDERS))
def test_empty_embedded_points_raise(builder):
    # nonsym_set acts on each embedded point first, and the group refuses it
    with pytest.raises(ValueError, match="does not match" if builder == "nonsym" else "empty point"):
        ORBIT_BUILDERS[builder](np.array([0.0, 1.0]), lambda observed, cand: np.empty(0))


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_orbit_scores_of_an_empty_point_raise(mode):
    with pytest.raises(ValueError, match="empty point"):
        orbit_scores(np.empty(0), last_coordinate, SymmetricGroup(3), mode=mode, mc_draws=5,
                     rng=np.random.default_rng(0))


@pytest.mark.parametrize("builder", sorted(NON_FINITE_BUILDERS))
def test_non_finite_candidates_are_never_members(builder):
    # the finite candidates keep their memberships; RuntimeWarnings are errors
    build = NON_FINITE_BUILDERS[builder]
    finite = np.array([-50.0, 0.5, 1.5, 2.0, 2.5, 50.0])
    grid = np.concatenate([[np.nan, np.inf], finite, [-np.inf]])
    ps = build(grid)
    assert not ps.member[[0, 1, -1]].any() and not ps.unbounded
    assert np.array_equal(ps.member[2:-1], build(finite).member)


def test_edge_clipped_sets():
    grid = np.linspace(0.0, 4.0, 41)
    # an interval set over a grid that starts inside it
    values = [1.0, 2.0, 3.0, 2.5, 1.2]
    assert split_conformal_set(values, np.linspace(1.5, 5, 36), 0.3).edge_clipped
    assert not split_conformal_set(values, np.linspace(-9, 9, 41), 0.3).edge_clipped
    # the hole form's memberships, in the harness's block of two tests
    donors = np.array([[1.0, 2.0, 3.5, 2.0, 3.0, 4.0]] * 2)
    target = np.array([[1.5, 2.5], [1.6, 2.4]])
    member = oracles.hole_members(donors, np.array([3, 3]), target, np.stack([grid[:12]] * 2),
                                  2.0, (0.3,), 12)
    assert all(PredictionSet(grid[:12], m).edge_clipped for m in member[0])
    # an orbit set; an unbounded set is not edge clipped
    ps = symmpi_set(np.array([1.0, 2.0, 3.0]), grid, append_embed, identity_map,
                    last_coordinate, SymmetricGroup(4), alpha=0.3)
    assert ps.member[0] and not ps.unbounded and ps.edge_clipped
    full = PredictionSet(grid, np.ones(grid.size, dtype=bool), unbounded=True)
    assert not full.edge_clipped and not PredictionSet(grid[:0], grid[:0] > 0).edge_clipped


def test_exact_orbit_set_memory_stays_bounded():
    # S_7 over 201 candidates: every acted copy at once would take 57 MB
    import tracemalloc

    obs = np.random.default_rng(18).normal(size=6)
    grid = np.linspace(-3, 3, 201)
    tracemalloc.start()
    try:
        ps = symmpi_set(obs, grid, append_embed, identity_map, last_coordinate,
                        SymmetricGroup(7), alpha=0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ps.meta == {"mode": "exact", "orbit_size": 5040}
    assert peak < 16 * 2**20


def _block_embed(observed, cand):
    return np.append(observed, cand).reshape(2, 3)


def _last_entry(z):
    return np.asarray(z)[..., -1, -1]


@pytest.mark.parametrize("V", [lambda z: z.ravel(), lambda z: float(np.sum(z))],
                         ids=["flattened", "scalar"])
def test_orbit_sets_need_one_V_row_per_candidate(V):
    # V is called once on the (G, 2, 3) stack of completed points
    obs, grid = np.arange(5.0), np.linspace(-1, 6, 11)
    group = BlockPermutationGroup(2, 3)
    with pytest.raises(ValueError, match="V must be vectorized over leading axes"):
        symmpi_set(obs, grid, _block_embed, V, _last_entry, group, 0.2)
    with pytest.raises(ValueError, match="V must be vectorized over leading axes"):
        randomized_set(obs, grid, _block_embed, V, _last_entry, group, 0.2, 0.5)
    reps = list(group.elements())[:3]
    with pytest.raises(ValueError, match="V must be vectorized over leading axes"):
        nonsym_set(obs, grid, _block_embed, V, _last_entry, WeightSpec(reps, np.full(3, 1 / 3)),
                   group, 0.2, np.random.default_rng(0))


def test_orbit_sets_call_V_on_bounded_stacks(monkeypatch):
    # 11 candidates of 6 floats, at most 16 stacked floats per V call
    from symmpi import calibrate

    obs, grid = np.array([0.2, -1.1, 0.4, 1.3, 0.9]), np.linspace(-3, 3, 11)
    group = BlockPermutationGroup(2, 3)
    want = symmpi_set(obs, grid, _block_embed, hierarchical_unsup_transform, _last_entry,
                      group, 0.2)
    stacks = []

    def V(z):
        stacks.append(z.shape)
        return hierarchical_unsup_transform(z)

    monkeypatch.setattr(calibrate, "_BLOCK_FLOATS", 16)
    got = symmpi_set(obs, grid, _block_embed, V, _last_entry, group, 0.2)
    assert stacks == [(2, 2, 3)] * 5 + [(1, 2, 3)]
    assert np.array_equal(got.member, want.member) and got.meta == want.meta


def test_orbit_sets_need_one_psi_score_per_candidate():
    obs, grid = np.array([0.3, -1.0, 0.8]), np.linspace(-2, 2, 9)
    with pytest.raises(ValueError, match="psi must be vectorized over leading axes"):
        symmpi_set(obs, grid, append_embed, identity_map, lambda z: float(np.max(z)),
                   SymmetricGroup(4), 0.2)


# ----------------------------------------------------------------------
# Non-symmetric weighted set
# ----------------------------------------------------------------------


def test_nonsym_uniform_weights_match_symmpi():
    rng = np.random.default_rng(7)
    n = 4
    reps, h = swap_with_last_cosets(n)
    from symmpi.groups import CosetDecomposition

    cosets = CosetDecomposition(reps, h)
    spec = WeightSpec(reps, np.full(n, 1 / n))
    for seed in range(100):
        rng_i = np.random.default_rng((8, seed))
        obs = rng_i.normal(size=n - 1)
        grid = np.linspace(-3, 3, 25)
        ps_ns = nonsym_set(obs, grid, append_embed, identity_map, last_coordinate,
                           spec, SymmetricGroup(n), alpha=0.25, rng=rng_i)
        ps = symmpi_set(obs, grid, append_embed, identity_map, last_coordinate,
                        SymmetricGroup(n), alpha=0.25, cosets=cosets)
        assert np.array_equal(ps_ns.member, ps.member)


def test_nonsym_degenerate_weight_keeps_full_grid():
    n = 4
    reps, _ = swap_with_last_cosets(n)
    weights = np.zeros(n)
    weights[1] = 1.0
    spec = WeightSpec(reps, weights)
    rng = np.random.default_rng(9)
    grid = np.linspace(-2, 2, 11)
    ps = nonsym_set(np.array([0.5, -0.2, 1.0]), grid, append_embed, identity_map,
                    last_coordinate, spec, SymmetricGroup(n), alpha=0.3, rng=rng)
    assert ps.member.all()


def test_nonsym_weighted_hand_enumeration():
    # n = 2 exchangeable: three swap-with-last representatives over [0,1,2]
    n = 3
    reps, _ = swap_with_last_cosets(n)
    weights = np.array([0.2, 0.3, 0.5])
    spec = WeightSpec(reps, weights)
    obs = np.array([1.0, 2.0])
    grid = np.array([0.5, 1.5, 2.5])
    ps = nonsym_set(obs, grid, append_embed, identity_map, last_coordinate,
                    spec, SymmetricGroup(n), alpha=0.4, rng=np.random.default_rng(1))
    # the per-candidate form, with the same drawn representative
    want = oracles.nonsym_members(obs, grid, append_embed, identity_map, last_coordinate,
                                  spec, SymmetricGroup(n), 0.4, np.random.default_rng(1))
    g_idx = int(np.random.default_rng(1).choice(3, p=weights))
    assert ps.meta == want.meta == {"drawn_rep": g_idx}
    assert np.array_equal(ps.member, want.member)


def test_weight_spec_validation():
    reps, _ = swap_with_last_cosets(3)
    with pytest.raises(ValueError):
        WeightSpec(reps, [0.5, 0.5])
    with pytest.raises(ValueError):
        WeightSpec(reps, [0.5, 0.6, -0.1])


# ----------------------------------------------------------------------
# Random sizes and first-observation sets
# ----------------------------------------------------------------------


def test_randomsize_threshold_examples():
    # the branch-weighted quantile that the per-candidate oracles rest on
    assert oracles._weighted_threshold([np.array([10.0]), np.array([1.0, 2.0, 3.0])], 0.4) == 10.0
    # equal sizes reduce to the flat quantile
    rng = np.random.default_rng(10)
    branches = [rng.normal(size=4) for _ in range(3)]
    flat = np.concatenate(branches)
    for alpha in (0.1, 0.3, 0.6):
        assert oracles._weighted_threshold(branches, alpha) == finite_quantile(flat, 1 - alpha)


def test_randomsize_equal_sizes_match_block_exact_set():
    rng = np.random.default_rng(11)
    K, M = 3, 2
    for _ in range(10):
        z = rng.normal(size=(K, M)) + rng.normal(size=(K, 1))
        observed = [z[0], z[1], z[2][:-1]]
        grid = np.linspace(z.min() - 2, z.max() + 2, 41)
        ps_r = symmpi_set_randomsize(observed, grid, alpha=0.25)

        from symmpi.transforms import hierarchical_unsup_transform

        def embed(obs, cand):
            return np.append(np.concatenate([obs[0], obs[1], obs[2]]), cand).reshape(K, M)

        def V(full):
            return hierarchical_unsup_transform(full, 2.0)

        def psi(zt):
            return np.asarray(zt)[..., -1, -1]

        ps_b = symmpi_set(observed, grid, embed, V, psi,
                          BlockPermutationGroup(K, M), alpha=0.25)
        assert np.array_equal(ps_r.member, ps_b.member)


def test_hcp_first_obs_examples():
    # K = 2 with one donor point: two atoms of weight 1/2; at alpha = 0.4 the
    # candidate is kept iff its score is <= the max of the two
    donors = [np.array([1.0])]
    grid = np.linspace(-4, 6, 201)
    ps = hcp_first_obs_set(donors, grid, alpha=0.4)
    grand = lambda c: (1.0 + c) / 2
    for c, m in zip(ps.candidates, ps.member):
        scores = np.array([abs(1.0 - grand(c)), abs(c - grand(c))])
        assert m == (scores[1] <= scores.max())
    # all scores equal -> full grid kept
    ps2 = hcp_first_obs_set([np.array([0.0, 0.0])], np.zeros(5), alpha=0.4)
    assert ps2.member.all()


def test_hcp_coverage_on_hierarchical_sim():
    rng = np.random.default_rng(12)
    trials = 3000
    covered = 0
    alpha = 0.3
    for _ in range(trials):
        mu = rng.normal(0, 1.0, 4)
        branches = [mu[k] + rng.normal(0, 0.5, 3) for k in range(3)]
        truth = mu[3] + rng.normal(0, 0.5)
        ps = hcp_first_obs_set(branches, np.array([truth]), alpha=alpha)
        covered += int(ps.member[0])
    se = np.sqrt(alpha * (1 - alpha) / trials)
    assert covered / trials >= 1 - alpha - 3 * se


def test_supervised_hierarchical_set_covers():
    rng = np.random.default_rng(13)
    trials = 400
    covered = 0
    alpha = 0.3
    K, Mt = 4, 8
    for _ in range(trials):
        theta = rng.normal(0, 2.0, K)
        xs = [rng.uniform(-0.5, 0.5, Mt) for _ in range(K)]
        ys = [theta[k] * xs[k] + rng.normal(0, 0.5, Mt) for k in range(K)]
        tr_x = [x[:4] for x in xs]
        tr_y = [y[:4] for y in ys]
        cal_x = [x[4:] for x in xs]
        cal_y = [y[4:] for y in ys]
        x_new = cal_x[-1][-1]
        truth = cal_y[-1][-1]
        cal_x[-1] = cal_x[-1][:-1]
        cal_y[-1] = cal_y[-1][:-1]
        ps = supervised_hierarchical_set(tr_x, tr_y, cal_x, cal_y, x_new,
                                         np.array([truth]), alpha)
        covered += int(ps.member[0])
    se = np.sqrt(alpha * (1 - alpha) / trials)
    assert covered / trials >= 1 - alpha - 3 * se


def test_supervised_hierarchical_set_rejects_empty_donor_calibration_branch():
    rng = np.random.default_rng(5)
    tr_x = [rng.uniform(-0.5, 0.5, 4) for _ in range(3)]
    tr_y = [x + rng.normal(0, 0.5, 4) for x in tr_x]
    cal_x = [rng.uniform(-0.5, 0.5, 3), np.empty(0), rng.uniform(-0.5, 0.5, 3)]
    cal_y = [x + rng.normal(0, 0.5, x.size) for x in cal_x]
    grid = np.linspace(-3, 3, 61)
    with pytest.raises(ValueError, match="every donor branch needs a calibration value"):
        supervised_hierarchical_set(tr_x, tr_y, cal_x, cal_y, 0.1, grid, 0.2)
    # an empty target branch is allowed: the candidate is its only value
    cal_x[1], cal_y[1], cal_x[2], cal_y[2] = cal_x[2], cal_y[2], cal_x[1], cal_y[1]
    assert supervised_hierarchical_set(tr_x, tr_y, cal_x, cal_y, 0.1, grid, 0.2).member.any()
    # the flat rows would hide a branch whose x and y counts differ
    cal_y[0], cal_y[1] = cal_y[0][:2], np.append(cal_y[1], cal_y[0][2])
    with pytest.raises(ValueError, match="one x row per y value"):
        supervised_hierarchical_set(tr_x, tr_y, cal_x, cal_y, 0.1, grid, 0.2)


# ----------------------------------------------------------------------
# Over-coverage bound and shift diagnostic
# ----------------------------------------------------------------------


def test_overcoverage_s4():
    z = np.array([0.4, -1.0, 2.0, 3.5])
    assert overcoverage_bound(SymmetricGroup(4), last_coordinate, z) == pytest.approx(0.25)


def test_overcoverage_trivial_group():
    assert overcoverage_bound(TrivialGroup(), last_coordinate, np.array([1.0, 2.0])) == 1.0


def test_overcoverage_block_group():
    rng = np.random.default_rng(14)
    for K, M in [(2, 2), (3, 2), (2, 3)]:
        z = rng.normal(size=K * M)
        got = overcoverage_bound(BlockPermutationGroup(K, M), last_coordinate, z)
        assert got == pytest.approx(1.0 / (K * M))
        # the same bound on (K, M) points
        assert overcoverage_bound(BlockPermutationGroup(K, M), lambda v: np.asarray(v)[..., -1, -1],
                                  z.reshape(K, M)) == got


def test_estimate_shift_gap_examples():
    rng = np.random.default_rng(15)
    a = rng.normal(size=40_000)
    b = rng.normal(size=40_000)
    assert estimate_shift_gap(a, b) <= 0.03
    assert estimate_shift_gap(-np.ones(100), np.ones(100)) == 1.0


def test_estimate_shift_gap_applies_nu_to_score_points():
    # nu maps score-space vectors to the scalar slack; identical laws -> ~0
    rng = np.random.default_rng(18)
    a = rng.normal(size=(20_000, 3))
    b = rng.normal(size=(20_000, 3))
    nu = lambda z: z[-1] - np.median(z)
    assert estimate_shift_gap(a, b, nu=nu) <= 0.04
    shifted = b + np.array([0.0, 0.0, 5.0])
    assert estimate_shift_gap(a, shifted, nu=nu) >= 0.5


def test_estimate_shift_gap_discrete_oracle():
    rng = np.random.default_rng(16)
    support = np.array([0.0, 1.0, 2.0, 3.0])
    pa = np.array([0.4, 0.3, 0.2, 0.1])
    pb = np.array([0.1, 0.2, 0.3, 0.4])
    exact = 0.5 * np.abs(pa - pb).sum()
    a = rng.choice(support, p=pa, size=100_000)
    b = rng.choice(support, p=pb, size=100_000)
    assert abs(estimate_shift_gap(a, b) - exact) <= 0.02


def test_estimate_shift_gap_counts_nans_as_one_value():
    # 63 values and the NaNs fill the 64 points of the exact count only when
    # the NaNs are one point, as np.unique makes them; a histogram would put
    # 0 and 0.001 in one bin. A NaN matches no sample.
    a = np.r_[0.0, 0.001, np.arange(1.0, 62.0)]
    assert estimate_shift_gap(a, [0.001, np.nan, np.nan]) == pytest.approx(
        0.5 * ((1 / 3 - 1 / 63) + 62 / 63), abs=1e-15)
    assert estimate_shift_gap([0.0, np.nan, -0.0, np.nan], [0.0, 1.0]) == 0.25


@pytest.mark.parametrize("a, b", [([], [1.0]), ([1.0], []), ([], [])])
def test_estimate_shift_gap_rejects_empty_samples(a, b):
    with pytest.raises(ValueError, match="nonempty"):
        estimate_shift_gap(a, b)


# ----------------------------------------------------------------------
# PredictionSet mechanics
# ----------------------------------------------------------------------


def test_prediction_set_intervals_and_length():
    grid = np.linspace(0, 1, 11)
    member = np.array([0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0], dtype=bool)
    ps = PredictionSet(grid, member)
    assert ps.intervals() == [(pytest.approx(0.1), pytest.approx(0.2)),
                              (pytest.approx(0.5), pytest.approx(0.7))]
    assert ps.length == pytest.approx(5 * 0.1)
    assert ps.covers(0.15) and not ps.covers(0.35)


def test_prediction_set_length_needs_uniform_candidates():
    ps = PredictionSet(np.array([0.0, 0.1, 0.2, 10.0]), np.array([1, 1, 0, 1], dtype=bool))
    with pytest.raises(ValueError):
        ps.length
    # a uniform grid far from zero passes despite rounding in its values
    far = PredictionSet(np.linspace(1e6, 1e6 + 1, 2001), np.ones(2001, dtype=bool))
    assert far.length == 2001 * far.spacing


def test_prediction_set_unbounded_invariant():
    with pytest.raises(ValueError):
        PredictionSet(np.arange(3.0), np.array([True, False, True]), unbounded=True)


def test_candidate_grid_spans_data():
    rng = np.random.default_rng(17)
    v = rng.normal(2.0, 3.0, 500)
    grid = candidate_grid(v, 101, 4.0)
    assert grid.size == 101
    assert grid[0] <= v.min() - 3.9 * v.std()
    assert grid[-1] >= v.max() + 3.9 * v.std()


@pytest.mark.parametrize("values, problem", [
    ([1.0, np.nan, 2.0], "finite"), ([1.0, np.inf], "finite"), ([-np.inf, 0.0], "finite"),
    ([], "at least one data value")])
def test_candidate_grid_rejects_empty_or_non_finite_values(values, problem):
    with pytest.raises(ValueError, match=problem):
        candidate_grid(values, 5)


def test_grids_need_two_points():
    from symmpi.calibrate import rotation_region

    pts = np.random.default_rng(0).normal(size=(6, 2))
    for n_points in (0, 1):
        with pytest.raises(ValueError, match="at least 2 points"):
            candidate_grid([0.0, 1.0], n_points)
        with pytest.raises(ValueError, match="at least 2 points"):
            rotation_region(pts, 0.1, mc_draws=20, rng=np.random.default_rng(0),
                            grid_points=n_points)
    assert candidate_grid([0.0, 1.0], 2).size == 2


# ----------------------------------------------------------------------
# alpha outside [0, 1]
# ----------------------------------------------------------------------


def _alpha_callers():
    from symmpi.baselines import single_tree_set, split_conformal_set, subsampling_set
    from symmpi.network import cluster_sum_set, graph_vertex_set, tree_leaf_set
    from symmpi.calibrate import rotation_region, rotation_region_covers, rotation_supervised_set

    obs = np.array([0.3, -0.2, 1.1])
    grid = np.linspace(-2.0, 2.0, 9)
    branches = [np.array([0.1, 0.4]), np.array([1.0, 1.3]), np.array([0.5])]
    reps, _ = swap_with_last_cosets(3)
    spec = WeightSpec(reps, np.full(3, 1 / 3))
    xs = [np.array([0.1, 0.2, 0.3]), np.array([-0.1, 0.2, 0.4])]
    ys = [2 * x for x in xs]
    path3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    pts = np.random.default_rng(0).normal(size=(6, 2))
    rng = np.random.default_rng
    orbit = (obs, grid, append_embed, identity_map, last_coordinate, SymmetricGroup(4))
    return {
        "rank_member": lambda a: rank_member(np.zeros(3), a),
        "threshold_from_scores": lambda a: threshold_from_scores(obs, a),
        "symmpi_set": lambda a: symmpi_set(*orbit, a),
        "randomized_set": lambda a: randomized_set(*orbit, a, 0.5),
        "nonsym_set": lambda a: nonsym_set(obs[:2], grid, append_embed, identity_map,
                                           last_coordinate, spec, SymmetricGroup(3), a, rng(0)),
        "symmpi_set_randomsize": lambda a: symmpi_set_randomsize(branches, grid, a),
        "supervised_hierarchical_set": lambda a: supervised_hierarchical_set(
            xs, ys, [xs[0], xs[1][:-1]], [ys[0], ys[1][:-1]], 0.4, grid, a),
        "hcp_first_obs_set": lambda a: hcp_first_obs_set(branches, grid, a),
        "split_conformal_set": lambda a: split_conformal_set(obs, grid, a),
        "single_tree_set": lambda a: single_tree_set(obs, grid, a),
        "subsampling_set": lambda a: subsampling_set(branches, grid, a, rng(0)),
        # the centre of a three-vertex path is a size-one orbit
        "graph_vertex_set": lambda a: graph_vertex_set(
            [0.1, np.nan, 0.2], enumerate_automorphisms(path3), 1, grid, a),
        "tree_leaf_set": lambda a: tree_leaf_set(np.ones((2, 2)), grid, a),
        "cluster_sum_set": lambda a: cluster_sum_set(obs, grid, a),
        "rotation_region": lambda a: rotation_region(pts, a, mc_draws=20, rng=rng(0)),
        "rotation_region_covers": lambda a: rotation_region_covers(pts, pts[:2], a, 20, rng(0)),
        "rotation_supervised_set": lambda a: rotation_supervised_set(
            pts, pts[:, 0], pts[0], lambda yv, xp: np.abs(yv - xp[:, 0]), grid, a, 20, rng(0)),
    }


@pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan")])
@pytest.mark.parametrize("name", sorted(_alpha_callers()))
def test_set_builders_reject_alpha_outside_unit_interval(name, alpha):
    call = _alpha_callers()[name]
    call(0.2)  # a valid alpha goes through
    with pytest.raises(ValueError, match="alpha"):
        call(alpha)


def test_set_builders_keep_nothing_at_alpha_one():
    # one rule at alpha = 1: no mass below a score is under 1 - alpha = 0, so
    # every set is empty. threshold_from_scores is not a set, and the fixed
    # vertex of the graph case is a trivial orbit, flagged and kept whole by
    # design.
    from symmpi.network import graph_vertex_set

    callers = _alpha_callers()
    del callers["threshold_from_scores"], callers["graph_vertex_set"]
    obs, grid = np.array([0.5, -0.2, 1.0]), np.linspace(-2.0, 2.0, 11)
    orbit = (obs, grid, append_embed, identity_map, last_coordinate, SymmetricGroup(4))
    mc = dict(mode="mc", mc_draws=50)
    callers["symmpi_set (mc)"] = lambda a: symmpi_set(*orbit, a, rng=np.random.default_rng(0),
                                                      **mc)
    callers["randomized_set (mc)"] = lambda a: randomized_set(
        *orbit, a, 0.5, rng=np.random.default_rng(0), **mc)
    path3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    callers["graph_vertex_set (end vertex)"] = lambda a: graph_vertex_set(
        [np.nan, 0.1, 0.2], enumerate_automorphisms(path3), 0, grid, a)
    for name, call in callers.items():
        out = call(1.0)
        assert not np.any(getattr(out, "member", out)), name


@pytest.mark.parametrize("c", [-1.0, -0.3, float("nan"), -float("inf")])
def test_hierarchical_entry_points_reject_a_negative_or_nan_c(c):
    branches = [np.array([0.1, 0.4, -0.2]), np.array([1.0, 1.3]), np.array([0.5, 0.7])]
    grid = np.linspace(-2.0, 3.0, 21)
    calls = [
        lambda: hierarchical_below(branches, grid, c),
        lambda: symmpi_set_randomsize(branches, grid, 0.2, c),
        lambda: supervised_hierarchical_set(
            [np.zeros((2, 1)), np.ones((2, 1))], [np.array([0.1, 0.2]), np.array([0.3, 0.1])],
            [np.zeros((2, 1)), np.ones((1, 1))], [np.array([0.2, 0.0]), np.array([])],
            np.ones(1), grid, 0.2, c),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="c must be nonnegative"):
            call()


def test_hierarchical_sets_take_an_infinite_c():
    """c = inf centers every branch at the grand mean: the set is the one of
    any c beyond every branch's distance to it."""
    rng = np.random.default_rng(4)
    branches = [rng.normal(m, 1.0, 5) for m in (0.0, 3.0, -2.0)] + [rng.normal(1.0, 1.0, 4)]
    grid = candidate_grid(np.concatenate(branches), 201)
    big = symmpi_set_randomsize(branches, grid, 0.2, 1e6)
    inf = symmpi_set_randomsize(branches, grid, 0.2, float("inf"))
    assert np.array_equal(inf.member, big.member)
