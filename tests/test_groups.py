import itertools
import math

import numpy as np
import pytest

import oracles
from symmpi.calibrate import _BLOCK_FLOATS, symmpi_set
from symmpi.chains import StabilizerChain, WeightedGraph
from symmpi.groups import (
    BlockPermutationGroup,
    GraphAutomorphismGroup,
    NotEnumerableError,
    OrthogonalGroup,
    Permutation,
    SymmetricGroup,
    TrivialGroup,
    _haar_matrices,
    actions_of,
    coset_representatives,
    default_probes,
    enumerate_automorphisms,
    iter_actions,
    orbit_of_index,
    sample_block_permutation,
    sample_haar_orthogonal,
    sample_actions,
    sample_uniform_permutation,
)
from symmpi.transforms import energy_permutation_test


def path_graph(n):
    A = np.zeros((n, n))
    for i in range(n - 1):
        A[i, i + 1] = A[i + 1, i] = 1.0
    return A


def cycle_graph(n):
    A = path_graph(n)
    A[0, n - 1] = A[n - 1, 0] = 1.0
    return A


# ----------------------------------------------------------------------
# Haar sampling on O(p)
# ----------------------------------------------------------------------


def test_haar_p1_is_fair_sign():
    rng = np.random.default_rng(0)
    draws = np.array([sample_haar_orthogonal(1, rng)[0, 0] for _ in range(100_000)])
    assert set(np.unique(draws)) == {-1.0, 1.0}
    freq = np.mean(draws == 1.0)
    se = np.sqrt(0.25 / draws.size)
    assert abs(freq - 0.5) <= 3 * se


@pytest.mark.parametrize("p", [2, 3, 5])
def test_haar_orthogonality(p):
    rng = np.random.default_rng(1)
    for _ in range(20):
        q = sample_haar_orthogonal(p, rng)
        assert np.abs(q.T @ q - np.eye(p)).max() <= 1e-10
        assert abs(abs(np.linalg.det(q)) - 1.0) <= 1e-8


def test_haar_left_invariance():
    # first column of R @ Q matches that of Q in law for a fixed rotation R
    rng = np.random.default_rng(2)
    p = 3
    theta = 0.7
    R = np.eye(p)
    R[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    a = np.array([(R @ sample_haar_orthogonal(p, rng))[:, 0] for _ in range(10_000)])
    b = np.array([sample_haar_orthogonal(p, rng)[:, 0] for _ in range(10_000)])
    _, pval = energy_permutation_test(a, b, rng)
    assert pval > 0.01


@pytest.mark.parametrize("p", [1, 2, 3, 6])
@pytest.mark.parametrize("k", [1, 7])
def test_stacked_haar_draws_are_successive_single_draws(p, k):
    stacked, single = np.random.default_rng(p * k), np.random.default_rng(p * k)
    got = _haar_matrices(p, k, stacked)
    want = np.stack([sample_haar_orthogonal(p, single) for _ in range(k)])
    assert got.shape == (k, p, p) and np.array_equal(got, want)
    assert stacked.bit_generator.state == single.bit_generator.state


def test_haar_rejects_zero_dimension():
    with pytest.raises(ValueError):
        sample_haar_orthogonal(0, np.random.default_rng(0))


def test_orthogonal_group_axioms_on_sampled_triples():
    rng = np.random.default_rng(3)
    G = OrthogonalGroup(3)
    z = rng.normal(size=(4, 3))
    for _ in range(50):
        a, b, c = (G.sample(rng) for _ in range(3))
        assert np.allclose(G.compose(G.compose(a, b), c), G.compose(a, G.compose(b, c)), atol=1e-12)
        assert np.allclose(G.act(G.identity(), z), z)
        assert np.allclose(G.act(G.compose(a, b), z), G.act(a, G.act(b, z)), atol=1e-12)
        assert np.allclose(G.compose(a, G.inverse(a)), np.eye(3), atol=1e-12)
    with pytest.raises(NotEnumerableError):
        G.elements()


# ----------------------------------------------------------------------
# Permutations
# ----------------------------------------------------------------------


def test_uniform_permutation_n1_is_identity():
    rng = np.random.default_rng(4)
    for _ in range(10):
        assert sample_uniform_permutation(1, rng) == Permutation.identity(1)


def test_uniform_permutation_frequencies_n3():
    rng = np.random.default_rng(5)
    draws = 60_000
    counts = {}
    for _ in range(draws):
        p = sample_uniform_permutation(3, rng)
        counts[p] = counts.get(p, 0) + 1
    assert len(counts) == 6
    se = np.sqrt((1 / 6) * (5 / 6) / draws)
    for c in counts.values():
        assert abs(c / draws - 1 / 6) <= 3 * se


def test_permutation_compose_inverse_identity():
    rng = np.random.default_rng(6)
    for _ in range(100):
        p = sample_uniform_permutation(7, rng)
        assert p.compose(p.inverse()) == Permutation.identity(7)


def test_permutation_action_convention():
    # act moves the value at position i to position g(i)
    g = Permutation([1, 2, 0])
    z = np.array([10.0, 20.0, 30.0])
    out = g.act(z)
    for i in range(3):
        assert out[g(i)] == z[i]


def test_symmetric_group_axioms_exhaustive():
    G = SymmetricGroup(3)
    elements = list(G.elements())
    assert len(elements) == G.order() == 6
    z = np.array([1.0, 2.0, 4.0])
    for a in elements:
        for b in elements:
            assert np.array_equal(G.act(G.compose(a, b), z), G.act(a, G.act(b, z)))
        assert G.compose(a, G.inverse(a)) == G.identity()


def test_haar_invariance_for_permutation_action():
    rng = np.random.default_rng(7)
    G = SymmetricGroup(5)
    g = sample_uniform_permutation(5, rng)
    z = np.array([0.3, -1.2, 2.0, 0.05, 7.0])
    a = np.array([G.act(G.compose(g, G.sample(rng)), z) for _ in range(10_000)])
    b = np.array([G.act(G.sample(rng), z) for _ in range(10_000)])
    _, pval = energy_permutation_test(a, b, rng)
    assert pval > 0.01


# ----------------------------------------------------------------------
# Block permutations
# ----------------------------------------------------------------------


def test_block_permutation_trivial_sizes():
    rng = np.random.default_rng(8)
    for _ in range(10):
        assert sample_block_permutation(1, 1, rng) == Permutation.identity(1)


def test_block_permutation_k2_m1_frequencies():
    rng = np.random.default_rng(9)
    G = BlockPermutationGroup(2, 1)
    assert G.order() == 2
    draws = 20_000
    swaps = sum(sample_block_permutation(2, 1, rng)(0) == 1 for _ in range(draws))
    se = np.sqrt(0.25 / draws)
    assert abs(swaps / draws - 0.5) <= 3 * se


def test_block_permutation_k2_m2_uniform_over_enumeration():
    rng = np.random.default_rng(10)
    G = BlockPermutationGroup(2, 2)
    elements = list(G.elements())
    assert len(elements) == G.order() == 8  # 2! * (2!)^2
    index = {g: i for i, g in enumerate(elements)}
    draws = 80_000
    counts = np.zeros(8)
    for _ in range(draws):
        counts[index[sample_block_permutation(2, 2, rng)]] += 1
    se = np.sqrt((1 / 8) * (7 / 8) / draws)
    assert np.all(np.abs(counts / draws - 1 / 8) <= 3 * se)


def test_block_permutation_group_axioms():
    G = BlockPermutationGroup(2, 2)
    elements = list(G.elements())
    z = np.arange(4.0)
    for a in elements:
        for b in elements:
            c = G.compose(a, b)
            assert c in elements
            assert np.array_equal(G.act(c, z), G.act(a, G.act(b, z)))
        assert G.compose(a, G.inverse(a)) == G.identity()


def test_block_permutation_acts_on_blocks():
    G = BlockPermutationGroup(2, 2)
    g = Permutation([2, 3, 1, 0])  # outer [1, 0], inners [0, 1] and [1, 0]
    z = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = G.act(g, z)
    # block 0 -> block 1 unchanged; block 1 -> block 0 with entries swapped
    assert np.array_equal(out, np.array([[4.0, 3.0], [1.0, 2.0]]))
    assert np.array_equal(G.act(g, z.ravel()), out.ravel())
    with pytest.raises(ValueError):
        G.act(g, np.zeros((4, 1)))
    # a draw is the outer permutation, then one inner permutation per block
    rng = np.random.default_rng(17)
    outer, inners = rng.permutation(3), [rng.permutation(2) for _ in range(3)]
    g = sample_block_permutation(3, 2, np.random.default_rng(17))
    assert all(g(2 * k + i) == 2 * outer[k] + inners[k][i] for k in range(3) for i in range(2))


def test_block_group_order_formula():
    import math

    for K, M in [(1, 3), (2, 2), (3, 2)]:
        G = BlockPermutationGroup(K, M)
        assert sum(1 for _ in G.elements()) == math.factorial(K) * math.factorial(M) ** K


BLOCK_SHAPES = [(K, M) for K in (1, 2, 3) for M in (1, 2, 3)] + [(4, 2)]


def test_block_mapping_batches_follow_element_order():
    # lexicographic in the flat images, as every permutation group lists
    for K, M in BLOCK_SHAPES:
        G = BlockPermutationGroup(K, M)
        want = np.array(sorted(oracles.block_maps(K, M).tolist()), dtype=np.int64)
        for batch_size in (250_000, 7):
            got = np.concatenate(list(G.iter_mapping_batches(batch_size)))
            assert np.array_equal(got, want)
        assert np.array_equal([g.mapping for g in G.elements()], want)


def test_symmetric_mapping_batches_follow_itertools_order():
    # S_8 is the first listed through a chain level before its 7-point tail
    for n in range(1, 9):
        want = oracles.symmetric_maps(n)
        for batch_size in (5, 96, None):
            G = SymmetricGroup(n)
            batches = list(G.iter_mapping_batches() if batch_size is None
                           else G.iter_mapping_batches(batch_size))
            assert all(b.shape[0] <= (batch_size or 250_000) for b in batches)
            got = np.concatenate(batches)
            assert got.dtype == np.int64 and np.array_equal(got, want)
    assert np.array_equal([g.mapping for g in SymmetricGroup(4).elements()],
                          oracles.symmetric_maps(4))


KEPT_LISTINGS = {
    "S6": lambda: SymmetricGroup(6),
    "S7": lambda: SymmetricGroup(7),
    "block-2-3": lambda: BlockPermutationGroup(2, 3),
    "block-3-3": lambda: BlockPermutationGroup(3, 3),
    "block-2-4": lambda: BlockPermutationGroup(2, 4),
    "cycle-6": lambda: enumerate_automorphisms(cycle_graph(6)),
}


@pytest.mark.parametrize("name", sorted(KEPT_LISTINGS))
def test_small_listings_are_kept_with_their_chain(name):
    group, again = KEPT_LISTINGS[name](), KEPT_LISTINGS[name]()
    listing = group._chain.listing
    n = listing.shape[1]
    assert listing.size <= math.factorial(7) * 7 and len(listing) <= _BLOCK_FLOATS // n
    assert np.array_equal(listing, np.concatenate(list(group._chain._lex_stream(5))))
    assert not listing.flags.writeable
    with pytest.raises(ValueError):
        listing[0, 0] = 1
    batches = list(group.iter_mapping_batches(7))
    assert all(not b.flags.writeable for b in batches)
    assert np.array_equal(np.concatenate(batches), listing)
    if isinstance(group, GraphAutomorphismGroup):  # one chain per graph group
        assert again._chain.listing is not listing
    else:  # one chain per shape
        assert again._chain.listing is listing


def test_large_listings_are_not_kept():
    for group in (SymmetricGroup(8), BlockPermutationGroup(2, 5),
                  enumerate_automorphisms(np.zeros((8, 8)))):
        assert group._chain.listing is None
        first = next(iter(group.iter_mapping_batches(1000)))
        assert first.shape == (1000, math.prod(group.shape))
        # read-only as a kept listing's slices are, whatever the group's size
        with pytest.raises(ValueError):
            first[0, 0] = 1


@pytest.mark.parametrize("group", [SymmetricGroup(n) for n in range(1, 9)]
                         + [BlockPermutationGroup(K, M) for K, M in BLOCK_SHAPES],
                         ids=[f"S{n}" for n in range(1, 9)]
                         + [f"block-{K}-{M}" for K, M in BLOCK_SHAPES])
def test_closed_form_chains_match_schreier_sims(group):
    chain = group._chain
    built = StabilizerChain.generated_by(chain.n, [g for _, g in chain.generators])
    assert [v for v, _ in chain.levels] == [v for v, _ in built.levels]
    for (_, orbit), (_, want) in zip(chain.levels, built.levels):
        assert np.array_equal(orbit, want)
    K, M = group._blocks
    assert chain.order == built.order == math.factorial(K) * math.factorial(M) ** K
    assert np.array_equal(chain.labels == chain.labels[0], built.labels == built.labels[0])


def test_block_uniform_batch_accepts_flat_points():
    G = BlockPermutationGroup(3, 2)
    index = np.broadcast_to(np.arange(6), (500, 6))
    out = G.act_uniform_batch(np.random.default_rng(14), index)
    assert out.shape == (500, 6)
    for row in out.reshape(500, 3, 2):
        # every block is a whole source block, possibly with its entries swapped
        assert sorted(tuple(sorted(b)) for b in row.tolist()) == [(0, 1), (2, 3), (4, 5)]
    assert len({tuple(r) for r in out.tolist()}) == G.order()


def test_sample_actions_act_like_sampled_elements():
    # groups without a batched sampler draw group.sample in order
    aut = enumerate_automorphisms(cycle_graph(5))
    z = np.arange(5.0) ** 2
    got = np.concatenate([act(z) for _, act in
                          sample_actions(aut, z.shape, 25, np.random.default_rng(15), 10)])
    rng = np.random.default_rng(15)
    want = np.array([aut.act(aut.sample(rng), z) for _ in range(25)])
    assert np.array_equal(got, want)


BATCHED_GROUPS = {
    "symmetric": lambda: SymmetricGroup(4),
    "block": lambda: BlockPermutationGroup(2, 3),
    "cycle": lambda: enumerate_automorphisms(cycle_graph(5)),
}


def _acted_per_element(group, elements, points):
    """group.act of each element on the stacked points, stacked after their
    leading axes: the layout of a batched action's copies."""
    lead = points.ndim - len(group.shape)
    return np.stack([group.act(g, points) for g in elements], axis=lead)


@pytest.mark.parametrize("name", sorted(BATCHED_GROUPS))
def test_batched_actions_act_like_group_act(name):
    group = BATCHED_GROUPS[name]()
    rng = np.random.default_rng(17)
    points = rng.normal(size=(2, 3) + group.shape)
    members = {tuple(g.mapping.tolist()) for g in group.elements()}
    # every element, in batches of 7 images
    seen = 0
    for maps, act in iter_actions(group, group.shape, 7):
        elements = [Permutation(m) for m in maps]
        assert np.array_equal(act(points), _acted_per_element(group, elements, points))
        seen += len(elements)
    assert seen == group.order()
    # given representatives, in one batch
    reps = [group.sample(rng) for _ in range(5)]
    [(maps, act)] = actions_of(group, reps, group.shape)
    assert np.array_equal(maps, [g.mapping for g in reps])
    assert np.array_equal(act(points), _acted_per_element(group, reps, points))
    # Monte-Carlo draws in batches of 10; a batched sampler yields the
    # inverse images of its draws, the others the images of group.sample's
    batched = hasattr(group, "act_uniform_batch")
    drawn = 0
    for maps, act in sample_actions(group, group.shape, 25, np.random.default_rng(18), 10):
        elements = [Permutation(np.argsort(m) if batched else m) for m in maps]
        assert {tuple(g.mapping.tolist()) for g in elements} <= members
        assert np.array_equal(act(points), _acted_per_element(group, elements, points))
        drawn += len(elements)
    assert drawn == 25


# ----------------------------------------------------------------------
# Graph automorphisms
# ----------------------------------------------------------------------


def test_automorphisms_match_backtracking_in_order():
    rng = np.random.default_rng(16)
    weighted = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    star = np.zeros((6, 6))
    star[0, 1:] = star[1:, 0] = 1.0
    graphs = [np.zeros((5, 5)), path_graph(5), cycle_graph(6), weighted, star,
              np.diag([1.0, 0.0, 1.0, 0.0])]
    for _ in range(6):
        A = np.triu(rng.choice([0.0, 1.0, 2.0], (7, 7)), 1)
        graphs.append(A + A.T)
    for A in graphs:
        got = [tuple(g.mapping.tolist()) for g in enumerate_automorphisms(A).elements()]
        want = [tuple(g.mapping.tolist()) for g in oracles.backtrack_automorphisms(A)]
        assert got == want


def test_every_element_as_generators_gives_the_searched_group():
    # each element list of a group also generates it, so Schreier–Sims on
    # the whole list rebuilds the group the search finds
    for A in (cycle_graph(4), petersen_graph(), cube_graph()):
        searched = enumerate_automorphisms(A)
        listed = list(searched.elements())
        rebuilt = enumerate_automorphisms(A, generators=listed[::-1])
        assert rebuilt.order() == searched.order() == len(listed)
        for i in range(A.shape[0]):
            for got, want in zip(orbit_of_index(rebuilt, i), orbit_of_index(searched, i)):
                assert np.array_equal(got, want)
        assert [g.mapping.tolist() for g in rebuilt.elements()] == [
            g.mapping.tolist() for g in listed]


def test_automorphisms_reject_non_finite_weights():
    A = np.zeros((3, 3))
    A[0, 2] = A[2, 0] = np.nan
    with pytest.raises(ValueError, match="adjacency entries must be finite, got nan "
                                         "between vertices 0 and 2"):
        enumerate_automorphisms(A)
    A[0, 2] = A[2, 0] = np.inf
    with pytest.raises(ValueError, match="must be finite, got inf"):
        enumerate_automorphisms(A, generators=[Permutation([2, 1, 0])])


def star_graph(leaves):
    A = np.zeros((leaves + 1, leaves + 1))
    A[0, 1:] = A[1:, 0] = 1.0
    return A


def test_star_automorphisms_without_listing():
    aut = enumerate_automorphisms(star_graph(40), cap=41)
    assert aut.order() == math.factorial(40)
    orbit, stab = orbit_of_index(aut, 17)
    assert np.array_equal(orbit, np.arange(1, 41)) and stab == math.factorial(39)
    orbit, stab = orbit_of_index(aut, 0)
    assert orbit.tolist() == [0] and stab == math.factorial(40)
    assert enumerate_automorphisms(star_graph(60), cap=61).order() == math.factorial(60)


def graph_of(n, edges):
    A = np.zeros((n, n))
    for u, v in edges:
        A[u, v] = A[v, u] = 1.0
    return A


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graph_of(10, outer + spokes + inner)


def cube_graph():
    return graph_of(8, [(u, u ^ (1 << b)) for u in range(8) for b in range(3) if u < u ^ (1 << b)])


@pytest.mark.parametrize("name, A, order", [
    ("petersen", petersen_graph(), 120),
    ("cube", cube_graph(), 48),
    ("K33", graph_of(6, [(u, v) for u in range(3) for v in range(3, 6)]), 72),
    ("C10", cycle_graph(10), 20),
])
def test_graph_chain_draws_cover_each_element_once(name, A, order):
    # a draw is one transversal pick per level, in level order; over all
    # picks, the products are the group's elements, each exactly once
    aut = enumerate_automorphisms(A)
    transversals = aut._chain._transversals
    products = []
    for picks in itertools.product(*(range(len(t)) for t in transversals)):
        p = np.arange(aut.n)
        for t, u in zip(transversals, picks):
            p = p[t[u]]
        products.append(tuple(p.tolist()))
    listed = [tuple(g.mapping.tolist()) for g in aut.elements()]
    assert len(products) == len(listed) == order
    assert sorted(products) == listed
    for seed in range(5):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(10):
            p = np.arange(aut.n)
            for t in transversals:
                p = p[t[ref.integers(len(t))]]
            assert np.array_equal(aut.sample(rng).mapping, p)
        assert rng.random() == ref.random()


def test_graph_sample_needs_no_listing():
    import tracemalloc

    aut = enumerate_automorphisms(star_graph(12), cap=13)  # 12! elements
    rng = np.random.default_rng(4)
    tracemalloc.start()
    g = aut.sample(rng)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 2**20
    assert g.mapping[0] == 0 and sorted(g.mapping.tolist()) == list(range(13))


def test_graph_sample_runs_monte_carlo_beyond_integer_orders():
    # the seeded tree's group has order about 2.3e57, past rng.integers
    A = oracles.random_tree(1000, 5)
    aut = enumerate_automorphisms(A, cap=1000)
    assert aut.order() > 2**63
    graph = WeightedGraph(A)
    rng = np.random.default_rng(0)
    assert all(graph.preserves(aut.sample(rng).mapping.tolist()) for _ in range(20))
    target = max(range(1000), key=lambda i: orbit_of_index(aut, i)[0].size)
    orbit = orbit_of_index(aut, target)[0]
    assert orbit.size >= 5
    observed = np.delete(np.arange(1000.0), target)
    candidates = np.array([orbit.min() - 1.0, orbit.max() + 1.0])
    ps = symmpi_set(observed, candidates, lambda o, c: np.insert(o, target, c), lambda z: z,
                    lambda z: np.asarray(z)[..., target], aut, 0.3, mode="mc", mc_draws=300,
                    rng=rng)
    # below every other orbit value the candidate is kept, above them it is not
    assert ps.member.tolist() == [True, False]


def test_random_tree_order_is_the_rooted_tree_count():
    A = oracles.random_tree(200, 7)
    aut = enumerate_automorphisms(A, cap=200)
    assert aut.order() == oracles.tree_automorphism_count(A)
    for i in range(200):
        orbit, stab = orbit_of_index(aut, i)
        assert i in orbit and orbit.size * stab == aut.order()


def test_automorphisms_edgeless_graph():
    aut = enumerate_automorphisms(np.zeros((3, 3)))
    assert aut.order() == 6


def test_automorphisms_path3():
    aut = enumerate_automorphisms(path_graph(3))
    maps = sorted(tuple(g.mapping.tolist()) for g in aut.elements())
    assert maps == [(0, 1, 2), (2, 1, 0)]


def test_automorphisms_cycle4_dihedral():
    aut = enumerate_automorphisms(cycle_graph(4))
    assert aut.order() == 8


def test_automorphisms_reject_nonsymmetric_and_cap():
    with pytest.raises(ValueError):
        enumerate_automorphisms(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        enumerate_automorphisms(np.zeros((11, 11)))


def test_automorphisms_generator_escape_hatch():
    n = 12
    A = cycle_graph(n)
    rotation = Permutation([(i + 1) % n for i in range(n)])
    reflection = Permutation([(n - i) % n for i in range(n)])
    aut = enumerate_automorphisms(A, generators=[rotation, reflection])
    assert aut.order() == 2 * n
    bad = Permutation([1, 0] + list(range(2, n)))
    with pytest.raises(ValueError):
        enumerate_automorphisms(A, generators=[bad])


def test_automorphism_closure_exhaustive():
    for A in [cycle_graph(6), path_graph(5), cycle_graph(4)]:
        aut = enumerate_automorphisms(A)
        elements = set(aut.elements())
        for g in elements:
            assert g.inverse() in elements
            for h in elements:
                assert g.compose(h) in elements


def test_weighted_graph_uses_exact_weights():
    A = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    aut = enumerate_automorphisms(A)
    # the weight-2 edge pins vertices 0 and 2 as a pair; swap is allowed
    assert aut.order() == 2


# ----------------------------------------------------------------------
# Orbits, stabilizers, cosets
# ----------------------------------------------------------------------


def test_orbit_full_symmetric_group():
    orbit, stab = orbit_of_index(SymmetricGroup(5), 4)
    assert np.array_equal(orbit, np.arange(5))
    assert stab == 24


def test_orbit_path3_center():
    aut = enumerate_automorphisms(path_graph(3))
    orbit, stab = orbit_of_index(aut, 1)
    assert np.array_equal(orbit, np.array([1]))
    assert stab == 2


def test_orbit_cycle4_orbit_stabilizer():
    aut = enumerate_automorphisms(cycle_graph(4))
    for i in range(4):
        orbit, stab = orbit_of_index(aut, i)
        assert orbit.size == 4 and stab == 2
        assert orbit.size * stab == aut.order()


def test_orbit_stabilizer_every_index():
    for group in [enumerate_automorphisms(path_graph(4)), SymmetricGroup(4)]:
        n = 4
        for i in range(n):
            orbit, stab = orbit_of_index(group, i)
            assert orbit.size * stab == group.order()


@pytest.mark.parametrize("group", [SymmetricGroup(n) for n in range(1, 7)]
                         + [BlockPermutationGroup(K, M) for K in (1, 2, 3) for M in (1, 2, 3)],
                         ids=[f"S{n}" for n in range(1, 7)]
                         + [f"block-{K}-{M}" for K in (1, 2, 3) for M in (1, 2, 3)])
def test_closed_form_orbits_match_enumeration(group):
    for i in range(math.prod(group.shape)):
        for got, want in zip(orbit_of_index(group, i), oracles.counting_orbit(group, i)):
            assert np.array_equal(got, want)


def test_graph_orbits_match_enumeration():
    rng = np.random.default_rng(26)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        upper = np.triu(rng.choice([0.0, 0.0, 1.0, 2.0], (n, n)), 1)
        aut = enumerate_automorphisms(upper + upper.T)
        for i in range(n):
            for got, want in zip(orbit_of_index(aut, i), oracles.counting_orbit(aut, i)):
                assert np.array_equal(got, want)


def test_closed_form_orbits_list_no_element(monkeypatch):
    def refuse(self, batch_size=250_000):
        raise AssertionError("the group was listed")

    monkeypatch.setattr(StabilizerChain, "lex_batches", refuse)
    orbit, stab = orbit_of_index(SymmetricGroup(13), 12)
    assert np.array_equal(orbit, np.arange(13)) and stab == math.factorial(12)
    orbit, stab = orbit_of_index(BlockPermutationGroup(4, 5), 7)
    assert np.array_equal(orbit, np.arange(20))
    assert stab == math.factorial(4) * math.factorial(5) ** 4 // 20
    star = enumerate_automorphisms(star_graph(12), cap=13)
    orbit, stab = orbit_of_index(star, 5)
    assert np.array_equal(orbit, np.arange(1, 13)) and stab == math.factorial(11)
    with pytest.raises(IndexError):
        orbit_of_index(SymmetricGroup(13), 13)


def test_orbits_of_groups_without_permutation_form():
    for group in [OrthogonalGroup(2), TrivialGroup()]:
        with pytest.raises(NotEnumerableError):
            orbit_of_index(group, 0)


def last_coordinate(z):
    return np.asarray(z)[..., -1]


def test_coset_representatives_s4_last_coordinate():
    rng = np.random.default_rng(11)
    probes = default_probes(np.array([0.3, 1.7, -2.2, 0.9]), rng)
    dec = coset_representatives(SymmetricGroup(4), last_coordinate, probes)
    assert len(dec.representatives) == 4
    assert dec.subgroup_size == 6
    assert len(dec.representatives) * dec.subgroup_size == 24


def test_coset_representatives_trivial_group():
    dec = coset_representatives(TrivialGroup(), last_coordinate, [np.array([1.0, 2.0])])
    assert len(dec.representatives) == 1
    assert dec.subgroup_size == 1


def test_coset_representatives_block_group():
    rng = np.random.default_rng(12)
    probes = default_probes(np.array([0.5, -1.0, 2.0, 3.3]), rng)
    G = BlockPermutationGroup(2, 2)
    dec = coset_representatives(G, last_coordinate, probes)
    assert len(dec.representatives) == 4
    assert dec.subgroup_size == 2
    # on (K, M) points the classes are the same, and the group acts with them
    shaped = coset_representatives(G, lambda z: np.asarray(z)[..., -1, -1],
                                   [p.reshape(2, 2) for p in probes])
    assert shaped.representatives == dec.representatives
    for g in shaped.representatives:
        assert np.array_equal(G.act(g, probes[0].reshape(2, 2)).ravel(), G.act(g, probes[0]))


class SmallBatchSymmetricGroup(SymmetricGroup):
    """S_n enumerated in batches of 7, so classes straddle batches."""

    def iter_mapping_batches(self, batch_size=250_000):
        return super().iter_mapping_batches(7)


def test_coset_representatives_match_keyed_oracle():
    rng = np.random.default_rng(14)
    maps = {
        "last": last_coordinate,
        "rounded": lambda z: np.round(np.asarray(z)[..., -1]),
        "signed zero": lambda z: np.asarray(z)[..., -1] * 0.0,
        "nan": lambda z: np.where(np.asarray(z)[..., 0] > 0, np.nan, np.asarray(z)[..., -1]),
        "two coordinates": lambda z: np.asarray(z)[..., 0] + np.asarray(z)[..., 1],
    }
    groups = [SymmetricGroup(5), SmallBatchSymmetricGroup(4), BlockPermutationGroup(2, 2),
              TrivialGroup()]
    for group in groups:
        for name, psi in maps.items():
            n = 4 if not isinstance(group, SymmetricGroup) or group.n == 4 else 5
            z = rng.normal(0, 2, n)
            for probes in ([z], default_probes(z, rng, n_extra=3)):
                got = coset_representatives(group, psi, probes)
                want = oracles.coset_representatives_by_key(group, psi, probes)
                assert got.subgroup_size == want.subgroup_size, name
                assert len(got.representatives) == len(want.representatives), name
                for g, h in zip(got.representatives, want.representatives):
                    assert g == h, name


def test_default_probes_shape():
    rng = np.random.default_rng(13)
    probes = default_probes(np.zeros(5), rng, n_extra=8)
    assert len(probes) == 9
    assert all(p.shape == (5,) for p in probes)
