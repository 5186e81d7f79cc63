"""Coverage of the exact orbit sets as an identity over the orbit.

For complete data z, every image g.z gives one prediction problem: its
observed part, with its true target value (g.z)_t as the one candidate.
With V equivariant, every image has the orbit of z, so the share of images
whose set covers the true value is fixed by the orbit scores of z alone
(Dobriban & Yu, SymmPI, coverage theorem):

- the deterministic set covers at least 1 - alpha of the images, and at
  most 1 - alpha plus the largest weight one orbit score value carries;
- the randomized set, averaged over the images and the uniform u', covers
  exactly 1 - alpha: an image whose own score is the threshold is covered
  with probability ``Threshold.delta``.

These hold for every z, so no assertion depends on a random draw.

The conformal intervals are the same identity over the permutations of n
values: with each position t the target in turn, the set built from the
other n - 1 values covers z_t for at least 1 - alpha of the n positions,
and, where the n scores are distinct, for at most 1 - alpha + 1/n.

The library's hierarchical sets are the same identity over ragged branches:
with each value the target in turn, its branch moved last, and position
(k, i) weighing 1/(K n_k), the sets cover at least 1 - alpha of the weight,
and, where every branch has three or more values (so that the scores are
distinct), at most 1 - alpha + 1/(K min n_k).
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symmpi.calibrate import (centered_intervals, hierarchical_below, orbit_scores,
                              randomized_set, rank_member, score_intervals, symmpi_set,
                              symmpi_set_randomsize, threshold)
from symmpi.groups import (BlockPermutationGroup, CosetDecomposition, Permutation,
                           SymmetricGroup, enumerate_automorphisms)
from symmpi.transforms import hierarchical_unsup_transform

ALPHAS = (0.1, 0.25, 0.4)


def _identity(z):
    return np.asarray(z, dtype=float)


def _last(z):
    return np.asarray(z)[..., -1]


def _last_entry(z):
    return np.asarray(z)[..., -1, -1]


def _swap_with_last(n):
    """The n cosets of S_{n-1} in S_n, one transposition (j n-1) each."""
    reps = []
    for j in range(n):
        m = list(range(n))
        m[j], m[n - 1] = m[n - 1], m[j]
        reps.append(Permutation(m))
    return CosetDecomposition(reps, math.factorial(n - 1))


def _graph(edges, n):
    adjacency = np.zeros((n, n))
    for a, b in edges:
        adjacency[a, b] = adjacency[b, a] = 1.0
    return enumerate_automorphisms(adjacency)


# name: (group, complete data z, V, psi, cosets); the target is z's last entry
CASES = {
    "S5": (SymmetricGroup(5), np.array([0.3, -1.2, 2.1, 0.7, -0.4]), _identity, _last, None),
    "S5_tied": (SymmetricGroup(5), np.array([1.0, 0.0, 2.0, 1.0, 2.0]), _identity, _last, None),
    "S5_cosets": (SymmetricGroup(5), np.array([0.3, -1.2, 2.1, 0.7, -0.4]), _identity, _last,
                  _swap_with_last(5)),
    "Lambda22": (BlockPermutationGroup(2, 2), np.array([[0.5, -0.8], [1.9, 0.1]]), _identity,
                 _last_entry, None),
    "Lambda23_hierarchical": (BlockPermutationGroup(2, 3),
                              np.array([[0.2, -1.1, 0.4], [1.3, 0.9, 2.6]]),
                              hierarchical_unsup_transform, _last_entry, None),
    "C4": (_graph([(0, 1), (1, 2), (2, 3), (3, 0)], 4), np.array([0.4, -0.6, 1.5, 0.9]),
           _identity, _last, None),
    "K13": (_graph([(0, 1), (0, 2), (0, 3)], 4), np.array([5.0, -0.6, 1.5, 0.9]), _identity,
            _last, None),
}


def _coverages(case, alpha):
    """Deterministic and randomized coverage averaged over the images g.z."""
    group, z, V, psi, cosets = CASES[case]

    def embed(observed, cand):
        return np.append(observed, cand).reshape(z.shape)

    det, ran = [], []
    for g in group.elements():
        x = np.asarray(group.act(g, z), dtype=float)
        observed, truth = x.ravel()[:-1], x.ravel()[-1:]
        args = (observed, truth, embed, V, psi, group, alpha)
        det.append(symmpi_set(*args, cosets=cosets).member[0])
        if randomized_set(*args, 1.0, cosets=cosets).member[0]:
            ran.append(1.0)  # covered whatever u' is
        elif randomized_set(*args, 0.0, cosets=cosets).member[0]:
            ran.append(threshold(V(x), psi, group, alpha, cosets=cosets).delta)
        else:
            ran.append(0.0)
    return float(np.mean(det)), float(np.mean(ran))


def _largest_weight(case):
    """The largest share of z's orbit scores that one score value carries."""
    group, z, V, psi, cosets = CASES[case]
    scores = orbit_scores(V(z), psi, group, cosets=cosets)
    return np.unique(scores, return_counts=True)[1].max() / scores.size


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_orbit_coverage_identity(case, alpha):
    det, ran = _coverages(case, alpha)
    assert det >= 1 - alpha - 1e-12
    assert det <= 1 - alpha + _largest_weight(case) + 1e-12
    assert ran == pytest.approx(1 - alpha, abs=1e-12)


@pytest.mark.parametrize("alpha, det", [(0.1, 1.0), (0.25, 0.8), (0.4, 0.6)])
def test_symmetric_group_coverage_values(alpha, det):
    # five distinct values, each carrying a fifth of the orbit: the
    # deterministic set covers the images whose own value is among the
    # smallest ceil(5 (1 - alpha))
    assert _coverages("S5", alpha) == pytest.approx((det, 1 - alpha), abs=1e-12)


CENTER = 0.375

# name: (the set built from the other values at one alpha, the scores of z)
INTERVALS = {
    "centered": (lambda others, alpha: centered_intervals(others[None], (alpha,)),
                 lambda z: np.abs(z.size * z - z.sum())),
    "score": (lambda others, alpha: score_intervals(others[None], (alpha,)), lambda z: z),
    "score_centered": (lambda others, alpha: score_intervals(np.abs(others - CENTER)[None],
                                                             (alpha,), np.full((1, 1), CENTER)),
                       lambda z: np.abs(z - CENTER)),
}


def _interval_coverage(name, z, alpha):
    """The share of the positions t whose value z_t the set built from the
    other values covers."""
    build = INTERVALS[name][0]
    return float(np.mean([build(np.delete(z, t), alpha).member(z[None, t:t + 1])[0, 0, 0]
                          for t in range(z.size)]))


# Values on lattices of step 1, 1/4, 1/10 and 1/1024, with many ties at the
# narrow width. The centered sets are checked on distinct values on a binary
# lattice only: there, a tie about the mean has an exact mean, so no rounding
# splits it. Two cases outside it are the test below; the second still fails.
LATTICE = st.one_of(st.lists(st.integers(-12, 12), min_size=2, max_size=11),
                    st.lists(st.integers(-2**20, 2**20), min_size=2, max_size=11))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(INTERVALS)), LATTICE, st.sampled_from([1.0, 0.25, 0.1, 2.0**-10]),
       st.sampled_from([0.0, -3.5, 1000.0]), st.sampled_from(ALPHAS))
def test_conformal_interval_coverage_identity(name, lattice, step, offset, alpha):
    z = offset + np.array(lattice) * step
    if name == "centered":
        assume(step != 0.1 and np.unique(z).size == z.size)
    covered = _interval_coverage(name, z, alpha)
    assert covered >= 1 - alpha - 1e-12
    if np.unique(INTERVALS[name][1](z)).size == z.size:
        assert covered <= 1 - alpha + 1 / z.size + 1e-12


@pytest.mark.parametrize("name, z, alpha, covered", [
    ("centered", [0.3, -1.2, 2.1, 0.7, -0.4], 0.25, 0.8),
    ("centered", [1.0, 0.0, 2.0, 1.0, 2.0], 0.4, 0.8),
    ("score", [1.0, 0.0, 2.0, 1.0, 2.0], 0.25, 1.0),
    ("score_centered", [0.3, -1.2, 2.1, 0.7, -0.4, 5.0], 0.4, 4 / 6),
])
def test_conformal_interval_coverage_values(name, z, alpha, covered):
    # K = ceil(n (1 - alpha)) of the n positions have fewer than K scores
    # strictly below their own; a tie covers all of its values or none: the
    # two scores 0.8 of [1, 0, 2, 1, 2] about its mean 1.2 have two below
    assert _interval_coverage(name, np.array(z), alpha) == pytest.approx(covered, abs=1e-12)


@pytest.mark.parametrize("z, alpha", [
    # the two -3027 are tied, so neither is strictly nearer the mean than the
    # other, whichever is the target
    ([0.0, 2.0, -3027.0, -3027.0, 16185.0], 0.4),
    # 1000.0 and 1000.1 lie as far from the mean of the four as each other,
    # and so do 999.9 and 1000.2; each of the far pair finds the other
    # strictly nearer the mean, and neither is covered
    pytest.param([1000.0, 1000.1, 1000.2, 999.9], 0.25, marks=pytest.mark.xfail(
        strict=True, reason="the rounding of the center depends on where the candidate sits "
        "in the sum")),
])
def test_centered_interval_coverage_of_ties(z, alpha):
    assert _interval_coverage("centered", np.array(z), alpha) >= 1 - alpha


def _hierarchical_coverage(branches, alpha, studentize):
    """The weight of the positions whose value the set built from the other
    values covers: each value held out in turn, its branch moved last, value
    i of branch k weighing 1/(K n_k). The studentized set is
    ``symmpi_set_randomsize``, the other the rank rule on
    ``hierarchical_below``."""
    K = len(branches)
    covered = 0.0
    for k, b in enumerate(branches):
        others = branches[:k] + branches[k + 1:]
        for i in range(b.size):
            observed, truth = others + [np.delete(b, i)], b[i:i + 1]
            if studentize:
                kept = symmpi_set_randomsize(observed, truth, alpha).member[0]
            else:
                below = hierarchical_below(observed, truth, studentize=False)
                kept = rank_member(below, alpha)[0]
            covered += kept / (K * b.size)
    return covered


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 10.0), st.sampled_from(ALPHAS), st.booleans())
def test_hierarchical_coverage_identity(seed, spread, alpha, studentize):
    # two to five branches of two to six values, branch means spread by
    # `spread`; a two-value branch centered at its own mean scores its two
    # values alike, so the upper bound is checked without one
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, 7, int(rng.integers(2, 6)))
    branches = [spread * rng.normal() + rng.normal(size=n) for n in sizes]
    covered = _hierarchical_coverage(branches, alpha, studentize)
    assert covered >= 1 - alpha - 1e-12
    if sizes.min() >= 3:
        assert covered <= 1 - alpha + 1 / (sizes.size * sizes.min()) + 1e-12
