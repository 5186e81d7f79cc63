"""Property tests of the candidate sweeps in ``symmpi.calibrate``.

Each rank-form kernel must match its per-candidate oracle (``oracles.py``),
and the conformal sets given as intervals must match their rank forms bit for
bit, in the library and in the harness's grid counts, also in the shapes
where a candidate meets a calibration score or an end of its set;
its sets must shrink as alpha grows, and reordering the donor branches must
leave them unchanged. The orbit sweep behind ``symmpi_set`` and
``randomized_set`` must match the per-candidate orbit oracle in exact mode,
also where an element and its inverse score differently, and in Monte-Carlo
mode on the elements its draws stand for, with or without a batched
sampler; in Monte-Carlo mode the randomized set must lie within the
deterministic one, and a candidate's membership must not depend
on the rest of the grid. Hypothesis picks shapes, seeds and alpha. The
orbit tests put the data values on the grid and repeat values, so that
scores tie on purpose. The weighted ``nonsym_set`` must match its
per-candidate oracle, with some representatives of weight zero. For the
rank-form kernels the data come from a seeded numpy generator and
candidates from a grid, so a candidate's score ties a calibration score
only where the construction forces it: a two-point branch centered at its
own mean, which the kernel breaks as the oracle does.
The few constructions where a score ties the candidate's exactly whatever
the data, and rounding breaks the tie differently in the two forms, are left
out where they arise. The batched fit of every branch's regression
correction must match the one-branch-at-a-time SVD loop on ragged
branches, pooled-fallback and rank-deficient ones included, and its rank
screen must raise where ``np.linalg.matrix_rank`` finds the first deficient
run. ``fit_linear`` and the pooled fits must match the SVD reference on
offset and scaled designs, and raise its error on each kind of deficient
design. The weighted ends of the interval sets must equal the comparison form's
bit for bit on tied ends, zero and repeated weights, cumulative sums at a
level and NaN ends. The supervised
rotation set, its Monte-Carlo draws stacked, must match the
one-draw-at-a-time oracle bit for bit. The automorphism search must list
the backtracking oracle's automorphisms in its order on weighted graphs with
loops and tied weights, also in chunks of one extension.
"""

import inspect
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import supervised_below
from symmpi.baselines import single_tree_set, split_conformal_set
from symmpi import calibrate
from symmpi.calibrate import (
    _ENDS_ROUNDING,
    PredictionSet,
    WeightSpec,
    _Grids,
    _branch_stats,
    _candidate_rows,
    _hierarchical_block,
    _supervised_block,
    _supervised_intervals,
    _rows_below,
    candidate_grid,
    centered_intervals,
    hcp_first_obs_set,
    hierarchical_below,
    nonsym_set,
    randomized_set,
    rank_member,
    rotation_supervised_set,
    score_intervals,
    supervised_hierarchical_set,
    symmpi_set,
    symmpi_set_randomsize,
    _uniform_grids,
)
from symmpi.groups import (
    BlockPermutationGroup,
    OrthogonalGroup,
    Permutation,
    SymmetricGroup,
    TrivialGroup,
    coset_representatives,
    default_probes,
    enumerate_automorphisms,
    orbit_of_index,
)
from symmpi.cli import PRESETS
from symmpi import holes, sim, transforms
from symmpi.holes import _hierarchical_counts, _target_near
from symmpi.network import cluster_sum_set, tree_leaf_set
from symmpi.sim import (ALL_METHODS, HierarchicalConfig, _interval_rows, _run_trials, _tally,
                        _sup_eval)
from symmpi.transforms import (LinearModel, _fit_block, branch_fits, fit_linear, fit_regressors,
                               hierarchical_unsup_transform)

SETTINGS = settings(max_examples=40, deadline=None)
# alpha on a 0.01 grid keeps 1 - alpha well away from any branch-weighted mass
# that differs from it, so summation order cannot flip a decision
ALPHA = st.integers(1, 99).map(lambda k: k / 100)
# the weighted ends' alphas: multiples of 1/4, 0 and 1 (the empty set) among
# them, whose levels the cumulative sums of weights k/8 meet, or ALPHA's
ALPHAS = st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | ALPHA, min_size=1, max_size=3)
SEED = st.integers(0, 2**32 - 1)
GRID = st.tuples(st.integers(11, 201), SEED)


def _grid(values, spec):
    """A candidate grid over the values, shifted by a random part of its step
    so that no candidate lands on a data value."""
    n_points, seed = spec
    grid = candidate_grid(values, n_points)
    return grid + np.random.default_rng(seed).uniform(0.05, 0.95) * (grid[1] - grid[0])


@st.composite
def ragged_branches(draw, min_branches=2, max_branches=8):
    """Branches of 1-8 values, some constant, around spread-out means."""
    K = draw(st.integers(min_branches, max_branches))
    sizes = draw(st.lists(st.integers(1, 8), min_size=K, max_size=K))
    constant = draw(st.lists(st.booleans(), min_size=K, max_size=K))
    rng = np.random.default_rng(draw(SEED))
    spread = rng.choice([0.0, 0.3, 3.0])
    branches = []
    for n, const in zip(sizes, constant):
        mu = rng.normal(0.0, spread)
        branches.append(np.full(n, mu + rng.normal()) if const else mu + rng.normal(0, 1, n))
    return branches


def _rank_rows(below, alphas, grids):
    """The harness's rows (``_tally``) of the rank form's masses on the rows
    of ``grids`` (``_candidate_rows``) with the truth after them."""
    member = np.stack([rank_member(below, a) for a in alphas])
    return _tally(member[:, :, :-1].sum(axis=2), member[:, :, -1], grids)


def _frame(grid):
    """The frame (``_Grids``) of one uniform grid from the first to the last
    point of ``grid``, with its size; for a grid of ``candidate_grid`` its
    points are the grid's."""
    return _Grids(grid[None, :1], grid[None, -1:], grid.size)


def _through(grids, index, at):
    """``grids`` with each test's grid moved, by its own shift, so that its
    point ``index`` (B, 1) is ``at`` (B, 1): its first value is set to
    at - index step, then moved by ulps toward the point, or, for the last
    index, its last value is ``at``. A point whose sum with the first value
    is coarser than ``at`` may end one ulp away."""
    G = grids.size
    step = (grids.last - grids.first) / (G - 1)
    first = at - index * step
    last = np.where(index == G - 1, at, first + (G - 1) * step)
    for _ in range(64):
        moved = _Grids(first, last, G)
        off = moved.at(index) - at
        if not off.any():
            break
        first = np.where(off == 0, first, np.nextafter(first, np.where(off > 0, -np.inf, np.inf)))
    return moved


def _observed(branches):
    """Donor branches, then the target branch without its final value."""
    return branches[:-1] + [branches[-1][:-1]]


# ----------------------------------------------------------------------
# Unsupervised hierarchical sets
# ----------------------------------------------------------------------


@SETTINGS
@given(branches=ragged_branches(), n_grid=GRID, alpha=ALPHA, studentize=st.booleans())
def test_hierarchical_kernel_matches_oracle(branches, n_grid, alpha, studentize):
    observed = _observed(branches)
    # one donor of equal values and no observed target value: the candidate
    # and the donor values sit at the same distance from their grand mean, an
    # exact tie that rounding breaks either way
    assume(not (len(observed) == 2 and np.ptp(observed[0]) == 0 and observed[1].size == 0))
    grid = _grid(np.concatenate(observed), n_grid)
    got = rank_member(hierarchical_below(observed, grid, 2.0, studentize), alpha)
    want = oracles.hierarchical_members(observed, grid, alpha, 2.0, studentize)
    assert np.array_equal(got, want)


@SETTINGS
@given(branches=ragged_branches(), n_grid=GRID, a=ALPHA, b=ALPHA)
def test_hierarchical_set_shrinks_as_alpha_grows(branches, n_grid, a, b):
    observed = _observed(branches)
    grid = _grid(np.concatenate(observed), n_grid)
    lo, hi = sorted((a, b))
    wide = symmpi_set_randomsize(observed, grid, lo)
    narrow = symmpi_set_randomsize(observed, grid, hi)
    assert not np.any(narrow.member & ~wide.member)


@SETTINGS
@given(branches=ragged_branches(min_branches=3), n_grid=GRID, alpha=ALPHA, data=st.data())
def test_hierarchical_set_ignores_donor_order(branches, n_grid, alpha, data):
    observed = _observed(branches)
    grid = _grid(np.concatenate(observed), n_grid)
    order = data.draw(st.permutations(range(len(observed) - 1)))
    shuffled = [observed[i] for i in order] + [observed[-1]]
    base = symmpi_set_randomsize(observed, grid, alpha)
    assert np.array_equal(symmpi_set_randomsize(shuffled, grid, alpha).member, base.member)


@st.composite
def hierarchical_blocks(draw):
    """B tests sharing branch sizes: (donors (B, N), sizes, target (B, n_t - 1),
    candidates (B, G), observed branch lists, whether the grid is off the data).

    Sizes are M in {1, 2, 3, 15} for every branch, or ragged; branch means
    spread by sigma in {0, 1e-3, 10}, so donors near the grand mean for no,
    some or all candidates all arise. Each test's candidates are a grid over
    its observed values, either shifted off them or with the observed values
    themselves added, and then the test's truth appended, out of order.
    """
    B = draw(st.integers(1, 9))
    K = draw(st.integers(2, 6))
    if draw(st.booleans()):
        sizes = [draw(st.sampled_from([1, 2, 3, 15]))] * K
    else:
        sizes = draw(st.lists(st.integers(1, 15), min_size=K, max_size=K))
    sigma = draw(st.sampled_from([0.0, 1e-3, 10.0]))
    off_data = draw(st.booleans())
    n_points = draw(st.integers(5, 41))
    rng = np.random.default_rng(draw(SEED))
    observed, cands = [], []
    for _ in range(B):
        mu = rng.normal(0.0, sigma, K)
        branches = [m + rng.normal(0.0, 1.0, n) for m, n in zip(mu, sizes)]
        obs = _observed(branches)
        pool = np.concatenate(obs)
        grid = candidate_grid(pool, n_points)
        if off_data:
            grid = grid + rng.uniform(0.05, 0.95) * (grid[1] - grid[0])
        else:
            grid = np.sort(np.concatenate([grid, pool]))
        observed.append(obs)
        cands.append(np.append(grid, branches[-1][-1]))
    donors = np.stack([np.concatenate(o[:-1]) for o in observed])
    target = np.stack([o[-1] for o in observed])
    return donors, np.array(sizes[:-1]), target, np.stack(cands), observed, off_data


@pytest.mark.parametrize("studentize", [False, True])
@SETTINGS
@given(block=hierarchical_blocks(), alpha=ALPHA)
def test_blocked_hierarchical_kernel_equals_single_tests(studentize, block, alpha):
    donors, sizes, target, cands, observed, off_data = block
    got = _hierarchical_block(donors, sizes, target, cands, 2.0, studentize)
    for b, obs in enumerate(observed):
        assert np.array_equal(got[b], hierarchical_below(obs, cands[b], 2.0, studentize))
        # the branch-by-branch sums count the same scores in another order
        loop = oracles.hierarchical_below_loop(obs, cands[b], 2.0, studentize)
        assert np.max(np.abs(got[b] - loop)) <= 1e-12
        assert np.array_equal(rank_member(got[b], alpha), rank_member(loop, alpha))
        # on the data, a donor value can tie a candidate's score exactly
        # (both centered at the grand mean), and so do a single donor of
        # equal values and a target without observed values; the interval
        # count and the per-candidate scores break such ties by rounding
        tied = len(obs) == 2 and np.ptp(obs[0]) == 0 and obs[1].size == 0
        if off_data and not tied:
            want = oracles.hierarchical_members(obs, cands[b], alpha, 2.0, studentize)
            assert np.array_equal(rank_member(got[b], alpha), want)


@pytest.mark.parametrize("studentize", [False, True])
@SETTINGS
@given(preset=st.sampled_from(["table1", "table1-random"]),
       sigma2=st.sampled_from([0.0, 0.5, 10.0]), grid_points=st.sampled_from([21, 201, 2001]),
       tests=st.integers(1, 12), seed=st.integers(0, 2**31 - 1))
def test_blocked_trial_equals_per_test_loop(studentize, preset, sigma2, grid_points, tests, seed):
    cfg = HierarchicalConfig(n_branches=6, branch_size=PRESETS[preset]["branch_size"],
                             sigma2=sigma2, alphas=(0.05, 0.15, 0.3), tests=tests,
                             grid_points=grid_points, seed=seed, studentize=studentize)
    assert _run_trials(cfg, ALL_METHODS, [1])[0] == oracles.run_trial(cfg, ALL_METHODS, 1)


# The hole form of the unstudentized kernel against the rank form, in the
# shapes where a comparison can tie or a hole cannot be formed: ragged sizes
# with one-value donors, one observed target value (n_t = 2), K = 2 with
# c = 0.5 (the target's quadratic loses its square term), branches of equal
# values, data on two values with a grid through them, candidates placed on
# the holes' ends and on the donors' switch points, after the grid or on it,
# and alpha on a k / n boundary of the equal weights; and candidates beyond
# every hole. For the span cut of ``holes._hole_grid``: branch effects of SD
# 10, so the target's near run is narrow, with extras in each state, beyond
# the grid on both sides, and on the holes' ends and within rounding reach of
# them, where a piece of the other state that is cut would have zoned them.
HOLE_SHAPES = st.sampled_from(["random", "one_value_donors", "two_point_target", "k2_half",
                               "equal", "two_values", "at_ends", "grid_at_ends", "boundary",
                               "far", "span_edges"])


def _hole_points(donors, sizes, target, c):
    """The ends of every hole and every donor's switch points, (B, P), in
    the hole form's closed forms (``holes._hole_grid``)."""
    D, n_o = sizes.size, target.shape[1]
    K, n_t = D + 1, n_o + 1
    branch = np.repeat(np.arange(D), sizes)
    means, sds = _branch_stats(donors, sizes)
    donor_sum = np.cumsum(means, axis=1)[:, -1:]
    g1, t_mean = 1.0 / (K * n_t), target.sum(axis=1, keepdims=True) / n_t
    g0 = (donor_sum + t_mean) / K
    radius = c * sds / np.sqrt(sizes)
    points = [(means - radius - g0) / g1, (means + radius - g0) / g1]
    d = np.abs(donors - means[:, branch])
    for cb, cs in ((g0, g1), (t_mean, 1.0 / n_t)):
        a = 1.0 - cs
        points += [(cb - d) / a, (cb + d) / a, (donors - g0 + cb) / (a + g1),
                   (cb - donors + g0) / (a - g1), target, (2 * cb - target) / (1 - 2 * cs)]
    return np.concatenate(points, axis=1)


@st.composite
def hole_cases(draw):
    """B tests sharing branch sizes in one of ``HOLE_SHAPES``: (donors,
    sizes, target, each test's uniform grid as a frame (``_Grids``), the
    candidates after it (extras), c, alphas)."""
    shape = draw(HOLE_SHAPES)
    B = draw(st.integers(1, 5))
    K = 2 if shape == "k2_half" else draw(st.integers(2, 7))
    c = 0.5 if shape == "k2_half" else draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    sizes = np.array(draw(st.lists(st.integers(1, 9), min_size=K, max_size=K)))
    if shape == "one_value_donors":
        sizes[:-1:2] = 1
    if shape == "two_point_target":
        sizes[-1] = 2
    if shape in ("equal", "boundary"):
        sizes[:] = sizes[-1]
    rng = np.random.default_rng(draw(SEED))
    mu = rng.normal(0.0, rng.choice([0.0, 0.3, 3.0]), (B, K))
    if shape == "span_edges":
        mu = rng.normal(0.0, 10.0, (B, K))
    values = np.repeat(mu, sizes, axis=1) + rng.normal(0.0, 1.0, (B, sizes.sum()))
    if shape == "equal":
        values = np.repeat(mu, sizes, axis=1)
    if shape == "two_values":
        values = np.where(rng.uniform(size=values.shape) < 0.5, -0.7, 1.3)
    values = np.round(values, 1) if rng.uniform() < 0.5 else values
    n = int(sizes[:-1].sum())
    donors, target, truth = values[:, :n], values[:, n:-1], values[:, -1:]
    n_points = draw(st.integers(5, 60))
    if shape == "two_values":
        grids = _uniform_grids(np.array([[-0.7, 1.3]] * B), 5 * n_points + 1, 4.0)
    else:
        grids = _uniform_grids(np.concatenate([donors, target], axis=1), n_points, 4.0)
    extras = truth
    if shape == "far":
        far = 100 * (np.ptp(values) + 1)
        grids, extras = _Grids(grids.first + far, grids.last + far, grids.size), truth + far
    if shape in ("at_ends", "grid_at_ends"):
        # with one observed target value the hole form ranks every candidate
        points = _hole_points(donors, sizes[:-1], target, c) if target.shape[1] > 1 else values
        pick = rng.choice(points.shape[1], min(points.shape[1], 12), replace=False)
        if shape == "at_ends":
            extras = np.concatenate([truth, points[:, pick]], axis=1)
        else:
            # the grid moved, each test's by its own shift, to put its
            # nearest point on one of the picked points, to the ulp
            at = points[np.arange(B), pick[np.arange(B) % pick.size]][:, None]
            near = np.abs(_candidate_rows(grids) - at).argmin(axis=1)[:, None]
            grids = _through(grids, near, at)
            gap = np.abs(grids.at(near) - at)
            assert (gap <= np.spacing(np.maximum(np.abs(at), np.abs(grids.first)))).all()
    if shape == "span_edges":
        D = sizes.size - 1
        n_t = target.shape[1] + 1
        # where the target's mean is the grand mean, in the near state
        donor_sum = np.cumsum(_branch_stats(donors, sizes[:-1])[0], axis=1)[:, -1:]
        at_grand = n_t * donor_sum / D - target.sum(axis=1, keepdims=True)
        width = grids.last - grids.at(0)
        beyond = np.concatenate([grids.at(0) - 0.5 * width - 1, grids.last + 2 * width + 1],
                                axis=1)
        points = _hole_points(donors, sizes[:-1], target, c) if target.shape[1] > 1 else values
        pick = points[:, rng.choice(points.shape[1], min(points.shape[1], 4), replace=False)]
        # within the zones' half-width, 2^-29 of the reach, of the ends
        nudge = 2.0**-31 * (np.abs(values).max(axis=1, keepdims=True)
                            + np.abs(points).max(axis=1, keepdims=True))
        # the outermost ends, nudged inward only, so that they may end their
        # states' spans
        outer = np.concatenate([points.min(axis=1, keepdims=True),
                                points.max(axis=1, keepdims=True)], axis=1)
        extras = np.concatenate([truth, at_grand, beyond[:, rng.integers(3):], pick,
                                 pick - nudge, pick + nudge, outer, outer + [[1, -1]] * nudge],
                                axis=1)
    alphas = (0.05, 0.15, draw(ALPHA))
    if shape == "boundary":
        alphas = (1 - int(rng.integers(1, K * sizes[-1])) / (K * sizes[-1]),) + alphas[1:]
    return donors, sizes[:-1], target, grids, extras, c, alphas


# Data on a 0.1 lattice and a grid from -3 to 3 by 0.1 whose points 1, 2,
# 13, 20 and 40 are lattice values that holes end on, where they tie a
# score exactly
HOLE_EXAMPLE = (np.array([[-1.0, 1.6, 0.2]]), np.array([3]), np.array([[-1.7, -0.1]]),
                _Grids(np.array([[-3.0]]), np.array([[3.0]]), 61), np.array([[-1.2]]), 2.0,
                (0.5, 0.15, 0.3))

# A lattice block where a grid point at the end of its state's span ties a
# hole's end, of a piece just beyond the span: the cut keeps the piece for
# its zone only because it widens the span by the zones' reach. The first
# test's grid runs from -1.1 to 1.1 by 0.1, and its point 14, where its far
# state's run ends, is 0.30000000000000004; the second test's runs from
# 0.1, where its near state's run starts, to 1.1. Holes end on both.
SPAN_EXAMPLE = (np.array([[0.4, 0.2, -0.1], [0.3, -0.1, -0.3]]), np.array([3]),
                np.array([[-0.5, -0.1], [-0.2, -0.1]]),
                _Grids(np.array([[-1.1], [0.1]]), np.full((2, 1), 1.1), 23),
                np.array([[-0.4, -0.0, -2.5], [0.6, 1.2, -0.4]]), 0.5,
                (0.05, 0.15, 0.25, 0.3, 0.5))


@SETTINGS
@given(case=hole_cases())
@example(case=HOLE_EXAMPLE)
@example(case=SPAN_EXAMPLE)
def test_hole_counts_are_the_rank_forms(case):
    """What the harness reads of a block, each test's member count on its
    grid and the memberships of the candidates after it (the truth, and in
    some shapes points on the holes' ends), equals the rank form's member
    sums and memberships on the grids' rows."""
    donors, sizes, target, grids, extras, c, alphas = case
    n_grid = grids.size
    rank = _hierarchical_block(donors, sizes, target, _candidate_rows(grids, extras), c,
                               False)
    want = np.stack([rank_member(rank, a) for a in alphas])
    counts, extra = _hierarchical_counts(donors, sizes, target, grids, extras, c, False, alphas)
    assert np.array_equal(counts, want[:, :, :n_grid].sum(axis=2))
    assert np.array_equal(extra, want[:, :, n_grid:])


@SETTINGS
@given(case=hole_cases())
@example(case=HOLE_EXAMPLE)
def test_hole_form_matches_rank_form(case):
    """Harness memberships (a uniform grid and extras), in the membership
    view of the hole counts' events, equal the rank form's bit for bit, and
    so the library's, also for a block of one test, which the harness
    ranks."""
    donors, sizes, target, grids, extras, c, alphas = case
    cands = _candidate_rows(grids, extras)
    rank = _hierarchical_block(donors, sizes, target, cands, c, False)
    want = np.stack([rank_member(rank, a) for a in alphas])
    got = oracles.hole_members(donors, sizes, target, grids, extras, c, alphas)
    assert np.array_equal(got, want)
    for b in range(donors.shape[0]):
        observed = np.split(donors[b], np.cumsum(sizes)[:-1]) + [target[b]]
        one = hierarchical_below(observed, cands[b], c, studentize=False)
        assert np.array_equal(one, rank[b])
        lone = grids.take(slice(b, b + 1))
        assert np.array_equal(oracles.hole_members(donors[b:b + 1], sizes, target[b:b + 1],
                                                   lone, extras[b:b + 1], c, alphas),
                              want[:, b:b + 1])


def _row_spans(donors, sizes, target, grids, extras, c):
    """Each row's (2 test + state) span on its grid's line as the hole form
    cuts by it, flat (2 B,): from its first to its last candidate in its
    state, grid points and extras, widened by twice its test's rounding
    reach; inf to -inf for a row without candidates."""
    B = len(extras)
    cands = _candidate_rows(grids, extras)
    scale = np.abs(np.concatenate([donors, target], axis=1)).max(axis=1, keepdims=True)
    reach = scale + np.abs(cands).max(axis=1, keepdims=True)
    lo = cands[:, :1]
    step = (cands[:, grids.size - 1:grids.size] - lo) / (grids.size - 1)
    donor_sum = np.cumsum(_branch_stats(donors, sizes)[0], axis=1)[:, -1:]
    K = sizes.size + 1
    span_lo, span_hi = np.full((B, 2), np.inf), np.full((B, 2), -np.inf)
    for b, first, stop, state in zip(*holes._target_runs(target, grids, donor_sum, K, c, reach)):
        span_lo[b, state] = min(span_lo[b, state], first)
        span_hi[b, state] = max(span_hi[b, state], stop - 1)
    far = ~_target_near(target, extras, donor_sum, K, c, reach)
    ux = (extras - lo) / step
    for b, x in zip(*np.nonzero(~np.isnan(ux))):
        state = int(far[b, x])
        span_lo[b, state] = min(span_lo[b, state], ux[b, x])
        span_hi[b, state] = max(span_hi[b, state], ux[b, x])
    r = 2 * _ENDS_ROUNDING * reach / step
    return (span_lo - r).reshape(-1), (span_hi + r).reshape(-1)


def _spied_hole_counts(donors, sizes, target, grids, extras, c, alphas):
    """``_hierarchical_counts`` of unstudentized sets, with a spy on
    ``holes._hole_events`` that asserts every piece formed into events
    meets its row's span (``_row_spans``). Returns the counts, the extras'
    memberships and the number of pieces formed."""
    scale = np.abs(np.concatenate([donors, target], axis=1)).max(axis=1)
    live = np.flatnonzero((scale <= 2.0**500 / (1.0 + abs(c))) & (target.shape[1] > 1)
                          & (c <= 2.0**500))
    span_lo, span_hi = _row_spans(donors[live], sizes, target[live],
                                  grids.take(live),
                                  extras[live], c)
    formed = []
    events = holes._hole_events

    def spy(row, first, last, code, meets, n, bits):
        missed = meets & ~((last >= span_lo[row]) & (first <= span_hi[row]))
        assert not missed.any(), (row[missed], first[missed], last[missed])
        formed.append(int(meets.sum()))
        return events(row, first, last, code, meets, n, bits)

    with mock.patch.object(holes, "_hole_events", spy):
        counts, extra = _hierarchical_counts(donors, sizes, target, grids, extras, c, False,
                                             alphas)
    assert len(formed) == (live.size > 0 and len(extras) > 1)
    return counts, extra, sum(formed)


@SETTINGS
@given(case=hole_cases())
@example(case=HOLE_EXAMPLE)
@example(case=SPAN_EXAMPLE)
def test_hole_form_forms_only_pieces_that_meet_their_rows_spans(case):
    """The span cut: no piece that misses its row's span is formed into
    events, and the counts stay the rank form's."""
    donors, sizes, target, grids, extras, c, alphas = case
    n_grid = grids.size
    rank = _hierarchical_block(donors, sizes, target, _candidate_rows(grids, extras), c,
                               False)
    want = np.stack([rank_member(rank, a) for a in alphas])
    counts, extra, _ = _spied_hole_counts(donors, sizes, target, grids, extras, c, alphas)
    assert np.array_equal(counts, want[:, :, :n_grid].sum(axis=2))
    assert np.array_equal(extra, want[:, :, n_grid:])


def _harness_block(cfg, tests, trial=0):
    """The donors, sizes, target, grids and truths (the extras) of a block
    of the harness's first ``tests`` unsupervised tests of a trial."""
    rng = np.random.default_rng((cfg.seed, trial))
    flat = np.stack([sim._draw_unsup(cfg, rng, ())[1][0] for _ in range(tests)])
    n = (cfg.n_branches - 1) * cfg.branch_size
    grids, extras = sim._grid_frame(flat[:, :-1], flat[:, -1], cfg)
    return flat[:, :n], np.full(cfg.n_branches - 1, cfg.branch_size), flat[:, n:-1], grids, extras


@pytest.mark.parametrize("sigma2", [10.0, 2.0, 0.5, 0.0])
def test_hole_counts_on_harness_blocks(sigma2):
    """Table-1 blocks, with tests whose grid is in both target states: the
    counts and the truth's membership are the rank form's, and every piece
    formed meets its row's span."""
    cfg = HierarchicalConfig(sigma2=sigma2, alphas=(0.05, 0.15, 0.5), seed=20)
    donors, sizes, target, grids, extras = _harness_block(cfg, 24)
    cands = _candidate_rows(grids, extras)
    donor_sum = _branch_stats(donors, sizes)[0].sum(axis=1, keepdims=True)
    reach = np.abs(np.concatenate([donors, target, cands], axis=1)).max(axis=1, keepdims=True)
    near = _target_near(target, cands[:, :-1], donor_sum, cfg.n_branches, cfg.c, reach)
    assert (near.any(axis=1) & ~near.all(axis=1)).any()
    rank = _hierarchical_block(donors, sizes, target, cands, cfg.c, False)
    want = np.stack([rank_member(rank, a) for a in cfg.alphas])
    counts, extra, formed = _spied_hole_counts(donors, sizes, target, grids, extras, cfg.c,
                                               cfg.alphas)
    assert formed > 0
    assert np.array_equal(counts, want[:, :, :-1].sum(axis=2))
    assert np.array_equal(extra, want[:, :, -1:])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("c, sigma2", [(1e140, 1e10), (1e140, 0.5), (1e150, 1e10),
                                       (float("inf"), 0.5)])
def test_hole_counts_with_huge_c_are_the_rank_forms(c, sigma2):
    """A c whose product with the data would overflow the hole form's
    arithmetic sends the test to the rank form whole, without warnings;
    a smaller huge c is counted by the holes. Either way the counts are the
    rank form's."""
    cfg = HierarchicalConfig(sigma2=sigma2, alphas=(0.05, 0.15, 0.5), seed=20, c=c)
    donors, sizes, target, grids, extras = _harness_block(cfg, 8)
    rank = _hierarchical_block(donors, sizes, target, _candidate_rows(grids, extras), c,
                               False)
    want = np.stack([rank_member(rank, a) for a in cfg.alphas])
    counts, extra, formed = _spied_hole_counts(donors, sizes, target, grids, extras, c,
                                               cfg.alphas)
    assert (formed > 0) == (c * np.abs(donors).max() < 2.0**500)
    assert np.array_equal(counts, want[:, :, :-1].sum(axis=2))
    assert np.array_equal(extra, want[:, :, -1:])


def test_hole_counts_memory_stays_small():
    """One 40-test unstudentized table-1 block at the 2001-point grid keeps
    its traced peak under 3 MB (1.2-1.8 MB across branch spreads), where the
    dense form of the hole ends, (tests, states, ends, holes) arrays placed
    on every grid point, took 6.8 MB."""
    import tracemalloc

    cfg = HierarchicalConfig(seed=21)
    donors, sizes, target, grids, extras = _harness_block(cfg, 40)
    tracemalloc.start()
    try:
        _hierarchical_counts(donors, sizes, target, grids, extras, cfg.c, False, cfg.alphas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


def test_hole_form_needs_its_rounding_width(monkeypatch):
    """Data on a 0.1 lattice and grid points on it put a grid point on a
    hole's end, where it ties a score exactly; without the rounding width
    the hole form decides it otherwise than the rank form."""
    donors, sizes, target, grids, extras, c, alphas = HOLE_EXAMPLE
    n_grid = grids.size
    cands = _candidate_rows(grids, extras)
    assert np.isin(cands[0, :n_grid], _hole_points(donors, sizes, target, c)[0]).any()
    want = rank_member(_hierarchical_block(donors, sizes, target, cands, c, False), 0.5)

    def twice():
        # a block of two tests, which the hole form counts
        return _hierarchical_counts(np.repeat(donors, 2, axis=0), sizes,
                                    np.repeat(target, 2, axis=0),
                                    _Grids(np.repeat(grids.first, 2, axis=0),
                                           np.repeat(grids.last, 2, axis=0), n_grid),
                                    np.repeat(extras, 2, axis=0), c, False, (0.5,))

    counts, extra = twice()
    assert counts[0, 0] == want[0, :n_grid].sum() and extra[0, 0, 0] == want[0, -1]
    monkeypatch.setattr(holes, "_ENDS_ROUNDING", 0.0)
    counts, extra = twice()
    assert counts[0, 0] != want[0, :n_grid].sum() or extra[0, 0, 0] != want[0, -1]


def test_span_example_ties_a_hole_end_at_the_end_of_a_run():
    """In ``SPAN_EXAMPLE`` a grid point that ends a run of grid points in one
    target state ties a hole's end within the zones' reach, 2^-29 of the
    test's magnitude, and that end lies just beyond the run."""
    donors, sizes, target, grids, extras, c, _ = SPAN_EXAMPLE
    rows = _candidate_rows(grids)
    cands = _candidate_rows(grids, extras)
    scale = np.abs(np.concatenate([donors, target], axis=1)).max(axis=1, keepdims=True)
    reach = scale + np.abs(cands).max(axis=1, keepdims=True)
    zone = 2 * _ENDS_ROUNDING * reach
    donor_sum = np.cumsum(_branch_stats(donors, sizes)[0], axis=1)[:, -1:]
    ends = _hole_points(donors, sizes, target, c)
    tied = []
    for b, first, stop, _ in zip(*holes._target_runs(target, grids, donor_sum, sizes.size + 1,
                                                     c, reach)):
        lo, hi = rows[b, first], rows[b, stop - 1]
        beyond = ends[b][(ends[b] < lo) | (ends[b] > hi)]
        tied += [x for x in (lo, hi) if (np.abs(beyond - x) <= zone[b]).any()]
    assert tied


@SETTINGS
@given(size=st.integers(2, 2001), tests=st.integers(1, 4), n=st.integers(1, 12),
       magnitude=st.sampled_from([0.0, 1.0, 1e3, 1e6, 1e12]),
       spread=st.sampled_from([0.0, 1e-3, 1.0, 1e6]), pad=st.sampled_from([0.0, 1.5, 4.0]),
       seed=SEED)
def test_grid_frames_are_the_candidate_grids(size, tests, n, magnitude, spread, pad, seed):
    """The frame of each row's grid (``_Grids``) reads every point with the
    bits of ``candidate_grid`` and of the one-array form, whole
    (``_candidate_rows``), at any indices (``at``) and on a subset of rows
    with extras after the grid; also where a row's values do not spread."""
    rng = np.random.default_rng(seed)
    values = magnitude * rng.normal(size=(tests, 1)) + spread * rng.normal(size=(tests, n))
    grids = _uniform_grids(values, size, pad)
    rows = _candidate_rows(grids)
    assert np.array_equal(_bits(rows), _bits(oracles.grid_rows(values, size, pad)))
    for b in range(tests):
        assert np.array_equal(_bits(rows[b]), _bits(candidate_grid(values[b], size, pad)))
    assert np.array_equal(_bits(grids.at(np.arange(size))), _bits(rows))
    index = rng.integers(0, size, (tests, 7))
    assert np.array_equal(_bits(grids.at(index)), _bits(np.take_along_axis(rows, index, axis=1)))
    sel = np.flatnonzero(rng.uniform(size=tests) < 0.5)
    extras = rng.normal(size=(sel.size, 2))
    assert np.array_equal(_bits(_candidate_rows(grids.take(sel), extras)),
                          _bits(np.concatenate([rows[sel], extras], axis=1)))
    assert np.array_equal(_bits(grids.take(sel).at(index[sel])), _bits(grids.at(index)[sel]))
    assert np.array_equal(_bits(grids.spacing()), _bits(rows[:, 1] - rows[:, 0]))


@SETTINGS
@given(size=st.integers(2, 300), tests=st.integers(1, 4), X=st.integers(0, 4),
       kind=st.sampled_from(["random", "nan", "tied", "at_ends", "beyond"]), seed=SEED)
def test_grid_frame_bounds_are_the_row_reductions(size, tests, X, kind, seed):
    """Each row's smallest and largest candidate from points 0, size - 2 and
    size - 1 of its grid and its extras equal the reductions of the whole
    row, NaN where an extra is NaN, with extras tied to each other or to
    grid points, at the grid's ends or beyond them; also on a subset of
    rows."""
    rng = np.random.default_rng(seed)
    first = rng.normal(0, 10, (tests, 1))
    grids = _Grids(first, first + rng.uniform(0, 5, (tests, 1)), size)
    rows = _candidate_rows(grids)
    extras = rng.normal(0, 10, (tests, X))
    if X and kind == "nan":
        extras[rng.uniform(size=(tests, X)) < 0.5] = np.nan
    if X and kind == "tied":
        extras = np.take_along_axis(rows, rng.integers(0, size, (tests, X)), axis=1)
        extras[:, -1] = extras[:, 0]
    if X and kind == "at_ends":
        extras = np.repeat(rows[:, [0, -1]], X, axis=1)[:, :X]
    if X and kind == "beyond":
        extras = np.concatenate([rows[:, :1] - 1, rows[:, -1:] + 1] * X, axis=1)[:, :X]
    whole = np.concatenate([rows, extras], axis=1)
    low, high = grids.bounds(extras)
    assert np.array_equal(low, whole.min(axis=1, keepdims=True), equal_nan=True)
    assert np.array_equal(high, whole.max(axis=1, keepdims=True), equal_nan=True)
    sel = np.flatnonzero(rng.uniform(size=tests) < 0.5)
    low, high = grids.take(sel).bounds(extras[sel])
    assert np.array_equal(low, whole[sel].min(axis=1, keepdims=True), equal_nan=True)
    assert np.array_equal(high, whole[sel].max(axis=1, keepdims=True), equal_nan=True)


# ----------------------------------------------------------------------
# Supervised hierarchical sets
# ----------------------------------------------------------------------


@st.composite
def residuals(draw):
    """Donor and target residual magnitudes with ragged or equal sizes."""
    K = draw(st.integers(2, 8))
    equal = draw(st.booleans())
    sizes = [draw(st.integers(1, 8))] * K if equal else draw(
        st.lists(st.integers(1, 8), min_size=K, max_size=K))
    rng = np.random.default_rng(draw(SEED))
    scales = rng.uniform(0.2, 3.0, K)
    donors = [np.abs(rng.normal(0, s, n)) for s, n in zip(scales[:-1], sizes[:-1])]
    target = np.abs(rng.normal(0, scales[-1], sizes[-1] - 1))
    cands = np.abs(np.linspace(-4, 4, draw(st.integers(11, 201))) * scales[-1] + rng.normal())
    return donors, target, cands


@SETTINGS
@given(res=residuals(), alpha=ALPHA, studentize=st.booleans())
def test_supervised_kernel_matches_oracle(res, alpha, studentize):
    donors, target, cands = res
    got = rank_member(supervised_below(donors, target, cands, studentize), alpha)
    assert np.array_equal(got, oracles.supervised_members(donors, target, cands, alpha, studentize))


@pytest.mark.parametrize("studentize", [False, True])
@SETTINGS
@given(res=residuals(), alpha=ALPHA)
def test_pooled_supervised_kernel_equals_branch_loop(studentize, res, alpha):
    donors, target, cands = res
    got = supervised_below(donors, target, cands, studentize)
    loop = oracles.supervised_below_loop(donors, target, cands, studentize)
    assert np.max(np.abs(got - loop)) <= 1e-12
    assert np.array_equal(rank_member(got, alpha), rank_member(loop, alpha))


@SETTINGS
@given(res=residuals(), a=ALPHA, b=ALPHA, data=st.data())
def test_supervised_kernel_monotone_and_donor_order_free(res, a, b, data):
    donors, target, cands = res
    below = supervised_below(donors, target, cands)
    lo, hi = sorted((a, b))
    assert not np.any(rank_member(below, hi) & ~rank_member(below, lo))
    order = data.draw(st.permutations(range(len(donors))))
    shuffled = supervised_below([donors[i] for i in order], target, cands)
    assert np.array_equal(rank_member(shuffled, a), rank_member(below, a))


@SETTINGS
@given(K=st.integers(2, 6), seed=SEED, n_grid=GRID, alpha=ALPHA)
def test_supervised_set_matches_oracle(K, seed, n_grid, alpha):
    rng = np.random.default_rng(seed)
    theta = rng.normal(0, 2.0, K)
    tr_x = [rng.uniform(-0.5, 0.5, rng.integers(1, 9)) for _ in range(K)]
    cal_x = [rng.uniform(-0.5, 0.5, rng.integers(1, 9)) for _ in range(K)]
    tr_y = [theta[k] * x + rng.normal(0, 0.5, x.size) for k, x in enumerate(tr_x)]
    cal_y = [theta[k] * x + rng.normal(0, 0.5, x.size) for k, x in enumerate(cal_x)]
    x_new = rng.uniform(-0.5, 0.5)
    grid = _grid(np.concatenate(cal_y), n_grid)
    ps = supervised_hierarchical_set(tr_x, tr_y, cal_x, cal_y, x_new, grid, alpha)
    want = oracles.supervised_set_members(tr_x, tr_y, cal_x, cal_y, x_new, grid, alpha)
    assert np.array_equal(ps.member, want)


@pytest.mark.parametrize("studentize", [False, True])
@SETTINGS
@given(res=residuals(), alpha=ALPHA, n_grid=GRID, at_ends=st.booleans(), center=st.floats(-3, 3))
def test_supervised_intervals_match_rank_form(studentize, res, alpha, n_grid, at_ends, center):
    """The intervals' memberships equal ``_supervised_block``'s rank form bit
    for bit, in the library and in the harness's grid counts, also with
    candidates on the ends."""
    donors, target, _ = res
    sizes = np.array([r.size for r in donors] + [target.size + 1])
    residuals = np.concatenate(donors + [target])[None]
    mid = np.full((1, 1), center)
    sets = _supervised_intervals(residuals, sizes, mid, (alpha, 0.1), studentize)
    grid = _grid(center + np.concatenate([-residuals[0], residuals[0]]), n_grid)
    if at_ends:
        ends = np.concatenate([sets.low, sets.high], axis=1).ravel()
        grid = np.sort(np.concatenate([grid, ends[np.isfinite(ends)]]))
    below = _supervised_block(residuals, sizes, np.abs(grid - center)[None], studentize)
    want = np.stack([rank_member(below, a) for a in (alpha, 0.1)])
    assert np.array_equal(sets.member(grid[None]), want)
    if not at_ends:
        # the harness's count on the uniform grid from the grid's first to
        # its last point, a target residual's point (the center without
        # one) as the truth
        grids, truth = _frame(grid), center + np.append(target, 0.0)[None, :1]
        gridp = _candidate_rows(grids, truth)
        below = _supervised_block(residuals, sizes, np.abs(gridp - center), studentize)
        assert np.array_equal(_interval_rows([sets], grids, truth)[0],
                              _rank_rows(below, (alpha, 0.1), grids))


def _largest_gap_within(got, want, rel):
    """Whether got equals want to ``rel`` of want's largest magnitude."""
    got, want = np.asarray(got), np.asarray(want)
    return np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@SETTINGS
@given(sizes=st.lists(st.integers(1, 12), min_size=1, max_size=8), d=st.sampled_from([1, 2]),
       seed=SEED, degenerate=st.booleans())
def test_batched_branch_fit_matches_loop_oracle(sizes, d, seed, degenerate):
    rng = np.random.default_rng(seed)
    shape = (lambda n: (n,)) if d == 1 else (lambda n: (n, d))
    tr_x = [rng.uniform(-0.5, 0.5, shape(n)) for n in sizes]
    if degenerate and max(sizes) >= 2:
        # a branch whose x values are all equal has a rank-deficient design
        k = int(np.argmax(sizes))
        tr_x[k] = np.broadcast_to(tr_x[k][0], tr_x[k].shape).copy()
    theta = rng.normal(0, 3, (len(sizes), d))
    tr_y = [x.reshape(len(x), d) @ theta[k] + rng.normal(0, 0.5, len(x))
            for k, x in enumerate(tr_x)]
    try:
        want = oracles.loop_fit_regressors(tr_x, tr_y)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            fit_regressors(tr_x, tr_y)
        assert str(got.value) == str(exc)
        return
    # the normal equations lose digits as the square of a design's condition
    # number, the oracle's SVD fit as its first power: 1e-10 holds for
    # designs under 1e4
    designs = [np.column_stack([np.ones(len(x)), x]) for x in [np.concatenate(tr_x)] + tr_x]
    assume(all(np.linalg.cond(a) < 1e4 for a in designs if len(a) >= 2))
    reg = fit_regressors(tr_x, tr_y)
    x_new = rng.uniform(-1, 1, shape(7))
    assert _largest_gap_within(reg.mu(x_new), want.mu(x_new), 1e-10)
    ks = range(len(sizes))
    assert _largest_gap_within([reg.mu_k(k, x_new) for k in ks],
                               [want.mu_k(k, x_new) for k in ks], 1e-10)
    # a branch of d + 1 points is fit exactly: its band is rounding noise in
    # both forms, below the floor or far below the other bands
    ks = [k for k in ks if sizes[k] != d + 1]
    if ks:
        assert _largest_gap_within([reg.sigma_k(k, x_new) for k in ks],
                                   [want.sigma_k(k, x_new) for k in ks], 1e-10)
    assert _largest_gap_within(reg.train_resid_sd, want.train_resid_sd, 1e-10)
    # the branch-index form evaluates every branch at once
    flat_k = np.repeat(np.arange(len(sizes)), 7)
    flat_x = np.concatenate([x_new] * len(sizes))
    for f in (reg.mu_k, reg.sigma_k):
        each = np.concatenate([f(k, x_new) for k in range(len(sizes))])
        assert _largest_gap_within(f(flat_k, flat_x), each, 1e-14)


@SETTINGS
@given(d=st.sampled_from([1, 2]), n=st.integers(2, 30), tests=st.integers(1, 4),
       offset=st.floats(-1e6, 1e6), log_scale=st.floats(-2, 3.3), seed=SEED)
@example(d=1, n=12, tests=2, offset=1e6, log_scale=3.3, seed=0)
@example(d=2, n=12, tests=2, offset=-1e6, log_scale=3.3, seed=1)
def test_fits_match_the_svd_reference(d, n, tests, offset, log_scale, seed):
    """``fit_linear``, the pooled model of ``fit_regressors`` and the pooled
    rows of ``_fit_block`` match the stacked-SVD reference on x offset by up
    to 1e6, where the design [1, x - mean(x)] has condition number under 1e4.

    The offset leaves the fitted line well conditioned, so its values at
    points among the rows agree within 1e-10 of the largest, and the
    residual SD within 1e-10 of the largest |y| (the scale of the
    reference's rounding in y minus its fit). The coefficients and the
    inverse Gram matrix are as ill-conditioned as the design [1, x] itself,
    whose condition number the offset makes up to 1e10: they agree within
    1e-12 times it, of their largest entry."""
    rng = np.random.default_rng(seed)
    assume(n > d)
    scale = 10.0**log_scale * 10.0 ** rng.uniform(0, 1, d)
    x = offset + scale * rng.uniform(-0.5, 0.5, (tests, n, d))
    y = x @ rng.normal(0, 3, d) + rng.normal(0, 0.5, (tests, n))
    ones = np.ones((tests, n, 1))
    centered = np.concatenate([ones, x - x.mean(axis=1, keepdims=True)], axis=2)
    cond = np.linalg.cond(np.concatenate([ones, x], axis=2))
    assume((np.linalg.cond(centered) < 1e4).all() and (cond < 1e10).all())
    want, _ = oracles.svd_fit_lines(x, y)
    block = _fit_block(x, y, np.array([n]))
    x_new = x[0, rng.integers(n, size=7)] + scale * rng.uniform(-0.5, 0.5, (7, d))
    for b in range(tests):
        ref = LinearModel(want.coef[b], want.xtx_inv[b], float(want.resid_sd[b]))
        row = LinearModel(block.pooled.coef[b], block.pooled.xtx_inv[b],
                          float(block.pooled.resid_sd[b]))
        for got in (fit_linear(x[b], y[b]), fit_regressors([x[b]], [y[b]]).pooled, row):
            assert _largest_gap_within(got.predict(x_new), ref.predict(x_new), 1e-10)
            assert abs(got.resid_sd - ref.resid_sd) <= 1e-10 * np.max(np.abs(y[b]))
            assert _largest_gap_within(got.coef, ref.coef, 1e-12 * cond[b])
            assert _largest_gap_within(got.xtx_inv, ref.xtx_inv, 1e-12 * cond[b])


DEFICIENT = [(d, kind) for d in (1, 2)
             for kind in ("no rows", "one row", "d rows", "constant", "collinear", "nan", "inf",
                          "-inf") if d == 2 or kind != "collinear"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("d, kind", DEFICIENT)
def test_deficient_designs_raise_the_svd_references_error(d, kind):
    """``fit_linear``, ``fit_regressors`` and ``_fit_block`` raise the
    stacked-SVD reference's exception, type and message, on designs of 0, 1
    and d rows, constant x, collinear columns and a NaN or infinite x, and
    warn of nothing on the way."""
    n = {"no rows": 0, "one row": 1, "d rows": d}.get(kind, 6)
    rng = np.random.default_rng(5)
    x, y = rng.normal(0, 2, (n, d)), rng.normal(size=n)
    if kind == "constant":
        x[:] = x[0]
    elif kind == "collinear":
        x[:, 1] = 2 * x[:, 0] + 1
    elif kind in ("nan", "inf", "-inf"):
        x[2, d - 1] = float(kind)
    with pytest.raises(Exception) as ref:
        oracles.svd_fit_linear(x, y)
    fits = [lambda: fit_linear(x, y), lambda: _fit_block(x[None], y[None], np.array([n]))]
    # fit_regressors reads a branch of 0 rows and d = 2 columns by
    # reshape(0, -1), which numpy refuses before any fit
    if n or d == 1:
        fits.append(lambda: fit_regressors([x[:, 0] if d == 1 else x], [y]))
    for fit in fits:
        with pytest.raises(Exception) as got:
            fit()
        assert type(got.value) is type(ref.value) and str(got.value) == str(ref.value)


@SETTINGS
@given(sizes=st.lists(st.integers(0, 9), min_size=1, max_size=6), d=st.sampled_from([1, 2]),
       tests=st.integers(1, 9), seed=SEED)
def test_blocked_branch_fit_has_each_tests_bits(sizes, d, tests, seed):
    """``_fit_block`` and ``branch_fits`` over B tests give every test the
    bits that ``fit_regressors`` and ``branch_fits`` give it alone."""
    sizes = np.array(sizes)
    # a fitted branch (2 points or more) needs d + 1 of them for full rank
    assume(sizes.sum() > d and all(n < 2 or n > d for n in sizes))
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.5, 0.5, (tests, sizes.sum(), d))
    y = x @ rng.normal(0, 3, d) + rng.normal(0, 0.5, (tests, sizes.sum()))
    x_cal = rng.uniform(-0.5, 0.5, (tests, sizes.sum(), d))
    block = _fit_block(x, y, sizes)
    fits = branch_fits(block, x_cal, sizes)
    K = sizes.size
    cuts = np.cumsum(sizes)[:-1]
    for b in range(tests):
        one = fit_regressors(np.split(x[b], cuts), np.split(y[b], cuts))
        rows = slice(b * K, (b + 1) * K)
        assert np.array_equal(block.pooled.coef[b], one.pooled.coef)
        assert np.array_equal(block.pooled.xtx_inv[b], one.pooled.xtx_inv)
        assert block.pooled.resid_sd[b] == one.pooled.resid_sd
        for name in ("coef", "xtx_inv", "resid_sd", "fitted", "train_resid_sd"):
            assert np.array_equal(getattr(block, name)[rows], getattr(one, name))
        alone = branch_fits(one, x_cal[b:b + 1], sizes)
        for f, g in zip(fits, alone):
            assert np.array_equal(f[b], g[0])


def _bits(a):
    """The bits of a float array, so that -0.0 and 0.0 differ and NaN
    equals itself."""
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@SETTINGS
@given(d=st.sampled_from([1, 2, 3]), runs=st.lists(st.integers(1, 40), min_size=1, max_size=8),
       log_scale=st.integers(-6, 6), seed=SEED)
def test_run_products_have_the_bits_of_the_product_form(d, runs, log_scale, seed):
    """``_fit_runs``' sums, one ``np.add.reduceat`` per column pair, equal the
    reduction of the (rows, d, d + 1) products bit for bit, on ragged runs."""
    n = np.array(runs)
    rng = np.random.default_rng(seed)
    dev = rng.normal(0, 10.0**log_scale, (n.sum(), d + 1)) * rng.uniform(0.1, 10, d + 1)
    dev_x, dev_y = np.ascontiguousarray(dev[:, :d]), dev[:, d].copy()
    starts = np.cumsum(n) - n
    assert np.array_equal(_bits(transforms._run_products(dev_x, dev_y, starts)),
                          _bits(oracles.run_products(dev_x, dev_y, starts)))


@SETTINGS
@given(sizes=st.lists(st.sampled_from([0, 1, 2, 3, 4, 5, 9]), min_size=1, max_size=6),
       d=st.integers(1, 3), tests=st.integers(1, 5), seed=SEED)
def test_gather_free_sigma_k_has_the_bits_of_the_einsum_form(sizes, d, tests, seed):
    """``sigma_k``, one gathered entry of the inverse Gram matrices at a
    time, equals one ``np.einsum`` over the gathered (..., d + 1, d + 1)
    matrices bit for bit: on ragged branches with unfitted ones (under 2
    rows), at the harness's index array, at random index arrays that
    broadcast against the points, and at one branch index."""
    sizes = np.array(sizes)
    assume(sizes.sum() > d and all(n < 2 or n > d for n in sizes))
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.5, 0.5, (tests, sizes.sum(), d))
    y = x @ rng.normal(0, 3, d) + rng.normal(0, 0.5, (tests, sizes.sum()))
    reg = _fit_block(x, y, sizes)
    x_cal = rng.uniform(-2, 2, (tests, sizes.sum(), d))
    K = sizes.size
    harness = np.repeat(np.arange(K), sizes) + K * np.arange(tests)[:, None]
    picked = rng.integers(0, K * tests, (tests, 1))
    for k, at in ((harness, x_cal), (picked, x_cal), (int(rng.integers(K * tests)), x_cal[0])):
        assert np.array_equal(_bits(reg.sigma_k(k, at)), _bits(oracles.einsum_sigma_k(reg, k, at)))


@st.composite
def rank_runs(draw):
    """Rows x (N, d) in runs of 2-8, each run of one kind: spread, constant,
    two repeated values, 1e8 + 1e-8 j (steps under the spacing of floats
    there), collinear columns (d = 2), or spread with a non-finite entry."""
    d = draw(st.sampled_from([1, 2]))
    kinds = ["spread", "constant", "two_values", "tiny_steps", "non_finite"]
    kinds += ["collinear"] if d == 2 else []
    runs = draw(st.lists(st.tuples(st.integers(2, 8), st.sampled_from(kinds)),
                         min_size=1, max_size=6))
    rng = np.random.default_rng(draw(SEED))
    xs = []
    for n, kind in runs:
        x = rng.normal(0, 2, (n, d))
        if kind == "constant":
            x[:] = x[0]
        elif kind == "two_values":
            x = x[rng.integers(0, 2, n)]
        elif kind == "tiny_steps":
            x[:, 0] = 1e8 + 1e-8 * np.arange(n)
        elif kind == "collinear":
            x[:, 1] = rng.normal() * x[:, 0] + rng.normal()
        elif kind == "non_finite":
            x[rng.integers(n), rng.integers(d)] = rng.choice([np.nan, np.inf, -np.inf])
        xs.append(x)
    return np.concatenate(xs), np.array([n for n, _ in runs])


@SETTINGS
@given(runs=rank_runs(), seed=SEED)
def test_rank_screen_raises_as_matrix_rank(runs, seed):
    """``_fit_runs`` raises exactly when some run's design [1, x] is
    rank-deficient by ``np.linalg.matrix_rank``, or that call raises, with
    the error of the first such run; so does ``_fit_block`` on finite rows
    whose pooled design is full rank."""
    x, n = runs
    y = np.random.default_rng(seed).normal(size=x.shape[0])
    want = oracles.first_rank_error(x, n)
    if want is None:
        transforms._fit_runs(x, y, n)
    else:
        with pytest.raises(type(want)) as got:
            transforms._fit_runs(x, y, n)
        assert str(got.value) == str(want)
    if np.isfinite(x).all():
        # a spread first branch makes the pooled design full rank
        lead = np.random.default_rng(seed).normal(0, 2, (9, x.shape[1] + 1))
        rows = np.concatenate([lead[:, 1:], x])[None]
        fit = lambda: _fit_block(rows, np.append(lead[:, 0], y)[None], np.append(9, n))
        if want is None:
            fit()
        else:
            with pytest.raises(type(want)) as got:
                fit()
            assert str(got.value) == str(want)


@pytest.mark.parametrize("scales", [(1.0,), (0.5, 500.0), (0.5, 5.0, 500.0)])
def test_rank_screen_passes_full_rank_runs_on_mixed_scales(scales):
    """Runs whose columns span very different scales, Gram eigenvalue ratio
    about 1e-6, pass the screen without a ``matrix_rank`` call."""
    rng = np.random.default_rng(0)
    n = np.full(20, 15)
    x = rng.uniform(-1, 1, (n.sum(), len(scales))) * np.array(scales)
    y = rng.normal(size=n.sum())
    with mock.patch.object(np.linalg, "matrix_rank", side_effect=AssertionError):
        transforms._fit_runs(x, y, n)


@st.composite
def weighted_scores(draw):
    """Scores (B, N), B = 0 too, on a coarse lattice, so that ends tie, with
    a NaN at times; weights k/8 with k in 0..2, zero and repeated, at times
    one of them the level of the first alpha or a float either side of it,
    where a cumulative sum lands; alphas from ALPHAS."""
    B, N = draw(st.integers(0, 4)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(SEED))
    scores = rng.integers(0, 5, (B, N)) / 2
    if B and draw(st.booleans()):
        scores[rng.integers(B), rng.integers(N)] = np.nan
    alphas = draw(ALPHAS)
    weights = rng.integers(0, 3, N) / 8
    if alphas[0] < 1 and draw(st.booleans()):
        level = calibrate._level(alphas[0])
        weights[0] = np.nextafter(level, draw(st.sampled_from([-1.0, level, 2.0])))
        scores[:, 0] = -1.0  # first in order, so its weight is a cumulative sum
    return scores, weights, alphas


def _assert_weighted_ends_match_oracle(build):
    """The ``low``, ``high`` and ``ranked`` of the weighted ``_intervals``
    call that ``build()`` makes, bit for bit against the comparison form."""
    calls = []
    real = calibrate._intervals

    def spy(*args, **kwargs):
        calls.append(inspect.signature(real).bind(*args, **kwargs))
        return real(*args, **kwargs)

    with mock.patch.object(calibrate, "_intervals", spy):
        sets = build()
    (call,) = calls
    call.apply_defaults()
    a = call.arguments
    want = oracles.weighted_interval_ends(a["lo"], a["hi"], a["alphas"], a["weights"],
                                          a["ranked"])
    for got, exp in zip((sets.low, sets.high, sets.ranked), want):
        assert got.shape == exp.shape and got.tobytes() == exp.tobytes()


@SETTINGS
@given(case=weighted_scores(), centered=st.booleans())
def test_weighted_score_intervals_match_comparison_form(case, centered):
    scores, weights, alphas = case
    center = np.linspace(-1.0, 1.0, scores.shape[0])[:, None] if centered else None
    _assert_weighted_ends_match_oracle(
        lambda: score_intervals(np.abs(scores), alphas, center, weights))


@SETTINGS
@given(case=weighted_scores(), shift=st.sampled_from([0.0, 0.5]))
def test_weighted_centered_intervals_match_comparison_form(case, shift):
    values, weights, alphas = case
    _assert_weighted_ends_match_oracle(
        lambda: centered_intervals(values + shift, alphas, weights=weights))


@pytest.mark.parametrize("studentize", [False, True])
@SETTINGS
@given(sizes=st.lists(st.integers(1, 4), min_size=2, max_size=5), seed=SEED,
       nan=st.booleans(), alphas=ALPHAS)
def test_supervised_interval_ends_match_comparison_form(studentize, sizes, seed, nan, alphas):
    """Branch weights 1/(K n_k), repeated, on tied residuals, a NaN at times."""
    sizes = np.array(sizes)
    rng = np.random.default_rng(seed)
    residuals = rng.integers(0, 4, (3, sizes.sum() - 1)) / 2
    if nan:
        residuals[rng.integers(3), rng.integers(sizes.sum() - 1)] = np.nan
    center = np.array([[0.0], [1.0], [-2.5]])
    _assert_weighted_ends_match_oracle(
        lambda: _supervised_intervals(residuals, sizes, center, alphas, studentize))


@pytest.mark.parametrize("build", [
    lambda w: score_intervals(np.ones((1, 3)), (0.2,), weights=w),
    lambda w: score_intervals(np.ones((1, 3)), (0.2,), np.zeros((1, 1)), weights=w),
    lambda w: centered_intervals(np.arange(3.0)[None], (0.2,), weights=w),
])
@pytest.mark.parametrize("weights", [[0.5, -0.25, 0.75], [0.5, np.nan, 0.5]])
def test_weighted_intervals_reject_negative_weights(build, weights):
    with pytest.raises(ValueError, match="weights must be nonnegative"):
        build(np.array(weights))


@pytest.mark.parametrize("build", [
    lambda v, alphas: centered_intervals(v, alphas),
    lambda v, alphas: score_intervals(np.abs(v), alphas),
    lambda v, alphas: score_intervals(np.abs(v), alphas, np.zeros((v.shape[0], 1))),
])
@pytest.mark.parametrize("m", [0, 3])
def test_unweighted_intervals_of_no_tests_are_empty(build, m):
    """A block of no tests, with or without calibration values, has ends
    of shape (0, A) and no members, without weights as with them."""
    sets = build(np.empty((0, m)), (0.1, 0.5))
    assert sets.low.shape == sets.high.shape == (0, 2)
    assert sets.member(np.empty((0, 4))).shape == (2, 0, 4)


@pytest.mark.parametrize("studentize", [False, True])
@pytest.mark.parametrize("methods", [ALL_METHODS[:4], ("symmpi", "conformal", "single_tree")])
@SETTINGS
@given(branch_size=st.sampled_from([30, (20, 40), 6, (3, 8)]),
       sigma2=st.sampled_from([0.0, 0.5, 10.0]), grid_points=st.sampled_from([21, 201, 2001]),
       tests=st.integers(1, 12), seed=st.integers(0, 2**31 - 1))
def test_blocked_supervised_trial_equals_per_test_loop(studentize, methods, branch_size, sigma2,
                                                       grid_points, tests, seed):
    # without subsampling no position is drawn after each test's data
    cfg = HierarchicalConfig(n_branches=5, branch_size=branch_size, supervised=True,
                             sigma2=sigma2, alphas=(0.05, 0.15, 0.3), tests=tests,
                             grid_points=grid_points, seed=seed, studentize=studentize)
    assert _run_trials(cfg, methods, [1])[0] == oracles.run_trial(cfg, methods, 1)


@pytest.mark.parametrize("studentize", [False, True])
@SETTINGS
@given(sizes=st.lists(st.integers(2, 12), min_size=2, max_size=6), target=st.integers(3, 12),
       methods=st.sampled_from([ALL_METHODS[:4], ("symmpi",), ("subsampling", "single_tree")]),
       seed=SEED)
def test_one_test_supervised_rows_equal_oracle(studentize, sizes, target, methods, seed):
    sizes = sizes + [target]
    cfg = HierarchicalConfig(n_branches=len(sizes), branch_size=(2, 12), supervised=True,
                             alphas=(0.05, 0.15, 0.3), grid_points=201, studentize=studentize)
    rng = np.random.default_rng(seed)
    theta = rng.normal(0, 2, len(sizes))
    xs = [rng.uniform(-0.5, 0.5, n) for n in sizes]
    ys = [t * x + rng.normal(0, 0.5, x.size) for t, x in zip(theta, xs)]
    got = _sup_eval(xs, ys, cfg, np.random.default_rng(seed + 1), methods)
    want = oracles.sup_eval(xs, ys, cfg, np.random.default_rng(seed + 1), methods)
    assert list(got) == list(want)
    for m in got:
        assert np.array_equal(got[m], want[m])


# ----------------------------------------------------------------------
# Conformal sets and the first-observation set
# ----------------------------------------------------------------------


# Shapes where a candidate meets a calibration score or an end of its set:
# all-equal values, a grid over two values (its points fall on the values),
# candidates placed on the set's ends, and alpha on a k / n boundary.
SHAPES = st.sampled_from(["random", "equal", "two_values", "at_ends", "boundary"])


def _conformal_case(shape, n, seed, n_grid, alpha, make_grid):
    """Values, candidates and alpha of one conformal case of ``shape``."""
    rng = np.random.default_rng(seed)
    vals = rng.normal(0, 2, n)
    if shape == "equal":
        vals[:] = vals[:1]
    if shape == "two_values":
        vals = vals[:2] if n >= 2 else vals
        # 5 (G - 1) / 5 steps span the data and 8 SDs: the values are grid points
        return vals, candidate_grid(vals, 5 * n_grid[0] + 1), alpha
    if shape == "boundary":
        k = int(rng.integers(1, n + 1))
        alpha = 1 - k / (n + 1)
    return vals, make_grid(vals, n_grid), alpha


@SETTINGS
@given(n=st.integers(1, 60), seed=SEED, n_grid=GRID, alpha=ALPHA, shape=SHAPES)
@example(n=1, seed=0, n_grid=(11, 0), alpha=0.6, shape="random")
@example(n=3, seed=106823, n_grid=(11, 0), alpha=0.25, shape="equal")
@example(n=2, seed=2, n_grid=(40, 2), alpha=0.4, shape="two_values")
@example(n=7, seed=3, n_grid=(51, 3), alpha=0.2, shape="at_ends")
@example(n=9, seed=4, n_grid=(31, 4), alpha=0.5, shape="boundary")
def test_centered_conformal_matches_oracle(n, seed, n_grid, alpha, shape):
    vals, grid, alpha = _conformal_case(shape, n, seed, n_grid, alpha, _grid)
    intervals = centered_intervals(vals[None], (alpha,))
    if shape == "at_ends":
        ends = np.concatenate([intervals.low, intervals.high], axis=1).ravel()
        grid = np.sort(np.concatenate([grid, ends[np.isfinite(ends)]]))
    # the rank form, bit for bit, in every shape
    want = rank_member(oracles.centered_conformal_below(vals, grid), alpha)
    assert np.array_equal(intervals.member(grid[None])[0, 0], want)
    assert np.array_equal(split_conformal_set(vals, grid, alpha).member, want)
    assert np.array_equal(single_tree_set(vals, grid, alpha).member, want)
    if shape != "at_ends":
        # the harness's count on the uniform grid from the grid's first to
        # its last point, a data value as the truth
        grids, truth = _frame(grid), vals[None, :1]
        gridp = _candidate_rows(grids, truth)
        want_rows = _rank_rows(oracles.centered_conformal_below(vals[None], gridp), (alpha,),
                               grids)
        assert np.array_equal(_interval_rows([intervals], grids, truth)[0], want_rows)
    if shape in ("random", "boundary") and n >= 2:
        # with one value, it and the candidate sit at the same distance from
        # their mean, an exact tie that rounding breaks either way; on the
        # other shapes a candidate's score ties a calibration score exactly
        assert np.array_equal(want, oracles.centered_conformal_members(vals, grid, alpha))


@SETTINGS
@given(n=st.integers(0, 60), seed=SEED, n_points=st.integers(11, 201), alpha=ALPHA,
       shape=SHAPES)
@example(n=1, seed=0, n_points=11, alpha=0.4, shape="random")
@example(n=6, seed=1, n_points=21, alpha=0.3, shape="equal")
@example(n=2, seed=2, n_points=40, alpha=0.4, shape="two_values")
@example(n=7, seed=3, n_points=51, alpha=0.2, shape="at_ends")
@example(n=9, seed=4, n_points=31, alpha=0.5, shape="boundary")
def test_fixed_score_conformal_matches_oracle(n, seed, n_points, alpha, shape):
    def shifted_grid(vals, n_grid):
        return np.linspace(-6, 6, n_grid[0]) + np.random.default_rng(seed).normal(0, 0.1)

    if n == 0 and shape in ("two_values", "boundary"):
        shape = "random"
    vals, grid, alpha = _conformal_case(shape, n, seed, (n_points, seed), alpha, shifted_grid)
    if shape == "at_ends":
        q = score_intervals(np.abs(vals)[None], (alpha,), np.zeros((1, 1))).high.ravel()
        grid = np.sort(np.concatenate([grid, q, -q])) if np.isfinite(q).all() else grid
    want = oracles.conformal_members(np.abs(vals), np.abs(grid), alpha)
    rank = rank_member(oracles.conformal_below(np.abs(vals), np.abs(grid)), alpha)
    assert np.array_equal(rank, want)
    assert np.array_equal(cluster_sum_set(vals, grid, alpha).member, want)
    assert np.array_equal(tree_leaf_set(np.append(vals, 0.0), grid, alpha).member, want)
    one_sided = score_intervals(vals[None], (alpha,)).member(grid[None])[0, 0]
    assert np.array_equal(one_sided, oracles.conformal_members(vals, grid, alpha))
    intervals = score_intervals(np.abs(vals - 0.5)[None], (alpha,), np.full((1, 1), 0.5))
    assert np.array_equal(intervals.member(grid[None])[0, 0],
                          oracles.conformal_members(np.abs(vals - 0.5), np.abs(grid - 0.5), alpha))
    if shape != "at_ends" and n:
        grids, truth = _frame(grid), vals[None, :1]
        gridp = _candidate_rows(grids, truth)
        below = oracles.conformal_below(np.abs(vals - 0.5), np.abs(gridp[0] - 0.5))[None]
        assert np.array_equal(_interval_rows([intervals], grids, truth)[0],
                              _rank_rows(below, (alpha,), grids))
    rows = np.abs(vals[None, :] - 0.1 * grid[:, None])
    want_rows = oracles.conformal_members(rows, np.abs(grid), alpha)
    assert np.array_equal(rank_member(_rows_below(rows, np.abs(grid)), alpha), want_rows)


@SETTINGS
@given(n=st.integers(2, 30), seed=SEED, n_grid=GRID, alpha=ALPHA)
def test_custom_score_single_tree_matches_oracle(n, seed, n_grid, alpha):
    vals = np.random.default_rng(seed).normal(0, 2, n)
    grid = _grid(vals, n_grid)
    score = lambda v: np.abs(v - np.median(v))  # noqa: E731
    want = []
    for c in grid:
        s = score(np.append(vals, c))
        want.append(oracles.conformal_members(s[:-1], s[-1:], alpha)[0])
    assert np.array_equal(single_tree_set(vals, grid, alpha, score=score).member, want)


@SETTINGS
@given(branches=ragged_branches(min_branches=1, max_branches=7), n_grid=GRID, alpha=ALPHA,
       data=st.data())
def test_hcp_first_obs_matches_oracle(branches, n_grid, alpha, data):
    # a single donor branch of equal values ties the candidate exactly (both
    # sit at the same distance from their average); rounding breaks it either way
    assume(not (len(branches) == 1 and np.ptp(branches[0]) == 0))
    grid = _grid(np.concatenate(branches), n_grid)
    ps = hcp_first_obs_set(branches, grid, alpha)
    assert np.array_equal(ps.member, oracles.hcp_first_obs_members(branches, grid, alpha))
    order = data.draw(st.permutations(range(len(branches))))
    assert np.array_equal(hcp_first_obs_set([branches[i] for i in order], grid, alpha).member,
                          ps.member)


# ----------------------------------------------------------------------
# Orbit sets: the batched sweep behind symmpi_set and randomized_set
# ----------------------------------------------------------------------


def _append(observed, c):
    return np.append(observed, c)


def _identity(z):
    return np.asarray(z, dtype=float)


def _last(z):
    return np.asarray(z)[..., -1]


def _last_entry(z):
    return np.asarray(z)[..., -1, -1]


U_PRIME = st.floats(0.0, 1.0, exclude_max=True)


def _tied_values(rng, size):
    """Normal values, or a few values repeated, so that scores tie."""
    if rng.uniform() < 0.5:
        return rng.normal(0, 1, size)
    return rng.choice(rng.normal(0, 1, 3), size)


def _tied_grid(observed, rng, n_grid):
    """A grid over the data that contains the observed values themselves."""
    flat = np.asarray(observed, dtype=float).ravel()
    lo, hi = (flat.min(), flat.max()) if flat.size else (0.0, 0.0)
    grid = np.linspace(lo - 1.5, hi + 1.5, n_grid) + rng.normal(0, 0.01)
    return np.unique(np.concatenate([grid, flat]))


def _assert_sweep_matches_oracle(observed, grid, embed, V, psi, group, alpha, u,
                                 elements, cosets=None):
    det = symmpi_set(observed, grid, embed, V, psi, group, alpha, cosets=cosets)
    ran = randomized_set(observed, grid, embed, V, psi, group, alpha, u, cosets=cosets)
    want = oracles.orbit_set_members(observed, grid, embed, V, psi, group, alpha, elements)
    want_ran = oracles.orbit_set_members(observed, grid, embed, V, psi, group, alpha,
                                         elements, u_prime=u)
    assert np.array_equal(det.member, want)
    assert np.array_equal(ran.member, want_ran)
    assert det.meta == ran.meta == {"mode": "exact", "orbit_size": len(elements)}


@SETTINGS
@given(n=st.integers(1, 6), seed=SEED, n_grid=st.integers(2, 40), alpha=ALPHA, u=U_PRIME)
def test_exact_orbit_set_matches_oracle_symmetric(n, seed, n_grid, alpha, u):
    rng = np.random.default_rng(seed)
    observed = _tied_values(rng, n - 1)
    grid = _tied_grid(observed, rng, n_grid)
    group = SymmetricGroup(n)
    _assert_sweep_matches_oracle(observed, grid, _append, _identity, _last, group, alpha, u,
                                 list(group.elements()))


@SETTINGS
@given(shape=st.sampled_from([(1, 3), (2, 1), (2, 2), (2, 3), (3, 2)]), seed=SEED,
       n_grid=st.integers(2, 30), alpha=ALPHA, u=U_PRIME)
def test_exact_orbit_set_matches_oracle_block(shape, seed, n_grid, alpha, u):
    K, M = shape
    rng = np.random.default_rng(seed)
    observed = (rng.normal(0, 2, (K, 1)) + rng.normal(0, 1, (K, M))).ravel()[:-1]
    grid = _tied_grid(observed, rng, n_grid)
    group = BlockPermutationGroup(K, M)

    def embed(o, c):
        return np.append(o, c).reshape(K, M)

    def V(z):
        return hierarchical_unsup_transform(z, 2.0)

    _assert_sweep_matches_oracle(observed, grid, embed, V, _last_entry, group, alpha, u,
                                 list(group.elements()))


@SETTINGS
@given(n=st.integers(2, 6), seed=SEED, n_grid=st.integers(2, 30), alpha=ALPHA, u=U_PRIME)
def test_exact_orbit_set_matches_oracle_graph(n, seed, n_grid, alpha, u):
    rng = np.random.default_rng(seed)
    A = np.triu(rng.choice([0.0, 0.0, 1.0, 2.0], (n, n)), 1)
    A = A + A.T
    aut = enumerate_automorphisms(A)
    observed = _tied_values(rng, n - 1)
    grid = _tied_grid(observed, rng, n_grid)
    _assert_sweep_matches_oracle(observed, grid, _append, _identity, _last, aut, alpha, u,
                                 list(aut.elements()))


def _several_coordinates(z):
    z = np.asarray(z)
    return z[..., 0] - 2 * z[..., -1] ** 2


def _uneven(z):
    """A V that is not the identity and treats each coordinate differently."""
    z = np.asarray(z, dtype=float)
    return z + 0.5 * np.roll(z, 1, axis=-1) ** 2 + np.arange(z.shape[-1])


def _random_graph_group(rng):
    n = int(rng.integers(1, 8))
    A = np.triu(rng.choice([0.0, 0.0, 1.0, 2.0], (n, n)), 1)
    return enumerate_automorphisms(A + A.T)


@SETTINGS
@given(source=st.sampled_from(["S4", "block-2-2", "block-2-3", "graph"]), seed=SEED,
       n_grid=st.integers(2, 12), alpha=ALPHA, u=U_PRIME)
def test_exact_orbit_set_acting_by_listed_images_matches_oracle(source, seed, n_grid, alpha, u):
    # the sweep acts by each listed image array itself, as the element's
    # inverse; psi reads several coordinates and V is not the identity, so
    # an element and its inverse score differently, and only the counts over
    # the whole group agree
    rng = np.random.default_rng(seed)
    group = {"S4": lambda: SymmetricGroup(4), "block-2-2": lambda: BlockPermutationGroup(2, 2),
             "block-2-3": lambda: BlockPermutationGroup(2, 3),
             "graph": lambda: _random_graph_group(rng)}[source]()
    observed = _tied_values(rng, math.prod(group.shape) - 1)
    grid = _tied_grid(observed, rng, n_grid)
    _assert_sweep_matches_oracle(observed, grid, _append, _uneven, _several_coordinates, group,
                                 alpha, u, list(group.elements()))


@st.composite
def weighted_graphs(draw):
    """Symmetric adjacencies of 1-8 vertices with loops, from a few weights so
    that vertices tie; a zero's mirror may be -0.0."""
    n = draw(st.integers(1, 8))
    weights = st.sampled_from([0.0, 0.0, -0.0, 1.0, 1.0, 2.0, 0.5])
    cells = np.array(draw(st.lists(weights, min_size=n * n, max_size=n * n))).reshape(n, n)
    flips = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)
    upper = np.triu(np.ones((n, n), dtype=bool))
    A = np.where(upper, cells, cells.T)
    return np.where(~upper & flips & (A == 0.0), -A, A)


K7_PLUS_ISOLATED = np.pad(1.0 - np.eye(7), ((0, 1), (0, 1)))


@SETTINGS
@given(A=weighted_graphs())
@example(A=K7_PLUS_ISOLATED)
def test_automorphism_search_matches_backtracking(A):
    want = np.array([g.mapping for g in oracles.backtrack_automorphisms(A)])
    aut = enumerate_automorphisms(A)
    assert np.array_equal(np.concatenate(list(aut.iter_mapping_batches())), want)
    # batches of 3 rows cut across the levels of the listing
    batches = list(aut.iter_mapping_batches(3))
    assert [len(b) for b in batches[:-1]] == [3] * (len(batches) - 1)
    assert np.array_equal(np.concatenate(batches), want)


@SETTINGS
@given(A=weighted_graphs(), data=st.data())
@example(A=K7_PLUS_ISOLATED, data=None)
def test_automorphism_chain_matches_backtracking(A, data):
    want = np.array([g.mapping for g in oracles.backtrack_automorphisms(A)])
    n = A.shape[0]
    aut = enumerate_automorphisms(A)
    assert aut.order() == len(want)
    for i in range(n):
        counts = np.bincount(want[:, i], minlength=n)
        orbit, stab = orbit_of_index(aut, i)
        assert np.array_equal(orbit, np.flatnonzero(counts)) and stab == counts[i]
    assert [g.mapping.tolist() for g in aut.elements()] == want.tolist()
    if data is None:
        return
    picks = data.draw(st.lists(st.integers(0, len(want) - 1), min_size=1, max_size=4))
    generated = enumerate_automorphisms(A, generators=[Permutation(want[k]) for k in picks])
    listed = [tuple(g.mapping.tolist()) for g in generated.elements()]
    assert listed == oracles.permutation_closure(want[picks])
    assert generated.order() == len(listed)


@SETTINGS
@given(kind=st.sampled_from(["sn", "block"]), seed=SEED, n_grid=st.integers(2, 30),
       alpha=ALPHA, u=U_PRIME)
def test_exact_orbit_set_matches_oracle_cosets(kind, seed, n_grid, alpha, u):
    rng = np.random.default_rng(seed)
    group = SymmetricGroup(5) if kind == "sn" else BlockPermutationGroup(2, 3)
    n = 5 if kind == "sn" else 6
    observed = _tied_values(rng, n - 1)
    grid = _tied_grid(observed, rng, n_grid)
    dec = coset_representatives(group, _last, default_probes(rng.normal(size=n), rng))
    _assert_sweep_matches_oracle(observed, grid, _append, _identity, _last, group, alpha, u,
                                 dec.representatives, cosets=dec)
    # the quantile only depends on the cosets: the full group gives the same set
    full = oracles.orbit_set_members(observed, grid, _append, _identity, _last, group, alpha,
                                     list(group.elements()))
    assert np.array_equal(symmpi_set(observed, grid, _append, _identity, _last, group, alpha,
                                     cosets=dec).member, full)


@SETTINGS
@given(n=st.integers(1, 4), seed=SEED, n_grid=st.integers(1, 20), alpha=ALPHA, u=U_PRIME)
def test_exact_orbit_set_matches_oracle_trivial(n, seed, n_grid, alpha, u):
    rng = np.random.default_rng(seed)
    observed = rng.normal(0, 1, n - 1)
    grid = _tied_grid(observed, rng, n_grid)
    _assert_sweep_matches_oracle(observed, grid, _append, _identity, _last, TrivialGroup(),
                                 alpha, u, [None])


def _swap_with_last(n):
    """The n cosets of S_{n-1} in S_n, one transposition (j n-1) each."""
    reps = []
    for j in range(n):
        m = list(range(n))
        m[j], m[n - 1] = m[n - 1], m[j]
        reps.append(Permutation(m))
    return reps


@SETTINGS
@given(kind=st.sampled_from(["sn", "block", "graph"]), seed=SEED, n_grid=st.integers(2, 30),
       alpha=ALPHA)
def test_nonsym_set_matches_oracle(kind, seed, n_grid, alpha):
    # weighted representatives, some of weight zero: S_n swap-with-last
    # cosets, block permutations (some of the group's elements, or the coset
    # representatives of psi on (K, M) points) and graph automorphisms, all
    # Permutations of the flattened points acting as one index array. The
    # weighted masses add up in another order than the oracle's cumulative
    # sum; random weights keep them far from 1 - alpha against rounding.
    rng = np.random.default_rng(seed)
    embed, V, psi = _append, _identity, _last
    if kind == "sn":
        n = int(rng.integers(1, 8))
        group, reps = SymmetricGroup(n), _swap_with_last(n)
    elif kind == "block":
        K, M = (int(v) for v in rng.integers(1, 4, 2))
        n, group = K * M, BlockPermutationGroup(K, M)
        if rng.uniform() < 0.5:
            probes = default_probes(rng.normal(size=(K, M)), rng, n_extra=2)
            reps = coset_representatives(group, _last_entry, probes).representatives
        else:
            elements = list(group.elements())
            picks = rng.choice(len(elements), int(rng.integers(1, min(len(elements), 12) + 1)),
                               replace=False)
            reps = [elements[i] for i in picks]

        def embed(o, c):
            return np.append(o, c).reshape(K, M)

        def V(z):
            return hierarchical_unsup_transform(z, 2.0)

        psi = _last_entry
    else:
        n = int(rng.integers(2, 7))
        A = np.triu(rng.choice([0.0, 0.0, 1.0, 2.0], (n, n)), 1)
        group = enumerate_automorphisms(A + A.T)
        reps = list(group.elements())
    weights = rng.dirichlet(np.ones(len(reps)))
    weights[rng.uniform(size=weights.size) < 0.3] = 0.0
    weights[int(rng.integers(weights.size))] += 0.1  # at least one stays positive
    spec = WeightSpec(reps, weights / weights.sum())
    observed = _tied_values(rng, n - 1)
    grid = _tied_grid(observed, rng, n_grid)
    got = nonsym_set(observed, grid, embed, V, psi, spec, group, alpha,
                     np.random.default_rng(seed))
    want = oracles.nonsym_members(observed, grid, embed, V, psi, spec, group, alpha,
                                  np.random.default_rng(seed))
    assert np.array_equal(got.member, want.member)
    assert got.meta["drawn_rep"] == want.meta["drawn_rep"]


def _mc_case(kind, seed):
    """Observed data, embedding, V, psi and group of a Monte-Carlo case."""
    rng = np.random.default_rng(seed)
    if kind == "sn":
        n = int(rng.integers(2, 30))
        return _tied_values(rng, n - 1), _append, _identity, _last, SymmetricGroup(n)
    K, M = (int(v) for v in rng.integers(1, 6, 2))
    observed = (rng.normal(0, 2, (K, 1)) + rng.normal(0, 1, (K, M))).ravel()[:-1]

    def embed(o, c):
        return np.append(o, c).reshape(K, M)

    def V(z):
        return hierarchical_unsup_transform(z, 2.0)

    return observed, embed, V, _last_entry, BlockPermutationGroup(K, M)


@SETTINGS
@given(kind=st.sampled_from(["sn", "block"]), seed=SEED, draws=st.integers(1, 60),
       n_grid=st.integers(2, 30), alpha=ALPHA, u=U_PRIME)
def test_mc_randomized_set_within_deterministic_set(kind, seed, draws, n_grid, alpha, u):
    observed, embed, V, psi, group = _mc_case(kind, seed)
    grid = _tied_grid(observed, np.random.default_rng(seed), n_grid)
    det = symmpi_set(observed, grid, embed, V, psi, group, alpha, mode="mc", mc_draws=draws,
                     rng=np.random.default_rng(seed))
    ran = randomized_set(observed, grid, embed, V, psi, group, alpha, u, mode="mc",
                         mc_draws=draws, rng=np.random.default_rng(seed))
    assert not np.any(ran.member & ~det.member)
    assert det.meta == {"mode": "mc", "orbit_size": draws + 1}


@SETTINGS
@given(kind=st.sampled_from(["sn", "block"]), seed=SEED, draws=st.integers(1, 60),
       n_grid=st.integers(2, 30), alpha=ALPHA, data=st.data())
def test_mc_set_on_sub_grid_is_restriction(kind, seed, draws, n_grid, alpha, data):
    # the draws are shared by all candidates, so a candidate's membership does
    # not depend on which other candidates are on the grid
    observed, embed, V, psi, group = _mc_case(kind, seed)
    grid = _tied_grid(observed, np.random.default_rng(seed), n_grid)
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=grid.size, max_size=grid.size)))
    assume(keep.any())
    full = symmpi_set(observed, grid, embed, V, psi, group, alpha, mode="mc", mc_draws=draws,
                      rng=np.random.default_rng(seed))
    sub = symmpi_set(observed, grid[keep], embed, V, psi, group, alpha, mode="mc",
                     mc_draws=draws, rng=np.random.default_rng(seed))
    assert np.array_equal(sub.member, full.member[keep])


@SETTINGS
@given(kind=st.sampled_from(["orthogonal", "graph"]), seed=SEED, draws=st.integers(1, 40),
       n_grid=st.integers(2, 20), alpha=ALPHA, u=U_PRIME)
def test_mc_set_without_batched_sampler_matches_oracle(kind, seed, draws, n_grid, alpha, u):
    # groups without act_uniform_batch draw group.sample one at a time, in the
    # order the per-candidate oracle draws them
    rng = np.random.default_rng(seed)
    if kind == "orthogonal":
        group = OrthogonalGroup(2)
        observed = rng.normal(0, 1, (int(rng.integers(1, 5)), 2))

        def embed(o, c):
            return np.vstack([o, [c, 0.0]])

        def psi(z):
            return np.asarray(z)[..., -1, 0]
    else:
        n = int(rng.integers(2, 7))
        group = enumerate_automorphisms(np.zeros((n, n)))
        observed, embed, psi = _tied_values(rng, n - 1), _append, _last
    grid = _tied_grid(observed, rng, n_grid)
    kw = dict(mode="mc", mc_draws=draws)
    sampler = np.random.default_rng(seed)
    elements = [group.sample(sampler) for _ in range(draws)]
    for u_prime in (None, u):
        if u_prime is None:
            got = symmpi_set(observed, grid, embed, _identity, psi, group, alpha,
                             rng=np.random.default_rng(seed), **kw)
        else:
            got = randomized_set(observed, grid, embed, _identity, psi, group, alpha, u_prime,
                                 rng=np.random.default_rng(seed), **kw)
        want = oracles.orbit_set_members(observed, grid, embed, _identity, psi, group, alpha,
                                         elements, u_prime=u_prime, own_first=True)
        assert np.array_equal(got.member, want)


@SETTINGS
@given(kind=st.sampled_from(["sn", "block"]), seed=SEED, draws=st.integers(1, 60),
       n_grid=st.integers(2, 30), alpha=ALPHA, u=U_PRIME)
def test_mc_set_with_batched_sampler_matches_oracle(kind, seed, draws, n_grid, alpha, u):
    # groups with act_uniform_batch draw all the draws in one call on the
    # index points (at most 30 entries, so one batch holds them all); row r
    # of the acted index is the inverse of the element that draw r stands for
    observed, embed, V, psi, group = _mc_case(kind, seed)
    grid = _tied_grid(observed, np.random.default_rng(seed), n_grid)
    index = np.broadcast_to(np.arange(math.prod(group.shape)).reshape(group.shape),
                            (draws,) + group.shape).copy()
    inverse = group.act_uniform_batch(np.random.default_rng(seed), index).reshape(draws, -1)
    elements = [Permutation(np.argsort(row)) for row in inverse]
    kw = dict(mode="mc", mc_draws=draws)
    for u_prime in (None, u):
        if u_prime is None:
            got = symmpi_set(observed, grid, embed, V, psi, group, alpha,
                             rng=np.random.default_rng(seed), **kw)
        else:
            got = randomized_set(observed, grid, embed, V, psi, group, alpha, u_prime,
                                 rng=np.random.default_rng(seed), **kw)
        want = oracles.orbit_set_members(observed, grid, embed, V, psi, group, alpha,
                                         elements, u_prime=u_prime, own_first=True)
        assert np.array_equal(got.member, want)
        assert got.meta == {"mode": "mc", "orbit_size": draws + 1}


# ----------------------------------------------------------------------
# The supervised rotation set: stacked draws against one draw at a time
# ----------------------------------------------------------------------


def _radial_score(y, x):
    return np.abs(y - np.linalg.norm(x, axis=1))


def _projection_score(y, x):
    return np.abs(y - (0.7 * x[:, 0] - 0.2 * x[:, -1]))


@SETTINGS
@given(seed=SEED, draw_seed=SEED, p=st.integers(1, 6), n=st.integers(1, 20),
       draws=st.integers(1, 500), n_cand=st.integers(1, 30),
       alpha=st.one_of(st.sampled_from([0.0, 1.0]), ALPHA),
       score=st.sampled_from([_radial_score, _projection_score]))
# draws that pick only observed points, then only the held-out point
@example(seed=0, draw_seed=36, p=2, n=1, draws=4, n_cand=5, alpha=0.3, score=_radial_score)
@example(seed=1, draw_seed=4, p=3, n=1, draws=4, n_cand=5, alpha=0.3, score=_radial_score)
@example(seed=2, draw_seed=23, p=1, n=3, draws=5, n_cand=7, alpha=0.5,
         score=_projection_score)
@example(seed=3, draw_seed=197, p=6, n=3, draws=5, n_cand=7, alpha=0.5,
         score=_projection_score)
def test_rotation_supervised_set_matches_per_draw_oracle(seed, draw_seed, p, n, draws, n_cand,
                                                         alpha, score):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    y = np.linalg.norm(x, axis=1) + rng.normal(0, 0.5, n)
    x_new = rng.normal(size=p)
    cands = np.linspace(-2.0, 4.0, n_cand)
    got = rotation_supervised_set(x, y, x_new, score, cands, alpha, draws,
                                  np.random.default_rng(draw_seed))
    want = oracles.rotation_supervised_members(x, y, x_new, score, cands, alpha, draws,
                                               np.random.default_rng(draw_seed))
    assert np.array_equal(got.member, want)
    assert got.unbounded == bool(want.all())


# ----------------------------------------------------------------------
# Interval extraction
# ----------------------------------------------------------------------


@SETTINGS
@given(mask=st.one_of(st.lists(st.booleans(), max_size=40),
                      st.tuples(st.integers(0, 40), st.booleans()).map(lambda t: [t[1]] * t[0])),
       start=st.floats(-5, 5), step=st.floats(0.01, 2))
@example(mask=[], start=0.0, step=1.0)
@example(mask=[True], start=0.0, step=1.0)
@example(mask=[False], start=0.0, step=1.0)
@example(mask=[True, False, False, True], start=0.0, step=1.0)
@example(mask=[False, True, False], start=0.0, step=1.0)
def test_intervals_equal_the_walk(mask, start, step):
    """Empty, full, single-point and edge-touching masks included."""
    member = np.array(mask, dtype=bool)
    cands = start + step * np.arange(member.size)
    got = PredictionSet(cands, member).intervals()
    assert got == oracles.intervals_loop(cands, member)
    assert all(type(v) is float for interval in got for v in interval)
