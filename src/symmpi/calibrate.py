"""Thresholds and prediction sets calibrated over group orbits.

The core recipe: score the completed data, take the 1-alpha quantile of the
score over the (sampled or enumerated) group orbit, and keep candidates whose
score does not exceed it. Variants cover randomized exact-coverage sets,
Monte-Carlo thresholds, weighted non-symmetric sets, ragged branch sizes, and
the over-coverage diagnostic.

Every set keeps a candidate when the (weighted) mass of calibration scores
strictly below its own score is under 1 - alpha (``rank_member``), and no
set keeps a candidate that is not finite. The hierarchical set runs that
rule in rank form over the whole candidate grid at once
(``_hierarchical_block``). The conformal sets, those of the baselines, the graph
sets, ``hcp_first_obs_set`` and the benchmark harness, and the supervised
SymmPI set are intervals with closed-form ends (``ConformalIntervals``:
order statistics of the points where a calibration score crosses the
candidate's); in the benchmark harness, a block of unstudentized
hierarchical tests takes the total weight less the holes, the intervals
where a score is not below the candidate's own (``_hole_block``). Only
candidates within rounding of an end go through the
rank comparison. The orbit sets (``symmpi_set``, ``randomized_set`` and the
weighted ``nonsym_set``) score every candidate's orbit in one batched sweep
(``_score_blocks``). At alpha = 1 no set keeps anything.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .groups import (CosetDecomposition, GroupAction, actions_of, coset_representatives,
                     iter_actions, sample_actions)
from .transforms import branch_fits, fit_regressors

# Guard against float fuzz in level * n (e.g. 0.95 * 20 = 19.000000000000004).
_LEVEL_EPS = 1e-9


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:  # NaN fails too
        raise ValueError(f"alpha must be in [0, 1], got {alpha!r}")


def finite_quantile(values, level: float, weights=None) -> float:
    """Smallest x among ``values`` whose cumulative weight reaches ``level``.

    Unweighted inputs get equal weights 1/m. Returns +inf when the level
    exceeds the total weight (only possible for level > 1).
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("cannot take a quantile of an empty sample")
    if weights is None:
        if level > 1.0 + _LEVEL_EPS:
            return float("inf")
        k = int(np.ceil(level * v.size - _LEVEL_EPS))
        k = min(max(k, 1), v.size)
        return float(np.partition(v, k - 1)[k - 1])
    w = np.asarray(weights, dtype=float).ravel()
    if w.shape != v.shape:
        raise ValueError("weights must match values")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    order = np.argsort(v, kind="stable")
    cum = np.cumsum(w[order])
    idx = np.searchsorted(cum, level - _LEVEL_EPS, side="left")
    if idx >= v.size:
        if level <= cum[-1] + _LEVEL_EPS:
            return float(v[order[-1]])
        return float("inf")
    return float(v[order[idx]])


@dataclass(frozen=True)
class Threshold:
    """A group-quantile threshold with its CDF bookkeeping at the threshold."""

    value: float
    cdf_at_t: float
    cdf_left: float
    jump: float
    delta: float


def threshold_from_scores(scores, alpha: float, weights=None) -> Threshold:
    """Threshold plus CDF left limit, jump, and tie-breaking probability."""
    _check_alpha(alpha)
    s = np.asarray(scores, dtype=float).ravel()
    level = 1.0 - alpha
    t = finite_quantile(s, level, weights)
    if weights is None:
        w = np.full(s.size, 1.0 / s.size)
    else:
        w = np.asarray(weights, dtype=float).ravel()
        w = w / w.sum()
    cdf = float(np.sum(w[s <= t]))
    cdf_left = float(np.sum(w[s < t]))
    jump = cdf - cdf_left
    if jump <= 0.0:
        delta = 0.0
    else:
        delta = (level - cdf_left) / jump
        delta = min(max(delta, 0.0), 1.0)
    return Threshold(value=t, cdf_at_t=cdf, cdf_left=cdf_left, jump=jump, delta=delta)


# Floats of acted data that the orbit sweep builds at once: it bounds the
# sweep's working memory whatever the group order and candidate count. glibc
# trims the heap top once twice the largest freed block lies free there; at
# 2^16 the draws and image arrays of a Monte-Carlo set nearly made up that
# much, so whether each set re-faulted ~100 pages hung on unrelated
# allocations.
_BLOCK_FLOATS = 1 << 17


def _orbit_actions(group: GroupAction, shape, cosets, mode, mc_draws, rng):
    """The orbit's group elements as batched actions (see ``groups.iter_actions``)."""
    batch = max(1, _BLOCK_FLOATS // math.prod(shape))
    if mode == "exact":
        if cosets is not None:
            return actions_of(group, cosets.representatives, shape)
        return iter_actions(group, shape, batch)
    if mode == "mc":
        if mc_draws is None or mc_draws < 1:
            raise ValueError("Monte-Carlo mode needs mc_draws >= 1")
        if rng is None:
            raise ValueError("Monte-Carlo mode needs an rng")
        return sample_actions(group, shape, mc_draws, rng, batch)
    raise ValueError(f"unknown mode {mode!r}")


def _score_blocks(points, psi, actions):
    """psi over the orbit of every point, in blocks of about ``_BLOCK_FLOATS``
    acted floats at most: yields (first row, (rows, B) scores)."""
    G, n = points.shape[0], math.prod(points.shape[1:])
    for elements, act in actions:
        B = len(elements)
        step = max(1, _BLOCK_FLOATS // (B * n))
        for lo in range(0, G, step):
            # a copy, so that no view of psi's output keeps the acted block alive
            scores = np.array(psi(act(points[lo : lo + step])), dtype=float)
            yield lo, scores.reshape(-1, B)


def orbit_scores(
    z_tilde,
    psi,
    group: GroupAction,
    *,
    cosets: CosetDecomposition | None = None,
    mode: str = "exact",
    mc_draws: int | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Values of psi over the orbit of z_tilde.

    Exact mode enumerates coset representatives when given (the quantile only
    depends on them), else the full group; it requires a finite group.
    Monte-Carlo mode returns psi(z_tilde) itself followed by ``mc_draws``
    sampled orbit values -- the point's own score is part of the sample.
    ``psi`` must be vectorized over leading axes.
    """
    z = np.asarray(z_tilde, dtype=float)
    actions = _orbit_actions(group, z.shape, cosets, mode, mc_draws, rng)
    chunks = [scores[0] for _, scores in _score_blocks(z[None], psi, actions)]
    if mode == "mc":
        chunks.insert(0, [float(psi(z))])
    return np.concatenate(chunks)


def threshold(
    z_tilde,
    psi,
    group: GroupAction,
    alpha: float,
    *,
    cosets: CosetDecomposition | None = None,
    mode: str = "exact",
    mc_draws: int | None = None,
    rng: np.random.Generator | None = None,
) -> Threshold:
    """Group-quantile threshold for one transformed data point."""
    scores = orbit_scores(
        z_tilde, psi, group, cosets=cosets, mode=mode, mc_draws=mc_draws, rng=rng
    )
    return threshold_from_scores(scores, alpha)


# --------------------------------------------------------------------------
# Prediction sets over a candidate grid
# --------------------------------------------------------------------------


@dataclass
class PredictionSet:
    """Membership of each candidate on a grid, with interval extraction."""

    candidates: np.ndarray
    member: np.ndarray
    unbounded: bool = False
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.candidates = np.asarray(self.candidates, dtype=float)
        self.member = np.asarray(self.member, dtype=bool)
        if self.candidates.shape != self.member.shape:
            raise ValueError("candidates and member must align")
        if self.unbounded and not bool(self.member.all()):
            raise ValueError("an unbounded set must contain every candidate")

    @property
    def spacing(self) -> float:
        if self.candidates.size < 2:
            return 0.0
        return float((self.candidates[-1] - self.candidates[0]) / (self.candidates.size - 1))

    @property
    def length(self) -> float:
        """Member count times the spacing; the candidates must be uniformly spaced."""
        if self.unbounded:
            return float("inf")
        if self.candidates.size > 2:
            # tolerance: relative to the spacing, plus rounding of the values
            tol = 1e-9 * abs(self.spacing) + 8 * np.spacing(np.abs(self.candidates).max())
            if np.abs(np.diff(self.candidates) - self.spacing).max() > tol:
                raise ValueError("length needs uniformly spaced candidates")
        return float(self.member.sum()) * self.spacing

    @property
    def edge_clipped(self) -> bool:
        """Whether a set that is not unbounded holds the first or the last
        candidate: it may go on past the grid, and its length is then a lower
        bound."""
        return not self.unbounded and bool(self.member.size) and \
            bool(self.member.flat[0] or self.member.flat[-1])

    def intervals(self) -> list[tuple[float, float]]:
        """Maximal runs of member candidates, as (low, high) candidate values."""
        edges = np.flatnonzero(np.diff(np.concatenate([[False], np.ravel(self.member), [False]])))
        cands = np.ravel(self.candidates)
        return list(zip(cands[edges[::2]].tolist(), cands[edges[1::2] - 1].tolist()))

    def covers(self, value: float) -> bool:
        """Whether ``value`` falls in one of the extracted intervals."""
        if self.unbounded:
            return True
        half = self.spacing / 2.0
        return any(lo - half <= value <= hi + half for lo, hi in self.intervals())


def _checked_candidates(candidates, alpha: float) -> np.ndarray:
    """The candidates as an array, once they and alpha are checked."""
    _check_alpha(alpha)
    cands = np.asarray(candidates, dtype=float)
    if cands.size == 0:
        raise ValueError("candidate grid is empty")
    return cands


def candidate_grid(values, n_points: int = 2001, pad_sd: float = 4.0) -> np.ndarray:
    """Uniform grid of ``n_points`` >= 2 over the data range widened by
    ``pad_sd`` sample SDs."""
    v = np.asarray(values, dtype=float).reshape(1, -1)
    return _candidate_rows(v, n_points, pad_sd)[0]


def _candidate_rows(values, n_points: int, pad_sd: float) -> np.ndarray:
    """``candidate_grid`` of each row of ``values`` (B, n), as (B, n_points),
    in ``np.std`` and ``np.linspace``'s arithmetic."""
    if n_points < 2:
        raise ValueError(f"a candidate grid needs at least 2 points, got {n_points}")
    n = values.shape[1]
    mean = values.sum(axis=1, keepdims=True) / n
    dev = values - mean
    sd = np.sqrt((dev * dev).sum(axis=1) / n)
    if not (sd > 0).all():
        sd = np.where(sd > 0, sd, np.maximum(np.abs(mean[:, 0]), 1.0) * 1e-3)
    lo = values.min(axis=1) - pad_sd * sd
    hi = values.max(axis=1) + pad_sd * sd
    grid = np.arange(n_points) * ((hi - lo) / (n_points - 1))[:, None] + lo[:, None]
    grid[:, -1] = hi
    return grid


def _tie_delta(below: int, ties: int, m: int, level: float) -> float:
    """``Threshold.delta`` for an own score that is the threshold, with
    ``below`` of the m equally weighted orbit scores under it and ``ties``
    equal to it, in ``threshold_from_scores``' arithmetic."""
    w = np.full(below + ties, 1.0 / m)
    cdf_left = float(np.sum(w[:below]))
    jump = float(np.sum(w)) - cdf_left
    return min(max((level - cdf_left) / jump, 0.0), 1.0)


def _completed_points(observed, cands, embed, V) -> np.ndarray:
    """V(embed(observed, c)) of every candidate c, stacked: (G, *shape).
    ``embed`` and ``V`` take one data point, so they are called per candidate."""
    return np.stack([np.asarray(V(embed(observed, c)), dtype=float) for c in cands])


def _orbit_set(observed, candidates, embed, V, psi, group, alpha, u_prime,
               cosets, mode, mc_draws, rng) -> PredictionSet:
    """The orbit-quantile set of every candidate from one sweep of the orbit.

    The candidates' completed points are stacked, and the group elements (or
    the draws, shared by all candidates) act on all of them block by block.
    Each candidate keeps two counts: orbit scores strictly below its own
    score, and scores equal to it. With m orbit scores and
    k = ceil((1 - alpha) m), a candidate is kept when fewer than k lie below
    it. With ``u_prime`` (the randomized set) it is kept when fewer than k
    lie at or below it, or when its score is the threshold and
    u_prime < delta.
    """
    cands = _checked_candidates(candidates, alpha)
    points = _completed_points(observed, cands, embed, V)
    own = np.array([float(psi(z)) for z in points])
    below = np.zeros(own.size, dtype=np.int64)
    ties = np.zeros(own.size, dtype=np.int64)
    m = 0
    actions = _orbit_actions(group, points.shape[1:], cosets, mode, mc_draws, rng)
    for lo, scores in _score_blocks(points, psi, actions):
        hi = lo + scores.shape[0]
        below[lo:hi] += (scores < own[lo:hi, None]).sum(axis=1)
        ties[lo:hi] += (scores == own[lo:hi, None]).sum(axis=1)
        if lo == 0:
            m += scores.shape[1]
    if mode == "mc":  # the point's own score is part of the sample
        ties += 1
        m += 1
    level = 1.0 - alpha
    k = min(int(np.ceil(level * m - _LEVEL_EPS)), m)  # 0 at alpha = 1: nothing is kept
    if u_prime is None:
        member = below <= k - 1
    else:
        member = below + ties <= k - 1
        deltas: dict[tuple[int, int], float] = {}
        for i in np.flatnonzero(~member & (below <= k - 1)):
            key = (int(below[i]), int(ties[i]))
            if key not in deltas:
                deltas[key] = _tie_delta(*key, m, level)
            member[i] = u_prime < deltas[key]
    member &= ~np.isnan(own)
    return PredictionSet(cands, member, unbounded=bool(member.all()),
                         meta={"mode": mode, "orbit_size": m})


def symmpi_set(
    observed,
    candidates,
    embed,
    V,
    psi,
    group: GroupAction,
    alpha: float,
    *,
    cosets: CosetDecomposition | None = None,
    mode: str = "exact",
    mc_draws: int | None = None,
    rng: np.random.Generator | None = None,
) -> PredictionSet:
    """Keep each candidate whose completed-data score is within its orbit quantile.

    ``embed(observed, candidate)`` must rebuild the full data point; ``V``
    maps it to score space and ``psi`` to a scalar. ``psi`` must be
    vectorized over leading axes: given an (..., *shape) array of points it
    returns their (...) scores. The orbit is enumerated once per set
    (``mode='exact'``, over ``cosets`` when given) or sampled once per set
    (``mode='mc'``: ``mc_draws`` draws from ``rng`` that every candidate
    shares; each candidate keeps its marginal validity). ``meta`` records
    the mode and the orbit sample size m (``orbit_size``).
    """
    return _orbit_set(observed, candidates, embed, V, psi, group, alpha, None,
                      cosets, mode, mc_draws, rng)


def randomized_set(
    observed,
    candidates,
    embed,
    V,
    psi,
    group: GroupAction,
    alpha: float,
    u_prime: float,
    *,
    cosets: CosetDecomposition | None = None,
    mode: str = "exact",
    mc_draws: int | None = None,
    rng: np.random.Generator | None = None,
) -> PredictionSet:
    """Randomized variant with exact coverage: ties at the threshold are kept
    only when the shared uniform draw ``u_prime`` falls below the tie mass.
    Arguments as for ``symmpi_set``; given a generator seeded as
    ``symmpi_set``'s, it sees the same draws and its set is a subset."""
    return _orbit_set(observed, candidates, embed, V, psi, group, alpha, u_prime,
                      cosets, mode, mc_draws, rng)


@dataclass(frozen=True)
class WeightSpec:
    """Coset representatives with sampling weights for the non-symmetric set."""

    representatives: list
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).ravel()
        if len(self.representatives) != w.size:
            raise ValueError("one weight per representative")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to one")
        object.__setattr__(self, "weights", w)


def nonsym_set(
    observed,
    candidates,
    embed,
    V,
    psi,
    spec: WeightSpec,
    group: GroupAction,
    alpha: float,
    rng: np.random.Generator,
) -> PredictionSet:
    """Weighted prediction set that stays valid without equivariance of V.

    One representative g is drawn from the weight distribution; each candidate
    is kept when its g-aligned score is within the weighted quantile of the
    representative scores of the realigned data. The realigned points
    V(g^-1 . z) of all candidates are stacked and every representative acts
    on them in one sweep, as in ``symmpi_set``; the rule runs in rank form
    (``rank_member``) on the weight of representative scores strictly below
    each candidate's own. ``meta['drawn_rep']`` is the index of g.
    """
    cands = _checked_candidates(candidates, alpha)
    reps, weights = spec.representatives, spec.weights
    g_idx = int(rng.choice(len(reps), p=weights))
    g = reps[g_idx]
    g_inv = group.inverse(g)
    points = _completed_points(observed, cands, embed, lambda z: V(group.act(g_inv, z)))
    shape = points.shape[1:]
    own = np.concatenate([s[:, 0] for _, s in
                          _score_blocks(points, psi, actions_of(group, [g], shape))])
    below = np.zeros(own.size)
    col = 0
    for lo, scores in _score_blocks(points, psi, actions_of(group, reps, shape)):
        if lo == 0:
            first, col = col, col + scores.shape[1]
        hi = lo + scores.shape[0]
        below[lo:hi] += (scores < own[lo:hi, None]) @ weights[first:col]
    member = rank_member(below, alpha) & ~np.isnan(own)
    return PredictionSet(cands, member, unbounded=bool(member.all()), meta={"drawn_rep": g_idx})


# --------------------------------------------------------------------------
# Rank-form candidate sweep: hierarchical and conformal sets
# --------------------------------------------------------------------------


def rank_member(below, alpha: float) -> np.ndarray:
    """The quantile rule in rank form, for every candidate at once.

    ``below`` is the (weighted) mass of calibration scores strictly below
    each candidate's own score, out of a total of one that includes the
    candidate. A candidate is kept when that mass is under 1 - alpha, which
    is the same as its score being at most the self-inclusive 1 - alpha
    quantile; at alpha = 1 nothing is kept.
    """
    _check_alpha(alpha)
    return np.asarray(below) < (1.0 - alpha) - _LEVEL_EPS


def _finite_set(cands, member_of, meta=None) -> PredictionSet:
    """The set whose members among the finite candidates are
    ``member_of(finite candidates)``: a candidate that is not finite is never
    a member."""
    finite = np.isfinite(cands)
    member = np.zeros(cands.shape, dtype=bool)
    if finite.any():
        member[finite] = member_of(cands[finite])
    return PredictionSet(cands, member, unbounded=bool(member.all()), meta=meta or {})


def _rank_set(cands, below, alpha: float, meta=None) -> PredictionSet:
    """The set of the candidates whose below-own mass, ``below(finite
    candidates)``, ``rank_member`` keeps."""
    return _finite_set(cands, lambda finite: rank_member(below(finite), alpha), meta)


def _count_within(sorted_vals, center, radius) -> np.ndarray:
    """How many values fall strictly inside (center - radius, center + radius).

    ``center`` and ``radius`` broadcast to the candidates' shape; values are
    sorted ascending.
    """
    hi = np.searchsorted(sorted_vals, center + radius, side="left")
    lo = np.searchsorted(sorted_vals, center - radius, side="right")
    return np.maximum(hi - lo, 0)


def _weighted_pool(values, weights):
    """Each row of ``values`` (B, N) sorted, with the cumulative weights of its
    first 0..N sorted entries (B, N + 1); ``weights`` (N,) go with the columns.
    Entries set to +inf never count below or within a finite query."""
    order = np.argsort(values, axis=1, kind="stable")
    cum = np.zeros((values.shape[0], values.shape[1] + 1))
    np.cumsum(weights[order], axis=1, out=cum[:, 1:])
    return np.take_along_axis(values, order, axis=1), cum


def _mass_below(pool, cum, own) -> np.ndarray:
    """Weight of each row's pooled values strictly below ``own`` (B, G): one
    search per row."""
    return np.stack([c[np.searchsorted(p, o, side="left")] for p, c, o in zip(pool, cum, own)])


def _mass_within(pool, cum, center, radius) -> np.ndarray:
    """Weight of each row's pooled values strictly within ``radius`` of
    ``center`` (both (B, G)). Every branch in a pool shares the center and the
    radius, so their counts are all of one sign and the pooled difference
    clipped at zero adds up the per-branch ``_count_within`` counts."""
    out = np.stack([c[np.searchsorted(p, m + r, side="left")]
                    - c[np.searchsorted(p, m - r, side="right")]
                    for p, c, m, r in zip(pool, cum, center, radius)])
    return np.maximum(out, 0.0)


def _rows_below(cal_rows, own) -> np.ndarray:
    """Below-own mass of a self-inclusive conformal set whose G candidates
    each bring their own calibration scores, rows of ``cal_rows`` (G, m);
    each of the m + 1 pooled scores weighs the same."""
    cal = np.asarray(cal_rows, dtype=float)
    return (cal < np.asarray(own, dtype=float)[:, None]).sum(axis=1) / (cal.shape[-1] + 1)


# --------------------------------------------------------------------------
# Conformal sets as intervals
# --------------------------------------------------------------------------

# Relative width within which rounding may decide a comparison of a candidate
# with an end of its set, against the magnitude of the candidate and the data
# (rounding errors are near 1e-15 of it): such candidates, and every
# candidate of a test without closed-form ends, are decided by the rank
# comparison.
_ENDS_ROUNDING = 2.0**-30


def _rank_counts(n: int, alphas) -> np.ndarray:
    """K at each alpha: among n equally weighted pooled scores, ``rank_member``
    keeps a candidate exactly when fewer than K calibration scores lie
    strictly below its own (K = 0 keeps nothing, K = n everything)."""
    fractions = np.arange(n + 1) / n
    return np.array([np.count_nonzero(rank_member(fractions, a)) for a in alphas])


@dataclass
class ConformalIntervals:
    """Conformal sets of B tests at A alphas, each an interval [low, high] of
    candidates, with the rank comparison kept for candidates at its ends.

    Each calibration score lies strictly below a candidate's own exactly when
    the candidate falls outside an interval [lo_i, hi_i], and a test's
    intervals share a point. A candidate is kept while the mass of the
    intervals it falls outside stays under 1 - alpha, so the set runs from a
    (weighted) order statistic of the lo_i, counted from the top, to one of
    the hi_i: with equal weights, the K-th largest lo_i and the K-th
    smallest hi_i (``_rank_counts``). An empty set has low = inf and
    high = -inf.

    ``below(points, rows)`` is the rank form: the below-own mass of the
    (B', P) ``points`` of the tests ``rows``, in the arithmetic of the
    per-candidate sweep. A candidate c within _ENDS_ROUNDING * (scale + |c|)
    of an end, a candidate that is not finite, and every candidate of a
    ``ranked`` test (one without closed-form ends, or one whose weighted
    order statistic lies within rounding of 1 - alpha), is decided by it, so
    memberships are the rank form's bit for bit.
    """

    low: np.ndarray  # (B, A)
    high: np.ndarray  # (B, A)
    alphas: tuple
    scale: np.ndarray  # (B, 1): magnitude of the test's data
    ranked: np.ndarray  # (B,) bool
    below: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def member(self, candidates, rows=None) -> np.ndarray:
        """Membership (A, B', G) of the candidates (B', G) of the tests
        ``rows`` (default: all B)."""
        cands = np.asarray(candidates, dtype=float)
        sel = slice(None) if rows is None else np.asarray(rows)
        low, high = self.low[sel].T[:, :, None], self.high[sel].T[:, :, None]
        member = (cands >= low) & (cands <= high)
        tol = _ENDS_ROUNDING * (self.scale[sel] + np.abs(cands))
        near = (np.abs(cands - low) <= tol) | (np.abs(cands - high) <= tol)
        near |= self.ranked[sel][:, None]
        for ai, i in zip(*np.nonzero(near.any(axis=2))):
            cols = np.flatnonzero(near[ai, i])
            b = i if rows is None else sel[i]
            member[ai, i, cols] = rank_member(self.below(cands[i, cols][None], [b])[0],
                                              self.alphas[ai])
        return member


def _intervals(lo, hi, alphas, below, scale, weights=None, ranked=False) -> ConformalIntervals:
    """The sets of B tests whose calibration score i lies below a candidate's
    own exactly outside [lo[:, i], hi[:, i]] (B, N). ``weights`` (N,) weigh
    the scores; without them each of the N + 1 pooled scores weighs the same.
    ``below``, ``scale`` and ``ranked`` as in ``ConformalIntervals``."""
    alphas = tuple(alphas)
    B, N = hi.shape
    # non-finite data give ends of no use
    ranked = np.isnan(lo).any(axis=1) | np.isnan(hi).any(axis=1) | ranked
    if weights is None:
        K = _rank_counts(N + 1, alphas)
        empty = K == 0
    else:
        for a in alphas:
            _check_alpha(a)
        level = np.array([(1.0 - a) - _LEVEL_EPS for a in alphas])
        empty = level <= 0
        # sums of the weights in another order may round to the other side
        margin = 4 * N * np.finfo(float).eps
    ends = []
    for e in (hi, -lo):
        if weights is None:
            srt = np.sort(e, axis=1)
            idx = np.maximum(K - 1, 0)
        else:
            order = np.argsort(e, axis=1)
            srt = np.take_along_axis(e, order, axis=1)
            cum = np.cumsum(weights[order], axis=1)[:, :, None]
            idx = (cum < level).sum(axis=1)
            ranked = ranked | (np.abs(cum - level) <= margin).any(axis=(1, 2))
        # one past the last order statistic, everything is kept
        end = np.concatenate([srt, np.full((B, 1), np.inf)], axis=1)
        end = end[:, idx] if weights is None else np.take_along_axis(end, idx, axis=1)
        ends.append(np.where(empty, -np.inf, end) if empty.any() else end)
    return ConformalIntervals(-ends[1], ends[0], alphas, scale, ranked, below)


def centered_intervals(values, alphas, total=None, n: int | None = None,
                       weights=None) -> ConformalIntervals:
    """Conformal sets on the scores |v - center|, center = (total + c) / n
    moving with the candidate c: by default the mean of the m values of each
    row of ``values`` (B, m) and the candidate, and each of the m + 1 pooled
    scores weighs the same; ``weights`` (m,) weigh the values instead, and
    the candidate's own score carries no mass below itself.

    Value v's score lies below the candidate's exactly when
    n (c - v)((n - 2) c - (2 total - n v)) > 0, that is outside [v, w] (or
    [w, v]) with w = (2 total - n v) / (n - 2); every such interval holds
    total / (n - 1), whose own score is zero. At n = 2 the scores tie
    whatever the candidate, and the rank comparison decides every candidate.
    """
    vals = np.asarray(values, dtype=float)
    B, m = vals.shape
    total = vals.sum(axis=1, keepdims=True) if total is None else total
    n = m + 1 if n is None else n
    pooled = np.ones(m) if weights is None else weights

    def below(points, rows):
        center = (total[rows] + points) / n
        mass = _mass_within(*_weighted_pool(vals[rows], pooled), center, np.abs(points - center))
        return mass / (m + 1) if weights is None else mass

    w = (2 * total - n * vals) / (n - 2) if n > 2 else vals
    return _intervals(np.minimum(vals, w), np.maximum(vals, w), alphas, below,
                      np.abs(vals).max(axis=1, keepdims=True, initial=0.0), weights,
                      np.full(B, n <= 2))


def score_intervals(scores, alphas, center=None) -> ConformalIntervals:
    """Conformal sets on fixed calibration scores, rows of ``scores`` (B, m),
    against each candidate's own score |c - center| (``center`` (B, 1)), or
    the candidate c itself without a center; each of the m + 1 pooled scores
    weighs the same. The set is center -+ the K-th smallest score, or runs up
    to that score."""
    d = np.asarray(scores, dtype=float)
    m = d.shape[1]

    def below(points, rows):
        own = points if center is None else np.abs(points - center[rows])
        return _mass_below(*_weighted_pool(d[rows], np.ones(m)), own) / (m + 1)

    scale = np.abs(d).max(axis=1, keepdims=True, initial=0.0)
    if center is None:
        return _intervals(np.full(d.shape, -np.inf), d, alphas, below, scale)
    return _intervals(center - d, center + d, alphas, below, np.abs(center) + scale)


def _interval_set(intervals: ConformalIntervals, cands, meta=None) -> PredictionSet:
    """The set of one test at one alpha over candidates of any shape."""
    return _finite_set(cands, lambda finite: intervals.member(finite[None])[0, 0], meta)


def _size_groups(values, sizes):
    """Yields each branch size n, its branches' indices ks and their values
    (B, len(ks), n) from the rows of ``values`` (B, N), C-contiguous: numpy
    sums a contiguous last axis pairwise, as it sums one branch."""
    starts = np.cumsum(sizes) - sizes
    for n in sorted(set(sizes.tolist())):
        ks = np.flatnonzero(sizes == n)
        yield n, ks, np.take(values, starts[ks, None] + np.arange(n), axis=1)


def _branch_stats(values, sizes):
    """Means and SDs (B, D) of the D branches laid end to end in each row of
    ``values`` (B, N), with ``values.mean()`` and ``values.std(ddof=1)``'s
    arithmetic on each branch; the SD is 1 for one value or zero spread."""
    mean = np.empty((values.shape[0], sizes.size))
    sd = np.ones(mean.shape)
    for n, ks, vals in _size_groups(values, sizes):
        m = vals.sum(axis=-1) / n
        mean[:, ks] = m
        if n > 1:
            dev = vals - m[..., None]
            s = np.sqrt((dev * dev).sum(axis=-1) / (n - 1))
            sd[:, ks] = np.where(s > 0, s, 1.0)
    return mean, sd


def hierarchical_below(observed_branches, candidates, c: float = 2.0, studentize: bool = True):
    """Branch-weighted below-own mass of the adaptive-centering scores.

    ``observed_branches`` holds the complete donor branches, then the target
    branch's observed values; each candidate completes the target branch.
    Scores are those of ``hierarchical_unsup_transform``, and of
    ``oracles.adaptive_scores`` (the tests' per-candidate form, ragged sizes
    included): the branch SD gates the centering choice, and divides the
    scores only when ``studentize``. Each of branch k's points weighs
    1/(K n_k), so equal sizes give the flat pool.

    This is ``_hierarchical_block`` for one test, the rank form the
    benchmark harness runs on a lone test (``_hierarchical_members``).
    """
    cands = np.asarray(candidates, dtype=float)
    branches = [np.asarray(b, dtype=float).ravel() for b in observed_branches]
    donors = branches[:-1]
    if any(b.size == 0 for b in donors):
        raise ValueError("every branch must be nonempty")
    sizes = np.array([b.size for b in donors], dtype=np.intp)
    flat = np.concatenate(donors)[None] if donors else np.empty((1, 0))
    below = _hierarchical_block(flat, sizes, branches[-1][None], cands.reshape(1, -1), c,
                                studentize)
    return below.reshape(cands.shape)


def _target_sd(target, t_sum, cands, mean_t):
    """The target branch's SD with each candidate, (B, G): 1 for one value
    or zero spread."""
    n_o = target.shape[1]
    if not n_o:
        return np.ones(cands.shape)
    # the observed part's sum of squares, updated with the candidate
    m_o = t_sum / n_o
    q_o = ((target - m_o) ** 2).sum(axis=1, keepdims=True)
    ssq_t = q_o + n_o * (m_o - mean_t) ** 2 + (cands - mean_t) ** 2
    sd_t = np.sqrt(ssq_t / n_o)
    return np.where(sd_t > 0, sd_t, 1.0)


def _target_frame(target, cands, donor_sum, K, c):
    """The target branch with each candidate, all (B, G): its mean and SD,
    the grand mean, and whether the target is centered there. ``donor_sum``
    (B, 1) adds up the donor means."""
    n_t = target.shape[1] + 1
    t_sum = target.sum(axis=1, keepdims=True)
    mean_t = (t_sum + cands) / n_t
    sd_t = _target_sd(target, t_sum, cands, mean_t)
    grand = (donor_sum + mean_t) / K
    return mean_t, sd_t, grand, np.abs(mean_t - grand) <= c * sd_t / np.sqrt(n_t)


def _target_block(target, cands, donor_sum, K, c, studentize):
    """The target branch's part of ``_hierarchical_block``: each candidate's
    grand mean, its own score, and the mass of the observed target scores
    below it, all (B, G). ``donor_sum`` (B, 1) adds up the donor means."""
    n_o = target.shape[1]
    n_t = n_o + 1
    mean_t, sd_t, grand, near_t = _target_frame(target, cands, donor_sum, K, c)
    center_t = np.where(near_t, grand, mean_t)
    own = np.abs(cands - center_t)
    if studentize:
        own /= sd_t
    siblings = np.zeros(cands.shape, dtype=np.uint8 if n_o < 256 else np.intp)
    for i in range(n_o):
        s = np.abs(target[:, i:i + 1] - center_t)
        if studentize:
            s /= sd_t
        siblings += (s < own).view(np.uint8)
    return grand, own, siblings * (1.0 / (K * n_t))


def _donor_frame(donors, sizes):
    """The donor means and SDs (B, D) and their sum (B, 1), added left to
    right as Python's sum adds them (0.0 without donors)."""
    means, sds = _branch_stats(donors, sizes)
    return means, sds, np.cumsum(means, axis=1)[:, -1:] if sizes.size else 0.0


def _hierarchical_members(donors, sizes, target, cands, c, studentize, alphas,
                          n_grid: int) -> np.ndarray:
    """Membership (A, B, G) of the candidates of ``_hierarchical_block``'s B
    tests in their sets at each of the A ``alphas``, as the rank form decides
    it, for candidates in the harness layout (``_locator``). Without
    ``studentize`` the masses of two tests or more are the holes', and a mass
    within rounding of a level is ranked; a lone test, as in
    ``hierarchical_below``, is ranked whole: alone it would pay the hole
    form's fixed cost of about 100 numpy calls (1.1 ms against the rank
    form's 0.7 on a K = 20 random-size test)."""
    if studentize or len(cands) == 1:
        below = _hierarchical_block(donors, sizes, target, cands, c, studentize)
        return np.stack([rank_member(below, a) for a in alphas])
    below, exact = _hole_block(donors, sizes, target, cands, c, n_grid)
    member = np.stack([rank_member(below, a) for a in alphas])
    # bounds the rounding of the hole masses' sums and of the rank form's
    N = donors.shape[1] + target.shape[1] + sizes.size
    margin = 16 * (cands.shape[1] + 8 * N) * np.finfo(float).eps
    levels = [(1.0 - a) - _LEVEL_EPS for a in alphas]
    if (sizes == target.shape[1] + 1).all():
        # equal weights w: a mass is a multiple of w, so only levels within
        # twice the margin of one can be near a mass
        w = 1.0 / (target.shape[1] + 1) / (sizes.size + 1)
        levels = [lv for lv in levels if abs(round(lv / w) * w - lv) <= 2 * margin]
    unsure, gap = np.zeros(below.shape, dtype=bool), np.empty(below.shape)
    for level in levels:
        np.subtract(below, level, out=gap)
        unsure |= np.abs(gap, out=gap) <= margin
    unsure &= ~exact
    if unsure.any():
        ranked = _rank_at(donors, sizes, target, cands, unsure, c, False)
        member[:, unsure] = np.stack([rank_member(ranked, a) for a in alphas])
    return member


def _rank_at(donors, sizes, target, cands, mask, c, studentize) -> np.ndarray:
    """The rank form's masses of the candidates ``mask`` (B, G) selects, in
    the order of ``cands[mask]``. Each test's candidates go in with its
    smallest and largest, which fix the rank form's pools, so every mass has
    the bits of a whole-row ``_hierarchical_block`` call."""
    rows, cols = np.nonzero(mask)
    # rows comes sorted: each test's first entry and count
    first = np.flatnonzero(np.diff(rows, prepend=-1))
    tests, counts = rows[first], np.diff(first, append=rows.size)
    # each test's row: its smallest and largest candidate, its selected
    # ones, then its smallest again as padding
    picks = np.repeat(np.argmin(cands[tests], axis=1)[:, None], counts.max() + 2, axis=1)
    picks[:, 1] = np.argmax(cands[tests], axis=1)
    slot = np.arange(rows.size) - np.repeat(first, counts) + 2
    which = np.repeat(np.arange(tests.size), counts)
    picks[which, slot] = cols
    below = _hierarchical_block(donors[tests], sizes, target[tests],
                        np.take_along_axis(cands[tests], picks, axis=1), c, studentize)
    return below[which, slot]


def _hierarchical_block(donors, sizes, target, cands, c, studentize):
    """``hierarchical_below`` of B tests that share their branch sizes, in
    rank form: every score is compared with every candidate's own. The exact
    decision, which the hole form leaves to it where rounding could decide a
    comparison.

    ``donors`` (B, N) holds each test's donor branches end to end, branch k
    with ``sizes[k]`` values; ``target`` (B, n_t - 1) holds the target
    branch's observed values and ``cands`` (B, G) the candidates. Returns the
    (B, G) masses. Each row is computed as it would be alone.

    Only the target branch moves with the candidate, so it alone is scored
    per candidate, one observed value at a time. A donor is centered at the
    grand mean where |m_k - grand| <= c sd_k / sqrt(n_k). The grand mean is
    monotone in the candidate, so those candidates form one interval of
    grand-mean values, and the predicate at the smallest and the largest
    grand mean sorts most donors into never near and always near:

    - never-near donors have fixed scores; they share one sorted pool with
      cumulative weights 1/(K n_k), searched once per test;
    - without ``studentize``, always-near donors share a second pool of raw
      values, counted within (grand - own, grand + own);
    - every other donor is counted on its own, by a search in its fixed
      scores and an interval count where it is near: one whose choice
      switches along the grid, or, when studentized, one ever near (its
      radius own * sd_k is its own).

    The masses are added pool by pool, so they round differently from a
    branch-by-branch sum.

    A two-point branch centered at its own mean scores 1/sqrt(2) at both
    points whatever the data, so such exact ties are decided by rounding: the
    donor scores, the target SD and the target scores are computed as the
    transform computes them, and break ties the same way.
    """
    D = sizes.size
    K = D + 1
    means, sds, donor_sum = _donor_frame(donors, sizes)
    grand, own, below = _target_block(target, cands, donor_sum, K, c, studentize)
    if not D or not cands.size:
        return below

    radius = c * sds / np.sqrt(sizes)
    g_lo = grand.min(axis=1, keepdims=True)
    g_hi = grand.max(axis=1, keepdims=True)
    near_lo = np.abs(means - g_lo) <= radius
    near_hi = np.abs(means - g_hi) <= radius
    always = near_lo & near_hi
    never = ~(near_lo | near_hi) & ((means < g_lo) | (means > g_hi))
    branch = np.repeat(np.arange(D), sizes)
    weights = np.repeat(1.0 / (K * sizes), sizes)
    if never.any():
        fixed = np.abs(donors - means[:, branch])
        if studentize:
            fixed /= sds[:, branch]
        fixed[~never[:, branch]] = np.inf
        below += _mass_below(*_weighted_pool(fixed, weights), own)
    alone = ~never
    if not studentize and always.any():
        raw = np.where(always[:, branch], donors, np.inf)
        below += _mass_within(*_weighted_pool(raw, weights), grand, own)
        alone &= ~always
    starts = np.cumsum(sizes) - sizes
    for b, k in zip(*np.nonzero(alone)):
        vals = donors[b, starts[k]:starts[k] + sizes[k]]
        m_k, s_k = means[b, k], sds[b, k] if studentize else 1.0
        if always[b, k]:
            count = _count_within(np.sort(vals), grand[b], own[b] * s_k)
        else:
            near = np.abs(m_k - grand[b]) <= radius[b, k]
            count = np.searchsorted(np.sort(np.abs(vals - m_k) / s_k), own[b], side="left")
            if near.any():
                count[near] = _count_within(np.sort(vals), grand[b, near], own[b, near] * s_k)
        below[b] += count * weights[starts[k]]
    return below


def _locator(cands, n_grid):
    """Each candidate's place in its row's ascending order (B, G), and
    ``locate(e, w, side)``: for values e (B, ...) and widths w broadcasting
    to them, how many of each row's candidates lie below e + side w (side
    -1 or 1), and whether a candidate lies within 2 w of e.

    The candidates are in the harness layout: the first n_grid columns of
    each row are a uniform ascending grid (``_candidate_rows``), counted by
    arithmetic, and the rest are few. A count may be off by one within
    rounding of a candidate, which is within 2 w of e. (Sorting the
    candidates and searching them row by row took 8.8 ms per bench-table
    block of 8 tests against 2.9.)"""
    B, G = cands.shape
    lo = cands[:, :1]
    step = (cands[:, n_grid - 1:n_grid] - lo) / (n_grid - 1)
    # the extras in grid steps, and how many grid points lie below each
    extra = (cands[:, n_grid:] - lo) / step
    under = np.clip(np.ceil(extra), 0, n_grid).astype(np.intp)
    index = np.arange(n_grid)
    # a grid point follows the extras below it; an extra, the grid points
    # below it and the extras before it in ascending order
    place = np.empty((B, G), dtype=np.intp)
    place[:, :n_grid] = index
    for u in under.T:
        place[:, :n_grid] += index >= u[:, None]
    place[:, n_grid:] = under + np.argsort(np.argsort(extra, axis=1, kind="stable"), axis=1)

    def locate(e, w, side):
        shape = (B,) + (1,) * (e.ndim - 1)
        u = (e - lo.reshape(shape)) / step.reshape(shape)
        reach = w / step.reshape(shape)
        v = u + side * reach
        n = np.clip(np.ceil(v), 0, n_grid)
        # the grid point nearest e + side w on e's side, and the extras
        near = np.abs(n - (side + 1) / 2 - u) <= 2 * reach
        n = n.astype(np.intp)
        for x in extra.T:
            x = x.reshape(shape)
            n += x < v
            near |= np.abs(x - u) <= 2 * reach
        return n, near

    return place, locate


def _hole_block(donors, sizes, target, cands, c, n_grid: int):
    """Unstudentized ``_hierarchical_block`` from the holes of every score:
    the (B, G) masses, and the mask of the candidates whose mass the rank
    form computed (``_rank_at``).

    The target branch is centered at the grand mean or at its own mean,
    decided per candidate in the rank form's arithmetic. In either state the
    center moves linearly with the candidate c, slope 1/(K n_t) or 1/n_t, and
    so does a donor's where it is centered at the grand mean, which holds for
    c in one interval [kl, kh] (the grand mean is linear in c). Every score is
    then |linear in c| on each piece, and with two observed target values or
    more the candidate's own score has the larger slope, so a score is not
    below the candidate's own exactly on one closed interval of c per piece,
    its hole. A donor value's hole where it is centered at its mean, H, and
    at the grand mean, H', count as H - (H ^ [kl, kh]) + (H' ^ [kl, kh]).
    A candidate's mass is the total weight less that of the holes holding it:
    one ``bincount`` of +-weight at the holes' places and one cumulative sum
    over each test's candidates in ascending order, per target state.

    The rank form decides every candidate within ``_ENDS_ROUNDING`` of the
    magnitudes of a hole's end or of kl or kh (within that width of the grand
    mean, for kl and kh), and every candidate of a test with fewer than two
    observed target values (own and sibling scores then tie, or the own score
    does not move), or with data that are not finite or are beyond 2^500.
    Non-finite candidates take whatever mass the arithmetic gives them.
    The candidates are in ``_locator``'s layout, a uniform grid of
    ``n_grid`` points then extras.
    """
    B, G = cands.shape
    scale = np.abs(np.concatenate([donors, target], axis=1)).max(axis=1, initial=0.0)
    exact = np.repeat((~(scale <= 2.0**500) | (target.shape[1] < 2))[:, None], G, axis=1)
    live = np.flatnonzero(~exact[:, 0])
    if live.size == B:
        exact, below = _hole_masses(donors, sizes, target, cands, c, scale[:, None], n_grid)
    else:
        below = np.empty((B, G))
        if live.size:
            exact[live], below[live] = _hole_masses(donors[live], sizes, target[live],
                                                    cands[live], c, scale[live, None], n_grid)
    if exact.any():
        below[exact] = _rank_at(donors, sizes, target, cands, exact, c, False)
    return below, exact


def _hole_masses(donors, sizes, target, cands, c, scale, n_grid):
    """``_hole_block`` of tests whose holes all exist: the mask of the
    candidates within rounding of an end, and the masses of the others."""
    B, G = cands.shape
    D, n_o = sizes.size, target.shape[1]
    K, n_t = D + 1, n_o + 1
    means, sds, donor_sum = _donor_frame(donors, sizes)
    place, locate = _locator(cands, n_grid)
    # every candidate's rounding reaches no farther than this
    reach = scale + np.abs(cands).max(axis=1, keepdims=True)
    near_t = _target_near(target, cands, donor_sum, K, c, reach)
    # the target's center cb + cs c in each state, near then far (B, 2, 1),
    # and the states some candidate of each test is in
    g1 = 1.0 / (K * n_t)
    t_mean = target.sum(axis=1, keepdims=True) / n_t
    g0 = (donor_sum + t_mean) / K
    cb = np.stack([g0, t_mean], axis=1)
    cs = np.array([[g1], [1.0 / n_t]])
    a = 1.0 - cs  # the own score's slope
    state = np.stack([near_t.any(axis=1), (~near_t).any(axis=1)], axis=1)[:, :, None]
    # each donor's [kl, kh], where it is centered at the grand mean, in places
    radius = c * sds / np.sqrt(sizes)
    k_ends = np.stack([(means - radius - g0) / g1, (means + radius - g0) / g1], axis=1)
    wk = _ENDS_ROUNDING * ((scale + radius) * (K * n_t) + reach)[:, None]
    # counted from the first candidate within the width below kl to the last
    # within it above kh
    sides = np.array([-1, 1])[:, None]
    k_span, near_k = locate(k_ends, wk, sides)
    k_lo, k_hi = k_span[:, 0], k_span[:, 1]
    never, always = k_lo >= k_hi, (k_lo == 0) & (k_hi == G)
    # the holes that count: a donor value's own-mean hole unless its donor
    # is always near, its grand-mean hole unless it is never near (kept as
    # columns where that holds in some test), and every sibling's, each in
    # the states some candidate is in; their ends (B, 2, M) in each state
    branch = np.repeat(np.arange(D), sizes)
    far = np.flatnonzero(~always.all(axis=0)[branch])
    near = np.flatnonzero(~never.all(axis=0)[branch])
    d = np.abs(donors[:, far] - means[:, branch[far]])[:, None, :]
    v, t, g = donors[:, None, near], target[:, None, :], g0[:, :, None]
    x1 = np.concatenate([(cb - d) / a, (v - g + cb) / (a + g1), np.broadcast_to(t, (B, 2, n_o))],
                        axis=2)
    x2 = np.concatenate([(cb + d) / a, (cb - v + g) / (a - g1), (2 * cb - t) / (1 - 2 * cs)],
                        axis=2)
    w = _ENDS_ROUNDING * reach[:, :, None, None]
    ends = np.empty((B, 2) + x1.shape[1:])
    np.minimum(x1, x2, out=ends[:, 0])
    np.maximum(x1, x2, out=ends[:, 1])
    span, near_ends = locate(ends, w, sides[:, :, None])
    lo, hi = span[:, 0], span[:, 1]
    k_first = np.concatenate([np.zeros((B, far.size), np.intp), k_lo[:, branch[near]],
                              np.zeros((B, n_o), np.intp)], axis=1)[:, None]
    k_stop = np.concatenate([np.full((B, far.size), G), k_hi[:, branch[near]],
                             np.full((B, n_o), G)], axis=1)[:, None]
    used = state & np.concatenate([~always[:, branch[far]], ~never[:, branch[near]],
                                   np.ones((B, n_o), dtype=bool)], axis=1)[:, None]
    inside = _zone_mask([(ends, w, near_ends & used[:, None]), (k_ends, wk, near_k)], place,
                        locate)
    # each hole adds its weight from its first place to its last: +w at the
    # first and -w one past the last, in its test's and state's row of G + 1;
    # a donor value's own-mean hole where its donor is near is taken back
    w_donor = np.repeat(1.0 / (K * sizes), sizes)
    weights = np.concatenate([w_donor[far], w_donor[near], np.full(n_o, 1.0 / (K * n_t))])
    m = far.size
    pieces = [(np.maximum(lo, k_first), np.minimum(hi, k_stop), used, weights),
              (np.maximum(lo[:, :, :m], k_lo[:, None, branch[far]]),
               np.minimum(hi[:, :, :m], k_hi[:, None, branch[far]]),
               used[:, :, :m] & ~never[:, None, branch[far]], -w_donor[far])]
    # one row of G + 1 per test and state that some candidate is in
    rows = np.cumsum(state.ravel()).reshape(B, 2, 1) - 1
    base = rows * (G + 1)
    index, weight = [], []
    for start, stop, keep, w in pieces:
        keep = keep & (start < stop)
        index += [(base + start)[keep], (base + stop)[keep]]
        w = np.broadcast_to(w, keep.shape)[keep]
        weight += [w, -w]
    n_rows = int(rows.max()) + 1
    # without any entry bincount returns integers
    held = np.bincount(np.concatenate(index), np.concatenate(weight),
                       minlength=n_rows * (G + 1)).astype(float, copy=False)
    np.cumsum(held.reshape(n_rows, G + 1), axis=1, out=held.reshape(n_rows, G + 1))
    # each candidate's place in the row of its test and state
    place += base[:, 1]
    np.subtract(place, (base[:, 1] - base[:, 0]), out=place, where=near_t)
    masses = np.take(held, place)
    return inside, np.subtract((D + n_o / n_t) / K, masses, out=masses)


def _target_near(target, cands, donor_sum, K, c, reach):
    """``_target_frame``'s choice (B, G) to center the target branch at the
    grand mean, from the sign of one quadratic.

    With m_o the observed target mean, q_o its sum of squares and
    y = c - m_o, the target is near where (mean_t - grand)^2 <= c^2 sd_t^2 / n_t,
    that is where qa y^2 + qb y + qc <= 0 with qa = u1^2 - c^2 / n_t^2,
    qb = 2 u1 d0 and qc = d0^2 - c^2 q_o / (n_o n_t) (u1 = (K - 1) / (K n_t),
    d0 = ((K - 1) m_o - donor_sum) / K). Where the quadratic lies within a
    bound of the rounding of both forms of zero, ``_target_frame`` decides.
    The bound is 2^-40 (1 + |c|)^2 A^2 (1 + n_t A / (n_o sd_min)), A =
    ``reach`` (B, 1) the magnitude of the data and candidates, sd_min =
    sqrt(q_o / n_o) the smallest target SD: over 16 times the sum of the
    first-order rounding of the rank form's comparison (its SD is computed
    from a sum of squares) and of the quadratic. A target of equal observed
    values (sd_min = 0) is decided by ``_target_frame`` throughout.
    """
    n_o = target.shape[1]
    n_t = n_o + 1
    m_o = target.sum(axis=1, keepdims=True) / n_o
    q_o = ((target - m_o) ** 2).sum(axis=1, keepdims=True)
    u1 = (K - 1) / (K * n_t)
    d0 = ((K - 1) * m_o - donor_sum) / K
    y = np.subtract(cands, m_o)
    q = np.multiply(u1**2 - c**2 / n_t**2, y)
    q += 2 * u1 * d0
    q *= y
    q += d0**2 - c**2 * q_o / (n_o * n_t)
    sd_min = np.sqrt(q_o / n_o)
    ratio = np.divide(n_t * reach, n_o * sd_min, out=np.full(reach.shape, np.inf),
                      where=sd_min > 0)
    bound = 2.0**-40 * (1 + abs(c)) ** 2 * reach**2 * (1 + ratio)
    near = q <= 0
    rows, cols = np.nonzero(np.abs(q, out=q) <= bound)
    if rows.size:
        s = donor_sum[rows] if np.ndim(donor_sum) else donor_sum
        near[rows, cols] = _target_frame(target[rows], cands[rows, cols, None], s, K, c)[3][:, 0]
    return near


def _zone_mask(zones, place, locate) -> np.ndarray:
    """Mask (B, G) of the candidates within 2 w of an end e: each of
    ``zones`` is (e, w, near), ends (B, ...) of B tests, their widths and the
    ends to take, with ``_locator``'s ``locate``."""
    B, G = place.shape
    inside = np.zeros((B, G), dtype=bool)
    zones = [(e, w, near) for e, w, near in zones if near.any()]
    for e, w, near in zones:
        w = np.broadcast_to(w, e.shape)
        first, stop = (locate(e, 2 * w, side)[0][near] for side in (-1, 1))
        for b, f, s in zip(np.nonzero(near)[0], first, stop):
            inside[b, f:s] = True
    return np.take(inside, place + G * np.arange(B)[:, None]) if zones else inside


def supervised_below(donor_residuals, target_residuals, candidate_residuals,
                     studentize: bool = True) -> np.ndarray:
    """Branch-weighted below-own mass of the supervised adaptive residual scores.

    ``donor_residuals`` holds each complete branch's |y - center|,
    ``target_residuals`` the target branch's observed ones and
    ``candidate_residuals`` each candidate's. With ``studentize`` a branch's
    scores are divided by its RMS residual (denominator n - 1, the candidate
    included for the target branch), else raw magnitudes are compared. Each of
    branch k's points weighs 1/(K n_k).

    This is ``_supervised_block`` for one test, on per-branch lists: the core
    that ``supervised_hierarchical_set`` and the benchmark harness run.
    """
    donors = [np.asarray(r, dtype=float).ravel() for r in donor_residuals]
    target = np.asarray(target_residuals, dtype=float).ravel()
    sizes = np.array([r.size for r in donors] + [target.size + 1], dtype=np.intp)
    cands = np.asarray(candidate_residuals, dtype=float)
    below = _supervised_block(np.concatenate(donors + [target])[None], sizes,
                              cands.reshape(1, -1), studentize)
    return below.reshape(cands.shape)


def _supervised_block(residuals, sizes, raw_cand, studentize):
    """``supervised_below`` of B tests that share branch sizes, on flat rows.

    Each row of ``residuals`` (B, N - 1) holds a test's |y - center| of
    every branch end to end, branch k with ``sizes[k]`` values, except the
    target branch's last one, which each of the test's candidate residuals
    in ``raw_cand`` (B, G) fills. Returns the (B, G) masses. A test's donor
    scores share one sorted pool with cumulative weights 1/(K n_k), searched
    once; the target's observed scores are searched on their own.
    """
    K, m_K = sizes.size, int(sizes[-1])
    donors, raw_last, weights = _donor_scores(residuals, sizes, studentize)
    # Within the target branch any shared scale cancels, so the sibling
    # comparison is on raw residual magnitudes in both modes.
    below_target = np.stack([np.searchsorted(r, c, side="left")
                             for r, c in zip(np.sort(raw_last, axis=1), raw_cand)])
    if studentize and m_K > 1:
        ssq = np.sum(raw_last**2, axis=1, keepdims=True)
        eps_cand = np.sqrt((ssq + raw_cand**2) / (m_K - 1))
        own = raw_cand / np.where(eps_cand > 0, eps_cand, 1.0)
    else:
        own = raw_cand
    return below_target / (K * m_K) + _mass_below(*_weighted_pool(donors, weights), own)


def _donor_scores(residuals, sizes, studentize):
    """The donor scores (B, N - m_K) of ``_supervised_block``'s rows, each
    branch's residuals divided by its RMS residual when ``studentize``, the
    target's observed residuals (B, m_K - 1) and the donor weights 1/(K n_k)."""
    donor_sizes = sizes[:-1]
    n_donor = int(donor_sizes.sum())
    donors, raw_last = residuals[:, :n_donor], residuals[:, n_donor:]
    if studentize:
        scale = np.ones((residuals.shape[0], donor_sizes.size))
        for n, ks, vals in _size_groups(donors, donor_sizes):
            if n > 1:
                eps = np.sqrt((vals**2).sum(axis=-1) / (n - 1))
                scale[:, ks] = np.where(eps > 0, eps, 1.0)
        donors = donors / np.repeat(scale, donor_sizes, axis=1)
    weights = np.repeat(1.0 / (sizes.size * np.maximum(donor_sizes, 1)), donor_sizes)
    return donors, raw_last, weights


def _supervised_intervals(residuals, sizes, center, alphas, studentize) -> ConformalIntervals:
    """``_supervised_block``'s sets of B tests as intervals: the candidate c
    has the raw residual r = |c - center| (``center`` (B, 1)).

    Every score the candidate's own is compared with is fixed, and its own
    score, r or, studentized, r / sqrt((ssq + r^2) / (m_K - 1)) with ssq the
    target's observed residuals' sum of squares, never falls as r grows. So
    a score lies below the candidate's own exactly when r passes a jump, and
    each set is center -+ one jump: a sibling's jump is its raw residual, a
    donor's its score d, or studentized d sqrt(ssq / ((m_K - 1) - d^2)),
    never passed when d^2 >= m_K - 1. The weights are 1/(K n_k). A test
    with a donor whose d^2 lies within 2^-20 of m_K - 1 (its jump is
    ill-conditioned) is ranked; ``_supervised_block`` is the rank form.
    """
    K, m_K = sizes.size, int(sizes[-1])
    donors, raw_last, weights = _donor_scores(residuals, sizes, studentize)
    ranked = np.zeros(residuals.shape[0], dtype=bool)
    jump = donors
    if studentize and m_K > 1:
        ssq = np.sum(raw_last**2, axis=1, keepdims=True)
        gap = (m_K - 1) - donors**2
        ranked = (np.abs(gap) <= 2.0**-20 * (m_K - 1)).any(axis=1)
        jump = np.full(donors.shape, np.inf)
        passed = gap > 0
        jump[passed] = (donors * np.sqrt(ssq / np.where(passed, gap, 1.0)))[passed]
    jumps = np.concatenate([jump, raw_last], axis=1)

    def below(points, rows):
        return _supervised_block(residuals[rows], sizes, np.abs(points - center[rows]),
                                 studentize)

    finite = np.where(np.isfinite(jumps), np.abs(jumps), 0.0)
    scale = np.abs(center) + np.maximum(finite.max(axis=1, keepdims=True, initial=0.0),
                                        np.abs(residuals).max(axis=1, keepdims=True, initial=0.0))
    return _intervals(center - jumps, center + jumps, alphas, below, scale,
                      np.concatenate([weights, np.full(m_K - 1, 1.0 / (K * m_K))]), ranked)


def _split_branches(sizes):
    """The supervised split of branches laid end to end, branch k with
    ``sizes[k]`` rows: its first ceil(n_k / 2) rows train the regressors and
    the rest calibrate. Returns the mask of training rows and the training
    and calibration sizes."""
    sizes = np.asarray(sizes, dtype=np.intp)
    n_train = (sizes + 1) // 2
    ends = np.cumsum(sizes)
    return np.arange(ends[-1]) < np.repeat(ends - sizes + n_train, sizes), n_train, sizes - n_train


def _adaptive_centers(reg, x, sizes, c: float):
    """Pooled fits and centers (B, N) at the rows x (B, N, d) of B tests,
    each test's branches end to end, branch k with ``sizes[k]`` rows: the
    pooled fit where the branch fit lies within c confidence bands of it,
    else the branch fit (one ``transforms.branch_fits`` pass)."""
    mu_p, mu_b, sig = branch_fits(reg, x, sizes)
    return mu_p, np.where(np.abs(mu_b - mu_p) / sig <= c, mu_p, mu_b)


def symmpi_set_randomsize(
    observed_branches, candidates, alpha: float, c: float = 2.0
) -> PredictionSet:
    """Prediction set for the last entry of the last branch under ragged sizes.

    ``observed_branches`` holds K branches where the last one misses its final
    observation; each candidate completes it and is kept when its
    adaptive-centering score is within the branch-weighted quantile, in rank
    form through ``hierarchical_below`` (the per-candidate form is
    ``oracles.adaptive_scores`` in the tests). Equal sizes give the
    block-permutation set.
    """
    cands = _checked_candidates(candidates, alpha)
    return _rank_set(cands, lambda finite: hierarchical_below(observed_branches, finite, c), alpha)


def supervised_hierarchical_set(
    train_x,
    train_y,
    cal_x,
    cal_y,
    x_new,
    candidates,
    alpha: float,
    c: float = 2.0,
) -> PredictionSet:
    """Prediction set for the response at ``x_new`` in the last branch.

    Regressors are fit on the training lists (pooled plus per-branch
    corrections); each candidate response completes the calibration data,
    whose adaptive residual scores are scaled per branch by the RMS residual
    (candidate included for its own branch) and compared against the
    branch-weighted score quantile. Ragged branch sizes are allowed, but
    every donor branch needs a calibration value: an empty one would carry
    its weight 1/K and no score, so the set could not reach 1 - alpha.
    """
    cands = _checked_candidates(candidates, alpha)
    cal_x = [np.asarray(v, dtype=float) for v in cal_x]
    cal_y = [np.asarray(v, dtype=float).ravel() for v in cal_y]
    if [len(x) for x in cal_x] != [y.size for y in cal_y]:
        raise ValueError("each calibration branch needs one x row per y value")
    if any(y.size == 0 for y in cal_y[:-1]):
        raise ValueError("every donor branch needs a calibration value")
    reg = fit_regressors(train_x, train_y)
    x_new = np.asarray(x_new, dtype=float).reshape((1,) + cal_x[-1].shape[1:])
    cal_x[-1] = np.concatenate([cal_x[-1], x_new])
    sizes = np.array([len(v) for v in cal_x], dtype=np.intp)
    x = np.concatenate(cal_x)
    _, centers = _adaptive_centers(reg, x.reshape(1, len(x), -1), sizes, c)
    intervals = _supervised_intervals(np.abs(np.concatenate(cal_y) - centers[:, :-1]), sizes,
                                      centers[:, -1:], (alpha,), True)
    return _interval_set(intervals, cands)


def hcp_first_obs_set(complete_branches, candidates, alpha: float) -> PredictionSet:
    """Prediction set for the first observation of a brand-new branch.

    Scores are plain absolute deviations from the average of branch means
    (always-pool centering, unit scale), where the candidate counts as a
    branch of its own: it enters the average of means and carries weight 1/K
    in the quantile. The set is an interval (``centered_intervals`` with
    weights 1/(K n_k)). The benchmark's ``hcp`` method (``sim._hcp_intervals``)
    differs: it leaves the candidate out of both.
    """
    cands = _checked_candidates(candidates, alpha)
    branches = [np.asarray(b, dtype=float).ravel() for b in complete_branches]
    if any(b.size == 0 for b in branches):
        raise ValueError("every complete branch must be nonempty")
    K = len(branches) + 1
    sizes = np.array([b.size for b in branches])
    total = np.full((1, 1), sum(b.mean() for b in branches))
    # the candidate's own branch adds nothing: its score is not below itself
    intervals = centered_intervals(np.concatenate(branches)[None], (alpha,), total, K,
                                   np.repeat(1.0 / (K * sizes), sizes))
    return _interval_set(intervals, cands)


# --------------------------------------------------------------------------
# Diagnostics
# --------------------------------------------------------------------------


def overcoverage_bound(group: GroupAction, psi, z_tilde, probes=None) -> float:
    """|H|/|G| where H fixes psi on the probe set (default: ``z_tilde`` alone),
    counted by ``coset_representatives``; bounds coverage slack."""
    probes = [z_tilde] if probes is None else probes
    return coset_representatives(group, psi, probes).subgroup_size / group.order()


def estimate_shift_gap(samples_a, samples_b, nu=None, bins: int = 64) -> float:
    """Empirical total-variation distance between two score samples.

    A diagnostic, not a certified bound: discrete supports are matched
    exactly, continuous ones through a shared histogram.
    """
    if nu is not None:
        a = np.asarray([float(nu(x)) for x in samples_a])
        b = np.asarray([float(nu(x)) for x in samples_b])
    else:
        a = np.asarray(samples_a, dtype=float).ravel()
        b = np.asarray(samples_b, dtype=float).ravel()
    support = np.unique(np.concatenate([a, b]))
    if support.size <= bins:
        pa = np.array([np.mean(a == s) for s in support])
        pb = np.array([np.mean(b == s) for s in support])
        return 0.5 * float(np.abs(pa - pb).sum())
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    edges = np.linspace(lo, hi, bins + 1)
    pa, _ = np.histogram(a, bins=edges)
    pb, _ = np.histogram(b, bins=edges)
    return 0.5 * float(np.abs(pa / a.size - pb / b.size).sum())
