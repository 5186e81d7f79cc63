"""Thresholds and prediction sets calibrated over group orbits.

The core recipe: score the completed data, take the 1-alpha quantile of the
score over the (sampled or enumerated) group orbit, and keep candidates whose
score does not exceed it. Variants cover randomized exact-coverage sets,
Monte-Carlo thresholds, weighted non-symmetric sets, rotation sets, ragged
branch sizes, and the over-coverage diagnostic.

Every set keeps a candidate when the (weighted) mass of calibration scores
strictly below its own score is under 1 - alpha (``rank_member``), and is
assembled from its finite candidates by ``_finite_set``, so no set keeps a
candidate that is not finite. The hierarchical set runs that rule in rank
form over the whole candidate grid at once (``_hierarchical_block``). The
conformal sets, those of the baselines, the graph sets,
``hcp_first_obs_set`` and the benchmark harness, and the supervised SymmPI
set are intervals with closed-form ends (``ConformalIntervals``: order
statistics of the points where a calibration score crosses the
candidate's); the harness counts a block of unstudentized hierarchical
tests from the holes where a score is not below the candidate's own
(``symmpi.holes``). Only candidates within rounding of an end go through
the rank comparison; for the centered scores it sets each |v - center|
against the candidate's own as computed. The orbit sets (``symmpi_set``,
``randomized_set`` and the weighted ``nonsym_set``) count each candidate's
orbit scores below its own in one batched sweep (``_orbit_counts``), and the
unweighted ones cut at ``rank_member``'s count (``_rank_count``), as the
interval sets and the Monte-Carlo rotation sets (``rotation_region`` and
its kin) do; ``randomized_set`` also counts the ties, whose share comes from
the one ``Threshold`` constructor (``_threshold_at``). At alpha = 1 no set
keeps anything.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .groups import (CosetDecomposition, GroupAction, _haar_matrices, _listed_actions,
                     actions_of, coset_representatives, sample_actions)
from .transforms import _fit_block, _training_rows, branch_fits

# Guard against float fuzz in level * n (e.g. 0.95 * 20 = 19.000000000000004).
_LEVEL_EPS = 1e-9


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:  # NaN fails too
        raise ValueError(f"alpha must be in [0, 1], got {alpha!r}")


def _check_c(c: float) -> None:
    """The centering threshold c of the hierarchical scores: a branch is
    centered at the grand mean within c of its standard errors, so c is a
    nonnegative number (infinite centers every branch there)."""
    if not c >= 0:  # NaN fails too
        raise ValueError(f"c must be nonnegative, got {c!r}")


def _check_draws(mc_draws) -> None:
    if not isinstance(mc_draws, numbers.Integral) or mc_draws < 1:
        raise ValueError(f"mc_draws must be a positive integer, got {mc_draws!r}")


def finite_quantile(values, level: float, weights=None) -> float:
    """Smallest x among ``values`` whose cumulative weight reaches ``level``.

    Unweighted inputs get equal weights 1/m, and the quantile is the K-th
    smallest value, K being the count of the sets' rank rule
    (``_count_under``: at level = 1 - alpha, ``_rank_count(m, alpha)``), or
    the smallest value when K = 0. Returns +inf when the level exceeds the
    total weight (only possible for level > 1). Weights without a positive
    total raise ``ValueError``.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("cannot take a quantile of an empty sample")
    if weights is None:
        if level > 1.0 + _LEVEL_EPS:
            return float("inf")
        k = min(max(_count_under(v.size, level - _LEVEL_EPS), 1), v.size)
        return float(np.partition(v, k - 1)[k - 1])
    w = np.asarray(weights, dtype=float).ravel()
    if w.shape != v.shape:
        raise ValueError("weights must match values")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    if not w.sum() > 0:
        raise ValueError("weights must have a positive total")
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
    """Threshold plus CDF left limit, jump, and tie-breaking probability.
    Weights without a positive total raise ``ValueError``."""
    _check_alpha(alpha)
    s = np.asarray(scores, dtype=float).ravel()
    level = 1.0 - alpha
    t = finite_quantile(s, level, weights)
    w = np.ones(s.size) if weights is None else np.asarray(weights, dtype=float).ravel()
    w = w / w.sum()
    return _threshold_at(t, float(np.sum(w[s < t])), float(np.sum(w[s <= t])), level)


def _threshold_at(value: float, below: float, at_or_below: float, level: float) -> Threshold:
    """The ``Threshold`` at ``value``, from the score masses strictly below it
    and at or below it: ``delta`` is the share of the mass at it that brings
    ``below`` up to ``level``. The one constructor of a ``Threshold``."""
    jump = at_or_below - below
    delta = min(max((level - below) / jump, 0.0), 1.0) if jump > 0.0 else 0.0
    return Threshold(value=value, cdf_at_t=at_or_below, cdf_left=below, jump=jump, delta=delta)


# Floats of acted data that the orbit sweep builds at once: it bounds the
# sweep's working memory whatever the group order and candidate count. glibc
# trims the heap top once twice the largest freed block lies free there; at
# 2^16 the draw arrays of a Monte-Carlo set (its inverse images, and then
# their argsort too) nearly made up that much, so whether each set re-faulted
# ~100 pages hung on unrelated allocations.
_BLOCK_FLOATS = 1 << 17


def _point_floats(shape) -> int:
    """The floats of one point of ``shape``; an empty point raises
    ``ValueError``, as no orbit of it can be scored."""
    n = math.prod(shape)
    if n == 0:
        raise ValueError(f"cannot score the orbit of an empty point (shape {tuple(shape)})")
    return n


def _orbit_actions(group: GroupAction, shape, cosets, mode, mc_draws, rng):
    """The orbit's group elements as batched actions (see ``groups.iter_actions``).

    A whole group's listed images act unpaired, as their inverses: the sweep
    reads only how many elements a batch holds."""
    batch = max(1, _BLOCK_FLOATS // _point_floats(shape))
    if mode == "exact":
        if cosets is not None:
            return actions_of(group, cosets.representatives, shape)
        return _listed_actions(group, shape, batch, paired=False)
    if mode == "mc":
        _check_draws(mc_draws)
        if rng is None:
            raise ValueError("Monte-Carlo mode needs an rng")
        return sample_actions(group, shape, mc_draws, rng, batch)
    raise ValueError(f"unknown mode {mode!r}")


def _score_blocks(points, psi, actions):
    """psi over the orbit of every point, in blocks of about ``_BLOCK_FLOATS``
    acted floats at most: yields (first row, (rows, B) scores). Of each
    batch's elements only their number B is read."""
    G, n = points.shape[0], _point_floats(points.shape[1:])
    for elements, act in actions:
        B = len(elements)
        step = max(1, _BLOCK_FLOATS // (B * n))
        for lo in range(0, G, step):
            # a copy, so that no view of psi's output keeps the acted block alive
            scores = np.array(psi(act(points[lo : lo + step])), dtype=float)
            yield lo, scores.reshape(-1, B)


def _orbit_counts(points, psi, own, actions, weights=None, ties=False):
    """Each point's orbit scores against its own ``own``, in one sweep of
    ``_score_blocks``: (below, tied, m). ``below`` counts the scores strictly
    below the point's own, or sums their ``weights`` (one per element, in the
    order of ``actions``); ``tied`` counts those equal to it when ``ties`` is
    set, else is None; m is the number of elements."""
    below = np.zeros(own.size, dtype=np.int64 if weights is None else float)
    tied = np.zeros(own.size, dtype=np.int64) if ties else None
    m = 0
    for lo, scores in _score_blocks(points, psi, actions):
        hi = lo + scores.shape[0]
        if lo == 0:  # a new batch: its elements are the columns first..m
            first, m = m, m + scores.shape[1]
        lower = scores < own[lo:hi, None]
        below[lo:hi] += lower.sum(axis=1) if weights is None else lower @ weights[first:m]
        if ties:
            tied[lo:hi] += (scores == own[lo:hi, None]).sum(axis=1)
    return below, tied, m


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
    depends on them), in their order, else the full group, in an unspecified
    order; it requires a finite group.
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
    ``pad_sd`` sample SDs; ``values`` must be non-empty and finite."""
    v = np.asarray(values, dtype=float).reshape(1, -1)
    if v.size == 0:
        raise ValueError("a candidate grid needs at least one data value")
    if not np.isfinite(v).all():
        raise ValueError("a candidate grid needs finite data values, got NaN or inf")
    return _candidate_rows(v, n_points, pad_sd)[0]


def _candidate_rows(values, n_points: int, pad_sd: float, extra: int = 0) -> np.ndarray:
    """``candidate_grid`` of each row of ``values`` (B, n), in ``np.std`` and
    ``np.linspace``'s arithmetic: the first n_points columns of a
    (B, n_points + extra) array, whose last ``extra`` columns are left
    unset."""
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
    grid = np.empty((values.shape[0], n_points + extra))
    np.multiply(np.arange(n_points), ((hi - lo) / (n_points - 1))[:, None], out=grid[:, :n_points])
    grid[:, :n_points] += lo[:, None]
    grid[:, n_points - 1] = hi
    return grid


def _completed_points(observed, cands, embed, V) -> np.ndarray:
    """V(embed(observed, c)) of every candidate c, stacked: (G, *shape).

    ``embed`` takes one candidate, a Python float, so it is called per
    candidate, and its points are gathered by one ``np.array`` call, which
    raises on ragged shapes; V is called on stacks of the embedded points of
    at most about ``_BLOCK_FLOATS`` floats, and must return one row per
    stacked point."""
    embedded = np.array([embed(observed, c) for c in cands.tolist()])
    step = max(1, _BLOCK_FLOATS // _point_floats(embedded.shape[1:]))
    blocks = []
    for lo in range(0, len(embedded), step):
        stack = embedded[lo : lo + step]
        out = np.asarray(V(stack), dtype=float)
        if out.ndim == 0 or out.shape[0] != stack.shape[0]:
            raise ValueError(
                f"V returned shape {out.shape} for a stack of {stack.shape[0]} points: "
                "V must be vectorized over leading axes, one output row per point")
        blocks.append(out)
    return np.concatenate(blocks)


def _orbit_set(observed, candidates, embed, V, psi, group, alpha, u_prime,
               cosets, mode, mc_draws, rng) -> PredictionSet:
    """The orbit-quantile set of every candidate from one sweep of the orbit.

    The finite candidates' completed points are stacked, and the group
    elements (or the draws, shared by all candidates) act on all of them
    block by block (``_orbit_counts``). A candidate is kept when fewer than K
    of the m orbit scores lie strictly below its own (K of ``_rank_count``);
    with ``u_prime`` (the randomized set), when fewer than K lie at or below
    it, or when its score is the threshold and u_prime is under its
    ``Threshold.delta``. Only the randomized set counts the tied scores.
    """
    cands = _checked_candidates(candidates, alpha)
    meta = {"mode": mode}

    def member_of(finite):
        points = _completed_points(observed, finite, embed, V)
        own = np.asarray(psi(points), dtype=float)
        if own.shape != points.shape[:1]:
            raise ValueError(f"psi returned shape {own.shape} for {points.shape[0]} points: "
                             "psi must be vectorized over leading axes, one score per point")
        actions = _orbit_actions(group, points.shape[1:], cosets, mode, mc_draws, rng)
        below, ties, m = _orbit_counts(points, psi, own, actions, ties=u_prime is not None)
        drawn_own = mode == "mc"  # the point's own score is part of the sample
        m += drawn_own
        meta["orbit_size"] = m
        K = _rank_count(m, alpha)
        member = below < K
        if u_prime is not None:
            ties += drawn_own
            tied = member & (below + ties >= K)
            for b, t in set(zip(below[tied].tolist(), ties[tied].tolist())):
                # its own score is the threshold, whose Threshold needs only the counts
                ranks = np.repeat([0.0, 1.0, 2.0], [b, t, m - b - t])
                delta = threshold_from_scores(ranks, alpha).delta
                member[tied & (below == b) & (ties == t)] = u_prime < delta
        return member & ~np.isnan(own)

    return _finite_set(cands, member_of, meta)


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

    ``embed(observed, candidate)`` must rebuild the full data point from one
    candidate; ``V`` maps it to score space and ``psi`` to a scalar. ``V``
    and ``psi`` must be vectorized over leading axes: ``embed``'s points of
    all candidates are stacked and ``V`` is called on the (G, *shape) stack,
    ``V(stack)[i]`` being ``V(stack[i])``; given an (..., *shape) array of
    points ``psi`` returns their (...) scores. The orbit is enumerated once
    per set (``mode='exact'``, over ``cosets`` when given) or sampled once
    per set (``mode='mc'``: ``mc_draws`` draws from ``rng`` that every
    candidate shares; each candidate keeps its marginal validity). ``meta``
    records the mode and the orbit sample size m (``orbit_size``). Only the
    finite candidates are embedded and can be members: a grid with none
    gives the empty set, draws nothing and has no ``orbit_size``.
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
    only when the shared uniform draw ``u_prime`` falls below the tie mass
    (``Threshold.delta``). Arguments as for ``symmpi_set``; given a generator
    seeded as ``symmpi_set``'s, it sees the same draws and its set is a
    subset."""
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
    representative scores of the realigned data. g^-1 acts on each
    candidate's completed point z, and ``V`` maps the stack of all of them to
    the realigned points V(g^-1 . z) in one call: like ``psi`` it must be
    vectorized over leading axes, ``V(stack)[i]`` being ``V(stack[i])``, as
    in ``symmpi_set``. Every representative acts on the stack in one sweep;
    the rule runs in rank form (``rank_member``) on the weight of
    representative scores strictly below each candidate's own.
    ``meta['drawn_rep']`` is the index of g.
    """
    cands = _checked_candidates(candidates, alpha)
    reps, weights = spec.representatives, spec.weights
    g_idx = int(rng.choice(len(reps), p=weights))
    g = reps[g_idx]
    g_inv = group.inverse(g)

    def member_of(finite):
        points = _completed_points(observed, finite,
                                   lambda o, c: group.act(g_inv, embed(o, c)), V)
        shape = points.shape[1:]
        own = np.concatenate([s[:, 0] for _, s in
                              _score_blocks(points, psi, actions_of(group, [g], shape))])
        below, _, _ = _orbit_counts(points, psi, own, actions_of(group, reps, shape), weights)
        return rank_member(below, alpha) & ~np.isnan(own)

    return _finite_set(cands, member_of, {"drawn_rep": g_idx})


# --------------------------------------------------------------------------
# Rotation sets: Monte-Carlo orbits under joint permutation and rotation
# --------------------------------------------------------------------------


def _rotation_points(observed, *more) -> np.ndarray:
    """The observed points of a rotation set as an (n, p) float array, p >= 1;
    raises ``ValueError`` for another shape, or if they or ``more`` are not finite."""
    z = np.asarray(observed, dtype=float)
    if z.ndim != 2 or z.shape[1] == 0:
        raise ValueError("the observed points of a rotation set must be an (n, p) array "
                         f"with p >= 1, got shape {z.shape}")
    if not all(np.isfinite(d).all() for d in (z, *more)):
        raise ValueError("the observed data of a rotation set must be finite, got NaN or inf")
    return z


def _rotation_draws(observed, mc_draws: int, rng: np.random.Generator):
    """The Monte-Carlo orbit draws of the rotation score -|first coordinate|
    over n observed points and one held-out point: each draw picks one of
    the n + 1 points and a uniform direction (a rotated vector's first
    coordinate is its projection on it in law). Returns the observed points
    (``_rotation_points``), the scores of the draws that picked one of them,
    and the directions of those that picked the held-out one, (draws, p)."""
    _check_draws(mc_draws)
    z = _rotation_points(observed)
    n, p = z.shape
    idx = rng.integers(0, n + 1, mc_draws)
    W = rng.standard_normal((mc_draws, p))
    Wn = W / np.linalg.norm(W, axis=1, keepdims=True)
    fixed_mask = idx < n
    fixed_scores = -np.abs(np.einsum("mp,mp->m", Wn[fixed_mask], z[idx[fixed_mask]]))
    return z, fixed_scores, Wn[~fixed_mask]


def _draws_member(own, fixed, drawn, alpha: float) -> np.ndarray:
    """The Monte-Carlo orbit sets' cut: a candidate is kept when fewer than
    ``_rank_count(F + D + 1, alpha)`` of the F draws at observed points
    (``fixed``, (F,)) and its D at the held-out point (a row of ``drawn``,
    (C, D)) score strictly below its own (``own``, (C,), in the sample)."""
    below = (fixed[None, :] < own[:, None]).sum(axis=1) + (drawn < own[:, None]).sum(axis=1)
    return below < _rank_count(fixed.size + drawn.shape[1] + 1, alpha)


def rotation_region(observed, alpha: float, mc_draws: int = 400,
                    rng: np.random.Generator | None = None,
                    grid_points: int = 2001) -> PredictionSet:
    """Region for the next point keeping |first coordinate| large.

    The score is -|z_1| of the held-out point; its orbit under joint
    permutation and rotation is sampled via uniform index draws and Gaussian
    projections (a rotated vector's first coordinate matches w.z/||w|| in
    law). Away from the first axis the kept region is the complement of a
    vertical strip |z_1| < C, so the grid scans candidates (x, h, 0, ...)
    at the observed RMS transverse height h (candidates x when p = 1);
    points very close to the axis itself are always covered (their own
    score is their orbit minimum). The boundary C is in
    ``meta['strip_halfwidth']``. The grid needs ``grid_points`` >= 2,
    ``mc_draws`` is a positive integer and the observed points are n >= 1
    finite rows of p >= 1 coordinates.
    """
    if grid_points < 2:
        raise ValueError(f"a candidate grid needs at least 2 points, got {grid_points}")
    rng = rng or np.random.default_rng()
    z, fixed_scores, w_cand = _rotation_draws(observed, mc_draws, rng)
    if not len(z):
        raise ValueError("rotation_region needs at least one observed point")
    p = z.shape[1]

    height = float(np.sqrt(np.mean(z[:, 1:] ** 2))) if p > 1 else 0.0
    radius = float(np.abs(z).max()) * 1.5 + 1.0
    grid = np.linspace(-radius, radius, grid_points)
    # candidate draw scores at the representative point (x, h, 0, ...)
    trans = w_cand[:, 1] * height if p > 1 else 0.0
    ps = _finite_set(grid, lambda x: _draws_member(
        -np.abs(x), fixed_scores, -np.abs(w_cand[:, 0][None, :] * x[:, None] + trans), alpha))
    kept = np.abs(grid[ps.member])
    strip = float(kept.min()) if kept.size and not ps.unbounded else 0.0
    ps.meta.update(strip_halfwidth=strip, mc_draws=mc_draws, transverse_height=height)
    return ps


def rotation_region_covers(observed, test_points, alpha: float, mc_draws: int = 400,
                           rng: np.random.Generator | None = None) -> np.ndarray:
    """Membership of each fresh point in its own completed-data region; a
    point with a coordinate that is not finite is never covered. The observed
    points must be finite rows of p >= 1 coordinates."""
    rng = rng or np.random.default_rng()
    tp = np.atleast_2d(np.asarray(test_points, dtype=float))
    _, fixed_scores, w_cand = _rotation_draws(observed, mc_draws, rng)
    finite = np.isfinite(tp).all(axis=1)
    member = np.zeros(finite.shape, dtype=bool)
    tp = tp[finite]
    member[finite] = _draws_member(-np.abs(tp[:, 0]), fixed_scores, -np.abs(tp @ w_cand.T),
                                   alpha)
    return member


def rotation_supervised_set(x, y, x_new, score, candidates, alpha: float, mc_draws: int = 400,
                            rng: np.random.Generator | None = None) -> PredictionSet:
    """Supervised set under joint permutation-rotation invariance of features.

    Each of ``mc_draws`` draws picks one of the n observed points or the
    held-out one, and a Haar rotation of its features; each candidate's own
    score uses the unrotated ``x_new``. ``score(y_values, x_points)`` is
    called on stacks of rows, possibly none, and must be row-wise:
    ``score(y, x)[i]`` equals ``score(y[i:i+1], x[i:i+1])[0]``. ``x`` must
    be n rows of p >= 1 features, with n values ``y`` and p features
    ``x_new``, all finite; a candidate that is not finite is never a member.
    """
    _check_draws(mc_draws)
    cands = _checked_candidates(candidates, alpha)
    rng = rng or np.random.default_rng()
    y = np.asarray(y, dtype=float).ravel()
    x_new = np.asarray(x_new, dtype=float)
    x = _rotation_points(x, y, x_new)
    n, p = x.shape
    if y.size != n or x_new.shape != (p,):
        raise ValueError(f"x of shape {x.shape} needs {n} y values and x_new of shape ({p},), "
                         f"got {y.size} and {x_new.shape}")
    idx = rng.integers(0, n + 1, mc_draws)
    R = _haar_matrices(p, mc_draws, rng)
    picked = idx < n
    at = idx[picked]

    def rows(y_values, x_points):
        return np.asarray(score(y_values, x_points), dtype=float)

    fixed = rows(y[at], (R[picked] @ x[at, :, None])[..., 0])
    x_drawn = R[~picked] @ x_new

    def member_of(c):
        own = rows(c, np.tile(x_new, (c.size, 1)))
        drawn = rows(np.tile(c, len(x_drawn)), np.repeat(x_drawn, c.size, axis=0))
        return _draws_member(own, fixed, drawn.reshape(len(x_drawn), c.size).T, alpha)

    return _finite_set(cands, member_of)


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
    return np.asarray(below) < _level(alpha)


def _level(alpha: float) -> float:
    """``rank_member``'s bound, 1 - alpha less the float guard; checks alpha."""
    _check_alpha(alpha)
    return (1.0 - alpha) - _LEVEL_EPS


def _finite_set(cands, member_of, meta=None) -> PredictionSet:
    """The set whose members among the finite candidates are
    ``member_of(finite candidates)``: a candidate that is not finite is never
    a member."""
    finite = np.isfinite(cands)
    member = np.zeros(cands.shape, dtype=bool)
    if finite.any():
        member[finite] = member_of(cands[finite])
    return PredictionSet(cands, member, unbounded=bool(member.all()), meta=meta or {})


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


def _rank_count(n: int, alpha: float) -> int:
    """K: among n equally weighted pooled scores, ``rank_member`` keeps a
    candidate exactly when fewer than K calibration scores lie strictly below
    its own (K = 0 keeps nothing, K = n everything). K counts the j in 0..n
    with ``rank_member(j / n)``."""
    return _count_under(n, _level(alpha))


def _count_under(n: int, bound: float) -> int:
    """The number of j in 0..n with j / n < bound, the comparison of
    ``rank_member`` at ``bound = _level(alpha)``. A pass tests at most 1024
    of them, so n may be a group's order."""
    lo, hi = 0, n + 1  # j / n < bound for every j < lo and no j >= hi
    while lo < hi:
        step = -(-(hi - lo) // 1024)
        kept = int(np.count_nonzero(np.arange(lo, hi, step, float) / n < bound))
        lo, hi = lo + max(step * (kept - 1) + 1, 0), min(lo + step * kept, hi)
    return lo


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
    smallest hi_i (``_rank_count``). An empty set has low = inf and
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
    the scores, and one that is negative or NaN raises ``ValueError``;
    without them each of the N + 1 pooled scores weighs the same.
    ``below``, ``scale`` and ``ranked`` as in ``ConformalIntervals``."""
    alphas = tuple(alphas)
    B, N = hi.shape
    # non-finite data give ends of no use
    ranked = np.isnan(lo).any(axis=1) | np.isnan(hi).any(axis=1) | ranked
    if weights is None:
        K = np.array([_rank_count(N + 1, a) for a in alphas])
        empty = K == 0
    else:
        if not (weights >= 0).all():  # NaN fails too
            raise ValueError("weights must be nonnegative")
        level = np.array([_level(a) for a in alphas])
        empty = level <= 0
    ends = []
    for e in (hi, -lo):
        if weights is None:
            srt = np.sort(e, axis=1)
            idx = np.maximum(K - 1, 0)
        else:
            order = np.argsort(e, axis=1)
            srt = np.take_along_axis(e, order, axis=1)
            idx, near = _weighted_ends(np.cumsum(weights[order], axis=1), level)
            ranked = ranked | near
        # one past the last order statistic, everything is kept
        end = np.concatenate([srt, np.full((B, 1), np.inf)], axis=1)
        end = end[:, idx] if weights is None else np.take_along_axis(end, idx, axis=1)
        ends.append(np.where(empty, -np.inf, end) if empty.any() else end)
    return ConformalIntervals(-ends[1], ends[0], alphas, scale, ranked, below)


def _weighted_ends(cum, level):
    """Where each row's cumulative weights ``cum`` (B, N) reach each level
    (A,): the count idx (B, A) of sums under the level, and whether some sum
    of the row lies within rounding of some level (B,), where sums of the
    weights in another order may round to the other side. The weights are
    nonnegative, so the sums rise along a row: idx is one search per row,
    and the sums nearest a level are the two on either side of idx."""
    idx = np.empty((cum.shape[0], level.size), dtype=np.intp)
    for b, c in enumerate(cum):
        idx[b] = np.searchsorted(c, level, side="left")
    bounded = np.empty((cum.shape[0], cum.shape[1] + 2))
    bounded[:, 0], bounded[:, -1], bounded[:, 1:-1] = -np.inf, np.inf, cum
    under = np.take_along_axis(bounded, idx, axis=1)
    over = np.take_along_axis(bounded, idx + 1, axis=1)
    margin = 4 * cum.shape[1] * np.finfo(float).eps
    near = (level - under <= margin) | (over - level <= margin)
    return idx, near.any(axis=1)


def centered_intervals(values, alphas, total=None, n: int | None = None,
                       weights=None) -> ConformalIntervals:
    """Conformal sets on the scores |v - center|, center = (total + c) / n
    moving with the candidate c: by default the mean of the m values of each
    row of ``values`` (B, m) and the candidate, and each of the m + 1 pooled
    scores weighs the same; nonnegative ``weights`` (m,) weigh the values
    instead, and the candidate's own score carries no mass below itself.

    Value v's score lies below the candidate's exactly when
    n (c - v)((n - 2) c - (2 total - n v)) > 0, that is outside [v, w] (or
    [w, v]) with w = (2 total - n v) / (n - 2); every such interval holds
    total / (n - 1), whose own score is zero. At n = 2 the scores tie
    whatever the candidate, and the rank comparison decides every candidate.
    The rank comparison sets each |v - center| against |c - center| as
    computed, so a value tied with the candidate is never counted below it.
    """
    vals = np.asarray(values, dtype=float)
    B, m = vals.shape
    total = vals.sum(axis=1, keepdims=True) if total is None else total
    n = m + 1 if n is None else n

    def below(points, rows):
        center = (total[rows] + points) / n
        hit = (np.abs(vals[rows][:, None, :] - center[:, :, None])
               < np.abs(points - center)[:, :, None])
        return hit.sum(axis=2) / (m + 1) if weights is None else hit @ weights

    w = (2 * total - n * vals) / (n - 2) if n > 2 else vals
    return _intervals(np.minimum(vals, w), np.maximum(vals, w), alphas, below,
                      np.abs(vals).max(axis=1, keepdims=True, initial=0.0), weights,
                      np.full(B, n <= 2))


def score_intervals(scores, alphas, center=None, weights=None) -> ConformalIntervals:
    """Conformal sets on fixed calibration scores, rows of ``scores`` (B, m),
    against each candidate's own score |c - center| (``center`` (B, 1)), or
    the candidate c itself without a center; each of the m + 1 pooled scores
    weighs the same, or nonnegative ``weights`` (m,) weigh the scores and
    the candidate's own carries no mass below itself. The set is center -+ the
    K-th smallest score, or runs up to that score."""
    d = np.asarray(scores, dtype=float)
    m = d.shape[1]
    pooled = np.ones(m) if weights is None else weights

    def below(points, rows):
        own = points if center is None else np.abs(points - center[rows])
        mass = _mass_below(*_weighted_pool(d[rows], pooled), own)
        return mass / (m + 1) if weights is None else mass

    scale = np.abs(d).max(axis=1, keepdims=True, initial=0.0)
    if center is None:
        return _intervals(np.full(d.shape, -np.inf), d, alphas, below, scale, weights)
    return _intervals(center - d, center + d, alphas, below, np.abs(center) + scale, weights)


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
    benchmark harness runs on a lone test (``holes._hierarchical_counts``).
    """
    _check_c(c)
    values, sizes = _branch_rows(observed_branches)
    return _flat_below(values, sizes, np.asarray(candidates, dtype=float), c, studentize)


def _branch_rows(observed_branches):
    """The branches end to end and their sizes; every branch but the last
    must be nonempty."""
    branches = [np.asarray(b, dtype=float).ravel() for b in observed_branches]
    if any(b.size == 0 for b in branches[:-1]):
        raise ValueError("every branch must be nonempty")
    return np.concatenate(branches), np.array([b.size for b in branches], dtype=np.intp)


def _flat_below(values, sizes, cands, c, studentize):
    """``hierarchical_below`` on flat rows: ``values`` holds the donor
    branches end to end, branch k with ``sizes[k]`` values, then the target
    branch's ``sizes[-1]`` observed values."""
    n_donor = values.size - sizes[-1]
    below = _hierarchical_block(values[None, :n_donor], sizes[:-1], values[None, n_donor:],
                                cands.reshape(1, -1), c, studentize)
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


def _supervised_block(residuals, sizes, raw_cand, studentize):
    """Branch-weighted below-own mass of the supervised adaptive residual
    scores of B tests that share branch sizes, on flat rows: the rank form of
    ``_supervised_intervals``, which ``supervised_hierarchical_set`` and the
    benchmark harness run.

    Each row of ``residuals`` (B, N - 1) holds a test's |y - center| of
    every branch end to end, branch k with ``sizes[k]`` values, except the
    target branch's last one, which each of the test's candidate residuals
    in ``raw_cand`` (B, G) fills. With ``studentize`` a branch's scores are
    divided by its RMS residual (denominator n - 1, the candidate included
    for the target branch), else raw magnitudes are compared. Each of branch
    k's points weighs 1/(K n_k). Returns the (B, G) masses. A test's donor
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


def _fit_centers(tr_x, tr_y, n_train, cal_x, n_cal, c: float):
    """Pooled fits and adaptive centers (B, N) of B tests at their
    calibration rows ``cal_x`` (B, N, d), branch k with ``n_cal[k]`` rows,
    from one fit of their training rows ``tr_x`` (B, T, d) and ``tr_y``
    (B, T), branch k with ``n_train[k]`` rows (``transforms._fit_block``):
    the pooled fit where the branch fit lies within c confidence bands of
    it, else the branch fit (one ``transforms.branch_fits`` pass)."""
    mu_p, mu_b, sig = branch_fits(_fit_block(tr_x, tr_y, n_train), cal_x, n_cal)
    return mu_p, np.where(np.abs(mu_b - mu_p) / sig <= c, mu_p, mu_b)


def _supervised_set(tr_x, tr_y, n_train, cal_x, cal_y, n_cal, cands, alpha: float, c: float):
    """``supervised_hierarchical_set`` on flat rows, the candidates checked:
    ``tr_x`` (T, d) and ``tr_y`` (T,) hold the training rows, branch k's
    ``n_train[k]`` end to end; ``cal_x`` (N, d) the calibration rows, branch
    k's ``n_cal[k]``, the target's x last, and ``cal_y`` (N - 1,) every
    response but the target's. The fit, centers and intervals are the
    harness's (``sim._sup_block``) for one test."""
    if not n_cal[:-1].all():
        raise ValueError("every donor branch needs a calibration value")
    _, centers = _fit_centers(tr_x[None], tr_y[None], n_train, cal_x[None], n_cal, c)
    intervals = _supervised_intervals(np.abs(cal_y - centers[:, :-1]), n_cal, centers[:, -1:],
                                      (alpha,), True)
    return _interval_set(intervals, cands)


def _randomsize_set(values, sizes, cands, alpha: float, c: float) -> PredictionSet:
    """``symmpi_set_randomsize`` on flat rows, the candidates checked:
    ``values`` holds the donor branches end to end, branch k with
    ``sizes[k]`` values, then the target branch's ``sizes[-1]`` observed
    values."""
    return _finite_set(cands, lambda finite: rank_member(
        _flat_below(values, sizes, finite, c, True), alpha))


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
    _check_c(c)
    return _randomsize_set(*_branch_rows(observed_branches), cands, alpha, c)


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
    The lists are laid end to end for ``_supervised_set``.
    """
    cands = _checked_candidates(candidates, alpha)
    _check_c(c)
    cal_x = [np.asarray(v, dtype=float) for v in cal_x]
    cal_y = [np.asarray(v, dtype=float).ravel() for v in cal_y]
    if [len(x) for x in cal_x] != [y.size for y in cal_y]:
        raise ValueError("each calibration branch needs one x row per y value")
    tr_x, tr_y, n_train = _training_rows(train_x, train_y)
    x_new = np.asarray(x_new, dtype=float).reshape((1,) + cal_x[-1].shape[1:])
    cal_x[-1] = np.concatenate([cal_x[-1], x_new])
    n_cal = np.array([len(v) for v in cal_x], dtype=np.intp)
    x = np.concatenate(cal_x)
    return _supervised_set(tr_x, tr_y, n_train, x.reshape(len(x), -1), np.concatenate(cal_y),
                           n_cal, cands, alpha, c)


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
    exactly, continuous ones through a shared histogram. An empty sample
    raises ``ValueError``.
    """
    if nu is not None:
        a = np.asarray([float(nu(x)) for x in samples_a])
        b = np.asarray([float(nu(x)) for x in samples_b])
    else:
        a = np.asarray(samples_a, dtype=float).ravel()
        b = np.asarray(samples_b, dtype=float).ravel()
    if not (a.size and b.size):
        raise ValueError("both samples must be nonempty")
    # the distinct values, as np.unique gives them: NaNs sort last and count
    # as one value
    values = np.sort(np.concatenate([a, b]))
    first = np.ones(values.size, dtype=bool)
    first[1:] = (values[1:] != values[:-1]) & ~np.isnan(values[:-1])
    support = values[first]
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
