"""Thresholds and prediction sets calibrated over group orbits.

The core recipe: score the completed data, take the 1-alpha quantile of the
score over the (sampled or enumerated) group orbit, and keep candidates whose
score does not exceed it. Variants cover randomized exact-coverage sets,
Monte-Carlo thresholds, weighted non-symmetric sets, ragged branch sizes, and
the over-coverage diagnostic.

For hierarchical and conformal sets the rule runs in rank form over the whole
candidate grid at once (``rank_member`` and the ``*_below`` kernels): a
candidate is kept when the (weighted) mass of calibration scores strictly
below its own score is under 1 - alpha. This is the one implementation that
the baselines, graph sets, benchmark harness and command line all call. The
orbit sets (``symmpi_set``, ``randomized_set`` and the weighted
``nonsym_set``) score every candidate's orbit in one batched sweep
(``_score_blocks``). At alpha = 1 no set keeps anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .groups import CosetDecomposition, GroupAction, actions_of, iter_actions, sample_actions
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

    def intervals(self) -> list[tuple[float, float]]:
        """Maximal runs of member candidates, as (low, high) candidate values."""
        out = []
        m = self.member
        i = 0
        while i < m.size:
            if m[i]:
                j = i
                while j + 1 < m.size and m[j + 1]:
                    j += 1
                out.append((float(self.candidates[i]), float(self.candidates[j])))
                i = j + 1
            else:
                i += 1
        return out

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
    if n_points < 2:
        raise ValueError(f"a candidate grid needs at least 2 points, got {n_points}")
    v = np.asarray(values, dtype=float).ravel()
    sd = float(np.std(v))
    pad = pad_sd * (sd if sd > 0 else max(abs(float(np.mean(v))), 1.0) * 1e-3)
    return np.linspace(v.min() - pad, v.max() + pad, n_points)


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


def _rank_set(candidates, below, alpha: float, meta=None) -> PredictionSet:
    member = rank_member(below, alpha)
    return PredictionSet(candidates, member, unbounded=bool(member.all()), meta=meta or {})


def _count_within(sorted_vals, center, radius) -> np.ndarray:
    """How many values fall strictly inside (center - radius, center + radius).

    ``center`` and ``radius`` broadcast to the candidates' shape; values are
    sorted ascending.
    """
    hi = np.searchsorted(sorted_vals, center + radius, side="left")
    lo = np.searchsorted(sorted_vals, center - radius, side="right")
    return np.maximum(hi - lo, 0)


def _branch_mass(branches, center, radius, K: int) -> np.ndarray:
    """Mass of branch values strictly within radius of center, each branch weighing 1/K."""
    mass = np.zeros(np.shape(radius))
    for b in branches:
        mass += _count_within(np.sort(b), center, radius) / (K * b.size)
    return mass


def conformal_below(cal_scores, own) -> np.ndarray:
    """Below-own mass of a self-inclusive conformal set.

    ``cal_scores`` is one (m,) sample shared by every candidate, or (G, m)
    with one row per candidate; ``own`` holds the G candidates' scores. Each
    of the m + 1 pooled scores, the candidate's own included, weighs the same.
    """
    own = np.asarray(own, dtype=float)
    cal = np.asarray(cal_scores, dtype=float)
    if cal.ndim == 1:
        below = np.searchsorted(np.sort(cal), own, side="left")
    else:
        below = (cal < own[:, None]).sum(axis=1)
    return below / (cal.shape[-1] + 1)


def centered_conformal_below(values, candidates) -> np.ndarray:
    """``conformal_below`` for scores |v - mean|, where the mean includes the candidate."""
    vals = np.asarray(values, dtype=float).ravel()
    cands = np.asarray(candidates, dtype=float)
    n = vals.size + 1
    centers = (vals.sum() + cands) / n
    return _count_within(np.sort(vals), centers, np.abs(cands - centers)) / n


def _mean_sd(values) -> tuple[float, float]:
    """``values.mean()`` and ``values.std(ddof=1)`` with numpy's arithmetic but
    without its call overhead; the SD is 1 for one value or zero spread."""
    mean = values.sum() / values.size
    if values.size < 2:
        return float(mean), 1.0
    dev = values - mean
    sd = float(np.sqrt((dev * dev).sum() / (values.size - 1)))
    return float(mean), sd if sd > 0 else 1.0


def hierarchical_below(observed_branches, candidates, c: float = 2.0, studentize: bool = True):
    """Branch-weighted below-own mass of the adaptive-centering scores.

    ``observed_branches`` holds the complete donor branches, then the target
    branch's observed values; each candidate completes the target branch.
    Scores are those of ``hierarchical_unsup_transform``, and of
    ``oracles.adaptive_scores`` (the tests' per-candidate form, ragged sizes
    included): the branch SD gates the centering choice, and divides the
    scores only when ``studentize``. Each of branch k's points weighs
    1/(K n_k), so equal sizes give the flat pool.

    Only the target branch moves with the candidate, so it alone is scored
    per candidate; a donor's scores are fixed (one search) unless it is
    centered at the candidate-dependent grand mean (an interval count in its
    sorted values). A two-point branch centered at its own mean scores
    1/sqrt(2) at both points whatever the data, so such exact ties are
    decided by rounding: the donor scores, the target SD and the target
    scores are computed as the transform computes them, and break ties the
    same way.
    """
    gridp = np.asarray(candidates, dtype=float)
    branches = [np.asarray(b, dtype=float).ravel() for b in observed_branches]
    target_obs, donors = branches[-1], branches[:-1]
    if any(b.size == 0 for b in donors):
        raise ValueError("every branch must be nonempty")
    K = len(branches)
    n_t = target_obs.size + 1
    mean_t = (target_obs.sum() + gridp) / n_t
    if n_t > 1:
        # the observed part's sum of squares, updated with the candidate
        m_o = target_obs.sum() / target_obs.size
        q_o = float(((target_obs - m_o) ** 2).sum())
        ssq_t = q_o + (n_t - 1) * (m_o - mean_t) ** 2 + (gridp - mean_t) ** 2
        sd_t = np.sqrt(ssq_t / (n_t - 1))
        sd_t = np.where(sd_t > 0, sd_t, 1.0)
    else:
        sd_t = np.ones(gridp.shape)

    stats = [_mean_sd(b) for b in donors]
    grand = (sum(m for m, _ in stats) + mean_t) / K

    near_t = np.abs(mean_t - grand) <= c * sd_t / np.sqrt(n_t)
    center_t = np.where(near_t, grand, mean_t)
    own = np.abs(gridp - center_t)
    siblings = np.abs(target_obs[:, None] - center_t)  # one column per candidate
    if studentize:
        own /= sd_t
        siblings /= sd_t
    below = (siblings < own).sum(axis=0) * (1.0 / (K * n_t))

    for b, (m_k, sd_k) in zip(donors, stats):
        scale = sd_k if studentize else 1.0
        near = np.abs(m_k - grand) <= c * sd_k / np.sqrt(b.size)
        if near.all():
            count = _count_within(np.sort(b), grand, own * scale)
        else:
            count = np.searchsorted(np.sort(np.abs(b - m_k) / scale), own, side="left")
            if near.any():
                count[near] = _count_within(np.sort(b), grand[near], own[near] * scale)
        below += count * (1.0 / (K * b.size))
    return below


def supervised_below(donor_residuals, target_residuals, candidate_residuals,
                     studentize: bool = True) -> np.ndarray:
    """Branch-weighted below-own mass of the supervised adaptive residual scores.

    ``donor_residuals`` holds each complete branch's |y - center|,
    ``target_residuals`` the target branch's observed ones and
    ``candidate_residuals`` each candidate's. With ``studentize`` a branch's
    scores are divided by its RMS residual (denominator n - 1, the candidate
    included for the target branch), else raw magnitudes are compared. Each of
    branch k's points weighs 1/(K n_k); equal sizes take one search in the
    pooled donor scores.
    """
    raw_cand = np.asarray(candidate_residuals, dtype=float)
    raw_last = np.asarray(target_residuals, dtype=float).ravel()
    fixed = []
    for raw in donor_residuals:
        raw = np.asarray(raw, dtype=float).ravel()
        if studentize and raw.size > 1:
            eps = np.sqrt(np.sum(raw**2) / (raw.size - 1))
            raw = raw / (eps if eps > 0 else 1.0)
        fixed.append(raw)
    K = len(fixed) + 1
    m_K = raw_last.size + 1
    # Within the target branch any shared scale cancels, so the sibling
    # comparison is on raw residual magnitudes in both modes.
    below_target = np.searchsorted(np.sort(raw_last), raw_cand, side="left")
    if studentize and m_K > 1:
        eps_cand = np.sqrt((np.sum(raw_last**2) + raw_cand**2) / (m_K - 1))
        own = raw_cand / np.where(eps_cand > 0, eps_cand, 1.0)
    else:
        own = raw_cand
    sizes = [s.size for s in fixed] + [m_K]
    if len(set(sizes)) == 1:
        pooled = np.sort(np.concatenate(fixed)) if fixed else np.empty(0)
        return (np.searchsorted(pooled, own, side="left") + below_target) / sum(sizes)
    below = below_target / (K * m_K)
    for s in fixed:
        if s.size:
            below = below + np.searchsorted(np.sort(s), own, side="left") / (K * s.size)
    return below


def _adaptive_centers(reg, xs, c: float):
    """Per-branch pooled fits, and centers: the pooled fit where the branch
    fit lies within c confidence bands of it, else the branch fit. All
    branches are evaluated in one pass (``transforms.branch_fits``)."""
    mu_p, mu_b, sig, sizes = branch_fits(reg, xs)
    center = np.where(np.abs(mu_b - mu_p) / sig <= c, mu_p, mu_b)
    cuts = np.cumsum(sizes)[:-1]
    return np.split(mu_p, cuts), np.split(center, cuts)


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
    return _rank_set(cands, hierarchical_below(observed_branches, cands, c), alpha)


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
    branch-weighted score quantile. Ragged branch sizes are allowed.
    """
    cands = _checked_candidates(candidates, alpha)
    reg = fit_regressors(train_x, train_y)
    cal_x = [np.asarray(v, dtype=float) for v in cal_x]
    cal_y = [np.asarray(v, dtype=float) for v in cal_y]
    x_new = np.asarray(x_new, dtype=float)
    if cal_x[-1].ndim > 1:
        cal_x[-1] = np.concatenate([cal_x[-1], x_new.reshape(1, -1)], axis=0)
    else:
        cal_x[-1] = np.append(cal_x[-1], x_new)
    _, centers = _adaptive_centers(reg, cal_x, c)
    below = supervised_below(
        [np.abs(y - m) for y, m in zip(cal_y[:-1], centers[:-1])],
        np.abs(cal_y[-1] - centers[-1][:-1]),
        np.abs(cands - centers[-1][-1]),
    )
    return _rank_set(cands, below, alpha)


def hcp_first_obs_set(complete_branches, candidates, alpha: float) -> PredictionSet:
    """Prediction set for the first observation of a brand-new branch.

    Scores are plain absolute deviations from the average of branch means
    (always-pool centering, unit scale), where the candidate counts as a
    branch of its own: it enters the average of means and carries weight 1/K
    in the quantile. The benchmark's ``hcp`` method (``sim._hcp_rows``)
    differs: it leaves the candidate out of both.
    """
    cands = _checked_candidates(candidates, alpha)
    branches = [np.asarray(b, dtype=float).ravel() for b in complete_branches]
    if any(b.size == 0 for b in branches):
        raise ValueError("every complete branch must be nonempty")
    K = len(branches) + 1
    grand = (sum(b.mean() for b in branches) + cands) / K
    # the candidate's own branch adds nothing: its score is not below itself
    below = _branch_mass(branches, grand, np.abs(cands - grand), K)
    return _rank_set(cands, below, alpha)


# --------------------------------------------------------------------------
# Diagnostics
# --------------------------------------------------------------------------


def overcoverage_bound(group: GroupAction, psi, z_tilde, probes=None) -> float:
    """|H|/|G| where H fixes psi on the probe set; bounds coverage slack."""
    z = np.asarray(z_tilde, dtype=float)
    if probes is None:
        probes = [z]
    probes = [np.asarray(p, dtype=float).reshape(-1) for p in probes]
    base = np.array([float(psi(p)) for p in probes])
    total = 0
    matches = 0
    for elements, act in iter_actions(group, probes[0].shape):
        ok = np.ones(len(elements), dtype=bool)
        for c, p in enumerate(probes):
            ok &= np.asarray(psi(act(p)), dtype=float).reshape(-1) == base[c]
        matches += int(ok.sum())
        total += len(elements)
    return matches / total


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
