"""Per-candidate reference forms of the set builders and of automorphism search.

Each set oracle completes the data with one candidate at a time, scores the
completed data, takes the quantile with ``finite_quantile`` and keeps the
candidate when its own score is at most that quantile: the textbook form of
the rule that ``symmpi.calibrate`` evaluates for a whole grid at once. The two
forms agree for 0 < alpha < 1; at alpha = 1 the rank form keeps nothing.
``orbit_set_members`` does the same over a group orbit, one element at a time,
``nonsym_members`` over weighted coset representatives, one representative at
a time, and ``backtrack_automorphisms`` is the depth-first automorphism search.
``tree_automorphism_count`` counts a tree's automorphisms from its rooted
subtrees, without a search, and ``random_tree`` draws the trees it is checked on;
``permutation_closure`` closes generators under composition one product at a time.
The message-passing forms (``mpgnn_forward``, ``TreeGraph``,
``interpolation_unsup_scores``, ``five_step_supervised_scores``) stand for
the SymmPI paper's result that a message-passing graph neural network whose
layers treat every neighbour alike is distributionally equivariant under
the automorphisms of its graph; the hierarchical scores are such a network
on the two-layer tree, run in stages. ``five_step_supervised_scores`` takes
the per-point channels of ``supervised_features``, and
``supervised_scores_from_features`` evaluates the same scores directly,
without the staged path.
``supervised_below`` is ``calibrate._supervised_block`` for one test on
per-branch lists. ``hierarchical_below_loop`` and ``supervised_below_loop``
are the rank-form masses summed branch by branch, one sort and search per
donor branch; ``unsup_eval`` is the unsupervised benchmark harness one test
at a time on those per-branch forms, ``sup_eval`` the supervised harness one test at a
time (a hand-made split, then the library's one-test fits and searches),
and ``run_trial`` a trial of either, each test evaluated as it is drawn;
its supervised draws are ``sup_arrays``, one ``uniform`` and one ``normal``
call per branch.
``intervals_loop`` walks a membership mask for its runs.
``weighted_interval_ends`` is the comparison form of the weighted ends of
``calibrate._intervals``, every cumulative weight against every level, and
``first_rank_error`` checks the runs of ``transforms._fit_runs`` one
``matrix_rank`` call at a time.
``hole_members`` is the membership view of the harness's hole counts
(``holes._hierarchical_counts``): every candidate looked up in the same
holes one by one, as the candidates after the grid are.
``rotation_supervised_members`` is ``sim.rotation_supervised_set`` one
Monte-Carlo draw at a time: one Haar matrix and one ``score`` call per draw.
``conformal_below``, ``centered_conformal_below`` and ``hcp_below`` are the
rank forms of the conformal sets and of the benchmark's ``hcp`` rule: the
below-own mass of every candidate, searched candidate by candidate in the
sorted calibration values (for the centered and ``hcp`` scores, each
value's score compared with the candidate's), that
``calibrate.ConformalIntervals`` replaces by closed-form ends.
``loop_fit_regressors`` fits the branch corrections one ``fit_linear`` call
per branch, ``coset_representatives_by_key`` splits a group by a dictionary
keyed on tuples of probe scores, ``read_hierarchical_csv`` groups the rows
of ``dataio.read_branch_rows`` by branch, and ``read_hierarchical_rows``
reads a branch data file one row at a time. ``symmetric_maps`` and ``block_maps``
list the images of S_n and of the block group in the enumeration order of
``itertools.permutations`` and ``itertools.product``. ``counting_orbit`` is
``groups.orbit_of_index`` counted over a group's listed elements.
"""

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from symmpi.calibrate import (
    PredictionSet,
    _branch_stats,
    _level,
    _supervised_block,
    candidate_grid,
    finite_quantile,
    rank_member,
    threshold_from_scores,
)
from symmpi.dataio import read_branch_rows
from symmpi.groups import (CosetDecomposition, Permutation, iter_actions,
                           sample_haar_orthogonal)
from symmpi.transforms import RegressorBundle, branch_fits, fit_linear, fit_regressors


@dataclass
class LoopRegressors:
    """Pooled fit plus one ``LinearModel`` (or None: pooled fallback) per branch."""

    pooled: object
    branch_resid: list
    train_resid_sd: np.ndarray

    def mu(self, x):
        return self.pooled.predict(x)

    def mu_k(self, k, x):
        base = self.pooled.predict(x)
        if self.branch_resid[k] is None:
            return base
        return base + self.branch_resid[k].predict(x)

    def sigma_k(self, k, x):
        if self.branch_resid[k] is None:
            se = np.broadcast_to(self.train_resid_sd[k], np.shape(self.pooled.predict(x)))
        else:
            se = self.branch_resid[k].se(x)
        return np.maximum(se, 1e-12)


def loop_fit_regressors(train_x, train_y):
    """``fit_regressors`` one branch at a time: the pooled OLS fit, then
    ``fit_linear`` on each branch's pooled residuals (branches of fewer than
    2 points fall back to the pooled fit)."""
    xs = [np.asarray(x, dtype=float) for x in train_x]
    ys = [np.asarray(y, dtype=float).ravel() for y in train_y]
    flat_x = np.concatenate([x.reshape(x.shape[0], -1) if x.ndim > 1 else x[:, None] for x in xs])
    pooled = fit_linear(flat_x, np.concatenate(ys))
    models, scales = [], []
    for x, y in zip(xs, ys):
        resid = y - pooled.predict(x)
        if y.size >= 2:
            model = fit_linear(x, resid)
            fitted = resid - model.predict(x)
        else:
            model = None
            fitted = resid
        models.append(model)
        scales.append(np.sqrt(np.mean(fitted**2)) if fitted.size else 0.0)
    return LoopRegressors(pooled, models, np.maximum(np.asarray(scales), 1e-12))


def adaptive_scores(branches, c, studentize=True):
    """Adaptive-centering scores of complete branches (ragged allowed).

    A branch whose mean lies within c sd_k / sqrt(n_k) of the average of
    branch means is centered there, else at its own mean; scores are divided
    by sd_k only when ``studentize`` (sd_k is 1 for one value or zero spread).
    """
    arrs = [np.asarray(b, dtype=float).ravel() for b in branches]
    means = np.array([a.mean() for a in arrs])
    grand = means.mean()
    out = []
    for a, m in zip(arrs, means):
        sd = float(np.std(a, ddof=1)) if a.size > 1 else 1.0
        sd = sd if sd > 0 else 1.0
        center = grand if abs(m - grand) <= c * sd / np.sqrt(a.size) else m
        out.append(np.abs(a - center) / (sd if studentize else 1.0))
    return out


def _weighted_threshold(branch_scores, alpha):
    """Quantile where each of branch k's points weighs 1/(K n_k)."""
    K = len(branch_scores)
    values = np.concatenate(branch_scores)
    weights = np.concatenate([np.full(s.size, 1.0 / (K * s.size)) for s in branch_scores])
    return finite_quantile(values, 1.0 - alpha, weights)


def hierarchical_members(observed_branches, candidates, alpha, c=2.0, studentize=True):
    """Unsupervised hierarchical set: the candidate completes the last branch."""
    branches = [np.asarray(b, dtype=float).ravel() for b in observed_branches]
    member = []
    for cand in np.asarray(candidates, dtype=float):
        scores = adaptive_scores(branches[:-1] + [np.append(branches[-1], cand)], c, studentize)
        member.append(scores[-1][-1] <= _weighted_threshold(scores, alpha))
    return np.array(member)


def supervised_members(donor_residuals, target_residuals, candidate_residuals, alpha,
                       studentize=True):
    """Supervised hierarchical set on residual magnitudes |y - center|.

    With ``studentize`` each branch is divided by its RMS residual
    (denominator n - 1, the candidate included for the target branch). Equal
    branch sizes use the flat quantile of the pooled scores.
    """
    fixed = []
    for raw in donor_residuals:
        raw = np.asarray(raw, dtype=float)
        eps = np.sqrt(np.sum(raw**2) / (raw.size - 1)) if studentize and raw.size > 1 else 1.0
        fixed.append(raw / (eps if eps > 0 else 1.0))
    raw_last = np.asarray(target_residuals, dtype=float)
    m_K = raw_last.size + 1
    equal = len({s.size for s in fixed} | {m_K}) == 1
    member = []
    for raw_cand in np.asarray(candidate_residuals, dtype=float):
        eps = 1.0
        if studentize and m_K > 1:
            eps = np.sqrt((np.sum(raw_last**2) + raw_cand**2) / (m_K - 1))
            eps = eps if eps > 0 else 1.0
        own = raw_cand / eps
        branch_scores = fixed + [np.append(raw_last, raw_cand) / eps]
        if equal:
            t = finite_quantile(np.concatenate(branch_scores), 1.0 - alpha)
        else:
            t = _weighted_threshold(branch_scores, alpha)
        member.append(own <= t)
    return np.array(member)


def supervised_set_members(train_x, train_y, cal_x, cal_y, x_new, candidates, alpha, c=2.0):
    """``supervised_hierarchical_set`` one candidate at a time, with the
    per-branch loop fit."""
    reg = loop_fit_regressors(train_x, train_y)
    K = len(cal_x)
    centers = []
    for k in range(K):
        xk = np.append(cal_x[k], x_new) if k == K - 1 else np.asarray(cal_x[k], dtype=float)
        mu_p, mu_b, sig = reg.mu(xk), reg.mu_k(k, xk), reg.sigma_k(k, xk)
        centers.append(np.where(np.abs(mu_b - mu_p) / sig <= c, mu_p, mu_b))
    return supervised_members(
        [np.abs(np.asarray(cal_y[k]) - centers[k]) for k in range(K - 1)],
        np.abs(np.asarray(cal_y[-1]) - centers[-1][:-1]),
        np.abs(np.asarray(candidates, dtype=float) - centers[-1][-1]),
        alpha,
    )


def _count_within(sorted_vals, center, radius):
    hi = np.searchsorted(sorted_vals, center + radius, side="left")
    lo = np.searchsorted(sorted_vals, center - radius, side="right")
    return np.maximum(hi - lo, 0)


def conformal_below(cal_scores, own):
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


def centered_conformal_below(values, candidates):
    """``conformal_below`` for scores |v - mean|, where the mean includes the
    candidate: each value's score compared with the candidate's as computed.
    Two-dimensional ``candidates`` (B, G) with ``values`` (B, n) evaluate B
    tests at once, row by row."""
    cands = np.asarray(candidates, dtype=float)
    if cands.ndim < 2:
        vals = np.asarray(values, dtype=float).reshape(1, -1)
        return centered_conformal_below(vals, cands.reshape(1, -1)).reshape(cands.shape)
    vals = np.asarray(values, dtype=float)
    n = vals.shape[1] + 1
    centers = (vals.sum(axis=1, keepdims=True) + cands) / n
    below = np.empty(cands.shape)
    for row, v, m, c in zip(below, vals, centers, cands):
        row[:] = (np.abs(v[None, :] - m[:, None]) < np.abs(c - m)[:, None]).sum(axis=1)
    below /= n
    return below


def hcp_below(donors, sizes, gridp):
    """The benchmark's ``hcp`` masses of B tests, (B, G): deviations from the
    average of the complete branches' means, each branch weighing 1/K, the
    candidate left out of both; each value's score compared with the
    candidate's as computed."""
    K = sizes.size
    means, _ = _branch_stats(donors, sizes)
    grand = np.cumsum(means, axis=1)[:, -1:] / K
    hit = np.abs(donors - grand)[:, None, :] < np.abs(gridp - grand)[:, :, None]
    return hit @ np.repeat(1.0 / (K * sizes), sizes)


def _mean_sd(values):
    """``values.mean()`` and ``values.std(ddof=1)`` (1 for one value or zero spread)."""
    mean = values.sum() / values.size
    if values.size < 2:
        return float(mean), 1.0
    dev = values - mean
    sd = float(np.sqrt((dev * dev).sum() / (values.size - 1)))
    return float(mean), sd if sd > 0 else 1.0


def hierarchical_below_loop(observed_branches, candidates, c=2.0, studentize=True):
    """``hierarchical_below`` one donor branch at a time: each donor's mass is
    a search in its sorted fixed scores, or an interval count in its sorted
    values where it is centered at the grand mean, added in branch order."""
    gridp = np.asarray(candidates, dtype=float)
    branches = [np.asarray(b, dtype=float).ravel() for b in observed_branches]
    target_obs, donors = branches[-1], branches[:-1]
    K = len(branches)
    n_t = target_obs.size + 1
    mean_t = (target_obs.sum() + gridp) / n_t
    if n_t > 1:
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
    siblings = np.abs(target_obs[:, None] - center_t)
    if studentize:
        own /= sd_t
        siblings /= sd_t
    below = (siblings < own).sum(axis=0) * (1.0 / (K * n_t))
    for b, (m_k, sd_k) in zip(donors, stats):
        scale = sd_k if studentize else 1.0
        near = np.abs(m_k - grand) <= c * sd_k / np.sqrt(b.size)
        count = np.searchsorted(np.sort(np.abs(b - m_k) / scale), own, side="left")
        count[near] = _count_within(np.sort(b), grand[near], own[near] * scale)
        below += count * (1.0 / (K * b.size))
    return below


def supervised_below(donor_residuals, target_residuals, candidate_residuals, studentize=True):
    """``calibrate._supervised_block`` for one test, on per-branch lists:
    ``donor_residuals`` holds each complete branch's |y - center|,
    ``target_residuals`` the target branch's observed ones and
    ``candidate_residuals`` each candidate's."""
    donors = [np.asarray(r, dtype=float).ravel() for r in donor_residuals]
    target = np.asarray(target_residuals, dtype=float).ravel()
    sizes = np.array([r.size for r in donors] + [target.size + 1], dtype=np.intp)
    cands = np.asarray(candidate_residuals, dtype=float)
    below = _supervised_block(np.concatenate(donors + [target])[None], sizes,
                              cands.reshape(1, -1), studentize)
    return below.reshape(cands.shape)


def supervised_below_loop(donor_residuals, target_residuals, candidate_residuals,
                          studentize=True):
    """``supervised_below`` with one sort and search per donor branch, the
    masses added in branch order."""
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
    below = np.searchsorted(np.sort(raw_last), raw_cand, side="left") / (K * m_K)
    if studentize and m_K > 1:
        eps_cand = np.sqrt((np.sum(raw_last**2) + raw_cand**2) / (m_K - 1))
        own = raw_cand / np.where(eps_cand > 0, eps_cand, 1.0)
    else:
        own = raw_cand
    for s in fixed:
        if s.size:
            below = below + np.searchsorted(np.sort(s), own, side="left") / (K * s.size)
    return below


def _test_rows(below, alphas, spacing):
    """(alphas, 3): length, covered and unbounded, the final candidate being the truth."""
    rows = []
    for alpha in alphas:
        member = rank_member(below, alpha)
        unbounded = bool(member[:-1].all())
        length = float("inf") if unbounded else float(member[:-1].sum()) * spacing
        rows.append((length, bool(member[-1]), unbounded))
    return np.array(rows, dtype=float)


def unsup_eval(branches, cfg, rng, methods):
    """The benchmark harness's unsupervised rows for one test, each method on
    its per-branch form; ``branches`` has the truth appended to the last one."""
    truth = float(branches[-1][-1])
    obs_branches = branches[:-1] + [branches[-1][:-1]]
    obs = np.concatenate(obs_branches)
    grid = candidate_grid(obs, cfg.grid_points, cfg.grid_pad_sd)
    spacing = float(grid[1] - grid[0])
    gridp = np.append(grid, truth)
    below = {}
    if "symmpi" in methods:
        below["symmpi"] = hierarchical_below_loop(obs_branches, gridp, cfg.c, cfg.studentize)
    if "conformal" in methods:
        below["conformal"] = centered_conformal_below(obs, gridp)
    if "subsampling" in methods:
        picks = np.array([b[int(rng.integers(b.size))] for b in obs_branches[:-1]])
        below["subsampling"] = centered_conformal_below(picks, gridp)
    if "single_tree" in methods:
        below["single_tree"] = centered_conformal_below(obs_branches[-1], gridp)
    if "hcp" in methods:
        donors = obs_branches[:-1]
        K = len(donors)
        grand = sum(float(np.mean(b)) for b in donors) / K
        own = np.abs(gridp - grand)
        mass = np.zeros(own.shape)
        for b in donors:
            mass += _count_within(np.sort(b), grand, own) / (K * b.size)
        below["hcp"] = mass
    return {m: _test_rows(b, cfg.alphas, spacing) for m, b in below.items()}


def sup_eval(xs, ys, cfg, rng, methods):
    """The benchmark harness's supervised rows for one test, computed alone:
    the split made by hand, the library's one-test fits and ``supervised_below``,
    and each conformal method's calibration scores sorted on their own.
    ``xs`` and ``ys`` are per-branch arrays, the truth last."""
    n_train = [(np.size(y) + 1) // 2 for y in ys]
    tr_x = [x[:m] for x, m in zip(xs, n_train)]
    tr_y = [y[:m] for y, m in zip(ys, n_train)]
    cal_x = [x[m:] for x, m in zip(xs, n_train)]
    cal_y = [y[m:] for y, m in zip(ys, n_train)]
    reg = fit_regressors(tr_x, tr_y)
    sizes = np.array([x.size for x in cal_x])
    flat_x = np.concatenate(cal_x)
    mu_p, mu_b, sig = (f[0] for f in branch_fits(reg, flat_x.reshape(1, -1, 1), sizes))
    center = np.where(np.abs(mu_b - mu_p) / sig <= cfg.c, mu_p, mu_b)
    obs_y = np.concatenate(cal_y)
    obs_y, truth = obs_y[:-1], obs_y[-1]
    grid = candidate_grid(obs_y, cfg.grid_points, cfg.grid_pad_sd)
    spacing = float(grid[1] - grid[0])
    gridp = np.append(grid, truth)
    below = {}
    if "symmpi" in methods:
        resid = np.split(np.abs(obs_y - center[:-1]), np.cumsum(sizes)[:-1])
        below["symmpi"] = supervised_below(resid[:-1], resid[-1], np.abs(gridp - center[-1]),
                                           cfg.studentize)
    pooled = np.abs(obs_y - mu_p[:-1])
    own_pooled = np.abs(gridp - mu_p[-1])
    if "conformal" in methods:
        below["conformal"] = conformal_below(pooled, own_pooled)
    if "subsampling" in methods:
        starts = np.cumsum(sizes) - sizes
        idx = [s + int(rng.integers(n)) for s, n in zip(starts[:-1], sizes[:-1])]
        below["subsampling"] = conformal_below(pooled[idx], own_pooled)
    if "single_tree" in methods:
        solo = fit_linear(tr_x[-1], tr_y[-1])
        cal_scores = np.abs(cal_y[-1][:-1] - solo.predict(cal_x[-1][:-1]))
        own = np.abs(gridp - float(solo.predict(cal_x[-1][-1:])[0]))
        below["single_tree"] = conformal_below(cal_scores, own)
    return {m: _test_rows(b, cfg.alphas, spacing) for m, b in below.items()}


def sup_arrays(cfg, rng):
    """``sim._sup_arrays``'s draws, the sizes, x and y of a supervised test
    with the branches end to end, by one ``uniform`` and one ``normal`` call
    per branch."""
    K = cfg.n_branches
    if cfg.random_sizes:
        sizes = rng.choice(np.asarray(cfg.branch_size), size=K)
    else:
        sizes = np.full(K, cfg.branch_size)
    theta = rng.normal(0.0, cfg.sigma2, K)
    xs, noise = [], []
    for n in sizes.tolist():
        xs.append(rng.uniform(cfg.x_low, cfg.x_high, n))
        noise.append(rng.normal(0.0, cfg.noise_sd, n))
    x = np.concatenate(xs)
    return sizes, x, np.repeat(theta, sizes) * x + np.concatenate(noise)


def run_trial(cfg, methods, trial):
    """One trial of ``sim._run_trials`` one test at a time: ``sup_eval`` on
    the draws of ``sup_arrays`` for a supervised config, else
    ``unsup_eval``."""
    from symmpi.sim import gen_unsup, gen_unsup_ragged

    rng = np.random.default_rng((cfg.seed, trial))
    rows = {m: [] for m in methods}
    for _ in range(cfg.tests):
        if cfg.supervised:
            sizes, x, y = sup_arrays(cfg, rng)
            bounds = np.cumsum(sizes)[:-1]
            res = sup_eval(np.split(x, bounds), np.split(y, bounds), cfg, rng, methods)
        else:
            if cfg.random_sizes:
                branches = gen_unsup_ragged(cfg, rng)
            else:
                z = gen_unsup(cfg, rng)
                branches = [z[k] for k in range(cfg.n_branches)]
            res = unsup_eval(branches, cfg, rng, methods)
        for m, r in res.items():
            rows[m].append(r)
    summary = {}
    for m, per_test in rows.items():
        for ai in range(len(cfg.alphas)):
            lengths = [r[ai, 0] for r in per_test]
            finite = [l for l in lengths if np.isfinite(l)]
            summary[(m, ai)] = (
                float(np.mean(finite)) if finite else float("inf"),
                float(np.mean([bool(r[ai, 1]) for r in per_test])),
                sum(int(r[ai, 2]) for r in per_test) / cfg.tests,
            )
    return summary


def hole_members(donors, sizes, target, cands, c, alphas, n_grid):
    """Memberships (A, B, G) of the candidates (B, G) in the harness layout,
    a uniform grid of ``n_grid`` points then extras, as the hole form decides
    them (the rank form for a lone test): the same call with every
    candidate also appended after the grid, read off those extras."""
    from symmpi.holes import _hierarchical_counts

    both = np.concatenate([cands[:, :n_grid], cands], axis=1)
    return _hierarchical_counts(donors, sizes, target, both, c, False, alphas, n_grid)[1]


def intervals_loop(candidates, member):
    """``PredictionSet.intervals`` by a walk over the candidates: each
    maximal run of members as its first and last candidate values."""
    out = []
    i = 0
    while i < member.size:
        if member[i]:
            j = i
            while j + 1 < member.size and member[j + 1]:
                j += 1
            out.append((float(candidates[i]), float(candidates[j])))
            i = j + 1
        else:
            i += 1
    return out


def weighted_interval_ends(lo, hi, alphas, weights, ranked=False):
    """The ends (low, high, each (B, A)) and the ``ranked`` flags (B,) that
    ``calibrate._intervals`` gives weighted scores, by comparing every
    cumulative weight of each row with every level in one (B, N, A) array:
    an end's index counts the sums under the level, and a row is ranked
    when some sum lies within rounding of some level."""
    B, N = hi.shape
    ranked = np.isnan(lo).any(axis=1) | np.isnan(hi).any(axis=1) | ranked
    level = np.array([_level(a) for a in alphas])
    empty = level <= 0
    margin = 4 * N * np.finfo(float).eps
    ends = []
    for e in (hi, -lo):
        order = np.argsort(e, axis=1)
        srt = np.take_along_axis(e, order, axis=1)
        cum = np.cumsum(weights[order], axis=1)[:, :, None]
        idx = (cum < level).sum(axis=1)
        ranked = ranked | (np.abs(cum - level) <= margin).any(axis=(1, 2))
        end = np.concatenate([srt, np.full((B, 1), np.inf)], axis=1)
        end = np.take_along_axis(end, idx, axis=1)
        ends.append(np.where(empty, -np.inf, end) if empty.any() else end)
    return -ends[1], ends[0], ranked


def first_rank_error(x, n):
    """The error ``transforms._fit_runs`` raises for the runs of sizes ``n``
    of the rows x (N, d), or None: the first run whose design [1, x] is
    rank-deficient by ``np.linalg.matrix_rank``, or whose ``matrix_rank``
    call raises, checked run by run."""
    start = 0
    for size in n.tolist():
        xa = np.concatenate([np.ones((size, 1)), x[start:start + size]], axis=1)
        start += size
        try:
            rank = np.linalg.matrix_rank(xa)
        except np.linalg.LinAlgError as err:
            return err
        if rank < xa.shape[1]:
            return ValueError(f"rank-deficient design: {size} points span rank {rank} "
                              f"< {xa.shape[1]}")
    return None


def conformal_members(cal_rows, own, alpha):
    """Self-inclusive conformal: keep own[i] when it is at most the 1 - alpha
    quantile of its calibration row pooled with itself."""
    own = np.asarray(own, dtype=float)
    cal = np.broadcast_to(np.asarray(cal_rows, dtype=float), (own.size, np.shape(cal_rows)[-1]))
    return np.array([o <= finite_quantile(np.append(row, o), 1.0 - alpha)
                     for row, o in zip(cal, own)])


def centered_conformal_members(values, candidates, alpha):
    """Conformal on |v - mean|, the mean taken with the candidate included."""
    vals = np.asarray(values, dtype=float).ravel()
    member = []
    for cand in np.asarray(candidates, dtype=float):
        pool = np.append(vals, cand)
        scores = np.abs(pool - pool.mean())
        member.append(scores[-1] <= finite_quantile(scores, 1.0 - alpha))
    return np.array(member)


def hcp_first_obs_members(complete_branches, candidates, alpha):
    """Library ``hcp_first_obs_set``: the candidate is a branch of its own,
    both in the average of branch means and with weight 1/K in the quantile."""
    branches = [np.asarray(b, dtype=float).ravel() for b in complete_branches]
    K = len(branches) + 1
    member = []
    for cand in np.asarray(candidates, dtype=float):
        grand = (sum(b.mean() for b in branches) + cand) / K
        scores = [np.abs(b - grand) for b in branches] + [np.array([abs(cand - grand)])]
        member.append(abs(cand - grand) <= _weighted_threshold(scores, alpha))
    return np.array(member)


def hcp_rows_members(donor_branches, candidates, alpha):
    """Benchmark ``hcp`` (``hcp_below``): the average of branch means and
    the branch-weighted quantile use the complete branches only."""
    branches = [np.asarray(b, dtype=float).ravel() for b in donor_branches]
    grand = sum(float(np.mean(b)) for b in branches) / len(branches)
    t = _weighted_threshold([np.abs(b - grand) for b in branches], alpha)
    return np.abs(np.asarray(candidates, dtype=float) - grand) <= t


def rotation_supervised_members(x, y, x_new, score, candidates, alpha, mc_draws, rng):
    """The members of ``rotation_supervised_set`` (finite candidates): the
    index draws first, then per draw one ``sample_haar_orthogonal`` matrix
    and one ``score`` call, at an observed point or at every candidate."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    x_new = np.asarray(x_new, dtype=float)
    cands = np.asarray(candidates, dtype=float)
    n, p = x.shape
    idx = rng.integers(0, n + 1, mc_draws)
    rotations = [sample_haar_orthogonal(p, rng) for _ in range(mc_draws)]
    fixed, cand_cols = [], []
    for j, O in zip(idx, rotations):
        if j < n:
            fixed.append(float(score(np.array([y[j]]), (O @ x[j])[None, :])[0]))
        else:
            cand_cols.append(np.asarray(score(cands, np.tile(O @ x_new, (cands.size, 1))),
                                        dtype=float))
    fixed = np.asarray(fixed)
    cand_mat = np.stack(cand_cols, axis=1) if cand_cols else np.empty((cands.size, 0))
    own = np.asarray(score(cands, np.tile(x_new, (cands.size, 1))), dtype=float)
    below = (fixed[None, :] < own[:, None]).sum(axis=1) + (cand_mat < own[:, None]).sum(axis=1)
    return rank_member(below / (mc_draws + 1), alpha)


def orbit_set_members(observed, candidates, embed, V, psi, group, alpha, elements,
                      u_prime=None, own_first=False):
    """``symmpi_set`` (``randomized_set`` with ``u_prime``) one candidate at a
    time: psi of ``group.act(g, z)`` for each of ``elements``, preceded by
    psi(z) itself when ``own_first`` (the Monte-Carlo sample), then the
    threshold of those scores and the rule applied to psi(z)."""
    member = []
    for c in np.asarray(candidates, dtype=float):
        z = np.asarray(V(embed(observed, c)), dtype=float)
        own = float(psi(z))
        scores = [own] if own_first else []
        scores += [float(psi(group.act(g, z))) for g in elements]
        th = threshold_from_scores(scores, alpha)
        if u_prime is None:
            member.append(own <= th.value)
        else:
            member.append(own < th.value or (own == th.value and u_prime < th.delta))
    return np.array(member, dtype=bool)


def nonsym_members(observed, candidates, embed, V, psi, spec, group, alpha, rng):
    """``nonsym_set`` one candidate and one representative at a time: draw g
    by the weights, then keep a candidate when psi of g acting on
    V(g^-1 . z) is at most the weighted quantile of psi over every
    representative acting on it."""
    cands = np.asarray(candidates, dtype=float)
    g_idx = int(rng.choice(len(spec.representatives), p=spec.weights))
    g = spec.representatives[g_idx]
    g_inv = group.inverse(g)
    member = np.zeros(cands.shape, dtype=bool)
    for idx, c in enumerate(cands):
        z = embed(observed, c)
        v = np.asarray(V(group.act(g_inv, z)), dtype=float)
        rep_scores = np.array([float(psi(group.act(gj, v))) for gj in spec.representatives])
        q = finite_quantile(rep_scores, 1.0 - alpha, spec.weights)
        member[idx] = float(psi(group.act(g, v))) <= q
    return PredictionSet(cands, member, unbounded=bool(member.all()), meta={"drawn_rep": g_idx})


def mpgnn_forward(features, neighbors, layers) -> np.ndarray:
    """Generic message passing: z_i <- l0(z_i, sum_{j in N(i)} l1(z_i, z_j)).

    ``features`` is (n_nodes, channels), ``neighbors`` a list of index lists,
    ``layers`` a sequence of (l0, l1) pairs applied in order.
    """
    z = np.asarray(features, dtype=float)
    for lam0, lam1 in layers:
        agg = []
        for i, nbrs in enumerate(neighbors):
            if nbrs:
                agg.append(np.sum([lam1(z[i], z[j]) for j in nbrs], axis=0))
            else:
                agg.append(np.zeros_like(z[i]))
        z = np.array([lam0(z[i], agg[i]) for i in range(len(neighbors))])
    return z


@dataclass
class TreeGraph:
    """Depth-two rooted tree: a root, K branch nodes, and K x M leaves."""

    root: float
    branch_values: np.ndarray  # (K,)
    leaf_values: np.ndarray  # (K, M)

    def __post_init__(self):
        self.branch_values = np.asarray(self.branch_values, dtype=float)
        self.leaf_values = np.asarray(self.leaf_values, dtype=float)
        if self.leaf_values.shape[0] != self.branch_values.size:
            raise ValueError("one row of leaves per branch node")

    @property
    def K(self) -> int:
        return self.branch_values.size

    @property
    def M(self) -> int:
        return self.leaf_values.shape[1]

    def node_count(self) -> int:
        return 1 + self.K + self.K * self.M

    def values(self) -> np.ndarray:
        """Node values in (root, branches, leaves row-major) order."""
        return np.concatenate([[self.root], self.branch_values, self.leaf_values.ravel()])

    def adjacency(self) -> np.ndarray:
        """0/1 adjacency with each node linked precisely to its children."""
        n = self.node_count()
        A = np.zeros((n, n))
        for k in range(self.K):
            A[0, 1 + k] = A[1 + k, 0] = 1.0
            for i in range(self.M):
                leaf = 1 + self.K + k * self.M + i
                A[1 + k, leaf] = A[leaf, 1 + k] = 1.0
        return A

    def neighbors(self) -> list:
        A = self.adjacency()
        return [np.nonzero(A[i])[0].tolist() for i in range(self.node_count())]


def interpolation_unsup_scores(values, c: float = 2.0) -> np.ndarray:
    """Two-channel message-passing form of the unsupervised transform.

    Stage 0 loads branch nodes with (mean, sd) summaries of their leaves;
    stage 1 turns the first channel into the standardized mean gap from the
    root average; stage 2 resolves each branch node to its centering value;
    stage 3 scores the leaves. Must agree with
    ``hierarchical_unsup_transform`` to floating-point accuracy.
    """
    z = np.asarray(values, dtype=float)
    K, M = z.shape[-2], z.shape[-1]
    # Stage 0: summaries flow leaves -> branch nodes -> root.
    branch = np.stack(
        [z.mean(axis=-1), z.std(axis=-1, ddof=1) if M > 1 else np.ones(z.shape[:-1])],
        axis=-1,
    )
    branch[..., 1] = np.where(branch[..., 1] > 0, branch[..., 1], 1.0)
    root_mean = branch[..., 0].mean(axis=-1)
    # Stage 1: standardized distance of each branch mean from the root value.
    gap = np.abs(branch[..., 0] - root_mean[..., None]) / (branch[..., 1] / np.sqrt(M))
    # Stage 2: branch nodes resolve to their centering value.
    center = np.where(gap <= c, root_mean[..., None], branch[..., 0])
    # Stage 3: leaves score against their branch node.
    return np.abs(z - center[..., None]) / branch[..., 1][..., None]


def supervised_features(x, y, reg: RegressorBundle):
    """Per-point (resid_branch, resid_pooled, band) channels, shape (K, M, 3)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    K, M = y.shape
    mu_p, mu_b, sig = branch_fits(reg, x.reshape(1, K * M, -1), np.full(K, M))
    return np.stack([y - mu_b.reshape(y.shape), y - mu_p.reshape(y.shape), sig.reshape(y.shape)],
                    axis=-1)


def five_step_supervised_scores(features, c: float = 2.0) -> np.ndarray:
    """Staged message-passing evaluation of the supervised scores.

    Step 1 initializes leaf channels (branch residual, pooled residual, band)
    and all-ones branch nodes; step 2 rewrites the third channel as the gated
    fit gap; step 3 folds it into an absolute residual; step 4 aggregates the
    within-branch RMS onto the branch nodes; step 5 rescales the leaves.
    """
    f = np.asarray(features, dtype=float)
    K, M = f.shape[-3], f.shape[-2]
    leaves = f.copy()  # step 1: channels (resid_branch, resid_pooled, band)
    # Step 2: third channel <- (mu(x) - mu_k(x)) * 1{|mu(x) - mu_k(x)| <= c band}.
    gap = leaves[..., 0] - leaves[..., 1]  # mu(x) - mu_k(x)
    gate = (np.abs(gap / leaves[..., 2]) <= c).astype(float)
    leaves[..., 2] = gap * gate
    # Step 3: first channel <- |resid_branch - gated gap|.
    leaves[..., 0] = np.abs(leaves[..., 0] - leaves[..., 2])
    # Step 4: branch nodes aggregate sum of squares / (M - 1).
    if M == 1:
        scale = np.ones(leaves.shape[:-2] + (1,))
    else:
        scale = np.sqrt(np.sum(leaves[..., 0] ** 2, axis=-1, keepdims=True) / (M - 1))
        scale = np.where(scale > 0, scale, 1.0)
    # Step 5: leaves divide by their branch node value.
    return leaves[..., 0] / scale


def supervised_scores_from_features(features, c: float = 2.0) -> np.ndarray:
    """Direct evaluation of the supervised adaptive residual scores.

    ``features[..., 0]`` is the branch residual, ``[..., 1]`` the pooled
    residual, ``[..., 2]`` the band value. Where the branch and pooled fits
    agree within c bands the pooled residual is used, else the branch
    residual; scores are |residual| scaled by the within-branch RMS
    (denominator M - 1; scale 1 when M == 1).
    """
    f = np.asarray(features, dtype=float)
    rb, rp, sig = f[..., 0], f[..., 1], f[..., 2]
    M = f.shape[-2]
    near = np.abs((rp - rb) / sig) <= c  # |mu_k(x) - mu(x)| / sigma_k(x) <= c
    raw = np.where(near, rp, rb)
    if M == 1:
        eps = np.ones_like(raw[..., :1])
    else:
        eps = np.sqrt(np.sum(raw**2, axis=-1, keepdims=True) / (M - 1))
        eps = np.where(eps > 0, eps, 1.0)
    return np.abs(raw) / eps


def backtrack_automorphisms(adjacency):
    """Vertex permutations g with g A g^T = A, by depth-first backtracking over
    assignments that keep each vertex's loop weight and weight multiset, in the
    order the search finds them."""
    A = np.asarray(adjacency, dtype=float)
    n = A.shape[0]
    sig = [(A[i, i], tuple(sorted(A[i].tolist()))) for i in range(n)]
    candidates = [[j for j in range(n) if sig[j] == sig[i]] for i in range(n)]
    found = []
    assigned = np.full(n, -1, dtype=np.int64)
    used = np.zeros(n, dtype=bool)

    def backtrack(i):
        if i == n:
            found.append(Permutation(assigned.copy(), validate=False))
            return
        for j in candidates[i]:
            if used[j] or any(A[i, u] != A[j, assigned[u]] for u in range(i)):
                continue
            assigned[i] = j
            used[j] = True
            backtrack(i + 1)
            used[j] = False
        assigned[i] = -1

    backtrack(0)
    return found


def permutation_closure(maps):
    """The permutations the rows of an image array generate, as sorted tuples,
    by composing each generator with each new element until none is new."""
    n = maps.shape[1]
    found = {tuple(range(n))}
    frontier = list(found)
    while frontier:
        new = []
        for g in maps:
            for h in frontier:
                c = tuple(g[list(h)].tolist())
                if c not in found:
                    found.add(c)
                    new.append(c)
        frontier = new
    return sorted(found)


def random_tree(n, seed):
    """Adjacency of a random recursive tree (each vertex joins a uniformly
    drawn earlier one) under a random relabelling."""
    rng = np.random.default_rng(seed)
    parents = [int(rng.integers(i)) for i in range(1, n)]
    label = rng.permutation(n)
    A = np.zeros((n, n))
    for child, parent in enumerate(parents, 1):
        A[label[child], label[parent]] = A[label[parent], label[child]] = 1.0
    return A


def tree_automorphism_count(adjacency):
    """The order of a tree's automorphism group, counted on the tree rooted at
    its centre (the one or two vertices left after peeling leaves layer by
    layer): a rooted subtree's count is the product of its children's counts
    and of the factorial of each class of isomorphic children, the classes
    read from the AHU canonical forms. With two centres the tree is the two
    halves of the central edge, swapped when they are isomorphic."""
    A = np.asarray(adjacency)
    n = A.shape[0]
    neighbours = [np.flatnonzero(A[v]).tolist() for v in range(n)]
    degree = [len(w) for w in neighbours]
    layer = [v for v in range(n) if degree[v] <= 1]
    removed, remaining = set(), n
    while remaining > 2:
        remaining -= len(layer)
        removed.update(layer)
        next_layer = []
        for leaf in layer:
            for w in neighbours[leaf]:
                if w not in removed:
                    degree[w] -= 1
                    if degree[w] == 1:
                        next_layer.append(w)
        layer = next_layer
    centres = [v for v in range(n) if v not in removed]

    def rooted(v, parent):
        children = [rooted(w, v) for w in neighbours[v] if w != parent]
        forms = sorted(form for form, _ in children)
        count = math.prod(c for _, c in children)
        for _, same in itertools.groupby(forms):
            count *= math.factorial(len(list(same)))
        return "(" + "".join(forms) + ")", count

    if len(centres) == 1:
        return rooted(centres[0], -1)[1]
    (fa, ca), (fb, cb) = rooted(centres[0], centres[1]), rooted(centres[1], centres[0])
    return ca * cb * (2 if fa == fb else 1)


def symmetric_maps(n):
    """Images of the permutations of range(n), in ``itertools.permutations`` order."""
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def block_maps(K, M):
    """Flat images of the block group: outer permutations in ``itertools``
    order, and for each the inner permutations of the K blocks as an
    ``itertools.product``; entry i of block k goes to outer(k) * M + inner_k(i)."""
    inner = symmetric_maps(M)
    return np.array([(np.array(outer)[:, None] * M + inner[list(t)]).ravel()
                     for outer in itertools.permutations(range(K))
                     for t in itertools.product(range(len(inner)), repeat=K)], dtype=np.int64)


def counting_orbit(group, i):
    """The sorted orbit of index i and its stabilizer's size, from the
    elements that map i to each index, counted over the listing."""
    counts = 0
    for maps in group.iter_mapping_batches():
        counts = counts + np.bincount(maps[:, i], minlength=maps.shape[1])
    orbit, stab = np.flatnonzero(counts).astype(np.int64, copy=False), int(counts[i])
    if orbit.size * stab != counts.sum():
        raise AssertionError("orbit-stabilizer identity violated")
    return orbit, stab


def coset_representatives_by_key(group, psi, probes):
    """``coset_representatives`` with a dictionary keyed by each element's
    tuple of probe scores, one element at a time."""
    probes = [np.asarray(p, dtype=float) for p in probes]
    ident = tuple(float(psi(p)) for p in probes)
    reps = {}
    subgroup_size = 0
    for elements, act in iter_actions(group, probes[0].shape):
        sigs = np.stack([np.asarray(psi(act(p)), dtype=float).reshape(-1) for p in probes], 1)
        for r in range(len(elements)):
            key = tuple(sigs[r].tolist())
            if key not in reps:
                reps[key] = elements[r]
            if key == ident:
                subgroup_size += 1
    return CosetDecomposition(
        representatives=[Permutation(g, validate=False) if isinstance(g, np.ndarray) else g
                         for g in reps.values()],
        subgroup_size=subgroup_size,
    )


def read_hierarchical_csv(path):
    """``dataio.read_branch_rows`` grouped by branch.

    Returns (branch_ids, xs, ys, target), where xs is None for unsupervised
    files, ys holds per-branch value arrays with NaN at the target slot, and
    target is (branch_index, row_index); rows keep their file order within a
    branch, and a single x column gives 1-d xs.
    """
    order, branch, x, y, t = read_branch_rows(path)
    by_branch = np.argsort(branch, kind="stable")
    ends = np.cumsum(np.bincount(branch, minlength=len(order))).tolist()
    spans = list(zip([0] + ends, ends))
    y = y[by_branch]
    ys = [y[lo:hi] for lo, hi in spans]
    xs = None
    if x is not None:
        x = x[by_branch, 0] if x.shape[1] == 1 else x[by_branch]
        xs = [x[lo:hi] for lo, hi in spans]
    bi = int(branch[t])
    return order, xs, ys, (bi, int(np.count_nonzero(branch[:t] == bi)))


def read_hierarchical_rows(path):
    """``read_hierarchical_csv`` one row at a time, for well-formed files:
    (branch ids, per-branch x arrays or None, y arrays, target)."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and any(c.strip() for c in r)]
    header = [c.strip().lower() for c in rows[0]]
    bcol = header.index("branch_id")
    ycol = header.index("y") if "y" in header else header.index("value")
    xcols = [i for i, name in enumerate(header) if name == "x" or name.startswith("x_")]
    branches = {}
    for r in rows[1:]:
        yraw = r[ycol].strip() if ycol < len(r) else ""
        x = [float(r[i]) for i in xcols] if xcols else None
        branches.setdefault(r[bcol].strip(), []).append((x, float(yraw) if yraw else np.nan))
    order = list(branches)
    ys = [np.array([y for _, y in branches[b]]) for b in order]
    xs = None
    if xcols:
        xs = [np.array([x for x, _ in branches[b]]) for b in order]
        xs = [x.squeeze(-1) for x in xs] if len(xcols) == 1 else xs
    target = next((bi, int(np.flatnonzero(np.isnan(y))[0])) for bi, y in enumerate(ys)
                  if np.isnan(y).any())
    return order, xs, ys, target
