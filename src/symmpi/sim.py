"""Data generators and the benchmark harness for the hierarchical and
rotational experiments.

Benchmarks draw fresh hierarchical datasets, build each method's prediction
set for the final observation of the last branch on a shared candidate grid,
and aggregate lengths and coverage indicators across trials. All randomness
flows through per-trial generators keyed by (seed, trial) so results are
reproducible under any worker count.

The symmpi method's memberships come from the library's kernels in
``symmpi.calibrate``, run on each test's candidate grid with the truth
appended: unsupervised, ``_hierarchical_members`` (the holes of every score,
or the rank form when studentized or for a block of one test); supervised,
intervals (``_supervised_intervals``). The conformal methods' sets are
intervals with closed-form ends (``calibrate.ConformalIntervals``); the member counts of
every interval set on the uniform grid follow from the grid indices of the
ends (``_interval_rows``), and only the grid points and truths within
rounding of an end are ranked.
A trial first makes every test's draws, in the order a one-test loop makes
them; tests of equal branch sizes are then evaluated a block at a time, with
one count of lengths and coverage per method for the whole block. An
unsupervised block (``_unsup_block``) makes one grid, one
``_hierarchical_members`` call and one set of intervals per conformal method.
A supervised block (``_sup_block``) runs the library's split
(``_split_branches``), one fit of every test's regressors
(``transforms._fit_block``), one pass of centers and one set of intervals
per method.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .calibrate import (
    _ENDS_ROUNDING,
    ConformalIntervals,
    PredictionSet,
    _adaptive_centers,
    _branch_stats,
    _candidate_rows,
    _hierarchical_members,
    _intervals,
    _mass_within,
    _split_branches,
    _supervised_intervals,
    _weighted_pool,
    centered_intervals,
    rank_member,
    score_intervals,
)
from .groups import sample_haar_orthogonal
from .transforms import _fit_block, _fit_lines

ALL_METHODS = ("symmpi", "conformal", "subsampling", "single_tree", "hcp")

# Tests of equal branch sizes are evaluated in blocks whose
# (tests x candidates) arrays hold at most this many floats: 8 tests at a
# 2001-point grid. Larger blocks add peak memory for little time; on a 2-vCPU
# host, blocks of 4 made table-1 cells about 4 % slower and the bench-table
# workload's peak memory 0.6 MB smaller.
_TESTS_BLOCK_FLOATS = 1 << 14


@dataclass(frozen=True)
class HierarchicalConfig:
    """Benchmark configuration for the two-layer hierarchical model.

    ``sigma2`` follows the benchmark tables' column label: it is the scale
    (standard deviation) of the branch-level effects -- branch means in the
    unsupervised model, branch slopes in the supervised one. ``branch_size``
    is the per-branch observation count (unsupervised) or the total count
    before the train/calibration split (supervised); a tuple makes sizes
    random uniform over its entries.
    """

    n_branches: int = 20
    branch_size: int | tuple = 15
    sigma2: float = 10.0
    noise_sd: float = 0.5
    supervised: bool = False
    x_low: float = -0.5
    x_high: float = 0.5
    c: float = 2.0
    alphas: tuple = (0.05, 0.15)
    trials: int = 40
    tests: int = 100
    grid_points: int = 2001
    grid_pad_sd: float = 4.0
    seed: int = 0
    # The benchmark model has equal within-branch noise scales, so the
    # adaptive scores use a unit denominator by default (the branch SD still
    # gates the centering choice). Set True for the fully studentized scores.
    studentize: bool = False

    def __post_init__(self):
        if self.n_branches < 1:
            raise ValueError("need at least one branch")
        if self.noise_sd <= 0:
            raise ValueError("noise_sd must be positive")
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be nonnegative")

    @property
    def random_sizes(self) -> bool:
        return isinstance(self.branch_size, (tuple, list))


# --------------------------------------------------------------------------
# Generators
# --------------------------------------------------------------------------


def gen_unsup(cfg: HierarchicalConfig, rng: np.random.Generator, size: int | None = None):
    """Gaussian branches: mu_k ~ N(0, sigma2^2), z ~ N(mu_k, noise_sd^2).

    Returns (K, M) or (size, K, M) for fixed branch sizes; the final entry of
    the last branch is the held-out truth.
    """
    if cfg.random_sizes:
        raise ValueError("gen_unsup is for fixed sizes; use gen_unsup_ragged")
    K, M = cfg.n_branches, cfg.branch_size
    shape = (K, M) if size is None else (size, K, M)
    mu_shape = (K,) if size is None else (size, K)
    mu = rng.normal(0.0, cfg.sigma2, mu_shape)
    return mu[..., None] + rng.normal(0.0, cfg.noise_sd, shape)


def gen_unsup_ragged(cfg: HierarchicalConfig, rng: np.random.Generator) -> list[np.ndarray]:
    """One dataset with branch sizes drawn uniformly from cfg.branch_size."""
    sizes = rng.choice(np.asarray(cfg.branch_size), size=cfg.n_branches)
    mu = rng.normal(0.0, cfg.sigma2, cfg.n_branches)
    return [mu[k] + rng.normal(0.0, cfg.noise_sd, int(n)) for k, n in enumerate(sizes)]


def gen_sup(cfg: HierarchicalConfig, rng: np.random.Generator):
    """Linear branches: theta_k ~ N(0, sigma2^2), y = theta_k x + noise.

    Returns per-branch lists (x_k, y_k); sizes are cfg.branch_size or drawn
    from it when it is a tuple.
    """
    K = cfg.n_branches
    if cfg.random_sizes:
        sizes = rng.choice(np.asarray(cfg.branch_size), size=K)
    else:
        sizes = np.full(K, cfg.branch_size)
    theta = rng.normal(0.0, cfg.sigma2, K)
    xs, ys = [], []
    for k, n in enumerate(sizes):
        x = rng.uniform(cfg.x_low, cfg.x_high, int(n))
        xs.append(x)
        ys.append(theta[k] * x + rng.normal(0.0, cfg.noise_sd, int(n)))
    return xs, ys


def gen_rotational(n: int, p: int, scale: float, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. points from N(0, scale * I_p): exchangeable and rotation-invariant."""
    return rng.normal(0.0, np.sqrt(scale), (n, p))


# --------------------------------------------------------------------------
# Evaluation of blocks of tests
# --------------------------------------------------------------------------


def _tally(counts, covered, G: int, spacing):
    """Length, covered and unbounded of each row at each alpha, (alphas, 3, R),
    from the member counts among the G grid points, the truth's membership
    (both (alphas, R)) and the (R,) grid spacings."""
    out = np.stack([counts, covered, counts == G], axis=1).astype(float)
    lengths, unbounded = out[:, 0], out[:, 2]
    lengths *= spacing
    lengths[unbounded > 0] = np.inf
    return out


def _member_rows(member, spacing):
    """``_tally`` of the memberships (alphas, R, G) of R rows' candidates,
    whose final candidate is the truth."""
    return _tally(member[:, :, :-1].sum(axis=2), member[:, :, -1], member.shape[2] - 1, spacing)


def _interval_rows(sets, gridp, spacing):
    """``_tally`` of each of the conformal ``sets`` (``ConformalIntervals`` of
    the same B tests and alphas) on each test's uniform grid with its truth
    appended, (B, G + 1); every set at every alpha is one column of the count.

    A set keeps the grid points between its ends. Each end lies between two
    neighbouring grid points, and when the step is at least four rounding
    widths the points beyond those are farther from it than rounding
    reaches, so the member count is the points between the ends' neighbours
    plus the neighbours that ``member`` keeps. A test without closed-form
    ends, or with a finer grid, is counted point by point.
    """
    if not sets:
        return []
    B, G = gridp.shape[0], gridp.shape[1] - 1
    A = len(sets[0].alphas)
    C = len(sets) * A
    lo, hi = gridp[:, :1], gridp[:, G - 1:G]
    step = (hi - lo) / (G - 1)
    # (B, 2, C, 2): the grid point at or below the low and the high end of
    # each column, and the next one
    ends = np.stack([np.concatenate([s.low for s in sets], axis=1),
                     np.concatenate([s.high for s in sets], axis=1)], axis=1)
    first = np.floor(np.clip((ends - lo[:, :, None]) / step[:, :, None], -3, G + 1))
    idx = first.astype(np.intp)[..., None] + np.arange(2)
    points = np.take_along_axis(gridp, np.clip(idx, 0, G - 1).reshape(B, -1), axis=1)
    # every neighbour and truth in every column, (C, B, 4C + 1)
    kept = np.concatenate([s.member(np.concatenate([points, gridp[:, G:]], axis=1))
                           for s in sets])
    # each column's own neighbours, (C, B, 2, 2)
    diag = np.arange(C)
    neighbours = kept[:, :, :-1].reshape(C, B, 2, C, 2)[diag, :, :, diag]
    neighbours &= ((idx >= 0) & (idx < G)).transpose(2, 0, 1, 3)
    lo_first, hi_pair = idx[:, 0, :, 0].T, idx[:, 1].transpose(1, 0, 2)
    # the high end's neighbours that are not the low end's
    apart = (hi_pair < lo_first[..., None]) | (hi_pair >= lo_first[..., None] + 2)
    inner = np.maximum(np.minimum(hi_pair[..., 0], G) - np.maximum(lo_first + 2, 0), 0)
    counts = (neighbours[:, :, 0].sum(axis=2) + (neighbours[:, :, 1] & apart).sum(axis=2)
              + inner)
    covered = kept[:, :, -1]
    magnitude = np.maximum(np.abs(lo), np.abs(hi))
    for k, s in enumerate(sets):
        fine = (4 * _ENDS_ROUNDING * (s.scale + magnitude) >= step)[:, 0]
        rows = np.flatnonzero(s.ranked | fine)
        if rows.size:
            member = s.member(gridp[rows], rows)
            counts[k * A:(k + 1) * A, rows] = member[:, :, :-1].sum(axis=2)
            covered[k * A:(k + 1) * A, rows] = member[:, :, -1]
    return np.split(_tally(counts, covered, G, spacing), len(sets))


def _grid_frame(observed, truth, cfg):
    """Each test's candidate grid over its observed values (B, n), with its
    truth appended, and the grid spacings."""
    grid = _candidate_rows(observed, cfg.grid_points, cfg.grid_pad_sd)
    return np.concatenate([grid, truth[:, None]], axis=1), grid[:, 1] - grid[:, 0]


def _hcp_intervals(donors, sizes, alphas) -> ConformalIntervals:
    """The first-observation-of-a-new-branch sets of B tests.

    Scores are deviations from the average of the complete branches' means;
    the threshold is the branch-weighted quantile over those branches (each
    contributing equal total mass regardless of its size), so the set is the
    average -+ that quantile of |v - average|. Unlike the library's
    ``hcp_first_obs_set``, the candidate is left out of both the average and
    the quantile.
    """
    K = sizes.size
    means, _ = _branch_stats(donors, sizes)
    # the branch means added left to right, as Python's sum adds them
    grand = np.cumsum(means, axis=1)[:, -1:] / K
    weights = np.repeat(1.0 / (K * sizes), sizes)

    def below(points, rows):
        center = np.broadcast_to(grand[rows], points.shape)
        return _mass_within(*_weighted_pool(donors[rows], weights), center,
                            np.abs(points - center))

    mirror = 2 * grand - donors
    return _intervals(np.minimum(donors, mirror), np.maximum(donors, mirror), alphas, below,
                      np.abs(donors).max(axis=1, keepdims=True), weights)


def _unsup_block(flat, sizes, picks, cfg, methods):
    """Rows of B unsupervised tests that share branch sizes.

    ``flat`` (B, T) holds each test's branches end to end, branch k with
    ``sizes[k]`` values, and the truth as the target branch's final value;
    ``picks`` (B, K - 1) holds the subsampling draws. Returns, per method, the
    (alphas, 3, B) array of ``_member_rows``.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    n_donor = int(sizes[:-1].sum())
    observed, truth = flat[:, :-1], flat[:, -1]
    donors, target = flat[:, :n_donor], flat[:, n_donor:-1]
    gridp, spacing = _grid_frame(observed, truth, cfg)
    alphas = cfg.alphas
    sets = {
        "conformal": lambda: centered_intervals(observed, alphas),
        "subsampling": lambda: centered_intervals(picks, alphas),
        "single_tree": lambda: centered_intervals(target, alphas),
        "hcp": lambda: _hcp_intervals(donors, sizes[:-1], alphas),
    }
    return _block_rows(methods, sets, gridp, spacing,
                       lambda: _hierarchical_members(donors, sizes[:-1], target, gridp, cfg.c,
                                                    cfg.studentize, alphas, gridp.shape[1] - 1))


def _block_rows(methods, sets, gridp, spacing, symmpi=None):
    """Each method's (alphas, 3, B) rows: those of methods with intervals
    (``sets[m]()``) counted in one ``_interval_rows`` pass, and symmpi's from
    its memberships (``symmpi()``) when it has no intervals."""
    rows = {"symmpi": _member_rows(symmpi(), spacing)} if symmpi and "symmpi" in methods else {}
    named = [m for m in sets if m in methods]
    rows.update(zip(named, _interval_rows([sets[m]() for m in named], gridp, spacing)))
    return {m: rows[m] for m in ALL_METHODS if m in methods}


def _picks(flat, sizes, rng):
    """The subsampling method's draws: one value of each donor branch of
    ``flat``, whose branches lie end to end, branch k with ``sizes[k]``
    values, the target branch last. One ``rng.integers`` call over the donor
    sizes draws what one call per branch would."""
    donor = np.asarray(sizes[:-1])
    return flat[np.cumsum(donor) - donor + rng.integers(donor)]


def _draw_unsup(cfg, rng, methods):
    """One unsupervised test's draws, in the harness's order: the data, then
    the subsampling picks. Returns (sizes, (values end to end with the truth
    last,), picks or None)."""
    if cfg.random_sizes:
        branches = gen_unsup_ragged(cfg, rng)
        sizes, flat = tuple(b.size for b in branches), np.concatenate(branches)
    else:
        z = gen_unsup(cfg, rng)
        sizes, flat = (z.shape[1],) * z.shape[0], z.reshape(-1)
    picks = _picks(flat, sizes, rng) if "subsampling" in methods else None
    return sizes, (flat,), picks


def _unsup_eval(branches, cfg, rng, methods):
    """One test's (alphas, 3) rows per method; ``branches`` has the truth
    appended to the last one. This is ``_unsup_block`` for one test."""
    flat, sizes = np.concatenate(branches), [np.size(b) for b in branches]
    picks = _picks(flat, sizes, rng)[None] if "subsampling" in methods else None
    res = _unsup_block(flat[None], sizes, picks, cfg, methods)
    return {m: r[:, :, 0] for m, r in res.items()}


def _sup_block(x, y, sizes, picks, cfg, methods):
    """Rows of B supervised tests that share branch sizes.

    ``x`` and ``y`` (B, T) hold each test's branches end to end, branch k
    with ``sizes[k]`` rows, the truth as the target branch's final response;
    ``picks`` (B, K - 1) holds the subsampling draws, a position in each
    donor branch's calibration rows. Every method reads the calibration rows
    of ``_split_branches``; the regressors of all B tests are one
    ``_fit_block``. Returns, per method, the (alphas, 3, B) array of ``_member_rows``.
    """
    train, n_train, n_cal = _split_branches(sizes)
    # compress keeps each test's rows contiguous, so that sums and searches
    # run along a row as they do on one test
    tr_x, tr_y = np.compress(train, x, axis=1)[..., None], np.compress(train, y, axis=1)
    cal_x, cal_y = np.compress(~train, x, axis=1)[..., None], np.compress(~train, y, axis=1)
    mu_p, center = _adaptive_centers(_fit_block(tr_x, tr_y, n_train), cal_x, n_cal, cfg.c)
    obs_y, truth = cal_y[:, :-1], cal_y[:, -1]
    gridp, spacing = _grid_frame(obs_y, truth, cfg)
    pooled, alphas = np.abs(obs_y - mu_p[:, :-1]), cfg.alphas

    def single_tree():
        # the target branch's own line; its rows end the training rows and
        # the calibration rows, whose last is the truth's
        m_tr, m_cal = int(n_train[-1]), int(n_cal[-1])
        solo, _ = _fit_lines(tr_x[:, -m_tr:], tr_y[:, -m_tr:])
        cal_scores = np.abs(cal_y[:, -m_cal:-1] - solo.predict(cal_x[:, -m_cal:-1]))
        return score_intervals(cal_scores, alphas, solo.predict(cal_x[:, -1:]))

    starts = np.cumsum(n_cal) - n_cal
    sets = {
        "symmpi": lambda: _supervised_intervals(np.abs(obs_y - center[:, :-1]), n_cal,
                                                center[:, -1:], alphas, cfg.studentize),
        "conformal": lambda: score_intervals(pooled, alphas, mu_p[:, -1:]),
        "subsampling": lambda: score_intervals(
            np.take_along_axis(pooled, starts[:-1] + picks, axis=1), alphas, mu_p[:, -1:]),
        "single_tree": single_tree,
    }
    return _block_rows(methods, sets, gridp, spacing)


def _sup_picks(sizes, rng):
    """The subsampling method's draws: a position in each donor branch's
    calibration rows, from one ``rng.integers`` call (the stream of one call
    per branch)."""
    return rng.integers(_split_branches(sizes)[2][:-1])


def _draw_sup(cfg, rng, methods):
    """One supervised test's draws, in the harness's order: the data, then
    the subsampling picks. Returns (sizes, (x, y end to end with the truth
    last), picks or None)."""
    xs, ys = gen_sup(cfg, rng)
    sizes = tuple(y.size for y in ys)
    picks = _sup_picks(sizes, rng) if "subsampling" in methods else None
    return sizes, (np.concatenate(xs), np.concatenate(ys)), picks


def _sup_eval(xs, ys, cfg, rng, methods):
    """Supervised evaluation of one test, (alphas, 3) rows per method;
    per-branch feature/response arrays, the truth last. This is
    ``_sup_block`` for one test."""
    sizes = [np.size(y) for y in ys]
    picks = _sup_picks(sizes, rng)[None] if "subsampling" in methods else None
    res = _sup_block(np.concatenate(xs)[None], np.concatenate(ys)[None], sizes, picks, cfg,
                     methods)
    return {m: r[:, :, 0] for m, r in res.items()}


# --------------------------------------------------------------------------
# Benchmark driver
# --------------------------------------------------------------------------


@dataclass
class BenchRow:
    method: str
    alpha: float
    sigma2: float
    mean_length: float
    se_length: float
    mean_coverage: float
    se_coverage: float
    unbounded_rate: float


def _run_trial(cfg: HierarchicalConfig, methods, trial: int):
    """Per (method, alpha index): the trial's mean finite length, coverage
    and unbounded rate. Every test's draws come first, in order; tests of
    equal branch sizes are then evaluated in blocks (``_unsup_block`` or
    ``_sup_block``)."""
    rng = np.random.default_rng((cfg.seed, trial))
    rows = {m: np.empty((len(cfg.alphas), 3, cfg.tests)) for m in methods}
    draw, evaluate = (_draw_sup, _sup_block) if cfg.supervised else (_draw_unsup, _unsup_block)
    draws = [draw(cfg, rng, methods) for _ in range(cfg.tests)]
    by_sizes = {}
    for t, (sizes, _, _) in enumerate(draws):
        by_sizes.setdefault(sizes, []).append(t)
    block = max(1, _TESTS_BLOCK_FLOATS // (cfg.grid_points + 1))
    for sizes, tests in by_sizes.items():
        for i in range(0, len(tests), block):
            chunk = tests[i:i + block]
            data = [np.stack(arrays) for arrays in zip(*(draws[t][1] for t in chunk))]
            picks = None
            if "subsampling" in methods:
                picks = np.stack([draws[t][2] for t in chunk])
            for m, r in evaluate(*data, sizes, picks, cfg, methods).items():
                rows[m][:, :, chunk] = r
    summary = {}
    for m, r in rows.items():
        for ai in range(len(cfg.alphas)):
            lengths, covers, unbounded = r[ai]
            finite = lengths[np.isfinite(lengths)]
            mean_len = float(np.mean(finite)) if finite.size else float("inf")
            rate = float(unbounded.sum()) / cfg.tests
            summary[(m, ai)] = (mean_len, float(np.mean(covers)), rate)
    return summary


def run_benchmark(
    cfg: HierarchicalConfig,
    methods=("symmpi", "conformal", "subsampling", "single_tree"),
    threads: int = 1,
) -> list[BenchRow]:
    """Run the benchmark protocol and aggregate per-trial averages.

    Reported spread is the across-trial sample SD of the per-trial averages.
    Trials whose lengths are all unbounded contribute Inf and are excluded
    from finite-length averaging (the table then shows Inf).
    """
    for m in methods:
        if m not in ALL_METHODS:
            raise ValueError(f"unknown method {m!r}")
    if cfg.supervised and "hcp" in methods:
        raise ValueError("the first-observation method is unsupervised-only here")
    trials = list(range(cfg.trials))
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            per_trial = list(
                pool.map(_run_trial, [cfg] * len(trials), [methods] * len(trials), trials)
            )
    else:
        per_trial = [_run_trial(cfg, methods, t) for t in trials]

    rows = []
    for ai, alpha in enumerate(cfg.alphas):
        for m in methods:
            lens = np.array([pt[(m, ai)][0] for pt in per_trial])
            covs = np.array([pt[(m, ai)][1] for pt in per_trial])
            unb = np.array([pt[(m, ai)][2] for pt in per_trial])
            finite = lens[np.isfinite(lens)]
            mean_len = float(finite.mean()) if finite.size else float("inf")
            se_len = float(finite.std(ddof=1)) if finite.size > 1 else 0.0
            rows.append(
                BenchRow(
                    method=m,
                    alpha=alpha,
                    sigma2=cfg.sigma2,
                    mean_length=mean_len,
                    se_length=se_len,
                    mean_coverage=float(covs.mean()),
                    se_coverage=float(covs.std(ddof=1)) if covs.size > 1 else 0.0,
                    unbounded_rate=float(unb.mean()),
                )
            )
    return rows


def bench_table(rows: list[BenchRow]) -> str:
    """Plain-text table of benchmark rows, one line per (alpha, method)."""
    lines = [
        f"{'alpha':>6} {'method':>12} {'sigma2':>7} {'length':>16} {'coverage':>16} {'unbounded':>9}"
    ]
    for r in rows:
        length = (
            "Inf" if not np.isfinite(r.mean_length) else f"{r.mean_length:.3f} ({r.se_length:.3f})"
        )
        cov = f"{r.mean_coverage:.3f} ({r.se_coverage:.3f})"
        lines.append(
            f"{r.alpha:>6} {r.method:>12} {r.sigma2:>7} {length:>16} {cov:>16} {r.unbounded_rate:>9.2f}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Rotationally invariant prediction
# --------------------------------------------------------------------------


def _rotation_draws(z, mc_draws: int, rng: np.random.Generator):
    """The Monte-Carlo orbit draws of the rotation score -|first coordinate|
    over n observed points and one held-out point: each draw picks one of
    the n + 1 points and a uniform direction (a rotated vector's first
    coordinate is its projection on it in law). Returns the scores of the
    draws that picked an observed point, and the directions of those that
    picked the held-out one, (draws, p)."""
    n, p = z.shape
    idx = rng.integers(0, n + 1, mc_draws)
    W = rng.standard_normal((mc_draws, p))
    Wn = W / np.linalg.norm(W, axis=1, keepdims=True)
    fixed_mask = idx < n
    fixed_scores = -np.abs(np.einsum("mp,mp->m", Wn[fixed_mask], z[idx[fixed_mask]]))
    return fixed_scores, Wn[~fixed_mask]


def rotation_region(
    observed,
    alpha: float,
    mc_draws: int = 400,
    rng: np.random.Generator | None = None,
    grid_points: int = 2001,
) -> PredictionSet:
    """Region for the next point keeping |first coordinate| large.

    The score is -|z_1| of the held-out point; its orbit under joint
    permutation and rotation is sampled via uniform index draws and Gaussian
    projections (a rotated vector's first coordinate matches w.z/||w|| in
    law). Away from the first axis the kept region is the complement of a
    vertical strip |z_1| < C, so the grid scans candidates (x, h, 0, ...)
    at the observed RMS transverse height h; points very close to the axis
    itself are always covered (their own score is their orbit minimum).
    The boundary C is in ``meta['strip_halfwidth']``. The grid needs
    ``grid_points`` >= 2.
    """
    if grid_points < 2:
        raise ValueError(f"a candidate grid needs at least 2 points, got {grid_points}")
    rng = rng or np.random.default_rng()
    z = np.asarray(observed, dtype=float)
    p = z.shape[1]
    fixed_scores, w_cand = _rotation_draws(z, mc_draws, rng)

    height = float(np.sqrt(np.mean(z[:, 1:] ** 2))) if p > 1 else 0.0
    radius = float(np.abs(z).max()) * 1.5 + 1.0
    grid = np.linspace(-radius, radius, grid_points)
    own = -np.abs(grid)
    # candidate draw scores at the representative point (x, h, 0, ...)
    trans = w_cand[:, 1] * height if p > 1 else 0.0
    cand_scores = -np.abs(w_cand[:, 0][None, :] * grid[:, None] + trans[None, :])
    below = (fixed_scores[None, :] < own[:, None]).sum(axis=1)
    below = below + (cand_scores < own[:, None]).sum(axis=1)
    member = rank_member(below / (mc_draws + 1), alpha)
    kept = np.abs(grid[member])
    strip = float(kept.min()) if member.any() and not member.all() else 0.0
    return PredictionSet(
        grid,
        member,
        unbounded=bool(member.all()),
        meta={"strip_halfwidth": strip, "mc_draws": mc_draws, "transverse_height": height},
    )


def rotation_region_covers(
    observed,
    test_points,
    alpha: float,
    mc_draws: int = 400,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Membership of each fresh point in its own completed-data region."""
    rng = rng or np.random.default_rng()
    z = np.asarray(observed, dtype=float)
    tp = np.atleast_2d(np.asarray(test_points, dtype=float))
    fixed_scores, w_cand = _rotation_draws(z, mc_draws, rng)
    cand_scores = -np.abs(tp @ w_cand.T)
    own = -np.abs(tp[:, 0])
    below = (fixed_scores[None, :] < own[:, None]).sum(axis=1)
    below = below + (cand_scores < own[:, None]).sum(axis=1)
    return rank_member(below / (mc_draws + 1), alpha)


def rotation_supervised_set(
    x,
    y,
    x_new,
    score,
    candidates,
    alpha: float,
    mc_draws: int = 400,
    rng: np.random.Generator | None = None,
) -> PredictionSet:
    """Supervised set under joint permutation-rotation invariance of features.

    ``score(y_values, x_points)`` must return nonconformity values and be
    vectorized; calibration scores are sampled at rotated feature vectors
    while each candidate's own score uses the unrotated ``x_new``.
    """
    rng = rng or np.random.default_rng()
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    x_new = np.asarray(x_new, dtype=float)
    cands = np.asarray(candidates, dtype=float)
    n, p = x.shape
    idx = rng.integers(0, n + 1, mc_draws)
    rotations = [sample_haar_orthogonal(p, rng) for _ in range(mc_draws)]

    fixed_scores = []
    cand_cols = []
    for j, O in zip(idx, rotations):
        if j < n:
            fixed_scores.append(float(score(np.array([y[j]]), (O @ x[j])[None, :])[0]))
        else:
            xr = np.tile(O @ x_new, (cands.size, 1))
            cand_cols.append(np.asarray(score(cands, xr), dtype=float))
    fixed_scores = np.asarray(fixed_scores)
    cand_mat = np.stack(cand_cols, axis=1) if cand_cols else np.empty((cands.size, 0))
    own = np.asarray(score(cands, np.tile(x_new, (cands.size, 1))), dtype=float)

    below = (fixed_scores[None, :] < own[:, None]).sum(axis=1)
    below = below + (cand_mat < own[:, None]).sum(axis=1)
    member = rank_member(below / (mc_draws + 1), alpha)
    return PredictionSet(cands, member, unbounded=bool(member.all()))
