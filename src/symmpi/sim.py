"""Data generators, hierarchical and rotational, and the benchmark harness
for the hierarchical experiments, which only ``symmpi bench`` runs; the
rotation sets live in ``calibrate``, and the harness builds no set.

Benchmarks draw fresh hierarchical datasets, count each method's set for
the final observation of the last branch on a shared candidate grid, and
aggregate lengths and coverage indicators across trials. All randomness
flows through per-trial generators keyed by (seed, trial) so results are
reproducible under any worker count and any grouping of tests into blocks.

The symmpi method's member counts come from the library's kernels, run on
each test's candidate grid and its truth: unsupervised,
``holes._hierarchical_counts`` (the holes of every score, counted segment by
segment along the grid, or the rank form when studentized or for a block of
one test); supervised, intervals (``calibrate._supervised_intervals``). The
conformal methods' sets are intervals with closed-form ends
(``calibrate.ConformalIntervals``); the member counts of every interval set
on the uniform grid follow from the grid indices of the ends
(``_interval_rows``), and only the grid points and truths within rounding of
an end are ranked. Each test's grid is a frame (``calibrate._Grids``, from
``_grid_frame``): its first and last value and its size, read at the
indices the kernels ask for. Only the rank form forms a test's whole grid,
and only for the tests it ranks.
Trials are drawn in order, each test's draws in the order a one-test loop
makes them (``_run_trials``). Tests of equal branch sizes gather in pending
blocks that may span trials, and all pending tests are evaluated once they
number one block (65 tests at the default grid unless the scores are
studentized), with one count of lengths and coverage per method for each
block. An unstudentized block forms no (tests x candidates) array. Several
threads run contiguous chunks of the trials through the same function.
An unsupervised block (``_unsup_block``) makes one frame of grids, one
``_hierarchical_counts`` call and one set of intervals per conformal method.
A supervised block (``_sup_block``) runs the library's split
(``_split_branches``), one fit of every test's regressors and one pass of
centers (``calibrate._fit_centers``, which the library's and the command
line's supervised set run on one test) and one set of intervals per method.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from operator import itemgetter

import numpy as np

from .calibrate import (
    _ENDS_ROUNDING,
    ConformalIntervals,
    _branch_stats,
    _candidate_rows,
    _check_c,
    _fit_centers,
    _split_branches,
    _supervised_intervals,
    _uniform_grids,
    centered_intervals,
    score_intervals,
)
from .dataio import BenchRow
from .holes import _hierarchical_counts
from .transforms import _fit_lines

ALL_METHODS = ("symmpi", "conformal", "subsampling", "single_tree", "hcp")

# Tests of equal branch sizes are evaluated in blocks of at most this many
# floats' worth of (tests x candidates): 65 tests at a 2001-point grid, from
# one trial or several. Unstudentized blocks form no such array (the grids
# are frames, read at their indices), and their kernels' arrays grow with
# the tests, not with the grid. On a 2-vCPU host, bench-table's median op
# time fell 29 % when 8-test blocks became whole trials counted by the event
# kernel of ``symmpi.holes``. Studentized runs keep blocks of at most the
# second, 8 tests: the unsupervised rank form builds its grid rows and
# several (tests x candidates) arrays per donor, and whole-trial studentized
# blocks raised the peak memory of a studentized bench process.
_TESTS_BLOCK_FLOATS = 1 << 17
_STUDENTIZED_BLOCK_FLOATS = 1 << 14


def _check_sigma2(sigma2: float) -> None:
    """The benchmark's spread of branch effects: a nonnegative number."""
    if not sigma2 >= 0:  # NaN fails too
        raise ValueError(f"sigma2 must be nonnegative, got {sigma2!r}")


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
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.tests < 1:
            raise ValueError(f"tests must be at least 1, got {self.tests}")
        if not len(self.alphas):
            raise ValueError("need at least one alpha")
        if not self.noise_sd > 0:  # NaN fails too
            raise ValueError(f"noise_sd must be positive, got {self.noise_sd!r}")
        _check_sigma2(self.sigma2)
        _check_c(self.c)

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
    sizes, x, y = _sup_arrays(cfg, rng)
    bounds = np.cumsum(sizes)[:-1]
    return np.split(x, bounds), np.split(y, bounds)


def _sup_arrays(cfg: HierarchicalConfig, rng: np.random.Generator):
    """``gen_sup``'s draws with the branches end to end: the sizes, x and y.

    Each branch's uniforms and standard normals are drawn in turn into two
    rows, and x, the noise and y are formed once. ``x_low + (x_high - x_low)
    u`` and ``0.0 + noise_sd z`` are the generator's own ``uniform`` and
    ``normal`` arithmetic, so the arrays and the stream are those of one
    ``uniform`` and one ``normal`` call per branch."""
    K = cfg.n_branches
    if cfg.random_sizes:
        sizes = rng.choice(np.asarray(cfg.branch_size), size=K)
    else:
        sizes = np.full(K, cfg.branch_size)
    theta = rng.normal(0.0, cfg.sigma2, K)
    ends = np.cumsum(sizes).tolist()
    u, z = np.empty(ends[-1]), np.empty(ends[-1])
    for start, end in zip([0] + ends, ends):
        rng.random(out=u[start:end])
        rng.standard_normal(out=z[start:end])
    x = cfg.x_low + (cfg.x_high - cfg.x_low) * u
    return sizes, x, np.repeat(theta, sizes) * x + (0.0 + cfg.noise_sd * z)


def gen_rotational(n: int, p: int, scale: float, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. points from N(0, scale * I_p): exchangeable and rotation-invariant."""
    return rng.normal(0.0, np.sqrt(scale), (n, p))


# --------------------------------------------------------------------------
# Evaluation of blocks of tests
# --------------------------------------------------------------------------


def _tally(counts, covered, grids):
    """Length, covered and unbounded of each row at each alpha, (alphas, 3, R),
    from the member counts among the points of each row's grid (``grids``,
    R ``calibrate._Grids``) and the truth's membership, both (alphas, R)."""
    out = np.stack([counts, covered, counts == grids.size], axis=1).astype(float)
    lengths, unbounded = out[:, 0], out[:, 2]
    lengths *= grids.spacing()
    lengths[unbounded > 0] = np.inf
    return out


def _interval_rows(sets, grids, extras):
    """``_tally`` of each of the conformal ``sets`` (``ConformalIntervals`` of
    the same B tests and alphas) on each test's uniform grid (``grids``) and
    its truth, the one column of ``extras`` (B, 1); every set at every alpha
    is one column of the count.

    A set keeps the grid points between its ends. Each end lies between two
    neighbouring grid points, and when the step is at least four rounding
    widths the points beyond those are farther from it than rounding
    reaches, so the member count is the points between the ends' neighbours
    plus the neighbours that ``member`` keeps. Only the neighbours are read
    off the grid. A test without closed-form ends, or with a finer grid, is
    counted point by point on its grid's row (``_candidate_rows``).
    """
    if not sets:
        return []
    B, G = len(extras), grids.size
    A = len(sets[0].alphas)
    C = len(sets) * A
    # point 0 is first, but for the sign of a zero
    lo, hi = grids.at(0), grids.last
    step = (hi - lo) / (G - 1)
    # (B, 2, C, 2): the grid point at or below the low and the high end of
    # each column, and the next one
    ends = np.stack([np.concatenate([s.low for s in sets], axis=1),
                     np.concatenate([s.high for s in sets], axis=1)], axis=1)
    first = np.floor(np.clip((ends - lo[:, :, None]) / step[:, :, None], -3, G + 1))
    idx = first.astype(np.intp)[..., None] + np.arange(2)
    points = grids.at(np.clip(idx, 0, G - 1).reshape(B, -1))
    # every neighbour and truth in every column, (C, B, 4C + 1)
    kept = np.concatenate([s.member(np.concatenate([points, extras], axis=1)) for s in sets])
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
            member = s.member(_candidate_rows(grids.take(rows), extras[rows]), rows)
            counts[k * A:(k + 1) * A, rows] = member[:, :, :-1].sum(axis=2)
            covered[k * A:(k + 1) * A, rows] = member[:, :, -1]
    return np.split(_tally(counts, covered, grids), len(sets))


def _grid_frame(observed, truth, cfg):
    """Each test's candidate grid over its observed values (B, n), as
    ``calibrate._Grids``, and its truth as the one extra candidate, (B, 1)."""
    return _uniform_grids(observed, cfg.grid_points, cfg.grid_pad_sd), truth.reshape(-1, 1)


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
    if not K:
        # no complete branch, no score: the set keeps every candidate
        return score_intervals(donors, alphas, np.zeros((donors.shape[0], 1)), np.ones(0))
    means, _ = _branch_stats(donors, sizes)
    # the branch means added left to right, as Python's sum adds them
    grand = np.cumsum(means, axis=1)[:, -1:] / K
    return score_intervals(np.abs(donors - grand), alphas, grand,
                           np.repeat(1.0 / (K * sizes), sizes))


def _unsup_block(flat, sizes, picks, cfg, methods):
    """Rows of B unsupervised tests that share branch sizes.

    ``flat`` (B, T) holds each test's branches end to end, branch k with
    ``sizes[k]`` values, and the truth as the target branch's final value;
    ``picks`` (B, K - 1) holds the subsampling draws. Returns, per method, the
    (alphas, 3, B) array of ``_tally``.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    n_donor = int(sizes[:-1].sum())
    observed, truth = flat[:, :-1], flat[:, -1]
    donors, target = flat[:, :n_donor], flat[:, n_donor:-1]
    grids, extras = _grid_frame(observed, truth, cfg)
    alphas = cfg.alphas
    sets = {
        "conformal": lambda: centered_intervals(observed, alphas),
        "subsampling": lambda: centered_intervals(picks, alphas),
        "single_tree": lambda: centered_intervals(target, alphas),
        "hcp": lambda: _hcp_intervals(donors, sizes[:-1], alphas),
    }
    return _block_rows(methods, sets, grids, extras,
                       lambda: _hierarchical_counts(donors, sizes[:-1], target, grids, extras,
                                                    cfg.c, cfg.studentize, alphas))


def _block_rows(methods, sets, grids, extras, symmpi=None):
    """Each method's (alphas, 3, B) rows: those of methods with intervals
    (``sets[m]()``) counted in one ``_interval_rows`` pass, and symmpi's from
    its member counts and the truth's membership (``symmpi()``) when it has no
    intervals."""
    rows = {}
    if symmpi and "symmpi" in methods:
        counts, covered = symmpi()
        rows["symmpi"] = _tally(counts, covered[:, :, 0], grids)
    named = [m for m in sets if m in methods]
    rows.update(zip(named, _interval_rows([sets[m]() for m in named], grids, extras)))
    return {m: rows[m] for m in ALL_METHODS if m in methods}


def _picks(flat, sizes, rng):
    """The subsampling method's draws: one value of each donor branch of
    ``flat``, whose branches lie end to end, branch k with ``sizes[k]``
    values, the target branch last; none without donors. One
    ``rng.integers`` call over the donor sizes draws what one call per branch
    would."""
    donor = np.asarray(sizes[:-1], dtype=np.intp)
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
    of ``_split_branches``; the regressors and centers of all B tests are one
    ``_fit_centers`` call. Returns, per method, the (alphas, 3, B) array of
    ``_tally``.
    """
    train, n_train, n_cal = _split_branches(sizes)
    # compress keeps each test's rows contiguous, so that sums and searches
    # run along a row as they do on one test
    tr_x, tr_y = np.compress(train, x, axis=1)[..., None], np.compress(train, y, axis=1)
    cal_x, cal_y = np.compress(~train, x, axis=1)[..., None], np.compress(~train, y, axis=1)
    mu_p, center = _fit_centers(tr_x, tr_y, n_train, cal_x, n_cal, cfg.c)
    obs_y, truth = cal_y[:, :-1], cal_y[:, -1]
    grids, extras = _grid_frame(obs_y, truth, cfg)
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
    return _block_rows(methods, sets, grids, extras)


@lru_cache(maxsize=16)
def _donor_cal_sizes(sizes: tuple) -> np.ndarray:
    """The donor branches' calibration sizes of ``_split_branches(sizes)``,
    read-only: one split per sizes tuple."""
    n_cal = _split_branches(sizes)[2][:-1]
    n_cal.flags.writeable = False
    return n_cal


def _sup_picks(sizes, rng):
    """The subsampling method's draws: a position in each donor branch's
    calibration rows, from one ``rng.integers`` call (the stream of one call
    per branch)."""
    return rng.integers(_donor_cal_sizes(tuple(sizes)))


def _draw_sup(cfg, rng, methods):
    """One supervised test's draws, in the harness's order: the data, then
    the subsampling picks. Returns (sizes, (x, y end to end with the truth
    last), picks or None)."""
    sizes, x, y = _sup_arrays(cfg, rng)
    sizes = tuple(sizes.tolist())
    picks = _sup_picks(sizes, rng) if "subsampling" in methods else None
    return sizes, (x, y), picks


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


def _run_trials(cfg: HierarchicalConfig, methods, trials) -> list[dict]:
    """Per trial of ``trials``, in order: its mean finite length, coverage
    and unbounded rate per (method, alpha index).

    Each trial draws its tests in order from its own generator, keyed by
    (seed, trial). Tests of equal branch sizes gather in pending blocks that
    may span trials; once the pending tests number one block, all of them
    are evaluated (``_unsup_block`` or ``_sup_block``), and so are the last
    ones. A trial's tests are independent rows of their blocks, so its
    summary does not depend on the blocks, nor on which trials share a call.
    """
    draw, evaluate = (_draw_sup, _sup_block) if cfg.supervised else (_draw_unsup, _unsup_block)
    block = max(1, (_STUDENTIZED_BLOCK_FLOATS if cfg.studentize else _TESTS_BLOCK_FLOATS)
                // (cfg.grid_points + 1))
    shape = (len(cfg.alphas), 3, cfg.tests)
    rows, summaries = {}, []  # the rows of the trials not yet summarized
    pending, held = {}, 0  # sizes: [(trial index, test, draws)]

    def flush(complete):
        """Evaluates every pending test, then summarizes the trials before
        the ``complete``-th."""
        for sizes, tests in pending.items():
            data = [np.stack(arrays) for arrays in zip(*(d[1] for _, _, d in tests))]
            picks = np.stack([d[2] for _, _, d in tests]) if "subsampling" in methods else None
            res = evaluate(*data, sizes, picks, cfg, methods)
            # the block's tests by trial, in order
            j = 0
            for k, run in groupby(tests, itemgetter(0)):
                t = [test for _, test, _ in run]
                for m, r in res.items():
                    rows[k][m][:, :, t] = r[:, :, j:j + len(t)]
                j += len(t)
        pending.clear()
        for k in [k for k in rows if k < complete]:
            summaries.append(_trial_summary(rows.pop(k), cfg))

    for k, trial in enumerate(trials):
        rng = np.random.default_rng((cfg.seed, trial))
        rows[k] = {m: np.empty(shape) for m in methods}
        for t in range(cfg.tests):
            d = draw(cfg, rng, methods)
            pending.setdefault(d[0], []).append((k, t, d))
            held += 1
            if held == block:
                flush(k)
                held = 0
    flush(len(trials))
    return summaries


def _trial_summary(rows, cfg) -> dict:
    """One trial's mean finite length, coverage and unbounded rate per
    (method, alpha index), from its tests' rows, (alphas, 3, tests) per
    method."""
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
    if threads > 1:
        # imported here: the executor pulls in multiprocessing, which no
        # single-threaded run or CLI call needs at start-up
        from concurrent.futures import ProcessPoolExecutor

        # contiguous chunks of trials, one per worker
        parts = min(threads, cfg.trials)
        chunks = [range(i * cfg.trials // parts, (i + 1) * cfg.trials // parts)
                  for i in range(parts)]
        with ProcessPoolExecutor(max_workers=parts) as pool:
            per_trial = [s for part in pool.map(_run_trials, [cfg] * parts, [methods] * parts,
                                                  chunks) for s in part]
    else:
        per_trial = _run_trials(cfg, methods, range(cfg.trials))

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
