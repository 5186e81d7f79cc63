"""Data generators and the benchmark harness for the hierarchical and
rotational experiments.

Benchmarks draw fresh hierarchical datasets, build each method's prediction
set for the final observation of the last branch on a shared candidate grid,
and aggregate lengths and coverage indicators across trials. All randomness
flows through per-trial generators keyed by (seed, trial) so results are
reproducible under any worker count.

Set membership comes from the library's rank-form kernels in
``symmpi.calibrate``, run once per test on the candidate grid with the truth
appended; each alpha then only applies ``rank_member`` to the same masses.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .calibrate import (
    PredictionSet,
    _adaptive_centers,
    _branch_mass,
    candidate_grid,
    centered_conformal_below,
    conformal_below,
    hierarchical_below,
    rank_member,
    supervised_below,
)
from .groups import sample_haar_orthogonal
from .transforms import fit_linear, fit_regressors

ALL_METHODS = ("symmpi", "conformal", "subsampling", "single_tree", "hcp")


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
# Per-test evaluation
# --------------------------------------------------------------------------


def _finish(member, spacing):
    """(length, covered, unbounded) with the final grid entry as the truth."""
    unbounded = bool(member[:-1].all())
    length = float("inf") if unbounded else float(member[:-1].sum()) * spacing
    return length, bool(member[-1]), unbounded


def _rows(below, alphas, spacing):
    """One (length, covered, unbounded) row per alpha from the below-own masses."""
    return [_finish(rank_member(below, alpha), spacing) for alpha in alphas]


class _TestFrame:
    """Shared per-test context: candidate grid plus the appended truth."""

    def __init__(self, observed_pool, truth, cfg):
        grid = candidate_grid(observed_pool, cfg.grid_points, cfg.grid_pad_sd)
        self.spacing = float(grid[1] - grid[0])
        self.gridp = np.append(grid, truth)


def _hcp_rows(donor_branches, frame, alphas, spacing):
    """First-observation-of-a-new-branch rows.

    Scores are deviations from the average of the complete branches' means;
    the threshold is the branch-weighted quantile over those branches (each
    contributing equal total mass regardless of its size). Unlike the
    library's ``hcp_first_obs_set``, the candidate is left out of both the
    average and the quantile.
    """
    K = len(donor_branches)
    grand = sum(float(np.mean(b)) for b in donor_branches) / K
    own = np.abs(frame.gridp - grand)
    below = _branch_mass(donor_branches, grand, own, K)
    return _rows(below, alphas, spacing)


def _unsup_eval(branches, cfg, rng, methods):
    """Per-test evaluation; ``branches`` has the truth appended to the last one."""
    truth = float(branches[-1][-1])
    obs_branches = branches[:-1] + [branches[-1][:-1]]
    obs = np.concatenate(obs_branches)
    frame = _TestFrame(obs, truth, cfg)
    gridp, spacing = frame.gridp, frame.spacing
    out = {}

    if "symmpi" in methods:
        below = hierarchical_below(obs_branches, gridp, cfg.c, cfg.studentize)
        out["symmpi"] = _rows(below, cfg.alphas, spacing)

    if "conformal" in methods:
        out["conformal"] = _rows(centered_conformal_below(obs, gridp), cfg.alphas, spacing)

    if "subsampling" in methods:
        picks = np.array([b[int(rng.integers(b.size))] for b in obs_branches[:-1]])
        out["subsampling"] = _rows(centered_conformal_below(picks, gridp), cfg.alphas, spacing)

    if "single_tree" in methods:
        below = centered_conformal_below(obs_branches[-1], gridp)
        out["single_tree"] = _rows(below, cfg.alphas, spacing)

    if "hcp" in methods:
        out["hcp"] = _hcp_rows(obs_branches[:-1], frame, cfg.alphas, spacing)

    return out


def _sup_eval(xs, ys, cfg, rng, methods):
    """Supervised evaluation; per-branch ragged feature/response arrays."""
    K = len(xs)
    n_train = [int(np.ceil(x.size / 2)) for x in xs]
    tr_x = [x[:m] for x, m in zip(xs, n_train)]
    tr_y = [y[:m] for y, m in zip(ys, n_train)]
    cal_x = [x[m:] for x, m in zip(xs, n_train)]
    cal_y = [y[m:] for y, m in zip(ys, n_train)]
    x_target = float(cal_x[-1][-1])
    truth = float(cal_y[-1][-1])

    reg = fit_regressors(tr_x, tr_y)
    mu_p, center = _adaptive_centers(reg, cal_x, cfg.c)

    obs_y = np.concatenate([cy for cy in cal_y[:-1]] + [cal_y[-1][:-1]])
    frame = _TestFrame(obs_y, truth, cfg)
    gridp, spacing = frame.gridp, frame.spacing
    out = {}

    if "symmpi" in methods:
        below = supervised_below(
            [np.abs(cal_y[k] - center[k]) for k in range(K - 1)],
            np.abs(cal_y[-1][:-1] - center[-1][:-1]),
            np.abs(gridp - center[-1][-1]),
            cfg.studentize,
        )
        out["symmpi"] = _rows(below, cfg.alphas, spacing)

    own_pooled = np.abs(gridp - mu_p[-1][-1])
    if "conformal" in methods:
        cal_scores = np.concatenate(
            [np.abs(cal_y[k] - mu_p[k]) for k in range(K - 1)]
            + [np.abs(cal_y[-1][:-1] - mu_p[-1][:-1])]
        )
        out["conformal"] = _rows(conformal_below(cal_scores, own_pooled), cfg.alphas, spacing)

    if "subsampling" in methods:
        idx = [int(rng.integers(cal_x[k].size)) for k in range(K - 1)]
        pick_scores = np.array([abs(cal_y[k][i] - mu_p[k][i]) for k, i in zip(range(K - 1), idx)])
        out["subsampling"] = _rows(conformal_below(pick_scores, own_pooled), cfg.alphas, spacing)

    if "single_tree" in methods:
        solo = fit_linear(tr_x[-1], tr_y[-1])
        cal_scores = np.abs(cal_y[-1][:-1] - solo.predict(cal_x[-1][:-1]))
        own = np.abs(gridp - float(solo.predict(np.array([x_target]))[0]))
        out["single_tree"] = _rows(conformal_below(cal_scores, own), cfg.alphas, spacing)

    return out


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
    rng = np.random.default_rng((cfg.seed, trial))
    acc = {
        (m, ai): {"lengths": [], "covers": [], "unbounded": 0}
        for m in methods
        for ai in range(len(cfg.alphas))
    }
    for _ in range(cfg.tests):
        if cfg.supervised:
            xs, ys = gen_sup(cfg, rng)
            res = _sup_eval(xs, ys, cfg, rng, methods)
        elif cfg.random_sizes:
            branches = gen_unsup_ragged(cfg, rng)
            res = _unsup_eval(branches, cfg, rng, methods)
        else:
            z = gen_unsup(cfg, rng)
            res = _unsup_eval([z[k] for k in range(cfg.n_branches)], cfg, rng, methods)
        for m, rows in res.items():
            for ai, (length, covered, unbounded) in enumerate(rows):
                cell = acc[(m, ai)]
                cell["lengths"].append(length)
                cell["covers"].append(covered)
                cell["unbounded"] += int(unbounded)
    summary = {}
    for key, cell in acc.items():
        finite = [l for l in cell["lengths"] if np.isfinite(l)]
        mean_len = float(np.mean(finite)) if finite else float("inf")
        summary[key] = (
            mean_len,
            float(np.mean(cell["covers"])),
            cell["unbounded"] / cfg.tests,
        )
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
    n, p = z.shape
    idx = rng.integers(0, n + 1, mc_draws)
    W = rng.standard_normal((mc_draws, p))
    Wn = W / np.linalg.norm(W, axis=1, keepdims=True)
    fixed_mask = idx < n
    fixed_scores = -np.abs(np.einsum("mp,mp->m", Wn[fixed_mask], z[idx[fixed_mask]]))
    w_cand = Wn[~fixed_mask]

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
    n, p = z.shape
    idx = rng.integers(0, n + 1, mc_draws)
    W = rng.standard_normal((mc_draws, p))
    Wn = W / np.linalg.norm(W, axis=1, keepdims=True)
    fixed_mask = idx < n
    fixed_scores = -np.abs(np.einsum("mp,mp->m", Wn[fixed_mask], z[idx[fixed_mask]]))
    cand_scores = -np.abs(tp @ Wn[~fixed_mask].T)
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
