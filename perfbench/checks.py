"""Output checks made apart from the program.

Every function here takes plain arrays and returns a list of error strings
(empty when the output is right). None of them imports symmpi: each rule is
written again from its definition, so that a fault in the program cannot hide
behind the same fault in its check. ``selfcheck.py`` feeds each check a
deliberately wrong set and requires it to complain.
"""

from __future__ import annotations

import math

import numpy as np

# Same guard as the quantile rule uses for float fuzz in level * n.
LEVEL_EPS = 1e-9
# Per-run false-alarm budget of the Monte-Carlo margin check.
MC_FALSE_ALARM = 1e-6


def _k_index(level: float, m: int) -> int:
    """Rank of the (level) quantile among m equally weighted values."""
    return int(math.ceil(level * m - LEVEL_EPS))


def _adaptive_scores(values, c):
    """Studentized adaptive-centering scores along the last axis.

    ``values`` has shape (..., K, M); each branch is centered at the grand
    branch-mean average when its mean lies within c * sd / sqrt(M) of it, else
    at its own mean, and divided by its sample SD (1 when M == 1 or SD == 0).
    """
    z = np.asarray(values, dtype=float)
    m = z.shape[-1]
    mean = z.mean(axis=-1, keepdims=True)
    sd = z.std(axis=-1, ddof=1, keepdims=True) if m > 1 else np.ones_like(mean)
    safe = np.where(sd > 0, sd, 1.0)
    grand = mean.mean(axis=-2, keepdims=True)
    center = np.where(np.abs(mean - grand) <= c * safe / np.sqrt(m), grand, mean)
    return np.abs(z - center) / safe


# --------------------------------------------------------------------------
# hier-predict
# --------------------------------------------------------------------------


def hier_unsup_expected(observed_branches, candidates, alpha, c=2.0):
    """Reference membership for the unsupervised hierarchical set.

    ``observed_branches`` lists the donor branches in the order the program
    sees them, then the target branch without its missing value. A candidate
    completes the target branch; it is kept when the branch-weighted mass
    (1/(K n_k) per point) of scores strictly below its own stays under
    1 - alpha (the rank form of the weighted quantile rule).
    """
    g = np.asarray(candidates, dtype=float)
    donors = [np.asarray(b, dtype=float) for b in observed_branches[:-1]]
    target = np.asarray(observed_branches[-1], dtype=float)
    K = len(donors) + 1
    full_t = np.concatenate([np.broadcast_to(target, (g.size, target.size)), g[:, None]], axis=1)
    n_t = full_t.shape[1]

    def stats(a):
        mean = a.mean(axis=-1)
        if a.shape[-1] > 1:
            sd = a.std(axis=-1, ddof=1)
        else:
            sd = np.ones_like(mean)
        return mean, np.where(sd > 0, sd, 1.0)

    d_stats = [stats(b) for b in donors]
    mean_t, sd_t = stats(full_t)
    means = np.column_stack([np.full(g.size, m) for m, _ in d_stats] + [mean_t])
    grand = means.mean(axis=1)

    def center(mean, sd, n):
        return np.where(np.abs(mean - grand) <= c * sd / np.sqrt(n), grand, mean)

    c_t = center(mean_t, sd_t, n_t)
    own = np.abs(g - c_t) / sd_t
    below = np.zeros(g.size)
    for b, (m, sd) in zip(donors, d_stats):
        scores = np.abs(b[None, :] - center(m, sd, b.size)[:, None]) / sd
        below += (scores < own[:, None]).sum(axis=1) / (K * b.size)
    t_scores = np.abs(full_t - c_t[:, None]) / sd_t[:, None]
    below += (t_scores < own[:, None]).sum(axis=1) / (K * n_t)
    return below < (1.0 - alpha) - LEVEL_EPS


def expected_grid(observed, n_points=2001, pad_sd=4.0):
    """The data range widened by pad_sd population SDs, n_points uniform steps."""
    v = np.concatenate([np.ravel(b) for b in observed]).astype(float)
    sd = float(np.std(v))
    pad = pad_sd * (sd if sd > 0 else max(abs(float(np.mean(v))), 1.0) * 1e-3)
    return np.linspace(v.min() - pad, v.max() + pad, n_points)


def check_grid(name, candidates, observed, n_points=2001):
    want = expected_grid(observed, n_points)
    got = np.asarray(candidates, dtype=float)
    if got.shape != want.shape or not np.allclose(got, want, rtol=1e-12, atol=1e-12):
        return [f"{name}: candidate grid differs from the data range +- 4 SD"]
    return []


def check_grid_size(name, candidates, n_points=2001):
    if len(candidates) != n_points:
        return [f"{name}: {len(candidates)} candidates, expected {n_points}"]
    return []


def check_equal(name, got, want):
    got = np.asarray(got, dtype=bool)
    want = np.asarray(want, dtype=bool)
    if got.shape != want.shape:
        return [f"{name}: {got.size} memberships, expected {want.size}"]
    bad = np.flatnonzero(got != want)
    if bad.size:
        return [f"{name}: {bad.size} memberships differ from the reference (first at {bad[0]})"]
    return []


def check_subset(name, small, big):
    small = np.asarray(small, dtype=bool)
    big = np.asarray(big, dtype=bool)
    extra = np.flatnonzero(small & ~big)
    if small.shape != big.shape or extra.size:
        return [f"{name}: {extra.size} candidates kept that the larger set drops"]
    return []


def check_same_set(name, cands_a, member_a, cands_b, member_b):
    """Two outputs describe the same set (grids equal up to float rounding)."""
    a, b = np.asarray(cands_a, dtype=float), np.asarray(cands_b, dtype=float)
    if a.shape != b.shape or not np.allclose(a, b, rtol=1e-12, atol=1e-12):
        return [f"{name}: candidate grids differ"]
    return check_equal(name, member_a, member_b)


def nearest_member(candidates, member, value) -> bool:
    """Whether the grid point nearest to ``value`` is kept."""
    cands = np.asarray(candidates, dtype=float)
    return bool(np.asarray(member, dtype=bool)[int(np.argmin(np.abs(cands - value)))])


def check_coverage(name, covered, alpha):
    """Share covered must be at least 1 - alpha - 3 s.e., s.e. = 0.5 / sqrt(n).

    0.5 / sqrt(n) is the largest standard error a share of n independent
    indicators can have, so the rule keeps its false-alarm rate small even for
    the few sets a run builds (see the README for the exact rate).
    """
    covered = np.asarray(covered, dtype=bool)
    n = covered.size
    if n == 0:
        return [f"{name}: no sets to measure coverage on"]
    floor = (1.0 - alpha) - 3.0 * 0.5 / math.sqrt(n)
    share = float(covered.mean())
    if share < floor:
        return [f"{name}: coverage {share:.3f} over {n} sets is below {floor:.3f}"]
    return []


# --------------------------------------------------------------------------
# orbit-exact and orbit-mc
# --------------------------------------------------------------------------


def split_conformal_expected(observed, candidates, alpha):
    """S_n with the last-coordinate score: keep c <= the k-th smallest observation,
    k = ceil((n + 1)(1 - alpha)); every candidate is kept when k > n."""
    obs = np.sort(np.asarray(observed, dtype=float))
    k = _k_index(1.0 - alpha, obs.size + 1)
    t = obs[k - 1] if k <= obs.size else np.inf
    return np.asarray(candidates, dtype=float) <= t


def block_scores(observed_flat, candidates, K, M, c=2.0):
    """Transformed entries (G, K*M) of each completed (K, M) data point,
    plus the candidate's own transformed score (the last entry)."""
    g = np.asarray(candidates, dtype=float)
    obs = np.asarray(observed_flat, dtype=float)
    full = np.concatenate([np.broadcast_to(obs, (g.size, obs.size)), g[:, None]], axis=1)
    s = _adaptive_scores(full.reshape(g.size, K, M), c).reshape(g.size, K * M)
    return s, s[:, -1]


def transitive_quantile_expected(scores, own, alpha):
    """Keep a candidate when its own score is at most the (1 - alpha) quantile of
    all its entries: with a transitive group and an equivariant V the orbit of
    the last entry is uniform over the entries."""
    below = (scores < own[:, None]).sum(axis=1)
    return below <= _k_index(1.0 - alpha, scores.shape[1]) - 1


def check_order(name, order, expected):
    if int(order) != int(expected):
        return [f"{name}: automorphism group has order {order}, closed form gives {expected}"]
    return []


def vertex_set_expected(orbit_values, candidates, alpha):
    """Graph vertex set with the last-coordinate score: keep c when it is at most
    the (1 - alpha) quantile of the other orbit values together with c."""
    others = np.sort(np.asarray(orbit_values, dtype=float))
    k = _k_index(1.0 - alpha, others.size + 1)
    below = np.searchsorted(others, np.asarray(candidates, dtype=float), side="left")
    return below <= k - 1


def _binom_cdf(k: int, n: int, p: float) -> float:
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    return min(1.0, math.fsum(math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(k + 1)))


def mc_margin_check(name, member, frac_below, exact_keep, draws, alpha, n_checked):
    """Monte-Carlo membership against the exact set where the outcome is clear.

    With the point's own score plus ``draws`` sampled orbit scores, a candidate
    is kept iff at most k - 1 draws fall strictly below its own score,
    k = ceil((1 - alpha)(draws + 1)). That count is Binomial(draws, f) with f
    the exact orbit fraction strictly below. When the exact set keeps a
    candidate and the chance of k or more draws below is under the per-check
    budget (or it drops it and the chance of at most k - 1 is), the
    Monte-Carlo set must agree. The budget is MC_FALSE_ALARM / n_checked, so
    a correct program fails a run with probability below MC_FALSE_ALARM.
    """
    k = _k_index(1.0 - alpha, draws + 1)
    budget = MC_FALSE_ALARM / max(n_checked, 1)
    member = np.asarray(member, dtype=bool)
    bad = 0
    clear = 0
    cache: dict[float, float] = {}
    for kept, f, exact in zip(member, np.asarray(frac_below, dtype=float), exact_keep):
        if f not in cache:
            cache[f] = _binom_cdf(k - 1, draws, float(f))
        p_keep = cache[f]
        if exact and 1.0 - p_keep <= budget:
            clear += 1
            bad += int(not kept)
        elif not exact and p_keep <= budget:
            clear += 1
            bad += int(kept)
    errors = []
    if bad:
        errors.append(f"{name}: {bad} of {clear} clear candidates disagree with the exact set")
    return errors, clear


# --------------------------------------------------------------------------
# bench-table
# --------------------------------------------------------------------------

# Band of criterion 1 of the acceptance suite for symmpi at alpha = 0.05.
SYMMPI_COVERAGE_BAND = (0.92, 0.98)


def check_coverage_band(name, covered, total, band=SYMMPI_COVERAGE_BAND):
    share = covered / total if total else float("nan")
    if not band[0] <= share <= band[1]:
        return [f"{name}: coverage {share:.4f} over {total} tests outside {list(band)}"]
    return []


def check_always_unbounded(name, unbounded_rate, mean_length):
    """Self-inclusive conformal on 14 values at alpha = 0.05 needs the 15th
    smallest of 15 scores, which is the candidate itself: always unbounded."""
    if unbounded_rate != 1.0 or math.isfinite(mean_length):
        return [f"{name}: unbounded rate {unbounded_rate}, length {mean_length}; expected 1.0, Inf"]
    return []
