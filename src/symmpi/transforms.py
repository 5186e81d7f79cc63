"""Data transforms that respect group symmetry, and a statistical checker.

The hierarchical transforms adaptively center observations at the grand mean
or their branch mean and standardize by a within-branch scale, so that
heterogeneous branches still produce comparable scores. A score that centers
every branch at its own mean is ``hierarchical_unsup_transform(z, 0.0)``.
The tests keep the paper's message-passing forms of both transforms as
references (``tests/oracles.py``)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_BAND_FLOOR = 1e-12


def hierarchical_unsup_transform(values, c: float = 2.0) -> np.ndarray:
    """Adaptive-centering scores for a (..., K, M) array of scalar branches.

    Branch means near the grand branch-mean average (within c sigma_k/sqrt(M))
    center at the grand mean, the rest at their own mean; all deviations are
    divided by the within-branch sample SD (1 when M == 1). Vectorized over
    any leading batch axes.
    """
    z = np.asarray(values, dtype=float)
    if z.ndim < 2 or z.shape[-1] < 1:
        raise ValueError("expected a (..., K, M) array with M >= 1")
    K, M = z.shape[-2:]
    # The arithmetic of z.mean() and z.std(ddof=1), without their dispatch.
    branch_mean = np.add.reduce(z, axis=-1, keepdims=True) / M
    if M == 1:
        sd = np.ones_like(branch_mean)
    else:
        dev = z - branch_mean
        sd = np.sqrt(np.add.reduce(dev * dev, axis=-1, keepdims=True) / (M - 1))
    safe_sd = np.where(sd > 0, sd, 1.0)
    grand = np.add.reduce(branch_mean, axis=-2, keepdims=True) / K
    near = np.abs(branch_mean - grand) <= c * safe_sd / np.sqrt(M)
    center = np.where(near, grand, branch_mean)
    return np.abs(z - center) / safe_sd


# --------------------------------------------------------------------------
# Regressors for the supervised transform
# --------------------------------------------------------------------------


@dataclass
class LinearModel:
    """Least-squares fit with an intercept, plus its standard-error curve.

    ``_fit_lines`` returns B fits in one model: ``coef`` (B, d + 1),
    ``xtx_inv`` (B, d + 1, d + 1) and ``resid_sd`` (B,); ``predict`` then
    takes x (B, n, d) and evaluates each fit at its own rows.
    """

    coef: np.ndarray  # (d + 1,), intercept first
    xtx_inv: np.ndarray
    resid_sd: float  # residual SD with dof n - (d + 1)

    def predict(self, x) -> np.ndarray:
        xa = _augment(x, self.coef.shape[-1] - 1)
        return (xa @ self.coef[..., None])[..., 0]

    def se(self, x) -> np.ndarray:
        """Pointwise standard error of the fitted mean at x."""
        xa = _augment(x, self.coef.size - 1)
        quad = np.einsum("...i,ij,...j->...", xa, self.xtx_inv, xa)
        return self.resid_sd * np.sqrt(np.maximum(quad, 0.0))


def _augment(x, d: int) -> np.ndarray:
    """Prepend an intercept column; 1-d feature vectors are point lists."""
    x = np.asarray(x, dtype=float)
    if d == 1 and x.ndim <= 1:
        x = x.reshape(-1, 1)
    if x.shape[-1] != d:
        raise ValueError(f"expected {d} feature(s), got shape {x.shape}")
    ones = np.ones(x.shape[:-1] + (1,))
    return np.concatenate([ones, x], axis=-1)


def fit_linear(x, y) -> LinearModel:
    """OLS with intercept from one SVD of the design; raises on a
    rank-deficient design (``np.linalg.matrix_rank``'s tolerance)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if x.ndim == 1:
        x = x[:, None]
    fits, _ = _fit_lines(x[None], y[None])
    return LinearModel(coef=fits.coef[0], xtx_inv=fits.xtx_inv[0], resid_sd=float(fits.resid_sd[0]))


def _fit_lines(x, y):
    """``fit_linear`` of B designs at once: x (B, n, d), y (B, n).

    One stacked SVD, and ``@`` wherever the one-design form multiplies, so
    each fit has the bits it has alone. Returns the B fits as one
    ``LinearModel`` and the residuals (B, n).
    """
    xa = np.concatenate([np.ones(x.shape[:-1] + (1,)), x], axis=-1)
    u, s, vt = np.linalg.svd(xa, full_matrices=False)
    tol = s.max(axis=-1, initial=0.0) * max(xa.shape[-2:]) * np.finfo(float).eps
    rank = np.count_nonzero(s > tol[:, None], axis=-1)
    short = np.flatnonzero(rank < xa.shape[-1])
    if short.size:
        raise ValueError(f"rank-deficient design: {x.shape[-2]} points span rank {rank[short[0]]} "
                         f"< {xa.shape[-1]}")
    v = np.swapaxes(vt, -1, -2)
    coef = (v @ ((np.swapaxes(u, -1, -2) @ y[..., None]) / s[..., None]))[..., 0]
    resid = y - (xa @ coef[..., None])[..., 0]
    dof = max(x.shape[-2] - xa.shape[-1], 1)
    resid_sd = np.sqrt((resid[:, None, :] @ resid[..., None])[:, 0, 0] / dof)
    return LinearModel(coef=coef, xtx_inv=(v / s[:, None, :] ** 2) @ vt, resid_sd=resid_sd), resid


def _fit_runs(x, y, n):
    """OLS with intercept of y on the rows of x, within each run of
    consecutive rows of sizes ``n`` (each at least 1), from sums about the
    run means.

    Returns each run's coefficients (R, d + 1), inverse Gram matrix
    (R, d + 1, d + 1) and residual SD (dof n - (d + 1), at least 1), and the
    residual of every row. A rank-deficient run raises ``fit_linear``'s
    ``ValueError``.
    """
    d = x.shape[1]
    starts = np.cumsum(n) - n
    xy = np.concatenate([x, y[:, None]], axis=1)
    mean = np.add.reduceat(xy, starts) / n[:, None]
    dev = xy - np.repeat(mean, n, axis=0)
    # per run: [scatter of x about its mean | cross products of x and y]
    cross = np.add.reduceat(dev[:, :d, None] * dev[:, None, :], starts)
    x_bar = mean[:, :d]
    _check_ranks(x, n, starts, cross[:, :, :d], x_bar)
    scatter_inv = np.linalg.inv(cross[:, :, :d])
    slope = (scatter_inv @ cross[:, :, d:])[:, :, 0]
    shift = (scatter_inv @ x_bar[:, :, None])[:, :, 0]
    resid = dev[:, d] - np.einsum("ij,ij->i", dev[:, :d], np.repeat(slope, n, axis=0))
    coef = np.empty((n.size, d + 1))
    coef[:, 0] = mean[:, d] - np.einsum("ij,ij->i", x_bar, slope)
    coef[:, 1:] = slope
    # inverse of the Gram matrix [[n, n m'], [n m, S + n m m']], m the mean
    # of x and S its scatter, by blocks
    xtx_inv = np.empty((n.size, d + 1, d + 1))
    xtx_inv[:, 0, 0] = 1.0 / n + np.einsum("ij,ij->i", x_bar, shift)
    xtx_inv[:, 0, 1:] = xtx_inv[:, 1:, 0] = -shift
    xtx_inv[:, 1:, 1:] = scatter_inv
    rss = np.add.reduceat(resid**2, starts)
    return coef, xtx_inv, np.sqrt(rss / np.maximum(n - (d + 1), 1)), resid


def _check_ranks(x, n, starts, scatter, x_bar):
    """Raise for the first run whose design [1, x] is rank-deficient, from
    each run's ``scatter`` of x about its mean ``x_bar``.

    The decision is ``np.linalg.matrix_rank``'s. A run whose Gram matrix
    [[n, n m'], [n m, S + n m m']] (m its mean, S its scatter) has smallest
    to largest eigenvalue ratio of at least 1e-8 (singular values at least
    1e-4 apart) is full rank by that rule, since rounding moves those
    eigenvalues by far less than 1e-8 of the largest; only the runs below,
    and those with non-finite values, are passed to ``matrix_rank``, on their
    own rows.
    """
    d = x.shape[1]
    gram = np.empty((n.size, d + 1, d + 1))
    gram[:, 0, 0] = n
    gram[:, 0, 1:] = gram[:, 1:, 0] = n[:, None] * x_bar
    gram[:, 1:, 1:] = scatter + n[:, None, None] * x_bar[:, :, None] * x_bar[:, None, :]
    # a non-finite Gram matrix may stop eigvalsh; its run goes to matrix_rank
    finite = np.isfinite(gram).all(axis=(1, 2))
    gram[~finite] = np.eye(d + 1)
    eig = np.linalg.eigvalsh(gram)
    for r in np.flatnonzero(~finite | ~(eig[:, 0] >= 1e-8 * eig[:, -1])):
        xa = np.concatenate([np.ones((n[r], 1)), x[starts[r]:starts[r] + n[r]]], axis=1)
        rank = np.linalg.matrix_rank(xa)
        if rank < xa.shape[1]:
            raise ValueError(f"rank-deficient design: {n[r]} points span rank {rank} < {xa.shape[1]}")


@dataclass
class RegressorBundle:
    """Pooled regression and per-branch corrections with confidence bands.

    ``mu_k`` is the pooled fit plus branch k's correction, a linear fit to the
    pooled residuals; ``sigma_k`` is the standard-error curve of that
    correction, floored away from zero. Row k of ``coef``, ``xtx_inv`` and
    ``resid_sd`` describes branch k's correction; a branch with fewer than 2
    points is not ``fitted``, has zero rows, and falls back to the pooled fit
    with its training residual SD as the band. ``train_resid_sd`` holds
    per-branch residual SDs on the training data (used when tuning the
    centering constant). ``mu_k`` and ``sigma_k`` take a branch index, or an
    integer array of them that broadcasts against the points of x.

    A bundle of B tests (``_fit_block``) holds B pooled fits, so ``mu``
    takes x (B, n, d), and its rows are the B * K branches of the tests in
    turn, so test b's branch k is row b * K + k.
    """

    pooled: LinearModel
    coef: np.ndarray  # (K, d + 1), intercept first
    xtx_inv: np.ndarray  # (K, d + 1, d + 1)
    resid_sd: np.ndarray  # (K,), dof n_k - (d + 1)
    fitted: np.ndarray  # (K,) bool
    train_resid_sd: np.ndarray

    @property
    def n_branches(self) -> int:
        return self.coef.shape[0]

    def mu(self, x) -> np.ndarray:
        return self.pooled.predict(x)

    def mu_k(self, k, x) -> np.ndarray:
        xa = _augment(x, self.pooled.coef.shape[-1] - 1)
        return self.mu(x) + np.einsum("...i,...i->...", xa, self.coef[k])

    def sigma_k(self, k, x) -> np.ndarray:
        xa = _augment(x, self.pooled.coef.shape[-1] - 1)
        quad = np.einsum("...i,...ij,...j->...", xa, self.xtx_inv[k], xa)
        se = np.where(
            self.fitted[k],
            self.resid_sd[k] * np.sqrt(np.maximum(quad, 0.0)),
            self.train_resid_sd[k],
        )
        return np.maximum(se, _BAND_FLOOR)


def fit_regressors(train_x, train_y) -> RegressorBundle:
    """Fit the pooled regression and every branch's residual correction at once.

    Inputs are per-branch sequences (ragged allowed). Each branch with at
    least 2 points gets the OLS fit, with intercept, of its pooled residuals
    on x; all K fits come from per-branch sums over the concatenated rows,
    taken about the branch means. Branches with fewer than 2 points fall back
    to the pooled fit. A rank-deficient branch raises ``ValueError`` as
    ``fit_linear`` does. This is ``_fit_block`` for one test.
    """
    x, y, sizes = _training_rows(train_x, train_y)
    reg = _fit_block(x[None], y[None], sizes)
    fits = reg.pooled
    reg.pooled = LinearModel(coef=fits.coef[0], xtx_inv=fits.xtx_inv[0],
                             resid_sd=float(fits.resid_sd[0]))
    return reg


def _training_rows(train_x, train_y):
    """Per-branch training sequences end to end: x (N, d), y (N,) and the
    branch sizes, once each branch is checked to have one x row per y value."""
    xs = [np.asarray(x, dtype=float) for x in train_x]
    ys = [np.asarray(y, dtype=float).ravel() for y in train_y]
    if len(xs) != len(ys) or not xs:
        raise ValueError("need matching, nonempty per-branch x and y lists")
    sizes = np.array([y.size for y in ys])
    if [len(x) for x in xs] != sizes.tolist():
        raise ValueError("each branch needs one x row per y value")
    x = np.concatenate(xs)
    return x[:, None] if x.ndim == 1 else x.reshape(len(x), -1), np.concatenate(ys), sizes


def _fit_block(x, y, sizes) -> RegressorBundle:
    """``fit_regressors`` of B tests that share their branch sizes: x
    (B, N, d) and y (B, N) hold each test's training rows, its branches end
    to end, branch k with ``sizes[k]`` rows. The pooled fits are one
    ``_fit_lines`` call and the B * K branch corrections one ``_fit_runs``
    call; each test's fits have the bits they have alone."""
    B, N, d = x.shape
    pooled, resid = _fit_lines(x, y)
    # pooled residuals; rows of fitted branches become branch-fit residuals
    flat_x, resid = x.reshape(B * N, d), resid.reshape(B * N)
    runs = np.tile(sizes, B)
    R = runs.size
    coef = np.zeros((R, d + 1))
    xtx_inv = np.zeros((R, d + 1, d + 1))
    resid_sd = np.zeros(R)
    fitted = runs >= 2
    if fitted.any():
        # plain slices when every branch is fitted, which skips the copies
        every = bool(fitted.all())
        rows = slice(None) if every else np.repeat(fitted, runs)
        branches = slice(None) if every else fitted
        coef[branches], xtx_inv[branches], resid_sd[branches], resid[rows] = _fit_runs(
            flat_x[rows], resid[rows], runs[branches]
        )

    # RMS residual per branch (0 for an empty one); the pooled fit has points
    nonempty = runs > 0
    m = runs[nonempty]
    scales = np.zeros(R)
    scales[nonempty] = np.sqrt(np.add.reduceat(resid**2, np.cumsum(m) - m) / m)
    return RegressorBundle(
        pooled=pooled,
        coef=coef,
        xtx_inv=xtx_inv,
        resid_sd=resid_sd,
        fitted=fitted,
        train_resid_sd=np.maximum(scales, _BAND_FLOOR),
    )


def branch_fits(reg, x, sizes):
    """Pooled fit, branch fit and band at the rows x (B, N, d) of B tests,
    each test's branches end to end, branch k with ``sizes[k]`` rows; ``reg``
    is the fit of the same B tests (B = 1: ``fit_regressors``). Returns the
    three as (B, N) arrays."""
    K = sizes.size
    k = np.repeat(np.arange(K), sizes) + K * np.arange(x.shape[0])[:, None]
    mu_p, mu_b, sig = reg.mu(x), reg.mu_k(k, x), reg.sigma_k(k, x)
    if np.any(sig <= 0):
        raise ValueError("degenerate confidence band: sigma_k(x) = 0 at a point")
    return mu_p, mu_b, sig


def hierarchical_sup_transform(x, y, reg: RegressorBundle, c: float = 2.0) -> np.ndarray:
    """Supervised adaptive scores for calibration data (K, M) given fitted
    regressors.

    With rb and rp the residuals of y from the branch and pooled fits and
    gap = rb - rp, a point is gated when |gap / band| <= c, and its score is
    |rb - gap * gate|, the pooled residual where gated and else the branch
    one, divided by its branch's RMS score (denominator M - 1; 1 when
    M == 1 or the RMS is 0). Every step treats the points of a branch, and
    the branches, alike, so the map is block-permutation equivariant.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    K, M = y.shape
    mu_p, mu_b, sig = branch_fits(reg, x.reshape(1, K * M, -1), np.full(K, M))
    rb = y - mu_b.reshape(y.shape)
    rp = y - mu_p.reshape(y.shape)
    gap = rb - rp
    gate = np.abs(gap / sig.reshape(y.shape)) <= c
    raw = np.abs(rb - gap * gate)
    if M == 1:
        return raw
    scale = np.sqrt(np.sum(raw**2, axis=-1, keepdims=True) / (M - 1))
    return raw / np.where(scale > 0, scale, 1.0)


# --------------------------------------------------------------------------
# Distributional equivariance checking
# --------------------------------------------------------------------------


# Permutation masks scored per matrix product in energy_permutation_test.
_PERMUTATION_BLOCK = 64


# Rows of the distance matrix computed at once by ``_pairwise``.
_PAIRWISE_BLOCK = 256


def _pairwise(a) -> np.ndarray:
    """Euclidean distances between the rows of ``a``, (n, n).

    The Gram matrix a @ a.T comes from BLAS's symmetric product, so it is
    exactly symmetric, and so is each distance computed from it: the upper
    triangle is computed a block of rows at a time and mirrored.
    """
    sq_norm = np.sum(a * a, axis=1)
    D = a @ a.T
    n = len(a)
    for i in range(0, n, _PAIRWISE_BLOCK):
        j = min(i + _PAIRWISE_BLOCK, n)
        upper = D[i:j, i:]
        upper *= 2.0
        sq = sq_norm[i:j, None] + sq_norm[None, i:]
        sq -= upper
        np.maximum(sq, 0.0, out=sq)
        np.sqrt(sq, out=upper)
        D[j:, i:j] = D[i:j, j:].T
    return D


def energy_permutation_test(
    a,
    b,
    rng: np.random.Generator,
    n_permutations: int = 200,
    max_points: int = 1024,
) -> tuple[float, float]:
    """Two-sample energy test; returns (statistic, permutation p-value).

    Samples larger than ``max_points`` per side are subsampled before the
    O(n^2) distance matrix is formed; the permutation p-value stays exact for
    the subsample. The permutations are drawn one ``rng.permutation`` call
    at a time, and their masks are scored as columns of one matrix product,
    ``_PERMUTATION_BLOCK`` columns at a time; the observed mask is the first
    column of the first block. A sample is an (n, d) array of n points, or
    a 1-d array of n scalars. An empty sample, or one with an entry that is
    not finite, raises ``ValueError``: its statistic would be NaN.
    """
    a, b = (np.asarray(x, dtype=float) for x in (a, b))
    a, b = (x.reshape(-1, 1) if x.ndim < 2 else x for x in (a, b))
    if a.shape[1] != b.shape[1]:
        raise ValueError("samples must share their dimension")
    if not (a.size and b.size):
        raise ValueError("samples must be nonempty")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("sample entries must be finite")
    if a.shape[0] > max_points:
        a = a[rng.choice(a.shape[0], max_points, replace=False)]
    if b.shape[0] > max_points:
        b = b[rng.choice(b.shape[0], max_points, replace=False)]
    na, nb = a.shape[0], b.shape[0]
    pooled = np.concatenate([a, b], axis=0)
    D = _pairwise(pooled)
    row_sum = D.sum(axis=1)
    total = row_sum.sum()

    def stats_for(masks: np.ndarray) -> np.ndarray:
        """The statistic of each column of a (n, m) 0/1 mask matrix."""
        s_aa = np.einsum("ij,ij->j", masks, D @ masks)
        s_ar = row_sum @ masks
        s_ab = s_ar - s_aa
        s_bb = total - 2.0 * s_ar + s_aa
        return 2.0 * s_ab / (na * nb) - s_aa / na**2 - s_bb / nb**2

    base_mask = np.zeros(na + nb)
    base_mask[:na] = 1.0
    columns = [base_mask]
    observed = None
    count = 0
    for i in range(n_permutations + 1):
        if i:
            columns.append(base_mask[rng.permutation(na + nb)])
        if len(columns) == _PERMUTATION_BLOCK or i == n_permutations:
            stats = stats_for(np.stack(columns, axis=1))
            if observed is None:
                observed, stats = float(stats[0]), stats[1:]
            count += int(np.count_nonzero(stats >= observed))
            columns = []
    p = (1.0 + count) / (1.0 + n_permutations)
    return observed, p


@dataclass(frozen=True)
class EquivarianceReport:
    statistic: float
    p_value: float
    passed: bool
    n_samples: int


def check_distributional_equivariance(
    V,
    sample_data,
    group,
    n_samples: int,
    rng: np.random.Generator,
    *,
    act_in=None,
    act_out=None,
    n_permutations: int = 200,
    max_points: int = 1024,
    alpha: float = 0.01,
) -> EquivarianceReport:
    """Test V(rho(G) Z) =_d rho~(G) V(Z) with an energy permutation test.

    ``sample_data(rng, size)`` draws a batch of data; ``V`` must be
    vectorized over the leading axis. Group actions default to the group's
    ``act_uniform_batch`` (a fresh uniform element per row). Both sides use
    independent data draws so the two samples are genuinely independent.
    """
    if n_samples < 1000:
        raise ValueError("need n_samples >= 1000 for a stable test")
    if act_in is None or act_out is None:
        if not hasattr(group, "act_uniform_batch"):
            raise ValueError(
                f"{type(group).__name__} has no batched uniform action; "
                "pass act_in/act_out callables"
            )
    act_in = act_in or group.act_uniform_batch
    act_out = act_out or group.act_uniform_batch
    za = sample_data(rng, n_samples)
    zb = sample_data(rng, n_samples)
    side_a = np.asarray(V(act_in(rng, za)), dtype=float)
    side_b = act_out(rng, np.asarray(V(zb), dtype=float))
    flat_a = side_a.reshape(n_samples, -1)
    flat_b = np.asarray(side_b).reshape(n_samples, -1)
    if flat_a.shape[1] != flat_b.shape[1]:
        raise ValueError("the two sides have mismatched score dimensions")
    stat, p = energy_permutation_test(
        flat_a, flat_b, rng, n_permutations=n_permutations, max_points=max_points
    )
    return EquivarianceReport(statistic=stat, p_value=p, passed=p > alpha, n_samples=n_samples)
