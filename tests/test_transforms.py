import numpy as np
import pytest

import oracles
from oracles import (
    TreeGraph,
    five_step_supervised_scores,
    interpolation_unsup_scores,
    mpgnn_forward,
    supervised_features,
)
from symmpi.groups import BlockPermutationGroup, SymmetricGroup, sample_block_permutation
from symmpi.transforms import (
    branch_fits,
    check_distributional_equivariance,
    energy_permutation_test,
    fit_linear,
    fit_regressors,
    hierarchical_sup_transform,
    hierarchical_unsup_transform,
)


# ----------------------------------------------------------------------
# unsupervised hierarchical transform
# ----------------------------------------------------------------------


def test_unsup_all_equal_with_infinite_c_is_zero():
    z = np.full((3, 4), 1.7)
    out = hierarchical_unsup_transform(z, c=np.inf)
    assert np.array_equal(out, np.zeros((3, 4)))


def test_unsup_m1_uses_unit_scale():
    z = np.array([[2.0], [5.0], [8.0]])
    out = hierarchical_unsup_transform(z, c=np.inf)
    # grand mean 5, unit scale per branch
    assert np.allclose(out, [[3.0], [0.0], [3.0]])


def test_unsup_hand_example_k2_m2():
    z = np.array([[0.0, 2.0], [10.0, 14.0]])
    out = hierarchical_unsup_transform(z, c=2.0)
    expect = np.array([[1 / np.sqrt(2)] * 2, [2 / np.sqrt(8)] * 2])
    assert np.allclose(out, expect, atol=1e-14)


def test_unsup_scale_equivariance():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(4, 6)) + rng.normal(size=(4, 1)) * 3
    base = hierarchical_unsup_transform(z, 2.0)
    for lam in (0.03, 2.0, 117.0):
        assert np.allclose(hierarchical_unsup_transform(lam * z, 2.0), base, atol=1e-10)


def test_unsup_deterministic_block_equivariance():
    rng = np.random.default_rng(1)
    K, M = 3, 4
    G = BlockPermutationGroup(K, M)
    for _ in range(100):
        z = rng.normal(size=(K, M)) + 2 * rng.normal(size=(K, 1))
        g = sample_block_permutation(K, M, rng)
        lhs = hierarchical_unsup_transform(G.act(g, z), 2.0)
        rhs = G.act(g, hierarchical_unsup_transform(z, 2.0))
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_unsup_batched_matches_loop():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(10, 3, 5))
    batched = hierarchical_unsup_transform(z, 2.0)
    for i in range(10):
        assert np.allclose(batched[i], hierarchical_unsup_transform(z[i], 2.0), atol=1e-15)


@pytest.mark.parametrize("K", [1, 2, 8, 9, 20, 130])
@pytest.mark.parametrize("M", [1, 2, 15])
def test_unsup_stack_has_the_bits_of_per_point_calls(K, M):
    # the orbit sets call V once on the (G, K, M) stack of candidates' points
    # and must score as the per-point calls do; K >= 8 reaches the reductions
    # that numpy may order differently on a stack
    rng = np.random.default_rng(K * 100 + M)
    z = rng.normal(size=(7, K, M)) * rng.uniform(0.1, 50, (7, K, 1)) \
        + rng.normal(0, 20, (7, K, 1))
    z[1, 0] = 3.0  # one branch without spread
    z[2] = -1.5  # no spread in any branch
    for c in (0.0, 2.0, np.inf):
        batched = hierarchical_unsup_transform(z, c)
        per_point = np.stack([hierarchical_unsup_transform(x, c) for x in z])
        assert batched.tobytes() == per_point.tobytes()


def _unsup_by_mean_and_std(z, c):
    """hierarchical_unsup_transform written with ndarray.mean and .std."""
    M = z.shape[-1]
    branch_mean = z.mean(axis=-1, keepdims=True)
    sd = np.ones_like(branch_mean) if M == 1 else z.std(axis=-1, ddof=1, keepdims=True)
    safe_sd = np.where(sd > 0, sd, 1.0)
    grand = branch_mean.mean(axis=-2, keepdims=True)
    near = np.abs(branch_mean - grand) <= c * safe_sd / np.sqrt(M)
    center = np.where(near, grand, branch_mean)
    return np.abs(z - center) / safe_sd


@pytest.mark.parametrize("shape", [(1, 1), (3, 1), (1, 4), (2, 3), (5, 7), (4, 2, 3),
                                   (2, 3, 4, 5)])
@pytest.mark.parametrize("scale", [1.0, 1e-300, 3e299, 1e300])
def test_unsup_has_the_bits_of_mean_and_std(shape, scale):
    rng = np.random.default_rng(len(shape) * 100 + shape[-1])
    z = rng.normal(size=shape) + 3 * rng.normal(size=shape[:-1] + (1,))
    z[..., :1, :] = z[..., :1, :1]  # the first branch has zero spread
    z *= scale
    with np.errstate(over="ignore", invalid="ignore"):
        for c in (0.0, 0.7, 2.0, np.inf):
            got = hierarchical_unsup_transform(z, c)
            assert got.tobytes() == _unsup_by_mean_and_std(z, c).tobytes()


# ----------------------------------------------------------------------
# message passing formulations
# ----------------------------------------------------------------------


def test_interpolation_pipeline_equals_transform():
    rng = np.random.default_rng(3)
    for c in (0.5, 2.0, 10.0):
        z = rng.normal(size=(3, 4)) + rng.normal(size=(3, 1)) * 2
        assert np.allclose(
            interpolation_unsup_scores(z, c), hierarchical_unsup_transform(z, c), atol=1e-12
        )


def test_mpgnn_identity_network():
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(5, 2))
    nbrs = [[1, 2], [0], [0], [4], [3]]
    layers = [(lambda x, s: x, lambda a, b: b)] * 3
    assert np.allclose(mpgnn_forward(feats, nbrs, layers), feats)


def test_mpgnn_star_graph_sum():
    feats = np.array([[0.0], [1.0], [2.0], [3.0]])
    nbrs = [[1, 2, 3], [0], [0], [0]]
    layers = [(lambda x, s: s, lambda a, b: b)]
    out = mpgnn_forward(feats, nbrs, layers)
    assert out[0, 0] == 6.0  # center receives the sum of the leaves


def test_tree_graph_structure():
    tree = TreeGraph(0.0, np.zeros(3), np.zeros((3, 4)))
    assert tree.node_count() == 1 + 3 + 12
    A = tree.adjacency()
    assert np.array_equal(A, A.T)
    assert A[0, 1:4].sum() == 3  # root connects to the branch nodes
    nbrs = tree.neighbors()
    assert len(nbrs[0]) == 3
    assert all(len(nbrs[1 + k]) == 1 + 4 for k in range(3))


# ----------------------------------------------------------------------
# regressors
# ----------------------------------------------------------------------


def test_fit_regressors_identical_noiseless_branches():
    x = np.linspace(-1, 1, 10)
    ys = [2.0 * x + 1.0, 2.0 * x + 1.0]
    reg = fit_regressors([x, x], ys)
    xt = np.linspace(-1, 1, 7)
    assert np.allclose(reg.mu(xt), 2.0 * xt + 1.0, atol=1e-10)
    for k in range(2):
        assert np.allclose(reg.mu_k(k, xt), reg.mu(xt), atol=1e-8)
        assert np.all(reg.sigma_k(k, xt) >= 1e-12)
        assert np.all(reg.sigma_k(k, xt) <= 1e-6)  # clamped near zero


def test_fit_regressors_single_branch_equals_pooled():
    rng = np.random.default_rng(6)
    x = rng.uniform(-1, 1, 20)
    y = 1.5 * x + rng.normal(0, 0.1, 20)
    reg = fit_regressors([x], [y])
    xt = np.linspace(-1, 1, 5)
    assert np.allclose(reg.mu_k(0, xt), reg.mu(xt), atol=1e-9)


def test_fit_regressors_opposite_slopes():
    x = np.linspace(-1, 1, 10)
    reg = fit_regressors([x, x], [x, -x])
    slope_pooled = (reg.mu(np.array([1.0])) - reg.mu(np.array([0.0])))[0]
    assert abs(slope_pooled) <= 1e-8
    s0 = (reg.mu_k(0, np.array([1.0])) - reg.mu_k(0, np.array([0.0])))[0]
    s1 = (reg.mu_k(1, np.array([1.0])) - reg.mu_k(1, np.array([0.0])))[0]
    assert abs(s0 - 1.0) <= 1e-8 and abs(s1 + 1.0) <= 1e-8


def test_fit_regressors_small_branch_falls_back():
    x = np.linspace(-1, 1, 8)
    reg = fit_regressors([x, np.array([0.3])], [2 * x, np.array([5.0])])
    xt = np.array([0.0, 0.5])
    assert np.allclose(reg.mu_k(1, xt), reg.mu(xt))


def test_fit_linear_rejects_rank_deficient():
    with pytest.raises(ValueError):
        fit_linear(np.ones(5), np.arange(5.0))


def test_fit_linear_names_both_lengths_when_x_and_y_differ():
    with pytest.raises(ValueError, match="got 5 rows and 4 values"):
        fit_linear(np.arange(5.0), np.arange(4.0))
    with pytest.raises(ValueError, match="got 3 rows and 4 values"):
        fit_linear(np.ones((3, 2)), np.arange(4.0))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_fit_regressors_without_training_rows_is_rank_deficient(d):
    # the same rank error whatever the number of columns
    x = [np.empty((0, d)), np.empty((0, d))]
    with pytest.raises(ValueError, match=f"0 points span rank 0 < {d + 1}"):
        fit_regressors(x, [np.empty(0), np.empty(0)])


# ----------------------------------------------------------------------
# supervised transform
# ----------------------------------------------------------------------


def make_sup_case(rng, K=2, M=2, theta_scale=3.0):
    theta = rng.normal(0, theta_scale, K)
    tr_x = [rng.uniform(-0.5, 0.5, 4) for _ in range(K)]
    tr_y = [theta[k] * tr_x[k] + rng.normal(0, 0.2, 4) for k in range(K)]
    reg = fit_regressors(tr_x, tr_y)
    x = rng.uniform(-0.5, 0.5, (K, M))
    y = theta[:, None] * x + rng.normal(0, 0.2, (K, M))
    return reg, x, y


def test_sup_indicator_collapse_when_fits_agree():
    x = np.linspace(-1, 1, 8)
    reg = fit_regressors([x, x], [2 * x + 0.5, 2 * x + 0.5])
    cx = np.array([[-0.5, 0.1], [0.3, 0.8]])
    cy = 2 * cx + 0.5 + np.array([[0.3, -0.4], [0.2, -0.1]])
    scores = hierarchical_sup_transform(cx, cy, reg, c=2.0)
    raw = np.abs(cy - reg.mu(cx.reshape(-1)).reshape(2, 2))
    eps = np.sqrt(np.sum(raw**2, axis=1, keepdims=True) / 1)
    assert np.allclose(scores, raw / eps, atol=1e-10)


def test_sup_c_zero_centers_at_branch_fit():
    rng = np.random.default_rng(7)
    reg, x, y = make_sup_case(rng)
    scores = hierarchical_sup_transform(x, y, reg, c=0.0)
    raw = np.empty_like(y)
    for k in range(2):
        raw[k] = np.abs(y[k] - reg.mu_k(k, x[k]))
    eps = np.sqrt(np.sum(raw**2, axis=1, keepdims=True) / (y.shape[1] - 1))
    eps = np.where(eps > 0, eps, 1.0)
    assert np.allclose(scores, raw / eps, atol=1e-12)


def test_five_step_pipeline_equals_direct_formula():
    rng = np.random.default_rng(8)
    for _ in range(10):
        reg, x, y = make_sup_case(rng, K=3, M=4)
        feats = supervised_features(x, y, reg)
        direct = oracles.supervised_scores_from_features(feats, 2.0)
        staged = five_step_supervised_scores(feats, 2.0)
        assert np.allclose(direct, staged, atol=1e-12)
        assert hierarchical_sup_transform(x, y, reg, 2.0).tobytes() == staged.tobytes()
    # one to five branches of one to six points, one or two x columns; a
    # branch whose y is its pooled fit scores zero at c = inf, so its RMS
    # divisor is 1
    for _ in range(200):
        K, M, d = (int(v) for v in rng.integers((1, 1, 1), (6, 7, 3)))
        tr_x = [rng.uniform(-1, 1, (6, d)) for _ in range(K)]
        tr_y = [x @ rng.normal(0, 3, d) + rng.normal(0, 0.2, 6) for x in tr_x]
        reg = fit_regressors(tr_x, tr_y)
        x = rng.uniform(-1, 1, (K, M, d))
        y = rng.normal(0, 2, (K, M))
        y[0] = branch_fits(reg, x.reshape(1, K * M, d), np.full(K, M))[0].reshape(K, M)[0]
        for c in (0.0, 0.7, 2.0, np.inf):
            staged = five_step_supervised_scores(supervised_features(x, y, reg), c)
            assert hierarchical_sup_transform(x, y, reg, c).tobytes() == staged.tobytes()


def test_five_step_block_equivariance():
    rng = np.random.default_rng(9)
    K, M = 3, 4
    for _ in range(50):
        feats = rng.normal(size=(K, M, 3))
        feats[..., 2] = np.abs(feats[..., 2]) + 0.1
        g = sample_block_permutation(K, M, rng)
        flatten = lambda f: f.reshape(K * M, 3)
        permuted = g.act(flatten(feats).T).T.reshape(K, M, 3)
        lhs = five_step_supervised_scores(permuted, 2.0)
        rhs = BlockPermutationGroup(K, M).act(g, five_step_supervised_scores(feats, 2.0))
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_sup_transform_rejects_degenerate_band():
    # the fitted bundle floors its bands, so use a broken custom bundle
    class ZeroBand:
        def mu(self, x):
            return np.zeros_like(np.asarray(x, dtype=float))

        def mu_k(self, k, x):
            return np.zeros_like(np.asarray(x, dtype=float))

        def sigma_k(self, k, x):
            return np.zeros_like(np.asarray(x, dtype=float))

    _, x, y = make_sup_case(np.random.default_rng(10))
    with pytest.raises(ValueError):
        hierarchical_sup_transform(x, y, ZeroBand(), 2.0)


# ----------------------------------------------------------------------
# distributional equivariance checker
# ----------------------------------------------------------------------


def exchangeable_sampler(r, size):
    return r.normal(0.0, 1.0, (size, 6))


def test_checker_passes_identity():
    rng = np.random.default_rng(12)
    report = check_distributional_equivariance(
        lambda z: z, exchangeable_sampler, SymmetricGroup(6), 2000, rng
    )
    assert report.passed


def test_checker_fails_sorting_map():
    rng = np.random.default_rng(13)
    report = check_distributional_equivariance(
        lambda z: np.sort(z, axis=-1), exchangeable_sampler, SymmetricGroup(6), 10_000, rng
    )
    assert not report.passed
    assert report.p_value < 0.01


def test_checker_passes_median_deviation():
    rng = np.random.default_rng(14)
    V = lambda z: np.abs(z - np.median(z, axis=-1, keepdims=True))
    report = check_distributional_equivariance(
        V, exchangeable_sampler, SymmetricGroup(6), 10_000, rng
    )
    assert report.passed


def test_checker_passes_hierarchical_transform():
    rng = np.random.default_rng(15)
    K, M = 3, 4

    def sampler(r, size):
        mu = r.normal(0.0, 1.0, (size, K))
        return mu[:, :, None] + r.normal(0.0, 1.0, (size, K, M))

    report = check_distributional_equivariance(
        lambda z: hierarchical_unsup_transform(z, 2.0),
        sampler,
        BlockPermutationGroup(K, M),
        5000,
        rng,
    )
    assert report.passed


def test_checker_composition_closure():
    rng = np.random.default_rng(16)
    maps = [
        lambda z: np.abs(z - np.median(z, axis=-1, keepdims=True)),
        lambda z: z - z.mean(axis=-1, keepdims=True),
        lambda z: z**2,
    ]
    for i, j in [(0, 1), (1, 2), (0, 2)]:
        comp = lambda z, a=maps[i], b=maps[j]: a(b(z))
        report = check_distributional_equivariance(
            comp, exchangeable_sampler, SymmetricGroup(6), 2000, rng
        )
        assert report.passed


def test_checker_rejects_small_samples():
    rng = np.random.default_rng(17)
    with pytest.raises(ValueError):
        check_distributional_equivariance(
            lambda z: z, exchangeable_sampler, SymmetricGroup(6), 10, rng
        )


def test_energy_test_reads_a_1d_sample_as_scalar_points():
    a, b = np.arange(50.0), np.arange(50.0) + 100
    _, p_flat = energy_permutation_test(a, b, np.random.default_rng(0), n_permutations=99)
    _, p_cols = energy_permutation_test(a[:, None], b[:, None], np.random.default_rng(0),
                                        n_permutations=99)
    assert p_flat == p_cols == 0.01


@pytest.mark.parametrize("a, b", [
    (np.empty((0, 2)), np.ones((3, 2))),
    (np.ones((3, 2)), np.empty((0, 2))),
    ([[0.0], [np.nan]], [[1.0], [2.0]]),
    ([[0.0], [1.0]], [[np.inf], [2.0]]),
])
def test_energy_test_rejects_empty_and_non_finite_samples(a, b):
    # the statistic would be NaN, which no permutation reaches, so the
    # p-value would read as the smallest possible
    with pytest.raises(ValueError):
        energy_permutation_test(a, b, np.random.default_rng(0), n_permutations=9)
