import re

import numpy as np
import pytest

import oracles
from symmpi import sim
from symmpi.calibrate import (
    _branch_stats,
    candidate_grid,
    hcp_first_obs_set,
    rank_member,
    rotation_region,
    rotation_region_covers,
    rotation_supervised_set,
)
from symmpi.sim import (
    HierarchicalConfig,
    _unsup_eval,
    bench_table,
    gen_rotational,
    gen_sup,
    gen_unsup,
    gen_unsup_ragged,
    run_benchmark,
)


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------


def test_gen_unsup_zero_spread_is_exchangeable():
    rng = np.random.default_rng(0)
    cfg = HierarchicalConfig(n_branches=4, branch_size=400, sigma2=0.0, trials=1, tests=1)
    z = gen_unsup(cfg, rng)
    # all branch means estimate the same zero location
    assert np.all(np.abs(z.mean(axis=1)) <= 4 * 0.5 / np.sqrt(400))


def test_gen_unsup_pooled_mean_zero():
    rng = np.random.default_rng(1)
    cfg = HierarchicalConfig(n_branches=10, branch_size=100, sigma2=1.0)
    z = gen_unsup(cfg, rng, size=100)  # 100 * 1000 draws
    se = np.sqrt((1.0 + 0.25 / 1) / z.size) * 3  # conservative
    assert abs(z.mean()) <= 5 * np.sqrt(1.0 / (100 * 10))


def test_gen_unsup_branch_mean_variance_decomposition():
    rng = np.random.default_rng(2)
    sigma2, M = 1.5, 8
    cfg = HierarchicalConfig(n_branches=10, branch_size=M, sigma2=sigma2)
    z = gen_unsup(cfg, rng, size=1000)
    bm = z.mean(axis=-1).ravel()  # 10^4 branch means
    expect = sigma2**2 + 0.25 / M
    var = bm.var()
    # chi-square spread of a variance estimate over 10^4 draws
    assert abs(var - expect) <= 5 * expect * np.sqrt(2 / bm.size)


def test_gen_sup_pure_noise_when_spread_zero():
    rng = np.random.default_rng(3)
    cfg = HierarchicalConfig(n_branches=5, branch_size=50, sigma2=0.0, supervised=True)
    xs, ys = gen_sup(cfg, rng)
    for x, y in zip(xs, ys):
        assert np.all((x > -0.5) & (x < 0.5))
        slope = np.sum((x - x.mean()) * y) / np.sum((x - x.mean()) ** 2)
        assert abs(slope) <= 5 * 0.5 / np.sqrt(np.sum((x - x.mean()) ** 2))


def test_gen_sup_ols_recovers_slopes():
    cfg = HierarchicalConfig(n_branches=3, branch_size=10_000, sigma2=2.0, supervised=True)
    # replicate the latent slopes: they are the first draws of the stream
    theta = np.random.default_rng(4).normal(0.0, 2.0, 3)
    xs, ys = gen_sup(cfg, np.random.default_rng(4))
    for t, x, y in zip(theta, xs, ys):
        sxx = np.sum((x - x.mean()) ** 2)
        slope = np.sum((x - x.mean()) * (y - y.mean())) / sxx
        se = 0.5 / np.sqrt(sxx)
        assert abs(slope - t) <= 3 * se


@pytest.mark.parametrize("branch_size", [7, (2, 5, 9)])
def test_sup_arrays_are_one_uniform_and_one_normal_call_per_branch(branch_size):
    # the rows drawn with ``random`` and ``standard_normal`` and scaled once
    # have the bits, and leave the stream, of the per-branch calls
    cfg = HierarchicalConfig(n_branches=6, branch_size=branch_size, sigma2=3.0,
                             supervised=True)
    for seed in range(200):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = sim._sup_arrays(cfg, rng), oracles.sup_arrays(cfg, ref)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        assert rng.random() == ref.random()


@pytest.mark.parametrize("sizes", [(4, 7, 1, 5), [3, 3, 2], (6,)])
def test_picks_are_one_draw_per_donor_branch(sizes):
    # one value of each donor branch, from the stream of one ``integers``
    # call per branch; without donor branches none, and no draw
    flat = np.arange(sum(sizes), dtype=float)
    starts = np.cumsum(sizes) - sizes
    for seed in range(50):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sim._picks(flat, sizes, rng)
        want = [flat[s + int(ref.integers(n))] for s, n in zip(starts[:-1], sizes[:-1])]
        assert got.dtype == flat.dtype and got.tolist() == want
        assert rng.random() == ref.random()


def test_gen_unsup_ragged_sizes():
    rng = np.random.default_rng(5)
    cfg = HierarchicalConfig(n_branches=30, branch_size=(10, 20), sigma2=1.0)
    branches = gen_unsup_ragged(cfg, rng)
    sizes = {b.size for b in branches}
    assert sizes <= {10, 20} and len(sizes) == 2


def test_gen_rotational_moments():
    rng = np.random.default_rng(6)
    pts = gen_rotational(100_000, 2, 30.0, rng)
    cov = pts.T @ pts / pts.shape[0]
    assert np.abs(cov - 30.0 * np.eye(2)).max() <= 1.0
    # rotation invariance of norms
    theta = 1.1
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    assert np.allclose(np.linalg.norm(pts @ R.T, axis=1), np.linalg.norm(pts, axis=1))
    one_d = gen_rotational(50_000, 1, 4.0, rng)
    assert abs(one_d.var() - 4.0) <= 0.3


# ----------------------------------------------------------------------
# Rotational regions
# ----------------------------------------------------------------------


def test_rotation_region_small_alpha_keeps_everything():
    rng = np.random.default_rng(7)
    pts = gen_rotational(12, 2, 30.0, rng)
    ps = rotation_region(pts, alpha=0.001, mc_draws=300, rng=rng, grid_points=301)
    # coverage level near one: the strip vanishes and nearly all candidates stay
    assert ps.member.mean() >= 0.99


def test_rotation_region_strip_structure():
    rng = np.random.default_rng(8)
    pts = gen_rotational(12, 2, 30.0, rng)
    ps = rotation_region(pts, alpha=0.05, mc_draws=499, rng=rng, grid_points=801)
    C = ps.meta["strip_halfwidth"]
    assert C > 0
    inside = np.abs(ps.candidates) < C - 1e-9
    assert not np.any(ps.member & inside)
    # away from the boundary the complement is fully kept (MC draws may
    # shift the two boundary crossings slightly asymmetrically)
    outside = np.abs(ps.candidates) >= 2 * C
    assert ps.member[outside].all()


def test_rotation_region_coverage_smoke():
    rng = np.random.default_rng(9)
    hits = []
    for _ in range(8):
        pts = gen_rotational(12, 2, 30.0, rng)
        fresh = gen_rotational(400, 2, 30.0, rng)
        hits.append(rotation_region_covers(pts, fresh, alpha=0.05, mc_draws=499, rng=rng).mean())
    assert 0.90 <= np.mean(hits) <= 1.0


def test_rotation_single_point_projection_law():
    # with one observed point at radius r, the sampled orbit scores follow
    # -|r cos(theta)| with theta uniform: check quantiles against the arcsine law
    rng = np.random.default_rng(10)
    r = 3.0
    pts = np.array([[r, 0.0]])
    draws = 40_000
    idx = rng.integers(0, 2, draws)
    W = rng.standard_normal((draws, 2))
    Wn = W / np.linalg.norm(W, axis=1, keepdims=True)
    scores = -np.abs((Wn[idx == 0] * pts[0]).sum(axis=1))
    u = -scores / r  # should be |cos theta|, arcsine-distributed
    for q in (0.25, 0.5, 0.75):
        exact = np.sin(np.pi * q / 2)  # inverse of (2/pi) arcsin(u)
        emp = np.quantile(u, q)
        assert abs(emp - exact) <= 0.02


def radial_regression_score(y, x):
    mu = np.linalg.norm(np.atleast_2d(x), axis=1)
    return np.abs(np.asarray(y) - mu)


def test_rotation_supervised_invariant_predictor_reduces_to_conformal():
    rng = np.random.default_rng(11)
    n, p = 15, 2
    x = rng.normal(size=(n, p))
    y = np.linalg.norm(x, axis=1) + rng.normal(0, 0.3, n)
    x_new = rng.normal(size=p)
    cands = np.linspace(-2, 5, 101)
    seed = 123
    ps = rotation_supervised_set(
        x, y, x_new, radial_regression_score, cands, alpha=0.2,
        mc_draws=200, rng=np.random.default_rng(seed),
    )
    # replicate the index draws: rotations cannot change an invariant score
    idx = np.random.default_rng(seed).integers(0, n + 1, 200)
    fixed = np.array([radial_regression_score([y[j]], x[j][None])[0] for j in idx if j < n])
    n_cand_draws = int((idx == n).sum())
    own = radial_regression_score(cands, np.tile(x_new, (cands.size, 1)))
    below = (fixed[None, :] < own[:, None]).sum(axis=1)
    below = below + n_cand_draws * 0  # candidate draws equal own, never below
    member = below / 201 < 0.8 - 1e-9
    assert np.array_equal(ps.member, member)


def test_rotation_supervised_uniform_classifier_keeps_all_labels():
    rng = np.random.default_rng(12)
    n, p, L = 10, 2, 3
    x = rng.normal(size=(n, p))
    y = rng.integers(0, L, n).astype(float)
    score = lambda yy, xx: np.full(np.asarray(yy).shape, -1.0 / L)
    ps = rotation_supervised_set(x, y, rng.normal(size=p), score, np.arange(L, dtype=float),
                                 alpha=0.1, mc_draws=99, rng=rng)
    assert ps.member.all()


def test_rotation_supervised_classification_coverage():
    rng = np.random.default_rng(13)
    centers = np.array([0.5, 1.3, 2.2])

    def phat(y, x):
        r = np.linalg.norm(np.atleast_2d(x), axis=1)
        logits = -((r[:, None] - centers[None, :]) ** 2)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        yi = np.asarray(y, dtype=int)
        return -probs[np.arange(yi.size), yi]

    trials = 400
    alpha = 0.2
    covered = 0
    for _ in range(trials):
        x = rng.normal(0, 1.0, (21, 2))
        r = np.linalg.norm(x, axis=1)
        true = np.clip(np.digitize(r, [0.9, 1.7]), 0, 2).astype(float)
        flip = rng.uniform(size=21) < 0.1
        true[flip] = rng.integers(0, 3, flip.sum())
        ps = rotation_supervised_set(
            x[:-1], true[:-1], x[-1], phat, np.arange(3, dtype=float),
            alpha=alpha, mc_draws=60, rng=rng,
        )
        covered += int(ps.member[int(true[-1])])
    se = np.sqrt(alpha * (1 - alpha) / trials)
    assert covered / trials >= 1 - alpha - 3 * se


def test_rotation_supervised_set_keeps_no_non_finite_candidate():
    rng = np.random.default_rng(14)
    x, x_new = rng.normal(size=(8, 2)), rng.normal(size=2)
    args = (x, np.linalg.norm(x, axis=1) + rng.normal(0, 0.5, 8), x_new, radial_regression_score)
    # the fitted value itself, whose own score is the smallest there is
    fit = float(np.linalg.norm(x_new))
    ps = rotation_supervised_set(*args, [np.nan, fit, np.inf, -np.inf], 0.2, 50,
                                 np.random.default_rng(0))
    alone = rotation_supervised_set(*args, [fit], 0.2, 50, np.random.default_rng(0))
    assert alone.member.all()
    assert ps.member.tolist() == [False, True, False, False] and not ps.unbounded
    with pytest.raises(ValueError, match="candidate grid is empty"):
        rotation_supervised_set(*args, [], 0.2, 50, np.random.default_rng(0))


def test_rotation_region_covers_no_point_that_is_not_finite():
    rng = np.random.default_rng(15)
    pts = gen_rotational(10, 2, 30.0, rng)
    fresh = gen_rotational(6, 2, 30.0, rng)
    fresh[1, 0], fresh[3, 1], fresh[4] = np.nan, np.inf, -np.inf
    got = rotation_region_covers(pts, fresh, 0.05, 99, np.random.default_rng(0))
    finite = [0, 2, 5]
    want = rotation_region_covers(pts, fresh[finite], 0.05, 99, np.random.default_rng(0))
    assert want.all()
    assert got.tolist() == [True, False, True, False, False, True]


def test_rotation_region_on_one_dimensional_points():
    pts = gen_rotational(9, 1, 4.0, np.random.default_rng(16))
    ps = rotation_region(pts, 0.2, mc_draws=99, rng=np.random.default_rng(0), grid_points=201)
    covers = rotation_region_covers(pts, ps.candidates[:, None], 0.2, 99,
                                    np.random.default_rng(0))
    assert np.array_equal(ps.member, covers)
    assert 0 < ps.member.sum() < ps.member.size
    assert ps.meta["transverse_height"] == 0.0 and ps.meta["strip_halfwidth"] > 0


def test_rotation_sets_reject_observed_data_that_is_not_finite():
    pts = np.random.default_rng(18).normal(size=(6, 2))
    grid = np.linspace(-2.0, 4.0, 9)
    for bad in (np.nan, np.inf):
        z = pts.copy()
        z[2, 1] = bad
        y = pts[:, 0].copy()
        y[1] = bad
        x_new = np.array([0.3, bad])
        calls = [lambda: rotation_region(z, 0.2, 20, np.random.default_rng(0)),
                 lambda: rotation_region_covers(z, pts[:2], 0.2, 20, np.random.default_rng(0))]
        calls += [lambda a=args: rotation_supervised_set(*a, radial_regression_score, grid, 0.2,
                                                         20, np.random.default_rng(0))
                  for args in ((z, pts[:, 0], pts[0]), (pts, y, pts[0]), (pts, pts[:, 0], x_new))]
        for call in calls:
            with pytest.raises(ValueError, match="must be finite"):
                call()


def _rotation_builders():
    pts = np.random.default_rng(17).normal(size=(6, 2))
    score = radial_regression_score
    grid = np.linspace(-2.0, 4.0, 9)
    return {
        "rotation_region": lambda d: rotation_region(pts, 0.2, d, np.random.default_rng(0),
                                                     grid_points=51).member,
        "rotation_region_covers": lambda d: rotation_region_covers(
            pts, pts[:3], 0.2, d, np.random.default_rng(0)),
        "rotation_supervised_set": lambda d: rotation_supervised_set(
            pts, pts[:, 0], pts[0], score, grid, 0.2, d, np.random.default_rng(0)).member,
    }


@pytest.mark.parametrize("name", sorted(_rotation_builders()))
def test_rotation_sets_take_a_positive_integer_draw_count(name):
    build = _rotation_builders()[name]
    for draws in (0, -1, 2.5):
        with pytest.raises(ValueError, match="mc_draws must be a positive integer"):
            build(draws)
    assert np.array_equal(build(np.int64(5)), build(5))


@pytest.mark.parametrize("shape", [(), (3,), (6, 0), (2, 3, 2)])
def test_rotation_sets_reject_observed_points_of_another_shape(shape):
    z = np.ones(shape)
    grid = np.linspace(-2.0, 4.0, 9)
    calls = [lambda: rotation_region(z, 0.2, 50, np.random.default_rng(0)),
             lambda: rotation_region_covers(z, np.ones((2, 2)), 0.2, 50, np.random.default_rng(0)),
             lambda: rotation_supervised_set(z, np.ones(3), np.ones(2), radial_regression_score,
                                             grid, 0.2, 50, np.random.default_rng(0))]
    problem = re.escape(f"(n, p) array with p >= 1, got shape {shape}")
    for call in calls:
        with pytest.raises(ValueError, match=problem):
            call()


@pytest.mark.parametrize("observed, test_points", [
    ((6, 2), (3, 3)),
    ((6, 2), (2, 1)),
    ((6, 1), (3,)),
])
def test_rotation_region_covers_rejects_test_points_of_another_shape(observed, test_points):
    """Test points of another width than the observed points', or a 1-d
    array that is not one point's coordinates, raise ``ValueError`` naming
    both shapes before anything is drawn."""
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    problem = re.escape(f"test points of shape {test_points} do not fit observed points of "
                        f"shape {observed}")
    with pytest.raises(ValueError, match=problem):
        rotation_region_covers(np.ones(observed), np.ones(test_points), 0.2, 50, rng)
    assert rng.bit_generator.state == state


def test_rotation_region_covers_reads_a_1d_array_as_one_point():
    pts = np.random.default_rng(19).normal(size=(6, 2))
    point = np.array([0.4, -1.2])
    one = rotation_region_covers(pts, point, 0.2, 50, np.random.default_rng(0))
    assert np.array_equal(one, rotation_region_covers(pts, point[None], 0.2, 50,
                                                      np.random.default_rng(0)))
    assert one.shape == (1,)
    column = np.random.default_rng(20).normal(size=(6, 1))
    lone = rotation_region_covers(column, np.array([0.3]), 0.2, 50, np.random.default_rng(0))
    assert lone.shape == (1,)
    # a scalar is one point of one coordinate
    assert np.array_equal(rotation_region_covers(column, 0.3, 0.2, 50, np.random.default_rng(0)),
                          lone)


def test_rotation_region_needs_an_observed_point():
    with pytest.raises(ValueError, match="at least one observed point"):
        rotation_region(np.empty((0, 2)), 0.2, 50, np.random.default_rng(0))
    # with no observed point every draw lands on the held-out one, whose own
    # score ties with none of them, so small alpha keeps each test point
    covers = rotation_region_covers(np.empty((0, 2)), np.ones((3, 2)), 0.05, 50,
                                    np.random.default_rng(0))
    assert covers.tolist() == [True] * 3


def test_rotation_supervised_set_needs_a_y_value_per_row_and_a_full_x_new():
    pts = np.random.default_rng(19).normal(size=(6, 2))
    grid = np.linspace(-2.0, 4.0, 9)
    for y, x_new in ((pts[:5, 0], pts[0]), (pts[:, 0], pts[0, :1]), (pts[:, 0], pts[:1])):
        with pytest.raises(ValueError, match=re.escape("needs 6 y values and x_new of shape (2,)")):
            rotation_supervised_set(pts, y, x_new, radial_regression_score, grid, 0.2, 50,
                                    np.random.default_rng(0))


# ----------------------------------------------------------------------
# Benchmark harness
# ----------------------------------------------------------------------


def small_cfg(**kw):
    base = dict(n_branches=6, branch_size=8, sigma2=1.0, trials=3, tests=20,
                grid_points=401, seed=42, alphas=(0.1, 0.3))
    base.update(kw)
    return HierarchicalConfig(**base)


def test_benchmark_seed_determinism():
    cfg = small_cfg()
    a = run_benchmark(cfg, methods=("symmpi", "conformal", "subsampling"))
    b = run_benchmark(cfg, methods=("symmpi", "conformal", "subsampling"))
    for ra, rb in zip(a, b):
        assert ra == rb


@pytest.mark.parametrize("studentize", [False, True])
@pytest.mark.parametrize("supervised, branch_size", [(False, 6), (False, (3, 4)), (True, 8),
                                                     (True, (6, 8))])
def test_benchmark_rows_do_not_depend_on_the_block(supervised, branch_size, studentize,
                                                   monkeypatch):
    """Rows are the same with blocks of one test, of 8 tests, of a trial's
    12 and of all three trials' 36, so that blocks span trials; sizes of 3
    or 4 values in 3 branches make tests that share their sizes."""
    methods = ("symmpi", "conformal", "subsampling", "single_tree")
    cfg = small_cfg(n_branches=3, branch_size=branch_size, supervised=supervised,
                    studentize=studentize, alphas=(0.05, 0.15, 0.3), trials=3, tests=12,
                    grid_points=201)
    rows = []
    for tests in (1, 8, cfg.tests, cfg.trials * cfg.tests):
        floats = tests * (cfg.grid_points + 1)
        monkeypatch.setattr(sim, "_TESTS_BLOCK_FLOATS", floats)
        monkeypatch.setattr(sim, "_STUDENTIZED_BLOCK_FLOATS", floats)
        rows.append(repr(run_benchmark(cfg, methods=methods + ("hcp",) * (not supervised))))
    assert rows[0] == rows[1] == rows[2] == rows[3]


@pytest.mark.parametrize("field, value, message", [
    ("trials", 0, "trials must be at least 1, got 0"),
    ("tests", 0, "tests must be at least 1, got 0"),
    ("tests", -2, "tests must be at least 1, got -2"),
    ("alphas", (), "need at least one alpha"),
])
def test_config_needs_a_test_a_trial_and_an_alpha(field, value, message):
    with pytest.raises(ValueError, match=message):
        HierarchicalConfig(**{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("c", -1.0, "c must be nonnegative, got -1.0"),
    ("c", -0.3, "c must be nonnegative, got -0.3"),
    ("c", float("nan"), "c must be nonnegative, got nan"),
    ("sigma2", -0.5, "sigma2 must be nonnegative, got -0.5"),
    ("sigma2", float("nan"), "sigma2 must be nonnegative, got nan"),
    ("noise_sd", 0.0, "noise_sd must be positive, got 0.0"),
    ("noise_sd", float("nan"), "noise_sd must be positive, got nan"),
])
def test_config_rejects_negative_and_nan_parameters(field, value, message):
    with pytest.raises(ValueError, match=message):
        HierarchicalConfig(**{field: value})


def test_config_takes_an_infinite_c():
    assert HierarchicalConfig(c=float("inf")).c == float("inf")
    assert HierarchicalConfig(c=0.0).c == 0.0


def test_benchmark_thread_count_does_not_change_results():
    cfg = small_cfg(trials=4)
    a = run_benchmark(cfg, methods=("symmpi", "conformal"))
    b = run_benchmark(cfg, methods=("symmpi", "conformal"), threads=2)
    for ra, rb in zip(a, b):
        assert ra == rb


@pytest.mark.parametrize("supervised, branch_size", [(False, 6), (False, (3, 4)), (True, 8)])
def test_benchmark_threads_split_an_odd_trial_count(supervised, branch_size):
    # three trials over two workers: one takes a trial, the other two, and
    # each streams its trials through blocks of its own
    cfg = small_cfg(n_branches=3, branch_size=branch_size, supervised=supervised, trials=3,
                    tests=7, grid_points=101)
    methods = ("symmpi", "conformal", "subsampling", "single_tree")
    assert (repr(run_benchmark(cfg, methods=methods))
            == repr(run_benchmark(cfg, methods=methods, threads=2)))


def test_benchmark_single_tree_reports_inf():
    cfg = small_cfg(branch_size=8, alphas=(0.05,))
    rows = run_benchmark(cfg, methods=("single_tree",))
    assert rows[0].mean_length == float("inf")
    assert rows[0].unbounded_rate == 1.0
    assert rows[0].mean_coverage == 1.0
    assert "Inf" in bench_table(rows)


def test_benchmark_lengths_scale_with_noise():
    tiny = run_benchmark(small_cfg(noise_sd=1e-3, sigma2=0.0, alphas=(0.1,)),
                         methods=("symmpi",))[0]
    med = run_benchmark(small_cfg(noise_sd=1.0, sigma2=0.0, alphas=(0.1,)),
                        methods=("symmpi",))[0]
    assert tiny.mean_length < 0.05
    assert tiny.mean_coverage >= 0.9 - 3 * 0.3 / np.sqrt(60)
    assert med.mean_length > 1.0


def test_benchmark_symmpi_tracks_conformal_at_zero_spread():
    cfg = HierarchicalConfig(sigma2=0.0, trials=6, tests=60, seed=7, alphas=(0.05,))
    rows = run_benchmark(cfg, methods=("symmpi", "conformal"))
    by = {r.method: r for r in rows}
    ratio = by["symmpi"].mean_length / by["conformal"].mean_length
    assert abs(ratio - 1.0) <= 0.05
    # fully exchangeable case: both sit near twice the 0.95 normal quantile
    # times the 0.5 noise scale
    assert 1.90 <= by["conformal"].mean_length <= 2.06
    assert by["conformal"].mean_coverage >= 0.95 - 3 * np.sqrt(0.05 * 0.95 / 360)


@pytest.mark.parametrize("supervised, tests, parent_mib", [(False, 65, 3.54), (True, 64, 3.49)])
def test_harness_block_memory_stays_below_the_grid_arrays(supervised, tests, parent_mib):
    """One full block at the 2001-point grid, the first of seed 1's trial 0:
    a 65-test table-1 block and a 64-test table-2 block. Their traced peaks
    were 3.54 and 3.49 MiB while blocks formed each test's candidate grid,
    (tests x 2002) floats, and the supervised bands gathered (tests x rows
    x 2 x 2) matrices; reading the grids at their indices takes each peak
    at least 0.5 MiB lower (2.55 and 2.07 MiB)."""
    import tracemalloc

    methods = ("symmpi", "conformal", "subsampling", "single_tree")
    cfg = HierarchicalConfig(branch_size=30 if supervised else 15, supervised=supervised,
                             alphas=(0.05, 0.15), seed=1)
    rng = np.random.default_rng((cfg.seed, 0))
    draw, block = ((sim._draw_sup, sim._sup_block) if supervised
                   else (sim._draw_unsup, sim._unsup_block))
    draws = [draw(cfg, rng, methods) for _ in range(tests)]
    data = [np.stack(arrays) for arrays in zip(*(d[1] for d in draws))]
    picks = np.stack([d[2] for d in draws])
    block(*data, draws[0][0], picks, cfg, methods)
    tracemalloc.start()
    try:
        block(*data, draws[0][0], picks, cfg, methods)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (parent_mib - 0.5) * 2**20


def test_benchmark_symmpi_flat_while_conformal_grows():
    rows10 = run_benchmark(HierarchicalConfig(sigma2=10.0, trials=4, tests=50, seed=8,
                                              alphas=(0.05,)), methods=("symmpi", "conformal"))
    rows0 = run_benchmark(HierarchicalConfig(sigma2=0.0, trials=4, tests=50, seed=9,
                                             alphas=(0.05,)), methods=("symmpi", "conformal"))
    b10 = {r.method: r for r in rows10}
    b0 = {r.method: r for r in rows0}
    assert b10["symmpi"].mean_length / b0["symmpi"].mean_length < 1.2
    assert b10["conformal"].mean_length / b0["conformal"].mean_length > 10


# ----------------------------------------------------------------------
# The benchmark's first-observation rule
# ----------------------------------------------------------------------


def test_hcp_rows_match_their_per_candidate_rule():
    rng = np.random.default_rng(21)
    cfg = HierarchicalConfig(n_branches=5, branch_size=(2, 6), alphas=(0.1, 0.3, 0.6),
                             grid_points=201)
    for _ in range(10):
        branches = gen_unsup_ragged(cfg, rng)
        donors = branches[:-1]
        grid = candidate_grid(np.concatenate(branches)[:-1], cfg.grid_points, cfg.grid_pad_sd)
        gridp = np.append(grid, branches[-1][-1])
        rows = _unsup_eval(branches, cfg, rng, ("hcp",))["hcp"]
        sizes = np.array([b.size for b in donors])
        below = oracles.hcp_below(np.concatenate(donors)[None], sizes, gridp[None])[0]
        for alpha, (length, covered, unbounded) in zip(cfg.alphas, rows):
            member = oracles.hcp_rows_members(donors, gridp, alpha)
            assert np.array_equal(rank_member(below, alpha), member)
            assert covered == member[-1]
            assert unbounded == member[:-1].all()
            if not unbounded:
                assert length == member[:-1].sum() * (grid[1] - grid[0])


def test_hcp_rows_and_library_first_obs_set_are_different_rules():
    # Two donor branches. The library counts the candidate as a third branch
    # of weight 1/3, so the mass below it never reaches 2/3 and at
    # alpha = 0.3 every candidate is kept; the benchmark rule leaves the
    # candidate out and keeps |c - 1.5| <= 1.5.
    # The target branch holds only the truth, 1.5.
    donors = [np.array([0.0, 1.0]), np.array([2.0, 3.0])]
    cfg = HierarchicalConfig(n_branches=3, grid_points=91, alphas=(0.3,))
    grid = candidate_grid(np.concatenate(donors), cfg.grid_points, cfg.grid_pad_sd)
    assert hcp_first_obs_set(donors, grid, alpha=0.3).unbounded
    rows = _unsup_eval(donors + [np.array([1.5])], cfg, None, ("hcp",))["hcp"]
    [(length, covered, unbounded)] = rows
    assert covered and not unbounded
    kept = grid[oracles.hcp_rows_members(donors, grid, 0.3)]
    assert 0.0 <= kept.min() and kept.max() <= 3.0
    assert length == pytest.approx(3.0, abs=2 * (grid[1] - grid[0]))


def test_hcp_rows_keep_a_candidate_tied_with_a_donor():
    # the average of the branch means is -0.5375; the donor 0.5 ties the
    # candidate 0.5 and does not count below it, so the mass below is 5/12
    donors = [np.array([-1.2, 1.3, 0.5]), np.array([-2.0]), np.array([-1.5, 1.7, 0.7]),
              np.array([0.0, -1.3])]
    cfg = HierarchicalConfig(n_branches=5, grid_points=101, alphas=(0.5,))
    [(_, covered, _)] = _unsup_eval(donors + [np.array([0.5])], cfg, None, ("hcp",))["hcp"]
    assert covered
    assert oracles.hcp_rows_members(donors, [0.5], 0.5).all()


def test_hcp_rows_compare_scores_directly_on_a_lattice():
    # donors on a 0.1 lattice, candidates at the donor values and at their
    # mirror images about the average of the branch means, so that scores
    # tie: a donor counts below a candidate exactly when its score, as
    # computed, is below the candidate's
    rng = np.random.default_rng(25)
    sizes = np.array([3, 1, 3, 2])
    alphas = (0.2, 0.5, 0.7)
    donors = rng.integers(-20, 21, (2000, sizes.sum())) / 10
    grand = np.cumsum(_branch_stats(donors, sizes)[0], axis=1)[:, -1:] / sizes.size
    cands = np.concatenate([donors, 2 * grand - donors], axis=1)
    weights = np.repeat(1.0 / (sizes.size * sizes), sizes)
    below = (np.abs(donors - grand)[:, None, :] < np.abs(cands - grand)[:, :, None]) @ weights
    member = sim._hcp_intervals(donors, sizes, alphas).member(cands)
    for kept, alpha in zip(member, alphas):
        assert np.array_equal(kept, rank_member(below, alpha))
        assert np.array_equal(kept, rank_member(oracles.hcp_below(donors, sizes, cands), alpha))
