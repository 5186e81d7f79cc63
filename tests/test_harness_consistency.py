"""The benchmark harness evaluates membership with sorted-count shortcuts;
these tests pin it against the plain transform + quantile route."""

import numpy as np

from symmpi.calibrate import (
    _LEVEL_EPS,
    candidate_grid,
    supervised_hierarchical_set,
    symmpi_set_randomsize,
)
from symmpi.sim import HierarchicalConfig, _sup_eval, _unsup_eval
from symmpi.transforms import hierarchical_unsup_transform


def test_fast_unsup_path_matches_transform_grid():
    rng = np.random.default_rng(0)
    K, M = 4, 5
    cfg = HierarchicalConfig(n_branches=K, branch_size=M, sigma2=2.0,
                             alphas=(0.05, 0.3), grid_points=301, seed=0,
                             studentize=True)
    for rep in range(30):
        z = rng.normal(size=(K, M)) + rng.normal(size=(K, 1)) * 2
        res = _unsup_eval([z[k] for k in range(K)], cfg, np.random.default_rng(1), ("symmpi",))
        obs = np.delete(z.ravel(), K * M - 1)
        grid = candidate_grid(obs, 301, 4.0)
        gridp = np.append(grid, z[-1, -1])
        arr = np.broadcast_to(z, (gridp.size, K, M)).copy()
        arr[:, -1, -1] = gridp
        sc = hierarchical_unsup_transform(arr, cfg.c)
        own = sc[:, -1, -1]
        flat = sc.reshape(gridp.size, -1)
        for ai, alpha in enumerate(cfg.alphas):
            member = (flat < own[:, None]).sum(axis=1) / (K * M) < (1 - alpha) - _LEVEL_EPS
            length = member[:-1].sum() * (grid[1] - grid[0])
            got_len, got_cov, _ = res["symmpi"][ai]
            assert abs(got_len - length) < 1e-9
            assert got_cov == bool(member[-1])


def test_fast_ragged_path_matches_randomsize_set():
    rng = np.random.default_rng(2)
    for rep in range(10):
        sizes = rng.choice([3, 5], 4)
        mu = rng.normal(0, 2, 4)
        branches = [mu[k] + rng.normal(0, 1, int(n)) for k, n in enumerate(sizes)]
        cfg = HierarchicalConfig(n_branches=4, branch_size=(3, 5), sigma2=2.0,
                                 alphas=(0.25,), grid_points=201, seed=0,
                                 studentize=True)
        res = _unsup_eval(branches, cfg, np.random.default_rng(1), ("symmpi",))
        observed = branches[:-1] + [branches[-1][:-1]]
        grid = candidate_grid(np.concatenate(observed), 201, 4.0)
        ps = symmpi_set_randomsize(observed, grid, alpha=0.25, c=2.0)
        got_len, got_cov, _ = res["symmpi"][0]
        assert abs(got_len - ps.length) < 1e-9
        truth = branches[-1][-1]
        truth_set = symmpi_set_randomsize(observed, np.array([truth]), alpha=0.25, c=2.0)
        assert got_cov == bool(truth_set.member[0])


def test_fast_sup_path_matches_supervised_set():
    """Equal and ragged branch sizes: the harness's donor search is the
    library's, on a split made here by hand."""
    rng = np.random.default_rng(3)
    K = 4
    for rep in range(20):
        sizes = [8] * K if rep < 10 else [int(n) for n in rng.choice([5, 6, 8, 9], K)]
        cfg = HierarchicalConfig(n_branches=K, branch_size=sizes[0] if rep < 10 else (5, 9),
                                 sigma2=2.0, supervised=True, alphas=(0.2,), grid_points=201,
                                 seed=0, studentize=True)
        theta = rng.normal(0, 2, K)
        xs = [rng.uniform(-0.5, 0.5, n) for n in sizes]
        ys = [theta[k] * xs[k] + rng.normal(0, 0.4, n) for k, n in enumerate(sizes)]
        res = _sup_eval(xs, ys, cfg, np.random.default_rng(1), ("symmpi",))

        m = [(n + 1) // 2 for n in sizes]
        tr_x = [x[:mk] for x, mk in zip(xs, m)]
        tr_y = [y[:mk] for y, mk in zip(ys, m)]
        cal_x = [x[mk:] for x, mk in zip(xs, m)]
        cal_y = [y[mk:] for y, mk in zip(ys, m)]
        x_new = cal_x[-1][-1]
        truth = cal_y[-1][-1]
        cal_x[-1] = cal_x[-1][:-1]
        cal_y[-1] = cal_y[-1][:-1]
        grid = candidate_grid(np.concatenate(cal_y), 201, 4.0)
        ps = supervised_hierarchical_set(tr_x, tr_y, cal_x, cal_y, x_new, grid, 0.2)
        got_len, got_cov, _ = res["symmpi"][0]
        assert got_len == ps.length or abs(got_len - ps.length) < 1e-9  # both may be Inf
        truth_set = supervised_hierarchical_set(tr_x, tr_y, cal_x, cal_y, x_new,
                                                np.array([truth]), 0.2)
        assert got_cov == bool(truth_set.member[0])
