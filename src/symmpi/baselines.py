"""Comparison methods for the hierarchical benchmarks.

Three reference constructions: conformal within the last branch only, split
conformal over the pooled data, and conformal over one subsampled observation
per other branch. All are valid; they differ from the adaptive method in
width under branch heterogeneity.
"""

from __future__ import annotations

import numpy as np

from .calibrate import (
    PredictionSet,
    _checked_candidates,
    _finite_set,
    _interval_set,
    _rows_below,
    centered_intervals,
    rank_member,
    score_intervals,
)


def _pool(values) -> np.ndarray:
    if isinstance(values, (list, tuple)):
        return np.concatenate([np.asarray(v, dtype=float).ravel() for v in values])
    return np.asarray(values, dtype=float).ravel()


def single_tree_set(
    branch_values,
    candidates,
    alpha: float,
    score=None,
) -> PredictionSet:
    """Conformal set using only the target's own branch.

    ``branch_values`` are the branch's observed points; the candidate joins
    them as the final value. The default score is the absolute deviation from
    the branch mean (candidate included); pass ``score(values) -> scores`` for
    alternatives such as plain absolute value. Unbounded whenever
    ceil(M (1 - alpha)) exceeds the observed count. The default set is an
    interval (``centered_intervals``); a custom score is ranked candidate by
    candidate.
    """
    obs = np.asarray(branch_values, dtype=float).ravel()
    cands = _checked_candidates(candidates, alpha)
    if score is None:
        return _interval_set(centered_intervals(obs[None], (alpha,)), cands)

    def below(finite):
        scored = np.array([np.asarray(score(np.append(obs, c)), dtype=float) for c in finite])
        return _rows_below(scored[:, :-1], scored[:, -1])

    return _finite_set(cands, lambda finite: rank_member(below(finite), alpha))


def split_conformal_set(
    values,
    candidates,
    alpha: float,
    mu=None,
    x=None,
    x_new=None,
) -> PredictionSet:
    """Split conformal over all pooled observations.

    Unsupervised (``mu`` None): scores are absolute deviations from the grand
    average, candidate included in both the average and the quantile.
    Supervised: scores are |y - mu(x)| with the pooled regressor, and the
    candidate scored at ``x_new``. Either set is an interval
    (``centered_intervals``, ``score_intervals``).
    """
    obs = _pool(values)
    cands = _checked_candidates(candidates, alpha)
    if mu is None:
        return _interval_set(centered_intervals(obs[None], (alpha,)), cands)
    cal = np.abs(obs - np.asarray(mu(_pool(x)), dtype=float))
    pred = float(np.asarray(mu(np.array([x_new])), dtype=float)[0])
    return _interval_set(score_intervals(cal[None], (alpha,), np.full((1, 1), pred)), cands)


def subsampling_set(
    branches,
    candidates,
    alpha: float,
    rng: np.random.Generator,
    mu=None,
    branch_x=None,
    x_new=None,
) -> PredictionSet:
    """Conformal over one uniformly drawn observation per non-target branch.

    The draws and the target are exchangeable under the hierarchical model,
    so a conformal set over the K pooled values is valid.
    """
    branch_list = [np.asarray(b, dtype=float).ravel() for b in branches]
    if not branch_list:
        raise ValueError("need at least one donor branch")
    idx = [int(rng.integers(b.size)) for b in branch_list]
    picks = np.array([b[i] for b, i in zip(branch_list, idx)])
    xs = None
    if mu is not None:
        xs = np.array([np.asarray(bx, dtype=float).ravel()[i] for bx, i in zip(branch_x, idx)])
    return split_conformal_set(picks, candidates, alpha, mu=mu, x=xs, x_new=x_new)
