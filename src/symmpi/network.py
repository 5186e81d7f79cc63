"""Prediction for values attached to graph vertices.

Symmetry comes from the graph's automorphism group: the unobserved vertex's
orbit supplies the calibration values. Coarsening merges vertices into
cluster nodes (keeping edge multiplicities) to trade resolution for a larger,
easier-to-find symmetry group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibrate import (
    PredictionSet,
    _checked_candidates,
    _finite_set,
    _interval_set,
    score_intervals,
)
from .groups import (AUTOMORPHISM_SEARCH_CAP, GraphAutomorphismGroup, enumerate_automorphisms,
                     orbit_of_index)


def graph_vertex_set(
    values,
    aut: GraphAutomorphismGroup,
    target: int,
    candidates,
    alpha: float,
) -> PredictionSet:
    """Prediction set for one unobserved vertex via its orbit quantile.

    ``values`` holds the vertex data with any placeholder at ``target``.
    A candidate v is kept when v <= Q_{1-alpha} of the orbit values
    (candidate included). Scoring the gap between the target value and its
    orbit average gives the same set, as that average is the same for every
    value a candidate is compared with. A size-one orbit gives no
    calibration information and is flagged (full grid kept).
    """
    vals = np.asarray(values, dtype=float)
    cands = _checked_candidates(candidates, alpha)
    orbit, stab = orbit_of_index(aut, target)
    meta = {"orbit_size": int(orbit.size), "overcoverage_bound": stab / aut.order()}
    if orbit.size == 1:
        meta["trivial_orbit"] = True
        return _finite_set(cands, lambda finite: np.ones(finite.shape, dtype=bool), meta)
    others = vals[orbit[orbit != target]]
    return _interval_set(score_intervals(others[None], (alpha,)), cands, meta)


def tree_leaf_set(leaf_values, candidates, alpha: float) -> PredictionSet:
    """Set for the last leaf of the last branch of a depth-two tree.

    All K*M leaves are in one automorphism orbit, so the threshold is the
    quantile of every leaf's absolute value, candidate included.
    """
    leaves = np.asarray(leaf_values, dtype=float)
    cands = _checked_candidates(candidates, alpha)
    return _interval_set(score_intervals(np.abs(leaves.ravel()[:-1])[None], (alpha,),
                                         np.zeros((1, 1))), cands)


@dataclass
class CoarsenedGraph:
    """A graph whose vertices were merged into clusters, keeping multiplicities."""

    assignment: np.ndarray  # vertex -> cluster index
    multi_adjacency: np.ndarray

    @property
    def n_clusters(self) -> int:
        return self.multi_adjacency.shape[0]

    def automorphism_group(self, cap: int = AUTOMORPHISM_SEARCH_CAP) -> GraphAutomorphismGroup:
        return enumerate_automorphisms(self.multi_adjacency, cap=cap)


def coarsen_graph(adjacency, clusters) -> CoarsenedGraph:
    """Merge vertex clusters into single nodes, summing edge multiplicities.

    ``clusters`` is a list of index collections partitioning the vertex set.
    The entry (a, b) of the result sums all original weights between cluster
    a and cluster b, so the total weight is preserved.
    """
    A = np.asarray(adjacency, dtype=float)
    n = A.shape[0]
    assignment = np.full(n, -1, dtype=np.int64)
    for ci, members in enumerate(clusters):
        for v in members:
            if assignment[v] != -1:
                raise ValueError(f"vertex {v} appears in two clusters")
            assignment[v] = ci
    if np.any(assignment == -1):
        raise ValueError("clusters must cover every vertex")
    m = len(clusters)
    B = np.zeros((m, m))
    for a in range(m):
        ia = np.flatnonzero(assignment == a)
        for b in range(m):
            ib = np.flatnonzero(assignment == b)
            B[a, b] = A[np.ix_(ia, ib)].sum()
    return CoarsenedGraph(assignment=assignment, multi_adjacency=B)


def cluster_sum_set(branch_sums_observed, candidates, alpha: float) -> PredictionSet:
    """Set for the total of the last branch, calibrated on the other branch sums.

    ``branch_sums_observed`` holds the K-1 complete branch totals (first-layer
    node plus leaves); each candidate total joins them as the K-th value and
    is kept when its magnitude is within the quantile of all K magnitudes.
    """
    sums = np.asarray(branch_sums_observed, dtype=float).ravel()
    cands = _checked_candidates(candidates, alpha)
    return _interval_set(score_intervals(np.abs(sums)[None], (alpha,), np.zeros((1, 1))), cands)
