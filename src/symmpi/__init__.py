"""Finite-sample prediction sets for data with group symmetries."""

from .groups import (
    BlockPermutationGroup,
    CosetDecomposition,
    GraphAutomorphismGroup,
    GroupAction,
    NotEnumerableError,
    OrthogonalGroup,
    Permutation,
    PermutationGroup,
    SymmetricGroup,
    TrivialGroup,
    coset_representatives,
    default_probes,
    enumerate_automorphisms,
    orbit_of_index,
    sample_block_permutation,
    sample_haar_orthogonal,
    sample_uniform_permutation,
)
from .transforms import (
    EquivarianceReport,
    LinearModel,
    RegressorBundle,
    TreeGraph,
    check_distributional_equivariance,
    energy_permutation_test,
    fit_regressors,
    five_step_supervised_scores,
    hierarchical_sup_transform,
    hierarchical_unsup_transform,
    interpolation_unsup_scores,
    mpgnn_forward,
)
from .calibrate import (
    ConformalIntervals,
    PredictionSet,
    Threshold,
    WeightSpec,
    candidate_grid,
    centered_intervals,
    estimate_shift_gap,
    finite_quantile,
    hcp_first_obs_set,
    hierarchical_below,
    nonsym_set,
    overcoverage_bound,
    randomized_set,
    rank_member,
    score_intervals,
    supervised_below,
    supervised_hierarchical_set,
    symmpi_set,
    symmpi_set_randomsize,
    threshold,
    threshold_from_scores,
)
from .baselines import single_tree_set, split_conformal_set, subsampling_set
from .network import (
    CoarsenedGraph,
    cluster_sum_set,
    coarsen_graph,
    graph_vertex_set,
    tree_leaf_set,
)

__version__ = "0.1.0"
