"""Compressive spectral clustering of large sparse graphs.

Approximate spectral clustering without eigendecomposition: polynomial
low-pass filtering of a few random signals yields per-node feature vectors,
k-means runs on a small uniform subsample of the nodes that have features
(isolated nodes and zero filtered rows are left out), and the resulting
cluster indicators are lifted back to the full graph by least squares in the
span of the filtered signals. An exact dense oracle, an SBM benchmark
generator and evaluation metrics are included for verification at desk scale.
"""

from .graph import (
    Graph,
    GraphError,
    LaplacianOp,
    build_graph,
    laplacian_op,
    read_edge_list,
    write_edge_list,
)
from .oracle import DenseCapError, EigenBasis, dense_eig, spectral_clustering
from .filters import PolyFilter, apply_filter, design_lowpass, jackson_multipliers
from .spectrum import LambdaKEstimate, chebyshev_moments, count_curve, estimate_lambda_k
from .features import FeatureMatrix, build_features, generate_signals
from .kmeans import KmeansConfig, Labeling, kmeans, labels_to_indicators
from .sampling import assign, draw_sampling, interpolate_all
from .result import ClusterResult
from .pipeline import (
    CscParams,
    DegenerateClusteringError,
    default_num_samples,
    default_num_signals,
    run_csc,
    run_sc_baseline,
)
from .sbm import SbmConfig, adjusted_rand_index, critical_epsilon, modularity, sbm_generate, sweep

__version__ = "0.1.0"

__all__ = [
    "Graph", "GraphError", "LaplacianOp", "build_graph",
    "laplacian_op", "read_edge_list", "write_edge_list",
    "DenseCapError", "EigenBasis", "dense_eig", "spectral_clustering",
    "PolyFilter", "apply_filter", "design_lowpass", "jackson_multipliers",
    "LambdaKEstimate", "chebyshev_moments", "count_curve", "estimate_lambda_k",
    "FeatureMatrix", "build_features", "generate_signals",
    "KmeansConfig", "Labeling", "kmeans", "labels_to_indicators",
    "ClusterResult", "assign", "draw_sampling", "interpolate_all",
    "CscParams", "DegenerateClusteringError", "default_num_samples",
    "default_num_signals", "run_csc", "run_sc_baseline",
    "SbmConfig", "adjusted_rand_index", "critical_epsilon",
    "modularity", "sbm_generate", "sweep",
    "__version__",
]
