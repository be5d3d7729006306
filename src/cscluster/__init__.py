"""Compressive spectral clustering of large sparse graphs.

Approximate spectral clustering without eigendecomposition: polynomial
low-pass filtering of a few random signals yields per-node feature vectors,
k-means runs on a small uniform subsample of nodes, and the resulting
cluster indicators are interpolated back to the full graph as bandlimited
signals. An exact dense oracle, an SBM benchmark generator and evaluation
metrics are included for verification at desk scale.
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
from .oracle import (
    CoherenceProfile,
    DenseCapError,
    EigenBasis,
    coherence,
    dense_eig,
    spectral_clustering,
)
from .filters import (
    ErrorBudget,
    PolyFilter,
    ResolutionCheck,
    apply_filter,
    check_resolution_bound,
    design_lowpass,
    error_split,
    jackson_multipliers,
    matched_highpass,
    psd_ridge,
)
from .spectrum import EigencountEstimate, LambdaKEstimate, eigencount, estimate_lambda_k
from .features import (
    FeatureMatrix,
    RandomSignals,
    build_features,
    generate_signals,
    pairwise_distance,
)
from .kmeans import KmeansConfig, Labeling, kmeans, labels_to_indicators
from .sampling import (
    CgInfo,
    InterpolationConfig,
    SamplingSet,
    assign,
    draw_sampling,
    interpolate,
    interpolate_all,
)
from .result import ClusterResult
from .pipeline import (
    CscParams,
    DegenerateClusteringError,
    default_num_samples,
    default_num_signals,
    run_csc,
    run_sc_baseline,
)
from .sbm import (
    MetricReport,
    SbmConfig,
    adjusted_rand_index,
    critical_epsilon,
    modularity,
    sbm_generate,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "Graph", "GraphError", "LaplacianOp", "build_graph",
    "laplacian_op", "read_edge_list", "write_edge_list",
    "CoherenceProfile", "DenseCapError", "EigenBasis", "coherence", "dense_eig",
    "spectral_clustering",
    "ErrorBudget", "PolyFilter", "ResolutionCheck", "apply_filter",
    "check_resolution_bound", "design_lowpass", "error_split",
    "jackson_multipliers", "matched_highpass", "psd_ridge",
    "EigencountEstimate", "LambdaKEstimate", "eigencount", "estimate_lambda_k",
    "FeatureMatrix", "RandomSignals", "build_features", "generate_signals",
    "pairwise_distance",
    "KmeansConfig", "Labeling", "kmeans", "labels_to_indicators",
    "CgInfo", "ClusterResult", "InterpolationConfig", "SamplingSet", "assign",
    "draw_sampling", "interpolate", "interpolate_all",
    "CscParams", "DegenerateClusteringError", "default_num_samples",
    "default_num_signals", "run_csc", "run_sc_baseline",
    "MetricReport", "SbmConfig", "adjusted_rand_index", "critical_epsilon",
    "modularity", "sbm_generate", "sweep",
    "__version__",
]
