"""Compressive spectral clustering of large sparse graphs.

Approximate spectral clustering without eigendecomposition: polynomial
low-pass filtering of a few random signals yields per-node feature vectors,
k-means runs on the unit-normalized feature vectors of a small uniform
subsample of the nodes (isolated nodes are left out), and the resulting
cluster indicators are lifted back to the full graph by least squares in the
span of the filtered signals. An exact spectral clustering baseline (ARPACK
on connected graphs, dense LAPACK on small or split ones), an SBM benchmark
generator and evaluation metrics are included for verification.
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
from .oracle import DenseCapError, EigenBasis, dense_eig, run_sc_baseline
from .filters import build_features, generate_signals, jackson_multipliers, lowpass_coefficients
from .spectrum import LambdaKEstimate, chebyshev_moments, count_curve, estimate_lambda_k
from .kmeans import Labeling, kmeans
from .sampling import assign, draw_sampling, interpolate_all
from .result import ClusterResult, DegenerateClusteringError
from .pipeline import CscParams, default_num_samples, default_num_signals, run_csc
from .sbm import SbmConfig, adjusted_rand_index, critical_epsilon, modularity, sbm_generate, sweep

__version__ = "0.1.0"

__all__ = [
    "Graph", "GraphError", "LaplacianOp", "build_graph",
    "laplacian_op", "read_edge_list", "write_edge_list",
    "DenseCapError", "EigenBasis", "dense_eig", "run_sc_baseline",
    "build_features", "generate_signals", "jackson_multipliers", "lowpass_coefficients",
    "LambdaKEstimate", "chebyshev_moments", "count_curve", "estimate_lambda_k",
    "Labeling", "kmeans",
    "ClusterResult", "assign", "draw_sampling", "interpolate_all",
    "CscParams", "DegenerateClusteringError", "default_num_samples",
    "default_num_signals", "run_csc",
    "SbmConfig", "adjusted_rand_index", "critical_epsilon",
    "modularity", "sbm_generate", "sweep",
    "__version__",
]
