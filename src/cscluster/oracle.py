"""Exact small-scale spectral machinery: the correctness oracle for everything else.

``dense_eig`` returns the leading eigenpairs of the normalized Laplacian
(all of them by default) from LAPACK (``scipy.linalg.eigh``);
``run_sc_baseline`` is the standard k-way spectral clustering baseline (first
k eigenvectors, row normalization, k-means), on the k + 1 leading pairs it
reads or on a given basis. Without a basis, both are meant for graphs small
enough to densify. The baseline returns the k-means labels and its
diagnostics, as ``run_csc`` does. The paper's error terms (the filter's sup
errors e1, e2 on the spectrum, the coherences of U_k) are one line each from
an ``EigenBasis`` (U_k is ``eigenvectors[:, :k]``) and numpy's
``chebval(eigenvalues - 1, c)`` of a ``filters.lowpass_coefficients`` row c,
so the package keeps no helper for them.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._rng import substream_seed
from .graph import LaplacianOp
from .kmeans import kmeans
from .result import ClusterResult, DegenerateClusteringError

logger = logging.getLogger(__name__)

DEFAULT_DENSE_CAP = 5000
_TIE_TOL = 1e-10


class DenseCapError(ValueError):
    """Graph too large for the dense oracle path."""


@dataclass
class EigenBasis:
    """Leading eigenpairs of a normalized Laplacian: ascending eigenvalues in
    [0, 2] and the orthonormal eigenvectors (one per column, N rows)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def dense_eig(op: LaplacianOp, count: int | None = None) -> EigenBasis:
    """The ``count`` leading eigenpairs of L by LAPACK (all N by default;
    dense path, N <= DEFAULT_DENSE_CAP).

    Raises DenseCapError above the cap, before L is made dense: use the
    compressive pipeline there, that is the whole point of it. A ``count``
    outside [1, N] raises ValueError.
    """
    n = op.num_nodes
    if n > DEFAULT_DENSE_CAP:
        raise DenseCapError(
            f"dense eigendecomposition refused for N={n} > cap={DEFAULT_DENSE_CAP}; "
            "use the polynomial-filtering pipeline (run_csc) for graphs this size"
        )
    count = n if count is None else count
    if not 1 <= count <= n:
        raise ValueError(f"count={count} eigenpairs out of range [1, {n}]")
    # MRRR (syevr) computes only the leading pairs asked for: the k + 1 that SC
    # reads take 0.05-0.06 s at N = 1000, k = 20 on 2 vCPUs, against 0.15 s
    # for all N pairs by divide and conquer (syevd). That holds only when no
    # other BLAS is busy: numpy and scipy each load their own OpenBLAS, and
    # within about 0.1 s of a numpy BLAS call (such as a run_csc just before)
    # that pool's spinning worker holds the second vCPU, and the same call
    # takes 0.10-0.11 s, as with one BLAS thread. L comes in Fortran order,
    # so overwrite_a leaves LAPACK no N x N copy to make
    w, V = scipy.linalg.eigh(
        op.dense(), overwrite_a=True, check_finite=False, driver="evr", subset_by_index=[0, count - 1]
    )
    return EigenBasis(eigenvalues=w, eigenvectors=V)


def run_sc_baseline(op: LaplacianOp, k: int, *, seed: int = 0, basis: EigenBasis | None = None) -> ClusterResult:
    """Exact spectral clustering with the shared result schema.

    Steps: first k eigenvectors of L; rows normalized to unit length; k-means
    on the resulting feature vectors, seeded from the same substream of
    ``seed`` as ``run_csc``'s. Nodes with (numerically) zero rows in U_k are
    the pathologic case where normalization is undefined; they raise
    DegenerateClusteringError. An isolated node has such a row once
    lambda_k < 1. A precomputed ``basis`` skips the eigendecomposition; it
    needs N rows and at least min(k + 1, N) leading pairs, or ValueError.
    """
    n = op.num_nodes
    if k < 2:
        raise ValueError(f"k must be >= 2, got k={k}")
    if k > n:
        raise ValueError(f"k={k} out of range for N={n}")
    count = min(k + 1, n)  # U_k, and lambda_{k+1} for the tie check
    if basis is not None:
        vectors, values = np.shape(basis.eigenvectors), np.shape(basis.eigenvalues)
        if len(vectors) != 2 or vectors[0] != n or vectors[1] < count or values != vectors[1:]:
            raise ValueError(
                f"basis with eigenvectors of shape {vectors} and eigenvalues of shape {values}: "
                f"need {n} rows and at least {count} columns, one eigenvalue per column"
            )
    kmeans_seed = substream_seed(seed, "kmeans")

    t0 = time.perf_counter()
    if basis is None:
        basis = dense_eig(op, count)
    t_eig = time.perf_counter() - t0

    w = basis.eigenvalues
    degenerate_cut = bool(k < n and abs(w[k] - w[k - 1]) <= _TIE_TOL * max(1.0, abs(w[k - 1])))
    if degenerate_cut:
        logger.warning("eigenvalue tie at position k=%d (%.3e ~ %.3e); taking first k columns", k, w[k - 1], w[k])

    Uk = basis.eigenvectors[:, :k]
    norms = np.linalg.norm(Uk, axis=1)
    bad = np.flatnonzero(norms <= 1e-12)
    if bad.size:
        raise DegenerateClusteringError(f"zero row norm in the leading eigenvector block at node(s) {bad.tolist()[:10]}")
    Y = Uk / norms[:, None]

    t1 = time.perf_counter()
    labeling = kmeans(Y, k, kmeans_seed)
    t_kmeans = time.perf_counter() - t1

    diagnostics = {
        "method": "sc",
        "num_nodes": n,
        "num_edges": op.graph.num_edges,
        "k": k,
        "lambda_k": float(w[k - 1]),
        "degenerate_eigenvalue_cut": degenerate_cut,
        "kmeans_inertia": labeling.inertia,
        "kmeans_iterations": labeling.iterations_run,
        "seed": kmeans_seed,
        "timings": {"eig": t_eig, "kmeans": t_kmeans, "total": t_eig + t_kmeans},
    }
    return ClusterResult(labels=labeling.labels, diagnostics=diagnostics)
