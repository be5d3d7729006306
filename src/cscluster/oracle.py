"""Exact small-scale spectral machinery: the correctness oracle for everything else.

``dense_eig`` diagonalizes the normalized Laplacian with LAPACK
(``scipy.linalg.eigh``); ``spectral_clustering`` is the standard k-way
baseline (first k eigenvectors, row normalization, k-means). Both are meant
for graphs small enough to densify. The paper's error terms (the filter's
sup errors e1, e2 on the spectrum, the coherences of U_k) are one line each
from an ``EigenBasis`` and ``PolyFilter.evaluate``, so the package keeps no
helper for them.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .graph import LaplacianOp
from .kmeans import KmeansConfig, kmeans, labels_to_indicators
from .result import ClusterResult

logger = logging.getLogger(__name__)

DEFAULT_DENSE_CAP = 5000
_TIE_TOL = 1e-10


class DenseCapError(ValueError):
    """Graph too large for the dense oracle path."""


@dataclass
class EigenBasis:
    """Full spectrum of a normalized Laplacian: ascending eigenvalues in
    [0, 2] and the orthonormal eigenvector matrix (one per column)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def num_nodes(self) -> int:
        return int(self.eigenvalues.size)

    def leading(self, k: int) -> np.ndarray:
        """First k eigenvectors as an N x k block."""
        return self.eigenvectors[:, :k]


def dense_eig(op: LaplacianOp, *, cap: int = DEFAULT_DENSE_CAP, vectors: bool = True) -> EigenBasis:
    """Full eigendecomposition of L by LAPACK (dense path, N <= cap).

    Raises DenseCapError above the cap: use the compressive pipeline there,
    that is the whole point of it.
    """
    n = op.num_nodes
    if n > cap:
        raise DenseCapError(
            f"dense eigendecomposition refused for N={n} > cap={cap}; "
            "use the polynomial-filtering pipeline (run_csc) for graphs this size"
        )
    # divide and conquer (syevd): 0.15 s at N = 1000 on 2 vCPUs against 0.25 s
    # for scipy's default MRRR driver; overwrite_a spares a second N x N buffer
    L = op.dense()
    if vectors:
        w, V = scipy.linalg.eigh(L, overwrite_a=True, driver="evd")
        return EigenBasis(eigenvalues=w, eigenvectors=V)
    w = scipy.linalg.eigh(L, eigvals_only=True, overwrite_a=True, driver="evd")
    return EigenBasis(eigenvalues=w, eigenvectors=np.empty((n, 0)))


def spectral_clustering(
    op: LaplacianOp,
    k: int,
    kmeans_cfg: KmeansConfig | None = None,
    *,
    cap: int = DEFAULT_DENSE_CAP,
    basis: EigenBasis | None = None,
) -> ClusterResult:
    """Exact spectral clustering baseline.

    Steps: first k eigenvectors of L; rows normalized to unit length; k-means
    on the resulting feature vectors. Nodes with (numerically) zero rows in
    U_k are the pathologic case where normalization is undefined; they raise.
    A precomputed ``basis`` skips the eigendecomposition.
    """
    n = op.num_nodes
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for N={n}")
    cfg = kmeans_cfg or KmeansConfig(k=k)
    if cfg.k != k:
        raise ValueError(f"kmeans_cfg.k={cfg.k} does not match k={k}")

    t0 = time.perf_counter()
    if basis is None:
        basis = dense_eig(op, cap=cap)
    t_eig = time.perf_counter() - t0

    w = basis.eigenvalues
    degenerate_cut = bool(k < n and abs(w[k] - w[k - 1]) <= _TIE_TOL * max(1.0, abs(w[k - 1])))
    if degenerate_cut:
        logger.warning("eigenvalue tie at position k=%d (%.3e ~ %.3e); taking first k columns", k, w[k - 1], w[k])

    Uk = basis.leading(k)
    norms = np.linalg.norm(Uk, axis=1)
    bad = np.flatnonzero(norms <= 1e-12)
    if bad.size:
        raise ValueError(f"zero row norm in the leading eigenvector block at node(s) {bad.tolist()[:10]}")
    Y = Uk / norms[:, None]

    t1 = time.perf_counter()
    labeling = kmeans(Y, cfg)
    t_kmeans = time.perf_counter() - t1

    soft = labels_to_indicators(labeling.labels, k, n)
    diagnostics = {
        "method": "sc",
        "num_nodes": n,
        "num_edges": op.graph.num_edges,
        "k": k,
        "lambda_k": float(w[k - 1]),
        "degenerate_eigenvalue_cut": degenerate_cut,
        "kmeans_inertia": labeling.inertia,
        "kmeans_iterations": labeling.iterations_run,
        "seed": cfg.seed,
        "timings": {"eig": t_eig, "kmeans": t_kmeans, "total": t_eig + t_kmeans},
    }
    return ClusterResult(labels=labeling.labels, soft=soft, diagnostics=diagnostics)
