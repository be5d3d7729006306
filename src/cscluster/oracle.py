"""Exact spectral machinery: the correctness oracle for everything else.

``dense_eig`` returns the leading eigenpairs of the normalized Laplacian
(all of them by default): from ARPACK on the sparse S when fewer than N
pairs of a connected graph are asked for and the graph is larger than
ARPACK's Krylov space, and from LAPACK (``scipy.linalg.eigh``) otherwise,
where the graph must be small enough to densify. ARPACK's result must pass
a residual check, and while its Krylov basis holds at most PIN_MAX_BASIS
entries it runs on one thread of scipy's own OpenBLAS pool (see
``dense_eig`` for the rule and its measurements; numpy's OpenBLAS is left
alone). ``run_sc_baseline`` is the standard k-way spectral clustering
baseline (first k eigenvectors, row normalization, k-means), on the k + 1
leading pairs it reads or on a given basis; on a connected graph it runs at
any N. The baseline returns the k-means labels and its diagnostics, as
``run_csc`` does. The paper's error terms (the filter's sup errors e1, e2
on the spectrum, the coherences of U_k) are one line each from an
``EigenBasis`` (U_k is ``eigenvectors[:, :k]``) and numpy's
``chebval(eigenvalues - 1, c)`` of a ``filters.lowpass_coefficients`` row
c, so the package keeps no helper for them.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackError

from ._rng import substream_seed
from .graph import LaplacianOp
from .kmeans import kmeans
from .result import ClusterResult, DegenerateClusteringError

logger = logging.getLogger(__name__)

# the largest N whose L is densified: it bounds full spectra and the LAPACK
# fallback for split or small graphs, not SC on a connected graph
DEFAULT_DENSE_CAP = 5000
_TIE_TOL = 1e-10
# the largest Krylov basis, N x ncv entries, whose ARPACK solve runs on one
# thread of scipy's BLAS pool (see dense_eig). From a sweep of eigsh at
# k = 20-50, 3-6 processes per point, 2 vCPUs: at N ncv of 4.3e4-9.9e4 one
# thread was faster in 10 of 15 processes, at 1.08e5-2.2e5 slower in 11 of 15
PIN_MAX_BASIS = 100_000
# ARPACK's eigenpairs must satisfy max_j ||S v_j - mu_j v_j|| <= this
ARPACK_RESIDUAL_TOL = 1e-8
_pin_lock = threading.Lock()


class DenseCapError(ValueError):
    """Graph too large for the dense (LAPACK) path, which full spectra and
    graphs of more than one connected component take."""


@dataclass
class EigenBasis:
    """Leading eigenpairs of a normalized Laplacian: ascending eigenvalues in
    [0, 2] and the orthonormal eigenvectors (one per column, N rows).
    ``solver`` names the eigensolver that ``dense_eig`` used, "arpack" or
    "lapack"; it is None for a basis computed elsewhere. ``blas_threads`` is
    1 when ``dense_eig`` ran ARPACK on one thread of scipy's BLAS pool, and
    None otherwise."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    solver: str | None = None
    blas_threads: int | None = None


@functools.cache
def _scipy_openblas():
    """The (get, set) thread-count functions of the OpenBLAS that scipy
    ships and has already loaded into this process, or None. The library is
    opened with RTLD_NOLOAD, so this never loads a second OpenBLAS with a
    pool of its own; numpy's OpenBLAS is a different library and is never
    touched."""
    mode = getattr(os, "RTLD_NOLOAD", None)
    if mode is None:
        return None
    root = Path(scipy.__file__).parent
    # Linux wheels keep it in site-packages/scipy.libs, macOS ones in scipy/.dylibs
    for path in sorted([*root.parent.glob("scipy.libs/lib*openblas*"), *root.glob(".dylibs/lib*openblas*")]):
        try:
            lib = ctypes.CDLL(str(path), mode=mode | os.RTLD_LAZY)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):  # older wheels use the plain names
            get = getattr(lib, f"{prefix}_get_num_threads", None)
            put = getattr(lib, f"{prefix}_set_num_threads", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body on one thread of scipy's OpenBLAS pool and yield 1, then
    restore the pool's count; yield None and change nothing when that
    library is not found. The module lock is held throughout, so concurrent
    callers run their bodies one at a time and the pool ends at the count
    the first one found."""
    blas = _scipy_openblas()
    if blas is None:
        yield None
        return
    get, put = blas
    with _pin_lock:
        found = get()
        put(1)
        try:
            yield 1
        finally:
            put(found)


def dense_eig(op: LaplacianOp, count: int | None = None) -> EigenBasis:
    """The ``count`` leading eigenpairs of L (all N by default).

    ARPACK (``eigsh`` on the ``count`` largest algebraic eigenvalues mu of
    the sparse S, from a fixed start vector, so the call is deterministic;
    lambda = 1 - mu) runs when N exceeds ARPACK's Krylov size
    ncv = max(2 count + 1, 20) and the graph is connected. A Krylov method
    can miss copies of a repeated eigenvalue, and a graph of c components
    has c zero eigenvalues, so a split graph, a full spectrum and a graph
    too small for the Krylov space go to LAPACK on the dense L. That path
    raises DenseCapError above DEFAULT_DENSE_CAP nodes, before L is made
    dense: use the compressive pipeline there. An ARPACK failure raises
    ``ArpackError`` (or its subclass ``ArpackNoConvergence``), and so does
    an ARPACK result whose largest residual max_j ||S v_j - mu_j v_j||
    exceeds ARPACK_RESIDUAL_TOL. A ``count`` outside [1, N] raises
    ValueError.

    ARPACK's dense steps on its N x ncv Krylov basis are small BLAS-2
    calls. While N ncv <= PIN_MAX_BASIS they run on one thread of scipy's
    OpenBLAS pool (the basis's ``blas_threads`` is then 1), because waking
    the pool's other threads for each call costs more than it saves, and in
    some processes makes the solve 4-15 times slower. Medians of ``eigsh``
    over 5 calls from 2 processes each, SBM graphs at s = 16, 2 vCPUs:

        N, k        N ncv      pool (2)         1 thread
        1000, 20    4.3e4      15-65 ms         14-21 ms
        2000, 20    8.6e4      48-102 ms        42-45 ms
        5000, 20    2.2e5      141-168 ms       162-169 ms
        4000, 100   8.1e5      377-431 ms       519-578 ms
        1e5, 20     4.3e6      8.4-8.9 s        12.5-12.9 s

    Above the gate the pool keeps its own count. Below it the result does
    not depend on the process's BLAS thread count, by construction; above
    it, it does: at N = 4000, k = 100 the eigenvectors from 1 and from 2
    threads differ (max |dV| 0.22 and 0.34 in two measurements), and so
    does SC's output.

    The name predates the ARPACK path; it is kept because the benchmark
    traces SC's eigensolver under ``oracle.dense_eig``.
    """
    n = op.num_nodes
    count = n if count is None else count
    if not 1 <= count <= n:
        raise ValueError(f"count={count} eigenpairs out of range [1, {n}]")
    # imported here: scipy.sparse.csgraph adds about 1 MB of resident memory
    # to a process, and the compressive pipeline never needs it
    from scipy.sparse.csgraph import connected_components

    components = connected_components(op.graph.adjacency(), directed=False, return_labels=False)
    ncv = max(2 * count + 1, 20)  # eigsh's default Krylov size when N exceeds it
    if components == 1 and n > ncv:
        v0 = np.random.default_rng(0).standard_normal(n)
        with _one_blas_thread() if n * ncv <= PIN_MAX_BASIS else contextlib.nullcontext() as threads:
            mu, vecs = scipy.sparse.linalg.eigsh(op.s, k=count, which="LA", v0=v0)
        residual = np.linalg.norm(op.s @ vecs - vecs * mu, axis=0).max()
        if not residual <= ARPACK_RESIDUAL_TOL:  # a NaN residual fails too
            raise ArpackError(0, {0: f"eigenpair residual {residual:.3e} exceeds {ARPACK_RESIDUAL_TOL:g}"})
        order = np.argsort(-mu)
        return EigenBasis(
            eigenvalues=1.0 - mu[order], eigenvectors=vecs[:, order], solver="arpack", blas_threads=threads
        )
    if n > DEFAULT_DENSE_CAP:
        raise DenseCapError(
            f"dense eigendecomposition refused for N={n} > cap={DEFAULT_DENSE_CAP}: {count} eigenpairs of a graph "
            f"of {components} connected components (ARPACK needs one component and fewer than N pairs); "
            "use the polynomial-filtering pipeline (run_csc) for graphs this size"
        )
    # MRRR (syevr) computes only the leading pairs asked for: the k + 1 that SC
    # reads take 0.05-0.06 s at N = 1000, k = 20 on 2 vCPUs, against 0.15 s
    # for all N pairs by divide and conquer (syevd). That holds only when no
    # other BLAS is busy: numpy and scipy each load their own OpenBLAS, and
    # within about 0.1 s of a numpy BLAS call (such as a run_csc just before)
    # that pool's spinning worker holds the second vCPU, and the same call
    # takes 0.10-0.11 s, slower than on one thread of scipy's pool (0.08-0.10
    # s). One thread is no cure at larger N: 2.1 and 9.4-9.7 s at N = 3000
    # and 5000, against 1.2 and 5.0-5.3 s on the pool. L comes in Fortran
    # order, so overwrite_a leaves LAPACK no N x N copy to make
    w, V = scipy.linalg.eigh(
        op.dense(), overwrite_a=True, check_finite=False, driver="evr", subset_by_index=[0, count - 1]
    )
    return EigenBasis(eigenvalues=w, eigenvectors=V, solver="lapack")


def run_sc_baseline(op: LaplacianOp, k: int, *, seed: int = 0, basis: EigenBasis | None = None) -> ClusterResult:
    """Exact spectral clustering with the shared result schema.

    Steps: first k eigenvectors of L; rows normalized to unit length; k-means
    on the resulting feature vectors, seeded from the same substream of
    ``seed`` as ``run_csc``'s. Nodes with (numerically) zero rows in U_k are
    the pathologic case where normalization is undefined; they raise
    DegenerateClusteringError. An isolated node has such a row once
    lambda_k < 1. The one ``dense_eig`` call picks the eigensolver, named in
    the diagnostics' "eig_solver", and "eig_blas_threads" is 1 when it ran
    on one thread of scipy's BLAS pool. A precomputed ``basis`` skips the
    eigendecomposition (both keys are then its ``solver`` and
    ``blas_threads``); it needs N rows and at least min(k + 1, N) leading
    pairs, or ValueError.
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
    labeling = kmeans(Y, k, substream_seed(seed, "kmeans"))
    t_kmeans = time.perf_counter() - t1

    diagnostics = {
        "method": "sc",
        "num_nodes": n,
        "num_edges": op.graph.num_edges,
        "k": k,
        "lambda_k": float(w[k - 1]),
        "degenerate_eigenvalue_cut": degenerate_cut,
        "eig_solver": basis.solver,
        "eig_blas_threads": basis.blas_threads,
        "kmeans_inertia": labeling.inertia,
        "kmeans_iterations": labeling.iterations_run,
        "kmeans_distance_rows": labeling.distance_rows,
        "seed": seed,
        "timings": {"eig": t_eig, "kmeans": t_kmeans, "total": t_eig + t_kmeans},
    }
    return ClusterResult(labels=labeling.labels, diagnostics=diagnostics)
