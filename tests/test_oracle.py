from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.csgraph
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackError

import cscluster.oracle
from cscluster import (
    CscParams,
    DegenerateClusteringError,
    DenseCapError,
    LaplacianOp,
    SbmConfig,
    adjusted_rand_index,
    build_graph,
    critical_epsilon,
    dense_eig,
    laplacian_op,
    run_csc,
    run_sc_baseline,
    sbm_generate,
)
from cscluster.oracle import ARPACK_RESIDUAL_TOL, DEFAULT_DENSE_CAP, PIN_MAX_BASIS, EigenBasis
from helpers import cliques_graph, random_graph


class TestDenseEig:
    def test_k2_spectrum(self):
        op = laplacian_op(build_graph([(0, 1, 1.0)]))
        basis = dense_eig(op)
        assert np.allclose(basis.eigenvalues, [0.0, 2.0], atol=1e-12)

    def test_two_k2_spectrum(self, two_k2_graph):
        basis = dense_eig(laplacian_op(two_k2_graph))
        assert np.allclose(basis.eigenvalues, [0.0, 0.0, 2.0, 2.0], atol=1e-12)

    def test_p3_spectrum(self, p3_graph):
        # 3x3 characteristic polynomial by hand: lambda (lambda-1) (lambda-2)
        basis = dense_eig(laplacian_op(p3_graph))
        assert np.allclose(basis.eigenvalues, [0.0, 1.0, 2.0], atol=1e-12)

    def test_cap_exceeded(self, monkeypatch):
        op = laplacian_op(build_graph([], num_nodes=DEFAULT_DENSE_CAP + 1))

        def densify(self):
            raise AssertionError("the cap must refuse before the Laplacian is densified")

        monkeypatch.setattr(LaplacianOp, "dense", densify)
        with pytest.raises(DenseCapError, match="N=5001 > cap=5000.*run_csc"):
            dense_eig(op)
        # a few pairs of a split graph take LAPACK too, and the refusal names
        # the components
        with pytest.raises(DenseCapError, match="N=5001 > cap=5000: 3 eigenpairs of a graph of 5001 connected comp"):
            dense_eig(op, 3)

    def test_rayleigh_residuals_and_orthonormality(self):
        rng = np.random.default_rng(21)
        g = random_graph(120, 0.08, rng)
        op = laplacian_op(g)
        basis = dense_eig(op)
        L = op.dense()
        n = g.num_nodes
        assert np.linalg.norm(basis.eigenvectors.T @ basis.eigenvectors - np.eye(n)) < 1e-10
        residual = L @ basis.eigenvectors - basis.eigenvectors * basis.eigenvalues
        assert np.linalg.norm(residual, axis=0).max() < 1e-8
        assert basis.eigenvalues.min() > -1e-10
        assert basis.eigenvalues.max() < 2.0 + 1e-10

    def test_connected_graph_single_zero(self, k3_graph):
        basis = dense_eig(laplacian_op(k3_graph))
        assert abs(basis.eigenvalues[0]) < 1e-12
        assert basis.eigenvalues[1] > 1e-8


@pytest.fixture(scope="module")
def sbm200():
    """A 200-node SBM with k = 4 and its full dense spectrum."""
    cfg = SbmConfig(num_nodes=200, k=4, avg_degree=16.0, epsilon=0.05, seed=3)
    op = laplacian_op(sbm_generate(cfg)[0])
    return op, dense_eig(op)


def _union_of_sbms(seeds, num_nodes=300, k=2):
    """Disjoint union of one cscluster.sbm graph per seed (no edge between them)."""
    parts = []
    for i, seed in enumerate(seeds):
        cfg = SbmConfig(num_nodes=num_nodes, k=k, avg_degree=16.0, epsilon=critical_epsilon(16.0, k) / 4, seed=seed)
        A = sbm_generate(cfg)[0].adjacency().tocoo()
        parts.append(np.column_stack([A.row + i * num_nodes, A.col + i * num_nodes, A.data]))
    return build_graph(np.vstack(parts), num_nodes=len(seeds) * num_nodes)


def _refuse_arpack(*args, **kwargs):
    raise AssertionError("ARPACK must not run on this input")


def _ring(n):
    """A connected n-node ring with chords."""
    edges = [(i, (i + 1) % n, 1.0) for i in range(n)] + [(i, (i + 7) % n, 0.5) for i in range(n)]
    return laplacian_op(build_graph(edges))


# the value that ARPACK below the gate reports: 1, or None in an install
# where scipy's OpenBLAS is not found
PINNED = 1 if cscluster.oracle._scipy_openblas() else None


class TestArpackPath:
    @pytest.mark.parametrize("fixture", ["sbm200", "sbm500"])
    def test_agrees_with_lapack(self, fixture, request):
        if fixture == "sbm200":
            (op, full), k = request.getfixturevalue("sbm200"), 4
        else:
            instance = request.getfixturevalue("sbm500")
            op, full, k = instance["op"], instance["basis"], instance["k"]
        assert full.solver == "lapack"
        basis = dense_eig(op, k + 1)
        assert basis.solver == "arpack"
        assert basis.blas_threads == PINNED
        assert np.abs(basis.eigenvalues - full.eigenvalues[: k + 1]).max() < 1e-10
        overlap = np.linalg.svd(basis.eigenvectors.T @ full.eigenvectors[:, : k + 1], compute_uv=False)
        assert overlap.min() >= 1 - 1e-8
        result = run_sc_baseline(op, k, seed=0)
        assert result.diagnostics["eig_solver"] == "arpack"
        assert result.diagnostics["eig_blas_threads"] == PINNED
        given = run_sc_baseline(op, k, seed=0, basis=full)
        assert given.diagnostics["eig_blas_threads"] is None
        assert np.array_equal(result.labels, given.labels)

    def test_split_graph_takes_lapack(self, monkeypatch):
        # ARPACK finds 2 of the 6 zero eigenvalues of this union (from the
        # same start vector): the component count must route it to LAPACK
        op = laplacian_op(_union_of_sbms(range(7, 13)))
        assert scipy.sparse.csgraph.connected_components(op.graph.adjacency(), directed=False)[0] == 6
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", _refuse_arpack)
        basis = dense_eig(op, 7)
        assert basis.solver == "lapack"
        assert np.abs(basis.eigenvalues[:6]).max() < 1e-10
        assert basis.eigenvalues[6] > 0.1
        result = run_sc_baseline(op, 6, seed=0)
        assert result.diagnostics["eig_solver"] == "lapack"
        assert result.diagnostics["eig_blas_threads"] is None
        # 1800 rows, below BOUNDS_MIN_POINTS: all of them in every executed Lloyd iteration
        assert result.diagnostics["kmeans_distance_rows"] % 1800 == 0
        assert adjusted_rand_index(np.repeat(np.arange(6), 300), result.labels) == 1.0

    @pytest.mark.parametrize(
        "n, count, solver",
        [(20, 3, "lapack"), (21, 3, "arpack"), (39, 19, "lapack"), (40, 19, "arpack"), (40, 40, "lapack")],
    )
    def test_krylov_size_boundary(self, n, count, solver, monkeypatch):
        # ARPACK runs only for N > max(2 count + 1, 20) and count < N
        op = _ring(n)
        if solver == "lapack":
            monkeypatch.setattr(scipy.sparse.linalg, "eigsh", _refuse_arpack)
        basis = dense_eig(op, count)
        assert basis.solver == solver
        assert np.abs(basis.eigenvalues - np.linalg.eigvalsh(op.dense())[:count]).max() < 1e-10

    def test_json_does_not_depend_on_blas_threads(self):
        # numpy and scipy read OPENBLAS_NUM_THREADS at import, so each side
        # is its own process; the default side runs with the machine's count.
        # N ncv = 43000 is below the gate, so ARPACK runs on one thread of
        # scipy's pool either way, and numpy's count must not matter
        script = (
            "import sys\n"
            "from cscluster import SbmConfig, critical_epsilon, laplacian_op, run_sc_baseline, sbm_generate\n"
            "cfg = SbmConfig(num_nodes=1000, k=20, avg_degree=16.0, epsilon=critical_epsilon(16.0, 20) / 4, seed=1)\n"
            "sys.stdout.write(run_sc_baseline(laplacian_op(sbm_generate(cfg)[0]), 20, seed=0).to_json())\n"
        )
        src = str(Path(cscluster.oracle.__file__).resolve().parents[1])
        env = {key: v for key, v in os.environ.items() if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        outputs = [
            subprocess.run([sys.executable, "-c", script], env=extra, capture_output=True, check=True, timeout=300).stdout
            for extra in ({**env, "OPENBLAS_NUM_THREADS": "1"}, env)
        ]
        assert b'"eig_solver": "arpack"' in outputs[0]
        assert outputs[0] == outputs[1]


@pytest.fixture
def pool():
    """scipy's OpenBLAS pool set to 3 threads for the test, then restored;
    yields its get-thread-count function."""
    blas = cscluster.oracle._scipy_openblas()
    if blas is None:
        pytest.skip("scipy's OpenBLAS is not found in this install")
    get, put = blas
    found = get()
    put(3)
    try:
        yield get
    finally:
        put(found)


class _Stop(Exception):
    pass


class TestBlasPin:
    def test_one_thread_inside_and_restored_after(self, pool):
        with cscluster.oracle._one_blas_thread() as threads:
            assert threads == 1
            assert pool() == 1
        assert pool() == 3

    @pytest.mark.parametrize(
        "n, count, pinned",
        [(1000, 21, True), (2325, 21, True), (2326, 21, False), (5000, 3, True), (5001, 3, False)],
    )
    def test_gate_boundary(self, n, count, pinned, pool, monkeypatch):
        # eigsh reads one thread while N ncv <= PIN_MAX_BASIS, with ncv =
        # max(2 count + 1, 20), and the pool's own 3 above it; the count is
        # restored although eigsh raises
        assert (n * max(2 * count + 1, 20) <= PIN_MAX_BASIS) == pinned
        seen = []

        def recording(*args, **kwargs):
            seen.append(pool())
            raise _Stop

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", recording)
        with pytest.raises(_Stop):
            dense_eig(_ring(n), count)
        assert seen == [1 if pinned else 3]
        assert pool() == 3

    def test_library_not_found(self, sbm500, monkeypatch):
        monkeypatch.setattr(cscluster.oracle, "_scipy_openblas", lambda: None)
        op, full, k = sbm500["op"], sbm500["basis"], sbm500["k"]
        basis = dense_eig(op, k + 1)
        assert basis.solver == "arpack"
        assert basis.blas_threads is None
        assert np.abs(basis.eigenvalues - full.eigenvalues[: k + 1]).max() < 1e-10
        assert run_sc_baseline(op, k, seed=0).diagnostics["eig_blas_threads"] is None

    def test_concurrent_calls_restore_the_pool(self, sbm500, pool, monkeypatch):
        # 4 threads on 2 or fewer cores, 5 calls each, with a short switch
        # interval and a sleep inside eigsh to make the pins overlap: each
        # call must read one thread, give the same eigenpairs, and the pool
        # must end at the count it had before
        op, k = sbm500["op"], sbm500["k"]
        eigsh = scipy.sparse.linalg.eigsh
        seen = []

        def sleepy(*args, **kwargs):
            seen.append(pool())
            time.sleep(0.005)
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", sleepy)
        expected = dense_eig(op, k + 1).eigenvectors
        errors = []

        def work():
            try:
                for _ in range(5):
                    assert np.array_equal(dense_eig(op, k + 1).eigenvectors, expected)
            except BaseException as exc:  # read by the main thread below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=work) for _ in range(4)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert errors == []
        assert seen == [1] * 21
        assert pool() == 3


class TestResidualGuard:
    @pytest.mark.parametrize("shift, refused", [(1e-10, False), (1e-7, True), (np.nan, True)])
    def test_perturbed_eigenvalue(self, sbm500, shift, refused, monkeypatch):
        # an eigenvector of unit norm whose eigenvalue is off by `shift` has
        # a residual of |shift|
        op, k = sbm500["op"], sbm500["k"]
        eigsh = scipy.sparse.linalg.eigsh

        def perturbed(*args, **kwargs):
            mu, vecs = eigsh(*args, **kwargs)
            mu[0] += shift
            return mu, vecs

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", perturbed)
        if refused:
            with pytest.raises(ArpackError, match=f"eigenpair residual .* exceeds {ARPACK_RESIDUAL_TOL:g}"):
                dense_eig(op, k + 1)
        else:
            assert dense_eig(op, k + 1).solver == "arpack"


class TestSpectralClustering:
    def test_disconnected_cliques_exact(self):
        g, truth = cliques_graph(3, 6)
        result = run_sc_baseline(laplacian_op(g), 3, seed=0)
        assert adjusted_rand_index(truth, result.labels) == 1.0

    def test_k_equals_n(self, k3_graph):
        result = run_sc_baseline(laplacian_op(k3_graph), 3, seed=1)
        assert len(set(result.labels.tolist())) == 3

    def test_zero_row_names_node(self):
        # two K2 components and isolated node 4: the spectrum is 0, 0, 1, 2, 2,
        # and the isolated node has no weight in the two null vectors
        g = build_graph([(0, 1, 1.0), (2, 3, 1.0)], num_nodes=5)
        with pytest.raises(DegenerateClusteringError, match=r"zero row .* node\(s\) \[4\]"):
            run_sc_baseline(laplacian_op(g), 2, seed=0)

    def test_partition_invariant_to_basis_rotation(self):
        g, truth = cliques_graph(3, 8)
        op = laplacian_op(g)
        basis = dense_eig(op)
        base = run_sc_baseline(op, 3, seed=5, basis=basis)
        rng = np.random.default_rng(0)
        for _ in range(3):
            # rotate inside the zero eigenspace and flip signs elsewhere
            Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            V = basis.eigenvectors.copy()
            V[:, :3] = V[:, :3] @ Q
            V[:, 3:] *= rng.choice([-1.0, 1.0], size=V.shape[1] - 3)
            rotated = EigenBasis(eigenvalues=basis.eigenvalues.copy(), eigenvectors=V)
            result = run_sc_baseline(op, 3, seed=5, basis=rotated)
            assert adjusted_rand_index(base.labels, result.labels) == 1.0

    def test_degenerate_cut_warning_flag(self):
        # 4-cycle spectrum (0, 1, 1, 2): tie right at the k = 2 cut
        g = build_graph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
        result = run_sc_baseline(laplacian_op(g), 2, seed=0)
        assert result.diagnostics["degenerate_eigenvalue_cut"] is True

    def test_tie_with_degenerate_indicators_raises_zero_row(self):
        # first 2 of the 3 component indicators leave the third clique with
        # zero rows: the pathologic case must name the offending nodes
        g, _ = cliques_graph(3, 5)
        with pytest.raises(DegenerateClusteringError, match="zero row"):
            run_sc_baseline(laplacian_op(g), 2, seed=0)

    @pytest.mark.parametrize("graph, k", [("cliques", 3), ("cliques", 18), ("k3", 3)])
    def test_asks_lapack_for_k_plus_one_pairs(self, graph, k, k3_graph, monkeypatch):
        # one dense_eig call, looked up at call time (as the benchmark's
        # tracer wraps it), for U_k and lambda_{k+1}: min(k + 1, N) pairs
        g = cliques_graph(3, 6)[0] if graph == "cliques" else k3_graph
        op = laplacian_op(g)
        calls = []

        def recording(op, count=None):
            calls.append(count)
            return dense_eig(op, count)

        monkeypatch.setattr(cscluster.oracle, "dense_eig", recording)
        result = run_sc_baseline(op, k, seed=0)
        assert calls == [min(k + 1, op.num_nodes)]
        assert result.labels.shape == (op.num_nodes,)

    @pytest.mark.parametrize(
        "rows, columns, values",
        [
            (200, 4, 4),  # k pairs: no lambda_{k+1} for the tie check
            (5, 5, 5),  # 5 rows for 200 nodes
            (200, 5, 4),  # one eigenvalue short
        ],
        ids=["k-pairs", "5-rows", "eigenvalue-short"],
    )
    def test_given_basis_must_fit(self, sbm200, rows, columns, values):
        op, basis = sbm200
        bad = EigenBasis(eigenvalues=basis.eigenvalues[:values], eigenvectors=basis.eigenvectors[:rows, :columns])
        shapes = rf"\({rows}, {columns}\) and eigenvalues of shape \({values},\)"
        with pytest.raises(ValueError, match=shapes + r": need 200 rows and at least 5 columns"):
            run_sc_baseline(op, 4, seed=0, basis=bad)

    def test_given_basis_of_k_plus_one_pairs(self, sbm200):
        op, basis = sbm200
        leading = EigenBasis(eigenvalues=basis.eigenvalues[:5], eigenvectors=basis.eigenvectors[:, :5], solver=basis.solver)
        result = run_sc_baseline(op, 4, seed=0, basis=leading)
        assert result.to_json() == run_sc_baseline(op, 4, seed=0, basis=basis).to_json()

    def test_equal_seeds_give_identical_json(self, sbm500):
        op, k = sbm500["op"], sbm500["k"]
        for seed in (0, 7):
            first = run_sc_baseline(op, k, seed=seed).to_json()
            assert run_sc_baseline(op, k, seed=seed).to_json() == first

    def test_reports_the_callers_seed_as_csc_does(self, sbm500):
        # both pipelines derive their k-means seed from the caller's, and
        # both report the caller's
        op, k = sbm500["op"], sbm500["k"]
        assert run_sc_baseline(op, k, seed=5).diagnostics["seed"] == 5
        assert run_csc(op, CscParams(k=k, seed=5)).diagnostics["seed"] == 5

    @pytest.mark.slow
    def test_sbm_near_perfect_recovery(self):
        # easy regime: eps = eps_c / 4 on the default benchmark family
        k, s = 20, 16.0
        eps_c = (s - np.sqrt(s)) / (s + np.sqrt(s) * (k - 1))
        aris = []
        for rep in range(20):
            cfg = SbmConfig(num_nodes=1000, k=k, avg_degree=s, epsilon=eps_c / 4, seed=100 + rep)
            graph, truth = sbm_generate(cfg)
            result = run_sc_baseline(laplacian_op(graph), k, seed=rep)
            aris.append(adjusted_rand_index(truth, result.labels))
        assert np.mean(aris) >= 0.95
