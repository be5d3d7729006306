from __future__ import annotations

import csv
import json
import threading

import numpy as np
import pytest

from cscluster import (
    SbmConfig,
    adjusted_rand_index,
    critical_epsilon,
    modularity,
    sbm_generate,
    sweep,
)
import cscluster.sbm
from cscluster.sbm import SWEEP_FIELDS, expand_sweep_spec
from helpers import all_partitions, brute_force_ari, cliques_graph


class TestSbmGenerate:
    def test_zero_epsilon_disconnects_communities(self):
        cfg = SbmConfig(num_nodes=200, k=4, avg_degree=10.0, epsilon=0.0, seed=0)
        graph, truth = sbm_generate(cfg)
        W = graph.adjacency().tocoo()
        assert np.all(truth[W.row] == truth[W.col])

    def test_mean_degree_matches_target(self):
        degs = []
        for seed in range(20):
            cfg = SbmConfig(num_nodes=1000, k=20, avg_degree=16.0, epsilon=0.05, seed=seed)
            graph, _ = sbm_generate(cfg)
            degs.append(graph.degrees.mean())
        assert abs(np.mean(degs) - 16.0) <= 0.10 * 16.0

    def test_heterogeneous_size_list(self):
        sizes = [5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 50, 55, 60, 65, 70, 75, 80, 85, 90, 95]
        cfg = SbmConfig(num_nodes=1000, k=20, avg_degree=16.0, epsilon=0.05, sizes=sizes, seed=1)
        graph, truth = sbm_generate(cfg)
        assert graph.num_nodes == 1000
        assert np.bincount(truth).tolist() == sizes
        assert abs(graph.degrees.mean() - 16.0) <= 0.15 * 16.0

    def test_degree_concentration_with_n(self):
        for N in (500, 2000):
            cfg = SbmConfig(num_nodes=N, k=5, avg_degree=12.0, epsilon=0.1, seed=N)
            graph, _ = sbm_generate(cfg)
            assert abs(graph.degrees.mean() - 12.0) <= 0.10 * 12.0

    def test_probability_validation(self):
        with pytest.raises(ValueError, match="q1"):
            SbmConfig(num_nodes=10, k=5, avg_degree=30.0, epsilon=0.0)
        with pytest.raises(ValueError):
            SbmConfig(num_nodes=10, k=2, avg_degree=4.0, epsilon=1.5)
        with pytest.raises(ValueError):
            SbmConfig(num_nodes=10, k=2, avg_degree=4.0, epsilon=0.1, sizes=[4, 4])

    def test_reproducible(self):
        cfg = SbmConfig(num_nodes=300, k=3, avg_degree=8.0, epsilon=0.1, seed=5)
        g1, _ = sbm_generate(cfg)
        g2, _ = sbm_generate(cfg)
        assert np.array_equal(g1.indices, g2.indices)
        assert np.array_equal(g1.indptr, g2.indptr)

    def test_no_self_loops_and_symmetric(self):
        cfg = SbmConfig(num_nodes=400, k=4, avg_degree=14.0, epsilon=0.3, seed=9)
        graph, _ = sbm_generate(cfg)
        W = graph.adjacency()
        assert W.diagonal().sum() == 0.0
        assert (W != W.T).nnz == 0


class TestCriticalEpsilon:
    def test_paper_default_value(self):
        assert critical_epsilon(16.0, 20) == pytest.approx(12.0 / 92.0)

    def test_k1(self):
        assert critical_epsilon(16.0, 1) == pytest.approx(1.0 - 1.0 / 4.0)

    def test_k2(self):
        assert critical_epsilon(16.0, 2) == pytest.approx(0.6)

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            critical_epsilon(1.0, 3)


class TestAdjustedRandIndex:
    def test_identical(self):
        labels = np.array([0, 1, 1, 2, 0])
        assert adjusted_rand_index(labels, labels) == 1.0

    def test_singletons_vs_lump(self):
        assert adjusted_rand_index([0, 1, 2, 3], [0, 0, 0, 0]) == 0.0

    def test_small_case_against_pair_counting(self):
        a = [0, 0, 1, 1]
        b = [0, 0, 1, 2]
        assert adjusted_rand_index(a, b) == pytest.approx(brute_force_ari(a, b), abs=1e-12)

    def test_exhaustive_partitions_small(self):
        # every pair of partitions of 4 elements against the pair-count oracle
        parts = list(all_partitions(4))
        assert len(parts) == 15
        for a in parts:
            for b in parts:
                assert adjusted_rand_index(a, b) == pytest.approx(brute_force_ari(a, b), abs=1e-12)

    def test_symmetry_and_relabeling_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.integers(0, 4, 30)
            b = rng.integers(0, 3, 30)
            assert adjusted_rand_index(a, b) == pytest.approx(adjusted_rand_index(b, a), abs=1e-14)
            perm = rng.permutation(4)
            assert adjusted_rand_index(perm[a], b) == pytest.approx(adjusted_rand_index(a, b), abs=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            adjusted_rand_index([0, 1], [0, 1, 2])


class TestModularity:
    def test_two_k3_split_is_half(self):
        g, truth = cliques_graph(2, 3)
        assert modularity(g, truth) == pytest.approx(0.5, abs=1e-15)

    def test_k3_single_cluster_zero(self, k3_graph):
        assert modularity(k3_graph, np.zeros(3, dtype=int)) == pytest.approx(0.0, abs=1e-15)

    def test_structured_beats_random(self):
        cfg = SbmConfig(num_nodes=300, k=3, avg_degree=10.0, epsilon=0.02, seed=3)
        graph, truth = sbm_generate(cfg)
        rng = np.random.default_rng(0)
        rand_q = [modularity(graph, rng.permutation(truth)) for _ in range(5)]
        assert modularity(graph, truth) > max(rand_q)

    def test_label_permutation_invariant(self):
        g, truth = cliques_graph(3, 4)
        relabeled = (truth + 1) % 3
        assert modularity(g, relabeled) == pytest.approx(modularity(g, truth), abs=1e-15)

    def test_empty_graph_rejected(self):
        from cscluster import build_graph

        g = build_graph([], num_nodes=4)
        with pytest.raises(ValueError):
            modularity(g, np.zeros(4, dtype=int))


class TestSweep:
    def _tiny_spec(self, **overrides):
        spec = {
            "graph": {"num_nodes": 60, "k": 3, "avg_degree": 8.0, "epsilon": [0.02, 0.1]},
            "methods": ["csc"],
            "replicates": 2,
            "seed": 11,
        }
        spec.update(overrides)
        return spec

    def test_grid_and_rows(self, tmp_path):
        out = tmp_path / "report.csv"
        rows = sweep(self._tiny_spec(), out, threads=1)
        assert len(rows) == 4  # 2 epsilon x 2 replicates
        with out.open() as fh:
            read = list(csv.DictReader(fh))
        assert len(read) == 4
        assert all(r["error"] == "" for r in read)
        assert all(float(r["ari"]) >= -1.0 for r in read)

    def test_single_cell_is_one_run(self, tmp_path):
        spec = self._tiny_spec()
        spec["graph"]["epsilon"] = 0.05
        spec["replicates"] = 1
        rows = sweep(spec, tmp_path / "one.csv")
        assert len(rows) == 1

    def test_resume_skips_completed(self, tmp_path):
        out = tmp_path / "resume.csv"
        sweep(self._tiny_spec(), out)
        before = out.read_bytes()
        again = sweep(self._tiny_spec(), out)
        assert again == []
        assert out.read_bytes() == before

    def test_interrupted_sweep_keeps_finished_rows(self, tmp_path, monkeypatch):
        spec = self._tiny_spec(replicates=1)
        spec["graph"]["epsilon"] = [0.02, 0.05, 0.1]
        run_ids = [r["run_id"] for r in expand_sweep_spec(spec)]
        out = tmp_path / "interrupted.csv"
        real_run = cscluster.sbm._execute_run
        executed = []
        interrupt_at = 3

        def flaky_run(run):
            executed.append(run["run_id"])
            if len(executed) == interrupt_at:
                raise KeyboardInterrupt
            return real_run(run)

        monkeypatch.setattr(cscluster.sbm, "_execute_run", flaky_run)
        with pytest.raises(KeyboardInterrupt):
            sweep(spec, out)
        with out.open() as fh:
            assert [r["run_id"] for r in csv.DictReader(fh)] == run_ids[:2]

        executed.clear()
        interrupt_at = None
        rows = sweep(spec, out)
        assert executed == run_ids[2:]
        assert [r["run_id"] for r in rows] == run_ids[2:]
        with out.open() as fh:
            assert [r["run_id"] for r in csv.DictReader(fh)] == run_ids

    def test_interrupted_threaded_sweep_keeps_finished_rows(self, tmp_path, monkeypatch):
        spec = self._tiny_spec()
        spec["graph"]["epsilon"] = [0.02, 0.05, 0.1]
        run_ids = [r["run_id"] for r in expand_sweep_spec(spec)]
        out = tmp_path / "interrupted.csv"
        real_run = cscluster.sbm._execute_run
        lock = threading.Lock()
        executed, returned = [], []
        interrupt_at = 3

        def flaky_run(run):
            with lock:
                executed.append(run["run_id"])
                if len(executed) == interrupt_at:
                    raise KeyboardInterrupt
            row = real_run(run)
            with lock:
                returned.append(run["run_id"])
            return row

        monkeypatch.setattr(cscluster.sbm, "_execute_run", flaky_run)
        with pytest.raises(KeyboardInterrupt):
            sweep(spec, out, threads=2)
        with out.open() as fh:
            written = [r["run_id"] for r in csv.DictReader(fh)]
        assert sorted(written) == sorted(returned)
        assert len(written) >= 2

        executed.clear()
        interrupt_at = None
        sweep(spec, out, threads=2)
        assert sorted(executed) == sorted(set(run_ids) - set(written))
        with out.open() as fh:
            assert sorted(r["run_id"] for r in csv.DictReader(fh)) == sorted(run_ids)

    def test_force_restarts(self, tmp_path):
        out = tmp_path / "force.csv"
        sweep(self._tiny_spec(), out)
        rows = sweep(self._tiny_spec(), out, force=True)
        assert len(rows) == 4

    def test_resume_refuses_other_columns(self, tmp_path):
        # a CSV from a version whose rows carried the CG decoder's columns:
        # appending to it would misalign every new row
        out = tmp_path / "old.csv"
        old_fields = SWEEP_FIELDS[:9] + ["gamma"] + SWEEP_FIELDS[9:15] + ["cg_iters_max"] + SWEEP_FIELDS[15:]
        old_row = {f: "" for f in old_fields}
        old_row.update(run_id="csc-epsilon=0.02-rep0", method="csc", gamma="0.001", cg_iters_max="31")
        with out.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=old_fields)
            writer.writeheader()
            writer.writerow(old_row)
        before = out.read_bytes()
        with pytest.raises(ValueError, match=r"extra \['gamma', 'cg_iters_max'\]"):
            sweep(self._tiny_spec(), out)
        assert out.read_bytes() == before
        rows = sweep(self._tiny_spec(), out, force=True)
        assert len(rows) == 4
        with out.open() as fh:
            assert csv.DictReader(fh).fieldnames == SWEEP_FIELDS

    def test_unknown_csc_key_rejected(self, tmp_path):
        spec = self._tiny_spec(csc={"d": [8, 12], "gamma": 1e-3})
        with pytest.raises(ValueError, match=r"unknown csc parameter\(s\): \['gamma'\]"):
            expand_sweep_spec(spec)
        with pytest.raises(ValueError, match="gamma"):
            sweep(spec, tmp_path / "stale.csv")
        assert not (tmp_path / "stale.csv").exists()
        assert len(expand_sweep_spec(self._tiny_spec(csc={"d": [8, 12]}))) == 8

    def test_threaded_matches_serial(self, tmp_path):
        serial = tmp_path / "serial.csv"
        threaded = tmp_path / "threaded.csv"
        sweep(self._tiny_spec(), serial, threads=1)
        sweep(self._tiny_spec(), threaded, threads=4)

        def strip_timings(path):
            with path.open() as fh:
                rows = list(csv.DictReader(fh))
            return [{k: v for k, v in r.items() if not k.startswith("t_")} for r in rows]

        # wall-clock columns differ by nature; everything else must be identical,
        # including row order
        assert strip_timings(serial) == strip_timings(threaded)

    def test_failures_recorded_and_continue(self, tmp_path):
        # sc on a graph above the dense cap fails per-run, sweep keeps going
        spec = {
            "graph": {"num_nodes": 60, "k": 3, "avg_degree": 8.0, "epsilon": [0.05]},
            "methods": ["sc", "csc"],
            "replicates": 1,
            "seed": 0,
        }
        rows = sweep(spec, tmp_path / "mix.csv")
        assert len(rows) == 2
        assert all(r["error"] == "" for r in rows)

    def test_eps_frac_expansion(self):
        spec = {
            "graph": {"num_nodes": 100, "k": 4, "avg_degree": 16.0, "eps_frac": [0.25, 0.5]},
            "methods": ["csc"],
            "replicates": 1,
            "seed": 0,
        }
        runs = expand_sweep_spec(spec)
        eps_c = critical_epsilon(16.0, 4)
        assert [r["epsilon"] for r in runs] == pytest.approx([eps_c / 4, eps_c / 2])

    def test_spec_from_file(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self._tiny_spec()))
        rows = sweep(spec_path, tmp_path / "file.csv")
        assert len(rows) == 4
