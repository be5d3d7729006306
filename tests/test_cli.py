"""The command-line contract: exit codes 0/2/3/4, and one JSON object on
stderr for every failure."""

from __future__ import annotations

import csv
import json

import pytest

from cscluster import LaplacianOp
from cscluster.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main


def _error(capsys, exit_code):
    """The one JSON object a failing command printed on stderr."""
    lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("{")]
    assert len(lines) == 1, lines
    payload = json.loads(lines[0])
    assert set(payload) == {"error", "exit_code"}
    assert payload["exit_code"] == exit_code
    return payload["error"]


@pytest.fixture
def sbm_files(tmp_path):
    prefix = tmp_path / "g"
    assert main(["sbm-gen", "--n", "90", "--k", "3", "--s", "10", "--seed", "1", "--output", str(prefix)]) == EXIT_OK
    return tmp_path / "g.edgelist", tmp_path / "g.labels.csv"


def test_generate_cluster_bench(tmp_path, sbm_files):
    edges, labels = sbm_files
    with labels.open() as fh:
        assert len(list(csv.DictReader(fh))) == 90
    for method in ("csc", "sc"):
        out = tmp_path / f"{method}.csv"
        argv = ["cluster", "--input", str(edges), "--output", str(out), "--method", method, "--k", "3"]
        assert main(argv) == EXIT_OK
        with out.open() as fh:
            assert len(list(csv.DictReader(fh))) == 90
        diag = json.loads(out.with_suffix(".diag.json").read_text())
        assert diag["diagnostics"]["method"] == method

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "graph": {"num_nodes": 60, "k": 3, "avg_degree": 8.0, "epsilon": 0.05},
        "methods": ["csc", "sc"],
        "replicates": 1,
        "seed": 3,
    }))
    report = tmp_path / "report.csv"
    assert main(["bench", "--spec", str(spec), "--output", str(report)]) == EXIT_OK
    with report.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["method"] for r in rows] == ["csc", "sc"]
    assert all(r["error"] == "" for r in rows)


def test_k_below_two_is_usage_error(tmp_path, sbm_files, capsys):
    edges, _ = sbm_files
    for k in ("1", "0"):
        argv = ["cluster", "--input", str(edges), "--output", str(tmp_path / "o.csv"), "--k", k]
        assert main(argv) == EXIT_USAGE
        assert f"k must be >= 2, got k={k}" in _error(capsys, EXIT_USAGE)


def test_dense_cap_is_numeric_failure(tmp_path, capsys, monkeypatch):
    prefix = tmp_path / "big"
    assert main(["sbm-gen", "--n", "5001", "--k", "3", "--s", "4", "--output", str(prefix)]) == EXIT_OK
    capsys.readouterr()

    def densify(self):
        raise AssertionError("the cap must refuse before the Laplacian is densified")

    monkeypatch.setattr(LaplacianOp, "dense", densify)
    argv = ["cluster", "--input", str(tmp_path / "big.edgelist"), "--output", str(tmp_path / "o.csv"),
            "--method", "sc", "--k", "3"]
    assert main(argv) == EXIT_NUMERIC
    assert "N=5001 > cap=5000" in _error(capsys, EXIT_NUMERIC)
    assert not (tmp_path / "o.csv").exists()


def test_missing_input_is_io_error(tmp_path, capsys):
    argv = ["cluster", "--input", str(tmp_path / "absent.edges"), "--output", str(tmp_path / "o.csv"), "--k", "2"]
    assert main(argv) == EXIT_IO
    assert "input not found" in _error(capsys, EXIT_IO)


def test_nan_weight_is_io_error(tmp_path, capsys):
    edges = tmp_path / "nan.edges"
    edges.write_text("0 1 1.0\n1 2 nan\n2 3 1.0\n3 0 1.0\n")
    argv = ["cluster", "--input", str(edges), "--output", str(tmp_path / "o.csv"), "--k", "2"]
    assert main(argv) == EXIT_IO
    assert "non-finite weight" in _error(capsys, EXIT_IO)
