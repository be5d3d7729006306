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


def _assert_labels_csv(path, num_nodes):
    """node_id,label rows for every node, with "\n" line ends only."""
    data = path.read_bytes()
    assert b"\r" not in data
    assert data.startswith(b"node_id,label\n") and data.endswith(b"\n")
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["node_id"]) for r in rows] == list(range(num_nodes))


def test_generate_cluster_bench(tmp_path, sbm_files):
    edges, labels = sbm_files
    _assert_labels_csv(labels, 90)
    for method in ("csc", "sc"):
        out = tmp_path / f"{method}.csv"
        argv = ["cluster", "--input", str(edges), "--output", str(out), "--method", method, "--k", "3"]
        assert main(argv) == EXIT_OK
        _assert_labels_csv(out, 90)
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
    for method in ("csc", "sc"):
        for k in ("1", "0"):
            argv = ["cluster", "--input", str(edges), "--output", str(tmp_path / "o.csv"), "--method", method, "--k", k]
            assert main(argv) == EXIT_USAGE
            assert f"k must be >= 2, got k={k}" in _error(capsys, EXIT_USAGE)
            assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_bench_threads_below_one_is_usage_error(tmp_path, capsys, threads):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "graph": {"num_nodes": 60, "k": 3, "avg_degree": 8.0, "epsilon": 0.05},
        "methods": ["csc"],
        "replicates": 1,
        "seed": 3,
    }))
    report = tmp_path / "report.csv"
    assert main(["bench", "--spec", str(spec), "--output", str(report), "--threads", threads]) == EXIT_USAGE
    assert f"threads must be >= 1, got {threads}" in _error(capsys, EXIT_USAGE)
    assert not report.exists()


def test_sbm_gen_zero_communities_is_usage_error(tmp_path, capsys):
    assert main(["sbm-gen", "--n", "100", "--k", "0", "--output", str(tmp_path / "g")]) == EXIT_USAGE
    assert "k must be >= 1, got k=0" in _error(capsys, EXIT_USAGE)
    assert not (tmp_path / "g.edgelist").exists()


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


def test_isolated_node(tmp_path, capsys, caplog):
    # two triangles joined by the edge (2, 3), and node 6 isolated: with
    # lambda_2 < 1 the isolated node has a zero row in U_2, so SC cannot
    # cluster it, while CSC leaves it out of the sample and still labels it
    edges = tmp_path / "iso.edges"
    edges.write_text("# nodes 7\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n2 3\n")
    warned = {}
    for method, code in (("sc", EXIT_NUMERIC), ("csc", EXIT_OK)):
        caplog.clear()
        out = tmp_path / f"{method}.csv"
        argv = ["cluster", "--input", str(edges), "--output", str(out), "--method", method, "--k", "2"]
        with caplog.at_level("WARNING"):
            assert main(argv) == code
        warned[method] = any("excluded from sampling" in rec.getMessage() for rec in caplog.records)
    assert "zero row norm in the leading eigenvector block at node(s) [6]" in _error(capsys, EXIT_NUMERIC)
    assert not (tmp_path / "sc.csv").exists()
    _assert_labels_csv(tmp_path / "csc.csv", 7)
    assert warned == {"sc": False, "csc": True}


def test_missing_input_is_io_error(tmp_path, capsys):
    argv = ["cluster", "--input", str(tmp_path / "absent.edges"), "--output", str(tmp_path / "o.csv"), "--k", "2"]
    assert main(argv) == EXIT_IO
    assert "input not found" in _error(capsys, EXIT_IO)


def test_negative_node_header_is_io_error(tmp_path, capsys):
    edges = tmp_path / "neg.edges"
    edges.write_text("# nodes -3\n")
    argv = ["cluster", "--input", str(edges), "--output", str(tmp_path / "o.csv"), "--k", "2"]
    assert main(argv) == EXIT_IO
    assert "num_nodes must be >= 0, got -3" in _error(capsys, EXIT_IO)


def test_non_utf8_input_is_io_error(tmp_path, capsys):
    edges = tmp_path / "bad.edgelist"
    edges.write_bytes(b"0 1\n1 2 \xff\n")
    argv = ["cluster", "--input", str(edges), "--output", str(tmp_path / "o.csv"), "--k", "2"]
    assert main(argv) == EXIT_IO
    message = _error(capsys, EXIT_IO)
    assert message.startswith(f"{edges}:2: not UTF-8 text (byte 0xff: ")


def test_nan_weight_is_io_error(tmp_path, capsys):
    edges = tmp_path / "nan.edges"
    edges.write_text("0 1 1.0\n1 2 nan\n2 3 1.0\n3 0 1.0\n")
    argv = ["cluster", "--input", str(edges), "--output", str(tmp_path / "o.csv"), "--k", "2"]
    assert main(argv) == EXIT_IO
    assert "non-finite weight" in _error(capsys, EXIT_IO)


def test_id_beyond_memory_is_numeric_failure(tmp_path, capsys):
    # the header asks for 9007199254740994 nodes, and their CSR row pointer
    # (64 PiB) cannot be allocated
    edges = tmp_path / "huge.edges"
    edges.write_text("# nodes 9007199254740994\n0 1\n")
    argv = ["cluster", "--input", str(edges), "--output", str(tmp_path / "o.csv"), "--k", "2"]
    assert main(argv) == EXIT_NUMERIC
    assert "allocate" in _error(capsys, EXIT_NUMERIC)


def test_headerless_huge_id_is_io_error(tmp_path, capsys):
    # without a header the same id is refused before anything is sized by it
    edges = tmp_path / "huge.edges"
    edges.write_text("0 1\n1 9007199254740993\n")
    argv = ["cluster", "--input", str(edges), "--output", str(tmp_path / "o.csv"), "--k", "2"]
    assert main(argv) == EXIT_IO
    assert _error(capsys, EXIT_IO) == (
        f"{edges}: node id 9007199254740993 implies 9007199254740994 nodes for 2 edge line(s); "
        "a '# nodes N' header line keeps such a file readable"
    )


def test_id_beyond_int64_is_io_error(tmp_path, capsys):
    edges = tmp_path / "huge.edges"
    edges.write_text("0 1\n1 9223372036854775808\n")
    argv = ["cluster", "--input", str(edges), "--output", str(tmp_path / "o.csv"), "--k", "2"]
    assert main(argv) == EXIT_IO
    assert _error(capsys, EXIT_IO) == f"{edges}:2: node id 9223372036854775808 does not fit in 64 bits"
