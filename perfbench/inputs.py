"""Seeded planted-partition inputs for the benchmark, and their on-disk cache.

Each workload is a planted-partition graph (stochastic block model) with k
equal blocks, average degree s = 16 and inter/intra edge-probability ratio
eps = eps_c / 4, where eps_c = (s - sqrt(s)) / (s + sqrt(s)(k - 1)) is the
detectability threshold. The generator here is the benchmark's own: it does
not call ``cscluster.sbm``, so the program under test only ever sees the edge
list it writes.

For every (workload, seed) the cache holds

    edges.txt    the edge list, in the format ``cscluster.read_edge_list`` reads
    labels.npy   the planted partition
    meta.json    sizes, the realized degree and eps, and lambda_k, lambda_{k+1}
                 of L = I - D^-1/2 W D^-1/2 from ARPACK (scipy eigsh on
                 S = D^-1/2 W D^-1/2), and LAPACK's lambda_k; LAPACK's
                 lambda_1 .. lambda_{k+1} must agree with ARPACK's to 1e-8

Remake the cache from scratch (every workload, the given seeds):

    python3 perfbench/inputs.py --remake --seeds 0 1 2 3 4 5 6 7 8 9

Make one entry if it is missing (what ``run.py`` does before it measures):

    python3 perfbench/inputs.py --workload sbm-large --seeds 3
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as sla

CACHE_DIR = Path(__file__).resolve().parent / ".cache"
AVG_DEGREE = 16.0
EIG_AGREEMENT = 1e-8
# a realized degree or eps further than this many standard errors from its
# target means the generator is wrong, not unlucky
MAX_Z = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    num_nodes: int
    k: int
    csc_seeds: int  # pipeline seeds 0 .. csc_seeds-1, csc_passes run_csc calls each per round
    sc_seeds: int  # seeds 0 .. sc_seeds-1, one run_sc_baseline call each per round
    sc: str  # "dense": the program's run_sc_baseline; "sparse": eigsh basis passed to it
    # (graph seed, pipeline seed) of run_csc calls on inputs that do not depend
    # on --seed, one each per round: known faults, which fail on every run
    fixed_csc: tuple[tuple[int, int], ...] = ()
    csc_passes: int = 1

    @property
    def epsilon(self) -> float:
        rs = math.sqrt(AVG_DEGREE)
        return (AVG_DEGREE - rs) / (AVG_DEGREE + rs * (self.k - 1)) / 4.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sbm-large", num_nodes=5000, k=20, csc_seeds=9, sc_seeds=4, sc="sparse"),
        Workload("sbm-many-k", num_nodes=4000, k=100, csc_seeds=3, sc_seeds=1, sc="sparse"),
        Workload("sbm-small-sc", num_nodes=1000, k=20, csc_seeds=12, sc_seeds=1, sc="dense", fixed_csc=((48, 7),),
                 csc_passes=2),
    )
}


def _distinct_pairs(draw, count: int) -> np.ndarray:
    """First ``count`` distinct pair codes in draw order (a uniform count-subset
    of the codes ``draw`` samples uniformly)."""
    codes = np.empty(0, dtype=np.int64)
    while True:
        codes = np.concatenate([codes, draw(max(64, 2 * (count - codes.size) + 64))])
        _, first = np.unique(codes, return_index=True)
        if first.size >= count:
            return codes[np.sort(first)[:count]]
        codes = codes[np.sort(first)]


def planted_partition(w: Workload, seed: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """Edges (m, 2) with i < j, labels (N,), and the generator's own statistics.

    The edge count inside blocks and across them is binomial with the exact
    pair counts; edges are a uniform subset of the pairs of each kind. Node
    ids are a random permutation of block order.
    """
    n, k = w.num_nodes, w.k
    if n % k:
        raise ValueError(f"{w.name}: N={n} is not a multiple of k={k}")
    size = n // k
    rng = np.random.default_rng([seed, zlib.crc32(w.name.encode())])
    # q_in chosen so that the expected degree is exactly AVG_DEGREE
    q_in = AVG_DEGREE / ((size - 1) + w.epsilon * (n - size))
    q_out = w.epsilon * q_in
    pairs_in = k * size * (size - 1) // 2
    pairs_out = n * (n - 1) // 2 - pairs_in
    m_in = int(rng.binomial(pairs_in, q_in))
    m_out = int(rng.binomial(pairs_out, q_out))

    def draw_in(c: int) -> np.ndarray:
        b = rng.integers(k, size=c)
        i, j = rng.integers(size, size=c), rng.integers(size, size=c)
        keep = i != j
        lo, hi = np.minimum(i, j)[keep], np.maximum(i, j)[keep]
        return (b[keep] * size + lo) * n + b[keep] * size + hi

    def draw_out(c: int) -> np.ndarray:
        i, j = rng.integers(n, size=c), rng.integers(n, size=c)
        keep = i // size != j // size
        return np.minimum(i, j)[keep] * n + np.maximum(i, j)[keep]

    codes = np.concatenate([_distinct_pairs(draw_in, m_in), _distinct_pairs(draw_out, m_out)])
    perm = rng.permutation(n)  # block-order position -> node id
    u, v = perm[codes // n], perm[codes % n]
    edges = np.column_stack([np.minimum(u, v), np.maximum(u, v)])
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    labels = np.empty(n, dtype=np.int64)
    labels[perm] = np.arange(n) // size
    stats = {"q_in": q_in, "q_out": q_out, "pairs_in": pairs_in, "pairs_out": pairs_out}
    return edges, labels, stats


def check_realization(w: Workload, edges: np.ndarray, labels: np.ndarray, stats: dict) -> dict:
    """Realized average degree and eps, each checked against its target."""
    n = w.num_nodes
    if np.any(edges[:, 0] >= edges[:, 1]) or np.unique(edges[:, 0] * n + edges[:, 1]).size != len(edges):
        raise RuntimeError(f"{w.name}: self-loop or duplicate edge in the generated graph")
    same = labels[edges[:, 0]] == labels[edges[:, 1]]
    m_in, m_out = int(same.sum()), int((~same).sum())
    q_in, q_out = stats["q_in"], stats["q_out"]
    var_edges = stats["pairs_in"] * q_in * (1 - q_in) + stats["pairs_out"] * q_out * (1 - q_out)
    degree = 2.0 * len(edges) / n
    degree_se = 2.0 * math.sqrt(var_edges) / n
    eps = (m_out / stats["pairs_out"]) / (m_in / stats["pairs_in"])
    eps_rel_se = math.sqrt(1.0 / m_in + 1.0 / m_out)
    if abs(degree - AVG_DEGREE) > MAX_Z * degree_se:
        raise RuntimeError(f"{w.name}: realized degree {degree:.4f}, target {AVG_DEGREE} (se {degree_se:.4f})")
    if abs(eps / w.epsilon - 1.0) > MAX_Z * eps_rel_se:
        raise RuntimeError(f"{w.name}: realized eps {eps:.5f}, target {w.epsilon:.5f} (rel se {eps_rel_se:.4f})")
    return {"avg_degree": degree, "epsilon": eps, "edges_in": m_in, "edges_out": m_out}


def normalized_adjacency(edges: np.ndarray, n: int) -> sp.csr_matrix:
    """S = D^-1/2 W D^-1/2 for the unit-weight undirected graph."""
    W = sp.coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n)).tocsr()
    W = W + W.T
    deg = np.asarray(W.sum(axis=1)).ravel()
    dis = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1.0)), 0.0)
    return sp.diags(dis) @ W @ sp.diags(dis)


def sparse_spectrum(S: sp.csr_matrix, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` smallest eigenvalues of L = I - S (ascending) and their
    eigenvectors, from ARPACK on the largest algebraic eigenvalues of S.
    The start vector is fixed, so the call is deterministic."""
    v0 = np.random.default_rng(0).standard_normal(S.shape[0])
    mu, vecs = sla.eigsh(S, k=count, which="LA", v0=v0)
    order = np.argsort(-mu)
    return 1.0 - mu[order], vecs[:, order]


def entry_dir(workload: str, seed: int) -> Path:
    return CACHE_DIR / f"{workload}-seed{seed}"


def make_entry(w: Workload, seed: int) -> Path:
    """Generate, check and write one cache entry (atomically); return its path."""
    edges, labels, stats = planted_partition(w, seed)
    realized = check_realization(w, edges, labels, stats)
    n, k = w.num_nodes, w.k
    S = normalized_adjacency(edges, n)
    lam, _ = sparse_spectrum(S, k + 1)
    meta = {
        "workload": w.name,
        "seed": seed,
        "num_nodes": n,
        "k": k,
        "num_edges": int(len(edges)),
        "target_avg_degree": AVG_DEGREE,
        "target_epsilon": w.epsilon,
        **realized,
        "lambda_k": float(lam[k - 1]),
        "lambda_k1": float(lam[k]),
    }
    dense = S.toarray()  # L = I - S, built in place: one n x n array
    dense *= -1.0
    dense.flat[:: n + 1] += 1.0
    lapack = scipy.linalg.eigh(dense, eigvals_only=True, subset_by_index=[0, k], overwrite_a=True, check_finite=False)
    del dense
    if np.max(np.abs(lapack - lam)) > EIG_AGREEMENT:
        raise RuntimeError(f"{w.name}: ARPACK and LAPACK disagree on lambda_1..{k + 1} by {np.max(np.abs(lapack - lam)):.2e}")
    meta["lambda_k_lapack"] = float(lapack[k - 1])
    if not lam[k - 1] < lam[k]:
        raise RuntimeError(f"{w.name} seed {seed}: no gap at k ({lam[k - 1]} >= {lam[k]})")

    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=".tmp-", dir=CACHE_DIR))
    try:
        with (tmp / "edges.txt").open("w", encoding="utf-8") as fh:
            fh.write(f"# nodes {n}\n")
            np.savetxt(fh, edges, fmt="%d")
        np.save(tmp / "labels.npy", labels)
        (tmp / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        final = entry_dir(w.name, seed)
        if final.exists():
            shutil.rmtree(final)
        os.replace(tmp, final)
    finally:
        if tmp.exists():
            shutil.rmtree(tmp)
    return final


def ensure_entry(w: Workload, seed: int) -> Path:
    path = entry_dir(w.name, seed)
    return path if (path / "meta.json").exists() else make_entry(w, seed)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), help="one workload (default: all)")
    ap.add_argument("--seeds", type=int, nargs="+", required=True, help="workload seeds")
    ap.add_argument("--remake", action="store_true", help="delete the whole cache first")
    args = ap.parse_args(argv)
    if args.remake and CACHE_DIR.exists():
        shutil.rmtree(CACHE_DIR)
    for name in [args.workload] if args.workload else sorted(WORKLOADS):
        for seed in args.seeds:
            print(ensure_entry(WORKLOADS[name], seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
