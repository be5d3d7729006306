"""Undirected weighted graphs in canonical CSR form and the normalized Laplacian.

The Laplacian used everywhere in this package is L = I - D^{-1/2} W D^{-1/2},
whose spectrum lies in [0, 2]. Zero-degree nodes get d^{-1/2} = 0, so L acts
as the identity on their coordinate; ``Graph.isolated_nodes`` flags them, and
the clustering pipeline excludes them from its node sample (their filtered
row carries no cluster geometry) while still labeling them.
"""

from __future__ import annotations

import io
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp


class GraphError(ValueError):
    """Invalid edge data or malformed edge-list input."""


@dataclass
class Graph:
    """Symmetric graph stored as canonical CSR (sorted, deduplicated, no loops).

    Invariants: weights >= 0, zero diagonal, W == W.T exactly, column indices
    strictly increasing within each row, ``degrees`` equal to row sums.
    """

    num_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    degrees: np.ndarray
    _csr: sp.csr_matrix | None = field(default=None, repr=False, compare=False)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (stored entry pairs / 2)."""
        return int(self.indices.size) // 2

    @property
    def isolated_nodes(self) -> np.ndarray:
        """Indices of zero-degree nodes."""
        return np.flatnonzero(self.degrees == 0.0)

    def adjacency(self) -> sp.csr_matrix:
        """CSR view of the adjacency matrix (shared buffers, do not mutate)."""
        if self._csr is None:
            self._csr = sp.csr_matrix(
                (self.weights, self.indices, self.indptr),
                shape=(self.num_nodes, self.num_nodes),
            )
        return self._csr


def _from_scipy(A: sp.spmatrix, num_nodes: int) -> Graph:
    A = sp.csr_matrix(A)
    A.sum_duplicates()
    A.sort_indices()
    A.eliminate_zeros()
    degrees = np.asarray(A.sum(axis=1)).ravel().astype(np.float64)
    return Graph(
        num_nodes=num_nodes,
        indptr=A.indptr.copy(),
        indices=A.indices.copy(),
        weights=A.data.astype(np.float64, copy=True),
        degrees=degrees,
    )


def build_graph(
    edges: Iterable[Sequence[float]] | np.ndarray,
    num_nodes: int | None = None,
) -> Graph:
    """Build a canonical symmetric graph from (i, j[, weight]) triples.

    Duplicate entries with the same direction are summed first; when both
    directions of an edge then carry different weights, the larger one wins.
    Missing weights default to 1.0. Self-loops (i == j) are rejected.
    """
    arr = np.atleast_2d(np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.float64))
    if arr.size == 0:
        arr = arr.reshape(0, 3)
    if arr.shape[1] == 2:
        arr = np.column_stack([arr, np.ones(arr.shape[0])])
    elif arr.shape[1] != 3:
        raise GraphError(f"edges must be (i, j) or (i, j, w) rows, got shape {arr.shape}")

    src = arr[:, 0]
    dst = arr[:, 1]
    w = arr[:, 2]
    if not np.all(src == np.floor(src)) or not np.all(dst == np.floor(dst)):
        raise GraphError("node indices must be integers")
    src = src.astype(np.int64)
    dst = dst.astype(np.int64)
    if not np.all(np.isfinite(w)):
        bad = int(np.flatnonzero(~np.isfinite(w))[0])
        raise GraphError(f"non-finite weight {w[bad]} on edge ({src[bad]}, {dst[bad]})")
    if np.any(w < 0):
        bad = int(np.flatnonzero(w < 0)[0])
        raise GraphError(f"negative weight {w[bad]} on edge ({src[bad]}, {dst[bad]})")
    if np.any(src < 0) or np.any(dst < 0):
        raise GraphError("negative node index")

    if num_nodes is None:
        num_nodes = int(max(src.max(), dst.max())) + 1 if src.size else 0
    elif src.size and int(max(src.max(), dst.max())) >= num_nodes:
        raise GraphError(f"node index {int(max(src.max(), dst.max()))} out of range for num_nodes={num_nodes}")

    loops = np.flatnonzero(src == dst)
    if loops.size:
        raise GraphError(f"self-loop on node {int(src[loops[0]])}")

    A = sp.coo_matrix((w, (src, dst)), shape=(num_nodes, num_nodes)).tocsr()
    A.sum_duplicates()
    W = A.maximum(A.T)  # max-symmetrization after per-direction summing
    return _from_scipy(W, num_nodes)


@dataclass
class LaplacianOp:
    """Normalized Laplacian L = I - S, with S = D^{-1/2} W D^{-1/2} stored.

    S is a CSR matrix on W's ``indptr`` and ``indices`` with data
    w_ij d_i^{-1/2} d_j^{-1/2}, built on first use and cached; a zero-degree
    node has an all-zero row of S, so L acts as the identity on it. One
    application to d signal columns is one sparse product with S plus one
    pass over the N x d result: O(#E d).

    S is cached per signal dtype: float32 signals are applied to a float32
    copy of S's data on the same index arrays, built on their first use,
    and give float32 results; any other signal is applied in float64. The
    sparse product is bound by memory traffic, so float32 blocks cut the
    time of an application by a third or more.

    Immutable after construction (the cached copies of S aside, whose builds
    are idempotent); ``apply`` is reentrant and works columnwise on matrices.
    """

    graph: Graph
    d_inv_sqrt: np.ndarray
    _s: sp.csr_matrix | None = field(default=None, repr=False, compare=False)
    _s32: sp.csr_matrix | None = field(default=None, repr=False, compare=False)

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def shape(self) -> tuple[int, int]:
        return (self.graph.num_nodes, self.graph.num_nodes)

    def normalized_adjacency(self) -> sp.csr_matrix:
        """CSR S = D^{-1/2} W D^{-1/2} (shares W's index arrays, do not mutate)."""
        if self._s is None:
            g = self.graph
            row_scale = np.repeat(self.d_inv_sqrt, np.diff(g.indptr))
            data = g.weights * row_scale * self.d_inv_sqrt[g.indices]
            self._s = sp.csr_matrix((data, g.indices, g.indptr), shape=self.shape)
        return self._s

    def _adjacency_float32(self) -> sp.csr_matrix:
        """S with float32 data on the index arrays of the float64 S."""
        if self._s32 is None:
            s = self.normalized_adjacency()
            self._s32 = sp.csr_matrix((s.data.astype(np.float32), s.indices, s.indptr), shape=self.shape)
        return self._s32

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Return L x = x - S x for a vector or an N-row matrix of signals,
        as a fresh array that the caller owns, in float32 for float32
        signals and in float64 for any other."""
        x = signal_array(x)
        if x.shape[0] != self.num_nodes:
            raise ValueError(f"signal has {x.shape[0]} rows, graph has {self.num_nodes} nodes")
        s = self._adjacency_float32() if x.dtype == np.float32 else self.normalized_adjacency()
        out = s @ x
        np.subtract(x, out, out=out)
        return out

    def dense(self) -> np.ndarray:
        """Dense N x N Laplacian I - S (test/oracle use; O(N^2) memory), made
        in one Fortran-order buffer from the cached S."""
        L = self.normalized_adjacency().toarray(order="F")
        np.subtract(0.0, L, out=L)  # 0 - 0 keeps the zeros positive, unlike negation
        L.flat[:: self.num_nodes + 1] += 1.0
        return L


def signal_array(x) -> np.ndarray:
    """``x`` as an array of graph signals: float32 stays float32, anything
    else becomes float64 (without a copy when it already is)."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


def laplacian_op(graph: Graph) -> LaplacianOp:
    """Build the normalized Laplacian operator; zero-degree entries get 0."""
    d = graph.degrees
    with np.errstate(divide="ignore"):
        dis = np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
    return LaplacianOp(graph=graph, d_inv_sqrt=dis)


_NODES_HEADER = re.compile(r"^[^\S\n]*#[^\S\n]*nodes[^\S\n]+(\S+)[^\S\n]*$", re.M)
_COMMENT_LINE = re.compile(r"^[^\S\n]*#.*$", re.M)
_IS_BLANK = np.zeros(256, dtype=bool)
_IS_BLANK[list(b" \t\n\r\x0b\x0c")] = True
_UNIT_WEIGHT = np.frombuffer(b" 1", dtype=np.uint8)
_EDGE_ROW = np.dtype([("src", np.int64), ("dst", np.int64), ("weight", np.float64)])


def read_edge_list(path: str | Path) -> Graph:
    """Parse a whitespace-separated edge list: ``src dst [weight]`` per line.

    0-based indices, ``#`` comment lines and blank lines skipped, missing
    weight = 1.0 (2- and 3-column lines may mix). A ``# nodes <N>`` comment
    (as written by ``write_edge_list``) pins the node count so trailing
    isolated nodes survive a round trip; without one, the largest index
    gives it.

    One vectorized pass: comment lines are blanked, tokens are counted per
    line on the raw bytes, 2-column lines get a unit weight appended, and
    ``np.loadtxt`` parses the resulting 3-column text.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    num_nodes = None
    for token in _NODES_HEADER.findall(text):
        try:
            num_nodes = int(token)
        except ValueError:
            pass
    body = _COMMENT_LINE.sub("", text)
    raw = np.frombuffer(body.encode("utf-8"), dtype=np.uint8)
    newline = raw == ord("\n")
    blank = _IS_BLANK[raw]
    token_start = ~blank
    token_start[1:] &= blank[:-1]
    line_of = np.cumsum(newline) - newline
    columns = np.bincount(line_of[token_start], minlength=int(newline.sum()) + 1)
    bad = np.flatnonzero((columns != 0) & (columns != 2) & (columns != 3))
    if bad.size:
        line = body.split("\n")[bad[0]].strip()
        raise GraphError(f"{path}:{bad[0] + 1}: expected 'src dst [weight]', got {line!r}")
    two = np.flatnonzero(columns == 2)
    line_end = np.append(np.flatnonzero(newline), raw.size)[two]
    body = np.insert(raw, np.repeat(line_end, 2), np.tile(_UNIT_WEIGHT, two.size)).tobytes().decode("utf-8")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file without edges
            rows = np.loadtxt(io.StringIO(body), dtype=_EDGE_ROW, comments=None, ndmin=1)
    except ValueError as exc:
        raise _locate_malformed_line(path, text, body, exc) from None
    arr = np.column_stack([rows["src"], rows["dst"], rows["weight"]])
    return build_graph(arr, num_nodes=num_nodes)


def _locate_malformed_line(path: Path, text: str, body: str, exc: ValueError) -> GraphError:
    """Error-path second pass: name the first line whose values do not parse.
    ``body`` is ``text`` with the same line numbering, comments blanked and
    unit weights appended."""
    for lineno, (line, original) in enumerate(zip(body.split("\n"), text.split("\n")), start=1):
        if not line.strip():
            continue
        try:
            np.loadtxt([line], dtype=_EDGE_ROW, comments=None, ndmin=1)
        except ValueError:
            return GraphError(
                f"{path}:{lineno}: expected integer node ids and a float weight, got {original.strip()!r}"
            )
    return GraphError(f"{path}: {exc}")


def write_edge_list(graph: Graph, path: str | Path) -> None:
    """Write one ``src dst weight`` line per undirected edge (i < j)."""
    path = Path(path)
    W = graph.adjacency().tocoo()
    mask = W.row < W.col
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"# nodes {graph.num_nodes}\n")
        for i, j, w in zip(W.row[mask], W.col[mask], W.data[mask]):
            fh.write(f"{int(i)} {int(j)} {float(w)!r}\n")
