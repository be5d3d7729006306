"""Undirected weighted graphs in canonical CSR form and the normalized Laplacian.

The Laplacian used everywhere in this package is L = I - D^{-1/2} W D^{-1/2},
whose spectrum lies in [0, 2]. Zero-degree nodes get d^{-1/2} = 0, so L acts
as the identity on their coordinate; ``Graph.isolated_nodes`` flags them, and
the clustering pipeline excludes them from its node sample (their filtered
row carries no cluster geometry) while still labeling them.

Every ``Graph`` comes from one constructor, ``_from_edges``: int64 source
and target ids and float64 weights, checked, summed per direction and
max-symmetrized in one sparse pass. ``build_graph`` (triples from callers
and ``sbm_generate``) and ``read_edge_list`` (both of its parse paths)
hand it their arrays.
"""

from __future__ import annotations

import io
import os
import re
import warnings
from dataclasses import dataclass
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
        return sp.csr_matrix((self.weights, self.indices, self.indptr), shape=(self.num_nodes, self.num_nodes))


def _from_edges(src: np.ndarray, dst: np.ndarray, w: np.ndarray, num_nodes: int | None) -> Graph:
    """The graph of directed entries ``src[e] -> dst[e]`` with weight ``w[e]``
    (int64 ids, float64 weights): duplicate entries with the same direction
    are summed, then the larger of the two directions wins. Without
    ``num_nodes`` the largest id gives the node count.

    Sparse ``maximum`` leaves W canonical (sorted, deduplicated, no explicit
    zeros), so its arrays become the graph's without a further pass."""
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
    elif num_nodes < 0:
        raise GraphError(f"num_nodes must be >= 0, got {num_nodes}")
    elif src.size and int(max(src.max(), dst.max())) >= num_nodes:
        raise GraphError(f"node index {int(max(src.max(), dst.max()))} out of range for num_nodes={num_nodes}")

    loops = np.flatnonzero(src == dst)
    if loops.size:
        raise GraphError(f"self-loop on node {int(src[loops[0]])}")

    A = sp.csr_matrix((w, (src, dst)), shape=(num_nodes, num_nodes))  # sums duplicates
    W = A.maximum(A.T)
    indices, weights = W.indices, W.data
    if indices.base is not None and indices.base.size > indices.size:
        # views into buffers sized for both operands, twice W's entries when
        # the input lists both directions of every edge: keep W's share only
        indices, weights = indices.copy(), weights.copy()
    return Graph(num_nodes, W.indptr, indices, weights, np.asarray(W.sum(axis=1)).ravel())


def build_graph(
    edges: Iterable[Sequence[float]] | np.ndarray,
    num_nodes: int | None = None,
) -> Graph:
    """Build a canonical symmetric graph from (i, j[, weight]) triples.

    Duplicate entries with the same direction are summed first; when both
    directions of an edge then carry different weights, the larger one wins.
    Missing weights default to 1.0. Self-loops (i == j) are rejected.

    Signed-integer input (an int64 array, or Python rows of ints only) keeps
    its ids exact. Any other input is read as float64, whose ids must be
    finite integers below 2^53 in magnitude: beyond that a float no longer
    holds every integer, so the id may already have been rounded.
    """
    arr = np.atleast_2d(np.asarray(edges if isinstance(edges, np.ndarray) else list(edges)))
    if arr.size == 0:
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] not in (2, 3):
        raise GraphError(f"edges must be (i, j) or (i, j, w) rows, got shape {arr.shape}")
    w = arr[:, 2].astype(np.float64, copy=False) if arr.shape[1] == 3 else np.ones(arr.shape[0])
    ids = arr[:, :2]
    if ids.dtype.kind != "i":
        ids = ids.astype(np.float64)
        inexact = ~(np.abs(ids) < 2.0**53)  # NaN compares false
        if inexact.any():
            raise GraphError(f"node id {ids[inexact][0]} is not a finite float below 2^53 in magnitude")
        if not np.all(ids == np.floor(ids)):
            raise GraphError("node indices must be integers")
    return _from_edges(ids[:, 0].astype(np.int64), ids[:, 1].astype(np.int64), w, num_nodes)


@dataclass(frozen=True)
class LaplacianOp:
    """Normalized Laplacian L = I - S, with S = D^{-1/2} W D^{-1/2} stored.

    ``s`` is S as a CSR matrix on W's ``indptr`` and ``indices`` with data
    w_ij d_i^{-1/2} d_j^{-1/2}; ``s32`` is the same matrix with float32 data
    on the same index arrays. ``laplacian_op`` builds both. A zero-degree
    node has an all-zero row of S, so L acts as the identity on it. One
    application to d signal columns is one sparse product with S plus one
    pass over the N x d result: O(#E d).

    float32 signals are applied with ``s32`` and give float32 results; any
    other signal is applied in float64 with ``s``. The sparse product is
    bound by memory traffic, so float32 blocks cut the time of an
    application by a third or more.

    Immutable (do not mutate the matrices either); ``apply`` is reentrant
    and works columnwise on matrices.
    """

    graph: Graph
    s: sp.csr_matrix
    s32: sp.csr_matrix

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Return L x = x - S x for a vector or an N-row matrix of signals,
        as a fresh array that the caller owns, in float32 for float32
        signals and in float64 for any other."""
        x = signal_array(x)
        if x.shape[0] != self.num_nodes:
            raise ValueError(f"signal has {x.shape[0]} rows, graph has {self.num_nodes} nodes")
        out = (self.s32 if x.dtype == np.float32 else self.s) @ x
        np.subtract(x, out, out=out)
        return out

    def dense(self) -> np.ndarray:
        """Dense N x N Laplacian I - S (test/oracle use; O(N^2) memory), made
        in one Fortran-order buffer from S."""
        L = self.s.toarray(order="F")
        np.subtract(0.0, L, out=L)  # 0 - 0 keeps the zeros positive, unlike negation
        L.flat[:: self.num_nodes + 1] += 1.0
        return L


def signal_array(x) -> np.ndarray:
    """``x`` as an array of graph signals: float32 stays float32, anything
    else becomes float64 (without a copy when it already is)."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


def laplacian_op(graph: Graph) -> LaplacianOp:
    """Build the normalized Laplacian operator and its S in float64 and
    float32; zero-degree entries of D^{-1/2} get 0."""
    d = graph.degrees
    dis = np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
    data = graph.weights * np.repeat(dis, np.diff(graph.indptr)) * dis[graph.indices]
    shape = (graph.num_nodes, graph.num_nodes)
    s = sp.csr_matrix((data, graph.indices, graph.indptr), shape=shape)
    s32 = sp.csr_matrix((data.astype(np.float32), s.indices, s.indptr), shape=shape)
    return LaplacianOp(graph=graph, s=s, s32=s32)


_NODES_HEADER = re.compile(r"#[^\S\n]*nodes[^\S\n]+(\S+)[^\S\n]*$", re.M)
_EDGE_ROWS = (
    np.dtype([("src", np.int64), ("dst", np.int64), ("weight", np.float64)]),
    np.dtype([("src", np.int64), ("dst", np.int64)]),
)
# np.loadtxt opens a path with one of these suffixes as a compressed file
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def read_edge_list(path: str | Path) -> Graph:
    """Parse a whitespace-separated edge list: ``src dst [weight]`` per line.

    0-based indices, missing weight = 1.0, blank lines skipped, and ``#``
    starts a comment anywhere on a line. A ``# nodes <N>`` comment line (as
    written by ``write_edge_list``) pins the node count so trailing isolated
    nodes survive a round trip; one whose N + 1 int64 row pointers alone
    exceed physical memory raises ``MemoryError`` before anything is
    allocated. Without one, the largest index gives the node count, and
    a largest index whose node count exceeds max(2 x edge lines, 2^16) is
    refused before anything is sized by it: one stray id would otherwise
    make the graph allocate gigabytes. A
    leading UTF-8 byte order mark is ignored, and LF, CRLF and lone-CR line
    ends read alike. A file that is not UTF-8 raises ``GraphError`` naming
    the line of the first bad byte. Node ids stay int64 from the text to the
    graph, so an error names an id as the file writes it.

    The header scan visits only the ``#`` characters of the text and keeps
    a ``# nodes <N>`` match whose line holds nothing but whitespace before
    its ``#``, so an inline comment is never a header; the last header whose
    N parses wins.

    A file whose lines all have 3 columns, or all 2, is parsed by one
    ``np.loadtxt`` call, which refuses a row of any other width. loadtxt
    opens a regular file itself and reads it in large blocks, about twice
    as fast as from a copy of the text. Only a file that both calls refuse
    (2- and 3-column lines mixed, or a line that does not parse) takes a
    per-line pass, which reads the mixed lines and names the first bad one
    as ``path:line``.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        # bytes.splitlines breaks lines where universal newlines do
        lineno = len((exc.object[: exc.start] + b"x").splitlines())
        bad = exc.object[exc.start]
        raise GraphError(f"{path}:{lineno}: not UTF-8 text (byte 0x{bad:02x}: {exc.reason})") from None
    num_nodes = None
    for match in _NODES_HEADER.finditer(text):
        hash_at = match.start()
        if text[text.rfind("\n", 0, hash_at) + 1 : hash_at].strip():
            continue  # an inline comment
        try:
            num_nodes = int(match[1])
        except ValueError:
            pass
    physical = None if num_nodes is None else _physical_memory()
    if physical is not None and 8 * (num_nodes + 1) > physical:
        # under memory overcommit such a request can succeed and exhaust the host later
        raise MemoryError(
            f"{path}: '# nodes {num_nodes}' asks for {num_nodes + 1} int64 row pointers "
            f"({8 * (num_nodes + 1)} bytes), more than the {physical} bytes of physical memory: not allocated"
        )
    # loadtxt reads a regular file from its path; a pipe, read once already,
    # and a name loadtxt would decompress get a copy of the text instead
    reopen = path.is_file() and path.suffix not in _COMPRESSED_SUFFIXES
    for row in _EDGE_ROWS:
        source = path if reopen else io.StringIO(text)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a file without edges
                rows = np.loadtxt(source, dtype=row, comments="#", ndmin=1, encoding="utf-8-sig")
        except ValueError:
            continue
        break
    else:
        rows = _parse_lines(path, text)
    if num_nodes is None and rows.size:
        top = int(max(rows["src"].max(), rows["dst"].max()))
        if top + 1 > max(2 * rows.size, 2**16):
            raise GraphError(
                f"{path}: node id {top} implies {top + 1} nodes for {rows.size} edge line(s); "
                "a '# nodes N' header line keeps such a file readable"
            )
    w = rows["weight"] if "weight" in rows.dtype.names else np.ones(rows.size)
    return _from_edges(rows["src"], rows["dst"], w, num_nodes)


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the system does not say."""
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return pages * size if pages > 0 and size > 0 else None


def _parse_lines(path: Path, text: str) -> np.ndarray:
    """Per-line pass for files that mix 2- and 3-column lines, or that have
    a bad line, which it names; the rows come back as 3-column records.
    Tokens with ``_`` or non-ASCII characters are refused: Python's ``int``
    and ``float`` read them, ``np.loadtxt`` does not. So is an id outside
    int64, which ``np.loadtxt`` refuses as well."""
    rows = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        data = line.split("#", 1)[0]
        parts = data.split()
        if not parts:
            continue
        if len(parts) not in (2, 3):
            raise GraphError(f"{path}:{lineno}: expected 'src dst [weight]', got {line.strip()!r}")
        try:
            if "_" in data or not data.isascii():
                raise ValueError
            rows.append((int(parts[0]), int(parts[1]), float(parts[2]) if len(parts) == 3 else 1.0))
        except ValueError:
            raise GraphError(
                f"{path}:{lineno}: expected integer node ids and a float weight, got {line.strip()!r}"
            ) from None
        for node in rows[-1][:2]:
            if not -(2**63) <= node < 2**63:
                raise GraphError(f"{path}:{lineno}: node id {node} does not fit in 64 bits")
    return np.array(rows, dtype=_EDGE_ROWS[0])


def write_edge_list(graph: Graph, path: str | Path) -> None:
    """Write one ``src dst weight`` line per undirected edge (i < j)."""
    path = Path(path)
    W = graph.adjacency().tocoo()
    mask = W.row < W.col
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"# nodes {graph.num_nodes}\n")
        for i, j, w in zip(W.row[mask], W.col[mask], W.data[mask]):
            fh.write(f"{int(i)} {int(j)} {float(w)!r}\n")
