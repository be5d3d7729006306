"""Clustering result container, labels CSV writer and failure type shared by
the exact and compressive pipelines."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np


class DegenerateClusteringError(RuntimeError):
    """The input admits no clustering by the method: an empty cluster in the
    reduced k-means, or a node with a zero row in the leading eigenvectors."""


@dataclass
class ClusterResult:
    """Hard partition of the N nodes plus the run's diagnostics.

    ``labels`` holds one cluster index in [0, k) per node. ``diagnostics``
    is a flat dict of run metadata: k, cutoff estimate, sizes, k-means
    outcome, warnings and per-stage wall times under the "timings" key.
    """

    labels: np.ndarray
    diagnostics: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "labels": self.labels.tolist(),
            "num_clusters": self.diagnostics["k"],
            "num_nodes": self.labels.size,
            "diagnostics": {k: v for k, v in self.diagnostics.items() if k != "timings"},
        }

    def to_json(self, *, indent: int | None = None) -> str:
        """Deterministic JSON; timings are excluded so equal seeds serialize
        byte-identically. Only the SC baseline's LAPACK fallback (a split or
        tiny graph, see ``oracle.dense_eig``) also needs a fixed BLAS thread
        count: its eigenvalues and k-means inertia differ between thread
        counts, while its ARPACK path does not. Numpy scalars and arrays
        serialize as their ``tolist()``."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent, default=_tolist)

    def save_json(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(indent=2) + "\n", encoding="utf-8")


def write_labels_csv(path: str | Path, labels: np.ndarray) -> None:
    """Write one ``node_id,label`` row per node, with "\n" line ends."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["node_id", "label"])
        writer.writerows(enumerate(np.asarray(labels).tolist()))


def _tolist(value: Any) -> Any:
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")
