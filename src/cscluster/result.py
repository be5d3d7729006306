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
    """Hard partition plus the soft indicator vectors it was derived from.

    ``soft`` holds one column per cluster over all N nodes (the lifted
    indicators for the compressive pipeline, one-hot for the exact
    baseline). ``diagnostics`` is a flat dict of run metadata: cutoff
    estimate, sizes, k-means outcome, warnings and per-stage wall times
    under the "timings" key.
    """

    labels: np.ndarray
    soft: np.ndarray
    diagnostics: dict[str, Any] = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return int(self.labels.size)

    @property
    def num_clusters(self) -> int:
        return int(self.soft.shape[1])

    def to_dict(self) -> dict[str, Any]:
        diag = {k: _plain(v) for k, v in self.diagnostics.items() if k != "timings"}
        return {
            "labels": [int(x) for x in self.labels],
            "num_clusters": self.num_clusters,
            "num_nodes": self.num_nodes,
            "diagnostics": diag,
        }

    def to_json(self, *, indent: int | None = None) -> str:
        """Deterministic JSON; timings are excluded so equal seeds serialize
        byte-identically."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    def save_json(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(indent=2) + "\n", encoding="utf-8")


def write_labels_csv(path: str | Path, labels: np.ndarray) -> None:
    """Write one ``node_id,label`` row per node, with "\n" line ends."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["node_id", "label"])
        writer.writerows(enumerate(np.asarray(labels).tolist()))


def _plain(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value
