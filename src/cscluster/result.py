"""Clustering result container shared by the exact and compressive pipelines."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np


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

    def to_dict(self, *, include_timings: bool = False) -> dict[str, Any]:
        diag = {k: _plain(v) for k, v in self.diagnostics.items() if include_timings or k != "timings"}
        return {
            "labels": [int(x) for x in self.labels],
            "num_clusters": self.num_clusters,
            "num_nodes": self.num_nodes,
            "diagnostics": diag,
        }

    def to_json(self, *, include_timings: bool = False, indent: int | None = None) -> str:
        """Deterministic JSON; timings are excluded by default so equal seeds
        serialize byte-identically."""
        return json.dumps(self.to_dict(include_timings=include_timings), sort_keys=True, indent=indent)

    def save_json(self, path: str | Path, *, include_timings: bool = False) -> None:
        Path(path).write_text(self.to_json(include_timings=include_timings, indent=2) + "\n", encoding="utf-8")

    def save_labels_csv(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["node_id", "label"])
            for i, lab in enumerate(self.labels):
                writer.writerow([i, int(lab)])


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
