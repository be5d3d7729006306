"""Spans recorded from outside the program, around calls into its modules.

``Tracer.install`` replaces module attributes of ``cscluster`` with wrappers
that open a span for the duration of each call, and wraps
``LaplacianOp.apply`` so that every application adds its call, its signal
columns and its time to the innermost open span. ``Tracer.uninstall`` puts
the originals back. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import cscluster.graph
import cscluster.oracle
import cscluster.pipeline

# (module, attribute, span name): the calls that run_csc and run_sc_baseline
# make into the layers below them
WRAPPED = (
    (cscluster.pipeline, "estimate_lambda_k", "spectrum.estimate_lambda_k"),
    (cscluster.pipeline, "build_features", "features.build_features"),
    (cscluster.pipeline, "draw_sampling", "sampling.draw_sampling"),
    (cscluster.pipeline, "kmeans", "kmeans.kmeans"),
    (cscluster.pipeline, "interpolate_all", "sampling.interpolate_all"),
    (cscluster.oracle, "dense_eig", "oracle.dense_eig"),
    (cscluster.oracle, "kmeans", "kmeans.kmeans"),
)


@dataclass
class Span:
    id: int
    name: str
    op: int  # spans of one operation share this id
    parent: int | None
    start: float
    end: float = 0.0
    apply_calls: int = 0
    apply_columns: int = 0
    apply_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while ``enabled``; otherwise ``span`` does nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = 0
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, *, new_op: bool = False):
        if not self.enabled:
            yield None
            return
        if new_op:
            self._op += 1
        parent = self._stack[-1].id if self._stack else None
        s = Span(id=len(self.spans), name=name, op=self._op, parent=parent, start=time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def paused(self):
        """Record nothing inside: calls made here are left out of the spans."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def _wrap_call(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _wrap_apply(self, apply):
        stack = self._stack

        @functools.wraps(apply)
        def wrapper(op, x):
            t0 = time.perf_counter()
            out = apply(op, x)
            dt = time.perf_counter() - t0
            if stack:
                top = stack[-1]
                top.apply_calls += 1
                top.apply_columns += 1 if np.ndim(x) == 1 else int(np.shape(x)[1])
                top.apply_s += dt
            return out

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name in WRAPPED:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, self._wrap_call(getattr(module, attr), name))
        LaplacianOp = cscluster.graph.LaplacianOp
        self._saved.append((LaplacianOp, "apply", LaplacianOp.apply))
        LaplacianOp.apply = self._wrap_apply(LaplacianOp.apply)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n", encoding="utf-8")
