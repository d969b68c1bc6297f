"""The parallel execution tier: ambient executor + image/pool ownership.

Mirrors the tracer's ambient-stack pattern
(:mod:`repro.observability.tracer`): an :class:`ExecutionContext` with
``config.workers > 1`` owns one lazily-built :class:`ParallelExecutor`
and activates it around an algorithm run via
``context.parallel_kernels()``; the support scan (``compute_supports``)
consults :func:`active_executor` and dispatches to the sharded path when
the work is large enough — no signature threading, and probes deep
inside the binary search parallelize for free.

Gating can never change the bill: the parallel scan replays the exact
serial touch sequence (see :mod:`repro.parallel.ledger`), so whether a
given scan crossed ``parallel_threshold`` is invisible to the charged
ledger.
"""

from __future__ import annotations

import contextlib
from typing import Dict, List, Optional

from .shm import SharedGraphImage, publish_graph

#: Dense scan images are published only when 4 * n**2 fits in this budget
#: (float32 n x n adjacency; ~8k vertices at the 256 MiB default).
DENSE_BUDGET_BYTES = 256 * 1024 * 1024

#: Published images kept alive at once; oldest dropped first. Probe
#: subgraphs arrive in a stream — a tiny cache bounds shared memory while
#: keeping a repeatedly scanned graph hot.
_IMAGE_CACHE_SLOTS = 4


class ParallelExecutor:
    """Owns the worker pool and the published shared-memory images."""

    def __init__(
        self,
        workers: int,
        parallel_threshold: int,
        dense_budget_bytes: int = DENSE_BUDGET_BYTES,
    ) -> None:
        self.workers = int(workers)
        self.parallel_threshold = int(parallel_threshold)
        self.dense_budget_bytes = int(dense_budget_bytes)
        self._pool = None
        self._images: Dict[int, SharedGraphImage] = {}
        self._image_order: List[int] = []
        self._next_key = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # gating
    # ------------------------------------------------------------------ #

    def wants_scan(self, n: int, m: int) -> bool:
        """Shard the support scan when the edge count crosses the threshold."""
        return not self._closed and m >= max(1, self.parallel_threshold)

    # ------------------------------------------------------------------ #
    # pool / image management
    # ------------------------------------------------------------------ #

    @property
    def pool(self):
        if self._pool is None:
            from .pool import WorkerPool

            self._pool = WorkerPool(self.workers)
        return self._pool

    def image_for(self, graph) -> SharedGraphImage:
        """The published image of *graph*, publishing on first sight.

        Keyed by the graph object (probe subgraphs are fresh objects, so a
        stale key can never alias a different topology); a small LRU bounds
        the live shared memory.
        """
        key = getattr(graph, "_parallel_image_key", None)
        if key is not None and key in self._images:
            self._image_order.remove(key)
            self._image_order.append(key)
            return self._images[key]
        key = self._next_key
        self._next_key += 1
        image = publish_graph(key, graph, dense_budget_bytes=self.dense_budget_bytes)
        self.pool.publish(key, image.descriptors)
        try:
            graph._parallel_image_key = key
        except AttributeError:  # pragma: no cover - slotted graph classes
            pass
        self._images[key] = image
        self._image_order.append(key)
        while len(self._image_order) > _IMAGE_CACHE_SLOTS:
            self._drop(self._image_order.pop(0))
        return image

    def _drop(self, key: int) -> None:
        image = self._images.pop(key, None)
        if image is None:
            return
        if self._pool is not None:
            self._pool.drop(key)
        image.destroy()

    def shutdown(self) -> None:
        """Tear down images and the pool (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for key in list(self._images):
            self._drop(key)
        self._image_order = []
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __del__(self):  # pragma: no cover - GC-order dependent
        # Backstop for ad-hoc contexts nobody closes; daemon workers would
        # die with the parent anyway, but the shared segments would not.
        try:
            self.shutdown()
        except Exception:
            pass


#: Ambient stack of active executors; innermost (latest) wins.
_ACTIVE: List[ParallelExecutor] = []


def active_executor() -> Optional[ParallelExecutor]:
    """The executor leaf kernels should shard onto, or ``None`` (serial)."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextlib.contextmanager
def executor_scope(executor: Optional[ParallelExecutor]):
    """Make *executor* ambient for the scope (no-op when ``None``)."""
    if executor is None:
        yield None
        return
    _ACTIVE.append(executor)
    try:
        yield executor
    finally:
        try:
            _ACTIVE.remove(executor)
        except ValueError:  # pragma: no cover - defensive
            pass
