"""Regenerate ``tests/golden/bills.json``: the pinned charged I/O bills.

The golden file holds exact :class:`~repro.storage.IOStats` counters and
``io_by_extent`` breakdowns for a fixed matrix of seeded runs:

* ``decomposition`` — the five charging ``max_truss`` methods under lru,
  fifo and clock on ``barabasi_albert(120, attach=5, seed=7)`` at block
  64 / cache 32;
* ``support_scan`` — the support scan on ``gnm_random(60, 700, seed=5)``
  at block 64 / cache 16, under the same three policies;
* ``maintenance`` — one seeded :class:`~repro.dynamic.DynamicMaxTruss`
  insert/delete script at block 64 / cache 32;
* ``semi_external`` — the three semi-external methods on youtube-s,
  wikipedia-s and arabic-s with the default engine config (the Fig 5
  stand-ins);
* ``ingest_window`` — a seeded arrival stream through a sliding-window
  :class:`~repro.dynamic.IngestPipeline` (window 20, batch 7) into
  :class:`~repro.dynamic.DynamicMaxTruss` at block 64 / cache 32;
* ``physical_backends`` — semi-binary on youtube-s through the ``file``
  and ``mmap`` backends at the default auto-sized pool;
* ``estimation`` — wedge-sampling ``estimate_triangle_count`` on
  wikipedia-s (3,000 samples, ``default_rng(0)``);
* ``spilling_pool`` — the three semi-external methods on kron29-s with
  the default engine config, whose auto-sized LRU pool is 16 blocks
  (the benchmark's ``static-spill`` bills);
* ``policies`` — the three semi-external methods on youtube-s under the
  ``fifo`` and ``clock`` policies at the default auto-sized pool.

``io`` is the closed context's bill, final flush included;
``result_io`` is the ``max_truss`` result's own bill (the figure
EXPERIMENTS.md publishes).

``tests/test_golden_bills.py`` recomputes the same matrix and compares.
The file is rewritten only by running this script::

    PYTHONPATH=src python tests/golden/make_bills.py

A change that moves a bill must say why in CHANGES.md.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict

import numpy as np

from repro import EngineConfig, ExecutionContext, max_truss
from repro.approx import AdjacencyProbe, estimate_triangle_count
from repro.dynamic import DynamicMaxTruss, IngestPipeline
from repro.dynamic.workload import mixed_churn
from repro.graph.datasets import load_dataset
from repro.graph.disk_graph import DiskGraph
from repro.graph.generators import barabasi_albert, gnm_random
from repro.graph.memgraph import Graph
from repro.semiexternal.support import compute_supports

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "bills.json"

POLICIES = ("lru", "fifo", "clock")
CHARGING_METHODS = (
    "semi-binary", "semi-greedy-core", "semi-lazy-update", "bottom-up", "top-down",
)
SEMI_METHODS = ("semi-binary", "semi-greedy-core", "semi-lazy-update")
SEMI_DATASETS = ("youtube-s", "wikipedia-s", "arabic-s")
PHYSICAL_BACKENDS = ("file", "mmap")
SPILL_DATASET = "kron29-s"
POOL_POLICIES = ("fifo", "clock")


def _counters(stats) -> Dict[str, int]:
    return {
        "read_ios": stats.read_ios,
        "write_ios": stats.write_ios,
        "bytes_read": stats.bytes_read,
        "bytes_written": stats.bytes_written,
    }


def _bill(context: ExecutionContext, **answer) -> Dict[str, object]:
    """One run's bill: the closed context's counters (the final flush
    included), its per-extent split, and the run's answer."""
    context.close()
    extents = context.device.io_by_extent() if context.device is not None else {}
    return dict(
        answer,
        io=_counters(context.stats),
        io_by_extent={name: list(pair) for name, pair in sorted(extents.items())},
    )


def decomposition_bill(method: str, policy: str) -> Dict[str, object]:
    graph = barabasi_albert(120, attach=5, seed=7)
    context = ExecutionContext(EngineConfig(
        block_size=64, cache_blocks=32, cache_policy=policy,
    ))
    result = max_truss(graph, method=method, context=context)
    return _bill(context, k_max=result.k_max, result_io=_counters(result.io))


def support_scan_bill(policy: str) -> Dict[str, object]:
    graph = gnm_random(60, 700, seed=5)
    context = ExecutionContext(EngineConfig(
        block_size=64, cache_blocks=16, cache_policy=policy,
    ))
    scan = compute_supports(
        DiskGraph(graph, context.device_for(graph.n), context.memory)
    )
    return _bill(context, triangles=scan.triangle_count)


def maintenance_bill() -> Dict[str, object]:
    graph = gnm_random(50, 300, seed=11)
    context = ExecutionContext(EngineConfig(block_size=64, cache_blocks=32))
    state = DynamicMaxTruss(graph, context=context)
    trace = []
    for op, u, v in mixed_churn(graph, 24, seed=3):
        getattr(state, op)(u, v)
        trace.append(state.k_max)
    return _bill(context, k_max_trace=trace)


def semi_external_bill(
    dataset: str, method: str, policy: str = "lru",
) -> Dict[str, object]:
    graph = load_dataset(dataset)
    context = ExecutionContext(EngineConfig(cache_policy=policy))
    result = max_truss(graph, method=method, context=context)
    return _bill(context, k_max=result.k_max, result_io=_counters(result.io))


def ingest_window_bill() -> Dict[str, object]:
    rng = np.random.default_rng(13)
    arrivals = []
    while len(arrivals) < 120:
        u, v = (int(x) for x in rng.integers(0, 16, size=2))
        if u != v:
            arrivals.append((u, v))
    context = ExecutionContext(EngineConfig(block_size=64, cache_blocks=32))
    state = DynamicMaxTruss(Graph.empty(0), context=context)
    trace = []
    with IngestPipeline(
        state, window=20, batch_size=7,
        on_batch_applied=lambda _ops: trace.append(state.k_max),
    ) as pipe:
        pipe.submit_many(arrivals)
    stats = pipe.stats
    return _bill(
        context, k_max_trace=trace,
        truss_pairs=[list(pair) for pair in state.truss_pairs()],
        arrivals=stats.arrivals, expirations=stats.expirations,
        duplicates_skipped=stats.duplicates_skipped,
    )


def physical_backend_bill(backend: str) -> Dict[str, object]:
    graph = load_dataset("youtube-s")
    context = ExecutionContext(EngineConfig(backend=backend))
    result = max_truss(graph, method="semi-binary", context=context)
    return _bill(context, k_max=result.k_max, result_io=_counters(result.io))


def estimation_bill() -> Dict[str, object]:
    graph = load_dataset("wikipedia-s")
    context = ExecutionContext(EngineConfig())
    probe = AdjacencyProbe(graph, context.device_for(graph.n))
    estimate = estimate_triangle_count(
        probe, 3000, 0.95, np.random.default_rng(0)
    )
    return _bill(
        context, value=estimate.value, ci=[estimate.ci_low, estimate.ci_high],
        charged_io=estimate.charged_io,
    )


def cases():
    """``(section, key, thunk)`` for every pinned run, in file order."""
    for method in CHARGING_METHODS:
        for policy in POLICIES:
            yield ("decomposition", f"{method}/{policy}",
                   lambda m=method, p=policy: decomposition_bill(m, p))
    for policy in POLICIES:
        yield ("support_scan", policy, lambda p=policy: support_scan_bill(p))
    yield ("maintenance", "mixed_churn", maintenance_bill)
    for dataset in SEMI_DATASETS:
        for method in SEMI_METHODS:
            yield ("semi_external", f"{dataset}/{method}",
                   lambda d=dataset, m=method: semi_external_bill(d, m))
    yield ("ingest_window", "window20/batch7", ingest_window_bill)
    for backend in PHYSICAL_BACKENDS:
        yield ("physical_backends", f"youtube-s/semi-binary/{backend}",
               lambda b=backend: physical_backend_bill(b))
    yield ("estimation", "wikipedia-s/triangles", estimation_bill)
    for method in SEMI_METHODS:
        yield ("spilling_pool", f"{SPILL_DATASET}/{method}",
               lambda m=method: semi_external_bill(SPILL_DATASET, m))
    for policy in POOL_POLICIES:
        for method in SEMI_METHODS:
            yield ("policies", f"youtube-s/{method}/{policy}",
                   lambda m=method, p=policy: semi_external_bill("youtube-s", m, p))


def compute_bills() -> Dict[str, Dict[str, object]]:
    bills: Dict[str, Dict[str, object]] = {}
    for section, key, thunk in cases():
        bills.setdefault(section, {})[key] = thunk()
    return bills


def main() -> None:
    GOLDEN_PATH.write_text(
        json.dumps(compute_bills(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
