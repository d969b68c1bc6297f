"""Which ``repro`` calls belong to which layer, and the per-layer report.

:func:`install` wraps the public entry points of every layer named in
``README.md`` with a :class:`~layertrace.LayerTracer`; :func:`report`
turns the tracer's totals into the flat ``per_layer`` metrics of
``BENCHMARK.json``. Nothing here edits ``src/``: the wrappers live for
one traced run and :meth:`LayerTracer.uninstall` removes them.
"""

from __future__ import annotations

import collections
import importlib
import time
import weakref
from typing import Dict

from layertrace import LayerTracer, layer_sum_check

#: The eleven measured layers, one per ``repro`` package.
LAYERS = ("core", "structures", "semiexternal", "storage", "graph", "dynamic",
          "persistence", "serve", "approx", "applications", "engine")

CORE_METHODS = ("semi-binary", "semi-greedy-core", "semi-lazy-update")
SERVE_OPS = ("membership", "trussness", "community", "stats")

#: per_layer metric name -> unit, in BENCHMARK.json order.
PER_LAYER_UNITS: Dict[str, str] = {
    **{f"core.{m}.wall_s": "s" for m in CORE_METHODS},
    "core.peel.self_s": "s",
    "core.peel.calls": "count",
    "core.probe.calls": "count",
    "core.support_scans": "count",
    "structures.heap.self_s": "s",
    "structures.heap.calls": "count",
    "semiexternal.support.self_s": "s",
    "semiexternal.support.calls": "count",
    "semiexternal.core.self_s": "s",
    "storage.array.self_s": "s",
    "storage.array.calls": "count",
    "storage.device.self_s": "s",
    "storage.device.touches": "count",
    "storage.cache.hit_ratio": "ratio",
    "storage.read_ios": "count",
    "storage.write_ios": "count",
    "graph.csr.self_s": "s",
    "graph.csr.calls": "count",
    "graph.disk_graph.self_s": "s",
    "dynamic.update.self_s": "s",
    "dynamic.mode.untouched": "count",
    "dynamic.mode.local": "count",
    "dynamic.mode.global": "count",
    "dynamic.global_phase.self_s": "s",
    "dynamic.batch.global_ratio": "ratio",
    "dynamic.ingest.queue_wait_s": "s",
    "persistence.wal.self_s": "s",
    "persistence.wal.fsyncs": "count",
    "persistence.wal.bytes": "bytes",
    "persistence.checkpoint.self_s": "s",
    **{f"serve.execute.self_s.{op}": "s" for op in SERVE_OPS},
    "serve.cache.hit_ratio": "ratio",
    "serve.transport_ms": "ms",
    "serve.errors": "count",
    "approx.build_s": "s",
    "approx.probe.self_s": "s",
    "approx.build_charged_io": "count",
    "approx.ci_coverage": "ratio",
    "applications.community.self_s": "s",
    "engine.context.self_s": "s",
    "engine.context.calls": "count",
    "engine.peak_model_bytes": "bytes",
    **{f"{layer}.charged_ios": "count" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
    "trace.layer_sum_within_tol": "ratio",
    "trace.layer_sum_median_gap": "ratio",
    "trace.requests": "count",
}


def install(tracer: LayerTracer) -> None:
    """Wrap every measured layer's public entry points."""
    # Import every layer first so from-imports exist to be patched.
    from repro.applications import community
    from repro.approx.engine import ApproxEngine
    from repro.core import peeling
    from repro.dynamic import checkpoint
    from repro.dynamic.ingest import IngestPipeline
    from repro.dynamic.state import DynamicMaxTruss
    from repro.engine.context import ExecutionContext
    from repro.graph.disk_graph import DiskGraph
    from repro.graph.memgraph import Graph, MutableGraph
    from repro.persistence.recovery import DurableMaintenance
    from repro.persistence.wal import WriteAheadLog
    from repro.semiexternal import core_decomp, support
    from repro.serve.cache import ResultCache
    from repro.serve.engine import QueryEngine
    from repro.serve.snapshot import SnapshotManager
    from repro.storage.device import BlockDevice
    from repro.storage.disk_array import DiskArray
    from repro.structures.lhdh import LHDH
    from repro.structures.linear_heap import LinearHeap

    # The core package re-exports functions under its module names, so
    # fetch the modules themselves.
    semi_binary, semi_greedy_core, semi_lazy_update = (
        importlib.import_module(f"repro.core.{name}")
        for name in ("semi_binary", "semi_greedy_core", "semi_lazy_update"))

    # -- core ---------------------------------------------------------- #
    core_depth = [0]

    def in_core(wrapped):
        def run(*args, **kwargs):
            core_depth[0] += 1
            try:
                return wrapped(*args, **kwargs)
            finally:
                core_depth[0] -= 1
        return run

    for module in (semi_binary, semi_greedy_core, semi_lazy_update):
        name = module.__name__.rsplit(".", 1)[1]
        tracer.patch_function(module, name, f"core.{name.replace('_', '-')}",
                              span=True, around=in_core)
    tracer.patch_function(peeling, "peel_below", "core.peel")
    tracer.patch_function(
        semi_binary, "binary_search_kmax", "core.search", span=True,
        observe=lambda _a, outcome: tracer.count("core.probe.calls", outcome.probes),
    )

    # -- semiexternal -------------------------------------------------- #
    def count_core_scan(_args, _result):
        if core_depth[0]:
            tracer.count("core.support_scans")

    tracer.patch_function(support, "compute_supports", "semiexternal.support",
                          span=True, observe=count_core_scan)
    tracer.patch_function(core_decomp, "semi_external_core_decomposition",
                          "semiexternal.core", span=True)

    # -- structures / storage ----------------------------------------- #
    tracer.patch_public_methods(LinearHeap, "structures.heap")
    tracer.patch_public_methods(LHDH, "structures.heap")
    for name in ("get", "set", "gather", "scatter", "read_slice",
                 "read_slices", "write_slice", "fill"):
        tracer.patch_method(DiskArray, name, "storage.array")
    for name in ("touch_read", "touch_write", "touch_read_batch",
                 "touch_write_batch", "append_write"):
        tracer.patch_method(BlockDevice, name, "storage.device")

    # -- graph --------------------------------------------------------- #
    tracer.patch_method(Graph, "__init__", "graph.csr")
    tracer.patch_method(MutableGraph, "to_graph", "graph.csr", span=True)
    tracer.patch_method(DiskGraph, "__init__", "graph.disk_graph")

    # -- dynamic ------------------------------------------------------- #
    def count_mode(_args, result):
        if result is not None:
            tracer.count(f"dynamic.mode.{result.mode}")

    for name in ("insert", "delete"):
        tracer.patch_method(DynamicMaxTruss, name, "dynamic.update",
                            span=True, observe=count_mode)
    batch = tracer.wrap("dynamic.update", DynamicMaxTruss.apply_batch,
                        span=True, observe=count_mode)

    def apply_batch(state, operations):
        before = (state.k_max, state.truss_pairs())
        result = batch(state, operations)
        if result is not None and result.mode == "global":
            tracer.count("dynamic.batch.global")
            if (state.k_max, state.truss_pairs()) != before:
                tracer.count("dynamic.batch.useful")
        return result

    tracer.replace(DynamicMaxTruss, "apply_batch", apply_batch)
    tracer.patch_method(DynamicMaxTruss, "global_phase", "dynamic.global_phase",
                        span=True)

    submitted = collections.deque()
    submit = tracer.wrap("dynamic.ingest", IngestPipeline.submit_op)

    def submit_op(pipe, op, u, v):
        submitted.append(time.perf_counter())
        return submit(pipe, op, u, v)

    tracer.replace(IngestPipeline, "submit_op", submit_op)

    # -- persistence --------------------------------------------------- #
    for name in ("insert", "delete"):
        tracer.patch_method(DurableMaintenance, name, "persistence.durable",
                            span=True)
    durable_apply = tracer.wrap("persistence.durable", DurableMaintenance.apply,
                                span=True)

    def apply(manager, operations):
        now = time.perf_counter()
        waited = 0.0
        for _ in range(min(len(operations), len(submitted))):
            waited += now - submitted.popleft()
        tracer.count("dynamic.ingest.queue_wait_s", waited)
        tracer.count("dynamic.ingest.waited_ops", len(operations))
        return durable_apply(manager, operations)

    tracer.replace(DurableMaintenance, "apply", apply)

    for name in ("append", "append_group"):
        original = WriteAheadLog.__dict__[name]
        wrapped = tracer.wrap("persistence.wal", original, span=True)

        def log(wal, *args, _wrapped=wrapped, **kwargs):
            fsyncs = wal.fsyncs
            result = _wrapped(wal, *args, **kwargs)
            tracer.count("persistence.wal.fsyncs", wal.fsyncs - fsyncs)
            return result

        tracer.replace(WriteAheadLog, name, log)
    tracer.patch_function(checkpoint, "save_checkpoint", "persistence.checkpoint",
                          span=True)

    # -- serve --------------------------------------------------------- #
    execute = QueryEngine.__dict__["execute"]
    per_op = {op: tracer.wrap(f"serve.execute.{op}", execute, span=True)
              for op in SERVE_OPS}
    fallback = tracer.wrap("serve.execute.other", execute, span=True)

    def serve_execute(engine, request):
        return per_op.get(request.get("op"), fallback)(engine, request)

    tracer.replace(QueryEngine, "execute", serve_execute)
    tracer.patch_method(ResultCache, "get", "serve.cache")
    tracer.patch_method(ResultCache, "put", "serve.cache")
    tracer.patch_method(SnapshotManager, "pin", "serve.snapshot")
    tracer.patch_method(SnapshotManager, "unpin", "serve.snapshot")

    # -- approx -------------------------------------------------------- #
    def note_build(args, _result):
        # The build_charged_io property itself calls build(): read its field.
        tracer.counts["approx.build_charged_io"] = float(args[0]._build_io)

    tracer.patch_method(ApproxEngine, "build", "approx.build", span=True,
                        observe=note_build)
    for name in ("trussness", "edge_support", "membership_likelihood"):
        tracer.patch_method(ApproxEngine, name, "approx.probe")

    # -- applications -------------------------------------------------- #
    tracer.patch_function(community, "truss_community", "applications.community",
                          span=True)

    # -- engine -------------------------------------------------------- #
    def adopt_context(args, _result):
        tracer.use_stats(args[0].stats)

    harvested = weakref.WeakSet()   # close() is idempotent; count once

    def harvest(args, _result):
        context = args[0]
        device = context.device
        if context in harvested or device is None:
            return
        harvested.add(context)
        tracer.count("storage.touched_blocks",
                     sum(device.touch_counts_by_extent().values()))
        tracer.count("storage.read_ios", context.stats.read_ios)
        tracer.count("storage.write_ios", context.stats.write_ios)

    tracer.patch_method(ExecutionContext, "__init__", "engine.context",
                        observe=adopt_context)
    tracer.patch_method(ExecutionContext, "close", "engine.context",
                        observe=harvest)
    device_for = ExecutionContext.__dict__["device_for"]

    def counting_device_for(context, num_vertices):
        device = device_for(context, num_vertices)
        device.enable_touch_counting()
        return device

    tracer.replace(ExecutionContext, "device_for", counting_device_for)


def harvest_open_context(tracer: LayerTracer, context, reads0: int,
                         writes0: int, touches0: int) -> None:
    """Count a still-open context's window I/O (long-lived update state)."""
    tracer.count("storage.read_ios", context.stats.read_ios - reads0)
    tracer.count("storage.write_ios", context.stats.write_ios - writes0)
    tracer.count("storage.touched_blocks",
                 sum(context.device.touch_counts_by_extent().values()) - touches0)


def report(tracer: LayerTracer, extra: Dict[str, float]) -> Dict[str, float]:
    """The per_layer metric values of one traced run.

    *extra* supplies what only the workload knows (client-side transport
    time, CI coverage, error count, overhead ratio).
    """
    totals = tracer.totals()
    counts = dict(tracer.counts)

    def self_s(*keys):
        return sum(totals.get(k, (0, 0.0, 0, 0.0, 0))[1] for k in keys)

    def calls(*keys):
        return sum(totals.get(k, (0, 0.0, 0, 0.0, 0))[0] for k in keys)

    def wall(*keys):
        return sum(totals.get(k, (0, 0.0, 0, 0.0, 0))[3] for k in keys)

    def ratio(num, den):
        return num / den if den else 0.0

    touched = counts.get("storage.touched_blocks", 0)
    reads = counts.get("storage.read_ios", 0)
    values: Dict[str, float] = {
        **{f"core.{m}.wall_s": wall(f"core.{m}") for m in CORE_METHODS},
        "core.peel.self_s": self_s("core.peel"),
        "core.peel.calls": calls("core.peel"),
        "core.probe.calls": counts.get("core.probe.calls", 0),
        "core.support_scans": counts.get("core.support_scans", 0),
        "structures.heap.self_s": self_s("structures.heap"),
        "structures.heap.calls": calls("structures.heap"),
        "semiexternal.support.self_s": self_s("semiexternal.support"),
        "semiexternal.support.calls": calls("semiexternal.support"),
        "semiexternal.core.self_s": self_s("semiexternal.core"),
        "storage.array.self_s": self_s("storage.array"),
        "storage.array.calls": calls("storage.array"),
        "storage.device.self_s": self_s("storage.device"),
        "storage.device.touches": calls("storage.device"),
        "storage.cache.hit_ratio": max(0.0, 1.0 - ratio(reads, touched)) if touched else 0.0,
        "storage.read_ios": reads,
        "storage.write_ios": counts.get("storage.write_ios", 0),
        "graph.csr.self_s": self_s("graph.csr"),
        "graph.csr.calls": calls("graph.csr"),
        "graph.disk_graph.self_s": self_s("graph.disk_graph"),
        "dynamic.update.self_s": self_s("dynamic.update"),
        "dynamic.mode.untouched": counts.get("dynamic.mode.untouched", 0),
        "dynamic.mode.local": counts.get("dynamic.mode.local", 0),
        "dynamic.mode.global": counts.get("dynamic.mode.global", 0),
        "dynamic.global_phase.self_s": self_s("dynamic.global_phase"),
        "dynamic.batch.global_ratio": ratio(counts.get("dynamic.batch.useful", 0),
                                            counts.get("dynamic.batch.global", 0)),
        "dynamic.ingest.queue_wait_s": ratio(counts.get("dynamic.ingest.queue_wait_s", 0),
                                             counts.get("dynamic.ingest.waited_ops", 0)),
        "persistence.wal.self_s": self_s("persistence.wal"),
        "persistence.wal.fsyncs": counts.get("persistence.wal.fsyncs", 0),
        "persistence.wal.bytes": counts.get("persistence.wal.bytes", 0),
        "persistence.checkpoint.self_s": self_s("persistence.checkpoint"),
        **{f"serve.execute.self_s.{op}": self_s(f"serve.execute.{op}")
           for op in SERVE_OPS},
        "serve.cache.hit_ratio": extra.get("serve.cache.hit_ratio", 0.0),
        "serve.transport_ms": extra.get("serve.transport_ms", 0.0),
        "serve.errors": extra.get("serve.errors", 0),
        "approx.build_s": wall("approx.build"),
        "approx.probe.self_s": self_s("approx.probe"),
        "approx.build_charged_io": counts.get("approx.build_charged_io", 0),
        "approx.ci_coverage": extra.get("approx.ci_coverage", 0.0),
        "applications.community.self_s": self_s("applications.community"),
        "engine.context.self_s": self_s("engine.context"),
        "engine.context.calls": calls("engine.context"),
        "engine.peak_model_bytes": extra.get("engine.peak_model_bytes", 0),
    }
    for layer in LAYERS:
        values[f"{layer}.charged_ios"] = sum(
            rec[4] for key, rec in totals.items() if key.split(".")[0] == layer)
    check = layer_sum_check(tracer.request_records())
    values["trace.overhead_ratio"] = extra.get("trace.overhead_ratio", 0.0)
    values["trace.layer_sum_within_tol"] = check["within"]
    values["trace.layer_sum_median_gap"] = check["median_gap"]
    values["trace.requests"] = len(tracer.request_records())
    return values
