"""The four benchmark workloads.

Each workload function takes ``(seed, seconds, trace, workdir)`` and
returns a :class:`Outcome`. Inputs are built from the seed before any
timing starts; the program under test only ever sees the generated
graph and operation streams. See ``README.md`` for what each workload
measures and why.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import ExecutionContext, max_truss
from repro.baselines.inmemory import truss_decomposition
from repro.dynamic.ingest import IngestPipeline
from repro.dynamic.workload import mixed_churn
from repro.engine import EngineConfig
from repro.graph import generators
from repro.graph.datasets import get_spec
from repro.graph.memgraph import Graph
from repro.observability.metrics import global_metrics
from repro.persistence.graph_file import write_rgr
from repro.persistence.recovery import durable_from_graph, recover

import layers
from hostspeed import HostSpeed
from layertrace import LayerTracer

HERE = os.path.dirname(os.path.abspath(__file__))
_clock = time.perf_counter
#: CPU time of the calling thread: what static and update operations are
#: timed with (see ``README.md``, "Timing").
_cpu = time.thread_time

#: Work per measured second. Workloads size their input from these and
#: ``--seconds`` so the amount of work (and every exact count) depends on
#: the arguments only, never on how fast the machine is.
TRICKLE_UPDATES_PER_S = 1500
BURST_UPDATES_PER_S = 55
SERVE_QUERIES_PER_S = 150
#: One static pass takes about 20 s on the reference machine.
STATIC_PASS_S = 20.0

#: Generator seed of every dataset stand-in. The stand-ins are fixed data
#: sets, as the paper's graphs are; ``--seed`` drives the update streams,
#: the query lists and the warm-up graph. Building the graphs from
#: ``--seed`` too made the static bill alone vary from 0.81 M to 1.27 M
#: I/Os across seeds, which would hide any change smaller than that.
DATASET_SEED = 0

SETUP_REPEATS = 5
SERVE_SETUP_REPEATS = 5
CLASS_DELETE_EVERY = 100
#: Timed updates per episode of fresh durable state (see ``update``).
EPISODE_UPDATES = 4000
WARMUP_UPDATES = 128
BURST_WARMUP_UPDATES = 64
WARMUP_QUERIES = 200
ZIPF_S = 1.1

#: Query mix of serve-mixed (shares sum to 1).
SERVE_MIX = (("membership", 0.50), ("trussness", 0.20), ("approx", 0.10),
             ("community", 0.15), ("stats", 0.05))


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: Dict[str, float]
    correct: bool = True
    notes: List[str] = field(default_factory=list)
    #: Counts that must repeat exactly for a seed (the benchmark's tests).
    exact: Dict[str, float] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.correct = False
        self.notes.append(message)


# ---------------------------------------------------------------------- #
# helpers
# ---------------------------------------------------------------------- #

def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return float(ordered[rank - 1])


def own_peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_metrics(latencies_s, window_s: float) -> Dict[str, float]:
    return {
        "ops_per_s": len(latencies_s) / window_s,
        "op_ms_p50": statistics.median(latencies_s) * 1000.0,
        "op_ms_p99": percentile(latencies_s, 99) * 1000.0,
    }


def load_input(edges: np.ndarray, n: int) -> Graph:
    """Hand the generated edge array to the program (its CSR build)."""
    return Graph.from_edges(edges, n=n)


# ---------------------------------------------------------------------- #
# static-spill
# ---------------------------------------------------------------------- #

STATIC_DATASET = "kron29-s"


@dataclass
class _StaticRun:
    """One ``max_truss`` call of a pass: its CPU time, the wall-clock
    interval it ran over, its bill, and whether it matched the oracle."""
    method: str
    cpu_s: float
    start: float
    end: float
    bill: int
    peak_model: int
    ok: bool


def _static_pass(graph: Graph, expected, cpu=_cpu, tracer: Optional[LayerTracer] = None):
    """One pass of the three semi-external methods, fresh context each,
    timed with the CPU clock *cpu*."""
    rows = []
    for method in layers.CORE_METHODS:
        context = ExecutionContext()
        run = lambda: max_truss(graph, method=method, context=context)  # noqa: E731
        t0, c0 = _clock(), cpu()
        result = run() if tracer is None else tracer.request(method, run)
        c1, t1 = cpu(), _clock()
        bill = context.stats.total_ios
        context.close()
        ok = (result.k_max, sorted(result.truss_edges)) == expected
        rows.append(_StaticRun(method, c1 - c0, t0, t1, bill, result.peak_memory_bytes, ok))
    return rows


def static_spill(seed: int, seconds: int, trace: bool, workdir: str) -> Outcome:
    generated = get_spec(STATIC_DATASET).build(DATASET_SEED)
    edges, n = generated.edges.copy(), generated.n
    speed = HostSpeed()
    setups = []
    with speed.profiling():
        for _ in range(SETUP_REPEATS):
            graph, setup = speed.timed(lambda: load_input(edges, n))
            setups.append(setup)
        expected = _expected_of(graph)
        # Warm-up: every code path of the pass, on a small graph of the same
        # family, so the timed pass does not pay first-call costs.
        warmup = generators.kronecker(8, 10, seed=seed)
        _static_pass(warmup, _expected_of(warmup))

        passes = max(1, round(seconds / STATIC_PASS_S))
        rows = []
        for _ in range(passes):
            rows.extend(_static_pass(graph, expected, speed.cpu))
    out = _static_outcome(rows, setups, speed)
    if trace:
        out.metrics = _static_traced(graph, expected, rows, out, workdir, seed)
    return out


def _expected_of(graph: Graph):
    """The in-memory oracle's ``(k_max, sorted truss edges)``."""
    result = max_truss(graph, method="in-memory")
    return result.k_max, sorted(result.truss_edges)


def _static_outcome(rows: List[_StaticRun], setups, speed: HostSpeed) -> Outcome:
    failed = sum(1 for row in rows if not row.ok)
    out = Outcome(attempted=len(rows), failed=failed, metrics={})
    if failed:
        out.fail(f"{failed} static runs disagree with the in-memory oracle")
    methods = len(layers.CORE_METHODS)
    per_pass_bills = [{row.bill for row in rows[i::methods]} for i in range(methods)]
    if any(len(bills) > 1 for bills in per_pass_bills):
        out.fail("charged I/O differs between passes of one method")
    # One operation is one pass of the three methods: single method runs
    # are too few and too short to time steadily.
    calibrated = speed.calibrate([row.cpu_s for row in rows], [row.start for row in rows],
                                 [row.end for row in rows])
    times = [float(calibrated[i:i + methods].sum()) for i in range(0, len(rows), methods)]
    out.metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": own_peak_rss_mb(),
        **latency_metrics(times, sum(times)),
        "op_charged_ios": sum(row.bill for row in rows) / len(times),
    }
    out.exact = {
        "op_charged_ios": out.metrics["op_charged_ios"],
        "peak_model_bytes": max(row.peak_model for row in rows),
    }
    return out


def _static_traced(graph, expected, rows, out: Outcome, workdir: str, seed: int):
    untraced_s = sum(row.cpu_s for row in rows[:len(layers.CORE_METHODS)])
    tracer = LayerTracer()
    layers.install(tracer)
    try:
        traced_rows = _static_pass(graph, expected, tracer=tracer)
    finally:
        tracer.uninstall()
    if [row.bill for row in traced_rows] != [row.bill for row in rows[:len(traced_rows)]]:
        out.fail("traced pass charged a different I/O bill")
    if not all(row.ok for row in traced_rows):
        out.fail("traced pass disagrees with the oracle")
    tracer.write_spans(os.path.join(os.path.dirname(workdir), f"spans-static-spill-{seed}.jsonl"))
    traced_s = sum(row.cpu_s for row in traced_rows)
    return layers.report(tracer, {
        "trace.overhead_ratio": traced_s / untraced_s,
        "engine.peak_model_bytes": max(row.peak_model for row in traced_rows),
    })


# ---------------------------------------------------------------------- #
# update-trickle / update-burst
# ---------------------------------------------------------------------- #

UPDATE_DATASET = "youtube-s"


def update_stream(graph: Graph, count: int, seed: int,
                  initial_class: List[Tuple[int, int]]) -> List[Tuple[str, int, int]]:
    """A seeded ``mixed_churn`` stream plus one deletion in every
    ``CLASS_DELETE_EVERY`` drawn from the k_max class.

    The class is *initial_class* (the graph's) at the start, recomputed
    whenever every edge of the current list has been deleted; churn
    deletions of an edge the class deletions already removed are dropped.
    """
    rng = np.random.default_rng(seed + 7919)
    churn = mixed_churn(graph, count, seed=seed)
    live = graph.to_mutable()
    class_edges = list(initial_class)
    rng.shuffle(class_edges)
    ops: List[Tuple[str, int, int]] = []
    for op, u, v in churn:
        if len(ops) >= count:
            break
        if len(ops) % CLASS_DELETE_EVERY == CLASS_DELETE_EVERY - 1:
            class_edges = [e for e in class_edges if live.has_edge(*e)]
            if not class_edges:
                class_edges = _kmax_class(live)
                rng.shuffle(class_edges)
            if class_edges:
                a, b = class_edges.pop()
                live.delete_edge(a, b)
                ops.append(("delete", a, b))
        if op == "delete":
            if not live.has_edge(u, v):
                continue
            live.delete_edge(u, v)
        else:
            if live.has_edge(u, v):
                continue
            live.insert_edge(u, v)
        ops.append((op, u, v))
    return ops[:count]


def _kmax_class(live) -> List[Tuple[int, int]]:
    frozen, _ = live.to_graph()
    if frozen.m == 0:
        return []
    tau = truss_decomposition(frozen)
    return [(int(a), int(b)) for a, b in frozen.edges[tau == tau.max()]]


def _final_graph(edges: np.ndarray, n: int, ops) -> Graph:
    live = load_input(edges, n).to_mutable()
    for op, u, v in ops:
        if op == "insert":
            live.insert_edge(u, v)
        else:
            live.delete_edge(u, v)
    return live.to_graph()[0]


def _durable_setup(edges, n, workdir: str, tag: str, burst: bool,
                   speed: Optional[HostSpeed]):
    """Load the input and build durable state plus its first checkpoint;
    with *speed* (profiling), also return the calibrated CPU time it took.

    update-trickle writes one WAL record per update without fsyncing it:
    on shared virtual disks the fsync tail swings by an order of magnitude
    between runs minutes apart, which no bound on the per-edge path could
    hold. update-burst fsyncs every group commit (one per 64 updates).
    """
    directory = os.path.join(workdir, tag)
    shutil.rmtree(directory, ignore_errors=True)
    context = ExecutionContext(EngineConfig())
    build = lambda: durable_from_graph(load_input(edges, n), directory,  # noqa: E731
                                       context=context, sync=burst)
    if speed is None:
        return build(), context, directory, 0.0
    manager, setup = speed.timed(build)
    return manager, context, directory, setup


@dataclass
class _Episode:
    """One stream on fresh durable state; the timed part follows a warm-up.
    ``latencies`` and ``busy`` (the time the updates kept the program busy)
    are CPU times, calibrated when the episode ran under profiling."""
    latencies: np.ndarray
    busy: float
    raw_busy: float
    failures: int
    bill: int
    peak_model: int
    final: Tuple[int, list]
    directory: str


def _episode(edges, n, stream, warm: int, workdir: str, tag: str, burst: bool,
             speed: Optional[HostSpeed], tracer: Optional[LayerTracer] = None):
    """Run one episode; *speed* is the ``HostSpeed`` profiling it, if any."""
    manager, context, directory, setup = _durable_setup(edges, n, workdir, tag, burst,
                                                        speed)
    run = _run_burst if burst else _run_trickle
    cpu = _cpu if speed is None else speed.cpu
    window = None
    try:
        run(manager, stream[:warm], cpu)
        if tracer is not None:
            window = _start_update_trace(tracer, context)
        ios0 = context.stats.total_ios
        try:
            timings, segments, failures = run(manager, stream[warm:], cpu, tracer)
        finally:
            if tracer is not None:
                _stop_update_trace(tracer, context, window)
        bill = context.stats.total_ios - ios0
        if speed is None:
            latencies, busy = np.asarray(timings[0]), float(sum(segments[0]))
        else:
            latencies = speed.calibrate(*timings)
            busy = float(speed.calibrate(*segments).sum())
        episode = _Episode(latencies, busy, float(sum(segments[0])), failures, bill,
                           context.memory.peak_bytes,
                           (manager.state.k_max, manager.state.truss_pairs()), directory)
    finally:
        manager.close()
        context.close()
    return episode, setup


def update(seed: int, seconds: int, trace: bool, workdir: str, burst: bool) -> Outcome:
    """update-trickle / update-burst: episodes of at most EPISODE_UPDATES
    timed updates, each on fresh durable state built from the input.

    A ``mixed_churn`` stream replaces the graph's edges as it runs (half
    its operations delete a random live edge), so one long stream would
    drift away from the youtube-s structure; fresh episodes keep every
    measured update on the same kind of graph.
    """
    generated = get_spec(UPDATE_DATASET).build(DATASET_SEED)
    edges, n = generated.edges.copy(), generated.n
    total = (BURST_UPDATES_PER_S if burst else TRICKLE_UPDATES_PER_S) * seconds
    warm = BURST_WARMUP_UPDATES if burst else WARMUP_UPDATES
    sizes = [min(EPISODE_UPDATES, total - start)
             for start in range(0, total, EPISODE_UPDATES)]
    initial_class = _kmax_class(generated.to_mutable())
    streams = [update_stream(generated, warm + size, seed * 1000 + i, initial_class)
               for i, size in enumerate(sizes)]

    out = Outcome(attempted=0, failed=0, metrics={})
    speed = HostSpeed()
    setups, latencies, busy, raw_busy, bill, peaks = [], [], 0.0, 0.0, 0, []
    with speed.profiling():
        for i, stream in enumerate(streams):
            episode, setup = _episode(edges, n, stream, warm, workdir, f"episode-{i}",
                                      burst, speed)
            setups.append(setup)
            latencies.append(episode.latencies)
            busy += episode.busy
            raw_busy += episode.raw_busy
            bill += episode.bill
            peaks.append(episode.peak_model)
            out.attempted += len(stream) - warm
            out.failed += episode.failures
            _check_update_oracle(out, edges, n, stream, episode,
                                 check_recovery=i == len(streams) - 1)
            shutil.rmtree(episode.directory)
        while len(setups) < SETUP_REPEATS:
            manager, context, _directory, setup = _durable_setup(edges, n, workdir,
                                                                 "setup", burst, speed)
            manager.close()
            context.close()
            setups.append(setup)
    latencies = np.concatenate(latencies)
    out.metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": own_peak_rss_mb(),
        **latency_metrics(latencies, busy),
        "op_charged_ios": bill / len(latencies),
    }
    out.exact = {"op_charged_ios": out.metrics["op_charged_ios"],
                 "peak_model_bytes": max(peaks)}
    if trace:
        out.metrics = _update_traced(edges, n, streams, warm, workdir, seed, burst,
                                     raw_busy, bill, out)
    return out


def _run_trickle(manager, ops, clock, tracer: Optional[LayerTracer] = None):
    """Per-op durable updates: one WAL record each, logged before applying.
    Each update is timed with the CPU clock *clock*; returns ``(timings,
    segments, failures)`` with ``(cpu_s, starts, ends)`` lists of the
    updates as both (the segments are the busy time)."""
    cpu, starts, ends = [], [], []
    failures = 0
    for i, (op, u, v) in enumerate(ops):
        call = manager.insert if op == "insert" else manager.delete
        t0, c0 = _clock(), clock()
        try:
            if tracer is None:
                call(u, v)
            else:
                tracer.request(i, call, u, v)
        except Exception:  # noqa: BLE001 - a failed update is counted, not fatal
            failures += 1
        c1, t1 = clock(), _clock()
        cpu.append(c1 - c0)
        starts.append(t0)
        ends.append(t1)
    return (cpu, starts, ends), (cpu, starts, ends), failures


def _run_burst(manager, ops, clock, tracer: Optional[LayerTracer] = None):
    """Batched durable updates: a synchronous ``IngestPipeline`` drains a
    batch into one group commit whenever it fills. An update counts as
    acknowledged when the batch holding it has landed; its latency is the
    CPU time (*clock*) from its submission to that acknowledgement. The
    segments (busy time) run from a batch's first submission to its
    acknowledgement."""
    pipe = IngestPipeline.from_config(manager, EngineConfig())
    cpu, starts, ends = [], [], []
    batches_cpu, batches_start, batches_end = [], [], []
    pending: List[Tuple[float, float]] = []
    failures = 0

    def acknowledge():
        c1, t1 = clock(), _clock()
        if pending:
            batches_cpu.append(c1 - pending[0][1])
            batches_start.append(pending[0][0])
            batches_end.append(t1)
        cpu.extend(c1 - c0 for _t0, c0 in pending)
        starts.extend(t0 for t0, _c0 in pending)
        ends.extend([t1] * len(pending))
        pending.clear()

    try:
        for i, (op, u, v) in enumerate(ops):
            batches = pipe.stats.batches
            pending.append((_clock(), clock()))
            try:
                if tracer is None:
                    pipe.submit_op(op, u, v)
                else:
                    tracer.request(i, pipe.submit_op, op, u, v)
            except Exception:  # noqa: BLE001 - counted, the stream goes on
                failures += 1
            if pipe.stats.batches != batches:
                acknowledge()
        if tracer is None:
            pipe.flush()
        else:
            tracer.request(len(ops), pipe.flush)
        acknowledge()
    finally:
        pipe.close()
    return (cpu, starts, ends), (batches_cpu, batches_start, batches_end), failures


def _check_update_oracle(out: Outcome, edges, n, stream, episode: _Episode,
                         check_recovery: bool) -> None:
    """The live class, and with *check_recovery* a recovery of the WAL
    directory, must equal a from-scratch ``max_truss`` of the episode's
    final graph. (Recovery replays the whole episode through one global
    recompute, so the run checks it on its last episode only.)"""
    expected = _expected_of(_final_graph(edges, n, stream))
    if episode.final != expected:
        out.failed += 1
        out.fail("live k_max class differs from a from-scratch max_truss")
    if not check_recovery:
        return
    context = ExecutionContext()
    try:
        recovered = recover(episode.directory, context=context)
        got = (recovered.state.k_max, recovered.state.truss_pairs())
        recovered.close()
    finally:
        context.close()
    if got != expected:
        out.failed += 1
        out.fail("recover() of the WAL directory differs from the oracle")


def _start_update_trace(tracer: LayerTracer, context):
    layers.install(tracer)
    context.device.enable_touch_counting()
    tracer.use_stats(context.stats)
    return (context.stats.read_ios, context.stats.write_ios,
            sum(context.device.touch_counts_by_extent().values()),
            global_metrics().counter("wal.bytes_appended").value)


def _stop_update_trace(tracer: LayerTracer, context, window) -> None:
    tracer.uninstall()
    reads0, writes0, touches0, bytes0 = window
    layers.harvest_open_context(tracer, context, reads0, writes0, touches0)
    tracer.count("persistence.wal.bytes",
                 global_metrics().counter("wal.bytes_appended").value - bytes0)


def _update_traced(edges, n, streams, warm, workdir, seed, burst,
                   untraced_busy, untraced_bill, out: Outcome):
    """Rerun every episode traced: per-layer metrics, tracing overhead,
    and a check that tracing charged exactly the untraced bill."""
    tracer = LayerTracer()
    busy, bill, peaks = 0.0, 0, []
    for i, stream in enumerate(streams):
        episode, _setup = _episode(edges, n, stream, warm, workdir, f"traced-{i}",
                                   burst, None, tracer)
        busy += episode.busy
        bill += episode.bill
        peaks.append(episode.peak_model)
        shutil.rmtree(episode.directory)
    if bill != untraced_bill:
        out.fail(f"traced run charged {bill} I/Os, untraced {untraced_bill}")
    tag = "burst" if burst else "trickle"
    tracer.write_spans(os.path.join(os.path.dirname(workdir),
                                    f"spans-update-{tag}-{seed}.jsonl"))
    return layers.report(tracer, {
        "trace.overhead_ratio": busy / untraced_busy,
        "engine.peak_model_bytes": max(peaks),
    })


# ---------------------------------------------------------------------- #
# serve-mixed
# ---------------------------------------------------------------------- #

SERVE_DATASET = "twitter-s"


def _quota(shares: np.ndarray, size: int) -> np.ndarray:
    """Split *size* draws in proportion to *shares* (largest remainder)."""
    exact = shares / shares.sum() * size
    counts = np.floor(exact).astype(np.int64)
    counts[np.argsort(counts - exact)[:size - counts.sum()]] += 1
    return counts


def _zipf_keys(rng, population: int, size: int) -> np.ndarray:
    """Zipf-skewed keys over a seeded permutation of ``range(population)``.

    Rank ``r`` appears its Zipf share of *size* times (rounded), not a
    sampled number of times: the seed picks which key holds each rank, so
    the count of distinct keys, and with it the result cache's miss count,
    is the same for every seed.
    """
    weights = 1.0 / np.arange(1, population + 1, dtype=np.float64) ** ZIPF_S
    ranks = np.repeat(np.arange(population), _quota(weights, size))
    return rng.permutation(population)[ranks]


def serve_queries(graph: Graph, k_max: int, count: int, rng) -> List[dict]:
    """A seeded, shuffled query list in the ``SERVE_MIX`` proportions."""
    counts = _quota(np.array([share for _, share in SERVE_MIX]), count)
    levels = [3, max(3, (k_max + 3) // 2), k_max]
    queries = []
    for (kind, _share), size in zip(SERVE_MIX, counts):
        if kind == "community":
            queries += [{"op": "community", "q": int(q)}
                        for q in _zipf_keys(rng, graph.n, size)]
            continue
        if kind == "stats":
            queries += [{"op": "stats"}] * size
            continue
        for eid in _zipf_keys(rng, graph.m, size):
            u, v = (int(x) for x in graph.edges[eid])
            if kind == "membership":
                queries.append({"op": "membership", "u": u, "v": v,
                                "k": levels[int(rng.integers(len(levels)))]})
            elif kind == "trussness":
                queries.append({"op": "trussness", "u": u, "v": v})
            else:
                queries.append({"op": "trussness", "u": u, "v": v,
                                "precision": "approx"})
    return [queries[i] for i in rng.permutation(len(queries))]


class ServeOracle:
    """Exact answers for the served graph from an in-memory decomposition."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.tau = truss_decomposition(graph)
        self.k_max = int(self.tau.max())
        self.index = {(int(a), int(b)): i for i, (a, b) in enumerate(graph.edges)}
        self._levels: Dict[int, np.ndarray] = {}
        self._communities: Dict[int, dict] = {}

    def trussness(self, u: int, v: int) -> Optional[int]:
        eid = self.index.get((min(u, v), max(u, v)))
        return None if eid is None else int(self.tau[eid])

    def _components(self, k: int) -> np.ndarray:
        """Vertex component labels of the ``tau >= k`` edge subgraph."""
        if k not in self._levels:
            parent = np.arange(self.graph.n)

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for a, b in self.graph.edges[self.tau >= k]:
                ra, rb = find(int(a)), find(int(b))
                if ra != rb:
                    parent[ra] = rb
            self._levels[k] = np.array([find(x) for x in range(self.graph.n)])
        return self._levels[k]

    def community(self, q: int) -> dict:
        """Maximum-trussness vertex-connected community of ``q``."""
        if q not in self._communities:
            eids = self.graph.neighbor_eids(q)
            if len(eids) == 0:
                self._communities[q] = {"found": False}
            else:
                k = int(self.tau[eids].max())
                labels = self._components(k)
                members = np.nonzero(labels == labels[q])[0]
                inside = self.tau >= k
                ends = self.graph.edges
                edge_count = int(np.count_nonzero(
                    inside & (labels[ends[:, 0]] == labels[q])))
                self._communities[q] = {
                    "found": True, "k": k, "size": int(len(members)),
                    "edge_count": edge_count,
                    "vertices": [int(x) for x in members],
                }
        return self._communities[q]

    def check(self, query: dict, envelope: dict) -> Tuple[bool, Optional[bool]]:
        """``(correct, ci_covers)``; ``ci_covers`` is set for approx answers."""
        if not envelope.get("ok"):
            return False, None
        result = envelope["result"]
        op = query["op"]
        if op == "stats":
            return (result["n"], result["m"], result["k_max"]) == (
                self.graph.n, self.graph.m, self.k_max), None
        if op == "community":
            return result == self.community(query["q"]), None
        tau = self.trussness(query["u"], query["v"])
        if query.get("precision") == "approx":
            low, high = result["ci"]
            return result["present"] is True, low <= tau <= high
        if op == "trussness":
            return result == {"present": True, "trussness": tau}, None
        return (result["trussness"] == tau
                and result["member"] == (tau >= query["k"])), None


class ServerProcess:
    """The query service in its own process (``serve_entry.py``)."""

    def __init__(self, graph_path: str, trace: bool, report_path: str,
                 spans_path: str = "") -> None:
        self.report_path = report_path
        # A file, not a pipe: nobody reads stderr while the server runs.
        self.stderr = open(report_path + ".stderr", "w+", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve_entry.py"),
             "--graph", graph_path, "--trace", str(int(trace)),
             "--report", report_path, "--spans", spans_path],
            stdout=subprocess.PIPE, stderr=self.stderr, text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 4 or line[0] != "LISTENING":
            self.proc.kill()
            self.proc.communicate()
            self.stderr.seek(0)
            message = self.stderr.read()
            self.stderr.close()
            raise RuntimeError(f"server failed to start: {message}")
        self.host, self.port = line[1], int(line[2])
        #: Calibrated CPU time the server took to start listening.
        self.setup_s = float(line[3])

    def stop(self) -> dict:
        """Ask for a graceful drain, wait for exit, return its report."""
        from repro.serve.client import TrussClient

        if self.proc.poll() is None:
            try:
                with TrussClient(self.host, self.port, timeout=30) as client:
                    client.shutdown()
            except OSError:
                self.proc.terminate()
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self.stderr.close()
        if self.proc.returncode != 0 or not os.path.exists(self.report_path):
            return {}
        with open(self.report_path, encoding="utf-8") as handle:
            return json.load(handle)


def _drive(server: ServerProcess, queries: List[dict]):
    """Closed loop on one connection: the next request goes out after the
    reply. Rows are ``(query, envelope, latency_s, start, end)``."""
    from repro.serve.client import TrussClient

    rows = []
    with TrussClient(server.host, server.port, timeout=60) as client:
        for i, query in enumerate(queries):
            t0 = _clock()
            try:
                envelope = client.request_raw({**query, "id": str(i)})
            except Exception as exc:  # noqa: BLE001 - counted as failure
                envelope = {"ok": False, "error": repr(exc)}
            t1 = _clock()
            rows.append((query, envelope, t1 - t0, t0, t1))
    return rows


def serve_mixed(seed: int, seconds: int, trace: bool, workdir: str) -> Outcome:
    generated = get_spec(SERVE_DATASET).build(DATASET_SEED)
    graph_path = os.path.join(workdir, "served.rgr")
    write_rgr(generated, graph_path)
    oracle = ServeOracle(generated)
    rng = np.random.default_rng(seed)
    queries = serve_queries(generated, oracle.k_max, SERVE_QUERIES_PER_S * seconds, rng)
    warmup = [{"op": "stats", "precision": "approx"}] + serve_queries(
        generated, oracle.k_max, WARMUP_QUERIES, rng)

    report_path = os.path.join(workdir, "server-report.json")
    setups = []
    repeats = 1 if trace else SERVE_SETUP_REPEATS
    for i in range(repeats):
        server = ServerProcess(graph_path, False, report_path)
        setups.append(server.setup_s)
        if i < repeats - 1:
            server.stop()
    try:
        _drive(server, warmup)
        rows = _drive(server, queries)
    finally:
        report = server.stop()
    out = _serve_outcome(rows, oracle)
    latencies = _calibrated_latencies(rows)
    out.metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": report.get("peak_rss_mb", 0.0),
        **latency_metrics(latencies, sum(latencies)),
        "op_charged_ios": _mean_read_ios(rows),
    }
    if not report:
        out.fail("server did not exit cleanly")
    out.exact = {"op_charged_ios": out.metrics["op_charged_ios"]}
    if trace:
        out.metrics = _serve_traced(graph_path, workdir, seed, warmup,
                                    queries, rows, oracle, out)
    return out


def _net_latencies(rows) -> List[float]:
    """Client-side latencies less the kernel run that untraced replies add."""
    return [elapsed - envelope.get("host_speed", {}).get("wall_s", 0.0)
            for _query, envelope, elapsed, _t0, _t1 in rows]


def _calibrated_latencies(rows):
    """Net latencies calibrated by the ``host_speed`` samples the replies
    carry (uncalibrated when none do)."""
    speed = HostSpeed()
    for _query, envelope, *_times in rows:
        if "host_speed" in envelope:
            speed.record(envelope["host_speed"])
    if not speed.at:
        return np.asarray(_net_latencies(rows))
    return speed.calibrate(_net_latencies(rows), [row[3] for row in rows],
                           [row[4] for row in rows])


def _mean_read_ios(rows) -> float:
    ios = [env["io"]["read_ios"] for _q, env, *_times in rows if env.get("ok")]
    return sum(ios) / len(ios) if ios else 0.0


def _serve_outcome(rows, oracle: ServeOracle) -> Outcome:
    failed = 0
    for query, envelope, *_times in rows:
        ok, _covers = oracle.check(query, envelope)
        failed += not ok
    out = Outcome(attempted=len(rows), failed=failed, metrics={})
    if failed:
        out.fail(f"{failed} queries failed or disagree with the oracle")
    return out


def _serve_traced(graph_path, workdir, seed, warmup, queries, untraced_rows, oracle,
                  out: Outcome):
    report_path = os.path.join(workdir, "server-report-traced.json")
    spans = os.path.join(os.path.dirname(workdir), f"spans-serve-mixed-{seed}.jsonl")
    server = ServerProcess(graph_path, True, report_path, spans)
    try:
        _drive(server, warmup)
        rows = _drive(server, queries)
    finally:
        report = server.stop()
    if not report:
        out.fail("traced server did not exit cleanly")
        return {name: 0.0 for name in layers.PER_LAYER_UNITS}
    if sum(env["io"]["read_ios"] for _q, env, *_times in rows if env.get("ok")) != sum(
            env["io"]["read_ios"] for _q, env, *_times in untraced_rows if env.get("ok")):
        out.fail("traced serve run charged a different read bill")
    covered = []
    transport = []
    errors = 0
    for query, envelope, elapsed, _t0, _t1 in rows:
        ok, covers = oracle.check(query, envelope)
        errors += not ok
        if covers is not None:
            covered.append(covers)
        if "trace_exec_ms" in envelope:
            transport.append(elapsed * 1000.0 - envelope["trace_exec_ms"])
    metrics = report["layers"]
    metrics["serve.transport_ms"] = statistics.median(transport) if transport else 0.0
    metrics["serve.errors"] = errors
    metrics["approx.ci_coverage"] = sum(covered) / len(covered) if covered else 0.0
    metrics["trace.overhead_ratio"] = (sum(_net_latencies(rows))
                                       / sum(_net_latencies(untraced_rows)))
    return metrics
