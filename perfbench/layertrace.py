"""Per-layer tracing installed from outside the program.

The benchmark measures the ``repro`` layers without editing them: it
replaces their public functions and methods with thin wrappers for the
length of a traced run and puts the originals back afterwards.

Every wrapped call is one frame on a per-thread stack. When a frame
ends, its wall time minus the time of the frames nested in it is added
to its key's *self time*, and the same subtraction turns the charged
I/O counted during the frame into *self I/O*. Summed over all keys, the
self times of the frames inside a request therefore add up to the time
the request spent inside the program.

Per-element calls (heap, ``DiskArray``, device touches: millions per
pass) only feed these aggregated counters. Coarse calls (algorithm
runs, support scans, WAL appends, queries, ...) also record an
in-memory span ``(name, start, end, parent, request id)`` that
:meth:`LayerTracer.write_spans` writes out when the run ends.

Charged I/O is read from the ``IOStats`` of the ``ExecutionContext``
most recently built on the calling thread: the benchmark builds one
context per run and the serve layer builds one per request, so the
thread's newest context is the one being charged.
"""

from __future__ import annotations

import inspect
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class _ThreadState:
    __slots__ = ("stack", "depth", "agg", "spans", "span_stack", "stats",
                 "io_base", "request", "requests")

    def __init__(self) -> None:
        self.stack: List[list] = []          # [child_s, child_io] per frame
        self.depth: Dict[str, int] = {}      # layer -> open frames
        #: key -> [calls, self_s, self_io, wall_s, layer_io]; layer_io sums
        #: the I/O of frames with no frame of their own layer open below.
        self.agg: Dict[str, list] = {}
        self.spans: List[tuple] = []
        self.span_stack: List[int] = []
        self.stats = None                    # IOStats of the newest context
        self.io_base = 0                     # I/O of contexts replaced since
        self.request: Any = None
        self.requests: List[Tuple[Any, float, float]] = []  # id, span, layers


class LayerTracer:
    """Aggregated per-key counters plus coarse spans, per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        self.origin = _clock()
        #: Hook results collected by wrappers with an ``observe`` callback.
        self.counts: Dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # thread state
    # ------------------------------------------------------------------ #

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def io_now(self, state: _ThreadState) -> int:
        stats = state.stats
        if stats is None:
            return state.io_base
        return state.io_base + stats.read_ios + stats.write_ios

    def use_stats(self, stats) -> None:
        """Charge this thread's later I/O reads to *stats*."""
        state = self.state()
        if state.stats is not None and state.stats is not stats:
            state.io_base += state.stats.read_ios + state.stats.write_ios
        state.stats = stats

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    # ------------------------------------------------------------------ #
    # wrapping
    # ------------------------------------------------------------------ #

    def wrap(self, key: str, fn: Callable, span: bool = False,
             observe: Optional[Callable] = None) -> Callable:
        """A wrapper of *fn* that accounts its frames under *key*.

        *observe(args, result)* runs after the call, outside the timed
        frame, for wrappers that read counts off the call's result.
        """
        tracer = self
        local = self._local
        io_now = self.io_now
        layer = key.split(".")[0]

        def wrapper(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = tracer.state()
            stack = state.stack
            io0 = io_now(state)
            depth = state.depth
            outermost = not depth.get(layer)
            depth[layer] = depth.get(layer, 0) + 1
            frame = [0.0, 0]
            stack.append(frame)
            if span:
                index = len(state.spans)
                parent = state.span_stack[-1] if state.span_stack else -1
                state.spans.append(None)
                state.span_stack.append(index)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                depth[layer] -= 1
                elapsed = t1 - t0
                dio = io_now(state) - io0
                rec = state.agg.get(key)
                if rec is None:
                    rec = state.agg[key] = [0, 0.0, 0, 0.0, 0]
                rec[0] += 1
                rec[1] += elapsed - frame[0]
                rec[2] += dio - frame[1]
                rec[3] += elapsed
                if outermost:
                    rec[4] += dio
                if stack:
                    outer = stack[-1]
                    outer[0] += elapsed
                    outer[1] += dio
                if span:
                    state.span_stack.pop()
                    state.spans[index] = (
                        key, t0 - tracer.origin, t1 - tracer.origin,
                        parent, state.request,
                    )
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def patch_function(self, module, name: str, key: str, span: bool = False,
                       observe: Optional[Callable] = None,
                       around: Optional[Callable] = None) -> None:
        """Wrap ``module.name`` and every ``repro`` module that imported it.

        *around*, when given, wraps the traced wrapper once more.
        """
        original = getattr(module, name)
        wrapped = self.wrap(key, original, span=span, observe=observe)
        if around is not None:
            wrapped = around(wrapped)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            if mod.__dict__.get(name) is original:
                self._patches.append((mod, name, original))
                setattr(mod, name, wrapped)

    def patch_method(self, cls, name: str, key: str, span: bool = False,
                     observe: Optional[Callable] = None) -> None:
        original = cls.__dict__[name]
        self._patches.append((cls, name, original))
        setattr(cls, name, self.wrap(key, original, span=span, observe=observe))

    def patch_public_methods(self, cls, key: str) -> None:
        """Wrap every public plain (non-generator) method *cls* defines."""
        for name, member in list(cls.__dict__.items()):
            if name.startswith("_") or not inspect.isfunction(member):
                continue
            if inspect.isgeneratorfunction(member):
                continue
            self.patch_method(cls, name, key)

    def replace(self, owner, name: str, new) -> None:
        """Set ``owner.name = new`` until :meth:`uninstall`."""
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def uninstall(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------ #
    # requests
    # ------------------------------------------------------------------ #

    def request(self, request_id: Any, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one request (a root span).

        Records the request's wall time and the self time its layer
        frames accounted, for the layer-sum check.
        """
        state = self.state()
        before = sum(rec[1] for rec in state.agg.values())
        state.request = request_id
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _clock()
            state.request = None
            layers = sum(rec[1] for rec in state.agg.values()) - before
            state.requests.append((request_id, t1 - t0, layers))
            state.spans.append(("request", t0 - self.origin,
                                t1 - self.origin, -1, request_id))

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #

    def totals(self) -> Dict[str, Tuple[int, float, int, float, int]]:
        """key -> (calls, self s, self I/Os, wall s, layer I/Os), all threads."""
        merged: Dict[str, list] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, values in state.agg.items():
                rec = merged.setdefault(key, [0, 0.0, 0, 0.0, 0])
                for i, value in enumerate(values):
                    rec[i] += value
        return {key: tuple(rec) for key, rec in merged.items()}

    def request_records(self) -> List[Tuple[Any, float, float]]:
        with self._lock:
            states = list(self._states)
        return [rec for state in states for rec in state.requests]

    def write_spans(self, path: str) -> int:
        """Write every recorded span as one JSON line; returns the count.

        ``parent`` is the index of the enclosing span among the same
        thread's spans in recording order (-1 for none); ``request`` is the
        id of the request the span ran in.
        """
        with self._lock:
            states = list(self._states)
        written = 0
        with open(path, "w", encoding="utf-8") as out:
            for thread, state in enumerate(states):
                for span in state.spans:
                    if span is None:   # still open: the run was cut short
                        continue
                    name, start, end, parent, request = span
                    out.write(json.dumps({
                        "thread": thread, "name": name,
                        "start_s": round(start, 9), "end_s": round(end, 9),
                        "parent": parent, "request": request,
                    }) + "\n")
                    written += 1
        return written


def layer_sum_check(records, tolerance: float = 0.05,
                    slack_s: float = 50e-6) -> Dict[str, float]:
    """How well layer self times cover their requests.

    A request passes when the self time its layer frames accounted is
    within ``tolerance`` of the request's wall time, plus ``slack_s`` for
    the benchmark's own call overhead on very short requests.
    """
    if not records:
        return {"within": 1.0, "median_gap": 0.0}
    gaps = []
    within = 0
    for _rid, span_s, layers_s in records:
        gap = span_s - layers_s
        gaps.append(gap / span_s if span_s > 0 else 0.0)
        if abs(gap) <= tolerance * span_s + slack_s:
            within += 1
    gaps.sort()
    return {"within": within / len(records), "median_gap": gaps[len(gaps) // 2]}
