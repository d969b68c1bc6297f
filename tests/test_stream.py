"""Tests for sliding-window maintenance through ``IngestPipeline(window=N)``
against a from-scratch reference of the live window."""

import numpy as np
import pytest

from repro.baselines import max_truss_edges
from repro.dynamic import DynamicMaxTruss, IngestPipeline
from repro.errors import IngestError
from repro.graph.memgraph import Graph


def _window_reference(edges, window):
    """Exact k_max / truss of the last `window` accepted arrivals.

    Within any window the stream's arrivals are distinct (a duplicate of a
    live pair is skipped at push time), so the live set is simply the tail.
    """
    live = [(min(u, v), max(u, v)) for u, v in edges][-window:]
    if not live:
        return 0, []
    return max_truss_edges(Graph.from_edges(live))


class TestWindowSemantics:
    """The window rules arrival by arrival (batch 1: applied per event)."""

    def test_window_below_capacity(self):
        state = DynamicMaxTruss(Graph.empty(0))
        with IngestPipeline(state, window=10, batch_size=1) as pipe:
            pipe.submit_many([(0, 1), (1, 2), (0, 2)])
        assert state.k_max == 3
        assert state.graph.m == 3

    def test_expiration(self):
        state = DynamicMaxTruss(Graph.empty(0))
        with IngestPipeline(state, window=3, batch_size=1) as pipe:
            pipe.submit_many([(0, 1), (1, 2), (0, 2)])  # triangle alive
            assert pipe.k_max == 3
            pipe.submit(5, 6)  # evicts (0, 1): triangle broken
            assert pipe.k_max == 2
        assert state.graph.m == 3
        assert pipe.stats.expirations == 1

    def test_duplicates_skipped(self):
        state = DynamicMaxTruss(Graph.empty(0))
        with IngestPipeline(state, window=5, batch_size=1) as pipe:
            pipe.submit(0, 1)
            pipe.submit(1, 0)
        assert pipe.stats.duplicates_skipped == 1
        assert state.graph.m == 1

    def test_self_loop_rejected(self):
        with IngestPipeline(DynamicMaxTruss(Graph.empty(0)), window=5) as pipe:
            with pytest.raises(IngestError, match="self-loop"):
                pipe.submit(3, 3)

    def test_invalid_parameters(self):
        state = DynamicMaxTruss(Graph.empty(0))
        with pytest.raises(IngestError):
            IngestPipeline(state, window=0)
        with pytest.raises(IngestError):
            IngestPipeline(state, window=5, batch_size=0)

    def test_stats_history(self):
        """Arrival counters, and the peak k_max an observer records
        through ``on_batch_applied``."""
        state = DynamicMaxTruss(Graph.empty(0))
        history = []
        with IngestPipeline(
            state, window=4, batch_size=1,
            on_batch_applied=lambda _ops: history.append(state.k_max),
        ) as pipe:
            pipe.submit_many([(0, 1), (1, 2), (0, 2), (5, 6), (6, 7)])
        assert pipe.stats.arrivals == 5
        assert pipe.stats.expirations == 1
        assert history == [2, 2, 3, 3, 2]  # peak 3, then expired


@pytest.mark.parametrize("batch_size", [1, 4])
@pytest.mark.parametrize("window", [5, 12])
def test_matches_reference_on_random_stream(batch_size, window):
    rng = np.random.default_rng(8)
    edges = []
    state = DynamicMaxTruss(Graph.empty(0))
    with IngestPipeline(state, window=window, batch_size=batch_size) as pipe:
        for step in range(40):
            u, v = int(rng.integers(0, 10)), int(rng.integers(0, 10))
            if u == v:
                continue
            pair = (min(u, v), max(u, v))
            if pair in edges[-window:]:
                continue
            edges.append(pair)
            pipe.submit(*pair)
            if step % 7 == 0:
                expected_k, expected_edges = _window_reference(edges, window)
                assert pipe.k_max == expected_k
                assert pipe.truss_pairs() == expected_edges
    expected_k, expected_edges = _window_reference(edges, window)
    assert state.k_max == expected_k
    assert state.truss_pairs() == expected_edges


def test_batched_equals_per_event():
    rng = np.random.default_rng(3)
    pairs = []
    for _ in range(30):
        u, v = int(rng.integers(0, 9)), int(rng.integers(0, 9))
        if u != v:
            pairs.append((u, v))
    per_event = DynamicMaxTruss(Graph.empty(0))
    batched = DynamicMaxTruss(Graph.empty(0))
    with IngestPipeline(per_event, window=8, batch_size=1) as pipe:
        pipe.submit_many(pairs)
    with IngestPipeline(batched, window=8, batch_size=5) as pipe:
        pipe.submit_many(pairs)
    assert per_event.k_max == batched.k_max
    assert per_event.truss_pairs() == batched.truss_pairs()
