"""Tests for the wedge-sampling triangle estimator and the sampled maximum
edge support (``repro.approx``), on a charged adjacency probe."""

import numpy as np
import pytest

from repro.approx import (
    AdjacencyProbe,
    estimate_triangle_count,
    max_support_from_sample,
    sample_edge_supports,
)
from repro.engine import EngineConfig, ExecutionContext
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    gnp_random,
    star_graph,
)
from repro.graph.memgraph import Graph


@pytest.fixture
def context():
    with ExecutionContext(EngineConfig(block_size=256, cache_blocks=4)) as ctx:
        yield ctx


def _probe(graph, context):
    return AdjacencyProbe(graph, context.device_for(graph.n))


def _triangles(graph, context, samples, seed=0):
    return estimate_triangle_count(
        _probe(graph, context), samples, 0.95, np.random.default_rng(seed))


def _max_support(graph, context, samples, seed=0):
    sample = sample_edge_supports(
        _probe(graph, context), samples, np.random.default_rng(seed))
    max_degree = int(graph.degrees.max()) if graph.n else 0
    return max_support_from_sample(sample, max_degree)


class TestTriangleEstimation:
    def test_clique_is_exact(self, context):
        # Every wedge in a clique closes: zero-variance estimator.
        g = complete_graph(10)
        estimate = _triangles(g, context, samples=200)
        assert estimate.value == pytest.approx(g.triangle_count())
        assert estimate.covers(g.triangle_count())

    def test_triangle_free_is_exact(self, context):
        estimate = _triangles(cycle_graph(10), context, samples=100)
        assert estimate.value == 0.0
        assert estimate.ci_low == 0.0

    def test_no_wedges(self, context):
        estimate = _triangles(Graph.from_edges([(0, 1)]), context, samples=10)
        assert estimate.is_exact
        assert estimate.value == 0.0
        assert estimate.samples == 0

    def test_random_graph_within_tolerance(self, context):
        g = gnp_random(120, 0.15, seed=3)
        estimate = _triangles(g, context, samples=4000, seed=7)
        assert estimate.value == pytest.approx(g.triangle_count(), rel=0.25)

    def test_deterministic_per_seed(self, context):
        g = gnp_random(60, 0.2, seed=1)
        a = _triangles(g, context, samples=500, seed=42)
        b = _triangles(g, context, samples=500, seed=42)
        assert (a.value, a.ci_low, a.ci_high) == (b.value, b.ci_low, b.ci_high)

    def test_invalid_samples(self, context):
        with pytest.raises(ValueError):
            _triangles(complete_graph(4), context, samples=0)

    def test_charges_io(self, context):
        estimate = _triangles(complete_graph(20), context, samples=50)
        assert estimate.charged_io > 0
        assert context.stats.read_ios > 0


class TestMaxSupportEstimation:
    def test_lower_bound_property(self, context):
        g = gnp_random(80, 0.2, seed=5)
        exact_max = int(g.edge_supports().max())
        estimate = _max_support(g, context, samples=200, seed=1)
        assert 0 <= estimate.value <= exact_max <= estimate.ci_high

    def test_clique_finds_exact(self, context):
        # 66 samples cover every edge of K12: a census, hence exact.
        estimate = _max_support(complete_graph(12), context, samples=66)
        assert estimate.is_exact
        assert estimate.value == 10

    def test_star(self, context):
        assert _max_support(star_graph(6), context, samples=6).value == 0

    def test_empty(self, context):
        assert _max_support(Graph.empty(3), context, samples=10).value == 0
