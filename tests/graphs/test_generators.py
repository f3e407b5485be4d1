"""Unit tests for the deployment generators."""

import pytest

from repro.geometry import Point
from repro.graphs import (
    chain_points,
    clustered_points,
    corridor_points,
    is_connected,
    largest_component_udg,
    perturbed_grid_points,
    random_connected_udg,
    uniform_disk_points,
    uniform_points,
    unit_disk_graph,
)


class TestPointGenerators:
    def test_uniform_count_and_bounds(self):
        pts = uniform_points(50, 3.0, seed=1)
        assert len(pts) == 50
        assert all(0 <= p.x <= 3 and 0 <= p.y <= 3 for p in pts)

    def test_uniform_deterministic(self):
        assert uniform_points(10, 3.0, seed=9) == uniform_points(10, 3.0, seed=9)

    def test_uniform_seeds_differ(self):
        assert uniform_points(10, 3.0, seed=1) != uniform_points(10, 3.0, seed=2)

    def test_disk_points_inside(self):
        pts = uniform_disk_points(100, 2.0, seed=0)
        assert all(p.norm() <= 2.0 + 1e-9 for p in pts)

    def test_clustered_count(self):
        pts = clustered_points(30, 5.0, clusters=3, seed=0)
        assert len(pts) == 30

    def test_clustered_needs_cluster(self):
        with pytest.raises(ValueError):
            clustered_points(10, 5.0, clusters=0)

    def test_corridor_bounds(self):
        pts = corridor_points(40, 10.0, 1.0, seed=0)
        assert all(0 <= p.x <= 10 and 0 <= p.y <= 1 for p in pts)

    def test_perturbed_grid_count(self):
        pts = perturbed_grid_points(3, 4, spacing=1.0, jitter=0.1, seed=0)
        assert len(pts) == 12

    def test_perturbed_grid_zero_jitter_is_grid(self):
        pts = perturbed_grid_points(2, 2, spacing=2.0, jitter=0.0, seed=0)
        assert set(pts) == {Point(0, 0), Point(2, 0), Point(0, 2), Point(2, 2)}

    def test_chain_points(self):
        pts = chain_points(4, spacing=1.0)
        assert pts == [Point(0, 0), Point(1, 0), Point(2, 0), Point(3, 0)]

    def test_chain_udg_is_path(self):
        g = unit_disk_graph(chain_points(5, 1.0))
        assert g.edge_count() == 4
        assert is_connected(g)


class TestConnectedUDG:
    def test_returns_connected(self):
        for seed in range(4):
            pts, g = random_connected_udg(15, 3.0, seed=seed)
            assert is_connected(g)
            assert len(pts) == 15

    def test_deterministic(self):
        p1, _ = random_connected_udg(12, 3.0, seed=5)
        p2, _ = random_connected_udg(12, 3.0, seed=5)
        assert p1 == p2

    def test_impossible_density_raises(self):
        with pytest.raises(ValueError):
            random_connected_udg(5, 100.0, seed=0, max_attempts=5)


class TestLargestComponent:
    def test_keeps_giant_component(self):
        pts = [Point(0, 0), Point(0.5, 0), Point(0.9, 0), Point(10, 10)]
        kept, graph = largest_component_udg(pts)
        assert len(kept) == 3
        assert is_connected(graph)
        assert Point(10, 10) not in graph

    def test_empty(self):
        kept, graph = largest_component_udg([])
        assert kept == [] and len(graph) == 0

    def test_already_connected_unchanged(self):
        pts = chain_points(4, 0.9)
        kept, graph = largest_component_udg(pts)
        assert kept == pts
        assert len(graph) == 4


def reference_largest_component(points):
    """The fallback as it was: build, walk the dict graph for components,
    keep the first largest one in input order."""
    from repro.graphs import Graph, connected_components

    graph = unit_disk_graph(points)
    plain = Graph(nodes=graph.nodes())
    for u, v in graph.edges():
        plain.add_edge(u, v)
    comps = connected_components(plain)
    if not comps:
        return [], plain
    biggest = set(max(comps, key=len))
    kept = [p for p in points if p in biggest]
    return kept, graph.subgraph(kept)


def assert_same_subgraph(a, b):
    assert a.nodes() == b.nodes()
    assert a.edges() == b.edges()
    assert all(a.neighbors(v) == b.neighbors(v) for v in a.nodes())


class TestLargestComponentReuse:
    """``largest_component_udg(points, graph)`` reuses the built graph
    and labels components on the CSR view when there is one."""

    @pytest.mark.parametrize("vector_n", [None, 64])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference(self, monkeypatch, vector_n, seed):
        import repro.graphs.udg as udg

        if vector_n is not None:
            monkeypatch.setattr(udg, "GRID_VECTOR_N", vector_n)
        pts = uniform_points(220, 15.0, seed=seed)
        graph = unit_disk_graph(pts)
        assert not is_connected(graph)
        kept, sub = largest_component_udg(pts, graph)
        ref_kept, ref_sub = reference_largest_component(pts)
        assert 0 < len(kept) < len(pts)
        assert kept == ref_kept
        assert_same_subgraph(sub, ref_sub)
        assert type(sub) is type(ref_sub)

    @pytest.mark.parametrize("vector_n", [None, 64])
    def test_tie_keeps_first_component(self, monkeypatch, vector_n):
        import repro.graphs.udg as udg

        if vector_n is not None:
            monkeypatch.setattr(udg, "GRID_VECTOR_N", vector_n)
        # Three 40-node chains, interleaved in input order; the one whose
        # first node comes first wins the tie.
        chains = [[Point(0.5 * i, 10.0 * c) for i in range(40)] for c in range(3)]
        pts = [chains[c][i] for i in range(40) for c in (2, 0, 1)]
        pts.append(Point(100.0, 100.0))
        kept, _ = largest_component_udg(pts)
        assert kept == chains[2]
        assert kept == reference_largest_component(pts)[0]

    def test_builds_once(self, monkeypatch):
        import repro.graphs.generators as generators
        import repro.graphs.udg as udg

        monkeypatch.setattr(udg, "GRID_VECTOR_N", 64)
        builds = []
        real = udg.unit_disk_graph

        def counting(points, *args, **kwargs):
            builds.append(len(points))
            return real(points, *args, **kwargs)

        monkeypatch.setattr(generators, "unit_disk_graph", counting)
        pts = uniform_points(220, 15.0, seed=1)
        graph = real(pts)
        largest_component_udg(pts, graph)
        assert builds == []
        largest_component_udg(pts)
        assert builds == [220]
