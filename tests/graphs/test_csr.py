"""Graphs built as CSR must behave exactly like the dict graphs they replace.

``unit_disk_graph_vectorized`` returns a :class:`CSRGraph`: the grid
builder's graph held as kernel arrays, with the dict adjacency built
only on demand.  These tests pin that it is indistinguishable from the
grid-built dict graph — before and after the dict exists, across
mutation, copy, subgraph and pickling — and that the kernel-side
connectivity and CDS checks agree with the dict implementations.
"""

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Point
from repro.graphs import Graph, IndexedGraph, build_kernel, is_connected
from repro.graphs.array import ArrayGraph
from repro.graphs.csr import CSRGraph, csr_from_edges
from repro.graphs.generators import uniform_points
from repro.graphs.properties import is_connected_dominating_set
from repro.graphs.traversal import largest_component
from repro.graphs.udg import GRID_SMALL_N, unit_disk_graph, unit_disk_graph_vectorized
from repro.obs import OBS

from .test_udg_vectorized import assert_same_graph_ordered

coords = st.floats(min_value=0.0, max_value=9.0, allow_nan=False)
point_lists = st.lists(
    st.builds(Point, coords, coords), min_size=GRID_SMALL_N, max_size=90, unique=True
)


def dict_built(graph) -> bool:
    """Whether the graph's dict adjacency exists (without building it)."""
    try:
        object.__getattribute__(graph, "_adj")
    except AttributeError:
        return False
    return True


def assert_same_adjacency(a, b):
    """The dicts themselves agree, insertion order included."""
    assert list(a._adj) == list(b._adj)
    for v, row in a._adj.items():
        assert list(row) == list(b._adj[v])


def built_pair(n=150, side=8.0, seed=0):
    pts = uniform_points(n, side, random.Random(seed))
    return unit_disk_graph(pts), unit_disk_graph_vectorized(pts)


class TestCSRFromEdges:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rows_follow_add_edge_order(self, data):
        n = data.draw(st.integers(min_value=1, max_value=25))
        pairs = st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1)
        ).filter(lambda e: e[0] != e[1])
        edges = data.draw(
            st.lists(pairs, max_size=60, unique_by=lambda e: frozenset(e))
        )
        graph: Graph[int] = Graph(nodes=range(n))
        for u, v in edges:
            graph.add_edge(u, v)
        left = np.array([u for u, _ in edges], dtype=np.int64)
        right = np.array([v for _, v in edges], dtype=np.int64)
        indptr, indices = csr_from_edges(n, left, right)
        reference = IndexedGraph.from_graph(graph)
        assert indptr.tolist() == reference.indptr
        assert indices.tolist() == reference.indices


class TestLargestComponent:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_labels_match_dict_components(self, data):
        # Same component, including which one wins a size tie, as the
        # dict traversal: random graphs have many small components.
        n = data.draw(st.integers(min_value=1, max_value=30))
        pairs = st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1)
        ).filter(lambda e: e[0] != e[1])
        edges = data.draw(
            st.lists(pairs, max_size=40, unique_by=lambda e: frozenset(e))
        )
        plain: Graph[int] = Graph(nodes=range(n))
        for u, v in edges:
            plain.add_edge(u, v)
        left = np.array([u for u, _ in edges], dtype=np.int64)
        right = np.array([v for _, v in edges], dtype=np.int64)
        csr = CSRGraph.from_csr(tuple(range(n)), *csr_from_edges(n, left, right))
        assert largest_component(csr) == largest_component(plain)
        assert not dict_built(csr)


class TestBuilderOutput:
    @settings(max_examples=40, deadline=None)
    @given(pts=point_lists)
    def test_matches_grid_before_and_after_dict(self, pts):
        grid = unit_disk_graph(pts)
        csr = unit_disk_graph_vectorized(pts)
        assert isinstance(csr, CSRGraph)
        assert_same_graph_ordered(grid, csr)
        assert len(csr) == len(grid)
        assert csr.edge_count() == grid.edge_count()
        assert list(csr) == list(grid)
        assert not dict_built(csr)
        assert csr.max_degree() == grid.max_degree()  # a dict-walking read
        assert dict_built(csr)
        assert_same_adjacency(csr, grid)
        assert_same_graph_ordered(grid, csr)

    def test_kernel_views_equal_interned_dict(self):
        grid, csr = built_pair()
        reference = IndexedGraph.from_graph(grid)
        index = IndexedGraph.from_graph(csr)
        assert index.nodes == reference.nodes
        assert index.indptr == reference.indptr
        assert index.indices == reference.indices
        array = build_kernel(csr, "array")
        assert array is csr._view
        assert build_kernel(csr, "indexed") is array.indexed
        assert ArrayGraph.from_graph(csr) is array
        assert array.indptr.tolist() == reference.indptr
        assert not dict_built(csr)

    def test_membership_and_neighbors_from_csr(self):
        grid, csr = built_pair()
        outsider = Point(-5.0, -5.0)
        assert outsider not in csr
        assert all(v in csr for v in grid)
        with pytest.raises(KeyError):
            csr.neighbors(outsider)
        assert not dict_built(csr)

    def test_small_inputs_stay_dict_graphs(self):
        pts = uniform_points(GRID_SMALL_N - 1, 3.0, random.Random(2))
        assert type(unit_disk_graph_vectorized(pts)) is Graph
        assert type(unit_disk_graph_vectorized(pts, radius=0.0)) is Graph


class TestMutationDropsView:
    def test_add_edge(self):
        grid, csr = built_pair(seed=1)
        a, b = grid.nodes()[0], grid.nodes()[-1]
        assert not grid.has_edge(a, b)
        grid.add_edge(a, b)
        csr.add_edge(a, b)
        assert csr._view is None
        assert_same_graph_ordered(grid, csr)
        kernel = build_kernel(csr, "array")
        reference = IndexedGraph.from_graph(grid)
        assert kernel.edge_count() == grid.edge_count()
        assert kernel.indexed.indices == reference.indices

    def test_remove_node_then_connectivity(self):
        # A path of points: dropping an interior node disconnects it.
        pts = [Point(0.9 * i, 0.0) for i in range(GRID_SMALL_N + 8)]
        csr = unit_disk_graph_vectorized(pts)
        assert isinstance(csr, CSRGraph) and is_connected(csr)
        csr.remove_node(pts[10])
        assert csr._view is None
        assert not is_connected(csr)
        kernel = build_kernel(csr, "indexed")
        assert len(kernel) == len(pts) - 1
        assert len(kernel.connected_components()) == 2

    def test_add_node_and_remove_edge(self):
        grid, csr = built_pair(seed=2)
        u = grid.nodes()[3]
        v = grid.neighbors(u)[0]
        for graph in (grid, csr):
            graph.remove_edge(u, v)
            graph.add_node(Point(100.0, 100.0))
        assert csr._view is None
        assert_same_graph_ordered(grid, csr)
        assert not is_connected(csr)


class TestDerivedGraphs:
    def test_copy_is_independent(self):
        grid, csr = built_pair(seed=3)
        dup = csr.copy()
        assert isinstance(dup, CSRGraph) and dup._view is csr._view
        assert_same_graph_ordered(grid, dup)
        node = dup.nodes()[0]
        dup.remove_node(node)
        assert node in csr and csr._view is not None
        assert_same_graph_ordered(grid, csr)

    def test_copy_after_mutation(self):
        grid, csr = built_pair(seed=3)
        csr.add_node(Point(50.0, 50.0))
        grid.add_node(Point(50.0, 50.0))
        assert_same_graph_ordered(grid, csr.copy())

    @pytest.mark.parametrize("seed", range(4))
    def test_subgraph_matches_dict_subgraph(self, seed):
        grid, csr = built_pair(seed=seed)
        rng = random.Random(seed)
        keep = rng.sample(grid.nodes(), 60) + [Point(-1.0, -1.0)]
        sub = csr.subgraph(iter(keep))
        assert isinstance(sub, CSRGraph)
        assert_same_graph_ordered(grid.subgraph(keep), sub)
        assert is_connected(sub) == is_connected(grid.subgraph(keep))
        assert not dict_built(csr)

    def test_empty_subgraph(self):
        _, csr = built_pair()
        sub = csr.subgraph([])
        assert len(sub) == 0 and sub.edges() == [] and not is_connected(sub)

    def test_pickle_round_trip(self):
        grid, csr = built_pair(seed=4)
        clone = pickle.loads(pickle.dumps(csr))
        assert isinstance(clone, CSRGraph)
        assert not dict_built(clone)
        assert_same_graph_ordered(grid, clone)
        csr.add_edge(grid.nodes()[0], grid.nodes()[-1])
        grid.add_edge(grid.nodes()[0], grid.nodes()[-1])
        detached = pickle.loads(pickle.dumps(csr))
        assert_same_graph_ordered(grid, detached)


class TestKernelChecks:
    @pytest.mark.parametrize("side", (6.0, 9.0, 14.0))
    def test_is_connected_matches_dict(self, side):
        for seed in range(3):
            grid, csr = built_pair(n=80, side=side, seed=seed)
            assert is_connected(csr) == is_connected(grid)
        assert not dict_built(csr)

    @pytest.mark.parametrize("seed", range(5))
    def test_cds_check_matches_dict_oracle(self, seed):
        grid, csr = built_pair(n=120, side=7.0, seed=seed)
        nodes = grid.nodes()
        rng = random.Random(seed)
        outsider = Point(-3.0, -3.0)
        candidates = [
            [],
            [nodes[0]],
            nodes,
            nodes + [outsider],
            [outsider],
            nodes[: len(nodes) // 3],  # non-dominating
            [nodes[0], max(nodes)],  # typically disconnected
        ]
        for size in (5, 30, 60, 90, 110):
            candidates.append(rng.sample(nodes, size))
        if is_connected(grid):
            from repro.cds import greedy_connector_cds

            cds = sorted(greedy_connector_cds(grid).nodes)
            candidates += [cds, cds[1:], cds + [outsider]]
        for cand in candidates:
            assert is_connected_dominating_set(csr, cand) == (
                is_connected_dominating_set(grid, cand)
            ), cand
        assert not dict_built(csr)

    def test_single_node_graph(self):
        only = Point(0.0, 0.0)
        csr = CSRGraph.from_csr(
            (only,), np.zeros(2, dtype=np.int64), np.zeros(0, dtype=np.int64)
        )
        assert is_connected(csr)
        assert is_connected_dominating_set(csr, [only])
        assert not is_connected_dominating_set(csr, [])

    def test_kernel_checks_add_no_counters(self):
        _, csr = built_pair(seed=5)
        with OBS.capture() as registry:
            is_connected(csr)
            is_connected_dominating_set(csr, csr.nodes())
            counters = dict(registry.counters())
        assert counters == {}
