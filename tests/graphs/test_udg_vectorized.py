"""The vectorized UDG builder must be bit-identical to the grid builder.

``unit_disk_graph_vectorized`` replays the grid builder's exact edge
emission order from numpy-discovered candidate pairs, so the resulting
graphs match *including insertion order* — node order, edge order, and
every per-node adjacency list.  That is the property these tests pin,
as a hypothesis property over arbitrary point clouds, seeded uniform
deployments, builds split into many tiny scan chunks and degenerate
geometry (collinear chains, pairs a few ulps either side of the
boundary, points on bucket lines, negative coordinates).  The
builder's array-based input check must raise exactly what the shared
set-based check raises.
"""

import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.graphs.udg as udg
from repro.geometry import EPS, Point
from repro.graphs.generators import chain_points, uniform_points
from repro.graphs.indexed import IndexedGraph
from repro.graphs.udg import (
    GRID_SMALL_N,
    GRID_VECTOR_N,
    _checked_points,
    unit_disk_graph,
    unit_disk_graph_naive,
    unit_disk_graph_vectorized,
)
from repro.obs import OBS

coords = st.floats(min_value=0.0, max_value=9.0, allow_nan=False)
point_lists = st.lists(
    st.builds(Point, coords, coords), min_size=0, max_size=70, unique=True
)


def assert_same_graph_ordered(a, b):
    """Equality including every insertion order the builders produce."""
    assert list(a.nodes()) == list(b.nodes())
    assert a.edges() == b.edges()
    for v in a.nodes():
        assert a.neighbors(v) == b.neighbors(v)


class TestGridEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(point_lists)
    def test_matches_grid_builder_hypothesis(self, pts):
        grid = unit_disk_graph(pts)
        vector = unit_disk_graph_vectorized(pts)
        assert_same_graph_ordered(grid, vector)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("radius", (1.0, 1.7))
    def test_matches_grid_builder_uniform(self, seed, radius):
        pts = uniform_points(320, 11.0, random.Random(seed))
        grid = unit_disk_graph(pts, radius=radius)
        vector = unit_disk_graph_vectorized(pts, radius=radius)
        assert_same_graph_ordered(grid, vector)

    def test_exact_boundary_distances(self):
        # Integer grid points sit at exactly radius 1.0 from their
        # axis neighbors: the boundary tolerance must agree everywhere.
        pts = [Point(float(x), float(y)) for x in range(9) for y in range(7)]
        assert len(pts) > GRID_SMALL_N
        grid = unit_disk_graph(pts)
        vector = unit_disk_graph_vectorized(pts)
        assert_same_graph_ordered(grid, vector)
        assert grid.edge_count() == 9 * 6 + 8 * 7  # rook moves only

    def test_matches_naive_builder(self):
        pts = uniform_points(120, 6.0, random.Random(3))
        naive = unit_disk_graph_naive(pts)
        vector = unit_disk_graph_vectorized(pts)
        assert {frozenset(e) for e in naive.edges()} == {
            frozenset(e) for e in vector.edges()
        }

    def test_default_builder_dispatches_at_vector_n(self, monkeypatch):
        # Above GRID_VECTOR_N, unit_disk_graph IS the vectorized path.
        monkeypatch.setattr(udg, "GRID_VECTOR_N", 64)
        pts = uniform_points(100, 6.0, random.Random(1))
        assert_same_graph_ordered(
            unit_disk_graph(pts), unit_disk_graph_vectorized(pts)
        )
        assert GRID_VECTOR_N == 20000  # the committed threshold


class TestValidationAndGating:
    def test_duplicate_points_rejected(self):
        pts = [Point(1.0, 2.0), Point(1.0, 2.0)]
        with pytest.raises(ValueError, match="duplicate"):
            unit_disk_graph_vectorized(pts)

    def test_empty_and_single(self):
        assert len(unit_disk_graph_vectorized([])) == 0
        g = unit_disk_graph_vectorized([Point(2.0, 3.0)])
        assert list(g.nodes()) == [Point(2.0, 3.0)]
        assert g.edge_count() == 0

    def test_nonpositive_radius(self):
        pts = [Point(0.0, 0.0), Point(0.5, 0.0)]
        g = unit_disk_graph_vectorized(pts, radius=0.0)
        assert g.edge_count() == 0
        assert list(g.nodes()) == pts

    @pytest.mark.parametrize(
        "pts",
        [
            [Point(float("nan"), 0.5), Point(1.0, 1.0)],
            [Point(1.0, 1.0), Point(2.0, float("-inf"))],
            [Point(0.5, 0.5), Point(1.0, 1.0), Point(0.5, 0.5)],
            [Point(-0.0, 3.0), Point(1.0, 1.0), Point(0.0, 3.0)],
            [Point(0.0, -0.0), Point(2.0, 2.0), Point(-0.0, 0.0)],
            # A duplicate and a non-finite point: non-finite wins.
            [Point(1.0, 1.0), Point(1.0, 1.0), Point(float("inf"), 1.0)],
        ],
        ids=["nan", "inf", "duplicate", "signed-zero-x", "signed-zero-xy", "both"],
    )
    @pytest.mark.parametrize("pad", [0, 60])
    def test_array_check_raises_like_set_check(self, pts, pad):
        # The builder checks its coordinate arrays, then defers to the
        # shared set-based check: same exception, same message, on both
        # sides of GRID_SMALL_N.
        pts = [Point(10.0 + i, 7.5) for i in range(pad)] + pts
        with pytest.raises(ValueError) as expected:
            _checked_points(pts)
        with pytest.raises(ValueError) as got:
            unit_disk_graph_vectorized(pts)
        assert str(got.value) == str(expected.value)

    def test_duplicate_named_in_message(self):
        pts = uniform_points(80, 6.0, random.Random(2))
        pts = pts + [pts[40], pts[7]]
        message = f"duplicate points in UDG input: {pts[40]!r}"
        builders = (unit_disk_graph, unit_disk_graph_naive, unit_disk_graph_vectorized)
        for builder in builders:
            with pytest.raises(ValueError) as info:
                builder(pts)
            assert str(info.value) == message

    def test_distinct_points_equal_as_float64_are_built(self):
        # Integer coordinates beyond 2**53 stay distinct Points but round
        # to one float64: the array check defers to the set check, which
        # accepts them, and the build goes ahead as it always did.
        big = 2**53
        pts = [Point(big, 0), Point(big + 1, 0)] + [
            Point(float(i), 3.0) for i in range(GRID_SMALL_N)
        ]
        graph = unit_disk_graph_vectorized(pts)
        assert list(graph.nodes()) == pts


def assert_same_csr(grid, vector):
    """The vectorized build's CSR arrays are the interned grid graph's."""
    reference = IndexedGraph.from_graph(grid)
    view = vector._view
    assert view.nodes == reference.nodes
    assert view.indptr.tolist() == reference.indptr
    assert view.indices.tolist() == reference.indices


def build_counters(builder, pts, **kwargs):
    with OBS.capture() as reg:
        graph = builder(pts, **kwargs)
        counters = dict(reg.counters())
    name = "vector" if builder is unit_disk_graph_vectorized else "grid"
    return graph, (
        counters[f"udg.{name}.pairs_tested"],
        counters[f"udg.{name}.edges_emitted"],
        counters.get(f"udg.{name}.boundary_pairs_tested", 0),
    )


class TestChunkedScan:
    """The candidate sequence is expanded in ``_SCAN_CHUNK`` batches;
    where the batches split must not show in the output."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        side=st.floats(min_value=3.0, max_value=25.0),
        chunk=st.integers(1, 7),
    )
    def test_many_chunks_match_grid(self, seed, side, chunk):
        pts = uniform_points(300, side, random.Random(seed))
        grid, grid_counters = build_counters(unit_disk_graph, pts)
        with mock.patch.object(udg, "_SCAN_CHUNK", chunk):
            vector, vector_counters = build_counters(unit_disk_graph_vectorized, pts)
        assert_same_csr(grid, vector)
        assert vector_counters == grid_counters
        # Dozens of chunks at the very least (candidates outnumber the
        # tested pairs: within-bucket products include both triangles).
        assert vector_counters[0] >= 40 * chunk

    @settings(max_examples=30, deadline=None)
    @given(pts=point_lists, chunk=st.integers(1, 50))
    def test_arbitrary_clouds_any_chunk(self, pts, chunk):
        grid = unit_disk_graph(pts)
        with mock.patch.object(udg, "_SCAN_CHUNK", chunk):
            vector = unit_disk_graph_vectorized(pts)
        assert_same_graph_ordered(grid, vector)


def ulps(x, k):
    """``x`` moved ``k`` ulps (negative: downwards)."""
    direction = math.inf if k > 0 else -math.inf
    for _ in range(abs(k)):
        x = math.nextafter(x, direction)
    return x


class TestDegenerateGeometry:
    """Inputs where float rounding decides edges: the vectorized build
    stays the grid build, CSR arrays and counters included."""

    @staticmethod
    def check(pts, radius=1.0):
        grid, grid_counters = build_counters(unit_disk_graph, pts, radius=radius)
        vector, vector_counters = build_counters(
            unit_disk_graph_vectorized, pts, radius=radius
        )
        assert_same_graph_ordered(grid, vector)
        assert_same_csr(grid, vector)
        assert vector_counters == grid_counters
        return vector

    @staticmethod
    def assert_matches_naive(graph, pts, radius=1.0):
        naive = unit_disk_graph_naive(pts, radius=radius)
        assert {frozenset(e) for e in naive.edges()} == {
            frozenset(e) for e in graph.edges()
        }

    @pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
    def test_collinear_chain_near_unit_spacing(self, k):
        pts = chain_points(70, ulps(1.0, k))
        graph = self.check(pts)
        self.assert_matches_naive(graph, pts)
        assert graph.edge_count() == 69

    @pytest.mark.parametrize("k", [-1, 0, 1])
    def test_pairs_at_the_exact_threshold(self, k):
        # The edge predicate is d² <= (r + EPS)²: pairs straddle the
        # largest accepted offset by an ulp, from inside a bucket across
        # its edge, along both axes and the diagonal.
        reach = ulps(1.0 + EPS, k)
        pts = []
        for i in range(12):
            base = 3.0 * i + 0.25
            pts += [Point(base, 0.5), Point(base + reach, 0.5)]
            pts += [Point(0.5, 40.0 + 3.0 * i), Point(0.5, 40.0 + 3.0 * i + reach)]
            diag = reach / math.sqrt(2.0)
            pts += [Point(base, 80.0), Point(base + diag, 80.0 + diag)]
        self.assert_matches_naive(self.check(pts), pts)

    @staticmethod
    def straddling_pairs(k):
        """Pairs one unit (± 1 ulp) apart whose left end sits an ulp
        below a bucket line, so the right end lands one or two buckets
        over."""
        pts = []
        for i in range(20):
            x = ulps(float(i * 4 + 1), -1)
            pts += [Point(x, 0.5), Point(x + ulps(1.0, k), 0.5)]
        return pts

    @pytest.mark.parametrize("k", [-1, 0, 1])
    def test_unit_pairs_across_bucket_edges(self, k):
        self.check(self.straddling_pairs(k))

    @pytest.mark.parametrize("k", [-1, 0, 1])
    def test_unit_pairs_across_bucket_edges_match_naive(self, k):
        pts = self.straddling_pairs(k)
        self.assert_matches_naive(unit_disk_graph_vectorized(pts), pts)

    @pytest.mark.parametrize("radius", [1.0, 1.3, 0.7, 0.1])
    def test_pairs_one_reach_below_a_bucket_line_match_naive(self, radius):
        # The left end sits within ulps of the farthest accepted offset
        # below a bucket line, so only the rounding slack of the
        # boundary pass's band keeps it in.
        reach = radius + EPS
        pts = []
        for i in range(40):
            line = (3 * i + 2) * radius
            for k in range(-3, 4):
                y = 10.0 * (k + 4) + 100.0 * i
                pts += [Point(ulps(line - reach, k), y), Point(line, y)]
        self.assert_matches_naive(self.check(pts, radius=radius), pts, radius)

    @pytest.mark.parametrize("seed", range(4))
    def test_points_near_bucket_lines_match_naive(self, seed):
        # Coordinates a few ulps or a fraction of EPS off bucket lines,
        # at unit and non-unit radii, so pairs about one radius apart
        # straddle whole buckets: the boundary pass must find every such
        # edge, identically in both builders.
        rng = random.Random(900 + seed)
        for radius in (1.0, 1.3, 0.7):
            def coordinate():
                if rng.random() < 0.5:
                    return rng.uniform(-5.0, 5.0) * radius
                line = ulps(rng.randint(-5, 5) * radius, rng.randint(-3, 3))
                return line + rng.choice((0.0, 1e-10, -1e-10, 5e-10, -5e-10))

            pts = list({Point(coordinate(), coordinate()) for _ in range(120)})
            rng.shuffle(pts)
            self.assert_matches_naive(self.check(pts, radius=radius), pts, radius)

    def test_points_on_bucket_lines(self):
        pts = [Point(float(x), float(y)) for x in range(-4, 5) for y in range(-3, 4)]
        pts += [Point(x + 0.5, -3.0) for x in range(-4, 4)]
        graph = self.check(pts)
        self.assert_matches_naive(graph, pts)
        assert graph.edge_count() > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_negative_coordinates(self, seed):
        pts = [
            Point(p.x - 7.0, p.y - 7.0)
            for p in uniform_points(250, 9.0, random.Random(seed))
        ]
        for radius in (1.0, 1.3):
            self.assert_matches_naive(self.check(pts, radius=radius), pts, radius)
