"""Randomized equivalence of the array kernel vs the indexed/bitset tiers.

The :class:`ArrayGainTracker` vectorization of greedy gain tracking is
only admissible because it is bit-identical to the reference code:
same node sequences, same gains, same tie-break resolutions, on every
instance.  These tests lock all three kernels together at the solver
level across the shared 50-instance randomized UDG suite (all
tie-break modes) and step-lock :class:`ArrayGainTracker` against
:class:`LazyGainTracker` and, at the sizes where the two meet, against
:class:`BitsetGainTracker`, plus value-ranking, counter-determinism and
error-contract parity.
"""

import math
import random

import pytest

from repro.cds import LazyGainTracker, greedy_connector_cds, waf_cds
from repro.cds.array_gain import ArrayGainTracker, value_order
from repro.cds.bitset_gain import BitsetGainTracker
from repro.geometry.point import Point
from repro.graphs import Graph, IndexedGraph, random_connected_udg
from repro.graphs.array import ArrayGraph
from repro.graphs.bitset import BitsetGraph
from repro.mis import first_fit_mis
from repro.mis.first_fit import first_fit_mis_nodes
from repro.obs import OBS

TIE_BREAKS = ("min", "max", "degree")

#: The acceptance suite: 50 seeded connected UDGs across three sizes.
SUITE_PARAMS = [
    (18 + 14 * (seed % 3), (3.8, 4.6, 5.4)[seed % 3], seed) for seed in range(50)
]


@pytest.fixture(scope="module")
def equivalence_suite():
    """Fifty seeded connected UDGs (n in {18, 32, 46})."""
    return [
        random_connected_udg(n, side, seed=seed)[1]
        for n, side, seed in SUITE_PARAMS
    ]


#: Connected UDGs where the bitset and array trackers meet (n = 1500-3000).
MID_PARAMS = [(1500, 16.0, 1), (2200, 19.0, 2), (3000, 22.0, 3)]


@pytest.fixture(scope="module")
def mid_suite():
    return [
        random_connected_udg(n, side, seed=seed)[1] for n, side, seed in MID_PARAMS
    ]


def _bitset_pair(graph):
    """(bitset, array) trackers seeded with the same phase-1 MIS."""
    index = IndexedGraph.from_graph(graph)
    mis = first_fit_mis_nodes(graph, index=index)
    return (
        BitsetGainTracker(BitsetGraph.from_indexed(index), mis),
        ArrayGainTracker(ArrayGraph.from_indexed(index), mis),
    )


def _tracker_pair(graph):
    """(lazy, array) trackers seeded with the same phase-1 MIS."""
    mis = first_fit_mis(graph)
    index = IndexedGraph.from_graph(graph)
    array = ArrayGraph.from_indexed(index)
    return (
        LazyGainTracker(index, mis.nodes),
        ArrayGainTracker(array, mis.nodes),
    )


class TestSolverEquivalence:
    """The acceptance sweep: 50 instances, every tie-break, three kernels."""

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_greedy_bit_identical_across_kernels(self, tie_break, equivalence_suite):
        for graph in equivalence_suite:
            a = greedy_connector_cds(graph, tie_break=tie_break, kernel="indexed")
            b = greedy_connector_cds(graph, tie_break=tie_break, kernel="bitset")
            c = greedy_connector_cds(graph, tie_break=tie_break, kernel="array")
            assert a.dominators == b.dominators == c.dominators
            assert a.connectors == b.connectors == c.connectors  # order included
            assert a.nodes == b.nodes == c.nodes
            assert a.meta == b.meta == c.meta  # root, gain_history, q_history

    def test_waf_bit_identical_across_kernels(self, equivalence_suite):
        for graph in equivalence_suite:
            a = waf_cds(graph, kernel="indexed")
            b = waf_cds(graph, kernel="array")
            assert a.dominators == b.dominators
            assert a.connectors == b.connectors
            assert a.meta == b.meta

    def test_mis_bit_identical_across_kernels(self, equivalence_suite):
        for graph in equivalence_suite:
            reference = first_fit_mis(graph).nodes
            index = IndexedGraph.from_graph(graph)
            array = ArrayGraph.from_indexed(index)
            assert first_fit_mis_nodes(graph, index=index) == reference
            assert first_fit_mis_nodes(graph, index=array) == reference


class TestTrackerStepEquivalence:
    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_lockstep_selection(self, tie_break, udg_suite):
        for _, graph in udg_suite:
            lazy, array = _tracker_pair(graph)
            while lazy.component_count > 1:
                expected = lazy.best_connector(tie_break)
                assert array.best_connector(tie_break) == expected
                lazy.add(expected[0])
                realized = array.add(expected[0])
                assert realized == expected[1]
                assert array.component_count == lazy.component_count
            assert array.component_count == 1
            assert array.included == lazy.included

    @pytest.mark.parametrize("seed", range(4))
    def test_off_policy_adds(self, seed, udg_suite):
        # The caches must stay exact under arbitrary add sequences, not
        # just the argmax ones the greedy produces.
        rng = random.Random(300 + seed)
        _, graph = udg_suite[seed % len(udg_suite)]
        lazy, array = _tracker_pair(graph)
        outside = [v for v in graph.nodes() if v not in lazy.included]
        rng.shuffle(outside)
        for w in outside:
            if lazy.component_count > 1:
                tie_break = TIE_BREAKS[rng.randrange(3)]
                assert array.best_connector(tie_break) == (
                    lazy.best_connector(tie_break)
                )
            assert array.add(w) == lazy.add(w)

    def test_read_api_parity(self, udg_suite):
        _, graph = udg_suite[2]
        lazy, array = _tracker_pair(graph)
        assert array.dominators == lazy.dominators
        assert array.included == lazy.included
        for w in graph.nodes():
            assert array.gain(w) == lazy.gain(w)
            if w not in lazy.included:
                assert len(array.adjacent_components(w)) == len(
                    lazy.adjacent_components(w)
                )

    def test_unorderable_nodes_fall_back_like_lazy(self):
        # Mixed node types break "<": both trackers must resolve ties
        # through the same deterministic fallback.
        graph = Graph(edges=[(0, "a"), ("a", 1), (1, "b"), ("b", 2)])
        mis = first_fit_mis(graph, root=0)
        index = IndexedGraph.from_graph(graph)
        lazy = LazyGainTracker(index, mis.nodes)
        array = ArrayGainTracker(ArrayGraph.from_indexed(index), mis.nodes)
        while lazy.component_count > 1:
            expected = lazy.best_connector("min")
            assert array.best_connector("min") == expected
            lazy.add(expected[0])
            array.add(expected[0])


class TestBitsetLockstep:
    """Step-locked against the bitset tracker at n = 1500-3000."""

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_lockstep_selection(self, tie_break, mid_suite):
        for graph in mid_suite:
            bitset, array = _bitset_pair(graph)
            while bitset.component_count > 1:
                expected = bitset.best_connector(tie_break)
                assert array.best_connector(tie_break) == expected
                assert array.add(expected[0]) == bitset.add(expected[0])
                assert array.component_count == bitset.component_count
            assert array.included == bitset.included

    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_tie_breaks_and_off_policy_adds(self, seed, mid_suite):
        # One tracker answers every tie-break in turn, so its heaps share
        # one gain cache; off-policy adds move gains under all of them.
        rng = random.Random(700 + seed)
        graph = mid_suite[seed]
        bitset, array = _bitset_pair(graph)
        outside = [v for v in graph.nodes() if v not in bitset.included]
        rng.shuffle(outside)
        while bitset.component_count > 1:
            tie_break = rng.choice(TIE_BREAKS)
            expected = bitset.best_connector(tie_break)
            assert array.best_connector(tie_break) == expected
            w = expected[0]
            if rng.random() < 0.25:
                while outside and outside[-1] in bitset.included:
                    outside.pop()
                if outside:
                    w = outside.pop()
            assert array.add(w) == bitset.add(w)
            assert array.component_count == bitset.component_count
        assert array.included == bitset.included


class TestValueOrder:
    """The tie-break rank space is the ascending node-value order."""

    @staticmethod
    def expected(nodes):
        return sorted(range(len(nodes)), key=nodes.__getitem__)

    @pytest.mark.parametrize(
        "nodes",
        [
            pytest.param([5, 3, 9, 1, 7, -2, 0], id="ints"),
            pytest.param([(1, 2), (0, 5), (1, -1), (0, 0), (-3, 9)], id="tuples"),
            pytest.param(
                # 2**60 and 2**60 + 1 are one float64: only an exact
                # comparison orders them.
                [Point(3, 1), Point(1, 2), Point(1, -4), Point(2**60 + 1, 0),
                 Point(2**60, 1)],
                id="int-coordinates",
            ),
            pytest.param(
                [Point(math.nan, 0.0), Point(1.0, 2.0), Point(0.5, math.nan),
                 Point(0.5, 1.0), Point(-1.0, 3.0), Point(math.nan, -1.0)],
                id="nan",
            ),
            pytest.param(
                [Point(math.inf, 0.0), Point(1.0, 2.0), Point(-math.inf, 5.0),
                 Point(1.0, -math.inf), Point(0.0, math.inf)],
                id="inf",
            ),
            pytest.param(
                [Point(0.0, 1.0), Point(-0.0, 0.5), Point(2.5, -1.0),
                 Point(-3.25, 7.0), Point(2.5, -2.0)],
                id="float-points",
            ),
        ],
    )
    def test_matches_sorted(self, nodes):
        assert value_order(nodes) == self.expected(nodes)

    def test_random_float_points_with_tied_x(self):
        rng = random.Random(11)
        xs = [rng.uniform(-5.0, 5.0) for _ in range(40)]
        nodes = list({Point(rng.choice(xs), rng.uniform(-5.0, 5.0))
                      for _ in range(600)})
        rng.shuffle(nodes)
        assert value_order(nodes) == self.expected(nodes)

    def test_unorderable_mix_is_none(self):
        assert value_order([0, "a", 1]) is None
        assert value_order([Point(0.0, 0.0), 1]) is None

    def test_empty(self):
        assert value_order([]) == []


class TestDeterministicCounters:
    def _counters(self, fn):
        with OBS.capture() as reg:
            fn()
            return dict(reg.counters())

    def test_greedy_array_counters_repeat(self, udg_suite):
        _, graph = udg_suite[0]
        run = lambda: greedy_connector_cds(graph, kernel="array")  # noqa: E731
        assert self._counters(run) == self._counters(run)

    def test_waf_array_counters_repeat(self, udg_suite):
        _, graph = udg_suite[1]
        run = lambda: waf_cds(graph, kernel="array")  # noqa: E731
        assert self._counters(run) == self._counters(run)

    def test_array_counters_present(self, udg_suite):
        _, graph = udg_suite[0]
        counters = self._counters(
            lambda: greedy_connector_cds(graph, kernel="array")
        )
        assert counters.get("array.rescore_batches", 0) > 0
        assert counters.get("array.gather_elements", 0) > 0
        assert counters.get("gain.evaluations", 0) > 0
        assert counters.get("mis.selected", 0) > 0

    def test_shared_semantic_counters_match_indexed(self, udg_suite):
        # Kernel-private work counters differ; the semantic ones (MIS
        # choices, connector count, DSU unions) must be bit-identical.
        shared = ("mis.selected", "mis.nodes_scanned",
                  "greedy.connectors_chosen", "gain.dsu_unions")
        _, graph = udg_suite[3]
        a = self._counters(lambda: greedy_connector_cds(graph, kernel="indexed"))
        c = self._counters(lambda: greedy_connector_cds(graph, kernel="array"))
        for name in shared:
            assert a.get(name) == c.get(name), name


class TestErrorContractParity:
    """Same error cases and messages as :class:`LazyGainTracker`."""

    def _array(self, graph):
        return ArrayGraph.from_indexed(IndexedGraph.from_graph(graph))

    def test_empty_dominators_rejected(self, path5):
        with pytest.raises(ValueError, match="non-empty"):
            ArrayGainTracker(self._array(path5), [])

    def test_unknown_dominator_rejected(self, path5):
        with pytest.raises(KeyError, match="not in graph"):
            ArrayGainTracker(self._array(path5), [99])

    def test_unknown_tie_break_rejected(self, path5):
        tracker = ArrayGainTracker(self._array(path5), [0, 4])
        with pytest.raises(ValueError, match="tie_break"):
            tracker.best_connector("median")

    def test_double_add_rejected(self, path5):
        tracker = ArrayGainTracker(self._array(path5), [0, 4])
        tracker.add(2)
        with pytest.raises(ValueError, match="already included"):
            tracker.add(2)

    def test_best_connector_when_connected_rejected(self, path5):
        tracker = ArrayGainTracker(self._array(path5), [0, 1])
        with pytest.raises(ValueError, match="already connected"):
            tracker.best_connector()

    def test_no_positive_gain_rejected(self):
        graph = Graph(edges=[(0, 1), (2, 3)])
        tracker = ArrayGainTracker(self._array(graph), [0, 2])
        with pytest.raises(ValueError, match="positive gain"):
            tracker.best_connector()
