"""Every registry solver returns the same result on CSR- and dict-built graphs.

Above :data:`repro.graphs.udg.GRID_VECTOR_N` the default UDG builder
returns a :class:`~repro.graphs.csr.CSRGraph` instead of a dict graph.
The threshold is lowered here (as in
``tests/graphs/test_udg_vectorized.py``) so the same deployment is
built both ways at test size, and each solver's full
:class:`~repro.cds.base.CDSResult` — node set, dominators, connectors
and meta — must match.
"""

import pytest

from repro.cli import _solver_registry
from repro.geometry import Point
from repro.graphs import random_connected_udg, unit_disk_graph
from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Graph

#: The paper's solvers, their fault-tolerant variants and the
#: distributed (simulated-protocol) pipelines.
SOLVERS = (
    "greedy",
    "waf",
    "mfold-greedy",
    "mfold-2conn",
    "waf-dist",
    "waf-dist-degree",
    "greedy-dist",
    "greedy-dist-degree",
)

#: Shrinks the deployment until it is 2-connected, which the
#: (2,m)-CDS solver needs (the scale the benchmark exporter uses).
TWO_CONN_SCALE = 0.6


@pytest.fixture(scope="module", params=[(90, 6.0, 11), (160, 8.0, 12)])
def points(request):
    n, side, seed = request.param
    pts, _ = random_connected_udg(n, side, seed=seed)
    return pts


def built_both_ways(points, monkeypatch):
    """``(dict graph, CSR graph)`` of one deployment via ``unit_disk_graph``."""
    import repro.graphs.udg as udg

    plain = unit_disk_graph(points)
    monkeypatch.setattr(udg, "GRID_VECTOR_N", 64)
    csr = unit_disk_graph(points)
    monkeypatch.undo()
    assert type(plain) is Graph and isinstance(csr, CSRGraph)
    return plain, csr


def assert_same_result(a, b):
    assert a.algorithm == b.algorithm
    assert a.nodes == b.nodes
    assert a.dominators == b.dominators
    assert a.connectors == b.connectors
    assert a.meta == b.meta


@pytest.mark.parametrize("name", SOLVERS)
def test_registry_solver_parity(points, monkeypatch, name):
    if name == "mfold-2conn":
        points = [Point(p.x * TWO_CONN_SCALE, p.y * TWO_CONN_SCALE) for p in points]
    plain, csr = built_both_ways(points, monkeypatch)
    solver = _solver_registry()[name]
    expected = solver(plain)
    got = solver(csr)
    assert_same_result(expected, got)
    assert got.is_valid(csr)


@pytest.mark.parametrize("kernel", ["auto", "indexed", "bitset", "array"])
@pytest.mark.parametrize("name", ["greedy", "waf"])
def test_kernelized_solvers_never_build_the_dict(points, monkeypatch, name, kernel):
    # The solve path reads the CSR only: kernel, MIS, connectors and the
    # validity check all run on the owned view.
    plain, csr = built_both_ways(points, monkeypatch)
    solver = _solver_registry()[name]
    got = solver(csr, kernel=kernel)
    assert_same_result(solver(plain, kernel=kernel), got)
    assert got.is_valid(csr)
    with pytest.raises(AttributeError):
        object.__getattribute__(csr, "_adj")


def test_largest_component_fallback_parity(monkeypatch):
    # The CLI's fallback for disconnected deployments, on both builds.
    import repro.graphs.udg as udg
    from repro.graphs.generators import largest_component_udg, uniform_points

    pts = uniform_points(200, 14.0, seed=5)
    kept, plain = largest_component_udg(pts)
    monkeypatch.setattr(udg, "GRID_VECTOR_N", 64)
    kept_csr, csr = largest_component_udg(pts)
    assert 0 < len(kept) < len(pts)
    assert kept_csr == kept
    assert isinstance(csr, CSRGraph)
    assert csr.nodes() == plain.nodes() and csr.edges() == plain.edges()
    assert all(csr.neighbors(v) == plain.neighbors(v) for v in kept)
