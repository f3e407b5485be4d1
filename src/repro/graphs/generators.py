"""Random deployment generators.

Every empirical experiment in the reproduction runs over *instance
families*: points scattered in a square (the standard random UDG
model), clustered deployments (sensor clumps), corridors (long thin
areas that stress the connector phase), perturbed grids, and unit-
spaced chains (the paper's Figure 2 worst-case family).  All
generators take an explicit ``random.Random`` seed so instances are
reproducible, and all return plain point lists — build the topology
with :func:`repro.graphs.unit_disk_graph`.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Sequence

from ..geometry.point import Point
from .graph import Graph
from .traversal import is_connected, largest_component
from .udg import unit_disk_graph

__all__ = [
    "uniform_points",
    "uniform_disk_points",
    "clustered_points",
    "corridor_points",
    "perturbed_grid_points",
    "chain_points",
    "random_connected_udg",
    "largest_component_udg",
]


def _rng(seed: int | random.Random) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def uniform_points(n: int, side: float, seed: int | random.Random = 0) -> list[Point]:
    """``n`` points uniform in the ``side x side`` square."""
    rng = _rng(seed)
    return [Point(rng.uniform(0.0, side), rng.uniform(0.0, side)) for _ in range(n)]


def uniform_disk_points(
    n: int, radius: float, seed: int | random.Random = 0
) -> list[Point]:
    """``n`` points uniform in a disk of ``radius`` around the origin."""
    rng = _rng(seed)
    pts: list[Point] = []
    for _ in range(n):
        r = radius * math.sqrt(rng.random())
        theta = rng.uniform(0.0, 2.0 * math.pi)
        pts.append(Point.polar(r, theta))
    return pts


def clustered_points(
    n: int,
    side: float,
    clusters: int,
    spread: float = 0.5,
    seed: int | random.Random = 0,
) -> list[Point]:
    """Points around ``clusters`` uniformly placed cluster heads.

    Each point picks a head uniformly and lands at a Gaussian offset
    with standard deviation ``spread``.  Models clumped sensor drops.
    """
    if clusters < 1:
        raise ValueError("need at least one cluster")
    rng = _rng(seed)
    heads = [Point(rng.uniform(0.0, side), rng.uniform(0.0, side)) for _ in range(clusters)]
    pts: list[Point] = []
    for _ in range(n):
        head = rng.choice(heads)
        pts.append(Point(head.x + rng.gauss(0.0, spread), head.y + rng.gauss(0.0, spread)))
    return pts


def corridor_points(
    n: int, length: float, width: float, seed: int | random.Random = 0
) -> list[Point]:
    """Points uniform in a long thin ``length x width`` rectangle.

    With ``width < 1`` the UDG approaches the paper's linear worst case
    (Figure 2), making this the adversarial family for connector counts.
    """
    rng = _rng(seed)
    return [Point(rng.uniform(0.0, length), rng.uniform(0.0, width)) for _ in range(n)]


def perturbed_grid_points(
    rows: int, cols: int, spacing: float, jitter: float, seed: int | random.Random = 0
) -> list[Point]:
    """A ``rows x cols`` grid with uniform jitter in each coordinate."""
    rng = _rng(seed)
    return [
        Point(
            c * spacing + rng.uniform(-jitter, jitter),
            r * spacing + rng.uniform(-jitter, jitter),
        )
        for r in range(rows)
        for c in range(cols)
    ]


def chain_points(n: int, spacing: float = 1.0) -> list[Point]:
    """``n`` collinear points with the given consecutive spacing.

    ``spacing = 1`` is exactly the Figure 2 family.
    """
    return [Point(i * spacing, 0.0) for i in range(n)]


def random_connected_udg(
    n: int,
    side: float,
    seed: int | random.Random = 0,
    max_attempts: int = 200,
    point_factory: Callable[[int, float, random.Random], Sequence[Point]] | None = None,
) -> tuple[list[Point], Graph[Point]]:
    """A connected random UDG, by rejection sampling.

    Draws deployments (uniform square by default) until the UDG is
    connected.  ``side`` should be modest relative to ``sqrt(n)`` or
    connectivity becomes vanishingly rare; a ``ValueError`` after
    ``max_attempts`` failures signals that rather than looping forever.
    """
    rng = _rng(seed)
    for _ in range(max_attempts):
        if point_factory is None:
            pts = uniform_points(n, side, rng)
        else:
            pts = list(point_factory(n, side, rng))
        graph = unit_disk_graph(pts)
        if is_connected(graph):
            return list(pts), graph
    raise ValueError(
        f"no connected deployment of {n} nodes in side={side} after {max_attempts} tries"
    )


def largest_component_udg(
    points: Sequence[Point], graph: Graph[Point] | None = None
) -> tuple[list[Point], Graph[Point]]:
    """Restrict a deployment to its largest connected UDG component.

    The alternative to rejection sampling for sparse deployments: keep
    the giant component, as the empirical UDG literature convention.
    ``graph``, when given, is ``unit_disk_graph(points)`` already built
    (the caller checked its connectivity, say), and is not built again.
    Returns the kept points in input order and the subgraph they induce.
    """
    if graph is None:
        graph = unit_disk_graph(points)
    kept = largest_component(graph)
    if not kept:
        return [], Graph()
    return kept, graph.subgraph(kept)
