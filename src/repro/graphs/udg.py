"""Unit-disk graphs.

The communication topology of a wireless ad hoc network with all
transmission radii normalized to one: nodes are planar points, and two
nodes are adjacent iff their Euclidean distance is at most one
(Section I of the paper).

Three exact builders are provided: the obvious quadratic one, a
grid-bucketed one that only tests pairs in neighboring buckets —
expected linear time for bounded-density deployments, which is what
makes the larger benchmark sweeps feasible — and a vectorized one for
the 10⁵–10⁶-node decade, which tests the same bucket pairs in numpy
and returns the edges as CSR arrays: a
:class:`~repro.graphs.csr.CSRGraph` that owns them as a ready kernel
view and builds its dict adjacency only if something asks for it.
:func:`unit_disk_graph` dispatches to the vectorized builder from
:data:`GRID_VECTOR_N` nodes.  A quasi-UDG variant (edges certain below
an inner radius, absent above 1, arbitrary — here: pseudorandom — in
between) is included for robustness experiments, since real radios are
not perfect disks.

Every builder rejects duplicate points (two radios at identical
coordinates collapse into one UDG node, corrupting size accounting) and
non-finite coordinates (a ``nan`` or ``inf`` position has no disk).
When :data:`repro.obs.OBS` is enabled, the exact builders report
``udg.<builder>.pairs_tested`` vs ``udg.<builder>.edges_emitted`` — the
quantities that make the naive-vs-grid trade-off measurable instead of
folklore.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .._optional import optional_module, require_module
from ..geometry.point import EPS, Point
from ..obs import OBS, trace
from .csr import CSRGraph, csr_from_edges
from .graph import Graph

__all__ = [
    "unit_disk_graph",
    "unit_disk_graph_naive",
    "unit_disk_graph_vectorized",
    "quasi_unit_disk_graph",
    "communication_radius_graph",
]

#: Below this node count the grid builder dispatches to the all-pairs
#: scan: the bucket machinery (hashing cell keys, neighbor lookups)
#: costs more than the pair tests it avoids (``BENCH_baseline.json``
#: measured grid ~1.4x slower than naive at n=20; the two cross over
#: around n≈30 at benchmark densities).
GRID_SMALL_N = 32

#: At and above this node count :func:`unit_disk_graph` dispatches to
#: :func:`unit_disk_graph_vectorized`: per-pair interpreted loops stop
#: being viable around the same size the array kernel takes over
#: solving (:data:`repro.graphs.backend.ARRAY_AUTO_N`), and the
#: vectorized builder's numpy setup is amortized well before that.
GRID_VECTOR_N = 20000

#: The half-neighborhood the grid builder scans (each unordered cell
#: pair visited once); the vectorized builder replays the same buckets
#: in the same order.
_GRID_DIRECTIONS = ((1, -1), (1, 0), (1, 1), (0, 1))

#: Emission-phase lookup for the vectorized builder's KD-tree path:
#: ``_PHASE_OF[dcx + 1, dcy + 1]`` is the 1-based index of ``(dcx,
#: dcy)`` in :data:`_GRID_DIRECTIONS`, 0 for the same cell and for
#: reversed directions (whose pairs are emitted by the other endpoint's
#: cell).
_PHASE_OF = np.zeros((3, 3), dtype=np.int64)
for _d, (_ox, _oy) in enumerate(_GRID_DIRECTIONS, start=1):
    _PHASE_OF[_ox + 1, _oy + 1] = _d
del _d, _ox, _oy


def _all_pairs_scan(pts: list[Point], graph: Graph[Point], r_sq: float) -> None:
    """Add every edge with squared distance at most ``r_sq``; O(n^2).

    The one scan both exact builders share below :data:`GRID_SMALL_N`,
    so their outputs there are bit-identical including adjacency
    insertion order.
    """
    add_edge = graph.add_edge
    for i in range(len(pts) - 1):
        pi = pts[i]
        pix, piy = pi.x, pi.y
        for j in range(i + 1, len(pts)):
            pj = pts[j]
            dx, dy = pix - pj.x, piy - pj.y
            if dx * dx + dy * dy <= r_sq:
                add_edge(pi, pj)


def unit_disk_graph_naive(
    points: Sequence[Point], radius: float = 1.0, tol: float = EPS
) -> Graph[Point]:
    """UDG by testing all pairs.  O(n^2); the reference implementation.

    Duplicate points are rejected, exactly as in :func:`unit_disk_graph`
    — the two builders promise identical behaviour on every input.
    """
    pts = _checked_points(points)
    graph: Graph[Point] = Graph(nodes=pts)
    r_sq = (radius + tol) * (radius + tol)
    with trace("udg.naive.build"):
        _all_pairs_scan(pts, graph, r_sq)
    if OBS.enabled:
        n = len(pts)
        OBS.incr("udg.naive.pairs_tested", n * (n - 1) // 2)
        OBS.incr("udg.naive.edges_emitted", graph.edge_count())
    return graph


def unit_disk_graph(
    points: Sequence[Point], radius: float = 1.0, tol: float = EPS
) -> Graph[Point]:
    """UDG via grid bucketing: only pairs in adjacent buckets are tested.

    Buckets have side ``radius``, so any edge's endpoints lie in the
    same or neighboring buckets.  Produces a graph identical to
    :func:`unit_disk_graph_naive` (tests assert this); expected time is
    linear in ``n`` for bounded density.  Below :data:`GRID_SMALL_N`
    nodes the builder dispatches to the all-pairs scan — same trace and
    counter names (with truthful all-pairs values), and output there is
    bit-identical to the naive builder's, adjacency order included.

    At and above :data:`GRID_VECTOR_N` nodes the builder dispatches to
    :func:`unit_disk_graph_vectorized` — bit-identical output again
    (node order, adjacency order, everything), with the pair testing
    done in numpy (or scipy's ``cKDTree`` when installed) instead of
    per-pair interpreted loops.

    Duplicate points are rejected: two radios at the same coordinates
    would be a single node in the UDG model and silently merging them
    corrupts size accounting.  So are non-finite coordinates.
    """
    if len(points) >= GRID_VECTOR_N:
        return unit_disk_graph_vectorized(points, radius, tol)
    pts = _checked_points(points)
    graph: Graph[Point] = Graph(nodes=pts)
    if radius <= 0.0:
        return graph
    r_sq = (radius + tol) * (radius + tol)
    counting = OBS.enabled
    n = len(pts)
    if n < GRID_SMALL_N:
        with trace("udg.grid.build"):
            _all_pairs_scan(pts, graph, r_sq)
        if counting:
            OBS.incr("udg.grid.pairs_tested", n * (n - 1) // 2)
            OBS.incr("udg.grid.edges_emitted", graph.edge_count())
        return graph
    pairs_tested = 0
    with trace("udg.grid.build"):
        floor = math.floor
        buckets: dict[tuple[int, int], list[Point]] = {}
        setdefault = buckets.setdefault
        for p in pts:
            setdefault(
                (int(floor(p.x / radius)), int(floor(p.y / radius))), []
            ).append(p)
        add_edge = graph.add_edge
        bucket_get = buckets.get
        for (bx, by), cell in buckets.items():
            # Within-cell pairs.
            m = len(cell)
            if counting:
                pairs_tested += m * (m - 1) // 2
            for i in range(m - 1):
                pi = cell[i]
                pix, piy = pi.x, pi.y
                for j in range(i + 1, m):
                    pj = cell[j]
                    dx, dy = pix - pj.x, piy - pj.y
                    if dx * dx + dy * dy <= r_sq:
                        add_edge(pi, pj)
            # Cross-cell pairs: scan half the neighbors to visit each
            # unordered cell pair once.
            for ox, oy in _GRID_DIRECTIONS:
                other = bucket_get((bx + ox, by + oy))
                if not other:
                    continue
                if counting:
                    pairs_tested += m * len(other)
                for p in cell:
                    px, py = p.x, p.y
                    for q in other:
                        dx, dy = px - q.x, py - q.y
                        if dx * dx + dy * dy <= r_sq:
                            add_edge(p, q)
    if counting:
        OBS.incr("udg.grid.pairs_tested", pairs_tested)
        OBS.incr("udg.grid.edges_emitted", graph.edge_count())
    return graph


def _checked_points(points: Sequence[Point]) -> list[Point]:
    """Materialize and validate a deployment: duplicates and non-finite
    coordinates are errors.

    Shared by every builder so their input contract is identical (see
    ``docs/usage.md`` §1).  A ``nan`` or ``inf`` coordinate would
    otherwise become an isolated node — silently dropped by the
    largest-component fallback — or, in the vectorized builder, an
    undefined integer bucket key.
    """
    pts = list(points)
    isfinite = math.isfinite
    for p in pts:
        if not (isfinite(p.x) and isfinite(p.y)):
            raise ValueError(f"non-finite coordinates in UDG input: {p!r}")
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate points in UDG input")
    return pts


def unit_disk_graph_vectorized(
    points: Sequence[Point],
    radius: float = 1.0,
    tol: float = EPS,
    accel: str = "auto",
) -> Graph[Point]:
    """UDG built with vectorized pair testing; bit-identical to the grid.

    The builder the 10⁵–10⁶-node fixtures need: the same grid bucketing
    as :func:`unit_disk_graph`, but with every per-pair step executed
    as numpy array operations instead of interpreted loops.  The output
    is **bit-identical** to the grid builder's at every size — node
    order, adjacency insertion order, everything — because the builder
    reconstructs the grid's exact edge emission order: each surviving
    pair is keyed by ``(emitting bucket's first-appearance rank, scan
    phase, position of each endpoint in its bucket)`` — the scan phase
    being within-cell (0) or the index of the cross-cell direction in
    :data:`_GRID_DIRECTIONS` (1–4) — and sorted by that key, which is
    precisely the order the grid builder's nested loops emit.  The
    sorted edges become CSR rows directly (:func:`csr_from_edges` keeps
    each row in emission order, as ``add_edge`` would), and the result
    is a :class:`~repro.graphs.csr.CSRGraph` owning them as a ready
    kernel view; its dict adjacency is built only on first use.  Below
    :data:`GRID_SMALL_N` nodes, or for a non-positive radius, the
    result is a plain :class:`Graph`.  The hypothesis suites in
    ``tests/graphs/test_udg_vectorized.py`` and
    ``tests/graphs/test_csr.py`` pin the equivalence.

    ``accel`` picks the candidate-pair source: ``"numpy"`` expands the
    same neighboring-bucket products the grid builder scans as one
    batched index computation; ``"kdtree"`` asks scipy's ``cKDTree``
    for the near pairs directly (fewer candidates, needs the optional
    scipy dependency) and re-tests them with the grid's exact distance
    predicate so float boundary cases cannot diverge; ``"auto"``
    (default) uses the KD-tree when scipy is installed and the numpy
    expansion otherwise.  Counters (``udg.vector.pairs_tested`` — the
    bucket pairs the grid scan *would* test, computed from bucket
    sizes — and ``udg.vector.edges_emitted``) are identical under every
    ``accel``.

    Raises:
        ValueError: on duplicate points, non-finite coordinates or an
            unknown ``accel``.
        MissingDependencyError: for ``accel="kdtree"`` without scipy.
    """
    if accel not in ("auto", "numpy", "kdtree"):
        raise ValueError(f"unknown accel {accel!r}")
    pts = _checked_points(points)
    if radius <= 0.0:
        return Graph(nodes=pts)
    r_sq = (radius + tol) * (radius + tol)
    counting = OBS.enabled
    n = len(pts)
    if n < GRID_SMALL_N:
        graph: Graph[Point] = Graph(nodes=pts)
        with trace("udg.vector.build"):
            _all_pairs_scan(pts, graph, r_sq)
        if counting:
            OBS.incr("udg.vector.pairs_tested", n * (n - 1) // 2)
            OBS.incr("udg.vector.edges_emitted", graph.edge_count())
        return graph
    if accel == "kdtree":
        spatial = require_module("scipy.spatial", feature="the cKDTree UDG fast path")
    else:
        spatial = optional_module("scipy.spatial") if accel == "auto" else None
    with trace("udg.vector.build"):
        xs = np.fromiter((p.x for p in pts), dtype=np.float64, count=n)
        ys = np.fromiter((p.y for p in pts), dtype=np.float64, count=n)
        # Bucket exactly as the grid builder does (same float divisions,
        # same floor), then rank occupied cells by first appearance —
        # the iteration order of the grid builder's bucket dict.
        cx = np.floor(xs / radius).astype(np.int64)
        cy = np.floor(ys / radius).astype(np.int64)
        cx -= cx.min()
        cy -= cy.min()
        width = int(cy.max()) + 3
        key = cx * width + (cy + 1)  # +1 keeps the oy=-1 neighbor in-row
        uniq, first_idx, inv = np.unique(key, return_index=True, return_inverse=True)
        appearance = np.argsort(first_idx, kind="stable")
        rank_of = np.empty(uniq.size, dtype=np.int64)
        rank_of[appearance] = np.arange(uniq.size, dtype=np.int64)
        cell_rank = rank_of[inv]
        # Bucket membership: perm groups point ids by cell rank (stable,
        # so within a bucket they keep input order, like the grid's
        # per-cell lists); pos is each point's index in its bucket.
        perm = np.argsort(cell_rank, kind="stable")
        sizes = np.bincount(cell_rank, minlength=uniq.size)
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        pos = np.empty(n, dtype=np.int64)
        pos[perm] = np.arange(n, dtype=np.int64) - np.repeat(starts, sizes)
        # The bucket pairs the grid scan visits: every occupied cell
        # with itself (phase 0), plus each existing half-neighborhood
        # cell (phases 1-4), discovered by key lookup.
        ranks = np.arange(uniq.size, dtype=np.int64)
        keys_by_rank = uniq[appearance]
        pair_a = [ranks]
        pair_b = [ranks]
        pair_phase = [np.zeros(uniq.size, dtype=np.int64)]
        for phase, (ox, oy) in enumerate(_GRID_DIRECTIONS, start=1):
            nbr = keys_by_rank + ox * width + oy
            loc = np.minimum(np.searchsorted(uniq, nbr), uniq.size - 1)
            found = uniq[loc] == nbr
            pair_a.append(ranks[found])
            pair_b.append(rank_of[loc[found]])
            pair_phase.append(np.full(int(found.sum()), phase, dtype=np.int64))
        cell_a = np.concatenate(pair_a)
        cell_b = np.concatenate(pair_b)
        phases = np.concatenate(pair_phase)

        if spatial is not None:
            # KD-tree path: near pairs from the tree (slightly inflated
            # query radius so its metric rounding can never drop a pair
            # the exact predicate accepts), filtered to the grid's
            # semantics — Chebyshev cell distance <= 1, exact r_sq test.
            tree = spatial.cKDTree(np.column_stack((xs, ys)))
            cand = tree.query_pairs(
                r=(radius + tol) * (1.0 + 1e-9), output_type="ndarray"
            )
            ci, cj = cand[:, 0], cand[:, 1]
            dcx = cx[cj] - cx[ci]
            dcy = cy[cj] - cy[ci]
            near = (np.abs(dcx) <= 1) & (np.abs(dcy) <= 1)
            ci, cj, dcx, dcy = ci[near], cj[near], dcx[near], dcy[near]
            dx = xs[ci] - xs[cj]
            dy = ys[ci] - ys[cj]
            hit = dx * dx + dy * dy <= r_sq
            ci, cj, dcx, dcy = ci[hit], cj[hit], dcx[hit], dcy[hit]
            # Orient each pair the way the grid emits it: the emitting
            # cell is the one whose scan reaches the pair — the common
            # cell within (tree pairs have i < j, matching pos order),
            # the _GRID_DIRECTIONS source cell across.
            phase_fwd = _PHASE_OF[dcx + 1, dcy + 1]
            phase_rev = _PHASE_OF[1 - dcx, 1 - dcy]
            same = (dcx == 0) & (dcy == 0)
            swap = ~same & (phase_fwd == 0)
            left = np.where(swap, cj, ci)
            right = np.where(swap, ci, cj)
            phase = np.where(swap, phase_rev, phase_fwd)
            op = cell_rank[left] * 5 + phase
        else:
            # Pure-numpy path: expand every scanned bucket pair's full
            # point product in one batch, then filter — within-cell
            # products to the strict upper triangle, everything by the
            # exact distance predicate.
            ma = sizes[cell_a]
            mb = sizes[cell_b]
            counts = ma * mb
            total = int(counts.sum())
            pair_id = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
            t = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            mbp = mb[pair_id]
            ip = t // mbp
            jp = t - ip * mbp
            keep = (phases[pair_id] > 0) | (ip < jp)
            pair_id, ip, jp = pair_id[keep], ip[keep], jp[keep]
            left = perm[starts[cell_a[pair_id]] + ip]
            right = perm[starts[cell_b[pair_id]] + jp]
            dx = xs[left] - xs[right]
            dy = ys[left] - ys[right]
            hit = dx * dx + dy * dy <= r_sq
            left, right, pair_id = left[hit], right[hit], pair_id[hit]
            op = cell_a[pair_id] * 5 + phases[pair_id]

        # Lay the surviving edges out in the grid builder's emission
        # order: by emitting bucket rank and phase, then by each
        # endpoint's position in its bucket (the nested loop indices).
        order = np.lexsort((pos[right], pos[left], op))
        indptr, indices = csr_from_edges(n, left[order], right[order])
        graph = CSRGraph.from_csr(tuple(pts), indptr, indices)
    if counting:
        cross = phases > 0
        pairs_tested = int((sizes * (sizes - 1) // 2).sum()) + int(
            (sizes[cell_a[cross]] * sizes[cell_b[cross]]).sum()
        )
        OBS.incr("udg.vector.pairs_tested", pairs_tested)
        OBS.incr("udg.vector.edges_emitted", graph.edge_count())
    return graph


def communication_radius_graph(
    points: Sequence[Point], radius: float
) -> Graph[Point]:
    """UDG with an explicit (non-unit) communication radius.

    Equivalent to rescaling coordinates; provided because the examples
    speak in meters rather than normalized units.
    """
    return unit_disk_graph(points, radius=radius)


def quasi_unit_disk_graph(
    points: Sequence[Point],
    inner_radius: float = 0.75,
    outer_radius: float = 1.0,
    seed: int = 0,
) -> Graph[Point]:
    """A quasi-UDG: edges certain up to ``inner_radius``, impossible
    beyond ``outer_radius``, and decided pseudo-randomly in between.

    The in-between coin is a deterministic hash of the endpoint
    coordinates and ``seed``, so the same inputs always give the same
    topology.  Used by the robustness experiments: the paper's
    guarantees assume an ideal UDG, and this lets us measure how the
    algorithms degrade when that assumption is violated.

    Shares the exact builders' input contract: duplicate points are
    rejected, and an instrumented run reports
    ``udg.quasi.pairs_tested`` / ``udg.quasi.edges_emitted``.
    """
    if not (0.0 < inner_radius <= outer_radius):
        raise ValueError("need 0 < inner_radius <= outer_radius")
    pts = _checked_points(points)
    graph: Graph[Point] = Graph(nodes=pts)
    inner_sq = inner_radius * inner_radius
    outer_sq = (outer_radius + EPS) * (outer_radius + EPS)
    with trace("udg.quasi.build"):
        for i in range(len(pts) - 1):
            pi = pts[i]
            for j in range(i + 1, len(pts)):
                pj = pts[j]
                dx, dy = pi.x - pj.x, pi.y - pj.y
                d_sq = dx * dx + dy * dy
                if d_sq > outer_sq:
                    continue
                if d_sq <= inner_sq:
                    graph.add_edge(pi, pj)
                    continue
                coin = hash((round(pi.x, 9), round(pi.y, 9), round(pj.x, 9), round(pj.y, 9), seed))
                if coin % 2 == 0:
                    graph.add_edge(pi, pj)
    if OBS.enabled:
        n = len(pts)
        OBS.incr("udg.quasi.pairs_tested", n * (n - 1) // 2)
        OBS.incr("udg.quasi.edges_emitted", graph.edge_count())
    return graph
