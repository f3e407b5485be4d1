"""Unit-disk graphs.

The communication topology of a wireless ad hoc network with all
transmission radii normalized to one: nodes are planar points, and two
nodes are adjacent iff their Euclidean distance is at most one
(Section I of the paper).

Three exact builders are provided: the obvious quadratic one, a
grid-bucketed one that only tests pairs in neighboring buckets —
expected linear time for bounded-density deployments, which is what
makes the larger benchmark sweeps feasible — and a vectorized one for
the 10⁵–10⁶-node decade, which tests the same bucket pairs, in the
same order, as one numpy scan expanded a fixed-size chunk of candidate
pairs at a time, and returns the edges as CSR arrays: a
:class:`~repro.graphs.csr.CSRGraph` that owns them as a ready kernel
view and builds its dict adjacency only if something asks for it.
:func:`unit_disk_graph` dispatches to the vectorized builder from
:data:`GRID_VECTOR_N` nodes.  A quasi-UDG variant (edges certain below
an inner radius, absent above 1, arbitrary — here: pseudorandom — in
between) is included for robustness experiments, since real radios are
not perfect disks.

Every builder rejects duplicate points (two radios at identical
coordinates collapse into one UDG node, corrupting size accounting) and
non-finite coordinates (a ``nan`` or ``inf`` position has no disk), and
names the offending point in the message.
When :data:`repro.obs.OBS` is enabled, the exact builders report
``udg.<builder>.pairs_tested`` vs ``udg.<builder>.edges_emitted`` — the
quantities that make the naive-vs-grid trade-off measurable instead of
folklore — and the bucket builders add
``udg.<builder>.boundary_pairs_tested`` on inputs whose boundary pass
tests anything.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

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

#: Candidate pairs the vectorized builder expands per numpy batch.  Big
#: enough that the per-batch overhead vanishes at 10⁵ nodes, small enough
#: that the temporaries (a dozen ``int64``/``float64`` arrays of this
#: length) stay a few tens of MB however many pairs the scan tests.
_SCAN_CHUNK = 1 << 18


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


def _boundary_pairs(
    xs: np.ndarray, ys: np.ndarray, radius: float, tol: float, r_sq: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """The edges whose endpoints sit two buckets apart along one axis.

    The edge test accepts distances up to ``radius + tol``, but the
    bucket scan only tests a bucket against itself and its eight
    neighbors, so a pair at a distance in ``(radius, radius + tol]``
    whose endpoints straddle a whole bucket — ``(1 − ulp, 0.5)`` and
    ``(2.0, 0.5)`` — is never tested.  Such a pair has one endpoint
    within ``tol`` (plus rounding slack) below a bucket line and the
    other within the same band above the line two buckets over, so only
    points in those bands are paired up: along ``x`` first, then along
    ``y``, with the other axis's buckets at most one apart, through the
    exact edge predicate of the bucket scan.  On a bounded-density
    input without such points this is a few vector passes that pair
    nothing; the pairs it finds were never tested before, so every
    input without them keeps its edges, their emission order and its
    counters.  Assumes ``tol < (√2 − 1)·radius``: no edge then spans
    three buckets, or two along both axes.

    Returns ``(left, right, tested)``: the edges found as index pairs,
    the lower-bucket endpoint on the left, sorted by ``(left, right)``
    within each axis, and the number of pairs tested.  Both bucket
    builders append these edges after their scan, so their outputs stay
    bit-identical.
    """
    u = xs / radius
    v = ys / radius
    fu = np.floor(u)
    fv = np.floor(v)
    # The bucket division rounds; 64 ulps of the largest bucket
    # coordinate bound how far that can move a point across a line.
    scale = float(max(np.abs(fu).max(), np.abs(fv).max())) + 2.0
    band = max(tol, 0.0) / radius + 64.0 * np.finfo(np.float64).eps * scale
    lefts = []
    rights = []
    tested = 0
    for frac, along, across in (
        (u - fu, fu.astype(np.int64), fv.astype(np.int64)),
        (v - fv, fv.astype(np.int64), fu.astype(np.int64)),
    ):
        upper = np.flatnonzero(frac >= 1.0 - band)
        lower = np.flatnonzero(frac <= band)
        if not (upper.size and lower.size):
            continue
        # Look the lower-band points up by (bucket along, bucket across).
        low = int(across.min()) - 1
        width = int(across.max()) - low + 2
        keys = along[lower] * width + (across[lower] - low)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        lower = lower[order]
        base = (along[upper] + 2) * width + (across[upper] - low)
        targets = (base[:, None] + np.arange(-1, 2, dtype=np.int64)).ravel()
        begin = np.searchsorted(keys, targets, side="left")
        count = np.searchsorted(keys, targets, side="right") - begin
        total = int(count.sum())
        if not total:
            continue
        tested += total
        left = np.repeat(np.repeat(upper, 3), count)
        first = np.repeat(begin - (np.cumsum(count) - count), count)
        right = lower[np.arange(total, dtype=np.int64) + first]
        dx = xs[left] - xs[right]
        dy = ys[left] - ys[right]
        hit = dx * dx + dy * dy <= r_sq
        left, right = left[hit], right[hit]
        emit = np.lexsort((right, left))
        lefts.append(left[emit])
        rights.append(right[emit])
    if not lefts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, tested
    return np.concatenate(lefts), np.concatenate(rights), tested


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
    linear in ``n`` for bounded density.  The edge test accepts
    distances up to ``radius + tol``, so a pair whose endpoints sit two
    buckets apart can still be an edge; a boundary pass after the
    bucket scan (:func:`_boundary_pairs`) tests exactly those pairs.
    Below :data:`GRID_SMALL_N`
    nodes the builder dispatches to the all-pairs scan — same trace and
    counter names (with truthful all-pairs values), and output there is
    bit-identical to the naive builder's, adjacency order included.

    At and above :data:`GRID_VECTOR_N` nodes the builder dispatches to
    :func:`unit_disk_graph_vectorized` — bit-identical output again
    (node order, adjacency order, everything), with the pair testing
    done in chunked numpy batches instead of per-pair interpreted loops.

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
        left, right, boundary_tested = _boundary_pairs(
            np.fromiter((p.x for p in pts), dtype=np.float64, count=n),
            np.fromiter((p.y for p in pts), dtype=np.float64, count=n),
            radius,
            tol,
            r_sq,
        )
        for i, j in zip(left.tolist(), right.tolist()):
            add_edge(pts[i], pts[j])
    if counting:
        OBS.incr("udg.grid.pairs_tested", pairs_tested)
        if boundary_tested:
            OBS.incr("udg.grid.boundary_pairs_tested", boundary_tested)
        OBS.incr("udg.grid.edges_emitted", graph.edge_count())
    return graph


def _checked_points(points: Sequence[Point]) -> list[Point]:
    """Materialize and validate a deployment: duplicates and non-finite
    coordinates are errors.

    Shared by every builder so their input contract is identical (see
    ``docs/usage.md`` §1).  A ``nan`` or ``inf`` coordinate would
    otherwise become an isolated node — silently dropped by the
    largest-component fallback — or, in the vectorized builder, an
    undefined integer bucket key.  A duplicate is reported as the first
    point, in input order, that repeats an earlier one; it is searched
    for only once the set-size test has failed, so accepted inputs pay
    for one set build and nothing more.
    """
    pts = list(points)
    isfinite = math.isfinite
    for p in pts:
        if not (isfinite(p.x) and isfinite(p.y)):
            raise ValueError(f"non-finite coordinates in UDG input: {p!r}")
    if len(set(pts)) != len(pts):
        seen: set[Point] = set()
        for p in pts:
            if p in seen:
                raise ValueError(f"duplicate points in UDG input: {p!r}")
            seen.add(p)
    return pts


def _coordinate_arrays(
    points: Sequence[Point],
) -> tuple[list[Point], np.ndarray, np.ndarray]:
    """The deployment and its coordinates as ``float64`` arrays, validated.

    The same contract as :func:`_checked_points`, tested on the arrays:
    ``isfinite``, then a lexicographic sort in which equal points become
    neighbors.  When either test finds something, the set-based check
    runs and raises its exact exception; if it finds nothing (distinct
    coordinates that round to the same ``float64``), the arrays stand.
    """
    pts = list(points)
    n = len(pts)
    xs = np.fromiter((p.x for p in pts), dtype=np.float64, count=n)
    ys = np.fromiter((p.y for p in pts), dtype=np.float64, count=n)
    suspect = not (np.isfinite(xs).all() and np.isfinite(ys).all())
    if not suspect:
        order = np.lexsort((ys, xs))
        sx, sy = xs[order], ys[order]
        suspect = bool(((sx[1:] == sx[:-1]) & (sy[1:] == sy[:-1])).any())
    if suspect:
        _checked_points(pts)
    return pts, xs, ys


def unit_disk_graph_vectorized(
    points: Sequence[Point], radius: float = 1.0, tol: float = EPS
) -> Graph[Point]:
    """UDG built with vectorized pair testing; bit-identical to the grid.

    The builder the 10⁵–10⁶-node fixtures need: the same grid bucketing
    as :func:`unit_disk_graph`, but with every per-pair step executed
    as numpy array operations instead of interpreted loops.  The output
    is **bit-identical** to the grid builder's at every size — node
    order, adjacency insertion order, everything.

    The grid builder visits, for each bucket in first-appearance order,
    the bucket with itself (scan phase 0) and then each existing
    half-neighborhood bucket in :data:`_GRID_DIRECTIONS` order (phases
    1–4), testing every point pair of each bucket pair in nested-loop
    order.  This builder lists the same bucket pairs in the same order
    and numbers their point pairs consecutively, so candidate ``k`` of
    the flat sequence is the ``k``-th pair the grid tests.  The
    sequence is expanded :data:`_SCAN_CHUNK` candidates at a time —
    within-bucket pairs filtered to the strict upper triangle,
    everything by the grid's exact squared-distance predicate — and
    the surviving edges come out already in the grid's emission order.
    The boundary pass both bucket builders share
    (:func:`_boundary_pairs`) appends the edges between points two
    buckets apart.  They become CSR rows directly
    (:func:`csr_from_edges` keeps each row in emission order, as
    ``add_edge`` would), and the result is a
    :class:`~repro.graphs.csr.CSRGraph` owning them as a ready kernel
    view; its dict adjacency is built only on first use.  Below
    :data:`GRID_SMALL_N` nodes, or for a non-positive radius, the
    result is a plain :class:`Graph`.  The hypothesis suites in
    ``tests/graphs/test_udg_vectorized.py`` and
    ``tests/graphs/test_csr.py`` pin the equivalence.

    Counters: ``udg.vector.pairs_tested`` (the point pairs the grid
    scan tests, from the bucket sizes), ``udg.vector.edges_emitted``,
    and ``udg.vector.boundary_pairs_tested`` when the boundary pass
    tests any pair.

    Raises:
        ValueError: on duplicate points or non-finite coordinates, with
            the message :func:`unit_disk_graph` gives.
    """
    pts, xs, ys = _coordinate_arrays(points)
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
    with trace("udg.vector.build"):
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
        cells = uniq.size
        appearance = np.argsort(first_idx, kind="stable")
        rank_of = np.empty(cells, dtype=np.int64)
        rank_of[appearance] = np.arange(cells, dtype=np.int64)
        # Bucket membership: perm groups point ids by cell rank (stable,
        # so within a bucket they keep input order, like the grid's
        # per-cell lists).
        cell_rank = rank_of[inv]
        perm = np.argsort(cell_rank, kind="stable")
        sizes = np.bincount(cell_rank, minlength=cells)
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        # The bucket pairs the grid scan visits, in its order: slot
        # rank * 5 + phase holds the partner of bucket ``rank`` in that
        # phase — itself in phase 0, the half-neighborhood bucket found
        # by key lookup in phases 1-4 — or -1 where there is none.
        keys_by_rank = uniq[appearance]
        partner = np.full((cells, 5), -1, dtype=np.int64)
        partner[:, 0] = np.arange(cells, dtype=np.int64)
        for phase, (ox, oy) in enumerate(_GRID_DIRECTIONS, start=1):
            nbr = keys_by_rank + ox * width + oy
            loc = np.minimum(np.searchsorted(uniq, nbr), cells - 1)
            found = uniq[loc] == nbr
            partner[found, phase] = rank_of[loc[found]]
        partner = partner.ravel()
        slots = np.flatnonzero(partner >= 0)
        cell_a = slots // 5
        cell_b = partner[slots]
        within = slots % 5 == 0
        counts = sizes[cell_a] * sizes[cell_b]
        ends = np.cumsum(counts)
        begins = ends - counts
        total = int(ends[-1])
        # Expand the flat candidate sequence chunk by chunk: each chunk
        # covers candidates [lo, hi), clipped from the bucket pairs that
        # overlap it, so memory stays bounded however large the input.
        lefts = []
        rights = []
        for lo in range(0, total, _SCAN_CHUNK):
            hi = min(lo + _SCAN_CHUNK, total)
            first = int(np.searchsorted(ends, lo, side="right"))
            last = int(np.searchsorted(ends, hi - 1, side="right")) + 1
            span = np.minimum(ends[first:last], hi) - np.maximum(
                begins[first:last], lo
            )
            pair_id = np.repeat(np.arange(first, last, dtype=np.int64), span)
            t = np.arange(lo, hi, dtype=np.int64) - begins[pair_id]
            mb = sizes[cell_b[pair_id]]
            ip = t // mb
            jp = t - ip * mb
            keep = ~within[pair_id] | (ip < jp)
            pair_id, ip, jp = pair_id[keep], ip[keep], jp[keep]
            left = perm[starts[cell_a[pair_id]] + ip]
            right = perm[starts[cell_b[pair_id]] + jp]
            dx = xs[left] - xs[right]
            dy = ys[left] - ys[right]
            hit = dx * dx + dy * dy <= r_sq
            lefts.append(left[hit])
            rights.append(right[hit])
        left, right, boundary_tested = _boundary_pairs(xs, ys, radius, tol, r_sq)
        lefts.append(left)
        rights.append(right)
        indptr, indices = csr_from_edges(
            n, np.concatenate(lefts), np.concatenate(rights)
        )
        graph = CSRGraph.from_csr(tuple(pts), indptr, indices)
    if counting:
        pairs_tested = int((sizes * (sizes - 1) // 2).sum()) + int(
            counts[~within].sum()
        )
        OBS.incr("udg.vector.pairs_tested", pairs_tested)
        if boundary_tested:
            OBS.incr("udg.vector.boundary_pairs_tested", boundary_tested)
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
