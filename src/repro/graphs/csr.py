"""Graphs built as CSR: a kernel view first, the dict adjacency on demand.

The vectorized UDG builder finds every edge with numpy.  Replaying
those edges through :meth:`Graph.add_edge` would cost one interpreted
step (and several ``Point`` hashes) per edge, and every solver would
then intern the dict straight back into CSR.  :class:`CSRGraph` skips
both trips: it is a :class:`Graph` that owns the builder's CSR arrays as
a ready :class:`~repro.graphs.array.ArrayGraph` (wrapping an
:class:`~repro.graphs.indexed.IndexedGraph`), and

* answers ``len``, iteration, ``nodes``, membership, ``neighbors``,
  ``edges``, ``edge_count``, ``copy`` and ``subgraph`` from the CSR;
* hands its views to :func:`~repro.graphs.backend.build_kernel` and
  ``IndexedGraph.from_graph`` (no re-interning);
* lets :func:`~repro.graphs.traversal.is_connected` and
  :func:`~repro.graphs.properties.is_connected_dominating_set` run on
  the arrays (:func:`is_connected` / :func:`is_connected_dominating_set`
  below);
* builds the dict adjacency only when something reads ``_adj`` — every
  other :class:`Graph` method — and drops the view on any mutation, so
  it never serves a stale CSR.

The CSR rows list each node's neighbors in the order ``add_edge`` would
have inserted them, so a ``CSRGraph`` is indistinguishable from the
dict graph the same edge sequence builds: node order, adjacency order,
and therefore every traversal and solver result.  The kernel-side
checks here are uncounted — they add nothing to the ``array.*``
counters the solvers report.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, TypeVar

import numpy as np

from .array import ArrayGraph, gather_rows
from .graph import Graph

N = TypeVar("N", bound=Hashable)

__all__ = [
    "CSRGraph",
    "csr_from_edges",
    "is_connected",
    "largest_component",
    "is_connected_dominating_set",
]


def csr_from_edges(
    n: int, left: np.ndarray, right: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of the undirected edges ``left[k]–right[k]``.

    Each row lists its neighbors in edge order — the per-row order
    ``Graph.add_edge`` gives when the edges are added in sequence to a
    graph whose nodes are ``0..n-1`` (edges must be distinct and free
    of self-loops).  Both directions of every edge are interleaved in
    edge order, then stably sorted by source row: sorting the distinct
    keys ``row * 2|E| + position`` gives the stable order with numpy's
    default sort, about three times faster than ``kind="stable"``.
    """
    m = 2 * left.size
    src = np.empty(m, dtype=np.int64)
    dst = np.empty_like(src)
    src[0::2] = left
    src[1::2] = right
    dst[0::2] = right
    dst[1::2] = left
    indices = dst[np.argsort(src * m + np.arange(m, dtype=np.int64))]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, indices


def _reach_count(
    indptr: np.ndarray, indices: np.ndarray, root: int, seen: np.ndarray
) -> int:
    """How many ids a BFS from ``root`` reaches without entering
    ``seen`` (updated in place; ``root`` itself counts)."""
    seen[root] = True
    frontier = np.array([root], dtype=np.int64)
    reached = 1
    while True:
        cand, _ = gather_rows(indptr, indices, frontier)
        cand = cand[~seen[cand]]
        if cand.size == 0:
            return reached
        frontier = np.unique(cand)
        seen[frontier] = True
        reached += frontier.size


def is_connected(view: ArrayGraph) -> bool:
    """Whether the view is connected (the empty graph is not)."""
    n = len(view)
    if n == 0:
        return False
    seen = np.zeros(n, dtype=bool)
    return _reach_count(view.indptr, view.indices, 0, seen) == n


def largest_component(view: ArrayGraph) -> np.ndarray:
    """Ids of the first largest connected component, ascending.

    Components are labelled by their smallest id: every edge whose ends
    carry different labels hooks the larger label onto the smaller, and
    pointer jumping then flattens the labels, until no edge joins two
    labels.  Ordered by label, the components come in first-node order,
    so ``argmax`` over their sizes picks the same component as
    ``max(connected_components(graph), key=len)``.
    """
    n = len(view)
    label = np.arange(n, dtype=np.int64)
    rows = np.repeat(label, view.degrees)
    forward = rows < view.indices
    rows, cols = rows[forward], view.indices[forward]
    while True:
        ends_a, ends_b = label[rows], label[cols]
        differ = ends_a != ends_b
        if not differ.any():
            break
        ends_a, ends_b = ends_a[differ], ends_b[differ]
        np.minimum.at(label, np.maximum(ends_a, ends_b), np.minimum(ends_a, ends_b))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
        rows, cols = rows[differ], cols[differ]
    return np.flatnonzero(label == np.argmax(np.bincount(label, minlength=n)))


def is_connected_dominating_set(view: ArrayGraph, chosen: set) -> bool:
    """:func:`repro.graphs.properties.is_connected_dominating_set` on the
    kernel, for a non-empty ``chosen`` set.

    One gather marks everything the members dominate; connectivity is a
    BFS that never leaves the members.  A member that is not a node of
    the view makes the set invalid, as in the dict check.
    """
    try:
        ids = np.fromiter(
            map(view.id_of, chosen), dtype=np.int64, count=len(chosen)
        )
    except KeyError:
        return False
    members = np.zeros(len(view), dtype=bool)
    members[ids] = True
    dominated = members.copy()
    dominated[gather_rows(view.indptr, view.indices, ids)[0]] = True
    if not dominated.all():
        return False
    if ids.size == 1:
        return True
    return _reach_count(view.indptr, view.indices, int(ids[0]), ~members) == ids.size


def _plain_graph(adj: dict) -> Graph:
    """Unpickle a detached :class:`CSRGraph` as the dict graph it is."""
    graph: Graph = Graph()
    graph._adj = adj
    return graph


class CSRGraph(Graph[N]):
    """A :class:`Graph` held as an :class:`ArrayGraph` kernel view.

    The ``_adj`` slot stays unset until first read, when
    :meth:`__getattr__` builds the dict from the CSR; from then on every
    inherited method runs unchanged.  A mutation materializes the dict
    first and drops the view, after which the instance is an ordinary
    dict graph.
    """

    __slots__ = ("_view",)

    def __init__(self, view: ArrayGraph[N]):
        self._view = view

    @classmethod
    def from_csr(
        cls, nodes: tuple, indptr: np.ndarray, indices: np.ndarray
    ) -> "CSRGraph[N]":
        """The graph over ``nodes`` whose row ``i`` is
        ``indices[indptr[i]:indptr[i+1]]`` (``int64`` arrays)."""
        return cls(ArrayGraph.from_csr(nodes, indptr, indices))

    def __getattr__(self, name: str):
        # Only reached while the _adj slot is unset: build the dict once.
        if name != "_adj":
            raise AttributeError(name)
        view = self._view
        nodes = view.nodes
        bounds = view.indptr.tolist()
        flat = list(map(nodes.__getitem__, view.indices.tolist()))
        self._adj = {
            node: dict.fromkeys(flat[lo:hi])
            for node, lo, hi in zip(nodes, bounds, bounds[1:])
        }
        return self._adj

    def __reduce__(self):
        view = self._view
        if view is None:
            return _plain_graph, (self._adj,)
        return CSRGraph.from_csr, (view.nodes, view.indptr, view.indices)

    # -- mutation: materialize, then drop the view ---------------------------

    def _detach(self) -> None:
        if self._view is not None:
            self._adj  # noqa: B018 - builds the dict from the view
            self._view = None

    def add_node(self, node: N) -> None:
        self._detach()
        super().add_node(node)

    def add_edge(self, u: N, v: N) -> None:
        self._detach()
        super().add_edge(u, v)

    def remove_node(self, node: N) -> None:
        self._detach()
        super().remove_node(node)

    def remove_edge(self, u: N, v: N) -> None:
        self._detach()
        super().remove_edge(u, v)

    # -- queries answered from the CSR ----------------------------------------

    def __contains__(self, node: N) -> bool:
        view = self._view
        if view is None:
            return node in self._adj
        return node in view

    def __len__(self) -> int:
        view = self._view
        return len(self._adj) if view is None else len(view)

    def __iter__(self) -> Iterator[N]:
        view = self._view
        return iter(self._adj) if view is None else iter(view.nodes)

    def nodes(self) -> list[N]:
        view = self._view
        return list(self._adj) if view is None else list(view.nodes)

    def neighbors(self, node: N) -> list[N]:
        view = self._view
        if view is None:
            return list(self._adj[node])
        i = view.id_of(node)
        indptr = view.indptr
        row = view.indices[indptr[i] : indptr[i + 1]]
        return list(map(view.nodes.__getitem__, row.tolist()))

    def edges(self) -> list[tuple[N, N]]:
        view = self._view
        if view is None:
            return super().edges()
        # Graph.edges reports (u, v) when v's row comes later in node
        # order: exactly the CSR entries whose column exceeds their row.
        rows = np.repeat(np.arange(len(view), dtype=np.int64), view.degrees)
        forward = view.indices > rows
        get = view.nodes.__getitem__
        return list(
            zip(
                map(get, rows[forward].tolist()),
                map(get, view.indices[forward].tolist()),
            )
        )

    def edge_count(self) -> int:
        view = self._view
        return super().edge_count() if view is None else view.edge_count()

    # -- derived graphs ------------------------------------------------------------

    def subgraph(self, nodes: Iterable[N]) -> "Graph[N]":
        """The induced subgraph, as a CSR graph when the view is live
        (same node and adjacency order as :meth:`Graph.subgraph`)."""
        view = self._view
        if view is None:
            return super().subgraph(nodes)
        n = len(view)
        keep = np.zeros(n, dtype=bool)
        ids = view.indexed._ids  # noqa: SLF001 - same-package fast path
        keep[[ids[v] for v in nodes if v in ids]] = True
        kept = np.flatnonzero(keep)
        renumber = np.full(n, -1, dtype=np.int64)
        renumber[kept] = np.arange(kept.size, dtype=np.int64)
        rows = np.repeat(np.arange(n, dtype=np.int64), view.degrees)
        live = keep[rows] & keep[view.indices]
        indptr = np.zeros(kept.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[live], minlength=n)[kept], out=indptr[1:])
        get = view.nodes.__getitem__
        return CSRGraph.from_csr(
            tuple(map(get, kept.tolist())), indptr, renumber[view.indices[live]]
        )

    def copy(self) -> "Graph[N]":
        """An independent graph; a live view is shared (it is frozen)."""
        view = self._view
        return super().copy() if view is None else CSRGraph(view)
