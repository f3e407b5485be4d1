"""A small, dependency-free undirected graph.

All algorithms in this reproduction run on this adjacency-set graph
rather than on networkx: the point is to *implement* the paper's
machinery, and the tests cross-validate against networkx where it
overlaps.  Nodes may be any hashable values — the UDG builders use
:class:`repro.geometry.Point` nodes, the distributed simulator uses
integer ids.

The structure is deliberately minimal: no attributes, no multi-edges,
no directed edges.  Everything the CDS algorithms need is neighborhood
queries, induced subgraphs and iteration in deterministic order.
"""

from __future__ import annotations

from typing import Generic, Hashable, Iterable, Iterator, TypeVar

N = TypeVar("N", bound=Hashable)

__all__ = ["Graph"]


class Graph(Generic[N]):
    """An undirected simple graph over hashable nodes.

    Insertion order of nodes is preserved (adjacency is stored in
    dicts), which keeps every algorithm in the library deterministic
    for a given construction sequence.
    """

    __slots__ = ("_adj",)

    #: The kernel view a graph built as CSR owns while it still
    #: describes the graph (:class:`~repro.graphs.csr.CSRGraph`); a
    #: class-level ``None`` for every dict-built graph, so reading it
    #: costs a plain graph one attribute lookup.
    _view = None

    def __init__(self, edges: Iterable[tuple[N, N]] = (), nodes: Iterable[N] = ()):
        self._adj: dict[N, dict[N, None]] = {}
        for node in nodes:
            self.add_node(node)
        for u, v in edges:
            self.add_edge(u, v)

    # -- construction --------------------------------------------------------

    def add_node(self, node: N) -> None:
        """Add a node (no-op if already present)."""
        if node not in self._adj:
            self._adj[node] = {}

    def add_edge(self, u: N, v: N) -> None:
        """Add an undirected edge, creating endpoints as needed.

        Self-loops are rejected: a UDG in this paper's model never has
        them and allowing them would silently corrupt domination checks.
        """
        if u == v:
            raise ValueError(f"self-loop at {u!r} is not allowed")
        self.add_node(u)
        self.add_node(v)
        self._adj[u][v] = None
        self._adj[v][u] = None

    def remove_node(self, node: N) -> None:
        """Remove a node and its incident edges.

        Raises:
            KeyError: if the node is absent.
        """
        for neighbor in self._adj[node]:
            del self._adj[neighbor][node]
        del self._adj[node]

    def remove_edge(self, u: N, v: N) -> None:
        """Remove an edge.

        Raises:
            KeyError: if the edge is absent.
        """
        del self._adj[u][v]
        del self._adj[v][u]

    # -- queries --------------------------------------------------------------

    def __contains__(self, node: N) -> bool:
        return node in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[N]:
        return iter(self._adj)

    def nodes(self) -> list[N]:
        """All nodes, in insertion order."""
        return list(self._adj)

    def edges(self) -> list[tuple[N, N]]:
        """Each undirected edge once, as ``(u, v)`` in first-seen order."""
        seen: set[N] = set()
        result: list[tuple[N, N]] = []
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if v not in seen:
                    result.append((u, v))
            seen.add(u)
        return result

    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def has_edge(self, u: N, v: N) -> bool:
        return u in self._adj and v in self._adj[u]

    def neighbors(self, node: N) -> list[N]:
        """Neighbors of a node, in insertion order.

        Raises:
            KeyError: if the node is absent.
        """
        return list(self._adj[node])

    def neighbor_set(self, node: N) -> set[N]:
        return set(self._adj[node])

    def degree(self, node: N) -> int:
        return len(self._adj[node])

    def closed_neighborhood(self, node: N) -> set[N]:
        """The node together with its neighbors (``N[v]``)."""
        closed = set(self._adj[node])
        closed.add(node)
        return closed

    def max_degree(self) -> int:
        """Maximum degree; 0 for the empty graph."""
        return max((len(nbrs) for nbrs in self._adj.values()), default=0)

    # -- derived graphs --------------------------------------------------------

    def subgraph(self, nodes: Iterable[N]) -> "Graph[N]":
        """The induced subgraph ``G[nodes]``.

        Unknown nodes are ignored, matching the set-algebra style the
        CDS algorithms use (``G[I ∪ C]`` with ``C`` still growing).
        """
        keep = {n for n in nodes if n in self._adj}
        sub: Graph[N] = Graph()
        for n in self._adj:
            if n in keep:
                sub.add_node(n)
        for u in sub._adj:
            for v in self._adj[u]:
                if v in keep:
                    sub._adj[u][v] = None
        return sub

    def copy(self) -> "Graph[N]":
        dup: Graph[N] = Graph()
        for n, nbrs in self._adj.items():
            dup._adj[n] = dict(nbrs)
        return dup

    def __repr__(self) -> str:
        return f"Graph(|V|={len(self)}, |E|={self.edge_count()})"
