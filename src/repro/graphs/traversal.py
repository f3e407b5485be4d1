"""Graph traversals: BFS orders, BFS trees, components, distances.

Phase 1 of both two-phased algorithms selects the MIS "in the first-fit
manner in the breadth-first-search ordering" of a rooted spanning tree
(Section III), and the WAF connector phase uses the *parents* of that
tree — so rooted BFS trees with explicit parent maps are first-class
objects here.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Generic, Hashable, Iterable, TypeVar

from .graph import Graph
from .indexed import IndexedGraph

N = TypeVar("N", bound=Hashable)

__all__ = [
    "BFSTree",
    "bfs_order",
    "bfs_tree",
    "dfs_tree",
    "indexed_bfs_tree",
    "connected_components",
    "largest_component",
    "is_connected",
    "shortest_path_lengths",
    "eccentricity",
    "induced_is_connected",
]


@dataclass(frozen=True)
class BFSTree(Generic[N]):
    """A rooted BFS spanning tree of (one component of) a graph.

    Attributes:
        root: the root node.
        order: nodes in BFS visit order (root first).  Ties within a
            level are broken by the parent's adjacency order, so the
            order is deterministic for a fixed graph construction.
        parent: maps each non-root node to its tree parent.
        depth: maps each node to its hop distance from the root.
    """

    root: N
    order: tuple[N, ...]
    parent: dict[N, N] = field(repr=False)
    depth: dict[N, int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.order)

    def children(self) -> dict[N, list[N]]:
        """Child lists per node, in BFS order."""
        kids: dict[N, list[N]] = {n: [] for n in self.order}
        for child in self.order:
            if child != self.root:
                kids[self.parent[child]].append(child)
        return kids

    def path_to_root(self, node: N) -> list[N]:
        """The tree path from ``node`` up to (and including) the root."""
        path = [node]
        while path[-1] != self.root:
            path.append(self.parent[path[-1]])
        return path


def bfs_order(graph: Graph[N], root: N) -> list[N]:
    """Nodes of ``root``'s component in BFS order."""
    return list(bfs_tree(graph, root).order)


def bfs_tree(graph: Graph[N], root: N) -> BFSTree[N]:
    """BFS spanning tree of the component containing ``root``.

    Raises:
        KeyError: if ``root`` is not in the graph.
    """
    if root not in graph:
        raise KeyError(f"root {root!r} not in graph")
    parent: dict[N, N] = {}
    depth: dict[N, int] = {root: 0}
    order: list[N] = [root]
    queue: deque[N] = deque([root])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if v not in depth:
                depth[v] = depth[u] + 1
                parent[v] = u
                order.append(v)
                queue.append(v)
    return BFSTree(root=root, order=tuple(order), parent=parent, depth=depth)


def indexed_bfs_tree(index: IndexedGraph[N], root: N) -> BFSTree[N]:
    """BFS spanning tree computed on the CSR kernel.

    Produces a :class:`BFSTree` bit-identical to
    ``bfs_tree(graph, root)`` on the source graph — the kernel preserves
    iteration and adjacency order — while the traversal itself runs on
    flat integer arrays (no per-step hash lookups).

    Raises:
        KeyError: if ``root`` is not in the indexed graph.
    """
    nodes = index.nodes
    order_ids, parent_ids, depth_ids = index.bfs(index.id_of(root))
    parent = {
        nodes[v]: nodes[parent_ids[v]] for v in order_ids if parent_ids[v] >= 0
    }
    depth = {nodes[v]: depth_ids[v] for v in order_ids}
    return BFSTree(
        root=root,
        order=tuple(nodes[v] for v in order_ids),
        parent=parent,
        depth=depth,
    )


def dfs_tree(graph: Graph[N], root: N) -> BFSTree[N]:
    """DFS (preorder) spanning tree of the component containing ``root``.

    Returned in the same container as :func:`bfs_tree`; ``order`` is the
    preorder, ``depth`` the tree depth (not the hop distance).  Section
    III allows an *arbitrary* rooted spanning tree for the WAF
    algorithm; the ablation benchmarks compare BFS against DFS trees.

    Raises:
        KeyError: if ``root`` is not in the graph.
    """
    if root not in graph:
        raise KeyError(f"root {root!r} not in graph")
    parent: dict[N, N] = {}
    depth: dict[N, int] = {root: 0}
    order: list[N] = []
    stack: list[N] = [root]
    seen: set[N] = {root}
    while stack:
        u = stack.pop()
        order.append(u)
        # Reverse so the first-listed neighbor is explored first.
        for v in reversed(graph.neighbors(u)):
            if v not in seen:
                seen.add(v)
                parent[v] = u
                depth[v] = depth[u] + 1
                stack.append(v)
    return BFSTree(root=root, order=tuple(order), parent=parent, depth=depth)


def connected_components(graph: Graph[N]) -> list[list[N]]:
    """Connected components, each in BFS order, in first-node order."""
    seen: set[N] = set()
    comps: list[list[N]] = []
    for start in graph:
        if start in seen:
            continue
        comp = bfs_order(graph, start)
        seen.update(comp)
        comps.append(comp)
    return comps


def largest_component(graph: Graph[N]) -> list[N]:
    """The first largest connected component, in graph node order.

    "First" is in first-node order, as ``max(connected_components(graph),
    key=len)`` picks it.  A graph built as CSR is labelled on its kernel
    view, without building its dict.
    """
    view = getattr(graph, "_view", None)
    if view is not None:
        from .csr import largest_component as kernel_largest_component

        get = view.nodes.__getitem__
        return list(map(get, kernel_largest_component(view).tolist()))
    comps = connected_components(graph)
    if not comps:
        return []
    biggest = set(max(comps, key=len))
    return [v for v in graph if v in biggest]


def is_connected(graph: Graph[N]) -> bool:
    """Whether the graph is connected.  The empty graph is not.

    A graph built as CSR (:class:`~repro.graphs.csr.CSRGraph`) is
    checked on its kernel view, without building its dict.
    """
    view = getattr(graph, "_view", None)
    if view is not None:
        from .csr import is_connected as kernel_is_connected

        return kernel_is_connected(view)
    if len(graph) == 0:
        return False
    first = next(iter(graph))
    return len(bfs_order(graph, first)) == len(graph)


def induced_is_connected(graph: Graph[N], nodes: Iterable[N]) -> bool:
    """Whether ``G[nodes]`` is connected (empty set: False)."""
    return is_connected(graph.subgraph(nodes))


def shortest_path_lengths(graph: Graph[N], source: N) -> dict[N, int]:
    """Hop distances from ``source`` to every reachable node."""
    return dict(bfs_tree(graph, source).depth)


def eccentricity(graph: Graph[N], node: N) -> int:
    """Largest hop distance from ``node`` within its component."""
    return max(bfs_tree(graph, node).depth.values())
