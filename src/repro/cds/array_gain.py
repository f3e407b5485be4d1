"""Vectorized gain maximisation for the Section IV greedy.

The array-kernel counterpart of
:class:`~repro.cds.lazy_gain.LazyGainTracker` and
:class:`~repro.cds.bitset_gain.BitsetGainTracker`.  The bitset tracker
owns the mid range, but both its memory and its per-round cost scale
with ``n`` (``n²/8``-byte masks, ``⌈n/64⌉``-word ops per whole-mask
step): at ``n = 10⁶`` the masks alone would be 125 GB.  This tracker
keeps every per-round step proportional to the *work actually caused*
by the round — no ``O(n)`` or ``O(n/64)`` term anywhere — and batches
the remaining element work through numpy:

* **Eager component labels.**  ``comp_id`` maps every included id to
  its component's root eagerly (weighted relabel on merge: the smaller
  member list is rewritten with one vectorized scatter, ``O(n log n)``
  ids moved over a whole run), so re-scoring never walks a union-find —
  a candidate batch's adjacent components are one gather plus one sort
  of ``owner·n + root`` keys, deduplicated by a neighbour compare.

* **Batched re-scoring over the dirty frontier.**  Invalidated
  candidates accumulate between selections and are re-scored as one
  vectorized batch: gather all their neighbor rows
  (:func:`~repro.graphs.array.gather_rows`), keep the included ones,
  count distinct ``(candidate, root)`` pairs, and write the new gains
  into the gain cache.  ``gain.evaluations`` keeps its meaning —
  candidates actually re-scored.

* **Watcher lists with a base-exempt pop.**  Like the lazy tracker,
  each scored candidate with gain ≥ 1 registers under the roots it
  counted; unlike it, a merge never pops the *surviving* (base) root's
  list.  Exactness argument: a candidate's count can only change if it
  is adjacent to two or more of the merging parts — so it is registered
  under at least one non-base part — or if it neighbors the added node
  ``w`` (both sources are invalidated).  Gain-0 candidates never
  register at all: with one adjacent component, only a new included
  neighbor can change their count, and ``N(w)`` is always invalidated.
  This is what removes the lazy tracker's giant-component pathology
  without the bitset tracker's whole-mask overlap algebra.

* **Lazy integer-keyed heaps per tie-break.**  Selection pops a min-heap
  of plain ``int`` keys, one per entry, that order exactly as the
  ``(gain, tie-break)`` preference does: ``(n−g)·n + rank`` for
  ``"min"``, ``(n−g)·n + (n−1−rank)`` for ``"max"`` and
  ``((n−g)·n + (n−1−deg))·n + rank`` for ``"degree"`` (rank = position
  in ascending node value order, exactly the bitset tracker's level
  bit space; ``divmod`` decodes gain and id).  An entry is stale when
  its gain differs from the cached one (an included id caches 0) and is
  discarded on pop.  A re-scored candidate is pushed **only when its
  gain changed**: entries leave a heap only when stale and the winner
  is never re-scored, so every cached gain ≥ 1 already has a live
  entry.  Graphs whose nodes are not mutually orderable fall back to
  the lazy tracker's explicit ascending-id scan with value comparisons.

Selections are **bit-identical** to both other trackers (and so to the
reference :class:`~repro.cds.gain.GainTracker`) under every tie-break
mode; the randomized suite in ``tests/cds/test_array_gain.py`` pins the
full ``(node, gain)`` sequence across all three kernels.  Counters:
``gain.dsu_unions`` keeps its per-merge meaning, ``gain.evaluations``
counts re-scored candidates, and the vector paths report
``array.rescore_batches`` / ``array.gather_elements``.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from operator import attrgetter
from typing import Hashable, Iterable, Sequence, TypeVar

import numpy as np

from ..geometry.point import Point
from ..graphs.array import ArrayGraph, gather_rows
from ..graphs.bitset import value_sort_keys
from ..obs import OBS
from .gain import _smaller

N = TypeVar("N", bound=Hashable)

__all__ = ["ArrayGainTracker", "value_order"]

_x_of = attrgetter("x")
_y_of = attrgetter("y")


def value_order(nodes: Sequence) -> list[int] | None:
    """Ids ``0..n-1`` sorted by node value, or ``None`` if the nodes
    are not mutually orderable.

    Equal to ``sorted(range(n), key=nodes.__getitem__)``.  When every
    node is a :class:`~repro.geometry.point.Point` with finite ``float``
    coordinates (every deployment), the order is one stable
    ``np.lexsort`` of the coordinate arrays; any other sequence (int
    or tuple nodes, int coordinates, ``nan``/``inf``) is sorted by
    value, as before.
    """
    n = len(nodes)
    if n and set(map(type, nodes)) == {Point}:
        xl = list(map(_x_of, nodes))
        yl = list(map(_y_of, nodes))
        if set(map(type, xl)) == {float} and set(map(type, yl)) == {float}:
            xs = np.array(xl, dtype=np.float64)
            ys = np.array(yl, dtype=np.float64)
            if np.isfinite(xs).all() and np.isfinite(ys).all():
                return np.lexsort((ys, xs)).tolist()
    try:
        return sorted(range(n), key=value_sort_keys(nodes).__getitem__)
    except TypeError:
        return None


def _distinct(sorted_ids: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array (``np.unique`` without
    its re-sort)."""
    if sorted_ids.size < 2:
        return sorted_ids
    keep = np.empty(sorted_ids.size, dtype=bool)
    keep[0] = True
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=keep[1:])
    return sorted_ids[keep]


class ArrayGainTracker:
    """Incremental components of ``G[I ∪ U]`` on numpy CSR arrays.

    Same constructor contract, :meth:`add` / :meth:`best_connector`
    semantics and error cases as the other trackers; only the data
    layout (dense numpy arrays, batched re-scoring) differs.

    Args:
        array: the array-kernel view of the full topology ``G``.
        dominators: the phase-1 MIS ``I`` (any dominating set works;
            adjacent dominator pairs are merged permissively).
    """

    __slots__ = (
        "_array",
        "_index",
        "_indptr",
        "_indices",
        "_n",
        "_order",
        "_valrank",
        "_included",
        "_included_count",
        "_dominators",
        "_comp_id",
        "_members",
        "_components",
        "_watchers",
        "_gains",
        "_pending",
        "_heaps",
    )

    def __init__(self, array: ArrayGraph[N], dominators: Iterable[N]):
        self._array = array
        index = array.indexed
        self._index = index
        indptr = array.indptr
        indices = array.indices
        self._indptr = indptr
        self._indices = indices
        n = len(index)
        self._n = n
        nodes = index.nodes
        # Tie-break rank space: ascending node-value order when the
        # nodes admit one (heap keys then encode the rank), explicit
        # value comparisons otherwise.
        order = value_order(nodes)
        self._order = order
        if order is None:
            self._valrank = None
        else:
            valrank = np.empty(n, dtype=np.int64)
            valrank[order] = np.arange(n, dtype=np.int64)
            self._valrank = valrank

        dom_ids = []
        for d in dominators:
            if d not in index:
                raise KeyError(f"dominator {d!r} not in graph")
            dom_ids.append(index.id_of(d))
        if not dom_ids:
            raise ValueError("dominator set must be non-empty")
        included = np.zeros(n, dtype=bool)
        dom_arr = np.array(sorted(set(dom_ids)), dtype=np.int64)
        included[dom_arr] = True
        self._included = included
        self._included_count = int(dom_arr.size)
        self._dominators = frozenset(nodes[int(i)] for i in dom_arr)

        # Components of G[I]: one per dominator, minus permissive merges
        # of adjacent (non-independent) dominator pairs.  comp_id labels
        # every included id with its root eagerly; members lists back
        # the weighted relabel.
        comp_id = np.arange(n, dtype=np.int64)
        self._comp_id = comp_id
        members: dict[int, list[int]] = {int(i): [int(i)] for i in dom_arr}
        self._members = members
        self._components = self._included_count
        nbrs, counts = gather_rows(indptr, indices, dom_arr)
        inc_mask = included[nbrs]
        if inc_mask.any():
            # A proper MIS has no included-included arcs; this loop only
            # runs for permissive (non-independent) dominating sets.
            owners = np.repeat(dom_arr, counts)[inc_mask]
            for v, u in zip(owners.tolist(), nbrs[inc_mask].tolist()):
                self._merge_pair(int(v), int(u))

        #: gain cache, one int per id; exact for every scored,
        #: non-pending id, and 0 for included ids.
        self._gains = [0] * n
        #: root id -> candidate ids whose cached gain counted it (may
        #: hold stale duplicates; filtered on pop).
        self._watchers: defaultdict[int, list[int]] = defaultdict(list)
        #: invalidated-candidate chunks awaiting the next batch rescore;
        #: seeded with the whole initial frontier N(I) \\ I.
        self._pending: list[np.ndarray] = [nbrs[~inc_mask]]
        #: tie-break -> (heap of int keys, per-id key offsets, key
        #: scale, rank -> id, rank divisor), created on first use.
        self._heaps: dict[str, tuple] = {}

    def _merge_pair(self, v: int, u: int) -> None:
        """Union the components of two included ids (init-time only)."""
        comp_id = self._comp_id
        rv, ru = int(comp_id[v]), int(comp_id[u])
        if rv == ru:
            return
        members = self._members
        if len(members[rv]) < len(members[ru]):
            rv, ru = ru, rv
        moved = members.pop(ru)
        comp_id[moved] = rv
        members[rv].extend(moved)
        self._components -= 1

    # -- read API (mirrors LazyGainTracker) ------------------------------------

    @property
    def included(self) -> frozenset:
        """``I ∪ U`` so far, as original node objects."""
        nodes = self._index.nodes
        return frozenset(
            nodes[int(i)] for i in np.flatnonzero(self._included)
        )

    @property
    def dominators(self) -> frozenset:
        return self._dominators

    @property
    def component_count(self) -> int:
        """``q(U)`` for the current ``U``."""
        return self._components

    def adjacent_components(self, w: N) -> set:
        """Roots of the components of ``G[I ∪ U]`` adjacent to ``w``.

        Roots are original node objects (of arbitrary representatives),
        one per adjacent component.
        """
        nodes = self._index.nodes
        return {nodes[r] for r in self._roots_of(self._index.id_of(w))}

    def gain(self, w: N) -> int:
        """``Δ_w q(U)`` for the current ``U`` (computed fresh)."""
        wi = self._index.id_of(w)
        if self._included[wi]:
            return 0
        return max(0, len(self._roots_of(wi)) - 1)

    def _roots_of(self, wi: int) -> list[int]:
        """Ascending roots of the components adjacent to ``wi``."""
        nbrs = self._indices[self._indptr[wi] : self._indptr[wi + 1]]
        return sorted(set(self._comp_id[nbrs[self._included[nbrs]]].tolist()))

    # -- mutation -------------------------------------------------------------

    def add(self, w: N) -> int:
        """Add ``w`` to ``U`` and return the gain it realized.

        Merges ``w`` with its adjacent components (weighted relabel
        into the largest part) and queues for re-scoring exactly the
        candidates whose count could have changed: the watchers of
        every merged non-base root, plus ``N(w)``.

        Raises:
            ValueError: if ``w`` is already included.
        """
        wi = self._index.id_of(w)
        included = self._included
        if included[wi]:
            raise ValueError(f"{w!r} already included")
        comp_id = self._comp_id
        nbrs = self._indices[self._indptr[wi] : self._indptr[wi + 1]]
        inc_mask = included[nbrs]
        roots = sorted(set(comp_id[nbrs[inc_mask]].tolist()))

        members = self._members
        watchers = self._watchers
        pending = self._pending
        # Base: the largest merging part (w's fresh singleton included),
        # ties to the smallest root id for determinism.
        base = wi
        base_size = 1
        for r in roots:
            size = len(members[r])
            if size > base_size or (size == base_size and r < base):
                base, base_size = r, size
        if base == wi:
            members[wi] = [wi]
        else:
            comp_id[wi] = base
            members[base].append(wi)
        for r in roots:
            if r == base:
                continue
            moved = members.pop(r)
            comp_id[moved] = base
            members[base].extend(moved)
            stale = watchers.pop(r, None)
            if stale:
                pending.append(np.array(stale, dtype=np.int64))

        included[wi] = True
        self._gains[wi] = 0
        self._included_count += 1
        merged = len(roots)
        self._components += 1 - merged

        fresh = nbrs[~inc_mask]
        if fresh.size:
            pending.append(fresh)
        if OBS.enabled:
            OBS.incr("gain.dsu_unions", merged)
        return max(0, merged - 1)

    # -- selection ------------------------------------------------------------

    def _rescore_pending(self) -> None:
        """Re-score every queued candidate as one vectorized batch."""
        pending = self._pending
        if not pending:
            return
        cand = np.concatenate(pending)
        pending.clear()
        included = self._included
        cand = cand[~included[cand]]
        if not cand.size:
            return
        cand.sort()
        cand = _distinct(cand)
        n = self._n
        nbrs, counts = gather_rows(self._indptr, self._indices, cand)
        inc_mask = included[nbrs]
        owners = np.repeat(np.arange(cand.size, dtype=np.int64), counts)[inc_mask]
        # Distinct (candidate, root) pairs -> adjacent-component counts.
        pairs = owners * n + self._comp_id[nbrs[inc_mask]]
        pairs.sort()
        pairs = _distinct(pairs)
        pair_owner = pairs // n
        cnt = np.bincount(pair_owner, minlength=cand.size)
        # Register watchers for candidates with >= 2 adjacent parts
        # (gain-0 candidates cannot lose a part without it merging into
        # another part of theirs, and gaining one goes through N(w)).
        multi = cnt[pair_owner] >= 2
        if multi.any():
            watchers = self._watchers
            reg_c = cand[pair_owner[multi]].tolist()
            reg_r = (pairs[multi] - pair_owner[multi] * n).tolist()
            for c, r in zip(reg_c, reg_r):
                watchers[r].append(c)
        # Update the cache; push only the candidates whose gain changed
        # (an unchanged gain >= 1 still has its live entry).
        gains = self._gains
        changed = []
        for c, g in zip(cand.tolist(), np.maximum(cnt - 1, 0).tolist()):
            if gains[c] != g:
                gains[c] = g
                if g:
                    changed.append((c, g))
        if changed and self._heaps:
            push = heapq.heappush
            for heap, offset, scale, _, _ in self._heaps.values():
                for c, g in changed:
                    push(heap, (n - g) * scale + offset[c])
        if OBS.enabled:
            OBS.incr("gain.evaluations", int(cand.size))
            OBS.incr("array.rescore_batches")
            OBS.incr("array.gather_elements", int(nbrs.size))

    def _heap_for(self, tie_break: str) -> tuple:
        """The ``(heap, offset, scale, ids, div)`` record of a tie-break.

        Key ``(n−g)·scale + offset[c]``; ``divmod(key, n)`` gives
        ``(q, r)`` with id ``ids[r]`` and gain ``n − q // div``.
        """
        record = self._heaps.get(tie_break)
        if record is None:
            n = self._n
            valrank = self._valrank
            order = self._order
            if tie_break == "min":
                offset, scale, ids, div = valrank, n, order, 1
            elif tie_break == "max":
                offset, scale, ids, div = n - 1 - valrank, n, order[::-1], 1
            else:
                degrees = self._array.degrees
                offset = (n - 1 - degrees) * n + valrank
                scale, ids, div = n * n, order, n
            offset = offset.tolist()
            heap = [
                (n - g) * scale + offset[c]
                for c, g in enumerate(self._gains)
                if g
            ]
            heapq.heapify(heap)
            record = self._heaps[tie_break] = (heap, offset, scale, ids, div)
        return record

    def best_connector(self, tie_break: str = "min") -> tuple[N, int]:
        """The not-yet-included node of maximum gain.

        Same argmax, tie-break semantics ("min" / "max" / "degree") and
        error cases as the other trackers.  Queued invalidations are
        re-scored in one vectorized batch, then the per-tie-break heap
        yields the winner after discarding entries the batch outdated.
        """
        if tie_break not in ("min", "max", "degree"):
            raise ValueError(f"unknown tie_break {tie_break!r}")
        if self._components <= 1:
            raise ValueError("already connected; no connector needed")
        self._rescore_pending()
        if self._order is None:
            return self._scan_unranked(tie_break)
        heap, _, _, ids, div = self._heap_for(tie_break)
        gains = self._gains
        n = self._n
        pop = heapq.heappop
        while heap:
            q, r = divmod(heap[0], n)
            c = ids[r]
            g = n - q // div
            if gains[c] != g:
                pop(heap)
                continue
            return self._index.nodes[c], g
        raise ValueError(
            "no node with positive gain: dominators lack 2-hop separation "
            "or the graph is disconnected"
        )

    def _scan_unranked(self, tie_break: str) -> tuple[N, int]:
        """Explicit ascending-id argmax for unorderable node mixes —
        the comparison structure of :meth:`LazyGainTracker.best_connector`."""
        nodes = self._index.nodes
        degree = self._index.degree
        best_id = -1
        best_gain = 0
        for c, g in enumerate(self._gains):
            if g < 1:
                continue
            if g > best_gain:
                best_id, best_gain = c, g
                continue
            if g != best_gain:
                continue
            if tie_break == "min":
                wins = _smaller(nodes[c], nodes[best_id])
            elif tie_break == "max":
                wins = _smaller(nodes[best_id], nodes[c])
            else:
                ca, cb = degree(c), degree(best_id)
                wins = ca > cb or (
                    ca == cb and _smaller(nodes[c], nodes[best_id])
                )
            if wins:
                best_id = c
        if best_id < 0 or best_gain < 1:
            raise ValueError(
                "no node with positive gain: dominators lack 2-hop separation "
                "or the graph is disconnected"
            )
        return nodes[best_id], best_gain
