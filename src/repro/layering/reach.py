"""Reachability bitmasks for Algorithm 1.

Bit ``i`` stands for the ``i``-th operation of a topological order, so a set
of operations is a Python int whose members come out in topological order.
Ancestor and descendant masks are built once, in one sweep each way.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..graphs import DiGraph, topological_sort


class Reach:
    """Adjacency and ancestor/descendant masks of the DAG given by a
    topological ``order`` and its ``(parent, child)`` ``edges``."""

    def __init__(self, order: list[str], edges: Iterable[tuple[str, str]]):
        self.uids = order
        self.bit = {uid: 1 << i for i, uid in enumerate(order)}
        self.parents: dict[str, list[str]] = {uid: [] for uid in order}
        self.children: dict[str, list[str]] = {uid: [] for uid in order}
        for parent, child in edges:
            self.parents[child].append(parent)
            self.children[parent].append(child)
        self.anc: dict[str, int] = {}
        for uid in order:
            mask = 0
            for parent in self.parents[uid]:
                mask |= self.anc[parent] | self.bit[parent]
            self.anc[uid] = mask
        self.desc: dict[str, int] = {}
        for uid in reversed(order):
            mask = 0
            for child in self.children[uid]:
                mask |= self.desc[child] | self.bit[child]
            self.desc[uid] = mask

    @classmethod
    def of(cls, graph: DiGraph) -> "Reach":
        return cls(topological_sort(graph), graph.edges)

    def mask(self, uids: Iterable[str]) -> int:
        """The mask of ``uids``; uids outside the DAG are ignored."""
        mask = 0
        for uid in uids:
            mask |= self.bit.get(uid, 0)
        return mask

    def members(self, mask: int) -> list[str]:
        """The operations of ``mask`` in topological order."""
        out = []
        while mask:
            low = mask & -mask
            out.append(self.uids[low.bit_length() - 1])
            mask ^= low
        return out
