"""A minimal directed-graph data structure.

Nodes are arbitrary hashable objects.  The structure supports exactly the
queries the layering algorithm and assay validation need: successors,
predecessors, reachability (ancestors / descendants), topological order and
cycle detection.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Container, Hashable, Iterable, Iterator
from typing import TypeVar

from ..errors import CycleError, GraphError

N = TypeVar("N", bound=Hashable)


class DiGraph:
    """Directed graph with O(1) successor/predecessor access.

    >>> g = DiGraph()
    >>> g.add_edge("a", "b")
    >>> g.add_edge("b", "c")
    >>> sorted(g.descendants("a"))
    ['b', 'c']
    """

    def __init__(self) -> None:
        self._succ: dict[Hashable, set[Hashable]] = {}
        self._pred: dict[Hashable, set[Hashable]] = {}

    # -- construction -----------------------------------------------------

    def add_node(self, node: Hashable) -> None:
        """Add ``node`` if not present; no-op otherwise."""
        if node not in self._succ:
            self._succ[node] = set()
            self._pred[node] = set()

    def add_edge(self, src: Hashable, dst: Hashable) -> None:
        """Add edge ``src -> dst``, creating missing endpoints."""
        if src == dst:
            raise GraphError(f"self-loop on {src!r} is not allowed")
        self.add_node(src)
        self.add_node(dst)
        self._succ[src].add(dst)
        self._pred[dst].add(src)

    def remove_edge(self, src: Hashable, dst: Hashable) -> None:
        """Remove edge ``src -> dst``; its endpoints stay."""
        if not self.has_edge(src, dst):
            raise GraphError(f"unknown edge {src!r} -> {dst!r}")
        self._succ[src].discard(dst)
        self._pred[dst].discard(src)

    def remove_node(self, node: Hashable) -> None:
        """Remove ``node`` and all incident edges."""
        if node not in self._succ:
            raise GraphError(f"unknown node {node!r}")
        for succ in self._succ[node]:
            self._pred[succ].discard(node)
        for pred in self._pred[node]:
            self._succ[pred].discard(node)
        del self._succ[node]
        del self._pred[node]

    def copy(self) -> "DiGraph":
        """Return an independent copy of this graph."""
        clone = DiGraph()
        for node in self._succ:
            clone.add_node(node)
        for src, dsts in self._succ.items():
            for dst in dsts:
                clone.add_edge(src, dst)
        return clone

    def subgraph(self, nodes: Iterable[Hashable]) -> "DiGraph":
        """Return the induced subgraph on ``nodes``."""
        keep = set(nodes)
        unknown = keep - set(self._succ)
        if unknown:
            raise GraphError(f"unknown nodes {sorted(map(repr, unknown))}")
        sub = DiGraph()
        for node in keep:
            sub.add_node(node)
        for src in keep:
            for dst in self._succ[src] & keep:
                sub.add_edge(src, dst)
        return sub

    # -- queries -----------------------------------------------------------

    def __contains__(self, node: Hashable) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._succ)

    @property
    def nodes(self) -> list[Hashable]:
        """All nodes (insertion order)."""
        return list(self._succ)

    @property
    def edges(self) -> list[tuple[Hashable, Hashable]]:
        """All edges as ``(src, dst)`` pairs."""
        return [(s, d) for s, dsts in self._succ.items() for d in dsts]

    def has_edge(self, src: Hashable, dst: Hashable) -> bool:
        return src in self._succ and dst in self._succ[src]

    def successors(self, node: Hashable) -> set[Hashable]:
        """Direct successors (children) of ``node``."""
        self._require(node)
        return set(self._succ[node])

    def predecessors(self, node: Hashable) -> set[Hashable]:
        """Direct predecessors (parents) of ``node``."""
        self._require(node)
        return set(self._pred[node])

    def out_degree(self, node: Hashable) -> int:
        self._require(node)
        return len(self._succ[node])

    def in_degree(self, node: Hashable) -> int:
        self._require(node)
        return len(self._pred[node])

    def sources(self) -> list[Hashable]:
        """Nodes with no predecessors."""
        return [n for n in self._succ if not self._pred[n]]

    def sinks(self) -> list[Hashable]:
        """Nodes with no successors."""
        return [n for n in self._succ if not self._succ[n]]

    def descendants(
        self, node: Hashable, skip: Container[Hashable] = frozenset()
    ) -> set[Hashable]:
        """All nodes reachable from ``node`` (excluding ``node``).

        Nodes in ``skip`` are treated as absent: the search neither
        returns them nor passes through them.
        """
        return self._reach(node, self._succ, skip)

    def ancestors(self, node: Hashable) -> set[Hashable]:
        """All nodes that can reach ``node`` (excluding ``node``)."""
        return self._reach(node, self._pred)

    def is_acyclic(self) -> bool:
        try:
            topological_sort(self)
        except CycleError:
            return False
        return True

    # -- internals ----------------------------------------------------------

    def _require(self, node: Hashable) -> None:
        if node not in self._succ:
            raise GraphError(f"unknown node {node!r}")

    def _reach(
        self,
        node: Hashable,
        adjacency: dict[Hashable, set[Hashable]],
        skip: Container[Hashable] = frozenset(),
    ) -> set[Hashable]:
        self._require(node)
        seen: set[Hashable] = set()
        frontier = deque(adjacency[node])
        while frontier:
            current = frontier.popleft()
            if current in seen or current in skip:
                continue
            seen.add(current)
            frontier.extend(adjacency[current] - seen)
        return seen


def topological_sort(graph: DiGraph) -> list[Hashable]:
    """Kahn's algorithm; raises :class:`CycleError` on cyclic input.

    The returned order is deterministic for a given insertion order.
    """
    succ_of = graph._succ
    in_deg = {n: len(preds) for n, preds in graph._pred.items()}
    ready = deque(n for n, deg in in_deg.items() if deg == 0)
    order: list[Hashable] = []
    while ready:
        node = ready.popleft()
        order.append(node)
        for succ in sorted(succ_of[node], key=repr):
            in_deg[succ] -= 1
            if in_deg[succ] == 0:
                ready.append(succ)
    if len(order) != len(graph):
        placed = set(order)
        remaining = [n for n in graph if n not in placed]
        cycle = _find_cycle(graph, remaining)
        raise CycleError([repr(n) for n in cycle])
    return order


def _find_cycle(graph: DiGraph, candidates: list[Hashable]) -> list[Hashable]:
    """Return one concrete cycle among ``candidates`` for error reporting."""
    candidate_set = set(candidates)
    start = candidates[0]
    path: list[Hashable] = [start]
    seen_at: dict[Hashable, int] = {start: 0}
    current = start
    while True:
        nxt = next(iter(s for s in graph.successors(current) if s in candidate_set))
        if nxt in seen_at:
            return path[seen_at[nxt] :] + [nxt]
        seen_at[nxt] = len(path)
        path.append(nxt)
        current = nxt
