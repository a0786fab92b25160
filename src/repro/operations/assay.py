"""An assay: a DAG of component-oriented operations.

Dependencies follow the paper's Sec. 2.2(c): if operation ``o_c`` consumes
the outputs of ``o_p`` then ``o_c`` is a *child* of ``o_p``.  The assay owns
the dependency graph and offers the reachability queries the layering
algorithm needs (ancestors, descendants, indeterminate-op sets).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from ..errors import SpecificationError
from ..graphs import DiGraph, topological_sort
from .operation import Operation


class Assay:
    """A named DAG of operations.

    >>> from repro.operations import Operation, Fixed
    >>> a = Assay("demo")
    >>> _ = a.add(Operation("o1", Fixed(5)))
    >>> _ = a.add(Operation("o2", Fixed(3)))
    >>> a.add_dependency("o1", "o2")
    >>> a.children("o1")
    ['o2']
    """

    def __init__(self, name: str = "assay") -> None:
        self.name = name
        self._ops: dict[str, Operation] = {}
        self._graph = DiGraph()
        # Derived views, rebuilt lazily after a mutation (see _mutated).
        self._order: list[str] | None = None
        self._edges: list[tuple[str, str]] | None = None

    # -- construction -----------------------------------------------------

    def add(self, operation: Operation) -> Operation:
        """Add an operation; uids must be unique."""
        if operation.uid in self._ops:
            raise SpecificationError(
                f"duplicate operation uid {operation.uid!r} in assay {self.name!r}"
            )
        self._ops[operation.uid] = operation
        self._graph.add_node(operation.uid)
        self._mutated()
        return operation

    def add_dependency(self, parent_uid: str, child_uid: str) -> None:
        """Record that ``child`` consumes the outputs of ``parent``.

        Raises :class:`~repro.errors.CycleError` when the edge would close
        a cycle; the assay is left exactly as it was.
        """
        for uid in (parent_uid, child_uid):
            if uid not in self._ops:
                raise SpecificationError(f"unknown operation {uid!r}")
        if parent_uid in self._graph.descendants(child_uid):
            # Fail fast so errors point at the edge that closed a cycle: the
            # full sort names it, then the edge is rolled back.
            self._graph.add_edge(parent_uid, child_uid)
            try:
                topological_sort(self._graph)
            finally:
                self._graph.remove_edge(parent_uid, child_uid)
        self._graph.add_edge(parent_uid, child_uid)
        self._mutated()

    def _mutated(self) -> None:
        self._order = None
        self._edges = None

    # -- access -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ops)

    def __contains__(self, uid: str) -> bool:
        return uid in self._ops

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._ops.values())

    def __getitem__(self, uid: str) -> Operation:
        try:
            return self._ops[uid]
        except KeyError:
            raise SpecificationError(
                f"unknown operation {uid!r} in assay {self.name!r}"
            ) from None

    @property
    def operations(self) -> list[Operation]:
        return list(self._ops.values())

    @property
    def uids(self) -> list[str]:
        return list(self._ops)

    @property
    def edges(self) -> list[tuple[str, str]]:
        """All (parent, child) dependency pairs."""
        if self._edges is None:
            self._edges = self._graph.edges
        return list(self._edges)

    @property
    def graph(self) -> DiGraph:
        """A copy of the dependency graph (callers may mutate it freely)."""
        return self._graph.copy()

    def parents(self, uid: str) -> list[str]:
        return sorted(self._graph.predecessors(uid))

    def children(self, uid: str) -> list[str]:
        return sorted(self._graph.successors(uid))

    def ancestors(self, uid: str) -> set[str]:
        return self._graph.ancestors(uid)

    def descendants(self, uid: str) -> set[str]:
        return self._graph.descendants(uid)

    def topological_order(self) -> list[str]:
        if self._order is None:
            self._order = topological_sort(self._graph)
        return list(self._order)

    @property
    def indeterminate_uids(self) -> list[str]:
        """Uids of indeterminate operations, in insertion order."""
        return [uid for uid, op in self._ops.items() if op.is_indeterminate]

    @property
    def num_indeterminate(self) -> int:
        return len(self.indeterminate_uids)

    def total_fixed_work(self) -> int:
        """Sum of scheduled durations — a trivial makespan upper bound."""
        return sum(op.duration.scheduled for op in self._ops.values())

    # -- validation & transforms ------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raises on violation."""
        self.topological_order()  # acyclicity
        for uid in self._ops:
            if uid not in self._graph:
                raise SpecificationError(f"operation {uid!r} missing from graph")

    def replicate(self, copies: int, separator: str = "#") -> "Assay":
        """Return a new assay with ``copies`` independent clones of this one.

        The paper scales its three benchmark assays by introducing
        "replicated operations with the same protocol of the original assay";
        clone *k* gets uids ``"<uid><separator><k>"``.
        """
        if copies < 1:
            raise SpecificationError(f"copies must be >= 1, got {copies}")
        out = Assay(f"{self.name}x{copies}")
        edges = self.edges
        for k in range(copies):
            for op in self._ops.values():
                clone = Operation(
                    uid=f"{op.uid}{separator}{k}",
                    duration=op.duration,
                    capacity=op.capacity,
                    container=op.container,
                    accessories=op.accessories,
                    function=op.function,
                )
                out.add(clone)
            for parent, child in edges:
                out.add_dependency(f"{parent}{separator}{k}", f"{child}{separator}{k}")
        return out

    def subset(self, uids: Iterable[str], name: str = "") -> "Assay":
        """Induced sub-assay on ``uids`` (dependencies inside the set)."""
        keep = list(uids)
        sub = Assay(name or f"{self.name}-subset")
        for uid in keep:
            sub.add(self[uid])
        keep_set = set(keep)
        for parent, child in self.edges:
            if parent in keep_set and child in keep_set:
                sub.add_dependency(parent, child)
        return sub

    def __repr__(self) -> str:
        return (
            f"Assay({self.name!r}, ops={len(self._ops)}, "
            f"edges={len(self.edges)}, "
            f"indeterminate={self.num_indeterminate})"
        )
