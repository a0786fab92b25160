"""Resource-based allocation — Algorithm 1, lines L25–L34 (Fig. 5).

When a layer holds more indeterminate operations than the threshold ``t``
(indeterminate operations all end their layer in parallel, so each needs its
own device), the cheapest ones are evicted to later layers.

The eviction cost of an indeterminate operation ``o_j`` is computed as a
minimum cut: a virtual source ``o_jv`` stands for everything already
committed to earlier layers; the sink is ``o_j``.  Vertices on the sink side
of the cut are the ancestor operations that must move out together with
``o_j`` (set R_oj); cut edges are reagents whose producing operation stays
behind and must therefore be *stored* between layers.  Storage usage is the
primary cost, the number of removed ancestor operations the tie-breaker
(Fig. 5(a)-(c): remove o_1 before o_2 — less storage — and before o_3 —
fewer removed ancestors).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import LayeringError
from ..graphs import DiGraph, FlowNetwork, max_flow_min_cut

_VIRTUAL_SOURCE = "__source__"


@dataclass(frozen=True)
class EvictionCost:
    """Cost of evicting one indeterminate operation from the current layer.

    ``storage`` is the min-cut value (reagents that must be buffered);
    ``removed`` the operations that leave the layer with the sink
    (including the indeterminate operation itself).
    """

    uid: str
    storage: float
    removed: frozenset[str]

    @property
    def sort_key(self) -> tuple[float, int, str]:
        return (self.storage, len(self.removed), self.uid)


def eviction_cost(
    layer_uids: set[str],
    graph: DiGraph,
    target: str,
) -> EvictionCost:
    """Min-cut eviction cost of indeterminate operation ``target``.

    Args:
        layer_uids: operations currently allocated to the layer.
        graph: the full assay dependency graph.
        target: the indeterminate operation to price.
    """
    if target not in layer_uids:
        raise LayeringError(f"{target!r} is not in the layer")
    return _min_cut_cost(
        graph, target, frozenset(graph.ancestors(target) & layer_uids)
    )


def _min_cut_cost(
    graph: DiGraph, target: str, in_layer_ancestors: frozenset[str]
) -> EvictionCost:
    """:func:`eviction_cost` given ``target``'s in-layer ancestors.

    The layer enters the cost only through that ancestor set, and the
    minimal sink side of a min cut is unique, so the result is a pure
    function of ``(target, in_layer_ancestors)``.
    """
    network = FlowNetwork()
    network.add_node(_VIRTUAL_SOURCE)
    network.add_node(target)

    relevant = in_layer_ancestors | {target}
    for uid in relevant:
        for child in graph.successors(uid):
            if child in relevant:
                # One dependency edge = one reagent to store if cut.
                network.add_edge(uid, child, 1)
    for uid in in_layer_ancestors:
        parents = graph.predecessors(uid)
        # Ancestors fed from outside the layer (earlier layers or assay
        # inputs) hang off the virtual source: their upstream supply is
        # already fixed, so the cut can only pass below them.
        if not (parents & relevant):
            network.add_edge(_VIRTUAL_SOURCE, uid, 1)

    if not in_layer_ancestors:
        # Nothing to inherit: eviction is free and removes only the target.
        return EvictionCost(uid=target, storage=0, removed=frozenset({target}))

    cut = max_flow_min_cut(network, _VIRTUAL_SOURCE, target)
    removed = frozenset(cut.sink_side_minimal - {_VIRTUAL_SOURCE})
    # Recompute the storage of the *minimal sink side* cut: edges from the
    # kept side into the removed side.
    storage = 0
    for uid in relevant - removed:
        storage += sum(
            1 for child in graph.successors(uid) if child in removed
        )
    storage += sum(
        1 for uid in removed
        if network.capacity(_VIRTUAL_SOURCE, uid) > 0
    )
    return EvictionCost(uid=target, storage=storage, removed=removed)


def resource_based_allocation(
    layer_uids: set[str],
    graph: DiGraph,
    indeterminate: set[str],
    threshold: int,
) -> tuple[set[str], set[str]]:
    """Enforce the indeterminate-operation threshold on a layer.

    Greedily evicts the cheapest indeterminate operations (storage first,
    removed-ancestor count second) until at most ``threshold`` remain, then
    closes the layer under dependencies (anything depending on an evicted
    operation leaves too).

    Returns ``(kept_uids, evicted_uids)``.
    """
    if threshold < 1:
        raise LayeringError(f"threshold must be >= 1, got {threshold}")
    kept = set(layer_uids)
    remaining_ind = sorted(indeterminate & kept)
    if len(remaining_ind) <= threshold:
        return kept, set()

    evicted: set[str] = set()
    # Cheapest-first greedy (paper: evict the op with least reagent
    # inheritance first), re-priced after every eviction since earlier
    # removals change the remaining structure.  An eviction only changes
    # the price of an op whose in-layer ancestors it removed, so prices are
    # memoized on (op, in-layer ancestors): one min cut per distinct cut.
    ancestors = {uid: graph.ancestors(uid) for uid in remaining_ind}
    priced: dict[tuple[str, frozenset[str]], EvictionCost] = {}

    def price(uid: str) -> EvictionCost:
        key = (uid, frozenset(ancestors[uid] & kept))
        cost = priced.get(key)
        if cost is None:
            cost = priced[key] = _min_cut_cost(graph, uid, key[1])
        return cost

    while len(remaining_ind) > threshold:
        best = min(map(price, remaining_ind), key=lambda c: c.sort_key)
        removed = _dependency_closure(set(best.removed), kept, graph)
        kept_after = kept - removed
        ind_after = [u for u in remaining_ind if u not in removed]
        if not kept_after or not ind_after:
            # The min-cut sweep would take the whole layer (or its last
            # indeterminate op) with it.  Fall back to evicting the single
            # operation: indeterminate operations never have same-layer
            # dependents (dependency-based allocation deferred their
            # descendants), so this is always safe.
            removed = {best.uid}
            kept_after = kept - removed
            ind_after = [u for u in remaining_ind if u != best.uid]
        kept = kept_after
        evicted |= removed
        remaining_ind = ind_after

    if not kept:  # pragma: no cover - guarded above
        raise LayeringError(
            "eviction would empty the layer; lower the threshold pressure"
        )
    return kept, evicted


def _dependency_closure(
    removed: set[str], layer_uids: set[str], graph: DiGraph
) -> set[str]:
    """Close ``removed`` under in-layer dependents: an operation whose
    ancestor leaves the layer must leave too."""
    stack = list(removed)
    while stack:
        for child in graph.successors(stack.pop()):
            if child in layer_uids and child not in removed:
                removed.add(child)
                stack.append(child)
    return removed
