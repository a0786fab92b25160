"""Resource-based allocation — Algorithm 1, lines L25–L34 (Fig. 5).

When a layer holds more indeterminate operations than the threshold ``t``
(they all end their layer in parallel, each on its own device), the
cheapest ones are evicted to later layers.  The eviction cost of ``o_j`` is
a minimum cut between a virtual source ``o_jv`` (everything committed to
earlier layers) and the sink ``o_j``: the sink side is the set R_oj of
ancestors that move out with ``o_j``, and cut edges are reagents that must
be *stored* between layers.  Storage is the primary cost, the number of
removed operations the tie-breaker (Fig. 5(a)-(c)).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import LayeringError
from ..graphs import DiGraph, FlowNetwork, max_flow_min_cut
from .reach import Reach

_VIRTUAL_SOURCE = "__source__"


@dataclass(frozen=True)
class EvictionCost:
    """Cost of evicting one indeterminate operation from the current layer:
    ``storage`` is the min-cut value (reagents that must be buffered),
    ``removed`` the operations that leave with it (itself included)."""

    uid: str
    storage: float
    removed: frozenset[str]

    @property
    def sort_key(self) -> tuple[float, int, str]:
        return (self.storage, len(self.removed), self.uid)


def eviction_cost(
    layer_uids: set[str], graph: DiGraph, target: str
) -> EvictionCost:
    """Min-cut eviction cost of indeterminate operation ``target`` from
    the layer ``layer_uids``; ``graph`` is the full assay graph."""
    if target not in layer_uids:
        raise LayeringError(f"{target!r} is not in the layer")
    reach = Reach.of(graph)
    ancestors = reach.anc[target] & reach.mask(layer_uids)
    return _min_cut_cost(reach, target, ancestors)


def _min_cut_cost(reach: Reach, target: str, ancestors: int) -> EvictionCost:
    """:func:`eviction_cost` given the mask of ``target``'s in-layer
    ancestors.  The minimal sink side of a min cut is unique, so the cost
    is a pure function of ``(target, ancestors)``."""
    if not ancestors:
        # Nothing to inherit: eviction is free and removes only the target.
        return EvictionCost(uid=target, storage=0, removed=frozenset({target}))
    in_layer = reach.members(ancestors)
    relevant = set(in_layer) | {target}
    network = FlowNetwork()
    network.add_node(_VIRTUAL_SOURCE)
    network.add_node(target)
    for uid in relevant:
        for child in reach.children[uid]:
            if child in relevant:
                # One dependency edge = one reagent to store if cut.
                network.add_edge(uid, child, 1)
    for uid in in_layer:
        # Ancestors fed from outside the layer (earlier layers or assay
        # inputs) hang off the virtual source: their upstream supply is
        # already fixed, so the cut can only pass below them.
        if not any(parent in relevant for parent in reach.parents[uid]):
            network.add_edge(_VIRTUAL_SOURCE, uid, 1)
    cut = max_flow_min_cut(network, _VIRTUAL_SOURCE, target)
    # The minimal sink side is a minimum cut: the reagents it cuts off
    # number exactly the max-flow value.
    removed = frozenset(cut.sink_side_minimal - {_VIRTUAL_SOURCE})
    return EvictionCost(uid=target, storage=cut.value, removed=removed)


def resource_based_allocation(
    layer_uids: set[str], graph: DiGraph, indeterminate: set[str],
    threshold: int,
) -> tuple[set[str], set[str]]:
    """Enforce the indeterminate-operation threshold on a layer.

    Greedily evicts the cheapest indeterminate operations (storage first,
    removed-operation count second) until at most ``threshold`` remain,
    each with its in-layer dependents.  Returns ``(kept, evicted)``.
    """
    if threshold < 1:
        raise LayeringError(f"threshold must be >= 1, got {threshold}")
    reach = Reach.of(graph)
    layer = reach.mask(layer_uids)
    kept = evict(reach, layer, reach.mask(indeterminate), threshold)
    return set(reach.members(kept)), set(reach.members(layer & ~kept))


def evict(reach: Reach, layer: int, indeterminate: int, threshold: int) -> int:
    """:func:`resource_based_allocation` on masks; returns the kept mask.

    Cheapest first (paper: least reagent inheritance first).  A price
    depends only on the op's in-layer ancestors, so an eviction re-prices
    exactly the evicted ops' descendants; as ancestor sets only shrink, no
    cut is priced twice.
    """
    kept = layer
    costs = {}  # uid -> (sort key, cost) of each remaining op

    def price(uid: str) -> None:
        cost = _min_cut_cost(reach, uid, reach.anc[uid] & kept)
        costs[uid] = (cost.sort_key, cost)

    remaining = reach.members(indeterminate & kept)
    if len(remaining) <= threshold:
        return kept
    for uid in remaining:
        price(uid)
    while len(costs) > threshold:
        best = min(costs.values())[1]
        removed = _dependency_closure(reach, reach.mask(best.removed), kept)
        if removed == kept or not indeterminate & kept & ~removed:
            # The min-cut sweep would take the whole layer (or its last
            # indeterminate op) with it.  Evict the op alone: indeterminate
            # ops have no same-layer dependents (dependency-based
            # allocation deferred their descendants), so this is safe.
            removed = reach.bit[best.uid]
        kept &= ~removed
        touched = 0
        for uid in reach.members(removed):
            costs.pop(uid, None)
            touched |= reach.desc[uid]
        for uid in reach.members(touched & indeterminate & kept):
            price(uid)
    return kept


def _dependency_closure(reach: Reach, removed: int, layer: int) -> int:
    """Close ``removed`` under in-layer dependents: an operation whose
    ancestor leaves the layer must leave too.  The walk stays inside the
    layer, so it is exact for any layer, ancestor-closed or not."""
    stack = reach.members(removed)
    while stack:
        for child in reach.children[stack.pop()]:
            bit = reach.bit[child]
            if layer & bit and not removed & bit:
                removed |= bit
                stack.append(child)
    return removed
