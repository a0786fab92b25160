"""Set-based reference implementation of Algorithm 1 (test oracle).

The layering package works on reachability bitmasks; this module keeps
the graph-search version it replaced, unchanged apart from imports, so
differential tests can compare the two on random assays.  Not collected
by pytest (no ``test_`` prefix).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LayeringError
from repro.graphs import DiGraph, FlowNetwork, max_flow_min_cut
from repro.operations.assay import Assay

_VIRTUAL_SOURCE = "__source__"


def dependency_based_allocation(
    pool_graph: DiGraph,
    indeterminate: set[str],
    rng_order: list[str] | None = None,
) -> set[str]:
    """Select the operations of the next layer from the pool.

    Args:
        pool_graph: dependency graph induced on the not-yet-layered
            operations.  Read only: deferred operations are tracked in a
            side set, and callers remove the layer's operations from the
            pool themselves, using the returned set.
        indeterminate: uids of indeterminate operations in the pool.
        rng_order: deterministic pick order for the "randomly choose" step
            of the paper; defaults to sorted order so runs are reproducible.

    Returns:
        The uids allocated to this layer.
    """
    # Picked indeterminate ops and everything below them.  The set is
    # closed under descendants, so no path from a dead op reaches a live
    # one: ancestors of a live op are live, and a descendant search may
    # stop at dead ops.
    dead: set[str] = set()
    remaining_ind = {uid for uid in indeterminate if uid in pool_graph}
    selected_ind: list[str] = []

    order = rng_order or sorted(remaining_ind)
    queue = [uid for uid in order if uid in remaining_ind]

    while remaining_ind:
        chosen = None
        for uid in queue:
            if uid not in remaining_ind:
                continue
            if not (pool_graph.ancestors(uid) & remaining_ind):
                chosen = uid
                break
        if chosen is None:
            # Cannot happen on a DAG: some indeterminate op is minimal.
            chosen = next(iter(sorted(remaining_ind)))
        selected_ind.append(chosen)
        # ``chosen`` stays in the layer; its descendants leave it.
        removed = pool_graph.descendants(chosen, skip=dead) | {chosen}
        remaining_ind -= removed
        dead |= removed

    return {uid for uid in pool_graph if uid not in dead} | set(selected_ind)


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


def reference_layers(
    assay: Assay, threshold: int = 10
) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Run Algorithm 1 on ``assay``.

    ``threshold`` is the paper's constant ``t`` — the maximal number of
    indeterminate operations per layer (each needs its own device for the
    parallel indeterminate tail).
    """
    if threshold < 1:
        raise LayeringError(f"threshold must be >= 1, got {threshold}")
    assay.validate()

    full_graph = assay.graph
    # The not-yet-layered operations; each layer's ops leave it.
    pool_graph = full_graph.copy()
    pool_ind = set(assay.indeterminate_uids)
    rank = {uid: i for i, uid in enumerate(assay.topological_order())}
    layers: list[tuple[tuple[str, ...], tuple[str, ...]]] = []

    while len(pool_graph):
        selected = dependency_based_allocation(pool_graph, pool_ind)
        kept, _evicted = resource_based_allocation(
            selected, full_graph, pool_ind, threshold
        )
        if not kept:
            raise LayeringError("layering made no progress")  # pragma: no cover
        order = sorted(kept, key=rank.__getitem__)
        layers.append(
            (tuple(order), tuple(uid for uid in order if uid in pool_ind))
        )
        for uid in kept:
            pool_graph.remove_node(uid)
        pool_ind -= kept

    return layers
