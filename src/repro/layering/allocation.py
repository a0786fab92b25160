"""Dependency-based allocation — Algorithm 1, lines L12–L24 (Fig. 4).

A modified maximum-independent-set pass over the non-layered operation pool:
repeatedly pick an indeterminate operation with no indeterminate ancestor in
the pool, keep it, and push all of its descendants to later layers; finally
everything still in the pool joins the layer.  The result maximizes the
number of operations per layer while guaranteeing that every indeterminate
operation in the layer has no child in the same layer (so it can sit at the
very end of the sub-schedule, paper constraint (14)).
"""

from __future__ import annotations

from ..graphs import DiGraph


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
