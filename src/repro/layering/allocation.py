"""Dependency-based allocation — Algorithm 1, lines L12–L24 (Fig. 4).

A modified maximum-independent-set pass over the non-layered operation pool:
repeatedly pick an indeterminate operation with no indeterminate ancestor in
the pool, keep it, and push all of its descendants to later layers; finally
everything still in the pool joins the layer.  The result maximizes the
number of operations per layer while guaranteeing that every indeterminate
operation in the layer has no child in the same layer (so it can sit at the
very end of the sub-schedule, paper constraint (14)).

The order of the paper's "randomly choose" step does not matter: a pick
has no indeterminate ancestor in the pool, and an op without one is never
deferred (only such an ancestor could defer it), so the picks are the
pool's minimal indeterminate ops.  The deferred ops are then the strict
descendants of all the pool's indeterminate ops.
"""

from __future__ import annotations

from ..graphs import DiGraph
from .reach import Reach


def dependency_based_allocation(
    pool_graph: DiGraph,
    indeterminate: set[str],
    rng_order: list[str] | None = None,
) -> set[str]:
    """Select the operations of the next layer from the pool.

    ``pool_graph`` is the graph induced on the not-yet-layered operations
    (read only), ``indeterminate`` their indeterminate uids.  Every
    ``rng_order`` for the paper's "randomly choose" step gives the same
    layer (module docstring).  Returns the uids of the layer.
    """
    reach = Reach.of(pool_graph)
    pool = reach.mask(reach.uids)
    return set(reach.members(allocate(reach, pool, reach.mask(indeterminate))))


def allocate(reach: Reach, pool: int, indeterminate: int) -> int:
    """:func:`dependency_based_allocation` on masks; returns the layer.

    ``pool`` must be closed under descendants, as the not-yet-layered ops
    are, so that the descendants of its indeterminate ops lie in it.
    """
    deferred = 0
    for uid in reach.members(indeterminate & pool):
        deferred |= reach.desc[uid]
    return pool & ~deferred
