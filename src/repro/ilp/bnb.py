"""Pure-Python branch-and-bound MILP solver.

Uses the dense two-phase simplex (:mod:`repro.ilp.simplex`) for LP
relaxations and branches on the most-fractional integer variable with a
depth-first ("diving") node order, which finds integer-feasible incumbents
quickly on scheduling models.

Nothing in the synthesis flow runs it: HiGHS (:mod:`repro.ilp.highs`) is
the only production solver.  This plain dense solver is the independent
reference the differential tests and ablation A4 compare HiGHS against on
small models.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .model import Model
from .simplex import LPStatus, solve_lp
from .status import Solution, SolveStats, SolveStatus, relative_gap

_INT_TOL = 1e-6


@dataclass(order=True)
class _Node:
    """A branch-and-bound node: the LP bound plus tightened variable bounds."""

    bound: float
    depth: int = field(compare=False)
    var_lower: np.ndarray = field(compare=False)
    var_upper: np.ndarray = field(compare=False)


def solve_bnb(
    model: Model,
    time_limit: float | None = None,
    node_limit: int = 100000,
    mip_gap: float | None = None,
) -> Solution:
    """Solve ``model`` by branch and bound.

    Returns OPTIMAL when the tree is exhausted, FEASIBLE when a limit was hit
    with an incumbent in hand, TIMEOUT when a limit was hit without one.
    """
    start = time.monotonic()
    form = model.to_standard_form()
    incumbent_x: np.ndarray | None = None
    incumbent_obj = math.inf
    a_dense = form.a_matrix.toarray() if form.a_matrix.shape[0] else np.zeros(
        (0, len(form.variables))
    )
    int_mask = form.integrality.astype(bool)
    gap = mip_gap if mip_gap is not None else 1e-9

    root = _Node(
        bound=-math.inf,
        depth=0,
        var_lower=form.var_lower.copy(),
        var_upper=form.var_upper.copy(),
    )
    # Depth-first stack; each entry carries its parent LP bound for pruning.
    stack: list[_Node] = [root]
    nodes = 0
    simplex_iterations = 0
    proven_optimal = True
    # Parent bounds of subtrees abandoned on a simplex iteration limit.
    # Their nodes leave the stack without being explored, so the final dual
    # bound must still account for them — otherwise the bound computed from
    # the surviving stack overstates what was actually proven.
    dropped_bounds: list[float] = []

    while stack:
        if time_limit is not None and time.monotonic() - start > time_limit:
            proven_optimal = False
            break
        if nodes >= node_limit:
            proven_optimal = False
            break
        node = stack.pop()
        if node.bound >= incumbent_obj - gap:
            continue
        nodes += 1

        lp = solve_lp(
            form.c, a_dense, form.row_lower, form.row_upper,
            node.var_lower, node.var_upper,
        )
        simplex_iterations += lp.iterations
        if lp.status is LPStatus.INFEASIBLE:
            continue
        if lp.status is LPStatus.UNBOUNDED:
            if not int_mask.any() or incumbent_x is None:
                runtime = time.monotonic() - start
                return Solution(
                    SolveStatus.UNBOUNDED, runtime=runtime,
                    backend="bnb",
                    stats=SolveStats(
                        backend="bnb",
                        status=SolveStatus.UNBOUNDED.value,
                        nodes=nodes,
                        simplex_iterations=simplex_iterations,
                        solve_time=runtime,
                    ),
                )
            continue
        if lp.status is LPStatus.ITERATION_LIMIT:
            proven_optimal = False
            dropped_bounds.append(node.bound)
            continue

        assert lp.x is not None and lp.objective is not None
        if lp.objective >= incumbent_obj - gap:
            continue

        frac_var = _most_fractional(lp.x, int_mask)
        if frac_var is None:
            x = lp.x.copy()
            x[int_mask] = np.round(x[int_mask])
            obj = float(form.c @ x)
            if obj < incumbent_obj:
                incumbent_obj = obj
                incumbent_x = x
            continue

        value = lp.x[frac_var]
        floor_val = math.floor(value + _INT_TOL)
        # Explore the "down" child first (LIFO → pushed last).
        up = _Node(lp.objective, node.depth + 1,
                   node.var_lower.copy(), node.var_upper.copy())
        up.var_lower[frac_var] = floor_val + 1
        down = _Node(lp.objective, node.depth + 1,
                     node.var_lower.copy(), node.var_upper.copy())
        down.var_upper[frac_var] = floor_val
        if up.var_lower[frac_var] <= up.var_upper[frac_var]:
            stack.append(up)
        if down.var_lower[frac_var] <= down.var_upper[frac_var]:
            stack.append(down)

    runtime = time.monotonic() - start
    if incumbent_x is None:
        status = SolveStatus.TIMEOUT if not proven_optimal else SolveStatus.INFEASIBLE
        return Solution(
            status, runtime=runtime, backend="bnb",
            stats=SolveStats(
                backend="bnb",
                status=status.value,
                nodes=nodes,
                simplex_iterations=simplex_iterations,
                solve_time=runtime,
            ),
        )

    values = {
        var: float(incumbent_x[i]) for i, var in enumerate(form.variables)
    }
    objective = form.sense * incumbent_obj + form.c0
    status = (
        SolveStatus.OPTIMAL
        if proven_optimal and not stack
        else SolveStatus.FEASIBLE
    )
    if status is SolveStatus.OPTIMAL:
        bound = objective
    else:
        # Dual bound from every unexplored subtree: the open stack plus any
        # subtrees dropped on an LP iteration limit.  An unprocessed root
        # carries a -inf sentinel — it proves nothing, so a single one voids
        # the certificate (bound absent, never the incumbent objective).
        open_bounds = dropped_bounds + [n.bound for n in stack]
        if open_bounds and all(math.isfinite(b) for b in open_bounds):
            bound = form.sense * min(min(open_bounds), incumbent_obj) + form.c0
        else:
            bound = None
    return Solution(
        status=status,
        objective=objective,
        values=values,
        bound=bound,
        runtime=runtime,
        backend="bnb",
        stats=SolveStats(
            backend="bnb",
            status=status.value,
            nodes=nodes,
            simplex_iterations=simplex_iterations,
            solve_time=runtime,
            objective=objective,
            lower_bound=bound,
            integrality_gap=relative_gap(objective, bound),
        ),
    )


def _most_fractional(x: np.ndarray, int_mask: np.ndarray) -> int | None:
    """Index of the integer variable farthest from integrality, or None."""
    frac = np.abs(x - np.round(x))
    frac[~int_mask] = 0.0
    best = int(np.argmax(frac))
    if frac[best] <= _INT_TOL:
        return None
    return best
