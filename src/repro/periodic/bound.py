"""Certified lower bounds on the initiation interval.

Any feasible periodic schedule must fit, inside every period, the full
per-iteration busy time of each unit-capacity resource: the device,
channel, and slot intervals wrap modulo II but never overlap, so

    II  >=  sum of interval lengths on r        for every resource r
    II  >=  length of any single interval

(the classic ResMII argument).  Variable-length storage intervals
contribute their precedence-implied minimum (zero for layer-crossing
buffers, whose producers and consumers may abut).

The bound is *solved as an LP* through the existing relaxation machinery
rather than computed by a ``max()`` so it rides the same certification
path as the layer solves: only an ``OPTIMAL`` LP solution certifies.
A plain-arithmetic cross-check (:func:`resource_bound`) guards
the LP against encoding bugs — the two must agree.
"""

from __future__ import annotations

import math

from ..ilp import Model, Solution
from ..ilp.relaxation import relaxation_bound
from .problem import PeriodicProblem

#: wall-clock budget for the (tiny) bound LP, seconds.
BOUND_LP_BUDGET = 5.0


def _min_length(problem: PeriodicProblem, interval) -> int:
    fixed = interval.fixed_length
    if fixed is not None:
        return fixed
    # Variable-length storage interval anchored producer->consumer: the
    # dependency edge implies S_c >= S_p + d_p + delay, so the length
    # (S_c + end_offset) - (S_p + start_offset) is at least
    # d_p + delay + end_offset - start_offset (zero for layer-crossing
    # buffers, whose delay is 0 and start_offset is d_p).
    edge = (interval.start_anchor, interval.end_anchor)
    if edge not in problem.delays:
        return 0
    return max(
        0,
        problem.durations[interval.start_anchor]
        + problem.delays[edge]
        + interval.end_offset
        - interval.start_offset,
    )


def resource_bound(problem: PeriodicProblem) -> int:
    """The ResMII bound by direct arithmetic (LP cross-check)."""
    best = 1
    for intervals in problem.intervals_by_resource().values():
        lengths = [_min_length(problem, i) for i in intervals]
        best = max(best, sum(lengths), max(lengths, default=0))
    return best


def ii_lower_bound(
    problem: PeriodicProblem,
) -> tuple[int, Solution | None]:
    """A certified lower bound on the II, with the LP certificate.

    Returns ``(bound, solution)``; ``solution`` is the ``OPTIMAL`` LP
    solution when the relaxation machinery proved the bound, else
    ``None`` (the arithmetic bound still holds — it is a theorem about
    the problem, not a solver artifact — but carries no LP certificate).
    """
    model = Model(name=f"resmii[{problem.name}]", sense="min")
    ii = model.continuous("II", lb=1.0)
    for resource, intervals in sorted(
        problem.intervals_by_resource().items()
    ):
        lengths = [_min_length(problem, i) for i in intervals]
        total = sum(lengths)
        if total > 0:
            model.add(ii >= total, name=f"busy[{resource}]")
        longest = max(lengths, default=0)
        if longest > 0:
            model.add(ii >= longest, name=f"fit[{resource}]")
    model.minimize(ii)

    solution = relaxation_bound(model, time_limit=BOUND_LP_BUDGET)
    arithmetic = resource_bound(problem)
    if solution is None:
        return arithmetic, None
    certified = int(math.ceil(round(solution.objective, 6)))
    # The LP minimizes over exactly the arithmetic constraints; any
    # disagreement is an encoding bug, and the weaker value is the only
    # safe claim.
    return min(certified, arithmetic), solution
