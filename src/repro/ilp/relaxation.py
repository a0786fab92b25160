"""LP-relaxation solving: certified lower bounds for ILP models.

Relaxing integrality turns the layer ILP into an LP whose optimum is a
proven lower bound on the ILP objective (for minimization models).  The
bound is cheap — polynomial LP instead of exponential branch and bound —
and certifies every schedule the heuristics produce: "within X% of the
layer optimum" instead of a blind quality flag.

Only an *optimal* LP solve certifies anything.  A time-limited LP has a
primal value but no proof, so those solves report ``TIMEOUT`` with no
bound attached.
"""

from __future__ import annotations

import math
import time

import numpy as np

from ..errors import SolverError
from .model import Model
from .status import Solution, SolveStats, SolveStatus


def solve_relaxation(model: Model, time_limit: float | None = None) -> Solution:
    """Solve the LP relaxation of ``model`` with HiGHS.

    Returns a :class:`Solution` whose ``values`` are the (generally
    fractional) LP optimum and whose ``bound`` equals ``objective`` when
    the solve proved optimality — that number is a certified lower bound
    on the integer model's objective.  ``time_limit`` caps the solve.
    """
    # Imported here so SciPy loads on the first solve, not with repro.
    from scipy.optimize import Bounds, LinearConstraint, milp

    start = time.monotonic()
    form = model.to_standard_form(relax_integrality=True)
    options: dict[str, float | bool] = {"disp": False}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    constraints = None
    if form.a_matrix.shape[0]:
        constraints = LinearConstraint(form.a_matrix, form.row_lower, form.row_upper)
    result = milp(
        c=form.c,
        constraints=constraints,
        integrality=form.integrality,
        bounds=Bounds(form.var_lower, form.var_upper),
        options=options,
    )
    runtime = time.monotonic() - start
    if result.status == 2:
        return _lp_solution(SolveStatus.INFEASIBLE, runtime)
    if result.status == 3:
        return _lp_solution(SolveStatus.UNBOUNDED, runtime)
    if result.x is None or result.status != 0:
        # A limit-hit LP has a primal value but no optimality proof — it
        # certifies nothing, so no bound is reported.
        if result.status == 1 or result.x is not None:
            return _lp_solution(SolveStatus.TIMEOUT, runtime)
        raise SolverError(
            f"HiGHS LP relaxation failed: status={result.status} {result.message}"
        )
    x = np.asarray(result.x, dtype=float)
    objective = form.sense * float(form.c @ x) + form.c0
    values = {var: float(x[i]) for i, var in enumerate(form.variables)}
    return _lp_solution(
        SolveStatus.OPTIMAL, runtime, objective=objective, values=values
    )


def relaxation_bound(
    model: Model, time_limit: float | None = None
) -> Solution | None:
    """Solve the LP relaxation; the optimum certifies a lower bound.

    Returns the LP :class:`Solution` when it solved to optimality with a
    finite objective, else ``None`` — a time-limited LP (or a solver
    failure) proves nothing and must not be reported as a bound.
    """
    try:
        relaxed = solve_relaxation(model, time_limit=time_limit)
    except SolverError:
        return None
    if relaxed.status is not SolveStatus.OPTIMAL or relaxed.objective is None:
        return None
    if not math.isfinite(relaxed.objective):
        return None
    return relaxed


def _lp_solution(
    status: SolveStatus,
    runtime: float,
    objective: float | None = None,
    values: dict | None = None,
) -> Solution:
    bound = None
    if status is SolveStatus.OPTIMAL and objective is not None:
        if math.isfinite(objective):
            bound = objective
    return Solution(
        status=status,
        objective=objective,
        values=values or {},
        bound=bound,
        runtime=runtime,
        backend="lp-highs",
        stats=SolveStats(
            backend="lp-highs",
            status=status.value,
            solve_time=runtime,
            lower_bound=bound,
            integrality_gap=0.0 if bound is not None else None,
        ),
    )
