"""LP-relaxation solving: certified lower bounds for ILP models.

Relaxing integrality turns the layer ILP into an LP whose optimum is a
proven lower bound on the ILP objective (for minimization models).  The
bound is cheap — polynomial LP instead of exponential branch and bound —
and certifies every schedule the heuristics produce: "within X% of the
layer optimum" instead of a blind quality flag.

Only an *optimal* LP solve certifies anything.  A time- or iteration-
limited LP has a primal value but no proof, so those solves report
``TIMEOUT`` with no bound attached.
"""

from __future__ import annotations

import math
import time

import numpy as np

from ..errors import SolverError
from .model import Model
from .simplex import LPStatus, solve_lp
from .solve import available_backends
from .status import Solution, SolveStats, SolveStatus


def solve_relaxation(
    model: Model,
    backend: str = "auto",
    time_limit: float | None = None,
    max_iterations: int = 20000,
) -> Solution:
    """Solve the LP relaxation of ``model``.

    Returns a :class:`Solution` whose ``values`` are the (generally
    fractional) LP optimum and whose ``bound`` equals ``objective`` when
    the solve proved optimality — that number is a certified lower bound
    on the integer model's objective.  ``backend`` follows the MIP
    dispatch convention: ``"highs"``, ``"bnb"`` (the pure-Python simplex),
    or ``"auto"`` (HiGHS when available).

    ``time_limit`` caps the HiGHS solve; the pure-Python simplex is capped
    by ``max_iterations`` instead (it exposes no wall clock).
    """
    if backend == "auto":
        backend = available_backends()[0]
    if backend == "highs":
        return _relax_highs(model, time_limit)
    if backend == "bnb":
        return _relax_simplex(model, max_iterations)
    raise SolverError(f"unknown relaxation backend {backend!r}")


def relaxation_bound(
    model: Model,
    backend: str = "auto",
    time_limit: float | None = None,
    max_iterations: int = 20000,
) -> Solution | None:
    """Solve the LP relaxation; the optimum certifies a lower bound.

    Returns the LP :class:`Solution` when it solved to optimality with a
    finite objective, else ``None`` — a time- or iteration-limited LP (or a
    solver failure) proves nothing and must not be reported as a bound.
    """
    try:
        relaxed = solve_relaxation(
            model,
            backend=backend,
            time_limit=time_limit,
            max_iterations=max_iterations,
        )
    except SolverError:
        return None
    if relaxed.status is not SolveStatus.OPTIMAL or relaxed.objective is None:
        return None
    if not math.isfinite(relaxed.objective):
        return None
    return relaxed


def _relax_highs(model: Model, time_limit: float | None) -> Solution:
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
        return _lp_solution(SolveStatus.INFEASIBLE, runtime, "lp-highs")
    if result.status == 3:
        return _lp_solution(SolveStatus.UNBOUNDED, runtime, "lp-highs")
    if result.x is None or result.status != 0:
        # A limit-hit LP has a primal value but no optimality proof — it
        # certifies nothing, so no bound is reported.
        if result.status == 1 or result.x is not None:
            return _lp_solution(SolveStatus.TIMEOUT, runtime, "lp-highs")
        raise SolverError(
            f"HiGHS LP relaxation failed: status={result.status} {result.message}"
        )
    x = np.asarray(result.x, dtype=float)
    objective = form.sense * float(form.c @ x) + form.c0
    values = {var: float(x[i]) for i, var in enumerate(form.variables)}
    return _lp_solution(
        SolveStatus.OPTIMAL, runtime, "lp-highs",
        objective=objective, values=values,
    )


def _relax_simplex(model: Model, max_iterations: int) -> Solution:
    start = time.monotonic()
    form = model.to_standard_form(relax_integrality=True)
    a_dense = (
        form.a_matrix.toarray()
        if form.a_matrix.shape[0]
        else np.zeros((0, len(form.variables)))
    )
    lp = solve_lp(
        form.c, a_dense, form.row_lower, form.row_upper,
        form.var_lower, form.var_upper,
        max_iterations=max_iterations,
    )
    runtime = time.monotonic() - start
    if lp.status is LPStatus.INFEASIBLE:
        return _lp_solution(
            SolveStatus.INFEASIBLE, runtime, "lp-simplex",
            iterations=lp.iterations,
        )
    if lp.status is LPStatus.UNBOUNDED:
        return _lp_solution(
            SolveStatus.UNBOUNDED, runtime, "lp-simplex",
            iterations=lp.iterations,
        )
    if lp.status is LPStatus.ITERATION_LIMIT or lp.x is None:
        return _lp_solution(
            SolveStatus.TIMEOUT, runtime, "lp-simplex",
            iterations=lp.iterations,
        )
    objective = form.sense * float(lp.objective) + form.c0
    values = {var: float(lp.x[i]) for i, var in enumerate(form.variables)}
    return _lp_solution(
        SolveStatus.OPTIMAL, runtime, "lp-simplex",
        objective=objective, values=values, iterations=lp.iterations,
    )


def _lp_solution(
    status: SolveStatus,
    runtime: float,
    backend: str,
    objective: float | None = None,
    values: dict | None = None,
    iterations: int = 0,
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
        backend=backend,
        stats=SolveStats(
            backend=backend,
            status=status.value,
            simplex_iterations=iterations,
            solve_time=runtime,
            lower_bound=bound,
            integrality_gap=0.0 if bound is not None else None,
        ),
    )
