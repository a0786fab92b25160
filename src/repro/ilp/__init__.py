"""A small integer-linear-programming substrate ("mini-PuLP").

The paper solves its per-layer synthesis model with Gurobi; this package
provides the equivalent functionality offline:

* :mod:`repro.ilp.expr` / :mod:`repro.ilp.model` — an algebraic modeling
  layer: create variables, combine them into linear expressions with normal
  Python arithmetic, post ``<=``/``>=``/``==`` constraints, set an objective.
* :mod:`repro.ilp.highs` — exact MILP solving through SciPy's HiGHS bindings
  (:func:`scipy.optimize.milp`), one-shot or through a persistent
  :class:`~repro.ilp.highs.HighsSession`; the only solver synthesis runs.
  SciPy loads on the first solve, not at import.
* :mod:`repro.ilp.bnb` — a plain pure-Python branch and bound over our own
  dense simplex (:mod:`repro.ilp.simplex`); the independent reference the
  tests compare HiGHS against on small models.

Typical use::

    from repro.ilp import Model

    m = Model("demo", sense="min")
    x = m.binary("x")
    y = m.integer("y", lb=0, ub=10)
    m.add(x + 2 * y >= 3, name="cover")
    m.minimize(5 * x + 3 * y)
    sol = m.solve()
    print(sol.status, sol[x], sol.objective)
"""

from .expr import LinExpr, Variable, VarType
from .model import Constraint, Model, ModelDelta
from .relaxation import relaxation_bound, solve_relaxation
from .status import Solution, SolveStats, SolveStatus, relative_gap

__all__ = [
    "LinExpr",
    "Variable",
    "VarType",
    "Constraint",
    "Model",
    "ModelDelta",
    "Solution",
    "SolveStats",
    "SolveStatus",
    "solve_relaxation",
    "relaxation_bound",
    "relative_gap",
]
