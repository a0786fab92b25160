"""The ILP model container.

A :class:`Model` owns variables and constraints, and exports itself to the
standard matrix form consumed by the solver backends::

    minimize    c @ x
    subject to  lhs <= A @ x <= rhs
                lb <= x <= ub
                x[i] integral for integer/binary variables
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ModelError
from .expr import LinExpr, Number, Variable, VarType
from .status import Solution

if TYPE_CHECKING:  # pragma: no cover
    from scipy.sparse import csr_matrix


@dataclass
class Constraint:
    """A linear constraint ``expr (<=|>=|==) rhs``.

    Built by comparing expressions (``x + y <= 3``); the relational operators
    on :class:`LinExpr` normalize the constant onto the right-hand side.
    """

    expr: LinExpr
    sense: str  # "<=", ">=", "=="
    rhs: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.sense not in ("<=", ">=", "=="):
            raise ModelError(f"invalid constraint sense {self.sense!r}")

    def coefficient(self, var: Variable) -> float:
        """Coefficient of ``var`` on the constraint's left-hand side."""
        return self.expr.terms.get(var, 0.0)

    def satisfied(self, assignment: dict[Variable, float], tol: float = 1e-6) -> bool:
        """Check the constraint under a concrete assignment."""
        lhs = self.expr.value(assignment)
        if self.sense == "<=":
            return lhs <= self.rhs + tol
        if self.sense == ">=":
            return lhs >= self.rhs - tol
        return abs(lhs - self.rhs) <= tol

    def __repr__(self) -> str:
        label = f"{self.name}: " if self.name else ""
        return f"{label}{self.expr!r} {self.sense} {self.rhs:g}"


@dataclass
class StandardForm:
    """Matrix form of a model (see module docstring).

    The constraint matrix is kept as canonical CSR arrays (rows in order,
    column indices sorted within a row, no explicit zeros); SciPy wraps
    them only when a solver asks for :attr:`a_matrix`.  A form is either
    exported by :meth:`Model.to_standard_form` (``variables`` holds the
    model's :class:`Variable` objects) or built straight into arrays, as
    the layer ILP is (``variables`` holds column names).
    """

    c: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    var_lower: np.ndarray
    var_upper: np.ndarray
    integrality: np.ndarray  # 1 where the variable must be integral
    #: column labels: Variables of an exported model, or column names.
    variables: list
    #: row names ("" for an unnamed row).
    constraints: list[str]
    sense: int = 1  # +1 minimize, -1 maximize (c is already negated for max)
    #: constant term of the objective (added back, unsigned, by backends).
    c0: float = 0.0

    @property
    def num_variables(self) -> int:
        return len(self.c)

    @property
    def num_constraints(self) -> int:
        return len(self.row_lower)

    @property
    def a_matrix(self) -> "csr_matrix":
        """The constraint matrix as a SciPy CSR matrix over the arrays."""
        from scipy.sparse import csr_matrix

        return csr_matrix(
            (self.data, self.indices, self.indptr),
            shape=(self.num_constraints, self.num_variables),
        )

    def to_standard_form(self, relax_integrality: bool = False) -> "StandardForm":
        """The form itself, or its LP relaxation (integrality zeroed)."""
        if not relax_integrality:
            return self
        return replace(self, integrality=np.zeros_like(self.integrality))

    def objective_value(self, x: np.ndarray) -> float:
        """The (unsigned) objective of the column vector ``x``."""
        return self.sense * float(self.c @ x) + self.c0

    def check(self, x: np.ndarray, tol: float = 1e-6) -> list[str]:
        """Describe every row, bound and integrality ``x`` violates."""
        violations = []
        rows = np.repeat(np.arange(self.num_constraints), np.diff(self.indptr))
        lhs = np.bincount(
            rows, weights=self.data * x[self.indices],
            minlength=self.num_constraints,
        )
        bad = (lhs < self.row_lower - tol) | (lhs > self.row_upper + tol)
        for r in np.flatnonzero(bad):
            violations.append(
                f"constraint {self.constraints[r] or r}: {lhs[r]:g} not in "
                f"[{self.row_lower[r]:g}, {self.row_upper[r]:g}]"
            )
        outside = (x < self.var_lower - tol) | (x > self.var_upper + tol)
        fractional = self.integrality.astype(bool) & (
            np.abs(x - np.round(x)) > 1e-4
        )
        for i in np.flatnonzero(outside | fractional):
            violations.append(f"variable {self.variables[i]}={x[i]:g} infeasible")
        return violations

    def solve(
        self,
        time_limit: float | None = None,
        mip_gap: float | None = None,
    ) -> Solution:
        """Solve with HiGHS; the solution's ``values`` is the column vector."""
        from . import highs

        return highs.solve_highs(self, time_limit=time_limit, mip_gap=mip_gap)


class Model:
    """An ILP model: variables + constraints + linear objective.

    >>> m = Model("tiny")
    >>> x = m.binary("x")
    >>> y = m.integer("y", lb=0, ub=4)
    >>> _ = m.add(x + y >= 3)
    >>> m.minimize(2 * x + y)
    >>> sol = m.solve()
    >>> sol.objective
    3.0
    """

    def __init__(self, name: str = "model", sense: str = "min") -> None:
        if sense not in ("min", "max"):
            raise ModelError(f"sense must be 'min' or 'max', got {sense!r}")
        self.name = name
        self.sense = sense
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective: LinExpr = LinExpr()
        self._names: set[str] = set()

    # -- variable creation ---------------------------------------------------

    def _new_var(self, name: str, vtype: VarType, lb: Number, ub: Number) -> Variable:
        if not name:
            name = f"_v{len(self.variables)}"
        if name in self._names:
            raise ModelError(f"duplicate variable name {name!r}")
        self._names.add(name)
        var = Variable(name, len(self.variables), vtype, lb, ub)
        self.variables.append(var)
        return var

    def binary(self, name: str = "") -> Variable:
        """Create a 0/1 variable."""
        return self._new_var(name, VarType.BINARY, 0, 1)

    def integer(
        self, name: str = "", lb: Number = 0, ub: Number = math.inf
    ) -> Variable:
        """Create an integer variable with bounds ``[lb, ub]``."""
        return self._new_var(name, VarType.INTEGER, lb, ub)

    def continuous(
        self, name: str = "", lb: Number = 0, ub: Number = math.inf
    ) -> Variable:
        """Create a continuous variable with bounds ``[lb, ub]``."""
        return self._new_var(name, VarType.CONTINUOUS, lb, ub)

    # -- constraints & objective ----------------------------------------------

    def add(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint (optionally named) and return it."""
        if not isinstance(constraint, Constraint):
            raise ModelError(
                "Model.add expects a Constraint (did the comparison return bool?)"
            )
        for var in constraint.expr.terms:
            if var.index >= len(self.variables) or self.variables[var.index] is not var:
                raise ModelError(
                    f"constraint references foreign variable {var.name!r}"
                )
        if name:
            constraint.name = name
        self.constraints.append(constraint)
        return constraint

    def minimize(self, expr: LinExpr | Variable | Number) -> None:
        self.sense = "min"
        self._set_objective(expr)

    def maximize(self, expr: LinExpr | Variable | Number) -> None:
        self.sense = "max"
        self._set_objective(expr)

    def _set_objective(self, expr: LinExpr | Variable | Number) -> None:
        if isinstance(expr, Variable):
            expr = expr._expr()
        elif isinstance(expr, (int, float)):
            expr = LinExpr({}, expr)
        self.objective = expr

    # -- introspection ----------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def num_integer_variables(self) -> int:
        return sum(
            1 for v in self.variables if v.vtype in (VarType.BINARY, VarType.INTEGER)
        )

    def check(self, assignment: dict[Variable, float], tol: float = 1e-6) -> list[str]:
        """Return human-readable descriptions of all violated constraints."""
        violations = []
        for i, con in enumerate(self.constraints):
            if not con.satisfied(assignment, tol):
                lhs = con.expr.value(assignment)
                violations.append(
                    f"constraint {con.name or i}: {lhs:g} {con.sense} {con.rhs:g}"
                )
        for var in self.variables:
            val = assignment.get(var)
            if val is None:
                violations.append(f"variable {var.name} unassigned")
                continue
            if val < var.lb - tol or val > var.ub + tol:
                violations.append(f"variable {var.name}={val:g} outside [{var.lb}, {var.ub}]")
            if var.vtype is not VarType.CONTINUOUS and abs(val - round(val)) > 1e-4:
                violations.append(f"variable {var.name}={val:g} not integral")
        return violations

    # -- export -------------------------------------------------------------

    def to_standard_form(self, relax_integrality: bool = False) -> StandardForm:
        """Export to the matrix form used by the backends.

        With ``relax_integrality=True`` every variable is exported as
        continuous — the LP relaxation of the model, whose optimum is a
        certified lower bound on the (minimization) ILP objective.
        """
        from scipy.sparse import csr_matrix

        n = len(self.variables)
        sign = 1 if self.sense == "min" else -1

        c = np.zeros(n)
        for var, coeff in self.objective.terms.items():
            c[var.index] = sign * coeff

        rows: list[int] = []
        cols: list[int] = []
        data: list[float] = []
        row_lower = np.empty(len(self.constraints))
        row_upper = np.empty(len(self.constraints))
        for r, con in enumerate(self.constraints):
            for var, coeff in con.expr.terms.items():
                if coeff != 0.0:
                    rows.append(r)
                    cols.append(var.index)
                    data.append(coeff)
            if con.sense == "<=":
                row_lower[r], row_upper[r] = -np.inf, con.rhs
            elif con.sense == ">=":
                row_lower[r], row_upper[r] = con.rhs, np.inf
            else:
                row_lower[r] = row_upper[r] = con.rhs

        # COO -> CSR canonicalizes: rows in order, columns sorted per row.
        a_matrix = csr_matrix(
            (data, (rows, cols)), shape=(len(self.constraints), n)
        )
        var_lower = np.array([v.lb for v in self.variables], dtype=float)
        var_upper = np.array([v.ub for v in self.variables], dtype=float)
        if relax_integrality:
            integrality = np.zeros(n, dtype=int)
        else:
            integrality = np.array(
                [0 if v.vtype is VarType.CONTINUOUS else 1 for v in self.variables]
            )
        return StandardForm(
            c=c,
            indptr=a_matrix.indptr,
            indices=a_matrix.indices,
            data=a_matrix.data,
            row_lower=row_lower,
            row_upper=row_upper,
            var_lower=var_lower,
            var_upper=var_upper,
            integrality=integrality,
            variables=list(self.variables),
            constraints=[con.name for con in self.constraints],
            sense=sign,
            c0=self.objective.constant,
        )

    # -- solving ------------------------------------------------------------

    def solve(
        self,
        time_limit: float | None = None,
        mip_gap: float | None = None,
    ) -> Solution:
        """Solve the model with HiGHS; see :func:`repro.ilp.highs.solve_highs`."""
        # Looked up on the module at call time, so a patched solve_highs
        # (profilers, tests) sees every one-shot solve.
        from . import highs

        return highs.solve_highs(self, time_limit=time_limit, mip_gap=mip_gap)

    def __repr__(self) -> str:
        return (
            f"Model({self.name!r}, vars={self.num_variables}, "
            f"cons={self.num_constraints}, sense={self.sense})"
        )
