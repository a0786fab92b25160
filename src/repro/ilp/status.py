"""Solver result types."""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING

from .expr import LinExpr, Variable

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


def relative_gap(objective: float | None, bound: float | None) -> float | None:
    """Certified relative optimality gap ``|objective - bound| / |objective|``.

    Returns ``None`` when either side is missing or non-finite — an absent
    bound proves nothing, and must never masquerade as a 0.0 gap (the bug
    this helper exists to prevent: a timed-out solve reporting "optimal").
    Gaps below integrality noise collapse to exactly 0.0.
    """
    if objective is None or bound is None:
        return None
    if not (math.isfinite(objective) and math.isfinite(bound)):
        return None
    spread = abs(objective - bound)
    denom = max(abs(objective), 1e-9)
    gap = spread / denom
    return 0.0 if gap < 1e-9 else gap


class SolveStatus(enum.Enum):
    """Outcome of a solve call."""

    OPTIMAL = "optimal"
    #: A feasible (integer) solution was found but optimality was not proven
    #: within the time/node limit.
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    #: The limit was hit before any feasible solution was found.
    TIMEOUT = "timeout"

    @property
    def has_solution(self) -> bool:
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)


@dataclass
class SolveStats:
    """Telemetry of one solve: where the time went and how hard it was.

    Solvers fill what they can observe (the pure-Python branch and bound
    counts everything; HiGHS only reports node counts).  The synthesis
    driver adds the surrounding context — model build time and whether the
    result came from the layer-solve cache — before aggregating per pass.
    """

    #: layer index the solve belongs to (-1 outside layer synthesis).
    layer: int = -1
    backend: str = ""
    status: str = ""
    #: branch-and-bound nodes processed (MIP backends).
    nodes: int = 0
    #: total simplex iterations across all LP relaxations (branch and
    #: bound only; HiGHS reports none).
    simplex_iterations: int = 0
    #: wall-clock seconds spent building the model (driver-level; includes
    #: heuristic candidates around the encoder).
    build_time: float = 0.0
    #: wall-clock seconds spent encoding: building the ILP model from the
    #: layer problem, or mutating a session's model via a delta.  A subset
    #: of ``build_time``; 0.0 when a session replayed a cached encoding.
    encode_time: float = 0.0
    #: wall-clock seconds spent inside the solver backend.
    solve_time: float = 0.0
    #: the result was replayed from the layer-solve cache (no solve ran).
    cache_hit: bool = False
    #: a warm-start incumbent was accepted by the backend.  No solver takes
    #: a start any more, so this stays False; the field keeps the stats
    #: wire format stable.
    warm_started: bool = False
    #: the layer objective the returned schedule achieves (layer_cost
    #: units); None when the backend did not evaluate one.
    objective: float | None = None
    #: certified lower bound on this layer's objective — the LP-relaxation
    #: optimum or the MIP solver's proven dual bound.  None when nothing
    #: was proven (never an incumbent echo).
    lower_bound: float | None = None
    #: achieved relative gap between ``objective`` and ``lower_bound``
    #: (:func:`relative_gap`); 0.0 means proven optimal, None means
    #: uncertified.  This is the *achieved* gap, not the requested
    #: ``spec.mip_gap`` tolerance.
    integrality_gap: float | None = None

    def to_dict(self) -> dict:
        """Plain-JSON representation (round-trips via :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SolveStats":
        """Rebuild from :meth:`to_dict` output.

        Unknown keys are ignored so profiles written by a newer schema
        (or hand-edited) still load; missing keys fall back to defaults.
        """
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class Solution:
    """A (possibly partial) solve result.

    ``values`` maps every model variable to its value when
    ``status.has_solution`` is true, and is empty otherwise.  For a model
    solved in array form (:class:`~repro.ilp.model.StandardForm`) it is the
    column vector, indexed by column.
    """

    status: SolveStatus
    objective: float | None = None
    values: "dict[Variable, float] | np.ndarray" = field(default_factory=dict)
    #: Proven lower bound on the (minimization) objective, if available.
    bound: float | None = None
    #: Wall-clock seconds spent in the backend.
    runtime: float = 0.0
    backend: str = ""
    #: Backend telemetry (nodes, iterations, ...), if the backend reports it.
    stats: SolveStats | None = None

    def __getitem__(self, key: Variable) -> float:
        return self.values[key]

    def value(self, expr: LinExpr | Variable) -> float:
        """Evaluate an expression under this solution."""
        if isinstance(expr, Variable):
            return self.values[expr]
        return expr.value(self.values)

    def int_value(self, key: Variable, tol: float = 1e-6) -> int:
        """Variable value rounded to the nearest integer (asserting closeness)."""
        raw = self.values[key]
        rounded = round(raw)
        if abs(raw - rounded) > max(tol, 1e-4):
            label = getattr(key, "name", key)
            raise ValueError(f"{label} = {raw} is not integral")
        return int(rounded)
