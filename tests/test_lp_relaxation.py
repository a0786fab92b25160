"""LP-relaxation bounds (repro.ilp.relaxation) and the certified
bound/gap reporting sweep (relative_gap, branch-and-bound dual bounds).

The invariants under test are the ones the synthesis layer relies on:
an *optimal* LP relaxation is a proven lower bound on the integer
optimum, and a solve that proved nothing reports ``None`` — never a
0.0 gap masquerading as "proven optimal".
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize

from repro.ilp import Model, SolveStatus, relative_gap, solve_relaxation
from repro.ilp.bnb import solve_bnb
from repro.ilp.highs import solve_highs

SOLVERS = pytest.mark.parametrize(
    "solve", (solve_highs, solve_bnb), ids=("highs", "bnb")
)


def triangle_cover():
    """Vertex cover on a triangle: ILP optimum 2, LP optimum 1.5."""
    m = Model("triangle-cover")
    x1, x2, x3 = (m.binary(f"x{i}") for i in (1, 2, 3))
    m.add(x1 + x2 >= 1)
    m.add(x2 + x3 >= 1)
    m.add(x1 + x3 >= 1)
    m.minimize(x1 + x2 + x3)
    return m


def cover_chain(n: int = 9):
    """Odd-cycle covers chained together — fractional LP optimum, enough
    branching for bnb limits to bite deterministically."""
    m = Model("cover-chain")
    xs = [m.binary(f"x{i}") for i in range(n)]
    for i in range(n):
        m.add(xs[i] + xs[(i + 1) % n] >= 1)
    m.minimize(sum(((i % 3 + 1) * x for i, x in enumerate(xs)), start=0 * xs[0]))
    return m


class TestRelativeGap:
    def test_absent_bound_is_none_not_zero(self):
        """The headline bug: no bound must never read as a 0.0 gap."""
        assert relative_gap(10.0, None) is None
        assert relative_gap(None, 8.0) is None
        assert relative_gap(None, None) is None

    def test_nonfinite_inputs_are_none(self):
        assert relative_gap(10.0, -math.inf) is None
        assert relative_gap(math.inf, 5.0) is None
        assert relative_gap(10.0, math.nan) is None

    def test_exact_match_is_zero(self):
        assert relative_gap(10.0, 10.0) == 0.0
        assert relative_gap(0.0, 0.0) == 0.0

    def test_tolerance_noise_collapses_to_zero(self):
        assert relative_gap(10.0, 10.0 - 1e-12) == 0.0

    def test_gap_value(self):
        assert relative_gap(10.0, 8.0) == pytest.approx(0.2)


class TestSolveRelaxation:
    @SOLVERS
    def test_fractional_optimum_bounds_the_ilp(self, solve):
        m = triangle_cover()
        relaxed = solve_relaxation(m)
        assert relaxed.status is SolveStatus.OPTIMAL
        assert relaxed.objective == pytest.approx(1.5)
        assert relaxed.bound == relaxed.objective
        integer = solve(m)
        assert integer.objective == pytest.approx(2.0)
        assert relaxed.bound <= integer.objective

    def test_stats_carry_the_certificate(self):
        relaxed = solve_relaxation(triangle_cover())
        assert relaxed.stats is not None
        assert relaxed.stats.lower_bound == pytest.approx(1.5)
        assert relaxed.stats.integrality_gap == 0.0

    def test_relax_integrality_zeros_the_mask(self):
        m = triangle_cover()
        assert m.to_standard_form().integrality.any()
        relaxed_form = m.to_standard_form(relax_integrality=True)
        assert not relaxed_form.integrality.any()

    def test_limit_hit_lp_certifies_nothing(self, monkeypatch):
        """HiGHS stopped by its time limit still hands back a primal
        point, but no optimality proof: no bound, and never a 0.0 gap."""
        model = cover_chain()

        def limit_hit(**kwargs):
            width = len(kwargs["c"])
            return SimpleNamespace(
                status=1, x=np.ones(width), message="time limit reached"
            )

        monkeypatch.setattr(scipy.optimize, "milp", limit_hit)
        relaxed = solve_relaxation(model, time_limit=1.0)
        assert relaxed.status is SolveStatus.TIMEOUT
        assert relaxed.bound is None
        assert relaxed.stats.lower_bound is None
        assert relaxed.stats.integrality_gap is None  # never 0.0


class TestBnbDualBound:
    def test_immediate_timeout_reports_no_bound(self):
        """A zero-budget solve proved nothing: bound absent, gap absent —
        not the incumbent objective, not a 0.0 gap."""
        sol = solve_bnb(cover_chain(), time_limit=0.0)
        assert sol.status is SolveStatus.TIMEOUT
        assert sol.bound is None
        assert sol.stats.lower_bound is None
        assert sol.stats.integrality_gap is None

    @pytest.mark.parametrize("node_limit", (1, 2, 3, 5, 8, 100000))
    def test_bound_never_exceeds_objective(self, node_limit):
        """Across every truncation point: a reported bound is a true lower
        bound, and the recorded gap is exactly the achieved one."""
        sol = solve_bnb(cover_chain(), node_limit=node_limit)
        if not sol.status.has_solution:
            assert sol.bound is None
            return
        if sol.status is SolveStatus.OPTIMAL:
            assert sol.bound == pytest.approx(sol.objective)
        if sol.bound is not None:
            assert sol.bound <= sol.objective + 1e-6
            assert sol.stats.integrality_gap == relative_gap(
                sol.stats.objective, sol.stats.lower_bound
            )
        else:
            assert sol.stats.integrality_gap is None

    def test_exhausted_tree_is_certified_optimal(self):
        sol = solve_bnb(triangle_cover())
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.bound == pytest.approx(2.0)
        assert sol.stats.integrality_gap == 0.0
