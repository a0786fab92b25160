"""Dual-bound and telemetry reporting of the branch-and-bound oracle."""

import pytest

from repro.ilp import Model, SolveStats, SolveStatus
from repro.ilp.bnb import solve_bnb


def knapsack():
    """max 6x + 5y + 4z  s.t. 5x + 4y + 3z <= 9, binaries (opt: x+y = 11)."""
    m = Model("knap", sense="max")
    x = m.binary("x")
    y = m.binary("y")
    z = m.binary("z")
    m.add(5 * x + 4 * y + 3 * z <= 9, name="capacity")
    m.maximize(6 * x + 5 * y + 4 * z)
    return m, (x, y, z)


class TestWarmStart:
    def test_zero_node_budget_without_start_times_out(self):
        """No solver takes a start: with no search budget there is no
        incumbent and no answer."""
        m, _ = knapsack()
        sol = solve_bnb(m, node_limit=0)
        assert sol.status is SolveStatus.TIMEOUT
        assert sol.objective is None


class TestDualBound:
    def test_optimal_bound_equals_objective(self):
        m, _ = knapsack()
        sol = solve_bnb(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.bound == pytest.approx(sol.objective)

    def test_limited_solve_never_reports_infinite_bound(self):
        """Regression: hitting a limit with the root still open used to
        report the root's -inf sentinel as a dual bound."""
        for limit in (0, 1, 2, 3, 5, 8):
            m, _ = knapsack()
            sol = solve_bnb(m, node_limit=limit)
            assert sol.bound is None or sol.bound < float("inf")
            assert sol.bound is None or sol.bound > float("-inf")
            if sol.objective is None:
                assert sol.bound is None

    def test_limited_solve_bound_dominates_incumbent(self):
        """Whenever a bound is reported on a max problem it must be >= the
        incumbent objective (and finite)."""
        m = Model("bigger", sense="max")
        xs = [m.binary(f"x{i}") for i in range(8)]
        weights = [5, 4, 3, 7, 6, 2, 5, 4]
        values = [6, 5, 4, 9, 7, 2, 6, 5]
        m.add(sum(w * x for w, x in zip(weights, xs)) <= 14, name="cap")
        m.maximize(sum(v * x for v, x in zip(values, xs)))
        for limit in (1, 2, 3, 5, 8, 13):
            sol = solve_bnb(m, node_limit=limit)
            if sol.objective is None or sol.bound is None:
                continue
            assert sol.bound >= sol.objective - 1e-9
            assert sol.bound < float("inf")


class TestSolveStats:
    def test_stats_populated(self):
        m, _ = knapsack()
        sol = solve_bnb(m)
        stats = sol.stats
        assert stats is not None
        assert stats.backend == "bnb"
        assert stats.status == "optimal"
        assert stats.nodes >= 1
        assert stats.simplex_iterations >= 1
        assert stats.solve_time >= 0.0

    def test_round_trip(self):
        stats = SolveStats(
            layer=3, backend="bnb", status="feasible", nodes=17,
            simplex_iterations=240, build_time=0.5, solve_time=1.25,
            cache_hit=True, warm_started=True,
        )
        assert SolveStats.from_dict(stats.to_dict()) == stats
