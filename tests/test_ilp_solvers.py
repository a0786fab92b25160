"""Tests for the MILP solvers: HiGHS, the only solver synthesis runs, and
the pure-Python branch and bound kept as its reference oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ilp.highs as highs_mod
from repro.ilp import Model, SolveStatus
from repro.ilp.bnb import solve_bnb
from repro.ilp.highs import solve_highs

SOLVERS = pytest.mark.parametrize(
    "solve", (solve_highs, solve_bnb), ids=("highs", "bnb")
)


def knapsack_model():
    m = Model("knapsack", sense="max")
    values = [10, 13, 18, 31, 7, 15]
    weights = [2, 3, 4, 5, 1, 4]
    xs = [m.binary(f"x{i}") for i in range(6)]
    m.add(
        sum((w * x for w, x in zip(weights, xs)), start=0 * xs[0]) <= 10
    )
    m.maximize(sum((v * x for v, x in zip(values, xs)), start=0 * xs[0]))
    return m, xs


class TestBackends:
    @SOLVERS
    def test_knapsack_optimum(self, solve):
        m, _ = knapsack_model()
        sol = solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(56)  # items 18+31+7 (w=10)

    @SOLVERS
    def test_infeasible(self, solve):
        m = Model()
        x = m.binary("x")
        m.add(x >= 2)
        assert solve(m).status is SolveStatus.INFEASIBLE

    @SOLVERS
    def test_integer_rounding(self, solve):
        m = Model()
        x = m.integer("x", lb=0, ub=10)
        m.add(2 * x >= 5)
        m.minimize(x)
        sol = solve(m)
        assert sol.int_value(x) == 3

    @SOLVERS
    def test_mixed_integer_continuous(self, solve):
        m = Model()
        x = m.integer("x", lb=0, ub=4)
        y = m.continuous("y", lb=0, ub=10)
        m.add(x + y >= 4.5)
        m.minimize(3 * x + y)
        sol = solve(m)
        # all weight on the continuous variable
        assert sol.objective == pytest.approx(4.5)
        assert sol.int_value(x) == 0

    @SOLVERS
    def test_equality_constraints(self, solve):
        m = Model()
        x = m.integer("x", lb=0, ub=9)
        y = m.integer("y", lb=0, ub=9)
        m.add(x + y == 7)
        m.minimize(x - y)
        sol = solve(m)
        assert sol.int_value(x) == 0 and sol.int_value(y) == 7

    def test_bnb_unbounded(self):
        m = Model()
        x = m.continuous("x", lb=0)
        m.minimize(-1 * x)
        assert solve_bnb(m).status is SolveStatus.UNBOUNDED

    def test_highs_unbounded(self):
        m = Model()
        x = m.continuous("x", lb=0)
        m.minimize(-1 * x)
        status = solve_highs(m).status
        assert status in (SolveStatus.UNBOUNDED, SolveStatus.INFEASIBLE)

    def test_solution_value_helper(self):
        m = Model()
        x = m.integer("x", lb=1, ub=1)
        m.minimize(x)
        sol = m.solve()
        assert sol.value(2 * x + 1) == pytest.approx(3)
        assert sol[x] == pytest.approx(1)


class TestDispatch:
    def test_auto_uses_highs(self):
        """``Model.solve`` runs HiGHS; there is no other solver to pick."""
        m = Model()
        x = m.binary("x")
        m.minimize(x)
        assert m.solve().backend == "highs"

    def test_time_limit_forwarded(self, monkeypatch):
        """``Model.solve`` looks ``solve_highs`` up on its module at call
        time (profilers patch it there) and forwards both limits."""
        seen = {}
        original = highs_mod.solve_highs

        def recording(model, time_limit=None, mip_gap=None):
            seen.update(time_limit=time_limit, mip_gap=mip_gap)
            return original(model, time_limit=time_limit, mip_gap=mip_gap)

        monkeypatch.setattr(highs_mod, "solve_highs", recording)
        m, _ = knapsack_model()
        sol = m.solve(time_limit=30, mip_gap=0.5)
        assert sol.status.has_solution
        assert seen == {"time_limit": 30, "mip_gap": 0.5}


@st.composite
def small_milps(draw):
    """A tiny bounded MILP: 1-6 binary/integer variables, 0-5 rows of any
    sense, small integer coefficients (so optima are integers and both
    solvers must agree exactly)."""
    n = draw(st.integers(min_value=1, max_value=6))
    variables = []
    for _ in range(n):
        if draw(st.booleans()):
            variables.append(("binary", 0, 1))
        else:
            lb = draw(st.integers(min_value=-3, max_value=3))
            ub = draw(st.integers(min_value=lb, max_value=lb + 6))
            variables.append(("integer", lb, ub))
    coeff = st.integers(min_value=-4, max_value=4)
    rows = draw(
        st.lists(
            st.tuples(
                st.lists(coeff, min_size=n, max_size=n),
                st.sampled_from(("<=", ">=", "==")),
                st.integers(min_value=-8, max_value=12),
            ),
            max_size=5,
        )
    )
    objective = draw(st.lists(coeff, min_size=n, max_size=n))
    sense = draw(st.sampled_from(("min", "max")))
    return variables, rows, objective, sense


def build_milp(spec):
    variables, rows, objective, sense = spec
    m = Model("oracle", sense=sense)
    xs = []
    for i, (kind, lb, ub) in enumerate(variables):
        if kind == "binary":
            xs.append(m.binary(f"x{i}"))
        else:
            xs.append(m.integer(f"x{i}", lb=lb, ub=ub))
    for coeffs, op, rhs in rows:
        expr = sum((c * x for c, x in zip(coeffs, xs)), start=0 * xs[0])
        if op == "<=":
            m.add(expr <= rhs)
        elif op == ">=":
            m.add(expr >= rhs)
        else:
            m.add(expr == rhs)
    expr = sum((c * x for c, x in zip(objective, xs)), start=0 * xs[0])
    if sense == "min":
        m.minimize(expr)
    else:
        m.maximize(expr)
    return m


@settings(max_examples=60, deadline=None)
@given(spec=small_milps())
def test_backends_agree_on_random_milps(spec):
    """Differential check against the oracle: on small bounded MILPs HiGHS
    (run to a zero gap) and the own branch and bound agree on the status
    and, when there is an optimum, on its value."""
    model = build_milp(spec)
    highs = solve_highs(model, mip_gap=0.0)
    oracle = solve_bnb(model)
    assert oracle.status in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE)
    assert highs.status is oracle.status
    if oracle.status is SolveStatus.OPTIMAL:
        assert highs.objective == pytest.approx(oracle.objective, abs=1e-6)
        assert model.check(highs.values) == []
