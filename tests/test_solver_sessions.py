"""Incremental-ILP tests: solver sessions over array-form models and layer
deltas (repro.ilp.highs / repro.hls.session / repro.hls.milp_model)."""

import itertools

import numpy as np
import pytest

from repro.hls import SessionPool, SynthesisSpec
from repro.hls.backends import _run_layer_solve
from repro.hls.cache import structural_fingerprint_layer_problem
from repro.hls.milp_model import (
    LayerProblem,
    apply_layer_delta,
    build_layer_model,
    encode_layer_delta,
)
from repro.ilp import Model, SolveStatus
from repro.ilp.bnb import solve_bnb
from repro.ilp.highs import HighsSession, solve_highs

COUNTER = itertools.count()

FORM_ARRAYS = (
    "c", "indptr", "indices", "data", "row_lower", "row_upper",
    "var_lower", "var_upper", "integrality",
)


def fresh_uid():
    return f"nd{next(COUNTER)}"


def forms_equal(a, b):
    """Byte-identical standard forms (same rows, bounds, objective)."""
    return (
        all(
            getattr(a, name).dtype == getattr(b, name).dtype
            and getattr(a, name).tobytes() == getattr(b, name).tobytes()
            for name in FORM_ARRAYS
        )
        and a.sense == b.sense
        and a.c0 == b.c0
    )


# ---------------------------------------------------------------------------
# Array patches on plain ILP models
# ---------------------------------------------------------------------------


class TestModelMutation:
    def build(self):
        m = Model("mut")
        x = m.integer("x", lb=0, ub=10)
        y = m.integer("y", lb=0, ub=10)
        m.add(x + y >= 4, name="cover")
        m.minimize(3 * x + 2 * y)
        return m, x, y

    def test_set_rhs_and_coefficient_reach_standard_form(self):
        m, x, _ = self.build()
        form = m.to_standard_form()
        # Row 0 is ``x + y >= 4``; x is column 0, the row's first entry.
        form.row_lower[0] = 6.0
        form.data[form.indptr[0] + x.index] = 3.0
        scratch = Model("scratch")
        sx = scratch.integer("x", lb=0, ub=10)
        sy = scratch.integer("y", lb=0, ub=10)
        scratch.add(3 * sx + sy >= 6, name="cover")
        scratch.minimize(3 * sx + 2 * sy)
        assert forms_equal(form, scratch.to_standard_form())

    def test_update_coefficient_on_presolved_away_variable(self):
        # HiGHS's presolve folds the singleton row on x into its bounds and
        # can eliminate the variable from the reduced form; patching that
        # coefficient afterwards must still re-solve correctly because the
        # session hands HiGHS the current arrays on every solve.
        m = Model("pre")
        x = m.integer("x", lb=0, ub=100)
        y = m.integer("y", lb=0, ub=100)
        m.add(2 * x <= 9, name="cap")  # singleton: folds to x <= 4
        m.add(x + y >= 6, name="cover")
        m.minimize(x + 3 * y)
        session = HighsSession(m.to_standard_form())
        first = session.solve()
        assert first.objective == pytest.approx(4 + 3 * 2)
        session.form.data[session.form.indptr[0]] = 4.0  # now x <= 2
        second = session.solve()
        assert second.objective == pytest.approx(2 + 3 * 4)
        assert solve_bnb(session.form).objective == pytest.approx(
            second.objective
        )


# ---------------------------------------------------------------------------
# Solver sessions on plain ILP models
# ---------------------------------------------------------------------------


#: The one-shot solve a session is checked against: HiGHS itself, and the
#: branch-and-bound oracle.
SOLVERS = pytest.mark.parametrize(
    "solve", (solve_highs, solve_bnb), ids=("highs", "bnb")
)


class TestSolverSessions:
    def knapsack(self):
        m = Model("knap")
        xs = [m.binary(f"x{i}") for i in range(4)]
        weights = [4, 3, 2, 5]
        values = [5, 4, 3, 7]
        m.add(
            sum(w * x for w, x in zip(weights, xs)) <= 7, name="weight"
        )
        m.maximize(sum(v * x for v, x in zip(values, xs)))
        return m, xs

    @SOLVERS
    def test_session_matches_direct_solve(self, solve):
        m, _ = self.knapsack()
        direct = solve(m)
        m2, _ = self.knapsack()
        session = HighsSession(m2.to_standard_form())
        via_session = session.solve()
        assert via_session.objective == pytest.approx(direct.objective)
        session.close()

    @SOLVERS
    def test_delta_resolve_matches_scratch(self, solve):
        m, xs = self.knapsack()
        session = HighsSession(m.to_standard_form())
        session.solve()
        session.form.row_upper[0] = 9.0
        session.form.c[xs[0].index] = -9.0  # maximize: c holds -value
        mutated = session.solve()
        scratch = Model("scratch")
        ys = [scratch.binary(f"x{i}") for i in range(4)]
        scratch.add(
            4 * ys[0] + 3 * ys[1] + 2 * ys[2] + 5 * ys[3] <= 9, name="weight"
        )
        scratch.maximize(9 * ys[0] + 4 * ys[1] + 3 * ys[2] + 7 * ys[3])
        expected = solve(scratch)
        assert mutated.objective == pytest.approx(expected.objective)
        session.close()

    def test_highs_session_form_identity_after_mutations(self):
        m, xs = self.knapsack()
        form = m.to_standard_form()
        session = HighsSession(form)
        session.form.row_upper[0] = 8.0
        session.form.data[form.indptr[0] + xs[2].index] = 1.0
        scratch, ys = self.knapsack()
        scratch.constraints[0].rhs = 8.0
        scratch.constraints[0].expr.terms[ys[2]] = 1.0
        # The session solves the caller's arrays, never a private copy.
        assert session.form is form
        assert forms_equal(session.form, scratch.to_standard_form())
        assert session.solve().objective == pytest.approx(
            solve_highs(scratch).objective
        )
        session.close()


# ---------------------------------------------------------------------------
# Layer deltas + session pool
# ---------------------------------------------------------------------------


def layer_problem(transport=2, durations=(3, 4, 5), slots=2):
    from repro.operations import Fixed, Operation

    ops = [
        Operation(f"o{i}", Fixed(d)) for i, d in enumerate(durations)
    ]
    edges = [("o0", "o1"), ("o1", "o2")]
    edge_transport = {e: transport for e in edges}
    release = {
        op.uid: max(
            (edge_transport[e] for e in edges if e[0] == op.uid), default=0
        )
        for op in ops
    }
    return LayerProblem(
        layer_index=0,
        ops=ops,
        in_layer_edges=edges,
        edge_transport=edge_transport,
        release=release,
        fixed_devices=[],
        free_slots=slots,
    )


class TestLayerDelta:
    def spec(self, **kwargs):
        kwargs.setdefault("max_devices", 6)
        kwargs.setdefault("time_limit", 10.0)
        return SynthesisSpec(**kwargs)

    def test_delta_model_equals_scratch_build(self):
        spec = self.spec()
        layer_model = build_layer_model(layer_problem(transport=2), spec)
        changed = layer_problem(transport=4)
        delta = encode_layer_delta(layer_model, changed, spec)
        assert delta is not None
        apply_layer_delta(layer_model, changed, delta)
        scratch = build_layer_model(changed, spec)
        assert forms_equal(layer_model.model, scratch.model)
        assert layer_model.problem is changed
        assert layer_model.horizon == scratch.horizon

    def test_delta_declines_structural_change(self):
        spec = self.spec()
        layer_model = build_layer_model(layer_problem(), spec)
        changed = layer_problem(durations=(3, 4, 9))
        assert encode_layer_delta(layer_model, changed, spec) is None

    def test_noop_delta_is_empty(self):
        spec = self.spec()
        problem = layer_problem()
        layer_model = build_layer_model(problem, spec)
        before = {
            name: getattr(layer_model.model, name).copy()
            for name in FORM_ARRAYS
        }
        delta = encode_layer_delta(layer_model, layer_problem(), spec)
        assert delta is not None
        assert delta.horizon == layer_model.horizon
        apply_layer_delta(layer_model, layer_problem(), delta)
        # Same numbers: the patch rewrites every position with its value.
        for name, array in before.items():
            assert np.array_equal(getattr(layer_model.model, name), array)

    def test_pool_reuses_and_rebuilds(self):
        spec = self.spec()
        pool = SessionPool(capacity=4)
        first = pool.acquire(layer_problem(transport=2), spec)
        assert pool.created == 1 and pool.reused == 0
        again = pool.acquire(layer_problem(transport=5), spec)
        assert again is first
        assert pool.reused == 1
        # A structurally different problem keys a second session.
        other = pool.acquire(layer_problem(durations=(3, 4, 9)), spec)
        assert other is not first
        assert pool.created == 2
        pool.close()
        assert len(pool) == 0

    def test_pool_session_solves_like_scratch(self):
        spec = self.spec()
        pool = SessionPool()
        pool.acquire(layer_problem(transport=2), spec)
        changed = layer_problem(transport=4)
        session = pool.acquire(changed, spec)
        assert session.solver.form is session.layer_model.model
        via_session = _run_layer_solve(session.layer_model, session.solver, spec)
        scratch = build_layer_model(changed, spec)
        direct = scratch.model.solve(time_limit=spec.time_limit)
        assert via_session.status is SolveStatus.OPTIMAL
        assert via_session.objective == pytest.approx(direct.objective)
        pool.close()

    def test_structural_fingerprint_ignores_transport_values(self):
        spec = self.spec()
        a = structural_fingerprint_layer_problem(layer_problem(transport=2), spec)
        b = structural_fingerprint_layer_problem(layer_problem(transport=7), spec)
        c = structural_fingerprint_layer_problem(
            layer_problem(durations=(3, 4, 9)), spec
        )
        assert a == b
        assert a != c

    def test_pool_lru_eviction_closes_sessions(self):
        spec = self.spec()
        pool = SessionPool(capacity=1)
        pool.acquire(layer_problem(), spec)
        pool.acquire(layer_problem(durations=(1, 2, 3)), spec)
        assert len(pool) == 1
        assert pool.evictions == 1
