"""Incremental-ILP tests: model mutation, solver sessions and layer deltas
(repro.ilp.model / repro.hls.session / repro.hls.milp_model)."""

import itertools

import numpy as np
import pytest

from repro.errors import ModelError
from repro.hls import SessionPool, SynthesisSpec
from repro.hls.backends import _run_layer_solve
from repro.hls.cache import structural_fingerprint_layer_problem
from repro.hls.milp_model import (
    LayerProblem,
    apply_layer_delta,
    build_layer_model,
    encode_layer_delta,
)
from repro.ilp import Model, ModelDelta, SolveStatus
from repro.ilp.bnb import solve_bnb
from repro.ilp.highs import HighsSession, solve_highs

COUNTER = itertools.count()


def fresh_uid():
    return f"nd{next(COUNTER)}"


def forms_equal(a, b):
    """Byte-identical standard forms (same rows, bounds, objective)."""
    if [v.name for v in a.variables] != [v.name for v in b.variables]:
        return False
    if a.a_matrix.shape != b.a_matrix.shape:
        return False
    dense_a, dense_b = a.a_matrix.toarray(), b.a_matrix.toarray()
    return (
        np.array_equal(dense_a, dense_b)
        and np.array_equal(a.c, b.c)
        and np.array_equal(a.row_lower, b.row_lower)
        and np.array_equal(a.row_upper, b.row_upper)
        and np.array_equal(a.var_lower, b.var_lower)
        and np.array_equal(a.var_upper, b.var_upper)
        and np.array_equal(a.integrality, b.integrality)
        and a.sense == b.sense
        and a.c0 == b.c0
    )


# ---------------------------------------------------------------------------
# Model mutation API
# ---------------------------------------------------------------------------


class TestModelMutation:
    def build(self):
        m = Model("mut")
        x = m.integer("x", lb=0, ub=10)
        y = m.integer("y", lb=0, ub=10)
        m.add(x + y >= 4, name="cover")
        m.minimize(3 * x + 2 * y)
        return m, x, y

    def test_revision_strictly_monotonic(self):
        m, x, y = self.build()
        seen = [m.revision]
        m.set_rhs("cover", 5)
        seen.append(m.revision)
        m.set_coefficient("cover", x, 2.0)
        seen.append(m.revision)
        m.set_variable_bounds(x, ub=8)
        seen.append(m.revision)
        m.set_objective_coefficient(y, 5.0)
        seen.append(m.revision)
        m.set_objective_constant(7.0)
        seen.append(m.revision)
        m.add(x - y <= 3, name="extra")
        seen.append(m.revision)
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen)

    def test_unknown_constraint_lookup_raises(self):
        m, _, _ = self.build()
        with pytest.raises(ModelError):
            m.constraint("nope")

    def test_duplicate_names_resolve_to_most_recent(self):
        # The layer model emits duplicate-named rows (path_in/path_out with
        # several cross-layer parents); the named index must not reject
        # them, and mutation addresses the most recently added row.
        m = Model()
        x = m.binary("x")
        first = m.add(x <= 1, name="dup")
        second = m.add(x >= 0, name="dup")
        assert m.constraint("dup") is second
        assert first in m.constraints

    def test_set_rhs_and_coefficient_reach_standard_form(self):
        m, x, y = self.build()
        m.set_rhs("cover", 6)
        m.set_coefficient("cover", x, 3.0)
        scratch = Model("scratch")
        sx = scratch.integer("x", lb=0, ub=10)
        sy = scratch.integer("y", lb=0, ub=10)
        scratch.add(3 * sx + sy >= 6, name="cover")
        scratch.minimize(3 * sx + 2 * sy)
        assert forms_equal(m.to_standard_form(), scratch.to_standard_form())

    def test_bounds_validation(self):
        m, x, _ = self.build()
        with pytest.raises(ModelError):
            m.set_variable_bounds(x, lb=5, ub=3)

    def test_foreign_variable_rejected(self):
        m, x, _ = self.build()
        other = Model()
        z = other.binary("z")
        with pytest.raises(ModelError):
            m.set_objective_coefficient(z, 1.0)
        with pytest.raises(ModelError):
            m.set_coefficient("cover", z, 1.0)

    def test_delta_batches_mutations(self):
        m, x, y = self.build()
        delta = ModelDelta()
        assert delta.empty and len(delta) == 0
        delta.set_rhs("cover", 6)
        delta.set_variable_bounds(x, ub=7)
        delta.set_objective_constant(1.5)
        assert len(delta) == 3 and not delta.empty
        before = m.revision
        delta.apply_to(m)
        assert m.revision == before + 3
        solution = m.solve()
        assert solution.status is SolveStatus.OPTIMAL
        # min 3x+2y+1.5 s.t. x+y>=6 -> all y.
        assert solution.objective == pytest.approx(13.5)

    def test_update_coefficient_on_presolved_away_variable(self):
        # HiGHS's presolve folds the singleton row on x into its bounds and
        # can eliminate the variable from the reduced form; mutating that
        # coefficient afterwards must still re-solve correctly because the
        # session re-extracts the dirtied row from the (mutated) model.
        m = Model("pre")
        x = m.integer("x", lb=0, ub=100)
        y = m.integer("y", lb=0, ub=100)
        m.add(2 * x <= 9, name="cap")  # singleton: folds to x <= 4
        m.add(x + y >= 6, name="cover")
        m.minimize(x + 3 * y)
        session = HighsSession(m)
        first = session.solve()
        assert first.objective == pytest.approx(4 + 3 * 2)
        m.set_coefficient("cap", x, 4.0)  # now x <= 2
        second = session.solve()
        assert second.objective == pytest.approx(2 + 3 * 4)
        assert solve_bnb(m).objective == pytest.approx(second.objective)


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
        session = HighsSession(m2)
        via_session = session.solve()
        assert via_session.objective == pytest.approx(direct.objective)
        session.close()

    @SOLVERS
    def test_delta_resolve_matches_scratch(self, solve):
        m, xs = self.knapsack()
        session = HighsSession(m)
        session.solve()
        delta = ModelDelta()
        delta.set_rhs("weight", 9)
        delta.set_objective_coefficient(xs[0], 9.0)
        session.apply(delta)
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
        session = HighsSession(m)
        delta = ModelDelta()
        delta.set_rhs("weight", 8)
        delta.set_coefficient("weight", xs[2], 1.0)
        delta.add(xs[0] + xs[1] <= 1, name="pick_one")
        session.apply(delta)
        assert forms_equal(session._form(), m.to_standard_form())
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
        encoded = encode_layer_delta(layer_model, changed, spec)
        assert encoded is not None
        delta, horizon = encoded
        assert not delta.empty
        apply_layer_delta(layer_model, changed, delta, horizon)
        scratch = build_layer_model(changed, spec)
        assert forms_equal(
            layer_model.model.to_standard_form(),
            scratch.model.to_standard_form(),
        )
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
        encoded = encode_layer_delta(layer_model, layer_problem(), spec)
        assert encoded is not None
        delta, _ = encoded
        assert delta.empty

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
