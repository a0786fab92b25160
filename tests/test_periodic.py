"""Core tests for the periodic (modulo) scheduling subsystem."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import SpecificationError, ValidationError
from repro.hls import SynthesisSpec, synthesize
from repro.periodic import (
    PeriodicSchedule,
    build_periodic_problem,
    circular_overlap,
    collect_periodic_violations,
    greedy_modulo_schedule,
    ii_lower_bound,
    resource_bound,
    schedule_throughput,
    validate_periodic_schedule,
)
from repro.periodic.model import feasible_lengths, wrap_bound


class TestCircularOverlap:
    def test_disjoint_within_period(self):
        assert not circular_overlap(0, 3, 3, 3, 10)
        assert not circular_overlap(3, 3, 0, 3, 10)

    def test_plain_overlap(self):
        assert circular_overlap(0, 5, 3, 3, 10)

    def test_wraparound_overlap(self):
        # [8, 12) mod 10 covers [8,10) + [0,2): collides with [1, 3).
        assert circular_overlap(8, 4, 1, 2, 10)
        assert not circular_overlap(8, 2, 1, 2, 10)

    def test_over_capacity_always_overlaps(self):
        assert circular_overlap(0, 6, 6, 6, 10)

    def test_zero_length_never_overlaps(self):
        assert not circular_overlap(0, 0, 0, 5, 10)
        assert not circular_overlap(2, 5, 4, 0, 10)


class TestProblem:
    def test_build_from_result(self, indeterminate_assay, fast_spec):
        result = synthesize(indeterminate_assay, fast_spec)
        problem = build_periodic_problem(result)
        assert set(problem.order) == set(indeterminate_assay.uids)
        assert problem.horizon == result.fixed_makespan
        # Every op occupies its device, so there is at least one interval
        # per operation.
        assert len(problem.intervals) >= len(problem.order)
        positions = {uid: k for k, uid in enumerate(problem.order)}
        for parent, child in problem.edges:
            assert positions[parent] < positions[child]

    def test_baseline_is_periodically_valid_at_makespan(
        self, indeterminate_assay, fast_spec
    ):
        result = synthesize(indeterminate_assay, fast_spec)
        problem = build_periodic_problem(result)
        schedule = PeriodicSchedule(
            problem=problem,
            ii=max(problem.horizon, 1),
            starts=dict(problem.baseline_starts),
        )
        assert collect_periodic_violations(schedule) == []

    def test_restrict_keeps_feasibility(self, indeterminate_assay, fast_spec):
        result = synthesize(indeterminate_assay, fast_spec)
        problem = build_periodic_problem(result)
        keep = {"prep0", "capture0", "lyse0", "detect0"}
        sub = problem.restrict(keep, name="half")
        assert set(sub.order) == keep
        assert sub.horizon == problem.horizon
        schedule = PeriodicSchedule(
            problem=sub, ii=sub.horizon, starts=dict(sub.baseline_starts)
        )
        assert collect_periodic_violations(schedule) == []


class TestBound:
    def test_bound_sandwiched(self, indeterminate_assay, fast_spec):
        result = synthesize(indeterminate_assay, fast_spec)
        problem = build_periodic_problem(result)
        bound, _certificate = ii_lower_bound(problem)
        assert 1 <= bound <= problem.horizon
        assert bound >= 1

    def test_lp_agrees_with_arithmetic(self, linear_assay, fast_spec):
        result = synthesize(linear_assay, fast_spec)
        problem = build_periodic_problem(result)
        bound, _certificate = ii_lower_bound(problem)
        # The LP bound is reported as min(lp, arithmetic), so it can never
        # exceed the arithmetic ResMII.
        assert bound <= resource_bound(problem)


class TestGreedy:
    def test_feasible_at_horizon(self, indeterminate_assay, fast_spec):
        result = synthesize(indeterminate_assay, fast_spec)
        problem = build_periodic_problem(result)
        starts = greedy_modulo_schedule(problem, problem.horizon)
        assert starts is not None
        schedule = PeriodicSchedule(
            problem=problem, ii=problem.horizon, starts=starts
        )
        assert collect_periodic_violations(schedule) == []

    def test_rejects_impossible_ii(self, linear_assay, fast_spec):
        result = synthesize(linear_assay, fast_spec)
        problem = build_periodic_problem(result)
        # II=1 cannot fit any multi-unit occupancy.
        assert greedy_modulo_schedule(problem, 1) is None


class TestModel:
    def test_wrap_bound_monotone(self):
        assert wrap_bound(100, 10) == 11
        assert wrap_bound(100, 100) == 2
        assert wrap_bound(0, 5) >= 1

    def test_feasible_lengths_rejects_long_intervals(
        self, linear_assay, fast_spec
    ):
        result = synthesize(linear_assay, fast_spec)
        problem = build_periodic_problem(result)
        longest = max(
            interval.fixed_length
            for interval in problem.intervals
            if interval.fixed_length is not None
        )
        assert feasible_lengths(problem, longest)
        assert not feasible_lengths(problem, longest - 1)


class TestSearch:
    def test_pipelines_below_makespan(self, indeterminate_assay, fast_spec):
        result = synthesize(indeterminate_assay, fast_spec)
        throughput = schedule_throughput(result, fast_spec)
        assert throughput.ii < throughput.base_makespan
        assert throughput.ii >= throughput.lower_bound
        assert throughput.speedup > 1.0
        assert throughput.probes
        validate_periodic_schedule(throughput.schedule)

    def test_stats_carry_certificate(self, indeterminate_assay, fast_spec):
        result = synthesize(indeterminate_assay, fast_spec)
        throughput = schedule_throughput(result, fast_spec)
        assert throughput.stats.backend.startswith("periodic-")
        assert throughput.stats.objective == float(throughput.ii)
        assert throughput.stats.lower_bound is not None
        assert throughput.integrality_gap is not None
        assert throughput.integrality_gap >= 0.0

    def test_no_warm_start_reported(self, indeterminate_assay, fast_spec):
        """No periodic probe is warm-started (HiGHS takes no start), so the
        stat must not claim one."""
        result = synthesize(indeterminate_assay, fast_spec)
        throughput = schedule_throughput(result, fast_spec)
        assert throughput.stats.warm_started is False

    def test_target_ii_stops_early(self, indeterminate_assay, fast_spec):
        result = synthesize(indeterminate_assay, fast_spec)
        free = schedule_throughput(result, fast_spec)
        spec = dataclasses.replace(fast_spec, target_ii=free.base_makespan)
        capped = schedule_throughput(result, spec)
        # Floor == makespan: the search window collapses, no probes run.
        assert capped.ii == capped.base_makespan
        assert capped.probes == []
        assert capped.ii >= free.ii

    def test_greedy_scheduler_validates(self, indeterminate_assay, fast_spec):
        result = synthesize(indeterminate_assay, fast_spec)
        spec = dataclasses.replace(fast_spec, throughput_scheduler="greedy")
        throughput = schedule_throughput(result, spec)
        assert throughput.ii <= throughput.base_makespan
        validate_periodic_schedule(throughput.schedule)


class TestValidator:
    def _problem(self, assay, spec):
        return build_periodic_problem(synthesize(assay, spec))

    def test_rejects_missing_operation(self, linear_assay, fast_spec):
        problem = self._problem(linear_assay, fast_spec)
        starts = dict(problem.baseline_starts)
        starts.pop(problem.order[0])
        schedule = PeriodicSchedule(
            problem=problem, ii=problem.horizon, starts=starts
        )
        assert any(
            "never placed" in v
            for v in collect_periodic_violations(schedule)
        )

    def test_rejects_dependency_tamper(self, linear_assay, fast_spec):
        problem = self._problem(linear_assay, fast_spec)
        starts = dict(problem.baseline_starts)
        parent, child = problem.edges[0]
        starts[child] = starts[parent]  # starts before parent finished
        schedule = PeriodicSchedule(
            problem=problem, ii=problem.horizon, starts=starts
        )
        with pytest.raises(ValidationError):
            validate_periodic_schedule(schedule)

    def test_rejects_modulo_collision(self, indeterminate_assay, fast_spec):
        problem = self._problem(indeterminate_assay, fast_spec)
        # Halving the II without re-timing folds iteration k onto k+1;
        # for this two-branch assay the devices collide.
        schedule = PeriodicSchedule(
            problem=problem,
            ii=max(problem.horizon // 4, 1),
            starts=dict(problem.baseline_starts),
        )
        violations = collect_periodic_violations(schedule)
        assert violations

    def test_rejects_nonpositive_ii(self, linear_assay, fast_spec):
        problem = self._problem(linear_assay, fast_spec)
        schedule = PeriodicSchedule(
            problem=problem, ii=0, starts=dict(problem.baseline_starts)
        )
        assert collect_periodic_violations(schedule)


class TestSpecValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(SpecificationError, match="throughput_mode"):
            SynthesisSpec(throughput_mode="sometimes")

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(SpecificationError, match="throughput_scheduler"):
            SynthesisSpec(throughput_scheduler="magic")

    def test_bad_target_ii_rejected(self):
        with pytest.raises(SpecificationError, match="target_ii"):
            SynthesisSpec(target_ii=0)

    def test_bad_variant_fraction_rejected(self):
        with pytest.raises(SpecificationError, match="fraction"):
            SynthesisSpec(throughput_variants=(1.5,))
