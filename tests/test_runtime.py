"""Tests for the retry model (repro.runtime) and hybrid-schedule runs on
the execution engine (repro.cyberphysical)."""


import pytest

from repro.cyberphysical import ExecutionEngine
from repro.errors import SchedulingError
from repro.hls import synthesize
from repro.hls.schedule import HybridSchedule, LayerSchedule, OpPlacement
from repro.runtime import EventKind, RetryModel


def execute(schedule, retry_model=None, seed=0):
    return ExecutionEngine(schedule, retry_model=retry_model, seed=seed).run()


def hybrid_with_indeterminate() -> HybridSchedule:
    l0 = LayerSchedule(index=0)
    l0.place(OpPlacement("prep", "d0", 0, 4))
    l0.place(OpPlacement("cap", "d1", 2, 5, indeterminate=True))
    l1 = LayerSchedule(index=1)
    l1.place(OpPlacement("detect", "d0", 0, 3))
    return HybridSchedule(layers=[l0, l1])


class TestRetryModel:
    def test_always_succeeds_first_try(self):
        model = RetryModel(success_probability=1.0)
        import random

        assert model.sample_attempts(random.Random(0)) == (1, True)

    def test_attempts_capped(self):
        model = RetryModel(success_probability=0.01, max_attempts=5)
        import random

        rng = random.Random(1)
        assert all(
            model.sample_attempts(rng)[0] <= 5 for _ in range(50)
        )

    def test_succeed_policy_never_fails(self):
        model = RetryModel(success_probability=0.01, max_attempts=2)
        import random

        rng = random.Random(2)
        assert all(model.sample_attempts(rng)[1] for _ in range(50))

    def test_fail_policy_can_fail(self):
        model = RetryModel(
            success_probability=0.05, max_attempts=2, on_exhausted="fail"
        )
        import random

        rng = random.Random(3)
        outcomes = [model.sample_attempts(rng)[1] for _ in range(100)]
        assert not all(outcomes)

    def test_invalid_probability(self):
        with pytest.raises(SchedulingError):
            RetryModel(success_probability=0)

    def test_invalid_attempts(self):
        with pytest.raises(SchedulingError):
            RetryModel(max_attempts=0)

    def test_invalid_policy(self):
        with pytest.raises(SchedulingError):
            RetryModel(on_exhausted="explode")


class TestExecution:
    def test_deterministic_for_seed(self):
        sched = hybrid_with_indeterminate()
        r1 = execute(sched, seed=42)
        r2 = execute(sched, seed=42)
        assert r1.makespan == r2.makespan
        assert r1.attempts == r2.attempts

    def test_makespan_without_retries(self):
        sched = hybrid_with_indeterminate()
        report = execute(
            sched, RetryModel(success_probability=1.0), seed=0
        )
        # layer 0 ends at max(4, 2+5)=7; layer 1 adds 3.
        assert report.makespan == 10
        assert report.realized_terms == {1: 0}

    def test_retries_extend_layer(self):
        sched = hybrid_with_indeterminate()
        report = execute(
            sched, RetryModel(success_probability=0.05, max_attempts=4),
            seed=3,
        )
        attempts = report.attempts["cap"]
        assert attempts >= 2
        expected_layer0_end = max(4, 2 + attempts * 5)
        assert report.layer_spans[0] == (0, expected_layer0_end)
        assert report.realized_terms[1] == expected_layer0_end - 7

    def test_layers_strictly_sequential(self):
        sched = hybrid_with_indeterminate()
        report = execute(sched, seed=7)
        (s0, e0), (s1, e1) = report.layer_spans
        assert s0 == 0 and s1 == e0 and e1 >= s1

    def test_event_log_structure(self):
        sched = hybrid_with_indeterminate()
        report = execute(
            sched, RetryModel(success_probability=1.0), seed=0
        )
        starts = report.log.of_kind(EventKind.OP_START)
        ends = report.log.of_kind(EventKind.OP_END)
        assert {e.uid for e in starts} == {"prep", "cap", "detect"}
        assert len(starts) == len(ends) == 3
        assert len(report.log.of_kind(EventKind.LAYER_START)) == 2

    def test_retry_events_logged(self):
        sched = hybrid_with_indeterminate()
        report = execute(
            sched, RetryModel(success_probability=0.01, max_attempts=3),
            seed=1,
        )
        retries = report.log.of_kind(EventKind.OP_RETRY)
        assert len(retries) == report.attempts["cap"] - 1

    def test_double_booking_detected(self):
        layer = LayerSchedule(index=0)
        layer.place(OpPlacement("a", "d0", 0, 5))
        layer.place(OpPlacement("b", "d0", 3, 5))
        with pytest.raises(SchedulingError):
            execute(HybridSchedule(layers=[layer]))


class TestFailurePolicy:
    def find_failing_seed(self, sched):
        retry = RetryModel(
            success_probability=0.05, max_attempts=2, on_exhausted="fail"
        )
        for seed in range(100):
            report = execute(sched, retry, seed=seed)
            if report.failed_ops:
                return report
        pytest.fail("no failing seed found at p=0.05, cap=2")

    def test_failure_aborts_later_layers(self):
        sched = hybrid_with_indeterminate()
        report = self.find_failing_seed(sched)
        assert report.failed_ops == ["cap"]
        assert report.aborted_layers == [1]
        assert not report.completed
        # The aborted layer's ops never appear in the event log.
        assert report.log.for_op("detect") == []

    def test_success_report_clean(self):
        sched = hybrid_with_indeterminate()
        report = execute(
            sched, RetryModel(success_probability=1.0), seed=0
        )
        assert report.completed
        assert report.aborted_layers == []


class TestEndToEndWithSynthesis:
    def test_synthesized_schedule_executes(self, indeterminate_assay, fast_spec):
        result = synthesize(indeterminate_assay, fast_spec)
        report = execute(result.schedule, seed=11)
        assert report.makespan >= result.fixed_makespan
        # Fixed part + realized indeterminate extras = realized makespan.
        assert report.makespan == result.fixed_makespan + sum(
            report.realized_terms.values()
        )

    def test_perfect_capture_matches_fixed_makespan(
        self, indeterminate_assay, fast_spec
    ):
        result = synthesize(indeterminate_assay, fast_spec)
        report = execute(
            result.schedule, RetryModel(success_probability=1.0), seed=0
        )
        assert report.makespan == result.fixed_makespan
