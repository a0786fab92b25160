"""Edge-case tests for hybrid-schedule runs on the execution engine.

Covers the corners the main runtime suite skips: empty schedules, layers
whose only operation is indeterminate, first-layer failure aborting the
whole run, event ordering at layer boundaries, and the tightened
device-exclusivity check (nothing may follow an indeterminate operation on
the same device).
"""

import pytest

from repro.cyberphysical import ExecutionEngine
from repro.errors import SchedulingError
from repro.hls.schedule import HybridSchedule, LayerSchedule, OpPlacement
from repro.runtime import EventKind, RetryModel


def execute(schedule, retry_model=None, seed=0):
    return ExecutionEngine(schedule, retry_model=retry_model, seed=seed).run()


class TestEmptySchedules:
    def test_empty_layer_list(self):
        report = execute(HybridSchedule(layers=[]))
        assert report.makespan == 0
        assert report.layer_spans == []
        assert report.completed
        assert len(report.log) == 0

    def test_layer_with_no_placements(self):
        sched = HybridSchedule(layers=[LayerSchedule(index=0)])
        report = execute(sched)
        assert report.makespan == 0
        assert report.layer_spans == [(0, 0)]
        starts = report.log.of_kind(EventKind.LAYER_START)
        ends = report.log.of_kind(EventKind.LAYER_END)
        assert len(starts) == len(ends) == 1


class TestIndeterminateOnlyLayer:
    def _schedule(self):
        l0 = LayerSchedule(index=0)
        l0.place(OpPlacement("cap", "d0", 0, 5, indeterminate=True))
        l1 = LayerSchedule(index=1)
        l1.place(OpPlacement("detect", "d0", 0, 3))
        return HybridSchedule(layers=[l0, l1])

    def test_layer_span_tracks_attempts(self):
        report = execute(
            self._schedule(),
            RetryModel(success_probability=0.3, max_attempts=5),
            seed=4,
        )
        tries = report.attempts["cap"]
        assert report.layer_spans[0] == (0, tries * 5)
        assert report.makespan == tries * 5 + 3

    def test_realized_term_counts_extra_attempts(self):
        report = execute(
            self._schedule(),
            RetryModel(success_probability=0.3, max_attempts=5),
            seed=4,
        )
        tries = report.attempts["cap"]
        assert report.realized_terms == {1: (tries - 1) * 5}

    def test_terms_keyed_by_layer_position(self):
        """A fixed-only first layer has no term; the indeterminate second
        layer's tail is I_2, as in the schedule's makespan expression."""
        l0 = LayerSchedule(index=0)
        l0.place(OpPlacement("prep", "d0", 0, 4))
        l1 = LayerSchedule(index=1)
        l1.place(OpPlacement("cap", "d0", 0, 5, indeterminate=True))
        sched = HybridSchedule(layers=[l0, l1])
        report = execute(
            sched, RetryModel(success_probability=0.3, max_attempts=5), seed=4
        )
        assert sched.indeterminate_terms == [2]
        assert report.realized_terms == {2: (report.attempts["cap"] - 1) * 5}


class TestFirstLayerFailure:
    def test_all_descendant_layers_aborted(self):
        l0 = LayerSchedule(index=0)
        l0.place(OpPlacement("cap", "d0", 0, 5, indeterminate=True))
        layers = [l0]
        for k in range(1, 4):
            layer = LayerSchedule(index=k)
            layer.place(OpPlacement(f"op{k}", "d0", 0, 2))
            layers.append(layer)
        sched = HybridSchedule(layers=layers)
        retry = RetryModel(
            success_probability=0.01, max_attempts=2, on_exhausted="fail"
        )
        for seed in range(50):
            report = execute(sched, retry, seed=seed)
            if report.failed_ops:
                break
        else:
            pytest.fail("no failing seed found")
        assert report.failed_ops == ["cap"]
        assert report.aborted_layers == [1, 2, 3]
        assert report.layer_spans == [report.layer_spans[0]]
        # None of the aborted layers' ops appear in the log.
        for k in range(1, 4):
            assert report.log.for_op(f"op{k}") == []


class TestBoundaryEventOrdering:
    def test_simultaneous_boundary_events_ordered(self):
        """At a layer boundary the log must read OP_END -> LAYER_END ->
        LAYER_START -> OP_START even though all four share a timestamp."""
        l0 = LayerSchedule(index=0)
        l0.place(OpPlacement("a", "d0", 0, 5))
        l1 = LayerSchedule(index=1)
        l1.place(OpPlacement("b", "d0", 0, 3))
        report = execute(HybridSchedule(layers=[l0, l1]))
        at_five = [e for e in report.log if e.time == 5]
        kinds = [e.kind for e in at_five]
        assert kinds == [
            EventKind.OP_END,
            EventKind.LAYER_END,
            EventKind.LAYER_START,
            EventKind.OP_START,
        ]

    def test_log_chronologically_sorted(self):
        l0 = LayerSchedule(index=0)
        l0.place(OpPlacement("slow", "d0", 0, 9))
        l0.place(OpPlacement("fast", "d1", 0, 2))
        report = execute(HybridSchedule(layers=[l0]))
        times = [e.time for e in report.log]
        assert times == sorted(times)


class TestExclusivityTightening:
    """A fixed op scheduled after an indeterminate one on the same device
    must be rejected (the paper forbids it: indeterminate operations end
    their layer, their realized completion is unknowable)."""

    def test_fixed_after_indeterminate_rejected(self):
        layer = LayerSchedule(index=0)
        layer.place(OpPlacement("cap", "d0", 0, 5, indeterminate=True))
        # Starts after the indeterminate op's *fixed* window — previously
        # slipped through because the overlap check skipped indeterminate
        # predecessors entirely.
        layer.place(OpPlacement("late", "d0", 7, 3))
        with pytest.raises(SchedulingError, match="after indeterminate"):
            execute(HybridSchedule(layers=[layer]))

    def test_overlap_with_indeterminate_rejected(self):
        layer = LayerSchedule(index=0)
        layer.place(OpPlacement("cap", "d0", 0, 5, indeterminate=True))
        layer.place(OpPlacement("mid", "d0", 3, 3))
        with pytest.raises(SchedulingError):
            execute(HybridSchedule(layers=[layer]))

    def test_fixed_before_indeterminate_allowed(self):
        layer = LayerSchedule(index=0)
        layer.place(OpPlacement("warm", "d0", 0, 4))
        layer.place(OpPlacement("cap", "d0", 4, 5, indeterminate=True))
        report = execute(
            HybridSchedule(layers=[layer]),
            RetryModel(success_probability=1.0),
        )
        assert report.completed

    def test_double_booked_fixed_still_rejected(self):
        layer = LayerSchedule(index=0)
        layer.place(OpPlacement("a", "d0", 0, 5))
        layer.place(OpPlacement("b", "d0", 3, 5))
        with pytest.raises(SchedulingError, match="double-booked"):
            execute(HybridSchedule(layers=[layer]))

    def test_separate_devices_unaffected(self):
        layer = LayerSchedule(index=0)
        layer.place(OpPlacement("cap", "d0", 0, 5, indeterminate=True))
        layer.place(OpPlacement("other", "d1", 7, 3))
        report = execute(
            HybridSchedule(layers=[layer]),
            RetryModel(success_probability=1.0),
        )
        assert report.completed
