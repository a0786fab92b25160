"""Chronological ordering of the runtime event log (EventLog.finalize)."""

from repro.cyberphysical import ExecutionEngine
from repro.hls.schedule import HybridSchedule, LayerSchedule, OpPlacement
from repro.runtime.events import _KIND_ORDER, Event, EventKind, EventLog


def test_finalize_sorts_by_time():
    log = EventLog()
    log.record(Event(10, EventKind.OP_END, uid="b"))
    log.record(Event(0, EventKind.LAYER_START, layer=0))
    log.record(Event(5, EventKind.OP_START, uid="b"))
    log.record(Event(0, EventKind.OP_START, uid="a"))
    log.finalize()
    assert [e.time for e in log] == [0, 0, 5, 10]


def test_finalize_orders_simultaneous_events():
    """At one timestamp: completions, then retries, then the layer boundary,
    then the next layer's starts."""
    log = EventLog()
    log.record(Event(7, EventKind.OP_START, uid="c"))
    log.record(Event(7, EventKind.LAYER_START, layer=1))
    log.record(Event(7, EventKind.LAYER_END, layer=0))
    log.record(Event(7, EventKind.OP_RETRY, uid="b"))
    log.record(Event(7, EventKind.OP_END, uid="a"))
    log.finalize()
    assert [e.kind for e in log] == [
        EventKind.OP_END,
        EventKind.OP_RETRY,
        EventKind.LAYER_END,
        EventKind.LAYER_START,
        EventKind.OP_START,
    ]


def test_finalize_is_stable_for_equal_keys():
    log = EventLog()
    log.record(Event(3, EventKind.OP_END, uid="first"))
    log.record(Event(3, EventKind.OP_END, uid="second"))
    log.finalize()
    assert [e.uid for e in log] == ["first", "second"]


def test_executor_log_is_chronological():
    """Regression: the engine records per placement, so the raw order
    interleaved timelines; the returned report must be chronological."""
    layer0 = LayerSchedule(index=0)
    layer0.place(OpPlacement("slow", "d0", start=0, duration=9))
    layer0.place(OpPlacement("late", "d1", start=6, duration=2))
    layer0.place(OpPlacement("cap", "d2", start=0, duration=3,
                             indeterminate=True))
    layer1 = LayerSchedule(index=1)
    layer1.place(OpPlacement("next", "d0", start=0, duration=2))
    schedule = HybridSchedule(layers=[layer0, layer1])

    report = ExecutionEngine(schedule, seed=3).run()
    events = list(report.log)
    keys = [(e.time, _KIND_ORDER[e.kind]) for e in events]
    assert keys == sorted(keys), "event log is not chronological"
    # Every op starts before it ends.
    for uid in ("slow", "late", "cap", "next"):
        kinds = [e.kind for e in report.log.for_op(uid)]
        assert kinds[0] is EventKind.OP_START
        assert kinds[-1] is EventKind.OP_END
