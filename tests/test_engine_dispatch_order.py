"""A seeded run must not depend on placement-dict insertion order.

Retries are drawn from one seeded rng, so the order in which a layer's
indeterminate operations are sampled decides which operation gets which
draw.  The engine samples in ``(start, uid)`` order, the same order a
schedule reloaded from JSON has; a schedule built in any other insertion
order must therefore realize the same run for the same seed.
"""

import dataclasses

from repro.cyberphysical import ExecutionEngine
from repro.experiments.robustness import simulate_makespans
from repro.hls import SynthesisSpec, synthesize
from repro.hls.schedule import HybridSchedule, LayerSchedule, OpPlacement
from repro.operations import AssayBuilder
from repro.runtime import RetryModel

MODEL = RetryModel(success_probability=0.53)
SEEDS = range(20)


def _reinserted(schedule: HybridSchedule) -> HybridSchedule:
    """The same placements, each layer inserted in reverse order."""
    layers = []
    for layer in schedule.layers:
        fresh = LayerSchedule(index=layer.index)
        for placement in reversed(list(layer.placements.values())):
            fresh.place(placement)
        layers.append(fresh)
    return HybridSchedule(layers=layers)


def _run(schedule, seed):
    report = ExecutionEngine(schedule, retry_model=MODEL, seed=seed).run()
    return report.attempts, report.makespan, report.layer_spans


def test_engine_run_ignores_insertion_order():
    l0 = LayerSchedule(index=0)
    l0.place(OpPlacement("prep", "d2", 0, 4))
    l0.place(OpPlacement("cap_a", "d0", 0, 3, indeterminate=True))
    l0.place(OpPlacement("cap_b", "d1", 0, 7, indeterminate=True))
    l1 = LayerSchedule(index=1)
    l1.place(OpPlacement("detect", "d0", 0, 2))
    forward = HybridSchedule(layers=[l0, l1])
    backward = _reinserted(forward)
    assert list(backward.layers[0].placements) == ["cap_b", "cap_a", "prep"]
    for seed in SEEDS:
        assert _run(forward, seed) == _run(backward, seed), seed


def test_simulated_distribution_ignores_insertion_order():
    b = AssayBuilder("two-captures")
    for uid, minutes in (("cap_a", 3), ("cap_b", 7)):
        cap = b.op(uid, minutes, indeterminate=True, accessories=["cell_trap"])
        b.op(f"read_{uid}", 2, accessories=["optical_system"], after=[cap])
    result = synthesize(
        b.build(),
        SynthesisSpec(max_devices=6, threshold=2, time_limit=5.0,
                      max_iterations=0),
    )
    first = result.schedule.layers[0]
    starts = {first[uid].start for uid in first.indeterminate_uids}
    assert len(first.indeterminate_uids) == 2 and len(starts) == 1
    reordered = dataclasses.replace(
        result, schedule=_reinserted(result.schedule)
    )
    assert simulate_makespans(
        result, MODEL, runs=len(SEEDS)
    ) == simulate_makespans(reordered, MODEL, runs=len(SEEDS))
