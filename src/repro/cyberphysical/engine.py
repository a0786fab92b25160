"""Closed-loop discrete-event execution engine.

This is the run time the paper's hybrid scheduling assumes (Sec. 3): the
fixed sub-schedule of each layer is followed literally, indeterminate
operations retry until they succeed, and the layer-to-layer transition is a
run-time decision taken after *observing* every operation outcome.  The
realized span of each indeterminate layer resolves its symbolic ``I_k``
term.  On top of that open-loop replay the engine closes the control loop:

* attempt counts of indeterminate operations come from the geometric
  :class:`~repro.runtime.executor.RetryModel`;
* a :class:`~repro.cyberphysical.faults.FaultPlan` injects physical faults
  (exhausted retries, device-down, degraded-device slowdown);
* on failure the engine consults its recovery policies in order
  (:mod:`repro.cyberphysical.policies`); a policy may absorb the fault in
  place, rebind the operation to a spare device, or splice freshly
  re-synthesized contingency layers into the running schedule.  Without
  policies a failure aborts every later layer;
* every decision is recorded as a :class:`~repro.cyberphysical.trace.TraceRecord`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..errors import ReproError
from ..hls.schedule import HybridSchedule, LayerSchedule, OpPlacement
from ..hls.synthesizer import SynthesisResult
from ..runtime.events import Event, EventKind, EventLog
from ..runtime.executor import RetryModel, _assert_exclusive
from .faults import ActiveFaults, FaultPlan
from .trace import TraceRecord


#: Failure reasons the policies dispatch on.
REASON_EXHAUSTED = "exhausted_retries"
REASON_DEVICE_DOWN = "device_down"


@dataclass
class OpFailure:
    """One operation failure awaiting recovery."""

    placement: OpPlacement
    reason: str
    #: simulated time at which the failure was observed.
    observed_at: int


@dataclass(frozen=True)
class RecoveryRecord:
    """One successful (or finally failed) recovery attempt chain."""

    op: str
    layer: int
    reason: str
    policy: str
    extra_time: int
    device: str = ""
    note: str = ""


@dataclass
class RecoveryContext:
    """Everything a recovery policy may consult."""

    engine: "ExecutionEngine"
    failure: OpFailure
    layer: LayerSchedule
    #: dispatch position of the failing layer in execution order.
    position: int
    rng: random.Random
    faults: ActiveFaults
    #: layers not yet dispatched (candidates for contingency re-planning).
    remaining: list[LayerSchedule]

    @property
    def op_uid(self) -> str:
        return self.failure.placement.uid

    @property
    def operation(self):
        return self.engine.assay[self.op_uid]


@dataclass
class RecoveryOutcome:
    """What one policy attempt did.

    ``extra_time`` is charged to the running clock whether or not the
    attempt recovered (failed attempts still burn chip time).  ``splice``
    replaces every not-yet-dispatched layer with freshly synthesized
    contingency layers; ``new_devices`` are merged into the engine's
    inventory before the splice executes.
    """

    recovered: bool
    extra_time: int = 0
    device: str = ""
    note: str = ""
    splice: list[LayerSchedule] | None = None
    new_devices: dict = field(default_factory=dict)


@dataclass
class EngineReport:
    """Outcome of one closed-loop run."""

    seed: int
    makespan: int
    completed: bool
    layer_spans: list[tuple[int, int]]
    #: realized length of each dispatched indeterminate layer beyond its
    #: fixed makespan, keyed by the 1-based dispatch position (the
    #: paper's ``I_k``).
    realized_terms: dict[int, int]
    attempts: dict[str, int]
    failed_ops: list[str]
    aborted_layers: list[int]
    recovery_records: list[RecoveryRecord]
    faults_fired: int
    resyntheses: int
    trace: list[TraceRecord]
    log: EventLog

    @property
    def recoveries(self) -> dict[str, int]:
        """Successful recovery counts by policy name."""
        out: dict[str, int] = {}
        for record in self.recovery_records:
            out[record.policy] = out.get(record.policy, 0) + 1
        return out


class ExecutionEngine:
    """Dispatch a hybrid schedule layer by layer with online recovery.

    ``run`` is a :class:`SynthesisResult` or a bare :class:`HybridSchedule`.
    A bare schedule carries no assay, spec or device inventory for the
    recovery policies to re-plan against, so it runs without policies.
    """

    def __init__(
        self,
        run: SynthesisResult | HybridSchedule,
        policies=(),
        fault_plan: FaultPlan | None = None,
        retry_model: RetryModel | None = None,
        seed: int = 0,
    ) -> None:
        self.policies = list(policies)
        if isinstance(run, HybridSchedule):
            if self.policies:
                raise ReproError(
                    "recovery policies need a SynthesisResult, "
                    "not a bare schedule"
                )
            self.schedule = run
            self.assay = self.spec = None
            self.devices = {}
        else:
            self.schedule = run.schedule
            self.assay = run.assay
            self.spec = run.spec
            #: live device inventory; contingency re-synthesis adds to it.
            self.devices = dict(run.devices)
        self.fault_plan = fault_plan or FaultPlan()
        self.retry_model = retry_model or RetryModel()
        self.seed = seed
        #: count of contingency splices this run (policies consult the cap).
        self.resyntheses = 0
        self._uid_counter = 0

    def allocate_device_uid(self) -> str:
        """Fresh device uid that cannot collide with the synthesized set."""
        uid = f"c{self._uid_counter}"
        self._uid_counter += 1
        return uid

    def sample_attempts(
        self, uid: str, rng: random.Random, faults: ActiveFaults
    ) -> tuple[int, bool]:
        """Observed (attempts, succeeded) of one indeterminate execution;
        an armed exhaust fault on ``uid`` forces a failed full batch."""
        tries, succeeded = self.retry_model.sample_attempts(rng)
        if faults.exhausts(uid):
            return max(tries, self.retry_model.max_attempts), False
        return tries, succeeded

    # -- main loop --------------------------------------------------------

    def run(self) -> EngineReport:
        rng = random.Random(self.seed)
        faults = self.fault_plan.activate()
        log = EventLog()
        trace: list[TraceRecord] = []
        #: mutable work list — contingency splices rewrite the tail.
        pending: list[LayerSchedule] = list(self.schedule.layers)

        clock = 0
        position = 0
        layer_spans: list[tuple[int, int]] = []
        realized_terms: dict[int, int] = {}
        attempts: dict[str, int] = {}
        failed_ops: list[str] = []
        aborted_layers: list[int] = []
        recovery_records: list[RecoveryRecord] = []
        self.resyntheses = 0

        trace.append(
            TraceRecord(
                self.seed,
                0,
                "run_start",
                {
                    "layers": len(pending),
                    "faults": [f.to_json() for f in self.fault_plan],
                    "policies": [p.name for p in self.policies],
                },
            )
        )

        while pending:
            layer = pending.pop(0)
            layer_start = clock
            trace.append(
                TraceRecord(
                    self.seed,
                    layer_start,
                    "layer_dispatch",
                    {
                        "layer": layer.index,
                        "position": position,
                        "ops": sorted(layer.placements),
                    },
                )
            )
            log.record(
                Event(layer_start, EventKind.LAYER_START, layer=layer.index)
            )
            _assert_exclusive(layer)

            layer_end, failures = self._play_layer(
                layer, layer_start, position, rng, faults, attempts, log
            )

            for failure in failures:
                failure.observed_at = layer_end
                trace.append(
                    TraceRecord(
                        self.seed,
                        layer_end,
                        "op_fault",
                        {
                            "op": failure.placement.uid,
                            "layer": layer.index,
                            "device": failure.placement.device_uid,
                            "reason": failure.reason,
                        },
                    )
                )
                context = RecoveryContext(
                    engine=self,
                    failure=failure,
                    layer=layer,
                    position=position,
                    rng=rng,
                    faults=faults,
                    remaining=pending,
                )
                recovered, extra, record = self._recover(
                    context, pending, trace, layer_end
                )
                layer_end += extra
                if record is not None:
                    recovery_records.append(record)
                if not recovered:
                    failed_ops.append(failure.placement.uid)

            log.record(Event(layer_end, EventKind.LAYER_END, layer=layer.index))
            layer_spans.append((layer_start, layer_end))
            if layer.has_indeterminate:
                realized_terms[position + 1] = (
                    layer_end - layer_start - layer.makespan
                )
            trace.append(
                TraceRecord(
                    self.seed,
                    layer_end,
                    "layer_complete",
                    {"layer": layer.index, "span": [layer_start, layer_end]},
                )
            )
            clock = layer_end
            position += 1

            if failed_ops:
                aborted_layers = [lay.index for lay in pending]
                pending = []

        log.finalize()
        completed = not failed_ops
        trace.append(
            TraceRecord(
                self.seed,
                clock,
                "run_end",
                {
                    "makespan": clock,
                    "completed": completed,
                    "failed_ops": list(failed_ops),
                    "faults_fired": faults.fired,
                    "resyntheses": self.resyntheses,
                },
            )
        )
        return EngineReport(
            seed=self.seed,
            makespan=clock,
            completed=completed,
            layer_spans=layer_spans,
            realized_terms=realized_terms,
            attempts=attempts,
            failed_ops=failed_ops,
            aborted_layers=aborted_layers,
            recovery_records=recovery_records,
            faults_fired=faults.fired,
            resyntheses=self.resyntheses,
            trace=trace,
            log=log,
        )

    # -- internals --------------------------------------------------------

    def _play_layer(
        self,
        layer: LayerSchedule,
        layer_start: int,
        position: int,
        rng: random.Random,
        faults: ActiveFaults,
        attempts: dict[str, int],
        log: EventLog,
    ) -> tuple[int, list[OpFailure]]:
        """Execute one layer's fixed sub-schedule; collect failures."""
        layer_end = layer_start
        failures: list[OpFailure] = []
        ordered = sorted(
            layer.placements.values(), key=lambda p: (p.start, p.uid)
        )
        for placement in ordered:
            start = layer_start + placement.start
            device = placement.device_uid
            log.record(
                Event(
                    start,
                    EventKind.OP_START,
                    uid=placement.uid,
                    layer=layer.index,
                    device=device,
                )
            )
            if faults.device_down(device, position):
                # The dispatch itself fails; no chip time is consumed beyond
                # the scheduled start.
                failures.append(
                    OpFailure(placement, REASON_DEVICE_DOWN, start)
                )
                log.record(
                    Event(
                        start,
                        EventKind.OP_END,
                        uid=placement.uid,
                        layer=layer.index,
                        device=device,
                    )
                )
                layer_end = max(layer_end, start)
                continue

            duration = faults.scaled_duration(
                placement.duration, device, position
            )
            if placement.indeterminate:
                tries, succeeded = self.sample_attempts(
                    placement.uid, rng, faults
                )
                attempts[placement.uid] = (
                    attempts.get(placement.uid, 0) + tries
                )
                end = start + tries * duration
                for attempt in range(1, tries):
                    log.record(
                        Event(
                            start + attempt * duration,
                            EventKind.OP_RETRY,
                            uid=placement.uid,
                            layer=layer.index,
                            device=device,
                        )
                    )
                if not succeeded:
                    failures.append(
                        OpFailure(placement, REASON_EXHAUSTED, end)
                    )
            else:
                end = start + duration
            log.record(
                Event(
                    end,
                    EventKind.OP_END,
                    uid=placement.uid,
                    layer=layer.index,
                    device=device,
                )
            )
            layer_end = max(layer_end, end)
        return layer_end, failures

    def _recover(
        self,
        context: RecoveryContext,
        pending: list[LayerSchedule],
        trace: list[TraceRecord],
        now: int,
    ) -> tuple[bool, int, RecoveryRecord | None]:
        """Run the policy chain for one failure.

        Returns (recovered, total extra time, record of the successful
        policy or None).  Failed attempts still charge their time.
        """
        total_extra = 0
        for policy in self.policies:
            trace.append(
                TraceRecord(
                    self.seed,
                    now + total_extra,
                    "policy_attempt",
                    {
                        "op": context.op_uid,
                        "policy": policy.name,
                        "reason": context.failure.reason,
                    },
                )
            )
            outcome = policy.attempt(context)
            if outcome is None:
                trace.append(
                    TraceRecord(
                        self.seed,
                        now + total_extra,
                        "policy_result",
                        {
                            "op": context.op_uid,
                            "policy": policy.name,
                            "applicable": False,
                        },
                    )
                )
                continue
            total_extra += outcome.extra_time
            trace.append(
                TraceRecord(
                    self.seed,
                    now + total_extra,
                    "policy_result",
                    {
                        "op": context.op_uid,
                        "policy": policy.name,
                        "applicable": True,
                        "recovered": outcome.recovered,
                        "extra_time": outcome.extra_time,
                        "device": outcome.device,
                        "note": outcome.note,
                    },
                )
            )
            if not outcome.recovered:
                continue
            if outcome.new_devices:
                self.devices.update(outcome.new_devices)
            if outcome.splice is not None:
                dropped = [lay.index for lay in pending]
                pending.clear()
                pending.extend(outcome.splice)
                self.resyntheses += 1
                trace.append(
                    TraceRecord(
                        self.seed,
                        now + total_extra,
                        "resynthesis_splice",
                        {
                            "op": context.op_uid,
                            "dropped_layers": dropped,
                            "spliced_layers": [
                                lay.index for lay in outcome.splice
                            ],
                            "new_devices": sorted(outcome.new_devices),
                            "note": outcome.note,
                        },
                    )
                )
            record = RecoveryRecord(
                op=context.op_uid,
                layer=context.layer.index,
                reason=context.failure.reason,
                policy=policy.name,
                extra_time=total_extra,
                device=outcome.device,
                note=outcome.note,
            )
            return True, total_extra, record
        return False, total_extra, None
