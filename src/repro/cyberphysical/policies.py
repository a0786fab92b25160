"""Recovery policies, tried in order by the execution engine.

Three escalating responses to an operation failure, mirroring what a chip
operator can actually do (cf. cyberphysical module-less synthesis,
Chakraborty et al., arXiv:1804.02631):

1. :class:`RetryBackoffPolicy` — give the operation more attempt rounds in
   place, with exponentially growing settle pauses between rounds;
2. :class:`RebindSparePolicy` — move the operation to a compatible spare
   device (component-cover check against the live device inventory);
3. :class:`ResynthesisPolicy` — *contingency re-synthesis*: extract the
   residual assay (the failed operation plus everything not yet executed),
   re-run the full HLS flow on it — reusing the cross-pass layer-solve
   cache — and splice the fresh layers into the running
   schedule.

A policy returns ``None`` when it is not applicable to the failure at
hand, or a :class:`~repro.cyberphysical.engine.RecoveryOutcome` describing
what it did (time is charged even for unsuccessful attempts).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import ReproError
from ..hls.cache import LayerSolveCache
from ..hls.context import SynthesisContext
from ..hls.pipeline import SynthesisPipeline
from ..hls.schedule import LayerSchedule
from .engine import (
    REASON_EXHAUSTED,
    RecoveryContext,
    RecoveryOutcome,
)


class RecoveryPolicy:
    """Interface: ``attempt`` returns an outcome or ``None`` (inapplicable)."""

    name = "policy"

    def attempt(self, context: RecoveryContext) -> RecoveryOutcome | None:
        raise NotImplementedError


@dataclass
class RetryBackoffPolicy(RecoveryPolicy):
    """Re-run the failed indeterminate operation with exponential backoff.

    Round ``r`` waits ``backoff * 2**r`` time units (letting the physical
    condition settle) and then re-samples a full attempt batch.  Only
    applicable to exhausted-retries failures — a down device cannot be
    fixed by trying harder.
    """

    rounds: int = 3
    backoff: int = 2

    name = "retry"

    def attempt(self, context: RecoveryContext) -> RecoveryOutcome | None:
        failure = context.failure
        if failure.reason != REASON_EXHAUSTED:
            return None
        placement = failure.placement
        engine = context.engine
        duration = context.faults.scaled_duration(
            placement.duration, placement.device_uid, context.position
        )
        extra = 0
        for round_index in range(self.rounds):
            extra += self.backoff * (2**round_index)
            tries, succeeded = engine.sample_attempts(
                placement.uid, context.rng, context.faults
            )
            extra += tries * duration
            if succeeded:
                return RecoveryOutcome(
                    recovered=True,
                    extra_time=extra,
                    device=placement.device_uid,
                    note=f"succeeded in backoff round {round_index + 1}",
                )
        return RecoveryOutcome(
            recovered=False,
            extra_time=extra,
            note=f"still failing after {self.rounds} backoff rounds",
        )


@dataclass
class RebindSparePolicy(RecoveryPolicy):
    """Re-execute the failed operation on a compatible spare device.

    Spares come from the engine's live inventory (every device the
    synthesized chip integrates, plus any added by earlier contingency
    splices).  Legality is the paper's component-cover check under the
    run's binding mode.  At recovery time the layer's other operations
    have completed, so any covering device is idle; moving the fluid
    costs one default transportation hop.
    """

    name = "rebind"

    def attempt(self, context: RecoveryContext) -> RecoveryOutcome | None:
        engine = context.engine
        placement = context.failure.placement
        operation = context.operation
        mode = engine.spec.binding_mode
        spare = None
        for uid in sorted(engine.devices):
            if uid == placement.device_uid:
                continue
            if context.faults.is_down(uid, context.position):
                continue
            if engine.devices[uid].can_execute(operation, mode):
                spare = engine.devices[uid]
                break
        if spare is None:
            return None

        transport = engine.spec.transport_default
        duration = context.faults.scaled_duration(
            placement.duration, spare.uid, context.position
        )
        if placement.indeterminate:
            tries, succeeded = engine.sample_attempts(
                placement.uid, context.rng, context.faults
            )
            extra = transport + tries * duration
            if not succeeded:
                return RecoveryOutcome(
                    recovered=False,
                    extra_time=extra,
                    device=spare.uid,
                    note=f"rebound to {spare.uid} but still failing",
                )
        else:
            extra = transport + duration
        return RecoveryOutcome(
            recovered=True,
            extra_time=extra,
            device=spare.uid,
            note=f"rebound {placement.uid} onto spare {spare.uid}",
        )


@dataclass
class ResynthesisPolicy(RecoveryPolicy):
    """Contingency re-synthesis of the residual assay.

    The residual is the failed operation plus every operation in a layer
    not yet dispatched.  It is re-synthesized with the same spec (optionally
    a tighter per-layer time limit) through a *persistent*
    :class:`~repro.hls.cache.LayerSolveCache`, so repeated contingencies —
    across Monte-Carlo runs in the same process — replay earlier layer
    solves instead of paying the ILP again.  The resulting layers are
    spliced over the remaining schedule; their devices enter the inventory
    under fresh uids.
    """

    #: per-layer ILP budget for contingency solves (None = inherit spec).
    time_limit: float | None = 5.0
    #: refinement passes for contingency synthesis (re-planning must be
    #: fast; one pass is the paper's initial synthesis).
    max_iterations: int = 0
    #: cap on splices per run, so a persistent fault cannot loop forever.
    max_splices: int = 3

    name = "resynth"

    def __post_init__(self) -> None:
        self._cache = LayerSolveCache()

    @property
    def cache(self) -> LayerSolveCache:
        return self._cache

    def attempt(self, context: RecoveryContext) -> RecoveryOutcome | None:
        engine = context.engine
        if engine.resyntheses >= self.max_splices:
            return None
        residual_uids = {context.op_uid}
        for layer in context.remaining:
            residual_uids.update(layer.placements)
        residual = engine.assay.subset(
            sorted(residual_uids),
            name=f"{engine.assay.name}-contingency",
        )
        spec = replace(
            engine.spec,
            time_limit=self.time_limit or engine.spec.time_limit,
            max_iterations=self.max_iterations,
        )
        # Contingency re-planning runs through the same pass pipeline as
        # offline synthesis, with the policy's persistent cross-run cache
        # injected via the context.
        synthesis = SynthesisContext(
            assay=residual, spec=spec, cache=self._cache
        )
        try:
            contingency = SynthesisPipeline().run(synthesis)
        except ReproError as exc:
            return RecoveryOutcome(
                recovered=False,
                note=f"contingency synthesis failed: {exc}",
            )

        mapping = {
            uid: engine.allocate_device_uid()
            for uid in sorted(contingency.devices)
        }
        new_devices = {
            mapping[uid]: replace(device, uid=mapping[uid])
            for uid, device in contingency.devices.items()
        }
        base = context.layer.index + 1
        spliced: list[LayerSchedule] = []
        for offset, layer in enumerate(contingency.schedule.layers):
            fresh = LayerSchedule(index=base + offset)
            for placement in layer.placements.values():
                fresh.place(
                    replace(
                        placement,
                        device_uid=mapping[placement.device_uid],
                    )
                )
            spliced.append(fresh)

        stats = [s for s in contingency.solve_stats]
        hits = sum(1 for s in stats if s.cache_hit)
        return RecoveryOutcome(
            recovered=True,
            extra_time=engine.spec.transport_default,
            note=(
                f"re-synthesized {len(residual)} residual ops into "
                f"{len(spliced)} layer(s), makespan "
                f"{contingency.schedule.fixed_makespan} "
                f"({hits}/{len(stats)} layer solves from cache)"
            ),
            splice=spliced,
            new_devices=new_devices,
        )


#: Default escalation order.
DEFAULT_CHAIN = ("retry", "rebind", "resynth")

_FACTORIES = {
    "retry": RetryBackoffPolicy,
    "rebind": RebindSparePolicy,
    "resynth": ResynthesisPolicy,
}


def build_policies(names) -> list[RecoveryPolicy]:
    """Instantiate a policy chain from CLI-style names.

    ``"all"`` expands to the default escalation chain; ``"abort"`` (or an
    empty selection) yields no policies — the engine then aborts every
    later layer on the first unrecovered failure.
    """
    chain: list[RecoveryPolicy] = []
    for name in names:
        if name == "abort":
            continue
        if name == "all":
            chain.extend(_FACTORIES[n]() for n in DEFAULT_CHAIN)
            continue
        try:
            chain.append(_FACTORIES[name]())
        except KeyError:
            choices = ", ".join(("abort", "all", *_FACTORIES))
            raise ReproError(
                f"unknown recovery policy {name!r} (choices: {choices})"
            ) from None
    return chain
