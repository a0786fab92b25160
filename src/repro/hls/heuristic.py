"""Greedy list-scheduling fallback for a layer.

Used when the ILP hits its time limit without an incumbent (large layers on
slow machines) so a synthesis run always produces a *valid* — if not optimal
— hybrid schedule.  The heuristic respects every constraint the ILP
enforces: binding legality under the active mode, dependencies with
transportation times, device exclusivity including release margins, the
indeterminate tail rule (14), and pairwise-distinct devices for
indeterminate operations.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass, field

from ..devices.device import GeneralDevice
from ..errors import SchedulingError, SpecificationError
from ..operations.operation import Operation
from .decode import LayerSolveResult
from .milp_model import LayerProblem
from .schedule import LayerSchedule, OpPlacement
from .spec import SynthesisSpec


@dataclass
class _Timeline:
    """Busy intervals of one device within the layer, kept sorted."""

    device: GeneralDevice
    busy: list[tuple[int, int]] = field(default_factory=list)

    def earliest_fit(self, ready: int, length: int) -> int:
        """Earliest start >= ready such that [start, start+length) is free."""
        start = ready
        for lo, hi in self.busy:
            if start + length <= lo:
                break
            if start < hi:
                start = hi
        return start

    def reserve(self, start: int, length: int) -> None:
        insort(self.busy, (start, start + length))


def schedule_layer_greedy(
    problem: LayerProblem, spec: SynthesisSpec, uid_allocator, guide=None
) -> LayerSolveResult:
    """Greedy feasible schedule for ``problem`` (see module docstring).

    ``guide`` optionally supplies rounded LP-relaxation decisions (a
    :class:`repro.hls.rounding.RoundingGuide`): a preferred binding per
    operation and a device configuration per new slot.  Each preference is
    honored only when it keeps the schedule feasible under the exact rules
    below — anything illegal falls back to the plain greedy choice, so a
    guided run is exactly as safe as an unguided one.  With ``guide=None``
    the behavior is byte-identical to the historical heuristic.
    """
    mode = spec.binding_mode
    by_uid = {op.uid: op for op in problem.ops}
    children: dict[str, list[str]] = {op.uid: [] for op in problem.ops}
    parents: dict[str, list[str]] = {op.uid: [] for op in problem.ops}
    for parent, child in problem.in_layer_edges:
        children[parent].append(child)
        parents[child].append(parent)

    timelines: dict[str, _Timeline] = {
        d.uid: _Timeline(d) for d in problem.fixed_devices
    }
    new_devices: list[GeneralDevice] = []
    slots_left = problem.free_slots

    def occupancy(uid: str) -> int:
        op = by_uid[uid]
        return op.duration.scheduled + problem.release.get(uid, 0)

    pending: set[str] = {op.uid for op in problem.ops}

    # Binding legality depends only on the device and the op's requirement
    # signature (under COVER and EXACT alike), so it is decided once per
    # (device, signature) pair, against one representative op.
    sig_of = {op.uid: op.requirement_signature() for op in problem.ops}
    sig_op: dict[tuple, Operation] = {}
    for op in problem.ops:
        sig_op.setdefault(sig_of[op.uid], op)
    fit: dict[tuple[str, tuple], bool] = {}

    def fits(dev_uid: str, sig: tuple) -> bool:
        ok = fit.get((dev_uid, sig))
        if ok is None:
            ok = fit[dev_uid, sig] = timelines[dev_uid].device.can_execute(
                sig_op[sig], mode
            )
        return ok

    # A device can only run ops of its own binding key (capacity class
    # under COVER, signature under EXACT), so devices are bucketed by that
    # key, each bucket in ``timelines`` order, and a signature scans only
    # its key's bucket.
    buckets: dict[object, list[str]] = {}
    for dev_uid, timeline in timelines.items():
        buckets.setdefault(timeline.device.binding_key(mode), []).append(dev_uid)
    key_of = {
        sig: GeneralDevice.op_binding_key(op, mode) for sig, op in sig_op.items()
    }

    # Signature -> devices able to run it, in ``timelines`` order; filled
    # on first use and extended by create_device.
    fitting: dict[tuple, list[str]] = {}

    def fitting_devices(sig: tuple) -> list[str]:
        devices = fitting.get(sig)
        if devices is None:
            devices = fitting[sig] = [
                d for d in buckets.get(key_of[sig], ()) if fits(d, sig)
            ]
        return devices

    pending_fixed = Counter(
        sig_of[op.uid] for op in problem.ops if not op.is_indeterminate
    )
    ind_uids = sorted(op.uid for op in problem.ops if op.is_indeterminate)

    def slots_reserved(exclude_uid: str = "") -> int:
        """Slots that must stay available for still-unscheduled operations.

        One slot per requirement signature among pending fixed ops that no
        existing device can execute, plus one per pending indeterminate op
        that cannot be matched to a *distinct* compatible device (the
        indeterminate tail needs pairwise-different devices).
        """
        excluded_sig = (
            sig_of[exclude_uid]
            if exclude_uid in pending and not by_uid[exclude_uid].is_indeterminate
            else None
        )
        uncovered = 0
        for sig, count in pending_fixed.items():
            if sig == excluded_sig:
                count -= 1
            if count > 0 and not fitting_devices(sig):
                uncovered += 1
        matched: set[str] = set()
        unmatched_ind = 0
        for uid in ind_uids:
            if uid == exclude_uid or uid not in pending:
                continue
            choice = next(
                (d for d in fitting_devices(sig_of[uid]) if d not in matched),
                None,
            )
            if choice is None:
                unmatched_ind += 1
            else:
                matched.add(choice)
        return uncovered + unmatched_ind

    # Storage pressure (extension): ops with layer-crossing edges prefer
    # the fixed device already holding (or later consuming) their reagent,
    # weighted by the buffering cost a co-binding avoids.  Empty when
    # ``storage_mode`` is off, leaving the heuristic byte-identical.
    pressure: dict[str, dict[str, float]] = {}
    for (parent_device, child), weight in problem.storage_in.items():
        by_dev = pressure.setdefault(child, {})
        by_dev[parent_device] = by_dev.get(parent_device, 0.0) + weight
    for (parent, child_device), weight in problem.storage_out.items():
        by_dev = pressure.setdefault(parent, {})
        by_dev[child_device] = by_dev.get(child_device, 0.0) + weight

    def pressured_choice(
        uid: str, ready: int, exclude: set[str]
    ) -> tuple[int, str] | None:
        """Pressured device whose extra wait costs less than the storage
        it avoids (``C_t * delay <= pressure``), earliest-start first."""
        best_pref: tuple[int, str] | None = None
        for dev_uid, weight in sorted(pressure[uid].items()):
            if dev_uid in exclude or dev_uid not in timelines:
                continue
            if not fits(dev_uid, sig_of[uid]):
                continue
            start = timelines[dev_uid].earliest_fit(ready, occupancy(uid))
            if spec.weights.time * (start - ready) > weight:
                continue
            if best_pref is None or (start, dev_uid) < best_pref:
                best_pref = (start, dev_uid)
        return best_pref

    # Guide slot index -> uid of the device materialized for that slot.
    slot_uid: dict[int, str] = {}

    def guide_template(op, slot: int):
        """The guide's device config for ``slot`` when it can run ``op``."""
        if guide is None:
            return None
        template = guide.slot_config.get(slot)
        if template is None:
            return None
        kind, capacity, accessories, signature = template
        try:
            probe = GeneralDevice(
                uid="guide-probe",
                container=kind,
                capacity=capacity,
                accessories=frozenset(accessories),
                signature=signature,
            )
        except SpecificationError:
            return None
        return probe if probe.can_execute(op, mode) else None

    def create_device(op, slot: int | None = None) -> str:
        nonlocal slots_left
        probe = guide_template(op, slot) if slot is not None else None
        if probe is not None:
            device = GeneralDevice(
                uid=uid_allocator(),
                container=probe.container,
                capacity=probe.capacity,
                accessories=probe.accessories,
                signature=probe.signature,
            )
        else:
            device = GeneralDevice.for_operation(uid_allocator(), op, mode)
        timelines[device.uid] = _Timeline(device)
        new_devices.append(device)
        key = device.binding_key(mode)
        buckets.setdefault(key, []).append(device.uid)
        for sig, devices in fitting.items():
            if key_of[sig] == key and fits(device.uid, sig):
                devices.append(device.uid)
        slots_left -= 1
        if slot is not None:
            slot_uid[slot] = device.uid
        return device.uid

    def preferred_choice(
        uid: str, ready: int, exclude: set[str], can_create: bool
    ) -> tuple[str, int] | None:
        """The guide's binding for ``uid``, when it is legal right now."""
        pref = guide.choice.get(uid)
        op = by_uid[uid]
        if isinstance(pref, int):
            target = slot_uid.get(pref)
            if target is None:
                # The preferred slot is not materialized yet: create it on
                # demand, under the same slot-budget rule as any creation.
                if can_create and guide_template(op, pref) is not None:
                    return create_device(op, slot=pref), ready
                return None
        elif isinstance(pref, str):
            target = pref if pref in timelines else None
        else:
            return None
        if target is None or target in exclude:
            return None
        if not fits(target, sig_of[uid]):
            return None
        return target, timelines[target].earliest_fit(ready, occupancy(uid))

    def acquire_device(uid: str, ready: int, exclude: set[str]) -> tuple[str, int]:
        """Choose a device and start time; creates a device if needed.

        New devices are only created when enough free slots remain to still
        cover every pending requirement (see :func:`slots_reserved`), so a
        feasible layer never dead-ends on slot exhaustion.
        """
        op = by_uid[uid]
        best: tuple[int, str] | None = None
        for dev_uid in fitting_devices(sig_of[uid]):
            if dev_uid in exclude:
                continue
            start = timelines[dev_uid].earliest_fit(ready, occupancy(uid))
            if best is None or (start, dev_uid) < best:
                best = (start, dev_uid)
        if guide is not None:
            can_create = slots_left > 0 and (
                best is None or slots_left - 1 >= slots_reserved(exclude_uid=uid)
            )
            preferred = preferred_choice(uid, ready, exclude, can_create)
            if preferred is not None:
                return preferred
        if uid in pressure:
            pressured = pressured_choice(uid, ready, exclude)
            if pressured is not None:
                return pressured[1], pressured[0]
        # Prefer reuse unless a fresh device starts strictly earlier.
        if best is not None and best[0] <= ready:
            return best[1], best[0]
        if best is None:
            # Mandatory creation: reduces the reservation it consumes.
            if slots_left > 0:
                return create_device(op), ready
            raise SchedulingError(
                f"no device can execute {uid!r} and no slot left "
                f"(|D|={spec.max_devices})"
            )
        # Discretionary creation (pure parallelism): keep the reservation.
        if slots_left > 0 and slots_left - 1 >= slots_reserved(exclude_uid=uid):
            return create_device(op), ready
        return best[1], best[0]

    # -- pass 1: fixed-duration ops in topological order -------------------
    schedule = LayerSchedule(index=problem.layer_index)
    binding: dict[str, str] = {}
    finish: dict[str, int] = {}
    order = _topo_order(problem)

    for uid in order:
        op = by_uid[uid]
        if op.is_indeterminate:
            continue
        ready = max(
            (
                finish[p] + problem.edge_transport[(p, uid)]
                for p in parents[uid]
                if not by_uid[p].is_indeterminate
            ),
            default=0,
        )
        dev_uid, start = acquire_device(uid, ready, exclude=set())
        timelines[dev_uid].reserve(start, occupancy(uid))
        binding[uid] = dev_uid
        finish[uid] = start + op.duration.scheduled
        pending.discard(uid)
        pending_fixed[sig_of[uid]] -= 1
        schedule.place(
            OpPlacement(uid, dev_uid, start, op.duration.scheduled, False)
        )

    # -- pass 2: indeterminate tail --------------------------------------
    # Each indeterminate op gets its own device and starts after its inputs;
    # rule (14) then requires every scheduled start <= ind start + min dur.
    ind_ops = [op for op in problem.ops if op.is_indeterminate]
    taken: set[str] = set()
    ind_start: dict[str, int] = {}

    def sole_options_of_others(current_uid: str) -> set[str]:
        """Devices that are the only compatible choice of another pending
        indeterminate op — don't steal them unless unavoidable."""
        reserved: set[str] = set()
        for other in ind_ops:
            if other.uid == current_uid or other.uid not in pending:
                continue
            options = [
                d for d in fitting_devices(sig_of[other.uid]) if d not in taken
            ]
            if len(options) == 1:
                reserved.add(options[0])
        return reserved

    for op in sorted(ind_ops, key=lambda o: o.uid):
        ready = max(
            (
                finish[p] + problem.edge_transport[(p, op.uid)]
                for p in parents[op.uid]
            ),
            default=0,
        )
        avoid = taken | sole_options_of_others(op.uid)
        try:
            dev_uid, start = acquire_device(op.uid, ready, exclude=avoid)
        except SchedulingError:
            # Unavoidable: compete for the reserved devices after all.
            dev_uid, start = acquire_device(op.uid, ready, exclude=taken)
        # The op runs open-ended past its minimum, so its device must be
        # clear from `start` onwards: push past every existing reservation.
        start = timelines[dev_uid].earliest_fit(start, 10**9)
        taken.add(dev_uid)
        binding[op.uid] = dev_uid
        ind_start[op.uid] = start
        pending.discard(op.uid)
        timelines[dev_uid].reserve(start, occupancy(op.uid))

    # Enforce (14): raise indeterminate starts until every start fits below
    # every indeterminate minimum completion.  Raising starts keeps all
    # other constraints valid (devices are exclusive to these ops from
    # `start` on).
    if ind_ops:
        fixed_latest = max(
            (p.start for p in schedule.placements.values()), default=0
        )
        changed = True
        while changed:
            changed = False
            latest = max(
                [fixed_latest] + [ind_start[o.uid] for o in ind_ops]
            )
            for op in ind_ops:
                needed = latest - op.duration.scheduled
                if ind_start[op.uid] < needed:
                    ind_start[op.uid] = needed
                    changed = True
        for op in ind_ops:
            schedule.place(
                OpPlacement(
                    op.uid,
                    binding[op.uid],
                    ind_start[op.uid],
                    op.duration.scheduled,
                    True,
                )
            )

    return LayerSolveResult(
        schedule=schedule,
        binding=binding,
        new_devices=new_devices,
        objective=float("nan"),
        solver_status="heuristic",
        solver_runtime=0.0,
    )


def _topo_order(problem: LayerProblem) -> list[str]:
    """Topological order of the layer's ops (Kahn, stable by input order)."""
    indeg = {op.uid: 0 for op in problem.ops}
    succ: dict[str, list[str]] = {op.uid: [] for op in problem.ops}
    for parent, child in problem.in_layer_edges:
        indeg[child] += 1
        succ[parent].append(child)
    order = [uid for uid, d in indeg.items() if d == 0]
    head = 0
    while head < len(order):
        uid = order[head]
        head += 1
        for child in succ[uid]:
            indeg[child] -= 1
            if indeg[child] == 0:
                order.append(child)
    if len(order) != len(problem.ops):
        raise SchedulingError("cycle inside a layer")  # pragma: no cover
    return order
