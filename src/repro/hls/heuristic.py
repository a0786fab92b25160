"""Greedy list scheduler for a layer.

The one greedy code path: the ``greedy`` scheduler runs it alone,
``lp-bound`` pairs it with an LP-relaxation bound, and ``portfolio`` races
it against the ILP and falls back to it when the ILP finds no incumbent in
time, so a synthesis run always produces a *valid* — if not optimal —
hybrid schedule.  The heuristic respects every constraint the ILP
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
from ..errors import SchedulingError
from ..operations.operation import Operation
from .cache import _cached_token
from .context import FitAnswers, InventoryIndex
from .decode import LayerSolveResult
from .milp_model import LayerProblem
from .schedule import LayerSchedule, OpPlacement
from .spec import SynthesisSpec


@dataclass
class _Timeline:
    """Busy intervals of one device within the layer, kept sorted."""

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
    problem: LayerProblem, spec: SynthesisSpec, uid_allocator
) -> LayerSolveResult:
    """Greedy feasible schedule for ``problem`` (see module docstring).

    The work is proportional to the layer's ops, the inventory's
    configurations and the devices that can run the ops, not to the
    inherited inventory: the fixed devices are registered one
    configuration at a time from ``problem.inventory``, legality is
    decided once per (configuration, requirement signature) pair and
    kept for the run, and timelines exist only for devices the layer
    reserves.
    """
    mode = spec.binding_mode
    by_uid = {op.uid: op for op in problem.ops}
    parents: dict[str, list[str]] = {op.uid: [] for op in problem.ops}
    for parent, child in problem.in_layer_edges:
        parents[child].append(parent)

    # A device gets a timeline when it is first reserved.  An untouched
    # device is free from ``ready`` on, so it needs none to be compared.
    timelines: dict[str, _Timeline] = {}
    new_devices: list[GeneralDevice] = []
    slots_left = problem.free_slots

    occupancy = {
        op.uid: op.duration.scheduled + problem.release.get(op.uid, 0)
        for op in problem.ops
    }

    def start_on(dev_uid: str, ready: int, length: int) -> int:
        timeline = timelines.get(dev_uid)
        return ready if timeline is None else timeline.earliest_fit(ready, length)

    def reserve(dev_uid: str, start: int, length: int) -> None:
        timeline = timelines.get(dev_uid)
        if timeline is None:
            timeline = timelines[dev_uid] = _Timeline()
        timeline.reserve(start, length)

    pending: set[str] = {op.uid for op in problem.ops}

    # Binding legality depends only on the device's configuration and the
    # op's requirement signature (under COVER and EXACT alike), so it is
    # decided once per (configuration, signature) pair, against one
    # representative op.  The answers are kept in the inventory index's
    # tables, which the pass state hands on to later layers and passes.
    index = problem.inventory
    if index is None:
        index = InventoryIndex.of(problem.fixed_devices)
    answers = index.answers.setdefault(mode, {})
    sig_of = {op.uid: op.requirement_signature() for op in problem.ops}
    sig_op: dict[tuple, Operation] = {}
    for op in problem.ops:
        sig_op.setdefault(sig_of[op.uid], op)

    # A device can only run ops of its own binding key (capacity class
    # under COVER, signature under EXACT), so it is only tested against
    # the signatures of its key.
    key_sigs: dict[object, set[tuple]] = {}
    for sig, op in sig_op.items():
        key_sigs.setdefault(GeneralDevice.op_binding_key(op, mode), set()).add(
            sig
        )
    # Per signature the devices able to run it: fixed devices first, in
    # inventory order, then new ones in creation order (the order
    # ``slots_reserved`` matches in).
    fitting: dict[tuple, list[str]] = {sig: [] for sig in sig_op}
    pending_fixed = Counter(
        sig_of[op.uid] for op in problem.ops if not op.is_indeterminate
    )
    # Signatures with pending fixed ops and no fitting device: each one
    # until ``register`` adds a device for it.  Scheduling an op proves
    # its signature covered, so only adding a device changes the count.
    uncovered = len(pending_fixed)
    # Signatures whose fitting list takes devices of several
    # configurations.
    merged: set[tuple] = set()

    def register(device: GeneralDevice, config: str, uids) -> None:
        """Append ``uids``, devices of ``device``'s configuration, to the
        fitting lists of the signatures they can run."""
        nonlocal uncovered
        known = answers.get(config)
        if known is None:
            known = answers[config] = FitAnswers(device.binding_key(mode))
        sigs = key_sigs.get(known.key)
        if not sigs:
            return
        fits = known.fits
        # Each ``-`` costs what the left-hand set holds, not the run's
        # answers (``difference(a, b)`` would walk all of ``b``).
        for sig in sigs - fits - known.misses:
            if device.can_execute(sig_op[sig], mode):
                fits.add(sig)
            else:
                known.misses.add(sig)
        for sig in fits.intersection(sigs):
            able = fitting[sig]
            if able:
                merged.add(sig)
            elif pending_fixed[sig] > 0:
                uncovered -= 1
            able.extend(uids)

    representative = index.representative
    for config, uids in index.uids.items():
        register(representative[config], config, uids)
    # Lists that several configurations fed go back into inventory order.
    position = index.position.__getitem__
    for sig in merged:
        fitting[sig].sort(key=position)

    ind_uids = sorted(op.uid for op in problem.ops if op.is_indeterminate)

    def slots_reserved(exclude_uid: str) -> int:
        """Slots that must stay available for still-unscheduled operations.

        One slot per requirement signature among pending fixed ops that no
        existing device can execute, plus one per pending indeterminate op
        that cannot be matched to a *distinct* compatible device (the
        indeterminate tail needs pairwise-different devices).
        ``exclude_uid``, the op being placed, counts as scheduled.
        """
        reserved = uncovered
        if exclude_uid in pending and not by_uid[exclude_uid].is_indeterminate:
            sig = sig_of[exclude_uid]
            if pending_fixed[sig] == 1 and not fitting[sig]:
                reserved -= 1
        matched: set[str] = set()
        for uid in ind_uids:
            if uid == exclude_uid or uid not in pending:
                continue
            choice = next(
                (d for d in fitting[sig_of[uid]] if d not in matched), None
            )
            if choice is None:
                reserved += 1
            else:
                matched.add(choice)
        return reserved

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
        able = fitting[sig_of[uid]]
        for dev_uid, weight in sorted(pressure[uid].items()):
            if dev_uid in exclude or dev_uid not in able:
                continue
            start = start_on(dev_uid, ready, occupancy[uid])
            if spec.weights.time * (start - ready) > weight:
                continue
            if best_pref is None or (start, dev_uid) < best_pref:
                best_pref = (start, dev_uid)
        return best_pref

    def create_device(op) -> str:
        nonlocal slots_left
        device = GeneralDevice.for_operation(uid_allocator(), op, mode)
        register(device, _cached_token(device)[1], (device.uid,))
        new_devices.append(device)
        slots_left -= 1
        return device.uid

    def acquire_device(uid: str, ready: int, exclude: set[str]) -> tuple[str, int]:
        """Choose a device and start time; creates a device if needed.

        New devices are only created when enough free slots remain to still
        cover every pending requirement (see :func:`slots_reserved`), so a
        feasible layer never dead-ends on slot exhaustion.
        """
        op = by_uid[uid]
        length = occupancy[uid]
        best: tuple[int, str] | None = None
        # Untouched devices all start at ``ready``: of those, only the
        # smallest uid can win the ``(start, uid)`` comparison.
        idle: str | None = None
        for dev_uid in fitting[sig_of[uid]]:
            if dev_uid in exclude:
                continue
            timeline = timelines.get(dev_uid)
            if timeline is None:
                if idle is None or dev_uid < idle:
                    idle = dev_uid
                continue
            start = timeline.earliest_fit(ready, length)
            if best is None or (start, dev_uid) < best:
                best = (start, dev_uid)
        if idle is not None and (best is None or (ready, idle) < best):
            best = (ready, idle)
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
        if slots_left > 0 and slots_left - 1 >= slots_reserved(uid):
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
        reserve(dev_uid, start, occupancy[uid])
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
            options = [d for d in fitting[sig_of[other.uid]] if d not in taken]
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
        start = start_on(dev_uid, start, 10**9)
        taken.add(dev_uid)
        binding[op.uid] = dev_uid
        ind_start[op.uid] = start
        pending.discard(op.uid)
        reserve(dev_uid, start, occupancy[op.uid])

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
