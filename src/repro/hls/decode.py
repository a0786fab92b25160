"""Decode an ILP solution into a layer sub-schedule + new devices."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..devices.device import BindingMode, GeneralDevice
from ..errors import SolverError
from ..ilp import Solution, SolveStats
from .milp_model import LEGAL_COMBOS, LayerModel, is_slot
from .schedule import LayerSchedule, OpPlacement


@dataclass
class LayerSolveResult:
    """Decoded outcome of one layer solve."""

    schedule: LayerSchedule
    #: operation uid -> device uid (fixed devices and new devices alike).
    binding: dict[str, str]
    #: devices newly integrated by this layer, in slot order.
    new_devices: list[GeneralDevice] = field(default_factory=list)
    objective: float = 0.0
    solver_status: str = ""
    solver_runtime: float = 0.0
    #: solve telemetry, filled in by the synthesis driver.
    stats: SolveStats | None = None


def decode_layer_solution(
    layer_model: LayerModel,
    solution: Solution,
    uid_allocator,
) -> LayerSolveResult:
    """Translate solver values into placements and concrete new devices.

    ``solution.values`` is the column vector of ``layer_model.model``.

    ``uid_allocator`` is a zero-argument callable handing out fresh device
    uids (the synthesizer passes the inventory's allocator so uids stay
    globally unique).
    """
    if not solution.status.has_solution:
        raise SolverError(
            f"cannot decode a solution with status {solution.status}"
        )
    problem = layer_model.problem
    mode = layer_model.spec.binding_mode

    # -- materialize used slots as devices --------------------------------
    slot_devices: dict[int, GeneralDevice] = {}
    new_devices: list[GeneralDevice] = []
    for j in range(problem.free_slots):
        if solution.int_value(layer_model.used[j]) == 0:
            continue
        combo = next(
            (
                (kind, cap)
                for kind, cap in LEGAL_COMBOS
                if solution.int_value(layer_model.conf[j, kind, cap]) == 1
            ),
            None,
        )
        if combo is None:
            raise SolverError(f"slot {j} used but has no configuration")
        accessories = frozenset(
            name
            for name in layer_model.spec.registry.names
            if solution.int_value(layer_model.acc[j, name]) == 1
        )
        signature = None
        if mode is BindingMode.EXACT:
            signature = next(
                (
                    s
                    for (slot, s), var in layer_model.sig.items()
                    if slot == j and solution.int_value(var) == 1
                ),
                None,
            )
        device = GeneralDevice(
            uid=uid_allocator(),
            container=combo[0],
            capacity=combo[1],
            accessories=accessories,
            signature=signature,
        )
        slot_devices[j] = device
        new_devices.append(device)

    # -- placements ----------------------------------------------------------
    schedule = LayerSchedule(index=problem.layer_index)
    binding: dict[str, str] = {}
    values = solution.values
    for op in problem.ops:
        # The op's binding columns are one run, in legal-key order.
        keys = layer_model.legal_keys[op.uid]
        first = layer_model.od[op.uid, keys[0]]
        chosen = np.flatnonzero(np.round(values[first : first + len(keys)]) == 1)
        if len(chosen) != 1:
            raise SolverError(
                f"operation {op.uid} bound to {len(chosen)} devices"
            )
        key = keys[chosen[0]]
        if is_slot(key):
            device_uid = slot_devices[key[1]].uid
        else:
            device_uid = key
        binding[op.uid] = device_uid
        schedule.place(
            OpPlacement(
                uid=op.uid,
                device_uid=device_uid,
                start=solution.int_value(layer_model.start[op.uid]),
                duration=op.duration.scheduled,
                indeterminate=op.is_indeterminate,
            )
        )

    return LayerSolveResult(
        schedule=schedule,
        binding=binding,
        new_devices=new_devices,
        objective=solution.objective or 0.0,
        solver_status=solution.status.value,
        solver_runtime=solution.runtime,
    )
