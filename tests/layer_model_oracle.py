"""The ``LinExpr`` layer-model builder (test oracle).

``repro.hls.milp_model.build_layer_model`` emits the layer ILP straight
into arrays.  This module keeps the expression-based builder it replaced,
unchanged apart from imports and the handle class's name, so differential
tests can check that both hand HiGHS the same problem: the array builder
must reproduce ``OracleLayerModel.model.to_standard_form()`` array for
array.  Not collected by pytest (no ``test_`` prefix).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.components.containers import Capacity, ContainerKind
from repro.devices.device import BindingMode
from repro.errors import InfeasibleError
from repro.hls.milp_model import (
    LEGAL_COMBOS,
    ConflictGroup,
    LayerProblem,
    _in_layer_reachability,
    _op_combos,
    _realized_combo,
    is_slot,
    slot_key,
)
from repro.hls.spec import SynthesisSpec
from repro.hls.transport import path_key
from repro.ilp import LinExpr, Model, Variable


@dataclass
class OracleLayerModel:
    """The expression-built ILP plus its variable handles."""

    model: Model
    problem: LayerProblem
    spec: SynthesisSpec
    horizon: int
    device_keys: list
    start: dict[str, Variable]
    makespan: Variable
    od: dict[tuple[str, object], Variable]
    conf: dict[tuple[int, ContainerKind, Capacity], Variable]
    acc: dict[tuple[int, str], Variable]
    used: dict[int, Variable]
    sig: dict[tuple[int, tuple], Variable]
    path_vars: dict[tuple, Variable]
    #: big-M disjunction binaries with their semantics, for encoding a
    #: previous pass's result (``encode_layer_start``): ("q0"|"q1"|"q2", var, a_uid, b_uid).  q0 relaxes "a starts
    #: after b completes (+release)", q1 relaxes "a completes (+release)
    #: before b starts", q2 permits a and b to share one device.
    disj: list[tuple[str, Variable, str, str]] = field(default_factory=list)
    #: every conflict group of the layer, in pair-enumeration order.
    conflict_groups: list[ConflictGroup] = field(default_factory=list)
    #: conflict escape binaries by ("q0"|"q1"|"q2", a, b) — the handles
    #: delta encoding needs to retarget big-M coefficients.
    qvars: dict[tuple[str, str, str], Variable] = field(default_factory=dict)
    #: legal device keys per op uid (delta encoding re-derives row names).
    legal_keys: dict[str, list] = field(default_factory=dict)


def build_layer_model(
    problem: LayerProblem, spec: SynthesisSpec
) -> OracleLayerModel:
    """Construct the layer ILP (see module docstring)."""
    ops = problem.ops
    by_uid = {op.uid: op for op in ops}
    mode = spec.binding_mode
    accessory_names = list(spec.registry.names)

    horizon = sum(
        op.duration.scheduled + problem.release.get(op.uid, 0) for op in ops
    ) + sum(problem.edge_transport.values()) + 1
    big_m = horizon

    model = Model(f"layer{problem.layer_index}", sense="min")

    # ---- device slots: configuration binaries --------------------------
    conf: dict[tuple[int, ContainerKind, Capacity], Variable] = {}
    acc: dict[tuple[int, str], Variable] = {}
    used: dict[int, Variable] = {}
    sig: dict[tuple[int, tuple], Variable] = {}

    signatures = sorted(
        {op.requirement_signature() for op in ops}, key=repr
    )

    for j in range(problem.free_slots):
        used[j] = model.binary(f"used[{j}]")
        for kind, cap in LEGAL_COMBOS:
            conf[j, kind, cap] = model.binary(f"conf[{j},{kind.short},{cap.short}]")
        # (1)+(2) merged on legal combos: one configuration iff used.
        model.add(
            LinExpr.sum(conf[j, k, c] for k, c in LEGAL_COMBOS) == used[j],
            name=f"one_config[{j}]",
        )
        for name in accessory_names:
            acc[j, name] = model.binary(f"acc[{j},{name}]")
            model.add(acc[j, name] <= used[j], name=f"acc_used[{j},{name}]")
        if mode is BindingMode.EXACT:
            for s in signatures:
                sig[j, s] = model.binary(f"sig[{j},{signatures.index(s)}]")
            model.add(
                LinExpr.sum(sig[j, s] for s in signatures) == used[j],
                name=f"one_sig[{j}]",
            )
            # Signature determines the full configuration.
            for kind, cap in LEGAL_COMBOS:
                matching = [
                    sig[j, s] for s in signatures if _realized_combo(s) == (kind, cap)
                ]
                model.add(
                    conf[j, kind, cap] == LinExpr.sum(matching),
                    name=f"sig_conf[{j},{kind.short},{cap.short}]",
                )
            for name in accessory_names:
                matching = [sig[j, s] for s in signatures if name in s[2]]
                model.add(
                    acc[j, name] == LinExpr.sum(matching),
                    name=f"sig_acc[{j},{name}]",
                )
    # Symmetry breaking: slots fill in order.
    for j in range(1, problem.free_slots):
        model.add(used[j - 1] >= used[j], name=f"slot_order[{j}]")

    # ---- binding variables (constraint (5)) ------------------------------
    device_keys: list = [d.uid for d in problem.fixed_devices] + [
        slot_key(j) for j in range(problem.free_slots)
    ]
    fixed_by_uid = {d.uid: d for d in problem.fixed_devices}
    od: dict[tuple[str, object], Variable] = {}

    legal_keys: dict[str, list] = {}
    for op in ops:
        keys: list = [
            d.uid
            for d in problem.fixed_devices
            if d.can_execute(op, mode)
        ]
        keys.extend(slot_key(j) for j in range(problem.free_slots))
        if not keys:
            raise InfeasibleError(
                f"operation {op.uid!r} has no legal device and no free slot "
                f"(|D|={spec.max_devices} too small?)"
            )
        legal_keys[op.uid] = keys
        for key in keys:
            od[op.uid, key] = model.binary(f"od[{op.uid},{key}]")
        model.add(
            LinExpr.sum(od[op.uid, key] for key in keys) == 1,
            name=f"bind_once[{op.uid}]",
        )

    # ---- component consistency on free slots ((6)-(8)) -------------------
    for op in ops:
        combos = _op_combos(op)
        for j in range(problem.free_slots):
            bind = od[op.uid, slot_key(j)]
            if mode is BindingMode.EXACT:
                model.add(
                    bind <= sig[j, op.requirement_signature()],
                    name=f"sig_match[{op.uid},{j}]",
                )
                continue
            model.add(
                LinExpr.sum(conf[j, k, c] for k, c in combos) >= bind,
                name=f"container[{op.uid},{j}]",
            )
            for name in sorted(op.accessories):
                model.add(
                    acc[j, name] >= bind, name=f"need_acc[{op.uid},{j},{name}]"
                )
        # Tie slot usage to bindings (tightens the LP relaxation).
    for j in range(problem.free_slots):
        bound_here = [od[op.uid, slot_key(j)] for op in ops]
        for var in bound_here:
            model.add(used[j] >= var)
        model.add(used[j] <= LinExpr.sum(bound_here), name=f"used_tight[{j}]")

    # ---- start times & dependencies ((9)) ---------------------------------
    start: dict[str, Variable] = {
        op.uid: model.integer(f"st[{op.uid}]", lb=0, ub=horizon) for op in ops
    }
    makespan = model.integer("sum_t", lb=0, ub=horizon)

    for parent, child in problem.in_layer_edges:
        transport = problem.edge_transport[(parent, child)]
        model.add(
            start[child]
            >= start[parent] + by_uid[parent].duration.scheduled + transport,
            name=f"dep[{parent}->{child}]",
        )
        # When parent and child share a device, the child additionally waits
        # for the parent's full release margin (the device keeps shipping to
        # the parent's other children before it frees up).
        release = problem.release.get(parent, 0)
        if release > transport:
            for key in legal_keys[parent]:
                if key not in legal_keys[child]:
                    continue
                model.add(
                    start[child]
                    + big_m * (2 - od[parent, key] - od[child, key])
                    >= start[parent]
                    + by_uid[parent].duration.scheduled
                    + release,
                    name=f"dep_rel[{parent}->{child},{key}]",
                )

    # ---- makespan ((15)) ----------------------------------------------------
    for op in ops:
        model.add(
            makespan >= start[op.uid] + op.duration.scheduled,
            name=f"mk[{op.uid}]",
        )

    # ---- indeterminate tail ((14)) -----------------------------------------
    indeterminate = [op for op in ops if op.is_indeterminate]
    for ind in indeterminate:
        bound = start[ind.uid] + ind.duration.scheduled
        for op in ops:
            if op.uid == ind.uid:
                continue
            model.add(
                start[op.uid] <= bound, name=f"tail[{op.uid}<={ind.uid}]"
            )

    # ---- device conflicts ((10)-(13)) ----------------------------------------
    reach = _in_layer_reachability(ops, problem.in_layer_edges)

    def shared_keys(a: Operation, b: Operation) -> list:
        keys = []
        for key in legal_keys[a.uid]:
            if key not in legal_keys[b.uid]:
                continue
            if is_slot(key):
                if mode is BindingMode.EXACT:
                    if a.requirement_signature() != b.requirement_signature():
                        continue
                else:
                    if not (set(_op_combos(a)) & set(_op_combos(b))):
                        continue
            keys.append(key)
        return keys

    # The LayerModel exists from here on so the conflict emitter can
    # register rows and escape binaries on it; path_vars is filled below,
    # the objective is set last.
    layer_model = OracleLayerModel(
        model=model,
        problem=problem,
        spec=spec,
        horizon=horizon,
        device_keys=device_keys,
        start=start,
        makespan=makespan,
        od=od,
        conf=conf,
        acc=acc,
        used=used,
        sig=sig,
        path_vars={},
        legal_keys=legal_keys,
    )

    for i, op_a in enumerate(ops):
        for op_b in ops[i + 1 :]:
            a, b = op_a.uid, op_b.uid
            if (a, b) in reach or (b, a) in reach:
                continue  # dependency-ordered: can never overlap
            shared = shared_keys(op_a, op_b)
            if not shared:
                continue  # cannot share a device; overlap is harmless
            if op_a.is_indeterminate and op_b.is_indeterminate:
                group = ConflictGroup("ind", a, b, None, None, tuple(shared))
            elif op_a.is_indeterminate or op_b.is_indeterminate:
                # fixed op must fully precede the indeterminate one, or they
                # bind apart.
                fixed_op, ind_op = (
                    (op_b, op_a) if op_a.is_indeterminate else (op_a, op_b)
                )
                group = ConflictGroup(
                    "mixed", a, b, fixed_op.uid, ind_op.uid, tuple(shared)
                )
            else:
                group = ConflictGroup("fixed", a, b, None, None, tuple(shared))
            layer_model.conflict_groups.append(group)
            _emit_conflict_group(layer_model, group)

    # ---- transportation paths ((21)) -------------------------------------------
    path_vars: dict[tuple, Variable] = layer_model.path_vars

    def get_path_var(key_a, key_b) -> Variable | None:
        """Path variable for a device-key pair; None when the path is free."""
        if key_a == key_b:
            return None
        pair = tuple(sorted((key_a, key_b), key=repr))
        if (
            isinstance(key_a, str)
            and isinstance(key_b, str)
            and path_key(key_a, key_b) in problem.existing_paths
        ):
            return None
        if pair not in path_vars:
            path_vars[pair] = model.binary(f"path[{pair}]")
        return path_vars[pair]

    for parent, child in problem.in_layer_edges:
        for key_p in legal_keys[parent]:
            for key_c in legal_keys[child]:
                var = get_path_var(key_p, key_c)
                if var is None:
                    continue
                model.add(
                    od[parent, key_p] + od[child, key_c] - var <= 1,
                    name=f"path[{parent}->{child},{key_p},{key_c}]",
                )
    for parent_device, child in problem.incoming:
        for key_c in legal_keys[child]:
            if key_c == parent_device:
                continue
            var = get_path_var(parent_device, key_c)
            if var is None:
                continue
            model.add(od[child, key_c] <= var, name=f"path_in[{child},{key_c}]")
    for parent, child_device in problem.outgoing:
        for key_p in legal_keys[parent]:
            if key_p == child_device:
                continue
            var = get_path_var(key_p, child_device)
            if var is None:
                continue
            model.add(od[parent, key_p] <= var, name=f"path_out[{parent},{key_p}]")

    # ---- objective ((15)-(21) summations) ----------------------------------------
    costs = spec.cost_model
    area_expr = LinExpr.sum(
        costs.container_area(kind, cap) * conf[j, kind, cap]
        for j in range(problem.free_slots)
        for kind, cap in LEGAL_COMBOS
    )
    processing_expr = LinExpr.sum(
        costs.container_cost(kind, cap) * conf[j, kind, cap]
        for j in range(problem.free_slots)
        for kind, cap in LEGAL_COMBOS
    ) + LinExpr.sum(
        costs.accessory_cost(name) * acc[j, name]
        for j in range(problem.free_slots)
        for name in accessory_names
    )
    paths_expr = LinExpr.sum(path_vars.values())

    # Storage pressure (extension): a crossing edge whose endpoints bind
    # apart buffers its reagent, charged ``w`` per edge.  ``w * (1 - od)``
    # when co-binding is legal (pure objective term — LP relaxations and
    # reused start vectors are untouched); the unavoidable constant ``w`` when it
    # is not, so integral model objectives keep matching ``layer_cost``.
    storage_terms = []
    for (parent_device, child), weight in sorted(problem.storage_in.items()):
        var = od.get((child, parent_device))
        storage_terms.append(
            weight * (1 - var) if var is not None else weight
        )
    for (parent, child_device), weight in sorted(problem.storage_out.items()):
        var = od.get((parent, child_device))
        storage_terms.append(
            weight * (1 - var) if var is not None else weight
        )
    storage_expr = LinExpr.sum(storage_terms)

    weights = spec.weights
    model.minimize(
        weights.time * makespan
        + weights.area * area_expr
        + weights.processing * processing_expr
        + weights.paths * paths_expr
        + storage_expr
    )

    return layer_model


def _emit_shared_device_rows(
    layer_model: OracleLayerModel,
    a: str,
    b: str,
    shared: tuple,
    escape: Variable | None,
    prefix: str,
) -> None:
    """The per-key "bind apart" rows every conflict kind shares.

    ``od[a,key] + od[b,key] <= 1`` per shared key, minus the ``escape``
    binary when the pair has a timing alternative (q2 permits sharing).
    """
    model = layer_model.model
    od = layer_model.od
    for key in shared:
        expr = od[a, key] + od[b, key]
        if escape is not None:
            expr = expr - escape
        model.add(expr <= 1, name=f"{prefix}[{a},{b},{key}]")


def _emit_conflict_group(
    layer_model: OracleLayerModel, group: ConflictGroup
) -> None:
    """Emit one conflict group's rows ((10)–(13)) into the model."""
    model = layer_model.model
    problem = layer_model.problem
    start = layer_model.start
    big_m = layer_model.horizon
    by_uid = {op.uid: op for op in problem.ops}
    a, b = group.a, group.b

    if group.kind == "ind":
        _emit_shared_device_rows(layer_model, a, b, group.shared, None, "ind_apart")
    elif group.kind == "mixed":
        q1 = model.binary(f"q1[{a},{b}]")
        q2 = model.binary(f"q2[{a},{b}]")
        layer_model.disj.append(("q1", q1, group.fixed, group.ind))
        layer_model.disj.append(("q2", q2, a, b))
        layer_model.qvars[("q1", a, b)] = q1
        layer_model.qvars[("q2", a, b)] = q2
        fixed_op = by_uid[group.fixed]
        release = problem.release.get(group.fixed, 0)
        model.add(
            start[group.fixed]
            + fixed_op.duration.scheduled
            + release
            - q1 * big_m
            <= start[group.ind],
            name=f"before_ind[{a},{b}]",
        )
        _emit_shared_device_rows(layer_model, a, b, group.shared, q2, "conflict")
        model.add(q1 + q2 <= 1, name=f"disj[{a},{b}]")
    else:
        q0 = model.binary(f"q0[{a},{b}]")
        q1 = model.binary(f"q1[{a},{b}]")
        q2 = model.binary(f"q2[{a},{b}]")
        layer_model.disj.append(("q0", q0, a, b))
        layer_model.disj.append(("q1", q1, a, b))
        layer_model.disj.append(("q2", q2, a, b))
        layer_model.qvars[("q0", a, b)] = q0
        layer_model.qvars[("q1", a, b)] = q1
        layer_model.qvars[("q2", a, b)] = q2
        rel_a = problem.release.get(a, 0)
        rel_b = problem.release.get(b, 0)
        model.add(
            start[a] + q0 * big_m
            >= start[b] + by_uid[b].duration.scheduled + rel_b,
            name=f"after[{a},{b}]",
        )
        model.add(
            start[a] + by_uid[a].duration.scheduled + rel_a - q1 * big_m
            <= start[b],
            name=f"before[{a},{b}]",
        )
        _emit_shared_device_rows(layer_model, a, b, group.shared, q2, "conflict")
        model.add(q0 + q1 + q2 <= 2, name=f"disj[{a},{b}]")
