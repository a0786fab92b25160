"""Per-layer ILP model construction (paper Sec. 4, constraints (1)–(21)).

Each layer of the hybrid schedule is synthesized by one ILP.  The model
variables follow Table 1 of the paper:

* device configuration — for every *free device slot* (a device the layer
  may newly integrate), binaries select one (container kind, capacity)
  combination and any accessories.  Devices inherited from other layers /
  the previous iteration are constants: their configuration is fixed and
  their cost already paid.
* ``o_d[i, j]`` — operation-to-device binding binaries (constraint (5)).
* ``st_i`` — integer start times; ``sum_t`` — the layer makespan.
* ``q0/q1/q2`` — the big-M disjunction binaries of constraints (10)–(13).
* ``p_{d,d'}`` — transportation-path indicators (constraint (21)); paths
  already integrated by other layers are free.

Two deliberate deviations from the paper's formulas, both documented in
DESIGN.md:

* constraints (3)/(4) as printed force every ring to be *large* and every
  chamber to be *tiny* (summing them with (2) over-constrains the capacity
  one-hot).  The stated intent — ring ∈ {large, medium, small}, chamber ∈
  {medium, small, tiny} — is encoded directly by enumerating the six legal
  (kind, capacity) combinations as one-hot configuration binaries.
* pairs involving an indeterminate operation cannot use the "starts after
  completion" escape of constraint (10), because an indeterminate operation
  has no known completion: such pairs must either finish before the
  indeterminate operation starts or bind to different devices, and two
  indeterminate operations must always bind to different devices (the paper
  states they "are mapped to different devices to allow parallel
  execution").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..components.containers import Capacity, ContainerKind, allowed_capacities
from ..devices.device import BindingMode, GeneralDevice
from ..errors import InfeasibleError
from ..ilp import LinExpr, Model, Variable
from ..operations.operation import Operation
from .spec import SynthesisSpec
from .transport import path_key

if TYPE_CHECKING:  # pragma: no cover
    from .context import InventoryIndex
    from .decode import LayerSolveResult

#: The six legal (container kind, capacity) combinations.
LEGAL_COMBOS: tuple[tuple[ContainerKind, Capacity], ...] = tuple(
    (kind, cap) for kind in ContainerKind for cap in allowed_capacities(kind)
)

#: Device key of a free slot.
SlotKey = tuple[str, int]
#: Either a fixed device uid (str) or a slot key.
DeviceKey = "str | SlotKey"


def slot_key(index: int) -> SlotKey:
    return ("slot", index)


def is_slot(key) -> bool:
    return isinstance(key, tuple) and len(key) == 2 and key[0] == "slot"


@dataclass(frozen=True)
class ConflictGroup:
    """One op pair's device-conflict disjunction (constraints (10)–(13)).

    Groups are enumerated for every unordered, dependency-unrelated pair
    that could share a device, and every group's rows are emitted at build
    time by :func:`_emit_conflict_group`.  Delta encoding walks the same
    groups to retarget their big-M coefficients.
    """

    #: "fixed" (both determinate), "mixed" (one indeterminate), or "ind".
    kind: str
    #: op uids in pair-enumeration order (``a`` before ``b`` in the layer).
    a: str
    b: str
    #: the determinate / indeterminate op of a "mixed" pair, else None.
    fixed: str | None
    ind: str | None
    #: device keys both ops could legally bind.
    shared: tuple


@dataclass
class LayerProblem:
    """Everything one layer's ILP needs to know."""

    layer_index: int
    ops: list[Operation]
    #: dependency edges with both endpoints in this layer.
    in_layer_edges: list[tuple[str, str]]
    #: per-edge transportation estimates for ``in_layer_edges``.
    edge_transport: dict[tuple[str, str], int]
    #: device release margin per op (time its device stays busy shipping).
    release: dict[str, int]
    #: devices whose configuration is already fixed (inherited).
    fixed_devices: list[GeneralDevice]
    #: how many new devices this layer may integrate.
    free_slots: int
    #: cross-layer edges arriving here: (parent device uid, child uid).
    incoming: list[tuple[str, str]] = field(default_factory=list)
    #: cross-layer edges leaving here: (parent uid, child device uid); only
    #: known during re-synthesis, empty in the first forward pass.
    outgoing: list[tuple[str, str]] = field(default_factory=list)
    #: transportation paths already integrated by other layers (free).
    existing_paths: set[tuple[str, str]] = field(default_factory=set)
    #: storage pressure on arriving cross-layer edges, keyed like
    #: ``incoming`` entries (parent device uid, child uid): the weighted
    #: cost charged when the child binds away from the parent's device
    #: (the buffered reagent then needs channel/reservoir storage).
    #: Empty when ``storage_mode`` is ``off``.
    storage_in: dict[tuple[str, str], float] = field(default_factory=dict)
    #: storage pressure on departing cross-layer edges, keyed like
    #: ``outgoing`` entries (parent uid, child device uid).
    storage_out: dict[tuple[str, str], float] = field(default_factory=dict)
    #: ``fixed_devices`` by configuration; the greedy scheduler derives
    #: it from ``fixed_devices`` when ``None`` (a problem built by hand).
    inventory: InventoryIndex | None = None


@dataclass
class LayerModel:
    """A built ILP plus the variable handles needed for decoding."""

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


def _op_combos(op: Operation) -> list[tuple[ContainerKind, Capacity]]:
    """Legal (kind, capacity) combos that satisfy ``op``'s container spec."""
    return [
        (kind, op.capacity)
        for kind in op.allowed_container_kinds
    ]


def _realized_combo(op_signature: tuple) -> tuple[ContainerKind, Capacity]:
    """The concrete combo a conventional-baseline device takes for a
    signature; chambers are preferred when the kind is open (cheaper)."""
    container_name, capacity_name, _acc = op_signature
    capacity = Capacity(capacity_name)
    if container_name is not None:
        return ContainerKind(container_name), capacity
    if capacity in allowed_capacities(ContainerKind.CHAMBER):
        return ContainerKind.CHAMBER, capacity
    return ContainerKind.RING, capacity


def _in_layer_reachability(
    ops: list[Operation], edges: list[tuple[str, str]]
) -> set[tuple[str, str]]:
    """All ordered (ancestor, descendant) pairs within the layer."""
    succ: dict[str, list[str]] = {op.uid: [] for op in ops}
    for parent, child in edges:
        succ[parent].append(child)
    closed: set[tuple[str, str]] = set()
    for op in ops:
        stack = list(succ[op.uid])
        seen: set[str] = set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(succ[node])
        closed.update((op.uid, d) for d in seen)
    return closed


def build_layer_model(problem: LayerProblem, spec: SynthesisSpec) -> LayerModel:
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
    layer_model = LayerModel(
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
    layer_model: LayerModel,
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


def _emit_conflict_group(layer_model: LayerModel, group: ConflictGroup) -> None:
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


def _delta_structure_token(problem: LayerProblem) -> tuple:
    """What must be unchanged for a delta re-encode to be sound.

    Everything except the numeric transport/release constants: op identity
    and durations (they shape rows, not just numbers — durations appear in
    makespan and tail rows that the delta does not touch), edges, devices,
    slots, cross-layer wiring, and the storage key/weight maps (weights are
    objective coefficients tied to od variables created at build time).
    """
    return (
        problem.layer_index,
        tuple(
            (
                op.uid,
                op.duration.scheduled,
                op.is_indeterminate,
                op.requirement_signature(),
            )
            for op in problem.ops
        ),
        tuple(problem.in_layer_edges),
        tuple((d.uid, d.signature) for d in problem.fixed_devices),
        problem.free_slots,
        tuple(problem.incoming),
        tuple(problem.outgoing),
        tuple(sorted(problem.existing_paths)),
        tuple(sorted(problem.storage_in.items())),
        tuple(sorted(problem.storage_out.items())),
    )


def _dep_rel_pattern(
    problem: LayerProblem, legal_keys: dict[str, list]
) -> list[tuple[str, str, object]]:
    """The ``dep_rel`` rows a problem emits: (parent, child, shared key)."""
    pattern: list[tuple[str, str, object]] = []
    for parent, child in problem.in_layer_edges:
        transport = problem.edge_transport[(parent, child)]
        release = problem.release.get(parent, 0)
        if release <= transport:
            continue
        for key in legal_keys[parent]:
            if key in legal_keys[child]:
                pattern.append((parent, child, key))
    return pattern


def encode_layer_delta(
    layer_model: LayerModel, problem: LayerProblem, spec: SynthesisSpec
):
    """Map a changed :class:`LayerProblem` onto model mutations.

    Returns ``(delta, new_horizon)`` when the change is purely numeric —
    shifted transport/release constants, which move dependency right-hand
    sides, the horizon (variable upper bounds), and every big-M coefficient
    derived from it — or ``None`` when the change is structural (different
    ops/devices/slots/edges/storage), in which case the caller rebuilds.

    The mutated model is element-identical to ``build_layer_model(problem,
    spec)``: a delta-solved layer is byte-identical to a from-scratch
    solve.
    """
    from ..ilp.model import ModelDelta

    old = layer_model.problem
    if spec != layer_model.spec:
        return None
    if _delta_structure_token(problem) != _delta_structure_token(old):
        return None
    legal_keys = layer_model.legal_keys
    pattern = _dep_rel_pattern(problem, legal_keys)
    if pattern != _dep_rel_pattern(old, legal_keys):
        return None

    ops = problem.ops
    by_uid = {op.uid: op for op in ops}
    new_horizon = sum(
        op.duration.scheduled + problem.release.get(op.uid, 0) for op in ops
    ) + sum(problem.edge_transport.values()) + 1
    big_m = new_horizon
    horizon_changed = new_horizon != layer_model.horizon

    model = layer_model.model
    od = layer_model.od
    delta = ModelDelta()

    if horizon_changed:
        for var in layer_model.start.values():
            delta.set_variable_bounds(var, ub=new_horizon)
        delta.set_variable_bounds(layer_model.makespan, ub=new_horizon)

    def retarget(name: str, var: Variable, coeff: float) -> None:
        if model.constraint(name).expr.terms.get(var) != coeff:
            delta.set_coefficient(name, var, coeff)

    def move_rhs(name: str, rhs: float) -> None:
        if model.constraint(name).rhs != rhs:
            delta.set_rhs(name, rhs)

    for parent, child in problem.in_layer_edges:
        move_rhs(
            f"dep[{parent}->{child}]",
            by_uid[parent].duration.scheduled
            + problem.edge_transport[(parent, child)],
        )
    for parent, child, key in pattern:
        name = f"dep_rel[{parent}->{child},{key}]"
        retarget(name, od[parent, key], -big_m)
        retarget(name, od[child, key], -big_m)
        move_rhs(
            name,
            by_uid[parent].duration.scheduled
            + problem.release.get(parent, 0)
            - 2 * big_m,
        )

    for group in layer_model.conflict_groups:
        a, b = group.a, group.b
        if group.kind == "ind":
            continue
        if group.kind == "mixed":
            fixed = group.fixed
            name = f"before_ind[{a},{b}]"
            retarget(name, layer_model.qvars[("q1", a, b)], -big_m)
            move_rhs(
                name,
                -(
                    by_uid[fixed].duration.scheduled
                    + problem.release.get(fixed, 0)
                ),
            )
            continue
        rel_a = problem.release.get(a, 0)
        rel_b = problem.release.get(b, 0)
        name = f"after[{a},{b}]"
        retarget(name, layer_model.qvars[("q0", a, b)], big_m)
        move_rhs(name, by_uid[b].duration.scheduled + rel_b)
        name = f"before[{a},{b}]"
        retarget(name, layer_model.qvars[("q1", a, b)], -big_m)
        move_rhs(name, -(by_uid[a].duration.scheduled + rel_a))

    return delta, new_horizon


def apply_layer_delta(
    layer_model: LayerModel,
    problem: LayerProblem,
    delta,
    new_horizon: int,
    apply: bool = True,
) -> None:
    """Finalize a delta re-encode: swap the problem and horizon in.

    ``apply=False`` skips mutating the model (a solver session already
    applied the delta through its own :meth:`apply`).
    """
    if apply:
        delta.apply_to(layer_model.model)
    layer_model.problem = problem
    layer_model.horizon = new_horizon


def encode_layer_start(
    layer_model: LayerModel, result: "LayerSolveResult"
) -> dict[Variable, float] | None:
    """Encode a decoded layer result as a complete start vector.

    Maps ``result``'s binding/schedule back onto the model's variables —
    fixed devices by uid, new devices onto free slots in order — and derives
    the dependent binaries (configuration one-hots, disjunction escapes,
    path indicators).  Returns ``None`` when the result does not fit this
    model (unknown device, missing slot, or any constraint violated), so
    callers can simply skip an unusable start.
    """
    problem = layer_model.problem
    spec = layer_model.spec
    model = layer_model.model
    by_uid = {op.uid: op for op in problem.ops}

    # -- device uid -> model key ------------------------------------------
    key_of: dict[str, object] = {d.uid: d.uid for d in problem.fixed_devices}
    if len(result.new_devices) > problem.free_slots:
        return None
    for j, device in enumerate(result.new_devices):
        key_of[device.uid] = slot_key(j)

    values: dict[Variable, float] = {}

    # -- slot configuration ------------------------------------------------
    for j in range(problem.free_slots):
        device = result.new_devices[j] if j < len(result.new_devices) else None
        values[layer_model.used[j]] = 1.0 if device is not None else 0.0
        for kind, cap in LEGAL_COMBOS:
            on = device is not None and (device.container, device.capacity) == (
                kind, cap
            )
            values[layer_model.conf[j, kind, cap]] = 1.0 if on else 0.0
        for name in spec.registry.names:
            on = device is not None and name in device.accessories
            values[layer_model.acc[j, name]] = 1.0 if on else 0.0
        for (slot, s), var in layer_model.sig.items():
            if slot != j:
                continue
            values[var] = 1.0 if device is not None and device.signature == s else 0.0

    # -- bindings ----------------------------------------------------------
    chosen_key: dict[str, object] = {}
    for op in problem.ops:
        device_uid = result.binding.get(op.uid)
        if device_uid is None or device_uid not in key_of:
            return None
        chosen_key[op.uid] = key_of[device_uid]
    for (uid, key), var in layer_model.od.items():
        values[var] = 1.0 if chosen_key.get(uid) == key else 0.0
    for uid, key in chosen_key.items():
        if (uid, key) not in layer_model.od:
            return None  # binding not legal in this model

    # -- start times -------------------------------------------------------
    starts: dict[str, int] = {}
    for op in problem.ops:
        if op.uid not in result.schedule:
            return None
        starts[op.uid] = result.schedule[op.uid].start
        values[layer_model.start[op.uid]] = float(starts[op.uid])
    values[layer_model.makespan] = float(result.schedule.makespan)

    # -- disjunction escapes ----------------------------------------------
    def completion(uid: str) -> int:
        op = by_uid[uid]
        return starts[uid] + op.duration.scheduled + problem.release.get(uid, 0)

    for kind, var, a, b in layer_model.disj:
        if kind == "q0":  # relaxes: a starts after b completes (+release)
            values[var] = 0.0 if starts[a] >= completion(b) else 1.0
        elif kind == "q1":  # relaxes: a completes (+release) before b starts
            values[var] = 0.0 if completion(a) <= starts[b] else 1.0
        else:  # q2 permits sharing one device
            values[var] = (
                1.0 if result.binding[a] == result.binding[b] else 0.0
            )

    # -- transportation paths ---------------------------------------------
    used_pairs: set[tuple] = set()

    def note_pair(key_a, key_b) -> None:
        if key_a != key_b:
            used_pairs.add(tuple(sorted((key_a, key_b), key=repr)))

    for parent, child in problem.in_layer_edges:
        note_pair(chosen_key[parent], chosen_key[child])
    for parent_device, child in problem.incoming:
        note_pair(parent_device, chosen_key[child])
    for parent, child_device in problem.outgoing:
        note_pair(chosen_key[parent], child_device)
    for pair, var in layer_model.path_vars.items():
        values[var] = 1.0 if pair in used_pairs else 0.0

    if len(values) != model.num_variables:
        return None  # a variable escaped the encoding; don't guess
    if model.check(values):
        # The binding and relative order may still be fine while the start
        # times are stale (transport refinement between passes shifts the
        # precedence offsets).  Re-derive minimal feasible timing for the
        # chosen binaries before giving up.
        values = _repair_layer_timing(layer_model, values)
        if values is None or model.check(values):
            return None
    return values


def _repair_layer_timing(
    layer_model: LayerModel, values: dict[Variable, float]
) -> dict[Variable, float] | None:
    """Recompute start times and makespan for a fixed binary assignment.

    With every binary pinned, the remaining constraints over the timing
    variables are difference constraints (``x - y >= w`` or bounds), so the
    componentwise-minimal feasible timing is a longest-path fixpoint.  The
    binaries — and hence the binding and the relative device order encoded
    by the disjunction escapes — are kept as-is; only the continuous part
    moves.  Returns ``None`` if a constraint does not fit the difference
    form, a bound is violated, or the system has no finite fixpoint.
    """
    model = layer_model.model
    timing = set(layer_model.start.values()) | {layer_model.makespan}
    floor: dict[Variable, float] = {v: max(0.0, v.lb) for v in timing}
    ceil: dict[Variable, float] = {v: v.ub for v in timing}
    #: dst >= src + w  (src None means dst >= w)
    edges: list[tuple[Variable | None, Variable, float]] = []

    for con in model.constraints:
        t_terms = [
            (v, c) for v, c in con.expr.terms.items() if v in timing and c
        ]
        if not t_terms:
            continue
        const = sum(
            c * values[v] for v, c in con.expr.terms.items() if v not in timing
        )
        senses = ("<=", ">=") if con.sense == "==" else (con.sense,)
        for sense in senses:
            terms, rhs = t_terms, con.rhs - const
            if sense == "<=":  # normalize everything to sum >= rhs
                terms = [(v, -c) for v, c in terms]
                rhs = -rhs
            if len(terms) == 1:
                (v, c), = terms
                if c > 0:
                    floor[v] = max(floor[v], rhs / c)
                else:
                    ceil[v] = min(ceil[v], rhs / c)
            elif len(terms) == 2:
                (v1, c1), (v2, c2) = terms
                if c2 > 0 > c1:
                    (v1, c1), (v2, c2) = (v2, c2), (v1, c1)
                if not (c1 > 0 > c2 and abs(c1 + c2) < 1e-9):
                    return None  # not a difference constraint
                edges.append((v2, v1, rhs / c1))
            else:
                return None

    val = dict(floor)
    for _ in range(len(timing) + 1):
        changed = False
        for src, dst, w in edges:
            bound = w if src is None else val[src] + w
            if bound > val[dst] + 1e-9:
                val[dst] = bound
                changed = True
        if not changed:
            break
    else:
        return None  # positive cycle: the chosen order is infeasible

    repaired = dict(values)
    for v in timing:
        t = round(val[v])
        if abs(t - val[v]) > 1e-6:
            t = val[v]  # keep fractional fixpoints verbatim; check() decides
        if t > ceil[v] + 1e-9:
            return None
        repaired[v] = float(t)
    return repaired
