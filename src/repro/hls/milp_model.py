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

The model is emitted straight into a :class:`~repro.ilp.StandardForm`:
every variable family is a run of columns and every constraint family a
run of rows, in a fixed order, so the handles on :class:`LayerModel` are
column indices.  Each row's coefficients and bound are the numbers the
expression form (``x + y <= 3``, as :class:`~repro.ilp.Model` normalizes
it) would produce, down to the sign of a zero bound; the
expression-built reference lives on as the oracle of
``tests/test_layer_model_arrays.py``.

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

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..components.containers import Capacity, ContainerKind, allowed_capacities
from ..devices.device import BindingMode, GeneralDevice
from ..errors import InfeasibleError
from ..ilp import StandardForm
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


def slot_key(index: int) -> SlotKey:
    return ("slot", index)


def is_slot(key) -> bool:
    return isinstance(key, tuple) and len(key) == 2 and key[0] == "slot"


@dataclass(frozen=True)
class ConflictGroup:
    """One op pair's device-conflict disjunction (constraints (10)–(13)).

    Groups are enumerated for every unordered, dependency-unrelated pair
    that could share a device, and every group's rows are emitted at build
    time.  Delta encoding walks the same groups to recompute their
    bounds.
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
    """A built layer ILP in array form plus its column handles.

    Every handle is a column index into ``model``.  The ``big_m_*`` and
    ``timing_*`` arrays are the positions a delta re-encode rewrites
    (:func:`apply_layer_delta`): they let a solver session re-solve a
    layer whose numbers moved without rebuilding its rows.
    """

    model: StandardForm
    problem: LayerProblem
    spec: SynthesisSpec
    horizon: int
    device_keys: list
    start: dict[str, int]
    makespan: int
    od: dict[tuple[str, object], int]
    conf: dict[tuple[int, ContainerKind, Capacity], int]
    acc: dict[tuple[int, str], int]
    used: dict[int, int]
    sig: dict[tuple[int, tuple], int]
    path_vars: dict[tuple, int]
    #: legal device keys per op uid; an op's ``od`` columns are one run in
    #: this order.
    legal_keys: dict[str, list]
    #: big-M disjunction binaries with their semantics, for encoding a
    #: previous pass's result (``encode_layer_start``): ("q0"|"q1"|"q2",
    #: column, a_uid, b_uid).  q0 relaxes "a starts after b completes
    #: (+release)", q1 relaxes "a completes (+release) before b starts",
    #: q2 permits a and b to share one device.
    disj: list[tuple[str, int, str, str]]
    #: every conflict group of the layer, in pair-enumeration order.
    conflict_groups: list[ConflictGroup]
    #: positions in ``model.data`` holding a big-M coefficient, and its sign.
    big_m_at: np.ndarray
    big_m_sign: np.ndarray
    #: rows whose bound depends on transport, release or big-M, in
    #: :func:`_timing_bounds` order, and whether that bound is the upper one.
    timing_rows: np.ndarray
    timing_upper: np.ndarray


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


def _horizon(problem: LayerProblem) -> int:
    """Upper bound on any start time; also the big-M of every disjunction."""
    return sum(
        op.duration.scheduled + problem.release.get(op.uid, 0)
        for op in problem.ops
    ) + sum(problem.edge_transport.values()) + 1


#: The bound of a row whose sides carry no constant: the expression form
#: normalizes ``lhs - rhs`` and negates the constant left over, ``-(0.0)``.
_ZERO = -0.0
_INF = math.inf


def build_layer_model(problem: LayerProblem, spec: SynthesisSpec) -> LayerModel:
    """Construct the layer ILP (see module docstring) as arrays."""
    ops = problem.ops
    mode = spec.binding_mode
    exact = mode is BindingMode.EXACT
    accessory_names = list(spec.registry.names)
    free = problem.free_slots
    slots = [slot_key(j) for j in range(free)]

    horizon = _horizon(problem)
    big_m = float(horizon)

    # Columns: a name and an upper bound each (every lower bound is 0,
    # every column integral).
    names: list[str] = []
    col_upper: list[float] = []

    def columns(labels: list[str], ub: float = 1.0) -> int:
        first = len(names)
        names.extend(labels)
        col_upper.extend([ub] * len(labels))
        return first

    # Rows: (col, value) runs closed by ``ends``, bounds and names.
    cols: list[int] = []
    vals: list[float] = []
    ends: list[int] = []
    lower: list[float] = []
    upper: list[float] = []
    row_names: list[str] = []

    def row(rc, rv, lo: float, hi: float, name: str = "") -> None:
        cols.extend(rc)
        vals.extend(rv)
        ends.append(len(cols))
        lower.append(lo)
        upper.append(hi)
        row_names.append(name)

    # ---- device slots: configuration binaries --------------------------
    conf: dict[tuple[int, ContainerKind, Capacity], int] = {}
    acc: dict[tuple[int, str], int] = {}
    used: dict[int, int] = {}
    sig: dict[tuple[int, tuple], int] = {}

    signatures = sorted(
        {op.requirement_signature() for op in ops}, key=repr
    )

    for j in range(free):
        u = used[j] = columns([f"used[{j}]"])
        first = columns(
            [f"conf[{j},{kind.short},{cap.short}]" for kind, cap in LEGAL_COMBOS]
        )
        for i, combo in enumerate(LEGAL_COMBOS):
            conf[(j, *combo)] = first + i
        # (1)+(2) merged on legal combos: one configuration iff used.
        row(
            [*range(first, first + len(LEGAL_COMBOS)), u],
            [1.0] * len(LEGAL_COMBOS) + [-1.0],
            _ZERO, _ZERO, f"one_config[{j}]",
        )
        for name in accessory_names:
            a = acc[j, name] = columns([f"acc[{j},{name}]"])
            row((a, u), (1.0, -1.0), -_INF, _ZERO, f"acc_used[{j},{name}]")
        if exact:
            first = columns([f"sig[{j},{k}]" for k in range(len(signatures))])
            for k, s in enumerate(signatures):
                sig[j, s] = first + k
            row(
                [*range(first, first + len(signatures)), u],
                [1.0] * len(signatures) + [-1.0],
                _ZERO, _ZERO, f"one_sig[{j}]",
            )
            # Signature determines the full configuration.
            for kind, cap in LEGAL_COMBOS:
                matching = [
                    sig[j, s] for s in signatures if _realized_combo(s) == (kind, cap)
                ]
                row(
                    [conf[j, kind, cap], *matching],
                    [1.0] + [-1.0] * len(matching),
                    _ZERO, _ZERO, f"sig_conf[{j},{kind.short},{cap.short}]",
                )
            for name in accessory_names:
                matching = [sig[j, s] for s in signatures if name in s[2]]
                row(
                    [acc[j, name], *matching],
                    [1.0] + [-1.0] * len(matching),
                    _ZERO, _ZERO, f"sig_acc[{j},{name}]",
                )
    # Symmetry breaking: slots fill in order.
    for j in range(1, free):
        row((used[j - 1], used[j]), (1.0, -1.0), _ZERO, _INF, f"slot_order[{j}]")

    # ---- binding variables (constraint (5)) ------------------------------
    device_keys: list = [d.uid for d in problem.fixed_devices] + slots
    key_text = {key: str(key) for key in device_keys}
    od: dict[tuple[str, object], int] = {}
    od_first: dict[str, int] = {}
    legal_keys: dict[str, list] = {}
    for op in ops:
        keys: list = [
            d.uid
            for d in problem.fixed_devices
            if d.can_execute(op, mode)
        ]
        keys.extend(slots)
        if not keys:
            raise InfeasibleError(
                f"operation {op.uid!r} has no legal device and no free slot "
                f"(|D|={spec.max_devices} too small?)"
            )
        legal_keys[op.uid] = keys
        first = od_first[op.uid] = columns(
            [f"od[{op.uid},{key_text[key]}]" for key in keys]
        )
        for i, key in enumerate(keys):
            od[op.uid, key] = first + i
        row(
            range(first, first + len(keys)), [1.0] * len(keys),
            1.0, 1.0, f"bind_once[{op.uid}]",
        )

    def slot_od(uid: str, j: int) -> int:
        """The column binding ``uid`` to free slot ``j`` (slots come last)."""
        return od_first[uid] + len(legal_keys[uid]) - free + j

    # ---- component consistency on free slots ((6)-(8)) -------------------
    for op in ops:
        combos = _op_combos(op)
        needs = sorted(op.accessories)
        for j in range(free):
            bind = slot_od(op.uid, j)
            if exact:
                row(
                    (bind, sig[j, op.requirement_signature()]), (1.0, -1.0),
                    -_INF, _ZERO, f"sig_match[{op.uid},{j}]",
                )
                continue
            row(
                [*(conf[j, k, c] for k, c in combos), bind],
                [1.0] * len(combos) + [-1.0],
                _ZERO, _INF, f"container[{op.uid},{j}]",
            )
            for name in needs:
                row(
                    (acc[j, name], bind), (1.0, -1.0),
                    _ZERO, _INF, f"need_acc[{op.uid},{j},{name}]",
                )
    # Tie slot usage to bindings (tightens the LP relaxation).
    for j in range(free):
        u = used[j]
        bound_here = [slot_od(op.uid, j) for op in ops]
        for col in bound_here:
            row((u, col), (1.0, -1.0), _ZERO, _INF)
        row(
            [u, *bound_here], [1.0] + [-1.0] * len(bound_here),
            -_INF, _ZERO, f"used_tight[{j}]",
        )

    # ---- start times & dependencies ((9)) ---------------------------------
    first = columns([f"st[{op.uid}]" for op in ops], ub=big_m)
    start = {op.uid: first + i for i, op in enumerate(ops)}
    makespan = columns(["sum_t"], ub=big_m)

    # Rows whose bound moves with transport/release (bounds written last,
    # by _timing_bounds) and the entries holding big-M.
    timing_rows: list[int] = []
    timing_upper: list[bool] = []
    big_m_at: list[int] = []
    big_m_sign: list[float] = []

    def timing_row(rc, rv, upper_moves: bool, name: str, m_at=()) -> None:
        """A row whose bound moves; ``m_at`` indexes its big-M entries."""
        timing_rows.append(len(ends))
        timing_upper.append(upper_moves)
        big_m_at.extend(len(cols) + k for k in m_at)
        big_m_sign.extend(math.copysign(1.0, rv[k]) for k in m_at)
        if upper_moves:
            row(rc, rv, -_INF, 0.0, name)
        else:
            row(rc, rv, 0.0, _INF, name)

    key_sets = {uid: set(keys) for uid, keys in legal_keys.items()}
    for parent, child in problem.in_layer_edges:
        transport = problem.edge_transport[(parent, child)]
        timing_row(
            (start[child], start[parent]), (1.0, -1.0), False,
            f"dep[{parent}->{child}]",
        )
        # When parent and child share a device, the child additionally waits
        # for the parent's full release margin (the device keeps shipping to
        # the parent's other children before it frees up).
        if problem.release.get(parent, 0) > transport:
            child_keys = key_sets[child]
            for key in legal_keys[parent]:
                if key not in child_keys:
                    continue
                timing_row(
                    (start[child], od[parent, key], od[child, key], start[parent]),
                    (1.0, -big_m, -big_m, -1.0), False,
                    f"dep_rel[{parent}->{child},{key_text[key]}]", (1, 2),
                )

    # ---- makespan ((15)) ----------------------------------------------------
    for op in ops:
        row(
            (makespan, start[op.uid]), (1.0, -1.0),
            -(0.0 - (0.0 + op.duration.scheduled)), _INF, f"mk[{op.uid}]",
        )

    # ---- indeterminate tail ((14)) -----------------------------------------
    for ind in ops:
        if not ind.is_indeterminate:
            continue
        bound = -(0.0 - (0.0 + ind.duration.scheduled))
        col = start[ind.uid]
        for op in ops:
            if op.uid == ind.uid:
                continue
            row(
                (start[op.uid], col), (1.0, -1.0),
                -_INF, bound, f"tail[{op.uid}<={ind.uid}]",
            )

    # ---- device conflicts ((10)-(13)) ----------------------------------------
    reach = _in_layer_reachability(ops, problem.in_layer_edges)
    combo_sets = {op.uid: set(_op_combos(op)) for op in ops}

    def shared_keys(a: Operation, b: Operation) -> list:
        keys_b = key_sets[b.uid]
        if exact:
            slots_shared = a.requirement_signature() == b.requirement_signature()
        else:
            slots_shared = bool(combo_sets[a.uid] & combo_sets[b.uid])
        return [
            key
            for key in legal_keys[a.uid]
            if key in keys_b and (slots_shared or not is_slot(key))
        ]

    groups: list[ConflictGroup] = []
    disj: list[tuple[str, int, str, str]] = []

    def shared_rows(a, b, shared, escape, prefix) -> None:
        """The per-key "bind apart" rows every conflict kind shares:
        ``od[a,key] + od[b,key] <= 1``, minus the ``escape`` binary when
        the pair has a timing alternative (q2 permits sharing)."""
        tail, tail_val = ((), ()) if escape is None else ((escape,), (-1.0,))
        for key in shared:
            row(
                (od[a, key], od[b, key], *tail), (1.0, 1.0, *tail_val),
                -_INF, 1.0, f"{prefix}[{a},{b},{key_text[key]}]",
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
                groups.append(ConflictGroup("ind", a, b, None, None, tuple(shared)))
                shared_rows(a, b, shared, None, "ind_apart")
            elif op_a.is_indeterminate or op_b.is_indeterminate:
                # The fixed op must fully precede the indeterminate one, or
                # they bind apart.
                fixed, ind = (b, a) if op_a.is_indeterminate else (a, b)
                groups.append(
                    ConflictGroup("mixed", a, b, fixed, ind, tuple(shared))
                )
                q1 = columns([f"q1[{a},{b}]"])
                q2 = columns([f"q2[{a},{b}]"])
                disj.append(("q1", q1, fixed, ind))
                disj.append(("q2", q2, a, b))
                timing_row(
                    (start[fixed], q1, start[ind]), (1.0, -big_m, -1.0), True,
                    f"before_ind[{a},{b}]", (1,),
                )
                shared_rows(a, b, shared, q2, "conflict")
                row((q1, q2), (1.0, 1.0), -_INF, 1.0, f"disj[{a},{b}]")
            else:
                groups.append(ConflictGroup("fixed", a, b, None, None, tuple(shared)))
                q0 = columns([f"q0[{a},{b}]"])
                q1 = columns([f"q1[{a},{b}]"])
                q2 = columns([f"q2[{a},{b}]"])
                disj.append(("q0", q0, a, b))
                disj.append(("q1", q1, a, b))
                disj.append(("q2", q2, a, b))
                timing_row(
                    (start[a], q0, start[b]), (1.0, big_m, -1.0), False,
                    f"after[{a},{b}]", (1,),
                )
                timing_row(
                    (start[a], q1, start[b]), (1.0, -big_m, -1.0), True,
                    f"before[{a},{b}]", (1,),
                )
                shared_rows(a, b, shared, q2, "conflict")
                row((q0, q1, q2), (1.0, 1.0, 1.0), -_INF, 2.0, f"disj[{a},{b}]")

    # ---- transportation paths ((21)) -------------------------------------------
    path_vars: dict[tuple, int] = {}
    #: path column per ordered device-key pair; -1 when the path is free.
    pair_col: dict[tuple, int] = {}

    def path_col(key_a, key_b) -> int:
        """Path column for a device-key pair; -1 when the path is free."""
        col = pair_col.get((key_a, key_b))
        if col is not None:
            return col
        col = -1
        if key_a != key_b and not (
            isinstance(key_a, str)
            and isinstance(key_b, str)
            and path_key(key_a, key_b) in problem.existing_paths
        ):
            pair = tuple(sorted((key_a, key_b), key=repr))
            col = path_vars.get(pair)
            if col is None:
                col = path_vars[pair] = columns([f"path[{pair}]"])
        pair_col[key_a, key_b] = col
        return col

    for parent, child in problem.in_layer_edges:
        keys_c = legal_keys[child]
        first_c = od_first[child]
        first_p = od_first[parent]
        for i, key_p in enumerate(legal_keys[parent]):
            od_p = first_p + i
            prefix = f"path[{parent}->{child},{key_text[key_p]},"
            for k, key_c in enumerate(keys_c):
                col = path_col(key_p, key_c)
                if col < 0:
                    continue
                row(
                    (od_p, first_c + k, col), (1.0, 1.0, -1.0),
                    -_INF, 1.0, prefix + key_text[key_c] + "]",
                )
    for parent_device, child in problem.incoming:
        for key_c in legal_keys[child]:
            if key_c == parent_device:
                continue
            col = path_col(parent_device, key_c)
            if col < 0:
                continue
            row(
                (od[child, key_c], col), (1.0, -1.0),
                -_INF, _ZERO, f"path_in[{child},{key_text[key_c]}]",
            )
    for parent, child_device in problem.outgoing:
        for key_p in legal_keys[parent]:
            if key_p == child_device:
                continue
            col = path_col(key_p, child_device)
            if col < 0:
                continue
            row(
                (od[parent, key_p], col), (1.0, -1.0),
                -_INF, _ZERO, f"path_out[{parent},{key_text[key_p]}]",
            )

    # ---- objective ((15)-(21) summations) ----------------------------------------
    # Each coefficient is summed in the order (and from the 0.0 start) the
    # expression form sums it: time, area, processing, paths, storage.
    costs = spec.cost_model
    weights = spec.weights
    c = np.zeros(len(names))
    c[makespan] = 1.0 * weights.time
    for (j, kind, cap), col in conf.items():
        area = (0.0 + 1.0 * costs.container_area(kind, cap)) * weights.area
        cost = (0.0 + 1.0 * costs.container_cost(kind, cap)) * weights.processing
        c[col] = (0.0 + area) + cost
    for (j, name), col in acc.items():
        cost = 0.0 + (0.0 + 1.0 * costs.accessory_cost(name))
        c[col] = 0.0 + cost * weights.processing
    for col in path_vars.values():
        c[col] = 0.0 + 1.0 * weights.paths

    # Storage pressure (extension): a crossing edge whose endpoints bind
    # apart buffers its reagent, charged ``w`` per edge.  ``w * (1 - od)``
    # when co-binding is legal (pure objective term — LP relaxations and
    # reused start vectors are untouched); the unavoidable constant ``w`` when it
    # is not, so integral model objectives keep matching ``layer_cost``.
    storage: dict[int, float] = {}
    c0 = 0.0
    crossing = [
        (od.get((child, parent_device)), weight)
        for (parent_device, child), weight in sorted(problem.storage_in.items())
    ] + [
        (od.get((parent, child_device)), weight)
        for (parent, child_device), weight in sorted(problem.storage_out.items())
    ]
    for col, weight in crossing:
        if col is not None:
            storage[col] = storage.get(col, 0.0) + -1.0 * weight
            c0 += 1.0 * weight
        else:
            c0 += weight
    for col, coeff in storage.items():
        c[col] = 0.0 + coeff

    # ---- one canonical CSR -------------------------------------------------------
    n_rows = len(ends)
    flat_cols = np.array(cols, dtype=np.int32)
    lengths = np.diff(np.array(ends, dtype=np.int64), prepend=0)
    rows_of = np.repeat(np.arange(n_rows, dtype=np.int64), lengths)
    # Rows are contiguous runs already; sorting (row, col) orders columns
    # within each row, as the COO -> CSR conversion of the expression form
    # does.
    order = np.argsort(rows_of * len(names) + flat_cols, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    indptr = np.zeros(n_rows + 1, dtype=np.int32)
    indptr[1:] = ends

    form = StandardForm(
        c=c,
        indptr=indptr,
        indices=flat_cols[order],
        data=np.array(vals)[order],
        row_lower=np.array(lower),
        row_upper=np.array(upper),
        var_lower=np.zeros(len(names)),
        var_upper=np.array(col_upper),
        integrality=np.ones(len(names), dtype=int),
        variables=names,
        constraints=row_names,
        sense=1,
        c0=c0,
    )
    layer_model = LayerModel(
        model=form,
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
        path_vars=path_vars,
        disj=disj,
        conflict_groups=groups,
        legal_keys=legal_keys,
        big_m_at=position[np.array(big_m_at, dtype=np.int64)],
        big_m_sign=np.array(big_m_sign),
        timing_rows=np.array(timing_rows, dtype=np.int64),
        timing_upper=np.array(timing_upper, dtype=bool),
    )
    apply_layer_delta(
        layer_model, problem,
        LayerDelta(horizon, _timing_bounds(problem, layer_model, horizon)),
    )
    return layer_model


def _timing_bounds(
    problem: LayerProblem, layer_model: LayerModel, big_m: int
) -> list[float]:
    """The bounds of ``layer_model.timing_rows`` for ``problem``.

    Walks the rows in build order: per in-layer edge its ``dep`` row and
    ``dep_rel`` rows, then per conflict group its ``before_ind`` or
    ``after`` and ``before`` rows.  Each bound is the expression form's
    ``-(lhs constant - rhs constant)``.
    """
    by_uid = {op.uid: op for op in problem.ops}
    release = problem.release
    legal_keys = layer_model.legal_keys
    bounds: list[float] = []
    for parent, child in problem.in_layer_edges:
        transport = problem.edge_transport[(parent, child)]
        duration = by_uid[parent].duration.scheduled
        bounds.append(-(0.0 - (0.0 + duration + transport)))
        margin = release.get(parent, 0)
        if margin > transport:
            child_keys = set(legal_keys[child])
            shared = sum(key in child_keys for key in legal_keys[parent])
            bound = -((0.0 + 2.0 * big_m) - (0.0 + duration + margin))
            bounds.extend([bound] * shared)
    for group in layer_model.conflict_groups:
        if group.kind == "mixed":
            fixed = group.fixed
            bounds.append(
                -(0.0 + by_uid[fixed].duration.scheduled + release.get(fixed, 0))
            )
        elif group.kind == "fixed":
            a, b = group.a, group.b
            bounds.append(
                -(0.0 - (0.0 + by_uid[b].duration.scheduled + release.get(b, 0)))
            )
            bounds.append(
                -(0.0 + by_uid[a].duration.scheduled + release.get(a, 0))
            )
    return bounds


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


@dataclass
class LayerDelta:
    """A layer problem's new numbers for an existing layer model."""

    #: the new horizon: start-time upper bounds and every big-M.
    horizon: int
    #: the new bounds of ``LayerModel.timing_rows``, in order.
    timing_bounds: list[float]


def encode_layer_delta(
    layer_model: LayerModel, problem: LayerProblem, spec: SynthesisSpec
) -> LayerDelta | None:
    """Map a changed :class:`LayerProblem` onto new numbers for a model.

    Returns a :class:`LayerDelta` when the change is purely numeric —
    shifted transport/release constants, which move dependency and
    disjunction bounds, the horizon (start-time upper bounds) and every
    big-M coefficient derived from it — or ``None`` when the change is
    structural (different ops/devices/slots/edges/storage), in which case
    the caller rebuilds.

    The patched model is array-for-array identical to
    ``build_layer_model(problem, spec)``: a delta-solved layer is
    byte-identical to a from-scratch solve.
    """
    old = layer_model.problem
    if spec != layer_model.spec:
        return None
    if _delta_structure_token(problem) != _delta_structure_token(old):
        return None
    legal_keys = layer_model.legal_keys
    if _dep_rel_pattern(problem, legal_keys) != _dep_rel_pattern(old, legal_keys):
        return None
    horizon = _horizon(problem)
    return LayerDelta(horizon, _timing_bounds(problem, layer_model, horizon))


def apply_layer_delta(
    layer_model: LayerModel, problem: LayerProblem, delta: LayerDelta
) -> None:
    """Write a delta into the layer's arrays and swap the problem in."""
    form = layer_model.model
    big_m = float(delta.horizon)
    form.data[layer_model.big_m_at] = layer_model.big_m_sign * big_m
    # Start times and the makespan are one run of columns.
    first = layer_model.makespan - len(problem.ops)
    form.var_upper[first : layer_model.makespan + 1] = big_m
    bounds = np.array(delta.timing_bounds, dtype=float)
    rows = layer_model.timing_rows
    upper = layer_model.timing_upper
    form.row_upper[rows[upper]] = bounds[upper]
    form.row_lower[rows[~upper]] = bounds[~upper]
    layer_model.problem = problem
    layer_model.horizon = delta.horizon


def encode_layer_start(
    layer_model: LayerModel, result: "LayerSolveResult"
) -> np.ndarray | None:
    """Encode a decoded layer result as a complete start vector.

    Maps ``result``'s binding/schedule back onto the model's columns —
    fixed devices by uid, new devices onto free slots in order — and derives
    the dependent binaries (configuration one-hots, disjunction escapes,
    path indicators).  Returns ``None`` when the result does not fit this
    model (unknown device, missing slot, or any constraint violated), so
    callers can simply skip an unusable start.
    """
    problem = layer_model.problem
    spec = layer_model.spec
    form = layer_model.model
    by_uid = {op.uid: op for op in problem.ops}
    x = np.zeros(form.num_variables)

    # -- device uid -> model key ------------------------------------------
    key_of: dict[str, object] = {d.uid: d.uid for d in problem.fixed_devices}
    if len(result.new_devices) > problem.free_slots:
        return None
    for j, device in enumerate(result.new_devices):
        key_of[device.uid] = slot_key(j)

    # -- slot configuration ------------------------------------------------
    for j, device in enumerate(result.new_devices):
        x[layer_model.used[j]] = 1.0
        for col in (
            layer_model.conf.get((j, device.container, device.capacity)),
            layer_model.sig.get((j, device.signature)),
            *(
                layer_model.acc[j, name]
                for name in spec.registry.names
                if name in device.accessories
            ),
        ):
            if col is not None:
                x[col] = 1.0

    # -- bindings ----------------------------------------------------------
    chosen_key: dict[str, object] = {}
    for op in problem.ops:
        device_uid = result.binding.get(op.uid)
        if device_uid is None or device_uid not in key_of:
            return None
        chosen_key[op.uid] = key = key_of[device_uid]
        col = layer_model.od.get((op.uid, key))
        if col is None:
            return None  # binding not legal in this model
        x[col] = 1.0

    # -- start times -------------------------------------------------------
    starts: dict[str, int] = {}
    for op in problem.ops:
        if op.uid not in result.schedule:
            return None
        starts[op.uid] = result.schedule[op.uid].start
        x[layer_model.start[op.uid]] = float(starts[op.uid])
    x[layer_model.makespan] = float(result.schedule.makespan)

    # -- disjunction escapes ----------------------------------------------
    def completion(uid: str) -> int:
        op = by_uid[uid]
        return starts[uid] + op.duration.scheduled + problem.release.get(uid, 0)

    for kind, col, a, b in layer_model.disj:
        if kind == "q0":  # relaxes: a starts after b completes (+release)
            on = starts[a] < completion(b)
        elif kind == "q1":  # relaxes: a completes (+release) before b starts
            on = completion(a) > starts[b]
        else:  # q2 permits sharing one device
            on = result.binding[a] == result.binding[b]
        x[col] = 1.0 if on else 0.0

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
    for pair, col in layer_model.path_vars.items():
        if pair in used_pairs:
            x[col] = 1.0

    if form.check(x):
        # The binding and relative order may still be fine while the start
        # times are stale (transport refinement between passes shifts the
        # precedence offsets).  Re-derive minimal feasible timing for the
        # chosen binaries before giving up.
        x = _repair_layer_timing(layer_model, x)
        if x is None or form.check(x):
            return None
    return x


def _repair_layer_timing(
    layer_model: LayerModel, x: np.ndarray
) -> np.ndarray | None:
    """Recompute start times and makespan for a fixed binary assignment.

    With every binary pinned, the remaining rows over the timing columns
    are difference constraints (``x - y >= w`` or bounds), so the
    componentwise-minimal feasible timing is a longest-path fixpoint.  The
    binaries — and hence the binding and the relative device order encoded
    by the disjunction escapes — are kept as-is; only the timing moves.
    Returns ``None`` if a row does not fit the difference form, a bound is
    violated, or the system has no finite fixpoint.
    """
    form = layer_model.model
    # Start times and the makespan are one run of columns.
    first, last = layer_model.makespan - len(layer_model.start), layer_model.makespan
    floor = {v: max(0.0, float(form.var_lower[v])) for v in range(first, last + 1)}
    ceil = {v: float(form.var_upper[v]) for v in floor}

    rows_of = np.repeat(np.arange(form.num_constraints), np.diff(form.indptr))
    timing = (form.indices >= first) & (form.indices <= last)
    # The pinned (non-timing) part of every row, moved to the bound side.
    const = np.bincount(
        rows_of[~timing], weights=(form.data * x[form.indices])[~timing],
        minlength=form.num_constraints,
    )
    #: dst >= src + w
    edges: list[tuple[int, int, float]] = []
    entries = zip(
        rows_of[timing].tolist(), form.indices[timing].tolist(),
        form.data[timing].tolist(),
    )
    for r, group in itertools.groupby(entries, key=lambda entry: entry[0]):
        terms = [(v, c) for _, v, c in group]
        # Normalize each finite side to ``sum(terms) >= rhs``.
        sides = []
        if form.row_upper[r] < _INF:
            sides.append(([(v, -c) for v, c in terms], const[r] - form.row_upper[r]))
        if form.row_lower[r] > -_INF:
            sides.append((terms, form.row_lower[r] - const[r]))
        for side, rhs in sides:
            if len(side) == 1:
                (v, c), = side
                if c > 0:
                    floor[v] = max(floor[v], rhs / c)
                else:
                    ceil[v] = min(ceil[v], rhs / c)
                continue
            if len(side) > 2:
                return None
            (v1, c1), (v2, c2) = side
            if c2 > 0 > c1:
                (v1, c1), (v2, c2) = (v2, c2), (v1, c1)
            if not (c1 > 0 > c2 and abs(c1 + c2) < 1e-9):
                return None  # not a difference constraint
            edges.append((v2, v1, rhs / c1))

    val = dict(floor)
    for _ in range(len(floor) + 1):
        changed = False
        for src, dst, w in edges:
            if val[src] + w > val[dst] + 1e-9:
                val[dst] = val[src] + w
                changed = True
        if not changed:
            break
    else:
        return None  # positive cycle: the chosen order is infeasible

    repaired = x.copy()
    for v, value in val.items():
        t = round(value)
        if abs(t - value) > 1e-6:
            t = value  # keep fractional fixpoints verbatim; check() decides
        if t > ceil[v] + 1e-9:
            return None
        repaired[v] = float(t)
    return repaired
