"""The general device concept (Sec. 2.2).

A general device is *one container plus a set of accessories*.  A rotary
mixer is a ring + pump; the sieve-valve flow segment of Fig. 2 is a chamber +
sieve valves.  Whether an operation may execute on a device depends only on
component coverage, never on functional type.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..components.containers import Capacity, ContainerKind, check_container
from ..components.costs import CostModel
from ..errors import SpecificationError
from ..operations.operation import Operation


class BindingMode(enum.Enum):
    """Operation-to-device legality rule.

    COVER is the paper's contribution: a device may execute any operation
    whose container/capacity/accessory requirements it covers.  EXACT is the
    modified conventional baseline of Sec. 5: operations and devices are
    classified by their component-requirement signature, and binding requires
    the signatures to match exactly.
    """

    COVER = "cover"
    EXACT = "exact"


@dataclass(frozen=True)
class GeneralDevice:
    """A configured on-chip device: container + capacity + accessories.

    ``signature`` is only set for devices instantiated by the conventional
    baseline; it freezes the component-requirement class the device belongs
    to (EXACT matching compares against it).
    """

    uid: str
    container: ContainerKind
    capacity: Capacity
    accessories: frozenset[str] = field(default_factory=frozenset)
    signature: tuple | None = None

    def __post_init__(self) -> None:
        if not self.uid:
            raise SpecificationError("device uid must be non-empty")
        check_container(self.container, self.capacity)
        if not isinstance(self.accessories, frozenset):
            object.__setattr__(self, "accessories", frozenset(self.accessories))

    # -- legality ----------------------------------------------------------

    def covers(self, op: Operation) -> bool:
        """Component-cover test (paper constraints (6)-(8)).

        The container kind must match the requirement when specified, the
        capacity class must match exactly, and the device's accessories must
        be a superset of the operation's.
        """
        if op.container is not None and op.container is not self.container:
            return False
        if op.capacity is not self.capacity:
            return False
        return op.accessories <= self.accessories

    def matches_exactly(self, op: Operation) -> bool:
        """Conventional-baseline test: signatures must be equal."""
        return self.signature == op.requirement_signature()

    def can_execute(self, op: Operation, mode: BindingMode = BindingMode.COVER) -> bool:
        """Whether ``op`` may be bound to this device under ``mode``."""
        if mode is BindingMode.EXACT:
            return self.matches_exactly(op)
        return self.covers(op)

    def binding_key(self, mode: BindingMode = BindingMode.COVER):
        """Index key for :meth:`can_execute`: a device can only execute
        ``op`` under ``mode`` when ``binding_key(mode)`` equals
        ``GeneralDevice.op_binding_key(op, mode)``.

        COVER requires the same capacity class; EXACT requires equal
        signatures (which include the capacity).
        """
        return self.signature if mode is BindingMode.EXACT else self.capacity

    @staticmethod
    def op_binding_key(op: Operation, mode: BindingMode = BindingMode.COVER):
        """The :meth:`binding_key` a device needs to execute ``op``."""
        if mode is BindingMode.EXACT:
            return op.requirement_signature()
        return op.capacity

    # -- costs --------------------------------------------------------------

    def area(self, costs: CostModel) -> float:
        """Chip area consumed by this device (container only)."""
        return costs.container_area(self.container, self.capacity)

    def processing_cost(self, costs: CostModel) -> float:
        """Processing cost: container + every integrated accessory."""
        total = costs.container_cost(self.container, self.capacity)
        total += sum(costs.accessory_cost(name) for name in self.accessories)
        return total

    # -- construction helpers -----------------------------------------------

    @staticmethod
    def for_operation(
        uid: str,
        op: Operation,
        mode: BindingMode = BindingMode.COVER,
        container: ContainerKind | None = None,
    ) -> "GeneralDevice":
        """The cheapest device able to execute ``op``.

        When the operation leaves the container kind open, a chamber is
        preferred ("a chamber involves less area cost than a ring",
        Sec. 3.2) unless the capacity class forces a ring.
        """
        kind = container or op.container
        if kind is None:
            kinds = op.allowed_container_kinds
            kind = (
                ContainerKind.CHAMBER
                if ContainerKind.CHAMBER in kinds
                else kinds[0]
            )
        elif kind not in op.allowed_container_kinds:
            raise SpecificationError(
                f"operation {op.uid!r} cannot run in a {kind.value}"
            )
        signature = op.requirement_signature() if mode is BindingMode.EXACT else None
        return GeneralDevice(
            uid=uid,
            container=kind,
            capacity=op.capacity,
            accessories=op.accessories,
            signature=signature,
        )

    def __str__(self) -> str:
        acc = ",".join(sorted(self.accessories)) or "-"
        return f"{self.uid}({self.container.value}/{self.capacity.short};{acc})"
