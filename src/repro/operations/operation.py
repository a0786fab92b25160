"""The component-oriented operation definition (Sec. 2.2).

An operation declares *what components it needs*, not what functional type
it has:

a. a container (optionally with the kind left open) with a capacity class,
   plus the accessories required for execution;
b. an execution duration (:class:`~repro.operations.duration.Duration`);
c. dependencies — held by the enclosing :class:`~repro.operations.assay.Assay`
   as parent/child edges, not on the operation itself.

The optional ``function`` label ("mix", "heat", ...) is metadata: the
component-oriented synthesizer ignores it entirely; only the conventional
baseline (Sec. 5) uses it for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..components.containers import (
    Capacity,
    ContainerKind,
    check_container,
    kinds_for_capacity,
)
from ..errors import SpecificationError
from .duration import Duration


@dataclass(frozen=True)
class Operation:
    """A biochemical operation described by its component requirements.

    Attributes:
        uid: unique identifier within an assay.
        duration: fixed or indeterminate execution duration.
        capacity: required container capacity class.
        container: required container kind, or ``None`` when the operation
            may run "in either a ring or a chamber of corresponding size".
        accessories: names of required accessory components (must exist in
            the registry used by the synthesis run).
        function: optional functional label, used only by the conventional
            baseline and for display.
    """

    uid: str
    duration: Duration
    capacity: Capacity = Capacity.SMALL
    container: ContainerKind | None = None
    accessories: frozenset[str] = field(default_factory=frozenset)
    function: str = ""

    def __post_init__(self) -> None:
        if not self.uid:
            raise SpecificationError("operation uid must be non-empty")
        if not isinstance(self.accessories, frozenset):
            object.__setattr__(self, "accessories", frozenset(self.accessories))
        if self.container is not None:
            check_container(self.container, self.capacity)
        elif not kinds_for_capacity(self.capacity):  # pragma: no cover
            raise SpecificationError(
                f"capacity {self.capacity.value} fits no container kind"
            )

    # -- component queries --------------------------------------------------

    @property
    def is_indeterminate(self) -> bool:
        return self.duration.is_indeterminate

    @property
    def allowed_container_kinds(self) -> tuple[ContainerKind, ...]:
        """Container kinds this operation may execute in."""
        if self.container is not None:
            return (self.container,)
        return kinds_for_capacity(self.capacity)

    def requirement_signature(self) -> tuple:
        """Hashable component-requirement signature.

        Two operations with equal signatures are interchangeable for binding
        purposes.  The conventional baseline treats each distinct signature
        as a closed "type" (exact matching); the component-oriented method
        uses cover matching instead (see
        :meth:`repro.devices.device.GeneralDevice.can_execute`).

        Operations are frozen, so the tuple is computed once and kept in
        the instance dict, as :func:`functools.cached_property` would.
        """
        try:
            return self.__dict__["_requirement_signature"]
        except KeyError:
            signature = self.__dict__["_requirement_signature"] = (
                self.container.value if self.container else None,
                self.capacity.value,
                tuple(sorted(self.accessories)),
            )
            return signature

    def covers(self, other: "Operation") -> bool:
        """True when a device built for ``self`` can also execute ``other``.

        This is the paper's Sec. 3.2 inheritance test: ``C_other ⊆ C_self``
        and ``A_other ⊆ A_self``, with matching capacity classes.
        """
        if other.capacity is not self.capacity:
            return False
        if other.container is not None and other.container is not self.container:
            # ``self`` with unspecified container may be realized either way,
            # so it cannot guarantee coverage of a kind-specific requirement.
            if self.container is None:
                return False
            return False
        return other.accessories <= self.accessories

    def __str__(self) -> str:
        kind = self.container.value if self.container else "any"
        acc = ",".join(sorted(self.accessories)) or "-"
        return (
            f"{self.uid}[{kind}/{self.capacity.short} {acc} {self.duration!r}]"
        )
