"""The layering driver — Algorithm 1 of the paper.

Splits an assay into sequential layers such that

* every layer except possibly the last contains at least one indeterminate
  operation,
* all indeterminate operations of a layer can be placed at the end of its
  sub-schedule (no indeterminate operation has a child in its own layer),
* no layer holds more than ``threshold`` indeterminate operations
  (resource-based eviction, Sec. 3.1),
* dependencies only point forward: a parent's layer index never exceeds its
  child's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import LayeringError
from ..operations.assay import Assay
from .allocation import allocate
from .eviction import evict
from .reach import Reach


@dataclass(frozen=True)
class Layer:
    """One layer: an index and the operations allocated to it."""

    index: int
    uids: tuple[str, ...]
    indeterminate_uids: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.uids)

    def __contains__(self, uid: str) -> bool:
        return uid in self.uids


@dataclass
class LayeringResult:
    """All layers of an assay plus derived bookkeeping."""

    assay: Assay
    layers: list[Layer]
    threshold: int
    layer_of: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.layer_of:
            self.layer_of = {
                uid: layer.index for layer in self.layers for uid in layer.uids
            }

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def cross_layer_edges(self) -> list[tuple[str, str]]:
        """Dependency edges whose endpoints live in different layers."""
        return [
            (p, c)
            for p, c in self.assay.edges
            if self.layer_of[p] != self.layer_of[c]
        ]

    def storage_demand(self, layer_index: int) -> int:
        """Reagents produced up to ``layer_index`` consumed after it.

        An edge (p, c) with ``layer(p) <= layer_index < layer(c)`` means the
        output of p has to be buffered across the layer boundary.
        """
        return sum(
            1
            for p, c in self.assay.edges
            if self.layer_of[p] <= layer_index < self.layer_of[c]
        )

    def validate(self) -> None:
        """Check every layering invariant; raises LayeringError."""
        seen: set[str] = set()
        for layer in self.layers:
            overlap = seen & set(layer.uids)
            if overlap:
                raise LayeringError(f"operations in two layers: {sorted(overlap)}")
            seen |= set(layer.uids)
        missing = set(self.assay.uids) - seen
        if missing:
            raise LayeringError(f"operations never layered: {sorted(missing)}")

        for parent, child in self.assay.edges:
            if self.layer_of[parent] > self.layer_of[child]:
                raise LayeringError(
                    f"dependency {parent}->{child} goes backwards "
                    f"({self.layer_of[parent]} -> {self.layer_of[child]})"
                )

        for layer in self.layers[:-1]:
            if not layer.indeterminate_uids:
                raise LayeringError(
                    f"non-final layer {layer.index} has no indeterminate op"
                )
        for layer in self.layers:
            if len(layer.indeterminate_uids) > self.threshold:
                raise LayeringError(
                    f"layer {layer.index} exceeds indeterminate threshold "
                    f"({len(layer.indeterminate_uids)} > {self.threshold})"
                )
            members = set(layer.uids)
            for uid in layer.indeterminate_uids:
                children = members.intersection(self.assay.children(uid))
                if children:
                    raise LayeringError(
                        f"indeterminate {uid} has same-layer children "
                        f"{sorted(children)}"
                    )


def layer_assay(assay: Assay, threshold: int = 10) -> LayeringResult:
    """Run Algorithm 1 on ``assay``.

    ``threshold`` is the paper's constant ``t`` — the maximal number of
    indeterminate operations per layer (each needs its own device for the
    parallel indeterminate tail).
    """
    if threshold < 1:
        raise LayeringError(f"threshold must be >= 1, got {threshold}")
    assay.validate()

    reach = Reach(assay.topological_order(), assay.edges)
    # The not-yet-layered operations and their indeterminate ones; each
    # layer's ops leave them.  Layers take ancestor-closed slices of the
    # pool, so the pool stays closed under descendants.
    pool = reach.mask(reach.uids)
    pool_ind = reach.mask(assay.indeterminate_uids)
    layers: list[Layer] = []

    while pool:
        selected = allocate(reach, pool, pool_ind)
        kept = evict(reach, selected, pool_ind, threshold)
        if not kept:
            raise LayeringError("layering made no progress")  # pragma: no cover
        ind = tuple(reach.members(kept & pool_ind))
        layers.append(Layer(len(layers), tuple(reach.members(kept)), ind))
        pool &= ~kept
        pool_ind &= ~kept

    result = LayeringResult(assay=assay, layers=layers, threshold=threshold)
    result.validate()
    return result
