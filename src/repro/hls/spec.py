"""Synthesis specification: everything the user chooses.

Mirrors the paper's user-supplied inputs: the device cap ``|D|``, the
indeterminate threshold ``t``, the objective weight coefficients
``C_t/C_a/C_pr/C_p``, the initial transportation constant, and the
arithmetic progression of potential transportation times (Sec. 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..components.accessories import AccessoryRegistry, standard_registry
from ..components.costs import CostModel, default_cost_model
from ..devices.device import BindingMode
from ..errors import SpecificationError


@dataclass(frozen=True)
class Weights:
    """Objective weight coefficients (paper Sec. 4.3).

    Defaults make execution time dominant, with transportation paths a
    strong secondary criterion — matching the paper's reported trade-offs
    (time is the headline column of Table 2, and paths are explicitly
    minimized "to save routing efforts"; a weak path weight lets
    time-optimal solutions scatter operations over many inter-device
    channels, which also destabilizes the transport refinement between
    re-synthesis passes).
    """

    time: float = 50.0
    area: float = 1.0
    processing: float = 1.0
    paths: float = 25.0

    def __post_init__(self) -> None:
        for name in ("time", "area", "processing", "paths"):
            if getattr(self, name) < 0:
                raise SpecificationError(f"weight {name} must be >= 0")
        if self.time == 0:
            raise SpecificationError("time weight must be positive")


@dataclass(frozen=True)
class TransportProgression:
    """The user-defined arithmetic progression of transportation times.

    The paper asks the user for the minimum and maximum term and the number
    of terms; path-usage ranks map onto the terms (most-used path gets the
    minimum term, Sec. 4.1).
    """

    minimum: int = 1
    maximum: int = 5
    terms: int = 5

    def __post_init__(self) -> None:
        if self.terms < 1:
            raise SpecificationError("progression needs at least one term")
        if self.minimum < 0 or self.maximum < self.minimum:
            raise SpecificationError(
                f"invalid progression range [{self.minimum}, {self.maximum}]"
            )

    def term_values(self) -> list[int]:
        """The progression's terms, ascending, as integers."""
        if self.terms == 1:
            return [self.minimum]
        step = (self.maximum - self.minimum) / (self.terms - 1)
        return [round(self.minimum + k * step) for k in range(self.terms)]

    def term_for_rank(self, rank: int) -> int:
        """Transportation time for the path with usage rank ``rank``.

        Rank 0 is the most-used path (shortest channel → minimum term);
        ranks beyond the progression clamp to the maximum term.
        """
        values = self.term_values()
        return values[min(rank, len(values) - 1)]


#: storage synthesis modes: ``off`` reproduces the storage-oblivious
#: paper flow byte-for-byte; ``reservoir`` buffers layer-crossing
#: reagents in dedicated storage reservoirs only; ``channel`` parks them
#: in transport channels (reservoir fallback when the channel is taken);
#: ``auto`` picks the cheapest of hold-in-place / channel / reservoir
#: per reagent.
STORAGE_MODES = ("off", "reservoir", "channel", "auto")

#: throughput modes (extension, see :mod:`repro.periodic`): ``off`` keeps
#: the one-shot paper flow byte-identical; ``periodic`` additionally
#: computes a steady-state modulo schedule that pipelines back-to-back
#: runs of the assay, minimizing the initiation interval (II).
THROUGHPUT_MODES = ("off", "periodic")

#: periodic scheduler backends (see repro/periodic/scheduler.py): ``ilp``
#: probes each candidate II with a modulo ILP over the ``ilp/`` model
#: layer, ``greedy`` uses the modulo list scheduler, ``auto`` prefers the
#: ILP and degrades to greedy when a probe's MIP solve fails or exhausts
#: its budget.
PERIODIC_SCHEDULERS = ("auto", "ilp", "greedy")


@dataclass(frozen=True)
class StorageWeights:
    """Per-boundary storage cost weights (extension, after the
    "Transport or Store?" / "Storage and Caching" line of work).

    Each layer-crossing reagent is charged its weight once per layer
    boundary it crosses: ``hold`` for occupying its producer's device,
    ``channel`` for parking in a transport channel, ``reservoir`` for a
    slot in a dedicated storage reservoir.  Defaults order the options
    hold < channel < reservoir, matching the physical intuition that
    reusing existing structure is cheaper than dedicating new area.
    """

    hold: float = 1.0
    channel: float = 2.0
    reservoir: float = 4.0

    def __post_init__(self) -> None:
        for name in ("hold", "channel", "reservoir"):
            if getattr(self, name) < 0:
                raise SpecificationError(f"storage weight {name} must be >= 0")


@dataclass
class SynthesisSpec:
    """All knobs of a synthesis run."""

    #: cardinality of the device set D (maximal devices on the chip).
    max_devices: int = 25
    #: threshold ``t``: maximal indeterminate operations per layer.
    threshold: int = 10
    weights: Weights = field(default_factory=Weights)
    #: initial constant transportation time assigned to every operation.
    transport_default: int = 3
    transport_progression: TransportProgression = field(
        default_factory=TransportProgression
    )
    binding_mode: BindingMode = BindingMode.COVER
    cost_model: CostModel = field(default_factory=default_cost_model)
    registry: AccessoryRegistry = field(default_factory=standard_registry)
    #: wall-clock budget per layer solve, seconds.
    time_limit: float = 20.0
    mip_gap: float | None = 1e-4
    #: continue re-synthesis while relative improvement exceeds this
    #: (paper: "if the improvement ... is larger than 10%, we will run
    #: another iteration").  A negative value means "iterate until the
    #: binding stops changing": passes continue through zero-improvement
    #: iterations until every layer replays from the solve cache (full
    #: convergence) or ``max_iterations`` is exhausted.  Greedy layers
    #: never replay, so a greedy run stops only on this threshold or
    #: after ``max_iterations``.
    improvement_threshold: float = 0.10
    #: hard cap on re-synthesis iterations (initial pass not counted).
    max_iterations: int = 4
    #: fall back to the greedy list scheduler when the ILP finds no
    #: incumbent within the time limit.
    allow_heuristic_fallback: bool = True
    #: memoize per-layer solves across re-synthesis passes: a layer whose
    #: inputs are unchanged replays the previous decoded result instead of
    #: rebuilding and re-solving its ILP.  Greedy layers bypass the cache,
    #: so for ``scheduler="greedy"`` this changes nothing.
    enable_solve_cache: bool = True
    #: LRU bound on the layer-solve cache (entries).  ``None`` = unbounded;
    #: long-lived processes (the synthesis service, campaign workers with
    #: contingency re-synthesis) should keep a bound so the cache cannot
    #: grow into a leak.
    solve_cache_capacity: int | None = 1024
    #: scheduler backend for per-layer solves ("portfolio" races the ILP
    #: against previous-pass reuse and the greedy list scheduler;
    #: "ilp-highs" and "greedy" pin a single strategy).
    scheduler: str = "portfolio"
    #: keep per-layer solver sessions alive across re-synthesis passes and
    #: mutate them with deltas instead of re-encoding from scratch.
    #: Results are byte-identical either way (sessions rebuild the same
    #: standard form); disable to force from-scratch encoding for A/B.
    enable_solver_sessions: bool = True
    #: storage synthesis mode (see :data:`STORAGE_MODES`).  ``off`` keeps
    #: every code path byte-identical to the storage-oblivious flow.
    storage_mode: str = "off"
    #: reagent slots per dedicated storage reservoir.
    storage_capacity: int = 4
    storage_weights: StorageWeights = field(default_factory=StorageWeights)
    #: throughput mode (see :data:`THROUGHPUT_MODES`).  ``off`` keeps every
    #: code path byte-identical to the one-shot flow; ``periodic``
    #: additionally derives a steady-state pipelined schedule.
    throughput_mode: str = "off"
    #: desired initiation interval: the periodic search stops improving
    #: once it certifies an II at or below this (``None`` = minimize).
    target_ii: int | None = None
    #: periodic scheduler backend (see :data:`PERIODIC_SCHEDULERS`).
    throughput_scheduler: str = "auto"
    #: multi-variant sharing ablation: each fraction ``f`` in (0, 1]
    #: derives a dependency-closed topological-prefix variant containing
    #: the first ``ceil(f * n)`` operations of the assay; a non-empty
    #: tuple makes periodic throughput jobs also report per-variant IIs
    #: under one shared binding versus independent synthesis.
    throughput_variants: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.max_devices < 1:
            raise SpecificationError("max_devices must be >= 1")
        if self.threshold < 1:
            raise SpecificationError("threshold must be >= 1")
        if self.transport_default < 0:
            raise SpecificationError("transport_default must be >= 0")
        if self.time_limit <= 0:
            raise SpecificationError("time_limit must be positive")
        if not -1 <= self.improvement_threshold < 1:
            raise SpecificationError(
                "improvement_threshold must be in [-1, 1) "
                "(negative: iterate to convergence)"
            )
        if self.max_iterations < 0:
            raise SpecificationError("max_iterations must be >= 0")
        if self.solve_cache_capacity is not None and self.solve_cache_capacity < 1:
            raise SpecificationError(
                "solve_cache_capacity must be >= 1 (or None for unbounded)"
            )
        if self.storage_mode not in STORAGE_MODES:
            choices = "|".join(STORAGE_MODES)
            raise SpecificationError(
                f"unknown storage_mode {self.storage_mode!r} (choices: {choices})"
            )
        if self.storage_capacity < 1:
            raise SpecificationError("storage_capacity must be >= 1")
        if self.throughput_mode not in THROUGHPUT_MODES:
            choices = "|".join(THROUGHPUT_MODES)
            raise SpecificationError(
                f"unknown throughput_mode {self.throughput_mode!r} "
                f"(choices: {choices})"
            )
        if self.target_ii is not None and self.target_ii < 1:
            raise SpecificationError("target_ii must be >= 1 (or None)")
        if self.throughput_scheduler not in PERIODIC_SCHEDULERS:
            choices = "|".join(PERIODIC_SCHEDULERS)
            raise SpecificationError(
                f"unknown throughput_scheduler "
                f"{self.throughput_scheduler!r} (choices: {choices})"
            )
        if not isinstance(self.throughput_variants, tuple):
            self.throughput_variants = tuple(self.throughput_variants)
        for fraction in self.throughput_variants:
            if not 0 < fraction <= 1:
                raise SpecificationError(
                    f"throughput variant fraction {fraction!r} must be "
                    f"in (0, 1]"
                )
        from .backends import available_schedulers

        if self.scheduler not in available_schedulers():
            choices = ", ".join(available_schedulers())
            raise SpecificationError(
                f"unknown scheduler {self.scheduler!r} (choices: {choices})"
            )

    def storage_pressure_weight(self) -> float:
        """Per-boundary pressure charged in layer objectives when a
        crossing edge binds its endpoints apart.

        A linear proxy for the eventual plan cost: the reservoir weight
        when reservoirs are the only buffer, else the (cheaper) channel
        weight.  Zero disables storage pressure entirely.
        """
        if self.storage_mode == "off":
            return 0.0
        if self.storage_mode == "reservoir":
            return self.storage_weights.reservoir
        return min(self.storage_weights.channel, self.storage_weights.reservoir)
