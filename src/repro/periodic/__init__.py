"""Throughput mode: steady-state periodic (modulo) scheduling.

One-shot synthesis answers "how fast can one run of the assay finish?".
Real labs run the same assay back-to-back thousands of times, and run
families of variants sharing most of their DAG.  This package re-times a
synthesized result so consecutive iterations overlap on the chip —
iteration ``k`` starts at ``k * II`` — and minimizes the initiation
interval ``II``, the steady-state cost of one more run.

Modules:

* :mod:`~repro.periodic.problem`   — reduce a synthesis result to affine
  resource intervals (device / channel / storage occupancy);
* :mod:`~repro.periodic.model`     — the modulo ILP over the ``ilp/``
  layer, built once per II probe;
* :mod:`~repro.periodic.greedy`    — the greedy modulo list scheduler;
* :mod:`~repro.periodic.bound`     — LP-certified ResMII lower bounds;
* :mod:`~repro.periodic.scheduler` — the II search, backend table,
  and :class:`ThroughputResult`;
* :mod:`~repro.periodic.validate`  — independent unrolled replay;
* :mod:`~repro.periodic.variants`  — multi-variant shared-schedule
  synthesis and the sharing ablation.
"""

from .bound import ii_lower_bound, resource_bound
from .greedy import circular_overlap, greedy_modulo_schedule
from .model import build_periodic_model
from .problem import AffineInterval, PeriodicProblem, build_periodic_problem
from .scheduler import (
    ProbeRecord,
    ThroughputResult,
    available_periodic_schedulers,
    create_periodic_scheduler,
    schedule_throughput,
)
from .validate import (
    PeriodicSchedule,
    collect_periodic_violations,
    validate_periodic_schedule,
)
from .variants import (
    SharedThroughput,
    VariantReport,
    derive_variants,
    prefix_variant,
    shared_skeleton,
    synthesize_shared,
    union_assay,
)

__all__ = [
    "AffineInterval",
    "PeriodicProblem",
    "PeriodicSchedule",
    "ProbeRecord",
    "SharedThroughput",
    "ThroughputResult",
    "VariantReport",
    "available_periodic_schedulers",
    "build_periodic_model",
    "build_periodic_problem",
    "circular_overlap",
    "collect_periodic_violations",
    "create_periodic_scheduler",
    "derive_variants",
    "greedy_modulo_schedule",
    "ii_lower_bound",
    "prefix_variant",
    "resource_bound",
    "schedule_throughput",
    "shared_skeleton",
    "synthesize_shared",
    "union_assay",
    "validate_periodic_schedule",
]
