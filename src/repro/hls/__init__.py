"""Core high-level synthesis: per-layer ILP + progressive re-synthesis.

The public entry point is :func:`repro.hls.synthesizer.synthesize`, which
takes an :class:`~repro.operations.assay.Assay` and a
:class:`~repro.hls.spec.SynthesisSpec` and returns a
:class:`~repro.hls.synthesizer.SynthesisResult` containing the hybrid
schedule, the device inventory, transportation paths, and the per-iteration
refinement history.

Internally synthesis runs as an explicit pass pipeline
(:mod:`repro.hls.pipeline`) over a shared :class:`~repro.hls.context.
SynthesisContext`, with per-layer solves delegated to pluggable scheduler
backends (:mod:`repro.hls.backends`).
"""

from .backends import (
    SchedulerBackend,
    available_schedulers,
    create_scheduler,
    layer_cost,
)
from .cache import (
    LayerSolveCache,
    fingerprint_layer_problem,
    fingerprint_run,
    structural_fingerprint_layer_problem,
)
from .context import PassState, SynthesisContext, UidAllocator
from .pipeline import SynthesisPipeline
from .schedule import HybridSchedule, LayerSchedule, OpPlacement
from .session import LayerSession, SessionPool
from .spec import SynthesisSpec, TransportProgression, Weights
from .synthesizer import (
    IterationRecord,
    SynthesisResult,
    build_inventory,
    synthesize,
)
from .transport import TransportEstimator
from .validate import validate_result

__all__ = [
    "HybridSchedule",
    "LayerSchedule",
    "OpPlacement",
    "LayerSolveCache",
    "fingerprint_layer_problem",
    "fingerprint_run",
    "structural_fingerprint_layer_problem",
    "LayerSession",
    "SessionPool",
    "SynthesisSpec",
    "TransportProgression",
    "Weights",
    "IterationRecord",
    "SynthesisResult",
    "synthesize",
    "build_inventory",
    "TransportEstimator",
    "validate_result",
    "SchedulerBackend",
    "available_schedulers",
    "create_scheduler",
    "layer_cost",
    "PassState",
    "SynthesisContext",
    "UidAllocator",
    "SynthesisPipeline",
]
