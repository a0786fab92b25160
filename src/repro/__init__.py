"""repro — component-oriented high-level synthesis for continuous-flow
microfluidics with hybrid scheduling.

A from-scratch Python reproduction of

    M. Li, T.-M. Tseng, B. Li, T.-Y. Ho, U. Schlichtmann,
    "Component-Oriented High-level Synthesis for Continuous-Flow
    Microfluidics Considering Hybrid-Scheduling", DAC 2017.

Quickstart::

    from repro import AssayBuilder, SynthesisSpec, synthesize

    b = AssayBuilder("pcr")
    mix = b.op("mix", 8, container="ring", accessories=["pump"])
    heat = b.op("heat", 30, accessories=["heating_pad"], after=[mix])
    b.op("read", 2, accessories=["optical_system"], after=[heat])

    result = synthesize(b.build(), SynthesisSpec(max_devices=5))
    print(result.makespan_expression, result.num_devices)

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.components` — containers, accessories, cost tables (Sec. 2.1)
* :mod:`repro.operations` — component-oriented operations & assay DAGs (2.2)
* :mod:`repro.devices` — general devices and the inventory ``D``
* :mod:`repro.layering` — Algorithm 1: layering for hybrid scheduling (3.1)
* :mod:`repro.hls` — per-layer ILP + progressive re-synthesis (3.2, 4)
* :mod:`repro.baselines` — the modified conventional method (5)
* :mod:`repro.assays` — the three benchmark assay reconstructions
* :mod:`repro.runtime` — retry model, event log, valve actuation
* :mod:`repro.cyberphysical` — the run time: closed-loop execution engine
* :mod:`repro.experiments` — Table 2 / Table 3 harnesses
* :mod:`repro.ilp` — self-contained MILP substrate (HiGHS + own B&B)
"""

from .baselines import synthesize_conventional
from .components import Accessory, Capacity, ContainerKind, CostModel
from .devices import BindingMode, DeviceInventory, GeneralDevice
from .errors import ReproError
from .hls import (
    HybridSchedule,
    SynthesisResult,
    SynthesisSpec,
    TransportProgression,
    Weights,
    synthesize,
)
from .layering import Layer, LayeringResult, layer_assay
from .operations import Assay, AssayBuilder, Fixed, Indeterminate, Operation
from .runtime import RetryModel

__version__ = "1.0.0"

__all__ = [
    "Accessory",
    "Assay",
    "AssayBuilder",
    "BindingMode",
    "Capacity",
    "ContainerKind",
    "CostModel",
    "DeviceInventory",
    "Fixed",
    "GeneralDevice",
    "HybridSchedule",
    "Indeterminate",
    "Layer",
    "LayeringResult",
    "Operation",
    "ReproError",
    "RetryModel",
    "SynthesisResult",
    "SynthesisSpec",
    "TransportProgression",
    "Weights",
    "layer_assay",
    "synthesize",
    "synthesize_conventional",
    "__version__",
]
