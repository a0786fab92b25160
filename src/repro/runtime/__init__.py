"""Hybrid-schedule run-time substrate.

The paper's hybrid schedules leave the completion of indeterminate
operations to run-time decisions.  This package holds what every simulated
run shares: the :class:`RetryModel` of indeterminate operations, the
runtime :class:`EventLog`, and the valve-actuation program of a schedule.
The run time that plays a :class:`~repro.hls.schedule.HybridSchedule` —
layer barriers, retries, faults and recovery, resolving the symbolic
``I_k`` terms — is :class:`repro.cyberphysical.ExecutionEngine`.
"""

from .actuation import (
    ControlProgram,
    ValveAction,
    ValveEvent,
    generate_control_program,
)
from .events import Event, EventKind, EventLog
from .executor import RetryModel

__all__ = [
    "ControlProgram",
    "ValveAction",
    "ValveEvent",
    "generate_control_program",
    "Event",
    "EventKind",
    "EventLog",
    "RetryModel",
]
