"""Cyberphysical runtime: closed-loop execution with faults and recovery.

The paper treats layer-to-layer transitions as real-time cyberphysical
decisions; this package is the one run time that plays a hybrid schedule.
:class:`~repro.cyberphysical.engine.ExecutionEngine` dispatches a
synthesized or hand-built hybrid schedule layer by layer against the
sampled retry model and an injected
:class:`~repro.cyberphysical.faults.FaultPlan`; recovery policies
(:mod:`~repro.cyberphysical.policies`) escalate from in-place retries
through spare-device rebinding to full contingency re-synthesis of the
residual assay; :mod:`~repro.cyberphysical.campaign` runs seeded
Monte-Carlo fault campaigns across a process pool with a deterministic
merge; :mod:`~repro.cyberphysical.trace` exports every engine decision as
structured JSONL.
"""

from .campaign import (
    CampaignConfig,
    CampaignOutcome,
    RunRecord,
    run_campaign,
    run_one,
)
from .engine import (
    REASON_DEVICE_DOWN,
    REASON_EXHAUSTED,
    EngineReport,
    ExecutionEngine,
    RecoveryContext,
    RecoveryOutcome,
    RecoveryRecord,
)
from .faults import PERSISTENT, ActiveFaults, FaultKind, FaultPlan, FaultSpec
from .policies import (
    DEFAULT_CHAIN,
    RebindSparePolicy,
    RecoveryPolicy,
    ResynthesisPolicy,
    RetryBackoffPolicy,
    build_policies,
)
from .trace import (
    CampaignStats,
    TraceRecord,
    aggregate_stats,
    format_campaign,
    read_trace,
    trace_lines,
    write_trace,
)

__all__ = [
    "CampaignConfig",
    "CampaignOutcome",
    "RunRecord",
    "run_campaign",
    "run_one",
    "EngineReport",
    "ExecutionEngine",
    "RecoveryContext",
    "RecoveryOutcome",
    "RecoveryRecord",
    "REASON_DEVICE_DOWN",
    "REASON_EXHAUSTED",
    "PERSISTENT",
    "ActiveFaults",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "DEFAULT_CHAIN",
    "RecoveryPolicy",
    "RetryBackoffPolicy",
    "RebindSparePolicy",
    "ResynthesisPolicy",
    "build_policies",
    "CampaignStats",
    "TraceRecord",
    "aggregate_stats",
    "format_campaign",
    "read_trace",
    "trace_lines",
    "write_trace",
]
