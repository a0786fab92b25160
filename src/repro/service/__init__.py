"""Synthesis-as-a-service: async job server, persistent result store.

Turns the one-shot CLI flow into a long-lived local service: jobs
(assay + spec) arrive over a stdlib HTTP/JSON API, run on a bounded
process pool, and land in a persistent store keyed by the canonical
whole-run fingerprint (:func:`repro.hls.cache.fingerprint_run`) — so a
repeated submission is answered from disk without re-entering the
synthesis pipeline, and concurrent identical submissions coalesce onto
one solve.

Fault tolerance (this layer's robustness contract):

* :mod:`~repro.service.journal` — durable write-ahead log of job
  lifecycle transitions; a restarted server replays it and finishes
  every job that was pending or running at the crash.
* :mod:`~repro.service.store` — per-entry SHA-256 checksums; corrupted
  or truncated entries are quarantined and re-solved, never crash a
  read.
* :mod:`~repro.service.client` — bounded retries with full-jitter
  backoff, a circuit breaker per replica, fingerprint-idempotent
  resubmission across server restarts, and hedged submissions from two
  replicas up.
* graceful degradation — an ILP job that exceeds its wall-clock budget
  is re-run once on the greedy scheduler and returned flagged
  ``degraded`` (opt out per submission with ``degrade: false``).
* :mod:`~repro.service.chaos` — deterministic fault-injection campaigns
  (worker kills, slow solves, store corruption, journal-tearing
  crashes) against a real in-process server, with a byte-identity
  verdict against fault-free solves; the ``fleet`` scenario runs the
  same campaign across multiple replicas sharing one store.
* :mod:`~repro.service.lease` — crash-safe lease/fencing protocol that
  lets several replicas share one store directory: a single epoch-fenced
  index writer, stale-lease takeover, and a shared in-flight claim table
  for cross-replica request coalescing.

Pieces: :mod:`~repro.service.store` (atomic, versioned, LRU-bounded
result store), :mod:`~repro.service.queue` (priority queue, coalescing,
429 backpressure), :mod:`~repro.service.server` /
:mod:`~repro.service.client` (endpoints + typed client),
:mod:`~repro.service.metrics` (counters and latency histograms at
``/metrics``), :mod:`~repro.service.worker` (process-pool entry that
solves like a direct run).  CLI verbs: ``serve``,
``submit``, ``jobs``, ``chaos``; ``table2``/``table3`` accept
``--via-server``.
"""

from .chaos import (
    ChaosConfig,
    ChaosReport,
    FleetChaosConfig,
    FleetChaosReport,
    format_chaos,
    format_fleet_chaos,
    run_chaos,
    run_fleet_chaos,
)
from .client import (
    CircuitBreaker,
    HedgePolicy,
    JobHandle,
    RetryPolicy,
    ServiceClient,
)
from .journal import JOURNAL_SCHEMA, JobJournal
from .lease import (
    LEASE_SCHEMA,
    FileLock,
    FleetCoordinator,
    InflightTable,
    StoreLease,
)
from .metrics import ServiceMetrics
from .queue import Job, JobQueue, JobStatus
from .server import ServerConfig, SynthesisServer, run_server
from .store import STORE_SCHEMA, ResultStore, payload_checksum
from .worker import run_job

__all__ = [
    "ChaosConfig",
    "ChaosReport",
    "CircuitBreaker",
    "FileLock",
    "FleetChaosConfig",
    "FleetChaosReport",
    "FleetCoordinator",
    "HedgePolicy",
    "InflightTable",
    "Job",
    "JobHandle",
    "JobJournal",
    "JobQueue",
    "JobStatus",
    "JOURNAL_SCHEMA",
    "LEASE_SCHEMA",
    "ResultStore",
    "RetryPolicy",
    "STORE_SCHEMA",
    "ServerConfig",
    "ServiceClient",
    "ServiceMetrics",
    "StoreLease",
    "SynthesisServer",
    "format_chaos",
    "format_fleet_chaos",
    "payload_checksum",
    "run_chaos",
    "run_fleet_chaos",
    "run_server",
    "run_job",
]
