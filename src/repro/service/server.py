"""Asyncio synthesis server: local HTTP/JSON API over a process pool.

Stdlib only — ``asyncio.start_server`` with a deliberately minimal
HTTP/1.1 handler (every response closes the connection), a bounded
:class:`~concurrent.futures.ProcessPoolExecutor` doing the actual
solves, and three cooperating pieces from this package:

* :class:`~repro.service.queue.JobQueue` — priority dispatch, request
  coalescing, 429 backpressure;
* :class:`~repro.service.store.ResultStore` — persistent
  fingerprint-keyed results: a repeated submission is answered from disk
  without ever entering the synthesis pipeline;
* :class:`~repro.service.metrics.ServiceMetrics` — counters and latency
  histograms exposed at ``/metrics``.

Endpoints (all JSON)::

    GET    /health             liveness + config summary
    GET    /metrics            counters, histograms, worker utilization
    POST   /jobs               submit {assay, spec?, method?, priority?}
    GET    /jobs               all known jobs, newest first
    GET    /jobs/<id>          one job's status (?wait=SECONDS long-polls)
    GET    /jobs/<id>/result   the result payload (409 until done)
    DELETE /jobs/<id>          cancel a pending job
    POST   /shutdown           graceful stop

Failure isolation: a worker process dying mid-solve (OOM-kill, crash)
fails *only* the jobs in flight on the broken pool — each with a
structured ``worker-crashed`` error — then the pool is rebuilt and the
server keeps serving.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from ..errors import SerializationError, ServiceError
from ..hls import SynthesisSpec, fingerprint_run
from ..io.json_io import assay_from_json, spec_from_json, spec_to_json
from .journal import JobJournal
from .lease import FleetCoordinator
from .metrics import ServiceMetrics
from .queue import Job, JobQueue, JobStatus
from .store import ResultStore
from .worker import _DEBUG_CRASH, run_job

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error",
}

#: Largest accepted request body (a case-3-sized assay is ~50 KiB).
MAX_BODY_BYTES = 8 * 1024 * 1024


@dataclass
class ServerConfig:
    """Everything the ``serve`` verb exposes."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; resolved port in SynthesisServer.port
    workers: int = 2
    queue_capacity: int = 32
    store_dir: str | None = None
    store_capacity: int = 256
    #: default per-job wall-clock budget, seconds (request may lower it).
    job_timeout: float = 900.0
    #: enable the ``debug-crash`` test method (kills a worker mid-job).
    allow_debug: bool = False
    #: durable job journal directory; ``None`` derives ``<store_dir>/
    #: journal`` when a store dir is set (no store dir = no journal).
    journal_dir: str | None = None
    #: records per journal segment before rotation + compaction.
    journal_segment_records: int = 1024
    #: after an ILP job exceeds its wall-clock budget, re-run it once on
    #: the LP-bound scheduler (greedy schedule + certified LP lower bound)
    #: and return the result flagged ``degraded`` with its integrality gap
    #: (each submission may opt out with ``degrade: false``).
    enable_degrade: bool = True
    #: wall-clock budget for the degraded (LP-bound) re-run, seconds.
    degraded_timeout: float = 120.0
    #: ``/health`` reports ``degraded_mode`` once the worker pool was
    #: rebuilt more than this many times inside ``restart_window``.
    restart_threshold: int = 3
    restart_window: float = 300.0
    #: stable replica identity for fleet mode (``None`` derives
    #: ``replica-<pid>``); setting it implies ``fleet=True``.
    replica_id: str | None = None
    #: share the store directory with peer replicas: lease/fencing on
    #: ``index.json``, cross-replica coalescing via the in-flight table.
    #: Requires ``store_dir``.
    fleet: bool = False
    #: store-lease heartbeat timeout — a holder silent this long may be
    #: taken over by a peer (epoch bump fences the old holder).
    lease_ttl: float = 10.0
    #: lease/claim heartbeat cadence of the maintenance loop, seconds.
    heartbeat_interval: float = 2.0
    #: in-flight claim liveness timeout — a claim whose owner stopped
    #: beating this long is reclaimed by a peer.
    claim_ttl: float = 30.0
    #: store-poll cadence while awaiting a peer's in-flight result.
    peer_poll_interval: float = 0.25
    #: how often the maintenance loop checks the journal's compaction
    #: thresholds, seconds.
    compact_interval: float = 5.0
    #: closed-segment bytes that trigger a background compaction step.
    compact_min_bytes: int = 64 * 1024
    #: oldest-closed-segment age (seconds) that triggers one too.
    compact_min_age: float = 300.0


class SynthesisServer:
    """One service instance: queue + pool + store + HTTP front end."""

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        self.queue = JobQueue(capacity=self.config.queue_capacity)
        fleet_on = bool(
            (self.config.fleet or self.config.replica_id)
            and self.config.store_dir
        )
        self.replica_id = self.config.replica_id or (
            f"replica-{os.getpid()}" if fleet_on else "solo"
        )
        self.fleet: FleetCoordinator | None = None
        if fleet_on:
            assert self.config.store_dir is not None
            self.fleet = FleetCoordinator(
                self.config.store_dir,
                self.replica_id,
                lease_ttl=self.config.lease_ttl,
                claim_ttl=self.config.claim_ttl,
            )
        self.store = ResultStore(
            self.config.store_dir,
            capacity=self.config.store_capacity,
            lease=self.fleet.lease if self.fleet is not None else None,
        )
        journal_dir = self.config.journal_dir
        if journal_dir is None and self.config.store_dir is not None:
            # Fleet replicas keep per-replica journals: the journal is a
            # single-writer append log, unlike the shared store.
            name = f"journal-{self.replica_id}" if fleet_on else "journal"
            journal_dir = str(Path(self.config.store_dir) / name)
        self.journal = JobJournal(
            journal_dir,
            segment_records=self.config.journal_segment_records,
            compact_min_bytes=self.config.compact_min_bytes,
            compact_min_age=self.config.compact_min_age,
        )
        self.metrics = ServiceMetrics(replica_id=self.replica_id)
        self.metrics.workers = self.config.workers
        self.metrics.gauge("queue_depth", lambda: self.queue.depth)
        self.metrics.gauge("jobs_running", lambda: self._running)
        self.metrics.gauge("store_entries", lambda: len(self.store))
        if self.fleet is not None:
            self.metrics.gauge(
                "lease_state", lambda: self.fleet.lease.state
            )
            self.metrics.gauge(
                "lease_epoch", lambda: self.fleet.lease.epoch
            )
            self.metrics.gauge(
                "lease_takeovers", lambda: self.fleet.lease.takeovers
            )
        self._pool: ProcessPoolExecutor | None = None
        self._server: asyncio.AbstractServer | None = None
        self._dispatcher: asyncio.Task | None = None
        self._maintenance: asyncio.Task | None = None
        self._sem: asyncio.Semaphore | None = None
        self._work_available: asyncio.Event | None = None
        self._stopped: asyncio.Event | None = None
        self._events: dict[str, asyncio.Event] = {}
        #: fingerprints this replica claimed in the shared in-flight
        #: table (released when the owning job finishes).
        self._claims: set[str] = set()
        self._running = 0
        self._stopping = False
        #: monotonic timestamps of recent pool rebuilds (degraded-mode
        #: detection window).
        self._restarts: deque[float] = deque()

    # -- lifecycle -------------------------------------------------------

    @property
    def port(self) -> int:
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._sem = asyncio.Semaphore(self.config.workers)
        self._work_available = asyncio.Event()
        self._stopped = asyncio.Event()
        if self.fleet is not None:
            self.fleet.start()
        self._replay_journal()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        if self.fleet is not None or self.journal.enabled:
            self._maintenance = asyncio.create_task(self._maintenance_loop())
        if self.queue.depth:
            self._work_available.set()

    def _replay_journal(self) -> None:
        """Recover jobs that were pending/running at the last crash.

        Idempotent via whole-run fingerprints: a replayed job whose
        fingerprint already has a store entry completes immediately
        without re-entering the pipeline; duplicates among the replayed
        jobs coalesce.  Replayed jobs bypass queue backpressure — they
        were already acknowledged once.
        """
        for entry in self.journal.replay():
            fingerprint = entry["fingerprint"]
            payload = self.store.get(fingerprint) if fingerprint else None
            if payload is not None:
                job = self.queue.make_job(
                    fingerprint, {}, entry.get("priority", 0)
                )
                self.queue.finish(job, payload, source="journal-store")
                self.queue.admit_finished(job)
                self.metrics.inc("store_hits")
            elif self._peer_owns(fingerprint):
                # A live peer is already computing this fingerprint:
                # await its shared-store result instead of re-solving.
                job = self.queue.submit_remote(
                    fingerprint,
                    entry.get("request") or {},
                    priority=int(entry.get("priority") or 0),
                    timeout=entry.get("timeout"),
                )
                self.journal.record_submitted(job)
                self.metrics.inc("peer_coalesce_hits")
                asyncio.create_task(self._await_peer(job))
            else:
                job, coalesced = self.queue.submit(
                    fingerprint,
                    entry.get("request") or {},
                    priority=int(entry.get("priority") or 0),
                    timeout=entry.get("timeout"),
                    force=True,
                )
                if not coalesced:
                    self.journal.record_submitted(job)
            self.metrics.inc("journal_replayed")
        self.journal.forget_replayed()

    def _peer_owns(self, fingerprint: str) -> bool:
        """Claim the fingerprint in the shared in-flight table; True when
        a *live* peer already holds it (we must await, not compute).

        No-op (False) outside fleet mode or when a local job already
        holds the fingerprint (plain local coalescing applies).  A
        granted claim — including a stale claim reclaimed from a dead
        replica — is remembered in ``_claims`` for heartbeats + release.
        """
        if self.fleet is None or not fingerprint:
            return False
        if self.queue.inflight_job(fingerprint) is not None:
            return False
        granted, _entry = self.fleet.claim(fingerprint)
        if granted:
            self._claims.add(fingerprint)
            return False
        return True

    async def serve_until_stopped(self) -> None:
        assert self._stopped is not None
        await self._stopped.wait()

    async def stop(self, crash: bool = False) -> None:
        """Stop serving.  ``crash=True`` simulates a dead replica: the
        lease and in-flight claims are *not* released, so peers must
        exercise stale-lease takeover and orphaned-claim reclaim (the
        chaos harness uses this)."""
        if self._stopping:
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in (self._dispatcher, self._maintenance):
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        self._dispatcher = None
        self._maintenance = None
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        if self.fleet is not None:
            self.fleet.stop(crash=crash)
        self.journal.close()
        if self._stopped is not None:
            self._stopped.set()

    async def _maintenance_loop(self) -> None:
        """Background heartbeat + threshold-gated journal compaction.

        Lease/claim heartbeats are inline (sub-millisecond file ops);
        compaction steps run in a worker thread so a large segment
        rewrite never stalls the event loop.
        """
        interval = self.config.compact_interval
        if self.fleet is not None:
            interval = min(interval, self.config.heartbeat_interval)
        interval = max(0.05, interval)
        last_compact = time.monotonic()
        while True:
            await asyncio.sleep(interval)
            if self.fleet is not None:
                held_before = self.fleet.lease.held
                self.fleet.maintain(self._claims)
                if self.fleet.lease.held and not held_before:
                    self.metrics.inc("lease_acquired")
                if self.fleet.lease.held:
                    # Fold entries follower replicas wrote into the LRU
                    # bound — only the holder sees + enforces eviction.
                    swept = self.store.sweep()
                    if swept:
                        self.metrics.inc("store_sweep_adoptions", swept)
            if (
                self.journal.enabled
                and time.monotonic() - last_compact
                >= self.config.compact_interval
            ):
                last_compact = time.monotonic()
                duration = await asyncio.to_thread(
                    self.journal.maybe_compact
                )
                if duration is not None:
                    self.metrics.observe("compaction_seconds", duration)
                    self.metrics.inc("journal_compactions")

    def _get_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.config.workers
            )
        return self._pool

    def _reset_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self.metrics.inc("worker_restarts")
        self._restarts.append(time.monotonic())

    def _degraded_mode(self) -> bool:
        """Whether pool rebuilds are frequent enough to flag degradation."""
        horizon = time.monotonic() - self.config.restart_window
        while self._restarts and self._restarts[0] < horizon:
            self._restarts.popleft()
        return len(self._restarts) > self.config.restart_threshold

    # -- dispatch --------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._sem is not None and self._work_available is not None
        while True:
            await self._sem.acquire()
            job = None
            while job is None:
                job = self.queue.next_job()
                self._drain_expired()
                if job is None:
                    self._work_available.clear()
                    await self._work_available.wait()
            self.journal.record_started(job)
            asyncio.create_task(self._run_job(job))

    def _drain_expired(self) -> None:
        """Account for jobs the queue failed because they out-waited
        their own wall-clock budget."""
        while self.queue.expired:
            job = self.queue.expired.pop()
            self.journal.record_failed(job)
            self.metrics.inc("jobs_timeout")
            self.metrics.inc("jobs_failed")
            self._signal_done(job)

    async def _run_job(self, job: Job) -> None:
        assert self._sem is not None
        loop = asyncio.get_running_loop()
        started = time.monotonic()
        self._running += 1
        self.metrics.observe(
            "queue_wait_seconds", max(0.0, time.time() - job.submitted_at)
        )
        try:
            request = job.request
            timeout = min(
                job.timeout or self.config.job_timeout,
                self.config.job_timeout,
            )
            outcome = await asyncio.wait_for(
                loop.run_in_executor(self._get_pool(), run_job, request),
                timeout=timeout,
            )
        except asyncio.TimeoutError:
            self.metrics.inc("jobs_timeout")
            # The abandoned solve still occupies a worker; rebuild the
            # pool so the slot is genuinely reclaimed.
            self._reset_pool()
            if not await self._run_degraded(job, request):
                self.queue.fail(
                    job, "timeout",
                    f"job exceeded its {timeout:g}s wall-clock budget",
                )
                self.journal.record_failed(job)
                self.metrics.inc("jobs_failed")
        except BrokenProcessPool:
            self.queue.fail(
                job, "worker-crashed",
                "worker process died mid-solve; the pool was rebuilt",
            )
            self.journal.record_failed(job)
            self.metrics.inc("jobs_failed")
            self._reset_pool()
        except Exception as exc:  # pragma: no cover - defensive
            self.queue.fail(job, "internal", str(exc))
            self.journal.record_failed(job)
            self.metrics.inc("jobs_failed")
        else:
            self._absorb_outcome(job, outcome)
        finally:
            elapsed = time.monotonic() - started
            self.metrics.busy_seconds += elapsed
            self.metrics.observe("solve_seconds", elapsed)
            self._running -= 1
            self._signal_done(job)
            self._sem.release()

    async def _run_degraded(self, job: Job, request: dict) -> bool:
        """Re-run a timed-out job once on the greedy scheduler.

        Returns True when the job finished with a ``degraded``-flagged
        payload.  The degraded result is returned to the waiters but
        *not* stored: the store holds only canonical full-fidelity
        results, so a future resubmission re-attempts the real solve.
        """
        if not self.config.enable_degrade:
            return False
        if request.get("degrade") is False:
            return False
        if request.get("method") not in ("hls", "conventional"):
            return False
        loop = asyncio.get_running_loop()
        degraded_request = request | {"degraded": True}
        try:
            outcome = await asyncio.wait_for(
                loop.run_in_executor(
                    self._get_pool(), run_job, degraded_request
                ),
                timeout=self.config.degraded_timeout,
            )
        except (asyncio.TimeoutError, BrokenProcessPool):
            self._reset_pool()
            return False
        except Exception:  # pragma: no cover - defensive
            return False
        if not outcome or outcome[0] != "ok":
            return False
        _tag, payload = outcome
        payload["degraded"] = True
        self.queue.finish(job, payload, source="degraded")
        self.journal.record_finished(job)
        self.metrics.inc("jobs_degraded")
        self.metrics.inc("jobs_completed")
        return True

    def _absorb_outcome(self, job: Job, outcome: tuple) -> None:
        if not outcome or outcome[0] != "ok":
            _tag, kind, message = outcome
            self.queue.fail(job, kind, message)
            self.journal.record_failed(job)
            self.metrics.inc("jobs_failed")
            return
        _tag, payload = outcome
        # Store first, then journal: a crash in between replays the job,
        # finds the store entry, and completes it immediately.
        self.store.put(job.fingerprint, payload)
        self.queue.finish(job, payload, source="solve")
        self.journal.record_finished(job)
        self.metrics.inc("jobs_completed")
        #: actual local solves — the fleet's exactly-once accounting.
        self.metrics.inc("solve_jobs")
        totals = (payload.get("profile") or {}).get("totals") or {}
        self.metrics.inc("solve_ilp_solves", int(totals.get("ilp_solves", 0)))
        self.metrics.inc("solve_cache_hits", int(totals.get("cache_hits", 0)))

    async def _await_peer(self, job: Job) -> None:
        """Resolve a job whose fingerprint a peer replica is computing.

        Polls the shared store until the peer's result lands; if the
        peer dies instead (its claim goes stale), this replica reclaims
        the claim and converts the job into an ordinary local solve —
        zero lost jobs either way.
        """
        assert self.fleet is not None
        interval = max(0.01, self.config.peer_poll_interval)
        deadline = (
            time.monotonic() + job.timeout
            if job.timeout is not None else None
        )
        while not self._stopping:
            # probe() is a dict lookup + stat — safe on the event loop
            # every poll tick; the full read + checksum verification in
            # get() runs once, when the peer's entry file appears.
            payload = (
                self.store.get(job.fingerprint)
                if self.store.probe(job.fingerprint) else None
            )
            if payload is not None:
                self.queue.finish(job, payload, source="peer")
                self.journal.record_finished(job)
                self.metrics.inc("peer_results")
                self.metrics.inc("jobs_completed")
                self._signal_done(job)
                return
            if deadline is not None and time.monotonic() > deadline:
                self.queue.fail(
                    job, "timeout",
                    f"peer-awaited job exceeded its "
                    f"{job.timeout:g}s budget",
                )
                self.journal.record_failed(job)
                self.metrics.inc("jobs_failed")
                self._signal_done(job)
                return
            granted, _entry = self.fleet.claim(job.fingerprint)
            if granted:
                self._claims.add(job.fingerprint)
                payload = self.store.get(job.fingerprint)
                if payload is not None:
                    # The peer finished and released its claim between
                    # our store probe and the claim — serve the stored
                    # result, don't recompute.
                    self.queue.finish(job, payload, source="peer")
                    self.journal.record_finished(job)
                    self.metrics.inc("peer_results")
                    self.metrics.inc("jobs_completed")
                    self._signal_done(job)
                    return
                # The peer's claim went stale (it died): the orphan is
                # ours now — compute locally.
                self.queue.requeue(job)
                self.metrics.inc("peer_reclaims")
                assert self._work_available is not None
                self._work_available.set()
                return
            await asyncio.sleep(interval)

    def _signal_done(self, job: Job) -> None:
        if (
            self.fleet is not None
            and job.status.finished
            and job.fingerprint in self._claims
        ):
            self._claims.discard(job.fingerprint)
            self.fleet.release(job.fingerprint)
        event = self._events.pop(job.id, None)
        if event is not None:
            event.set()

    # -- submission ------------------------------------------------------

    def _submit(self, body: dict) -> tuple[int, dict]:
        if not isinstance(body, dict):
            raise ServiceError(
                "request body must be a JSON object", status=400,
                kind="bad-request",
            )
        method = body.get("method", "hls")
        if method == _DEBUG_CRASH and self.config.allow_debug:
            return self._submit_debug_crash(body)
        if method not in ("hls", "conventional"):
            raise ServiceError(
                f"unknown method {method!r}", status=400, kind="bad-request"
            )
        try:
            assay = assay_from_json(body.get("assay") or {})
            spec_data = body.get("spec")
            spec = spec_from_json(spec_data) if spec_data else SynthesisSpec()
        except SerializationError as exc:
            raise ServiceError(str(exc), status=400, kind="bad-request")

        fingerprint = fingerprint_run(assay, spec, method)
        priority = int(body.get("priority", 0))
        timeout = body.get("timeout")
        self.metrics.inc("jobs_submitted")

        payload = self.store.get(fingerprint)
        if payload is not None:
            self.metrics.inc("store_hits")
            job = self.queue.make_job(fingerprint, {}, priority)
            self.queue.finish(job, payload, source="store")
            self.queue.admit_finished(job)
            return 202, {"job": job.describe()}
        self.metrics.inc("store_misses")

        request = {
            "assay": body["assay"],
            "spec": spec_to_json(spec),
            "method": method,
            "deterministic": True,
        }
        if body.get("degrade") is False:
            request["degrade"] = False
        timeout_value = float(timeout) if timeout else None
        if self._peer_owns(fingerprint):
            job = self.queue.submit_remote(
                fingerprint, request, priority=priority,
                timeout=timeout_value,
            )
            self.journal.record_submitted(job)
            self.metrics.inc("peer_coalesce_hits")
            asyncio.create_task(self._await_peer(job))
            return 202, {"job": job.describe()}
        try:
            job, coalesced = self.queue.submit(
                fingerprint, request, priority=priority,
                timeout=timeout_value,
            )
        except ServiceError:
            # Queue-full (429): give back the in-flight claim _peer_owns
            # just granted us, or the maintenance loop would heartbeat it
            # forever and peers would await a solve nobody is running.
            if self.fleet is not None and fingerprint in self._claims:
                self._claims.discard(fingerprint)
                self.fleet.release(fingerprint)
            raise
        if coalesced:
            self.metrics.inc("coalesce_hits")
        else:
            self.journal.record_submitted(job)
            assert self._work_available is not None
            self._work_available.set()
        return 202, {"job": job.describe()}

    def _submit_debug_crash(self, body: dict) -> tuple[int, dict]:
        """Queue a job whose worker kills itself (crash-recovery tests)."""
        self.metrics.inc("jobs_submitted")
        job, _ = self.queue.submit(
            f"debug-crash-{time.monotonic_ns()}",
            {"method": _DEBUG_CRASH},
            priority=int(body.get("priority", 0)),
        )
        assert self._work_available is not None
        self._work_available.set()
        return 202, {"job": job.describe()}

    # -- HTTP front end --------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, body = await asyncio.wait_for(
                    self._read_request(reader), timeout=30.0
                )
            except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                    ConnectionError):
                return
            except ServiceError as exc:
                self._write_response(writer, exc.status, _error_body(exc))
                return
            try:
                status, payload = await self._route(method, path, body)
            except ServiceError as exc:
                status, payload = exc.status, _error_body(exc)
            except Exception as exc:  # pragma: no cover - defensive
                status, payload = 500, {
                    "error": {"kind": "internal", "message": str(exc)}
                }
            self._write_response(writer, status, payload)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict | None]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise ConnectionError("empty request")
        parts = request_line.split()
        if len(parts) != 3:
            raise ServiceError(
                f"malformed request line {request_line!r}",
                status=400, kind="bad-request",
            )
        method, path, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        if headers.get("x-repro-hedge"):
            # The client's hedge policy fired this as a duplicate of a
            # slow request to a peer — counted for fleet observability.
            self.metrics.inc("hedged_requests")
        length = int(headers.get("content-length", 0) or 0)
        if length > MAX_BODY_BYTES:
            raise ServiceError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
                status=413, kind="payload-too-large",
            )
        body: dict | None = None
        if length:
            raw = await reader.readexactly(length)
            try:
                body = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ServiceError(
                    f"request body is not valid JSON: {exc}",
                    status=400, kind="bad-request",
                )
        return method.upper(), path, body

    async def _route(
        self, method: str, path: str, body: dict | None
    ) -> tuple[int, dict]:
        parsed = urlparse(path)
        segments = [s for s in parsed.path.split("/") if s]
        query = parse_qs(parsed.query)

        if segments == ["health"] and method == "GET":
            return 200, self._health()
        if segments == ["metrics"] and method == "GET":
            snapshot = self.metrics.snapshot() | {
                "store": self.store.counters(),
                "journal": self.journal.counters(),
            }
            if self.fleet is not None:
                snapshot["replica"] = self.fleet.counters()
            else:
                snapshot["replica"] = {"replica_id": self.replica_id}
            return 200, snapshot
        if segments == ["shutdown"] and method == "POST":
            asyncio.get_running_loop().call_soon(
                lambda: asyncio.ensure_future(self.stop())
            )
            return 200, {"status": "stopping"}
        if segments == ["jobs"]:
            if method == "POST":
                return self._submit(body or {})
            if method == "GET":
                return 200, {
                    "jobs": [job.describe() for job in self.queue.jobs()]
                }
            raise ServiceError("use GET or POST", status=405, kind="bad-method")
        if len(segments) == 2 and segments[0] == "jobs":
            if method == "GET":
                return await self._job_status(segments[1], query)
            if method == "DELETE":
                job = self.queue.cancel(segments[1])
                if job.status is JobStatus.CANCELLED:
                    self.journal.record_cancelled(job)
                    self.metrics.inc("jobs_cancelled")
                    self._signal_done(job)
                else:
                    # A coalesced waiter detached; the shared job lives.
                    self.metrics.inc("jobs_detached")
                return 200, {"job": job.describe()}
            raise ServiceError(
                "use GET or DELETE", status=405, kind="bad-method"
            )
        if (
            len(segments) == 3
            and segments[0] == "jobs"
            and segments[2] == "result"
            and method == "GET"
        ):
            return self._job_result(segments[1])
        raise ServiceError(
            f"no route for {method} {parsed.path}", status=404,
            kind="not-found",
        )

    def _health(self) -> dict:
        return {
            "status": "degraded" if self._degraded_mode() else "ok",
            "degraded_mode": self._degraded_mode(),
            "uptime_seconds": round(
                time.monotonic() - self.metrics.started, 3
            ),
            "workers": self.config.workers,
            "queue_capacity": self.config.queue_capacity,
            "queue_depth": self.queue.depth,
            "jobs_running": self._running,
            "store_entries": len(self.store),
            "persistent_store": self.store.root is not None,
            "journal": self.journal.enabled,
            "replica_id": self.replica_id,
            "lease": (
                self.fleet.lease.state if self.fleet is not None else None
            ),
        }

    async def _job_status(
        self, job_id: str, query: dict
    ) -> tuple[int, dict]:
        job = self.queue.get(job_id)
        wait = float(query.get("wait", [0])[0] or 0)
        if wait > 0 and not job.status.finished:
            event = self._events.setdefault(job.id, asyncio.Event())
            try:
                await asyncio.wait_for(event.wait(), timeout=min(wait, 60.0))
            except asyncio.TimeoutError:
                pass
        return 200, {"job": job.describe()}

    def _job_result(self, job_id: str) -> tuple[int, dict]:
        job = self.queue.get(job_id)
        if job.status is JobStatus.DONE:
            assert job.payload is not None
            return 200, {"job": job.describe()} | job.payload
        if job.status is JobStatus.FAILED:
            return 409, {"job": job.describe(), "error": job.error}
        raise ServiceError(
            f"job {job_id} is {job.status.value}; no result yet",
            status=409, kind="not-finished",
        )

    def _write_response(
        self, writer: asyncio.StreamWriter, status: int, payload: dict
    ) -> None:
        data = json.dumps(payload).encode()
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + data)


def _error_body(exc: ServiceError) -> dict:
    return {"error": {"kind": exc.kind, "message": str(exc)}}


def run_server(config: ServerConfig | None = None, announce=None) -> None:
    """Run a server until ``/shutdown`` or KeyboardInterrupt.

    ``announce`` is called once with the started server (the CLI prints
    the bound address; tests grab the port).
    """

    async def _main() -> None:
        server = SynthesisServer(config)
        await server.start()
        if announce is not None:
            announce(server)
        try:
            await server.serve_until_stopped()
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


__all__ = ["MAX_BODY_BYTES", "ServerConfig", "SynthesisServer", "run_server"]
