"""Typed, fault-tolerant Python client for the synthesis service.

Stdlib-only (``http.client``).  Every method raises
:class:`~repro.errors.ServiceError` carrying the server's structured
error (kind + message + HTTP status) on any non-2xx response, so callers
never parse error bodies themselves.

One :class:`ServiceClient` talks to one or more replicas of the service;
a plain client (``ServiceClient(host, port)``) is its own single
replica.  Resilience (all per-client, all tunable):

* **Bounded retries** — connection errors and 5xx responses are retried
  up to :attr:`RetryPolicy.retries` times with exponential backoff and
  *full jitter* (each sleep is uniform in ``[0, base * 2**attempt]``,
  capped at :attr:`RetryPolicy.max_delay`).  4xx responses are never
  retried: the request itself is wrong, repeating it cannot help.
* **Circuit breaker** — one per replica: after
  :attr:`CircuitBreaker.threshold` consecutive transport failures the
  breaker *opens* and requests fail fast locally
  (:class:`~repro.errors.CircuitOpenError`, no network traffic) until
  :attr:`CircuitBreaker.cooldown` elapses; the first request after the
  cooldown is a *half-open* probe — success closes the breaker, failure
  re-opens it for another cooldown.
* **Idempotent resubmission** — ``POST /jobs`` is safe to retry because
  the server coalesces submissions on the canonical run fingerprint and
  answers repeats from the result store; :meth:`ServiceClient.synthesize`
  additionally resubmits the same body when a server restart invalidated
  a job id mid-wait (the replayed job has a fresh id but the same
  fingerprint, so the resubmission re-attaches to it — or to its stored
  result).
* **Fleets** — from two replicas up (``from_address("h:p,h:p")``) a
  submission is *hedged*: a duplicate goes to the next replica after the
  :class:`HedgePolicy` delay (or at once when the primary fails), the
  first answer wins and the loser's socket is closed.  Job ids are
  replica-local, so every later call on a job goes to the replica that
  issued it (the pin table).  With one replica a request runs inline on
  the caller's thread: no thread is started and no pin is stored.
* **No connection leaks** — each attempt uses one ``HTTPConnection``
  closed in a ``finally`` on every path (success, HTTP error, transport
  error, JSON error).
"""

from __future__ import annotations

import contextlib
import http.client
import json
import math
import random
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from queue import Empty, SimpleQueue
from typing import Any, Callable

from ..errors import CircuitOpenError, ServiceError
from ..hls.spec import SynthesisSpec
from ..io.json_io import assay_to_json, spec_to_json
from ..operations.assay import Assay


@dataclass
class RetryPolicy:
    """Backoff schedule for transient transport failures.

    ``seed`` pins the jitter RNG so tests can assert the exact sleep
    sequence; production clients leave it ``None`` (OS entropy).
    """

    #: retry attempts *after* the first try (0 = no retries).
    retries: int = 4
    #: backoff base, seconds; attempt ``k`` sleeps uniform[0, base*2**k].
    base_delay: float = 0.1
    #: hard cap on any single sleep, seconds.
    max_delay: float = 5.0
    seed: int | None = None
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ServiceError("retries must be >= 0", status=400)
        if self.base_delay < 0 or self.max_delay < 0:
            raise ServiceError("delays must be >= 0", status=400)
        self._rng = random.Random(self.seed)

    def backoff(self, attempt: int) -> float:
        """The sleep before retry ``attempt`` (0-based): full jitter."""
        ceiling = min(self.max_delay, self.base_delay * (2 ** attempt))
        return self._rng.uniform(0.0, ceiling)


class CircuitBreaker:
    """Per-replica circuit breaker over consecutive transport failures.

    ``clock`` is injectable for tests (defaults to ``time.monotonic``).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        threshold: int = 5,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ServiceError("breaker threshold must be >= 1", status=400)
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._failures = 0
        self._opened_at: float | None = None
        self._probing = False

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return self.CLOSED
        if self._clock() - self._opened_at >= self.cooldown:
            return self.HALF_OPEN
        return self.OPEN

    def allow(self) -> bool:
        """Whether a request may go out now.

        In the half-open state exactly one in-flight probe is admitted;
        further requests fail fast until the probe reports back.
        """
        state = self.state
        if state == self.CLOSED:
            return True
        if state == self.HALF_OPEN and not self._probing:
            self._probing = True
            return True
        return False

    def record_success(self) -> None:
        self._failures = 0
        self._opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        self._probing = False
        self._failures += 1
        if self._failures >= self.threshold:
            self._opened_at = self._clock()


class HedgePolicy:
    """When to fire a duplicate request at a second replica.

    The hedge delay adapts to observed latency: once ``min_samples``
    request durations have been recorded, the delay is the configured
    ``percentile`` of the recent sample window; before that (or with a
    fixed ``delay``) the static value applies.  ``clock`` is injectable
    so tests control both the measured latencies and the firing time.
    """

    def __init__(
        self,
        delay: float | None = None,
        percentile: float = 0.95,
        min_samples: int = 8,
        initial_delay: float = 1.0,
        max_samples: int = 128,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if delay is not None and delay < 0:
            raise ServiceError("hedge delay must be >= 0", status=400)
        if not 0.0 < percentile <= 1.0:
            raise ServiceError(
                "hedge percentile must be in (0, 1]", status=400
            )
        if min_samples < 1 or max_samples < min_samples:
            raise ServiceError("bad hedge sample bounds", status=400)
        #: fixed hedge delay, seconds; ``None`` adapts to the percentile.
        self.delay = delay
        self.percentile = percentile
        self.min_samples = min_samples
        #: delay used until enough samples accumulate.
        self.initial_delay = initial_delay
        self.clock = clock
        self._samples: deque[float] = deque(maxlen=max_samples)
        #: hedges actually fired.
        self.fired = 0
        #: hedges whose duplicate finished first.
        self.won = 0

    def observe(self, seconds: float) -> None:
        """Record one completed request's duration."""
        self._samples.append(seconds)

    def current_delay(self) -> float:
        """Seconds to wait before hedging the in-flight request."""
        if self.delay is not None:
            return self.delay
        if len(self._samples) < self.min_samples:
            return self.initial_delay
        # Nearest rank: the smallest sample at least ``percentile`` of
        # the window reaches.
        ordered = sorted(self._samples)
        return ordered[math.ceil(self.percentile * len(ordered)) - 1]

    def counters(self) -> dict[str, Any]:
        return {
            "fired": self.fired,
            "won": self.won,
            "samples": len(self._samples),
            "current_delay": self.current_delay(),
        }


@dataclass
class JobHandle:
    """Client-side view of one submitted job."""

    id: str
    fingerprint: str
    status: str
    source: str
    coalesced: int
    error: dict | None

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "JobHandle":
        return cls(
            id=data["id"],
            fingerprint=data["fingerprint"],
            status=data["status"],
            source=data.get("source", ""),
            coalesced=int(data.get("coalesced", 0)),
            error=data.get("error"),
        )

    @property
    def finished(self) -> bool:
        return self.status in ("done", "failed", "cancelled")


class _Cancel:
    """Lets the winner of a hedge race abort the loser from its own
    thread: closing the loser's socket makes its blocked read raise."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._connection: http.client.HTTPConnection | None = None
        self._cancelled = False

    def attach(self, connection: http.client.HTTPConnection) -> bool:
        """Register the attempt's connection; ``False`` once cancelled."""
        with self._lock:
            self._connection = connection
            return not self._cancelled

    def __call__(self) -> None:
        with self._lock:
            self._cancelled = True
            if self._connection is not None:
                with contextlib.suppress(OSError):
                    self._connection.close()


class ServiceClient:
    """Blocking HTTP client over one or more replicas of the service."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8642,
        timeout: float = 120.0,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        #: where requests go, each with its own breaker: a plain client
        #: is its own single replica, :meth:`from_address` lists a fleet.
        self.replicas: list[ServiceClient] = [self]
        #: races a fleet's submissions across replicas (unused with one).
        self.hedge: HedgePolicy | None = None
        #: job id -> index of the replica that issued it (fleets only).
        #: Bounded LRU (plus explicit eviction when a result is
        #: retrieved) so a long-lived campaign client never leaks one
        #: entry per job.
        self._pin: "OrderedDict[str, int]" = OrderedDict()
        #: most pinned job ids retained before the oldest are dropped.
        self.pin_limit = 4096
        #: injectable for tests (captures the exact backoff schedule).
        self._sleep: Callable[[float], None] = time.sleep

    @classmethod
    def from_address(
        cls,
        address: str,
        timeout: float = 120.0,
        hedge: HedgePolicy | None = None,
    ) -> "ServiceClient":
        """Parse ``host:port`` (or bare ``:port`` for localhost), or a
        comma-separated fleet of them whose submissions ``hedge`` (by
        default an adaptive :class:`HedgePolicy`) races across
        replicas."""
        replicas = []
        parts = [part.strip() for part in address.split(",") if part.strip()]
        for part in parts or [address]:
            host, _, port_text = part.rpartition(":")
            try:
                port = int(port_text)
            except ValueError:
                raise ServiceError(
                    f"bad server address {part!r} (expected host:port)",
                    status=400, kind="bad-address",
                ) from None
            replicas.append(
                cls(host=host or "127.0.0.1", port=port, timeout=timeout)
            )
        client = replicas[0]
        if len(replicas) > 1:
            client.replicas = replicas
            client.hedge = hedge if hedge is not None else HedgePolicy()
        return client

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- transport -------------------------------------------------------

    def _attempt(
        self,
        method: str,
        path: str,
        payload: bytes | None,
        hedged: bool = False,
        cancel: _Cancel | None = None,
    ) -> dict[str, Any]:
        """One request to this replica over one connection, closed on
        every path.  A hedge race passes ``cancel`` so the other side can
        abort the attempt, and marks its duplicate ``hedged``."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            if cancel is not None and not cancel.attach(connection):
                raise ServiceError(
                    "hedged attempt cancelled before start",
                    status=499, kind="hedge-cancelled",
                )
            headers = {"Content-Type": "application/json"} if payload else {}
            if hedged:
                headers["X-Repro-Hedge"] = "1"
            try:
                connection.request(method, path, body=payload, headers=headers)
                response = connection.getresponse()
                raw = response.read()
            except (OSError, http.client.HTTPException) as exc:
                raise ServiceError(
                    f"cannot reach synthesis server at {self.address}: {exc}",
                    status=503, kind="unreachable",
                ) from exc
            try:
                data = json.loads(raw) if raw else {}
            except json.JSONDecodeError as exc:
                raise ServiceError(
                    f"non-JSON response from server: {exc}",
                    status=502, kind="bad-response",
                ) from exc
            if response.status >= 400:
                error = data.get("error") or {}
                raise ServiceError(
                    error.get("message", f"HTTP {response.status}"),
                    status=response.status,
                    kind=error.get("kind", "error"),
                )
            return data
        finally:
            connection.close()

    @staticmethod
    def _retryable(exc: ServiceError) -> bool:
        """Transport failures and 5xx retry; 4xx never does."""
        return exc.kind in ("unreachable", "bad-response") or exc.status >= 500

    @classmethod
    def _record(cls, replica: "ServiceClient", exc: ServiceError | None
                ) -> None:
        """A success or a 4xx is a healthy server answering; a transport
        failure or a 5xx counts against the replica's breaker."""
        if exc is not None and cls._retryable(exc):
            replica.breaker.record_failure()
        else:
            replica.breaker.record_success()

    def _request(
        self, method: str, path: str, body: dict | None = None
    ) -> dict[str, Any]:
        """The one path every endpoint call takes: route the request,
        retry transport failures and 5xx with backoff until every target
        replica's breaker is open, and pin a fleet submission's job id to
        the replica that issued it."""
        payload = json.dumps(body).encode() if body is not None else None
        targets = self._route(method, path)
        attempt = 0
        while True:
            admitted = [
                replica for replica in targets if replica.breaker.allow()
            ]
            if not admitted:
                raise CircuitOpenError(
                    f"circuit open for "
                    f"{', '.join(replica.address for replica in targets)} "
                    f"(cooling down after consecutive failures)"
                ).with_context(
                    replicas=len(targets), breaker=targets[0].breaker.state,
                )
            try:
                if len(targets) == 1:
                    winner = admitted[0]
                    data = self._call(winner, method, path, payload)
                else:
                    data, winner = self._race(admitted, method, path, payload)
            except ServiceError as exc:
                exc.with_context(retries_used=attempt)
                if (
                    not self._retryable(exc)
                    or attempt >= self.retry.retries
                    or all(replica.breaker.state == CircuitBreaker.OPEN
                           for replica in targets)
                ):
                    raise
                self._sleep(self.retry.backoff(attempt))
                attempt += 1
                continue
            if len(targets) > 1:
                self._remember_pin(
                    data["job"]["id"], self.replicas.index(winner)
                )
            return data

    def _route(self, method: str, path: str) -> "list[ServiceClient]":
        """The replicas a request may go to, in preference order: a
        fleet races submissions over all of them, sends a job's calls to
        the replica that issued it and everything else to the first."""
        if len(self.replicas) == 1 or (method, path) == ("POST", "/jobs"):
            return self.replicas
        if path.startswith("/jobs/"):
            job_id = path.split("/")[2].partition("?")[0]
            return [self._pinned(job_id)]
        return self.replicas[:1]

    def _call(
        self,
        replica: "ServiceClient",
        method: str,
        path: str,
        payload: bytes | None,
    ) -> dict[str, Any]:
        """One attempt on one replica, inline on the caller's thread."""
        try:
            data = replica._attempt(method, path, payload)
        except ServiceError as exc:
            self._record(replica, exc)
            raise exc.with_context(
                replica=replica.address, breaker=replica.breaker.state,
            )
        self._record(replica, None)
        return data

    def _race(
        self,
        order: "list[ServiceClient]",
        method: str,
        path: str,
        payload: bytes | None,
    ) -> "tuple[dict[str, Any], ServiceClient]":
        """One hedged round: the primary at once, a duplicate on the next
        replica after the hedge delay (or as soon as the primary fails);
        the first success wins and the loser is cancelled.  Returns
        ``(data, replica)``."""
        hedge = self.hedge
        assert hedge is not None
        results: SimpleQueue = SimpleQueue()
        cancels: list[_Cancel] = []

        def launch() -> None:
            index = len(cancels)
            cancel = _Cancel()
            cancels.append(cancel)
            if index:
                hedge.fired += 1

            def run() -> None:
                try:
                    results.put((index, order[index]._attempt(
                        method, path, payload, hedged=index > 0,
                        cancel=cancel,
                    )))
                except ServiceError as exc:
                    results.put((index, exc))

            threading.Thread(target=run, daemon=True).start()

        started = hedge.clock()
        launch()
        hedge_delay = hedge.current_delay() if len(order) > 1 else None
        failures: list[ServiceError] = []
        while True:
            timeout = None
            if hedge_delay is not None and len(cancels) == 1:
                timeout = started + hedge_delay - hedge.clock()
                if timeout <= 0:
                    launch()
                    continue
            try:
                index, value = results.get(timeout=timeout)
            except Empty:
                continue
            replica = order[index]
            hedge_fired = len(cancels) > 1
            if not isinstance(value, ServiceError):
                self._record(replica, None)
                hedge.observe(hedge.clock() - started)
                if index:
                    hedge.won += 1
                for cancel in cancels:
                    cancel()
                return value, replica
            self._record(replica, value)
            if not self._retryable(value):
                # An authoritative 4xx answer — the request itself is
                # wrong on every replica; cancel the race and raise.
                for cancel in cancels:
                    cancel()
                raise value.with_context(
                    replica=replica.address, hedge_fired=hedge_fired,
                )
            failures.append(value.with_context(replica=replica.address))
            if not hedge_fired and len(order) > 1:
                # Primary failed fast: promote the hedge immediately.
                launch()
            elif len(failures) == len(cancels):
                raise failures[-1].with_context(
                    hedge_fired=hedge_fired, replicas_tried=len(failures),
                )

    def _remember_pin(self, job_id: str, index: int) -> None:
        self._pin[job_id] = index
        self._pin.move_to_end(job_id)
        while len(self._pin) > self.pin_limit:
            self._pin.popitem(last=False)

    def _pinned(self, job_id: str) -> "ServiceClient":
        index = self._pin.get(job_id)
        if index is None:
            # Job ids are replica-local: guessing a replica would turn a
            # client-side lookup bug into a misleading unknown-job 404.
            raise ServiceError(
                f"job {job_id} is not pinned to any replica (it was not "
                f"submitted through this client, or its pin was dropped "
                f"after the result was retrieved)",
                status=404, kind="unpinned-job",
            )
        self._pin.move_to_end(job_id)
        return self.replicas[index]

    # -- endpoints -------------------------------------------------------

    def health(self) -> dict[str, Any]:
        return self._request("GET", "/health")

    def metrics(self) -> dict[str, Any]:
        return self._request("GET", "/metrics")

    def shutdown(self) -> None:
        self._request("POST", "/shutdown")

    def _submit_body(
        self,
        assay: "Assay | dict",
        spec: "SynthesisSpec | dict | None" = None,
        method: str = "hls",
        priority: int = 0,
        timeout: float | None = None,
        degrade: bool | None = None,
    ) -> dict[str, Any]:
        body: dict[str, Any] = {
            "assay": assay_to_json(assay) if isinstance(assay, Assay)
            else assay,
            "method": method,
            "priority": priority,
        }
        if spec is not None:
            body["spec"] = (
                spec_to_json(spec) if isinstance(spec, SynthesisSpec)
                else spec
            )
        if timeout is not None:
            body["timeout"] = timeout
        if degrade is not None:
            body["degrade"] = degrade
        return body

    def submit(
        self,
        assay: "Assay | dict",
        spec: "SynthesisSpec | dict | None" = None,
        method: str = "hls",
        priority: int = 0,
        timeout: float | None = None,
        degrade: bool | None = None,
    ) -> JobHandle:
        """Submit one synthesis run; returns immediately with a handle.

        Safe to retry/resubmit: the server coalesces on the canonical
        run fingerprint, so a duplicate attaches to the in-flight job or
        is answered from the result store.  ``degrade=False`` opts the
        job out of the greedy-scheduler fallback after an ILP timeout.
        """
        body = self._submit_body(
            assay, spec, method=method, priority=priority,
            timeout=timeout, degrade=degrade,
        )
        data = self._request("POST", "/jobs", body)
        return JobHandle.from_json(data["job"])

    def jobs(self) -> list[JobHandle]:
        data = self._request("GET", "/jobs")
        return [JobHandle.from_json(entry) for entry in data["jobs"]]

    def status(self, job_id: str, wait: float = 0.0) -> JobHandle:
        path = f"/jobs/{job_id}"
        if wait > 0:
            path += f"?wait={wait:g}"
        return JobHandle.from_json(self._request("GET", path)["job"])

    def cancel(self, job_id: str) -> JobHandle:
        return JobHandle.from_json(
            self._request("DELETE", f"/jobs/{job_id}")["job"]
        )

    def result(self, job_id: str) -> dict[str, Any]:
        """The finished job's payload: {"result": ..., "profile": ...}."""
        data = self._request("GET", f"/jobs/{job_id}/result")
        # Terminal: the payload is in hand, the pin has done its job.
        self._pin.pop(job_id, None)
        return data

    def wait(self, job_id: str, deadline: float = 600.0) -> JobHandle:
        """Block (long-polling) until the job finishes or ``deadline``."""
        end = time.monotonic() + deadline
        while True:
            remaining = end - time.monotonic()
            if remaining <= 0:
                raise ServiceError(
                    f"job {job_id} not finished within {deadline:g}s",
                    status=408, kind="wait-timeout",
                )
            handle = self.status(job_id, wait=min(remaining, 30.0))
            if handle.finished:
                return handle

    def synthesize(
        self,
        assay: "Assay | dict",
        spec: "SynthesisSpec | dict | None" = None,
        method: str = "hls",
        deadline: float = 600.0,
        degrade: bool | None = None,
    ) -> dict[str, Any]:
        """Submit, wait, and return the result payload in one call.

        Survives a server restart mid-wait: a restarted server replays
        its journal, so the job lives on under a fresh id — when the old
        id comes back 404, the same body is resubmitted and re-attaches
        by fingerprint (to the replayed job, or straight to its stored
        result).  A fleet also resubmits when the job's replica becomes
        unreachable: the resubmission lands wherever the fleet answers
        first.  Raises :class:`ServiceError` with the job's structured
        error when the solve fails.
        """
        body = self._submit_body(
            assay, spec, method=method, degrade=degrade,
        )
        resubmit_on = {"unknown-job"}
        if len(self.replicas) > 1:
            resubmit_on.add("unreachable")
        end = time.monotonic() + deadline
        resubmissions = 0
        handle = JobHandle.from_json(
            self._request("POST", "/jobs", body)["job"]
        )
        while True:
            remaining = end - time.monotonic()
            if remaining <= 0:
                raise ServiceError(
                    f"job {handle.id} not finished within {deadline:g}s",
                    status=408, kind="wait-timeout",
                )
            try:
                handle = self.wait(handle.id, deadline=remaining)
                if handle.status != "done":
                    error = handle.error or {}
                    raise ServiceError(
                        error.get(
                            "message", f"job {handle.id} {handle.status}"
                        ),
                        status=500,
                        kind=error.get("kind", handle.status),
                    )
                return self.result(handle.id)
            except ServiceError as exc:
                if exc.kind not in resubmit_on or resubmissions >= 3:
                    raise
                resubmissions += 1
                handle = JobHandle.from_json(
                    self._request("POST", "/jobs", body)["job"]
                )


__all__ = [
    "CircuitBreaker",
    "HedgePolicy",
    "JobHandle",
    "RetryPolicy",
    "ServiceClient",
]
