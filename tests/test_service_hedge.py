"""Tests for hedged fleet requests (repro.service.client.HedgePolicy and
a ServiceClient over several replicas) and the attempt-context satellite
on ServiceError."""

import json
import threading
import time
from http.server import (
    BaseHTTPRequestHandler,
    HTTPServer,
    ThreadingHTTPServer,
)

import pytest

from repro.errors import CircuitOpenError, ServiceError
from repro.service.client import (
    CircuitBreaker,
    HedgePolicy,
    RetryPolicy,
    ServiceClient,
)


class StubReplica:
    """A minimal /jobs endpoint with a configurable response delay."""

    def __init__(self, name: str, delay: float = 0.0, status: int = 200,
                 error_kind: str = "error"):
        self.name = name
        self.delay = delay
        self.status = status
        self.error_kind = error_kind
        #: headers of every request that reached this replica.
        self.requests: list[dict] = []
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802 - http.server API
                stub.requests.append(dict(self.headers))
                time.sleep(stub.delay)
                if stub.status >= 400:
                    body = json.dumps({
                        "error": {
                            "kind": stub.error_kind,
                            "message": f"{stub.name} says no",
                        }
                    }).encode()
                else:
                    body = json.dumps({
                        "job": {
                            "id": f"job-{stub.name}",
                            "fingerprint": "fp",
                            "status": "pending",
                        }
                    }).encode()
                try:
                    self.send_response(stub.status)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                except OSError:
                    pass  # client cancelled us mid-write

            def log_message(self, *args):  # silence
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()

    def close(self):
        self.server.shutdown()
        self.server.server_close()

    def client(self, **kwargs) -> ServiceClient:
        kwargs.setdefault("retry", RetryPolicy(retries=0, seed=0))
        return ServiceClient(port=self.port, timeout=10.0, **kwargs)


def fleet_client(ports, hedge, retry) -> ServiceClient:
    """One client over loopback replicas on ``ports``."""
    fleet = ServiceClient.from_address(
        ",".join(f"127.0.0.1:{port}" for port in ports),
        timeout=10.0, hedge=hedge,
    )
    fleet.retry = retry
    return fleet


@pytest.fixture
def replicas():
    created = []

    def make(*args, **kwargs):
        stub = StubReplica(*args, **kwargs)
        created.append(stub)
        return stub

    yield make
    for stub in created:
        stub.close()


class TestHedgePolicy:
    def test_validation(self):
        with pytest.raises(ServiceError):
            HedgePolicy(delay=-1.0)
        with pytest.raises(ServiceError):
            HedgePolicy(percentile=0.0)
        with pytest.raises(ServiceError):
            HedgePolicy(percentile=1.5)
        with pytest.raises(ServiceError):
            HedgePolicy(min_samples=0)
        with pytest.raises(ServiceError):
            HedgePolicy(min_samples=8, max_samples=4)

    def test_fixed_delay_wins(self):
        policy = HedgePolicy(delay=0.25)
        for value in (1.0, 2.0, 3.0):
            policy.observe(value)
        assert policy.current_delay() == 0.25

    def test_initial_delay_until_enough_samples(self):
        policy = HedgePolicy(min_samples=3, initial_delay=0.7)
        policy.observe(0.1)
        policy.observe(0.2)
        assert policy.current_delay() == 0.7

    def test_percentile_of_samples(self):
        policy = HedgePolicy(min_samples=5, percentile=0.5)
        for value in (5.0, 1.0, 4.0, 2.0, 3.0, 6.0, 7.0, 8.0, 9.0, 10.0):
            policy.observe(value)
        # 10 samples, p50 -> nearest rank ceil(0.5*10) = 5th -> 5.0
        assert policy.current_delay() == 5.0
        policy.percentile = 1.0
        assert policy.current_delay() == 10.0
        # 8 samples, p95 -> nearest rank ceil(0.95*8) = 8th: the maximum.
        policy = HedgePolicy(min_samples=8, percentile=0.95)
        for value in (3.0, 8.0, 1.0, 6.0, 2.0, 7.0, 5.0, 4.0):
            policy.observe(value)
        assert policy.current_delay() == 8.0

    def test_sample_window_is_bounded(self):
        policy = HedgePolicy(min_samples=1, max_samples=4)
        for value in range(10):
            policy.observe(float(value))
        assert policy.counters()["samples"] == 4


class TestFleetHedging:
    def test_hedge_fires_and_duplicate_wins(self, replicas):
        slow = replicas("slow", delay=1.5)
        fast = replicas("fast", delay=0.0)
        fleet = fleet_client(
            [slow.port, fast.port],
            hedge=HedgePolicy(delay=0.1),
            retry=RetryPolicy(retries=0, seed=0),
        )
        handle = fleet.submit({"format": 1})
        assert handle.id == "job-fast"
        assert fleet.hedge.fired == 1
        assert fleet.hedge.won == 1
        # The duplicate (and only it) carried the hedge marker.
        assert all(
            "X-Repro-Hedge" not in req for req in slow.requests
        )
        assert all(
            req.get("X-Repro-Hedge") == "1" for req in fast.requests
        )
        # Follow-ups pin to the issuing replica.
        assert fleet._pinned(handle.id) is fleet.replicas[1]

    def test_fast_primary_never_hedges(self, replicas):
        fast = replicas("fast", delay=0.0)
        other = replicas("other", delay=0.0)
        fleet = fleet_client(
            [fast.port, other.port],
            hedge=HedgePolicy(delay=5.0),
            retry=RetryPolicy(retries=0, seed=0),
        )
        handle = fleet.submit({"format": 1})
        assert handle.id == "job-fast"
        assert fleet.hedge.fired == 0
        assert other.requests == []

    def test_dead_primary_promotes_hedge_immediately(self, replicas):
        fast = replicas("fast", delay=0.0)
        fleet = fleet_client(
            [1, fast.port],  # nothing listens on port 1
            hedge=HedgePolicy(delay=30.0),  # would never fire by timer
            retry=RetryPolicy(retries=0, seed=0),
        )
        handle = fleet.submit({"format": 1})
        assert handle.id == "job-fast"
        assert fleet.hedge.fired == 1

    def test_all_replicas_down_raises_with_context(self):
        fleet = fleet_client(
            [1, 2],
            hedge=HedgePolicy(delay=0.0),
            retry=RetryPolicy(retries=0, seed=0),
        )
        fleet._sleep = lambda _seconds: None
        with pytest.raises(ServiceError) as err:
            fleet.submit({"format": 1})
        assert err.value.kind == "unreachable"
        assert err.value.context["replicas_tried"] == 2
        assert err.value.context["hedge_fired"] is True
        assert err.value.context["retries_used"] == 0
        # The satellite contract: the message alone tells the story.
        assert "replicas_tried=2" in str(err.value)

    def test_authoritative_4xx_is_not_retried(self, replicas):
        bad = replicas("bad", status=400, error_kind="bad-request")
        other = replicas("other", delay=5.0)
        fleet = fleet_client(
            [bad.port, other.port],
            hedge=HedgePolicy(delay=10.0),
            retry=RetryPolicy(retries=3, seed=0),
        )
        started = time.monotonic()
        with pytest.raises(ServiceError) as err:
            fleet.submit({"format": 1})
        assert err.value.status == 400
        assert err.value.kind == "bad-request"
        assert "replica=" in str(err.value)
        assert time.monotonic() - started < 4.0  # no retry backoff
        assert len(bad.requests) == 1
        # A 4xx is a healthy server answering: the breaker stays closed.
        assert fleet.replicas[0].breaker.state == "closed"

    def test_all_breakers_open_fails_fast(self, replicas):
        fast = replicas("fast")
        tripped = CircuitBreaker(threshold=1, cooldown=60.0)
        tripped.record_failure()
        fleet = fast.client(breaker=tripped)
        with pytest.raises(CircuitOpenError) as err:
            fleet.submit({"format": 1})
        assert err.value.context["replicas"] == 1
        assert fast.requests == []


    def test_race_claims_probes_only_of_replicas_it_contacts(self, replicas):
        """Both breakers half-open: the primary answers before the hedge
        fires, so the second replica is never contacted and its probe must
        stay unclaimed (it was claimed up front and leaked, refusing that
        replica for the client's lifetime)."""
        now = [0.0]
        primary = replicas("primary")
        second = replicas("second")
        fleet = fleet_client(
            [primary.port, second.port],
            hedge=HedgePolicy(delay=30.0),
            retry=RetryPolicy(retries=0, seed=0),
        )
        for replica in fleet.replicas:
            replica.breaker = CircuitBreaker(
                threshold=1, cooldown=10.0, clock=lambda: now[0]
            )
            replica.breaker.record_failure()
        now[0] = 11.0
        assert [r.breaker.state for r in fleet.replicas] == ["half-open"] * 2
        handle = fleet.submit({"format": 1})
        assert handle.id == "job-primary"
        assert second.requests == []
        assert fleet.replicas[0].breaker.state == "closed"
        # The untouched replica still admits its one half-open probe.
        assert fleet.replicas[1].breaker.allow()
        assert not fleet.replicas[1].breaker.allow()


class TestFleetPins:
    """The job-id -> replica pin table is bounded and loud on misses."""

    def _fleet(self) -> ServiceClient:
        return fleet_client(
            [1, 2], hedge=HedgePolicy(delay=0.0),
            retry=RetryPolicy(retries=0, seed=0),
        )

    def test_unknown_job_id_raises_instead_of_guessing(self):
        """Job ids are replica-local: falling back to replica 0 would
        turn a client-side lookup bug into a misleading 404 from an
        arbitrary server."""
        fleet = self._fleet()
        with pytest.raises(ServiceError) as err:
            fleet.status("job-nope")
        assert err.value.kind == "unpinned-job"
        assert err.value.status == 404

    def test_result_evicts_pin(self, monkeypatch):
        fleet = self._fleet()
        fleet._remember_pin("job-1", 1)
        monkeypatch.setattr(
            ServiceClient, "_attempt", lambda self, *args: {"ok": True}
        )
        assert fleet.result("job-1") == {"ok": True}
        assert "job-1" not in fleet._pin
        with pytest.raises(ServiceError) as err:
            fleet.result("job-1")
        assert err.value.kind == "unpinned-job"

    def test_pin_table_is_bounded(self):
        fleet = self._fleet()
        fleet.pin_limit = 8
        for n in range(20):
            fleet._remember_pin(f"job-{n}", n % 2)
        assert len(fleet._pin) == 8
        assert "job-19" in fleet._pin
        assert "job-11" not in fleet._pin


class JobStub:
    """A job endpoint on a plain ``HTTPServer``: requests are answered
    one at a time on the serving thread.  Every submission gets a fresh
    job id; the first ``lost`` status calls answer 404 ``unknown-job``,
    as a restarted server does for the ids it handed out before."""

    def __init__(self, lost: int = 0):
        self.lost = lost
        self.submits = 0
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def _answer(self, status, body):
                raw = json.dumps(body).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(raw)))
                self.end_headers()
                self.wfile.write(raw)

            def do_POST(self):  # noqa: N802 - http.server API
                self.rfile.read(int(self.headers["Content-Length"]))
                stub.submits += 1
                self._answer(200, {"job": {
                    "id": f"job-{stub.submits}", "fingerprint": "fp",
                    "status": "pending",
                }})

            def do_GET(self):  # noqa: N802 - http.server API
                job_id = self.path.split("/")[2].partition("?")[0]
                if self.path.endswith("/result"):
                    self._answer(200, {"result": {"job": job_id}})
                elif stub.lost > 0:
                    stub.lost -= 1
                    self._answer(404, {"error": {
                        "kind": "unknown-job",
                        "message": f"no job {job_id}",
                    }})
                else:
                    self._answer(200, {"job": {
                        "id": job_id, "fingerprint": "fp",
                        "status": "done",
                    }})

            def log_message(self, *args):  # silence
                pass

        self.server = HTTPServer(("127.0.0.1", 0), Handler)
        self.port = self.server.server_address[1]
        threading.Thread(
            target=self.server.serve_forever, daemon=True
        ).start()

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def job_stubs():
    created = []

    def make(lost: int = 0) -> JobStub:
        stub = JobStub(lost)
        created.append(stub)
        return stub

    yield make
    for stub in created:
        stub.close()


def job_client(stubs: list, replicas: int) -> ServiceClient:
    """A plain client on the first stub, or a fleet over both whose
    hedge never fires (so every call lands on the first)."""
    if replicas == 1:
        return ServiceClient(
            port=stubs[0].port, timeout=10.0,
            retry=RetryPolicy(retries=0, seed=0),
        )
    return fleet_client(
        [stub.port for stub in stubs], hedge=HedgePolicy(delay=30.0),
        retry=RetryPolicy(retries=0, seed=0),
    )


class TestSynthesizeReattach:
    """``synthesize`` resubmits the same body when a job id comes back
    404 ``unknown-job`` mid-wait, at most three times."""

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_unknown_job_resubmits_and_reattaches(self, job_stubs, replicas):
        stubs = [job_stubs(lost=1), job_stubs()]
        client = job_client(stubs, replicas)
        payload = client.synthesize({"format": 1})
        assert payload == {"result": {"job": "job-2"}}
        assert stubs[0].submits == 2
        assert stubs[1].submits == 0

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_fourth_unknown_job_raises(self, job_stubs, replicas):
        stubs = [job_stubs(lost=4), job_stubs()]
        client = job_client(stubs, replicas)
        with pytest.raises(ServiceError) as err:
            client.synthesize({"format": 1})
        assert err.value.kind == "unknown-job"
        assert stubs[0].submits == 4  # the first try + 3 resubmissions


class TestInlineOneReplica:
    def test_no_thread_and_no_pin(self, job_stubs, monkeypatch):
        """A one-replica client runs every request on the caller's
        thread and keeps no pin table: the path service clients with a
        single server take must never move onto the hedge race."""
        stub = job_stubs()
        client = job_client([stub], 1)

        def no_thread(self):
            raise AssertionError("a one-replica request started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        handle = client.submit({"format": 1})
        assert client.status(handle.id).status == "done"
        assert client.result(handle.id) == {"result": {"job": "job-1"}}
        assert client.hedge is None
        assert client._pin == {}


class TestAttemptContext:
    """Satellite: ServiceError carries the attempt history."""

    def test_with_context_folds_into_message(self):
        exc = ServiceError("boom", status=503, kind="unreachable")
        assert exc.with_context(replica="h:1", retries_used=2) is exc
        assert exc.context == {"replica": "h:1", "retries_used": 2}
        assert str(exc) == "boom [replica=h:1, retries_used=2]"

    def test_single_client_attaches_context(self):
        client = ServiceClient(
            port=1, timeout=1.0, retry=RetryPolicy(retries=1, seed=0),
        )
        client._sleep = lambda _seconds: None
        with pytest.raises(ServiceError) as err:
            client.health()
        assert err.value.context["retries_used"] == 1
        assert err.value.context["replica"] == "127.0.0.1:1"
        assert "breaker" in err.value.context

    def test_circuit_open_error_carries_breaker_state(self):
        breaker = CircuitBreaker(threshold=1, cooldown=60.0)
        breaker.record_failure()
        client = ServiceClient(port=1, breaker=breaker)
        with pytest.raises(CircuitOpenError) as err:
            client.health()
        assert err.value.context["breaker"] == "open"
