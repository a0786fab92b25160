"""End-to-end tests for the synthesis service (server + client).

A real server runs in a background thread on an ephemeral port with a
real process pool; the typed client talks to it over HTTP.  Kept fast by
solving only the small fixture assays under tight specs.
"""

import threading

import pytest

from repro.errors import ServiceError
from repro.hls import SynthesisSpec, synthesize
from repro.io import json_result_equal
from repro.io.json_io import assay_to_json, result_to_json
from repro.service import ServerConfig, ServiceClient, run_server


def service_spec() -> SynthesisSpec:
    return SynthesisSpec(
        max_devices=6, threshold=2, time_limit=5.0, max_iterations=0
    )


@pytest.fixture(scope="module")
def client(tmp_path_factory):
    """One live server (thread + process pool) shared by the module."""
    config = ServerConfig(
        port=0,
        workers=2,
        store_dir=str(tmp_path_factory.mktemp("svc") / "store"),
        job_timeout=120.0,
        allow_debug=True,
    )
    started = threading.Event()
    holder = {}

    def announce(server):
        holder["port"] = server.port
        started.set()

    thread = threading.Thread(
        target=run_server, args=(config,), kwargs={"announce": announce},
        daemon=True,
    )
    thread.start()
    assert started.wait(20), "server did not start"
    client = ServiceClient(port=holder["port"], timeout=60.0)
    yield client
    client.shutdown()
    thread.join(20)


class TestEndpoints:
    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert health["persistent_store"] is True

    def test_metrics_shape(self, client):
        metrics = client.metrics()
        assert "counters" in metrics
        assert "histograms" in metrics
        assert "store" in metrics
        assert metrics["workers"]["pool_size"] == 2

    def test_unknown_route_404(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/nope")
        assert err.value.status == 404

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.status("job-9999")
        assert err.value.status == 404

    def test_malformed_assay_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit({"not": "an assay"})
        assert err.value.status == 400
        assert err.value.kind == "bad-request"

    def test_unknown_method_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit({"format": 1}, method="quantum")
        assert err.value.status == 400

    def test_removed_solver_backend_400(self, client, linear_assay):
        """Old clients may still ask for the retired pure-Python solver."""
        with pytest.raises(ServiceError) as err:
            client.submit(linear_assay, spec={"backend": "bnb"})
        assert err.value.status == 400
        assert "backend" in str(err.value)

    def test_retired_scheduler_400(self, client, linear_assay):
        """The retired approx-lp scheduler is an unknown scheduler."""
        with pytest.raises(ServiceError) as err:
            client.submit(linear_assay, spec={"scheduler": "approx-lp"})
        assert err.value.status == 400
        assert "approx-lp" in str(err.value)


class TestSolves:
    def test_server_result_equals_direct(self, client, linear_assay):
        spec = service_spec()
        payload = client.synthesize(linear_assay, spec, deadline=120.0)
        direct = result_to_json(synthesize(linear_assay, spec),
                                deterministic=True)
        assert json_result_equal(payload["result"], direct)
        assert payload["profile"]["totals"]["ilp_solves"] >= 1

    def test_resubmission_hits_the_store(self, client, linear_assay):
        spec = service_spec()
        client.synthesize(linear_assay, spec, deadline=120.0)
        before = client.metrics()["counters"].get("store_hits", 0)
        handle = client.submit(linear_assay, spec)
        assert handle.status == "done"
        assert handle.source == "store"
        after = client.metrics()["counters"]["store_hits"]
        assert after == before + 1

    def test_different_spec_is_a_different_run(self, client, linear_assay):
        spec = service_spec()
        other = SynthesisSpec(
            max_devices=5, threshold=2, time_limit=5.0, max_iterations=0
        )
        a = client.synthesize(linear_assay, spec, deadline=120.0)
        handle = client.submit(linear_assay, other)
        handle = client.wait(handle.id, deadline=120.0)
        assert handle.status == "done"
        b = client.result(handle.id)
        assert a["job"]["fingerprint"] != b["job"]["fingerprint"]

    def test_synthesis_failure_is_structured(self, client, linear_assay):
        bad = SynthesisSpec(
            max_devices=1, threshold=2, time_limit=5.0, max_iterations=0
        )
        handle = client.submit(linear_assay, bad)
        handle = client.wait(handle.id, deadline=120.0)
        if handle.status == "failed":  # 1 device may or may not suffice
            assert handle.error["kind"] in ("synthesis-failed", "bad-request")
            with pytest.raises(ServiceError):
                client.result(handle.id)

    def test_jobs_listing(self, client):
        jobs = client.jobs()
        assert jobs, "previous tests should have left history"
        assert all(j.id.startswith("job-") for j in jobs)


class TestCrashRecovery:
    def test_worker_death_fails_only_that_job(self, client, linear_assay):
        crash = client.submit({"format": 1}, method="debug-crash")
        crash = client.wait(crash.id, deadline=60.0)
        assert crash.status == "failed"
        assert crash.error["kind"] == "worker-crashed"
        # The server survives and keeps solving.
        payload = client.synthesize(
            linear_assay, service_spec(), deadline=120.0
        )
        assert payload["result"]["num_devices"] >= 1
        assert client.metrics()["counters"]["worker_restarts"] >= 1


class TestClientParsing:
    def test_from_address(self):
        client = ServiceClient.from_address("example.org:1234")
        assert (client.host, client.port) == ("example.org", 1234)
        assert ServiceClient.from_address(":8642").host == "127.0.0.1"

    def test_bad_address(self):
        with pytest.raises(ServiceError) as err:
            ServiceClient.from_address("no-port")
        assert err.value.kind == "bad-address"

    def test_unreachable_server(self):
        client = ServiceClient(port=1, timeout=2.0)
        with pytest.raises(ServiceError) as err:
            client.health()
        assert err.value.status == 503

    def test_submit_accepts_raw_dicts(self, client, linear_assay):
        handle = client.submit(assay_to_json(linear_assay))
        handle = client.wait(handle.id, deadline=120.0)
        assert handle.status == "done"
