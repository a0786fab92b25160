"""The ``service-mix`` workload: ``repro-hls serve`` under a closed loop.

The server runs in its own process (``python3 -m repro.cli serve``) with a
fresh store and journal and one worker.  Two client threads, each with its
own :class:`repro.service.ServiceClient`, send the next request as soon as
the previous one returned (closed loop).  Server-side numbers come from
``/metrics``.
"""

from __future__ import annotations

import itertools
import shutil
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path

from repro.errors import ReproError
from repro.service import ServiceClient

from batch import Outcome
from checks import check_report, chip_objective
from common import WORK, digest, program_env, tree_peak_rss_mb
from inputs import SERVICE_PROTOCOLS, greedy_job, protocol_job, service_round

HERE = Path(__file__).resolve().parent
CLIENTS = 2
#: distinct cold greedy jobs (and as many repeats) per round.  Rounds are
#: short so that the reference, which runs only between rounds (the client
#: threads and the server share the machine's cores), is sampled often.
COLD_PER_ROUND = 10
#: each round sends the next protocol request; there are this many.
MAX_ROUNDS = len(SERVICE_PROTOCOLS)
#: rounds whose protocol answers (each job at the default threshold) give
#: the quality sums.
QUALITY_ROUNDS = 3


class Server:
    """One ``serve`` process with its own store directory."""

    def __init__(self, name: str, trace_out: Path | None = None) -> None:
        self.dir = WORK / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.log = self.dir / "serve.log"
        argv = ["serve", "--host", "127.0.0.1", "--port", "0",
                "--workers", "1", "--store-dir", str(self.dir / "store")]
        if trace_out is None:
            command = [sys.executable, "-m", "repro.cli", *argv]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"),
                       str(trace_out), *argv]
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT,
                env=program_env(),
            )
        self.port = self._await_port()

    def _await_port(self, timeout: float = 60.0) -> int:
        end = time.monotonic() + timeout
        while time.monotonic() < end:
            text = self.log.read_text(errors="replace")
            if "listening on" in text:
                address = text.split("listening on", 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"server did not start:\n{text}")

    def client(self) -> ServiceClient:
        return ServiceClient(port=self.port, timeout=120.0)

    def stop(self) -> None:
        """Ask the server to shut down; kill it if it does not exit."""
        if self.proc.poll() is None:
            try:
                self.client().shutdown()
                self.proc.wait(timeout=30)
            except (ReproError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait(timeout=30)
        shutil.rmtree(self.dir / "store", ignore_errors=True)


def warm_up(server: Server) -> None:
    """Start the worker and pay its first ILP and greedy solves."""
    client = server.client()
    for job in (protocol_job("kin1"), greedy_job(40, 1)):
        client.synthesize(job.assay, job.spec("off"))


def cold_start(name: str) -> float:
    """Seconds from launching a server to the result of its first job."""
    started = time.perf_counter()
    server = Server(name)
    try:
        warm_up(server)
        return time.perf_counter() - started
    finally:
        server.stop()


def _traced_request(tracer, original):
    """Client spans per endpoint around ``ServiceClient._request``."""

    def request(self, method, path, body=None):
        if method == "POST":
            name = "service.submit"
        elif path.endswith("/result"):
            name = "service.result"
        else:
            name = "service.wait"
        return tracer.call(name, original, self, method, path, body)

    return request


def run_service(
    server: Server,
    seed: int,
    seconds: float,
    golden: dict[str, dict],
    tracer=None,
    tamper: int | None = None,
    cold_per_round: int = COLD_PER_ROUND,
) -> tuple[Outcome, dict, dict]:
    """Closed-loop rounds until ``seconds`` are used; returns the outcome
    and the ``/metrics`` snapshots before and after the timed rounds."""
    outcome = Outcome()
    lock = threading.Lock()
    #: (body, first answer) of every cold request, for repeats.
    finished: list[tuple[tuple[dict, dict], dict]] = []
    clients = [server.client() for _ in range(CLIENTS)]
    original_request = ServiceClient._request
    if tracer is not None:
        tracer.clear()
        ServiceClient._request = _traced_request(tracer, original_request)

    def send(client, body):
        if tracer is None:
            return client.synthesize(*body)
        return tracer.call("job", client.synthesize, *body)

    answers: list[tuple] = []
    #: every request is its own job for the latency percentiles.
    request_ids = itertools.count()

    def handle(client, request) -> None:
        with lock:
            if request.kind == "repeat" and not finished:
                outcome.record("repeat", ["no finished body to repeat"])
                return
            if request.kind == "repeat":
                body, original = finished[request.pick % len(finished)]
            else:
                body, original = request.body, None
        started = time.perf_counter()
        try:
            payload = send(client, body)
        except ReproError as exc:
            with lock:
                outcome.record(request.kind, [f"request failed: {exc}"])
            return
        elapsed = time.perf_counter() - started
        with lock:
            kind = "hit" if request.kind == "repeat" else "cold"
            outcome.unsettled.append((kind, next(request_ids), elapsed))
            if request.kind == "cold":
                finished.append((body, payload["result"]))
            answers.append((request, body, original, payload))

    def check_answers(first_round: bool) -> None:
        """Checks run between rounds, outside the timed closed loop."""
        for request, body, original, payload in answers:
            report = payload["result"]
            if tamper is not None and outcome.attempted == tamper:
                report["layers"][0]["placements"].pop()
            problems = check_report(report, *body)
            if original is not None and digest(report) != digest(original):
                problems.append("repeat differs from the first answer")
            if request.kind == "protocol":
                problems += _check_protocol(
                    request.name, payload, golden, outcome, first_round, body
                )
            outcome.record(request.kind, problems)
        answers.clear()

    def client_loop(client, pending: deque) -> None:
        while True:
            with lock:
                if not pending:
                    return
                request = pending.popleft()
            handle(client, request)

    walls: list[float] = []
    before = clients[0].metrics()
    started = time.perf_counter()
    outcome.ref.sample()
    try:
        for round_index in range(MAX_ROUNDS):
            pending = deque(service_round(seed, round_index, cold_per_round))
            threads = [
                threading.Thread(target=client_loop, args=(client, pending))
                for client in clients
            ]
            round_started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            walls.append(time.perf_counter() - round_started)
            outcome.ref.sample()
            check_answers(first_round=round_index < QUALITY_ROUNDS)
            elapsed = time.perf_counter() - started
            per_round = elapsed / (round_index + 1)
            if (round_index + 1 >= QUALITY_ROUNDS
                    and elapsed + per_round > seconds):
                break
    finally:
        ServiceClient._request = original_request
    # The server's processes do the work while the reference can only run
    # between rounds; single samples there track the machine worse than
    # the run's median, so every round is normalized by the median.
    outcome.settle(outcome.ref.unit)
    outcome.rounds = [(wall, wall / outcome.ref.unit) for wall in walls]
    after = clients[0].metrics()
    outcome.peak_rss_mb = tree_peak_rss_mb(server.proc.pid)
    return outcome, before, after


def _check_protocol(name, payload, golden, outcome, first_round, body):
    """Protocol ILP answers must match the in-process golden outputs."""
    job, threshold = name.split("@")
    expected = golden.get(f"{job}/auto/{float(threshold)}")
    report = payload["result"]
    periodic = payload.get("periodic") or {}
    problems = []
    if expected is None or digest(report) != expected["report"]:
        problems.append("report differs from the golden output")
    if expected is None or periodic.get("ii") != expected["ii"]:
        problems.append(f"II {periodic.get('ii')} differs from the golden")
    if first_round:
        quality = outcome.quality
        quality["makespan_sum"] += report["fixed_makespan"]
        quality["objective_sum"] += chip_objective(report, body[1])
        quality["storage_cost_sum"] += report["storage"]["total_cost"]
        quality["ii_sum"] += periodic.get("ii", 0)
    return problems
