"""Chaos-injection harness for the synthesis service.

Runs a *real* in-process server (thread + asyncio + process pool) and a
deterministic fault campaign against it, in the spirit of the
cyberphysical runtime's fault plans (:mod:`repro.cyberphysical.faults`):
the faults are declared up front, injected at fixed points, and the
whole campaign is reproducible from its seed.  Four fault kinds map the
PR-2 vocabulary onto the service layer:

* **worker-kill** — a worker process dies mid-job (SIGKILL semantics via
  the gated ``debug-crash`` method); the job must fail structured
  (``worker-crashed``) and the server must keep serving.
* **slow-solve** — a job whose wall-clock budget is far below its solve
  time; the server must answer with a ``degraded``-flagged greedy
  result instead of failing.
* **store-corrupt** — finished entries are truncated to zero bytes or
  payload-tampered under an intact envelope; reads must quarantine them
  (never crash) and re-solve.
* **journal-crash** — the server is hard-stopped with jobs still
  pending/running, and the journal tail is torn mid-record; a restarted
  server must replay the journal and finish every interrupted job.

The campaign's verdict (:class:`ChaosReport`) checks the tentpole
invariants: every submitted job reaches a terminal state, every
corruption lands in ``quarantine/`` with the ``corruptions`` counter
matching, the journal replay count is exactly the number of jobs open at
the crash, and every non-degraded result is byte-identical to a
fault-free in-process solve of the same request.

Determinism note: the spec *variants* the campaign fabricates differ
only in ``improvement_threshold`` under ``max_iterations=0`` — a knob
that changes the run fingerprint (so each variant is a distinct job)
but provably cannot change the result when no refinement pass may run —
which lets one fault-free baseline solve per case verify every variant.
The slow-solve body is the exception: it lowers ``max_devices`` so its
layer problems differ from everything the server's warm layer-solve
cache holds — the solve cannot be shortcut inside the fault's tiny
budget — and it therefore carries its own baseline.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import random
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..errors import ServiceError
from .client import JobHandle, RetryPolicy, ServiceClient
from .server import ServerConfig, SynthesisServer
from .worker import run_job

#: improvement_threshold values carving distinct fingerprints out of the
#: same solve class (inert under max_iterations=0; see module docstring).
_VARIANT_EXTRA = 0.011
_VARIANT_WAVE2 = 0.013


@dataclass
class ChaosConfig:
    """One deterministic chaos campaign."""

    seed: int = 0
    #: duplicate submissions layered on wave 1 (coalescing/store-hit
    #: pressure); the CLI's ``--jobs``.
    jobs: int = 2
    #: paper benchmark cases to build requests from (ignored when
    #: ``requests`` is given).
    cases: tuple[int, ...] = (1, 2)
    #: explicit submission bodies ``{"assay": ..., "spec": ...}``
    #: (tests use tiny fixture assays here).
    requests: "list[dict] | None" = None
    #: parent directory for the campaign's store + journal; a fresh
    #: subdirectory is always created (system temp dir when ``None``)
    #: and left behind for post-mortem inspection.
    workdir: str | None = None
    workers: int = 2
    #: per-layer ILP budget for the generated case specs.
    time_limit: float = 30.0
    #: client-side wait per job, seconds.
    deadline: float = 600.0
    # -- fault toggles / tuning -----------------------------------------
    kill_worker: bool = True
    slow_solve: bool = True
    #: wall-clock budget of the slow-solve job; must sit between the
    #: idle-server dispatch latency (ms) and the solve time.
    slow_timeout: float = 0.5
    corrupt_store: bool = True
    torn_journal: bool = True


@dataclass
class ChaosReport:
    """Campaign outcome; ``ok`` is the CI verdict."""

    #: the campaign's store/journal directory (post-mortem artifact).
    workdir: str = ""
    #: unique requests whose results the campaign must account for.
    submitted: int = 0
    verified: int = 0
    #: expected results that never reached a terminal ``done`` state.
    lost: int = 0
    #: non-degraded results that differed from the fault-free baseline.
    mismatched: int = 0
    degraded_observed: int = 0
    degraded_expected: int = 0
    worker_crashes: int = 0
    worker_crashes_expected: int = 0
    replayed: int = 0
    replayed_expected: int = 0
    corruptions: int = 0
    corruptions_injected: int = 0
    quarantined: int = 0
    torn_records: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.lost == 0
            and self.mismatched == 0
            and self.verified == self.submitted
            and self.degraded_observed >= self.degraded_expected
            and self.worker_crashes >= self.worker_crashes_expected
            and self.replayed == self.replayed_expected
            and self.corruptions >= self.corruptions_injected
            # every detected corruption must be quarantined, not lost.
            and self.quarantined == self.corruptions
        )

    def to_json(self) -> dict[str, Any]:
        return {"ok": self.ok, **dataclasses.asdict(self)}


def format_chaos(report: ChaosReport) -> str:
    lines = [
        f"verdict        : {'OK' if report.ok else 'FAILED'}",
        f"jobs           : {report.submitted} unique requests, "
        f"{report.verified} verified, {report.lost} lost, "
        f"{report.mismatched} mismatched",
        f"degraded       : {report.degraded_observed} observed "
        f"(expected >= {report.degraded_expected})",
        f"worker crashes : {report.worker_crashes} "
        f"(expected >= {report.worker_crashes_expected})",
        f"journal replay : {report.replayed} jobs "
        f"(expected {report.replayed_expected}), "
        f"{report.torn_records} torn record(s) skipped",
        f"store          : {report.corruptions} corruption(s) detected "
        f"({report.corruptions_injected} injected), "
        f"{report.quarantined} quarantined",
        f"workdir        : {report.workdir}",
    ]
    lines.extend(f"note           : {note}" for note in report.notes)
    return "\n".join(lines)


# -- request fabrication -------------------------------------------------


def _case_body(case: int, time_limit: float) -> dict:
    from ..assays import benchmark_assay
    from ..hls import SynthesisSpec
    from ..io.json_io import assay_to_json, spec_to_json

    spec = SynthesisSpec(
        threshold=4, mip_gap=0.05, time_limit=time_limit, max_iterations=0
    )
    return {
        "assay": assay_to_json(benchmark_assay(case)),
        "spec": spec_to_json(spec),
    }


def _variant(body: dict, improvement_threshold: float) -> dict:
    """A distinct-fingerprint body in the same solve class as ``body``."""
    spec = dict(body.get("spec") or {})
    spec["improvement_threshold"] = improvement_threshold
    spec["max_iterations"] = 0
    return {**body, "spec": spec}


def _slow_body(body: dict) -> dict:
    """A body in a *different* solve class: lowering ``max_devices``
    changes every layer ILP's device-configuration constraints (the
    layering threshold alone may not — single-layer cases keep the same
    layer problem), so the server's shared layer-solve cache (warmed by
    wave 1) cannot shortcut the solve and the slow-solve fault's tiny
    budget reliably times out.  Needs its own fault-free baseline."""
    from ..hls import SynthesisSpec

    spec = dict(body.get("spec") or {})
    base = spec.get("max_devices", SynthesisSpec().max_devices)
    spec["max_devices"] = max(1, int(base) - 1)
    spec["max_iterations"] = 0
    return {**body, "spec": spec}


def _open_jobs_in_journal(journal_dir: Path) -> int:
    """Count jobs with a ``submitted`` record and no terminal record —
    exactly the set a restarted server must replay.  Torn lines are
    skipped, as the journal's own reader does."""
    from .journal import TERMINAL_EVENTS

    submitted: set = set()
    terminal: set = set()
    for segment in sorted(journal_dir.glob("segment-*.jsonl")):
        for line in segment.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            job_id = record.get("id")
            event = record.get("event")
            if not job_id or not event:
                continue
            if event == "submitted":
                submitted.add(job_id)
            elif event in TERMINAL_EVENTS:
                terminal.add(job_id)
    return len(submitted - terminal)


def _body_key(body: dict) -> str:
    return json.dumps(
        {"assay": body["assay"], "spec": body.get("spec")}, sort_keys=True
    )


def _result_bytes(payload: dict) -> str:
    return json.dumps(payload["result"], sort_keys=True)


# -- shared campaign steps -----------------------------------------------


def _request_bodies(config: "ChaosConfig | FleetChaosConfig") -> list[dict]:
    """The campaign's base bodies: its explicit ``requests``, or one
    request per paper case."""
    if config.requests is not None:
        bodies = [dict(body) for body in config.requests]
    else:
        bodies = [_case_body(case, config.time_limit) for case in config.cases]
    if not bodies:
        raise ServiceError("chaos campaign needs at least one request",
                           status=400, kind="bad-request")
    return bodies


def _baseline(families: list[list[dict]]) -> dict[str, str]:
    """Fault-free ground truth: one in-process solve of each family's
    first body, keyed for every body of the family (the variants of a
    family provably share its result; see the module docstring)."""
    baseline: dict[str, str] = {}
    for family in families:
        outcome = run_job({
            "assay": family[0]["assay"], "spec": family[0].get("spec"),
            "method": "hls", "deterministic": True,
        })
        if not outcome or outcome[0] != "ok":
            raise ServiceError(
                f"baseline solve failed: {outcome!r}", status=500
            )
        for body in family:
            baseline[_body_key(body)] = _result_bytes(outcome[1])
    return baseline


def _client(port: int, seed: int) -> ServiceClient:
    """The campaign's client for one server, with a seeded backoff."""
    return ServiceClient(
        port=port, timeout=60.0, retry=RetryPolicy(seed=seed)
    )


def _wait(
    client: ServiceClient,
    job_id: str,
    label: str,
    report: "ChaosReport | FleetChaosReport",
    deadline: float,
    done_only: bool = False,
) -> JobHandle | None:
    """Wait out one job.  A never-terminal job (or, with ``done_only``,
    one that ended other than done) is counted lost and noted, not
    raised: the campaign must always reach its verdict."""
    try:
        done = client.wait(job_id, deadline=deadline)
    except ServiceError as exc:
        report.lost += 1
        report.notes.append(f"{label} job {job_id} never finished: {exc}")
        return None
    if done_only and done.status != "done":
        report.lost += 1
        report.notes.append(
            f"{label} job {done.id} ended {done.status!r}: {done.error!r}"
        )
        return None
    return done


def _fetch(
    client: ServiceClient,
    body: dict,
    label: str,
    report: "ChaosReport | FleetChaosReport",
    deadline: float,
) -> dict | None:
    """Submit ``body`` and wait it out: its result payload, or ``None``
    once the job is counted lost."""
    try:
        handle = client.submit(body["assay"], body.get("spec"))
    except ServiceError as exc:
        report.lost += 1
        report.notes.append(f"{label} submit failed: {exc}")
        return None
    done = _wait(client, handle.id, label, report, deadline, done_only=True)
    return None if done is None else client.result(done.id)


def _verify(
    client: ServiceClient,
    bodies: list[dict],
    baseline: dict[str, str],
    report: "ChaosReport | FleetChaosReport",
    deadline: float,
) -> int:
    """Resubmit every expected body and byte-compare its result with the
    fault-free baseline.  Returns the degraded results: they are flagged,
    never byte-compared, and left to the caller to count."""
    report.submitted = len(bodies)
    degraded = 0
    for body in bodies:
        payload = _fetch(client, body, "verification", report, deadline)
        if payload is None:
            continue
        key = _body_key(body)
        if payload.get("degraded"):
            degraded += 1
        elif _result_bytes(payload) == baseline[key]:
            report.verified += 1
        else:
            report.mismatched += 1
            report.notes.append(f"result mismatch for {key[:48]}…")
    return degraded


# -- in-process server harness -------------------------------------------


class _ServerHarness:
    """One service instance on a background thread, hard-stoppable."""

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self._started = threading.Event()
        self._server: SynthesisServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        async def _main() -> None:
            server = SynthesisServer(self.config)
            await server.start()
            self._server = server
            self._loop = asyncio.get_running_loop()
            self._started.set()
            try:
                await server.serve_until_stopped()
            finally:
                await server.stop()

        try:
            asyncio.run(_main())
        except Exception:  # noqa: BLE001 - surfaced via start() timeout
            self._started.set()

    def start(self) -> None:
        self._thread.start()
        if not self._started.wait(30) or self._server is None:
            raise ServiceError("chaos server did not start", status=500)

    @property
    def port(self) -> int:
        assert self._server is not None
        return self._server.port

    @property
    def server(self) -> SynthesisServer:
        assert self._server is not None
        return self._server

    def hard_stop(self, crash: bool = False) -> None:
        """Stop without draining: pending/running jobs stay open —
        exactly what a crash leaves behind for the journal to replay.
        ``crash=True`` additionally keeps the store lease and in-flight
        claims on disk (a dead replica releases nothing), forcing peers
        through stale-lease takeover and orphaned-claim reclaim."""
        assert self._loop is not None and self._server is not None
        server = self._server
        self._loop.call_soon_threadsafe(
            lambda: asyncio.ensure_future(server.stop(crash=crash))
        )
        self._thread.join(30)

    def graceful_stop(self, client: ServiceClient) -> None:
        try:
            client.shutdown()
        except ServiceError:
            self.hard_stop()
            return
        self._thread.join(30)


# -- fault injection -----------------------------------------------------


def _tamper_entry(path: Path) -> None:
    """Flip the stored payload under an intact envelope: the JSON still
    parses, only the checksum can catch it."""
    envelope = json.loads(path.read_text())
    payload = envelope.get("payload") or {}
    payload["result"] = {"tampered": True, "was": payload.get("result")}
    envelope["payload"] = payload
    # Deliberately NOT recomputing the checksum.
    path.write_text(json.dumps(envelope))


def _truncate_entry(path: Path) -> None:
    """A torn write / lost power artifact: a visible zero-byte entry."""
    path.write_text("")


def _corrupt_store_entries(
    store_dir: Path, spare: set[str], rng: random.Random
) -> list[str]:
    """Corrupt up to two entries (one truncation, one payload tamper),
    never touching fingerprints in ``spare``.  Returns the corrupted
    fingerprints."""
    candidates = sorted(
        path.stem
        for path in store_dir.glob("*.json")
        if path.name != "index.json" and path.stem not in spare
    )
    rng.shuffle(candidates)
    corrupted = []
    modes = [_truncate_entry, _tamper_entry]
    for fingerprint, mode in zip(candidates, modes):
        mode(store_dir / f"{fingerprint}.json")
        corrupted.append(fingerprint)
    return corrupted


def _tear_journal(journal_dir: Path, fabricated: "dict | None") -> int:
    """Append crash artifacts to the active journal segment: optionally a
    *valid* submitted record (simulating a crash in the window between
    ``store.put`` and the ``finished`` record) and always a torn,
    half-written record.  Returns the torn-record count (1)."""
    segments = sorted(journal_dir.glob("segment-*.jsonl"))
    if not segments:
        return 0
    active = segments[-1]
    with open(active, "a", encoding="utf-8") as handle:
        if fabricated is not None:
            handle.write(json.dumps(fabricated) + "\n")
        handle.write('{"schema": 1, "event": "finished", "id": "job-to')
    return 1


# -- the campaign --------------------------------------------------------


def run_chaos(config: ChaosConfig) -> ChaosReport:
    """Run one deterministic chaos campaign; see the module docstring."""
    rng = random.Random(config.seed)
    report = ChaosReport()

    bodies_base = _request_bodies(config)
    extra = _variant(bodies_base[0], _VARIANT_EXTRA)
    degraded_body = _slow_body(bodies_base[0])
    wave1 = bodies_base + [extra]
    wave2 = [_variant(body, _VARIANT_WAVE2) for body in bodies_base]

    # One solve class per base body (improvement-threshold variants
    # share its result); the slow-solve body lowers ``max_devices`` and
    # so carries its own truth.
    families = [[body, wave2[i]] for i, body in enumerate(bodies_base)]
    families[0].append(extra)
    baseline = _baseline(families + [[degraded_body]])

    workdir = Path(tempfile.mkdtemp(
        prefix="repro-chaos-", dir=config.workdir
    ))
    report.workdir = str(workdir)
    store_dir = workdir / "store"
    journal_dir = store_dir / "journal"
    server_config = ServerConfig(
        port=0,
        workers=config.workers,
        store_dir=str(store_dir),
        job_timeout=max(config.deadline, 120.0),
        allow_debug=True,
    )

    # ---- phase A: live traffic -----------------------------------------
    harness_a = _ServerHarness(server_config)
    harness_a.start()
    client_a = _client(harness_a.port, config.seed)

    fingerprints: dict[str, str] = {}
    submissions = list(wave1) + [
        bodies_base[i % len(bodies_base)] for i in range(config.jobs)
    ]
    handles = []
    for body in submissions:
        handle = client_a.submit(body["assay"], body.get("spec"))
        fingerprints[_body_key(body)] = handle.fingerprint
        handles.append(handle)
    for handle in handles:
        done = _wait(client_a, handle.id, "wave-1", report, config.deadline)
        if done is not None and done.status != "done":
            report.notes.append(
                f"wave-1 job {done.id} ended {done.status!r}: {done.error!r}"
            )

    # ---- phase A': worker-kill (after wave 1 — a dying worker fails
    # every job in flight on its pool, which is the point, but the
    # campaign wants exactly one structured casualty) -------------------
    if config.kill_worker:
        report.worker_crashes_expected = 1
        crash = client_a.submit({"format": 1}, method="debug-crash")
        crash = _wait(
            client_a, crash.id, "worker-kill", report, config.deadline
        )
        if crash is None:
            pass
        elif crash.status == "failed" and (
            (crash.error or {}).get("kind") == "worker-crashed"
        ):
            report.worker_crashes = 1
        else:
            report.notes.append(
                f"worker-kill fault produced {crash.status!r} "
                f"({crash.error!r}), expected a worker-crashed failure"
            )

    # ---- phase A'': slow-solve → degraded result (idle server, so the
    # job dispatches within milliseconds and times out mid-solve) -------
    if config.slow_solve:
        report.degraded_expected = 1
        handle = client_a.submit(
            degraded_body["assay"], degraded_body.get("spec"),
            timeout=config.slow_timeout,
        )
        fingerprints[_body_key(degraded_body)] = handle.fingerprint
        done = _wait(
            client_a, handle.id, "slow-solve", report, config.deadline
        )
        if done is None:
            pass
        elif done.status == "done":
            payload = client_a.result(done.id)
            if payload.get("degraded") is True:
                report.degraded_observed += 1
            else:
                report.notes.append(
                    "slow-solve job finished without a degraded flag"
                )
        else:
            report.notes.append(
                f"slow-solve job ended {done.status!r}: {done.error!r}"
            )

    # ---- phase B: crash with jobs in flight ----------------------------
    for body in wave2:
        handle = client_a.submit(body["assay"], body.get("spec"))
        fingerprints[_body_key(body)] = handle.fingerprint
    harness_a.hard_stop()

    # ---- phase C: corrupt disk state -----------------------------------
    spare_fingerprint = fingerprints[_body_key(bodies_base[0])]
    if config.torn_journal:
        # A valid record for an already-stored fingerprint simulates a
        # crash between store.put and the finished record: replay must
        # complete it immediately from the store.
        fabricated = {
            "schema": 1, "ts": 0.0, "event": "submitted",
            "id": "job-fabricated", "fingerprint": spare_fingerprint,
            "request": {
                "assay": bodies_base[0]["assay"],
                "spec": bodies_base[0].get("spec"),
                "method": "hls", "deterministic": True,
            },
            "priority": 0, "timeout": None,
        }
        report.torn_records = _tear_journal(journal_dir, fabricated)

    # The replay expectation is read off the journal itself: wave-2 jobs
    # that were still open at the crash (a warm layer-solve cache can
    # finish one before the stop lands) plus the fabricated record.
    report.replayed_expected = _open_jobs_in_journal(journal_dir)

    if config.corrupt_store:
        corrupted = _corrupt_store_entries(
            store_dir, spare={spare_fingerprint}, rng=rng
        )
        report.corruptions_injected = len(corrupted)

    # ---- phase D: restart, replay, verify ------------------------------
    harness_b = _ServerHarness(server_config)
    harness_b.start()
    client_b = _client(harness_b.port, config.seed + 1)

    expected = list(wave1) + [degraded_body] + wave2
    degraded = _verify(client_b, expected, baseline, report, config.deadline)
    report.degraded_observed += degraded
    report.verified += degraded

    metrics = client_b.metrics()
    counters = metrics.get("counters", {})
    store_block = metrics.get("store", {})
    journal_block = metrics.get("journal", {})
    report.replayed = int(counters.get("journal_replayed", 0))
    report.corruptions = int(store_block.get("corruptions", 0))
    report.quarantined = int(store_block.get("quarantined", 0))
    report.torn_records = max(
        report.torn_records, int(journal_block.get("torn_records", 0))
    )
    harness_b.graceful_stop(client_b)

    return report


# -- fleet scenario ------------------------------------------------------

#: distinct-fingerprint variants for the fleet phases (same inert knob).
_VARIANT_COALESCE = 0.011
_VARIANT_FLEET_WAVE2 = 0.013
_VARIANT_PARTITION = 0.017


@dataclass
class FleetChaosConfig:
    """One deterministic multi-replica chaos campaign."""

    seed: int = 0
    #: paper benchmark cases (ignored when ``requests`` is given).
    cases: tuple[int, ...] = (1,)
    #: explicit submission bodies (tests use tiny fixture assays).
    requests: "list[dict] | None" = None
    workdir: str | None = None
    workers: int = 1
    time_limit: float = 30.0
    deadline: float = 600.0
    # -- fleet protocol tuning (small values keep the campaign fast) ----
    lease_ttl: float = 2.0
    heartbeat_interval: float = 0.2
    claim_ttl: float = 3.0
    peer_poll_interval: float = 0.1
    #: run the partition/fencing phase (suspend the holder's heartbeats,
    #: let a peer take over, resume → the old holder must self-fence).
    partition: bool = True
    #: journal-segment size + compaction pressure for the bounded-bytes
    #: check (tiny values make compaction fire during the campaign).
    journal_segment_records: int = 4
    compact_interval: float = 0.2
    #: closed journal bytes the campaign tolerates at the end (the
    #: compactor must keep the footprint bounded under sustained load).
    journal_bytes_bound: int = 65536


@dataclass
class FleetChaosReport:
    """Multi-replica campaign outcome; ``ok`` is the CI verdict."""

    workdir: str = ""
    replicas: int = 2
    submitted: int = 0
    verified: int = 0
    lost: int = 0
    mismatched: int = 0
    #: fleet-wide solve count for the cross-replica-coalesced
    #: fingerprint (must be exactly 1 — exactly-once computation).
    coalesce_solves: int = -1
    #: submissions answered from a peer's in-flight solve or its shared
    #: store entry (informational).
    peer_served: int = 0
    #: stale-lease takeovers observed across the fleet.
    takeovers: int = 0
    #: store writes rejected on the fenced replica.
    fenced_writes: int = 0
    fenced_expected: int = 0
    replayed: int = 0
    replayed_expected: int = 0
    torn_records: int = 0
    corruptions: int = 0
    quarantined: int = 0
    #: threshold-triggered background compaction runs across the fleet.
    compaction_runs: int = 0
    #: closed journal bytes across all replica journals at the end.
    journal_bytes: int = 0
    journal_bytes_bound: int = 65536
    #: final fencing epoch of the surviving holder.
    epoch_final: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.lost == 0
            and self.mismatched == 0
            and self.verified == self.submitted
            and self.coalesce_solves == 1
            and self.takeovers >= 1
            and self.fenced_writes >= self.fenced_expected
            and self.replayed == self.replayed_expected
            and self.corruptions == 0
            and self.quarantined == 0
            and self.compaction_runs >= 1
            and self.journal_bytes <= self.journal_bytes_bound
        )

    def to_json(self) -> dict[str, Any]:
        return {"ok": self.ok, **dataclasses.asdict(self)}


def format_fleet_chaos(report: FleetChaosReport) -> str:
    lines = [
        f"verdict        : {'OK' if report.ok else 'FAILED'}",
        f"jobs           : {report.submitted} unique requests, "
        f"{report.verified} verified, {report.lost} lost, "
        f"{report.mismatched} mismatched",
        f"coalescing     : {report.coalesce_solves} solve(s) for the "
        f"shared fingerprint (expected exactly 1), "
        f"{report.peer_served} peer-served submission(s)",
        f"lease          : {report.takeovers} takeover(s), final epoch "
        f"{report.epoch_final}, {report.fenced_writes} fenced write(s) "
        f"(expected >= {report.fenced_expected})",
        f"journal        : {report.replayed} replayed "
        f"(expected {report.replayed_expected}), "
        f"{report.torn_records} torn record(s), "
        f"{report.compaction_runs} compaction run(s), "
        f"{report.journal_bytes} closed byte(s) "
        f"(bound {report.journal_bytes_bound})",
        f"store          : {report.corruptions} corruption(s), "
        f"{report.quarantined} quarantined (both must be 0)",
        f"workdir        : {report.workdir}",
    ]
    lines.extend(f"note           : {note}" for note in report.notes)
    return "\n".join(lines)


def _poll(predicate, timeout: float, interval: float = 0.05) -> bool:
    """Spin until ``predicate()`` or ``timeout`` seconds elapse."""
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(interval)
    return bool(predicate())


def run_fleet_chaos(config: FleetChaosConfig) -> FleetChaosReport:
    """Run one deterministic multi-replica chaos campaign.

    Phases: (1) two replicas over one store, wave-1 traffic on the
    holder; (2) cross-replica coalescing — the same fingerprint
    submitted to both replicas must compute exactly once fleet-wide;
    (3) kill the lease holder with jobs in flight — the follower must
    take over the lease, reclaim the orphaned in-flight claims, and
    finish everything; a restart of the dead replica must replay its
    journal losslessly over crash artifacts (torn tail, stale tmp);
    (4) partition the new holder — a peer takes over, the resumed
    holder must fence itself and degrade to read-only store access
    while still serving its own results; (5) resubmit everything and
    byte-compare against fault-free single-process baselines.
    """
    report = FleetChaosReport(
        journal_bytes_bound=config.journal_bytes_bound
    )

    bodies_base = _request_bodies(config)
    coalesce_body = _variant(bodies_base[0], _VARIANT_COALESCE)
    wave2 = [_variant(body, _VARIANT_FLEET_WAVE2) for body in bodies_base]
    partition_body = _variant(bodies_base[0], _VARIANT_PARTITION)

    families = [[body, wave2[i]] for i, body in enumerate(bodies_base)]
    families[0] += [coalesce_body, partition_body]
    baseline = _baseline(families)

    workdir = Path(tempfile.mkdtemp(
        prefix="repro-fleet-chaos-", dir=config.workdir
    ))
    report.workdir = str(workdir)
    store_dir = workdir / "store"

    def _replica_config(replica_id: str) -> ServerConfig:
        return ServerConfig(
            port=0,
            workers=config.workers,
            store_dir=str(store_dir),
            job_timeout=max(config.deadline, 120.0),
            replica_id=replica_id,
            fleet=True,
            lease_ttl=config.lease_ttl,
            heartbeat_interval=config.heartbeat_interval,
            claim_ttl=config.claim_ttl,
            peer_poll_interval=config.peer_poll_interval,
            journal_segment_records=config.journal_segment_records,
            compact_interval=config.compact_interval,
            compact_min_bytes=1,
            compact_min_age=3600.0,
        )

    def _solve_count(client: ServiceClient) -> int:
        counters = client.metrics().get("counters", {})
        return int(counters.get("solve_jobs", 0))

    # ---- phase 1: two replicas over one store --------------------------
    harness_1 = _ServerHarness(_replica_config("r1"))
    harness_1.start()
    client_1 = _client(harness_1.port, config.seed)
    if not _poll(lambda: harness_1.server.fleet.lease.held, 10.0):
        report.notes.append("replica r1 never acquired the lease")
    harness_2 = _ServerHarness(_replica_config("r2"))
    harness_2.start()
    client_2 = _client(harness_2.port, config.seed + 1)

    for body in bodies_base:
        _fetch(client_1, body, "wave-1", report, config.deadline)

    # ---- phase 2: cross-replica coalescing -----------------------------
    solves_before = _solve_count(client_1) + _solve_count(client_2)
    handle_a = client_1.submit(
        coalesce_body["assay"], coalesce_body.get("spec")
    )
    # Submit the identical fingerprint to the peer immediately: r1 holds
    # the in-flight claim, so r2 must await r1's shared result instead
    # of recomputing (or, if r1 already finished, serve its store entry).
    handle_b = client_2.submit(
        coalesce_body["assay"], coalesce_body.get("spec")
    )
    done_a = _wait(client_1, handle_a.id, "coalesce-r1", report,
                   config.deadline, done_only=True)
    done_b = _wait(client_2, handle_b.id, "coalesce-r2", report,
                   config.deadline, done_only=True)
    if done_b is not None and done_b.source in ("peer", "store"):
        report.peer_served += 1
    report.coalesce_solves = (
        _solve_count(client_1) + _solve_count(client_2) - solves_before
    )
    if done_a is not None and done_b is not None:
        payload_a = client_1.result(done_a.id)
        payload_b = client_2.result(done_b.id)
        if _result_bytes(payload_a) != _result_bytes(payload_b):
            report.mismatched += 1
            report.notes.append(
                "coalesced fingerprint returned different bytes on the "
                "two replicas"
            )

    # ---- phase 3: kill the lease holder with jobs in flight ------------
    for body in wave2:
        client_1.submit(body["assay"], body.get("spec"))
    harness_1.hard_stop(crash=True)
    journal_1 = store_dir / "journal-r1"
    report.replayed_expected = _open_jobs_in_journal(journal_1)

    # The follower must notice the stale lease and take over.
    if not _poll(
        lambda: harness_2.server.fleet.lease.held,
        timeout=max(10.0, config.lease_ttl * 10),
    ):
        report.notes.append("replica r2 never took over the lease")
    report.takeovers = harness_2.server.fleet.lease.takeovers

    # Resubmit the in-flight wave to the survivor: the dead replica's
    # claims must go stale and be reclaimed, never waited on forever.
    for body in wave2:
        payload = _fetch(client_2, body, "takeover", report, config.deadline)
        if payload is not None and (
            _result_bytes(payload) != baseline[_body_key(body)]
        ):
            report.mismatched += 1
            report.notes.append("takeover result mismatch")

    # Crash artifacts: a torn journal tail + a stale index tmp; the
    # restarted replica must replay losslessly over both.
    report.torn_records = _tear_journal(journal_1, None)
    (store_dir / "index.json.tmp").write_text("{\"torn\": tr")

    harness_1b = _ServerHarness(_replica_config("r1"))
    harness_1b.start()
    client_1b = _client(harness_1b.port, config.seed + 2)
    replay_counters = client_1b.metrics().get("counters", {})
    report.replayed = int(replay_counters.get("journal_replayed", 0))
    # Replayed jobs resolve from the shared store (r2 already finished
    # them); wait until none are open so the verdict is race-free.
    _poll(
        lambda: all(
            handle.finished for handle in client_1b.jobs()
        ),
        timeout=config.deadline,
    )

    # ---- phase 4: partition the holder → fencing -----------------------
    if config.partition:
        report.fenced_expected = 1
        holder = harness_2.server
        survivor = harness_1b.server
        holder.fleet.lease.suspend()
        if not _poll(
            lambda: survivor.fleet.lease.held,
            timeout=max(10.0, config.lease_ttl * 10),
        ):
            report.notes.append(
                "replica r1 never took the lease from the partitioned "
                "holder"
            )
        report.takeovers += survivor.fleet.lease.takeovers
        holder.fleet.lease.resume()
        if not _poll(
            lambda: holder.fleet.lease.fenced,
            timeout=max(10.0, config.lease_ttl * 10),
        ):
            report.notes.append(
                "partitioned replica never fenced itself after resume"
            )
        # The fenced replica must still answer fresh work — from its
        # process-local overflow, without writing shared files.
        payload = _fetch(
            client_2, partition_body, "fenced", report, config.deadline
        )
        if payload is not None and (
            _result_bytes(payload) != baseline[_body_key(partition_body)]
        ):
            report.mismatched += 1
            report.notes.append("fenced-replica result mismatch")
        store_block = client_2.metrics().get("store", {})
        report.fenced_writes = int(store_block.get("rejected_writes", 0))
        report.epoch_final = survivor.fleet.lease.epoch
    else:
        report.epoch_final = harness_2.server.fleet.lease.epoch

    # ---- phase 5: full verification on the surviving holder ------------
    expected = list(bodies_base) + [coalesce_body] + list(wave2)
    if config.partition:
        expected.append(partition_body)
    verify_client = client_1b if config.partition else client_2
    # Fleet jobs carry no wall-clock budget: a degraded answer is a fault.
    report.mismatched += _verify(
        verify_client, expected, baseline, report, config.deadline
    )

    # Compaction quiesce: with ``compact_min_bytes=1`` any rotation arms
    # the compactor, so wait until every closed segment has been drained
    # before reading the journal verdict — otherwise the bounded-bytes
    # and runs>=1 checks race the maintenance tick.
    # (A replica whose closed segments all vanished can only have got
    # there through the compactor, so ``not pending`` also implies the
    # runs>=1 verdict input on any replica that rotated.)
    for harness in (harness_1b, harness_2):
        server = harness.server
        if not _poll(
            lambda s=server: not s.journal.pending_compaction(),
            timeout=30.0,
        ):
            report.notes.append(
                f"replica {server.replica_id} compactor never quiesced"
            )

    # ---- verdict inputs across the fleet -------------------------------
    for client in (client_1b, client_2):
        try:
            metrics = client.metrics()
        except ServiceError:
            continue
        store_block = metrics.get("store", {})
        journal_block = metrics.get("journal", {})
        counters = metrics.get("counters", {})
        report.corruptions += int(store_block.get("corruptions", 0))
        report.quarantined += int(store_block.get("quarantined", 0))
        report.compaction_runs += int(
            journal_block.get("compaction_runs", 0)
        )
        report.journal_bytes += int(journal_block.get("closed_bytes", 0))
        report.peer_served += int(counters.get("peer_coalesce_hits", 0))
        report.torn_records = max(
            report.torn_records, int(journal_block.get("torn_records", 0))
        )

    quarantine_dir = store_dir / "quarantine"
    if quarantine_dir.is_dir() and any(quarantine_dir.glob("*.json")):
        report.quarantined = max(report.quarantined, 1)
        report.notes.append("quarantine directory is not empty")

    harness_2.graceful_stop(client_2)
    harness_1b.graceful_stop(client_1b)
    return report


__all__ = [
    "ChaosConfig",
    "ChaosReport",
    "FleetChaosConfig",
    "FleetChaosReport",
    "format_chaos",
    "format_fleet_chaos",
    "run_chaos",
    "run_fleet_chaos",
]
