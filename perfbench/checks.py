"""Correctness checks on every output the benchmark receives.

A job whose output fails any check counts as failed (it lowers
``ok_frac``); failures are reported, never dropped.  The validators are
bound at import time, before the traced run wraps anything, so checking
adds no spans.
"""

from __future__ import annotations

from repro.components import Capacity, ContainerKind
from repro.devices import GeneralDevice
from repro.errors import ReproError
from repro.hls import validate_result
from repro.io.json_io import spec_from_json
from repro.periodic import validate_periodic_schedule
from repro.storage import validate_storage_plan

#: slack for comparing certified bounds with achieved objectives.
_EPS = 1e-6


def _bound_ok(bound, objective) -> bool:
    return bound is None or objective is None or (
        bound <= objective + _EPS * max(1.0, abs(objective))
    )


def check_result(result, throughput, require_optimal: bool) -> list[str]:
    """Problems with one in-process synthesis output (empty = correct)."""
    problems = []
    try:
        validate_result(result)
        if result.storage_plan is not None:
            validate_storage_plan(
                result.storage_plan, result.assay, result.layering,
                result.schedule, result.spec,
            )
        if throughput is not None:
            validate_periodic_schedule(throughput.schedule)
    except ReproError as exc:
        problems.append(f"validation: {exc}")
    for record in result.history:
        if not _bound_ok(record.lower_bound, record.total_objective):
            problems.append(
                f"pass {record.index}: lower bound {record.lower_bound} "
                f"exceeds objective {record.total_objective}"
            )
    if throughput is not None and not _bound_ok(
        throughput.lower_bound, throughput.ii
    ):
        problems.append(
            f"II lower bound {throughput.lower_bound} exceeds II "
            f"{throughput.ii}"
        )
    if require_optimal:
        statuses = {s.status for s in result.solve_stats}
        if statuses != {"optimal"}:
            problems.append(f"layer statuses {sorted(statuses)}")
    return problems


def chip_objective(report: dict, spec_json: dict) -> float:
    """The weighted chip objective of a result report (paper (15)):
    execution time, device area and processing cost, and paths."""
    spec = spec_from_json(spec_json)
    devices = [
        GeneralDevice(
            uid=d["uid"],
            container=ContainerKind(d["container"]),
            capacity=Capacity(d["capacity"]),
            accessories=frozenset(d["accessories"]),
        )
        for d in report["devices"]
    ]
    costs, weights = spec.cost_model, spec.weights
    return (
        weights.time * report["fixed_makespan"]
        + weights.area * sum(d.area(costs) for d in devices)
        + weights.processing * sum(d.processing_cost(costs) for d in devices)
        + weights.paths * report["num_paths"]
    )


def check_report(report: dict, assay_json: dict, spec_json: dict) -> list[str]:
    """Structural replay of a result report received over the wire.

    The server's worker already ran the program's validators; this
    re-checks, from the report alone, what a client can see: every
    operation placed once in a layer that respects the dependencies,
    placements on known devices, the device cap, and no two fixed-time
    operations overlapping on one device.
    """
    problems = []
    try:
        devices = {d["uid"] for d in report["devices"]}
        placed: dict[str, tuple[int, dict]] = {}
        for layer in report["layers"]:
            for p in layer["placements"]:
                if p["uid"] in placed:
                    problems.append(f"{p['uid']} placed twice")
                placed[p["uid"]] = (layer["index"], p)
                if p["device"] not in devices:
                    problems.append(f"{p['uid']} on unknown device")
        uids = [op["uid"] for op in assay_json["operations"]]
        missing = sorted(set(uids) - set(placed))
        if missing:
            problems.append(f"never placed: {missing[:3]}")
            return problems
        if len(devices) > spec_json["max_devices"]:
            problems.append(f"{len(devices)} devices exceed the cap")
        for parent, child in assay_json["dependencies"]:
            (lp, p), (lc, c) = placed[parent], placed[child]
            if lp > lc or (lp == lc and c["start"] < p["start"] + p["duration"]):
                problems.append(f"dependency {parent}->{child} violated")
        for layer in report["layers"]:
            by_device: dict[str, list] = {}
            for p in layer["placements"]:
                if not p["indeterminate"]:
                    by_device.setdefault(p["device"], []).append(
                        (p["start"], p["start"] + p["duration"])
                    )
            for spans in by_device.values():
                spans.sort()
                for (_s1, e1), (s2, _e2) in zip(spans, spans[1:]):
                    if s2 < e1:
                        problems.append(f"layer {layer['index']}: overlap")
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems
