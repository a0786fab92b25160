"""JSON (de)serialization of assays and synthesis results.

The assay format is stable and round-trips exactly; the result format is a
one-way report (schedules, devices, paths, history) for downstream tools.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from ..components.containers import Capacity, ContainerKind
from ..errors import SerializationError
from ..hls.synthesizer import SynthesisResult
from ..operations.assay import Assay
from ..operations.duration import Fixed, Indeterminate
from ..operations.operation import Operation

FORMAT_VERSION = 1


def assay_to_json(assay: Assay) -> dict[str, Any]:
    """Serialize an assay to a JSON-compatible dict."""
    return {
        "format": FORMAT_VERSION,
        "name": assay.name,
        "operations": [
            {
                "uid": op.uid,
                "duration": op.duration.minimum,
                "indeterminate": op.is_indeterminate,
                "capacity": op.capacity.value,
                "container": op.container.value if op.container else None,
                "accessories": sorted(op.accessories),
                "function": op.function,
            }
            for op in assay
        ],
        "dependencies": [list(edge) for edge in assay.edges],
    }


def assay_from_json(data: dict[str, Any]) -> Assay:
    """Deserialize an assay; raises SerializationError on malformed input."""
    try:
        if data.get("format", 1) != FORMAT_VERSION:
            raise SerializationError(
                f"unsupported assay format {data.get('format')!r}"
            )
        assay = Assay(data.get("name", "assay"))
        for entry in data["operations"]:
            duration = (
                Indeterminate(entry["duration"])
                if entry.get("indeterminate")
                else Fixed(entry["duration"])
            )
            container = entry.get("container")
            assay.add(
                Operation(
                    uid=entry["uid"],
                    duration=duration,
                    capacity=Capacity(entry.get("capacity", "small")),
                    container=ContainerKind(container) if container else None,
                    accessories=frozenset(entry.get("accessories", ())),
                    function=entry.get("function", ""),
                )
            )
        for parent, child in data.get("dependencies", ()):
            assay.add_dependency(parent, child)
        assay.validate()
        return assay
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # AttributeError covers valid-JSON-but-not-an-object inputs (a
        # bare list/string has no .get) so they fail like any other
        # malformed document instead of escaping as a traceback.
        raise SerializationError(f"malformed assay JSON: {exc}") from exc


def save_assay(assay: Assay, path: "str | Path") -> None:
    Path(path).write_text(json.dumps(assay_to_json(assay), indent=2))


def load_assay(path: "str | Path") -> Assay:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read assay from {path}: {exc}") from exc
    return assay_from_json(data)


#: SynthesisSpec fields that serialize as plain scalars.  The cost model
#: and the accessory registry stay at their defaults over the wire — they
#: are code-level extension points, not per-request knobs.
_SPEC_SCALAR_FIELDS = (
    "max_devices",
    "threshold",
    "transport_default",
    "time_limit",
    "mip_gap",
    "improvement_threshold",
    "max_iterations",
    "allow_heuristic_fallback",
    "enable_solve_cache",
    "solve_cache_capacity",
    "scheduler",
    "storage_mode",
    "storage_capacity",
    "throughput_mode",
    "target_ii",
    "throughput_scheduler",
)


#: Retired spec fields that older clients and journal records still send,
#: with the values that asked for what every run does today.  They are
#: accepted and ignored; any other value asked for a removed option.
_RETIRED_SPEC_FIELDS: dict[str, tuple[tuple[Any, ...], str]] = {
    "backend": (
        ("auto", "highs"),
        "the pure-Python branch-and-bound backend was removed; "
        "HiGHS is the only solver",
    ),
    "enable_warm_start": (
        (True,),
        "ILP warm starts were removed; HiGHS never used them",
    ),
}


def _check_retired_spec_fields(data: dict[str, Any]) -> None:
    for name, (accepted, why) in _RETIRED_SPEC_FIELDS.items():
        if name not in data:
            continue
        value = data[name]
        if not any(type(value) is type(ok) and value == ok for ok in accepted):
            raise SerializationError(
                f"spec option {name}={json.dumps(value)} is no longer "
                f"supported: {why}"
            )


def spec_to_json(spec: "SynthesisSpec") -> dict[str, Any]:
    """Serialize the wire-transferable fields of a synthesis spec.

    Deterministic (plain dict of scalars) and exactly inverted by
    :func:`spec_from_json`: ``spec_from_json(spec_to_json(s))`` poses the
    identical synthesis problem — the property the service relies on for
    fingerprint-stable job submission.
    """
    data: dict[str, Any] = {"format": FORMAT_VERSION}
    for name in _SPEC_SCALAR_FIELDS:
        data[name] = getattr(spec, name)
    weights = spec.weights
    data["weights"] = {
        "time": weights.time,
        "area": weights.area,
        "processing": weights.processing,
        "paths": weights.paths,
    }
    progression = spec.transport_progression
    data["transport_progression"] = {
        "minimum": progression.minimum,
        "maximum": progression.maximum,
        "terms": progression.terms,
    }
    data["binding_mode"] = spec.binding_mode.value
    storage_weights = spec.storage_weights
    data["storage_weights"] = {
        "hold": storage_weights.hold,
        "channel": storage_weights.channel,
        "reservoir": storage_weights.reservoir,
    }
    data["throughput_variants"] = list(spec.throughput_variants)
    return data


def spec_from_json(data: dict[str, Any]) -> "SynthesisSpec":
    """Deserialize a spec; raises SerializationError on malformed input."""
    from ..devices.device import BindingMode
    from ..errors import ReproError
    from ..hls.spec import (
        StorageWeights,
        SynthesisSpec,
        TransportProgression,
        Weights,
    )

    try:
        if data.get("format", FORMAT_VERSION) != FORMAT_VERSION:
            raise SerializationError(
                f"unsupported spec format {data.get('format')!r}"
            )
        known = set(_SPEC_SCALAR_FIELDS) | set(_RETIRED_SPEC_FIELDS) | {
            "format", "weights", "transport_progression", "binding_mode",
            "storage_weights", "throughput_variants",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise SerializationError(
                f"unknown spec field(s): {', '.join(unknown)}"
            )
        _check_retired_spec_fields(data)
        kwargs: dict[str, Any] = {
            name: data[name] for name in _SPEC_SCALAR_FIELDS if name in data
        }
        if "weights" in data:
            kwargs["weights"] = Weights(**data["weights"])
        if "transport_progression" in data:
            kwargs["transport_progression"] = TransportProgression(
                **data["transport_progression"]
            )
        if "binding_mode" in data:
            kwargs["binding_mode"] = BindingMode(data["binding_mode"])
        if "storage_weights" in data:
            kwargs["storage_weights"] = StorageWeights(**data["storage_weights"])
        if "throughput_variants" in data:
            kwargs["throughput_variants"] = tuple(
                float(f) for f in data["throughput_variants"]
            )
        return SynthesisSpec(**kwargs)
    except SerializationError:
        raise
    except ReproError as exc:
        raise SerializationError(f"invalid spec JSON: {exc}") from exc
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed spec JSON: {exc}") from exc


def _finite_or_none(value: "float | None") -> "float | None":
    """Nullable-float guard: NaN/inf certificates serialize as ``null``
    (they prove nothing), keeping the report strict-JSON clean."""
    if value is None or not math.isfinite(value):
        return None
    return float(value)


#: Result-report keys that vary run to run without the synthesis outcome
#: differing (wall clock); ignored by :func:`json_result_equal`.
_VOLATILE_RESULT_KEYS = ("runtime_seconds",)


def json_result_equal(a: dict[str, Any], b: dict[str, Any]) -> bool:
    """Whether two :func:`result_to_json` reports describe the same
    synthesis outcome.

    Wall-clock keys are ignored, so a ``deterministic=True`` report
    compares equal to the ``deterministic=False`` report of the same run —
    and a store-served payload compares equal to the in-process result it
    was built from.
    """

    def canon(report: dict[str, Any]) -> dict[str, Any]:
        return {
            key: value
            for key, value in report.items()
            if key not in _VOLATILE_RESULT_KEYS
        }

    return canon(a) == canon(b)


def result_to_json(
    result: SynthesisResult, deterministic: bool = False
) -> dict[str, Any]:
    """Serialize a synthesis result to a JSON-compatible report dict.

    With ``deterministic=True`` the wall-clock ``runtime_seconds`` field is
    omitted, so two runs that produced the same synthesis outcome serialize
    byte-identically — the property the solver-session smoke checks compare
    on (sessions on vs off).
    """
    report = {
        "format": FORMAT_VERSION,
        "assay": result.assay.name,
        "makespan": result.makespan_expression,
        "fixed_makespan": result.fixed_makespan,
        "num_devices": result.num_devices,
        "num_paths": result.num_paths,
        # Certified quality: the best pass's proven lower bound on the
        # total layer objective and the resulting relative gap; null when
        # no pass carried a full certificate.
        "lower_bound": _finite_or_none(result.lower_bound),
        "integrality_gap": _finite_or_none(result.integrality_gap),
        "binding_mode": result.spec.binding_mode.value,
        "devices": [
            {
                "uid": device.uid,
                "container": device.container.value,
                "capacity": device.capacity.value,
                "accessories": sorted(device.accessories),
            }
            for device in result.devices.values()
        ],
        "paths": sorted(list(p) for p in result.paths),
        "layers": [
            {
                "index": layer.index,
                "makespan": layer.makespan,
                "placements": [
                    {
                        "uid": p.uid,
                        "device": p.device_uid,
                        "start": p.start,
                        "duration": p.duration,
                        "indeterminate": p.indeterminate,
                    }
                    for p in sorted(
                        layer.placements.values(), key=lambda p: (p.start, p.uid)
                    )
                ],
            }
            for layer in result.schedule.layers
        ],
        "history": [
            {
                "iteration": record.label,
                "fixed_makespan": record.fixed_makespan,
                "num_devices": record.num_devices,
                "num_paths": record.num_paths,
                "layer_statuses": record.layer_statuses,
                "lower_bound": _finite_or_none(record.lower_bound),
                "integrality_gap": _finite_or_none(record.integrality_gap),
            }
            for record in result.history
        ],
        "runtime_seconds": result.runtime,
    }
    # Storage plan (extension): emitted only when one was synthesized, so
    # storage_mode=off reports stay byte-identical to the paper flow.
    if result.storage_plan is not None:
        report["storage"] = result.storage_plan.to_json()
    if deterministic:
        del report["runtime_seconds"]
    return report


def save_result(
    result: SynthesisResult, path: "str | Path", deterministic: bool = False
) -> None:
    Path(path).write_text(
        json.dumps(result_to_json(result, deterministic=deterministic), indent=2)
    )


def schedule_from_json(data: dict[str, Any]) -> "HybridSchedule":
    """Rebuild a :class:`~repro.hls.schedule.HybridSchedule` from a result
    report (the ``layers`` section of :func:`result_to_json`).

    Enables archival workflows: store the report, reload the schedule
    later, and re-validate or re-simulate it against the (re)loaded assay.
    """
    from ..hls.schedule import HybridSchedule, LayerSchedule, OpPlacement

    try:
        layers = []
        for layer_data in data["layers"]:
            layer = LayerSchedule(index=layer_data["index"])
            for entry in layer_data["placements"]:
                layer.place(
                    OpPlacement(
                        uid=entry["uid"],
                        device_uid=entry["device"],
                        start=entry["start"],
                        duration=entry["duration"],
                        indeterminate=entry.get("indeterminate", False),
                    )
                )
            layers.append(layer)
        return HybridSchedule(layers=layers)
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed result JSON: {exc}") from exc


def load_schedule(path: "str | Path") -> "HybridSchedule":
    """Load the hybrid schedule out of a saved result report."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read result from {path}: {exc}") from exc
    return schedule_from_json(data)
