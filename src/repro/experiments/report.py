"""Row formatting matching the paper's table layout, plus solve profiles."""

from __future__ import annotations

import copy
import json
import math

from ..errors import SerializationError
from ..hls.synthesizer import SynthesisResult
from ..ilp import SolveStats
from ..units import format_runtime
from .table2 import PAPER_TABLE2, Table2Row
from .table3 import PAPER_TABLE3, Table3Row


def format_table2(rows: list[Table2Row], include_paper: bool = True) -> str:
    """Render Table 2 rows as aligned text, optionally with paper values."""
    lines = [
        f"{'Case':<5} {'Method':<7} {'#Op':>4} {'#Ind':>5} "
        f"{'Exe.Time':<16} {'#D.':>4} {'#P.':>4} {'Runtime':>9}"
    ]
    for row in rows:
        lines.append(
            f"{row.case:<5} {row.method:<7} {row.num_ops:>4} "
            f"{row.num_indeterminate:>5} {row.exe_time:<16} "
            f"{row.num_devices:>4} {row.num_paths:>4} "
            f"{format_runtime(row.runtime_seconds):>9}"
        )
        if include_paper:
            key = "conv" if row.method.startswith("Conv") else "ours"
            exe, nd, np_ = PAPER_TABLE2[row.case][key]
            lines.append(
                f"{'':<5} {'(paper)':<7} {'':>4} {'':>5} {exe:<16} "
                f"{nd:>4} {np_:>4} {'':>9}"
            )
    return "\n".join(lines)


def format_table3(rows: list[Table3Row], include_paper: bool = True) -> str:
    """Render Table 3 rows as aligned text."""
    lines = [
        f"{'Case':<5} {'Metric':<9} "
        + " ".join(f"{label:>9}" for label in ("Initial", "1st Ite.", "2nd Ite."))
        + f" {'Improve':>9}"
    ]
    for row in rows:
        exe = row.exe_times + [None] * (3 - len(row.exe_times))
        dev = row.devices + [None] * (3 - len(row.devices))
        exe_cells = " ".join(
            f"{(str(v) + 'm') if v is not None else '-':>9}" for v in exe[:3]
        )
        dev_cells = " ".join(
            f"{v if v is not None else '-':>9}" for v in dev[:3]
        )
        lines.append(
            f"{row.case:<5} {'Exe.Time':<9} {exe_cells} "
            f"{row.total_improvement * 100:>8.2f}%"
        )
        lines.append(f"{'':<5} {'#D.':<9} {dev_cells} {'':>9}")
        if include_paper:
            paper = PAPER_TABLE3[row.case]
            paper_exe = " ".join(f"{v}m".rjust(9) for v in paper["exe"])
            paper_dev = " ".join(str(v).rjust(9) for v in paper["devices"])
            lines.append(f"{'':<5} {'(paper)':<9} {paper_exe} {'':>9}")
            lines.append(f"{'':<5} {'(paper)':<9} {paper_dev} {'':>9}")
    return "\n".join(lines)


def _finite(value: float) -> float:
    """Clamp NaN/inf to 0.0 — ``json.dump`` would otherwise emit the
    non-standard tokens ``NaN``/``Infinity``, i.e. invalid JSON."""
    return float(value) if math.isfinite(value) else 0.0


def _finite_or_none(value: "float | None") -> "float | None":
    """Like :func:`_finite`, but for nullable certificates: an absent or
    non-finite bound/gap is ``None`` (JSON ``null``) — never clamped to
    0.0, which would read as "proven optimal"."""
    if value is None or not math.isfinite(value):
        return None
    return float(value)


def synthesis_profile(result: SynthesisResult) -> dict:
    """Solve telemetry of one synthesis run as a JSON-serializable dict.

    Per pass: the per-layer :class:`~repro.ilp.status.SolveStats` records;
    plus whole-run totals.  Round-trips through JSON —
    ``SolveStats.from_dict`` restores each layer record.  Always valid
    JSON, including runs where a pass (or the whole run) performed zero
    solves: means are guarded and non-finite floats are clamped.
    """
    solves = result.ilp_solves
    total_solve_time = _finite(result.total_solve_time)
    return {
        "assay": result.assay.name,
        "num_layers": result.layering.num_layers,
        "passes": [
            {
                "index": record.index,
                "label": record.label,
                "fixed_makespan": record.fixed_makespan,
                "cache_hits": record.cache_hits,
                "ilp_solves": record.ilp_solves,
                "lower_bound": _finite_or_none(record.lower_bound),
                "integrality_gap": _finite_or_none(record.integrality_gap),
                "stage_timings": dict(record.stage_timings),
                "layers": [s.to_dict() for s in record.layer_stats],
            }
            for record in result.history
        ],
        "totals": {
            "passes": len(result.history),
            "cache_hits": result.cache_hits,
            "ilp_solves": result.ilp_solves,
            "lower_bound": _finite_or_none(result.lower_bound),
            "integrality_gap": _finite_or_none(result.integrality_gap),
            "nodes": result.total_nodes,
            "simplex_iterations": sum(
                s.simplex_iterations for s in result.solve_stats
            ),
            "build_time": _finite(
                sum(s.build_time for s in result.solve_stats)
            ),
            "encode_time": _finite(
                sum(s.encode_time for s in result.solve_stats)
            ),
            "solve_time": total_solve_time,
            "mean_solve_time": (
                _finite(total_solve_time / solves) if solves else 0.0
            ),
            "runtime": _finite(result.runtime),
        },
    }


#: Profile keys (per layer / totals) that record wall-clock time and
#: therefore differ between byte-identical solves.
_VOLATILE_LAYER_KEYS = ("build_time", "encode_time", "solve_time")
_VOLATILE_TOTAL_KEYS = (
    "build_time", "encode_time", "solve_time", "mean_solve_time", "runtime",
)


def deterministic_profile(profile: dict) -> dict:
    """A copy of a :func:`synthesis_profile` dict with wall-clock fields
    zeroed, so identical solves serialize byte-identically — the contract
    behind ``table3 --deterministic`` and ``table3 --via-server``."""
    out = copy.deepcopy(profile)
    for record in out.get("passes", []):
        record["stage_timings"] = {}
        for layer in record.get("layers", []):
            for key in _VOLATILE_LAYER_KEYS:
                if key in layer:
                    layer[key] = 0.0
    totals = out.get("totals", {})
    for key in _VOLATILE_TOTAL_KEYS:
        if key in totals:
            totals[key] = 0.0
    return out


def _format_bound(value: "float | None") -> str:
    """A bound cell: ``-`` for absent or non-finite values (a NaN/inf
    certificate proves nothing and must not render as a number)."""
    if value is None or not math.isfinite(value):
        return "-"
    return f"{value:.1f}"


def _format_gap(value: "float | None") -> str:
    """A gap cell, guarded like :func:`_format_bound`."""
    if value is None or not math.isfinite(value):
        return "-"
    return f"{value * 100:.1f}%"


def format_profile(profile: dict) -> str:
    """Render a :func:`synthesis_profile` dict as an aligned text table."""
    lines = [
        f"{'pass':<9} {'layer':>5} {'backend':<9} {'status':<10} "
        f"{'cache':<5} {'nodes':>7} "
        f"{'build':>8} {'encode':>8} {'solve':>8} {'bound':>9} {'gap':>6}"
    ]
    for record in profile.get("passes", []):
        for layer in record.get("layers", []):
            stats = SolveStats.from_dict(layer)
            source = "hit" if stats.cache_hit else "miss"
            lines.append(
                f"{record['label']:<9} {stats.layer:>5} {stats.backend:<9} "
                f"{stats.status:<10} {source:<5} "
                f"{stats.nodes:>7} "
                f"{stats.build_time:>7.3f}s {stats.encode_time:>7.3f}s "
                f"{stats.solve_time:>7.3f}s "
                f"{_format_bound(stats.lower_bound):>9} "
                f"{_format_gap(stats.integrality_gap):>6}"
            )
        timings = record.get("stage_timings") or {}
        if timings:
            cells = " ".join(
                f"{stage} {seconds:.3f}s" for stage, seconds in timings.items()
            )
            lines.append(f"{record['label']:<9} stages: {cells}")
    totals = profile.get("totals") or {}
    gap = totals.get("integrality_gap")
    certified_note = (
        f", certified gap {_format_gap(gap)}" if gap is not None else ""
    )
    lines.append(
        f"totals: {totals.get('ilp_solves', 0)} layer solve(s), "
        f"{totals.get('cache_hits', 0)} cache hit(s), "
        f"{totals.get('nodes', 0)} node(s), "
        f"build {totals.get('build_time', 0.0):.3f}s, "
        f"encode {totals.get('encode_time', 0.0):.3f}s, "
        f"solve {totals.get('solve_time', 0.0):.3f}s, "
        f"wall {format_runtime(totals.get('runtime', 0.0))}"
        f"{certified_note}"
    )
    return "\n".join(lines)


def export_profiles(profiles: dict[int, dict], path: str) -> None:
    """Write per-case profiles to ``path`` as JSON (keyed by case)."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            # allow_nan=False: refuse to write the non-standard
            # NaN/Infinity tokens rather than emit unparseable JSON.
            json.dump(
                {str(case): profile for case, profile in profiles.items()},
                handle,
                indent=2,
                allow_nan=False,
            )
            handle.write("\n")
    except (OSError, ValueError) as exc:
        raise SerializationError(
            f"cannot write solve profiles to {path}: {exc}"
        ) from exc
