"""Metric assembly: end-to-end (``--trace 0``) and per-layer (``--trace 1``).

Every workload prints every metric named in BENCHMARK.json.  Seconds that
drift with the shared machine are divided by reference work measured in
the same run (``*_rel``, unit ``ref``; see ``common.RefClock``); their
plain-seconds values are per-layer numbers of the traced run.
"""

from __future__ import annotations

from collections import Counter

from common import median, p90

#: span name -> per-layer seconds metric (self time per round).
SPAN_METRICS = {
    "io.parse": "io.parse_s",
    "io.emit": "io.emit_s",
    "layering.layer": "layering.layer_s",
    "hls.synthesize": "hls.pipeline_s",
    "hls.prepare": "hls.prepare_s",
    "hls.layer_solve": "hls.layer_solve_s",
    "hls.fingerprint": "hls.fingerprint_s",
    "hls.validate": "hls.validate_s",
    "hls.greedy": "hls.greedy_s",
    "hls.encode": "hls.encode_s",
    "hls.decode": "hls.decode_s",
    "ilp.solve": "ilp.solve_s",
    "ilp.lp_bound": "ilp.lp_bound_s",
    "storage.plan": "storage.plan_s",
    "periodic.search": "periodic.search_s",
    "service.submit": "service.submit_s",
    "service.wait": "service.wait_s",
    "service.result": "service.result_s",
}

#: per-layer counts (per round) read from result fields or span hooks.
COUNT_METRICS = (
    "layering.layers", "hls.layer_solves", "hls.cache_hits",
    "hls.cache_misses", "hls.model_vars", "hls.model_rows", "ilp.nodes",
    "ilp.limit_hits", "periodic.probes",
)

#: per-layer numbers read from the server's /metrics (per round).
SERVICE_METRICS = (
    "service.queue_wait_s", "service.worker_s", "service.worker_util",
    "service.shared_cache_entries", "service.worker_cache_hit_ratio",
    "service.store_hits", "service.store_puts", "service.journal_appends",
)


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _latencies(runs: dict, rel: bool) -> list[float]:
    """One latency per job: the mean over its runs in this measurement,
    in seconds or in reference units."""
    return [
        sum(s / ref if rel else s for s, ref in times) / len(times)
        for times in runs.values()
    ]


def _timings(outcome, rel: bool) -> dict[str, float]:
    """Timing figures of one run, in seconds or in reference units."""
    cold = _latencies(outcome.cold, rel)
    hit = _latencies(outcome.hit, rel)
    rounds = [rel_wall if rel else wall for wall, rel_wall in outcome.rounds]
    runs = sum(map(len, outcome.cold.values())) + sum(
        map(len, outcome.hit.values()))
    return {
        "wall_s": median(rounds),
        "jobs_per_s": runs / sum(rounds),
        "cold_s_p50": median(cold),
        "cold_s_p90": p90(cold),
        "hit_s_p50": median(hit),
        "hit_s_p90": p90(hit),
    }


def _ok_frac(outcome) -> float:
    return (outcome.attempted - outcome.failed) / max(outcome.attempted, 1)


def _header(outcome) -> dict:
    return {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
    }


def end_to_end(outcome, setup: list[float], extra: dict) -> dict:
    metrics = {"setup_s": _metric(median(setup), "s")}
    for name, value in _timings(outcome, rel=True).items():
        if name.startswith("hit_"):
            # Per-layer only: service-mix store hits spread by 20-30 %
            # between runs (see README.md).
            continue
        unit = "1/ref" if name == "jobs_per_s" else "ref"
        metrics[f"{name}_rel"] = _metric(value, unit)
    metrics["ok_frac"] = _metric(_ok_frac(outcome), "fraction")
    for name in ("makespan_sum", "objective_sum", "storage_cost_sum"):
        metrics[name] = _metric(outcome.quality[name], "cost")
    metrics["peak_rss_mb"] = _metric(outcome.peak_rss_mb, "MB")
    seconds = _timings(outcome, rel=False)
    print(f"samples: cold jobs {len(outcome.cold)}, hit jobs "
          f"{len(outcome.hit)}, rounds {len(outcome.rounds)}, reference "
          f"samples {len(outcome.ref.samples)}; seconds: "
          + ", ".join(f"{k}={v:.4f}" for k, v in seconds.items())
          + f", ref_s={outcome.ref.unit:.4f}, setup_s="
          + ",".join(f"{s:.3f}" for s in setup))
    return _header(outcome) | {"metrics": metrics}


def _service_numbers(extra: dict, rounds: int) -> dict[str, float]:
    before, after = extra["before"], extra["after"]

    def delta(section: str, key: str) -> float:
        return after[section].get(key, 0) - before[section].get(key, 0)

    def histogram(name: str) -> float:
        now = after["histograms"].get(name, {"sum": 0.0})
        then = before["histograms"].get(name, {"sum": 0.0})
        return now["sum"] - then["sum"]

    hits = delta("counters", "solve_cache_hits")
    solves = delta("counters", "solve_ilp_solves")
    uptime = after["uptime_seconds"] - before["uptime_seconds"]
    busy = after["workers"]["busy_seconds"] - before["workers"]["busy_seconds"]
    return {
        "service.queue_wait_s": histogram("queue_wait_seconds") / rounds,
        "service.worker_s": histogram("solve_seconds") / rounds,
        "service.worker_util": busy / max(uptime, 1e-9)
        / after["workers"]["pool_size"],
        "service.shared_cache_entries":
            after["gauges"].get("shared_cache_entries") or 0,
        "service.worker_cache_hit_ratio": hits / max(hits + solves, 1),
        "service.store_hits": delta("counters", "store_hits") / rounds,
        "service.store_puts": delta("store", "puts") / rounds,
        "service.journal_appends": delta("journal", "appended") / rounds,
    }


def per_layer(plain, traced, tracer, extra: dict) -> dict:
    """Per-layer numbers of the traced pass, per round, plus the tracing
    overhead against the untraced pass of the same run."""
    rounds = len(traced.rounds)
    self_times = tracer.self_times()
    server = extra.get("server", {}).get("self_times", {})
    metrics = {}
    for span, name in SPAN_METRICS.items():
        value = self_times.get(span, 0.0) + server.get(span, 0.0)
        metrics[name] = _metric(value / rounds, "s")
    counts = Counter(traced.counts) + Counter(tracer.counts)
    for name in COUNT_METRICS:
        metrics[name] = _metric(counts[name] / rounds, "count")
    metrics["periodic.ii_sum"] = _metric(traced.quality["ii_sum"], "count")
    service = _service_numbers(extra, rounds) if "before" in extra else {}
    for name in SERVICE_METRICS:
        unit = "s" if name.endswith("_s") else (
            "fraction" if "util" in name or "ratio" in name else "count")
        metrics[name] = _metric(service.get(name, 0.0), unit)
    job_time = tracer.total("job")
    remainder = self_times.get("job", 0.0)
    metrics["trace.untraced_s"] = _metric(remainder / rounds, "s")
    metrics["trace.coverage"] = _metric(
        1.0 - remainder / max(job_time, 1e-9), "fraction")
    walls = [median([w for w, _ in o.rounds]) for o in (traced, plain)]
    metrics["trace.overhead"] = _metric(walls[0] / walls[1] - 1.0, "fraction")
    for name, value in _timings(plain, rel=False).items():
        metrics[name] = _metric(value, "1/s" if name == "jobs_per_s" else "s")
    metrics["ref_s"] = _metric(plain.ref.unit, "s")
    header = _header(plain)
    header["attempted"] += traced.attempted
    header["failed"] += traced.failed
    header["problems"] += traced.problems
    header["correct"] = header["failed"] == 0
    return header | {"metrics": metrics}


def self_time_table(result: dict, tracer, traced) -> str:
    """Human-readable self time per layer of the traced pass."""
    rounds = len(traced.rounds)
    job_time = tracer.total("job")
    rows = sorted(
        ((name, t) for name, t in tracer.self_times().items() if name != "job"),
        key=lambda row: -row[1],
    )
    rows.append(("(untraced remainder)", tracer.self_times().get("job", 0.0)))
    lines = [f"{'layer':28s} {'self s/round':>12s} {'share':>7s}"]
    for name, seconds in rows:
        lines.append(f"{name:28s} {seconds / rounds:12.4f} "
                     f"{seconds / max(job_time, 1e-9):7.1%}")
    overhead = result["metrics"]["trace.overhead"]["value"]
    lines.append(f"timed job wall {job_time / rounds:.3f} s/round over "
                 f"{rounds} rounds; tracing overhead {overhead:+.1%}")
    return "\n".join(lines)
