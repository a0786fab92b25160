"""Command-line interface.

Usage examples::

    repro-hls synthesize my_assay.json --max-devices 25 --out result.json
    repro-hls synthesize my_assay.json --conventional --gantt
    repro-hls throughput --case 2 --target-ii 40
    repro-hls throughput my_assay.json --variant-prefixes 0.5 0.75
    repro-hls layer my_assay.json --threshold 10
    repro-hls simulate my_assay.json --runs 32 --jobs 4 \\
        --faults exhaust:cap0 --policy resynth --trace-out trace.jsonl
    repro-hls table2 --cases 1 --time-limit 10
    repro-hls table3 --cases 2 3 --profile
    repro-hls serve --port 8642 --store-dir ~/.cache/repro-hls
    repro-hls serve --port 8643 --store-dir /srv/repro --fleet \\
        --replica-id r2
    repro-hls submit --case 2 --server 127.0.0.1:8642 --out result.json
    repro-hls submit --case 2 --server 127.0.0.1:8642,127.0.0.1:8643 \\
        --hedge-after 0.5
    repro-hls jobs --server 127.0.0.1:8642 --metrics
    repro-hls chaos --seed 7 --jobs 2 --cases 1 2
    repro-hls chaos --scenario fleet --cases 1
    repro-hls demo

Exit codes: 0 success, 1 synthesis/service failure, 2 bad input
(unreadable or malformed assay JSON, bad fault spec, bad spec values).
"""

from __future__ import annotations

import argparse
import sys

from .assays import benchmark_assay
from .baselines import synthesize_conventional
from .errors import ReproError, SerializationError, SpecificationError
from .experiments import format_table2, format_table3, run_table2, run_table3
from .experiments.table2 import default_spec
from .hls import SynthesisSpec, synthesize
from .io import load_assay, render_gantt, save_result
from .layering import layer_assay


def _resolve_assay(args: argparse.Namespace):
    """The assay named by ``--case N`` or a positional JSON path."""
    case = getattr(args, "case", None)
    if case is not None and args.assay:
        raise SpecificationError(
            "give either an assay path or --case, not both"
        )
    if case is not None:
        try:
            return benchmark_assay(case)
        except ValueError as exc:
            raise SpecificationError(str(exc)) from None
    if not args.assay:
        raise SpecificationError("give an assay path or --case N")
    return load_assay(args.assay)


def _spec_from_args(args: argparse.Namespace) -> SynthesisSpec:
    return SynthesisSpec(
        max_devices=args.max_devices,
        threshold=args.threshold,
        time_limit=args.time_limit,
        max_iterations=args.max_iterations,
        mip_gap=getattr(args, "mip_gap", 0.0),
        scheduler=getattr(args, "scheduler", "portfolio"),
        enable_solver_sessions=not getattr(args, "no_solver_sessions", False),
        storage_mode=getattr(args, "storage", None) or "off",
        storage_capacity=getattr(args, "storage_capacity", 4),
        throughput_mode=getattr(args, "throughput", None) or "off",
        target_ii=getattr(args, "target_ii", None),
        throughput_scheduler=getattr(args, "periodic_scheduler", "auto"),
        throughput_variants=tuple(
            getattr(args, "variant_prefixes", None) or ()
        ),
    )


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-devices", type=int, default=25, help="|D| cap")
    parser.add_argument(
        "--threshold", type=int, default=10,
        help="max indeterminate operations per layer (t)",
    )
    parser.add_argument(
        "--time-limit", type=float, default=20.0,
        help="seconds per layer ILP solve",
    )
    parser.add_argument("--max-iterations", type=int, default=2)
    parser.add_argument(
        "--mip-gap", type=float, default=0.0,
        help="relative MIP gap at which a layer solve stops (0 = optimal)",
    )
    from .hls.backends import available_schedulers

    parser.add_argument(
        "--scheduler", default="portfolio", choices=available_schedulers(),
        help="per-layer scheduler backend (default: portfolio — the paper "
             "flow; lp-bound trades exactness for a certified "
             "LP-relaxation bound)",
    )
    parser.add_argument(
        "--no-solver-sessions", action="store_true",
        help="disable persistent per-layer solver sessions (forces "
             "from-scratch model encoding every pass; results are "
             "identical either way)",
    )
    parser.add_argument(
        "--storage", nargs="?", const="auto", default=None, metavar="MODE",
        help="storage synthesis mode for layer-crossing reagents "
             "(off|reservoir|channel|auto; bare --storage means auto; "
             "default: off — the storage-oblivious paper flow)",
    )
    parser.add_argument(
        "--storage-capacity", type=int, default=4,
        help="reagent slots per dedicated storage reservoir",
    )
    parser.add_argument(
        "--throughput", nargs="?", const="periodic", default=None,
        metavar="MODE",
        help="throughput mode (off|periodic; bare --throughput means "
             "periodic): re-time the one-shot result as a steady-state "
             "pipeline minimizing the initiation interval",
    )
    parser.add_argument(
        "--target-ii", type=int, default=None,
        help="stop the periodic II search at this initiation interval "
             "instead of pushing to the certified lower bound",
    )
    parser.add_argument(
        "--periodic-scheduler", default="auto", metavar="NAME",
        help="periodic scheduler backend (auto|ilp|greedy; auto runs the "
             "modulo ILP and degrades to the greedy modulo list scheduler "
             "when a MIP solve fails)",
    )


def _print_certificate(result) -> None:
    """One line of certified quality, when the run proved any.

    Conventional-baseline results have no layer solves (and therefore no
    certificates); the attributes are simply absent there.
    """
    import math as _math

    gap = getattr(result, "integrality_gap", None)
    bound = getattr(result, "lower_bound", None)
    if gap is None or bound is None:
        return
    if not (_math.isfinite(gap) and _math.isfinite(bound)):
        return
    print(f"certified gap  : {gap * 100:.2f}% (lower bound {bound:.1f})")


def _print_storage_plan(result) -> None:
    """One-line storage plan summary, when one was synthesized."""
    plan = getattr(result, "storage_plan", None)
    if plan is None:
        return
    print(
        f"storage        : mode={plan.mode} hold={plan.held_count} "
        f"channel={plan.channel_count} reservoir={plan.reservoir_count} "
        f"({len(plan.reservoirs)} reservoir(s), cost {plan.total_cost:g})"
    )


def _print_throughput(tr) -> None:
    """The periodic block every throughput-aware verb prints."""
    stats = tr.stats
    gap = stats.integrality_gap
    gap_note = f", gap {gap * 100:.2f}%" if gap is not None else ""
    degraded = " [degraded to greedy]" if tr.degraded else ""
    print(
        f"initiation II  : {tr.ii} (one-shot makespan {tr.base_makespan}, "
        f"{tr.speedup:.2f}x steady-state throughput)"
    )
    print(
        f"periodic       : latency {tr.latency}, lower bound "
        f"{stats.lower_bound:g}{gap_note}, {stats.status}{degraded}"
    )
    print(f"II search      : {len(tr.probes)} probe(s) via {tr.scheduler}")


def _cmd_synthesize(args: argparse.Namespace) -> int:
    assay = _resolve_assay(args)
    spec = _spec_from_args(args)
    if args.conventional:
        result = synthesize_conventional(assay, spec)
    else:
        result = synthesize(assay, spec)
    print(f"assay          : {assay.name} ({len(assay)} ops)")
    print(f"execution time : {result.makespan_expression}")
    print(f"devices        : {result.num_devices}")
    print(f"paths          : {result.num_paths}")
    _print_storage_plan(result)
    _print_certificate(result)
    if spec.throughput_mode == "periodic" and not args.conventional:
        from .periodic import schedule_throughput

        _print_throughput(schedule_throughput(result, spec))
    for record in result.history:
        print(
            f"  {record.label:<9} makespan={record.fixed_makespan} "
            f"devices={record.num_devices} paths={record.num_paths}"
        )
    if args.profile:
        from .experiments import format_profile, synthesis_profile

        print("\nsolve profile:")
        print(format_profile(synthesis_profile(result)))
    if args.gantt:
        print()
        print(render_gantt(result.schedule))
    if args.out:
        save_result(result, args.out, deterministic=args.deterministic)
        print(f"result written to {args.out}")
    return 0


def _cmd_throughput(args: argparse.Namespace) -> int:
    import dataclasses

    from .periodic import (
        derive_variants,
        schedule_throughput,
        synthesize_shared,
    )

    assay = _resolve_assay(args)
    spec = _spec_from_args(args)
    if spec.throughput_mode == "off":
        # The verb implies periodic mode; --throughput off is still
        # honored as an explicit no-op guard elsewhere, not here.
        spec = dataclasses.replace(spec, throughput_mode="periodic")

    variants = derive_variants(assay, spec.throughput_variants)
    for path in args.variants or ():
        variants.append(load_assay(path))

    if len(variants) == 1:
        result = synthesize(assay, spec)
        print(f"assay          : {assay.name} ({len(assay)} ops)")
        print(f"one-shot       : {result.makespan_expression}, "
              f"{result.num_devices} devices")
        _print_throughput(schedule_throughput(result, spec))
        return 0

    shared = synthesize_shared(variants, spec)
    print(f"variants       : {len(variants)} "
          f"(shared skeleton: {len(shared.skeleton)} ops)")
    print(f"devices        : {shared.shared_devices} shared vs "
          f"{shared.independent_devices} independently synthesized")
    for report in shared.reports:
        print(
            f"  {report.name:<24} ops={report.num_ops:<3} "
            f"shared II={report.shared_ii:<4} "
            f"independent II={report.independent_ii}"
        )
    return 0


def _cmd_layer(args: argparse.Namespace) -> int:
    assay = load_assay(args.assay)
    layering = layer_assay(assay, args.threshold)
    print(f"{layering.num_layers} layer(s) for {assay.name}")
    for layer in layering.layers:
        ind = ", ".join(layer.indeterminate_uids) or "-"
        print(f"  layer {layer.index}: {len(layer)} ops, indeterminate: {ind}")
    return 0


def _table_spec(args: argparse.Namespace) -> SynthesisSpec:
    import dataclasses

    return dataclasses.replace(
        default_spec(time_limit=args.time_limit),
        threshold=args.threshold,
        mip_gap=args.mip_gap,
    )


def _cmd_table2(args: argparse.Namespace) -> int:
    if args.via_server:
        from .experiments.remote import run_table2_via_server
        from .service import ServiceClient

        client = ServiceClient.from_address(args.via_server)
        rows = run_table2_via_server(
            client, _table_spec(args), cases=tuple(args.cases)
        )
    else:
        rows = run_table2(_table_spec(args), cases=tuple(args.cases))
    print(format_table2(rows))
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from .experiments import export_profiles, format_profile
    from .experiments.report import deterministic_profile

    if args.via_server:
        from .experiments.remote import run_table3_via_server
        from .service import ServiceClient

        client = ServiceClient.from_address(args.via_server)
        rows = run_table3_via_server(
            client, _table_spec(args), cases=tuple(args.cases)
        )
    else:
        rows = run_table3(_table_spec(args), cases=tuple(args.cases))
    if args.deterministic or args.via_server:
        # Strip wall-clock telemetry so a --via-server run and a direct
        # --deterministic run print and export byte-identical output.
        for row in rows:
            row.profile = deterministic_profile(row.profile)
    print(format_table3(rows))
    if args.profile:
        for row in rows:
            print(f"\ncase {row.case} solve profile:")
            print(format_profile(row.profile))
    if args.profile_json:
        export_profiles(
            {row.case: row.profile for row in rows}, args.profile_json
        )
        print(f"\nsolve profiles written to {args.profile_json}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .analysis import schedule_stats, storage_report
    from .analysis.stats import format_stats
    from .experiments import export_profiles, format_profile, synthesis_profile

    assay = load_assay(args.assay)
    result = synthesize(assay, _spec_from_args(args))
    print(format_stats(schedule_stats(result.schedule)))
    report = storage_report(result)
    print(f"storage crossings: {report.total_crossings} "
          f"(peak demand {report.peak_demand})")
    if getattr(args, "storage", None) is not None:
        boundaries = sorted({r.boundary for r in report.reagents})
        if boundaries:
            print("\nstorage demand by boundary:")
            print(f"  {'boundary':>8} {'crossings':>9} {'held':>5} "
                  f"{'buffered':>8}")
            for boundary in boundaries:
                reagents = report.at_boundary(boundary)
                held = sum(1 for r in reagents if r.held_in_place)
                print(f"  {boundary:>8} {len(reagents):>9} {held:>5} "
                      f"{report.demand(boundary):>8}")
        else:
            print("\nno layer-crossing reagents: nothing to store")
        _print_storage_plan(result)
    _print_certificate(result)
    if args.profile or args.profile_json:
        profile = synthesis_profile(result)
        if args.profile:
            print("\nsolve profile:")
            print(format_profile(profile))
        if args.profile_json:
            export_profiles({0: profile}, args.profile_json)
            print(f"solve profile written to {args.profile_json}")
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    from .io import assay_to_dot, chip_to_dot
    from .layering import layer_assay as _layer

    assay = load_assay(args.assay)
    if args.view == "assay":
        layering = _layer(assay, args.threshold) if args.layers else None
        print(assay_to_dot(assay, layering))
        return 0
    result = synthesize(assay, _spec_from_args(args))
    print(chip_to_dot(result))
    return 0


def _cmd_place(args: argparse.Namespace) -> int:
    from .layout import GridPlacer, layout_refined_transport

    assay = load_assay(args.assay)
    result = synthesize(assay, _spec_from_args(args))
    estimator = layout_refined_transport(
        assay, result.spec, result.schedule.binding,
        placer=GridPlacer(seed=args.seed),
    )
    placement = estimator.last_placement
    if placement is None:
        print("all operations share one device; nothing to place")
        return 0
    print(placement.layout.render())
    print(f"\nweighted channel length: {placement.cost:g} "
          f"(improved {placement.improvement:.0%} over the initial grid)")
    for pair, dist in sorted(placement.distances.items()):
        usage = estimator.path_usage.get(pair, 0)
        print(f"  {pair[0]} <-> {pair[1]}: distance {dist}, usage {usage}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .cyberphysical import (
        CampaignConfig,
        FaultPlan,
        format_campaign,
        run_campaign,
        write_trace,
    )
    from .runtime import RetryModel

    # Parse inputs before the (expensive) solve so a bad fault spec
    # fails fast with exit code 2.
    assay = load_assay(args.assay)
    faults = FaultPlan.parse(args.faults) if args.faults else FaultPlan()
    result = synthesize(assay, _spec_from_args(args))
    print(f"assay          : {assay.name} ({len(assay)} ops)")
    print(f"schedule       : {result.makespan_expression}, "
          f"{result.num_devices} devices")

    retry_model = RetryModel(
        success_probability=args.success_probability,
        max_attempts=args.max_attempts,
        on_exhausted=args.on_exhausted,
    )
    config = CampaignConfig(
        runs=args.runs,
        seed=args.seed,
        jobs=args.jobs,
        policies=(args.policy,),
        faults=faults,
        retry_model=retry_model,
        keep_traces=bool(args.trace_out),
    )
    outcome = run_campaign(result, config)
    print(f"campaign       : {config.runs} runs x {config.jobs} job(s), "
          f"policy '{args.policy}', {len(faults)} fault(s) injected, "
          f"{outcome.wall_time:.1f}s wall")
    print(format_campaign(outcome.stats))
    if args.trace_out:
        lines = write_trace(args.trace_out, outcome.trace_records())
        print(f"trace          : {lines} records -> {args.trace_out}")
    if args.stats_json:
        from pathlib import Path

        Path(args.stats_json).write_text(outcome.stats.to_json_text() + "\n")
        print(f"stats          : written to {args.stats_json}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import ServerConfig, run_server

    if (args.fleet or args.replica_id) and not args.store_dir:
        print("error: --fleet requires --store-dir (the shared store)",
              file=sys.stderr)
        return 2
    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        store_dir=args.store_dir,
        store_capacity=args.store_capacity,
        job_timeout=args.job_timeout,
        journal_dir=args.journal_dir,
        enable_degrade=not args.no_degrade,
        fleet=args.fleet,
        replica_id=args.replica_id,
        lease_ttl=args.lease_ttl,
        heartbeat_interval=args.heartbeat_interval,
        compact_min_bytes=args.compact_min_bytes,
        compact_min_age=args.compact_min_age,
    )
    fleet_note = ""
    if args.fleet or args.replica_id:
        fleet_note = f", fleet replica {args.replica_id or 'replica-<pid>'}"
    run_server(
        config,
        announce=lambda server: print(
            f"synthesis server listening on "
            f"{config.host}:{server.port} "
            f"({config.workers} worker(s), "
            f"store: {config.store_dir or 'in-memory'}"
            f"{fleet_note})",
            flush=True,
        ),
    )
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json as _json

    from .service import HedgePolicy, ServiceClient

    hedge = None
    if args.hedge_after is not None:
        hedge = HedgePolicy(delay=args.hedge_after)
    client = ServiceClient.from_address(args.server, hedge=hedge)
    assay = _resolve_assay(args)
    spec = _spec_from_args(args)
    method = "conventional" if args.conventional else "hls"
    handle = client.submit(
        assay, spec, method=method, priority=args.priority,
        timeout=args.job_timeout,
    )
    print(f"job {handle.id}: {handle.status} "
          f"(fingerprint {handle.fingerprint[:12]})")
    if args.no_wait:
        return 0
    handle = client.wait(handle.id, deadline=args.deadline)
    if handle.status != "done":
        error = handle.error or {}
        kind = error.get("kind", handle.status)
        message = error.get("message", "no detail")
        print(f"error: job {handle.id} {handle.status} "
              f"({kind}: {message})", file=sys.stderr)
        return 1
    payload = client.result(handle.id)
    report = payload["result"]
    job = payload.get("job", {})
    print(f"job {handle.id}: done (source {job.get('source', '?')})")
    print(f"execution time : {report['makespan']}")
    print(f"devices        : {report['num_devices']}")
    print(f"paths          : {report['num_paths']}")
    storage = payload.get("storage")
    if storage:
        print(
            f"storage        : mode={storage['mode']} "
            f"hold={storage['held']} channel={storage['channel']} "
            f"reservoir={storage['reservoir']} "
            f"(cost {storage['total_cost']:g})"
        )
    periodic = payload.get("periodic")
    if periodic:
        bound = periodic.get("lower_bound")
        bound_note = f", lower bound {bound:g}" if bound is not None else ""
        print(
            f"initiation II  : {periodic['ii']} "
            f"(one-shot makespan {periodic['base_makespan']}"
            f"{bound_note})"
        )
    quality = payload.get("quality") or {}
    gap = quality.get("integrality_gap")
    if payload.get("degraded"):
        note = (
            f"certified within {gap * 100:.2f}% of optimal"
            if gap is not None
            else "no certified bound"
        )
        print(f"degraded result: {note}")
    elif gap is not None:
        print(f"certified gap  : {gap * 100:.2f}%")
    if args.out:
        # Same bytes as `synthesize --deterministic --out` writes: the
        # worker serializes with result_to_json(deterministic=True).
        with open(args.out, "w", encoding="utf-8") as handle_out:
            handle_out.write(_json.dumps(report, indent=2))
        print(f"result written to {args.out}")
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    import json as _json

    from .service import ServiceClient

    client = ServiceClient.from_address(args.server)
    if args.metrics:
        print(_json.dumps(client.metrics(), indent=2, sort_keys=True))
        return 0
    handles = client.jobs()
    if not handles:
        print("no jobs")
        return 0
    for handle in handles:
        note = f" (coalesced {handle.coalesced})" if handle.coalesced else ""
        source = f" source={handle.source}" if handle.source else ""
        print(f"{handle.id}  {handle.status:<9} "
              f"{handle.fingerprint[:12]}{source}{note}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json as _json

    if args.scenario == "fleet":
        from .service.chaos import (
            FleetChaosConfig,
            format_fleet_chaos,
            run_fleet_chaos,
        )

        fleet_config = FleetChaosConfig(
            seed=args.seed,
            cases=tuple(args.cases),
            workdir=args.workdir,
            workers=args.workers,
            time_limit=args.time_limit,
            deadline=args.deadline,
            lease_ttl=args.lease_ttl,
            claim_ttl=args.claim_ttl,
            partition=not args.no_partition,
        )
        fleet_report = run_fleet_chaos(fleet_config)
        if args.json:
            print(_json.dumps(
                fleet_report.to_json(), indent=2, sort_keys=True
            ))
        else:
            print(format_fleet_chaos(fleet_report))
        return 0 if fleet_report.ok else 1

    from .service.chaos import ChaosConfig, format_chaos, run_chaos

    config = ChaosConfig(
        seed=args.seed,
        jobs=args.jobs,
        cases=tuple(args.cases),
        workdir=args.workdir,
        workers=args.workers,
        time_limit=args.time_limit,
        deadline=args.deadline,
    )
    report = run_chaos(config)
    if args.json:
        print(_json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(format_chaos(report))
    return 0 if report.ok else 1


def _cmd_demo(args: argparse.Namespace) -> int:
    assay = benchmark_assay(1)
    spec = default_spec(time_limit=args.time_limit)
    result = synthesize(assay, spec)
    print(render_gantt(result.schedule))
    print(f"\nexecution time {result.makespan_expression}, "
          f"{result.num_devices} devices, {result.num_paths} paths")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-hls",
        description=(
            "Component-oriented high-level synthesis for continuous-flow "
            "microfluidics with hybrid scheduling (DAC 2017 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthesize", help="synthesize an assay JSON file")
    p_syn.add_argument("assay", nargs="?", help="path to assay JSON")
    p_syn.add_argument("--case", type=int,
                       help="synthesize benchmark case N instead of a file")
    p_syn.add_argument("--conventional", action="store_true",
                       help="use the conventional (exact-matching) baseline")
    p_syn.add_argument("--gantt", action="store_true", help="print a Gantt chart")
    p_syn.add_argument("--out", help="write result JSON here")
    p_syn.add_argument(
        "--deterministic", action="store_true",
        help="omit wall-clock fields from --out so identical runs "
             "serialize byte-identically",
    )
    p_syn.add_argument("--profile", action="store_true",
                       help="print per-layer solve telemetry and per-pass "
                            "stage timings")
    _add_spec_arguments(p_syn)
    p_syn.set_defaults(func=_cmd_synthesize)

    p_tp = sub.add_parser(
        "throughput",
        help="synthesize an assay and minimize its steady-state "
             "initiation interval (periodic scheduling)",
    )
    p_tp.add_argument("assay", nargs="?", help="path to assay JSON")
    p_tp.add_argument("--case", type=int,
                      help="use benchmark case N instead of a file")
    p_tp.add_argument(
        "--variants", nargs="+", metavar="ASSAY",
        help="additional assay variant JSON files sharing one chip "
             "(triggers shared-binding multi-variant synthesis)",
    )
    p_tp.add_argument(
        "--variant-prefixes", type=float, nargs="+", metavar="FRACTION",
        help="derive topological-prefix variants at these fractions of "
             "the assay, e.g. 0.5 0.75",
    )
    _add_spec_arguments(p_tp)
    p_tp.set_defaults(func=_cmd_throughput)

    p_layer = sub.add_parser("layer", help="show the layering of an assay")
    p_layer.add_argument("assay")
    p_layer.add_argument("--threshold", type=int, default=10)
    p_layer.set_defaults(func=_cmd_layer)

    p_t2 = sub.add_parser("table2", help="regenerate the paper's Table 2")
    p_t2.add_argument("--cases", type=int, nargs="+", default=[1, 2, 3])
    p_t2.add_argument("--time-limit", type=float, default=20.0)
    p_t2.add_argument("--threshold", type=int, default=10)
    p_t2.add_argument("--mip-gap", type=float, default=0.0)
    p_t2.add_argument("--via-server", metavar="HOST:PORT",
                      help="run every case through a synthesis server "
                           "instead of in-process")
    p_t2.set_defaults(func=_cmd_table2)

    p_t3 = sub.add_parser("table3", help="regenerate the paper's Table 3")
    p_t3.add_argument("--cases", type=int, nargs="+", default=[2, 3])
    p_t3.add_argument("--time-limit", type=float, default=20.0)
    p_t3.add_argument("--threshold", type=int, default=10)
    p_t3.add_argument("--mip-gap", type=float, default=0.0)
    p_t3.add_argument("--profile", action="store_true",
                      help="print per-layer solve telemetry and per-pass "
                           "stage timings per case")
    p_t3.add_argument("--profile-json",
                      help="write per-case solve profiles to this JSON file")
    p_t3.add_argument("--via-server", metavar="HOST:PORT",
                      help="run every case through a synthesis server "
                           "instead of in-process (implies --deterministic)")
    p_t3.add_argument(
        "--deterministic", action="store_true",
        help="strip wall-clock fields from profiles so identical runs "
             "print and export byte-identically",
    )
    p_t3.set_defaults(func=_cmd_table3)

    p_stats = sub.add_parser(
        "stats", help="synthesize an assay and print schedule statistics"
    )
    p_stats.add_argument("assay")
    p_stats.add_argument("--profile", action="store_true",
                         help="print per-layer solve telemetry")
    p_stats.add_argument("--profile-json",
                         help="write the solve profile to this JSON file")
    _add_spec_arguments(p_stats)
    p_stats.set_defaults(func=_cmd_stats)

    p_dot = sub.add_parser("dot", help="export Graphviz DOT views")
    p_dot.add_argument("assay")
    p_dot.add_argument("--view", choices=("assay", "chip"), default="assay")
    p_dot.add_argument("--layers", action="store_true",
                       help="cluster the assay view by layer")
    _add_spec_arguments(p_dot)
    p_dot.set_defaults(func=_cmd_dot)

    p_place = sub.add_parser(
        "place", help="synthesize and place devices on a grid"
    )
    p_place.add_argument("assay")
    p_place.add_argument("--seed", type=int, default=0)
    _add_spec_arguments(p_place)
    p_place.set_defaults(func=_cmd_place)

    p_sim = sub.add_parser(
        "simulate",
        help="synthesize an assay and run a Monte-Carlo fault campaign",
    )
    p_sim.add_argument("assay", help="path to assay JSON")
    p_sim.add_argument("--runs", type=int, default=32,
                       help="number of seeded engine runs")
    p_sim.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = run inline)")
    p_sim.add_argument(
        "--faults", default="",
        help="comma-separated fault specs kind:target[@layer][*factor], "
             "e.g. 'exhaust:cap0,down:d1@2,slow:d0*2.5'",
    )
    p_sim.add_argument(
        "--policy", default="all",
        choices=("abort", "retry", "rebind", "resynth", "all"),
        help="recovery policy chain to run under",
    )
    p_sim.add_argument("--trace-out",
                       help="write a JSONL trace of every engine decision")
    p_sim.add_argument("--stats-json",
                       help="write the merged CampaignStats as canonical JSON")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--success-probability", type=float, default=0.53,
                       help="per-attempt success probability of "
                            "indeterminate operations")
    p_sim.add_argument("--max-attempts", type=int, default=20)
    p_sim.add_argument("--on-exhausted", default="succeed",
                       choices=("succeed", "fail"))
    _add_spec_arguments(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_serve = sub.add_parser(
        "serve", help="run a local synthesis server (HTTP/JSON)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642,
                         help="TCP port (0 = pick an ephemeral port)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="solver processes in the worker pool")
    p_serve.add_argument("--queue-capacity", type=int, default=32,
                         help="pending jobs before submissions get HTTP 429")
    p_serve.add_argument("--store-dir",
                         help="persist results here (default: in-memory)")
    p_serve.add_argument("--store-capacity", type=int, default=256,
                         help="stored results kept before LRU eviction")
    p_serve.add_argument("--journal-dir",
                         help="durable job-journal directory (default: "
                              "<store-dir>/journal when --store-dir is set)")
    p_serve.add_argument("--no-degrade", action="store_true",
                         help="disable the greedy-scheduler fallback for "
                              "jobs that exceed their wall-clock budget")
    p_serve.add_argument("--job-timeout", type=float, default=900.0,
                         help="wall-clock seconds allowed per job")
    p_serve.add_argument("--fleet", action="store_true",
                         help="share --store-dir with peer replicas via "
                              "the lease/fencing protocol")
    p_serve.add_argument("--replica-id",
                         help="stable fleet identity (implies --fleet; "
                              "default: replica-<pid>)")
    p_serve.add_argument("--lease-ttl", type=float, default=10.0,
                         help="seconds before an unrefreshed store lease "
                              "is considered stale and taken over")
    p_serve.add_argument("--heartbeat-interval", type=float, default=2.0,
                         help="seconds between lease heartbeats")
    p_serve.add_argument("--compact-min-bytes", type=int,
                         default=64 * 1024,
                         help="closed journal bytes that trigger "
                              "background compaction")
    p_serve.add_argument("--compact-min-age", type=float, default=300.0,
                         help="oldest closed-segment age (seconds) that "
                              "triggers background compaction")
    p_serve.set_defaults(func=_cmd_serve)

    p_sub = sub.add_parser(
        "submit", help="submit an assay to a running synthesis server"
    )
    p_sub.add_argument("assay", nargs="?", help="path to assay JSON")
    p_sub.add_argument("--case", type=int,
                       help="submit benchmark case N instead of a file")
    p_sub.add_argument("--server", default="127.0.0.1:8642",
                       metavar="HOST:PORT[,HOST:PORT...]",
                       help="one server, or a comma-separated fleet "
                            "(one client; submissions hedged from two "
                            "replicas up, a job's calls pinned to its "
                            "replica)")
    p_sub.add_argument("--hedge-after", type=float, default=None,
                       metavar="SECONDS",
                       help="with a fleet --server list: fire a duplicate "
                            "submit to a second replica after this fixed "
                            "delay (default: adaptive p95)")
    p_sub.add_argument("--conventional", action="store_true",
                       help="request the conventional baseline method")
    p_sub.add_argument("--priority", type=int, default=0,
                       help="higher values dispatch first (default 0)")
    p_sub.add_argument("--no-wait", action="store_true",
                       help="print the job id and return immediately")
    p_sub.add_argument("--deadline", type=float, default=600.0,
                       help="seconds to wait for the result")
    p_sub.add_argument("--job-timeout", type=float, default=None,
                       help="per-job wall-clock budget on the server")
    p_sub.add_argument("--out", help="write the result JSON here "
                                     "(same bytes as synthesize "
                                     "--deterministic --out)")
    _add_spec_arguments(p_sub)
    p_sub.set_defaults(func=_cmd_submit)

    p_jobs = sub.add_parser(
        "jobs", help="list jobs (or metrics) of a running synthesis server"
    )
    p_jobs.add_argument("--server", default="127.0.0.1:8642",
                        metavar="HOST:PORT")
    p_jobs.add_argument("--metrics", action="store_true",
                        help="print the /metrics snapshot as JSON")
    p_jobs.set_defaults(func=_cmd_jobs)

    p_chaos = sub.add_parser(
        "chaos",
        help="run a deterministic fault-injection campaign against a "
             "real in-process synthesis server",
    )
    p_chaos.add_argument("--scenario", choices=("classic", "fleet"),
                         default="classic",
                         help="classic: single server, four fault kinds; "
                              "fleet: multiple replicas over one store "
                              "(lease takeover, fencing, coalescing)")
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="campaign seed (fault placement + jitter)")
    p_chaos.add_argument("--jobs", type=int, default=2,
                         help="duplicate submissions layered on wave 1")
    p_chaos.add_argument("--cases", type=int, nargs="+", default=[1, 2],
                         help="benchmark cases to submit (default: 1 2)")
    p_chaos.add_argument("--workdir",
                         help="parent dir for the campaign store/journal "
                              "(a fresh subdir is created and kept)")
    p_chaos.add_argument("--workers", type=int, default=2)
    p_chaos.add_argument("--time-limit", type=float, default=30.0,
                         help="per-layer ILP budget, seconds")
    p_chaos.add_argument("--deadline", type=float, default=600.0,
                         help="client-side wait per job, seconds")
    p_chaos.add_argument("--json", action="store_true",
                         help="print the report as JSON")
    p_chaos.add_argument("--lease-ttl", type=float, default=2.0,
                         help="fleet scenario: store-lease TTL, seconds")
    p_chaos.add_argument("--claim-ttl", type=float, default=3.0,
                         help="fleet scenario: in-flight claim TTL")
    p_chaos.add_argument("--no-partition", action="store_true",
                         help="fleet scenario: skip the partition/"
                              "fencing phase")
    p_chaos.set_defaults(func=_cmd_chaos)

    p_demo = sub.add_parser("demo", help="synthesize benchmark case 1 and show it")
    p_demo.add_argument("--time-limit", type=float, default=10.0)
    p_demo.set_defaults(func=_cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SerializationError, SpecificationError) as exc:
        # Bad input (unreadable path, malformed assay/spec JSON, bad
        # fault spec): one line on stderr, argparse-style exit code.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
