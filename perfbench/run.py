"""Benchmark of the component-oriented HLS reproduction.

    python3 perfbench/run.py --workload ilp-resynth --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
Workloads (see README.md): ``ilp-resynth``, ``greedy-scale`` and
``service-mix``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--smoke`` runs every workload at tiny sizes (used by the benchmark's own
tests); ``--tamper N`` corrupts the N-th output before it is checked.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

from common import OUT, SRC, WORK

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ilp-resynth", "greedy-scale", "service-mix")

#: fresh-process cold starts per run; ``setup_s`` is their median.
COLD_STARTS = {"ilp-resynth": 3, "greedy-scale": 5, "service-mix": 3}

_IMPORTS = (
    "from repro.hls import SynthesisSpec, synthesize\n"
    "import repro.io.json_io, repro.periodic\n"
    "from repro.assays import kinase_assay, random_assay\n"
)
#: what one cold start of a batch workload runs: imports, plus one ILP
#: solve (ilp-resynth) or one greedy job (greedy-scale).
COLD_START_CODE = {
    "ilp-resynth": _IMPORTS
    + "synthesize(kinase_assay(samples=1), "
    "SynthesisSpec(max_devices=6, threshold=2))\n",
    "greedy-scale": _IMPORTS
    + "synthesize(random_assay(40, seed=1, edge_probability=0.075), "
    "SynthesisSpec(max_devices=40, threshold=3, scheduler='greedy'))\n",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--tamper", type=int, default=None, metavar="N",
                        help="corrupt the N-th output before checking it")
    return parser.parse_args(argv)


def load_golden() -> dict:
    return json.loads((HERE / "golden.json").read_text())


def measure(args, tracer=None, trace_out=None):
    """One measured run of the workload; returns ``(outcome, extra)``."""
    from batch import run_batch, warm_up
    from inputs import (
        GREEDY_SIZES,
        PROTOCOLS,
        REPLAY_THRESHOLDS,
        greedy_job,
        greedy_plan,
        ilp_plan,
        protocol_job,
    )

    if args.workload == "ilp-resynth":
        names = ("kin1", "chip1") if args.smoke else tuple(PROTOCOLS)
        plan = ilp_plan(args.seed, names)
        warm_up(protocol_job("kin1"))
        replays = REPLAY_THRESHOLDS[:1] if args.smoke else REPLAY_THRESHOLDS
        # ~90 % of the time is inside HiGHS: a MILP is the reference.
        return run_batch(plan, args.seconds, replays, True, load_golden(),
                         tracer, args.tamper, ref_kind="milp"), {}
    if args.workload == "greedy-scale":
        sizes = (30, 40) if args.smoke else GREEDY_SIZES
        plan = greedy_plan(args.seed, sizes)
        warm_up(greedy_job(40, 1))
        return run_batch(plan, args.seconds, (0.2,), False, None, tracer,
                         args.tamper), {}
    from service import Server, run_service, warm_up as warm_server

    server = Server("traced" if tracer else "plain", trace_out)
    try:
        warm_server(server)
        outcome, before, after = run_service(
            server, args.seed, args.seconds, load_golden(), tracer,
            args.tamper, **({"cold_per_round": 3} if args.smoke else {}),
        )
    finally:
        server.stop()
    return outcome, {"before": before, "after": after}


def setup_seconds(args) -> list[float]:
    from common import cold_start_seconds

    repeats = 1 if args.smoke else COLD_STARTS[args.workload]
    if args.workload == "service-mix":
        from service import cold_start

        return [cold_start(f"cold-{i}") for i in range(repeats)]
    return cold_start_seconds(COLD_START_CODE[args.workload], repeats)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/repro; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import metrics

    WORK.mkdir(exist_ok=True)
    try:
        if args.trace:
            result = traced_run(args, metrics)
        else:
            setup = setup_seconds(args)
            outcome, extra = measure(args)
            result = metrics.end_to_end(outcome, setup, extra)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for problem in result.pop("problems"):
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def traced_run(args, metrics) -> dict:
    """An untraced pass for reference, then the traced pass."""
    from tracing import PROGRAM_TARGETS, Tracer

    plain, _ = measure(args)
    tracer = Tracer()
    server_spans = WORK / "server-spans.json"
    tracer.install(PROGRAM_TARGETS)
    try:
        traced, extra = measure(args, tracer, server_spans)
    finally:
        tracer.uninstall()
    if server_spans.exists():
        extra["server"] = json.loads(server_spans.read_text())
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write_chrome_trace(trace_file)
    result = metrics.per_layer(plain, traced, tracer, extra)
    print(metrics.self_time_table(result, tracer, traced))
    print(f"chrome trace: {trace_file.relative_to(Path.cwd())}")
    return result


if __name__ == "__main__":
    sys.exit(main())
