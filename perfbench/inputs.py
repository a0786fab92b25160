"""Seeded inputs of the three workloads.

Inputs are plain JSON documents (assay and spec, as ``repro.io.json_io``
writes them), so every job runs JSON in -> JSON out through the program's
public entry points.  Generation happens before any timed region.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.assays import (
    chip_assay,
    gene_expression_assay,
    kinase_assay,
    random_assay,
    rtqpcr_assay,
)
from repro.hls import SynthesisSpec
from repro.io.json_io import assay_to_json, spec_to_json

#: Protocol families where every layer proves ``optimal`` well inside the
#: default 20 s layer budget: name -> (assay function, kwargs, |D|, threshold t).
PROTOCOLS = {
    "gene2": (gene_expression_assay, {"cells": 2}, 6, 2),
    "gene3": (gene_expression_assay, {"cells": 3}, 9, 3),
    "gene4": (gene_expression_assay, {"cells": 4}, 12, 4),
    "rtq2": (rtqpcr_assay, {"cells": 2}, 6, 2),
    "chip1": (chip_assay, {"samples": 1}, 4, 1),
    "kin1": (kinase_assay, {"samples": 1}, 6, 2),
}

#: improvement thresholds of the replay jobs: a higher threshold than the
#: default 0.10 runs a subset of the cold job's passes, so every layer
#: problem is one the cold job already solved.
REPLAY_THRESHOLDS = (0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55)

#: greedy-scale assay sizes (operations).
GREEDY_SIZES = (200, 280, 360, 440)

#: service-mix protocol requests, one per round in this order: each job
#: first with the default threshold, then resubmitted with another
#: improvement threshold (new run fingerprint, same layer problems).
SERVICE_PROTOCOLS = tuple(
    (name, threshold)
    for threshold in (0.1,) + REPLAY_THRESHOLDS
    for name in ("kin1", "chip1", "gene2")
)


@dataclass
class Job:
    """One synthesis request: assay JSON plus the spec JSON of each mode."""

    name: str
    assay: dict
    #: spec JSON per storage mode ("off" / "auto").
    specs: dict[str, dict] = field(default_factory=dict)

    def spec(self, mode: str, threshold: float | None = None) -> dict:
        spec = dict(self.specs[mode])
        if threshold is not None:
            spec["improvement_threshold"] = threshold
        return spec


def _auto_spec(**kwargs) -> SynthesisSpec:
    return SynthesisSpec(
        storage_mode="auto", throughput_mode="periodic", **kwargs
    )


def protocol_job(name: str) -> Job:
    make_assay, kwargs, max_devices, threshold = PROTOCOLS[name]
    limits = {"max_devices": max_devices, "threshold": threshold}
    return Job(
        name=name,
        assay=assay_to_json(make_assay(**kwargs)),
        specs={
            "off": spec_to_json(SynthesisSpec(**limits)),
            "auto": spec_to_json(_auto_spec(**limits)),
        },
    )


def greedy_job(num_ops: int, seed: int) -> Job:
    assay = random_assay(
        num_ops, seed=seed, edge_probability=3 / num_ops,
        indeterminate_fraction=0.1,
    )
    limits = {"max_devices": num_ops, "threshold": 3, "scheduler": "greedy"}
    return Job(
        name=f"rand{num_ops}-{seed}",
        assay=assay_to_json(assay),
        specs={
            "off": spec_to_json(SynthesisSpec(**limits)),
            "auto": spec_to_json(SynthesisSpec(storage_mode="auto", **limits)),
        },
    )


@dataclass
class BatchPlan:
    """Job order plus the seeded half that runs ``storage_mode=auto`` in
    even rounds; odd rounds flip the half, so every two rounds (a cycle)
    run each job once in each mode and quality sums over a cycle do not
    depend on the seed's choice of half."""

    jobs: list[Job]
    auto_first: set[str]

    def mode(self, job: Job, round_index: int) -> str:
        first = job.name in self.auto_first
        return "auto" if first != (round_index % 2 == 1) else "off"


def ilp_plan(seed: int, names=tuple(PROTOCOLS)) -> BatchPlan:
    rng = random.Random(seed)
    jobs = [protocol_job(name) for name in names]
    rng.shuffle(jobs)
    half = {job.name for job in rng.sample(jobs, len(jobs) // 2)}
    return BatchPlan(jobs=jobs, auto_first=half)


def greedy_plan(seed: int, sizes=GREEDY_SIZES) -> BatchPlan:
    """Fixed generator assays (generator seed = size), so quality sums and
    the amount of work do not vary with the run seed, which sets the order
    and the auto half."""
    rng = random.Random(seed)
    jobs = [greedy_job(n, n) for n in sizes]
    rng.shuffle(jobs)
    half = {job.name for job in rng.sample(jobs, len(jobs) // 2)}
    return BatchPlan(jobs=jobs, auto_first=half)


@dataclass
class Request:
    """One service-mix request.

    ``kind`` is ``cold`` (a body never submitted before), ``repeat`` (a
    body that already finished, chosen when the request is sent) or
    ``protocol`` (a protocol ILP job with this round's threshold).
    """

    kind: str
    body: tuple[dict, dict] | None = None
    name: str = ""
    pick: int = 0


def service_round(seed: int, round_index: int, cold: int) -> list[Request]:
    """The request stream of one service-mix round.

    ``cold`` distinct greedy jobs on 60-120-operation generator assays, as
    many repeats, and the round's protocol request, in a seeded order.
    The first two requests are cold, so a repeat always has a finished
    body to repeat.
    """
    rng = random.Random(f"{seed}:{round_index}")
    requests = []
    for _ in range(cold):
        job = greedy_job(rng.randint(60, 120), rng.randrange(1 << 30))
        requests.append(
            Request("cold", (job.assay, job.specs["off"]), name=job.name)
        )
    name, threshold = SERVICE_PROTOCOLS[round_index]
    requests.append(
        Request(
            "protocol",
            (protocol_job(name).assay,
             protocol_job(name).spec("auto", threshold)),
            name=f"{name}@{threshold}",
        )
    )
    requests += [Request("repeat", pick=rng.randrange(1 << 30))
                 for _ in range(cold)]
    head, tail = requests[:2], requests[2:]
    rng.shuffle(tail)
    return head + tail
