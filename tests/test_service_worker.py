"""The service worker entry point (repro.service.worker.run_job).

A job's spec alone decides how it is solved: the worker builds no state
of its own around ``synthesize``, so a job answers exactly like a direct
run of the same assay and spec.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.io import assay_to_json, spec_to_json
from repro.service.worker import run_job

ROOT = Path(__file__).resolve().parent.parent

#: A greedy multi-pass job with the layer-solve cache switched off.  Its
#: re-synthesis passes pose repeated layer problems, so a worker that
#: replays layers from a cache of its own reports hits.  Greedy schedules
#: of generator assays depend on the string hash seed, so this runs in a
#: fresh interpreter with ``PYTHONHASHSEED=0`` (see test_greedy_golden.py).
_CACHE_OFF_JOB = """
import json
from repro.assays import random_assay
from repro.hls import SynthesisSpec, synthesize
from repro.io import assay_to_json, result_to_json, spec_to_json
from repro.service.worker import run_job
assay = random_assay(60, seed=6, edge_probability=0.05)
spec = SynthesisSpec(max_devices=60, scheduler="greedy",
                     improvement_threshold=-1, max_iterations=4,
                     enable_solve_cache=False)
outcome = run_job({"assay": assay_to_json(assay),
                   "spec": spec_to_json(spec), "method": "hls"})
payload = outcome[1]
direct = result_to_json(synthesize(assay, spec), deterministic=True)
print(json.dumps({
    "tag": outcome[0],
    "cache_hits": payload["profile"]["totals"]["cache_hits"],
    "same_as_direct": payload["result"] == direct,
}))
"""


def _request(assay, spec, method="hls"):
    return {
        "assay": assay_to_json(assay),
        "spec": spec_to_json(spec),
        "method": method,
    }


def test_ok_outcome_is_tag_and_payload(linear_assay, fast_spec):
    outcome = run_job(_request(linear_assay, fast_spec))
    assert len(outcome) == 2
    tag, payload = outcome
    assert tag == "ok"
    assert {"result", "profile", "quality"} <= set(payload)


def test_unknown_method_is_a_bad_request(linear_assay, fast_spec):
    tag, kind, message = run_job(
        _request(linear_assay, fast_spec, method="nope")
    )
    assert (tag, kind) == ("error", "bad-request")
    assert "nope" in message


def test_malformed_request_is_a_bad_request():
    tag, kind, message = run_job({"method": "hls"})
    assert (tag, kind) == ("error", "bad-request")
    assert "malformed" in message


def test_cache_off_job_replays_nothing():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    run = subprocess.run(
        [sys.executable, "-c", _CACHE_OFF_JOB],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert report == {"tag": "ok", "cache_hits": 0, "same_as_direct": True}
