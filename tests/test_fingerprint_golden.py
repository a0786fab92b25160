"""Byte-identity lock on the layer-solve cache keys.

``tests/data/layer_fingerprints.json`` holds, per storage mode, the
SHA-256 over the concatenated ``fingerprint_layer_problem`` and
``structural_fingerprint_layer_problem`` values of every layer problem a
greedy synthesis of one generator assay poses.  The keys stay inside one
process, but a rewrite of the fingerprinting (e.g. an incremental one)
must still produce them byte for byte; the keys also share ``_spec_token``
with the persisted store keys locked by
``tests/test_run_fingerprint_golden.py``.

Each case runs in a fresh interpreter with ``PYTHONHASHSEED=0``, like
``tests/test_greedy_golden.py``: greedy schedules of generator assays
depend on the string hash seed, and later layer problems inherit the
earlier layers' bindings.

Regenerate (only in a change that explains why the keys moved)::

    PYTHONPATH=src python tests/test_fingerprint_golden.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "data" / "layer_fingerprints.json"

N = 200
STORAGE_MODES = ("auto", "off")

_DIGEST = """
import hashlib
from repro.assays import random_assay
from repro.hls import SynthesisSpec, synthesize
from repro.hls import pipeline
from repro.hls.cache import (
    fingerprint_layer_problem,
    structural_fingerprint_layer_problem,
)
n, storage = {n}, {storage!r}
digest = hashlib.sha256()
problems = 0
solve = pipeline.LayerSolveStage.solve

def recording_solve(self, problem, spec, *args, **kwargs):
    global problems
    problems += 1
    for fingerprint in (
        fingerprint_layer_problem,
        structural_fingerprint_layer_problem,
    ):
        digest.update(fingerprint(problem, spec).encode())
    return solve(self, problem, spec, *args, **kwargs)

pipeline.LayerSolveStage.solve = recording_solve
assay = random_assay(n, seed=n, edge_probability=3 / n,
                     indeterminate_fraction=0.1)
spec = SynthesisSpec(max_devices=n, threshold=3, scheduler="greedy",
                     storage_mode=storage)
synthesize(assay, spec)
print(problems, digest.hexdigest())
"""


def digest(storage: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    run = subprocess.run(
        [sys.executable, "-c", _DIGEST.format(n=N, storage=storage)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if run.returncode != 0:
        raise RuntimeError(run.stderr)
    problems, sha = run.stdout.split()
    return {"problems": int(problems), "sha256": sha}


@pytest.mark.parametrize("storage", STORAGE_MODES)
def test_layer_fingerprints_match_golden(storage):
    golden = json.loads(GOLDEN.read_text())
    assert digest(storage) == golden[f"n{N}-{storage}"]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {f"n{N}-{storage}": digest(storage) for storage in STORAGE_MODES},
            indent=1,
        )
        + "\n"
    )
    print(f"wrote {len(STORAGE_MODES)} digests to {GOLDEN}")
