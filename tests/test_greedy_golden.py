"""Byte-identity lock on the greedy scheduler's output for generator assays.

``tests/data/greedy_golden.json`` holds the SHA-256 of
``result_to_json(result, deterministic=True)`` for each case below.  The
digests were recorded before the greedy scheduler's slot reservation
became incremental; any change to a greedy schedule on these assays
changes a digest.

Each case runs in a fresh interpreter with ``PYTHONHASHSEED=0``: greedy
schedules of generator assays still depend on the string hash seed (set
iteration order leaks into the schedule), so digests are only stable for
a pinned seed.  That dependence is a known, separately tracked defect;
this test only guards against *unintended* changes at a fixed seed.

Regenerate (only in a change that explains why the schedules moved)::

    PYTHONPATH=src python tests/test_greedy_golden.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "data" / "greedy_golden.json"

#: name -> (num_ops, storage_mode, binding_mode, scheduler)
CASES = {
    "n200-off": (200, "off", "cover", "greedy"),
    "n200-auto": (200, "auto", "cover", "greedy"),
    "n360-off": (360, "off", "cover", "greedy"),
    "n360-auto": (360, "auto", "cover", "greedy"),
    "n200-off-exact": (200, "off", "exact", "greedy"),
}

_DIGEST = """
import hashlib, json
from repro.assays import random_assay
from repro.devices import BindingMode
from repro.hls import SynthesisSpec, synthesize
from repro.io import result_to_json
n, storage, mode, scheduler = {n}, {storage!r}, {mode!r}, {scheduler!r}
assay = random_assay(n, seed=n, edge_probability=3 / n,
                     indeterminate_fraction=0.1)
spec = SynthesisSpec(max_devices=n, threshold=3, scheduler=scheduler,
                     storage_mode=storage, binding_mode=BindingMode(mode))
report = result_to_json(synthesize(assay, spec), deterministic=True)
print(hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest())
"""


def digest(case: str) -> str:
    n, storage, mode, scheduler = CASES[case]
    script = _DIGEST.format(n=n, storage=storage, mode=mode, scheduler=scheduler)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    run = subprocess.run(
        [sys.executable, "-c", script],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if run.returncode != 0:
        raise RuntimeError(run.stderr)
    return run.stdout.strip()


@pytest.mark.parametrize("case", sorted(CASES))
def test_greedy_output_matches_golden(case):
    golden = json.loads(GOLDEN.read_text())
    assert digest(case) == golden[case]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({case: digest(case) for case in sorted(CASES)}, indent=1)
        + "\n"
    )
    print(f"wrote {len(CASES)} digests to {GOLDEN}")
