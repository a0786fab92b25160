"""Byte-identity lock on the whole-run fingerprints (service store keys).

``tests/data/run_fingerprints.json`` holds ``fingerprint_run`` of the
paper cases 1-3 under the default spec, plus one storage-and-throughput
variant.  The service result store (:mod:`repro.service.store`) is
addressed by these keys and persists across restarts, so a key that
changes by one byte silently orphans every stored result.

``_spec_token`` still carries literals where retired spec fields used to
be (the conflict-encoding mode, the warm-start cutoff); this lock is what
proves those literals keep the persisted keys unchanged.

Regenerate (only in a change that explains why the keys moved)::

    PYTHONPATH=src python tests/test_run_fingerprint_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.assays import benchmark_assay
from repro.hls import SynthesisSpec
from repro.hls.cache import fingerprint_run

GOLDEN = Path(__file__).parent / "data" / "run_fingerprints.json"

#: name -> (paper case, spec overrides)
CASES = {
    "case1": (1, {}),
    "case2": (2, {}),
    "case3": (3, {}),
    "case2-storage-auto-periodic": (
        2, {"storage_mode": "auto", "throughput_mode": "periodic"}
    ),
}


def fingerprint(name: str) -> str:
    case, overrides = CASES[name]
    return fingerprint_run(benchmark_assay(case), SynthesisSpec(**overrides))


@pytest.mark.parametrize("name", CASES)
def test_run_fingerprint_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())
    assert fingerprint(name) == golden[name]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: fingerprint(name) for name in CASES}, indent=1)
        + "\n"
    )
    print(f"wrote {len(CASES)} fingerprints to {GOLDEN}")
