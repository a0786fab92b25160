"""Byte-identity lock on the whole-run fingerprints (service store keys).

``tests/data/run_fingerprints.json`` holds ``fingerprint_run`` of the
paper cases 1-3 under the default spec, plus one storage-and-throughput
variant.  The service result store (:mod:`repro.service.store`) is
addressed by these keys and persists across restarts, so a key that
changes by one byte silently orphans every stored result.

``_spec_token`` still carries literals where retired spec fields used to
be (the solver backend, the warm-start switch, the conflict-encoding
mode, the warm-start cutoff); this lock is what proves those literals
keep the persisted keys unchanged.  Spec JSON written before the solver
backend and warm-start fields were retired still carries them; it must
load and address the same stored results.

Regenerate (only in a change that explains why the keys moved)::

    PYTHONPATH=src python tests/test_run_fingerprint_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.assays import benchmark_assay
from repro.errors import SerializationError
from repro.hls import SynthesisSpec
from repro.hls.cache import fingerprint_run
from repro.io.json_io import spec_from_json, spec_to_json

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


def legacy_spec_json(**retired) -> dict:
    """Spec JSON as clients and journal records wrote it while the solver
    backend and warm-start knobs existed (their defaults: auto, true)."""
    data = spec_to_json(SynthesisSpec())
    data.update({"backend": "auto", "enable_warm_start": True})
    data.update(retired)
    return data


def test_spec_json_no_longer_carries_retired_fields():
    data = spec_to_json(SynthesisSpec())
    assert "backend" not in data
    assert "enable_warm_start" not in data


@pytest.mark.parametrize("backend", ("auto", "highs"))
def test_legacy_spec_json_keeps_the_stored_key(backend):
    golden = json.loads(GOLDEN.read_text())
    spec = spec_from_json(legacy_spec_json(backend=backend))
    assert fingerprint_run(benchmark_assay(1), spec) == golden["case1"]


@pytest.mark.parametrize(
    "retired, option",
    (
        ({"backend": "bnb"}, "backend"),
        ({"backend": "gurobi"}, "backend"),
        ({"enable_warm_start": False}, "enable_warm_start"),
        ({"enable_warm_start": 1}, "enable_warm_start"),
    ),
)
def test_legacy_spec_json_rejects_removed_options(retired, option):
    with pytest.raises(SerializationError, match=option):
        spec_from_json(legacy_spec_json(**retired))


def test_bnb_scheduler_is_rejected():
    data = spec_to_json(SynthesisSpec())
    data["scheduler"] = "ilp-bnb"
    with pytest.raises(SerializationError, match="ilp-bnb"):
        spec_from_json(data)


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: fingerprint(name) for name in CASES}, indent=1)
        + "\n"
    )
    print(f"wrote {len(CASES)} fingerprints to {GOLDEN}")
