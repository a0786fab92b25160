"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench -q``.
The last two tests pin defects of the program found while sizing the
workloads; they are strict xfails, so fixing a defect fails its test until
the marker is removed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _env(hash_seed: str | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return env


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "3",
         "--seconds", "1", "--smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(run: subprocess.CompletedProcess) -> dict:
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    result = _result(_bench("--workload", workload, "--trace", trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
        if trace == "0":
            assert printed["value"] != 0, metric["name"]


@pytest.mark.parametrize("workload", ["ilp-resynth", "service-mix"])
def test_tampered_result_counts_as_failed(workload):
    result = _result(_bench("--workload", workload, "--trace", "0",
                            "--tamper", "1"))
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    run = _bench("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert run.returncode != 0
    assert "{" not in run.stdout


def _python(code: str, hash_seed: str | None = None) -> str:
    run = subprocess.run(
        [sys.executable, "-c", code], env=_env(hash_seed), cwd=ROOT,
        capture_output=True, text=True, timeout=170,
    )
    if run.returncode != 0:
        raise RuntimeError(run.stderr)
    return run.stdout.strip()


_GENERATOR_ASSAY = (
    "from repro.assays import random_assay\n"
    "from repro.hls import SynthesisSpec, synthesize\n"
    "n, seed = {n}, {seed}\n"
    "assay = random_assay(n, seed=seed, edge_probability=3 / n,\n"
    "                     indeterminate_fraction=0.1)\n"
    "spec = SynthesisSpec(max_devices=n, threshold=3, scheduler='{scheduler}',\n"
    "                     storage_mode='{storage}',\n"
    "                     throughput_mode='periodic')\n"
    "result = synthesize(assay, spec)\n"
    "result.validate()\n"
)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="schedule_throughput rejects validated one-shot results of "
    "generator assays: 'one-shot schedule fails periodic replay at II = "
    "makespan' (portfolio scheduling fails the same way, in minutes)",
)
@pytest.mark.parametrize("storage", ["off", "auto"])
def test_periodic_accepts_validated_generator_results(storage):
    code = _GENERATOR_ASSAY.format(
        n=120, seed=1001, scheduler="greedy", storage=storage
    ) + (
        "from repro.errors import SchedulingError\n"
        "from repro.periodic import schedule_throughput\n"
        "try:\n"
        "    print(schedule_throughput(result, spec).ii)\n"
        "except SchedulingError as exc:\n"
        "    print('error', exc)\n"
    )
    assert not _python(code).startswith("error")


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="greedy schedules of generator assays depend on PYTHONHASHSEED "
    "(layering is stable; the difference enters in the greedy scheduler)",
)
def test_greedy_result_does_not_depend_on_hash_seed():
    code = _GENERATOR_ASSAY.format(
        n=280, seed=7001, scheduler="greedy", storage="off"
    ).replace("throughput_mode='periodic'", "throughput_mode='off'") + (
        "print(result.num_paths, result.fixed_makespan)\n"
    )
    answers = {_python(code, hash_seed) for hash_seed in "0123"}
    assert len(answers) == 1, answers
