"""Certified synthesis quality: the lp-bound / approx-lp backends and the
bound/gap plumbing through results, reports and the service payload.

Two properties anchor the suite: rounded schedules are *feasible* on
every paper case, and every reported ``lower_bound`` really bounds the
achieved objective.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.assays import benchmark_assay
from repro.hls import SynthesisSpec, available_schedulers, synthesize
from repro.ilp import relative_gap
from repro.io.json_io import (
    assay_to_json,
    result_to_json,
    spec_to_json,
)

_RUNS: dict[int, object] = {}


def _case_run(case: int):
    """One cheap single-pass approx-lp run per paper case."""
    if case not in _RUNS:
        spec = SynthesisSpec(
            threshold=4, time_limit=10.0, max_iterations=0,
            scheduler="approx-lp",
        )
        _RUNS[case] = synthesize(benchmark_assay(case), spec)
    return _RUNS[case]


class TestRegistry:
    def test_new_backends_registered(self):
        names = available_schedulers()
        assert "lp-bound" in names
        assert "approx-lp" in names


class TestRoundedFeasibility:
    @pytest.mark.parametrize("case", (1, 2, 3))
    def test_schedule_validates(self, case):
        """Rounded-and-repaired schedules pass full validation on every
        paper case — rounding may only change cost, never feasibility."""
        result = _case_run(case)
        result.validate()

    @pytest.mark.parametrize("case", (1, 2, 3))
    def test_run_is_certified(self, case):
        """The LP bound survives to the result: a finite certificate with
        ``lower_bound <= objective``."""
        result = _case_run(case)
        assert result.lower_bound is not None
        assert math.isfinite(result.lower_bound)
        gap = result.integrality_gap
        assert gap is not None and 0.0 <= gap < 1.0


class TestBoundInvariant:
    @pytest.mark.parametrize("case", (1, 2, 3))
    def test_layer_bounds_below_objectives(self, case):
        """Per-layer: a certified bound never exceeds the achieved layer
        objective, and the recorded gap is the achieved one."""
        result = _case_run(case)
        certified = 0
        for stats in result.solve_stats:
            if stats.lower_bound is None:
                assert stats.integrality_gap is None
                continue
            certified += 1
            assert stats.objective is not None
            assert stats.lower_bound <= stats.objective + 1e-9
            assert stats.integrality_gap == relative_gap(
                stats.objective, stats.lower_bound
            )
        assert certified > 0

    def test_result_json_carries_finite_certificate(self):
        report = result_to_json(_case_run(1), deterministic=True)
        # Strict JSON (allow_nan=False) — no NaN/inf tokens anywhere.
        json.dumps(report, allow_nan=False)
        assert report["lower_bound"] is not None
        assert report["lower_bound"] <= sum(
            s.objective
            for s in _case_run(1).solve_stats
            if s.objective is not None
        ) + 1e-6
        assert report["history"][0]["integrality_gap"] is not None


class TestDegradedCertificate:
    def test_degraded_job_reports_finite_gap(self):
        """A spec that forces a wall-clock timeout still comes back with a
        certified gap: the degraded re-run pins the lp-bound scheduler and
        widens the LP budget."""
        from repro.service.worker import run_job

        body = {
            "assay": assay_to_json(benchmark_assay(1)),
            "spec": spec_to_json(
                SynthesisSpec(threshold=4, time_limit=0.01, max_iterations=0)
            ),
            "method": "hls",
            "degraded": True,
        }
        tag, payload = run_job(body)
        assert tag == "ok"
        assert payload["degraded"] is True
        quality = payload["quality"]
        assert quality["lower_bound"] is not None
        assert quality["integrality_gap"] is not None
        assert 0.0 <= quality["integrality_gap"] < 1.0
        json.dumps(payload, allow_nan=False)
