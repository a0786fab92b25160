"""Certified synthesis quality: the lp-bound backend and the bound/gap
plumbing through results, reports and the service payload.

Three properties anchor the suite: lp-bound schedules are *feasible* on
every paper case, every reported ``lower_bound`` really bounds the
achieved objective, and the chip does not depend on the LP budget — only
the certificate may.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.assays import benchmark_assay, random_assay
from repro.hls import SynthesisSpec, available_schedulers, synthesize
from repro.ilp import relative_gap
from repro.io.json_io import (
    assay_to_json,
    result_to_json,
    spec_to_json,
)

_RUNS: dict[int, object] = {}


def _case_run(case: int):
    """One cheap single-pass lp-bound run per paper case."""
    if case not in _RUNS:
        spec = SynthesisSpec(
            threshold=4, time_limit=10.0, max_iterations=0,
            scheduler="lp-bound",
        )
        _RUNS[case] = synthesize(benchmark_assay(case), spec)
    return _RUNS[case]


class TestRegistry:
    def test_certified_backends_registered(self):
        names = available_schedulers()
        assert "lp-bound" in names
        assert "approx-lp" not in names


class TestFeasibility:
    @pytest.mark.parametrize("case", (1, 2, 3))
    def test_schedule_validates(self, case):
        """lp-bound schedules pass full validation on every paper case —
        the LP only certifies, it never changes feasibility."""
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


def _chip(result) -> dict:
    """``result_to_json(…, deterministic=True)`` without the certificate."""
    report = result_to_json(result, deterministic=True)
    del report["lower_bound"], report["integrality_gap"]
    for record in report["history"]:
        del record["lower_bound"], record["integrality_gap"]
    return report


class TestBudgetIndependence:
    @pytest.mark.parametrize("name", ("generator", "case1"))
    def test_chip_does_not_depend_on_lp_budget(self, name):
        """A 1 ms LP budget, under which the layer LPs stop at their limit
        and certify little or nothing, gives the same chip as the default
        budget.  Whether a tiny LP finishes within 1 ms depends on the
        machine, so only the certificate may differ, never the chip."""
        if name == "generator":
            n = 24
            assay = random_assay(
                n, seed=n, edge_probability=3 / n, indeterminate_fraction=0.1
            )
            base = dict(max_devices=n, threshold=3)
        else:
            assay = benchmark_assay(1)
            base = dict(threshold=4)
        full = synthesize(assay, SynthesisSpec(scheduler="lp-bound", **base))
        starved = synthesize(
            assay,
            SynthesisSpec(scheduler="lp-bound", time_limit=1e-3, **base),
        )
        assert full.lower_bound is not None
        assert _chip(starved) == _chip(full)
