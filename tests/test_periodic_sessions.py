"""Solver-degradation behavior of the II search."""

from __future__ import annotations

import dataclasses

import pytest

import repro.ilp.highs as highs_mod
from repro.errors import SolverError
from repro.hls import synthesize
from repro.periodic import schedule_throughput, validate_periodic_schedule


def _break_highs(monkeypatch, message):
    """Make every one-shot HiGHS solve fail the way an unusable solver
    (SciPy missing or broken) does."""

    def failing(model, time_limit=None, mip_gap=None):
        raise SolverError(message)

    monkeypatch.setattr(highs_mod, "solve_highs", failing)


@pytest.fixture
def pipelined_result(indeterminate_assay, fast_spec):
    return synthesize(indeterminate_assay, fast_spec)


class TestDegradation:
    def test_missing_scipy_degrades_to_greedy(
        self, pipelined_result, fast_spec, monkeypatch
    ):
        """No usable MIP solve: auto warns once and falls back to greedy."""
        _break_highs(monkeypatch, "HiGHS requires SciPy (test)")
        with pytest.warns(RuntimeWarning, match="degrading to the greedy"):
            throughput = schedule_throughput(pipelined_result, fast_spec)
        assert throughput.degraded
        assert throughput.ii <= throughput.base_makespan
        validate_periodic_schedule(throughput.schedule)

    def test_explicit_ilp_scheduler_surfaces_the_error(
        self, pipelined_result, fast_spec, monkeypatch
    ):
        """scheduler=ilp is a hard request: no silent greedy substitution."""
        _break_highs(monkeypatch, "HiGHS requires SciPy (test)")
        spec = dataclasses.replace(fast_spec, throughput_scheduler="ilp")
        with pytest.raises(SolverError):
            schedule_throughput(pipelined_result, spec)

    def test_degraded_result_matches_pure_greedy(
        self, pipelined_result, fast_spec, monkeypatch
    ):
        _break_highs(monkeypatch, "no scipy")
        with pytest.warns(RuntimeWarning):
            degraded = schedule_throughput(pipelined_result, fast_spec)
        greedy = schedule_throughput(
            pipelined_result,
            dataclasses.replace(fast_spec, throughput_scheduler="greedy"),
        )
        assert degraded.ii == greedy.ii
        assert degraded.schedule.starts == greedy.schedule.starts
