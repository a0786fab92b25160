"""Solver-degradation behavior of the II search."""

from __future__ import annotations

import dataclasses
import importlib

import pytest

from repro.errors import SolverError
from repro.hls import synthesize
from repro.periodic import schedule_throughput, validate_periodic_schedule


@pytest.fixture
def pipelined_result(indeterminate_assay, fast_spec):
    return synthesize(indeterminate_assay, fast_spec)


class TestDegradation:
    def test_missing_scipy_degrades_to_greedy(
        self, pipelined_result, fast_spec, monkeypatch
    ):
        """No MIP backend: auto warns once and falls back to greedy."""
        solve_mod = importlib.import_module("repro.ilp.solve")

        def _no_highs():
            raise SolverError("backend 'highs' requires SciPy (test)")

        monkeypatch.setattr(solve_mod, "_import_highs", _no_highs)
        spec = dataclasses.replace(fast_spec, backend="highs")
        with pytest.warns(RuntimeWarning, match="degrading to the greedy"):
            throughput = schedule_throughput(pipelined_result, spec)
        assert throughput.degraded
        assert throughput.ii <= throughput.base_makespan
        validate_periodic_schedule(throughput.schedule)

    def test_explicit_ilp_scheduler_surfaces_the_error(
        self, pipelined_result, fast_spec, monkeypatch
    ):
        """scheduler=ilp is a hard request: no silent greedy substitution."""
        solve_mod = importlib.import_module("repro.ilp.solve")

        def _no_highs():
            raise SolverError("backend 'highs' requires SciPy (test)")

        monkeypatch.setattr(solve_mod, "_import_highs", _no_highs)
        spec = dataclasses.replace(
            fast_spec, backend="highs", throughput_scheduler="ilp"
        )
        with pytest.raises(SolverError):
            schedule_throughput(pipelined_result, spec)

    def test_degraded_result_matches_pure_greedy(
        self, pipelined_result, fast_spec, monkeypatch
    ):
        solve_mod = importlib.import_module("repro.ilp.solve")

        def _no_highs():
            raise SolverError("no scipy")

        monkeypatch.setattr(solve_mod, "_import_highs", _no_highs)
        with pytest.warns(RuntimeWarning):
            degraded = schedule_throughput(
                pipelined_result,
                dataclasses.replace(fast_spec, backend="highs"),
            )
        greedy = schedule_throughput(
            pipelined_result,
            dataclasses.replace(fast_spec, throughput_scheduler="greedy"),
        )
        assert degraded.ii == greedy.ii
        assert degraded.schedule.starts == greedy.schedule.starts
