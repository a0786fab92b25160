"""Tests for the storage synthesis subsystem (repro.storage)."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.assays import random_assay
from repro.components import StorageReservoir, reservoirs_needed
from repro.errors import SpecificationError, ValidationError
from repro.hls import SynthesisSpec, synthesize
from repro.hls.cache import fingerprint_run
from repro.io import load_assay, result_to_json, save_assay
from repro.io.json_io import spec_from_json, spec_to_json
from repro.storage import (
    CHANNEL,
    HOLD,
    RESERVOIR,
    StorageDecision,
    StoragePlan,
    StoragePlanner,
    channel_location,
    evicted_edges,
    plan_storage,
    validate_storage_plan,
)
from repro.hls.spec import StorageWeights

STRESS = (
    Path(__file__).parent.parent / "examples" / "assays" / "storage_stress.json"
)

#: deterministic pure-Python synthesis of the stress assay (3 layers).
STRESS_SPEC = SynthesisSpec(
    threshold=1, max_iterations=1, scheduler="greedy", storage_mode="auto"
)


@pytest.fixture(scope="module")
def stress_assay():
    return load_assay(STRESS)


@pytest.fixture(scope="module")
def stress_result(stress_assay):
    return synthesize(stress_assay, STRESS_SPEC)


class TestSpecKnobs:
    def test_bad_mode_rejected(self):
        with pytest.raises(SpecificationError):
            SynthesisSpec(storage_mode="bogus")

    def test_bad_capacity_rejected(self):
        with pytest.raises(SpecificationError):
            SynthesisSpec(storage_capacity=0)

    def test_negative_weight_rejected(self):
        with pytest.raises(SpecificationError):
            StorageWeights(channel=-1.0)

    def test_pressure_weight_by_mode(self):
        weights = StorageWeights(hold=1.0, channel=2.0, reservoir=4.0)
        base = SynthesisSpec(storage_weights=weights)
        assert base.storage_pressure_weight() == 0.0
        assert replace(
            base, storage_mode="reservoir"
        ).storage_pressure_weight() == 4.0
        for mode in ("channel", "auto"):
            assert replace(
                base, storage_mode=mode
            ).storage_pressure_weight() == 2.0

    def test_spec_json_round_trip(self):
        spec = SynthesisSpec(
            storage_mode="channel",
            storage_capacity=7,
            storage_weights=StorageWeights(hold=0.5, channel=1.5, reservoir=9.0),
        )
        back = spec_from_json(spec_to_json(spec))
        assert back.storage_mode == "channel"
        assert back.storage_capacity == 7
        assert back.storage_weights == spec.storage_weights


class TestComponents:
    def test_reservoir_pricing(self):
        r = StorageReservoir(uid="s0", capacity=4)
        assert r.build_cost == r.area + r.processing_cost
        assert r.build_cost == pytest.approx(2.5 * 4)

    def test_reservoir_capacity_validated(self):
        with pytest.raises(SpecificationError):
            StorageReservoir(uid="s0", capacity=0)

    def test_reservoirs_needed(self):
        assert reservoirs_needed(0, 4) == 0
        assert reservoirs_needed(4, 4) == 1
        assert reservoirs_needed(5, 4) == 2


class TestPlanner:
    def test_off_mode_has_no_planner(self):
        with pytest.raises(SpecificationError):
            StoragePlanner(SynthesisSpec(storage_mode="off"))

    def test_stress_decisions(self, stress_result):
        """The stress assay exercises all three decision kinds."""
        plan = stress_result.storage_plan
        by_edge = {(d.producer, d.consumer): d for d in plan.decisions}
        # brew's chamber is reused before blend consumes the reagent, so
        # hold is evicted; the 2-boundary channel (cost 2*2) beats the
        # reservoir (cost 2*4 plus build).
        brew = by_edge[("brew", "blend")]
        assert ("brew", "blend") in evicted_edges(
            stress_result.assay, stress_result.layering, stress_result.schedule
        )
        assert brew.mode == CHANNEL
        assert brew.span == 2
        assert brew.cost == pytest.approx(4.0)
        # gate0 -> wash binds to one device: a free hold.
        gate0 = by_edge[("gate0", "wash")]
        assert gate0.mode == HOLD
        assert gate0.cost == 0.0
        # gate1 -> blend binds apart but is never evicted: in auto mode a
        # cross-device hold (weight 1) beats the channel (weight 2).
        gate1 = by_edge[("gate1", "blend")]
        assert gate1.mode == HOLD
        assert gate1.cost == pytest.approx(1.0)
        assert plan.demand == 1
        assert plan.total_cost == pytest.approx(5.0)

    def test_reservoir_mode_is_reservoir_only(self, stress_assay, stress_result):
        spec = replace(STRESS_SPEC, storage_mode="reservoir")
        plan = plan_storage(
            stress_assay, stress_result.layering, stress_result.schedule, spec
        )
        # Same-device holds stay free even in reservoir mode; everything
        # else must buy a reservoir slot.
        modes = {
            (d.producer, d.consumer): d.mode for d in plan.decisions
        }
        assert modes[("gate0", "wash")] == HOLD
        assert modes[("brew", "blend")] == RESERVOIR
        assert modes[("gate1", "blend")] == RESERVOIR
        assert len(plan.reservoirs) == 1
        validate_storage_plan(
            plan, stress_assay, stress_result.layering,
            stress_result.schedule, spec,
        )

    def test_first_fit_splits_on_capacity(self, stress_assay, stress_result):
        spec = replace(STRESS_SPEC, storage_mode="reservoir", storage_capacity=1)
        plan = plan_storage(
            stress_assay, stress_result.layering, stress_result.schedule, spec
        )
        # brew->blend (boundaries 0-1) and gate1->blend (boundary 1) both
        # need boundary 1; capacity 1 forces two reservoirs.
        assert len(plan.reservoirs) == 2
        assert {d.location for d in plan.decisions if d.mode == RESERVOIR} == {
            "s0", "s1"
        }
        validate_storage_plan(
            plan, stress_assay, stress_result.layering,
            stress_result.schedule, spec,
        )

    def test_plan_validates(self, stress_assay, stress_result):
        validate_storage_plan(
            stress_result.storage_plan, stress_assay,
            stress_result.layering, stress_result.schedule, STRESS_SPEC,
        )


    def test_result_reuses_the_best_pass_plan(self, monkeypatch):
        """The result carries the plan recorded with its pass: one
        ``plan_storage`` call per pass, none more for the result, and it
        equals a fresh plan of the final schedule."""
        import repro.storage

        calls = []
        original = repro.storage.plan_storage

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(repro.storage, "plan_storage", counted)
        assay = random_assay(
            80, seed=5, edge_probability=0.04, indeterminate_fraction=0.15
        )
        spec = SynthesisSpec(
            max_devices=80, threshold=2, scheduler="greedy",
            storage_mode="auto", max_iterations=3, improvement_threshold=-1.0,
        )
        result = synthesize(assay, spec)
        assert len(calls) == len(result.history) > 1
        fresh = original(assay, result.layering, result.schedule, spec)
        assert result.storage_plan == fresh


class TestValidator:
    def _corrupt(self, plan, **changes):
        decisions = list(plan.decisions)
        d = decisions[0]
        fields = {
            "producer": d.producer, "consumer": d.consumer,
            "first_boundary": d.first_boundary,
            "last_boundary": d.last_boundary,
            "mode": d.mode, "location": d.location, "cost": d.cost,
        }
        fields.update(changes)
        decisions[0] = StorageDecision(**fields)
        return StoragePlan(
            mode=plan.mode, decisions=decisions, reservoirs=plan.reservoirs
        )

    def test_missing_decision_caught(self, stress_assay, stress_result):
        plan = stress_result.storage_plan
        truncated = StoragePlan(
            mode=plan.mode, decisions=plan.decisions[1:],
            reservoirs=plan.reservoirs,
        )
        with pytest.raises(ValidationError, match="no storage decision"):
            validate_storage_plan(
                truncated, stress_assay, stress_result.layering,
                stress_result.schedule, STRESS_SPEC,
            )

    def test_unknown_mode_caught(self, stress_assay, stress_result):
        bad = self._corrupt(stress_result.storage_plan, mode="teleport")
        with pytest.raises(ValidationError, match="unknown storage mode"):
            validate_storage_plan(
                bad, stress_assay, stress_result.layering,
                stress_result.schedule, STRESS_SPEC,
            )

    def test_channel_double_booking_caught(self, stress_assay, stress_result):
        plan = stress_result.storage_plan
        channel = next(d for d in plan.decisions if d.mode == CHANNEL)
        # Rebind another decision onto the already-occupied channel.
        decisions = [
            d if d.mode == CHANNEL or d.producer != "gate1" else StorageDecision(
                producer=d.producer, consumer=d.consumer,
                first_boundary=d.first_boundary,
                last_boundary=d.last_boundary,
                mode=CHANNEL, location=channel.location, cost=d.cost,
            )
            for d in plan.decisions
        ]
        bad = StoragePlan(mode=plan.mode, decisions=decisions,
                          reservoirs=plan.reservoirs)
        with pytest.raises(ValidationError):
            validate_storage_plan(
                bad, stress_assay, stress_result.layering,
                stress_result.schedule, STRESS_SPEC,
            )

    def test_unknown_reservoir_caught(self, stress_assay, stress_result):
        bad = self._corrupt(
            stress_result.storage_plan, mode=RESERVOIR, location="s99"
        )
        with pytest.raises(ValidationError, match="unknown reservoir"):
            validate_storage_plan(
                bad, stress_assay, stress_result.layering,
                stress_result.schedule, STRESS_SPEC,
            )

    def test_result_validate_checks_plan(self, stress_result):
        # SynthesisResult.validate() replays the storage plan too.
        stress_result.validate()


class TestPlanModel:
    def test_channel_location_is_symmetric(self):
        assert channel_location("d1", "d0") == channel_location("d0", "d1")
        assert channel_location("d0", "d1") == "d0<->d1"

    def test_to_json_deterministic(self, stress_result):
        a = stress_result.storage_plan.to_json()
        b = stress_result.storage_plan.to_json()
        assert a == b
        assert a["demand"] == 1
        assert [tuple(x) for x in a["demand_by_boundary"]] == [(0, 1), (1, 1)]

    def test_result_json_carries_storage(self, stress_result):
        report = result_to_json(stress_result, deterministic=True)
        assert report["storage"]["mode"] == "auto"
        assert report["storage"]["total_cost"] == pytest.approx(5.0)


class TestFingerprints:
    def test_run_fingerprint_misses_across_modes(self, stress_assay):
        """Service resubmission with a different storage_mode must miss."""
        off = SynthesisSpec()
        seen = {fingerprint_run(stress_assay, off)}
        for mode in ("reservoir", "channel", "auto"):
            seen.add(fingerprint_run(stress_assay, replace(off, storage_mode=mode)))
        assert len(seen) == 4
        # Capacity and weights are solve-relevant too.
        auto = replace(off, storage_mode="auto")
        assert fingerprint_run(
            stress_assay, replace(auto, storage_capacity=9)
        ) != fingerprint_run(stress_assay, auto)
        assert fingerprint_run(
            stress_assay,
            replace(auto, storage_weights=StorageWeights(channel=3.0)),
        ) != fingerprint_run(stress_assay, auto)


class TestCli:
    @pytest.fixture()
    def stress_file(self, tmp_path, stress_assay):
        path = tmp_path / "stress.json"
        save_assay(stress_assay, path)
        return path

    def test_synthesize_with_storage_flag(self, stress_file, capsys):
        code = main([
            "synthesize", str(stress_file), "--threshold", "1",
            "--scheduler", "greedy", "--max-iterations", "1", "--storage",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "storage" in out
        assert "mode=auto" in out

    def test_stats_storage_table(self, stress_file, capsys):
        code = main([
            "stats", str(stress_file), "--threshold", "1",
            "--scheduler", "greedy", "--max-iterations", "1",
            "--storage", "auto",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "storage demand by boundary:" in out
        assert "boundary" in out and "buffered" in out
        assert "mode=auto" in out

    def test_stats_without_flag_has_no_table(self, stress_file, capsys):
        code = main([
            "stats", str(stress_file), "--threshold", "1",
            "--scheduler", "greedy", "--max-iterations", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "storage demand by boundary:" not in out
