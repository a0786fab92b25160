"""Tests for the Monte-Carlo campaign runner and trace export."""

import json

import pytest

from repro.cyberphysical import (
    CampaignConfig,
    FaultPlan,
    aggregate_stats,
    read_trace,
    run_campaign,
    write_trace,
)
from repro.cyberphysical.campaign import RunRecord, _shard_seeds
from repro.errors import SpecificationError
from repro.hls import SynthesisSpec, synthesize
from repro.runtime import RetryModel


@pytest.fixture(scope="module")
def synthesized():
    from repro.operations import AssayBuilder

    b = AssayBuilder("campaign")
    prep = b.op("prep", 4, container="chamber")
    cap = b.op("cap", 6, indeterminate=True, accessories=["cell_trap"],
               after=[prep])
    b.op("detect", 3, accessories=["optical_system"], after=[cap])
    spec = SynthesisSpec(
        max_devices=5, threshold=2, time_limit=10.0, max_iterations=1
    )
    return synthesize(b.build(), spec)


def _config(**overrides):
    base = dict(
        runs=6,
        seed=0,
        jobs=1,
        policies=("resynth",),
        faults=FaultPlan.parse("exhaust:cap"),
        retry_model=RetryModel(max_attempts=4),
    )
    base.update(overrides)
    return CampaignConfig(**base)


class TestSharding:
    def test_contiguous_balanced(self):
        assert _shard_seeds([1, 2, 3, 4, 5], 2) == [[1, 2, 3], [4, 5]]

    def test_more_shards_than_seeds(self):
        assert _shard_seeds([1, 2], 8) == [[1], [2]]

    def test_config_validation(self):
        with pytest.raises(SpecificationError):
            _config(runs=0)
        with pytest.raises(SpecificationError):
            _config(jobs=0)


class TestCampaign:
    def test_recovery_completes_all_runs(self, synthesized):
        outcome = run_campaign(synthesized, _config())
        assert outcome.stats.runs == 6
        assert outcome.stats.failed == 0
        assert outcome.stats.failure_rate == 0.0
        assert outcome.stats.recoveries == {"resynth": 6}
        assert outcome.stats.resyntheses == 6

    def test_abort_policy_fails_runs(self, synthesized):
        outcome = run_campaign(synthesized, _config(policies=("abort",)))
        assert outcome.stats.failure_rate == 1.0
        assert outcome.stats.completed == 0
        # No completed runs -> empty distribution, not a crash.
        assert outcome.stats.mean_makespan == 0.0

    def test_deterministic_across_invocations(self, synthesized):
        a = run_campaign(synthesized, _config())
        b = run_campaign(synthesized, _config())
        assert a.stats.to_json_text() == b.stats.to_json_text()
        assert a.records == b.records

    def test_jobs_do_not_change_merged_stats(self, synthesized):
        """Acceptance: --jobs N merges byte-identically to --jobs 1."""
        inline = run_campaign(synthesized, _config(jobs=1))
        pooled = run_campaign(synthesized, _config(jobs=2))
        assert inline.stats.to_json_text() == pooled.stats.to_json_text()
        assert [r.seed for r in pooled.records] == [
            r.seed for r in inline.records
        ]
        assert [r.makespan for r in pooled.records] == [
            r.makespan for r in inline.records
        ]

    def test_traces_disabled(self, synthesized):
        outcome = run_campaign(synthesized, _config(keep_traces=False))
        assert all(r.trace == () for r in outcome.records)


class TestTraceExport:
    def test_jsonl_roundtrip(self, synthesized, tmp_path):
        outcome = run_campaign(synthesized, _config(runs=2))
        path = tmp_path / "trace.jsonl"
        count = write_trace(path, outcome.trace_records())
        loaded = read_trace(path)
        assert len(loaded) == count > 0
        kinds = {entry["kind"] for entry in loaded}
        assert {"run_start", "layer_dispatch", "op_fault",
                "policy_attempt", "policy_result",
                "resynthesis_splice", "run_end"} <= kinds
        # Every record is valid standalone JSON with a seed and time.
        for entry in loaded:
            assert "seed" in entry and "time" in entry

    def test_empty_trace_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert write_trace(path, []) == 0
        assert read_trace(path) == []


class TestAggregateStats:
    def _record(self, seed, makespan, completed=True, recoveries=None):
        return RunRecord(
            seed=seed,
            makespan=makespan,
            completed=completed,
            recoveries=recoveries or {},
            faults_fired=1,
            resyntheses=0,
            failed_ops=(),
            trace=(),
        )

    def test_failed_runs_excluded_from_distribution(self):
        records = [
            self._record(0, 100),
            self._record(1, 10, completed=False),
            self._record(2, 200),
        ]
        stats = aggregate_stats(records)
        assert stats.failure_rate == pytest.approx(1 / 3)
        assert stats.best_makespan == 100  # the failed run's 10 is excluded
        assert stats.mean_makespan == 150.0

    def test_p95_is_nearest_rank(self):
        # 20 distinct makespans: 19 of 20 runs (95 %) end by the 19th.
        stats = aggregate_stats([self._record(s, 100 + s) for s in range(20)])
        assert stats.p95_makespan == 118.0
        assert stats.worst_makespan == 119

    def test_order_independent(self):
        records = [self._record(s, 50 + s) for s in range(5)]
        forward = aggregate_stats(records)
        backward = aggregate_stats(list(reversed(records)))
        assert forward.to_json_text() == backward.to_json_text()

    def test_recoveries_summed_by_policy(self):
        records = [
            self._record(0, 10, recoveries={"retry": 2}),
            self._record(1, 10, recoveries={"retry": 1, "rebind": 1}),
        ]
        stats = aggregate_stats(records)
        assert stats.recoveries == {"retry": 3, "rebind": 1}


class TestCliSimulate:
    def test_simulate_command(self, tmp_path, capsys):
        from repro.cli import main
        from repro.io import save_assay
        from repro.operations import AssayBuilder

        b = AssayBuilder("cli-sim")
        cap = b.op("cap", 4, indeterminate=True, accessories=["cell_trap"])
        b.op("detect", 2, accessories=["optical_system"], after=[cap])
        assay_path = tmp_path / "assay.json"
        save_assay(b.build(), assay_path)

        trace_path = tmp_path / "trace.jsonl"
        stats_path = tmp_path / "stats.json"
        code = main([
            "simulate", str(assay_path),
            "--runs", "4", "--jobs", "1",
            "--faults", "exhaust:cap",
            "--policy", "resynth",
            "--max-attempts", "3",
            "--trace-out", str(trace_path),
            "--stats-json", str(stats_path),
            "--max-devices", "4", "--threshold", "2",
            "--time-limit", "5", "--max-iterations", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "failure rate 0.0%" in out
        assert "resynth=4" in out
        stats = json.loads(stats_path.read_text())
        assert stats["failure_rate"] == 0.0
        assert any(
            e["kind"] == "resynthesis_splice" for e in read_trace(trace_path)
        )
