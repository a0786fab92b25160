"""Tests for the closed-loop execution engine and its recovery policies."""

import pytest

from repro.cyberphysical import (
    ExecutionEngine,
    FaultPlan,
    RebindSparePolicy,
    ResynthesisPolicy,
    RetryBackoffPolicy,
    build_policies,
)
from repro.errors import ReproError
from repro.hls import synthesize
from repro.runtime import RetryModel


@pytest.fixture(scope="module")
def synthesized(request):
    """One synthesized indeterminate assay shared by the module's tests."""
    from repro.operations import AssayBuilder

    b = AssayBuilder("ind")
    for k in range(2):
        prep = b.op(f"prep{k}", 4, container="chamber", function="load")
        cap = b.op(
            f"capture{k}", 6, indeterminate=True,
            accessories=["cell_trap"], function="capture", after=[prep],
        )
        lyse = b.op(f"lyse{k}", 5, container="chamber", function="lyse",
                    after=[cap])
        b.op(f"detect{k}", 3, accessories=["optical_system"],
             function="detect", after=[lyse])
    from repro.hls import SynthesisSpec

    spec = SynthesisSpec(
        max_devices=6, threshold=2, time_limit=10.0, max_iterations=1
    )
    return synthesize(b.build(), spec)


class TestFaultFreeRuns:
    def test_fault_free_run_realizes_fixed_plus_terms(self, synthesized):
        """Without faults a run completes, samples attempts for exactly the
        indeterminate ops, and realizes the fixed makespan plus one realized
        term per ``I_k`` of the schedule."""
        schedule = synthesized.schedule
        model = RetryModel(success_probability=0.4, max_attempts=6)
        indeterminate = {
            uid
            for layer in schedule.layers
            for uid in layer.indeterminate_uids
        }
        for seed in range(5):
            report = ExecutionEngine(
                synthesized, retry_model=model, seed=seed
            ).run()
            assert report.completed
            assert set(report.attempts) == indeterminate
            assert set(report.realized_terms) == set(
                schedule.indeterminate_terms
            )
            assert report.makespan == schedule.fixed_makespan + sum(
                report.realized_terms.values()
            )

    def test_deterministic_for_seed(self, synthesized):
        plan = FaultPlan.parse("exhaust:capture0")
        runs = [
            ExecutionEngine(
                synthesized,
                policies=build_policies(["resynth"]),
                fault_plan=plan,
                retry_model=RetryModel(max_attempts=4),
                seed=9,
            ).run()
            for _ in range(2)
        ]
        assert runs[0].makespan == runs[1].makespan
        assert [t.to_json() for t in runs[0].trace] == [
            t.to_json() for t in runs[1].trace
        ]

    def test_degrade_fault_stretches_makespan(self, synthesized):
        model = RetryModel(success_probability=1.0)
        clean = ExecutionEngine(synthesized, retry_model=model, seed=0).run()
        device = synthesized.schedule.binding["prep0"]
        slowed = ExecutionEngine(
            synthesized,
            fault_plan=FaultPlan.parse(f"slow:{device}*3"),
            retry_model=model,
            seed=0,
        ).run()
        assert slowed.makespan > clean.makespan
        assert slowed.completed


class TestBareSchedule:
    def test_bare_schedule_runs_like_its_result(self, synthesized):
        model = RetryModel(success_probability=0.4, max_attempts=6)
        for seed in range(3):
            bare = ExecutionEngine(
                synthesized.schedule, retry_model=model, seed=seed
            ).run()
            full = ExecutionEngine(
                synthesized, retry_model=model, seed=seed
            ).run()
            assert bare.makespan == full.makespan
            assert bare.attempts == full.attempts
            assert bare.realized_terms == full.realized_terms

    @pytest.mark.parametrize("name", ["retry", "rebind", "resynth"])
    def test_policies_need_a_result(self, synthesized, name):
        with pytest.raises(ReproError, match="SynthesisResult"):
            ExecutionEngine(
                synthesized.schedule, policies=build_policies([name])
            )

    def test_bare_schedule_aborts_on_fault(self, synthesized):
        report = ExecutionEngine(
            synthesized.schedule,
            fault_plan=FaultPlan.parse("exhaust:capture0"),
            retry_model=RetryModel(max_attempts=4),
        ).run()
        assert not report.completed
        assert report.failed_ops == ["capture0"]


class TestAbortParity:
    def test_no_policies_aborts_like_seed_executor(self, synthesized):
        plan = FaultPlan.parse("exhaust:capture0")
        report = ExecutionEngine(
            synthesized,
            policies=[],
            fault_plan=plan,
            retry_model=RetryModel(max_attempts=3),
            seed=0,
        ).run()
        assert not report.completed
        assert report.failed_ops == ["capture0"]
        assert report.aborted_layers  # descendants never ran
        kinds = [t.kind for t in report.trace]
        assert "op_fault" in kinds
        assert "resynthesis_splice" not in kinds


class TestRecoveryPolicies:
    def test_retry_backoff_recovers_transient_exhaust(self, synthesized):
        report = ExecutionEngine(
            synthesized,
            policies=[RetryBackoffPolicy()],
            fault_plan=FaultPlan.parse("exhaust:capture0"),
            retry_model=RetryModel(max_attempts=4),
            seed=2,
        ).run()
        assert report.completed
        assert report.recoveries == {"retry": 1}

    def test_retry_not_applicable_to_device_down(self, synthesized):
        device = synthesized.schedule.binding["capture0"]
        report = ExecutionEngine(
            synthesized,
            policies=[RetryBackoffPolicy()],
            fault_plan=FaultPlan.parse(f"down:{device}"),
            retry_model=RetryModel(max_attempts=4),
            seed=2,
        ).run()
        assert not report.completed
        attempts = [
            t.data for t in report.trace if t.kind == "policy_result"
        ]
        assert attempts and not attempts[0]["applicable"]

    def test_rebind_moves_op_to_covering_spare(self, synthesized):
        device = synthesized.schedule.binding["capture0"]
        report = ExecutionEngine(
            synthesized,
            policies=[RebindSparePolicy()],
            fault_plan=FaultPlan.parse(f"down:{device}"),
            retry_model=RetryModel(max_attempts=4),
            seed=2,
        ).run()
        assert report.completed
        assert report.recoveries["rebind"] >= 1
        moved = [r for r in report.recovery_records if r.policy == "rebind"]
        assert all(r.device and r.device != device for r in moved)

    def test_resynthesis_splices_contingency_layers(self, synthesized):
        plan = FaultPlan.parse("exhaust:capture0")
        report = ExecutionEngine(
            synthesized,
            policies=[ResynthesisPolicy(time_limit=5.0)],
            fault_plan=plan,
            retry_model=RetryModel(max_attempts=4),
            seed=1,
        ).run()
        assert report.completed
        assert report.resyntheses == 1
        splices = [
            t for t in report.trace if t.kind == "resynthesis_splice"
        ]
        assert len(splices) == 1
        assert splices[0].data["spliced_layers"]
        # Contingency devices entered the inventory under fresh uids.
        assert any(uid.startswith("c") for uid in splices[0].data["new_devices"])

    def test_resynthesis_cap_prevents_infinite_splicing(self, synthesized):
        # A persistent exhaust fault can never be fixed; the splice cap must
        # stop the loop and the run must end as failed, not hang.
        from repro.cyberphysical import PERSISTENT, FaultKind, FaultSpec

        plan = FaultPlan(
            faults=(
                FaultSpec(
                    kind=FaultKind.EXHAUST_RETRIES,
                    target="capture0",
                    triggers=PERSISTENT,
                ),
            )
        )
        policy = ResynthesisPolicy(time_limit=5.0, max_splices=2)
        report = ExecutionEngine(
            synthesized,
            policies=[policy],
            fault_plan=plan,
            retry_model=RetryModel(max_attempts=3),
            seed=0,
        ).run()
        assert not report.completed
        assert report.resyntheses <= 2

    def test_unknown_policy_name_rejected(self):
        with pytest.raises(ReproError):
            build_policies(["warp"])

    def test_abort_and_all_names(self):
        assert build_policies(["abort"]) == []
        chain = build_policies(["all"])
        assert [p.name for p in chain] == ["retry", "rebind", "resynth"]


class TestAcceptance:
    """ISSUE acceptance: recovery completes assays the seed executor aborts."""

    def test_failure_rate_drops_to_zero_with_resynthesis(self, synthesized):
        plan = FaultPlan.parse("exhaust:capture0")
        model = RetryModel(max_attempts=4)
        seeds = range(6)

        aborted = 0
        for seed in seeds:
            report = ExecutionEngine(
                synthesized, policies=[], fault_plan=plan,
                retry_model=model, seed=seed,
            ).run()
            if not report.completed:
                aborted += 1
        assert aborted == len(list(seeds))  # the seed behavior: always aborts

        policy = ResynthesisPolicy(time_limit=5.0)
        for seed in seeds:
            report = ExecutionEngine(
                synthesized, policies=[policy], fault_plan=plan,
                retry_model=model, seed=seed,
            ).run()
            assert report.completed
            # Every recovery is visible in the trace.
            kinds = [t.kind for t in report.trace]
            assert "op_fault" in kinds
            assert "policy_attempt" in kinds
            assert "resynthesis_splice" in kinds

    def test_resynthesis_cache_reused_across_runs(self, synthesized):
        """The contingency cache is shared across runs via the policy."""
        plan = FaultPlan.parse("exhaust:capture0")
        policy = ResynthesisPolicy(time_limit=5.0)
        for seed in range(3):
            ExecutionEngine(
                synthesized, policies=[policy], fault_plan=plan,
                retry_model=RetryModel(max_attempts=4), seed=seed,
            ).run()
        assert policy.cache.hits > 0
