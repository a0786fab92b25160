"""Tests for the cross-pass layer-solve cache (repro.hls.cache)."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.assays import random_assay
from repro.hls import LayerSolveCache, SynthesisSpec, synthesize
from repro.hls.cache import (
    encode_layer_result,
    fingerprint_layer_problem,
    materialize_layer_result,
)
from repro.hls.milp_model import LayerProblem
from repro.hls.synthesizer import _solve_layer
from repro.hls.transport import TransportEstimator
from repro.layering import layer_assay
from repro.operations import AssayBuilder


def make_allocator(prefix="d"):
    counter = [0]

    def allocate():
        uid = f"{prefix}{counter[0]}"
        counter[0] += 1
        return uid

    return allocate


def first_layer_problem(assay, spec, fixed_devices=()):
    """A LayerProblem for the assay's first layer, as _run_pass builds it."""
    layering = layer_assay(assay, spec.threshold)
    layer = layering.layers[0]
    uids = set(layer.uids)
    ops = [assay[uid] for uid in layer.uids]
    in_edges = [(p, c) for p, c in assay.edges if p in uids and c in uids]
    transport = TransportEstimator(assay, spec)
    fixed = list(fixed_devices)
    return LayerProblem(
        layer_index=layer.index,
        ops=ops,
        in_layer_edges=in_edges,
        edge_transport={e: transport.edge_time(*e) for e in in_edges},
        release={u: transport.release_time(u, within=uids) for u in layer.uids},
        fixed_devices=fixed,
        free_slots=max(0, spec.max_devices - len(fixed)),
        incoming=[],
        outgoing=[],
        existing_paths=set(),
    )


def structurally_equal(fresh, replay, problem):
    """Compare two layer results modulo device-uid renaming."""
    assert replay.objective == fresh.objective
    assert replay.solver_status == fresh.solver_status
    assert set(replay.binding) == set(fresh.binding)

    # Op -> device assignment must be the same partition under a bijection.
    mapping = {}
    for uid in fresh.binding:
        a, b = fresh.binding[uid], replay.binding[uid]
        assert mapping.setdefault(a, b) == b, "device mapping not a function"
    assert len(set(mapping.values())) == len(mapping), "mapping not injective"

    # Placements: identical timing per op.
    for uid in fresh.binding:
        pf, pr = fresh.schedule[uid], replay.schedule[uid]
        assert (pf.start, pf.duration, pf.indeterminate) == (
            pr.start, pr.duration, pr.indeterminate
        )
    assert replay.schedule.makespan == fresh.schedule.makespan

    # New devices: same configurations in the same slot order.
    def config(d):
        return (d.container, d.capacity, frozenset(d.accessories), d.signature)

    assert [config(d) for d in replay.new_devices] == [
        config(d) for d in fresh.new_devices
    ]
    return True


class TestFingerprint:
    def spec(self):
        return SynthesisSpec(max_devices=6, threshold=3, time_limit=5)

    def assay(self):
        b = AssayBuilder("fp")
        a = b.op("a", 3, container="chamber")
        b.op("b", 5, container="ring", accessories=["pump"], after=[a])
        return b.build()

    def test_deterministic(self):
        spec = self.spec()
        problem = first_layer_problem(self.assay(), spec)
        assert fingerprint_layer_problem(
            problem, spec
        ) == fingerprint_layer_problem(problem, spec)

    def test_invariant_under_fixed_device_renaming(self):
        from repro.components import Capacity, ContainerKind
        from repro.devices import GeneralDevice

        spec = self.spec()

        def dev(uid):
            return GeneralDevice(uid, ContainerKind.CHAMBER, Capacity.SMALL)

        p1 = first_layer_problem(self.assay(), spec, fixed_devices=[dev("d0")])
        p2 = first_layer_problem(
            self.assay(), spec, fixed_devices=[dev("d99")]
        )
        assert fingerprint_layer_problem(
            p1, spec
        ) == fingerprint_layer_problem(p2, spec)

    def test_sensitive_to_transport(self):
        spec = self.spec()
        problem = first_layer_problem(self.assay(), spec)
        changed = dataclasses.replace(
            problem,
            edge_transport={
                e: t + 1 for e, t in problem.edge_transport.items()
            },
        )
        if problem.edge_transport:
            assert fingerprint_layer_problem(
                problem, spec
            ) != fingerprint_layer_problem(changed, spec)

    def test_sensitive_to_free_slots(self):
        spec = self.spec()
        problem = first_layer_problem(self.assay(), spec)
        changed = dataclasses.replace(
            problem, free_slots=problem.free_slots - 1
        )
        assert fingerprint_layer_problem(
            problem, spec
        ) != fingerprint_layer_problem(changed, spec)

    def test_sensitive_to_weights(self):
        spec = self.spec()
        problem = first_layer_problem(self.assay(), spec)
        other = dataclasses.replace(
            spec, weights=dataclasses.replace(spec.weights, paths=99.0)
        )
        assert fingerprint_layer_problem(
            problem, spec
        ) != fingerprint_layer_problem(problem, other)


    @pytest.mark.parametrize(
        "field",
        ["incoming", "outgoing", "existing_paths", "storage_in", "storage_out"],
    )
    def test_unknown_device_uids_degrade_to_raw_strings(self, field):
        from repro.components import Capacity, ContainerKind
        from repro.devices import GeneralDevice

        spec = self.spec()

        def problem(prefix):
            known, other = f"{prefix}0", f"{prefix}1"
            fixed = [
                GeneralDevice(uid, ContainerKind.CHAMBER, Capacity.SMALL)
                for uid in (known, other)
            ]
            value = {
                "incoming": [(known, "a"), ("ghost", "b")],
                "outgoing": [("a", known), ("a", "ghost")],
                "existing_paths": {(known, other), (known, "ghost")},
                "storage_in": {(known, "a"): 1.0, ("ghost", "b"): 2.0},
                "storage_out": {("a", known): 1.0, ("a", "ghost"): 2.0},
            }[field]
            base = first_layer_problem(self.assay(), spec, fixed_devices=fixed)
            return dataclasses.replace(base, **{field: value})

        key = fingerprint_layer_problem(problem("k"), spec)
        # Known devices still canonicalize next to an unknown one.
        assert key == fingerprint_layer_problem(problem("renamed"), spec)


class TestReplay:
    def test_miss_then_hit(self):
        spec = SynthesisSpec(max_devices=6, threshold=3, time_limit=5)
        b = AssayBuilder("replay")
        a = b.op("a", 3, container="chamber")
        b.op("b", 5, container="ring", accessories=["pump"], after=[a])
        problem = first_layer_problem(b.build(), spec)

        cache = LayerSolveCache()
        assert cache.lookup(problem, spec, make_allocator()) is None
        assert (cache.hits, cache.misses) == (0, 1)

        fresh = _solve_layer(problem, spec, make_allocator())
        cache.store(problem, spec, fresh)
        replay = cache.lookup(problem, spec, make_allocator("r"))
        assert replay is not None
        assert (cache.hits, cache.misses) == (1, 1)
        assert replay.stats is not None and replay.stats.cache_hit
        assert structurally_equal(fresh, replay, problem)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 300), num_ops=st.integers(2, 7))
    def test_replay_matches_fresh_solve(self, seed, num_ops):
        """Property: a cache hit reproduces the fresh solve exactly
        (schedule timing, binding partition, objective), modulo uids."""
        spec = SynthesisSpec(
            max_devices=8, threshold=3, time_limit=5, max_iterations=0
        )
        assay = random_assay(
            num_ops, seed=seed, indeterminate_fraction=0.2, max_duration=10
        )
        problem = first_layer_problem(assay, spec)
        fresh = _solve_layer(problem, spec, make_allocator())
        cache = LayerSolveCache()
        cache.store(problem, spec, fresh)
        replay = cache.lookup(problem, spec, make_allocator("r"))
        assert replay is not None
        assert structurally_equal(fresh, replay, problem)

    def test_encode_decode_round_trip(self, indeterminate_assay, fast_spec):
        problem = first_layer_problem(indeterminate_assay, fast_spec)
        result = _solve_layer(problem, fast_spec, make_allocator())
        entry = encode_layer_result(problem, result)
        assert entry is not None
        replayed = materialize_layer_result(entry, problem, make_allocator())
        assert replayed.binding == result.binding
        assert replayed.schedule.makespan == result.schedule.makespan


class TestSynthesisWithCache:
    def test_cache_disabled_matches_enabled(self, indeterminate_assay):
        base = SynthesisSpec(
            max_devices=6, threshold=2, time_limit=10, max_iterations=2
        )
        on = synthesize(indeterminate_assay, base)
        off = synthesize(
            indeterminate_assay,
            dataclasses.replace(base, enable_solve_cache=False),
        )
        assert on.fixed_makespan == off.fixed_makespan
        assert on.num_devices == off.num_devices
        assert on.num_paths == off.num_paths
        assert [r.fixed_makespan for r in on.history] == [
            r.fixed_makespan for r in off.history
        ]
        assert off.cache_hits == 0
        assert off.ilp_solves == len(off.solve_stats)

    def test_telemetry_attached_to_every_layer(self, indeterminate_assay):
        spec = SynthesisSpec(
            max_devices=6, threshold=2, time_limit=10, max_iterations=1
        )
        result = synthesize(indeterminate_assay, spec)
        num_layers = result.layering.num_layers
        for record in result.history:
            assert len(record.layer_stats) == num_layers
            for stats in record.layer_stats:
                assert stats.layer >= 0
                assert stats.status
                assert stats.backend
        assert result.ilp_solves + result.cache_hits == len(result.solve_stats)

    def test_negative_threshold_iterates_to_convergence(self, diamond_assay):
        """With a negative improvement threshold, the loop continues through
        zero-improvement passes and terminates on a fully replayed pass."""
        spec = SynthesisSpec(
            max_devices=6,
            threshold=2,
            time_limit=10,
            max_iterations=4,
            improvement_threshold=-1.0,
        )
        result = synthesize(diamond_assay, spec)
        last = result.history[-1]
        # Converged before exhausting the iteration budget: the final pass
        # replayed every layer from the cache.
        if len(result.history) <= spec.max_iterations:
            assert last.layer_stats
            assert all(s.cache_hit for s in last.layer_stats)
        assert result.cache_hits > 0

    def test_converged_resynthesis_hits_cache(self):
        """Once transport and inventory stop changing, later passes replay
        at least one layer from the cache instead of re-solving it."""
        from repro.assays import gene_expression_assay

        spec = SynthesisSpec(
            max_devices=10, threshold=5, time_limit=10, max_iterations=3
        )
        result = synthesize(gene_expression_assay(cells=3), spec)
        if len(result.history) >= 3:
            assert result.cache_hits > 0
        # Never more ILP solves than problems posed.
        posed = sum(len(r.layer_stats) for r in result.history)
        assert result.ilp_solves <= posed


class TestLRUBound:
    def spec(self):
        return SynthesisSpec(max_devices=6, threshold=3, time_limit=5)

    def problem_for(self, seed, num_ops=3):
        assay = random_assay(
            num_ops, seed=seed, indeterminate_fraction=0.0, max_duration=8
        )
        return first_layer_problem(assay, self.spec())

    def fill(self, cache, count):
        spec = self.spec()
        for seed in range(count):
            problem = self.problem_for(seed)
            if cache.lookup(problem, spec, make_allocator()) is None:
                cache.store(
                    problem, spec, _solve_layer(problem, spec, make_allocator())
                )

    def test_capacity_bounds_entries(self):
        cache = LayerSolveCache(capacity=2)
        self.fill(cache, 4)
        assert len(cache) <= 2
        assert cache.evictions >= 2

    def test_unbounded_by_default(self):
        cache = LayerSolveCache()
        self.fill(cache, 4)
        assert cache.evictions == 0
        assert len(cache) == 4

    def test_lookup_refreshes_recency(self):
        spec = self.spec()
        cache = LayerSolveCache(capacity=2)
        first = self.problem_for(0)
        second = self.problem_for(1)
        for problem in (first, second):
            cache.store(
                problem, spec, _solve_layer(problem, spec, make_allocator())
            )
        # Touch `first`, then insert a third entry: `second` is evicted.
        assert cache.lookup(first, spec, make_allocator()) is not None
        third = self.problem_for(2)
        cache.store(third, spec, _solve_layer(third, spec, make_allocator()))
        assert cache.lookup(first, spec, make_allocator("x")) is not None
        assert cache.lookup(second, spec, make_allocator("y")) is None

    def test_counters_shape(self):
        cache = LayerSolveCache(capacity=8)
        self.fill(cache, 2)
        counters = cache.counters()
        assert counters["entries"] == 2
        assert counters["capacity"] == 8
        assert counters["misses"] >= 2
        assert counters["evictions"] == 0

    def test_spec_capacity_flows_into_result_counters(self, linear_assay):
        import dataclasses as _dc

        spec = _dc.replace(self.spec(), solve_cache_capacity=7,
                           max_iterations=0)
        result = synthesize(linear_assay, spec)
        assert result.cache_counters["capacity"] == 7
        assert result.cache_counters["entries"] >= 0


class TestRunFingerprint:
    def test_stable_and_sensitive(self, linear_assay, indeterminate_assay):
        from repro.hls import fingerprint_run

        spec = SynthesisSpec(max_devices=6, threshold=3, time_limit=5)
        assert fingerprint_run(linear_assay, spec) == fingerprint_run(
            linear_assay, spec
        )
        assert fingerprint_run(linear_assay, spec) != fingerprint_run(
            indeterminate_assay, spec
        )
        assert fingerprint_run(linear_assay, spec) != fingerprint_run(
            linear_assay, spec, method="conventional"
        )
        tighter = dataclasses.replace(spec, max_devices=5)
        assert fingerprint_run(linear_assay, spec) != fingerprint_run(
            linear_assay, tighter
        )

    def test_ignores_performance_knobs(self, linear_assay):
        from repro.hls import fingerprint_run

        spec = SynthesisSpec(max_devices=6, threshold=3, time_limit=5)
        tuned = dataclasses.replace(
            spec, enable_solve_cache=False, solve_cache_capacity=3,
        )
        assert fingerprint_run(linear_assay, spec) == fingerprint_run(
            linear_assay, tuned
        )

    def test_survives_json_round_trip(self, indeterminate_assay):
        from repro.hls import fingerprint_run
        from repro.io.json_io import (
            assay_from_json,
            assay_to_json,
            spec_from_json,
            spec_to_json,
        )

        spec = SynthesisSpec(max_devices=6, threshold=3, time_limit=5)
        direct = fingerprint_run(indeterminate_assay, spec)
        wired = fingerprint_run(
            assay_from_json(assay_to_json(indeterminate_assay)),
            spec_from_json(spec_to_json(spec)),
        )
        assert direct == wired


#: Deterministic result JSON (history included) of greedy runs with the
#: layer-solve cache on and off, one digest pair per assay seed, printed
#: as JSON.  Greedy schedules of generator assays depend on the string
#: hash seed, so this runs under ``PYTHONHASHSEED=0``.
_HISTORY = """
import hashlib, json
from repro.assays import random_assay
from repro.hls import SynthesisSpec, synthesize
from repro.io.json_io import result_to_json
runs = {}
for seed in range(1, 13):
    assay = random_assay(60, seed=seed, edge_probability=0.05)
    for cache in (True, False):
        spec = SynthesisSpec(max_devices=60, scheduler="greedy",
                             improvement_threshold=-1,
                             enable_solve_cache=cache)
        report = result_to_json(synthesize(assay, spec), deterministic=True)
        text = json.dumps(report, sort_keys=True).encode()
        runs.setdefault(seed, {})[str(cache)] = hashlib.sha256(text).hexdigest()
print(json.dumps(runs))
"""


def test_cache_replay_matches_fresh_solve_pass_by_pass():
    """Greedy layers bypass the cache, so cache on and off run the same
    passes: no all-hits stop cuts a greedy run short."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    run = subprocess.run(
        [sys.executable, "-c", _HISTORY],
        env=env, cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    runs = json.loads(run.stdout)
    assert len(runs) == 12
    for seed, digests in runs.items():
        assert digests["True"] == digests["False"], seed


def _protocol_report(name, enable_solve_cache):
    from repro.assays import chip_assay, gene_expression_assay, kinase_assay
    from repro.io.json_io import result_to_json

    make_assay, max_devices, threshold = {
        "kin1": (lambda: kinase_assay(samples=1), 6, 2),
        "chip1": (lambda: chip_assay(samples=1), 4, 1),
        "gene2": (lambda: gene_expression_assay(cells=2), 6, 2),
    }[name]
    spec = SynthesisSpec(
        max_devices=max_devices, threshold=threshold,
        improvement_threshold=-1, enable_solve_cache=enable_solve_cache,
    )
    return result_to_json(synthesize(make_assay(), spec), deterministic=True)


@pytest.mark.xfail(
    strict=True,
    reason="the all-hits stop ends a cache-on ILP run at its first fully "
    "replayed pass, where the cache-off run keeps re-solving the same "
    "problems until max_iterations (ROADMAP item 1)",
)
@pytest.mark.parametrize("name", ["kin1", "chip1", "gene2"])
def test_ilp_cache_replay_matches_fresh_solve_pass_by_pass(name):
    """The portfolio twin of the greedy check: every layer of these
    protocol assays proves optimal, so the runs are deterministic."""
    assert _protocol_report(name, True) == _protocol_report(name, False)


def test_greedy_run_leaves_a_warm_cache_untouched():
    """A greedy run handed a warm cache neither replays nor stores, and
    matches a cache-off run byte for byte."""
    from repro.assays import gene_expression_assay
    from repro.io.json_io import result_to_json

    assay = gene_expression_assay(cells=2)
    base = SynthesisSpec(max_devices=10, threshold=2, max_iterations=2)
    cache = LayerSolveCache()
    synthesize(assay, base, cache=cache)
    assert len(cache) > 0
    before = cache.counters()

    greedy = dataclasses.replace(
        base, scheduler="greedy", improvement_threshold=-1
    )
    warm = synthesize(assay, greedy, cache=cache)
    assert cache.counters() == before
    assert warm.cache_hits == 0
    off = synthesize(
        assay, dataclasses.replace(greedy, enable_solve_cache=False)
    )
    assert result_to_json(warm, deterministic=True) == result_to_json(
        off, deterministic=True
    )


def test_lp_bound_replay_equals_fresh_solve_under_renamed_devices():
    """Rename probe: the same layer with its fixed devices' uids in reverse
    order.  The cache key names fixed devices by position, so both
    problems share one key, while the greedy schedule ``lp-bound`` returns
    breaks ties on raw uids.  ``lp-bound`` layers therefore bypass the
    cache, and the second solve equals a fresh one."""
    import itertools

    from repro.components import Capacity, ContainerKind
    from repro.devices import GeneralDevice
    from repro.hls.pipeline import LayerSolveStage
    from repro.operations import Fixed, Operation

    def problem(uids):
        ops = [
            Operation(f"o{i}", Fixed(3 + i), capacity=Capacity.SMALL)
            for i in range(2)
        ]
        return LayerProblem(
            layer_index=0,
            ops=ops,
            in_layer_edges=[],
            edge_transport={},
            release={op.uid: 0 for op in ops},
            fixed_devices=[
                GeneralDevice(uid, ContainerKind.CHAMBER, Capacity.SMALL)
                for uid in uids
            ],
            free_slots=0,
        )

    uids = ["k0", "k1", "k2"]
    spec = SynthesisSpec(max_devices=3, scheduler="lp-bound", time_limit=5)
    counter = itertools.count()

    def allocate():
        return f"n{next(counter)}"

    cache = LayerSolveCache()
    stage = LayerSolveStage()
    stage.solve(problem(uids), spec, allocate, cache=cache)
    renamed = problem(list(reversed(uids)))
    assert fingerprint_layer_problem(
        renamed, spec
    ) == fingerprint_layer_problem(problem(uids), spec)
    second = stage.solve(renamed, spec, allocate, cache=cache)
    fresh = stage.solve(renamed, spec, allocate)
    assert second.binding == fresh.binding
    assert second.schedule.placements == fresh.schedule.placements
    assert len(cache) == 0
