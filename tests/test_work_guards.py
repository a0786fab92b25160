"""Work-count guards on the greedy-scale hot paths.

Each test counts calls of an expensive primitive through a monkeypatched
module global, so a regression to redundant work fails here without any
timing.
"""

from __future__ import annotations

import dataclasses

from repro.assays import gene_expression_assay, random_assay
from repro.devices import GeneralDevice
from repro.graphs import DiGraph
from repro.hls import HybridSchedule, LayerSchedule, SynthesisSpec, synthesize
from repro.hls import cache as cache_module
from repro.hls.context import PassState
from repro.hls import pipeline
from repro.layering import eviction, layer_assay
from repro.operations import Assay
from repro.storage import planner


def _counting(monkeypatch, owner, name):
    """Wrap ``owner.name`` so calls are counted; returns the counter."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _assay(num_ops):
    return random_assay(
        num_ops, seed=num_ops, edge_probability=3 / num_ops,
        indeterminate_fraction=0.1,
    )


def test_one_fingerprint_per_layer_solve(monkeypatch):
    fingerprints = _counting(
        monkeypatch, cache_module, "fingerprint_layer_problem"
    )
    solves = _counting(monkeypatch, pipeline.LayerSolveStage, "solve")
    for storage in ("off", "auto"):
        # The ILP path: only HiGHS-backed layers are keyed.
        spec = SynthesisSpec(
            max_devices=6, threshold=2, storage_mode=storage
        )
        result = synthesize(gene_expression_assay(cells=2), spec)
        assert result.cache_counters["misses"] > 0
    assert solves[0] > 0
    assert fingerprints[0] == solves[0]


def test_eviction_prices_each_distinct_cut_once(monkeypatch):
    cuts = _counting(monkeypatch, eviction, "max_flow_min_cut")
    layering = layer_assay(_assay(440), threshold=3)
    assert layering.num_layers > 1
    # One min cut per distinct (op, in-layer ancestors) pair; re-pricing
    # every remaining op after every eviction took 515.
    assert 0 < cuts[0] <= 40


def test_layering_copies_no_graph(monkeypatch):
    copies = _counting(monkeypatch, DiGraph, "copy")
    subgraphs = _counting(monkeypatch, DiGraph, "subgraph")
    layering = layer_assay(_assay(440), threshold=3)
    assert layering.num_layers > 1
    # The pool is a bitmask over the assay's own edges; a copy of the
    # assay's graph plus a pool graph that lost each layer's ops took 2,
    # and a subgraph plus a copy per layer 33.
    assert copies[0] + subgraphs[0] == 0


def test_layering_runs_no_graph_search(monkeypatch):
    assay = _assay(440)  # building the assay searches for cycles
    ancestors = _counting(monkeypatch, DiGraph, "ancestors")
    descendants = _counting(monkeypatch, DiGraph, "descendants")
    layering = layer_assay(assay, threshold=3)
    assert layering.num_layers > 1
    # Reachability masks are built once per layering; a search per
    # allocation test and per priced op took 681 ancestor and 248
    # descendant walks.
    assert (ancestors[0], descendants[0]) == (0, 0)


def test_greedy_synthesis_rebases_no_warm_start(monkeypatch):
    rebases = _counting(monkeypatch, pipeline, "rebase_warm_result")
    spec = SynthesisSpec(max_devices=440, threshold=3, scheduler="greedy")
    result = synthesize(_assay(440), spec)
    assert len(result.history) > 1
    # Only the portfolio backend reads the previous pass's layer result;
    # rebasing it for every re-synthesis layer took one call per layer.
    assert rebases[0] == 0
    portfolio = synthesize(
        gene_expression_assay(cells=2),
        SynthesisSpec(max_devices=6, threshold=2),
    )
    assert len(portfolio.history) > 1
    assert rebases[0] > 0


def test_greedy_synthesis_reads_assay_edges_a_bounded_number_of_times(
    monkeypatch,
):
    reads = [0]
    edges = Assay.edges

    def counted(assay):
        reads[0] += 1
        return edges.fget(assay)

    monkeypatch.setattr(Assay, "edges", property(counted))
    spec = SynthesisSpec(max_devices=440, threshold=3, scheduler="greedy")
    synthesize(_assay(440), spec)
    # One edge index per layering instead of four scans per layer
    # problem; per-layer scans took 139.
    assert 0 < reads[0] <= 20


def test_device_tokens_are_computed_once_per_device(monkeypatch):
    devices = []
    token = cache_module._device_token

    def counted(device):
        devices.append(device)  # keeps ids unique while counting
        return token(device)

    monkeypatch.setattr(cache_module, "_device_token", counted)
    spec = SynthesisSpec(max_devices=440, threshold=3, scheduler="greedy")
    synthesize(_assay(440), spec)
    # Re-tokenizing every fixed device per fingerprint took 5,251 calls
    # for 272 device objects.
    assert devices
    assert len(devices) == len({id(device) for device in devices})


def test_greedy_tests_each_fit_once_per_configuration(monkeypatch):
    fits = _counting(monkeypatch, GeneralDevice, "can_execute")
    assay = _assay(440)
    for storage in ("off", "auto"):
        fits[0] = 0
        spec = SynthesisSpec(
            max_devices=440, threshold=3, scheduler="greedy",
            storage_mode=storage,
        )
        synthesize(assay, spec)
        # 3,828 in either mode with one answer table per configuration
        # for the run; memos kept on the devices took 4,724 (off) and
        # 5,182 (auto), a memo per layer and device 23,772 and 24,738.
        assert 0 < fits[0] <= 4000, (storage, fits[0])


def test_greedy_registers_configurations_not_devices(monkeypatch):
    keys = _counting(monkeypatch, GeneralDevice, "binding_key")
    assay = _assay(440)
    for storage in ("off", "auto"):
        keys[0] = 0
        spec = SynthesisSpec(
            max_devices=440, threshold=3, scheduler="greedy",
            storage_mode=storage,
        )
        synthesize(assay, spec)
        # One key per configuration met in the run, 89 here; a key per
        # inherited device and layer solve took 5,251 (off) and 5,299
        # (auto).
        assert 0 < keys[0] <= 100, (storage, keys[0])


def test_layer_edges_scanned_twice_per_layer_solve(monkeypatch):
    scans = _counting(monkeypatch, PassState, "layer_paths")
    solves = _counting(monkeypatch, pipeline.LayerSolveStage, "solve")
    spec = SynthesisSpec(max_devices=440, threshold=3, scheduler="greedy")
    synthesize(_assay(440), spec)
    assert solves[0] > 0
    # Once to prepare the layer problem, once after binding the layer;
    # binding the layer scanned it again before it changed the binding.
    assert scans[0] == 2 * solves[0]


def test_greedy_synthesis_takes_no_layer_key(monkeypatch):
    fingerprints = _counting(
        monkeypatch, cache_module, "fingerprint_layer_problem"
    )
    tokens = _counting(monkeypatch, cache_module, "_spec_token")
    spec = SynthesisSpec(max_devices=440, threshold=3, scheduler="greedy")
    result = synthesize(_assay(440), spec)
    assert len(result.history) > 1
    # Greedy layers bypass the layer-solve cache; keying them took 32
    # fingerprints (one per layer solve) and a spec token per run.
    assert fingerprints[0] == 0
    assert tokens[0] == 0


def test_eviction_scan_reads_an_index(monkeypatch):
    scans = _counting(monkeypatch, planner, "evictions")
    finds = _counting(monkeypatch, HybridSchedule, "find")
    listings = _counting(monkeypatch, LayerSchedule, "on_device")
    spec = SynthesisSpec(
        max_devices=440, threshold=3, scheduler="greedy", storage_mode="auto"
    )
    synthesize(_assay(440), spec)
    assert scans[0] > 0
    # A layer scan per crossing edge and a sort per spanned layer took
    # 1,011 finds and 5,329 listings.
    assert finds[0] == 0
    assert listings[0] == 0


def test_layer_model_work_builds_no_expression(monkeypatch):
    from repro.hls.backends import schedule_layer_greedy
    from repro.hls.decode import decode_layer_solution
    from repro.hls.milp_model import build_layer_model, encode_layer_start
    from repro.hls.session import SessionPool
    from repro.ilp import LinExpr, Solution, SolveStatus

    problems = []
    solve = pipeline.LayerSolveStage.solve

    def record(stage, problem, spec, *args, **kwargs):
        problems.append((problem, spec))
        return solve(stage, problem, spec, *args, **kwargs)

    monkeypatch.setattr(pipeline.LayerSolveStage, "solve", record)
    synthesize(
        gene_expression_assay(cells=4),
        SynthesisSpec(
            max_devices=12, threshold=4, scheduler="greedy", max_iterations=1
        ),
    )
    problem, spec = max(problems, key=lambda item: len(item[0].ops))
    spec = dataclasses.replace(spec, scheduler="portfolio")
    shifted = dataclasses.replace(
        problem,
        edge_transport={e: t + 1 for e, t in problem.edge_transport.items()},
        release={
            uid: r + 1 if r else 0 for uid, r in problem.release.items()
        },
    )
    uids = (f"n{i}" for i in range(99))
    greedy = schedule_layer_greedy(problem, spec, uids.__next__)
    exprs = _counting(monkeypatch, LinExpr, "__init__")

    layer_model = build_layer_model(problem, spec)
    pool = SessionPool()
    pool.acquire(problem, spec)
    pool.acquire(shifted, spec)
    assert pool.reused == 1
    values = encode_layer_start(layer_model, greedy)
    assert values is not None
    decode_layer_solution(
        layer_model,
        Solution(status=SolveStatus.FEASIBLE, values=values),
        uids.__next__,
    )
    # The layer ILP is emitted straight into arrays; through LinExpr the
    # same build, delta and decode created 79,870 expressions.
    assert layer_model.model.num_constraints > 1000
    assert exprs[0] == 0
