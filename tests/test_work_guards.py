"""Work-count guards on the greedy-scale hot paths.

Each test counts calls of an expensive primitive through a monkeypatched
module global, so a regression to redundant work fails here without any
timing.
"""

from __future__ import annotations

from repro.assays import random_assay
from repro.hls import SynthesisSpec, synthesize
from repro.hls import cache as cache_module
from repro.hls import pipeline
from repro.layering import eviction, layer_assay


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
        spec = SynthesisSpec(
            max_devices=120, threshold=3, scheduler="greedy",
            storage_mode=storage,
        )
        result = synthesize(_assay(120), spec)
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
