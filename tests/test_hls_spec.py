"""Tests for repro.hls.spec (SynthesisSpec, Weights, TransportProgression)."""

import pytest

from repro.devices import BindingMode
from repro.errors import SpecificationError
from repro.hls import SynthesisSpec, TransportProgression, Weights


class TestWeights:
    def test_defaults_time_dominant(self):
        w = Weights()
        assert w.time > max(w.area, w.processing, w.paths)

    def test_negative_rejected(self):
        with pytest.raises(SpecificationError):
            Weights(area=-1)

    def test_zero_time_rejected(self):
        with pytest.raises(SpecificationError):
            Weights(time=0)


class TestTransportProgression:
    def test_term_values_arithmetic(self):
        prog = TransportProgression(minimum=1, maximum=9, terms=5)
        assert prog.term_values() == [1, 3, 5, 7, 9]

    def test_single_term(self):
        prog = TransportProgression(minimum=4, maximum=8, terms=1)
        assert prog.term_values() == [4]

    def test_rank_clamps_to_maximum(self):
        prog = TransportProgression(minimum=1, maximum=5, terms=3)
        assert prog.term_for_rank(0) == 1
        assert prog.term_for_rank(99) == 5

    def test_most_used_gets_minimum(self):
        prog = TransportProgression(minimum=2, maximum=6, terms=2)
        assert prog.term_for_rank(0) == 2

    def test_invalid_range(self):
        with pytest.raises(SpecificationError):
            TransportProgression(minimum=5, maximum=3)

    def test_zero_terms(self):
        with pytest.raises(SpecificationError):
            TransportProgression(terms=0)


class TestSynthesisSpec:
    def test_defaults_match_paper(self):
        spec = SynthesisSpec()
        assert spec.max_devices == 25
        assert spec.threshold == 10
        assert spec.binding_mode is BindingMode.COVER
        assert spec.improvement_threshold == pytest.approx(0.10)
        assert spec.scheduler == "portfolio"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_devices": 0},
            {"threshold": 0},
            {"transport_default": -1},
            {"time_limit": 0},
            {"improvement_threshold": 1.0},
            {"max_iterations": -1},
            {"solve_cache_capacity": 0},
            {"target_ii": 0},
            {"scheduler": "no-such-backend"},
        ],
    )
    def test_invalid_values(self, kwargs):
        with pytest.raises(SpecificationError):
            SynthesisSpec(**kwargs)

    def test_improvement_threshold_boundaries(self):
        """The threshold lives in [-1, 1): -1 (iterate to convergence) and
        values arbitrarily close to 1 are legal; exactly 1 is not — no
        pass can improve by 100%."""
        assert SynthesisSpec(improvement_threshold=-1.0).improvement_threshold == -1.0
        near_one = 0.9999999999999999
        assert SynthesisSpec(
            improvement_threshold=near_one
        ).improvement_threshold == pytest.approx(near_one)
