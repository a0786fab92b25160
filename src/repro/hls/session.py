"""Persistent per-layer solver sessions for incremental re-synthesis.

The re-synthesis loop (paper Sec. 3.2) re-solves every layer once per
pass, but between consecutive passes a layer's problem usually changes
only in its *numbers* — transportation estimates and release margins —
while the operations, devices, and dependency structure stay fixed.  The
eager flow still rebuilt the full MILP from scratch each time.

A :class:`SessionPool` keeps one :class:`LayerSession` per structural
layer-problem fingerprint (:func:`repro.hls.cache.
structural_fingerprint_layer_problem`).  On re-acquisition it asks
:func:`repro.hls.milp_model.encode_layer_delta` for a
:class:`repro.ilp.ModelDelta` that maps the changed problem onto the
existing model; when the encoder can express the change, the delta is
applied through the solver session (which re-extracts only the dirtied
rows) instead of re-encoding thousands of rows.  When it cannot — the
structure shifted in a way the fingerprint missed, or the spec changed —
the pool falls back to a from-scratch build, so a session is never
*required* for correctness, only for speed.

Determinism: a mutated session re-assembles the exact standard form a
scratch build of the mutated problem produces (the csr assembly
canonicalizes term order), so synthesis results are byte-identical with
sessions on or off.  That identity is asserted by the incremental-smoke
CI job and ``tests/test_solver_sessions.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .cache import structural_fingerprint_layer_problem
from .milp_model import (
    LayerModel,
    LayerProblem,
    apply_layer_delta,
    build_layer_model,
    encode_layer_delta,
)
from .spec import SynthesisSpec

if TYPE_CHECKING:
    from ..ilp.highs import HighsSession


@dataclass
class LayerSession:
    """One layer's live model plus the solver attached to it."""

    layer_model: LayerModel
    solver: "HighsSession"

    def close(self) -> None:
        self.solver.close()


@dataclass
class SessionPool:
    """LRU pool of :class:`LayerSession` keyed by structural fingerprint.

    ``capacity`` bounds the live sessions (each holds a full MILP model
    plus the solver's extracted rows); least-recently-acquired sessions
    are closed and evicted.  Counters expose how often re-acquisition
    managed a delta mutation (``reused``) versus a from-scratch rebuild
    (``rebuilt``).
    """

    capacity: int = 64
    _entries: dict[str, LayerSession] = field(default_factory=dict)
    created: int = 0
    reused: int = 0
    rebuilt: int = 0
    evictions: int = 0

    def __len__(self) -> int:
        return len(self._entries)

    def counters(self) -> dict[str, int]:
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "created": self.created,
            "reused": self.reused,
            "rebuilt": self.rebuilt,
            "evictions": self.evictions,
        }

    def _build(self, problem: LayerProblem, spec: SynthesisSpec) -> LayerSession:
        # Imported here so SciPy loads on the first solve, not with repro.
        from ..ilp.highs import HighsSession

        layer_model = build_layer_model(problem, spec)
        return LayerSession(
            layer_model=layer_model, solver=HighsSession(layer_model.model)
        )

    def _insert(self, key: str, session: LayerSession) -> None:
        self._entries.pop(key, None)
        self._entries[key] = session
        while len(self._entries) > max(1, self.capacity):
            oldest = next(iter(self._entries))
            self._entries.pop(oldest).close()
            self.evictions += 1

    def acquire(self, problem: LayerProblem, spec: SynthesisSpec) -> LayerSession:
        """The session for ``problem``, delta-mutated into its current
        numbers — or a freshly built one when no session can absorb it.

        The returned session's ``layer_model.problem`` *is* ``problem``
        (decode reads durations and transport from it), and its model
        matches what ``build_layer_model(problem, spec)`` would produce.
        """
        key = structural_fingerprint_layer_problem(problem, spec)
        session = self._entries.get(key)
        if session is not None:
            # dicts preserve insertion order; re-inserting marks the key
            # most-recently-used.
            self._entries.pop(key)
            self._entries[key] = session
            encoded = encode_layer_delta(session.layer_model, problem, spec)
            if encoded is not None:
                delta, new_horizon = encoded
                session.solver.apply(delta)
                apply_layer_delta(
                    session.layer_model, problem, delta, new_horizon,
                    apply=False,
                )
                self.reused += 1
                return session
            # The fingerprint matched but the delta encoder declined
            # (structure drifted in a dimension the key does not cover);
            # rebuild in place rather than trust a stale model.
            session.close()
            session = self._build(problem, spec)
            self._insert(key, session)
            self.rebuilt += 1
            return session
        session = self._build(problem, spec)
        self._insert(key, session)
        self.created += 1
        return session

    def close(self) -> None:
        for session in self._entries.values():
            session.close()
        self._entries.clear()
