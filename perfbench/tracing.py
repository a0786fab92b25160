"""Spans around the program's public functions, for the traced run.

The program carries no tracing of its own.  :class:`Tracer` replaces
module attributes with timing wrappers (and restores them afterwards), so
every call the pipeline makes through those names records a span with its
name, start, end and parent.  Spans stay in memory and are written out as
Chrome trace-event JSON when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path


def _model_size(tracer: "Tracer", layer_model) -> None:
    model = layer_model.model
    tracer.counts["hls.model_vars"] += len(model.variables)
    tracer.counts["hls.model_rows"] += len(model.constraints)


def _layers(tracer: "Tracer", layering) -> None:
    tracer.counts["layering.layers"] += len(layering.layers)


def _layer_solve(tracer: "Tracer", _result) -> None:
    tracer.counts["hls.layer_solves"] += 1


#: (module, attribute path, span name, result hook) of every wrapped
#: function.  Each module is the one whose global name the pipeline calls
#: through, which is where the wrapper has to go.
PROGRAM_TARGETS = (
    ("repro.hls.pipeline", "layer_assay", "layering.layer", _layers),
    ("repro.hls.pipeline", "prepare_layer_problem", "hls.prepare", None),
    ("repro.hls.pipeline", "LayerSolveStage.solve", "hls.layer_solve",
     _layer_solve),
    ("repro.hls.cache", "fingerprint_layer_problem", "hls.fingerprint", None),
    ("repro.hls.session", "structural_fingerprint_layer_problem",
     "hls.fingerprint", None),
    ("repro.hls.backends", "schedule_layer_greedy", "hls.greedy", None),
    ("repro.hls.backends", "build_layer_model", "hls.encode", _model_size),
    ("repro.hls.session", "build_layer_model", "hls.encode", _model_size),
    ("repro.hls.session", "encode_layer_delta", "hls.encode", None),
    ("repro.hls.backends", "decode_layer_solution", "hls.decode", None),
    ("repro.hls.backends", "relaxation_bound", "ilp.lp_bound", None),
    ("repro.periodic.bound", "relaxation_bound", "ilp.lp_bound", None),
    ("repro.ilp.highs", "solve_highs", "ilp.solve", None),
    ("repro.ilp.highs", "HighsSession.solve", "ilp.solve", None),
    ("repro.hls.synthesizer", "validate_result", "hls.validate", None),
    ("repro.storage", "validate_storage_plan", "hls.validate", None),
    ("repro.storage", "plan_storage", "storage.plan", None),
)

#: wrapped inside the server process (see serve_traced.py): the submit
#: path parses every body on the event loop.
SERVER_TARGETS = (
    ("repro.service.server", "assay_from_json", "io.parse", None),
    ("repro.service.server", "spec_from_json", "io.parse", None),
)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        #: (name, start, end, parent index or -1, thread id)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, threading.get_ident()))
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans[index] = (
                    name, start, end, parent, threading.get_ident()
                )

    def wrap(self, fn, name: str, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def clear(self) -> None:
        """Forget recorded spans and counts (call outside any span)."""
        with self._lock:
            self.spans.clear()
            self.counts.clear()

    # -- patching --------------------------------------------------------

    def install(self, targets) -> None:
        for module_name, path, name, hook in targets:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attribute]
            self._installed.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(original, name, hook))

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # -- analysis --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        child_time = defaultdict(float)
        for _name, start, end, parent, _tid in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, _tid) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def total(self, name: str) -> float:
        """Inclusive seconds of every span called ``name``."""
        return sum(e - s for n, s, e, _p, _t in self.spans if n == name)

    def write_chrome_trace(self, path: Path) -> None:
        """Chrome trace-event JSON (``chrome://tracing`` / Perfetto)."""
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": tid,
                "args": {"id": index, "parent": parent},
            }
            for index, (name, start, end, parent, tid) in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
