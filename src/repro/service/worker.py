"""Worker-process entry point for service solves.

The parent ships a small picklable request, the worker returns a tagged
tuple, and *all* expected failures travel as data — a worker never lets a
:class:`~repro.errors.ReproError` escape as a pickled traceback.
"""

from __future__ import annotations

import ctypes
import math
import os
import signal
import sys
import threading
import time
from typing import Any

from ..errors import ReproError

#: Request key enabling the crash hook below.
_DEBUG_CRASH = "debug-crash"


#: ``prctl`` option asking the kernel for a signal on the parent's death.
_PR_SET_PDEATHSIG = 1


def exit_with_parent(parent: int) -> None:
    """Pool-worker initializer: end this worker when the server dies.

    A SIGKILLed server cannot shut its pool down, and a worker blocked on
    its call queue would otherwise live on, re-parented to init.  On
    Linux the kernel sends the worker SIGKILL when the *thread* that
    forked it exits (``prctl(PR_SET_PDEATHSIG)`` follows the forking
    thread, not the process), so the pool must be submitted to only from
    a thread that lives as long as the server; elsewhere a daemon thread
    polls ``getppid``.  ``parent`` is the server's pid, checked once
    armed in case the server died before the worker got here.
    """
    if sys.platform.startswith("linux"):
        try:
            libc = ctypes.CDLL(None, use_errno=True)
            armed = libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0) == 0
        except (OSError, AttributeError):
            armed = False
        if armed:
            if os.getppid() != parent:
                os._exit(1)
            return

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _certificate(value: "float | None") -> "float | None":
    """Nullable-float guard: a NaN/inf certificate proves nothing and
    travels as ``null``, never as an unparseable JSON token."""
    if value is None or not math.isfinite(value):
        return None
    return float(value)


def run_job(request: dict[str, Any]) -> tuple:
    """Solve one synthesis job; returns ``("ok", payload)`` or
    ``("error", kind, message)``.

    ``request`` keys: ``assay`` (assay JSON), ``spec`` (spec JSON or
    None), ``method`` ("hls" | "conventional"), ``deterministic``
    (bool, default True), ``degraded`` (bool: re-run after a wall-clock
    timeout — the spec is pinned to the LP-bound scheduler via
    :func:`repro.hls.backends.degraded_spec`, so the payload carries a
    certified integrality gap in ``"quality"`` alongside the
    ``"degraded": true`` flag).
    """
    if request.get("method") == _DEBUG_CRASH:
        # Test hook (gated behind ServerConfig.allow_debug): die the way a
        # real worker does when the OS kills it mid-solve.
        os._exit(1)
    try:
        from ..baselines import synthesize_conventional
        from ..experiments.report import synthesis_profile
        from ..hls import SynthesisSpec, synthesize
        from ..io.json_io import (
            assay_from_json,
            result_to_json,
            spec_from_json,
        )

        assay = assay_from_json(request["assay"])
        spec_data = request.get("spec")
        spec = spec_from_json(spec_data) if spec_data else SynthesisSpec()
        degraded = bool(request.get("degraded"))
        if degraded:
            from ..hls.backends import degraded_spec

            spec = degraded_spec(spec)

        method = request.get("method", "hls")
        if method == "conventional":
            result = synthesize_conventional(assay, spec)
        elif method == "hls":
            result = synthesize(assay, spec)
        else:
            return ("error", "bad-request", f"unknown method {method!r}")

        payload = {
            "result": result_to_json(
                result, deterministic=request.get("deterministic", True)
            ),
            "profile": synthesis_profile(result),
            # Certified quality of the run: proven lower bound on the total
            # layer objective and the relative gap (null = uncertified).
            # Degraded re-runs in particular report "within X% of optimal"
            # here instead of only a bare flag.
            "quality": {
                "lower_bound": _certificate(result.lower_bound),
                "integrality_gap": _certificate(result.integrality_gap),
            },
        }
        storage_plan = getattr(result, "storage_plan", None)
        if storage_plan is not None:
            # Summary of the synthesized storage decisions (full plan is
            # inside payload["result"]["storage"]); absent in off mode so
            # pre-storage payloads are unchanged.
            payload["storage"] = {
                "mode": storage_plan.mode,
                "held": storage_plan.held_count,
                "channel": storage_plan.channel_count,
                "reservoir": storage_plan.reservoir_count,
                "demand": storage_plan.demand,
                "reservoirs": len(storage_plan.reservoirs),
                "total_cost": storage_plan.total_cost,
            }
            payload["quality"]["storage_demand"] = storage_plan.demand
            payload["quality"]["storage_cost"] = storage_plan.total_cost
        if method == "hls" and spec.throughput_mode == "periodic":
            # Steady-state re-timing of the one-shot result; absent in
            # off mode so pre-throughput payloads are unchanged.
            from ..periodic import schedule_throughput

            throughput = schedule_throughput(result, spec)
            payload["periodic"] = {
                "ii": throughput.ii,
                "base_makespan": throughput.base_makespan,
                "latency": throughput.latency,
                "lower_bound": _certificate(throughput.lower_bound),
                "integrality_gap": _certificate(
                    throughput.integrality_gap
                ),
                "validated": True,
                "scheduler": throughput.scheduler,
                "degraded": throughput.degraded,
                "probes": len(throughput.probes),
            }
            payload["quality"]["ii"] = throughput.ii
            payload["quality"]["ii_lower_bound"] = _certificate(
                throughput.lower_bound
            )
        if degraded:
            payload["degraded"] = True
        return ("ok", payload)
    except ReproError as exc:
        return ("error", "synthesis-failed", str(exc))
    except (KeyError, TypeError, ValueError) as exc:
        return ("error", "bad-request", f"malformed job request: {exc}")


__all__ = ["run_job"]
