"""Shared helpers: the drift reference loop, statistics, memory, cold starts.

Everything here runs in the benchmark process; the program under test is
imported from ``src/`` of the checkout the benchmark runs in.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
#: scratch space for stores, journals and server logs (git-ignored).
WORK = ROOT / ".perfbench-work"
#: trace files of ``--trace 1`` runs (git-ignored).
OUT = ROOT / ".perfbench-out"


def program_env() -> dict[str, str]:
    """Environment for child processes that import the program from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


class _Slot:
    __slots__ = ("name", "start", "end", "tags")

    def __init__(self, name, start, end, tags):
        self.name, self.start, self.end, self.tags = name, start, end, tags

    def overlaps(self, other) -> bool:
        return self.start < other.end and other.start < self.end


def python_reference() -> float:
    """Seconds of a fixed interpreter-bound workload using no program code.

    The box the benchmark runs on is shared and its speed drifts by tens of
    percent between runs.  Timings divided by reference work measured in
    the same process between jobs cancel much of that drift (``*_rel``
    metrics), provided the reference is the same kind of work: small
    objects, attribute access, dict and list updates and sorting, like the
    greedy scheduler and the parsers.
    """
    started = time.perf_counter()
    busy: dict[str, list] = {}
    for i in range(24_000):
        start = (i * 37) % 500
        slot = _Slot(f"op{i}", start, start + i % 13 + 1,
                     frozenset(("pump", "ring")[: i % 3]))
        placed = busy.setdefault(f"d{i % 23}", [])
        if not any(slot.overlaps(other) for other in placed[-8:]):
            placed.append(slot)
    for placed in busy.values():
        placed.sort(key=lambda slot: (slot.start, slot.name))
    return time.perf_counter() - started


class _Knapsack:
    """A fixed multi-knapsack MILP solved by SciPy's HiGHS (a dependency of
    the program, not program code): the reference for ILP-bound work."""

    def __init__(self) -> None:
        import numpy as np
        from scipy.optimize import Bounds, LinearConstraint

        rng = np.random.default_rng(3)
        self.cost = -rng.integers(5, 40, 24).astype(float)
        rows = rng.integers(1, 30, (12, 24)).astype(float)
        self.rows = LinearConstraint(rows, -np.inf, rows.sum(axis=1) * 0.3)
        self.ones = np.ones(24)
        self.bounds = Bounds(0, 1)

    def __call__(self) -> float:
        from scipy.optimize import milp

        started = time.perf_counter()
        milp(self.cost, constraints=self.rows, integrality=self.ones,
             bounds=self.bounds)
        return time.perf_counter() - started


class RefClock:
    """Reference-work samples of one run.

    ``kind`` names the reference matching where the workload spends its
    time: ``python`` (interpreter-bound work) or ``milp`` (a HiGHS solve).
    """

    def __init__(self, kind: str = "python") -> None:
        self.work = _Knapsack() if kind == "milp" else python_reference
        self.samples: list[float] = []

    def sample(self) -> None:
        gc.collect()
        self.samples.append(self.work())

    @property
    def unit(self) -> float:
        """The run's median reference seconds."""
        return statistics.median(self.samples)

    @property
    def latest(self) -> float:
        """Mean of the last two samples: the reference for the work done
        between them."""
        return sum(self.samples[-2:]) / len(self.samples[-2:])


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between samples (the inclusive method
    never reaches past the largest sample, which matters for the few
    per-job latencies of the batch workloads)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def digest(document) -> str:
    """SHA-256 of a JSON document in canonical form."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _vm_hwm_kib(pid: int) -> int:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def _children(pid: int) -> list[int]:
    found: list[int] = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            found += [int(c) for c in (task / "children").read_text().split()]
        except OSError:
            continue
    return found


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak resident sets of ``pid`` and all its descendants."""
    total, stack = 0, [pid]
    while stack:
        current = stack.pop()
        total += _vm_hwm_kib(current)
        stack += _children(current)
    return total / 1024.0


def cold_start_seconds(code: str, repeats: int) -> list[float]:
    """Wall seconds of ``repeats`` fresh interpreters each running ``code``."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], env=program_env(), check=True,
            stdout=subprocess.DEVNULL, timeout=120,
        )
        times.append(time.perf_counter() - started)
    return times
