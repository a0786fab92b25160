"""Run-time model shared by every simulated run of a hybrid schedule.

:class:`RetryModel` says how indeterminate operations behave at run time
(geometric retries, capped), and :func:`_assert_exclusive` is the defensive
device-exclusivity check on a layer's fixed sub-schedule.  The run time
itself — layer barriers, retries, faults and recovery — is
:class:`repro.cyberphysical.ExecutionEngine`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import SchedulingError


@dataclass(frozen=True)
class RetryModel:
    """How indeterminate operations behave at run time.

    Every attempt takes the operation's minimum duration; each attempt
    succeeds with probability ``success_probability`` (the paper's
    single-cell capture reference [11] reports ~0.53), capped at
    ``max_attempts``.

    ``on_exhausted`` decides what happens when the cap is reached without
    success: ``"succeed"`` pretends the last attempt worked (useful for
    makespan studies), ``"fail"`` marks the operation failed — the run
    aborts after the failing layer (its descendants can never execute) and
    the report lists the casualties.
    """

    success_probability: float = 0.53
    max_attempts: int = 20
    on_exhausted: str = "succeed"

    def __post_init__(self) -> None:
        if not 0 < self.success_probability <= 1:
            raise SchedulingError("success probability must be in (0, 1]")
        if self.max_attempts < 1:
            raise SchedulingError("max_attempts must be >= 1")
        if self.on_exhausted not in ("succeed", "fail"):
            raise SchedulingError(
                f"on_exhausted must be 'succeed' or 'fail', "
                f"got {self.on_exhausted!r}"
            )

    def sample_attempts(self, rng: random.Random) -> tuple[int, bool]:
        """(number of attempts, succeeded) — geometric, capped."""
        attempts = 1
        while (
            attempts < self.max_attempts
            and rng.random() >= self.success_probability
        ):
            attempts += 1
        succeeded = True
        if attempts == self.max_attempts and self.on_exhausted == "fail":
            # The final attempt itself still has its chance.
            succeeded = rng.random() < self.success_probability
        return attempts, succeeded


def _assert_exclusive(layer) -> None:
    """Defensive device-exclusivity check on the fixed sub-schedule.

    Two violations are rejected: overlapping fixed windows on one device,
    and *any* placement starting at or after an indeterminate operation's
    start on the same device — an indeterminate operation must end its
    layer (paper constraint (14)), so nothing can be scheduled behind it;
    its realized completion is unknowable at synthesis time.
    """
    by_device: dict[str, list] = {}
    for placement in layer.placements.values():
        by_device.setdefault(placement.device_uid, []).append(placement)
    for device_uid, placements in by_device.items():
        placements.sort(key=lambda p: (p.start, p.indeterminate, p.uid))
        for first, second in zip(placements, placements[1:]):
            if first.indeterminate:
                raise SchedulingError(
                    f"device {device_uid}: {second.uid} scheduled after "
                    f"indeterminate {first.uid}, whose completion is "
                    f"unknowable at synthesis time"
                )
            if second.start < first.end:
                raise SchedulingError(
                    f"device {device_uid} double-booked: "
                    f"{first.uid} and {second.uid}"
                )
