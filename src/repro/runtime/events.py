"""Event records of a simulated hybrid-schedule run."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class EventKind(enum.Enum):
    OP_START = "op_start"
    OP_END = "op_end"
    #: an indeterminate operation finished one (failed) attempt and reruns.
    OP_RETRY = "op_retry"
    LAYER_START = "layer_start"
    LAYER_END = "layer_end"


@dataclass(frozen=True)
class Event:
    """One timestamped runtime event."""

    time: int
    kind: EventKind
    uid: str = ""
    layer: int = -1
    device: str = ""

    def __str__(self) -> str:
        subject = self.uid or f"layer {self.layer}"
        return f"t={self.time:>6} {self.kind.value:<12} {subject}"


#: Sort rank of simultaneous events: completions before the retries and
#: boundary markers they enable, layer transitions before the next layer's
#: first starts.
_KIND_ORDER = {
    EventKind.OP_END: 0,
    EventKind.OP_RETRY: 1,
    EventKind.LAYER_END: 2,
    EventKind.LAYER_START: 3,
    EventKind.OP_START: 4,
}


@dataclass
class EventLog:
    """Ordered runtime events with simple query helpers.

    The engine records events per placement, not per timestamp, so the
    raw append order interleaves timelines; :meth:`finalize` restores
    chronological order once recording is done.
    """

    events: list[Event] = field(default_factory=list)

    def record(self, event: Event) -> None:
        self.events.append(event)

    def finalize(self) -> None:
        """Sort events chronologically (stable within a timestamp).

        Simultaneous events order completions first and starts last (see
        ``_KIND_ORDER``); events equal on both keys keep recording order.
        """
        self.events.sort(key=lambda e: (e.time, _KIND_ORDER[e.kind]))

    def of_kind(self, kind: EventKind) -> list[Event]:
        return [e for e in self.events if e.kind is kind]

    def for_op(self, uid: str) -> list[Event]:
        return [e for e in self.events if e.uid == uid]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)
