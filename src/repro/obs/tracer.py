"""Structured event tracing.

A :class:`Tracer` turns instrumentation points scattered through the DES
kernel, the grid server, the volunteer agents and the docking engine into
typed :class:`TraceEvent` records carrying both simulation time and wall
time.  Records flow into a pluggable sink — an in-memory ring buffer
(:class:`RingSink`) or a streaming JSONL file (:class:`JsonlSink`),
optionally teed into streaming folds (:class:`TeeSink`) — and
per-event-type counts are kept regardless of sink capacity, so aggregate
reconciliation (e.g. trace counts vs :class:`~repro.core.metrics.
CampaignMetrics`) never depends on buffer size.

Cost contract: instrumented hot paths hold a tracer reference that is
``None`` when tracing is off, so the disabled cost is one identity check;
a constructed-but-disabled tracer short-circuits in :meth:`Tracer.emit`
before touching the sink, the counts or the clock.

See docs/observability.md for the trace schema and the event taxonomy.
"""

from __future__ import annotations

import json
import time
from collections import Counter as _Counter
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

from .events import EVENT_TYPES, TRACE_SCHEMA_VERSION, channel_of

__all__ = [
    "TraceEvent",
    "RingSink",
    "JsonlSink",
    "TeeSink",
    "Tracer",
    "read_trace",
    "iter_trace",
    "global_tracer",
    "set_global_tracer",
    "tracing",
]

#: JSONL keys owned by the schema; event fields must not collide with them.
RESERVED_KEYS = frozenset({"v", "type", "ch", "t_sim", "t_wall"})


@dataclass
class TraceEvent:
    """One structured trace record."""

    etype: str  #: taxonomy event type, e.g. ``"server.issue"``
    channel: str  #: subsystem channel (the dotted prefix of ``etype``)
    t_sim: float | None  #: simulation time (seconds), None outside a DES
    t_wall: float  #: wall-clock time (``time.time()`` epoch seconds)
    fields: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        """Render as one JSONL line (schema version stamped)."""
        doc: dict[str, Any] = {
            "v": TRACE_SCHEMA_VERSION,
            "type": self.etype,
            "ch": self.channel,
            "t_sim": self.t_sim,
            "t_wall": self.t_wall,
        }
        doc.update(self.fields)
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        doc = json.loads(line)
        version = doc.pop("v", None)
        if version != TRACE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported trace schema version {version!r} "
                f"(this reader understands {TRACE_SCHEMA_VERSION})"
            )
        etype = doc.pop("type")
        return cls(
            etype=etype,
            channel=doc.pop("ch", channel_of(etype)),
            t_sim=doc.pop("t_sim", None),
            t_wall=doc.pop("t_wall", 0.0),
            fields=doc,
        )


class RingSink:
    """Keep the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: deque[TraceEvent] = deque(maxlen=capacity)

    def append(self, event: TraceEvent) -> None:
        self._events.append(event)

    def close(self) -> None:  # symmetry with JsonlSink
        pass

    @property
    def events(self) -> list[TraceEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)


class JsonlSink:
    """Stream events to a JSONL file, one record per line."""

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", encoding="ascii")
        self.n_written = 0

    def append(self, event: TraceEvent) -> None:
        self._fh.write(event.to_json() + "\n")
        self.n_written += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()


#: events a :class:`TeeSink` lane buffers before draining into its fold:
#: small enough that ``health.*`` transitions stay timely in the sink,
#: large enough to amortize the per-event tee cost
TEE_STRIDE = 64


class TeeSink:
    """Tee a tracer's event stream into streaming folds.

    A *fold* is an observer with a ``_dispatch`` table (event type ->
    handler), a guard-free ``fold_batch(events)`` and an
    ``attach_sink(tee)`` hook its ``finalize()`` drains through —
    :class:`~repro.obs.health.HealthMonitor` and
    :class:`~repro.obs.ledger.HostLedger` are folds.  Contract:

    - every event is forwarded to the inner sink **first**, so the
      trace/ring order is exactly the arrival order;
    - each fold owns a lane, in the order the folds were given, that
      buffers only events in the fold's dispatch table carrying a
      ``t_sim``; any other event costs one dict probe;
    - a lane drains into ``fold_batch`` every :data:`TEE_STRIDE` of its
      own events (and on :meth:`flush`/:meth:`close`).

    The health monitor sweeps its SLO rules once per drain, so its
    ``health.slo_breach``/``slo_clear`` events carry the ``t_sim`` of
    the last event of the drained batch.  Those emissions re-enter
    :meth:`append`; a lane's buffer is swapped out before it drains, and
    ``health.*`` is in no dispatch table, so they forward unbuffered.
    """

    def __init__(self, inner, folds) -> None:
        self.inner = inner
        self._inner_append = inner.append
        #: one ``[buffer, fold]`` lane per fold, in fold order
        self._lanes = [[[], fold] for fold in folds]
        #: event type -> the lanes admitting it (one probe per event)
        self._routes: dict[str, list] = {}
        for lane in self._lanes:
            for etype in lane[1]._dispatch:
                self._routes.setdefault(etype, []).append(lane)
            lane[1].attach_sink(self)

    def append(self, event: TraceEvent) -> None:
        self._inner_append(event)
        routes = self._routes
        if event.etype in routes and event.t_sim is not None:
            for lane in routes[event.etype]:
                buffer = lane[0]
                buffer.append(event)
                if len(buffer) >= TEE_STRIDE:
                    lane[0] = []  # swap before draining: folds may re-enter
                    lane[1].fold_batch(buffer)

    def flush(self) -> None:
        """Drain every lane into its fold."""
        for lane in self._lanes:
            buffer = lane[0]
            if buffer:
                lane[0] = []
                lane[1].fold_batch(buffer)

    def close(self) -> None:
        self.flush()
        self.inner.close()


class Tracer:
    """Typed event emitter with per-type counts and a pluggable sink.

    >>> tracer = Tracer()
    >>> tracer.emit("server.issue", t_sim=12.0, wu=3, host=7)
    >>> tracer.counts["server.issue"]
    1
    """

    def __init__(
        self,
        sink: RingSink | JsonlSink | None = None,
        enabled: bool = True,
        channels: Iterable[str] | None = None,
    ) -> None:
        self.sink = sink if sink is not None else RingSink()
        self.enabled = enabled
        #: restrict recording to these channels (None = all)
        self.channels = frozenset(channels) if channels is not None else None
        #: per-event-type record counts (kept even when the ring overflows)
        self.counts: _Counter[str] = _Counter()

    @classmethod
    def to_jsonl(
        cls, path: Path | str, channels: Iterable[str] | None = None
    ) -> "Tracer":
        """A tracer streaming to a JSONL file at ``path``."""
        return cls(sink=JsonlSink(path), channels=channels)

    @classmethod
    def disabled(cls) -> "Tracer":
        """A tracer that records nothing (the ~zero-cost null object)."""
        return cls(enabled=False)

    def emit(self, etype: str, t_sim: float | None = None, **fields: Any) -> None:
        """Record one event; a no-op when the tracer is disabled."""
        if not self.enabled:
            return
        description = EVENT_TYPES.get(etype)
        if description is None:
            raise ValueError(
                f"unknown event type {etype!r}; declare it in "
                "repro.obs.events.EVENT_TYPES (and docs/observability.md)"
            )
        channel = channel_of(etype)
        if self.channels is not None and channel not in self.channels:
            return
        if not RESERVED_KEYS.isdisjoint(fields):
            clash = sorted(RESERVED_KEYS.intersection(fields))
            raise ValueError(f"event fields collide with reserved keys: {clash}")
        self.counts[etype] += 1
        self.sink.append(
            TraceEvent(
                etype=etype,
                channel=channel,
                t_sim=t_sim,
                t_wall=time.time(),
                fields=fields,
            )
        )

    @property
    def n_events(self) -> int:
        """Total events recorded (sum over all types)."""
        return sum(self.counts.values())

    def close(self) -> None:
        self.sink.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def iter_trace(path: Path | str) -> Iterator[TraceEvent]:
    """Stream a JSONL trace one :class:`TraceEvent` at a time.

    The memory-bounded counterpart of :func:`read_trace`: the whole file
    is never resident, so replay filters and span reconstruction scale to
    multi-gigabyte campaign traces.
    """
    with Path(path).open("r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield TraceEvent.from_json(line)


def read_trace(path: Path | str) -> list[TraceEvent]:
    """Load a JSONL trace back into :class:`TraceEvent` records."""
    return list(iter_trace(path))


# -- process-global tracer -------------------------------------------------
#
# The DES layers thread an explicit tracer (one per simulation); the
# docking engine's module-level functions consult this process-global slot
# instead, so `dock_couple` / `MaxDoRun` pick up tracing without signature
# churn.  Process-pool workers (`dock_couple(n_workers=...)`) do not
# inherit it; the fan-out itself is traced in the parent.

_global_tracer: Tracer | None = None


def global_tracer() -> Tracer | None:
    """The process-global tracer used by the docking engine (or None)."""
    return _global_tracer


def set_global_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` as the process-global tracer; returns the old one."""
    global _global_tracer
    previous = _global_tracer
    _global_tracer = tracer
    return previous


@contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Scope ``tracer`` as the process-global tracer.

    >>> with tracing(Tracer()) as tr:
    ...     assert global_tracer() is tr
    >>> global_tracer() is None
    True
    """
    previous = set_global_tracer(tracer)
    try:
        yield tracer
    finally:
        set_global_tracer(previous)
