"""Structured trace recording.

Components emit :class:`TraceRecord` entries (time, source, kind, payload)
into a shared :class:`TraceRecorder`.  Traces power the CDF analyses of
Figure 2, the observability subsystem (:mod:`repro.obs`), and are
invaluable when debugging scheduler interleavings.

Recording is cheap and bounded:

* a *kind filter* drops uninteresting records at emission time;
* a *ring-buffer cap* (``max_records``) evicts the oldest records once
  the buffer is full, counting evictions in :attr:`TraceRecorder.dropped`
  so analyses know the trace is partial;
* the :attr:`TraceRecorder.enabled` flag lets hot paths skip payload
  construction entirely when tracing is off (:class:`NullRecorder`).

Consumers that need the *stream* rather than the *buffer* register a
live sink with :meth:`TraceRecorder.add_sink`: every record that passes
the kind filter is delivered to each sink as it is emitted, before (and
independent of) ring-buffer retention, so a sink sees the complete
stream even when ``max_records`` evicts.  This is what the streaming
observability engine (:mod:`repro.obs.windows`) subscribes through.
Recorders built with ``retain=False`` skip buffering entirely and act as
pure stream fan-out points for unbounded horizons.

Event *kinds* are typed constants registered in :mod:`repro.obs.events`;
neonlint rule NEON401/NEON402 rejects emit sites using unregistered
string literals.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional

#: Default ring-buffer capacity used by tracing entry points that record
#: every kind (the ``repro trace`` CLI, ``build_env(trace=...)`` helpers).
DEFAULT_TRACE_CAP = 1_000_000


def tenant_key(payload: dict) -> Optional[str]:
    """The tenant a record's payload belongs to, or None without a task.

    Single-device runs carry no ``device`` field and key tenants by bare
    task name — unchanged byte-for-byte.  Fleet runs tag every record
    with a device id (:class:`DeviceTraceView`), and the same task name
    on different devices aggregates separately as ``name@dN`` (a
    migrated tenant's service is attributed per device).
    """
    task = payload.get("task")
    if not isinstance(task, str):
        return None
    device = payload.get("device")
    if device is None:
        return task
    return f"{task}@d{device}"


@dataclass(slots=True)
class TraceRecord:
    """One trace entry: ``TraceRecord(time, source, kind, payload)``.

    ``tenant`` is :func:`tenant_key` of the payload, computed once when
    the record is built, so every consumer of the stream reads the same
    key without decoding the payload again.  Records are values: nothing
    changes a record or its payload once it is built.
    """

    time: float
    source: str
    kind: str
    payload: dict[str, Any] = field(default_factory=dict)
    tenant: Optional[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.tenant = tenant_key(self.payload)


class TraceRecorder:
    """Bounded store of trace records with simple querying.

    Parameters
    ----------
    kinds:
        If given, only records whose ``kind`` is in this set are kept;
        everything else is dropped at emission time (not counted as
        *dropped* — they were never wanted).
    max_records:
        Ring-buffer capacity.  Once full, each new record evicts the
        oldest one and bumps :attr:`dropped`.  ``None`` (the default)
        keeps every record — callers recording long runs should pass a
        cap (the observability CLI defaults to
        :data:`DEFAULT_TRACE_CAP`).
    retain:
        When False, nothing is buffered at all (``len`` stays 0 and
        :attr:`dropped` never advances); the recorder only fans records
        out to its sinks.  Use for unbounded streaming consumers.
    """

    def __init__(
        self,
        kinds: Optional[Iterable[str]] = None,
        max_records: Optional[int] = None,
        retain: bool = True,
    ) -> None:
        if max_records is not None and max_records < 1:
            raise ValueError("max_records must be >= 1")
        self._records: deque[TraceRecord] = deque(maxlen=max_records)
        self._kinds: Optional[frozenset[str]] = (
            frozenset(kinds) if kinds is not None else None
        )
        self._retain = bool(retain)
        #: Live consumers; each is called with every record that passes
        #: the kind filter, in emission order, before buffering.
        self._sinks: list[Callable[[TraceRecord], None]] = []
        #: Records evicted by the ring buffer (oldest-first), NOT records
        #: rejected by the kind filter.
        self.dropped = 0
        #: Hot paths may consult this before building an expensive
        #: payload; :class:`NullRecorder` sets it False.
        self.enabled = True

    @property
    def max_records(self) -> Optional[int]:
        return self._records.maxlen

    @property
    def retain(self) -> bool:
        return self._retain

    # ------------------------------------------------------------------
    # Live sinks
    # ------------------------------------------------------------------
    def add_sink(
        self, sink: Callable[[TraceRecord], None]
    ) -> Callable[[TraceRecord], None]:
        """Subscribe a live consumer to the record stream.

        ``sink`` is called once per record (after the kind filter, before
        ring-buffer retention), in emission order.  Delivery is
        independent of ``max_records`` eviction: a sink sees the complete
        stream even when the buffer drops.  Sinks may re-enter
        :meth:`emit` (e.g. the streaming monitor records ``window.close``
        events); re-entrant records are delivered to sinks too.

        Returns ``sink`` so callers can keep the handle for
        :meth:`remove_sink`.
        """
        if not callable(sink):
            raise TypeError("trace sink must be callable")
        self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: Callable[[TraceRecord], None]) -> None:
        """Unsubscribe a sink; unknown sinks are ignored."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass

    @property
    def sinks(self) -> tuple[Callable[[TraceRecord], None], ...]:
        return tuple(self._sinks)

    def emit(self, time: float, source: str, kind: str, **payload: Any) -> None:
        """Record an event if its kind passes the filter."""
        if self._kinds is not None and kind not in self._kinds:
            return
        record = TraceRecord(time, source, kind, payload)
        if self._sinks:
            for sink in self._sinks:
                sink(record)
        if not self._retain:
            return
        records = self._records
        if records.maxlen is not None and len(records) == records.maxlen:
            self.dropped += 1
        records.append(record)

    def append(self, record: TraceRecord) -> None:
        """Insert an existing record (trace import path); same bounds."""
        if self._kinds is not None and record.kind not in self._kinds:
            return
        if self._sinks:
            for sink in self._sinks:
                sink(record)
        if not self._retain:
            return
        records = self._records
        if records.maxlen is not None and len(records) == records.maxlen:
            self.dropped += 1
        records.append(record)

    def records(
        self,
        kind: Optional[str] = None,
        source: Optional[str] = None,
        kinds: Optional[Iterable[str]] = None,
        start_us: Optional[float] = None,
        end_us: Optional[float] = None,
    ) -> Iterator[TraceRecord]:
        """Iterate records, optionally filtered.

        ``kind`` matches one kind exactly; ``kinds`` matches any of a
        set; ``source`` matches the emitting component; ``start_us`` /
        ``end_us`` bound the (inclusive) time window.  Lazy, so large
        traces can be scanned without materializing copies.
        """
        wanted: Optional[frozenset[str]] = None
        if kinds is not None:
            wanted = frozenset(kinds)
        for record in self._records:
            if kind is not None and record.kind != kind:
                continue
            if wanted is not None and record.kind not in wanted:
                continue
            if source is not None and record.source != source:
                continue
            if start_us is not None and record.time < start_us:
                continue
            if end_us is not None and record.time > end_us:
                continue
            yield record

    def kind_counts(self) -> dict[str, int]:
        """Record count per kind, sorted by kind name."""
        counts: dict[str, int] = {}
        for record in self._records:
            counts[record.kind] = counts.get(record.kind, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def span_us(self) -> tuple[float, float]:
        """(first, last) record time; (0, 0) when empty."""
        if not self._records:
            return (0.0, 0.0)
        return (self._records[0].time, self._records[-1].time)

    def __len__(self) -> int:
        return len(self._records)

    def clear(self) -> None:
        self._records.clear()
        self.dropped = 0


class NullRecorder(TraceRecorder):
    """A recorder that drops everything; the default when tracing is off."""

    def __init__(self) -> None:
        super().__init__(kinds=())
        self.enabled = False

    def emit(self, time: float, source: str, kind: str, **payload: Any) -> None:
        return


class DeviceTraceView:
    """A per-device view of a shared recorder (repro.fleet).

    Every record emitted through the view carries a ``device`` payload
    field identifying the fleet device its stack belongs to; everything
    else delegates to the underlying recorder.  Single-device runs never
    construct a view, so their traces carry no ``device`` field and stay
    byte-identical with the fleet subsystem merged.
    """

    __slots__ = ("_base", "device_id")

    def __init__(self, base: TraceRecorder, device_id: int) -> None:
        self._base = base
        self.device_id = device_id

    @property
    def enabled(self) -> bool:
        return self._base.enabled

    @property
    def base(self) -> TraceRecorder:
        return self._base

    def emit(self, time: float, source: str, kind: str, **payload: Any) -> None:
        if "device" not in payload:
            payload["device"] = self.device_id
        self._base.emit(time, source, kind, **payload)

    def append(self, record: TraceRecord) -> None:
        if "device" in record.payload:
            self._base.append(record)
            return
        payload = dict(record.payload)
        payload["device"] = self.device_id
        self._base.append(
            TraceRecord(record.time, record.source, record.kind, payload)
        )

    def __getattr__(self, name: str) -> Any:
        return getattr(self._base, name)

    def __len__(self) -> int:
        return len(self._base)
