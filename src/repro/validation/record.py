"""Deterministic trace record / replay / diff.

A run's :class:`~repro.sim.trace.TraceRecord` stream serializes to
JSONL — one canonical, sorted-key JSON object per record — so that

* two runs of the same :class:`~repro.experiments.spec.ExperimentSpec`
  and seed produce **byte-identical** streams (seed-determinism becomes
  a checked property, not an assumption);
* a recorded stream replays offline through any monitor set
  (:func:`replay`), turning a captured failure into a repeatable unit
  test;
* two streams diff to the **first divergence**
  (:func:`first_divergence`), pinpointing where a refactor changed
  behaviour.

Canonical form and file framing live in :mod:`repro.sim.trace`
(:func:`~repro.sim.trace.record_to_line`, the JSONL(.gz) codec);
:class:`TraceRecorder` is the one bus recorder — it keeps a run's lines
in memory or streams them to a path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Sequence, Union

from repro.sim.trace import (JsonlWriter, TraceBus, TraceRecord,
                             line_to_record, read_lines, record_to_line,
                             write_lines)


# ----------------------------------------------------------------------
# Online recorder
# ----------------------------------------------------------------------
class TraceRecorder:
    """Subscribe to every record on a bus and keep its canonical lines.

    By default the lines stay in memory (:attr:`lines`).  Given ``path``
    they stream instead through a :class:`~repro.sim.trace.JsonlWriter`
    (at most ``window`` lines buffered, ``.gz`` honoured) and
    :attr:`lines` stays empty; the bytes are the same either way.

    Use as a context manager (detaches, and closes a streamed file, on
    exit), or via :meth:`attach` / :meth:`detach` / :meth:`close`::

        with TraceRecorder(sim.trace) as rec:
            scenario.run()
        rec.write(path)
    """

    def __init__(self, trace: Optional[TraceBus] = None,
                 path: Optional[str] = None, window: int = 4096):
        self.lines: List[str] = []
        self.count = 0
        self._writer = JsonlWriter(path, window) if path is not None else None
        self._add = (self.lines.append if self._writer is None
                     else self._writer.write)
        self._trace: Optional[TraceBus] = None
        if trace is not None:
            self.attach(trace)

    def attach(self, trace: TraceBus) -> "TraceRecorder":
        if self._trace is not None:
            raise RuntimeError("recorder is already attached")
        self._trace = trace
        trace.subscribe(None, self._on_record)
        return self

    def detach(self) -> None:
        if self._trace is not None:
            self._trace.unsubscribe(None, self._on_record)
            self._trace = None

    def close(self) -> None:
        """Detach and flush/close a streamed file (idempotent)."""
        self.detach()
        if self._writer is not None:
            self._writer.close()

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _on_record(self, rec: TraceRecord) -> None:
        self._add(record_to_line(rec))
        self.count += 1

    def write(self, path: str) -> None:
        """Write the in-memory stream to ``path`` (``.gz`` honoured)."""
        write_lines(path, self.lines)


# ----------------------------------------------------------------------
# File I/O and replay
# ----------------------------------------------------------------------
def write_jsonl(path: str, records: Iterable[TraceRecord]) -> int:
    """Serialize ``records`` to ``path``; returns the record count."""
    return write_lines(path, map(record_to_line, records))


def read_jsonl(path: str) -> List[TraceRecord]:
    """Load a recorded stream back into memory (``.gz`` transparent)."""
    return read_lines(path, line_to_record)


def replay(records: Sequence[TraceRecord], monitors: Iterable,
           finish: bool = True) -> TraceBus:
    """Re-emit a recorded stream through ``monitors`` offline.

    ``monitors`` is any iterable of :class:`~repro.validation.monitor.
    Monitor` (a :class:`~repro.validation.monitor.MonitorSuite` works).
    End-of-run checks run with ``net=None`` — state-dependent checks
    skip themselves — and ``end_time`` set to the last record's time.
    Monitors are detached before returning.
    """
    bus = TraceBus()
    attached = [m.attach(bus) for m in monitors]
    try:
        for rec in records:
            bus.emit(rec.time, rec.kind, **rec.attrs)
        if finish:
            end = records[-1].time if records else 0.0
            for m in attached:
                m.finish(net=None, end_time=end)
    finally:
        for m in attached:
            m.detach()
    return bus


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Divergence:
    """Where two trace streams first disagree."""

    index: int
    left: Optional[str]
    right: Optional[str]

    def describe(self) -> str:
        if self.left is None:
            return (f"record {self.index}: left stream ended, right "
                    f"continues with {self.right}")
        if self.right is None:
            return (f"record {self.index}: right stream ended, left "
                    f"continues with {self.left}")
        return (f"record {self.index}:\n  left:  {self.left}\n"
                f"  right: {self.right}")


def first_divergence(
    left: Sequence[Union[TraceRecord, str]],
    right: Sequence[Union[TraceRecord, str]],
) -> Optional[Divergence]:
    """First index where two streams differ, or None when identical.

    Accepts records or pre-serialized lines; comparison is on the
    canonical line form either way.
    """
    def as_line(item: Union[TraceRecord, str]) -> str:
        return item if isinstance(item, str) else record_to_line(item)

    for i in range(max(len(left), len(right))):
        a = as_line(left[i]) if i < len(left) else None
        b = as_line(right[i]) if i < len(right) else None
        if a != b:
            return Divergence(index=i, left=a, right=b)
    return None


# ----------------------------------------------------------------------
# Convenience: record a spec's full run
# ----------------------------------------------------------------------
def record_spec(spec, stream_path: Optional[str] = None,
                window: int = 4096) -> TraceRecorder:
    """Build and run ``spec``, recording the complete trace stream.

    Uses :func:`repro.validation.suite.observed_scenario`, so the
    recorder attaches before construction and build-time records
    (initial MH joins) are part of the stream.

    Returns the closed :class:`TraceRecorder`: with the default
    ``stream_path=None`` its ``.lines`` hold the whole stream; given a
    path the stream is written there instead, ``window`` lines at a
    time (read it back with :func:`~repro.sim.trace.read_lines`).
    """
    from repro.validation.suite import observed_scenario
    rec = TraceRecorder(path=stream_path, window=window)
    try:
        with observed_scenario(spec, rec) as scenario:
            scenario.run()
    finally:
        rec.close()
    return rec
