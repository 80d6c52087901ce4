"""The trace plane: hierarchical spans stamped with simulated time.

A :class:`Tracer` reads its clock from the simulation (any object with a
``now`` attribute, or a plain callable), so spans measure *simulated*
seconds — the time base every figure in the paper is plotted against —
not wall-clock Python overhead.

Spans are grouped into named **tracks**.  Each track is sequential (its
spans open and close in stack order), which is exactly how the simulator
interleaves processes: one delivery process is sequential in simulated
time even though many deliveries overlap.  The main track carries the
update cycle's pipeline stages; each delivery process gets its own track
whose root span parents to whatever the main track has open, so per-hop
transmit spans nest under the cycle's ``transmit`` stage.  A track may
carry its *own* clock (a storage engine's device clock for GC and
checkpoint spans); such tracks never parent into the main track, since
their timestamps live on a different time base.

Exports: :meth:`Tracer.to_json` (plain span dicts) and
:meth:`Tracer.to_chrome_trace` (Chrome ``trace_event`` format — load the
file in ``chrome://tracing`` or Perfetto).  :meth:`Tracer.stage_summary`
folds the finished spans into the per-stage table the cycle report and
``repro observe`` print.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigError

Clock = Callable[[], float]

MAIN_TRACK = "main"


def _as_clock(source) -> Clock:
    """Accept a Simulator/device (has ``.now``) or a plain callable."""
    if callable(source):
        return source
    if hasattr(source, "now"):
        return lambda: source.now
    raise ConfigError(f"clock source {source!r} has no .now and is not callable")


@dataclass(slots=True)
class Instant:
    """A zero-duration marker event (an alert firing, a fault landing).

    Instants share the span tracks but carry no hierarchy — they exist
    so detections line up against injected faults in the trace viewer.
    """

    name: str
    track: str
    at_s: float
    attrs: Dict[str, object] = field(default_factory=dict)


@dataclass(slots=True)
class Span:
    """One timed region of the pipeline."""

    span_id: int
    name: str
    track: str
    start_s: float
    attrs: Dict[str, object] = field(default_factory=dict)
    parent_id: Optional[int] = None
    end_s: Optional[float] = None

    @property
    def finished(self) -> bool:
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        return 0.0 if self.end_s is None else self.end_s - self.start_s

    def to_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "track": self.track,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "parent_id": self.parent_id,
            "attrs": dict(self.attrs),
        }


class _NullAttrs(dict):
    """Write-discarding attrs shared by the disabled tracer's one span.

    The null span is a process-wide singleton, so accepting (and
    dropping) writes keeps instrumented code identical on both paths —
    no ``if tracer.enabled`` at call sites — without accumulating state.
    """

    def __setitem__(self, key, value) -> None:
        pass

    def setdefault(self, key, default=None):
        return default

    def update(self, *args, **kwargs) -> None:
        pass


class _NullSpan:
    """The disabled tracer's span: every field inert, nothing recorded."""

    __slots__ = ()

    span_id = 0
    name = ""
    track = ""
    start_s = 0.0
    end_s = 0.0
    parent_id = None
    attrs = _NullAttrs()
    finished = True
    duration_s = 0.0


_NULL_SPAN = _NullSpan()


class _NullSpanContext:
    """``span()``'s return when tracing is off: reusable, allocation-free."""

    __slots__ = ()

    span = _NULL_SPAN

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, _tb) -> bool:
        return False


_NULL_CONTEXT = _NullSpanContext()


class _SpanContext:
    """Context manager opening a span on enter, closing it on exit.

    Exceptions propagate (the span closes with an ``error`` attribute),
    so a retransmitted hop leaves a visible failed span in the trace.
    """

    def __init__(self, tracer: "Tracer", name: str, track: str,
                 clock: Clock, attrs: Dict[str, object],
                 parent: Optional[Span] = None) -> None:
        self._tracer = tracer
        self._name = name
        self._track = track
        self._clock = clock
        self._attrs = attrs
        self._parent = parent
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span = self._tracer._open(
            self._name, self._track, self._clock(), self._attrs,
            parent=self._parent,
        )
        return self.span

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if exc is not None:
            self.span.attrs.setdefault("error", type(exc).__name__)
        self._tracer._close(self.span, self._clock())
        return False


class TraceTrack:
    """A bound (track name, clock) handle — what components hold.

    A component owning a track (a storage engine, a delivery process)
    opens spans without knowing the tracer's default clock or naming.
    """

    def __init__(self, tracer: "Tracer", name: str, clock: Clock) -> None:
        self.tracer = tracer
        self.name = name
        self._clock = clock

    def span(
        self, name: str, parent: Optional[Span] = None, **attrs
    ) -> _SpanContext:
        if not self.tracer.enabled:
            return _NULL_CONTEXT
        return _SpanContext(
            self.tracer, name, self.name, self._clock, attrs, parent=parent
        )


class Tracer:
    """Collects hierarchical spans across all tracks of one system."""

    def __init__(self, clock, enabled: bool = True) -> None:
        self._clock = _as_clock(clock)
        #: the null path: when False, ``span()`` hands out one shared
        #: inert context and nothing is ever recorded or allocated
        self.enabled = bool(enabled)
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        self._open_stacks: Dict[str, List[Span]] = {}
        #: tracks whose clock differs from the tracer's (never parent
        #: into the main track: different time base)
        self._foreign_clock_tracks: set[str] = set()
        self._next_id = 1

    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        track: str = MAIN_TRACK,
        parent: Optional[Span] = None,
        **attrs,
    ) -> _SpanContext:
        """Open a span on ``track`` (default: the main pipeline track).

        ``parent`` explicitly parents the span when it opens a *fresh*
        track (its open-stack is empty) — how concurrent multi-version
        pipelines keep each delivery/ingest track under the right
        version's cycle span instead of whatever main happens to have
        open.  A nested span (non-empty stack) always parents to the
        track's innermost open span; ``parent`` is ignored there.
        """
        if not self.enabled:
            return _NULL_CONTEXT
        return _SpanContext(self, name, track, self._clock, attrs, parent=parent)

    def track(self, name: str, clock=None) -> TraceTrack:
        """A handle for opening spans on one named track.

        ``clock`` overrides the tracer's time source for this track
        (e.g. an engine's device clock); such a track's spans stay
        parentless at their root rather than nesting under main-track
        spans stamped on a different time base.
        """
        if clock is None:
            return TraceTrack(self, name, self._clock)
        self._foreign_clock_tracks.add(name)
        return TraceTrack(self, name, _as_clock(clock))

    def instant(
        self,
        name: str,
        track: str = MAIN_TRACK,
        at: Optional[float] = None,
        **attrs,
    ) -> Optional[Instant]:
        """Record a zero-duration marker on ``track``.

        ``at`` overrides the tracer clock (alert engines evaluate at a
        sample timestamp, not "now").  No-op when tracing is disabled.
        """
        if not self.enabled:
            return None
        event = Instant(
            name=name,
            track=track,
            at_s=self._clock() if at is None else at,
            attrs=dict(attrs),
        )
        self.instants.append(event)
        return event

    def clear(self) -> None:
        """Drop all finished spans and instants (open spans survive)."""
        self.spans = [s for s in self.spans if not s.finished]
        self.instants = []

    # ------------------------------------------------------------------
    def _open(self, name: str, track: str, at: float,
              attrs: Dict[str, object],
              parent: Optional[Span] = None) -> Span:
        stack = self._open_stacks.setdefault(track, [])
        explicit = parent if not stack else None
        parent = stack[-1] if stack else explicit
        if parent is None and track != MAIN_TRACK:
            # A fresh track's root span nests under whatever pipeline
            # stage is currently open — unless the track runs on its own
            # clock, whose timestamps would not lie inside main's bounds.
            if track not in self._foreign_clock_tracks:
                main = self._open_stacks.get(MAIN_TRACK)
                parent = main[-1] if main else None
        span = Span(
            span_id=self._next_id,
            name=name,
            track=track,
            start_s=at,
            attrs=dict(attrs),
            parent_id=parent.span_id if parent else None,
        )
        self._next_id += 1
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: Span, at: float) -> None:
        span.end_s = at
        stack = self._open_stacks.get(span.track, [])
        if stack and stack[-1] is span:
            stack.pop()
        else:  # pragma: no cover - misuse guard (out-of-order close)
            try:
                stack.remove(span)
            except ValueError:
                pass

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------
    def finished_spans(self) -> List[Span]:
        return [s for s in self.spans if s.finished]

    def to_json(self) -> List[Dict[str, object]]:
        """Plain dicts for every finished span, in creation order."""
        return [s.to_dict() for s in self.finished_spans()]

    def to_chrome_trace(self, pid: int = 1) -> Dict[str, object]:
        """The Chrome ``trace_event`` format (``chrome://tracing``).

        One complete ("X") event per finished span and one instant
        ("i", global scope) event per marker — timestamps in
        microseconds, one ``tid`` per track, thread-name metadata events
        labelling each track.  Span events are sorted by start time
        within each track, so ``ts`` is monotonically non-decreasing per
        track.
        """
        tids: Dict[str, int] = {}
        for span in self.finished_spans():
            tids.setdefault(span.track, len(tids))
        for event in self.instants:
            tids.setdefault(event.track, len(tids))
        events: List[Dict[str, object]] = [
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid,
                "tid": tid,
                "ts": 0,
                "args": {"name": track},
            }
            for track, tid in tids.items()
        ]
        spans = sorted(
            self.finished_spans(), key=lambda s: (tids[s.track], s.start_s, s.span_id)
        )
        for span in spans:
            events.append(
                {
                    "ph": "X",
                    "name": span.name,
                    "cat": span.track,
                    "pid": pid,
                    "tid": tids[span.track],
                    "ts": span.start_s * 1e6,
                    "dur": span.duration_s * 1e6,
                    "args": dict(span.attrs, span_id=span.span_id),
                }
            )
        for event in sorted(
            self.instants, key=lambda e: (tids[e.track], e.at_s)
        ):
            events.append(
                {
                    "ph": "i",
                    "s": "g",
                    "name": event.name,
                    "cat": event.track,
                    "pid": pid,
                    "tid": tids[event.track],
                    "ts": event.at_s * 1e6,
                    "args": dict(event.attrs),
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    # ------------------------------------------------------------------
    def stage_summary(
        self, root_name: str = "cycle", root_id: Optional[int] = None
    ) -> List[Dict[str, object]]:
        """Per-stage totals under one root span.

        Folds every finished descendant of the root (the most recent
        span named ``root_name``, or the explicit ``root_id``) by span
        name: count, total seconds, and share of the root's duration.
        Rows are ordered by first occurrence, so the table reads in
        pipeline order.
        """
        finished = self.finished_spans()
        by_id = {s.span_id: s for s in finished}
        root: Optional[Span] = None
        if root_id is not None:
            root = by_id.get(root_id)
        else:
            for span in reversed(finished):
                if span.name == root_name:
                    root = span
                    break
        if root is None:
            return []
        descendants: List[Span] = []
        for span in finished:
            walk = span
            while walk.parent_id is not None:
                if walk.parent_id == root.span_id:
                    descendants.append(span)
                    break
                walk = by_id.get(walk.parent_id)
                if walk is None:
                    break
        rows: Dict[str, Dict[str, object]] = {}
        for span in descendants:
            row = rows.setdefault(
                span.name, {"stage": span.name, "count": 0, "total_s": 0.0}
            )
            row["count"] += 1
            row["total_s"] += span.duration_s
        cycle_s = root.duration_s
        for row in rows.values():
            row["share"] = row["total_s"] / cycle_s if cycle_s > 0 else 0.0
        return list(rows.values())


#: The one way to be untraced: a disabled tracer's track, what a
#: component that opens spans holds until :meth:`bind_trace` gives it a
#: live one.  Its spans and instants record nothing.
UNTRACED = Tracer(lambda: 0.0, enabled=False).track("untraced")
