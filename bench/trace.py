"""Host-time spans recorded from outside the program.

The benchmark times each layer by swapping the layer's public methods
(class attributes) for timing wrappers before the system is built and
putting the originals back afterwards; nothing under ``src/`` knows it
is being watched.  A span is one call: name, start, end, and the span
that was open when it started.  Events live in flat arrays until the run
ends; :meth:`SpanRecorder.aggregate` then folds them into per-name call
counts and *self* time (duration minus the part covered by
child spans).

Only per-cycle / per-slice / per-batch / per-request methods are in
:data:`PROBES`.  Per-record functions (``decode_record``,
``leaf_checksum``, skip-list steps) are not: a wrapper costs about half
a microsecond, which a per-record call cannot absorb.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: raw spans written to the trace file; later ones are counted, not kept
MAX_SPANS_WRITTEN = 200_000


@dataclass(frozen=True)
class Probe:
    """One wrapped method and the per-layer metric its self time feeds."""

    module: str
    owner: str
    method: str
    #: per-layer metric that accumulates this span's self time
    metric: str
    #: an *operation*: spans below it share its index as their ``op`` id
    operation: bool = False
    #: also add up ``len()`` of what each call returns
    sized: bool = False

    @property
    def name(self) -> str:
        return f"{self.owner}.{self.method}"


PROBES: Tuple[Probe, ...] = (
    Probe("repro.core.directload", "DirectLoad", "run_update_cycle",
          "core.cycle_self_s", operation=True),
    Probe("repro.core.directload", "DirectLoad", "run_pipelined_cycles",
          "core.cycle_self_s", operation=True),
    Probe("repro.indexing.builders", "IndexBuildPipeline", "build_version",
          "indexing.build_s"),
    Probe("repro.indexing.builders", "IndexBuildPipeline",
          "advance_and_build", "indexing.build_s"),
    Probe("repro.bifrost.dedup", "Deduplicator", "process",
          "bifrost.dedup_s"),
    Probe("repro.bifrost.slices", "Slicer", "make_slices",
          "bifrost.slice_s", sized=True),
    Probe("repro.bifrost.encoding", "WireEncoder", "encode_slices",
          "bifrost.encode_s"),
    Probe("repro.bifrost.encoding", "WireDecoder", "decode_slice",
          "bifrost.decode_s"),
    Probe("repro.bifrost.transport", "BifrostTransport", "deliver_version",
          "bifrost.transport_self_s"),
    Probe("repro.mint.cluster", "MintCluster", "ingest_slice",
          "mint.ingest_self_s", operation=True),
    Probe("repro.mint.cluster", "MintCluster", "drop_version",
          "mint.drop_version_self_s", operation=True),
    Probe("repro.mint.group", "NodeGroup", "put_batch",
          "mint.group_put_self_s"),
    Probe("repro.mint.group", "NodeGroup", "multi_get",
          "mint.multi_get_self_s", operation=True),
    Probe("repro.mint.group", "NodeGroup", "delete_batch",
          "mint.drop_version_self_s"),
    Probe("repro.mint.integrity", "IntegrityIndex", "absorb",
          "mint.integrity_absorb_s"),
    Probe("repro.qindb.engine", "QinDB", "put_batch",
          "qindb.put_batch_self_s"),
    Probe("repro.qindb.engine", "QinDB", "get_batch",
          "qindb.get_batch_self_s"),
    Probe("repro.qindb.engine", "QinDB", "delete_batch",
          "qindb.delete_batch_self_s"),
    Probe("repro.ssd.native", "NativeUnit", "append", "ssd.append_s"),
    Probe("repro.ssd.native", "NativeUnit", "append_many", "ssd.append_s"),
    Probe("repro.ssd.native", "NativeUnit", "read", "ssd.read_s"),
    Probe("repro.ssd.native", "NativeUnit", "read_many", "ssd.read_s"),
    Probe("repro.ssd.native", "NativeUnit", "erase", "ssd.erase_s"),
    Probe("repro.simulation.kernel", "Simulator", "run",
          "simulation.run_self_s"),
    Probe("repro.serving.frontend", "ServingFrontend", "try_submit",
          "serving.submit_s"),
    Probe("repro.obs.tracer", "Tracer", "stage_summary",
          "obs.stage_summary_s"),
    # the benchmark's own request issuer, so load generation is not
    # booked to the kernel that happens to call it
    Probe("bench.workloads", "ReplayClients", "issue", "bench.loadgen_s",
          operation=True),
    # calibration units run inside whatever span is open; as spans of
    # their own they are not booked to it
    Probe("bench.pacer", "Pacer", "calibrate", "bench.calibration_s"),
)


@contextlib.contextmanager
def patched(
    owner: type, method: str, make: Callable[[Callable], Callable]
) -> Iterator[None]:
    """Replace ``owner.method`` with ``make(original)`` for the block."""
    original = owner.__dict__[method]
    setattr(owner, method, make(original))
    try:
        yield
    finally:
        setattr(owner, method, original)


class SpanRecorder:
    """In-memory span store; records only while :attr:`active`.

    A wrapper appends one begin and one end event (a name id, or -1 for
    an end, and a timestamp) and nothing else: calls nest, so parents are
    recovered afterwards by replaying the events over a stack.  That
    keeps a span at about half a microsecond.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._state = [False]
        self._event_ids: List[int] = []
        self._event_times = array("d")
        #: span name -> summed ``len()`` of results, for sized probes
        self.result_sizes: Dict[str, int] = {}
        #: (events replayed, spans) of the last :meth:`spans` call
        self._replayed: Tuple[int, tuple] = (0, ([], [], array("d"), array("d")))

    @property
    def active(self) -> bool:
        return self._state[0]

    @active.setter
    def active(self, value: bool) -> None:
        self._state[0] = value

    def wrap(
        self, name: str, function: Callable, sized: bool = False
    ) -> Callable:
        """A timing wrapper around ``function`` recording spans ``name``."""
        state = self._state
        if sized:
            counted = function
            sizes = self.result_sizes

            def function(*args, **kwargs):
                result = counted(*args, **kwargs)
                if state[0]:
                    sizes[name] = sizes.get(name, 0) + len(result)
                return result

        name_id = len(self.names)
        self.names.append(name)
        add_id = self._event_ids.append
        add_time = self._event_times.append
        clock = time.perf_counter

        def probe(*args, **kwargs):
            if not state[0]:
                return function(*args, **kwargs)
            add_id(name_id)
            add_time(clock())
            try:
                return function(*args, **kwargs)
            finally:
                add_id(-1)
                add_time(clock())

        probe.__name__ = getattr(function, "__name__", name)
        return probe

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Install every probe in :data:`PROBES`; remove them on exit."""
        with contextlib.ExitStack() as stack:
            for probe in PROBES:
                owner = getattr(
                    importlib.import_module(probe.module), probe.owner
                )
                stack.enter_context(
                    patched(
                        owner,
                        probe.method,
                        lambda original, probe=probe: self.wrap(
                            probe.name, original, probe.sized
                        ),
                    )
                )
            yield

    # ------------------------------------------------------------------
    def spans(self) -> Tuple[List[int], List[int], "array", "array"]:
        """Replay the events: ``(name_ids, parents, starts, ends)``, one
        entry per span in start order; a root's parent is -1."""
        if self._replayed[0] == len(self._event_ids):
            return self._replayed[1]
        name_ids: List[int] = []
        parents: List[int] = []
        starts = array("d")
        ends = array("d")
        open_spans: List[int] = []
        times = self._event_times
        for event, name_id in enumerate(self._event_ids):
            if name_id >= 0:
                parents.append(open_spans[-1] if open_spans else -1)
                open_spans.append(len(name_ids))
                name_ids.append(name_id)
                starts.append(times[event])
                ends.append(0.0)
            else:
                ends[open_spans.pop()] = times[event]
        self._replayed = (
            len(self._event_ids), (name_ids, parents, starts, ends)
        )
        return self._replayed[1]

    def aggregate(self) -> Dict[str, object]:
        """Fold the spans: per-name calls and self time, and root time.

        ``root_s`` is the time covered by spans with no parent; what is
        left of the timed wall is the benchmark's own loop (unattributed).
        """
        name_ids, parents, starts, ends = self.spans()
        count = len(name_ids)
        covered = array("d", bytes(8 * count))
        root_s = 0.0
        for index in range(count):
            duration = ends[index] - starts[index]
            parent = parents[index]
            if parent < 0:
                root_s += duration
            else:
                covered[parent] += duration
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for index in range(count):
            name_id = name_ids[index]
            calls[name_id] += 1
            self_s[name_id] += ends[index] - starts[index] - covered[index]
        return {
            "spans": count,
            "root_s": root_s,
            "by_name": {
                name: {"calls": calls[i], "self_s": self_s[i]}
                for i, name in enumerate(self.names)
                if calls[i]
            },
        }

    def write(self, path: str, origin: float) -> None:
        """Dump the raw spans, column-wise, times in ns from ``origin``.

        ``op`` is the index of the nearest enclosing operation span (a
        cycle, a slice ingest, a version drop, a read batch, a request),
        or the span's own index when it has none above it.  At most
        :data:`MAX_SPANS_WRITTEN` spans are written; ``spans_total``
        says how many there were.
        """
        name_ids, parents, starts, ends = self.spans()
        operations = {probe.name for probe in PROBES if probe.operation}
        is_operation = [name in operations for name in self.names]
        kept = min(len(name_ids), MAX_SPANS_WRITTEN)
        ops: List[int] = []
        for index in range(kept):
            parent = parents[index]
            if parent < 0:
                ops.append(index)
            elif is_operation[name_ids[parent]]:
                ops.append(parent)
            else:
                # parents precede their children, so ops[parent] is set
                ops.append(ops[parent])
        document = {
            "names": self.names,
            "layers": [name_layer(name) for name in self.names],
            "spans_total": len(name_ids),
            "spans_written": kept,
            "name": name_ids[:kept],
            "parent": parents[:kept],
            "op": ops,
            "start_ns": [int((starts[i] - origin) * 1e9) for i in range(kept)],
            "end_ns": [int((ends[i] - origin) * 1e9) for i in range(kept)],
        }
        with open(path, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))


_METRIC_OF = {probe.name: probe.metric for probe in PROBES}


def name_layer(name: str) -> str:
    """The layer (metric prefix) a span name belongs to."""
    return _METRIC_OF[name].split(".", 1)[0]


def self_time_by_metric(aggregate: Dict[str, object]) -> Dict[str, float]:
    """Self seconds per per-layer time metric (0.0 for unseen probes)."""
    seconds = {probe.metric: 0.0 for probe in PROBES}
    for name, row in aggregate["by_name"].items():
        seconds[_METRIC_OF[name]] += row["self_s"]
    return seconds


def probe_targets() -> Dict[str, Callable]:
    """What each probed class attribute currently is (tests compare this
    before and after a run to show nothing was left installed)."""
    return {
        probe.name: getattr(
            importlib.import_module(probe.module), probe.owner
        ).__dict__[probe.method]
        for probe in PROBES
    }


def calls_of(aggregate: Dict[str, object], name: str) -> int:
    row: Optional[Dict[str, float]] = aggregate["by_name"].get(name)
    return int(row["calls"]) if row else 0
