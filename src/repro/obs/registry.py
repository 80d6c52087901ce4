"""The metrics plane: one registry, dotted names, live views.

Every component registers its counters and gauges under a dotted name
(``qindb.north-dc1.g0.n0.read_cache.hits``, ``ssd.<node>.gc_write_ops``,
``bifrost.link.origin->north.bytes``) as a zero-argument callable that
reads the *existing* counter — there is no second copy of any tally, so
registering a metric can never drift from the component's own view.

A :meth:`MetricsRegistry.snapshot` materializes every callable at one
instant; two snapshots diff with :meth:`MetricsSnapshot.delta` (counters
registered between the two snapshots read as 0.0 in the earlier one), and
a prefix slices a collect or snapshot by subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.errors import ConfigError

MetricReader = Callable[[], float]


def _matches(name: str, prefix: Optional[str]) -> bool:
    """Dotted-prefix match: ``qindb`` matches ``qindb.n0.puts`` but a
    prefix never matches mid-segment (``qin`` does not match)."""
    if prefix is None:
        return True
    return name == prefix or name.startswith(prefix + ".")


@dataclass
class MetricsSnapshot:
    """Every registered metric's value at one instant."""

    at: float
    values: Dict[str, float] = field(default_factory=dict)

    def delta(self, earlier: "MetricsSnapshot") -> Dict[str, float]:
        """Per-counter differences since ``earlier``.

        A counter absent from the earlier snapshot (registered mid-run)
        counts from 0.0, so growing systems never KeyError a diff; a
        counter absent from *this* snapshot (unregistered, or an array
        row that shrank) reports 0.0 growth instead of silently
        vanishing — the union of both name sets always comes back.
        """
        out = {
            name: value - earlier.values.get(name, 0.0)
            for name, value in self.values.items()
        }
        for name in earlier.values:
            if name not in out:
                out[name] = 0.0
        return out


#: reads a whole row of related counters in one call
RowReader = Callable[[], Iterable[float]]


class _ArrayView:
    """One row-reader backing several dotted names.

    ``read_row()`` returns a sequence; member ``prefix.suffixes[i]``
    reads ``row[indices[i]]``.  A snapshot calls the row reader *once*
    for the whole group instead of once per member — for wide per-hop
    counter families (every link exports bytes/transfers/errors/state)
    that cuts both the closures held per link and the calls per
    snapshot by the family width.
    """

    __slots__ = ("prefix", "suffixes", "indices", "read_row")

    def __init__(self, prefix, suffixes, indices, read_row) -> None:
        self.prefix = prefix
        self.suffixes = suffixes
        self.indices = indices
        self.read_row = read_row


class MetricsRegistry:
    """Dotted-name registry of live counter/gauge views.

    The registry stores *callables*, not values: every read goes straight
    to the owning component's counter, so there is no double bookkeeping
    and no staleness.  Instances are independent: each
    :class:`~repro.core.directload.DirectLoad` owns one.

    Metrics register either one at a time (:meth:`register`) or as an
    *array view* (:meth:`register_array`): one callable returning a row
    of values that backs a whole family of names.  Both kinds occupy one
    slot in registration order, so :meth:`collect` — and therefore
    snapshot and report contents — are identical whichever way a family
    was registered.
    """

    def __init__(self) -> None:
        #: registration order: scalar names (str) and array groups
        self._order: List = []
        #: scalar name -> reader
        self._metrics: Dict[str, MetricReader] = {}
        #: array member name -> (group, row index)
        self._members: Dict[str, tuple] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._metrics or name in self._members

    # ------------------------------------------------------------------
    def _validate(self, name: str, replace: bool) -> None:
        if not name or name.startswith(".") or name.endswith("."):
            raise ConfigError(f"invalid metric name {name!r}")
        if name in self and not replace:
            raise ConfigError(f"metric {name!r} already registered")

    def _drop(self, name: str) -> None:
        """Remove one name, splitting its array group if it has one."""
        if self._metrics.pop(name, None) is not None:
            self._order.remove(name)
            return
        entry = self._members.pop(name, None)
        if entry is None:
            return
        group, _index = entry
        keep = [
            (suffix, index)
            for suffix, index in zip(group.suffixes, group.indices)
            if f"{group.prefix}.{suffix}" != name
        ]
        position = self._order.index(group)
        if keep:
            survivor = _ArrayView(
                group.prefix,
                tuple(suffix for suffix, _ in keep),
                tuple(index for _, index in keep),
                group.read_row,
            )
            self._order[position] = survivor
            for suffix, index in keep:
                self._members[f"{group.prefix}.{suffix}"] = (survivor, index)
        else:
            del self._order[position]

    def register(
        self, name: str, read: MetricReader, replace: bool = False
    ) -> None:
        """Register ``name`` -> ``read()``; duplicate names are an error
        unless ``replace`` is set (component re-created in place)."""
        self._validate(name, replace)
        if name in self:
            self._drop(name)
        self._metrics[name] = read
        self._order.append(name)

    def register_many(
        self, prefix: str, readers: Dict[str, MetricReader], replace: bool = False
    ) -> None:
        """Register ``{suffix: reader}`` under ``prefix.suffix``."""
        for suffix, read in readers.items():
            self.register(f"{prefix}.{suffix}", read, replace=replace)

    def register_array(
        self,
        prefix: str,
        suffixes: Iterable[str],
        read_row: RowReader,
        replace: bool = False,
    ) -> None:
        """Register ``prefix.suffix`` per suffix, all backed by one
        row-reader.

        ``read_row()`` must return one value per suffix, in suffix
        order.  The family shows up in every query exactly as if each
        member had been registered individually; only the storage (one
        callable, not one per member) and the snapshot cost (one call,
        not one per member) differ.
        """
        suffixes = tuple(suffixes)
        if not suffixes:
            raise ConfigError(f"array view {prefix!r} needs at least one suffix")
        names = [f"{prefix}.{suffix}" for suffix in suffixes]
        for name in names:
            self._validate(name, replace)
        for name in names:
            if name in self:
                self._drop(name)
        group = _ArrayView(
            prefix, suffixes, tuple(range(len(suffixes))), read_row
        )
        self._order.append(group)
        for index, name in enumerate(names):
            self._members[name] = (group, index)

    def unregister_prefix(self, prefix: str) -> int:
        """Drop every metric under ``prefix``; returns how many died."""
        doomed = [
            name
            for name in list(self._metrics) + list(self._members)
            if _matches(name, prefix)
        ]
        for name in doomed:
            self._drop(name)
        return len(doomed)

    # ------------------------------------------------------------------
    def collect(self, prefix: Optional[str] = None) -> Dict[str, float]:
        """Materialize every (matching) metric into a plain dict.

        This is the shape :class:`~repro.core.metrics.ThroughputSampler`
        snapshots.  Array-view families read their row once per collect.
        """
        out: Dict[str, float] = {}
        metrics = self._metrics
        for entry in self._order:
            if entry.__class__ is str:
                if prefix is None or _matches(entry, prefix):
                    out[entry] = float(metrics[entry]())
                continue
            entry_prefix = entry.prefix
            if prefix is not None and not _matches(
                entry_prefix, prefix
            ):
                wanted = [
                    (f"{entry_prefix}.{suffix}", index)
                    for suffix, index in zip(entry.suffixes, entry.indices)
                    if _matches(f"{entry_prefix}.{suffix}", prefix)
                ]
                if not wanted:
                    continue
                row = tuple(entry.read_row())
                width = len(row)
                for name, index in wanted:
                    # Short rows (family registered before the backing
                    # store grew) read 0.0 past the end, never IndexError
                    # — one lagging row must not kill the whole snapshot.
                    out[name] = float(row[index]) if index < width else 0.0
                continue
            row = tuple(entry.read_row())
            width = len(row)
            indices = entry.indices
            for position, suffix in enumerate(entry.suffixes):
                index = indices[position]
                out[f"{entry_prefix}.{suffix}"] = (
                    float(row[index]) if index < width else 0.0
                )
        return out

    def snapshot(
        self, prefix: Optional[str] = None, at: float = 0.0
    ) -> MetricsSnapshot:
        """A :class:`MetricsSnapshot` of the current values."""
        return MetricsSnapshot(at=at, values=self.collect(prefix))
