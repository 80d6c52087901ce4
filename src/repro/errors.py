"""Common exception hierarchy for the DirectLoad reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch library failures without also swallowing programming
errors (``TypeError``, ``KeyError`` from plain dicts, and so on).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """A configuration value is missing, malformed, or inconsistent."""


class StorageError(ReproError):
    """Base class for storage-engine and device failures."""


class DeviceFullError(StorageError):
    """The simulated SSD has no free space left for the request."""


class OutOfRangeError(StorageError):
    """An address (page, block, or offset) is outside the device geometry."""


class AlignmentError(StorageError):
    """A native-interface request is not block- or page-aligned."""


class CorruptionError(StorageError):
    """Stored bytes fail checksum or framing validation."""


class TruncatedRecordError(CorruptionError):
    """A record's framing runs past the end of the available bytes.

    At the tail of an append-only file this is a *torn write* (a crash
    caught a record half-programmed), which recovery treats as the end
    of the log rather than as corruption.
    """


class KeyNotFoundError(StorageError):
    """The requested key/version does not exist in the store."""


class DuplicateItemError(StorageError):
    """A put repeated or re-put a ``(key, version)``: each is written once."""


class EngineClosedError(StorageError):
    """An operation was issued against a closed storage engine."""


class TransmissionError(ReproError):
    """Base class for Bifrost delivery failures."""


class ChecksumMismatchError(TransmissionError):
    """A slice arrived with a checksum that does not match its payload."""


class WireCodecError(TransmissionError):
    """A wire-encoded slice payload could not be decoded."""


class WireBaseUnavailableError(WireCodecError):
    """A delta-encoded entry references a predecessor value this
    receiver has not decoded yet.

    Under pipelined delivery a version N+1 slice can overtake the
    version N slice that carries its delta base; the receiving cluster
    parks the slice and retries after the base lands (see
    :meth:`repro.mint.cluster.MintCluster.ingest_slice`).
    """


class RoutingError(TransmissionError):
    """No usable route exists between the requested regions."""


class LinkPartitionedError(TransmissionError):
    """A transfer was attempted over a partitioned (blackholed) link."""


class DeliveryError(TransmissionError):
    """A slice delivery was abandoned after exhausting its retry budget.

    Raised when ``max_retransmits`` retransmissions all arrived corrupted,
    or when rerouting around partitioned links ran out of attempts.  The
    transport accounts the loss (``DeliveryReport.abandoned``, the
    per-link ``delivery_errors`` counter) instead of silently dropping
    the slice.  A loss counts in the unit of an arrival: every data
    center the lost copy would have reached, so a lost P2P seed copy
    counts every region's data centers.
    """


class ClusterError(ReproError):
    """Base class for Mint cluster-management failures."""


class ReplicationError(ClusterError):
    """Not enough healthy nodes are available to place all replicas."""


class NodeDownError(ClusterError):
    """The addressed storage node is not serving requests."""


class OverloadError(ClusterError):
    """The serving tier shed the request: admitting it would push a
    replica's queue past its configured depth bound.

    Load shedding is deliberate back-pressure, not a failure of the
    storage below — callers (workload clients) count it and retry or
    drop, and the frontend reports the shed rate alongside the SLO.
    """


class MigrationError(ClusterError):
    """An elastic rebalance could not converge (records unplaceable
    after the configured verify budget, or an operation was started
    while another was still in flight)."""


class ReleaseError(ReproError):
    """A gray-release transition was attempted from an invalid state."""


class SimulationError(ReproError):
    """The discrete-event kernel was used incorrectly."""
