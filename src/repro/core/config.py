"""Top-level configuration of a DirectLoad deployment."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from repro.bifrost.channels import TopologyConfig
from repro.bifrost.transport import TransportConfig
from repro.core.release import ReleaseThresholds
from repro.errors import ConfigError
from repro.mint.cluster import MintConfig

EngineKind = Literal["qindb", "lsm"]


@dataclass(frozen=True)
class DirectLoadConfig:
    """Everything needed to stand up the full system in simulation.

    The defaults describe a laptop-scale replica of the paper's
    deployment: 3 regions x 2 data centers, small Mint clusters, 4 MB
    slices, deduplication on, QinDB storage.
    """

    # Corpus / build pipeline
    doc_count: int = 500
    vocabulary_size: int = 4000
    doc_length: int = 60
    mutation_rate: float = 0.3
    summary_value_bytes: int = 4096
    forward_value_bytes: int = 1024

    # Delivery
    dedup_enabled: bool = True
    slice_bytes: int = 4 * 1024 * 1024
    #: wire-encode packed slices for transmission (delta changed values
    #: against their predecessor, varint-pack, DEFLATE the stream; see
    #: :mod:`repro.bifrost.encoding`).  Off by default: encoding changes
    #: every transmit delay, so the pinned byte-identical month digests
    #: are recorded against the unencoded wire.  Delivered contents are
    #: byte-identical either way (tests/integration/test_wire_equivalence).
    wire_encoding: bool = False
    generation_window_s: float = 600.0
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    transport: TransportConfig = field(default_factory=TransportConfig)

    # Storage
    engine: EngineKind = "qindb"
    mint: MintConfig = field(default_factory=MintConfig)
    max_live_versions: int = 4

    # Release
    gray_dc: str = "north-dc1"
    release_thresholds: ReleaseThresholds = field(default_factory=ReleaseThresholds)
    cross_region_share: float = 0.007

    # Observability.  Tracing on is the default (reports carry stage
    # breakdowns); the repo benchmark's untraced workloads (bench/) turn
    # it off and run the allocation-free null-tracer path, which must not
    # change any delivered byte (tests/integration/test_perf_equivalence.py).
    tracing_enabled: bool = True

    seed: int = 2019

    def __post_init__(self) -> None:
        if self.doc_count < 1:
            raise ConfigError("doc_count must be >= 1")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ConfigError("mutation_rate must be in [0, 1]")
        if self.engine not in ("qindb", "lsm"):
            raise ConfigError(f"unknown engine {self.engine!r}")
        if self.generation_window_s < 0:
            raise ConfigError("generation_window_s must be >= 0")
        if self.max_live_versions < 2:
            raise ConfigError("max_live_versions must be >= 2")
