"""DirectLoad core: the end-to-end index updating system.

:class:`DirectLoad` wires the whole paper together: the index build
pipeline produces a versioned dataset, Bifrost deduplicates and delivers
it to every data center's Mint cluster, the version manager retains at
most four versions (deleting the oldest), and a gray release exposes the
new version at one data center before fleet-wide activation.
"""

from repro.core.config import DirectLoadConfig
from repro.core.directload import DirectLoad, UpdateCycleReport
from repro.core.metrics import PercentileTracker, ThroughputSampler
from repro.core.release import GrayRelease, ReleasePhase
from repro.core.version import VersionManager

__all__ = [
    "DirectLoad",
    "DirectLoadConfig",
    "GrayRelease",
    "PercentileTracker",
    "ReleasePhase",
    "ThroughputSampler",
    "UpdateCycleReport",
    "VersionManager",
]
