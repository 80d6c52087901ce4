"""Version lifecycle: advancing numbers, bounded retention, rollback.

"For one round of web crawling and selection, the corresponding index
data are tagged with an advancing version number.  When the index data
arrive at a data center ... at most four versions of index data persist"
(paper 1.1.2).  Rollback to a functional version is "the last resort".
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ConfigError, ReleaseError


class VersionManager:
    """Tracks live versions, the active one, and retention."""

    def __init__(self, max_live_versions: int = 4) -> None:
        if max_live_versions < 2:
            raise ConfigError(
                f"need at least 2 live versions for rollback, got "
                f"{max_live_versions}"
            )
        self.max_live_versions = max_live_versions
        self._live: List[int] = []
        self._active: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def live_versions(self) -> List[int]:
        """Versions currently persisted, oldest first."""
        return list(self._live)

    @property
    def active_version(self) -> Optional[int]:
        """The version currently serving queries."""
        return self._active

    def install(self, version: int) -> List[int]:
        """A new version finished landing; returns versions to delete.

        The returned (oldest) versions must be removed from storage to
        respect the at-most-``max_live_versions`` invariant.  Installation
        does not activate — that is the gray release's decision.
        """
        if self._live and version <= self._live[-1]:
            raise ReleaseError(
                f"version {version} does not advance past {self._live[-1]}"
            )
        self._live.append(version)
        evicted: List[int] = []
        while len(self._live) > self.max_live_versions:
            # Evict the oldest version that is not actively serving; the
            # active version is pinned even if a failed gray release left
            # it old (rollback safety beats the retention count).
            candidates = [v for v in self._live if v != self._active]
            if not candidates:
                break
            oldest = candidates[0]
            self._live.remove(oldest)
            evicted.append(oldest)
        return evicted

    def activate(self, version: int) -> None:
        """Make ``version`` the serving version (post-gray-release)."""
        if version not in self._live:
            raise ReleaseError(f"cannot activate unknown version {version}")
        self._active = version

    def rollback(self) -> int:
        """Revert to the newest live version older than the active one."""
        if self._active is None:
            raise ReleaseError("nothing active to roll back from")
        older = [v for v in self._live if v < self._active]
        if not older:
            raise ReleaseError("no older version available for rollback")
        self._active = older[-1]
        return self._active
