"""Differential test: releasing a version prunes by its own cache keys.

:class:`ScanningDecoder` keeps the release this repo shipped before the
decoder indexed, at commit, the cache keys each version committed under:
a scan of every ``(kind, key)`` entry per release.  Both decoders take
the same random histories of encoded slices and releases — versions out
of order, released twice, committed again after a release, deltas whose
base was pruned — and must hold equal caches, in equal order, after
every step, and decode (or refuse) every slice alike.
"""

from operator import itemgetter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bifrost.encoding import WireDecoder, WireEncoder
from repro.bifrost.slices import Slice
from repro.errors import WireBaseUnavailableError
from repro.indexing.types import IndexEntry, IndexKind


class ScanningDecoder(WireDecoder):
    """The decoder with the parent's release: every cache key scanned."""

    def release_version(self, version: int) -> None:
        self.decodes.release(version)
        for cache_key, candidates in self._values.items():
            if len(candidates) > 1 and any(v == version for v, *_ in candidates):
                newest = max(candidates, key=itemgetter(0))
                self._values[cache_key] = [
                    item
                    for item in candidates
                    if item[0] != version or item is newest
                ]


KEYS = [b"doc-%d" % index for index in range(6)]
#: a few related values, so the encoder deltas against earlier ones
VALUES = [
    b"".join(b"block-%d-" % ((index + shift) % 5) * 8 for index in range(6))
    for shift in range(4)
]

step = st.one_of(
    st.tuples(
        st.just("commit"),
        st.integers(1, 5),
        st.lists(
            st.tuples(
                st.sampled_from(KEYS), st.none() | st.sampled_from(VALUES)
            ),
            min_size=1, max_size=6, unique_by=itemgetter(0),
        ),
        st.sampled_from(list(IndexKind)),
    ),
    st.tuples(st.just("release"), st.integers(1, 5)),
)


def cache(decoder):
    return list(decoder._values.items())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(step, max_size=30))
def test_release_by_version_prunes_what_the_scan_prunes(steps):
    encoder = WireEncoder()
    indexed, scanning = WireDecoder(), ScanningDecoder()
    for number, (verb, version, *rest) in enumerate(steps):
        if verb == "release":
            indexed.release_version(version)
            scanning.release_version(version)
        else:
            pairs, kind = rest
            entries = [IndexEntry(kind, key, value) for key, value in pairs]
            item = Slice.pack(f"v{version}-s{number}", version, kind, entries)
            encoder.encode_slice(item)
            outcomes = []
            for decoder in (indexed, scanning):
                try:
                    decoded = decoder.decode_slice(item)
                except WireBaseUnavailableError:
                    outcomes.append(None)
                else:
                    outcomes.append([entry.value for entry in decoded])
            assert outcomes[0] == outcomes[1]
        assert cache(indexed) == cache(scanning)
    assert indexed.stats == scanning.stats
