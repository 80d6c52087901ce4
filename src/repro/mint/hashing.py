"""Stable hashing for key placement.

``stable_hash`` is the paper's ``H(k)``: deterministic across runs and
processes (Python's builtin ``hash`` is salted per process, which would
make placements irreproducible).  Rendezvous (highest-random-weight)
hashing ranks a group's nodes for a key; taking the top *n* gives replica
placement that moves only ~1/n of keys when membership changes.
"""

from __future__ import annotations

import hashlib
import math
from functools import cache
from typing import List, Sequence, Tuple


@cache
def _salted(salt: bytes):
    """The blake2b state keyed by ``salt`` (its first 16 bytes,
    zero-padded), built once per salt: a hash under it is a ``copy`` of
    this state and an ``update`` with the key.  The salts in use are the
    empty one and the node names, so the cache stays small."""
    return hashlib.blake2b(digest_size=8, salt=salt[:16].ljust(16, b"\0"))


@cache
def _named(name: str):
    """The state a node ``name`` salts its rendezvous weights with."""
    return _salted(name.encode()[:16])


_from_bytes = int.from_bytes


def stable_hash(key: bytes, salt: bytes = b"") -> int:
    """A 64-bit deterministic hash of ``key``."""
    state = _salted(salt).copy()
    state.update(key)
    return _from_bytes(state.digest(), "little")


def _weight(name: str, key: bytes) -> int:
    """``stable_hash(key, salt=name.encode()[:16])``."""
    state = _named(name).copy()
    state.update(key)
    return _from_bytes(state.digest(), "little")


def rendezvous_ranking(node_names: Sequence[str], key: bytes) -> List[str]:
    """Node names ordered by descending rendezvous weight for ``key``."""
    # ``_weight`` inlined: a key's first read in a data center ranks it
    scored = []
    for name in node_names:
        state = _named(name).copy()
        state.update(key)
        scored.append((_from_bytes(state.digest(), "little"), name))
    scored.sort(reverse=True)
    return [name for _score, name in scored]


def weighted_rendezvous_ranking(
    weighted_names: Sequence[Tuple[str, float]], key: bytes
) -> List[str]:
    """Rendezvous ranking with per-node weights (drain states).

    The elastic-membership extension of :func:`rendezvous_ranking`:
    every ``(name, weight)`` pair scores by weighted-rendezvous hashing,
    with two placement-stability guarantees the migration machinery
    leans on:

    * **weight <= 0 ranks last** — a draining node keeps a deterministic
      position (by raw hash, after every positive-weight node) so it can
      still serve as failover-of-last-resort, but never attracts *new*
      placement;
    * **uniform positive weights reduce exactly to**
      :func:`rendezvous_ranking` — the comparison stays on the integer
      hash (no float scores), so enabling the weighted path can never
      perturb an existing fleet's placement through rounding.

    Mixed positive weights use the classic ``-w / ln(u)`` score with
    ``u`` the hash mapped into (0, 1); ties break by hash then name,
    keeping the order deterministic.
    """
    live: List[Tuple[float, int, str]] = []
    drained: List[Tuple[int, str]] = []
    for name, weight in weighted_names:
        digest = _weight(name, key)
        if weight <= 0:
            drained.append((digest, name))
        else:
            live.append((weight, digest, name))
    distinct_weights = {weight for weight, _digest, _name in live}
    if len(distinct_weights) <= 1:
        ranked = sorted(
            ((digest, name) for _weight, digest, name in live), reverse=True
        )
    else:
        ranked = []
        scored = []
        for weight, digest, name in live:
            uniform = (digest + 0.5) / 2.0**64
            scored.append((-weight / math.log(uniform), digest, name))
        scored.sort(reverse=True)
        ranked = [(digest, name) for _score, digest, name in scored]
    drained.sort(reverse=True)
    return [name for _digest, name in ranked] + [
        name for _digest, name in drained
    ]
