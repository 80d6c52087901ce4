"""The write-once refusal never fires on a fleet path.

QinDB refuses a put naming a ``(key, version)`` it already holds, live
or deleted (:class:`~repro.errors.DuplicateItemError`): a version is
written once.  The paths that could send one are repair backlog replay
and the audit's sweep (``faults/repair.py``), the migrator's copy
stream (``elastic/migrator.py``) and the writes a moving slot
dual-applies to its old and new owner (``MintCluster.put_batch``).

Every ``QinDB.put_batch`` is wrapped to count the refusals it raises, by
the path that sent the batch, under every named chaos plan with and
without the wire codec, each at its smallest CLI arguments, and under
``rebalance`` and ``rebalance --crash``.  The full-length month is the
one whose autoscaler leaves after it joined: a key goes back to a node
that withdrew it and still holds it deleted, and repair restores that
copy (``QinDB.restore``) instead of putting it again.  An exit code alone cannot show a refusal: the
update cycle catches every exception (``core/directload.py``), so one
would pass as a failed cycle.  The pinned answer is zero on every path:
repair copies only what a node lacks or restores what it withdrew, the
migrator skips what the target already has, and dual-apply lands each
write once per node.
"""

import collections
import sys

import pytest

from repro.cli import main
from repro.errors import DuplicateItemError
from repro.faults.plan import NAMED_PLANS
from repro.qindb.engine import QinDB

SCENARIOS = [
    ["chaos", "--plan", plan, *wire]
    for plan in NAMED_PLANS
    for wire in ([], ["--wire"])
] + [
    ["rebalance", "--crash", "--days", "4", "--split-day", "2"],
    ["rebalance"],  # joins, then leaves that hand keys back to their nodes
    ["rebalance", "--crash"],
]


def _path_of(frame) -> str:
    """Which write path a put came down: the nearest caller that is one
    of the three candidates, else ``ingest``."""
    while frame is not None:
        filename = frame.f_code.co_filename.replace("\\", "/")
        if filename.endswith("faults/repair.py"):
            return "repair"
        if filename.endswith("elastic/migrator.py"):
            return "migration"
        if (
            frame.f_code.co_name == "put_batch"
            and filename.endswith("mint/cluster.py")
            and frame.f_locals["self"]._moving_slots
        ):
            return "dual_apply"
        frame = frame.f_back
    return "ingest"


@pytest.mark.parametrize("argv", SCENARIOS, ids=" ".join)
def test_no_path_re_puts_a_held_item(argv, monkeypatch, capsys):
    put_batch = QinDB.put_batch
    puts = collections.Counter()
    refused = collections.Counter()

    def counting(self, items):
        path = _path_of(sys._getframe(1))
        puts[path] += len(items)
        try:
            return put_batch(self, items)
        except DuplicateItemError:
            refused[path] += 1
            raise

    restore = QinDB.restore
    restored = []

    def restoring(self, key, version):
        done = restore(self, key, version)
        restored.append(done)
        return done

    monkeypatch.setattr(QinDB, "put_batch", counting)
    monkeypatch.setattr(QinDB, "restore", restoring)
    assert main([*argv, "--json"]) == 0
    capsys.readouterr()
    assert puts["ingest"] > 0  # the wrapper saw the fleet's writes
    if argv[0] == "rebalance":
        assert puts["migration"] > 0 and puts["dual_apply"] > 0
    if argv == ["rebalance"]:
        assert any(restored)  # the path that would re-put is exercised
    assert dict(refused) == {}
