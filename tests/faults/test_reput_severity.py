"""Does the fleet ever re-put a ``(key, version)`` an engine already holds?

The storage state machine found a resurrection (``test_storage_machine``'s
strict xfail): re-put a held ``(key, version)`` into a later segment,
delete it, collect that segment, crash with no valid checkpoint, and the
full scan installs the older copy live.  How severe that is depends on
whether the fleet ever does the first step.  The candidates are repair
backlog replay (``faults/repair.py``), the migrator's copy stream
(``elastic/migrator.py``) and the writes a moving slot dual-applies to
its old and new owner (``MintCluster.put_batch``).

Every ``QinDB.put_batch`` is wrapped to count the items whose
``(key, version)`` the engine's memtable already holds (live or
deleted), by the path that sent them, under every named chaos plan with
and without the wire codec and under ``rebalance --crash``, each at its
smallest CLI arguments.  The pinned answer is zero on every path: repair
copies only what a node lacks, the migrator skips what the target
already has, and dual-apply lands each write once per node.
"""

import collections
import sys

import pytest

from repro.cli import main
from repro.faults.plan import NAMED_PLANS
from repro.qindb.engine import QinDB

SCENARIOS = [
    ["chaos", "--plan", plan, *wire]
    for plan in NAMED_PLANS
    for wire in ([], ["--wire"])
] + [["rebalance", "--crash", "--days", "4", "--split-day", "2"]]


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
    held = collections.Counter()

    def counting(self, items):
        puts[_path_of(sys._getframe(1))] += len(items)
        already = sum(
            1 for key, version, _value in items
            if self.memtable.get(key, version) is not None
        )
        if already:
            held[_path_of(sys._getframe(1))] += already
        return put_batch(self, items)

    monkeypatch.setattr(QinDB, "put_batch", counting)
    assert main([*argv, "--json"]) == 0
    capsys.readouterr()
    assert puts["ingest"] > 0  # the wrapper saw the fleet's writes
    if argv[0] == "rebalance":
        assert puts["migration"] > 0 and puts["dual_apply"] > 0
    assert dict(held) == {}
