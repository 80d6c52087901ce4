"""The benchmark reaches the program by name.

``bench/trace.py`` times each layer by swapping the methods its
``PROBES`` name, and the pacer hooks ``QinDB.put_batch`` and
``QinDB.delete_batch``; both resolve a name as ``owner.__dict__[method]``.
A method that was deleted, renamed or moved to a base class would crash
the traced benchmark run, so these checks fail first.
"""

import importlib

import pytest

from bench import trace
from bench.pacer import Pacer


@pytest.mark.parametrize("probe", trace.PROBES, ids=lambda probe: probe.name)
def test_probe_names_a_method_its_owner_defines(probe):
    owner = getattr(importlib.import_module(probe.module), probe.owner)
    assert callable(owner.__dict__[probe.method])


def test_pacer_hooks_install_and_come_off():
    from repro.qindb.engine import QinDB

    hooked = ("put_batch", "delete_batch")
    before = {name: QinDB.__dict__[name] for name in hooked}
    with Pacer().installed():
        for name, original in before.items():
            assert QinDB.__dict__[name] is not original
    assert {name: QinDB.__dict__[name] for name in before} == before
