"""Unit + property tests for the flash translation layer."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeviceFullError, OutOfRangeError
from repro.ssd.device import SimulatedSSD
from repro.ssd.ftl import FlashTranslationLayer
from repro.ssd.geometry import SSDGeometry


def make_ftl(blocks=32, op_ratio=0.15):
    geometry = SSDGeometry(
        block_count=blocks, pages_per_block=8, page_size=512, op_ratio=op_ratio
    )
    device = SimulatedSSD(geometry)
    return device, FlashTranslationLayer(device)


def test_write_then_read_is_mapped():
    device, ftl = make_ftl()
    ftl.write([0, 1, 2])
    assert len(ftl._map) == 3
    assert ftl.read([0, 1, 2]) == 3
    assert device.counters.host_pages_read == 3


def test_unmapped_read_costs_nothing():
    device, ftl = make_ftl()
    assert ftl.read([5]) == 0
    assert device.counters.host_pages_read == 0


def test_overwrite_invalidates_old_page():
    device, ftl = make_ftl()
    ftl.write([7])
    ftl.write([7])
    assert len(ftl._map) == 1
    assert device.counters.host_pages_written == 2


def test_trim_unmaps():
    device, ftl = make_ftl()
    ftl.write([1, 2, 3])
    ftl.trim([2])
    assert len(ftl._map) == 2
    assert 2 not in ftl._map
    assert ftl.read([2]) == 0


def test_lpa_bounds_enforced():
    device, ftl = make_ftl()
    limit = device.geometry.exported_pages
    with pytest.raises(OutOfRangeError):
        ftl.write([limit])
    with pytest.raises(OutOfRangeError):
        ftl.read([-1])
    with pytest.raises(OutOfRangeError):
        ftl.trim([limit + 10])


def test_gc_triggers_under_churn_and_reclaims_space():
    device, ftl = make_ftl(blocks=16, op_ratio=0.2)
    pages = device.geometry.exported_pages
    # Overwrite a small working set far beyond device capacity in churn.
    rng = random.Random(0)
    for _ in range(pages * 6):
        ftl.write([rng.randrange(pages // 2)])
    counters = device.counters
    assert counters.blocks_erased > 0
    assert counters.gc_pages_written > 0
    assert counters.hardware_write_amplification > 1.0


def test_gc_preserves_all_live_mappings():
    device, ftl = make_ftl(blocks=16, op_ratio=0.2)
    pages = device.geometry.exported_pages
    live = list(range(pages // 4))
    ftl.write(live)
    rng = random.Random(1)
    churn_space = range(pages // 4, pages // 2)
    for _ in range(pages * 5):
        ftl.write([rng.choice(churn_space)])
    # Despite heavy GC, every originally live page is still mapped.
    for lpa in live:
        assert lpa in ftl._map


def test_full_logical_space_without_overwrites_fills_cleanly():
    device, ftl = make_ftl(blocks=16, op_ratio=0.2)
    budget = device.geometry.exported_pages
    ftl.write(range(budget))
    assert len(ftl._map) == budget


def test_exported_space_is_fully_writable_even_when_all_live():
    """Over-provisioning guarantees the host can fill and churn the whole
    exported space without ever hitting DeviceFullError."""
    device, ftl = make_ftl(blocks=8, op_ratio=0.3)
    budget = device.geometry.exported_pages
    ftl.write(range(budget))  # 100% of exported space live
    for _round in range(3):
        ftl.write(range(budget))  # full overwrite churn
    assert len(ftl._map) == budget


def test_writes_beyond_exported_space_rejected():
    device, ftl = make_ftl(blocks=8, op_ratio=0.3)
    with pytest.raises(OutOfRangeError):
        geometry = device.geometry
        ftl.write(range(geometry.block_count * geometry.pages_per_block))


def test_trim_then_refill_reuses_space():
    device, ftl = make_ftl(blocks=16, op_ratio=0.2)
    budget = device.geometry.exported_pages
    for _round in range(4):
        ftl.write(range(budget // 2))
        ftl.trim(range(budget // 2))
    assert len(ftl._map) == 0


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["write", "trim"]),
            st.integers(min_value=0, max_value=47),
        ),
        max_size=300,
    )
)
def test_property_mapping_matches_model(ops):
    """The FTL's mapped set always equals a trivial set model."""
    device, ftl = make_ftl(blocks=16, op_ratio=0.2)
    model = set()
    for action, lpa in ops:
        if action == "write":
            ftl.write([lpa])
            model.add(lpa)
        else:
            ftl.trim([lpa])
            model.discard(lpa)
    assert len(ftl._map) == len(model)
    for lpa in model:
        assert lpa in ftl._map
