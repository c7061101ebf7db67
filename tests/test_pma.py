"""Packed Memory Array unit tests."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.pma import PackedMemoryArray, SPACE_KEY
from repro.pma.segment import (
    MIN_CAPACITY,
    DensityBounds,
    segment_size_for_capacity,
    window_bounds,
)


# ---------------------------------------------------------------------------
# Geometry / thresholds
# ---------------------------------------------------------------------------
def test_segment_size_power_of_two():
    for cap in (64, 256, 1024, 1 << 20):
        s = segment_size_for_capacity(cap)
        assert s >= 8 and (s & (s - 1)) == 0
        assert cap % s == 0


def test_segment_size_grows_with_capacity():
    assert segment_size_for_capacity(1 << 22) >= segment_size_for_capacity(64)


def test_segment_size_rejects_tiny():
    with pytest.raises(ValueError):
        segment_size_for_capacity(16)


def test_density_bounds_monotone():
    b = DensityBounds(num_segments=16)
    uppers = [b.upper(d) for d in range(b.height + 1)]
    lowers = [b.lower(d) for d in range(b.height + 1)]
    assert all(x >= y for x, y in zip(uppers, uppers[1:]))  # decreasing to root
    assert all(x <= y for x, y in zip(lowers, lowers[1:]))  # increasing to root
    assert uppers[0] == pytest.approx(0.92)
    assert uppers[-1] == pytest.approx(0.70)
    assert all(lo < up for lo, up in zip(lowers, uppers))


def test_window_bounds_aligned():
    assert window_bounds(5, 1, 8) == (4, 6)
    assert window_bounds(5, 2, 8) == (4, 8)
    assert window_bounds(5, 3, 8) == (0, 8)
    assert window_bounds(0, 1, 8) == (0, 2)


# ---------------------------------------------------------------------------
# Basic operations
# ---------------------------------------------------------------------------
def test_empty_pma():
    pma = PackedMemoryArray()
    assert len(pma) == 0
    assert pma.get(5) is None
    assert not pma.contains(5)
    pma.check_invariants()


def test_insert_and_get():
    pma = PackedMemoryArray()
    pma.insert_batch(np.array([10, 5, 30]), np.array([100, 50, 300]))
    assert len(pma) == 3
    assert pma.get(5) == 50
    assert pma.get(10) == 100
    assert pma.get(30) == 300
    assert pma.get(7) is None
    pma.check_invariants()


def test_insert_sorted_export():
    pma = PackedMemoryArray()
    keys = np.array([9, 1, 7, 3, 5])
    pma.insert_batch(keys, keys * 10)
    ek, ev = pma.export_items()
    assert ek.tolist() == [1, 3, 5, 7, 9]
    assert ev.tolist() == [10, 30, 50, 70, 90]


def test_upsert_overwrites_value():
    pma = PackedMemoryArray()
    pma.insert_batch(np.array([1, 2]), np.array([10, 20]))
    added = pma.insert_batch(np.array([2, 3]), np.array([99, 30]))
    assert added == 1  # only key 3 is new
    assert pma.get(2) == 99
    assert len(pma) == 3


def test_intra_batch_duplicates_last_wins():
    pma = PackedMemoryArray()
    pma.insert_batch(np.array([4, 4, 4]), np.array([1, 2, 3]))
    assert len(pma) == 1
    assert pma.get(4) == 3


def test_space_key_rejected():
    pma = PackedMemoryArray()
    with pytest.raises(ValueError, match="SPACE"):
        pma.insert_batch(np.array([-1]), np.array([0]))


def test_mismatched_lengths_rejected():
    pma = PackedMemoryArray()
    with pytest.raises(ValueError):
        pma.insert_batch(np.array([1, 2]), np.array([1]))


def test_empty_batch_noop():
    pma = PackedMemoryArray()
    assert pma.insert_batch(np.array([], dtype=np.int64), np.array([], dtype=np.int64)) == 0
    assert pma.delete_batch(np.array([], dtype=np.int64)) == 0


def test_delete_existing_and_missing():
    pma = PackedMemoryArray()
    pma.insert_batch(np.arange(10), np.arange(10))
    removed = pma.delete_batch(np.array([3, 4, 100]))
    assert removed == 2
    assert len(pma) == 8
    assert pma.get(3) is None
    pma.check_invariants()


def test_delete_everything():
    pma = PackedMemoryArray()
    pma.insert_batch(np.arange(50), np.arange(50))
    pma.delete_batch(np.arange(50))
    assert len(pma) == 0
    pma.check_invariants()
    assert pma.export_items()[0].size == 0


def test_contains_batch(rng):
    pma = PackedMemoryArray()
    keys = np.array([2, 4, 6, 8])
    pma.insert_batch(keys, keys)
    res = pma.contains_batch(np.array([1, 2, 3, 4, 9]))
    assert res.tolist() == [False, True, False, True, False]


def test_contains_batch_empty_pma():
    pma = PackedMemoryArray()
    assert not pma.contains_batch(np.array([1, 2])).any()


# ---------------------------------------------------------------------------
# Growth / shrink / gaps
# ---------------------------------------------------------------------------
def test_capacity_grows_under_load():
    pma = PackedMemoryArray(capacity=64)
    pma.insert_batch(np.arange(1000), np.arange(1000))
    assert pma.capacity > 64
    assert pma.density <= 0.71
    pma.check_invariants()


def test_capacity_shrinks_after_drain():
    pma = PackedMemoryArray()
    pma.insert_batch(np.arange(5000), np.arange(5000))
    big = pma.capacity
    pma.delete_batch(np.arange(4990))
    assert pma.capacity < big
    assert len(pma) == 10
    pma.check_invariants()


def test_capacity_never_below_minimum():
    pma = PackedMemoryArray()
    pma.insert_batch(np.arange(5), np.arange(5))
    pma.delete_batch(np.arange(5))
    assert pma.capacity >= MIN_CAPACITY


def test_gapped_arrays_have_spaces():
    pma = PackedMemoryArray()
    pma.insert_batch(np.arange(20), np.arange(20))
    keys, values = pma.gapped_arrays()
    assert (keys == SPACE_KEY).sum() > 0  # the defining PMA property
    valid = keys != SPACE_KEY
    assert np.array_equal(keys[valid], np.arange(20))


def test_monotone_ascending_inserts():
    pma = PackedMemoryArray()
    for chunk in np.array_split(np.arange(2000), 40):
        pma.insert_batch(chunk, chunk)
        pma.check_invariants()
    assert len(pma) == 2000


def test_monotone_descending_inserts():
    pma = PackedMemoryArray()
    for chunk in np.array_split(np.arange(2000)[::-1].copy(), 40):
        pma.insert_batch(chunk, chunk)
        pma.check_invariants()
    ek, _ = pma.export_items()
    assert np.array_equal(ek, np.arange(2000))


def test_interleaved_inserts_land_between():
    pma = PackedMemoryArray()
    pma.insert_batch(np.arange(0, 100, 2), np.arange(0, 100, 2))
    pma.insert_batch(np.arange(1, 100, 2), np.arange(1, 100, 2))
    ek, _ = pma.export_items()
    assert np.array_equal(ek, np.arange(100))
    pma.check_invariants()


def test_segment_counts_sum_to_items():
    pma = PackedMemoryArray()
    pma.insert_batch(np.arange(777), np.arange(777))
    assert int(pma.segment_counts().sum()) == 777


def test_reinsert_after_delete():
    pma = PackedMemoryArray()
    pma.insert_batch(np.arange(100), np.arange(100))
    pma.delete_batch(np.arange(0, 100, 2))
    pma.insert_batch(np.arange(0, 100, 2), np.full(50, 777))
    assert len(pma) == 100
    assert pma.get(4) == 777
    assert pma.get(5) == 5
    pma.check_invariants()


def test_pma_memory_is_tracked(fresh_device):
    before = fresh_device.tracker.current_bytes
    pma = PackedMemoryArray(capacity=1024)
    assert fresh_device.tracker.current_bytes > before
    tags = fresh_device.tracker.live_by_tag()
    assert any(t.startswith("pma.") for t in tags)
    del pma


# ---------------------------------------------------------------------------
# check_invariants catches each corruption, naming the first bad segment
# ---------------------------------------------------------------------------
def _corruptible():
    """A PMA plus the second segment holding at least two items (and a gap)."""
    pma = PackedMemoryArray()
    pma.insert_batch(np.arange(0, 600, 3), np.arange(200))
    pma.check_invariants()
    segs = np.flatnonzero((pma.segment_counts() > 1) & (pma.segment_counts() < pma.seg_size))
    return pma, int(segs[1])


def _prev_last(pma, seg):
    prev = int(np.flatnonzero(pma.segment_counts()[:seg])[-1])
    return pma.keys[prev * pma.seg_size + pma.segment_counts()[prev] - 1]


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (lambda p, s: p._counts.__setitem__(s, p.seg_size + 1), "segment {s} count {c} out of range"),
        (lambda p, s: p._counts.__setitem__(s, -1), "segment {s} count -1 out of range"),
        (lambda p, s: p.keys.__setitem__(s * p.seg_size, SPACE_KEY), "SPACE inside prefix of segment {s}"),
        (
            lambda p, s: p.keys.__setitem__(s * p.seg_size + p.seg_size - 1, 10**6),
            "valid key in gap of segment {s}",
        ),
        (
            lambda p, s: p.keys.__setitem__(s * p.seg_size + 1, p.keys[s * p.seg_size]),
            "segment {s} prefix not strictly sorted",
        ),
        (
            lambda p, s: p.keys.__setitem__(s * p.seg_size, _prev_last(p, s)),
            "global order broken at segment {s}",
        ),
        (lambda p, s: setattr(p, "n_items", p.n_items - 1), "n_items 199 != stored 200"),
        (lambda p, s: p._seg_min.__setitem__(s, p._seg_min[s] + 1), "_seg_min stale at segment {s}"),
    ],
    ids=["count-high", "count-negative", "space-in-prefix", "key-in-gap", "unsorted", "global-order", "n-items", "seg-min"],
)
def test_check_invariants_detects_corruption(corrupt, message):
    pma, seg = _corruptible()
    corrupt(pma, seg)
    expected = message.format(s=seg, c=pma.seg_size + 1)
    with pytest.raises(AssertionError, match=f"^{re.escape(expected)}$"):
        pma.check_invariants()


def test_check_invariants_names_first_violating_segment():
    pma, seg = _corruptible()
    later = int(np.flatnonzero(pma.segment_counts() > 1)[-1])
    assert later > seg
    pma.keys[later * pma.seg_size] = SPACE_KEY
    base = seg * pma.seg_size
    pma.keys[base], pma.keys[base + 1] = pma.keys[base + 1], pma.keys[base]
    with pytest.raises(AssertionError, match=f"^segment {seg} prefix not strictly sorted$"):
        pma.check_invariants()
