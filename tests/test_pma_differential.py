"""Differential test: the whole-batch PMA against the per-segment original.

``_ReferencePMA`` is a frozen copy of the segment-at-a-time batch update the
whole-batch implementation replaced (local merge per segment, window search
and rebalance per overflowing segment, per-segment delete).  After every
batch the two must agree bit for bit on the return value, the geometry and
the raw gapped storage, so Algorithm 3, the CSR caches and checkpoints see
no difference.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.pma import PackedMemoryArray, SPACE_KEY
from repro.pma.segment import (
    MIN_CAPACITY,
    DensityBounds,
    segment_size_for_capacity,
    window_bounds,
)

_POS_INF = np.iinfo(np.int64).max


class _ReferencePMA:
    """The original segment-at-a-time PMA batch update (plain NumPy arrays)."""

    def __init__(self, capacity: int = MIN_CAPACITY) -> None:
        capacity = max(MIN_CAPACITY, 1 << max(0, int(math.ceil(math.log2(max(1, capacity))))))
        self._alloc_arrays(capacity)
        self.n_items = 0

    def _alloc_arrays(self, capacity: int) -> None:
        self.capacity = capacity
        self.seg_size = segment_size_for_capacity(capacity)
        self.num_segments = capacity // self.seg_size
        self.bounds = DensityBounds(self.num_segments)
        self.keys = np.full(capacity, SPACE_KEY, dtype=np.int64)
        self.values = np.full(capacity, -1, dtype=np.int64)
        self._counts = np.zeros(self.num_segments, dtype=np.int64)
        self._seg_min = np.full(self.num_segments, _POS_INF, dtype=np.int64)

    def _seg_slice(self, seg: int) -> slice:
        start = seg * self.seg_size
        return slice(start, start + int(self._counts[seg]))

    def _refresh_seg_min(self) -> None:
        starts = np.arange(self.num_segments) * self.seg_size
        firsts = np.where(self._counts > 0, self.keys[starts], _POS_INF)
        self._seg_min[:] = np.minimum.accumulate(firsts[::-1])[::-1]

    def _route(self, keys: np.ndarray) -> np.ndarray:
        segs = np.searchsorted(self._seg_min, keys, side="right") - 1
        return np.clip(segs, 0, self.num_segments - 1)

    def contains_batch(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        if self.n_items == 0:
            return np.zeros(len(keys), dtype=bool)
        valid_keys, _ = self.export_items()
        pos = np.searchsorted(valid_keys, keys)
        pos_clipped = np.minimum(pos, len(valid_keys) - 1)
        return (pos < len(valid_keys)) & (valid_keys[pos_clipped] == keys)

    def export_items(self) -> tuple[np.ndarray, np.ndarray]:
        mask = self.keys != SPACE_KEY
        return self.keys[mask], self.values[mask]

    def insert_batch(self, keys: np.ndarray, values: np.ndarray) -> int:
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        if len(keys) == 0:
            return 0
        order = np.argsort(keys, kind="stable")
        keys, values = keys[order], values[order]
        uniq_mask = np.empty(len(keys), dtype=bool)
        uniq_mask[:-1] = keys[:-1] != keys[1:]
        uniq_mask[-1] = True
        keys, values = keys[uniq_mask], values[uniq_mask]

        present = self.contains_batch(keys)
        if present.any():
            for k, v in zip(keys[present], values[present]):
                self._overwrite(int(k), int(v))
            keys, values = keys[~present], values[~present]
        if len(keys) == 0:
            return 0

        while (self.n_items + len(keys)) / self.capacity > self.bounds.upper(self.bounds.height):
            self._resize(self.capacity * 2)

        segs = self._route(keys)
        pending_per_seg = np.bincount(segs, minlength=self.num_segments)
        touched = np.flatnonzero(pending_per_seg)
        seg_offsets = np.zeros(self.num_segments + 1, dtype=np.int64)
        np.cumsum(pending_per_seg, out=seg_offsets[1:])

        handled = np.zeros(self.num_segments, dtype=bool)
        upper0 = self.bounds.upper(0) * self.seg_size
        for seg in touched:
            if handled[seg]:
                continue
            new_count = int(self._counts[seg]) + int(pending_per_seg[seg])
            pend_sl = slice(int(seg_offsets[seg]), int(seg_offsets[seg + 1]))
            if new_count <= upper0:
                self._merge_into_segment(int(seg), keys[pend_sl], values[pend_sl])
                handled[seg] = True
            else:
                s0, s1 = self._find_insert_window(int(seg), pending_per_seg, handled)
                take = (segs >= s0) & (segs < s1) & ~handled[segs]
                handled[s0:s1] = True
                self._rebalance_window(s0, s1, extra=(keys[take], values[take]))
        self.n_items += len(keys)
        self._refresh_seg_min()
        return len(keys)

    def _overwrite(self, key: int, value: int) -> None:
        seg = int(self._route(np.asarray([key], dtype=np.int64))[0])
        base = seg * self.seg_size
        idx = int(np.searchsorted(self.keys[self._seg_slice(seg)], key))
        assert idx < int(self._counts[seg]) and self.keys[base + idx] == key
        self.values[base + idx] = value

    def _merge_into_segment(self, seg: int, new_keys: np.ndarray, new_values: np.ndarray) -> None:
        base = seg * self.seg_size
        count = int(self._counts[seg])
        merged_k = np.concatenate([self.keys[base : base + count], new_keys])
        merged_v = np.concatenate([self.values[base : base + count], new_values])
        order = np.argsort(merged_k, kind="stable")
        total = len(merged_k)
        self.keys[base : base + total] = merged_k[order]
        self.values[base : base + total] = merged_v[order]
        self._counts[seg] = total

    def _find_insert_window(
        self, seg: int, pending_per_seg: np.ndarray, handled: np.ndarray
    ) -> tuple[int, int]:
        for depth in range(1, self.bounds.height + 1):
            s0, s1 = window_bounds(seg, depth, self.num_segments)
            pend = pending_per_seg[s0:s1][~handled[s0:s1]]
            occupancy = int(self._counts[s0:s1].sum()) + int(pend.sum())
            if occupancy <= self.bounds.upper(depth) * (s1 - s0) * self.seg_size:
                return s0, s1
        raise RuntimeError("no window satisfies its density bound")

    def delete_batch(self, keys: np.ndarray) -> int:
        keys = np.unique(np.asarray(keys, dtype=np.int64))
        if len(keys) == 0 or self.n_items == 0:
            return 0
        segs = self._route(keys)
        removed_total = 0
        for seg in np.unique(segs):
            seg = int(seg)
            base = seg * self.seg_size
            count = int(self._counts[seg])
            if count == 0:
                continue
            seg_keys = self.keys[base : base + count]
            keep_mask = ~np.isin(seg_keys, keys[segs == seg])
            kept = int(keep_mask.sum())
            if kept == count:
                continue
            self.keys[base : base + kept] = seg_keys[keep_mask]
            self.values[base : base + kept] = self.values[base : base + count][keep_mask]
            self.keys[base + kept : base + count] = SPACE_KEY
            self.values[base + kept : base + count] = -1
            self._counts[seg] = kept
            removed_total += count - kept
        if removed_total == 0:
            return 0
        self.n_items -= removed_total

        lower0 = self.bounds.lower(0) * self.seg_size
        for seg in np.unique(segs):
            seg = int(seg)
            if int(self._counts[seg]) >= lower0:
                continue
            for depth in range(1, self.bounds.height + 1):
                s0, s1 = window_bounds(seg, depth, self.num_segments)
                occ = int(self._counts[s0:s1].sum())
                if occ >= self.bounds.lower(depth) * (s1 - s0) * self.seg_size:
                    self._rebalance_window(s0, s1)
                    break
            else:
                break
        while (
            self.capacity > MIN_CAPACITY
            and self.n_items < self.bounds.lower(self.bounds.height) * self.capacity
        ):
            self._resize(self.capacity // 2)
        self._refresh_seg_min()
        return removed_total

    def _rebalance_window(self, s0: int, s1: int, extra=None) -> None:
        lo, hi = s0 * self.seg_size, s1 * self.seg_size
        window_keys = self.keys[lo:hi]
        mask = window_keys != SPACE_KEY
        items_k = window_keys[mask]
        items_v = self.values[lo:hi][mask]
        if extra is not None and len(extra[0]):
            items_k = np.concatenate([items_k, extra[0]])
            items_v = np.concatenate([items_v, extra[1]])
            order = np.argsort(items_k, kind="stable")
            items_k, items_v = items_k[order], items_v[order]
        self._write_even(s0, s1, items_k, items_v)

    def _write_even(self, s0: int, s1: int, items_k: np.ndarray, items_v: np.ndarray) -> None:
        w = s1 - s0
        n = len(items_k)
        base_count, rem = divmod(n, w)
        counts = np.full(w, base_count, dtype=np.int64)
        counts[:rem] += 1
        assert counts.max(initial=0) <= self.seg_size
        lo, hi = s0 * self.seg_size, s1 * self.seg_size
        self.keys[lo:hi] = SPACE_KEY
        self.values[lo:hi] = -1
        if n:
            seg_ids = np.repeat(np.arange(w), counts)
            starts = np.zeros(w, dtype=np.int64)
            np.cumsum(counts[:-1], out=starts[1:])
            within = np.arange(n) - starts[seg_ids]
            slots = lo + seg_ids * self.seg_size + within
            self.keys[slots] = items_k
            self.values[slots] = items_v
        self._counts[s0:s1] = counts

    def _resize(self, new_capacity: int) -> None:
        items_k, items_v = self.export_items()
        self._alloc_arrays(max(MIN_CAPACITY, new_capacity))
        self._write_even(0, self.num_segments, items_k, items_v)
        self._refresh_seg_min()


def _assert_same(pma: PackedMemoryArray, ref: _ReferencePMA) -> None:
    assert (pma.capacity, pma.n_items) == (ref.capacity, ref.n_items)
    for name in ("keys", "values", "_counts", "_seg_min"):
        got, want = getattr(pma, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    pma.check_invariants()


def _replay(ops, capacity: int = MIN_CAPACITY) -> None:
    """Apply ``ops`` to both implementations, comparing after every batch.

    A delete op ``("del", keys, share)`` also removes every ``share``-th
    live key, so deletes hit present keys and drive segments into underflow.
    """
    pma, ref = PackedMemoryArray(capacity), _ReferencePMA(capacity)
    for kind, keys, extra in ops:
        keys = np.asarray(keys, dtype=np.int64)
        if kind == "ins":
            vals = np.asarray(extra, dtype=np.int64)
            assert pma.insert_batch(keys, vals) == ref.insert_batch(keys, vals)
        else:
            if extra:
                keys = np.concatenate([keys, ref.export_items()[0][::extra]])
            assert pma.delete_batch(keys) == ref.delete_batch(keys)
        _assert_same(pma, ref)
        probe = np.concatenate([keys, keys + 1, [0, 1 << 40]]).astype(np.int64)
        assert np.array_equal(pma.contains_batch(probe), ref.contains_batch(probe))


@st.composite
def _op_sequences(draw):
    """Insert/delete sequences over a key space whose size sets the pressure.

    Small key spaces give duplicates, upserts, no-op inserts and deletes of
    keys that are mostly present; large ones push growth and, when deletes
    follow, shrink.  Each batch starts at its own offset, so batches also
    land below or above every segment minimum.
    """
    space = draw(st.sampled_from([8, 64, 600, 5000, 1 << 30]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(["ins", "ins", "del"]))
        n = draw(st.sampled_from([0, 1, 3, 20, 150, 700]))
        start = draw(st.integers(0, space))
        keys = rng.integers(start, start + space, n)
        if kind == "ins":
            ops.append((kind, keys, rng.integers(0, 10**6, n)))
        else:
            ops.append((kind, keys, draw(st.sampled_from([0, 1, 2, 3, 7]))))
    return ops


@given(ops=_op_sequences(), capacity=st.sampled_from([MIN_CAPACITY, 256, 4096]))
@settings(max_examples=120, deadline=None)
def test_batches_bitwise_equal_to_reference(ops, capacity):
    _replay(ops, capacity)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_grow_then_drain_bitwise_equal_to_reference(seed):
    """Large batches through several doublings, then shrinking deletes,
    with a few keys re-inserted (upserted) and missing keys deleted."""
    rng = np.random.default_rng(seed)
    live = np.unique(rng.integers(0, 200_000, 6000))
    ops = [("ins", chunk, chunk * 3) for chunk in np.array_split(rng.permutation(live), 4)]
    ops.append(("ins", live[::7], live[::7] + 1))
    for chunk in np.array_split(rng.permutation(live), 6):
        ops.append(("del", np.concatenate([chunk, chunk + 200_000]), None))
    _replay(ops)


def test_churn_sized_batches_bitwise_equal_to_reference():
    """Serving-sized batches (8 adds, 4 deletes) on a ~27k-key array."""
    rng = np.random.default_rng(0)
    live = np.unique(rng.integers(0, 10**9, 27_000))
    ops = [("ins", live, live)]
    for _ in range(40):
        adds = rng.integers(0, 10**9, 8)
        ops.append(("ins", adds, adds))
        ops.append(("del", rng.choice(live, 4), None))
    _replay(ops)
