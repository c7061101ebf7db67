"""The Packed Memory Array.

Storage layout
--------------
``keys``/``values`` are parallel arrays of size ``capacity`` holding int64
edge keys and payloads (edge ids).  Empty slots hold :data:`SPACE_KEY` — the
paper's ``SPACE`` sentinel.  The array is divided into equal segments; within
each segment the valid items occupy a *sorted prefix* (gaps at the tail), and
the concatenation of all prefixes is globally sorted.  This is exactly the
"modified ``column_indices`` and ``edge_ids`` array which contains empty
spaces between elements" of the paper's GPMA description, normalized so the
gap positions are deterministic.

Updates
-------
:meth:`insert_batch` / :meth:`delete_batch` are the GPMA batch update
primitives, each one whole-batch pass — the CPU counterpart of GPMA's
levelwise parallel update — rather than one pass per segment:

* *Upsert.*  The batch is routed to segments by ``_seg_min``; gathering the
  valid items of just those segments gives a sorted run, and one
  ``searchsorted`` over it finds the keys already present, whose values are
  overwritten with one scatter.
* *Insert.*  A segment whose post-batch count stays within the leaf bound
  keeps a sorted prefix.  An overflowing segment takes the smallest
  enclosing *window* (aligned group of ``2**d`` segments) whose post-batch
  density meets the depth-``d`` bound.  Aligned windows nest, so a window's
  post-batch occupancy is the sum of its segments' counts plus their
  pending keys whatever order segments are handled in, and every window
  follows from the pre-batch state; nested choices merge into the outer
  one, which is spread evenly.  One stable sort of the affected items plus
  the batch, split by the final per-segment counts, writes the new layout
  with one scatter.
* *Delete.*  One gather of the routed segments, one ``searchsorted`` to
  find the doomed keys, one compaction scatter.  A segment left below the
  leaf lower bound is then repaired by the smallest enclosing window that
  meets its lower bound, segment by segment in order.

When the root bound is violated the capacity doubles (or halves) and
everything is redistributed.  The resulting layout is a pure function of
the pre-batch layout and the batch.

Cost: work is proportional to the batch plus the touched segments and
their windows — ``O(log^2 n)`` amortized slot moves per update, matching
the PMA literature — with a constant number of NumPy calls per batch plus
one small per-segment pass (routing minima, segment counts).  No step
scans the whole slot array except a resize.
"""

from __future__ import annotations

import math

import numpy as np

from repro.device import current_device
from repro.pma.segment import (
    MIN_CAPACITY,
    DensityBounds,
    segment_size_for_capacity,
    window_bounds,
)

__all__ = ["PackedMemoryArray", "SPACE_KEY"]

SPACE_KEY = np.int64(-1)
_POS_INF = np.iinfo(np.int64).max


def _lookup(sorted_keys: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position of each query in non-empty ``sorted_keys`` and whether it is there."""
    pos = np.minimum(np.searchsorted(sorted_keys, queries), len(sorted_keys) - 1)
    return pos, sorted_keys[pos] == queries


class PackedMemoryArray:
    """A gapped, sorted key/value store with batched updates.

    Parameters
    ----------
    capacity:
        Initial slot count (rounded up to a power of two, min 64).
    """

    def __init__(self, capacity: int = MIN_CAPACITY) -> None:
        capacity = max(MIN_CAPACITY, 1 << max(0, int(math.ceil(math.log2(max(1, capacity))))))
        self._alloc_arrays(capacity)
        self.n_items = 0

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def _alloc_arrays(self, capacity: int) -> None:
        alloc = current_device().alloc
        self.capacity = capacity
        self.seg_size = segment_size_for_capacity(capacity)
        self.num_segments = capacity // self.seg_size
        self.bounds = DensityBounds(self.num_segments)
        self.keys = alloc.full(capacity, SPACE_KEY, dtype=np.int64, tag="pma.keys")
        self.values = alloc.full(capacity, -1, dtype=np.int64, tag="pma.values")
        self._counts = alloc.zeros(self.num_segments, dtype=np.int64, tag="pma.counts")
        self._seg_min = alloc.full(self.num_segments, _POS_INF, dtype=np.int64, tag="pma.segmin")

    @property
    def density(self) -> float:
        """Fill fraction ``n_items / capacity``."""
        return self.n_items / self.capacity

    def _seg_slice(self, seg: int) -> slice:
        start = seg * self.seg_size
        return slice(start, start + int(self._counts[seg]))

    def _expected_seg_min(self) -> np.ndarray:
        """The per-segment minimum-key array used for routing.

        Empty segments inherit the *next* non-empty segment's minimum
        (backward fill, trailing empties get +inf) so the array is
        non-decreasing and a key routes to the segment that holds its
        in-order predecessor — inserting there preserves global order.
        """
        starts = np.arange(self.num_segments) * self.seg_size
        firsts = np.where(self._counts > 0, self.keys[starts], _POS_INF)
        return np.minimum.accumulate(firsts[::-1])[::-1]

    def _refresh_seg_min(self) -> None:
        """Recompute ``_seg_min`` in place after a layout change."""
        self._seg_min[:] = self._expected_seg_min()

    def _route(self, keys: np.ndarray) -> np.ndarray:
        """Target segment per key: rightmost segment whose min ≤ key.

        A key smaller than every segment minimum clips to segment 0; a key
        past the last minimum routes to the last non-empty segment (trailing
        empty segments hold +inf and are never selected).
        """
        segs = np.searchsorted(self._seg_min, keys, side="right") - 1
        return np.clip(segs, 0, self.num_segments - 1)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def contains(self, key: int) -> bool:
        """Membership test for one key."""
        return self.get(key) is not None

    def get(self, key: int) -> int | None:
        """Payload for ``key`` or ``None``."""
        if self.n_items == 0:
            return None
        seg = int(self._route(np.asarray([key], dtype=np.int64))[0])
        sl = self._seg_slice(seg)
        idx = np.searchsorted(self.keys[sl], key)
        base = seg * self.seg_size
        if idx < int(self._counts[seg]) and self.keys[base + idx] == key:
            return int(self.values[base + idx])
        return None

    def contains_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized membership test (boolean array)."""
        keys = np.asarray(keys, dtype=np.int64)
        if self.n_items == 0:
            return np.zeros(len(keys), dtype=bool)
        return self._locate(keys) >= 0

    def export_items(self) -> tuple[np.ndarray, np.ndarray]:
        """All valid ``(keys, values)`` in sorted order (compacted copy)."""
        mask = self.keys != SPACE_KEY
        return self.keys[mask], self.values[mask]

    def gapped_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The raw gapped ``(keys, values)`` storage (no copy).

        This is what Algorithm 3's ``dst != SPACE`` check iterates over.
        """
        return self.keys, self.values

    def segment_counts(self) -> np.ndarray:
        """Per-segment valid-item counts (copy)."""
        return self._counts.copy()

    # ------------------------------------------------------------------
    # Slot addressing
    # ------------------------------------------------------------------
    def _prefix_slots(self, segs: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Slots of the first ``counts[i]`` positions of each segment ``segs[i]``.

        For ascending ``segs`` and their current counts these are the slots
        of the valid items, in global key order.
        """
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        return np.repeat(segs * self.seg_size, counts) + np.arange(starts.size) - starts

    def _locate(self, keys: np.ndarray) -> np.ndarray:
        """Slot holding each key, or -1 where the key is absent."""
        segs = np.unique(self._route(keys))
        slots = self._prefix_slots(segs, self._counts[segs])
        if slots.size == 0:
            return np.full(keys.shape, -1, dtype=np.int64)
        pos, hit = _lookup(self.keys[slots], keys)
        return np.where(hit, slots[pos], -1)

    # ------------------------------------------------------------------
    # Batched insert
    # ------------------------------------------------------------------
    def insert_batch(self, keys: np.ndarray, values: np.ndarray) -> int:
        """Insert (or upsert) a batch; returns the number of *new* keys."""
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        if keys.shape != values.shape:
            raise ValueError("keys and values must have equal length")
        if len(keys) == 0:
            return 0
        if np.any(keys == SPACE_KEY):
            raise ValueError("key -1 is reserved as the SPACE sentinel")
        order = np.argsort(keys, kind="stable")
        keys, values = keys[order], values[order]
        # Last occurrence wins on intra-batch duplicates.
        uniq_mask = np.empty(len(keys), dtype=bool)
        uniq_mask[:-1] = keys[:-1] != keys[1:]
        uniq_mask[-1] = True
        keys, values = keys[uniq_mask], values[uniq_mask]

        # Upsert keys that already exist (no structural change).
        if self.n_items:
            slots = self._locate(keys)
            present = slots >= 0
            self.values[slots[present]] = values[present]
            keys, values = keys[~present], values[~present]
            if len(keys) == 0:
                return 0

        # Grow proactively if the batch alone would breach the root bound.
        while (self.n_items + len(keys)) / self.capacity > self.bounds.upper(self.bounds.height):
            self._resize(self.capacity * 2)

        segs = self._route(keys)
        touched = np.unique(segs)
        final = self._counts + np.bincount(segs, minlength=self.num_segments)
        over = touched[final[touched] > self.bounds.upper(0) * self.seg_size]
        region = [touched]
        for s0, s1 in self._insert_windows(over, final):
            base, rem = divmod(int(final[s0:s1].sum()), s1 - s0)
            final[s0:s1] = base
            final[s0 : s0 + rem] += 1
            region.append(np.arange(s0, s1))
        region = np.unique(np.concatenate(region))

        # The region's items plus the batch, sorted, split by the final
        # counts: touched segments outside every window keep a sorted
        # prefix, each window is spread evenly.
        old = self._prefix_slots(region, self._counts[region])
        merged_k = np.concatenate([self.keys[old], keys])
        merged_v = np.concatenate([self.values[old], values])
        order = np.argsort(merged_k, kind="stable")
        counts = final[region]
        new = self._prefix_slots(region, counts)
        self.keys[old] = SPACE_KEY
        self.values[old] = -1
        self.keys[new] = merged_k[order]
        self.values[new] = merged_v[order]
        self._counts[region] = counts
        self.n_items += len(keys)
        self._refresh_seg_min()
        return len(keys)

    def _insert_windows(self, over: np.ndarray, final: np.ndarray) -> list[tuple[int, int]]:
        """Maximal rebalance windows ``(s0, s1)`` for the overflowing segments.

        ``final`` is each segment's post-batch count.  Aligned windows nest,
        so a window's post-batch occupancy is its sum of ``final`` whatever
        order the segments are handled in: each overflowing segment takes
        the smallest window around it within its depth's upper bound, and a
        window inside another chosen one merges into it.
        """
        if len(over) == 0:
            return []
        prefix = np.zeros(len(final) + 1, dtype=np.int64)
        np.cumsum(final, out=prefix[1:])
        depth = np.zeros(len(over), dtype=np.int64)
        for d in range(1, self.bounds.height + 1):
            s0 = (over >> d) << d
            s1 = np.minimum(s0 + (1 << d), self.num_segments)
            fits = prefix[s1] - prefix[s0] <= self.bounds.upper(d) * (s1 - s0) * self.seg_size
            depth[(depth == 0) & fits] = d
            if depth.all():
                break
        else:
            # Unreachable: insert_batch grows proactively so the root window
            # (depth == height, the whole array) always satisfies its bound.
            raise RuntimeError("no window satisfies its density bound; proactive growth failed")
        s0 = (over >> depth) << depth
        s1 = np.minimum(s0 + (1 << depth), self.num_segments)
        order = np.lexsort((-s1, s0))  # at equal starts the outer window first
        s0, s1 = s0[order], s1[order]
        outer = np.ones(len(s0), dtype=bool)
        outer[1:] = s1[1:] > np.maximum.accumulate(s1)[:-1]
        return list(zip(s0[outer].tolist(), s1[outer].tolist()))

    # ------------------------------------------------------------------
    # Batched delete
    # ------------------------------------------------------------------
    def delete_batch(self, keys: np.ndarray) -> int:
        """Delete a batch of keys; returns how many were actually present."""
        keys = np.unique(np.asarray(keys, dtype=np.int64))
        if len(keys) == 0 or self.n_items == 0:
            return 0
        segs = np.unique(self._route(keys))
        slots = self._prefix_slots(segs, self._counts[segs])
        _, doomed = _lookup(keys, self.keys[slots])
        removed_total = int(doomed.sum())
        if removed_total == 0:
            return 0
        kept = slots[~doomed]
        counts = np.bincount(np.searchsorted(segs, kept // self.seg_size), minlength=len(segs))
        kept_k, kept_v = self.keys[kept], self.values[kept]
        self.keys[slots] = SPACE_KEY
        self.values[slots] = -1
        new = self._prefix_slots(segs, counts)
        self.keys[new] = kept_k
        self.values[new] = kept_v
        self._counts[segs] = counts
        self.n_items -= removed_total

        # Fix underflowing windows bottom-up, in segment order.  A rebalance
        # moves items into later segments of its window, so each step
        # re-reads the counts of the segments not yet visited.
        lower0 = self.bounds.lower(0) * self.seg_size
        while len(low := np.flatnonzero(self._counts[segs] < lower0)):
            seg = int(segs[low[0]])
            segs = segs[low[0] + 1 :]
            for depth in range(1, self.bounds.height + 1):
                s0, s1 = window_bounds(seg, depth, self.num_segments)
                occ = int(self._counts[s0:s1].sum())
                if occ >= self.bounds.lower(depth) * (s1 - s0) * self.seg_size:
                    self._rebalance_window(s0, s1)
                    break
            else:
                break  # whole-array underflow: handled by the shrink below
        # Halving doubles density, and 2·rho_root <= tau_root does not hold
        # (0.6 < 0.7 does), so a single-step check per halving is safe.
        while (
            self.capacity > MIN_CAPACITY
            and self.n_items < self.bounds.lower(self.bounds.height) * self.capacity
        ):
            self._resize(self.capacity // 2)
        self._refresh_seg_min()
        return removed_total

    # ------------------------------------------------------------------
    # Rebalancing & resize
    # ------------------------------------------------------------------
    def _rebalance_window(self, s0: int, s1: int) -> None:
        """Redistribute all items in segments [s0, s1) evenly."""
        slots = self._prefix_slots(np.arange(s0, s1), self._counts[s0:s1])
        self._write_even(s0, s1, self.keys[slots], self.values[slots])

    def _write_even(self, s0: int, s1: int, items_k: np.ndarray, items_v: np.ndarray) -> None:
        """Spread sorted items evenly over segments [s0, s1)."""
        w = s1 - s0
        base_count, rem = divmod(len(items_k), w)
        counts = np.full(w, base_count, dtype=np.int64)
        counts[:rem] += 1
        if counts.max(initial=0) > self.seg_size:
            raise RuntimeError("rebalance window too dense — density bound violated upstream")
        lo, hi = s0 * self.seg_size, s1 * self.seg_size
        self.keys[lo:hi] = SPACE_KEY
        self.values[lo:hi] = -1
        slots = self._prefix_slots(np.arange(s0, s1), counts)
        self.keys[slots] = items_k
        self.values[slots] = items_v
        self._counts[s0:s1] = counts

    def _resize(self, new_capacity: int) -> None:
        items_k, items_v = self.export_items()
        new_capacity = max(MIN_CAPACITY, new_capacity)
        self._alloc_arrays(new_capacity)
        self._write_even(0, self.num_segments, items_k, items_v)
        self._refresh_seg_min()

    # ------------------------------------------------------------------
    # Invariant checking (used heavily by tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError if any structural invariant is violated.

        Segment properties are checked for all segments at once; the
        message names the first violating segment and, within it, the
        first violated property in the order listed below.
        """
        assert self.capacity == self.num_segments * self.seg_size
        counts = self._counts
        grid = self.keys.reshape(self.num_segments, self.seg_size)
        filled = np.arange(self.seg_size) < counts[:, None]
        valid = grid != SPACE_KEY
        unsorted = (filled[:, 1:] & (grid[:, 1:] <= grid[:, :-1])).any(axis=1)
        # Global order: each non-empty segment's first key exceeds the last
        # key of the previous non-empty one.
        nonempty = np.flatnonzero(filled[:, 0])
        lasts = grid[nonempty, np.minimum(counts[nonempty], self.seg_size) - 1]
        order_broken = np.zeros(self.num_segments, dtype=bool)
        order_broken[nonempty[1:]] = lasts[:-1] >= grid[nonempty[1:], 0]
        violations = (
            ((counts < 0) | (counts > self.seg_size), "segment {seg} count {count} out of range"),
            ((filled & ~valid).any(axis=1), "SPACE inside prefix of segment {seg}"),
            ((~filled & valid).any(axis=1), "valid key in gap of segment {seg}"),
            (unsorted, "segment {seg} prefix not strictly sorted"),
            (order_broken, "global order broken at segment {seg}"),
        )
        bad = np.logical_or.reduce([mask for mask, _ in violations])
        if bad.any():
            seg = int(np.argmax(bad))
            for mask, message in violations:
                assert not mask[seg], message.format(seg=seg, count=int(counts[seg]))
        total = int(counts.sum())
        assert total == self.n_items, f"n_items {self.n_items} != stored {total}"
        stale = self._seg_min != self._expected_seg_min()
        assert not stale.any(), f"_seg_min stale at segment {int(np.argmax(stale))}"

    def __len__(self) -> int:
        return self.n_items

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PackedMemoryArray(n={self.n_items}, capacity={self.capacity}, "
            f"segments={self.num_segments}×{self.seg_size}, density={self.density:.2f})"
        )
