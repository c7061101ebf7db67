"""Packed Memory Array — the GPMA storage substrate.

The paper stores DTDGs in a GPMA [Sha et al., VLDB'17]: a GPU Packed Memory
Array whose ``col_indices``/``eids`` arrays "contain empty spaces between
elements", making batched edge insertions/deletions cheap and letting
snapshots be generated on demand (Algorithm 2).

This package is a faithful CPU PMA with the same semantics:

* gapped, globally sorted storage with ``SPACE`` sentinels;
* segments with level-dependent density bounds;
* **batched** insert/delete, each a whole-batch pass: the batch is routed
  to segments, only the touched segments and their rebalance windows are
  gathered, and one sort and one scatter write the new layout (the GPMA's
  levelwise parallel update, with windows chosen for all overflowing
  segments at once);
* adaptive capacity growth/shrink when the root density bound is violated.

Edges are stored as ``src * n_dst + dst`` encoded keys with the edge id as
the payload, so one PMA instance holds one evolving adjacency structure.
"""

from repro.pma.pma import SPACE_KEY, PackedMemoryArray
from repro.pma.segment import DensityBounds, window_bounds

__all__ = ["PackedMemoryArray", "SPACE_KEY", "DensityBounds", "window_bounds"]
