"""Micro-benchmarks: PMA batch updates vs full CSR rebuild (ablation).

The design question GPMAGraph answers: is applying a small update batch to
gapped storage cheaper than rebuilding the snapshot's CSR from scratch?
"""

import numpy as np
import pytest

from repro.graph.csr import build_csr
from repro.pma import PackedMemoryArray

N_EDGES = 50_000
BATCH = 500  # ~1% update, the paper's "<10% change" regime


@pytest.fixture(scope="module")
def edge_keys():
    rng = np.random.default_rng(0)
    return np.unique(rng.integers(0, 10**9, N_EDGES * 2))[:N_EDGES]


def test_pma_batch_insert(benchmark, edge_keys, rng):
    pma = PackedMemoryArray()
    pma.insert_batch(edge_keys, edge_keys)
    fresh = np.unique(rng.integers(0, 10**9, BATCH * 2))[:BATCH]

    def op():
        pma.insert_batch(fresh, fresh)
        pma.delete_batch(fresh)

    benchmark(op)
    pma.check_invariants()


def test_pma_batch_delete_reinsert(benchmark, edge_keys):
    pma = PackedMemoryArray()
    pma.insert_batch(edge_keys, edge_keys)
    doomed = edge_keys[:BATCH]

    def op():
        pma.delete_batch(doomed)
        pma.insert_batch(doomed, doomed)

    benchmark(op)
    assert len(pma) == N_EDGES


@pytest.mark.parametrize("adds,dels", [(8, 4), (500, 500)], ids=["serving", "training"])
def test_pma_update_batch_at_workload_scale(benchmark, adds, dels):
    """Update batches on a ~27k-key array, the size of the sx-mathoverflow
    stand-in at scale 0.25: a serving batch (8 adds, 4 deletes) and a
    training snapshot step (~500 each way).  Small batches expose per-call
    cost that a whole-array pass would hide at BATCH=500 on 50k keys.  One
    op applies the batch and then undoes it, so every round starts from the
    same layout."""
    rng = np.random.default_rng(1)
    live = np.unique(rng.integers(0, 10**9, 30_000))[:27_000]
    pma = PackedMemoryArray()
    pma.insert_batch(live, live)
    fresh = np.setdiff1d(np.unique(rng.integers(0, 10**9, adds * 2)), live)[:adds]
    doomed = rng.choice(live, dels, replace=False)

    def op():
        pma.insert_batch(fresh, fresh)
        pma.delete_batch(doomed)
        pma.insert_batch(doomed, doomed)
        pma.delete_batch(fresh)

    benchmark(op)
    pma.check_invariants()
    assert len(pma) == len(live)


def test_ablation_full_csr_rebuild(benchmark, edge_keys):
    """The alternative GPMAGraph avoids: rebuild everything per timestamp."""
    n = 1 << 15
    src = (edge_keys % n).astype(np.int64)
    dst = ((edge_keys // n) % n).astype(np.int64)

    def op():
        return build_csr(src, dst, np.arange(len(src), dtype=np.int64), n)

    benchmark(op)


def test_pma_point_lookup(benchmark, edge_keys):
    pma = PackedMemoryArray()
    pma.insert_batch(edge_keys, edge_keys)
    key = int(edge_keys[N_EDGES // 2])
    benchmark(lambda: pma.get(key))


def test_pma_export_items(benchmark, edge_keys):
    pma = PackedMemoryArray()
    pma.insert_batch(edge_keys, edge_keys)
    benchmark(pma.export_items)
