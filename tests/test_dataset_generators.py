"""Synthetic generators: determinism, sizes, structure."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset import gnp_edges, powerlaw_edges, smooth_signal, temporal_edge_stream


def test_gnp_exact_edge_count():
    src, dst = gnp_edges(100, 500, seed=1)
    assert len(src) == len(dst) == 500


def test_gnp_no_self_loops_no_duplicates():
    src, dst = gnp_edges(50, 400, seed=2)
    assert np.all(src != dst)
    pairs = set(zip(src.tolist(), dst.tolist()))
    assert len(pairs) == 400


def test_gnp_deterministic():
    a = gnp_edges(60, 200, seed=7)
    b = gnp_edges(60, 200, seed=7)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = gnp_edges(60, 200, seed=8)
    assert not np.array_equal(a[0], c[0])


def test_gnp_near_complete():
    n = 12
    src, dst = gnp_edges(n, n * (n - 1), seed=3)
    assert len(src) == n * (n - 1)


def test_gnp_rejects_more_edges_than_simple_graph_holds():
    with pytest.raises(ValueError, match="exceed"):
        gnp_edges(12, 12 * 11 + 1, seed=3)
    with pytest.raises(ValueError):
        gnp_edges(1, 1, seed=3)


def _frozen_gnp_edges(num_nodes, num_edges, seed):
    """The original generator: re-dedupes the whole accumulation per round."""

    def dedupe(src, dst):
        keys = src.astype(np.int64) * (dst.max(initial=0) + np.int64(1) + src.max(initial=0)) + dst
        _, idx = np.unique(keys, return_index=True)
        idx.sort()
        return src[idx], dst[idx]

    rng = np.random.default_rng(seed)
    src_parts, dst_parts, have = [], [], 0
    while have < num_edges:
        want = int((num_edges - have) * 1.3) + 16
        s = rng.integers(0, num_nodes, want)
        d = rng.integers(0, num_nodes, want)
        keep = s != d
        src_parts.append(s[keep])
        dst_parts.append(d[keep])
        s_all, d_all = dedupe(np.concatenate(src_parts), np.concatenate(dst_parts))
        src_parts, dst_parts = [s_all], [d_all]
        have = len(s_all)
    return src_parts[0][:num_edges], dst_parts[0][:num_edges]


@pytest.mark.parametrize(
    "num_nodes,num_edges,seed",
    [(12, 132, 3), (15, 210, 105), (20, 102, 103), (40, 1560, 9), (319, 20000, 102), (675, 690, 104)],
)
def test_gnp_matches_frozen_original(num_nodes, num_edges, seed):
    """Incremental dedupe draws the same stream and keeps the same edges,
    complete graphs included."""
    got = gnp_edges(num_nodes, num_edges, seed)
    want = _frozen_gnp_edges(num_nodes, num_edges, seed)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def test_powerlaw_heavy_tail():
    src, dst = powerlaw_edges(500, 3000, seed=4, exponent=1.3)
    deg = np.bincount(np.concatenate([src, dst]), minlength=500)
    top = np.sort(deg)[-25:].sum()
    assert top / deg.sum() > 0.3  # top 5% of nodes carry >30% of endpoints


def test_powerlaw_valid_edges():
    src, dst = powerlaw_edges(100, 500, seed=5)
    assert np.all(src != dst)
    assert src.max() < 100 and dst.max() < 100 and src.min() >= 0


def test_smooth_signal_shape_and_standardization():
    sig = smooth_signal(20, 100, seed=6)
    assert sig.shape == (100, 20)
    assert np.allclose(sig.mean(axis=0), 0.0, atol=1e-5)
    assert np.allclose(sig.std(axis=0), 1.0, atol=1e-2)


def test_smooth_signal_temporally_correlated():
    """Consecutive timesteps must correlate far more than distant ones."""
    sig = smooth_signal(30, 200, seed=7).astype(np.float64)
    near = np.mean([np.corrcoef(sig[t], sig[t + 1])[0, 1] for t in range(0, 150, 10)])
    far = np.mean([abs(np.corrcoef(sig[t], sig[t + 97])[0, 1]) for t in range(0, 100, 10)])
    assert near > 0.5
    assert near > far


def test_smooth_signal_deterministic():
    assert np.array_equal(smooth_signal(5, 20, seed=1), smooth_signal(5, 20, seed=1))


def test_temporal_stream_shapes():
    src, dst, times = temporal_edge_stream(200, 1000, seed=8)
    assert len(src) == len(dst) == len(times) == 1000
    assert np.all(src != dst)
    assert np.all(np.diff(times) >= 0)  # chronological


def test_temporal_stream_has_repeats():
    src, dst, _ = temporal_edge_stream(500, 5000, seed=9, repeat_prob=0.4)
    pairs = list(zip(src.tolist(), dst.tolist()))
    assert len(set(pairs)) < len(pairs)  # bursty re-fires create duplicates


def test_temporal_stream_deterministic():
    a = temporal_edge_stream(100, 500, seed=10)
    b = temporal_edge_stream(100, 500, seed=10)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
