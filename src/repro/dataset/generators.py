"""Seeded synthetic graph and signal generators.

All generators are deterministic given their seed, vectorized, and sized by
the target statistics of the dataset they stand in for.
"""

from __future__ import annotations

import numpy as np

__all__ = ["gnp_edges", "powerlaw_edges", "sbm_edges", "smooth_signal", "temporal_edge_stream"]


def _dedupe(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    keys = src.astype(np.int64) * (dst.max(initial=0) + np.int64(1) + src.max(initial=0)) + dst
    _, idx = np.unique(keys, return_index=True)
    idx.sort()
    return src[idx], dst[idx]


def gnp_edges(num_nodes: int, num_edges: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """~uniform random directed simple edges (Erdős–Rényi flavour).

    Edges are the first appearances of distinct ``(src, dst)`` pairs in a
    stream of random draws.  A ``seen`` mask over all ``num_nodes**2`` pairs
    makes each round cost its own draw only, so near-complete graphs, which
    need many small rounds near the end, stay fast.
    """
    if num_edges > num_nodes * (num_nodes - 1):
        raise ValueError(
            f"{num_edges} edges exceed the {num_nodes * (num_nodes - 1)} simple directed "
            f"edges of a {num_nodes}-node graph"
        )
    rng = np.random.default_rng(seed)
    seen = np.zeros(num_nodes * num_nodes, dtype=bool)
    src_parts, dst_parts, have = [np.empty(0, np.int64)], [np.empty(0, np.int64)], 0
    while have < num_edges:
        want = int((num_edges - have) * 1.3) + 16
        s = rng.integers(0, num_nodes, want)
        d = rng.integers(0, num_nodes, want)
        keep = s != d
        s, d = s[keep], d[keep]
        pairs, first = np.unique(s * num_nodes + d, return_index=True)
        new = ~seen[pairs]
        seen[pairs[new]] = True
        idx = np.sort(first[new])
        src_parts.append(s[idx])
        dst_parts.append(d[idx])
        have += len(idx)
    return np.concatenate(src_parts)[:num_edges], np.concatenate(dst_parts)[:num_edges]


def powerlaw_edges(
    num_nodes: int, num_edges: int, seed: int, exponent: float = 1.2
) -> tuple[np.ndarray, np.ndarray]:
    """Preferential-attachment-flavoured edges: endpoint popularity follows
    a Zipf-like law, matching the heavy-tailed degree distributions of the
    SNAP interaction networks."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, num_nodes + 1, dtype=np.float64)
    probs = ranks**-exponent
    cdf = np.cumsum(probs / probs.sum())
    perm = rng.permutation(num_nodes)  # decorrelate popularity from id
    src_parts, dst_parts, have = [], [], 0
    while have < num_edges:
        want = int((num_edges - have) * 1.5) + 16
        # inverse-CDF sampling: much faster than rng.choice with p=
        s = perm[np.searchsorted(cdf, rng.random(want))]
        d = perm[np.searchsorted(cdf, rng.random(want))]
        keep = s != d
        src_parts.append(s[keep])
        dst_parts.append(d[keep])
        s_all, d_all = _dedupe(np.concatenate(src_parts), np.concatenate(dst_parts))
        src_parts, dst_parts = [s_all], [d_all]
        have = len(s_all)
    return src_parts[0][:num_edges], dst_parts[0][:num_edges]


def sbm_edges(
    num_nodes: int,
    num_communities: int,
    p_in: float,
    p_out: float,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stochastic block model: planted communities for node-classification
    tests.  Returns ``(src, dst, labels)`` with directed simple edges."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, num_communities, num_nodes)
    # vectorized Bernoulli over all ordered pairs (fine for test-scale N)
    same = labels[:, None] == labels[None, :]
    probs = np.where(same, p_in, p_out)
    np.fill_diagonal(probs, 0.0)
    adj = rng.random((num_nodes, num_nodes)) < probs
    src, dst = np.nonzero(adj)
    return src.astype(np.int64), dst.astype(np.int64), labels.astype(np.int64)


def smooth_signal(
    num_nodes: int,
    num_timestamps: int,
    seed: int,
    period: float = 24.0,
    noise: float = 0.2,
) -> np.ndarray:
    """``(T, N)`` AR(1)-plus-seasonality node signal (traffic/epidemic-like:
    smooth in time, heterogeneous across nodes, standardized)."""
    rng = np.random.default_rng(seed)
    t = np.arange(num_timestamps, dtype=np.float64)[:, None]
    phase = rng.uniform(0, 2 * np.pi, num_nodes)[None, :]
    amp = rng.uniform(0.5, 1.5, num_nodes)[None, :]
    seasonal = amp * np.sin(2 * np.pi * t / period + phase)
    ar = np.zeros((num_timestamps, num_nodes))
    shocks = rng.standard_normal((num_timestamps, num_nodes)) * noise
    for i in range(1, num_timestamps):
        ar[i] = 0.9 * ar[i - 1] + shocks[i]
    signal = seasonal + ar
    signal -= signal.mean(axis=0, keepdims=True)
    std = signal.std(axis=0, keepdims=True)
    signal /= np.where(std > 1e-9, std, 1.0)
    return signal.astype(np.float32)


def temporal_edge_stream(
    num_nodes: int,
    num_events: int,
    seed: int,
    exponent: float = 1.1,
    repeat_prob: float = 0.3,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A timestamped interaction stream ``(src, dst, t)`` like the SNAP
    temporal networks: heavy-tailed endpoint popularity with bursty repeats
    (a fraction of events re-fire recent pairs, as reply threads do)."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, num_nodes + 1, dtype=np.float64)
    probs = ranks**-exponent
    cdf = np.cumsum(probs / probs.sum())
    perm = rng.permutation(num_nodes)
    src = perm[np.searchsorted(cdf, rng.random(num_events))].astype(np.int64)
    dst = perm[np.searchsorted(cdf, rng.random(num_events))].astype(np.int64)
    # bursty repeats: some events copy a random earlier event's pair
    repeat = rng.random(num_events) < repeat_prob
    repeat[0] = False
    back = np.maximum(0, np.arange(num_events) - rng.integers(1, 1000, num_events))
    src = np.where(repeat, src[back], src)
    dst = np.where(repeat, dst[back], dst)
    self_loop = src == dst
    dst[self_loop] = (dst[self_loop] + 1) % num_nodes
    times = np.sort(rng.integers(0, num_events * 10, num_events)).astype(np.int64)
    return src, dst, times
