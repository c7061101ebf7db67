"""Kernel micro-benchmarks: vertex-centric SpMM vs edge-parallel
gather/scatter, and the fusion ablation."""

import networkx as nx
import numpy as np
import pytest

from repro.compiler import compile_vertex_program
from repro.compiler.runtime import GraphContext
from repro.graph import StaticGraph
from repro.tensor import Tensor, functional as F

N = 3000
P = 0.01
FDIM = 32


@pytest.fixture(scope="module")
def graph():
    g = nx.gnp_random_graph(N, P, seed=1, directed=True)
    edges = np.array(list(g.edges()), dtype=np.int64).T
    return g, edges


@pytest.fixture
def ctx(graph):
    g, edges = graph
    return GraphContext(StaticGraph(edges[0], edges[1], N))


def _gcn_fn(v):
    return v.agg_sum(lambda nb: nb.h * nb.norm) * v.norm


def _inputs(ctx, rng):
    h = rng.standard_normal((N, FDIM)).astype(np.float32)
    norm = (1.0 / np.sqrt(np.maximum(ctx.in_deg, 1))).astype(np.float32)
    return h, norm


def test_vertex_centric_forward(benchmark, ctx, rng):
    prog = compile_vertex_program(_gcn_fn, {"h": "v", "norm": "s"}, {"h"}, name="mb_vc")
    h, norm = _inputs(ctx, rng)
    benchmark(lambda: prog.forward(ctx, {"h": h, "norm": norm}))


def test_edge_parallel_forward(benchmark, graph, rng):
    """The PyG mechanism on the same graph/features: gather E×F, scatter."""
    g, edges = graph
    h = Tensor(rng.standard_normal((N, FDIM)).astype(np.float32))
    w = rng.standard_normal(edges.shape[1]).astype(np.float32)

    def op():
        msgs = F.mul(F.index_select(h, edges[0]), w[:, None])
        return F.scatter_add(msgs, edges[1], N)

    benchmark(op)


def test_vertex_centric_backward(benchmark, ctx, rng):
    prog = compile_vertex_program(_gcn_fn, {"h": "v", "norm": "s"}, {"h"}, name="mb_vcb")
    h, norm = _inputs(ctx, rng)
    out, saved = prog.forward(ctx, {"h": h, "norm": norm})
    gout = rng.standard_normal(out.shape).astype(np.float32)
    benchmark(lambda: prog.backward(ctx, gout, saved))


def test_ablation_fused_kernel(benchmark, ctx, rng):
    prog = compile_vertex_program(_gcn_fn, {"h": "v", "norm": "s"}, {"h"}, name="mb_f", fused=True)
    h, norm = _inputs(ctx, rng)
    benchmark(lambda: prog.forward(ctx, {"h": h, "norm": norm}))


def test_ablation_unfused_kernels(benchmark, ctx, rng):
    """One launch per tensor-IR op — Seastar's motivation for fusion."""
    prog = compile_vertex_program(_gcn_fn, {"h": "v", "norm": "s"}, {"h"}, name="mb_u", fused=False)
    h, norm = _inputs(ctx, rng)
    benchmark(lambda: prog.forward(ctx, {"h": h, "norm": norm}))


def test_ablation_degree_sort_on(benchmark, graph, rng):
    g, edges = graph
    ctx = GraphContext(StaticGraph(edges[0], edges[1], N, sort_by_degree=True))
    prog = compile_vertex_program(_gcn_fn, {"h": "v", "norm": "s"}, {"h"}, name="mb_ds")
    h, norm = _inputs(ctx, rng)
    benchmark(lambda: prog.forward(ctx, {"h": h, "norm": norm}))


def test_ablation_degree_sort_off(benchmark, graph, rng):
    """Figure 3 ablation: identity processing order.  (On a GPU the sorted
    order overlaps high-degree rows with many low-degree ones; on the
    simulated device the mechanism is preserved but the win is not
    expected to be large.)"""
    g, edges = graph
    ctx = GraphContext(StaticGraph(edges[0], edges[1], N, sort_by_degree=False))
    prog = compile_vertex_program(_gcn_fn, {"h": "v", "norm": "s"}, {"h"}, name="mb_dsoff")
    h, norm = _inputs(ctx, rng)
    benchmark(lambda: prog.forward(ctx, {"h": h, "norm": norm}))
