"""Measured experiment runners.

``run_static_experiment`` / ``run_dynamic_experiment`` build the dataset,
model, and trainer for one (system, configuration) cell of a figure, run
the paper's training protocol (N epochs, first ``warmup`` ignored for
timing), and report:

* mean per-epoch wall time (Figures 5/7),
* peak device-resident bytes (Figures 6/8),
* GNN vs graph-update time split (Figure 9),
* final loss (the paper's "loss ... similar over all tests" check).

Every run executes inside a fresh :class:`~repro.device.Device` so
measurements never bleed across configurations, and both frameworks draw
identical initial weights (seeded initializer) so loss trajectories are
comparable.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Callable

from repro.device import Device, use_device
from repro.obs.tracer import Tracer, use_tracer
from repro.tensor import init

__all__ = ["RunResult", "run_static_experiment", "run_dynamic_experiment"]


@dataclass
class RunResult:
    """One measured (system, configuration) cell of a figure."""
    system: str
    dataset: str
    params: dict = field(default_factory=dict)
    per_epoch_seconds: float = 0.0
    peak_memory_bytes: int = 0
    final_loss: float = 0.0
    gnn_seconds: float = 0.0
    graph_update_seconds: float = 0.0
    compile_seconds: float = 0.0
    # Snapshot/context reuse counters (zero for systems without them).
    csr_cache_hits: int = 0
    csr_cache_misses: int = 0
    noop_updates_skipped: int = 0
    ctx_cache_hits: int = 0
    ctx_cache_misses: int = 0
    # Pipelined-prefetch effectiveness (all zero for pipeline=0 runs):
    # staged snapshots consumed / synchronous rebuilds while a scheduler was
    # attached / main-thread seconds stalled on an in-flight worker build.
    pipeline: int = 0
    prefetch_hits: int = 0
    prefetch_misses: int = 0
    prefetch_wait_seconds: float = 0.0
    #: per-category span self-seconds (``Tracer.aggregate_by_cat``) when the
    #: run executed under a tracer; empty otherwise.
    span_seconds: dict = field(default_factory=dict)

    def time_split(self) -> tuple[float, float]:
        """(gnn_seconds, graph_update_seconds) for the Figure 9 breakup.

        One code path: span aggregates when the run was traced — the same
        self-time attribution the Chrome trace shows — falling back to the
        profiler's phase timers for untraced runs.  The two agree (see
        ``tests/test_obs_tracing.py``'s consistency test) because the spans
        wrap exactly the profiler's ``gnn``/``graph_update`` phase regions.
        """
        if self.span_seconds:
            return (
                self.span_seconds.get("gnn", 0.0),
                self.span_seconds.get("graph_update", 0.0),
            )
        return self.gnn_seconds, self.graph_update_seconds

    @property
    def graph_update_fraction(self) -> float:
        """Share of profiled compute spent on graph updates (Figure 9's y-axis)."""
        gnn, upd = self.time_split()
        return upd / (gnn + upd) if gnn + upd > 0 else 0.0

    @property
    def compile_fraction(self) -> float:
        """One-time plan compilation relative to all profiled compute.

        Zero for runs whose plans were already warm in the process-wide
        plan cache — the compile-once/run-every-timestamp amortization.
        """
        denom = self.gnn_seconds + self.graph_update_seconds + self.compile_seconds
        return self.compile_seconds / denom if denom > 0 else 0.0

    @property
    def prefetch_hit_rate(self) -> float:
        """Fraction of prefetch-eligible builds served from staged snapshots."""
        denom = self.prefetch_hits + self.prefetch_misses
        return self.prefetch_hits / denom if denom > 0 else 0.0

    @property
    def csr_cache_hit_rate(self) -> float:
        """Fraction of CSR-level positionings served from the reuse cache."""
        denom = self.csr_cache_hits + self.csr_cache_misses
        return self.csr_cache_hits / denom if denom > 0 else 0.0

    @property
    def reuse_rate(self) -> float:
        """Fraction of temporal positionings that skipped the CSR rebuild.

        Each positioning ends one of three ways: an executor context hit
        (the CSRs are never consulted), a graph-level CSR cache hit, or a
        full rebuild.  A context miss triggers exactly one CSR-level event,
        so the three counters partition the positionings.
        """
        served = self.ctx_cache_hits + self.csr_cache_hits
        denom = served + self.csr_cache_misses
        return served / denom if denom > 0 else 0.0

    def row(self) -> dict:
        """Flat JSON-friendly dict for tables and CI tracking."""
        return {
            "system": self.system,
            "dataset": self.dataset,
            **self.params,
            "epoch_s": round(self.per_epoch_seconds, 5),
            "peak_MB": round(self.peak_memory_bytes / 1e6, 3),
            "loss": round(self.final_loss, 4),
            "update_frac": round(self.graph_update_fraction, 3),
            "compile_s": round(self.compile_seconds, 5),
            "csr_hits": self.csr_cache_hits,
            "csr_misses": self.csr_cache_misses,
            "noop_skipped": self.noop_updates_skipped,
            "pipeline": self.pipeline,
            "prefetch_hits": self.prefetch_hits,
            "prefetch_misses": self.prefetch_misses,
            "prefetch_wait_s": round(self.prefetch_wait_seconds, 5),
        }


def _reuse_counters(device: Device) -> dict:
    """The profiler's snapshot/context reuse counters as RunResult kwargs."""
    p = device.profiler
    return {
        "csr_cache_hits": p.counter("csr_cache_hits"),
        "csr_cache_misses": p.counter("csr_cache_misses"),
        "noop_updates_skipped": p.counter("noop_updates_skipped"),
        "ctx_cache_hits": p.counter("ctx_cache_hits"),
        "ctx_cache_misses": p.counter("ctx_cache_misses"),
        "prefetch_hits": p.counter("prefetch_hits"),
        "prefetch_misses": p.counter("prefetch_misses"),
        "prefetch_wait_seconds": p.seconds("prefetch_wait"),
    }


def run_static_experiment(
    system: str,
    loader: Callable,
    feature_size: int = 8,
    hidden: int | None = None,
    sequence_length: int | None = None,
    num_timestamps: int = 30,
    scale: float = 1.0,
    epochs: int = 5,
    warmup: int = 1,
    weight_seed: int = 42,
    sort_by_degree: bool = True,
    tracer: Tracer | None = None,
) -> RunResult:
    """One cell of Figure 5/6: ``system`` ∈ {"stgraph", "pygt"}.

    Passing ``tracer`` runs the whole training under it and fills
    :attr:`RunResult.span_seconds` with its per-category self-time aggregate.
    """
    from repro.train.models import PyGTNodeRegressor, STGraphNodeRegressor
    from repro.train.trainer import BaselineTrainer, STGraphTrainer

    if system not in ("stgraph", "pygt"):
        raise ValueError(f"unknown static system {system!r}")
    # The paper's TGCN "default configuration" ties model width to the
    # feature size, so GNN processing cost scales with the Figure 5/7
    # x-axis; a fixed hidden width would flatten the sweeps.
    hidden = feature_size if hidden is None else hidden
    gc.collect()
    device = Device(name=f"bench:{system}")
    with use_device(device):
        ds = loader(lags=feature_size, scale=scale, num_timestamps=num_timestamps)
        init.set_seed(weight_seed)
        if system == "stgraph":
            model = STGraphNodeRegressor(feature_size, hidden)
            graph = ds.build_graph(sort_by_degree=sort_by_degree)
            trainer = STGraphTrainer(model, graph, sequence_length=sequence_length)
        else:
            model = PyGTNodeRegressor(feature_size, hidden)
            signal = ds.to_pygt_signal()
            trainer = BaselineTrainer(model, signal.edge_index, sequence_length=sequence_length)
        with use_tracer(tracer):
            losses = trainer.train(ds.features, ds.targets, epochs=epochs, warmup=warmup)
        return RunResult(
            system=system,
            dataset=ds.name,
            params={"F": feature_size, "seq": sequence_length or num_timestamps},
            per_epoch_seconds=trainer.mean_epoch_time,
            peak_memory_bytes=device.tracker.peak_bytes,
            final_loss=losses[-1],
            gnn_seconds=device.profiler.seconds("gnn"),
            graph_update_seconds=device.profiler.seconds("graph_update"),
            compile_seconds=device.profiler.seconds("compile"),
            span_seconds=dict(tracer.aggregate_by_cat()) if tracer is not None else {},
            **_reuse_counters(device),
        )


def run_dynamic_experiment(
    system: str,
    loader: Callable,
    feature_size: int = 8,
    hidden: int | None = None,
    sequence_length: int | None = 4,
    percent_change: float = 5.0,
    scale: float = 0.01,
    max_snapshots: int | None = 10,
    epochs: int = 5,
    warmup: int = 1,
    weight_seed: int = 42,
    samples_per_timestamp: int = 128,
    sort_by_degree: bool = True,
    gpma_cache: bool = True,
    csr_cache: bool = True,
    pipeline: int = 0,
    tracer: Tracer | None = None,
) -> RunResult:
    """One cell of Figure 7/8/9: ``system`` ∈ {"naive", "gpma", "pygt"}.

    Passing ``tracer`` runs the whole training under it and fills
    :attr:`RunResult.span_seconds` with its per-category self-time aggregate.
    ``pipeline`` is the prefetch staleness bound (STGraph systems only;
    numerics are unchanged — only the wall-clock and the prefetch counters
    move).
    """
    from repro.train.models import PyGTLinkPredictor, STGraphLinkPredictor
    from repro.train.tasks import make_link_prediction_samples
    from repro.train.trainer import BaselineTrainer, STGraphTrainer

    if system not in ("naive", "gpma", "pygt"):
        raise ValueError(f"unknown dynamic system {system!r}")
    hidden = feature_size if hidden is None else hidden
    gc.collect()
    device = Device(name=f"bench:{system}")
    with use_device(device):
        ds = loader(
            scale=scale,
            percent_change=percent_change,
            feature_size=feature_size,
            max_snapshots=max_snapshots,
        )
        samples = make_link_prediction_samples(
            ds.dtdg, samples_per_timestamp=samples_per_timestamp, seed=weight_seed
        )
        init.set_seed(weight_seed)
        if system == "pygt":
            model = PyGTLinkPredictor(feature_size, hidden)
            signal = ds.to_pygt_signal()
            trainer = BaselineTrainer(
                model,
                signal.edge_indices,
                sequence_length=sequence_length,
                task="link_prediction",
                link_samples=samples,
            )
        else:
            model = STGraphLinkPredictor(feature_size, hidden)
            graph = (
                ds.build_naive(sort_by_degree=sort_by_degree)
                if system == "naive"
                else ds.build_gpma(
                    sort_by_degree=sort_by_degree,
                    enable_cache=gpma_cache,
                    enable_csr_cache=csr_cache,
                )
            )
            trainer = STGraphTrainer(
                model,
                graph,
                sequence_length=sequence_length,
                task="link_prediction",
                link_samples=samples,
                pipeline=pipeline,
            )
        with use_tracer(tracer):
            losses = trainer.train(ds.features, targets=None, epochs=epochs, warmup=warmup)
        return RunResult(
            system=system,
            dataset=ds.name,
            params={"F": feature_size, "pct": percent_change},
            pipeline=int(pipeline) if system != "pygt" else 0,
            per_epoch_seconds=trainer.mean_epoch_time,
            peak_memory_bytes=device.tracker.peak_bytes,
            final_loss=losses[-1],
            gnn_seconds=device.profiler.seconds("gnn"),
            graph_update_seconds=device.profiler.seconds("graph_update"),
            compile_seconds=device.profiler.seconds("compile"),
            span_seconds=dict(tracer.aggregate_by_cat()) if tracer is not None else {},
            **_reuse_counters(device),
        )
