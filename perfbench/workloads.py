"""The benchmark's three workloads, their correctness checks and metrics.

Every workload runs in the default configuration (``pipeline=0``, default
engine, GPMA and engine caches on) on inputs generated from the seed:

* ``dtdg-gpma-train``: TGCN link prediction on the sx-mathoverflow stand-in
  over a ``GPMAGraph``, where graph updates dominate the epoch;
* ``static-train``: TGCN node regression on the WikiMaths (WVM) stand-in
  over a ``StaticGraph``, with no graph updates at all;
* ``serve-churn``: an ``InferenceEngine`` over the sx-mathoverflow stand-in,
  driven by one closed-loop driver (the calling thread) that lands one update
  batch and then sends 50 point queries per round.

A timed run (``trace=False``) reports the end-to-end metrics; a traced run
wraps the layers' entry points (see :mod:`spans`) and reports the per-layer
metrics instead.  README.md in this directory maps each layer metric to the
end-to-end metric and workload it should move.
"""

from __future__ import annotations

import gc
import math
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.compiler.plan import plan_cache
from repro.dataset import load_sx_mathoverflow, load_wikimaths
from repro.device import Device, use_device
from repro.graph.labels import encode_edges
from repro.serve import InferenceEngine, random_update_batches, serial_reference
from repro.tensor import init
from repro.train.models import STGraphLinkPredictor, STGraphNodeRegressor
from repro.train.tasks import make_link_prediction_samples
from repro.train.trainer import STGraphTrainer

import spans

__all__ = ["WORKLOADS", "SIZES", "END_TO_END", "PER_LAYER", "Result", "run_workload"]

WORKLOADS = ("dtdg-gpma-train", "static-train", "serve-churn")

#: Inputs per workload.  ``full`` is the benchmark; ``tiny`` is for the
#: self-test, which only checks that every metric and check is produced.
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        "dtdg-gpma-train": {"scale": 0.25, "snapshots": 20, "features": 16, "seq": 4, "samples": 128},
        "static-train": {"scale": 1.0, "timestamps": 120, "features": 32, "seq": 15},
        "serve-churn": {"scale": 0.25, "snapshots": 8, "features": 16, "adds": 8, "deletes": 4},
    },
    "tiny": {
        "dtdg-gpma-train": {"scale": 0.01, "snapshots": 6, "features": 4, "seq": 2, "samples": 16},
        "static-train": {"scale": 0.05, "timestamps": 8, "features": 4, "seq": 4},
        "serve-churn": {"scale": 0.01, "snapshots": 3, "features": 4, "adds": 2, "deletes": 1},
    },
}

#: Cold set-ups per timed run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Post-warm-up epochs a training run measures at least, however slow.
MIN_TRAIN_EPOCHS = 3
#: Epochs of the reference training run compared bitwise with the timed one.
REFERENCE_EPOCHS = 2
#: A serving epoch is this many closed-loop rounds.
ROUNDS_PER_EPOCH = 20
QUERIES_PER_ROUND = 50
#: Serving epochs a run measures at least (1,000 queries each, so the p99
#: has 10 samples beyond it).
MIN_SERVE_EPOCHS = 2
QUERY_KINDS = ("embedding", "prediction")
SERVE_TIMEOUT_S = 30.0

#: Gated end-to-end metrics: name -> unit.  serve-churn also prints its
#: query and ingest latencies, ungated (README.md says why).
END_TO_END = {
    "setup_s": "s",
    "epoch_s": "s",
    "peak_mem_mb": "MB",
}

#: Spans whose self time per epoch is reported as ``<name>.s``.
LAYER_SPANS = (
    "pma.insert_batch", "pma.delete_batch",
    "graph.get_graph", "graph.get_backward_graph", "graph.csr_build",
    "graph.append_update", "graph.k_hop",
    "core.begin_timestamp", "core.begin_inference", "core.backward_context",
    "device.kernel_launch", "compiler.spmm",
    "tensor.op_apply", "tensor.backward", "tensor.optim_step",
    "serve.forward", "serve.apply_update",
)
#: Spans whose calls per epoch are reported as ``<name>.calls``.
COUNTED_SPANS = (
    "pma.insert_batch", "pma.delete_batch", "graph.get_graph",
    "graph.get_backward_graph", "graph.csr_build", "device.kernel_launch",
    "tensor.op_apply",
)

#: Per-layer metrics: name -> unit.  Times and counts are per epoch (a
#: serving epoch on serve-churn) of the traced phase.
PER_LAYER: dict[str, str] = {
    **{f"{name}.s": "s" for name in LAYER_SPANS},
    **{f"{name}.calls": "count" for name in COUNTED_SPANS},
    "pma.insert_batch.keys": "count",
    "pma.delete_batch.keys": "count",
    "graph.csr_cache_hit_frac": "frac",
    "graph.csr_positionings": "count",
    "core.ctx_cache_hit_frac": "frac",
    "core.ctx_lookups": "count",
    "core.state_stack_peak_bytes": "B",
    "compiler.plan_builds": "count",
    "compiler.compile_s": "s",
    "serve.forwards": "count",
    "serve.row_cache_hit_frac": "frac",
    "serve.queries": "count",
    "serve.rows_invalidated": "count",
    "serve.ingest.graph.s": "s",
    "serve.ingest.pma.s": "s",
    "dataset.load.s": "s",
    "train.residual.s": "s",
    "trace.epochs": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "frac",
    "trace.reconcile_err_s": "s",
}

#: Reconciliation tolerance on a traced training run: the per-layer self
#: times plus the residual must match the trainer's own epoch wall time
#: within 1 ms per epoch plus 0.5% of that wall time.
RECONCILE_EPS_PER_EPOCH_S = 1e-3
RECONCILE_EPS_FRAC = 5e-3


@dataclass
class Result:
    """Outcome of one run: checks, emitted metrics and a printed table."""

    workload: str
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, dict[str, float | str]] = field(default_factory=dict)
    #: (name, value, unit, note) rows printed for people, including the
    #: issue's per-workload names for the gated metrics.
    table: list[tuple[str, float, str, str]] = field(default_factory=list)
    spans: list[list[Any]] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def emit(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def line(self) -> dict[str, Any]:
        """The result object printed as the last line of the output."""
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


def _same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _pct_ms(samples: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples), q)) * 1e3


def _fresh_device(workload: str) -> Device:
    """A new device with an empty plan cache, so each set-up compiles its
    plans the way a fresh process does."""
    gc.collect()
    plan_cache().clear()
    return Device(name=f"perfbench:{workload}")


# ---------------------------------------------------------------------------
# Training workloads
# ---------------------------------------------------------------------------
@dataclass
class _Training:
    device: Device
    trainer: STGraphTrainer
    features: list[np.ndarray]
    targets: list[np.ndarray] | None
    dtdg: Any
    warm_loss: float
    setup_s: float
    dataset_s: float
    plan_builds: int
    compile_s: float


def _setup_training(workload: str, seed: int, cfg: dict[str, Any], reference: bool = False) -> _Training:
    """Generate inputs, build graph/model/trainer and run the warm-up epoch.

    ``reference`` builds the run the losses are checked against: a
    ``NaiveGraph`` in place of the ``GPMAGraph`` (the two share numerics),
    and an identical fresh ``StaticGraph`` on ``static-train``.
    """
    device = _fresh_device(workload)
    start = time.perf_counter()
    with use_device(device):
        if workload == "dtdg-gpma-train":
            ds = load_sx_mathoverflow(
                scale=cfg["scale"], feature_size=cfg["features"],
                max_snapshots=cfg["snapshots"], seed=seed,
            )
            dataset_s = time.perf_counter() - start
            samples = make_link_prediction_samples(
                ds.dtdg, samples_per_timestamp=cfg["samples"], seed=seed
            )
            init.set_seed(seed)
            model = STGraphLinkPredictor(cfg["features"], cfg["features"])
            graph = ds.build_naive() if reference else ds.build_gpma()
            trainer = STGraphTrainer(
                model, graph, sequence_length=cfg["seq"],
                task="link_prediction", link_samples=samples,
            )
            features, targets, dtdg = ds.features, None, ds.dtdg
        else:
            ds = load_wikimaths(
                lags=cfg["features"], scale=cfg["scale"],
                num_timestamps=cfg["timestamps"], seed=seed,
            )
            dataset_s = time.perf_counter() - start
            init.set_seed(seed)
            model = STGraphNodeRegressor(cfg["features"], cfg["features"])
            trainer = STGraphTrainer(model, ds.build_graph(), sequence_length=cfg["seq"])
            features, targets, dtdg = ds.features, ds.targets, None
        warm_loss = trainer.train_epoch(features, targets)
    return _Training(
        device=device, trainer=trainer, features=features, targets=targets,
        dtdg=dtdg, warm_loss=warm_loss, setup_s=time.perf_counter() - start,
        dataset_s=dataset_s, plan_builds=plan_cache().stats()["misses"],
        compile_s=device.profiler.seconds("compile"),
    )


def _train_epochs(run: _Training, seconds: float, min_epochs: int, losses: list[float]) -> list[float]:
    """Train whole epochs until ``seconds`` passed and ``min_epochs`` ran."""
    times: list[float] = []
    start = time.perf_counter()
    with use_device(run.device):
        while len(times) < min_epochs or time.perf_counter() - start < seconds:
            losses.append(run.trainer.train_epoch(run.features, run.targets))
            times.append(run.trainer.epoch_times[-1])
    return times


def _kernels(device: Device) -> list[Any]:
    """Every generated kernel the device compiled so far."""
    return list(device.launcher._by_source.values())


def _check_training(
    result: Result, workload: str, seed: int, cfg: dict[str, Any],
    run: _Training, losses: list[float],
) -> None:
    for i, loss in enumerate(losses):
        result.check(math.isfinite(loss), f"epoch {i} loss {loss!r} is not finite")
    ref = _setup_training(workload, seed, cfg, reference=True)
    ref_losses = [ref.warm_loss]
    with use_device(ref.device):
        while len(ref_losses) < REFERENCE_EPOCHS:
            ref_losses.append(ref.trainer.train_epoch(ref.features, ref.targets))
    for i, (got, want) in enumerate(zip(losses, ref_losses)):
        result.check(_same_bits(got, want), f"epoch {i} loss {got!r} != reference {want!r}")
    if workload != "dtdg-gpma-train":
        return
    graph = run.trainer.graph
    last = run.dtdg.num_timestamps - 1
    with use_device(run.device):
        graph.get_graph(last)
    try:
        graph.pma.check_invariants()
        invariants = ""
    except AssertionError as exc:
        invariants = f": {exc}"
    result.check(not invariants, f"PMA invariants{invariants}")
    keys, _ = graph.pma.export_items()
    want = np.unique(encode_edges(*run.dtdg.snapshot_edges(last), run.dtdg.num_nodes))
    result.check(np.array_equal(np.sort(keys), want), "final snapshot edge set differs from the DTDG's")


def _training_counters(run: _Training) -> dict[str, float]:
    profiler = run.device.profiler
    stats = run.trainer.executor.stats()
    return {
        "csr_hits": profiler.counter("csr_cache_hits"),
        "csr_misses": profiler.counter("csr_cache_misses"),
        "ctx_hits": stats["ctx_cache_hits"],
        "ctx_misses": stats["ctx_cache_misses"],
        "state_stack_peak_bytes": stats["state_stack_peak_bytes"],
    }


def _run_training(
    workload: str, seed: int, seconds: float, trace: bool, cfg: dict[str, Any],
    perturb: Callable[[list[Any]], None] | None,
) -> Result:
    result = Result(workload)
    setup_times: list[float] = []
    first_warm_loss = None
    run = None
    for _ in range(1 if trace else SETUP_REPEATS):
        run = None  # release the previous set-up before building the next
        run = _setup_training(workload, seed, cfg)
        setup_times.append(run.setup_s)
        if first_warm_loss is None:
            first_warm_loss = run.warm_loss
        else:
            result.check(
                _same_bits(run.warm_loss, first_warm_loss),
                f"warm-up loss {run.warm_loss!r} != first set-up's {first_warm_loss!r}",
            )
    losses = [run.warm_loss]
    if trace:
        recorder = spans.SpanRecorder()
        untraced, traced, delta = _alternate(
            lambda: _train_epochs(run, 0.0, 1, losses), lambda: _training_counters(run),
            recorder, run.device, seconds,
        )
        _per_layer(result, recorder, delta, run, untraced, traced)
        # Self times of all spans add up to the roots' durations, and every
        # root is a train.epoch span; compare with the trainer's own clock.
        wall = sum(traced)
        err = result.metrics["trace.reconcile_err_s"]["value"] * len(traced)
        eps = RECONCILE_EPS_PER_EPOCH_S * len(traced) + RECONCILE_EPS_FRAC * wall
        result.check(abs(err) <= eps, f"traced self times differ from epoch wall {wall:.6f}s by {err:.6f}s (eps {eps:.6f}s)")
        result.table.append(("trace.reconcile_eps_s", eps / len(traced), "s", "per epoch"))
    else:
        times = _train_epochs(run, seconds, MIN_TRAIN_EPOCHS, losses)
        peak_mb = run.device.tracker.peak_bytes / 1e6
        _end_to_end(result, setup_times, times, peak_mb)
        result.table = [
            ("setup_s", statistics.median(setup_times), "s", f"median of {len(setup_times)} set-ups"),
            ("epoch_s", statistics.median(times), "s", f"median of {len(times)} epochs"),
            ("peak_mem_mb", peak_mb, "MB", ""),
        ]
    if perturb is not None:
        perturb(losses)
    _check_training(result, workload, seed, cfg, run, losses)
    return result


# ---------------------------------------------------------------------------
# Serving workload
# ---------------------------------------------------------------------------
@dataclass
class _Serving:
    device: Device
    engine: InferenceEngine
    features: np.ndarray
    setup_s: float
    dataset_s: float
    plan_builds: int
    compile_s: float
    rng: np.random.Generator
    epochs_run: int = 0


def _setup_serving(seed: int, cfg: dict[str, Any]) -> _Serving:
    """Generate the graph, build and start the engine, serve one query."""
    device = _fresh_device("serve-churn")
    start = time.perf_counter()
    with use_device(device):
        ds = load_sx_mathoverflow(
            scale=cfg["scale"], feature_size=cfg["features"],
            max_snapshots=cfg["snapshots"], seed=seed,
        )
        dataset_s = time.perf_counter() - start
        init.set_seed(seed)
        model = STGraphNodeRegressor(cfg["features"], cfg["features"])
        features = ds.features[-1]
        engine = InferenceEngine(model, ds.build_gpma(), features).start()
        try:
            engine.query(0, timeout=SERVE_TIMEOUT_S)  # first forward, incl. plan compile
        except BaseException:
            engine.stop()
            raise
    return _Serving(
        device=device, engine=engine, features=features,
        setup_s=time.perf_counter() - start, dataset_s=dataset_s,
        plan_builds=plan_cache().stats()["misses"],
        compile_s=device.profiler.seconds("compile"),
        rng=np.random.default_rng(seed),
    )


@dataclass
class _ServeLog:
    queries: list[float] = field(default_factory=list)
    ingests: list[float] = field(default_factory=list)
    #: (vertex, kind, value, timestamp) of every answered query.
    served: list[tuple[int, str, np.ndarray, int]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def _serve_epochs(
    run: _Serving, seed: int, cfg: dict[str, Any], seconds: float, min_epochs: int,
    log: _ServeLog, recorder: spans.SpanRecorder | None = None,
) -> list[float]:
    """Closed-loop rounds, one update batch then the queries, until
    ``seconds`` passed and ``min_epochs`` serving epochs ran."""
    engine = run.engine
    num_nodes = engine.graph.num_nodes
    times: list[float] = []
    start = time.perf_counter()
    while not log.errors and (len(times) < min_epochs or time.perf_counter() - start < seconds):
        # Each epoch's batches continue from the last applied snapshot; the
        # dispatcher is idle here, since every request so far was answered.
        batches = random_update_batches(
            engine.graph.dtdg, ROUNDS_PER_EPOCH, cfg["adds"], cfg["deletes"],
            seed=seed * 100_003 + run.epochs_run,
        )
        run.epochs_run += 1
        epoch_start = time.perf_counter()
        for batch in batches:
            if recorder is not None:
                recorder.round += 1
            try:
                t0 = time.perf_counter()
                engine.enqueue_update(batch, wait=True, timeout=SERVE_TIMEOUT_S)
                log.ingests.append(time.perf_counter() - t0)
                for i in range(QUERIES_PER_ROUND):
                    vertex = int(run.rng.integers(num_nodes))
                    kind = QUERY_KINDS[i % len(QUERY_KINDS)]
                    t0 = time.perf_counter()
                    res = engine.query(vertex, kind, timeout=SERVE_TIMEOUT_S)
                    log.queries.append(time.perf_counter() - t0)
                    log.served.append((vertex, kind, res.value, res.timestamp))
            except (TimeoutError, RuntimeError) as exc:
                log.errors.append(f"{type(exc).__name__}: {exc}")
                break
        times.append(time.perf_counter() - epoch_start)
    return times


def _serving_counters(run: _Serving) -> dict[str, float]:
    stats = run.engine.stats()
    profiler = run.device.profiler
    return {
        "csr_hits": profiler.counter("csr_cache_hits"),
        "csr_misses": profiler.counter("csr_cache_misses"),
        "ctx_hits": stats["executor_ctx_cache_hits"],
        "ctx_misses": stats["executor_ctx_cache_misses"],
        "state_stack_peak_bytes": stats["executor_state_stack_peak_bytes"],
        "forwards": stats["forwards"],
        "row_cache_hits": stats["row_cache_hits"],
        "queries": stats["queries_served"],
        "rows_invalidated": stats["rows_invalidated"],
    }


def _run_serving(
    seed: int, seconds: float, trace: bool, cfg: dict[str, Any],
    perturb: Callable[[list[Any]], None] | None,
) -> Result:
    result = Result("serve-churn")
    threads_before = set(threading.enumerate())
    setup_times: list[float] = []
    run = None
    for _ in range(1 if trace else SETUP_REPEATS):
        if run is not None:
            run.engine.stop()
            run = None
        run = _setup_serving(seed, cfg)
        setup_times.append(run.setup_s)
    log = _ServeLog()
    try:
        if trace:
            recorder = spans.SpanRecorder()
            untraced, traced, delta = _alternate(
                lambda: _serve_epochs(run, seed, cfg, 0.0, 1, log, recorder),
                lambda: _serving_counters(run), recorder, run.device, seconds,
            )
            _per_layer(result, recorder, delta, run, untraced, traced)
        else:
            start = time.perf_counter()
            times = _serve_epochs(run, seed, cfg, 0.0, MIN_SERVE_EPOCHS, log)
            # The graph grows by every batch, so the peak is read after a
            # fixed number of epochs: a faster program must not use more.
            peak_mb = run.device.tracker.peak_bytes / 1e6
            times += _serve_epochs(run, seed, cfg, seconds - (time.perf_counter() - start), 0, log)
    finally:
        run.engine.stop()
    leaked = [t.name for t in threading.enumerate() if t not in threads_before]
    result.check(not leaked, f"threads left running: {leaked}")
    for error in log.errors:
        result.check(False, error)
    if not log.queries or not log.ingests:
        raise RuntimeError(f"serve-churn completed no operations: {log.errors}")
    for _ in log.ingests:
        result.check(True, "update batch applied")
    if not trace:
        _end_to_end(result, setup_times, times, peak_mb)
        ops_per_s = (len(log.queries) + len(log.ingests)) / sum(times)
        result.table = [
            ("setup_s", statistics.median(setup_times), "s", f"median of {len(setup_times)} set-ups"),
            ("epoch_s", statistics.median(times), "s", f"median of {len(times)} serving epochs"),
            ("peak_mem_mb", peak_mb, "MB", ""),
            ("serve_query_p50_ms", _pct_ms(log.queries, 50), "ms", f"{len(log.queries)} queries (not gated)"),
            ("serve_query_p99_ms", _pct_ms(log.queries, 99), "ms", "(not gated)"),
            ("serve_ingest_p50_ms", _pct_ms(log.ingests, 50), "ms", f"{len(log.ingests)} update batches (not gated)"),
            ("serve_ingest_p90_ms", _pct_ms(log.ingests, 90), "ms", "(not gated)"),
            ("serve_ops_per_s", ops_per_s, "1/s", "queries + update batches"),
        ]
    # Every answer must equal the serial oracle at the timestamp it reports.
    with use_device(Device(name="perfbench:reference")):
        reference = serial_reference(
            run.engine.model, run.engine.graph.dtdg, run.features,
            sorted({ts for _, _, _, ts in log.served}),
        )
    if perturb is not None:
        perturb(log.served)
    for vertex, kind, value, ts in log.served:
        want = reference[ts][0 if kind == "embedding" else 1][vertex]
        result.check(
            value.dtype == want.dtype and value.shape == want.shape and value.tobytes() == want.tobytes(),
            f"{kind} of vertex {vertex} at t={ts} differs from the serial reference",
        )
    return result


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def _end_to_end(result: Result, setup_times: list[float], epochs: list[float], peak_mb: float) -> None:
    result.emit("setup_s", statistics.median(setup_times), "s")
    result.emit("epoch_s", statistics.median(epochs), "s")
    result.emit("peak_mem_mb", peak_mb, "MB")


def _frac(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _alternate(
    run_epoch: Callable[[], list[float]], counters: Callable[[], dict[str, float]],
    recorder: spans.SpanRecorder, device: Device, seconds: float,
) -> tuple[list[float], list[float], dict[str, float]]:
    """Alternate untraced and traced epochs until ``seconds`` passed (two
    pairs at least), so slow phases of the machine hit both kinds alike.

    Returns both kinds' epoch times and, over the traced epochs, the change
    of each counter; peaks (``*_peak_*``) are read after the last epoch.
    """
    untraced: list[float] = []
    traced: list[float] = []
    delta: dict[str, float] = {}
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        epoch = run_epoch()
        if not epoch:
            raise RuntimeError("an untraced epoch did not run")
        untraced += epoch
        before = counters()
        inst = spans.instrument(recorder, kernels=_kernels(device))
        try:
            traced += run_epoch()
        finally:
            inst.remove()
        after = counters()
        for key in before:
            delta[key] = delta.get(key, 0) + after[key] - before[key]
    for key in after:
        if "_peak_" in key:
            delta[key] = after[key]
    return untraced, traced, delta


def _per_layer(
    result: Result, recorder: spans.SpanRecorder, delta: dict[str, float],
    run: _Training | _Serving, untraced: list[float], traced: list[float],
) -> None:
    """Every PER_LAYER metric of the traced epochs, per traced epoch."""
    epochs = len(traced)
    recorded = recorder.spans
    parent = spans.parents(recorded)
    self_s = spans.self_times(recorded, parent)
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, s in zip(recorded, self_s):
        name = span[spans.NAME]
        totals[name] = totals.get(name, 0.0) + s
        calls[name] = calls.get(name, 0) + 1
    for name in LAYER_SPANS:
        result.emit(f"{name}.s", totals.get(name, 0.0) / epochs, "s")
    for name in COUNTED_SPANS:
        result.emit(f"{name}.calls", calls.get(name, 0) / epochs, "count")
    for name in ("pma.insert_batch", "pma.delete_batch"):
        result.emit(f"{name}.keys", recorder.counts.get(f"{name}.keys", 0) / epochs, "count")

    # Graph and PMA work done while ingesting an update batch for serving.
    under_ingest = [False] * len(recorded)
    ingest = {"graph": 0.0, "pma": 0.0}
    for i, (span, p) in enumerate(zip(recorded, parent)):
        if p >= 0:  # parents precede their children in the list
            under_ingest[i] = under_ingest[p] or recorded[p][spans.NAME] == "serve.apply_update"
        layer = span[spans.NAME].split(".", 1)[0]
        if under_ingest[i] and layer in ingest:
            ingest[layer] += self_s[i]
    result.emit("serve.ingest.graph.s", ingest["graph"] / epochs, "s")
    result.emit("serve.ingest.pma.s", ingest["pma"] / epochs, "s")

    result.emit("graph.csr_cache_hit_frac", _frac(delta["csr_hits"], delta["csr_misses"]), "frac")
    result.emit("graph.csr_positionings", (delta["csr_hits"] + delta["csr_misses"]) / epochs, "count")
    result.emit("core.ctx_cache_hit_frac", _frac(delta["ctx_hits"], delta["ctx_misses"]), "frac")
    result.emit("core.ctx_lookups", (delta["ctx_hits"] + delta["ctx_misses"]) / epochs, "count")
    result.emit("core.state_stack_peak_bytes", delta["state_stack_peak_bytes"], "B")
    queries = delta.get("queries", 0)
    result.emit("serve.forwards", delta.get("forwards", 0) / epochs, "count")
    result.emit("serve.row_cache_hit_frac", delta.get("row_cache_hits", 0) / queries if queries else 0.0, "frac")
    result.emit("serve.queries", queries / epochs, "count")
    result.emit("serve.rows_invalidated", delta.get("rows_invalidated", 0) / epochs, "count")
    result.emit("compiler.plan_builds", run.plan_builds, "count")
    result.emit("compiler.compile_s", run.compile_s, "s")
    result.emit("dataset.load.s", run.dataset_s, "s")
    result.emit("train.residual.s", totals.get("train.epoch", 0.0) / epochs, "s")

    # Training phases are covered by train.epoch roots, so all self times
    # together should equal the trainer's epoch wall time.
    reconcile = sum(self_s) - sum(traced) if "train.epoch" in totals else 0.0
    result.emit("trace.reconcile_err_s", reconcile / epochs, "s")
    overhead = statistics.median(traced) - statistics.median(untraced)
    result.emit("trace.epochs", epochs, "count")
    result.emit("trace.spans", len(recorded) / epochs, "count")
    result.emit("trace.overhead_s", overhead, "s")
    result.emit("trace.overhead_frac", overhead / statistics.median(untraced), "frac")

    groups: dict[str, float] = {}
    for name, total in totals.items():
        group = "residual" if name == "train.epoch" else name.split(".", 1)[0]
        groups[group] = groups.get(group, 0.0) + total / epochs
    result.table = [(f"self time: {group}.*", value, "s", "per epoch") for group, value in sorted(groups.items())]
    result.table += [(name, float(result.metrics[name]["value"]), unit, "") for name, unit in PER_LAYER.items()]


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
    perturb: Callable[[list[Any]], None] | None = None,
) -> Result:
    """Run one workload and its checks.

    ``perturb`` (for the self-test) may alter the produced outputs in place
    before they are checked: the list of epoch losses on training workloads,
    the list of ``(vertex, kind, value, timestamp)`` answers on serve-churn.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    cfg = SIZES[size][workload]
    if workload == "serve-churn":
        result = _run_serving(seed, seconds, trace, cfg, perturb)
    else:
        result = _run_training(workload, seed, seconds, trace, cfg, perturb)
    expected = PER_LAYER if trace else END_TO_END
    missing = set(expected) - set(result.metrics)
    if missing:
        raise RuntimeError(f"{workload} did not produce metrics {sorted(missing)}")
    result.metrics = {name: result.metrics[name] for name in expected}
    return result
