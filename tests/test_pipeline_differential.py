"""Pipelined execution is a pure wall-clock optimization: the differential.

The staleness knob must never move the numbers.  A prefetched snapshot is
built by replaying the same update batches against the same shared version
map as the main thread would, so at *any* staleness the per-epoch losses
are bitwise identical to the strictly serial run (``pipeline=0``, which
never even creates the worker thread).  CI runs a smoke slice of this
module as the gating pipeline-differential step.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset import DYNAMIC_DATASETS
from repro.device import Device, use_device
from repro.tensor import init
from repro.train import STGraphLinkPredictor, STGraphTrainer, make_link_prediction_samples

_SEED = 0
_EPOCHS = 3


def _losses(
    ds, samples, pipeline: int, epochs: int = _EPOCHS, engine: str | None = None
) -> list[float]:
    """Per-epoch losses of one seeded run on a fresh device/trainer/graph."""
    with use_device(Device(name=f"pipe{pipeline}")):
        init.set_seed(_SEED)
        model = STGraphLinkPredictor(ds.feature_size, 8)
        trainer = STGraphTrainer(
            model, ds.build_gpma(), lr=1e-2, sequence_length=3,
            task="link_prediction", link_samples=samples, pipeline=pipeline,
            engine=engine,
        )
        return trainer.train(ds.features, epochs=epochs)


@pytest.fixture(scope="module", params=["sx-mathoverflow", "reddit-title"])
def workload(request):
    ds = DYNAMIC_DATASETS[request.param](scale=0.02, feature_size=8, max_snapshots=8)
    samples = make_link_prediction_samples(ds.dtdg, samples_per_timestamp=32, seed=_SEED)
    return ds, samples


@pytest.mark.parametrize("staleness", [1, 2, 4])
def test_pipelined_losses_bitwise_equal_serial(workload, staleness):
    """Any staleness ≥ 1 reproduces the serial per-epoch losses bitwise."""
    ds, samples = workload
    serial = _losses(ds, samples, pipeline=0)
    piped = _losses(ds, samples, pipeline=staleness)
    assert len(serial) == len(piped) == _EPOCHS
    assert all(np.float64(a) == np.float64(b) for a, b in zip(serial, piped)), (
        f"staleness={staleness} diverged: {serial} vs {piped}"
    )


@pytest.mark.parametrize("engine", ["kernel", "interpreter"])
@pytest.mark.parametrize("staleness", [1, 2, 4])
def test_engine_axis_bitwise_under_pipelining(workload, staleness, engine):
    """Neither the engine nor the staleness knob moves the numbers: every
    (engine, staleness) cell reproduces the serial default-engine losses
    bitwise."""
    ds, samples = workload
    serial = _losses(ds, samples, pipeline=0)
    cell = _losses(ds, samples, pipeline=staleness, engine=engine)
    assert len(serial) == len(cell) == _EPOCHS
    assert all(np.float64(a) == np.float64(b) for a, b in zip(serial, cell)), (
        f"engine={engine} staleness={staleness} diverged: {serial} vs {cell}"
    )


def _one_timestamp_workload():
    """A hand-built T == 1 DTDG (the dataset loaders floor at two snapshots)."""
    from repro.graph.dtdg import DTDG

    n = 20
    rng = np.random.default_rng(7)
    src = rng.integers(0, n, 60).astype(np.int64)
    dst = rng.integers(0, n, 60).astype(np.int64)
    dtdg = DTDG([(src, dst)], n)
    features = [rng.standard_normal((n, 8)).astype(np.float32)]
    samples = make_link_prediction_samples(dtdg, samples_per_timestamp=16, seed=_SEED)
    return dtdg, features, samples


def test_one_timestamp_pipeline_differential():
    """Degenerate T == 1 DTDG: wraparound scheduling must not have the worker
    rebuild (and re-stage) the only snapshot the main thread is using —
    the regression behind the ``(t + i) % T`` self-prefetch fix.  Losses
    stay bitwise equal to serial and the scheduler queues nothing."""
    from repro.graph import GPMAGraph

    dtdg, features, samples = _one_timestamp_workload()
    assert dtdg.num_timestamps == 1

    # Unit level: every candidate wraps onto the executing timestamp itself,
    # so the scheduler must never hand work to the worker.
    from repro.core.prefetch import PrefetchScheduler

    with use_device(Device(name="pipe-t1-unit")):
        sched = PrefetchScheduler(GPMAGraph(dtdg), staleness=2)
        try:
            assert sched.schedule_ahead(0) == 0
            assert sched.scheduled_total == 0
        finally:
            sched.stop()
        assert sched.built_total == 0

    # End to end: the pipelined run stays bitwise equal to serial, and the
    # worker never materializes a snapshot (no "prefetch" profiler phase).
    def run(pipeline: int):
        with use_device(Device(name=f"pipe-t1-{pipeline}")) as device:
            init.set_seed(_SEED)
            model = STGraphLinkPredictor(8, 8)
            trainer = STGraphTrainer(
                model, GPMAGraph(dtdg), lr=1e-2, sequence_length=1,
                task="link_prediction", link_samples=samples, pipeline=pipeline,
            )
            losses = trainer.train(features, epochs=_EPOCHS)
            return losses, device

    serial, _ = run(0)
    piped, device = run(2)
    assert device.profiler.calls("prefetch") == 0
    assert len(serial) == len(piped) == _EPOCHS
    assert all(np.float64(a) == np.float64(b) for a, b in zip(serial, piped))


def test_pipelined_run_is_deterministic_across_repeats(workload):
    """Two seeded pipelined runs agree bitwise with each other (no
    thread-timing dependence leaks into the numerics)."""
    ds, samples = workload
    first = _losses(ds, samples, pipeline=2)
    second = _losses(ds, samples, pipeline=2)
    assert all(np.float64(a) == np.float64(b) for a, b in zip(first, second))


def test_pipeline_zero_never_starts_a_worker(workload):
    """staleness 0 is strictly serial: no scheduler object is ever created."""
    ds, samples = workload
    with use_device(Device(name="serial")):
        init.set_seed(_SEED)
        model = STGraphLinkPredictor(ds.feature_size, 8)
        trainer = STGraphTrainer(
            model, ds.build_gpma(), lr=1e-2, sequence_length=3,
            task="link_prediction", link_samples=samples,
        )
        trainer.train(ds.features, epochs=1)
        assert trainer.executor.prefetcher is None
        assert trainer.graph._prefetch_active is False
        assert trainer.graph.prefetch_hits == 0
        assert trainer.graph.prefetch_misses == 0


def test_prefetch_hits_are_counted_when_pipelined(workload):
    """A pipelined run actually consumes staged snapshots (hits > 0) and its
    hit/miss accounting reaches the device profiler."""
    ds, samples = workload
    with use_device(Device(name="counted")) as device:
        init.set_seed(_SEED)
        model = STGraphLinkPredictor(ds.feature_size, 8)
        trainer = STGraphTrainer(
            model, ds.build_gpma(), lr=1e-2, sequence_length=3,
            task="link_prediction", link_samples=samples, pipeline=2,
        )
        trainer.train(ds.features, epochs=_EPOCHS)
        assert trainer.graph.prefetch_hits > 0
        assert device.profiler.counter("prefetch_hits") == trainer.graph.prefetch_hits
        assert device.profiler.counter("prefetch_misses") == trainer.graph.prefetch_misses


def test_kill_and_resume_composes_with_pipeline(tmp_path, workload):
    """Kill a pipelined run mid-epoch, resume pipelined in a fresh "process":
    final losses stay bitwise equal to the uninterrupted *serial* run (the
    version-map restore invalidates the builder's private cursor via the
    builder epoch, so resumed prefetch keys match the recorded ones)."""
    from repro.resilience import FaultPlan, FaultSite, SimulatedKill, use_fault_plan

    ds, samples = workload
    reference = _losses(ds, samples, pipeline=0)
    ckpt = tmp_path / "pipe.npz"
    plan = FaultPlan(
        name="kill-pipe",
        sites=[FaultSite(kind="kill", epoch=1, sequence=1, timestamp=4)],
    )
    with use_device(Device(name="pipe-ckpt-a")), use_fault_plan(plan):
        init.set_seed(_SEED)
        model = STGraphLinkPredictor(ds.feature_size, 8)
        trainer = STGraphTrainer(
            model, ds.build_gpma(), lr=1e-2, sequence_length=3,
            task="link_prediction", link_samples=samples, pipeline=2,
        )
        with pytest.raises(SimulatedKill):
            trainer.train(ds.features, epochs=_EPOCHS, checkpoint_path=ckpt)
    assert ckpt.exists()
    with use_device(Device(name="pipe-ckpt-b")):
        init.set_seed(_SEED)
        model = STGraphLinkPredictor(ds.feature_size, 8)
        trainer = STGraphTrainer(
            model, ds.build_gpma(), lr=1e-2, sequence_length=3,
            task="link_prediction", link_samples=samples, pipeline=2,
        )
        losses = trainer.train(
            ds.features, epochs=_EPOCHS, checkpoint_path=ckpt, resume=True
        )
    assert len(losses) == _EPOCHS
    assert all(np.float64(a) == np.float64(b) for a, b in zip(losses, reference))
