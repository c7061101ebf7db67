"""Wiring compiled vertex programs into the tensor engine's autodiff.

:class:`_GraphAggregationTape` is the custom autograd node: its forward runs
the generated forward kernel and pushes the *pruned* saved-state onto the
executor's State Stack (instead of holding it in the tape, as every other op
does); its backward pops the State Stack, asks the executor for the correct
backward snapshot context (Graph Stack / Get-Backward-Graph), and runs the
generated backward kernel.  This is the precise point where the paper's
"temporally-aware executor" meets the deep-learning backend while staying
backend-agnostic — the tape node only uses the generic tape protocol.

:class:`VertexCentricLayer` is the base class for STGraph's GNN layers: it
requests its :class:`~repro.compiler.plan.ProgramPlan` from the process-wide
plan cache (so identical layers share one compilation) and exposes
``aggregate`` to subclasses.  The execution engine resolved for each
aggregation is, in priority order: the executor's override (differential
testing / fleet-wide switches), else the program's own engine.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from repro.compiler.program import VertexProgram, compile_vertex_program
from repro.compiler.runtime import GraphContext
from repro.core.engine import ExecutionEngine, get_engine
from repro.core.executor import TemporalExecutor
from repro.device import current_device
from repro.obs.flight import current_flight_recorder
from repro.obs.tracer import current_tracer
from repro.resilience.faults import InjectedKernelFault
from repro.tensor import nn
from repro.tensor.tensor import Tensor, is_grad_enabled

__all__ = ["VertexCentricLayer", "graph_aggregate"]


def _differential_check(
    program: VertexProgram,
    engine: ExecutionEngine | None,
    call,
    result,
    direction: str,
) -> None:
    """Compare a retried kernel execution against the interpreter oracle.

    The interpreter runs the same op order over the same primitives, so any
    difference is bitwise-detectable and means the retried launch produced
    corrupt output rather than a clean recovery.
    """
    resolved = engine if engine is not None else program.engine
    if resolved.name == "interpreter":
        return  # the result *is* the oracle
    oracle = call(get_engine("interpreter"))
    if direction == "fwd":
        ok = np.array_equal(np.asarray(result[0]), np.asarray(oracle[0]))
    else:
        ok = set(result) == set(oracle) and all(
            np.array_equal(np.asarray(result[k]), np.asarray(oracle[k])) for k in result
        )
    if not ok:
        raise RuntimeError(
            f"differential check failed after kernel retry: {program.name} "
            f"({direction}) disagrees with the interpreter oracle"
        )


def _resilient_run(
    executor: TemporalExecutor,
    program: VertexProgram,
    engine: ExecutionEngine | None,
    call,
    direction: str,
    timestamp: int,
):
    """Run ``call(engine)`` under the engine degradation ladder.

    An :class:`~repro.resilience.faults.InjectedKernelFault` triggers
    exactly one retry on the current engine; if the retry faults too, the
    aggregation falls back to the interpreter engine (bitwise-identical by
    construction, so training continues unperturbed).  A retry that
    *succeeds* is differentially checked against the interpreter oracle
    before its result is trusted.  Returns
    ``(result, engine_used)`` so the tape can pin backward to the engine
    forward actually ran on.
    """
    try:
        return call(engine), engine
    except InjectedKernelFault:
        device = current_device()
        tracer = current_tracer()
        recorder = current_flight_recorder()
        executor.kernel_retries += 1
        device.profiler.count("kernel_retries")
        if tracer.enabled:
            tracer.instant(
                "fault.retry", "fault",
                program=program.name, dir=direction, t=timestamp,
            )
        if recorder.enabled:
            recorder.record(
                "counter", "kernel_retry",
                program=program.name, dir=direction, t=timestamp,
            )
        try:
            result = call(engine)
        except InjectedKernelFault:
            resolved = engine if engine is not None else program.engine
            if resolved.name == "interpreter":
                raise RuntimeError(f"no fallback engine for {resolved.name!r}")
            fallback = get_engine("interpreter")
            executor.engine_fallbacks += 1
            device.profiler.count("engine_fallbacks")
            if tracer.enabled:
                tracer.instant(
                    "fault.engine_fallback", "fault",
                    program=program.name, dir=direction, t=timestamp,
                    engine=fallback.name,
                )
            if recorder.enabled:
                # A ladder step is a failure edge worth a full window
                # dump: record the step, then drain the ring.
                recorder.record(
                    "counter", "engine_fallback",
                    program=program.name, dir=direction, t=timestamp,
                    engine=fallback.name,
                )
                recorder.drain("engine_fallback")
            return call(fallback), fallback
        _differential_check(program, engine, call, result, direction)
        return result, engine


class _GraphAggregationTape:
    """Autograd tape node for one compiled aggregation at one timestamp.

    Implements the context protocol ``Tensor.backward`` expects (``inputs``
    and ``backward(grad)``), but manages its saved state through the
    executor's stacks rather than tape-local references.  The engine the
    forward ran on is pinned so forward and backward of one aggregation
    always execute on the same engine.
    """

    def __init__(
        self,
        program: VertexProgram,
        executor: TemporalExecutor,
        timestamp: int,
        token: int,
        tensor_slots: list[tuple[str, str]],
        inputs: tuple[Tensor, ...],
        engine: ExecutionEngine | None = None,
    ) -> None:
        self.program = program
        self.executor = executor
        self.timestamp = timestamp
        self.token = token
        self.tensor_slots = tensor_slots  # (feature_name, "node" | "edge")
        self.inputs = inputs
        self.engine = engine

    def backward(self, grad: np.ndarray) -> tuple[np.ndarray | None, ...]:
        device = current_device()
        ctx = self.executor.backward_context(self.timestamp)
        saved = self.executor.pop_state(self.token)

        def run_backward(engine: ExecutionEngine | None):
            return self.program.backward(ctx, grad, saved, engine=engine)

        with current_tracer().span("backward/" + self.program.name, "gnn", t=self.timestamp):
            with device.profiler.phase("gnn"):
                grads, _ = _resilient_run(
                    self.executor, self.program, self.engine, run_backward,
                    direction="bwd", timestamp=self.timestamp,
                )
        return tuple(grads.get(name) for name, _kind in self.tensor_slots)


def graph_aggregate(
    program: VertexProgram,
    executor: TemporalExecutor,
    node_feats: Mapping[str, Tensor | np.ndarray],
    edge_feats: Mapping[str, Tensor | np.ndarray] | None = None,
) -> Tensor:
    """Run a compiled aggregation at the executor's current timestamp.

    Tensor-valued features participate in autodiff; ndarray-valued features
    (degree norms etc.) are structural constants.
    """
    device = current_device()
    ctx: GraphContext = executor.current_context()
    timestamp = executor.current_timestamp
    assert timestamp is not None
    engine = executor.engine  # None → the program's own engine

    node_arrays: dict[str, np.ndarray] = {}
    edge_arrays: dict[str, np.ndarray] = {}
    tensor_slots: list[tuple[str, str]] = []
    tensor_inputs: list[Tensor] = []
    for name, value in node_feats.items():
        if isinstance(value, Tensor):
            node_arrays[name] = value.data
            tensor_slots.append((name, "node"))
            tensor_inputs.append(value)
        else:
            node_arrays[name] = np.asarray(value)
    for name, value in (edge_feats or {}).items():
        if isinstance(value, Tensor):
            edge_arrays[name] = value.data
            tensor_slots.append((name, "edge"))
            tensor_inputs.append(value)
        else:
            edge_arrays[name] = np.asarray(value)

    def run_forward(eng: ExecutionEngine | None):
        return program.forward(ctx, node_arrays, edge_arrays or None, engine=eng)

    with current_tracer().span("forward/" + program.name, "gnn", t=timestamp):
        with device.profiler.phase("gnn"):
            (out_np, saved), engine = _resilient_run(
                executor, program, engine, run_forward,
                direction="fwd", timestamp=timestamp,
            )
    out = Tensor(out_np)

    if is_grad_enabled() and any(t.requires_grad or t._ctx is not None for t in tensor_inputs):
        token = executor.push_state(saved, tag=program.name)
        out._ctx = _GraphAggregationTape(
            program, executor, timestamp, token, tensor_slots, tuple(tensor_inputs),
            engine=engine,
        )
    return out


class VertexCentricLayer(nn.Module):
    """Base class for STGraph GNN layers defined by a vertex program."""

    def __init__(
        self,
        vertex_fn: Callable,
        feature_widths: Mapping[str, str],
        grad_features: set[str],
        name: str,
        fused: bool = True,
        state_stack_opt: bool = True,
        engine: str | ExecutionEngine = "kernel",
    ) -> None:
        super().__init__()
        self.program = compile_vertex_program(
            vertex_fn,
            feature_widths=feature_widths,
            grad_features=grad_features,
            name=name,
            fused=fused,
            state_stack_opt=state_stack_opt,
            engine=engine,
        )

    @property
    def plan(self):
        """The layer's cached :class:`~repro.compiler.plan.ProgramPlan`."""
        return self.program.plan

    @property
    def plan_id(self) -> str:
        """The plan's content-hash identity in the process-wide cache."""
        return self.program.plan_id

    def aggregate(
        self,
        executor: TemporalExecutor,
        node_feats: Mapping[str, Tensor | np.ndarray],
        edge_feats: Mapping[str, Tensor | np.ndarray] | None = None,
    ) -> Tensor:
        """Run this layer's compiled aggregation at the executor's current timestamp."""
        return graph_aggregate(self.program, executor, node_feats, edge_feats)

    @property
    def generated_forward_source(self) -> str:
        """Source of the generated forward kernel."""
        return self.program.forward_source

    @property
    def generated_backward_source(self) -> str:
        """Source of the generated backward kernel."""
        return self.program.backward_source
