"""In-memory span recording around the public entry points of each layer.

The benchmark's traced run installs :func:`instrument` for its traced phase
only; timed runs never load these wrappers.  Every wrapped call becomes one
span ``[name, start, end, parent, round]`` on the calling thread.  The parent
is the innermost open span of the same thread, so a span's self time is its
duration minus the durations of its direct children.  On ``serve-churn`` the
driver sets :attr:`SpanRecorder.round` before each round, so spans of one
round (on either thread) share that round id.

Nothing inside ``src/`` is edited: wrappers are installed by replacing class
attributes and module globals, and :meth:`Instrumentation.remove` puts the
originals back.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

__all__ = ["SpanRecorder", "Instrumentation", "instrument", "parents", "self_times"]

# Span record fields.
NAME, START, END, PARENT, ROUND = range(5)


class SpanRecorder:
    """Collects spans in memory; nothing is written until the run ends."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        #: per-name work counts recorded at the same boundaries (e.g. keys).
        self.counts: dict[str, int] = defaultdict(int)
        #: id shared by the spans of one serving round (-1 outside rounds).
        self.round = -1
        self._local = threading.local()

    def begin(self, name: str) -> list[Any]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else None, self.round]
        # list.append is atomic, so the serving dispatcher and driver threads
        # may record concurrently.
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: list[Any]) -> None:
        span[END] = time.perf_counter()
        self._local.stack.pop()

    def wrap(self, name: str, fn: Callable[..., Any], keys_arg: int | None = None) -> Callable[..., Any]:
        """``fn`` recorded as span ``name``; ``keys_arg`` names the positional
        argument whose length is added to the ``<name>.keys`` count."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if keys_arg is not None:
                self.counts[name + ".keys"] += len(args[keys_arg])
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return wrapper

    def export(self) -> list[list[Any]]:
        """Spans with parents replaced by list indices (JSON-ready)."""
        return [[s[NAME], s[START], s[END], p, s[ROUND]] for s, p in zip(self.spans, parents(self.spans))]


def parents(spans: list[list[Any]]) -> list[int]:
    """Index of each span's parent in ``spans`` (-1 for a root)."""
    index = {id(span): i for i, span in enumerate(spans)}
    return [-1 if s[PARENT] is None else index[id(s[PARENT])] for s in spans]


def self_times(spans: list[list[Any]], parent: list[int]) -> list[float]:
    """Self time of each span: its duration minus its direct children's."""
    out = [s[END] - s[START] for s in spans]
    for s, p in zip(spans, parent):
        if p >= 0:
            out[p] -= s[END] - s[START]
    return out


class Instrumentation:
    """Replaced attributes and their originals, for :meth:`remove`."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any, bool]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        is_dict = isinstance(owner, dict)
        if is_dict:
            original = owner[attr]
        elif isinstance(owner, type):
            original = owner.__dict__[attr]  # the raw classmethod, not a bound one
        else:
            original = getattr(owner, attr)
        self._saved.append((owner, attr, original, is_dict))
        if is_dict:
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original, is_dict in reversed(self._saved):
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._saved.clear()


def instrument(recorder: SpanRecorder, kernels: Iterable[Any] = ()) -> Instrumentation:
    """Wrap every layer entry point the per-layer metrics are built from.

    ``kernels`` are already-compiled generated kernels; each captured its own
    copy of the runtime namespace at compile time, so their ``spmm`` and
    ``spmm_T`` globals are wrapped individually.
    """
    from repro.compiler import runtime
    from repro.core.executor import TemporalExecutor
    from repro.device.kernel import KernelLauncher
    from repro.graph import gpma_graph
    from repro.graph.dtdg import DTDG
    from repro.graph.gpma_graph import GPMAGraph
    from repro.graph.static import StaticGraph
    from repro.pma.pma import PackedMemoryArray
    from repro.serve import engine as serve_engine
    from repro.tensor.ops import Function
    from repro.tensor.optim import Adam
    from repro.tensor.tensor import Tensor
    from repro.train.trainer import STGraphTrainer

    inst = Instrumentation()
    wrap = recorder.wrap

    def method(cls: type, attr: str, name: str, keys_arg: int | None = None) -> None:
        inst.replace(cls, attr, wrap(name, cls.__dict__[attr], keys_arg))

    method(PackedMemoryArray, "insert_batch", "pma.insert_batch", keys_arg=1)
    method(PackedMemoryArray, "delete_batch", "pma.delete_batch", keys_arg=1)
    for cls in (GPMAGraph, StaticGraph):
        method(cls, "get_graph", "graph.get_graph")
        method(cls, "get_backward_graph", "graph.get_backward_graph")
    inst.replace(gpma_graph, "build_snapshot_arrays", wrap("graph.csr_build", gpma_graph.build_snapshot_arrays))
    method(DTDG, "append_update", "graph.append_update")
    inst.replace(serve_engine, "k_hop_neighborhood", wrap("graph.k_hop", serve_engine.k_hop_neighborhood))
    method(TemporalExecutor, "begin_timestamp", "core.begin_timestamp")
    method(TemporalExecutor, "begin_inference", "core.begin_inference")
    method(TemporalExecutor, "backward_context", "core.backward_context")
    method(KernelLauncher, "launch", "device.kernel_launch")
    # spmm_T delegates to the module-level spmm, which stays unwrapped, so a
    # transpose product is one compiler.spmm span, not two nested ones.
    for namespace in [runtime.RUNTIME_NAMESPACE] + [k.fn.__globals__ for k in kernels]:
        for fn_name in ("spmm", "spmm_T"):
            if fn_name in namespace:
                inst.replace(namespace, fn_name, wrap("compiler.spmm", getattr(runtime, fn_name)))
    apply_fn = Function.__dict__["apply"].__func__
    inst.replace(Function, "apply", classmethod(wrap("tensor.op_apply", apply_fn)))
    method(Tensor, "backward", "tensor.backward")
    method(Adam, "step", "tensor.optim_step")
    method(serve_engine.InferenceEngine, "_forward", "serve.forward")
    method(serve_engine.InferenceEngine, "_apply_update", "serve.apply_update")
    method(STGraphTrainer, "train_epoch", "train.epoch")
    return inst
