"""The STGraph core: temporally-aware execution (paper §V-A/B, Figure 2).

* :class:`StateStack` / :class:`GraphStack` — the LIFO memory structures
  that make the executor temporally aware (Algorithm 1).
* :class:`TemporalExecutor` — orchestrates which snapshot and which saved
  forward state each backward step sees.
* :class:`VertexCentricLayer` — base class wiring compiled vertex programs
  into the tensor engine's autodiff through the executor.
* backend interface — the factory-decoupled boundary that keeps the
  framework backend-agnostic (paper §VI-1).
* execution engines — the run-time half of the compile/run split: the
  generated-kernel engine and the tensor-IR interpreter behind one
  interface, selectable per program or per executor.
* :class:`PrefetchScheduler` — pipelined temporal execution: builds future
  snapshots on a worker thread under a bounded-staleness knob.
"""

from repro.core.stacks import GraphStack, StateStack, StackEntry
from repro.core.prefetch import PrefetchScheduler
from repro.core.engine import (
    ExecutionEngine,
    InterpreterEngine,
    KernelEngine,
    available_engines,
    get_engine,
    register_engine,
)
from repro.core.executor import TemporalExecutor
from repro.core.module import VertexCentricLayer
from repro.core.backend import BackendInterface, available_backends, get_backend, register_backend

__all__ = [
    "StateStack",
    "GraphStack",
    "StackEntry",
    "TemporalExecutor",
    "PrefetchScheduler",
    "VertexCentricLayer",
    "ExecutionEngine",
    "KernelEngine",
    "InterpreterEngine",
    "get_engine",
    "register_engine",
    "available_engines",
    "BackendInterface",
    "get_backend",
    "register_backend",
    "available_backends",
]
