"""Kernel objects and the launcher.

Seastar's codegen emits CUDA source that is NVRTC-compiled and cached; the
executor then launches those kernels.  Our codegen (``repro.compiler.codegen``)
emits Python source targeting vectorized NumPy; :class:`CompiledKernel` holds
the source plus the compiled callable, and :class:`KernelLauncher` plays the
role of the CUDA launch layer: it resolves kernels from a cache keyed by the
IR signature and records launch counts/timings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.tracer import current_tracer
from repro.resilience.faults import current_injector

__all__ = ["CompiledKernel", "KernelLauncher"]


@dataclass
class CompiledKernel:
    """A generated kernel: inspectable source + executable entry point.

    Attributes
    ----------
    name:
        Entry-point symbol in the generated module.
    source:
        The full generated source (kept for debugging / tests, exactly like
        Seastar keeps generated ``.cu`` files).
    fn:
        The executable produced by compiling ``source``.
    arg_names:
        Ordered argument names the executor must supply.
    """

    name: str
    source: str
    fn: Callable[..., Any]
    arg_names: tuple[str, ...]
    meta: dict[str, Any] = field(default_factory=dict)

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return self.fn(*args, **kwargs)


def compile_kernel_source(source: str, entry: str, globals_extra: dict[str, Any] | None = None) -> Callable[..., Any]:
    """Compile generated kernel source and return its entry-point callable.

    This is the stand-in for NVRTC: the source is real generated code and
    errors in codegen surface as compile errors here, not silently.
    """
    namespace: dict[str, Any] = {}
    if globals_extra:
        namespace.update(globals_extra)
    code = compile(source, f"<generated kernel {entry}>", "exec")
    exec(code, namespace)  # noqa: S102 - executing our own generated code
    fn = namespace.get(entry)
    if fn is None:
        raise RuntimeError(f"generated source does not define entry point {entry!r}")
    return fn


class KernelLauncher:
    """Caches compiled kernels and launches them with timing.

    Keyed by an arbitrary hashable signature (the compiler uses the IR hash),
    so re-tracing the same vertex-centric function reuses the compiled
    kernel — matching Seastar's kernel cache.

    :meth:`compile` additionally deduplicates at the *source* level: two
    compilation requests with byte-identical generated source (and the same
    entry point) share one :class:`CompiledKernel`, so e.g. plans that differ
    only in a specialization attribute never pay for ``compile()``/``exec``
    twice.  ``compile_count`` counts actual compilations and
    ``source_dedup_hits`` counts requests served from the source cache.
    """

    def __init__(self, metrics: Any | None = None) -> None:
        self._cache: dict[Any, CompiledKernel] = {}
        self._by_source: dict[tuple[str, str], CompiledKernel] = {}
        self.launch_count = 0
        self.launch_seconds = 0.0
        self.compile_count = 0
        self.source_dedup_hits = 0
        #: optional :class:`~repro.obs.metrics.MetricRegistry` (the owning
        #: device's) receiving per-launch latency into the
        #: ``repro_kernel_launch_seconds{tier="python"}`` histogram; the
        #: labelled child is resolved once, on the first recorded launch.
        self._metrics = metrics
        self._launch_hist: Any | None = None

    def get(self, key: Any) -> CompiledKernel | None:
        """Cached kernel for ``key``, or None."""
        return self._cache.get(key)

    def put(self, key: Any, kernel: CompiledKernel) -> CompiledKernel:
        """Cache ``kernel`` under ``key`` and return it."""
        self._cache[key] = kernel
        return kernel

    def compile(
        self,
        source: str,
        entry: str,
        globals_extra: dict[str, Any] | None = None,
        meta: dict[str, Any] | None = None,
    ) -> CompiledKernel:
        """Compile ``source`` into a launchable kernel, deduplicating by source.

        Identical (entry, source) pairs return the *same* kernel object
        without recompiling — the NVRTC-cache analogue at the source level.
        """
        key = (entry, source)
        kernel = self._by_source.get(key)
        if kernel is not None:
            self.source_dedup_hits += 1
            return kernel
        fn = compile_kernel_source(source, entry, globals_extra=globals_extra)
        kernel = CompiledKernel(
            name=entry, source=source, fn=fn, arg_names=(), meta=dict(meta or {})
        )
        self._by_source[key] = kernel
        self.compile_count += 1
        return kernel

    def launch(self, kernel: CompiledKernel, *args: Any, **kwargs: Any) -> Any:
        """Execute a kernel, recording count and wall time.

        Under an active tracer every launch is a span named by the kernel's
        entry point — which embeds the plan id (``plan_<hash>_fwd`` etc.),
        so traces attribute kernel time to specific compiled plans.

        An armed fault injector (``use_fault_plan``) can fail the launch
        here with :class:`~repro.resilience.faults.InjectedKernelFault`; the
        aggregation layer's degradation ladder retries once and then falls
        back to the interpreter engine (see ``repro.core.module``).
        """
        injector = current_injector()
        if injector.enabled:
            injector.fire("kernel")
        start = time.perf_counter()
        try:
            with current_tracer().span(kernel.name, "gnn", tier="python"):
                return kernel(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.launch_seconds += elapsed
            self.launch_count += 1
            metrics = self._metrics
            if metrics is not None and metrics.enabled:
                if self._launch_hist is None:
                    self._launch_hist = metrics.histogram(
                        "repro_kernel_launch_seconds",
                        "Per-launch kernel wall time by execution tier.",
                    ).labels(tier="python")
                self._launch_hist.observe(elapsed)

    def clear(self) -> None:
        """Drop the caches and reset launch/compile counters."""
        self._cache.clear()
        self._by_source.clear()
        self.launch_count = 0
        self.launch_seconds = 0.0
        self.compile_count = 0
        self.source_dedup_hits = 0

    def __len__(self) -> int:
        return len(self._cache)
