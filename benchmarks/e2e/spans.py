"""Span tracing from outside the program: wrap, record, restore.

The traced run of the e2e benchmark wraps the public functions of each
``repro`` layer **here**, at class/module attribute level, so ``src/``
carries no instrumentation and the timed (untraced) runs execute the
original function objects.  A span is ``[name, parent, tick, start,
end]``; spans stay in memory until the run ends.

*Self time* of a span is its duration minus the duration of its direct
children, so the self times of all spans under one root add up to the
root's duration exactly — that is what lets the per-layer ``*_s``
metrics be read as shares of ``converge_s`` / ``setup_s``.
"""

from __future__ import annotations

import functools
import sys
import types
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["SpanTracer", "Span", "wrap_points"]

#: ``[name, parent index (-1 = root), tick, start, end]``
Span = List[Any]
NAME, PARENT, TICK, START, END = range(5)

#: called after a wrapped function returns: (tracer, args, result)
ExitHook = Callable[["SpanTracer", Tuple[Any, ...], Any], None]


class SpanTracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self, tick_span: str) -> None:
        #: entering a span of this name starts a new tick / RC step; all
        #: spans opened until the next one share the tick id
        self.tick_span = tick_span
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self.tick = -1
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        on_exit: Optional[ExitHook] = None,
        rename_under: Optional[str] = None,
    ) -> Callable[..., Any]:
        """A recording wrapper around ``fn``.

        ``rename_under``: when the enclosing span has that name, this
        span takes it too (a callee accounted to its caller's layer).
        """
        tracer = self
        spans = self.spans
        stack = self._stack
        bumps_tick = name == self.tick_span

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else -1
            label = name
            if rename_under is not None and parent >= 0:
                if spans[parent][NAME] == rename_under:
                    label = rename_under
            if bumps_tick:
                tracer.tick += 1
            rec: Span = [label, parent, tracer.tick, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if on_exit is not None:
                on_exit(tracer, args, out)
            return out

        return wrapper

    def take(self) -> Tuple[List[Span], Counter]:
        """Hand over (and clear) what was recorded since the last take."""
        if self._stack:
            raise RuntimeError("take() inside an open span")
        spans, counters = list(self.spans), Counter(self.counters)
        # cleared in place: the wrappers close over these objects
        self.spans.clear()
        self.counters.clear()
        self.tick = -1
        return spans, counters

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Replace every wrap point with a recording wrapper."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, hook, rename in wrap_points():
            original = owner.__dict__[attr]
            wrapped = self.wrap(original, name, hook, rename)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Put the original function objects back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanTracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def self_times(spans: List[Span]) -> Dict[str, float]:
    """Summed self time per span name."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    out: Dict[str, float] = {}
    for rec, children in zip(spans, child_time):
        own = rec[END] - rec[START] - children
        out[rec[NAME]] = out.get(rec[NAME], 0.0) + own
    return out


def calls(spans: List[Span]) -> Tuple[Dict[str, int], Dict[str, float]]:
    """Calls and their summed (inclusive) duration per span name.

    A span directly inside one of its own name (a delegating strategy,
    a renamed callee) is part of the same call.
    """
    counts: Dict[str, int] = {}
    durations: Dict[str, float] = {}
    for rec in spans:
        name, parent = rec[NAME], rec[PARENT]
        if parent >= 0 and spans[parent][NAME] == name:
            continue
        counts[name] = counts.get(name, 0) + 1
        durations[name] = durations.get(name, 0.0) + rec[END] - rec[START]
    return counts, durations


def root_time(spans: List[Span], until: float = float("inf")) -> float:
    """Total duration of the root spans that started before ``until``
    (everything attributed before the iteration's clock stopped)."""
    return sum(
        r[END] - r[START] for r in spans if r[PARENT] < 0 and r[START] < until
    )


def check_tree(spans: List[Span]) -> None:
    """Raise unless spans nest properly: every span is closed, starts
    after and ends before its parent, and children's time fits in it."""
    child_time = [0.0] * len(spans)
    for i, rec in enumerate(spans):
        name, parent, _tick, start, end = rec
        if not 0.0 < start <= end:
            raise ValueError(f"span {i} ({name}) is not closed")
        if parent >= i:
            raise ValueError(f"span {i} ({name}) precedes its parent")
        if parent >= 0:
            p = spans[parent]
            if start < p[START] or end > p[END]:
                raise ValueError(f"span {i} ({name}) escapes its parent")
            child_time[parent] += end - start
    for rec, children in zip(spans, child_time):
        if children > rec[END] - rec[START] + 1e-9:
            raise ValueError(f"children of {rec[NAME]} outlast it")


# ----------------------------------------------------------------------
# the wrap points: which public function is which layer span
# ----------------------------------------------------------------------
def _subclasses(base: type) -> Iterator[type]:
    yield base
    for sub in base.__subclasses__():
        yield from _subclasses(sub)


def _methods(
    base: type, names: Dict[str, str], *, tree: bool = False
) -> Iterator[Tuple[type, str, str]]:
    """``(class, attribute, span name)`` for each method defined on
    ``base`` — and, with ``tree``, on every subclass that overrides it
    (an interface: the concrete implementations are what runs)."""
    for cls in _subclasses(base) if tree else (base,):
        for attr, span in names.items():
            fn = cls.__dict__.get(attr)
            if isinstance(fn, types.FunctionType) and not getattr(
                fn, "__isabstractmethod__", False
            ):
                yield cls, attr, span


def _importers(fn: Callable[..., Any]) -> Iterable[Tuple[Any, str]]:
    """Every loaded ``repro`` module that holds ``fn`` under its name
    (``from x import fn`` copies the reference, so each copy is a wrap
    point of its own)."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        if module.__dict__.get(fn.__name__) is fn:
            yield module, fn.__name__


def _count_truthy(key: str) -> ExitHook:
    def hook(tracer: SpanTracer, _args: Tuple[Any, ...], out: Any) -> None:
        if out:
            tracer.counters[key] += 1

    return hook


def _shm_bytes(tracer: SpanTracer, _args: Tuple[Any, ...], out: Any) -> None:
    tracer.counters["shm.alloc_bytes"] += int(out.nbytes)


def wrap_points() -> List[
    Tuple[Any, str, str, Optional[ExitHook], Optional[str]]
]:
    """``(owner, attribute, span name, exit hook, rename_under)`` rows."""
    from repro.core import recombination, snapshots
    from repro.core.engine import AnytimeAnywhereCloseness
    from repro.core.strategies import (
        DynamicStrategy,
        PolicyDrivenStrategy,
        ProcessorAssignmentStrategy,
        StrategyPolicy,
        edge_addition,
        edge_deletion,
    )
    from repro.graph import views
    from repro.graph.graph import Graph
    from repro.obs import profile
    from repro.partition.base import Partitioner
    from repro.runtime.backends import ExecutionBackend
    from repro.runtime.cluster import Cluster
    from repro.runtime.kernels import KernelTier
    from repro.runtime.shm import SharedMemoryAllocator
    from repro.runtime.worker import Worker
    from repro.serve import UpdateService

    hooks: Dict[str, ExitHook] = {
        "worker.relax_edge_rows": _count_truthy("worker.relax_edge_rows_useful"),
        "kernels.minplus_fold": _count_truthy("kernels.minplus_fold_useful"),
        "shm.alloc": _shm_bytes,
    }
    #: a snapshot taken for the closeness read-out is read-out time
    renames = {"obs.snapshot": "engine.closeness_readout"}

    methods: List[Tuple[type, str, str]] = [
        *_methods(Graph, {"to_csr": "graph.to_csr", "copy": "graph.build"}),
        *_methods(Partitioner, {"partition": "partition.partition"}, tree=True),
        *_methods(Cluster, {
            "decompose": "cluster.decompose",
            "install_partition": "cluster.install_partition",
            "run_initial_approximation": "cluster.ia",
            "exchange_boundary": "cluster.exchange",
            "relax_and_propagate": "cluster.relax_propagate",
            "add_vertex_columns": "cluster.add_columns",
            "broadcast_row": "cluster.broadcast_row",
            "gather_distance_matrix": "cluster.gather",
        }),
        *_methods(Worker, {
            "load_subgraph": "worker.load_subgraph",
            "build_payload": "worker.build_payload",
            "receive_rows": "worker.receive_rows",
            "relax_cut_edges": "worker.relax_cut_edges",
            "propagate_local": "worker.propagate_local",
            "grow_columns": "worker.grow_columns",
            "relax_with_edge_rows": "worker.relax_edge_rows",
        }),
        *_methods(KernelTier, {
            "ia_kernel": "kernels.ia",
            "ia_chunk_kernel": "kernels.ia",
            "relax_cut": "kernels.relax_cut",
            "minplus_fold": "kernels.minplus_fold",
        }, tree=True),
        *_methods(ExecutionBackend, {
            "run_ia": "backends.run_ia",
            "relax_and_propagate": "backends.superstep",
            "close": "backends.close",
        }, tree=True),
        *_methods(SharedMemoryAllocator, {"empty": "shm.alloc"}),
        *_methods(DynamicStrategy, {"apply": "strategies.apply"}, tree=True),
        *_methods(
            ProcessorAssignmentStrategy,
            {"assign": "strategies.placement"},
            tree=True,
        ),
        *_methods(
            StrategyPolicy, {"choose": "strategies.policy_choose"}, tree=True
        ),
        *_methods(PolicyDrivenStrategy, {"signals": "obs.signals"}),
        *_methods(AnytimeAnywhereCloseness, {
            "setup": "engine.setup",
            "run": "engine.run",
            "current_closeness": "engine.closeness_readout",
            "signals": "obs.signals",
        }),
        *_methods(UpdateService, {
            "feed": "serve.feed",
            "step": "serve.step",
            "drain": "serve.drain",
        }),
    ]
    functions = [
        (views.extract_local_subgraph, "graph.build"),
        (edge_addition.apply_edge_addition, "strategies.edge_addition"),
        (edge_deletion.apply_edge_deletion, "strategies.edge_deletion"),
        (recombination.run_recombination, "recombination.loop"),
        (profile.fold_cluster, "obs.profile_fold"),
        (snapshots.take_snapshot, "obs.snapshot"),
    ]
    rows: List[Tuple[Any, str, str, Optional[ExitHook], Optional[str]]] = [
        (cls, attr, span, hooks.get(span), renames.get(span))
        for cls, attr, span in methods
    ]
    for fn, span in functions:
        for module, attr in _importers(fn):
            rows.append((module, attr, span, hooks.get(span), renames.get(span)))
    return rows
