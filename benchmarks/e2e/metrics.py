"""The metric tables: what the benchmark reports, with units and bounds.

``BENCHMARK.json`` at the repository root mirrors these tables (a test
checks that it does); the harness, the compare tool and the README all
read them from here.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import spans as sp

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "RUN_SECONDS",
    "EndToEnd",
    "compare",
    "layer_metrics",
    "summarize",
]

#: how long one run measures by default (``run_seconds`` in BENCHMARK.json)
RUN_SECONDS = 20

ALL = frozenset(
    ("static-solve", "static-pool", "setup-large", "batch-add", "serve-churn")
)
SERVE = frozenset(("serve-churn",))

#: ``setup_s`` below this many seconds only regresses when it also grows
#: by this much in absolute terms (a 10 ms setup moving 2 ms is noise)
SETUP_ABS_FLOOR_S = 0.1


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: share of the parent's median the metric may worsen by
    bound: float
    #: workloads on which the metric is measured directly; elsewhere the
    #: harness emits a documented alias (see README) so that every
    #: workload reports every metric, and compare skips those cells
    native: frozenset


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25, ALL),
    EndToEnd("converge_s", "s", "lower", 0.25, ALL - {"setup-large"}),
    EndToEnd("tick_p50_ms", "ms", "lower", 0.25, SERVE),
    EndToEnd("tick_p95_ms", "ms", "lower", 0.25, SERVE),
    EndToEnd("events_per_s", "1/s", "higher", 0.25, SERVE),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.25, ALL),
)

# ----------------------------------------------------------------------
# per-layer metrics: (name, unit, better, how, argument)
#   self   summed self time of the span          calls  outermost spans
#   incl   summed duration of outermost spans    count  tracer counter
#   state  exact counter read from the engine    frac   useful / calls
# ----------------------------------------------------------------------
_S, _N = "s", "count"
PER_LAYER: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("graph.build_s", _S, "lower", "self", "graph.build"),
    ("graph.to_csr_s", _S, "lower", "self", "graph.to_csr"),
    ("graph.to_csr_calls", _N, "lower", "calls", "graph.to_csr"),
    ("partition.partition_s", _S, "lower", "self", "partition.partition"),
    ("partition.calls", _N, "lower", "calls", "partition.partition"),
    ("partition.edge_cut", _N, "lower", "state", ""),
    ("cluster.decompose_s", _S, "lower", "self", "cluster.decompose"),
    ("cluster.install_partition_s", _S, "lower", "self", "cluster.install_partition"),
    ("cluster.ia_s", _S, "lower", "self", "cluster.ia"),
    ("cluster.exchange_s", _S, "lower", "self", "cluster.exchange"),
    ("cluster.exchange_calls", _N, "lower", "calls", "cluster.exchange"),
    ("cluster.relax_propagate_s", _S, "lower", "self", "cluster.relax_propagate"),
    ("cluster.relax_propagate_calls", _N, "lower", "calls", "cluster.relax_propagate"),
    ("cluster.add_columns_s", _S, "lower", "self", "cluster.add_columns"),
    ("cluster.broadcast_row_s", _S, "lower", "self", "cluster.broadcast_row"),
    ("cluster.broadcast_row_calls", _N, "lower", "calls", "cluster.broadcast_row"),
    ("cluster.gather_s", _S, "lower", "self", "cluster.gather"),
    ("cluster.boundary_words", _N, "lower", "state", ""),
    ("cluster.boundary_rows_sparse", _N, "higher", "state", ""),
    ("cluster.boundary_rows_dense", _N, "lower", "state", ""),
    ("cluster.wire_words", _N, "lower", "state", ""),
    ("worker.load_subgraph_s", _S, "lower", "self", "worker.load_subgraph"),
    ("worker.build_payload_s", _S, "lower", "self", "worker.build_payload"),
    ("worker.receive_rows_s", _S, "lower", "self", "worker.receive_rows"),
    ("worker.relax_cut_edges_s", _S, "lower", "self", "worker.relax_cut_edges"),
    ("worker.propagate_local_s", _S, "lower", "self", "worker.propagate_local"),
    ("worker.grow_columns_s", _S, "lower", "self", "worker.grow_columns"),
    ("worker.relax_edge_rows_s", _S, "lower", "self", "worker.relax_edge_rows"),
    ("worker.relax_edge_rows_calls", _N, "lower", "calls", "worker.relax_edge_rows"),
    ("worker.relax_edge_rows_useful_frac", "frac", "higher", "frac",
     "worker.relax_edge_rows"),
    ("kernels.ia_s", _S, "lower", "self", "kernels.ia"),
    ("kernels.relax_cut_s", _S, "lower", "self", "kernels.relax_cut"),
    ("kernels.minplus_fold_s", _S, "lower", "self", "kernels.minplus_fold"),
    ("kernels.minplus_fold_calls", _N, "lower", "calls", "kernels.minplus_fold"),
    ("kernels.minplus_fold_useful_frac", "frac", "higher", "frac",
     "kernels.minplus_fold"),
    ("backends.run_ia_s", _S, "lower", "self", "backends.run_ia"),
    ("backends.superstep_s", _S, "lower", "self", "backends.superstep"),
    ("backends.close_s", _S, "lower", "self", "backends.close"),
    ("shm.alloc_s", _S, "lower", "self", "shm.alloc"),
    ("shm.alloc_bytes", "bytes", "lower", "count", "shm.alloc_bytes"),
    ("strategies.apply_s", _S, "lower", "self", "strategies.apply"),
    ("strategies.apply_calls", _N, "lower", "calls", "strategies.apply"),
    ("strategies.placement_s", _S, "lower", "self", "strategies.placement"),
    ("strategies.edge_addition_s", _S, "lower", "self", "strategies.edge_addition"),
    ("strategies.edge_addition_calls", _N, "lower", "calls",
     "strategies.edge_addition"),
    ("strategies.edge_deletion_s", _S, "lower", "self", "strategies.edge_deletion"),
    ("strategies.edge_deletion_calls", _N, "lower", "calls",
     "strategies.edge_deletion"),
    ("strategies.policy_choose_s", _S, "lower", "self", "strategies.policy_choose"),
    ("engine.setup_self_s", _S, "lower", "self", "engine.setup"),
    ("engine.run_s", _S, "lower", "incl", "engine.run"),
    ("engine.run_calls", _N, "lower", "calls", "engine.run"),
    ("engine.run_self_s", _S, "lower", "self", "engine.run"),
    ("engine.closeness_readout_s", _S, "lower", "self", "engine.closeness_readout"),
    ("recombination.loop_self_s", _S, "lower", "self", "recombination.loop"),
    ("engine.rc_steps", _N, "lower", "state", ""),
    ("engine.modeled_s", _S, "lower", "state", ""),
    ("serve.feed_s", _S, "lower", "self", "serve.feed"),
    ("serve.step_self_s", _S, "lower", "self", "serve.step"),
    ("serve.drain_s", _S, "lower", "self", "serve.drain"),
    ("serve.ticks", _N, "lower", "state", ""),
    ("serve.batches", _N, "lower", "state", ""),
    ("serve.events_admitted", _N, "higher", "state", ""),
    ("obs.profile_fold_s", _S, "lower", "self", "obs.profile_fold"),
    ("obs.signals_s", _S, "lower", "self", "obs.signals"),
    ("obs.snapshot_s", _S, "lower", "self", "obs.snapshot"),
    # the traced run judged against the untraced iterations of the same run
    ("trace_overhead_frac", "frac", "lower", "run", ""),
    ("trace_coverage_frac", "frac", "higher", "run", ""),
)

#: exact counts: equal on every iteration of a run and every run of a seed
EXACT = tuple(
    name for name, _u, _b, how, _a in PER_LAYER
    if how in ("calls", "count", "state", "frac")
)


def layer_metrics(
    spans: List[sp.Span], counters: Counter, state: Mapping[str, float]
) -> Dict[str, float]:
    """The per-layer metrics of one traced iteration (``run`` rows aside)."""
    own = sp.self_times(spans)
    calls, incl = sp.calls(spans)
    out: Dict[str, float] = {}
    for name, _unit, _better, how, arg in PER_LAYER:
        if how == "self":
            out[name] = own.get(arg, 0.0)
        elif how == "incl":
            out[name] = incl.get(arg, 0.0)
        elif how == "calls":
            out[name] = calls.get(arg, 0)
        elif how == "count":
            out[name] = counters.get(arg, 0)
        elif how == "state":
            out[name] = state[name]
        elif how == "frac":
            n = calls.get(arg, 0)
            out[name] = counters.get(arg + "_useful", 0) / n if n else 0.0
    return out


# ----------------------------------------------------------------------
# summaries and the compare rule
# ----------------------------------------------------------------------
def summarize(values: Sequence[float]) -> Dict[str, Any]:
    """Median, min, max and count of one metric over a set of runs."""
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "k": len(values),
        "values": list(values),
    }


def _spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def verdict(
    metric: EndToEnd, a: Sequence[float], b: Sequence[float]
) -> Tuple[str, float]:
    """Judge runs ``b`` against base runs ``a``: verdict and B/A ratio.

    ``worse``/``better``: the medians differ by more than the bound.
    ``unresolved``: either side's spread is wider than the bound and the
    two sets of runs overlap, so the medians decide nothing.
    """
    med_a, med_b = statistics.median(a), statistics.median(b)
    ratio = med_b / med_a if med_a else float("inf")
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / med_a if med_a else 0.0
    overlap = not (max(b) < min(a) or min(b) > max(a))
    if overlap and max(_spread(a), _spread(b)) > metric.bound:
        return "unresolved", ratio
    small_setup = (
        metric.name == "setup_s"
        and med_a < 5 * SETUP_ABS_FLOOR_S
        and abs(med_b - med_a) <= SETUP_ABS_FLOOR_S
    )
    if worse_by > metric.bound and not small_setup:
        return "worse", ratio
    if worse_by < -metric.bound and not small_setup:
        return "better", ratio
    return "same", ratio


def compare(
    base: Mapping[str, Any], new: Mapping[str, Any]
) -> List[Dict[str, Any]]:
    """One row per (metric, workload) measured natively on both sides."""
    rows: List[Dict[str, Any]] = []
    for workload, b_wl in new["workloads"].items():
        a_wl = base["workloads"].get(workload)
        if a_wl is None:
            continue
        for metric in END_TO_END:
            if workload not in metric.native:
                continue
            a: Optional[Dict[str, Any]] = a_wl["end_to_end"].get(metric.name)
            b: Optional[Dict[str, Any]] = b_wl["end_to_end"].get(metric.name)
            if a is None or b is None:
                continue
            what, ratio = verdict(metric, a["values"], b["values"])
            if b_wl["ops_failed"] > a_wl["ops_failed"]:
                what = "worse"  # a failed op misses every bound
            rows.append({
                "metric": metric.name,
                "workload": workload,
                "unit": metric.unit,
                "bound": metric.bound,
                "verdict": what,
                "ratio": ratio,
                "base": {k: a[k] for k in ("median", "min", "max", "k")},
                "new": {k: b[k] for k in ("median", "min", "max", "k")},
            })
    return rows
