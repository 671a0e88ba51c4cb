"""The five e2e workloads: inputs from a seed, one timed iteration, checks.

The benchmark owns its inputs: :func:`generate` builds them from the
seed and the program under test only ever sees the generated graph and
events.  One *iteration* is a fresh engine taken from construction to a
result in hand; :func:`run_iteration` times it with ``perf_counter`` and
nothing else — answer checks and counter reads happen after the clock
stops.

Why these five, and what each must *not* show, is in ``README.md``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import AnytimeAnywhereCloseness, AnytimeConfig
from repro.bench import community_workload
from repro.centrality import exact_closeness, sssp_dijkstra
from repro.graph import Graph, barabasi_albert
from repro.graph.changes import ChangeStream
from repro.serve import (
    HybridAdmission,
    UpdateService,
    batch_to_events,
    events_to_batch,
    synthesize_churn,
)

__all__ = ["WORKLOADS", "Spec", "Inputs", "Iteration", "generate", "run_iteration"]


@dataclass(frozen=True)
class Spec:
    """One workload: engine configuration and what the traced run keys on."""

    name: str
    why: str
    nprocs: int
    backend: str = "serial"
    kernel_tier: str = "numpy"
    #: the span whose entry starts a new tick / RC step in the trace
    tick_span: str = "cluster.exchange"
    #: the end-to-end time the layer self times are shares of
    primary: str = "converge_s"


WORKLOADS: Dict[str, Spec] = {
    s.name: s
    for s in (
        Spec(
            "static-solve",
            "RC kernel: setup()+run() to convergence, >=90% in the min-plus"
            " fold; bypasses strategies and serve",
            nprocs=2,
        ),
        Spec(
            "static-pool",
            "the same problem through the process backend, shm and the scipy"
            " tier; twin of static-solve",
            nprocs=2,
            backend="process",
            kernel_tier="scipy",
        ),
        Spec(
            "setup-large",
            "DD + DV allocation + IA only (partition, install, to_csr,"
            " Dijkstra); no RC, no strategies",
            nprocs=4,
            primary="setup_s",
        ),
        Spec(
            "batch-add",
            "the paper's case: one 10% community batch injected mid-RC under"
            " CutEdge-PS; edge-row relax dominates",
            nprocs=4,
        ),
        Spec(
            "serve-churn",
            "many <=6-event batches with deletions and reweights through"
            " UpdateService(auto), closed loop, one client",
            nprocs=4,
            tick_span="serve.feed",
        ),
    )
}

#: graph sizes per scale; ``warm`` is the untimed 50-vertex warm-up that
#: pulls in lazy imports (and forks the pool) before anything is timed
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {"static": 1000, "setup": 3600, "batch": (700, 70), "serve": (300, 120)},
    "smoke": {"static": 160, "setup": 400, "batch": (150, 15), "serve": (80, 24)},
    "warm": {"static": 50, "setup": 50, "batch": (50, 8), "serve": (50, 6)},
}

#: DV rows checked against Dijkstra on setup-large (no full gather)
CHECK_ROWS = 64
CLOSENESS_RTOL = 1e-9


@dataclass
class Inputs:
    spec: Spec
    base: Graph
    #: the graph after every change, for the answer check
    final: Graph
    stream: Optional[ChangeStream] = None
    #: serve-churn: the events arriving at each tick
    per_tick: List[list] = field(default_factory=list)
    #: setup-large: the vertices whose DV rows are checked
    check_vertices: List[int] = field(default_factory=list)
    input_hash: str = ""
    #: input items the drive phase absorbs (see ``events_per_s``)
    items: int = 0


@dataclass
class Iteration:
    """What one timed iteration measured and produced."""

    setup_s: float
    converge_s: float
    #: ``perf_counter`` reading when the result was in hand
    ended: float
    #: time of the drive loop ``events_per_s`` divides by
    feed_s: float
    tick_ms: List[float]
    ops: int
    converged: bool
    closeness: Dict[int, float]
    #: setup-large: sampled DV rows and the column order they use
    rows: Dict[int, np.ndarray]
    columns: Sequence[int]
    #: exact counters read after the clock stopped
    counts: Dict[str, float]


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def _hash_inputs(base: Graph, events: Sequence[Tuple[int, Any]]) -> str:
    h = hashlib.sha256()
    for u, v, w in sorted((min(u, v), max(u, v), w) for u, v, w in base.edges()):
        h.update(f"{u} {v} {w!r}\n".encode())
    for when, event in events:
        h.update(f"{when} {event!r}\n".encode())
    return h.hexdigest()


def generate(spec: Spec, seed: int, scale: str = "full") -> Inputs:
    """Build ``spec``'s inputs from ``seed`` (same seed, same inputs)."""
    sizes = SIZES[scale]
    if spec.name in ("static-solve", "static-pool"):
        base = barabasi_albert(sizes["static"], 3, seed=seed)
        inp = Inputs(spec, base, base, items=base.num_vertices)
        events: List[Tuple[int, Any]] = []
    elif spec.name == "setup-large":
        base = barabasi_albert(sizes["setup"], 3, seed=seed)
        picks = random.Random(seed).sample(
            sorted(base.vertices()), min(CHECK_ROWS, base.num_vertices)
        )
        inp = Inputs(
            spec, base, base, check_vertices=picks, items=base.num_vertices
        )
        events = []
    elif spec.name == "batch-add":
        n_base, n_new = sizes["batch"]
        wl = community_workload(n_base, n_new, seed=seed, inject_step=2)
        inp = Inputs(spec, wl.base, wl.final, stream=wl.stream, items=n_new)
        events = [
            (step, ev) for step, batch in wl.stream for ev in batch_to_events(batch)
        ]
    elif spec.name == "serve-churn":
        n_base, ticks = sizes["serve"]
        trace = synthesize_churn(
            "steady-small", n_base=n_base, ticks=ticks, seed=seed
        )
        final = trace.base.copy()
        for _tick, event in trace.events:
            events_to_batch([event]).apply_to(final)
        per_tick: List[list] = [[] for _ in range(trace.ticks)]
        for tick, event in trace.events:
            per_tick[tick].append(event)
        inp = Inputs(
            spec, trace.base, final, per_tick=per_tick, items=trace.num_events
        )
        events = list(trace.events)
    else:
        raise KeyError(spec.name)
    inp.input_hash = _hash_inputs(inp.base, events)
    return inp


# ----------------------------------------------------------------------
# one timed iteration
# ----------------------------------------------------------------------
def run_iteration(inp: Inputs) -> Iteration:
    """Fresh engine -> result in hand, timed; the engine is closed after.

    ``setup_s`` is engine construction + ``setup()`` (DD, IA, backend and
    shm start); ``converge_s`` runs from there to the result being held.
    """
    spec = inp.spec
    config = AnytimeConfig(
        nprocs=spec.nprocs,
        backend=spec.backend,
        kernel_tier=spec.kernel_tier,
        collect_snapshots=False,
    )
    t0 = perf_counter()
    engine = AnytimeAnywhereCloseness(inp.base, config)
    try:
        engine.setup()
        service = None
        if spec.name == "serve-churn":
            service = UpdateService(
                engine,
                strategy="auto",
                admission=HybridAdmission(max_events=6, max_delay_ticks=3),
            )
        t1 = perf_counter()

        tick_ms: List[float] = []
        rows: Dict[int, np.ndarray] = {}
        ops, converged = 1, True
        if service is not None:
            # closed loop, one client: the next tick is sent when this
            # one has returned
            for events in inp.per_tick:
                a = perf_counter()
                service.feed(events)
                service.step()
                tick_ms.append((perf_counter() - a) * 1e3)
            t_feed = perf_counter()
            result = service.drain()
            t2 = perf_counter()
            closeness, converged = result.closeness, result.converged
            ops = len(inp.per_tick) + 1
        elif spec.name == "setup-large":
            closeness = engine.current_closeness()
            t_feed = t2 = perf_counter()
        else:
            if inp.stream is not None:
                result = engine.run(changes=inp.stream, strategy="cutedge")
            else:
                result = engine.run()
            t_feed = t2 = perf_counter()
            closeness, converged = result.closeness, result.converged

        cluster = engine.cluster
        assert cluster is not None
        for v in inp.check_vertices:
            rows[v] = cluster.worker_owning(v).dv_row(v).copy()
        dd = cluster.tracer.phases("domain_decomposition")
        counts: Dict[str, float] = {
            "partition.edge_cut": dd[0].info["edge_cut"],
            "cluster.boundary_words": cluster.boundary_words,
            "cluster.boundary_rows_sparse": cluster.boundary_rows_sparse,
            "cluster.boundary_rows_dense": cluster.boundary_rows_dense,
            "cluster.wire_words": cluster.tracer.total_words,
            "engine.rc_steps": engine.next_step,
            "engine.modeled_s": engine.modeled_seconds,
            "serve.ticks": service.tick if service else 0,
            "serve.batches": service.batches_formed if service else 0,
            "serve.events_admitted": service.events_admitted if service else 0,
        }
        columns = list(cluster.index.ids)
    finally:
        engine.close()
    return Iteration(
        setup_s=t1 - t0,
        converge_s=t2 - t1,
        ended=t2,
        feed_s=t_feed - t1,
        tick_ms=tick_ms,
        ops=ops,
        converged=converged,
        closeness=closeness,
        rows=rows,
        columns=columns,
        counts=counts,
    )


# ----------------------------------------------------------------------
# answer checks (never inside the timed region)
# ----------------------------------------------------------------------
class AnswerCheck:
    """The reference answer of one input, computed once per run."""

    def __init__(self, inp: Inputs) -> None:
        self.inp = inp
        self._exact: Optional[Dict[int, float]] = None
        #: true distances from a checked vertex, in DV column order
        self._truth: Dict[int, np.ndarray] = {}

    def errors(self, it: Iteration) -> List[str]:
        """Why this iteration's answer is wrong (empty = correct)."""
        out: List[str] = []
        if not it.converged:
            out.append("run did not converge")
        if self.inp.spec.name == "setup-large":
            out.extend(self._check_rows(it))
        else:
            out.extend(self._check_closeness(it.closeness))
        return out

    def _check_closeness(self, got: Dict[int, float]) -> List[str]:
        if self._exact is None:
            self._exact = exact_closeness(self.inp.final)
        want = self._exact
        if got.keys() != want.keys():
            return [f"closeness covers {len(got)} vertices, expected {len(want)}"]
        worst = max(
            (abs(got[v] - want[v]) / max(abs(want[v]), 1e-300) for v in want),
            default=0.0,
        )
        if not worst <= CLOSENESS_RTOL:
            return [f"closeness off by {worst:.3e} relative (> {CLOSENESS_RTOL})"]
        return []

    def _check_rows(self, it: Iteration) -> List[str]:
        """IA-only DVs are anytime upper bounds: >= the true distance
        everywhere, 0 on the diagonal."""
        out: List[str] = []
        for v, row in it.rows.items():
            if v not in self._truth:
                dist = sssp_dijkstra(self.inp.final, v)
                self._truth[v] = np.array([dist[u] for u in it.columns])
            truth = self._truth[v]
            if row.shape != truth.shape or not np.all(row >= truth):
                out.append(f"DV row of vertex {v} is below the true distances")
            elif row[it.columns.index(v)] != 0.0:
                out.append(f"DV row of vertex {v} has a non-zero diagonal")
        if len(it.rows) != len(self.inp.check_vertices):
            out.append("sampled DV rows are missing")
        if len(it.closeness) != self.inp.final.num_vertices:
            out.append("closeness read-out does not cover every vertex")
        return out


def closeness_digest(closeness: Dict[int, float]) -> str:
    """Bit-exact fingerprint of a closeness map."""
    h = hashlib.sha256()
    for v in sorted(closeness):
        h.update(f"{v} {float(closeness[v]).hex()}\n".encode())
    return h.hexdigest()
