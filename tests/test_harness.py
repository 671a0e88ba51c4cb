"""One differential harness over op stream x strategy x backend x wire
format x fault plan x budget: the paper's promise (PAPER.md §1) that any
batch on any rank still converges to exact closeness, and that an
interrupted run's distances are upper bounds.  :func:`check` holds a
:class:`Scenario` to one oracle stack — around every superstep
(:class:`Monitor`), after every edge batch (at most the per-edge
sequence of ``tests/edge_reference.py``), at the end of each run, and
against its twins:
``serial`` ≡ ``process``, ``dense`` ≡ ``delta``, a budgeted run resumed ≡
the uninterrupted one, :class:`UpdateService` tick by tick ≡ an engine fed
one paced step at a time; no ``process`` run leaves a shared-memory
segment behind.  The fixed ``@example`` inputs together take every path in
:data:`PATHS`.  A new strategy, kernel path, wire feature or fault feature
adds an axis value or an ``@example`` here, not a differential file.
"""

from __future__ import annotations

import dataclasses
import struct
from contextlib import ExitStack, contextmanager
from multiprocessing.shared_memory import SharedMemory
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.runtime.kernels.oracle as oracle
from repro import AnytimeAnywhereCloseness, AnytimeConfig, ChangeStream
from repro import HealthPolicy, ResilienceConfig
from repro.centrality import apsp_dijkstra, exact_closeness
from repro.core.strategies import CompositeStrategy, DynamicStrategy
from repro.core.strategies import PolicyDrivenStrategy, RebalancedStrategy
from repro.core.strategies import RoundRobinPS, VertexAdditionStrategy
from repro.core.strategies import edge_addition, edge_deletion, vertex_addition
from repro.errors import ChangeStreamError
from repro.graph import ChangeBatch, Graph, barabasi_albert, random_weights
from repro.graph.changes import EdgeAddition, EdgeDeletion, EdgeReweight
from repro.graph.changes import VertexAddition, VertexDeletion
from repro.partition import MultilevelPartitioner
from repro.runtime import Cluster, check_cluster_invariants, worker
from repro.runtime.backends.base import ExecutionBackend
from repro.runtime.backends.process import ProcessBackend
from repro.runtime.chaos import RECOVERY_POLICIES, FaultPlan
from repro.runtime.shm import SharedMemoryAllocator
from repro.serve import UpdateService

from . import edge_reference as reference
from .graph.test_changes import INVALID

STRATEGIES = (
    "cutedge", "roundrobin", "leastloaded", "repartition", "auto", "rebalanced"
)
FLIP = {"serial": "process", "process": "serial", "delta": "dense", "dense": "delta"}


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One point of the axis product.  ``ticks[i]`` lands at RC step
    ``start + i``; ``budget`` is the ``step_budget`` of a first call that
    the run resumes from (``None``: one call)."""

    edges: Tuple[Tuple[int, int, float], ...]
    ticks: Tuple[Optional[ChangeBatch], ...] = ()
    start: int = 1
    nprocs: int = 3
    seed: int = 0
    strategy: str = "auto"
    threshold: float = 0.2
    backend: str = "serial"
    wire: str = "delta"
    resilience: Optional[ResilienceConfig] = None
    health: Optional[HealthPolicy] = None
    budget: Optional[int] = None
    #: intra-rank edge additions join their rank bare: its structure
    #: only, with no DV row relaxed through them (:func:`join_bare`)
    bare: bool = False

    @property
    def graph(self) -> Graph:
        vertices = sorted({v for e in self.edges for v in e[:2]})
        return Graph.from_edges(self.edges, vertices)

    @property
    def final(self) -> Graph:
        g = self.graph
        for batch in filter(None, self.ticks):
            batch.apply_to(g)
        return g

    @property
    def schedule(self) -> List[Optional[ChangeBatch]]:
        """The batch of each RC step from step 0 (``None``: no batch)."""
        return [None] * self.start + list(self.ticks)

    @property
    def plan(self) -> Optional[FaultPlan]:
        return self.resilience.fault_plan if self.resilience else None


# ----------------------------------------------------------------------
# drawing scenarios
# ----------------------------------------------------------------------
WEIGHTS = {
    "unit": st.just(1.0),
    "integer": st.integers(1, 9).map(float),
    "float": st.integers(25, 900).map(lambda c: c / 100),
}
OPS = ("add-edge", "add-vertex", "delete-edge", "reweight", "delete-vertex")
FAULTS = ("none", "crash", "loss", "straggler")


@st.composite
def connected_graphs(draw, weight=WEIGHTS["integer"], min_n=4, max_n=24):
    """A connected weighted graph: a random tree plus random extra edges."""
    n = draw(st.integers(min_n, max_n))
    g = Graph()
    g.add_vertex(0)
    for v in range(1, n):
        g.add_vertex(v)
        g.add_edge(v, draw(st.integers(0, v - 1)), draw(weight))
    for _ in range(draw(st.integers(0, n))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v, draw(weight))
    return g


@st.composite
def batches(draw, g: Graph, weight, next_id: int, ops=OPS) -> ChangeBatch:
    """A tick of 1-4 ``ops`` against ``g`` (left as the graph after it),
    drawn in the order the strategies apply them — additions, edge
    deletions, reweights, vertex deletions — so a batch may delete what it
    adds."""
    batch = ChangeBatch()
    kinds = draw(st.lists(st.sampled_from(ops), min_size=1, max_size=4))
    for kind in sorted(kinds, key=OPS.index):
        vertices = g.vertex_list()
        if kind == "add-vertex":
            ends = draw(st.sets(st.sampled_from(vertices), min_size=1, max_size=2))
            edges = tuple((t, draw(weight)) for t in sorted(ends))
            batch.vertex_additions.append(VertexAddition(next_id, edges))
            g.add_vertex(next_id)
            for t, w in edges:
                g.add_edge(next_id, t, w)
            next_id += 1
        elif kind == "add-edge":
            absent = [
                (u, v) for u in vertices for v in vertices
                if u < v and not g.has_edge(u, v)
            ]
            if absent:
                ea = EdgeAddition(*draw(st.sampled_from(absent)), draw(weight))
                batch.edge_additions.append(ea)
                g.add_edge(ea.u, ea.v, ea.weight)
        elif kind == "delete-vertex":
            if len(vertices) > 3:
                batch.vertex_deletions.append(VertexDeletion(draw(st.sampled_from(vertices))))
                g.remove_vertex(batch.vertex_deletions[-1].vertex)
        elif g.num_edges:
            u, v, w = draw(st.sampled_from(g.edge_list()))
            if kind == "delete-edge":
                batch.edge_deletions.append(EdgeDeletion(u, v))
                g.remove_edge(u, v)
            else:  # up or down, on the weight grid or off it
                w *= draw(st.sampled_from((0.5, 2.0, 3.0)))
                batch.edge_reweights.append(EdgeReweight(u, v, w))
                g.add_edge(u, v, w)
    return batch


@st.composite
def fault_plans(draw, nprocs: int, kinds=FAULTS):
    """``(resilience, health)`` of one of ``kinds``: none, crashes under a
    recovery policy, loss and duplication, or a straggler under
    speculation."""
    kind = draw(st.sampled_from(kinds))
    seed = draw(st.integers(0, 2**16))
    if kind == "loss":
        plan = FaultPlan(
            seed=seed, loss_prob=draw(st.sampled_from((0.1, 0.3))),
            dup_prob=draw(st.sampled_from((0.0, 0.1))),
        )
        return ResilienceConfig(fault_plan=plan), None
    if kind == "straggler":
        plan = FaultPlan(stragglers=((draw(st.integers(0, nprocs - 1)), 8.0),))
        return ResilienceConfig(fault_plan=plan), HealthPolicy(speculate=True)
    if kind == "none":
        return None, None
    recovery = draw(st.sampled_from(RECOVERY_POLICIES))
    ranks = nprocs - 1 if recovery == "redistribute" else nprocs  # one takes over
    crash = st.tuples(st.integers(0, 5), st.integers(0, ranks - 1))
    plan = FaultPlan(
        seed=seed, loss_prob=draw(st.sampled_from((0.0, 0.1))),
        crashes=tuple(draw(st.lists(crash, min_size=1, max_size=3, unique=True))),
    )
    health = None
    if recovery == "escalate":
        health = HealthPolicy(crash_budget=draw(st.integers(1, 3)))
    resilience = ResilienceConfig(
        fault_plan=plan, recovery=recovery, checkpoint_interval=2
    )
    return resilience, health


@st.composite
def scenarios(
    draw,
    ops=OPS,
    faults=FAULTS,
    ticks=st.integers(0, 4),
    nprocs=st.integers(1, 4),
    strategy=st.sampled_from(STRATEGIES),
    threshold=st.sampled_from((0.0, 0.2, 0.5)),
    budget=st.none() | st.integers(1, 4),
    backend=st.sampled_from(("serial", "process")),
    min_n=4,
    max_n=24,
) -> Scenario:
    """A point of the axis product.  Each argument is one axis's draw; a
    named property narrows some to a slice (say, only vertex additions
    under crash plans)."""
    weight = WEIGHTS[draw(st.sampled_from(sorted(WEIGHTS)))]
    graph = draw(connected_graphs(weight, min_n, max_n))
    g, drawn = graph.copy(), []
    for _ in range(draw(ticks)):
        next_id = graph.num_vertices + 4 * len(drawn)
        drawn.append(draw(batches(g, weight, next_id, ops)))
    n = draw(nprocs)
    resilience, health = draw(fault_plans(n, faults)) if n > 1 else (None, None)
    return Scenario(
        tuple(graph.edge_list()), tuple(drawn), start=draw(st.integers(0, 3)),
        nprocs=n, seed=draw(st.integers(0, 3)), strategy=draw(strategy),
        threshold=draw(threshold),
        backend=draw(backend),
        wire=draw(st.sampled_from(("delta", "dense"))),
        resilience=resilience, health=health, budget=draw(budget),
        bare=draw(st.booleans()),
    )


# ----------------------------------------------------------------------
# the oracle stack
# ----------------------------------------------------------------------
class Monitor:
    """Around every superstep: every DV entry lowered since the last fold
    is marked for the next; then :func:`check_cluster_invariants`, DV at
    least the exact distance, and no entry risen since the last batch that
    may raise one.  A row is keyed by vertex and rank: a migrated row has
    no history, nor has a rank that crashes."""

    def __init__(self, crashed: Set[int]) -> None:
        self.crashed = sorted(crashed)
        self.graph: Any = None
        self.exact = np.zeros((0, 0))
        self.prev: Any = None  # (ids, rank, dv) since the last raising batch
        self.folded: Any = None  # (ids, rank, dv) after the last fold

    def watch(self, strategy: DynamicStrategy, bare: bool = False) -> DynamicStrategy:
        apply = strategy.apply

        def apply_and_note(cluster: Cluster, batch: ChangeBatch, step: int) -> None:
            if batch.edge_deletions or batch.edge_reweights or batch.vertex_deletions:
                self.prev = None
            apply(cluster, join_bare(cluster, batch) if bare else batch, step)

        strategy.apply = apply_and_note  # type: ignore[method-assign]
        return strategy

    def read(self, cluster: Cluster, *masks: str) -> Tuple[np.ndarray, ...]:
        """``ids``, the rank of each row, then ``dv`` and the ``masks``
        (attribute names) of every worker, as column-ordered matrices."""
        ids = np.array(cluster.index.ids)
        rank = np.full(ids.size, -1)
        out = [np.full((ids.size, ids.size), np.nan) for _ in ("dv",) + masks]
        for w in cluster.workers:
            rows = cluster.index.columns(w.owned)
            rank[rows] = w.rank
            for array, name in zip(out, ("dv",) + masks):
                array[rows] = getattr(w, name)  # row r holds owned[r]
        return (ids, rank, *out)

    def common(self, now: Tuple[np.ndarray, ...], then: Tuple[np.ndarray, ...]):
        """Index pairs of the rows (same rank, never crashed) and columns
        ``now`` and ``then`` share."""
        _, i, j = np.intersect1d(now[0], then[0], return_indices=True)
        keep = (now[1][i] == then[1][j]) & ~np.isin(now[1][i], self.crashed)
        return np.ix_(i[keep], i), np.ix_(j[keep], j)

    def before_fold(self, cluster: Cluster) -> None:
        """Every entry lowered since the last fold is in ``dv_changed``
        (pushed), unless its rank has a full fold pending (which
        re-derives the whole block)."""
        if self.folded is None:
            return
        now = self.read(cluster, "dv_changed")
        marked = now[3] == 1
        for w in cluster.workers:
            marked[cluster.index.columns(w.owned)] |= w._full_repropagate
        a, b = self.common(now, self.folded)
        # a rebuilt local APSP may sum float paths in another order: check 9's rtol
        lowered = now[2][a] < self.folded[2][b] * (1 - 1e-12)
        assert not lowered[~marked[a]].any(), "a lowered entry is unmarked"

    def __call__(self, cluster: Cluster) -> None:
        check_cluster_invariants(cluster)
        graph = cluster.graph.edge_list(), list(cluster.index.ids)
        if graph != self.graph:  # the distances of the current graph
            self.graph = graph
            self.exact = apsp_dijkstra(cluster.graph, order=graph[1])[0]
        now = self.read(cluster)
        # an upper bound on the current graph (float sums may round an ulp low)
        assert not (now[2] < self.exact * (1 - 1e-12)).any(), "a DV entry below exact"
        if self.prev is not None:
            a, b = self.common(now, self.prev)
            assert not (now[2][a] > self.prev[2][b]).any(), "a DV entry rose"
        self.prev = self.folded = now


def join_bare(cluster: Cluster, batch: ChangeBatch) -> ChangeBatch:
    """Add ``batch``'s intra-rank edges to the graph and their rank's
    structure (local graph and APSP) only, relaxing no DV row through
    them — neither the edge batch's relaxation nor ``add_local_edge``'s
    own — so that the fold the rank asks for must bring them in.  Returns
    the rest of the batch, for the strategy."""
    owner = cluster.partition.assignment
    rest = []
    for ea in batch.edge_additions:
        rank = owner.get(ea.u)
        if rank is None or rank != owner.get(ea.v):
            rest.append(ea)
        elif not cluster.graph.has_edge(ea.u, ea.v) or (
            ea.weight < cluster.graph.weight(ea.u, ea.v)
        ):
            cluster.graph.add_edge(ea.u, ea.v, ea.weight)
            relax = mock.patch.object(
                worker.Worker, "_relax_dv_with_local_edge", lambda *_: None
            )
            with relax:
                cluster.workers[rank].add_local_edge(ea.u, ea.v, ea.weight)
    return dataclasses.replace(batch, edge_additions=rest)


def within_reference(apply):  # type: ignore[no-untyped-def]
    """``apply_edge_addition`` checked on copies: afterwards, every rank's
    DV is at most the per-edge sequence's (exactly on integer weights)."""

    def checked(cluster: Cluster, edges) -> None:  # type: ignore[no-untyped-def]
        edges = list(edges)
        weights = [w for *_uv, w in cluster.graph.edge_list() + edges]
        exact = all(float(w).is_integer() for w in weights)
        want = reference.reference_blocks(cluster, edges)
        apply(cluster, edges)
        for w, block in zip(cluster.workers, want):
            assert reference.at_most(w.dv, block, exact), "above the per-edge DV"

    return checked


@contextmanager
def audited(crashed: Set[int]) -> Iterator[Monitor]:
    """Run :class:`Monitor` around every superstep of every cluster, and
    hold every edge batch to the per-edge sequence."""
    monitor = Monitor(crashed)
    relax_and_propagate = Cluster.relax_and_propagate

    def wrapped(cluster: Cluster) -> Any:
        monitor.before_fold(cluster)
        improved = relax_and_propagate(cluster)
        monitor(cluster)
        return improved

    with ExitStack() as stack:
        stack.enter_context(
            mock.patch.object(Cluster, "relax_and_propagate", wrapped)
        )
        for module in (edge_addition, vertex_addition, edge_deletion):
            stack.enter_context(mock.patch.object(
                module, "apply_edge_addition",
                within_reference(module.apply_edge_addition),
            ))
        yield monitor


def _segment_exists(name: str) -> bool:
    try:
        SharedMemory(name=name).close()
    except FileNotFoundError:
        return False
    return True


@contextmanager
def engine_for(s: Scenario, backend: str, wire: str, **config: Any):
    """A set-up engine inside its ``with`` block; once the block exits,
    every shared-memory segment the run created must be gone."""
    created: List[str] = []
    empty = SharedMemoryAllocator.empty

    def recording(self, shape, dtype=np.float64):  # type: ignore[no-untyped-def]
        arr = empty(self, shape, dtype)
        created.append(self._blocks[id(arr)][0].name)
        return arr

    cfg = AnytimeConfig(
        nprocs=s.nprocs, seed=s.seed, collect_snapshots=False, max_rc_steps=500,
        backend=backend, wire_format=wire, **config,
    )
    try:
        with mock.patch.object(SharedMemoryAllocator, "empty", recording):
            with AnytimeAnywhereCloseness(s.graph, cfg) as engine:
                engine.setup()
                yield engine
    finally:
        assert (backend == "process") == bool(created)
        assert not [n for n in created if _segment_exists(n)], "shm segment leaked"


def strategy_for(s: Scenario, engine: AnytimeAnywhereCloseness) -> DynamicStrategy:
    """The scenario's strategy, routing every event kind (as
    :class:`UpdateService` would wrap it)."""
    if s.strategy == "rebalanced":
        inner = VertexAdditionStrategy(RoundRobinPS())
        return CompositeStrategy(RebalancedStrategy(inner, threshold=s.threshold))
    resolved = engine.resolve_strategy(s.strategy)
    if isinstance(resolved, (CompositeStrategy, PolicyDrivenStrategy)):
        return resolved
    return CompositeStrategy(resolved)  # type: ignore[arg-type]


def bits(closeness: Dict[int, float]) -> bytes:
    return b"".join(struct.pack("<qd", v, c) for v, c in sorted(closeness.items()))


def assert_exact(closeness: Dict[int, float], final: Graph) -> None:
    exact = exact_closeness(final)
    assert closeness.keys() == exact.keys()
    for v, c in exact.items():  # within 1e-9, absolute and relative
        assert closeness[v] == pytest.approx(c, abs=1e-9), f"vertex {v}"
        assert closeness[v] == pytest.approx(c, rel=1e-9), f"vertex {v}"


@dataclasses.dataclass
class Outcome:
    result: Any
    clock: Tuple[bytes, int, str]  # closeness bits, rc_steps, hex modeled clock
    trace: List[Dict[str, Any]]

    @property
    def pin(self) -> Tuple[Any, ...]:
        """What must not depend on the backend, bit for bit."""
        summary = self.result.summary()
        summary.pop("wall_seconds")
        return self.clock, tuple(self.result.fault_events), summary, self.trace


def run(
    s: Scenario, backend: str, wire: str, budget: Optional[int], **config: Any
) -> Outcome:
    """One audited run of ``s`` (``config``: more :class:`AnytimeConfig`
    fields), in one call or a ``step_budget`` call resumed to the end;
    exact unless degraded."""
    crashed = {r for _step, r in s.plan.crashes} if s.plan else set()
    engine_cm = engine_for(s, backend, wire, health=s.health, **config)
    with audited(crashed) as monitor, engine_cm as engine:
        kwargs = dict(
            changes=ChangeStream({i: b for i, b in enumerate(s.schedule) if b}),
            strategy=monitor.watch(strategy_for(s, engine), s.bare),
            resilience=s.resilience,
        )
        steps, result = 0, None
        if budget is not None:
            result = engine.run(step_budget=budget, **kwargs)  # type: ignore[arg-type]
            steps = result.rc_steps
        # resume only what the budget cut: a run that ended on its own
        # has already paid its termination vote
        if result is None or (result.rc_steps == budget and not result.degraded):
            result = engine.run(**kwargs)  # type: ignore[arg-type]
            steps += result.rc_steps
        monitor(engine.cluster)
        records = engine.cluster.tracer.to_json()["records"]
        trace = [{k: v for k, v in r.items() if k != "wall_seconds"} for r in records]
        graph = engine.cluster.graph.edge_list()
    if result.degraded:
        reasons = ("crash-budget", "dead-fraction", "retry-budget")
        assert result.degraded_reason in reasons and not result.converged
        assert 0.0 <= result.quality["finite_fraction"] <= 1.0
        assert any("kind=degraded" in line for line in result.fault_events)
    else:
        assert result.converged and graph == s.final.edge_list()
        assert_exact(result.closeness, s.final)
    clock = bits(result.closeness), steps, result.modeled_seconds.hex()
    return Outcome(result, clock, trace)


def served(s: Scenario, per_tick_engine: bool) -> Tuple[bytes, int, str]:
    """The fault-free stream through :class:`UpdateService` — one batch
    flushed per tick, then drained — or through a bare engine fed the
    same batches one ``step_budget=1`` call at a time."""
    with audited(set()) as monitor, engine_for(s, s.backend, s.wire) as engine:
        strategy = monitor.watch(strategy_for(s, engine), s.bare)
        if per_tick_engine:
            steps = 0
            for batch in s.schedule:
                changes = ChangeStream({engine.next_step: batch}) if batch else None
                tick = engine.run(changes=changes, strategy=strategy, step_budget=1)
                steps += tick.rc_steps
            result = engine.run(strategy=strategy)
            steps += result.rc_steps
        else:
            service = UpdateService(engine, strategy=strategy)
            for batch in s.schedule:
                if batch:
                    service.feed(batch)
                    service.flush()
                else:
                    service.step()
            result = service.drain()
            steps = service.rc_steps_total
    assert_exact(result.closeness, s.final)
    return bits(result.closeness), steps, result.modeled_seconds.hex()


def check(s: Scenario) -> None:
    """The oracle stack over ``s`` and its twins."""
    main = run(s, s.backend, s.wire, s.budget)
    twin = run(s, FLIP[s.backend], s.wire, s.budget)
    if s.health and s.health.speculate and s.plan and s.plan.stragglers:
        assert twin.clock[0] == main.clock[0]  # speculation moves the clock
    else:
        assert twin.pin == main.pin
    other = run(s, s.backend, FLIP[s.wire], s.budget)
    delta, dense = (main, other) if s.wire == "delta" else (other, main)
    assert delta.clock[0] == dense.clock[0] and dense.result.boundary_rows_sparse == 0
    # lost, duplicated and failed sends are drawn per packet, and the two
    # wires send different packets: their retries are not comparable
    if not (s.plan and s.plan.has_message_faults):
        words = delta.result.boundary_words, dense.result.boundary_words
        if delta.result.boundary_rows_sparse:
            assert words[0] < words[1]
        else:
            assert words[0] == words[1]
    if s.budget is not None and s.plan is None:
        assert run(s, s.backend, s.wire, None).clock == main.clock
    assert served(s, per_tick_engine=False) == served(s, per_tick_engine=True)


# ----------------------------------------------------------------------
# the paths the fixed examples must take
# ----------------------------------------------------------------------
PATHS = (
    "fold:closure", "fold:push", "fold:rectangle",
    "ia:sweep", "ia:dial", "ia:dijkstra", "edge:old-endpoint", "edge:new-endpoint",
    "edge:reweight",
    "speculated-repair",
)


@contextmanager
def paths_taken() -> Iterator[Set[str]]:
    """The :data:`PATHS` taken in this process inside the block (not in
    pool children: every scenario runs on ``serial`` too)."""
    taken: Set[str] = set()

    def spy(fn, path, when=lambda *args: True):  # type: ignore[no-untyped-def]
        def wrapped(*args, **kwargs):  # type: ignore[no-untyped-def]
            if when(*args):
                taken.add(path)
            return fn(*args, **kwargs)
        return wrapped

    def relax_edges(dv, changed, dirty, cols, closure, rows):  # type: ignore[no-untyped-def]
        # an old endpoint's row is finite beyond its own column; a vertex
        # added in this batch knows only itself
        beyond = np.isfinite(rows).sum(axis=1) > 1
        taken.update(["edge:old-endpoint"] if beyond.any() else [])
        taken.update(["edge:new-endpoint"] if not beyond.all() else [])
        return relax_edge_batch(dv, changed, dirty, cols, closure, rows)

    def lowers_a_weight(cluster, edges) -> bool:  # type: ignore[no-untyped-def]
        if len(edges) != 1:  # a reweight down is a one-edge batch
            return False
        u, v, w = edges[0]
        return cluster.graph.has_edge(u, v) and w < cluster.graph.weight(u, v)

    def level_sweep(*args):  # type: ignore[no-untyped-def]
        done = sweep(*args)
        taken.update(["ia:sweep"] if done else [])
        return done

    def dial_rows(*args):  # type: ignore[no-untyped-def]
        done = dial(*args)
        taken.update(["ia:dial"] if done else [])
        return done

    def repair(backend):  # type: ignore[no-untyped-def]
        return spy(
            backend.run_speculative, "speculated-repair",
            lambda _backend, task, *_: task.full_repropagate,
        )

    relax_edge_batch = worker.relax_edge_batch_kernel
    sweep, dial = oracle._level_sweep, oracle._dial_rows
    patches = [
        (oracle, "minplus_closure", spy(oracle.minplus_closure, "fold:closure")),
        (oracle, "minplus_fold_changed", spy(oracle.minplus_fold_changed, "fold:push")),
        (oracle, "minplus_fold", spy(oracle.minplus_fold, "fold:rectangle")),
        (oracle, "dijkstra_rows", spy(oracle.dijkstra_rows, "ia:dijkstra")),
        (oracle, "_level_sweep", level_sweep),
        (oracle, "_dial_rows", dial_rows),
        (worker, "relax_edge_batch_kernel", relax_edges),
        (edge_deletion, "apply_edge_addition", spy(
            edge_deletion.apply_edge_addition, "edge:reweight", lowers_a_weight)),
        (ExecutionBackend, "run_speculative", repair(ExecutionBackend)),
        (ProcessBackend, "run_speculative", repair(ProcessBackend)),
    ]
    with ExitStack() as stack:
        for owner, name, value in patches:
            stack.enter_context(mock.patch.object(owner, name, value))
        yield taken


def assert_backend_invariant(s: Scenario) -> None:
    """Fault-free, ``s`` gives the same bits on ``serial`` and ``process``;
    with rank 1 straggling 8x under speculation it gives the same closeness
    on either, and each such run speculated a deletion repair."""
    plain = dataclasses.replace(s, resilience=None, health=None, budget=None)
    want = run(plain, "serial", s.wire, None)
    assert run(plain, "process", s.wire, None).pin == want.pin
    straggler = ResilienceConfig(fault_plan=FaultPlan(stragglers=((1, 8.0),)))
    slow = dataclasses.replace(
        plain, resilience=straggler, health=HealthPolicy(speculate=True)
    )
    for backend in ("serial", "process"):
        with paths_taken() as taken:
            got = run(slow, backend, s.wire, None)
        assert got.clock[0] == want.clock[0], backend
        assert got.result.speculations > 0 and "speculated-repair" in taken, backend


# ----------------------------------------------------------------------
# fixed examples
# ----------------------------------------------------------------------
def same_rank_pairs(g: Graph, nprocs: int, seed: int, *, present: bool, rank=None):
    """Pairs ``u < v`` that are (``present``) or are not edges, on one rank
    (``rank``, if given) of the DD partition an engine with ``nprocs``
    ranks and ``seed`` computes."""
    owner = MultilevelPartitioner(seed=seed).partition(g, nprocs).assignment
    return [
        (u, v) for u in sorted(owner) for v in sorted(owner)
        if u < v and owner[u] == owner[v] and g.has_edge(u, v) == present
        and rank in (None, owner[u])
    ]


def ba(n: int, m: int, seed: int, weights=None) -> Graph:  # type: ignore[no-untyped-def]
    """``barabasi_albert`` as a :class:`Scenario` rebuilds it."""
    g = barabasi_albert(n, m, seed=seed)
    return Scenario(tuple((weights(g) if weights else g).edge_list())).graph


def mixed_stream() -> Scenario:
    """Additions, deletions and reweights interleaved, resumed after a
    3-step budget.  Steps 6-9 walk rank 1 through two IA paths: a reweight
    up leaves its unit weights mixed integers, so the rebuild after the
    next deletion takes the Dial sweep; a reweight back returns it to the
    level sweep."""
    base = ba(64, 3, 12)
    edges = [(u, v) for u, v, _w in base.edge_list()]
    absent = [
        (u, v) for u in range(0, 64, 7) for v in range(3, 64, 11)
        if not base.has_edge(u, v)
    ]
    local_absent = same_rank_pairs(base, 4, 5, present=False)
    local = same_rank_pairs(base, 4, 5, present=True)
    rank1 = same_rank_pairs(base, 4, 5, present=True, rank=1)
    ticks = (
        ChangeBatch(
            edge_deletions=[EdgeDeletion(*edges[5]), EdgeDeletion(*edges[40])],
            edge_additions=[
                EdgeAddition(*absent[0], 1.0), EdgeAddition(*local_absent[3], 1.0),
                EdgeAddition(*local_absent[-5], 2.0),
            ],
        ),
        ChangeBatch(edge_reweights=[
            EdgeReweight(*edges[9], 4.0), EdgeReweight(*edges[70], 0.5),
            EdgeReweight(*local[2], 0.5), EdgeReweight(*local[-2], 3.0),
        ]),
        ChangeBatch(
            edge_additions=[EdgeAddition(*p, 1.0) for p in local_absent[40:240:50]]
        ),
        ChangeBatch(vertex_additions=[VertexAddition(64, ((2, 1.0), (33, 2.0)))]),
        ChangeBatch(
            edge_deletions=[EdgeDeletion(*edges[100])],
            edge_reweights=[EdgeReweight(*absent[0], 6.0)],
            edge_additions=[EdgeAddition(*absent[3], 2.0)],
        ),
        ChangeBatch(edge_reweights=[EdgeReweight(*rank1[0], 3.0)]),
        ChangeBatch(edge_deletions=[EdgeDeletion(*rank1[1])]),
        ChangeBatch(edge_reweights=[EdgeReweight(*rank1[0], 1.0)]),
        ChangeBatch(edge_deletions=[EdgeDeletion(*rank1[2])]),
    )
    return Scenario(
        tuple(base.edge_list()), ticks, nprocs=4, seed=5, backend="process", budget=3
    )


def vertex_deletion_stream() -> Scenario:
    """Vertex deletions (a row and a column leave ``dv`` and every mask)
    between edge deletions, reweights and additions, with rank 1
    straggling under speculation."""
    base = ba(64, 3, 21)
    hub = max(base.vertices(), key=base.degree)
    edges = [(u, v) for u, v, _w in base.edge_list() if hub not in (u, v)]
    leaf = min(base.vertices(), key=base.degree)
    ticks = (
        ChangeBatch(
            vertex_deletions=[VertexDeletion(hub)],
            edge_deletions=[EdgeDeletion(*edges[4])],
        ),
        None,
        ChangeBatch(
            vertex_additions=[VertexAddition(64, edges=((edges[0][0], 1.0),))],
            edge_additions=[EdgeAddition(64, edges[7][1], 3.0)],
        ),
        ChangeBatch(
            vertex_deletions=[VertexDeletion(leaf)],
            edge_reweights=[EdgeReweight(*edges[30], 5.0)],
        ),
    )
    plan = FaultPlan(stragglers=((1, 8.0),))
    return Scenario(
        tuple(base.edge_list()), ticks, nprocs=4, seed=5,
        resilience=ResilienceConfig(fault_plan=plan),
        health=HealthPolicy(speculate=True),
    )


def escalation_regression() -> Scenario:
    """Rank 0's second crash exhausts its budget and abandons it mid-step;
    rank 1's same-step warm recovery then audits the cluster — the
    abandoned block must still be structurally sound (own-diagonal zeros,
    subscription records) for the run to degrade gracefully, not raise."""
    plan = FaultPlan(seed=0, crashes=((0, 0), (1, 0), (1, 1)), max_retries=6)
    return Scenario(
        ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)),
        resilience=ResilienceConfig(
            fault_plan=plan, recovery="escalate", checkpoint_interval=2
        ),
        health=HealthPolicy(crash_budget=1),
    )


def faulty_batch() -> Scenario:
    """Two new vertices and a new edge, then that edge's deletion, placed
    by CutEdge-PS under a crash, loss, duplication and send failures (and
    fault-free, where delta must send fewer words than dense)."""
    ticks = (
        ChangeBatch(
            vertex_additions=[
                VertexAddition(200, ((3, 1.0), (11, 1.0))),
                VertexAddition(201, ((200, 1.0), (0, 1.0))),
            ],
            edge_additions=[EdgeAddition(5, 40)],
        ),
        ChangeBatch(edge_deletions=[EdgeDeletion(5, 40)]),
    )
    plan = FaultPlan(
        seed=11, crashes=((2, 1),), loss_prob=0.15, dup_prob=0.05,
        send_failure_prob=0.05,
    )
    return Scenario(
        tuple(ba(70, 2, 7).edge_list()), ticks, nprocs=4, seed=7,
        strategy="cutedge", backend="process",
        resilience=ResilienceConfig(fault_plan=plan),
    )


def add_and_delete_under_a_crash() -> Scenario:
    """One tick adds an intra-rank edge and deletes another on that rank,
    so the local APSP is rebuilt under a pending full fold, and deletes a
    vertex, whose column leaves ``dv``; on float weights that full fold
    runs the rectangle.  The rank then crashes (checkpoint recovery,
    process backend)."""
    base = ba(40, 3, 3, lambda g: random_weights(g, 0.5, 4.0, seed=3))
    absent = same_rank_pairs(base, 3, 0, present=False, rank=0)
    present = same_rank_pairs(base, 3, 0, present=True, rank=0)
    tick = ChangeBatch(
        edge_additions=[EdgeAddition(*absent[0], 0.3)],
        edge_deletions=[EdgeDeletion(*present[0])],
        vertex_deletions=[VertexDeletion(min(base.vertices(), key=base.degree))],
    )
    resilience = ResilienceConfig(
        fault_plan=FaultPlan.single_crash(3, 0), recovery="checkpoint",
        checkpoint_interval=2,
    )
    return Scenario(
        tuple(base.edge_list()), (tick,), backend="process", resilience=resilience
    )


def bare_local_edges() -> Scenario:
    """Intra-rank edges join their rank bare at RC step 1, before the run
    has converged: only the full fold ``add_local_edge`` asks for brings
    the paths through them into the block."""
    base = ba(64, 3, 12)
    pairs = same_rank_pairs(base, 4, 5, present=False)[::40]
    tick = ChangeBatch(edge_additions=[EdgeAddition(*p, 1.0) for p in pairs])
    return Scenario(tuple(base.edge_list()), (tick,), nprocs=4, seed=5, bare=True)


FIXED = {
    "mixed-stream": mixed_stream(),
    "bare-local-edges": bare_local_edges(),
    "vertex-deletions": vertex_deletion_stream(),
    "escalation-regression": escalation_regression(),
    "faulty-batch": faulty_batch(),
    "add-and-delete-under-a-crash": add_and_delete_under_a_crash(),
}
FIXED["fault-free-batch"] = dataclasses.replace(FIXED["faulty-batch"], resilience=None)
#: the BA(70, 2, 7) graph of ``faulty-batch`` without its batches
STATIC = dataclasses.replace(FIXED["fault-free-batch"], ticks=())
#: streams that converge to a wrong closeness today: a deletion raises
#: ``d(x,u)`` but not ``d(x,t)``, built on a path through ``u``, and a later
#: deletion's witness test, reading ``d(x,u) = inf``, misses ``d(x,t)``
UNSETTLED_RAISES = {
    # in one tick: deleting 1-3 raises d(10, 7) (a tie through it) but
    # not d(10, 2), built on 10-0-7-2; deleting 2-7 then cuts {2, 12, 13} off
    "in-one-tick": Scenario(
        ((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (0, 4, 1.0), (0, 5, 2.0),
         (0, 7, 1.0), (0, 8, 1.0), (0, 10, 3.0), (1, 3, 1.0), (1, 9, 1.0),
         (1, 10, 1.0), (1, 11, 1.0), (2, 7, 1.0), (2, 12, 1.0), (2, 13, 1.0),
         (3, 6, 1.0)),
        (ChangeBatch(edge_deletions=[EdgeDeletion(0, 2)]),
         ChangeBatch(edge_deletions=[EdgeDeletion(1, 3), EdgeDeletion(2, 7)])),
        start=0, nprocs=4, strategy="cutedge",
    ),
    # across ticks: the raise of the tick before is not yet repaired
    "across-ticks": Scenario(
        ((0, 1, 2.0), (0, 2, 1.0), (0, 4, 2.0), (0, 5, 3.0), (0, 7, 1.0),
         (0, 11, 3.0), (1, 3, 3.0), (1, 4, 3.0), (1, 6, 3.0), (1, 12, 1.0),
         (2, 3, 3.0), (2, 11, 3.0), (2, 13, 2.0), (3, 8, 2.0), (5, 7, 1.0),
         (7, 8, 2.0), (7, 9, 3.0), (8, 10, 1.0), (8, 11, 2.0), (10, 13, 3.0)),
        (ChangeBatch(edge_deletions=[EdgeDeletion(7, 8)]),
         ChangeBatch(edge_deletions=[EdgeDeletion(1, 12)])),
        nprocs=4, strategy="cutedge",
    ),
}
SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def fixed_examples(test):  # type: ignore[no-untyped-def]
    for s in FIXED.values():
        test = example(s)(test)
    return test


@pytest.fixture(scope="module")
def fixed_paths() -> Dict[str, Set[str]]:
    """Fixed example name -> the :data:`PATHS` it took."""
    return {}


@settings(max_examples=12, derandomize=True, **SETTINGS)
@given(s=scenarios())
@fixed_examples
def test_harness(fixed_paths: Dict[str, Set[str]], s: Scenario) -> None:
    with paths_taken() as taken:
        check(s)
    name = next((name for name, fixed in FIXED.items() if fixed is s), None)
    if name is not None:
        fixed_paths[name] = taken
        if fixed_paths.keys() == FIXED.keys():
            missing = set(PATHS).difference(*fixed_paths.values())
            assert not missing, f"no fixed example took {sorted(missing)}"


@pytest.mark.slow
@settings(max_examples=400, **SETTINGS)
@given(s=scenarios())
def test_harness_soak(s: Scenario) -> None:
    check(s)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
@pytest.mark.parametrize("name", sorted(UNSETTLED_RAISES))
def test_a_deletion_after_an_unsettled_raise(name: str) -> None:
    """Pins the open hole: each stream converges to a wrong closeness until
    a deletion's witness test sees through an unrepaired raise."""
    run(UNSETTLED_RAISES[name], "serial", "delta", None)


@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("bad", [
    "nan-reweight", "inf-addition", "self-loop-after-a-valid-addition",
    "missing-vertex-after-an-addition",
])
def test_an_invalid_batch_changes_nothing(backend: str, bad: str) -> None:
    """The batch is rejected whole, before any part of it lands: graph,
    closeness and step count stay put — and the raising run leaves no
    shared-memory segment behind."""
    s = Scenario(((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)), nprocs=2)

    def state(engine: AnytimeAnywhereCloseness) -> Tuple[Any, ...]:
        cluster = engine.cluster
        return cluster.graph.edge_list(), engine.current_closeness(), engine.next_step

    with pytest.raises(ChangeStreamError), engine_for(s, backend, "delta") as engine:
        engine.run()
        before = state(engine)
        try:
            stream = ChangeStream({engine.next_step: INVALID[bad]})
            engine.run(changes=stream, strategy="auto")
        finally:
            assert state(engine) == before


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_an_interrupt_leaves_no_segment_and_the_pool_serving(backend: str) -> None:
    """A ``KeyboardInterrupt`` raised in the coordinator at RC step 2
    propagates out of the run, every shared-memory segment the engine
    created is gone once its block exits, and a fresh engine in the same
    process reproduces the uninterrupted run bit for bit."""
    uninterrupted = run(STATIC, backend, "delta", None).pin
    exchange = Cluster.exchange_boundary
    steps: List[int] = []

    def interrupted(cluster: Cluster) -> int:
        if len(steps) == 2:  # one exchange per RC step, from step 0
            raise KeyboardInterrupt
        steps.append(len(steps))
        return exchange(cluster)

    with pytest.raises(KeyboardInterrupt):
        with engine_for(STATIC, backend, "delta") as engine:
            with mock.patch.object(Cluster, "exchange_boundary", interrupted):
                engine.run()
    assert steps == [0, 1]
    assert run(STATIC, backend, "delta", None).pin == uninterrupted
