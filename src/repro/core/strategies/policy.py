"""Signal-driven strategy selection (paper Fig. 1 line 16).

The RC template "chooses recombination strategy(ies) based on the
constraints".  This module is that choice, as a pluggable
**strategy policy**: a pure function from live run signals — the load
gauges, wire statistics, queue depths and convergence residuals the obs
layer already produces — to the *name* of the dynamic strategy to apply
to the next batch.

Policies read signals through a :class:`~repro.obs.registry.SignalView`
and return names resolved through the ordinary strategy registry, so a
policy can steer anything that is registered — including strategies
added downstream.  :class:`PolicyDrivenStrategy` adapts a policy back
into a :class:`DynamicStrategy` — registered as ``"auto"`` (the policy
the signal-driven policy) and ``"adaptive"`` (the batch-size
:class:`ThresholdPolicy` over CutEdge-PS / Repartition-S) — which is
what makes both names work everywhere a strategy name is accepted.

Determinism: policies see only modeled quantities, collected into a
*private* registry (observers on/off cannot change what a policy sees,
and a policy cannot perturb the exported metrics), so decision
sequences pin byte-for-byte across runs and backends.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

from ...graph.changes import ChangeBatch
from ...obs.convergence import ConvergenceProbe
from ...obs.registry import MetricsRegistry, SignalView
from .adaptive import CompositeStrategy
from .base import DynamicStrategy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...runtime.cluster import Cluster
    from ..config import AnytimeConfig

__all__ = [
    "PolicyDecision",
    "StrategyPolicy",
    "ThresholdPolicy",
    "SignalDrivenPolicy",
    "PolicyDrivenStrategy",
    "batch_intra_edges",
    "batch_attachment_edges",
]


def batch_intra_edges(batch: ChangeBatch) -> int:
    """Edges of the batch whose endpoints are both new vertices."""
    new_ids = set(batch.new_vertex_ids())
    count = 0
    for va in batch.vertex_additions:
        for t, _w in va.edges:
            if t in new_ids:
                count += 1
    return count


def batch_attachment_edges(batch: ChangeBatch) -> int:
    """Edges anchoring the batch's new vertices to the existing graph."""
    new_ids = set(batch.new_vertex_ids())
    count = 0
    for va in batch.vertex_additions:
        for t, _w in va.edges:
            if t not in new_ids:
                count += 1
    return count


@dataclass(frozen=True)
class PolicyDecision:
    """One policy choice: which strategy a batch was routed through."""

    step: int
    strategy: str
    reason: str

    def line(self) -> str:
        """Canonical one-line form (pinned byte-for-byte in CI)."""
        return f"step={self.step} strategy={self.strategy} reason={self.reason}"


class StrategyPolicy(abc.ABC):
    """Chooses the dynamic strategy for the next change batch."""

    name: str = "abstract"

    @abc.abstractmethod
    def choose(
        self, signals: SignalView, batch: ChangeBatch, step: int
    ) -> Tuple[str, str]:
        """Return ``(strategy_name, reason)`` for ``batch`` at ``step``.

        ``strategy_name`` must be resolvable through the strategy
        registry; ``reason`` is a short token recorded in the decision
        trace.  Implementations must be pure readers of ``signals`` —
        they run on the coordinator between supersteps and must not
        touch cluster state or the modeled clock.
        """


class ThresholdPolicy(StrategyPolicy):
    """Batch-size threshold choice: what ``strategy="adaptive"`` runs.

    Batches larger than ``threshold * |V|`` repartition; smaller batches
    go through the anywhere vertex-addition strategy named ``small``.
    """

    name = "threshold"

    def __init__(
        self, threshold: float = 0.05, *, small: str = "roundrobin"
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be a fraction of |V| in [0, 1]")
        self.threshold = threshold
        self.small = small

    def choose(
        self, signals: SignalView, batch: ChangeBatch, step: int
    ) -> Tuple[str, str]:
        k = len(batch.new_vertex_ids())
        n = max(signals.graph_vertices, 1.0)
        if k > self.threshold * n:
            return "repartition", "large-batch"
        return self.small, "small-batch"


class SignalDrivenPolicy(StrategyPolicy):
    """The default adaptive policy: route by load, structure, and wire.

    Decision ladder (first match wins, so the sequence is deterministic):

    1. **imbalance** — a worker owns disproportionately many vertices
       (``vertex imbalance > imbalance_threshold``) and the batch is
       big enough to be worth a global fix
       (``>= repartition_min_fraction * |V|`` new vertices):
       Repartition-S, migrating DV rows to the fresh partition (xDGP's
       adaptive repartitioning applied to the anytime pipeline).
       Ownership skew is the one condition a reshuffle provably fixes;
       cut imbalance is deliberately ignored here because it tracks
       degree skew (hub owners always carry more cut edges) and
       saturates whenever some worker owns few boundary rows, so it
       fires Repartition-S's O(n) migration on noise.
    2. **boundary-heavy** — the batch's new vertices are densely wired
       to each other (``intra-batch edges >= intra_edge_ratio * k``):
       CutEdge-PS, which partitions exactly that intra-batch structure.
    3. **delta-hit** — the wire is already running efficiently
       (``delta hit rate >= delta_hit_threshold``) and the batch is
       tiny (``<= small_fraction * |V|``): RoundRobin-PS — placement
       finesse cannot beat its O(k) cost while deltas stay cheap.
    4. **fallback** — ``fallback`` (default CutEdge-PS: with no
       decisive signal, locality-aware placement minimises the wire
       traffic every later RC step pays for).
    """

    name = "signals"

    def __init__(
        self,
        *,
        imbalance_threshold: float = 0.5,
        repartition_min_fraction: float = 0.02,
        intra_edge_ratio: float = 1.0,
        delta_hit_threshold: float = 0.5,
        small_fraction: float = 0.02,
        fallback: str = "cutedge",
    ) -> None:
        self.imbalance_threshold = imbalance_threshold
        self.repartition_min_fraction = repartition_min_fraction
        self.intra_edge_ratio = intra_edge_ratio
        self.delta_hit_threshold = delta_hit_threshold
        self.small_fraction = small_fraction
        self.fallback = fallback

    def choose(
        self, signals: SignalView, batch: ChangeBatch, step: int
    ) -> Tuple[str, str]:
        k = len(batch.new_vertex_ids())
        n = max(signals.graph_vertices, 1.0)
        if (
            k
            and signals.vertex_imbalance > self.imbalance_threshold
            and k >= self.repartition_min_fraction * n
        ):
            return "repartition", "imbalance"
        if k >= 2 and batch_intra_edges(batch) >= self.intra_edge_ratio * k:
            return "cutedge", "boundary-heavy"
        if (
            signals.delta_hit_rate >= self.delta_hit_threshold
            and k <= self.small_fraction * n
        ):
            return "roundrobin", "delta-hit"
        return self.fallback, "fallback"


class PolicyDrivenStrategy(DynamicStrategy):
    """Adapter: run a :class:`StrategyPolicy` as a dynamic strategy.

    Before each batch it samples the cluster's signals into a private
    registry (identical collection to the obs layer's, so decisions
    cannot depend on whether observers are attached), asks the policy
    for a strategy name, and delegates to the registered strategy —
    wrapped in a :class:`CompositeStrategy` when necessary so mixed
    add/delete batches stay routable regardless of the choice.

    Chosen strategies are cached per name: placement state (round-robin
    rotation offsets, partitioner streams) persists across batches the
    same way it does for a hand-passed fixed strategy.
    """

    name = "auto"

    def __init__(
        self, policy: StrategyPolicy, config: "AnytimeConfig"
    ) -> None:
        self.policy = policy
        self.config = config
        self._registry = MetricsRegistry()
        self._probe = ConvergenceProbe(wf_improved=config.wf_improved)
        self._cache: Dict[str, DynamicStrategy] = {}
        #: decision trace, one entry per applied batch (pinned in CI)
        self.decisions: List[PolicyDecision] = []

    def signals(self, cluster: "Cluster", step: int = -1) -> SignalView:
        """Collect the current signals (also the ``Session.signals`` read)."""
        cluster.collect_signals(self._registry)
        sample = self._probe.sample(cluster, step)
        return SignalView(self._registry, {self._probe.name: sample})

    def _resolve(self, name: str) -> DynamicStrategy:
        from .registry import make_strategy

        inner = self._cache.get(name)
        if inner is None:
            inner = make_strategy(name, self.config)
            if not isinstance(inner, CompositeStrategy):
                # deletion events must still route to the deletion
                # strategies even when the policy picked an
                # additions-only strategy such as Repartition-S
                inner = CompositeStrategy(inner)
            self._cache[name] = inner
        return inner

    def apply(self, cluster: "Cluster", batch: ChangeBatch, step: int) -> None:
        view = self.signals(cluster, step)
        name, reason = self.policy.choose(view, batch, step)
        self.decisions.append(
            PolicyDecision(step=step, strategy=name, reason=reason)
        )
        self._resolve(name).apply(cluster, batch, step)
