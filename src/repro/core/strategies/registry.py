"""Table-driven registry of named dynamic strategies.

The engine resolves strategy *names* through this table instead of a
hard-coded if/elif chain, so downstream code can plug in new strategies
without editing the engine::

    from repro.core.strategies import STRATEGIES, register

    @register("mystrategy")
    def _make(config: AnytimeConfig) -> DynamicStrategy:
        return MyStrategy(...)

    engine.run(changes=stream, strategy="mystrategy")

A factory receives the engine's :class:`~repro.core.config.AnytimeConfig`
(partitioners, thresholds) and returns a fresh
:class:`~repro.core.strategies.base.DynamicStrategy`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from ...errors import ConfigurationError
from .adaptive import CompositeStrategy
from .assignment import (
    CutEdgePS,
    LDGPS,
    LeastLoadedPS,
    NeighborMajorityPS,
    RoundRobinPS,
)
from .base import DynamicStrategy
from .policy import (
    PolicyDrivenStrategy,
    SignalDrivenPolicy,
    StrategyPolicy,
    ThresholdPolicy,
)
from .repartition import RepartitionStrategy
from .vertex_addition import VertexAdditionStrategy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import AnytimeConfig

__all__ = [
    "STRATEGIES",
    "StrategyFactory",
    "register",
    "make_strategy",
    "POLICIES",
    "PolicyFactory",
    "register_policy",
    "make_policy",
]

#: A factory building a fresh strategy from the engine configuration.
StrategyFactory = Callable[["AnytimeConfig"], DynamicStrategy]

#: Name -> factory table the engine resolves strategy strings against.
STRATEGIES: Dict[str, StrategyFactory] = {}

#: A factory building a fresh strategy policy from the configuration.
PolicyFactory = Callable[["AnytimeConfig"], StrategyPolicy]

#: Name -> factory table ``strategy="auto"`` resolves policies against.
POLICIES: Dict[str, PolicyFactory] = {}


def register(
    name: str,
    factory: Optional[StrategyFactory] = None,
    *,
    overwrite: bool = False,
) -> Callable[[StrategyFactory], StrategyFactory]:
    """Register ``factory`` under ``name``; usable as a decorator.

    Re-registering an existing name raises
    :class:`~repro.errors.ConfigurationError` unless ``overwrite=True`` —
    silently shadowing a built-in is almost always a bug.
    """

    def _add(fn: StrategyFactory) -> StrategyFactory:
        if not overwrite and name in STRATEGIES:
            raise ConfigurationError(
                f"strategy {name!r} is already registered"
                " (pass overwrite=True to replace it)"
            )
        STRATEGIES[name] = fn
        return fn

    if factory is not None:
        _add(factory)
    return _add


def make_strategy(name: str, config: "AnytimeConfig") -> DynamicStrategy:
    """Build the registered strategy ``name`` for ``config``."""
    factory = STRATEGIES.get(name)
    if factory is None:
        raise ConfigurationError(
            f"unknown strategy {name!r}; registered strategies:"
            f" {sorted(STRATEGIES)}"
        )
    return factory(config)


def register_policy(
    name: str,
    factory: Optional[PolicyFactory] = None,
    *,
    overwrite: bool = False,
) -> Callable[[PolicyFactory], PolicyFactory]:
    """Register a strategy-policy factory; usable as a decorator.

    Policies live in their own namespace next to :data:`STRATEGIES`;
    ``strategy="auto"`` resolves ``config.strategy_policy`` against this
    table.  Same duplicate-name discipline as :func:`register`.
    """

    def _add(fn: PolicyFactory) -> PolicyFactory:
        if not overwrite and name in POLICIES:
            raise ConfigurationError(
                f"policy {name!r} is already registered"
                " (pass overwrite=True to replace it)"
            )
        POLICIES[name] = fn
        return fn

    if factory is not None:
        _add(factory)
    return _add


def make_policy(name: str, config: "AnytimeConfig") -> StrategyPolicy:
    """Build the registered strategy policy ``name`` for ``config``."""
    factory = POLICIES.get(name)
    if factory is None:
        raise ConfigurationError(
            f"unknown strategy policy {name!r}; registered policies:"
            f" {sorted(POLICIES)}"
        )
    return factory(config)


# ----------------------------------------------------------------------
# built-in strategies (the paper's A_rs variants)
# ----------------------------------------------------------------------
@register("roundrobin")
def _roundrobin(config: "AnytimeConfig") -> DynamicStrategy:
    return CompositeStrategy(VertexAdditionStrategy(RoundRobinPS()))


@register("leastloaded")
def _leastloaded(config: "AnytimeConfig") -> DynamicStrategy:
    return CompositeStrategy(VertexAdditionStrategy(LeastLoadedPS()))


@register("neighbormajority")
def _neighbormajority(config: "AnytimeConfig") -> DynamicStrategy:
    return CompositeStrategy(VertexAdditionStrategy(NeighborMajorityPS()))


@register("ldg")
def _ldg(config: "AnytimeConfig") -> DynamicStrategy:
    return CompositeStrategy(VertexAdditionStrategy(LDGPS()))


@register("cutedge")
def _cutedge(config: "AnytimeConfig") -> DynamicStrategy:
    return CompositeStrategy(
        VertexAdditionStrategy(CutEdgePS(config.cutedge_partitioner))
    )


@register("repartition")
def _repartition(config: "AnytimeConfig") -> DynamicStrategy:
    return RepartitionStrategy(config.partitioner)


@register("adaptive")
def _adaptive(config: "AnytimeConfig") -> DynamicStrategy:
    # the batch-size cut-over: CutEdge-PS below
    # config.repartition_threshold * |V| new vertices, Repartition-S above
    return PolicyDrivenStrategy(
        ThresholdPolicy(config.repartition_threshold, small="cutedge"), config
    )


@register("auto")
def _auto(config: "AnytimeConfig") -> DynamicStrategy:
    # policy-driven selection: config.strategy_policy names the policy,
    # and the adapter re-resolves through this registry per batch
    return PolicyDrivenStrategy(
        make_policy(config.strategy_policy, config), config
    )


# ----------------------------------------------------------------------
# built-in strategy policies
# ----------------------------------------------------------------------
@register_policy("signals")
def _signals(config: "AnytimeConfig") -> StrategyPolicy:
    return SignalDrivenPolicy()


@register_policy("threshold")
def _threshold(config: "AnytimeConfig") -> StrategyPolicy:
    return ThresholdPolicy(config.repartition_threshold)
