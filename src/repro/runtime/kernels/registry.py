"""The kernel-tier registry, mirroring ``STRATEGIES`` / ``POLICIES``.

Tiers register a zero-argument factory under a short name; config,
CLI and the process-pool children resolve tiers by that name.  Tier
instances are stateless, so :func:`make_tier` memoizes one instance
per name (pool children resolve a tier per task).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, Union

from ...errors import ConfigurationError
from .base import KernelTier

__all__ = [
    "KERNEL_TIERS",
    "TierSpec",
    "available_tiers",
    "make_tier",
    "register_tier",
]

#: Specification accepted wherever a kernel tier is configured.
TierSpec = Union[str, KernelTier]

TierFactory = Callable[[], KernelTier]

#: name -> zero-argument tier factory, in registration order
KERNEL_TIERS: Dict[str, TierFactory] = {}

_INSTANCES: Dict[str, KernelTier] = {}


def register_tier(
    name: str,
    factory: Optional[TierFactory] = None,
    *,
    overwrite: bool = False,
) -> Callable[[TierFactory], TierFactory]:
    """Register a tier factory under ``name`` (usable as a decorator)."""

    def _register(f: TierFactory) -> TierFactory:
        if not overwrite and name in KERNEL_TIERS:
            raise ConfigurationError(
                f"kernel tier {name!r} is already registered"
            )
        KERNEL_TIERS[name] = f
        _INSTANCES.pop(name, None)
        return f

    if factory is not None:
        _register(factory)
        return factory
    return _register


def available_tiers() -> Tuple[str, ...]:
    """Names accepted by ``kernel_tier=`` configuration."""
    return tuple(KERNEL_TIERS)


def make_tier(spec: TierSpec) -> KernelTier:
    """Resolve a tier name (or pass through an instance)."""
    if isinstance(spec, KernelTier):
        return spec
    tier = _INSTANCES.get(spec)
    if tier is not None:
        return tier
    factory = KERNEL_TIERS.get(spec)
    if factory is None:
        raise ConfigurationError(
            f"unknown kernel tier {spec!r}; expected one of"
            f" {available_tiers()}"
        )
    tier = _INSTANCES[spec] = factory()
    return tier
