"""Deterministic fault injection for the simulated cluster.

The paper's §VI names "fault tolerance in the cloud" as the key open
problem for anytime-anywhere methods.  This module provides the *failure
surface*: a seeded, declarative :class:`FaultPlan` that schedules

* **worker crashes** at given RC steps (all derived state destroyed),
* **message loss** — a boundary-DV packet traverses the wire (and is
  charged) but never arrives,
* **message duplication** — a packet is delivered twice (charged twice;
  the receiver deduplicates by sequence number),
* **transient send failures** — the packet never leaves the sender (no
  wire charge) and is retried at the next exchange,
* **ack loss** — a delivery acknowledgement is dropped, forcing a
  harmless duplicate retransmission,
* **stragglers** — per-rank compute slowdown factors.

Everything is driven by one ``numpy`` PCG64 generator seeded from
``plan.seed`` and consumed in the cluster's deterministic message order,
so the same plan + seed reproduces a byte-identical fault event trace
(:meth:`FaultInjector.trace_lines`) across runs — the property the
regression tests assert.

Recovery *policies* live in :mod:`repro.runtime.supervisor`; this module
only decides *what goes wrong, and when*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..types import Rank

__all__ = [
    "RECOVERY_POLICIES",
    "FaultEvent",
    "FaultStats",
    "FaultPlan",
    "FaultInjector",
]

#: The recovery policies the supervisor implements (kept here so that
#: configuration validation does not need to import the supervisor).
#: ``escalate`` climbs the ladder warm -> checkpoint -> redistribute
#: per rank and degrades gracefully once health budgets are exhausted.
RECOVERY_POLICIES = ("warm", "checkpoint", "redistribute", "escalate")


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault (or the recovery that answered it).

    ``kind`` is one of ``crash``, ``recovery``, ``loss``, ``duplicate``,
    ``send_failure``, ``ack_loss``, ``retry``, ``straggler``,
    ``backoff`` (a modeled retransmission delay charged by the health
    monitor) or ``degraded`` (the run gave up recovering and returned a
    partial result).  Unused coordinate fields stay at ``-1`` so the
    serialized form is stable.
    """

    step: int
    kind: str
    rank: Rank = -1
    src: Rank = -1
    dst: Rank = -1
    seq: int = -1
    detail: str = ""

    def line(self) -> str:
        """A canonical one-line serialization (byte-stable across runs)."""
        return (
            f"step={self.step} kind={self.kind} rank={self.rank}"
            f" src={self.src} dst={self.dst} seq={self.seq}"
            f" detail={self.detail}"
        )


@dataclass
class FaultStats:
    """Aggregate fault/recovery accounting for one run."""

    crashes: int = 0
    recoveries: int = 0
    messages_lost: int = 0
    messages_duplicated: int = 0
    send_failures: int = 0
    acks_lost: int = 0
    retries: int = 0
    #: modeled backoff delays charged before retransmissions (health)
    backoffs: int = 0

    @property
    def faults_injected(self) -> int:
        """Total number of injected fault events (recoveries excluded)."""
        return (
            self.crashes
            + self.messages_lost
            + self.messages_duplicated
            + self.send_failures
            + self.acks_lost
        )


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, seeded schedule of faults for one run.

    Attributes
    ----------
    seed:
        Seed for the per-message random draws (loss/duplication/failure).
    crashes:
        ``(rc_step, rank)`` pairs; each crashes ``rank`` at the *start* of
        the given RC step (before the boundary exchange).
    loss_prob / dup_prob / send_failure_prob:
        Independent per-packet probabilities.  Loss also applies to
        delivery acknowledgements.
    stragglers:
        ``rank -> slowdown factor`` (>= 1); the rank's modeled compute is
        multiplied by the factor for the duration of the run.
    max_retries:
        Retry budget per packet; exceeding it raises
        :class:`~repro.errors.WorkerError` (a partitioned network, not a
        transient fault).
    """

    seed: int = 0
    crashes: Tuple[Tuple[int, Rank], ...] = ()
    loss_prob: float = 0.0
    dup_prob: float = 0.0
    send_failure_prob: float = 0.0
    stragglers: Tuple[Tuple[Rank, float], ...] = ()
    max_retries: int = 25

    def __post_init__(self) -> None:
        # accept dicts / lists for ergonomics; normalize to sorted tuples
        # so equal plans compare (and serialize) identically
        crashes = self.crashes
        if isinstance(crashes, Mapping):
            crashes = tuple(
                (int(s), int(r)) for s, r in sorted(crashes.items())
            )
        else:
            crashes = tuple(
                (int(s), int(r)) for s, r in sorted(tuple(c) for c in crashes)
            )
        object.__setattr__(self, "crashes", crashes)
        stragglers = self.stragglers
        if isinstance(stragglers, Mapping):
            stragglers = stragglers.items()
        stragglers = tuple(
            (int(r), float(f)) for r, f in sorted(tuple(s) for s in stragglers)
        )
        object.__setattr__(self, "stragglers", stragglers)
        for name in ("loss_prob", "dup_prob", "send_failure_prob"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1), got {p}")
        for step, rank in self.crashes:
            if step < 0:
                raise ConfigurationError(f"crash step {step} must be >= 0")
            if rank < 0:
                raise ConfigurationError(f"crash rank {rank} must be >= 0")
        for rank, factor in self.stragglers:
            if rank < 0:
                raise ConfigurationError(f"straggler rank {rank} must be >= 0")
            if factor < 1.0:
                raise ConfigurationError(
                    f"straggler factor must be >= 1, got {factor}"
                )
        if self.max_retries < 1:
            raise ConfigurationError("max_retries must be >= 1")

    # ------------------------------------------------------------------
    @classmethod
    def single_crash(cls, step: int, rank: Rank, **kwargs: Any) -> "FaultPlan":
        """A plan with exactly one crash (the common test/bench case)."""
        return cls(crashes=((step, rank),), **kwargs)

    @property
    def last_crash_step(self) -> int:
        """The latest scheduled crash step, or -1 with no crashes."""
        return max((s for s, _r in self.crashes), default=-1)

    @property
    def has_message_faults(self) -> bool:
        return (
            self.loss_prob > 0.0
            or self.dup_prob > 0.0
            or self.send_failure_prob > 0.0
        )


class FaultInjector:
    """Executes a :class:`FaultPlan` against one run, deterministically.

    The cluster consults :meth:`send_outcome` / :meth:`ack_lost` for every
    packet in its (deterministic) exchange order; the supervisor consults
    :meth:`crashes_at` at the start of every RC step.  All consulted
    randomness comes from one seeded generator, so the recorded
    :attr:`events` trace is byte-identical across identical runs.

    ``plan=None`` is the null policy every cluster holds when no plan is
    attached: every packet is ``ok``, no ack is lost, nothing crashes.
    """

    def __init__(self, plan: Optional[FaultPlan], nprocs: int) -> None:
        #: no plan at all: the network is reliable, so the exchange acks
        #: locally (no ack on the wire).  Any plan — even crash-only —
        #: keeps the priced one-word acks.
        self.reliable = plan is None
        if plan is None:
            plan = FaultPlan()
        for _step, rank in plan.crashes:
            if rank >= nprocs:
                raise ConfigurationError(
                    f"crash rank {rank} out of range for {nprocs} workers"
                )
        for rank, _factor in plan.stragglers:
            if rank >= nprocs:
                raise ConfigurationError(
                    f"straggler rank {rank} out of range for {nprocs} workers"
                )
        self.plan = plan
        self.nprocs = nprocs
        self._rng = np.random.default_rng(plan.seed)
        self.step = 0
        self.events: List[FaultEvent] = []
        self.stats = FaultStats()
        self._crashes_by_step: Dict[int, List[Rank]] = {}
        for step, rank in plan.crashes:
            self._crashes_by_step.setdefault(step, []).append(rank)
        for rank, factor in plan.stragglers:
            self.events.append(
                FaultEvent(
                    step=-1, kind="straggler", rank=rank, detail=f"x{factor}"
                )
            )

    # ------------------------------------------------------------------
    # step / crash schedule
    # ------------------------------------------------------------------
    def begin_step(self, step: int) -> None:
        """Inform the injector which RC step is starting (event stamping)."""
        self.step = step

    def crashes_at(self, step: int) -> List[Rank]:
        """Ranks scheduled to crash at the start of ``step``."""
        return list(self._crashes_by_step.get(step, ()))

    @property
    def last_crash_step(self) -> int:
        return self.plan.last_crash_step

    def record_crash(self, step: int, rank: Rank) -> None:
        self.stats.crashes += 1
        self.events.append(FaultEvent(step=step, kind="crash", rank=rank))

    def record_recovery(self, step: int, rank: Rank, policy: str) -> None:
        self.stats.recoveries += 1
        self.events.append(
            FaultEvent(step=step, kind="recovery", rank=rank, detail=policy)
        )

    def record_retry(self, src: Rank, dst: Rank, seq: int) -> None:
        self.stats.retries += 1
        self.events.append(
            FaultEvent(step=self.step, kind="retry", src=src, dst=dst, seq=seq)
        )

    def record_backoff(
        self, src: Rank, dst: Rank, seq: int, delay: float
    ) -> None:
        """A modeled backoff delay charged before a retransmission.

        ``delay`` is formatted with a fixed precision so the event trace
        stays byte-stable across platforms.
        """
        self.stats.backoffs += 1
        self.events.append(
            FaultEvent(
                step=self.step, kind="backoff",
                src=src, dst=dst, seq=seq, detail=f"{delay:.9e}",
            )
        )

    def record_degraded(self, step: int, reason: str, rank: Rank = -1) -> None:
        """The run stopped recovering and returned a partial result."""
        self.events.append(
            FaultEvent(step=step, kind="degraded", rank=rank, detail=reason)
        )

    # ------------------------------------------------------------------
    # per-packet draws (consumed in the cluster's deterministic order)
    # ------------------------------------------------------------------
    def send_outcome(self, src: Rank, dst: Rank, seq: int) -> str:
        """Fate of one outgoing packet: ``ok`` | ``lost`` | ``duplicated``
        | ``send_failure``."""
        plan = self.plan
        if not plan.has_message_faults:
            return "ok"
        if (
            plan.send_failure_prob > 0.0
            and self._rng.random() < plan.send_failure_prob
        ):
            self.stats.send_failures += 1
            self.events.append(
                FaultEvent(
                    step=self.step, kind="send_failure",
                    src=src, dst=dst, seq=seq,
                )
            )
            return "send_failure"
        if plan.loss_prob > 0.0 and self._rng.random() < plan.loss_prob:
            self.stats.messages_lost += 1
            self.events.append(
                FaultEvent(
                    step=self.step, kind="loss", src=src, dst=dst, seq=seq
                )
            )
            return "lost"
        if plan.dup_prob > 0.0 and self._rng.random() < plan.dup_prob:
            self.stats.messages_duplicated += 1
            self.events.append(
                FaultEvent(
                    step=self.step, kind="duplicate", src=src, dst=dst, seq=seq
                )
            )
            return "duplicated"
        return "ok"

    def ack_lost(self, src: Rank, dst: Rank, seq: int) -> bool:
        """Whether the ack for packet ``(src, dst, seq)`` is dropped.

        ``src``/``dst`` name the *data* direction; the ack travels
        ``dst -> src``.  Losing an ack only causes a duplicate
        retransmission (deduplicated by the receiver), never data loss.
        """
        plan = self.plan
        if plan.loss_prob <= 0.0:
            return False
        if self._rng.random() < plan.loss_prob:
            self.stats.acks_lost += 1
            self.events.append(
                FaultEvent(
                    step=self.step, kind="ack_loss", src=src, dst=dst, seq=seq
                )
            )
            return True
        return False

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def trace_lines(self) -> List[str]:
        """The canonical fault-event trace (byte-stable across runs)."""
        return [e.line() for e in self.events]

    def trace_bytes(self) -> bytes:
        return "\n".join(self.trace_lines()).encode("utf-8")
