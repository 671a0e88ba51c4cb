"""Deterministic, modeled-clock health model for the simulated cluster.

The paper's anytime-anywhere contract promises a usable answer at
interrupt time; this module supplies the *detection* half of keeping
that promise under faults.  A :class:`HealthMonitor` watches the same
signals the observability layer already exports — per-rank kernel
durations at every BSP barrier, unacked-row gauges, retired ranks — and
runs a per-rank liveness state machine::

    healthy --(miss superstep deadline)--> suspect
    suspect --(keep missing)------------> degraded
    any     --(retired / budget burst)--> dead

All thresholds live in a typed, frozen :class:`HealthPolicy`; every
derived quantity (deadlines, backoff delays, speculation savings) is a
function of *modeled* time and the policy's own seeded RNG, never the
host clock — so two runs of the same (plan, seed, config) produce
byte-identical health decisions, traces and results.

The consumers:

* :meth:`Cluster.sync_compute` feeds barrier times into
  :meth:`HealthMonitor.observe_superstep` and uses the deadline to run
  speculative re-execution of straggling rank kernels (first completion
  wins; results are verified bitwise-identical),
* :meth:`Cluster.exchange_boundary` charges
  :meth:`HealthMonitor.backoff_delay` per retransmission (seeded
  exponential backoff + jitter on the LogP clock),
* the :class:`~repro.runtime.supervisor.Supervisor` builds the monitor,
  marks the ranks it retires dead, and holds ``escalate`` to the
  policy's crash budget and dead-fraction limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import List, Sequence, Set

import numpy as np

from ..errors import ConfigurationError
from ..types import Rank

__all__ = ["HealthState", "HealthPolicy", "HealthMonitor"]


class HealthState(IntEnum):
    """Per-rank liveness state; the numeric value is the exported gauge."""

    HEALTHY = 0
    SUSPECT = 1
    DEGRADED = 2
    DEAD = 3


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds and budgets of the self-healing runtime (all typed).

    Attributes
    ----------
    deadline_factor:
        A rank misses the superstep deadline when its metered kernel
        time exceeds ``deadline_factor`` x the median rank time of that
        barrier.  Must be > 1 (at 1 the median rank itself would miss).
    suspect_after / degraded_after:
        Consecutive missed deadlines before a rank is marked
        ``suspect`` / ``degraded``.
    backoff_base / backoff_factor / backoff_max:
        Exponential backoff for packet retransmissions: the ``n``-th
        retry of a packet waits ``min(base * factor**(n-1), max)``
        modeled seconds (plus jitter) before re-entering the wire.
    backoff_jitter:
        Jitter fraction in ``[0, 1]``; the delay is scaled by
        ``1 + jitter * u`` with ``u`` drawn from the monitor's own
        seeded RNG (never the fault injector's, so fault traces do not
        shift when health is toggled).
    speculate:
        Enable speculative re-execution of straggling rank kernels.
    speculation_overhead:
        Relative cost of launching the backup copy: the backup's
        modeled duration is ``(1 + overhead)`` x the time a reference-
        speed rank would need for the same kernel.
    crash_budget:
        Per-rank crash budget for the ``escalate`` recovery ladder;
        one more crash than this degrades the run instead of recovering.
    max_dead_fraction:
        Degrade (instead of redistributing) once retiring another rank
        would push the dead fraction above this.
    graceful_degradation:
        When True, budget-exhausted runs return
        ``RunResult(degraded=True)`` with the partial closeness vector
        instead of raising.
    """

    deadline_factor: float = 2.0
    suspect_after: int = 2
    degraded_after: int = 4
    backoff_base: float = 1e-3
    backoff_factor: float = 2.0
    backoff_max: float = 0.5
    backoff_jitter: float = 0.1
    speculate: bool = True
    speculation_overhead: float = 0.1
    crash_budget: int = 3
    max_dead_fraction: float = 0.5
    graceful_degradation: bool = True

    def __post_init__(self) -> None:
        if self.deadline_factor <= 1.0:
            raise ConfigurationError(
                f"deadline_factor must be > 1, got {self.deadline_factor}"
            )
        if self.suspect_after < 1:
            raise ConfigurationError("suspect_after must be >= 1")
        if self.degraded_after < self.suspect_after:
            raise ConfigurationError(
                "degraded_after must be >= suspect_after"
            )
        if self.backoff_base < 0.0:
            raise ConfigurationError("backoff_base must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigurationError("backoff_factor must be >= 1")
        if self.backoff_max < self.backoff_base:
            raise ConfigurationError("backoff_max must be >= backoff_base")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ConfigurationError("backoff_jitter must be in [0, 1]")
        if self.speculation_overhead < 0.0:
            raise ConfigurationError("speculation_overhead must be >= 0")
        if self.crash_budget < 1:
            raise ConfigurationError("crash_budget must be >= 1")
        if not 0.0 < self.max_dead_fraction <= 1.0:
            raise ConfigurationError(
                "max_dead_fraction must be in (0, 1]"
            )


class HealthMonitor:
    """Per-rank liveness state machine plus the accounting it drives.

    Deliberately owns its *own* PCG64 stream (seeded from the fault
    plan's seed plus a fixed domain tag): backoff jitter draws must not
    consume the injector's generator, or enabling health would shift
    every subsequent loss/duplication draw and break trace pinning for
    plans that are identical apart from the health policy.
    """

    #: seed-sequence domain tag separating this stream from the injector's
    _SEED_TAG = 0x48454C54  # "HELT"

    def __init__(self, policy: HealthPolicy, nprocs: int, *, seed: int = 0) -> None:
        if nprocs < 1:
            raise ConfigurationError(f"nprocs must be >= 1, got {nprocs}")
        self.policy = policy
        self.nprocs = nprocs
        self.states: List[HealthState] = [HealthState.HEALTHY] * nprocs
        #: ranks retired for good (redistributed away or budget-burst)
        self.dead: Set[Rank] = set()
        self._misses = [0] * nprocs
        self._rng = np.random.default_rng([seed, self._SEED_TAG])
        # --- accounting (all surfaced on RunResult / the metrics registry)
        self.missed_deadlines = 0
        self.speculations = 0
        self.backoffs = 0
        self.backoff_seconds = 0.0
        self.last_deadline = 0.0

    # ------------------------------------------------------------------
    # superstep deadlines
    # ------------------------------------------------------------------
    def deadline(self, times: Sequence[float]) -> float:
        """The superstep deadline: ``deadline_factor`` x median rank time."""
        if not times:
            return 0.0
        return self.policy.deadline_factor * float(np.median(times))

    def observe_superstep(
        self, times: Sequence[float], unacked: Sequence[int]
    ) -> List[Rank]:
        """Advance the state machine from one barrier's metered times.

        Returns the alive ranks that missed this superstep's deadline
        (the speculation candidates).  ``unacked`` carries the per-rank
        in-flight row gauges: a rank sitting on unacknowledged traffic
        is never reported better than ``suspect``.
        """
        deadline = self.last_deadline = self.deadline(times)
        flagged: List[Rank] = []
        for r, t in enumerate(times):
            if r in self.dead:
                self.states[r] = HealthState.DEAD
                continue
            if deadline > 0.0 and t > deadline:
                self._misses[r] += 1
                self.missed_deadlines += 1
                flagged.append(r)
            else:
                self._misses[r] = 0
            m = self._misses[r]
            if m >= self.policy.degraded_after:
                state = HealthState.DEGRADED
            elif m >= self.policy.suspect_after:
                state = HealthState.SUSPECT
            else:
                state = HealthState.HEALTHY
            if (
                state is HealthState.HEALTHY
                and r < len(unacked)
                and unacked[r] > 0
            ):
                state = HealthState.SUSPECT
            self.states[r] = state
        return flagged

    # ------------------------------------------------------------------
    # retry backoff (charged to the modeled clock by the cluster)
    # ------------------------------------------------------------------
    def backoff_delay(self, attempt: int) -> float:
        """Modeled backoff before send attempt ``attempt`` (>= 2) retries.

        Seeded exponential backoff with jitter: deterministic for a
        given monitor seed and draw order (the cluster consumes draws in
        its deterministic exchange order).
        """
        p = self.policy
        exponent = max(0, attempt - 2)
        base = min(p.backoff_base * p.backoff_factor**exponent, p.backoff_max)
        delay = base * (1.0 + p.backoff_jitter * float(self._rng.random()))
        self.backoffs += 1
        self.backoff_seconds += delay
        return delay

    # ------------------------------------------------------------------
    # retirement (by the supervisor)
    # ------------------------------------------------------------------
    def mark_dead(self, rank: Rank) -> None:
        """Retire ``rank`` permanently (redistributed away or budget burst)."""
        self.dead.add(rank)
        self.states[rank] = HealthState.DEAD

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def state_value(self, rank: Rank) -> int:
        """Numeric state for the per-rank health gauge."""
        return int(self.states[rank])

    def alive_fraction(self) -> float:
        return 1.0 - len(self.dead) / self.nprocs
