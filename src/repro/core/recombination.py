"""The recombination (RC) loop — paper Fig. 1.

Each RC step:

1. **exchange** — personalized all-to-all delivery of queued boundary-DV
   rows (lines 9-15),
2. **refine** — cut-edge relaxation against fresh external rows, then the
   local min-plus (Floyd–Warshall-style) propagation (line 17's static
   refinement strategy),
3. **dynamic changes** — if the change stream schedules a batch at this
   step, the configured dynamic strategy incorporates it (line 16-17),

repeated "until no more updates in any processor" (line 18) and no further
changes are scheduled.  For a static graph this terminates within P-1
steps (the longest processor chain), which tests assert.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from ..errors import ConvergenceError
from ..graph.changes import ChangeStream
from .strategies.base import DynamicStrategy

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.cluster import Cluster
    from ..runtime.supervisor import Supervisor

__all__ = ["run_recombination"]


def run_recombination(
    cluster: "Cluster",
    *,
    supervisor: "Supervisor",
    strategy: Optional[DynamicStrategy] = None,
    changes: Optional[ChangeStream] = None,
    max_steps: int = 10_000,
    on_step: Optional[Callable[[int], None]] = None,
    start_step: int = 0,
    budget_modeled_seconds: Optional[float] = None,
    step_budget: Optional[int] = None,
) -> int:
    """Run RC steps until convergence; returns the number of steps run.

    Parameters
    ----------
    supervisor:
        The run context (``cluster.fault_free`` for a fault-free run).
        Its :meth:`before_step` preamble (periodic checkpoints +
        scheduled crashes and their recoveries) runs at the start of
        every step, and the loop stays alive while crashes are still
        scheduled in the future — a fault after natural convergence must
        still be absorbed.
    strategy:
        Dynamic strategy applied to scheduled change batches.  Required if
        ``changes`` is non-empty.
    changes:
        Batches keyed by RC step (0-based, absolute — ``start_step`` lets a
        caller resume an interrupted loop without re-applying old batches).
    max_steps:
        Safety bound; exceeding it raises :class:`ConvergenceError`.
    on_step:
        Observer called after each completed step (snapshots).
    budget_modeled_seconds:
        Anytime interruption: stop (without error) once the modeled clock
        has advanced by this much since entry, even if not yet converged.
        The partial results remain valid upper bounds.
    step_budget:
        Discrete anytime interruption: run at most this many RC steps,
        then stop without error (the serve loop's pacing primitive —
        unlike ``max_steps``, reaching the budget is a normal return,
        not a :class:`ConvergenceError`).
    """
    if changes and changes.last_step >= start_step and strategy is None:
        raise ValueError("a dynamic strategy is required to apply changes")
    clock_start = cluster.tracer.modeled_seconds
    step = start_step
    steps_run = 0
    while steps_run < max_steps:
        if step_budget is not None and steps_run >= step_budget:
            return steps_run  # paced: caller resumes with the next call
        # budget first: it is checked against the clock *before* the
        # convergence vote charges its all-reduce, so a fresh call always
        # starts at zero elapsed and is guaranteed to make progress
        # (unless the budget itself is zero)
        if (
            budget_modeled_seconds is not None
            and cluster.tracer.modeled_seconds - clock_start
            >= budget_modeled_seconds
        ):
            return steps_run  # interrupted: anytime result stands
        supervisor.before_step(step)
        if supervisor.degraded_reason:
            # graceful degradation: recovery budgets are exhausted; stop
            # here — the surviving ranks' rows remain valid upper bounds
            # and form the partial anytime result
            return steps_run
        batch = changes.at_step(step) if changes else None
        future_changes = bool(changes) and changes.last_step > step
        if (
            batch is None
            and not future_changes
            and supervisor.last_crash_step <= step
            and not cluster.any_pending()
        ):
            return steps_run
        cluster.tracer.begin("rc_step", step)
        try:
            delivered = cluster.exchange_boundary()
            rec = cluster.tracer._open
            if rec is not None and delivered:
                # rows landed this step (dense or delta): part of the
                # canonical per-step trace, so wire-format bugs show up
                # as trace diffs
                rec.info["rows_delivered"] = (
                    rec.info.get("rows_delivered", 0.0) + delivered
                )
            cluster.relax_and_propagate()
            if batch is not None:
                strategy.apply(cluster, batch, step)  # type: ignore[union-attr]
                supervisor.note_batch(batch)
        except BaseException:
            # close the phase so the tracer stays reusable and the span
            # tree stays balanced; the partial charge is kept
            cluster.tracer.abort()
            raise
        cluster.tracer.end()
        cluster.observe_superstep(step)
        if on_step is not None:
            on_step(step)
        step += 1
        steps_run += 1
    raise ConvergenceError(
        f"recombination did not converge within {max_steps} steps"
    )
