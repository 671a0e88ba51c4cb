"""Serve ticks read closeness only where they report it.

A tick runs :meth:`AnytimeAnywhereCloseness.advance`, which reads
nothing out.  The reads left are the ones somebody uses: the ``auto``
policy's convergence probe on a batch tick, a summary on each
``summary_interval`` tick and the result of :meth:`UpdateService.drain`.
The tick records, summaries and final closeness are those of the same
loop run through ``engine.run(step_budget=1)`` per tick.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.snapshots as snapshots
from repro import AnytimeAnywhereCloseness, AnytimeConfig
from repro.serve import HybridAdmission, UpdateService, synthesize_churn

NPROCS = 4
INTERVAL = 3


class RunPerTick:
    """The engine, with every tick a full ``engine.run`` (the twin)."""

    def __init__(self, engine, results):
        self._engine = engine
        self._results = results

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def advance(self, **kwargs):
        self._results.append(self._engine.run(**kwargs))
        return self._results[-1]


def _serve(monkeypatch=None, *, through_run=False):
    """Serve a bursty churn trace; returns the service, the final result,
    the read-outs made on each tick and in the drain, and (through_run)
    each tick's ``RunResult``."""
    trace = synthesize_churn("bursty-communities", n_base=40, ticks=12, seed=6)
    engine = AnytimeAnywhereCloseness(
        trace.base,
        AnytimeConfig(nprocs=NPROCS, seed=6, collect_snapshots=False),
    )
    engine.setup()
    calls = []
    if monkeypatch is not None:
        read = snapshots.closeness_from_rows

        def spy(*args, **kwargs):
            calls.append(1)
            return read(*args, **kwargs)

        monkeypatch.setattr(snapshots, "closeness_from_rows", spy)
    results = []
    svc = UpdateService(
        RunPerTick(engine, results) if through_run else engine,
        admission=HybridAdmission(max_events=6, max_delay_ticks=3),
        strategy="auto",
        summary_interval=INTERVAL,
    )
    reads = []

    def tick(advance):
        before = len(calls)
        advance()
        reads.append((len(calls) - before) / NPROCS)

    try:
        for t in range(trace.ticks):
            at_t = trace.events_at(t)
            if at_t:
                svc.feed(at_t)
            tick(svc.step)
        while svc.pending_events:
            tick(svc.flush)
        before = len(calls)
        final = svc.drain()
        drained = (len(calls) - before) / NPROCS
    finally:
        engine.close()
    return svc, final, reads, drained, results


def test_a_tick_reads_only_what_it_reports(monkeypatch):
    svc, _final, reads, drained, _ = _serve(monkeypatch)
    # every rank holds vertices throughout, so one read-out is NPROCS calls
    assert all(r == int(r) for r in reads)
    want = [
        (1 if tick.admitted else 0) + (1 if (tick.tick + 1) % INTERVAL == 0 else 0)
        for tick in svc.ticks
    ]
    assert reads == want
    assert drained == 1
    # the stream exercised every kind of tick
    assert 0 in want and 1 in want
    assert any(tick.admitted for tick in svc.ticks)
    assert any(not tick.admitted for tick in svc.ticks)


def test_ticks_summaries_and_closeness_equal_the_run_per_tick_twin():
    svc, final, _, _, _ = _serve()
    twin, twin_final, _, _, results = _serve(through_run=True)
    assert [t.line() for t in svc.ticks] == [t.line() for t in twin.ticks]
    assert svc.ticks == twin.ticks
    assert svc.summaries == twin.summaries
    assert len(svc.summaries) == len(svc.ticks) // INTERVAL
    # a summary's closeness is the one that tick's RunResult held
    for summ in svc.summaries:
        closeness = results[summ.tick - 1].closeness
        mean = sum(closeness.values()) / len(closeness)
        assert summ.closeness_mean == mean
    assert list(final.closeness) == list(twin_final.closeness)
    got = np.array(list(final.closeness.values()))
    want = np.array(list(twin_final.closeness.values()))
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert final.modeled_seconds.hex() == twin_final.modeled_seconds.hex()
    assert final.rc_steps == twin_final.rc_steps
    assert svc.rc_steps_total == twin.rc_steps_total


@pytest.mark.parametrize("strategy", ["roundrobin", "cutedge"])
def test_a_fixed_strategy_tick_reads_nothing(monkeypatch, strategy):
    """Without the policy's probe a batch tick reads nothing either."""
    trace = synthesize_churn("steady-small", n_base=30, ticks=6, seed=2)
    engine = AnytimeAnywhereCloseness(
        trace.base, AnytimeConfig(nprocs=2, seed=2, collect_snapshots=False)
    )
    engine.setup()
    calls = []
    read = snapshots.closeness_from_rows
    monkeypatch.setattr(
        snapshots,
        "closeness_from_rows",
        lambda *a, **k: calls.append(1) or read(*a, **k),
    )
    svc = UpdateService(engine, strategy=strategy)
    try:
        for t in range(trace.ticks):
            svc.feed(trace.events_at(t))
            svc.flush()
    finally:
        engine.close()
    assert svc.batches_formed > 0
    assert calls == []
