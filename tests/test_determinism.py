"""Regression tests for run-to-run determinism.

The repro-lint invariants (seeded randomness, sorted iteration over
rank/vertex sets, modeled-clock-only timing) exist so that two runs
with identical inputs produce *identical* results: same closeness bits,
same modeled trace, same fault-event log.  These tests pin that down
end to end; if a nondeterministic iteration sneaks back into the
runtime, they are the first to fail.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any, Dict, List, Tuple

from repro import (
    AnytimeAnywhereCloseness,
    AnytimeConfig,
    ChangeStream,
    ResilienceConfig,
)
from repro.graph import barabasi_albert
from repro.graph.changes import (
    ChangeBatch,
    EdgeAddition,
    EdgeDeletion,
    VertexAddition,
)
from repro.runtime.chaos import FaultPlan

from .test_harness import FIXED, STATIC, Outcome, Scenario, run

BACKEND = AnytimeConfig().backend


def _build_engine(seed: int = 7) -> AnytimeAnywhereCloseness:
    g = barabasi_albert(70, 2, seed=seed)
    engine = AnytimeAnywhereCloseness(
        g,
        AnytimeConfig(
            nprocs=4,
            seed=seed,
            collect_snapshots=False,
        ),
    )
    engine.setup()
    return engine


def _modeled_trace(engine: AnytimeAnywhereCloseness) -> List[Dict[str, Any]]:
    """The tracer's records with host-wall-clock fields stripped.

    Wall seconds legitimately differ between runs (RPL003's allowlisted
    tracing module reads the host clock); everything else must match.
    """
    dump = engine.cluster.tracer.to_json()
    records = []
    for rec in dump["records"]:
        rec = dict(rec)
        rec.pop("wall_seconds", None)
        records.append(rec)
    return records


def _closeness_bits(closeness: Dict[int, float]) -> List[Tuple[int, bytes]]:
    """(vertex, IEEE-754 bytes) pairs — bitwise, not approximate."""
    return [
        (v, struct.pack("<d", closeness[v])) for v in sorted(closeness)
    ]


def _changes() -> ChangeStream:
    return ChangeStream(
        {
            1: ChangeBatch(
                vertex_additions=[
                    VertexAddition(200, ((3, 1.0), (11, 1.0))),
                    VertexAddition(201, ((200, 1.0), (0, 1.0))),
                ],
                edge_additions=[EdgeAddition(5, 40)],
            ),
            2: ChangeBatch(edge_deletions=[EdgeDeletion(5, 40)]),
        }
    )


class TestStaticDeterminism:
    def test_two_runs_bitwise_identical(self) -> None:
        results = []
        for _ in range(2):
            engine = _build_engine()
            res = engine.run()
            results.append(
                (
                    _closeness_bits(res.closeness),
                    res.rc_steps,
                    res.modeled_seconds,
                    _modeled_trace(engine),
                )
            )
        assert results[0] == results[1]

    def test_trace_has_substance(self) -> None:
        engine = _build_engine()
        engine.run()
        trace = _modeled_trace(engine)
        assert trace, "tracer recorded no phases"
        assert any(r["words"] > 0 for r in trace), "no comm was charged"


class TestDynamicDeterminism:
    def test_vertex_addition_runs_identical(self) -> None:
        results = []
        for _ in range(2):
            engine = _build_engine()
            res = engine.run(changes=_changes(), strategy="cutedge")
            results.append(
                (
                    _closeness_bits(res.closeness),
                    res.rc_steps,
                    res.modeled_seconds,
                    _modeled_trace(engine),
                )
            )
        assert results[0] == results[1]


class TestWireFormatEquivalence:
    """The delta wire format is an encoding, not an approximation.

    The dense format is the reference oracle: for the same inputs the two
    formats must converge to bitwise-identical closeness values.  The
    modeled wire traffic is where they are *allowed* (required) to
    differ — deltas must be strictly cheaper once rows start refining.
    These are the harness's ``dense`` ≡ ``delta`` twin on its
    ``fault-free-batch`` input (BA(70, 2, 7), 4 ranks, CutEdge-PS), static
    and dynamic, on the configured backend.
    """

    def test_static_dense_vs_delta_bitwise_identical(self) -> None:
        delta = _wire_twins(STATIC)
        assert delta.result.boundary_rows_sparse > 0

    def test_dynamic_dense_vs_delta_bitwise_identical(self) -> None:
        _wire_twins(FIXED["fault-free-batch"])

    def test_delta_runs_bitwise_repeatable(self) -> None:
        s = FIXED["fault-free-batch"]
        assert run(s, BACKEND, "delta", None).pin == run(s, BACKEND, "delta", None).pin


def _wire_twins(s: Scenario) -> Outcome:
    """``s`` on both wires: the same closeness bits, dense sends no sparse
    row and strictly more words; returns the delta run."""
    delta, dense = (run(s, BACKEND, wire, None) for wire in ("delta", "dense"))
    assert delta.clock[0] == dense.clock[0]
    assert dense.result.boundary_rows_sparse == 0
    assert delta.result.boundary_words < dense.result.boundary_words
    return delta


class TestChaosDeterminism:
    def test_faulty_runs_identical_traces_and_results(self) -> None:
        plan = FaultPlan(
            seed=11,
            crashes=((2, 1),),
            loss_prob=0.15,
            dup_prob=0.05,
            send_failure_prob=0.05,
        )
        results = []
        for _ in range(2):
            engine = _build_engine()
            res = engine.run(resilience=ResilienceConfig(fault_plan=plan))
            results.append(
                (
                    _closeness_bits(res.closeness),
                    tuple(res.fault_events),
                    res.faults_injected,
                    res.retries,
                    res.recoveries,
                    res.modeled_seconds,
                    _modeled_trace(engine),
                )
            )
        assert results[0] == results[1]
        assert results[0][2] > 0, "the plan injected no faults"

    def test_health_mitigated_runs_identical(self) -> None:
        """Straggler mitigation (speculation + seeded backoff) must be
        as repeatable as the fault-free path: same modeled trace bits,
        same backoff delays, same closeness."""
        from repro import HealthPolicy

        plan = FaultPlan(seed=13, stragglers=((1, 8.0),), loss_prob=0.1)
        results = []
        for _ in range(2):
            g = barabasi_albert(70, 2, seed=7)
            engine = AnytimeAnywhereCloseness(
                g,
                AnytimeConfig(
                    nprocs=4,
                    seed=7,
                    collect_snapshots=False,
                    health=HealthPolicy(),
                ),
            )
            engine.setup()
            res = engine.run(resilience=ResilienceConfig(fault_plan=plan))
            results.append(
                (
                    _closeness_bits(res.closeness),
                    tuple(res.fault_events),
                    res.speculations,
                    res.missed_deadlines,
                    res.backoff_modeled_seconds,
                    res.modeled_seconds,
                    _modeled_trace(engine),
                )
            )
        assert results[0] == results[1]
        assert results[0][2] > 0, "no speculation was triggered"

    def test_degraded_runs_identical(self) -> None:
        """Graceful degradation is pinned too: the partial closeness, the
        quality statement, and the fault log of a budget-exhausted run
        are byte-for-byte repeatable."""
        from repro import HealthPolicy

        plan = FaultPlan(seed=17, crashes=((1, 0), (2, 0), (3, 0)))
        results = []
        for _ in range(2):
            g = barabasi_albert(70, 2, seed=7)
            engine = AnytimeAnywhereCloseness(
                g,
                AnytimeConfig(
                    nprocs=4,
                    seed=7,
                    collect_snapshots=False,
                    resilience=ResilienceConfig(
                        recovery="escalate", checkpoint_interval=2
                    ),
                    health=HealthPolicy(crash_budget=2),
                ),
            )
            engine.setup()
            res = engine.run(
                resilience=dataclasses.replace(
                    engine.config.resilience, fault_plan=plan
                )
            )
            results.append(
                (
                    res.degraded,
                    res.degraded_reason,
                    _closeness_bits(res.closeness),
                    tuple(sorted(res.quality.items())),
                    tuple(res.fault_events),
                    res.recoveries_by_rung,
                    res.modeled_seconds,
                    _modeled_trace(engine),
                )
            )
        assert results[0] == results[1]
        assert results[0][0] is True, "the plan did not exhaust the budget"
        assert results[0][1] == "crash-budget"
