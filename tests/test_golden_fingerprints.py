"""Cross-commit golden pins for the RC step.

The determinism suites compare run-to-run *inside* one commit, so a
refactor that changes what work is done — a different charge order, one
more message on the wire, a re-ordered trace record — passes them all.
These pins compare against ``tests/golden/rc_fingerprints.json``,
captured once at the commit *before* the exchange/superstep collapse:
every scenario must reproduce its recorded RC step count, modeled clock
(bit-exact, as ``float.hex``), wire/boundary words, dense/sparse row
counts and the sha256 of its closeness bits, wall-stripped tracer
records and fault-event log.

The engine config takes its backend from ``REPRO_BACKEND`` (serial by
default; CI re-runs this file under ``process``) and both backends must
match the same JSON — serial and process are bitwise-identical.

A deliberate behaviour change re-pins with
``PYTHONPATH=src python tests/test_golden_fingerprints.py`` and says so
in ``CHANGES.md``; an unexplained diff is a bug.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import pytest

from repro import (
    AnytimeAnywhereCloseness,
    AnytimeConfig,
    ChangeStream,
    FaultPlan,
    HealthPolicy,
    ResilienceConfig,
)
from repro.bench.workloads import incremental_stream
from repro.core.engine import RunResult
from repro.graph import barabasi_albert
from repro.graph.changes import (
    ChangeBatch,
    EdgeAddition,
    EdgeDeletion,
    EdgeReweight,
    VertexAddition,
    VertexDeletion,
)
from repro.serve import HybridAdmission, UpdateService, synthesize_churn

GOLDEN = Path(__file__).parent / "golden" / "rc_fingerprints.json"

Fingerprint = Dict[str, object]


def _sha(lines: Iterable[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def _trace_lines(engine: AnytimeAnywhereCloseness) -> List[str]:
    """The tracer's records, wall clock stripped, floats as hex."""
    assert engine.cluster is not None
    return [
        "|".join(
            (
                rec.name,
                str(rec.step),
                rec.modeled_compute.hex(),
                rec.modeled_comm.hex(),
                str(rec.messages),
                str(rec.words),
                ",".join(
                    f"{k}={float(v).hex()}" for k, v in sorted(rec.info.items())
                ),
            )
        )
        for rec in engine.cluster.tracer.records
    ]


def fingerprint(
    engine: AnytimeAnywhereCloseness,
    results: Sequence[RunResult],
    extra: Sequence[str] = (),
) -> Fingerprint:
    """What one scenario pins: the last run's totals, every run's step
    count and fault log, and the whole cluster trace."""
    last = results[-1]
    out: Fingerprint = {
        "rc_steps": [r.rc_steps for r in results],
        "modeled_seconds": last.modeled_seconds.hex(),
        "wire_words": last.wire_words,
        "boundary_words": last.boundary_words,
        "boundary_rows_dense": last.boundary_rows_dense,
        "boundary_rows_sparse": last.boundary_rows_sparse,
        "closeness_sha256": hashlib.sha256(
            b"".join(
                struct.pack("<qd", v, last.closeness[v])
                for v in sorted(last.closeness)
            )
        ).hexdigest(),
        "trace_sha256": _sha(_trace_lines(engine)),
        "fault_events_sha256": _sha(
            line for r in results for line in r.fault_events
        ),
    }
    if extra:
        out["extra_sha256"] = _sha(extra)
    return out


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
def _engine(**cfg: object) -> AnytimeAnywhereCloseness:
    engine = AnytimeAnywhereCloseness(
        barabasi_albert(90, 2, seed=7),
        AnytimeConfig(
            nprocs=4, seed=7, collect_snapshots=False, **cfg  # type: ignore[arg-type]
        ),
    )
    engine.setup()
    return engine


def _run(
    engine: AnytimeAnywhereCloseness,
    plan: Optional[FaultPlan] = None,
    **kwargs: object,
) -> RunResult:
    if plan is not None:
        kwargs["resilience"] = dataclasses.replace(
            engine.config.resilience, fault_plan=plan  # type: ignore[type-var]
        )
    return engine.run(**kwargs)  # type: ignore[arg-type]


def _static(wire_format: str) -> Fingerprint:
    with _engine(wire_format=wire_format) as engine:
        return fingerprint(engine, [_run(engine)])


def _batch(strategy: str) -> Fingerprint:
    workload = incremental_stream(80, 6, 3, seed=5)
    config = AnytimeConfig(nprocs=4, seed=5, collect_snapshots=False)
    with AnytimeAnywhereCloseness(workload.base, config) as engine:
        engine.setup()
        return fingerprint(
            engine, [_run(engine, changes=workload.stream, strategy=strategy)]
        )


def _mixed_stream() -> ChangeStream:
    """Additions, a deletion of each kind and a reweight on BA(90, 2)."""
    return ChangeStream(
        {
            1: ChangeBatch(
                vertex_additions=[
                    VertexAddition(200, ((3, 1.0), (11, 1.0))),
                    VertexAddition(201, ((200, 1.0), (0, 1.0))),
                ],
                edge_additions=[EdgeAddition(5, 40)],
            ),
            2: ChangeBatch(
                edge_deletions=[EdgeDeletion(5, 40)],
                edge_reweights=[EdgeReweight(1, 4, 2.5)],
            ),
            4: ChangeBatch(vertex_deletions=[VertexDeletion(201)]),
        }
    )


def _crash_only() -> Fingerprint:
    res = ResilienceConfig(recovery="checkpoint", checkpoint_interval=2)
    with _engine(resilience=res) as engine:
        plan = FaultPlan(crashes=((1, 2), (3, 0)))
        return fingerprint(engine, [_run(engine, plan)])


def _lossy() -> Fingerprint:
    plan = FaultPlan(
        seed=13, loss_prob=0.1, dup_prob=0.05, send_failure_prob=0.05
    )
    with _engine() as engine:
        return fingerprint(
            engine,
            [_run(engine, plan, changes=_mixed_stream(), strategy="cutedge")],
        )


def _escalate() -> Fingerprint:
    res = ResilienceConfig(recovery="escalate", checkpoint_interval=2)
    with _engine(resilience=res) as engine:
        plan = FaultPlan(seed=17, crashes=((1, 0), (2, 0), (3, 0)))
        return fingerprint(engine, [_run(engine, plan)])


def _interrupted_then_resumed() -> Fingerprint:
    """Two lossy runs cut short with packets still unacknowledged (the
    second continues the first's channel sequence numbers), then resumed
    to convergence on the reliable network."""
    with _engine() as engine:
        first = _run(
            engine, FaultPlan(seed=3, loss_prob=0.4), step_budget=2
        )
        second = _run(
            engine,
            FaultPlan(seed=4, loss_prob=0.3, dup_prob=0.1),
            step_budget=2,
        )
        assert not second.converged
        third = _run(engine)
        assert third.converged and third.rc_steps > 0
        return fingerprint(engine, [first, second, third])


def _serve_auto() -> Fingerprint:
    trace = synthesize_churn("steady-small", n_base=40, ticks=40, seed=6)
    config = AnytimeConfig(nprocs=4, seed=6, collect_snapshots=False)
    with AnytimeAnywhereCloseness(trace.base, config) as engine:
        engine.setup()
        svc = UpdateService(
            engine,
            admission=HybridAdmission(max_events=6, max_delay_ticks=3),
            strategy="auto",
        )
        for t in range(trace.ticks):
            at_t = trace.events_at(t)
            if at_t:
                svc.feed(at_t)
            svc.step()
        result = svc.drain()
        extra = [tick.line() for tick in svc.ticks]
        extra += [d.line() for d in svc.policy_decisions]
        return fingerprint(engine, [result], extra)


def _speculation() -> Fingerprint:
    plan = FaultPlan(seed=13, stragglers=((1, 8.0),), loss_prob=0.1)
    with _engine(health=HealthPolicy()) as engine:
        result = _run(engine, plan)
        assert result.speculations > 0
        return fingerprint(
            engine,
            [result],
            [
                str(result.speculations),
                str(result.missed_deadlines),
                result.backoff_modeled_seconds.hex(),
            ],
        )


def _deletions_redistribute() -> Fingerprint:
    res = ResilienceConfig(recovery="redistribute")
    with _engine(resilience=res) as engine:
        plan = FaultPlan(seed=9, crashes=((3, 1),), loss_prob=0.15)
        return fingerprint(
            engine,
            [_run(engine, plan, changes=_mixed_stream(), strategy="roundrobin")],
        )


def _retry_budget_degraded() -> Fingerprint:
    plan = FaultPlan(seed=6, loss_prob=0.95, max_retries=4)
    with _engine(health=HealthPolicy()) as engine:
        result = _run(engine, plan)
        assert result.degraded_reason == "retry-budget"
        return fingerprint(
            engine,
            [result],
            [f"{k}={v.hex()}" for k, v in sorted(result.quality.items())],
        )


SCENARIOS: Dict[str, Callable[[], Fingerprint]] = {
    "static-dense": lambda: _static("dense"),
    "static-delta": lambda: _static("delta"),
    "batch-cutedge": lambda: _batch("cutedge"),
    "batch-roundrobin": lambda: _batch("roundrobin"),
    "batch-repartition": lambda: _batch("repartition"),
    "plan-crash-only": _crash_only,
    "plan-lossy": _lossy,
    "plan-escalate": _escalate,
    "chaos-interrupted-then-resumed": _interrupted_then_resumed,
    "serve-auto-40-ticks": _serve_auto,
    "straggler-speculation": _speculation,
    "deletions-redistribute": _deletions_redistribute,
    "retry-budget-degraded": _retry_budget_degraded,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fingerprint_matches_golden(name: str) -> None:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert SCENARIOS[name]() == golden[name]


def test_golden_file_has_no_stale_scenarios() -> None:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(SCENARIOS)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(
            {name: SCENARIOS[name]() for name in sorted(SCENARIOS)},
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN}")
