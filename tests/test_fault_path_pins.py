"""Cross-commit pins for the fault paths the golden scenarios miss.

``tests/test_golden_fingerprints.py`` pins 13 scenarios; none of them
takes a plain warm crash, a checkpoint crash that falls back to warm, a
fixed ``redistribute`` policy under a health policy, an escalate run
that bursts its crash budget, a crash injected by hand between runs, a
rebalancing stream that really migrates, or an engine resumed from an
on-disk checkpoint.  Each of those paths is
pinned here on its :func:`result_pin` string plus the sha256 of its
fault-event log, recorded at 154142e — before the fault machinery moved
into one run context and the three migration tails became one routine.
Every pin must hold under ``REPRO_BACKEND=serial|process``.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Callable, Dict, Tuple

import pytest

from repro import (
    AnytimeAnywhereCloseness,
    AnytimeConfig,
    ChangeBatch,
    ChangeStream,
    FaultPlan,
    HealthPolicy,
    ResilienceConfig,
)
from repro.bench import incremental_stream
from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.engine import RunResult
from repro.core.strategies import (
    NeighborMajorityPS,
    RebalancedStrategy,
    VertexAdditionStrategy,
)
from repro.graph import barabasi_albert
from repro.graph.changes import EdgeDeletion

from .conftest import result_pin

Pin = Tuple[str, str]


def _pin(result: RunResult) -> Pin:
    events = hashlib.sha256("\n".join(result.fault_events).encode()).hexdigest()
    return result_pin(result), events[:16]


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
    engine: AnytimeAnywhereCloseness, plan: FaultPlan, **kw: object
) -> RunResult:
    res = dataclasses.replace(
        engine.config.resilience, fault_plan=plan  # type: ignore[type-var]
    )
    return engine.run(resilience=res, **kw)  # type: ignore[arg-type]


def _warm() -> Pin:
    with _engine() as engine:
        result = _run(engine, FaultPlan(seed=5, crashes=((2, 1),), loss_prob=0.05))
    assert result.recoveries_by_rung == {"warm": 1}
    return _pin(result)


def _checkpoint_warm_fallback() -> Pin:
    res = ResilienceConfig(recovery="checkpoint", checkpoint_interval=1000)
    with _engine(resilience=res) as engine:
        u, v, _w = engine.graph.edge_list()[0]
        stream = ChangeStream(
            {1: ChangeBatch(edge_deletions=[EdgeDeletion(u, v)])}
        )
        result = _run(
            engine,
            FaultPlan(crashes=((3, 1),)),
            changes=stream,
            strategy="roundrobin",
        )
    assert result.recoveries_by_rung == {"warm-fallback": 1}
    return _pin(result)


def _redistribute_health() -> Pin:
    res = ResilienceConfig(recovery="redistribute")
    with _engine(resilience=res, health=HealthPolicy()) as engine:
        plan = FaultPlan(seed=3, crashes=((2, 1),), stragglers=((2, 4.0),))
        result = _run(engine, plan)
    assert result.recoveries_by_rung == {"redistribute": 1}
    return _pin(result)


def _escalate_crash_budget() -> Pin:
    res = ResilienceConfig(recovery="escalate", checkpoint_interval=2)
    with _engine(resilience=res, health=HealthPolicy(crash_budget=2)) as engine:
        result = _run(engine, FaultPlan(crashes=((1, 0), (2, 0), (3, 0))))
    assert result.degraded_reason == "crash-budget"
    return _pin(result)


def _crash_worker_then_run() -> Pin:
    with _engine() as engine:
        engine.run(step_budget=2)
        engine.crash_worker(2)
        result = engine.run()
    return _pin(result)


def _rebalance_migrates() -> Pin:
    wl = incremental_stream(120, 12, 4, seed=4)
    strategy = RebalancedStrategy(
        VertexAdditionStrategy(NeighborMajorityPS()), threshold=0.10
    )
    config = AnytimeConfig(nprocs=4, seed=4, collect_snapshots=False)
    with AnytimeAnywhereCloseness(wl.base, config) as engine:
        engine.setup()
        result = engine.run(changes=wl.stream, strategy=strategy)
    assert strategy.total_moves > 0
    return _pin(result)


def _checkpoint_file_resumed(tmp_path) -> Pin:
    with _engine() as engine:
        engine.run(step_budget=2)
        save_checkpoint(engine, tmp_path / "ck.npz")
    with load_checkpoint(tmp_path / "ck.npz", engine.config) as restored:
        return _pin(restored.run())


SCENARIOS: Dict[str, Callable[..., Pin]] = {
    "warm": _warm,
    "checkpoint-warm-fallback": _checkpoint_warm_fallback,
    "redistribute-health": _redistribute_health,
    "escalate-crash-budget": _escalate_crash_budget,
    "crash-worker-then-run": _crash_worker_then_run,
    "rebalance-migrates": _rebalance_migrates,
    "checkpoint-file-resumed": _checkpoint_file_resumed,
}

#: recorded at 154142e under serial/numpy.  There the process backend
#: disagreed on the two paths that keep an untouched rank's local APSP
#: across a migration (it read the array after its shared-memory segment
#: was released: wrong closeness for ``redistribute-health``, a segfault
#: for ``rebalance-migrates``); these are the serial values.
PINS: Dict[str, Pin] = {
    "checkpoint-file-resumed": (
        "3|0x1.e5760cb017839p-8|11260|11248|a41ef0c691d57a42",
        "e3b0c44298fc1c14",
    ),
    "checkpoint-warm-fallback": (
        "6|0x1.a8af42e8d3110p-7|49594|38568|4cc7cab75a571d41",
        "6239637b505aa549",
    ),
    "crash-worker-then-run": (
        "3|0x1.edaf60b7b1505p-8|31369|30849|a41ef0c691d57a42",
        "e3b0c44298fc1c14",
    ),
    "escalate-crash-budget": (
        "3|0x1.2ee387c66ab6fp-7|54456|30306|89e9376c62e4b58c",
        "b93495c0174dce3c",
    ),
    "rebalance-migrates": (
        "5|0x1.1006e594e62a5p-4|205699|162233|f04d0c3242367b9d",
        "e3b0c44298fc1c14",
    ),
    "redistribute-health": (
        "6|0x1.82bfc0c53a547p-7|30499|29802|a41ef0c691d57a42",
        "e22fb991246dcb13",
    ),
    "warm": (
        "7|0x1.d56ca2509e70cp-7|39026|38379|a41ef0c691d57a42",
        "4167f67b47993473",
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fault_path_matches_pin(name: str, tmp_path) -> None:
    scenario = SCENARIOS[name]
    resumed = name == "checkpoint-file-resumed"
    got = scenario(tmp_path) if resumed else scenario()
    assert got == PINS[name]
