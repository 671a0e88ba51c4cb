"""Cross-commit pins for the closure fold.

:func:`repro.runtime.kernels.minplus_closure` runs a dense, exact push —
and every exact fold that is not a pure push (after a local edge, a
deletion, a recovery) — as one seeded level sweep over the rank's local
CSR.  It is pinned here on three static runs of ``barabasi_albert(1000, 3,
seed=1)`` on 2 ranks — the ``static-solve`` benchmark input, where the
closure runs; an integer-weighted twin, where it runs on Dijkstra-built
local APSPs; and a ``random_weights`` twin, where it must not — each
:func:`result_pin` recorded at 542e456, before the closure existed; on the
``batch-add`` benchmark input (a community batch injected at RC step 2
under CutEdge-PS, 4 ranks), recorded at ef93848, before the closure became
a sweep; and on a churn stream with deletions, recorded at 609c7bc, before
a fold with a risen or fallen mask could sweep.  Every pin must hold under
``REPRO_BACKEND=serial|process``, and the spy asserts which path each run took — in pool children too: the pool
is restarted around each test (``fresh_pool``) so that its children fork
with the spy.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Dict, List, Tuple

import numpy as np
import pytest

import repro.runtime.kernels.oracle as oracle
from repro import AnytimeAnywhereCloseness, AnytimeConfig
from repro.bench.workloads import community_workload
from repro.graph import ChangeStream, Graph, barabasi_albert, random_weights
from repro.serve import events_to_batch, synthesize_churn

from .conftest import result_pin


def _integer_weights(g: Graph, seed: int) -> Graph:
    rng = random.Random(seed)
    out = Graph()
    for v in g.vertices():
        out.add_vertex(v)
    for u, v, _w in g.edges():
        out.add_edge(u, v, float(rng.randint(1, 5)))
    return out


GRAPHS: Dict[str, Callable[[Graph], Graph]] = {
    "unit": lambda g: g,
    "integer": lambda g: _integer_weights(g, 1),
    "random-weights": lambda g: random_weights(g, 1.0, 10.0, seed=1),
}

#: recorded at 542e456 under serial/numpy
PINS: Dict[str, str] = {
    "unit": "5|0x1.0aad14ee16132p+2|1634580|1626788|3f878684fabab227",
    "integer": "9|0x1.1b2a76b4a743ep+3|2354272|2346680|1ac19d1978b8802e",
    "random-weights": "10|0x1.4538d8bf0870cp+3|2492161|2484727|bea15c81c38664dd",
}

#: whether the closure must run
TAKES_CLOSURE = {"unit": True, "integer": True, "random-weights": False}


@pytest.fixture
def closure_calls(
    monkeypatch, tmp_path, fresh_pool
) -> Callable[[], List[Tuple[int, bool]]]:
    """Every ``minplus_closure`` call, here or in a pool child, as ``(dv
    columns, seeded from every finite entry)``: each call appends a line to
    a file, so forked children report too."""
    log = tmp_path / "closure-calls"
    log.touch()
    real = oracle.minplus_closure

    def spy(graph, apsp, dv, changed):  # type: ignore[no-untyped-def]
        full = np.array_equal(changed, dv < np.inf)
        with open(log, "a") as f:
            f.write(f"{dv.shape[1]} {int(full)}\n")
        return real(graph, apsp, dv, changed)

    monkeypatch.setattr(oracle, "minplus_closure", spy)
    return lambda: [
        (int(c), f == "1") for c, f in map(str.split, log.read_text().splitlines())
    ]


def _pin(name: str, **config: object) -> str:
    graph = GRAPHS[name](barabasi_albert(1000, 3, seed=1))
    engine = AnytimeAnywhereCloseness(
        graph, AnytimeConfig(nprocs=2, collect_snapshots=False, **config)  # type: ignore[arg-type]
    )
    with engine:
        engine.setup()
        return result_pin(engine.run())


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_static_run_matches_pin(name: str, closure_calls) -> None:
    assert _pin(name) == PINS[name]
    assert bool(closure_calls()) == TAKES_CLOSURE[name]


@pytest.mark.parametrize(
    "config", [{"backend": "process"}], ids=str
)
def test_closure_runs_are_backend_and_tier_invariant(config, closure_calls) -> None:
    """serial == process where the closure runs, whatever the
    environment seeds."""
    assert _pin("integer", **config) == PINS["integer"]
    assert closure_calls()


#: the ``batch-add`` input, recorded at ef93848 under serial/numpy
BATCH_ADD_PIN = "5|0x1.bd7952775d2edp-1|2451745|2129583|60e7d7a004222c4f"


@pytest.mark.parametrize(
    "config",
    [{"backend": "serial"}, {"backend": "process"}],
    ids=str,
)
def test_batch_add_run_matches_pin(config, closure_calls) -> None:
    """The dynamic run: its dense folds take the closure, and each rank's
    fold after the injection — the new vertices' rows and local edges set
    ``fell`` — is one sweep from every entry of the grown block."""
    wl = community_workload(700, 70, seed=1, inject_step=2)
    engine = AnytimeAnywhereCloseness(
        wl.base, AnytimeConfig(nprocs=4, collect_snapshots=False, **config)  # type: ignore[arg-type]
    )
    with engine:
        engine.setup()
        pin = result_pin(engine.run(changes=wl.stream, strategy="cutedge"))
    assert pin == BATCH_ADD_PIN
    assert sorted(closure_calls())[-4:] == [(770, True)] * 4


#: the churn pin, recorded at 609c7bc under serial/numpy
CHURN_PIN = "27|0x1.de154e800909cp-5|128150|111363|b6b6ab18a7163f3c"


@pytest.mark.parametrize(
    "config",
    [{"backend": "serial"}, {"backend": "process"}],
    ids=str,
)
def test_churn_run_matches_pin(config, closure_calls) -> None:
    """A ``steady-small`` churn trace — additions, deletions, reweights —
    one batch per tick on 4 ranks: its deletion repairs and local edges
    fold as sweeps from every entry."""
    trace = synthesize_churn("steady-small", n_base=80, ticks=24, seed=1)
    stream = ChangeStream(
        {
            tick + 1: events_to_batch(ev for _t, ev in group)
            for tick, group in itertools.groupby(trace.events, key=lambda te: te[0])
        }
    )
    engine = AnytimeAnywhereCloseness(
        trace.base, AnytimeConfig(nprocs=4, collect_snapshots=False, **config)  # type: ignore[arg-type]
    )
    with engine:
        engine.setup()
        pin = result_pin(engine.run(changes=stream))
    assert pin == CHURN_PIN
    assert any(full for _cols, full in closure_calls())
