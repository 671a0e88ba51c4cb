"""Unit- and integer-weight runs never import scipy.

Each case runs in a fresh interpreter, since the test session itself has
imported scipy long before.  After ``import repro``, a unit-weight static
run on either backend and an ``auto`` serve of a churn stream whose
reweights leave integer weights, ``scipy`` is in neither the process's
``sys.modules`` nor any pool child's.  A float-weight run imports it at
its first Dijkstra (:func:`repro.runtime.kernels.oracle.dijkstra_rows`),
and not before; on the process backend the coordinator loads it before
the pool forks, so the children inherit it rather than each import it.

Cases that leave the backend to ``AnytimeConfig`` follow ``REPRO_BACKEND``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: run first in every case: the spies and the pool-child probe
PRELUDE = """
import os
import sys

import repro.runtime.kernels.oracle as oracle
from repro.runtime.backends import process

DIAL = [0]
dial_rows = oracle._dial_rows


def counted_dial_rows(*args):
    DIAL[0] += 1
    return dial_rows(*args)


oracle._dial_rows = counted_dial_rows


def child_state():
    return os.getpid(), "scipy" in sys.modules, DIAL[0]


def assert_no_scipy():
    assert "scipy" not in sys.modules, "scipy imported in the coordinator"
    children = {}
    if process._POOL is not None:
        for future in [process._POOL.submit(child_state) for _ in range(16)]:
            pid, has_scipy, dial = future.result()
            assert not has_scipy, "scipy imported in a pool child"
            children[pid] = dial
    return DIAL[0] + sum(children.values())
"""

STATIC = """
from repro import AnytimeAnywhereCloseness, AnytimeConfig
from repro.graph import barabasi_albert

g = barabasi_albert(120, 2, seed=3)
config = AnytimeConfig(nprocs=4, backend="{backend}", collect_snapshots=False)
with AnytimeAnywhereCloseness(g, config) as engine:
    engine.setup()
    assert engine.run().converged
    assert_no_scipy()
"""

CHURN = """
from repro import AnytimeAnywhereCloseness, AnytimeConfig
from repro.serve import HybridAdmission, UpdateService, synthesize_churn

trace = synthesize_churn("steady-small", n_base=60, ticks=24, seed=1)
config = AnytimeConfig(nprocs=4, seed=1, collect_snapshots=False)
with AnytimeAnywhereCloseness(trace.base, config) as engine:
    engine.setup()
    svc = UpdateService(
        engine, admission=HybridAdmission(max_events=6, max_delay_ticks=3),
        strategy="auto",
    )
    for t in range(trace.ticks):
        svc.feed(trace.events_at(t))
        svc.step()
    assert svc.drain().converged
    reweights = [
        e.weight for t in range(trace.ticks) for e in trace.events_at(t)
        if type(e).__name__ == "EdgeReweight"
    ]
    assert reweights and all(w == int(w) != 1.0 for w in reweights)
    # the reweights left mixed integer weights: some IA took the Dial sweep
    assert assert_no_scipy() > 0
"""

FLOAT = """
from repro import AnytimeAnywhereCloseness, AnytimeConfig
from repro.graph import barabasi_albert, random_weights

seen = []
dijkstra_rows = oracle.dijkstra_rows


def first_dijkstra(*args):
    seen.append("scipy" in sys.modules)
    return dijkstra_rows(*args)


oracle.dijkstra_rows = first_dijkstra
g = random_weights(barabasi_albert(80, 2, seed=3), 0.5, 4.0, seed=4)
config = AnytimeConfig(nprocs=2, backend="serial", collect_snapshots=False)
with AnytimeAnywhereCloseness(g, config) as engine:
    assert "scipy" not in sys.modules
    engine.setup()
    assert seen[0] is False and "scipy" in sys.modules
"""


FLOAT_POOL = """
from repro import AnytimeAnywhereCloseness, AnytimeConfig
from repro.graph import barabasi_albert, random_weights

AT_FORK = []
os.register_at_fork(
    after_in_child=lambda: AT_FORK.append("scipy.sparse.csgraph" in sys.modules)
)


def loaded_at_fork():
    return AT_FORK


g = random_weights(barabasi_albert(80, 2, seed=3), 0.5, 4.0, seed=4)
config = AnytimeConfig(nprocs=2, backend="process", collect_snapshots=False)
with AnytimeAnywhereCloseness(g, config) as engine:
    assert "scipy" not in sys.modules and process._POOL is None
    engine.setup()
    forks = [process._POOL.submit(loaded_at_fork) for _ in range(8)]
    assert all(f.result() == [True] for f in forks)
"""


def run_case(body: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    script = textwrap.dedent(PRELUDE) + textwrap.dedent(body)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]


def test_import_repro() -> None:
    run_case("assert_no_scipy()\n")


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_a_unit_weight_static_run(backend: str) -> None:
    run_case(STATIC.format(backend=backend))


def test_an_integer_reweight_serve() -> None:
    run_case(CHURN)


def test_a_float_weight_run_imports_scipy_at_its_first_dijkstra() -> None:
    run_case(FLOAT)


def test_a_float_weight_pool_forks_with_scipy_loaded() -> None:
    run_case(FLOAT_POOL)
