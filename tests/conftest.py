"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import hashlib
import struct
import sys
from pathlib import Path
from typing import Dict, Optional

import pytest

# the repro_lint developer tool lives under tools/, outside the installed
# package; make it importable for tests/test_repro_lint.py
_TOOLS = str(Path(__file__).resolve().parent.parent / "tools")
if _TOOLS not in sys.path:
    sys.path.insert(0, _TOOLS)

from repro import AnytimeAnywhereCloseness, AnytimeConfig, ChangeStream
from repro.centrality import exact_closeness
from repro.graph import Graph, barabasi_albert
from repro.runtime.kernels import KERNELS


def path_graph(n: int) -> Graph:
    """0 - 1 - 2 - ... - (n-1)."""
    return Graph.from_edges([(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(
        [(i, (i + 1) % n) for i in range(n)]
    )


def star_graph(n_leaves: int) -> Graph:
    """Hub 0 with leaves 1..n."""
    return Graph.from_edges([(0, i) for i in range(1, n_leaves + 1)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(
        [(i, j) for i in range(n) for j in range(i + 1, n)]
    )


def grid_graph(rows: int, cols: int) -> Graph:
    """rows x cols grid; vertex id = r * cols + c."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph.from_edges(edges)


def superstep(worker):
    """One RC superstep on a lone worker: prepare -> kernel -> apply
    (what ``Cluster.relax_and_propagate`` does for every rank)."""
    task = worker.superstep_prepare()
    result = KERNELS.run_superstep(
        task, worker.dv, worker.local_apsp, worker.dv_changed, worker.ext_store.rows
    )
    worker.superstep_apply(task, result)
    return result


def run_and_verify(
    base: Graph,
    *,
    changes: Optional[ChangeStream] = None,
    strategy: str = "roundrobin",
    nprocs: int = 4,
    final: Optional[Graph] = None,
    seed: int = 0,
    tol: float = 1e-9,
) -> Dict[int, float]:
    """Run the engine and assert the result matches exact closeness."""
    engine = AnytimeAnywhereCloseness(
        base, AnytimeConfig(nprocs=nprocs, seed=seed, collect_snapshots=False)
    )
    engine.setup()
    result = engine.run(changes=changes, strategy=strategy)
    target = final if final is not None else base
    exact = exact_closeness(target)
    assert set(result.closeness) == set(exact)
    for v, c in exact.items():
        assert result.closeness[v] == pytest.approx(c, abs=tol), f"vertex {v}"
    return result.closeness


def result_pin(result) -> str:
    """What a replaced code path is pinned on: ``rc_steps|modeled clock
    (hex)|wire_words|boundary_words|sha256 of the closeness bits[:16]``."""
    bits = b"".join(
        struct.pack("<qd", v, c) for v, c in sorted(result.closeness.items())
    )
    return (
        f"{result.rc_steps}|{result.modeled_seconds.hex()}|{result.wire_words}"
        f"|{result.boundary_words}|{hashlib.sha256(bits).hexdigest()[:16]}"
    )


@pytest.fixture
def fresh_pool():
    """Restart the process backend's pool around a test, so that its
    children fork with the test's monkeypatches and none outlive it."""
    from repro.runtime.backends import process

    def restart():
        if process._POOL is not None:
            process._POOL.shutdown(wait=True)
            process._POOL, process._POOL_SIZE = None, 0

    restart()
    yield
    restart()


@pytest.fixture
def ba_graph() -> Graph:
    return barabasi_albert(120, 3, seed=4)


@pytest.fixture
def small_ba() -> Graph:
    return barabasi_albert(40, 2, seed=4)
