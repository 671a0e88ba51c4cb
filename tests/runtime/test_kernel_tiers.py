"""Kernel tiers: every tier must be faithful to the numpy oracle.

The ``scipy`` tier only changes *scheduling* (source-chunked IA), so its
closeness bits, trace, modeled clock, and fault accounting must equal
the ``numpy`` tier exactly, on either backend.  Also covers the
tier registry/factory, config/CLI plumbing, the chunked-IA equivalence
at the kernel level, the scatter-writeback min-plus regression against
the old full-submatrix fold, and the cached sorted-subscriber lists on
:class:`Worker`.
"""

from __future__ import annotations

import re
import struct
from typing import Any, Dict, List, Tuple

import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AnytimeAnywhereCloseness, AnytimeConfig, ResilienceConfig
from repro.cli import build_parser
from repro.errors import ConfigurationError
from repro.graph import Graph, barabasi_albert, extract_local_subgraph, random_weights
from repro.graph.changes import (
    ChangeBatch,
    ChangeStream,
    EdgeAddition,
    EdgeDeletion,
    VertexAddition,
)
from repro.model import DEFAULT_COST
from repro.runtime import (
    KERNEL_TIERS,
    GlobalIndex,
    Worker,
    available_tiers,
    make_tier,
    register_tier,
)
from repro.runtime.chaos import FaultPlan
from repro.runtime.kernels import (
    IATask,
    KernelTier,
    NumpyTier,
    ScipyTier,
)
from repro.runtime.kernels import oracle
from repro.runtime.kernels.registry import _INSTANCES

from ..conftest import path_graph


def _bits(closeness: Dict[int, float]) -> List[Tuple[int, bytes]]:
    return [(v, struct.pack("<d", closeness[v])) for v in sorted(closeness)]


def _trace(engine: AnytimeAnywhereCloseness) -> List[Dict[str, Any]]:
    dump = engine.cluster.tracer.to_json()
    records = []
    for rec in dump["records"]:
        rec = dict(rec)
        rec.pop("wall_seconds", None)
        records.append(rec)
    return records


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


def _fault_plan() -> FaultPlan:
    return FaultPlan(
        seed=11,
        crashes=((2, 1),),
        loss_prob=0.15,
        dup_prob=0.05,
        send_failure_prob=0.05,
    )


def _run(backend: str, tier: str, *, changes=None, strategy=None, fault_plan=None):
    g = barabasi_albert(70, 2, seed=7)
    engine = AnytimeAnywhereCloseness(
        g,
        AnytimeConfig(
            nprocs=4,
            seed=7,
            collect_snapshots=False,
            backend=backend,
            kernel_tier=tier,
        ),
    )
    engine.setup()
    kwargs: Dict[str, Any] = {}
    if changes is not None:
        kwargs["changes"] = changes
        kwargs["strategy"] = strategy
    if fault_plan is not None:
        kwargs["resilience"] = ResilienceConfig(fault_plan=fault_plan)
    res = engine.run(**kwargs)
    summary = res.summary()
    summary.pop("wall_seconds", None)
    fingerprint = (
        _bits(res.closeness),
        res.rc_steps,
        res.modeled_seconds,
        summary,
        _trace(engine),
    )
    engine.cluster.close()
    return fingerprint


class TestTierFingerprints:
    """Acceptance criterion: scipy is bitwise-identical to the oracle."""

    def test_scipy_matches_numpy_serial_static(self):
        assert _run("serial", "scipy") == _run("serial", "numpy")

    def test_scipy_matches_numpy_serial_dynamic_faulty(self):
        assert _run(
            "serial", "scipy", changes=_changes(), strategy="cutedge",
            fault_plan=_fault_plan(),
        ) == _run(
            "serial", "numpy", changes=_changes(), strategy="cutedge",
            fault_plan=_fault_plan(),
        )

    def test_scipy_process_matches_numpy_serial(self):
        # the chunked fan-out across pool slots must merge to the exact
        # same bits the serial oracle produces
        assert _run(
            "process", "scipy", changes=_changes(), strategy="cutedge",
            fault_plan=_fault_plan(),
        ) == _run(
            "serial", "numpy", changes=_changes(), strategy="cutedge",
            fault_plan=_fault_plan(),
        )


class TestChunkedIAEquivalence:
    """Source-chunked IA composes to the full oracle call, bitwise."""

    def _task(self, n=40, seed=3):
        g = barabasi_albert(n, 2, seed=seed)
        view = g.to_csr()
        rng = np.random.default_rng(seed)
        cols = np.arange(n, dtype=np.intp)
        dv = rng.uniform(0.5, 30.0, size=(n, n))
        return (
            IATask(matrix=view.matrix, cols=cols, n=n, nnz=view.matrix.nnz),
            dv,
        )

    def test_chunks_partition_sources(self):
        task, _ = self._task(n=500)
        chunks = ScipyTier().ia_chunks(task, parallelism=3)
        assert chunks[0][0] == 0
        assert chunks[-1][1] == task.n
        for (_, hi), (lo2, _) in zip(chunks, chunks[1:]):
            assert hi == lo2
        assert len(chunks) > 1

    def test_small_problem_single_chunk(self):
        task, _ = self._task(n=40)
        assert ScipyTier().ia_chunks(task, parallelism=8) == [(0, 40)]

    def test_numpy_tier_never_chunks(self):
        task, _ = self._task(n=40)
        task = IATask(matrix=task.matrix, cols=task.cols, n=500, nnz=task.nnz)
        assert NumpyTier().ia_chunks(task, parallelism=8) == [(0, 500)]

    @pytest.mark.parametrize("weights", ["unit", "tenth", "random"])
    def test_chunked_equals_full_bitwise(self, weights):
        """Chunks and the whole task both equal one direct Dijkstra call:
        the level sweep on uniform weights, Dijkstra on random ones."""
        g = barabasi_albert(200, 2, seed=3)
        if weights == "random":
            g = random_weights(g, 0.5, 9.0, seed=4)
        matrix = g.to_csr().matrix
        if weights != "random":
            matrix.data[:] = 1.0 if weights == "unit" else 0.1
        n = matrix.shape[0]
        task = IATask(matrix=matrix, cols=np.arange(n), n=n, nnz=matrix.nnz)
        dv0 = np.random.default_rng(3).uniform(0.5, 30.0, size=(n, n))
        apsp_want = csgraph.dijkstra(matrix, directed=False)
        dv_want = np.minimum(dv0, apsp_want)
        dv_full = dv0.copy()
        apsp_full = np.zeros((n, n))
        oracle.ia_kernel(task, dv_full, apsp_full)
        dv_chunk = dv0.copy()
        apsp_chunk = np.zeros((n, n))
        tier = ScipyTier()
        for lo, hi in [(0, 67), (67, 130), (130, n)]:
            tier.ia_chunk_kernel(task, lo, hi, dv_chunk, apsp_chunk)
        for apsp, dv in ((apsp_full, dv_full), (apsp_chunk, dv_chunk)):
            assert apsp.tobytes() == apsp_want.tobytes()
            assert dv.tobytes() == dv_want.tobytes()


class TestScatterFoldRegression:
    """The scatter writeback equals the old full-submatrix writeback."""

    @staticmethod
    def _old_fold(apsp, dv, rows, cols):
        """The pre-scatter ending: write the whole dv[:, cols] submatrix."""
        a = apsp[:, rows]
        b = dv[np.asarray(rows)][:, cols]
        cand = np.full((apsp.shape[0], len(cols)), np.inf, dtype=np.float64)
        for j in range(len(rows)):
            np.minimum(cand, a[:, j][:, None] + b[j][None, :], out=cand)
        sub = dv[:, cols]
        improved = cand < sub
        if not improved.any():
            return []
        sub[improved] = cand[improved]
        dv[:, cols] = sub
        return [int(r) for r in np.flatnonzero(improved.any(axis=1))]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_scatter_bitwise_equivalent(self, seed):
        rng = np.random.default_rng(seed)
        n, n_cols = 14, 25
        apsp = rng.uniform(0.5, 8.0, size=(n, n))
        np.fill_diagonal(apsp, 0.0)
        dv = rng.uniform(0.5, 20.0, size=(n, n_cols))
        dv[rng.random(dv.shape) < 0.2] = np.inf
        rows = sorted(rng.choice(n, size=n // 2, replace=False).tolist())
        cols = np.flatnonzero(rng.random(n_cols) < 0.7)
        dv_old = dv.copy()
        dv_new = dv.copy()
        old_rows = self._old_fold(apsp, dv_old, rows, cols)
        new_rows = oracle.minplus_fold(apsp, dv_new, rows, cols)
        assert new_rows == old_rows
        assert dv_new.tobytes() == dv_old.tobytes()

    def test_no_improvement_leaves_dv_untouched(self):
        apsp = np.zeros((3, 3))
        dv = np.zeros((3, 4))
        before = dv.copy()
        assert oracle.minplus_fold(apsp, dv, [0, 1], np.arange(4)) == []
        assert dv.tobytes() == before.tobytes()


class TestTierRegistry:
    def test_available_tiers(self):
        assert available_tiers() == ("numpy", "scipy")

    def test_make_tier_by_name(self):
        assert isinstance(make_tier("numpy"), NumpyTier)
        assert isinstance(make_tier("scipy"), ScipyTier)

    def test_make_tier_memoizes(self):
        assert make_tier("scipy") is make_tier("scipy")

    def test_make_tier_passthrough(self):
        tier = NumpyTier()
        assert make_tier(tier) is tier

    def test_unknown_tier_rejected(self):
        with pytest.raises(ConfigurationError):
            make_tier("fortran")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_tier("numpy")(NumpyTier)

    def test_register_and_overwrite(self):
        name = "test-tier-temp"
        try:
            @register_tier(name)
            class _Temp(NumpyTier):  # noqa: N801
                pass

            assert name in available_tiers()
            assert isinstance(make_tier(name), _Temp)

            @register_tier(name, overwrite=True)
            class _Temp2(NumpyTier):  # noqa: N801
                pass
        finally:
            KERNEL_TIERS.pop(name, None)
            _INSTANCES.pop(name, None)

    def test_config_validates_tier(self):
        with pytest.raises(ConfigurationError):
            AnytimeConfig(kernel_tier="fortran")

    def test_config_names_match_the_registries(self, monkeypatch):
        """config.py repeats the accepted names as literals (it imports
        without the runtime package); they may not drift."""
        from repro.core.config import _RECOVERY_POLICIES
        from repro.runtime import RECOVERY_POLICIES, available_backends

        assert _RECOVERY_POLICIES == RECOVERY_POLICIES
        for field, names in (
            ("kernel_tier", available_tiers()),
            ("backend", available_backends()),
        ):
            for name in names:
                AnytimeConfig(**{field: name})
            with pytest.raises(ConfigurationError) as exc:
                AnytimeConfig(**{field: "numba"})
            assert tuple(re.findall(r"'(\w+)'", str(exc.value)))[:-1] == names
        monkeypatch.setenv("REPRO_KERNEL_TIER", "numba")
        with pytest.raises(ConfigurationError, match="'numpy' or 'scipy'"):
            AnytimeConfig()

    def test_config_reads_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_TIER", "scipy")
        assert AnytimeConfig().kernel_tier == "scipy"
        monkeypatch.delenv("REPRO_KERNEL_TIER")
        assert AnytimeConfig().kernel_tier == "numpy"

    def test_cli_flag_parsed(self):
        parser = build_parser()
        args = parser.parse_args(["trace", "--kernel-tier", "scipy"])
        assert args.kernel_tier == "scipy"
        args = parser.parse_args(["serve", "--kernel-tier", "scipy"])
        assert args.kernel_tier == "scipy"
        args = parser.parse_args(["trace"])
        assert args.kernel_tier is None

    def test_engine_plumbs_tier_to_cluster(self):
        g = barabasi_albert(30, 2, seed=1)
        engine = AnytimeAnywhereCloseness(
            g, AnytimeConfig(nprocs=2, collect_snapshots=False, kernel_tier="scipy")
        )
        engine.setup()
        assert engine.cluster.tier.name == "scipy"
        for w in engine.cluster.workers:
            assert w.tier is engine.cluster.tier
        engine.cluster.close()

    def test_base_tier_kernels_abstract(self):
        tier = KernelTier()
        with pytest.raises(NotImplementedError):
            tier.minplus_fold(np.zeros((1, 1)), np.zeros((1, 1)), None)


class TestSubscriberMemo:
    """Sorted subscriber lists are cached, not re-sorted per row."""

    def _worker(self):
        g = path_graph(6)
        owner = {v: (0 if v < 4 else 1) for v in range(6)}
        idx = GlobalIndex(g.vertex_list())
        w = Worker(0, 6, idx, DEFAULT_COST)
        w.load_subgraph(extract_local_subgraph(g, [0, 1, 2, 3], owner, 0))
        return w

    def test_sorted_and_cached(self):
        w = self._worker()
        w.subscribe(2, 5)
        w.subscribe(2, 1)
        w.subscribe(2, 3)
        first = w._sorted_subscribers(2)
        assert first == [1, 3, 5]
        assert w._sorted_subscribers(2) is first  # memo hit

    def test_subscribe_invalidates_memo(self):
        w = self._worker()
        w.subscribe(2, 5)
        assert w._sorted_subscribers(2) == [5]
        w.subscribe(2, 1)
        assert w._sorted_subscribers(2) == [1, 5]

    def test_record_subscriber_invalidates_memo(self):
        w = self._worker()
        w.subscribe(2, 5)
        assert w._sorted_subscribers(2) == [5]
        w.record_subscriber(2, 3)
        assert w._sorted_subscribers(2) == [3, 5]
        assert w.subscribers[2] == {3, 5}

    def test_unsubscribe_rank_invalidates_memo(self):
        w = self._worker()
        w.subscribe(2, 5)
        w.subscribe(2, 3)
        assert w._sorted_subscribers(2) == [3, 5]
        w.unsubscribe_rank(5)
        assert w._sorted_subscribers(2) == [3]

    def test_assignment_resets_memo(self):
        w = self._worker()
        w.subscribe(2, 5)
        assert w._sorted_subscribers(2) == [5]
        w.subscribers = {}
        assert w._sorted_subscribers(2) == []


@st.composite
def graph_and_batch(draw):
    """A connected graph plus a valid vertex-addition batch against it."""
    n = draw(st.integers(4, 16))
    g = Graph()
    g.add_vertex(0)
    for v in range(1, n):
        parent = draw(st.integers(0, v - 1))
        g.add_vertex(v)
        g.add_edge(v, parent, float(draw(st.integers(1, 9))))
    k = draw(st.integers(1, 3))
    additions = []
    for i, v in enumerate(range(n, n + k)):
        targets = {draw(st.integers(0, n - 1))}
        edges = tuple((t, float(draw(st.integers(1, 9)))) for t in sorted(targets))
        additions.append(VertexAddition(v, edges=edges))
    return g, ChangeBatch(vertex_additions=additions)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    data=graph_and_batch(),
    nprocs=st.integers(1, 4),
    strategy=st.sampled_from(["roundrobin", "cutedge", "leastloaded"]),
    fault_seed=st.integers(0, 2**16),
)
def test_tiers_identical_property(data, nprocs, strategy, fault_seed):
    """numpy and scipy tiers agree bit-for-bit on arbitrary inputs."""
    g, batch = data
    plan = FaultPlan(seed=fault_seed, loss_prob=0.1, dup_prob=0.05)
    fingerprints = []
    for tier in ("numpy", "scipy"):
        engine = AnytimeAnywhereCloseness(
            g.copy(),
            AnytimeConfig(
                nprocs=nprocs, seed=5, collect_snapshots=False, kernel_tier=tier
            ),
        )
        engine.setup()
        res = engine.run(
            changes=ChangeStream({1: batch}),
            strategy=strategy,
            resilience=ResilienceConfig(fault_plan=plan),
        )
        fingerprints.append(
            (_bits(res.closeness), res.rc_steps, res.modeled_seconds, _trace(engine))
        )
        engine.cluster.close()
    assert fingerprints[0] == fingerprints[1]
