"""Edge cases of the min-plus folds and the edge-row relaxation.

The fold in :func:`repro.runtime.kernels.minplus_fold` (the RC
superstep's local propagation) processes sources in blocks, clamps the
block size to 1 when ``n * c`` exceeds the broadcast-temporary element
budget, and skips blocks whose sources are all infinite.  Every variant
must be bitwise-equal to a naive unblocked reference fold.

The implementation module is :mod:`repro.runtime.kernels.oracle`
(:class:`~repro.runtime.kernels.KernelTier` delegates to it), so the
block-size knobs are patched there.

:func:`repro.runtime.kernels.minplus_fold_changed` — the entry-level
fold every RC superstep runs — visits only the ``dv`` entries marked in
the changed mask.  On states whose unmarked entries are closed under
``local_apsp`` (the invariant the writers maintain) and whose path sums
are exact (integer weights) it must be bitwise-equal to the rectangle
fold over any rectangle that contains the mask.

:func:`repro.runtime.kernels.relax_edge_batch_kernel` (a whole batch of
new edges as one closure and one product per rank) must be at most the
per-edge sequence it replaced (``tests/edge_reference.py``, kept there
statement for statement) and at least the exact distances, and must mark
exactly the entries it lowers.

:func:`repro.runtime.kernels.relax_cut_kernel` (one min-reduced candidate
and one compare per destination row and weight) is pinned bitwise against
``_reference_relax_cut``: the per-pair loop it replaced, kept here
statement for statement.

:func:`repro.runtime.kernels.minplus_closure` — the push as one seeded,
bit-parallel level sweep over the local CSR — must be bitwise-equal to
:func:`~repro.runtime.kernels.minplus_fold_changed` on positive integer
weights and non-negative integer entries, and the fold may take it nowhere
else; seeded from every finite entry, it is the full fold (after a
deletion, a local edge, a recovery or a rebuild) wherever it is exact,
and must be bitwise-equal to the rectangle fold there.
"""

from __future__ import annotations

import tracemalloc
import warnings
from typing import List, NamedTuple, Set, Tuple
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.runtime.kernels.oracle as kernels
from repro import AnytimeAnywhereCloseness, AnytimeConfig, ChangeStream
from repro.centrality import apsp_dijkstra, exact_closeness, sssp_dijkstra
from repro.core.strategies import (
    RoundRobinPS,
    VertexAdditionStrategy,
    apply_edge_addition,
)
from repro.graph import (
    ChangeBatch,
    Graph,
    barabasi_albert,
    erdos_renyi,
    extract_local_subgraph,
    planted_partition,
    random_weights,
    watts_strogatz,
)
from repro.graph.changes import (
    EdgeAddition,
    EdgeDeletion,
    EdgeReweight,
    VertexAddition,
    VertexDeletion,
)
from repro.model import DEFAULT_COST
from repro.runtime import GlobalIndex, Worker, check_cluster_invariants
from repro.runtime.kernels import KERNELS, IATask
from repro.runtime.shm import (
    SharedMemoryAllocator,
    attach_shm_array,
    detach_shm,
)

from .. import edge_reference as reference
from ..conftest import cycle_graph, grid_graph, path_graph, superstep
from ..test_harness import WEIGHTS, connected_graphs


def unblocked_reference(
    apsp: np.ndarray, dv: np.ndarray, rows: List[int], cols: np.ndarray
) -> np.ndarray:
    """One source per np.minimum call — the obviously-correct fold."""
    dv = dv.copy()
    a = apsp[:, rows]
    b = dv[np.asarray(rows)][:, cols]
    cand = np.full((apsp.shape[0], len(cols)), np.inf, dtype=np.float64)
    for j in range(len(rows)):
        np.minimum(cand, a[:, j][:, None] + b[j][None, :], out=cand)
    sub = dv[:, cols]
    improved = cand < sub
    sub[improved] = cand[improved]
    dv[:, cols] = sub
    return dv


def random_case(seed: int, n: int = 12, n_cols: int = 30):
    rng = np.random.default_rng(seed)
    apsp = rng.uniform(0.5, 8.0, size=(n, n))
    np.fill_diagonal(apsp, 0.0)
    dv = rng.uniform(0.5, 20.0, size=(n, n_cols))
    dv[rng.random(dv.shape) < 0.2] = np.inf
    rows = sorted(rng.choice(n, size=max(2, n // 2), replace=False).tolist())
    cols = np.flatnonzero(rng.random(n_cols) < 0.7)
    return apsp, dv, rows, cols


class _CountingMin:
    """Wrap np.min to count per-block reductions inside the fold."""

    def __init__(self):
        self.calls = 0
        self._min = np.min

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self._min(*args, **kwargs)


class TestBlockClamping:
    def test_block_clamps_to_one_when_budget_exceeded(self, monkeypatch):
        apsp, dv, rows, cols = random_case(seed=1)
        expected = unblocked_reference(apsp, dv, rows, cols)
        # budget of 1 element < n * c, so the clamp must kick in
        monkeypatch.setattr(kernels, "_MINPLUS_BLOCK_ELEMS", 1)
        counter = _CountingMin()
        monkeypatch.setattr(kernels.np, "min", counter)
        got = dv.copy()
        kernels.minplus_fold(apsp, got, rows, cols)
        # one reduction per source == block size was clamped to 1
        assert counter.calls == len(rows)
        assert got.tobytes() == expected.tobytes()

    def test_max_block_cap_respected(self, monkeypatch):
        apsp, dv, rows, cols = random_case(seed=2)
        expected = unblocked_reference(apsp, dv, rows, cols)
        # huge budget, but the per-call source cap forces 2-wide blocks
        monkeypatch.setattr(kernels, "_MINPLUS_MAX_BLOCK", 2)
        counter = _CountingMin()
        monkeypatch.setattr(kernels.np, "min", counter)
        got = dv.copy()
        kernels.minplus_fold(apsp, got, rows, cols)
        assert counter.calls == -(-len(rows) // 2)  # ceil(k / 2)
        assert got.tobytes() == expected.tobytes()


class TestInfiniteSourceBlocks:
    def test_all_infinite_source_blocks_skipped(self, monkeypatch):
        apsp, dv, rows, cols = random_case(seed=3)
        # make every selected source column of apsp infinite except two:
        # with block size 1, only those two blocks may reduce
        finite = {rows[0], rows[-1]}
        for r in rows:
            if r not in finite:
                apsp[:, r] = np.inf
        expected = unblocked_reference(apsp, dv, rows, cols)
        monkeypatch.setattr(kernels, "_MINPLUS_BLOCK_ELEMS", 1)
        counter = _CountingMin()
        monkeypatch.setattr(kernels.np, "min", counter)
        got = dv.copy()
        kernels.minplus_fold(apsp, got, rows, cols)
        assert counter.calls == len(finite)
        assert got.tobytes() == expected.tobytes()

    def test_partial_infinite_block_compacted(self, monkeypatch):
        # block of 4 with 2 infinite sources: the kernel compacts the
        # block instead of skipping it, still bitwise-equal
        apsp, dv, rows, cols = random_case(seed=4)
        apsp[:, rows[1]] = np.inf
        apsp[:, rows[2]] = np.inf
        expected = unblocked_reference(apsp, dv, rows, cols)
        monkeypatch.setattr(kernels, "_MINPLUS_MAX_BLOCK", 4)
        got = dv.copy()
        kernels.minplus_fold(apsp, got, rows, cols)
        assert got.tobytes() == expected.tobytes()

    def test_all_sources_infinite_no_write(self, monkeypatch):
        apsp, dv, rows, cols = random_case(seed=5)
        for r in rows:
            apsp[:, r] = np.inf
        before = dv.copy()
        counter = _CountingMin()
        monkeypatch.setattr(kernels.np, "min", counter)
        improved = kernels.minplus_fold(apsp, dv, rows, cols)
        assert counter.calls == 0
        assert improved == []
        assert dv.tobytes() == before.tobytes()


class TestPropagateLocalUsesBlockedFold:
    """End-to-end through the worker: blocking is invisible bitwise."""

    def _worker(self):
        g = path_graph(6)
        owner = {v: (0 if v < 4 else 1) for v in range(6)}
        idx = GlobalIndex(g.vertex_list())
        w = Worker(0, 2, idx, DEFAULT_COST)
        w.load_subgraph(extract_local_subgraph(g, [0, 1, 2, 3], owner, 0))
        w.run_initial_approximation()
        return w

    def test_block_size_does_not_change_dv(self, monkeypatch):
        baseline = self._worker()
        assert superstep(baseline).prop_charged
        monkeypatch.setattr(kernels, "_MINPLUS_BLOCK_ELEMS", 1)
        clamped = self._worker()
        superstep(clamped)
        assert clamped.dv.tobytes() == baseline.dv.tobytes()


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
        new_rows = kernels.minplus_fold(apsp, dv_new, rows, cols)
        assert new_rows == old_rows
        assert dv_new.tobytes() == dv_old.tobytes()

    def test_no_improvement_leaves_dv_untouched(self):
        apsp = np.zeros((3, 3))
        dv = np.zeros((3, 4))
        before = dv.copy()
        assert kernels.minplus_fold(apsp, dv, [0, 1], np.arange(4)) == []
        assert dv.tobytes() == before.tobytes()


# ----------------------------------------------------------------------
# entry-level fold: minplus_fold_changed == the rectangle fold, bitwise
# ----------------------------------------------------------------------
def closed_state(
    seed: int,
    n: int,
    n_cols: int,
    *,
    p_edge: float = 0.3,
    p_inf: float = 0.3,
    density: float = 0.1,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, sp.csr_matrix]:
    """``(apsp, dv, changed, graph)`` as an RC superstep finds them, integer
    weights.

    ``apsp`` is the closure of ``graph``, the CSR of a random integer-weight
    graph (possibly disconnected, so ``apsp`` holds +inf), ``dv`` a full
    fold of a random seed matrix — hence closed under ``apsp`` — in which a
    ``density`` share of the entries was then lowered (or made finite) and
    marked in ``changed``.
    """
    rng = np.random.default_rng(seed)
    w = np.triu(rng.integers(1, 9, size=(n, n)) * (rng.random((n, n)) < p_edge), 1)
    graph = sp.csr_matrix((w + w.T).astype(np.float64))
    apsp = csgraph.dijkstra(graph, directed=False)
    seeds = rng.integers(0, 40, size=(n, n_cols)).astype(np.float64)
    seeds[rng.random(seeds.shape) < p_inf] = np.inf
    seeds[:, rng.random(n_cols) < p_inf / 2] = np.inf  # fresh +inf columns
    dv = np.min(apsp[:, :, None] + seeds[None, :, :], axis=1, initial=np.inf)
    changed = rng.random(dv.shape) < density
    lowered = np.where(
        np.isfinite(dv),
        np.maximum(dv - rng.integers(1, 6, size=dv.shape), 0.0),
        rng.integers(0, 40, size=dv.shape),
    )
    dv[changed] = lowered[changed]
    return apsp, dv, changed, graph


def assert_entry_fold_matches_rectangle(
    apsp: np.ndarray, dv: np.ndarray, changed: np.ndarray
) -> List[int]:
    """``dv`` bytes and returned rows against the rectangle fold, over the
    mask's bounding rectangle and over the whole block; returns the rows."""
    got = dv.copy()
    mask = changed.copy()
    got_rows = kernels.minplus_fold_changed(apsp, got, mask)
    assert mask.tobytes() == changed.tobytes()  # only read
    n, n_cols = dv.shape
    for rows, cols in (
        (np.flatnonzero(changed.any(axis=1)), np.flatnonzero(changed.any(axis=0))),
        (np.arange(n), np.arange(n_cols)),
    ):
        ref = dv.copy()
        ref_rows = kernels.minplus_fold(apsp, ref, rows, cols)
        assert got.tobytes() == ref.tobytes()
        assert got_rows == ref_rows
    return got_rows


class TestEntryFold:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 24),
        n_cols=st.integers(1, 40),
        p_edge=st.sampled_from([0.0, 0.1, 0.3, 1.0]),
        p_inf=st.sampled_from([0.0, 0.3, 0.9]),
        density=st.sampled_from([0.0, 0.02, 0.2, 0.7, 1.0]),
    )
    def test_bitwise_equal_to_rectangle_fold(
        self, seed, n, n_cols, p_edge, p_inf, density
    ):
        assert_entry_fold_matches_rectangle(
            *closed_state(
                seed, n, n_cols, p_edge=p_edge, p_inf=p_inf, density=density
            )[:3]
        )

    def test_empty_mask_touches_nothing(self):
        apsp, dv, _, _ = closed_state(1, 12, 30)
        before = dv.copy()
        assert kernels.minplus_fold_changed(apsp, dv, np.zeros(dv.shape, bool)) == []
        assert dv.tobytes() == before.tobytes()

    def test_one_entry(self):
        apsp, dv, _, _ = closed_state(2, 12, 30, p_edge=1.0, p_inf=0.0, density=0.0)
        changed = np.zeros(dv.shape, dtype=bool)
        dv[3, 7] = 0.0
        changed[3, 7] = True
        rows = assert_entry_fold_matches_rectangle(apsp, dv, changed)
        assert rows and 3 not in rows  # the source row itself does not improve

    def test_masked_infinite_entries_are_inert(self):
        apsp, dv, changed, _ = closed_state(3, 12, 30, p_inf=0.6)
        changed |= np.isinf(dv)
        assert np.isinf(dv[changed]).any()
        assert_entry_fold_matches_rectangle(apsp, dv, changed)

    def test_dense_rectangle_and_full_mask(self):
        apsp, dv, _, _ = closed_state(4, 16, 36, p_edge=0.5, density=0.0)
        rng = np.random.default_rng(4)
        lowered = np.maximum(dv - rng.integers(1, 6, size=dv.shape), 0.0)
        block = np.zeros(dv.shape, dtype=bool)
        block[2:11, 5:30] = True
        for changed in (block, np.ones(dv.shape, dtype=bool)):
            state = np.where(changed & np.isfinite(dv), lowered, dv)
            assert assert_entry_fold_matches_rectangle(apsp, state, changed)

    def test_fresh_infinite_columns(self):
        """Columns just added by ``grow_columns``: all +inf, one entry set."""
        apsp, dv, changed, _ = closed_state(5, 10, 20, p_edge=1.0, density=0.0)
        dv = np.hstack([dv, np.full((10, 4), np.inf)])
        changed = np.hstack([changed, np.zeros((10, 4), dtype=bool)])
        dv[6, 21] = 2.0
        changed[6, 21] = True
        rows = assert_entry_fold_matches_rectangle(apsp, dv, changed)
        assert rows == [r for r in range(10) if r != 6]
        assert np.isinf(dv[:, [20, 22, 23]]).all()

    def test_empty_worker(self):
        assert kernels.minplus_fold_changed(
            np.zeros((0, 0)), np.zeros((0, 6)), np.zeros((0, 6), dtype=bool)
        ) == []

    def test_column_group_split_across_chunks(self, monkeypatch):
        """A chunk boundary inside one column's entries, and a last chunk
        shorter than the buffer: same bytes as one chunk."""
        apsp, dv, changed, _ = closed_state(6, 14, 25, p_edge=0.6, density=0.5)
        one_chunk = dv.copy()
        kernels.minplus_fold_changed(apsp, one_chunk, changed)
        for entries in (1, 3, 5):
            monkeypatch.setattr(kernels, "_ENTRY_CHUNK_ELEMS", entries * 14)
            assert entries == 1 or int(changed.sum()) % entries  # short tail
            got = dv.copy()
            kernels.minplus_fold_changed(apsp, got, changed)
            assert got.tobytes() == one_chunk.tobytes()
            assert_entry_fold_matches_rectangle(apsp, dv, changed)

    def test_gather_temporary_stays_under_its_constant(self):
        """A full 200 x 800 mask is 32 M candidates (256 MB at once): the
        fold must stream them through its one capped gather buffer."""
        apsp, dv, _, _ = closed_state(7, 200, 800, p_edge=0.05, p_inf=0.0, density=0.0)
        changed = np.ones(dv.shape, dtype=bool)
        cap = kernels._ENTRY_CHUNK_ELEMS * 8
        assert changed.sum() * 200 * 8 > 8 * cap
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            kernels.minplus_fold_changed(apsp, dv, changed)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the buffer, plus index/value vectors and per-chunk results
        assert peak < cap + cap // 2

    def test_relax_cut_marks_exactly_what_it_lowers(self):
        apsp, dv, _, _ = closed_state(8, 10, 20, density=0.0)
        before = dv.copy()
        changed = np.zeros(dv.shape, dtype=bool)
        dirty = np.zeros(20, dtype=bool)
        rng = np.random.default_rng(8)
        ext = rng.integers(0, 30, size=(2, 20)).astype(np.float64)
        items = [(1, [(2, 1.0), (5, 3.0)]), (0, [(5, 2.0)])]
        rows = kernels.relax_cut_kernel(dv, changed, dirty, ext, items)
        assert np.array_equal(changed, dv < before)
        assert np.array_equal(dirty, changed.any(axis=0))
        assert rows == np.flatnonzero(changed.any(axis=1)).tolist()

    def test_writes_land_in_the_shared_memory_blocks(self):
        """Pool children map ``dv`` and the mask by name: what the relaxation
        marks and what the fold lowers must be visible through a second
        attachment, i.e. written in place and never re-homed."""
        apsp, dv, _, _ = closed_state(9, 10, 20, p_edge=1.0, density=0.0)
        allocator = SharedMemoryAllocator()
        try:
            res_dv = allocator.adopt(dv, None)
            res_mask = allocator.zeros_bool(dv.shape)
            shm_dv, pool_dv = attach_shm_array(allocator.descriptor(res_dv))
            shm_mask, pool_mask = attach_shm_array(
                allocator.descriptor(res_mask), np.bool_
            )
            try:
                assert not pool_mask.any()  # a fresh segment is all-False
                kernels.relax_cut_kernel(
                    pool_dv,
                    pool_mask,
                    np.zeros(20, dtype=bool),
                    np.zeros((1, 20)),
                    [(0, [(4, 1.0)])],
                )
                assert res_mask[4].any() and not np.delete(res_mask, 4, 0).any()
                expected = res_dv.copy()
                kernels.minplus_fold(apsp, expected, np.arange(10), np.arange(20))
                assert kernels.minplus_fold_changed(apsp, pool_dv, pool_mask)
                assert res_dv.tobytes() == expected.tobytes()
            finally:
                del pool_dv, pool_mask
                detach_shm(shm_dv)
                detach_shm(shm_mask)
        finally:
            allocator.release_all()


class TestEntryFoldOnFloatWeights:
    """General float weights: path sums round, so the fold is documented
    to 1e-9 (not bitwise against the rectangle) — and stays anytime."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_converges_to_exact_and_every_interrupt_is_an_upper_bound(self, seed):
        base = random_weights(barabasi_albert(70, 3, seed=seed), 0.5, 9.0, seed=seed + 7)
        final = base.copy()
        batch = ChangeBatch(
            vertex_additions=[VertexAddition(70, edges=((3, 0.37), (41, 2.9)))],
            edge_additions=[EdgeAddition(5, 60, 0.81)],
        )
        batch.apply_to(final)
        truth = {v: sssp_dijkstra(final, v) for v in final.vertices()}
        engine = AnytimeAnywhereCloseness(
            base, AnytimeConfig(nprocs=4, seed=seed, collect_snapshots=False)
        )
        engine.setup()
        stream = ChangeStream({2: batch})
        for _ in range(100):
            result = engine.run(changes=stream, strategy="cutedge", step_budget=1)
            cluster = engine.cluster
            for w in cluster.workers:
                for v in w.owned:
                    want = np.array([truth[v][t] for t in cluster.index.ids])
                    assert (w.dv[w.row_of[v]] >= want * (1 - 1e-12)).all()
            if result.converged:
                break
        assert result.converged
        exact = exact_closeness(final)
        assert result.closeness.keys() == exact.keys()
        for v, c in exact.items():
            assert result.closeness[v] == pytest.approx(c, rel=1e-9)
        engine.close()


# ----------------------------------------------------------------------
# full folds: after a deletion or a local edge, the block re-derived
# ----------------------------------------------------------------------
def repair_state(
    seed: int,
    n: int,
    n_cols: int,
    *,
    risen: float = 0.1,
    relowered: int = 3,
    apsp_rises: bool = False,
    **closed: float,
) -> Tuple[np.ndarray, np.ndarray, sp.csr_matrix]:
    """``(apsp, dv, graph)`` as a deletion leaves them, integer weights.

    A :func:`closed_state` in which a ``risen`` share of the entries was
    raised (most to +inf, as the witness test does; some to a larger
    finite value), ``apsp`` optionally rose too (doubling ``graph``'s
    weights keeps it its closure), and then ``relowered`` entries — risen
    or not — were lowered, as the addition half of a reweight-up does.
    """
    apsp, dv, _changed, graph = closed_state(seed, n, n_cols, **closed)
    rng = np.random.default_rng(seed + 1)
    rose = rng.random(dv.shape) < risen
    raised = np.where(
        rng.random(dv.shape) < 0.8, np.inf, dv + rng.integers(1, 9, size=dv.shape)
    )
    dv[rose] = raised[rose]
    if apsp_rises:
        apsp, graph = apsp * 2.0, graph * 2.0
    for _ in range(relowered if dv.size else 0):
        r, c = rng.integers(0, n), rng.integers(0, n_cols)
        old = dv[r, c]
        dv[r, c] = float(rng.integers(0, 20)) if np.isinf(old) else max(old - 2.0, 0.0)
    return apsp, dv, graph


def assert_full_fold_matches_rectangle(
    apsp: np.ndarray, dv: np.ndarray, graph: sp.csr_matrix
) -> List[int]:
    """``dv`` bytes and returned rows of a full ``KERNELS.minplus_fold``
    (``changed=None``) against the rectangle fold over the whole block;
    returns the rows.  Without a CSR it is the rectangle; with ``graph``,
    the CSR ``apsp`` is the closure of, it is one sweep seeded from every
    finite entry exactly where that is exact."""
    ref = dv.copy()
    n, n_cols = dv.shape
    ref_rows = kernels.minplus_fold(apsp, ref, np.arange(n), np.arange(n_cols))
    for csr in (None, graph):
        got = dv.copy()
        with mock.patch.object(
            kernels, "minplus_closure", wraps=kernels.minplus_closure
        ) as closure:
            got_rows = KERNELS.minplus_fold(apsp, got, None, graph=csr)
        assert got.tobytes() == ref.tobytes()
        assert got_rows == ref_rows
        assert closure.called == (csr is not None and kernels.closure_exact(csr, dv))
    return got_rows


def add_isolated_vertex(
    apsp: np.ndarray, dv: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Pad the state as ``add_local_vertex`` does: an isolated last row
    whose one finite entry is a fresh column's ``d(v,v) = 0``."""
    n, n_cols = dv.shape
    grown = np.full((n + 1, n + 1), np.inf)
    grown[:n, :n] = apsp
    grown[n, n] = 0.0
    dv = np.pad(dv, ((0, 1), (0, 1)), constant_values=np.inf)
    dv[n, n_cols] = 0.0
    return grown, dv


def lower_apsp(apsp: np.ndarray, edges: List[Tuple[int, int, float]]) -> np.ndarray:
    """``apsp`` after ``add_local_edge``'s incremental repair for each
    ``(u, v, w)`` in turn."""
    apsp = apsp.copy()
    for u, v, w in edges:
        cand = np.minimum(
            apsp[:, u][:, None] + w + apsp[v][None, :],
            apsp[:, v][:, None] + w + apsp[u][None, :],
        )
        np.minimum(apsp, cand, out=apsp)
    return apsp


def with_edges(
    graph: sp.csr_matrix, edges: List[Tuple[int, int, float]]
) -> sp.csr_matrix:
    """``graph`` with each ``(u, v, w)`` added beside any edge already
    there, as :func:`lower_apsp` repairs for it (the lighter one counts):
    the CSR its result is the closure of."""
    g = graph.tolil(copy=True)
    for u, v, w in edges:
        g[u, v] = g[v, u] = min(g[u, v] or np.inf, w)
    return g.tocsr()


def random_edges(seed: int, n: int, count: int) -> List[Tuple[int, int, float]]:
    rng = np.random.default_rng(seed + 2)
    if n < 2:
        return []
    pairs = (rng.choice(n, size=2, replace=False) for _ in range(count))
    return [(int(u), int(v), float(rng.integers(1, 4))) for u, v in pairs]


class TestFullFold:
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 24),
        n_cols=st.integers(1, 40),
        p_edge=st.sampled_from([0.0, 0.1, 0.3, 1.0]),
        p_inf=st.sampled_from([0.0, 0.3, 0.9]),
        density=st.sampled_from([0.0, 0.02, 0.5]),
        risen=st.sampled_from([0.0, 0.02, 0.16, 0.6, 1.0]),
        relowered=st.integers(0, 6),
        apsp_rises=st.booleans(),
    )
    def test_after_a_deletion_bitwise_equal_to_rectangle_fold(
        self, seed, n, n_cols, p_edge, p_inf, density, risen, relowered, apsp_rises
    ):
        apsp, dv, graph = repair_state(
            seed,
            n,
            n_cols,
            risen=risen,
            relowered=relowered,
            apsp_rises=apsp_rises,
            p_edge=p_edge,
            p_inf=p_inf,
            density=density,
        )
        assert kernels.closure_exact(graph, dv)  # so the graph run sweeps
        assert_full_fold_matches_rectangle(apsp, dv, graph)

    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 24),
        n_cols=st.integers(1, 40),
        p_edge=st.sampled_from([0.0, 0.1, 0.3, 1.0]),
        p_inf=st.sampled_from([0.0, 0.3, 0.9]),
        density=st.sampled_from([0.0, 0.02, 0.5]),
        risen=st.sampled_from([0.0, 0.1, 0.6]),
        new_vertex=st.booleans(),
        local_edges=st.sampled_from([1, 2, 5, "all pairs"]),
    )
    def test_after_local_edges_bitwise_equal_to_rectangle_fold(
        self, seed, n, n_cols, p_edge, p_inf, density, risen, new_vertex, local_edges
    ):
        """``p_edge=0`` makes every edge the first of an isolated row,
        ``p_edge=1`` makes every edge a shortcut; ``new_vertex`` joins a
        freshly padded row; ``"all pairs"`` halves every local distance."""
        apsp, dv, graph = repair_state(
            seed,
            n,
            n_cols,
            risen=risen,
            apsp_rises=bool(seed % 2),
            p_edge=p_edge,
            p_inf=p_inf,
            density=density,
        )
        if new_vertex:
            apsp, dv = add_isolated_vertex(apsp, dv)
            graph = sp.block_diag((graph, sp.csr_matrix((1, 1))), format="csr")
        if local_edges == "all pairs":
            lowered, graph = apsp * 0.5, graph * 0.5
        else:
            edges = random_edges(seed, apsp.shape[0], local_edges)
            if new_vertex:  # its first edge
                edges.insert(0, (n, seed % n, 2.0))
            lowered = lower_apsp(apsp, edges)
            graph = with_edges(graph, edges)
        assert_full_fold_matches_rectangle(lowered, dv, graph)


class TestDeletionRepairOnFloatWeights:
    """Deletions on general float weights end to end: the repaired run
    converges to the exact closeness (1e-9) through every fold entry."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_stream_converges_to_exact(self, seed):
        base = random_weights(barabasi_albert(70, 3, seed=seed), 0.5, 9.0, seed=seed + 7)
        final = base.copy()
        edges = [(u, v) for u, v, _w in base.edges()]
        hub = max(base.vertices(), key=base.degree)
        keep = [e for e in edges if hub not in e]
        stay = [v for v in base.vertices() if v != hub]
        batches = {
            2: ChangeBatch(
                edge_deletions=[EdgeDeletion(*keep[0])],
                edge_reweights=[
                    EdgeReweight(*keep[1], 11.3),
                    EdgeReweight(*keep[2], 0.21),
                ],
            ),
            4: ChangeBatch(vertex_deletions=[VertexDeletion(hub)]),
            5: ChangeBatch(
                vertex_additions=[
                    VertexAddition(70, edges=((stay[3], 0.37), (stay[41], 2.9)))
                ],
                edge_deletions=[EdgeDeletion(*keep[3])],
            ),
        }
        for step in sorted(batches):
            batches[step].apply_to(final)
        engine = AnytimeAnywhereCloseness(
            base, AnytimeConfig(nprocs=4, seed=seed, collect_snapshots=False)
        )
        engine.setup()
        result = engine.run(changes=ChangeStream(batches), strategy="auto")
        assert result.converged
        exact = exact_closeness(final)
        assert result.closeness.keys() == exact.keys()
        for v, c in exact.items():
            assert result.closeness[v] == pytest.approx(c, rel=1e-9)
        engine.close()


# ----------------------------------------------------------------------
# edge-row relaxation: the batch kernel <= the per-edge sequence it replaced
# ----------------------------------------------------------------------
class EdgeCase(NamedTuple):
    """One relaxation: the worker owns vertices (= columns) ``0..n_local-1``."""

    dv: np.ndarray
    col_a: int
    row_a: np.ndarray
    col_b: int
    row_b: np.ndarray
    w: float

    def dense(self) -> Tuple[bool, bool]:
        """Which orientations of the per-edge reference relax a finite
        rectangle above the quarter (densely)."""
        src_a = self.dv[:, self.col_a]
        src_b = np.minimum(
            self.dv[:, self.col_b], src_a + (self.w + self.row_b[self.col_b])
        )
        dense_a, dense_b = (
            bool(4 * np.isfinite(src).sum() * np.isfinite(row).sum() > self.dv.size)
            for src, row in ((src_a, self.row_b), (src_b, self.row_a))
        )
        return dense_a, dense_b


def edge_case(
    seed: int,
    n_local: int,
    n_cols: int,
    col_a: int,
    col_b: int,
    *,
    finite_col_a: float = 1.0,
    finite_col_b: float = 1.0,
    finite_row_a: float = 1.0,
    finite_row_b: float = 1.0,
    p_inf: float = 0.1,
    p_dead: float = 0.0,
    w: float = 0.75,
) -> EdgeCase:
    """A random block with +inf entries (share ``p_inf``) and all-+inf
    rows and columns (share ``p_dead`` each).

    ``finite_*`` are the finite shares of the four vectors that decide
    the two rectangles: DV columns ``a`` / ``b`` and the broadcast rows.
    An endpoint below ``n_local`` is owned, so its broadcast row is a
    copy of its DV row; otherwise the endpoint is external and its row
    is drawn independently.
    """
    rng = np.random.default_rng(seed)
    dv = rng.uniform(0.5, 20.0, size=(n_local, n_cols))
    dv[rng.random(dv.shape) < p_inf] = np.inf
    dv[rng.random(n_local) < p_dead, :] = np.inf
    dv[:, rng.random(n_cols) < p_dead] = np.inf
    dv[rng.random(n_local) >= finite_col_a, col_a] = np.inf
    dv[rng.random(n_local) >= finite_col_b, col_b] = np.inf
    rows = []
    for col, share in ((col_a, finite_row_a), (col_b, finite_row_b)):
        if col < n_local:
            dv[col, rng.random(n_cols) >= share] = np.inf
        row = rng.uniform(0.5, 20.0, size=n_cols)
        row[rng.random(n_cols) >= share] = np.inf
        row[col] = 0.0
        rows.append(row)
    for r in range(min(n_local, n_cols)):
        dv[r, r] = 0.0
    row_a = dv[col_a].copy() if col_a < n_local else rows[0]
    row_b = dv[col_b].copy() if col_b < n_local else rows[1]
    return EdgeCase(dv, col_a, row_a, col_b, row_b, w)


def block_worker(dv: np.ndarray, seed: int, allocator=None) -> Worker:
    """Rank 0 of 3 owning vertices ``0..n_local-1``, holding ``dv``, with
    random subscribers, drained queues and a non-zero modeled clock."""
    n_local, n_cols = dv.shape
    g = Graph()
    for v in range(n_cols):
        g.add_vertex(v)
    owner = {v: 0 if v < n_local else 1 + v % 2 for v in range(n_cols)}
    w = Worker(
        0, 3, GlobalIndex(g.vertex_list()), DEFAULT_COST, allocator=allocator
    )
    w.load_subgraph(extract_local_subgraph(g, range(n_local), owner, 0))
    w.dv[:, :] = dv
    rng = np.random.default_rng(seed)
    for v in range(n_local):
        for dst in (1, 2):
            if rng.random() < 0.4:
                w.subscribe(v, dst)
    for ch in w.channels:
        ch.pending.clear()
    w._changed_rows.clear()
    w._charge(0.1 + rng.random())
    return w


def assert_batch_within_reference(case: EdgeCase, seed: int = 0) -> bool:
    """The one-edge batch of ``case`` — kernel level, then through a
    Worker — is at most the per-edge reference and at most the block, and
    marks exactly what it lowers; returns whether it improved."""
    n_local, n_cols = case.dv.shape
    ref_dv = case.dv.copy()
    reference.relax_edge_kernel(
        ref_dv, np.zeros(ref_dv.shape, dtype=bool), np.zeros(n_cols, dtype=bool),
        *case[1:],
    )
    batch = reference.one_edge_batch(*case[1:])
    dv, dirty = case.dv.copy(), np.zeros(n_cols, dtype=bool)
    changed = np.zeros(dv.shape, dtype=bool)
    rows = kernels.relax_edge_batch_kernel(dv, changed, dirty, *batch)
    assert reference.at_most(dv, ref_dv, exact=False)
    assert (dv <= case.dv).all()
    assert np.array_equal(changed, dv < case.dv)  # exactly what was lowered
    assert np.array_equal(dirty, changed.any(axis=0))
    assert rows.tolist() == np.flatnonzero(changed.any(axis=1)).tolist()

    ref_w, new_w = block_worker(case.dv, seed), block_worker(case.dv, seed)
    for _ in range(2 if n_local else 0):  # one edge: two dense orientations
        ref_w._charge(ref_w.cost.relax_time(n_local * n_cols))
    ref_w._mark_rows_changed(rows.tolist())
    assert new_w.relax_with_edge_rows(*batch, 1) is bool(rows.size)
    assert new_w.dv.tobytes() == dv.tobytes()
    assert np.array_equal(new_w.dv_changed, changed)
    assert new_w.entries.dirty_cols.tobytes() == dirty.tobytes()
    assert new_w._changed_rows == set(rows.tolist())
    assert [ch.pending for ch in new_w.channels] == [
        ch.pending for ch in ref_w.channels
    ]
    assert new_w._seconds.hex() == ref_w._seconds.hex()
    return bool(rows.size)


_SHARES = st.sampled_from([0.0, 0.05, 0.3, 0.9, 1.0])


@st.composite
def edge_cases(draw) -> EdgeCase:
    n_cols = draw(st.integers(2, 60))
    n_local = draw(st.integers(0, min(40, n_cols)))  # 0: an empty rank
    col_a = draw(st.integers(0, n_cols - 1))
    col_b = draw(st.integers(0, n_cols - 2))
    return edge_case(
        draw(st.integers(0, 2**32 - 1)),
        n_local,
        n_cols,
        col_a,
        col_b + (col_b >= col_a),
        finite_col_a=draw(_SHARES),
        finite_col_b=draw(_SHARES),
        finite_row_a=draw(_SHARES),
        finite_row_b=draw(_SHARES),
        p_inf=draw(st.sampled_from([0.0, 0.1, 0.6])),
        p_dead=draw(st.sampled_from([0.0, 0.15, 0.5])),
        w=draw(st.floats(0.01, 30.0)),
    )


@st.composite
def edge_batches(draw):
    """``(graph, nprocs, new vertices, edges, dv, seed, exact)``: a batch of
    1-8 edges among the old vertices and 0-2 new ones (pairs may repeat
    and may be edges already: parallel edges), and a DV of upper bounds —
    the exact distances plus noise, with a share of +inf entries and
    +inf rows."""
    kind = draw(st.sampled_from(sorted(WEIGHTS)))
    g = draw(connected_graphs(WEIGHTS[kind], 4, 16))
    n = g.num_vertices
    new = list(range(n, n + draw(st.integers(0, 2))))
    ends = st.integers(0, n + len(new) - 1)
    edges = draw(st.lists(
        st.tuples(ends, ends, WEIGHTS[kind]).filter(lambda e: e[0] != e[1]),
        min_size=1, max_size=8,
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dv = apsp_dijkstra(g, order=list(range(n)))[0]
    noise = rng.integers(0, 3, size=dv.shape).astype(float)
    dv += noise if kind != "float" else noise * rng.random(dv.shape)
    p_inf, p_dead = draw(st.sampled_from([(0.0, 0.0), (0.3, 0.0), (0.6, 0.4)]))
    dv[rng.random(dv.shape) < p_inf] = np.inf
    dv[rng.random(n) < p_dead] = np.inf
    np.fill_diagonal(dv, 0.0)
    return g, draw(st.integers(1, 4)), new, edges, dv, draw(st.integers(0, 3)), kind != "float"


class TestRelaxEdgeKernel:
    """The edge-batch relaxation (``relax_edge_batch_kernel`` through
    ``Worker.relax_with_edge_rows``) against the per-edge reference."""

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=edge_cases(), seed=st.integers(0, 1000))
    def test_at_most_the_per_edge_reference(self, case, seed):
        assert_batch_within_reference(case, seed)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(drawn=edge_batches())
    def test_a_batch_between_the_exact_distances_and_the_per_edge_sequence(
        self, drawn
    ):
        """Multi-rank: after ``apply_edge_addition``, every rank's DV is at
        most the per-edge sequence's (exactly on integer weights) and at
        least the exact distances; the marks, the dirty columns and the
        improved rows are exactly the entries the call lowered."""
        g, nprocs, new, edges, dv, seed, exact = drawn
        cfg = AnytimeConfig(nprocs=nprocs, seed=seed, collect_snapshots=False)
        with AnytimeAnywhereCloseness(g, cfg) as engine:
            engine.setup()
            cluster = engine.cluster
            VertexAdditionStrategy(RoundRobinPS()).apply(
                cluster,
                ChangeBatch(vertex_additions=[VertexAddition(v, ()) for v in new]),
                0,
            )
            n = g.num_vertices
            cols = cluster.index.columns(range(n))
            for w in cluster.workers:
                old = [r for r, v in enumerate(w.owned) if v < n]
                w.dv[np.ix_(old, cols)] = dv[[w.owned[r] for r in old]]
                w.dv_changed[...] = False
                w.entries.dirty_cols[...] = False
                w._changed_rows.clear()
            ref = reference.reference_blocks(cluster, edges)
            before = [w.dv.copy() for w in cluster.workers]
            apply_edge_addition(cluster, edges)
            exact_new = apsp_dijkstra(cluster.graph, order=cluster.index.ids)[0]
            for w, want, was in zip(cluster.workers, ref, before):
                assert reference.at_most(w.dv, want, exact)
                floor = exact_new[cluster.index.columns(w.owned)]
                assert (w.dv >= (floor if exact else floor * (1 - 1e-12))).all()
                lowered = w.dv < was
                assert np.array_equal(w.dv_changed, lowered)
                assert np.array_equal(w.entries.dirty_cols, lowered.any(axis=0))
                assert w._changed_rows == set(
                    np.flatnonzero(lowered.any(axis=1)).tolist()
                )

    # (finite shares of col a, col b, row a, row b) -> the reference's
    # (dense 1, dense 2); endpoints 30 / 31 are external to the 24 x 40
    # block, 3 / 5 owned
    @pytest.mark.parametrize(
        "shares, cols, expected",
        [
            ((1.0, 1.0, 1.0, 1.0), (30, 31), (True, True)),
            ((1.0, 1.0, 1.0, 1.0), (3, 5), (True, True)),
            ((1.0, 1.0, 1.0, 1.0), (3, 31), (True, True)),
            ((0.05, 0.05, 1.0, 1.0), (30, 31), (False, False)),
            ((1.0, 1.0, 0.05, 0.05), (30, 31), (False, False)),
            ((1.0, 0.05, 0.05, 1.0), (30, 31), (True, False)),
            ((0.05, 1.0, 1.0, 1.0), (30, 3), (False, True)),
            ((0.0, 0.0, 1.0, 1.0), (30, 31), (False, False)),
        ],
    )
    def test_every_rectangle_regime(self, shares, cols, expected):
        """Within the reference in each regime of its rectangle rule."""
        fa, fb, ra, rb = shares
        for seed in range(5):
            case = edge_case(
                seed, 24, 40, *cols, p_inf=0.0,
                finite_col_a=fa, finite_col_b=fb,
                finite_row_a=ra, finite_row_b=rb,
            )
            assert case.dense() == expected
            assert_batch_within_reference(case, seed)

    def test_orientation_two_reads_column_b_after_orientation_one(self):
        # d(x, b) is unknown everywhere, so only the path through a (the
        # reference's orientation 1) makes column b finite; the closure
        # takes it in the same pass as what then goes on through b
        case = edge_case(7, 24, 40, 30, 31, p_inf=0.0, finite_col_b=0.0)
        assert not np.isfinite(case.dv[:, 31]).any()
        without_a = case._replace(
            dv=np.where(np.arange(40) == 30, np.inf, case.dv)
        )
        assert not assert_batch_within_reference(without_a)
        assert case.dense() == (True, True)
        assert assert_batch_within_reference(case)
        dv, changed = case.dv.copy(), np.zeros(case.dv.shape, dtype=bool)
        kernels.relax_edge_batch_kernel(
            dv, changed, np.zeros(40, dtype=bool),
            *reference.one_edge_batch(*case[1:]),
        )
        assert np.isfinite(dv[:, 31]).all()
        thin = edge_case(
            7, 24, 40, 30, 31, p_inf=0.0, finite_col_b=0.0, finite_row_a=0.05
        )
        assert thin.dense() == (True, False)
        assert assert_batch_within_reference(thin)

    def test_no_improvement_leaves_everything_untouched(self):
        # every finite distance is 1 (0 to itself): no path through a or b
        # is shorter, however the rows are shaped
        for share, dense in ((1.0, True), (0.05, False)):
            drawn = edge_case(
                3, 24, 40, 30, 31, w=1e6, p_inf=0.0,
                finite_row_a=share, finite_row_b=share,
            )
            flat = lambda m: np.where(np.isfinite(m), np.minimum(m, 1.0), np.inf)
            case = drawn._replace(
                dv=flat(drawn.dv), row_a=flat(drawn.row_a), row_b=flat(drawn.row_b)
            )
            assert case.dense() == (dense, dense)
            before = case.dv.copy()
            assert not assert_batch_within_reference(case)
            dirty = np.zeros(40, dtype=bool)
            changed = np.zeros(case.dv.shape, dtype=bool)
            rows = kernels.relax_edge_batch_kernel(
                case.dv, changed, dirty, *reference.one_edge_batch(*case[1:])
            )
            assert rows.size == 0 and not dirty.any() and not changed.any()
            assert case.dv.tobytes() == before.tobytes()

    def test_empty_worker_returns_false_and_charges_nothing(self):
        w = block_worker(np.empty((0, 6)), seed=0)
        seconds = w._seconds
        row = np.arange(6, dtype=np.float64)
        batch = reference.one_edge_batch(2, row, 4, row, 1.0)
        assert w.relax_with_edge_rows(*batch, 1) is False
        assert w._seconds == seconds
        assert not w._changed_rows and not w.pending_row_count()
        rows = kernels.relax_edge_batch_kernel(
            np.empty((0, 6)), np.zeros((0, 6), dtype=bool),
            np.zeros(6, dtype=bool), *batch,
        )
        assert rows.size == 0

    @pytest.mark.parametrize("finite_row_a", [1.0, 0.05])
    def test_writes_land_in_the_shared_memory_block(self, finite_row_a):
        """The process backend's pool reads ``dv`` through its own mapping
        of the segment: the relaxation must write into it, not re-home it."""
        case = edge_case(11, 24, 40, 30, 31, finite_row_a=finite_row_a)
        batch = reference.one_edge_batch(*case[1:])
        expected = case.dv.copy()
        assert kernels.relax_edge_batch_kernel(
            expected, np.zeros(expected.shape, dtype=bool),
            np.zeros(40, dtype=bool), *batch,
        ).size
        allocator = SharedMemoryAllocator()
        try:
            w = block_worker(case.dv, 0, allocator)
            resident = w.dv
            shm, pool_view = attach_shm_array(allocator.descriptor(resident))
            try:
                assert w.relax_with_edge_rows(*batch, 1)
                assert w.dv is resident
                assert pool_view.tobytes() == expected.tobytes()
            finally:
                del pool_view
                detach_shm(shm)
        finally:
            allocator.release_all()

    def test_no_temporary_of_the_block_times_the_endpoints(self):
        """A batch of 40 endpoints on a 200 x 800 block: a candidate
        temporary per endpoint (``n_local x |H| x n_cols``, 51 MB) would
        show; the kernel holds tiles of the block, not the block."""
        n_local, n_cols, n_h = 200, 800, 40
        rng = np.random.default_rng(0)
        dv = rng.uniform(1.0, 20.0, size=(n_local, n_cols))
        cols = rng.choice(n_cols, size=n_h, replace=False).astype(np.intp)
        rows = rng.uniform(1.0, 20.0, size=(n_h, n_cols))
        rows[np.arange(n_h), cols] = 0.0
        closure = rng.uniform(0.5, 5.0, size=(n_h, n_h))
        closure = np.minimum(closure, closure.T)
        np.fill_diagonal(closure, 0.0)
        changed = np.zeros(dv.shape, dtype=bool)
        dirty = np.zeros(n_cols, dtype=bool)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rows_improved = kernels.relax_edge_batch_kernel(
                dv, changed, dirty, cols, closure, rows
            )
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert rows_improved.size
        assert peak < 2 * dv.nbytes < n_local * n_h * n_cols * 8 // 10


# ----------------------------------------------------------------------
# cut relaxation: relax_cut_kernel == the per-pair loop it replaced, bitwise
# ----------------------------------------------------------------------
def _reference_relax_cut(
    dv: np.ndarray,
    changed: np.ndarray,
    dirty_cols: np.ndarray,
    ext: np.ndarray,
    items: List[Tuple[int, List[Tuple[int, float]]]],
) -> List[int]:
    """``relax_cut_kernel`` as of the commit before the grouping, verbatim:
    one add, compare and write per (stored row, cut edge) pair."""
    improved: Set[int] = set()
    for slot, pairs in items:
        row_x = ext[slot]
        for r, w in pairs:
            cand = row_x + w
            mask = cand < dv[r]
            if mask.any():
                dv[r][mask] = cand[mask]
                changed[r] |= mask
                dirty_cols |= mask
                improved.add(r)
    return sorted(improved)


class CutCase(NamedTuple):
    """One relaxation: ``dv`` / ``changed`` / ``dirty`` as a superstep finds
    them, the store ``ext`` and the items that index it by slot."""

    dv: np.ndarray
    changed: np.ndarray
    dirty: np.ndarray
    ext: np.ndarray
    items: List[Tuple[int, List[Tuple[int, float]]]]


def cut_case(
    seed: int,
    n_local: int,
    n_cols: int,
    items: List[Tuple[int, List[Tuple[int, float]]]],
    *,
    p_inf: float = 0.2,
    integer: bool = False,
) -> CutCase:
    """Random ``dv`` and store rows (+inf share ``p_inf``; integer values
    when ``integer``, so candidates tie with ``dv``) and random marks."""
    rng = np.random.default_rng(seed)
    n_slots = 1 + max((slot for slot, _pairs in items), default=0)

    def draw(shape):
        if integer:
            a = rng.integers(0, 12, size=shape).astype(np.float64)
        else:
            a = rng.uniform(0.0, 20.0, size=shape)
        a[rng.random(shape) < p_inf] = np.inf
        return a

    return CutCase(
        draw((n_local, n_cols)),
        rng.random((n_local, n_cols)) < 0.1,
        rng.random(n_cols) < 0.1,
        draw((n_slots, n_cols)),
        items,
    )


def assert_cut_matches_reference(case: CutCase) -> List[int]:
    """``dv`` bytes, ``changed``, ``dirty_cols`` and the returned rows
    against the per-pair loop; returns the rows."""
    ref = [a.copy() for a in case[:3]]
    ref_rows = _reference_relax_cut(*ref, case.ext, case.items)
    got = [a.copy() for a in case[:3]]
    ext = case.ext.copy()
    rows = kernels.relax_cut_kernel(*got, ext, case.items)
    for g, r in zip(got, ref):
        assert g.tobytes() == r.tobytes()
    assert rows == ref_rows
    assert ext.tobytes() == case.ext.tobytes()  # only read
    # the marks grew by exactly what was lowered
    assert np.array_equal(got[1], case.changed | (got[0] < case.dv))
    return rows


@st.composite
def cut_cases(draw) -> CutCase:
    n_cols = draw(st.integers(1, 40))
    n_local = draw(st.integers(1, 12))
    n_slots = draw(st.integers(0, 6))
    # few rows and weights, so pairs pile up on shared destinations
    pair = st.tuples(
        st.integers(0, n_local - 1),
        st.sampled_from([0.5, 1.0, 2.0, 3.25]) | st.floats(0.01, 30.0),
    )
    items = [
        (slot, draw(st.lists(pair, min_size=1, max_size=6)))
        for slot in draw(st.permutations(range(n_slots)))
    ]
    return cut_case(
        draw(st.integers(0, 2**32 - 1)),
        n_local,
        n_cols,
        items,
        p_inf=draw(st.sampled_from([0.0, 0.2, 0.7, 1.0])),
        integer=draw(st.booleans()),
    )


class TestRelaxCutKernel:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=cut_cases())
    def test_bitwise_equal_to_reference(self, case):
        assert_cut_matches_reference(case)

    def test_rows_fed_by_one_two_and_many_slots(self):
        # row 0 <- slot 2; row 1 <- slots 0, 3; row 2 <- slots 0, 1, 2, 3
        items = [
            (0, [(1, 1.0), (2, 1.0)]),
            (1, [(2, 1.0)]),
            (2, [(0, 1.0), (2, 1.0)]),
            (3, [(2, 1.0), (1, 1.0)]),
        ]
        case = cut_case(0, 3, 30, items, p_inf=0.0)
        case.dv[:] = np.inf  # every group improves every column
        assert assert_cut_matches_reference(case) == [0, 1, 2]
        dv = case.dv.copy()
        kernels.relax_cut_kernel(dv, *case[1:])
        assert dv[2].tobytes() == (case.ext.min(axis=0) + 1.0).tobytes()
        assert dv[1].tobytes() == (case.ext[[0, 3]].min(axis=0) + 1.0).tobytes()

    def test_two_weights_on_one_row(self):
        """Row 4 forms two groups, (4, 1.0) and (4, 5.0): both candidates
        meet it, the lighter edge through the farther row can win."""
        items = [(0, [(4, 1.0)]), (1, [(4, 5.0)])]
        case = cut_case(1, 6, 20, items, p_inf=0.0)
        case.ext[0] = 10.0
        case.ext[1, :10] = 0.0
        case.ext[1, 10:] = 50.0
        case.dv[4] = 30.0
        dv = case.dv.copy()
        assert assert_cut_matches_reference(case) == [4]
        kernels.relax_cut_kernel(dv, *case[1:])
        assert dv[4].tolist() == [5.0] * 10 + [11.0] * 10

    def test_row_improves_only_through_its_second_slot(self):
        items = [(0, [(2, 1.0)]), (1, [(2, 1.0)])]
        case = cut_case(2, 4, 16, items, p_inf=0.0)
        case.ext[0] = np.inf
        case.ext[1] = 3.0
        case.dv[2] = 9.0
        # the first pair alone lowers nothing
        alone = [a.copy() for a in case[:3]]
        assert _reference_relax_cut(*alone, case.ext, items[:1]) == []
        assert alone[0].tobytes() == case.dv.tobytes()
        dv = case.dv.copy()
        assert assert_cut_matches_reference(case) == [2]
        kernels.relax_cut_kernel(dv, *case[1:])
        assert (dv[2] == 4.0).all()

    @pytest.mark.parametrize("integer", [False, True])
    def test_infinity_heavy_rows(self, integer):
        items = [(s, [(r, 1.0 + r % 2) for r in range(s, 8, 2)]) for s in range(5)]
        for seed in range(5):
            case = cut_case(seed, 8, 50, items, p_inf=0.9, integer=integer)
            case.ext[seed % 5] = np.inf  # one store row all +inf
            assert_cut_matches_reference(case)

    def test_no_improvement_leaves_everything_untouched(self):
        items = [(0, [(0, 1e6), (1, 1e6)]), (1, [(1, 1e6)])]
        case = cut_case(3, 3, 20, items, p_inf=0.0)
        got = [a.copy() for a in case[:3]]
        assert kernels.relax_cut_kernel(*got, case.ext, items) == []
        for g, before in zip(got, case[:3]):
            assert g.tobytes() == before.tobytes()
        assert assert_cut_matches_reference(case) == []

    def test_empty_items(self):
        case = cut_case(4, 3, 20, [])
        got = [a.copy() for a in case[:3]]
        assert kernels.relax_cut_kernel(*got, case.ext, []) == []
        for g, before in zip(got, case[:3]):
            assert g.tobytes() == before.tobytes()
        empty = np.zeros((0, 20))
        assert kernels.relax_cut_kernel(
            empty, np.zeros((0, 20), dtype=bool), np.zeros(20, dtype=bool),
            np.zeros((0, 20)), [],
        ) == []

    def test_temporaries_stay_one_row_wide(self):
        """64 slots into one row: a kernel that gathered the group as a
        ``k x n_cols`` block would allocate 2 MB here."""
        n_cols, k = 4096, 64
        items = [(s, [(0, 1.0)]) for s in range(k)]
        case = cut_case(5, 2, n_cols, items, p_inf=0.0)
        case.dv[:] = np.inf
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rows = kernels.relax_cut_kernel(*case[:4], items)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert rows == [0]
        assert peak < 4 * n_cols * 8

    def test_bulk_mark_leaves_what_the_per_row_marks_left(self):
        rows = [0, 3, 4, 7]
        bulk = block_worker(np.zeros((10, 20)), seed=6)
        one_by_one = block_worker(np.zeros((10, 20)), seed=6)
        bulk._mark_rows_changed(rows)
        for r in rows:
            one_by_one._mark_rows_changed([r])
        assert bulk._changed_rows == one_by_one._changed_rows == set(rows)
        pending = [ch.pending for ch in bulk.channels]
        assert pending == [ch.pending for ch in one_by_one.channels]
        assert any(pending)


# ----------------------------------------------------------------------
# IA local APSP rows: the level sweep against Dijkstra
# ----------------------------------------------------------------------
SWEEP_SHAPES = ["ba", "er", "ws", "pp", "path", "cycle", "grid", "union"]
SWEEP_SIZES = [1, 2, 7, 8, 9, 63, 64, 65, 300]
# 1e308 overflows to inf at the second hop on both sides (1e150 stays finite)
SWEEP_WEIGHTS = [1.0, 0.1, 1 / 3, 2.5, 1e-3, 1e150, 1e308]


def sweep_graph(shape: str, n: int, seed: int) -> Graph:
    """An ``n``-vertex graph of ``shape`` on ids ``0 .. n-1``; the random
    generators need a few vertices, so tiny ones fall back to a path."""
    if n < 6 and shape not in ("path", "union"):
        shape = "path"
    if shape == "ba":
        g = barabasi_albert(n, 2, seed=seed)
    elif shape == "er":
        g = erdos_renyi(n, min(1.0, 4.0 / n), seed=seed)
    elif shape == "ws":
        g = watts_strogatz(n, 4, 0.1, seed=seed)
    elif shape == "pp":
        third = n // 3
        g = planted_partition(
            [third, third, n - 2 * third], min(1.0, 12.0 / n), 1.0 / n, seed=seed
        )[0]
    elif shape == "cycle":
        g = cycle_graph(n)
    elif shape == "grid":
        rows = max(d for d in range(1, int(n**0.5) + 1) if n % d == 0)
        g = grid_graph(rows, n // rows)
    elif shape == "path":
        g = path_graph(n)
    else:  # disjoint union: a BA block, a path, isolated vertices
        half = n // 2
        g = barabasi_albert(half, 2, seed=seed) if half > 2 else Graph()
        tail = list(range(half, half + (n - half) // 2))
        g.add_edges(list(zip(tail, tail[1:])))
    for v in range(n):
        g.add_vertex(v, exist_ok=True)
    return g


def uniform_csr(g: Graph, w: float):
    matrix = g.to_csr().matrix.copy()
    matrix.data[:] = w
    return matrix


def assert_rows_are_dijkstras(matrix, lo: int, hi: int) -> np.ndarray:
    want = csgraph.dijkstra(matrix, directed=False, indices=np.arange(lo, hi))
    out = np.full((hi - lo, matrix.shape[0]), -1.0)
    kernels.local_apsp_rows(matrix, lo, hi, out)
    assert out.tobytes() == want.tobytes()
    return out


class _Spy:
    """Record ``(args, kwargs)`` and the result of every call of a module
    function, passing them through."""

    def __init__(self, monkeypatch, module, name):
        self.calls: List[tuple] = []
        self.results: List[object] = []
        real = getattr(module, name)

        def spy(*args, **kwargs):
            self.calls.append((args, kwargs))
            self.results.append(real(*args, **kwargs))
            return self.results[-1]

        monkeypatch.setattr(module, name, spy)


class TestLocalAPSPRows:
    """``oracle.local_apsp_rows`` is bitwise ``csgraph.dijkstra(directed=False,
    indices=range(lo, hi))`` whichever path it takes: the level sweep on
    uniform weights (forced past its level budget, or left to choose), and
    Dijkstra for mixed weights and sweeps that would outrun it."""

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        shape=st.sampled_from(SWEEP_SHAPES),
        n=st.sampled_from(SWEEP_SIZES),
        w=st.sampled_from(SWEEP_WEIGHTS),
        seed=st.integers(0, 2**16),
        ends=st.tuples(st.floats(0, 1), st.floats(0, 1)),
        forced=st.booleans(),
    )
    @example(shape="path", n=9, w=1e308, seed=0, ends=(0.1, 1.0), forced=True)
    @example(shape="union", n=65, w=1 / 3, seed=1, ends=(0.05, 0.95), forced=True)
    @example(shape="grid", n=64, w=0.1, seed=0, ends=(0.0, 1.0), forced=False)
    def test_rows_are_dijkstras_bitwise(self, shape, n, w, seed, ends, forced):
        lo = min(int(min(ends) * n), n - 1)
        hi = max(lo + 1, int(max(ends) * n))
        matrix = uniform_csr(sweep_graph(shape, n, seed), w)
        budget = (lambda n, s, nnz: 254) if forced else kernels._sweep_budget
        with mock.patch.object(kernels, "_sweep_budget", budget):
            assert_rows_are_dijkstras(matrix, lo, hi)

    def test_uniform_scale_free_never_calls_dijkstra(self, monkeypatch):
        matrix = uniform_csr(barabasi_albert(300, 2, seed=3), 1.0)
        want = csgraph.dijkstra(matrix, directed=False)
        dijkstra = _Spy(monkeypatch, kernels.csgraph, "dijkstra")
        out = np.empty((300, 300))
        kernels.local_apsp_rows(matrix, 0, 300, out)
        assert out.tobytes() == want.tobytes()
        assert dijkstra.calls == []

    def test_mixed_weights_take_dijkstra(self, monkeypatch):
        g = random_weights(barabasi_albert(300, 2, seed=3), 1.0, 5.0, seed=4)
        sweep = _Spy(monkeypatch, kernels, "_level_sweep")
        dijkstra = _Spy(monkeypatch, kernels.csgraph, "dijkstra")
        assert_rows_are_dijkstras(g.to_csr().matrix, 7, 293)
        assert sweep.calls == [] and len(dijkstra.calls) == 2  # kernel + reference

    def test_long_path_bails_out_to_dijkstra(self, monkeypatch):
        """299 levels: the sweep stops at its budget and Dijkstra redoes the
        block — still the same bits."""
        sweep = _Spy(monkeypatch, kernels, "_level_sweep")
        dijkstra = _Spy(monkeypatch, kernels.csgraph, "dijkstra")
        assert_rows_are_dijkstras(uniform_csr(path_graph(300), 1.0), 3, 300)
        assert sweep.results == [False] and len(dijkstra.calls) == 2

    def test_source_blocks_split_the_range(self, monkeypatch):
        """A 64-source block cap: five blocks, the first and last partial."""
        matrix = uniform_csr(barabasi_albert(300, 2, seed=5), 0.1)
        monkeypatch.setattr(
            kernels, "_ENTRY_CHUNK_ELEMS", 64 * (300 + matrix.nnz // 8)
        )
        sweep = _Spy(monkeypatch, kernels, "_level_sweep")
        assert_rows_are_dijkstras(matrix, 5, 290)
        assert [(args[3], args[4]) for args, _kw in sweep.calls] == [
            (5, 69), (69, 133), (133, 197), (197, 261), (261, 290)
        ]
        assert sweep.results == [True] * 5

    def test_bail_out_in_a_later_block_keeps_the_earlier_rows(self, monkeypatch):
        matrix = uniform_csr(watts_strogatz(300, 4, 0.05, seed=6), 2.5)
        monkeypatch.setattr(
            kernels, "_ENTRY_CHUNK_ELEMS", 64 * (300 + matrix.nnz // 8)
        )
        budgets = iter([254, 0])
        monkeypatch.setattr(kernels, "_sweep_budget", lambda n, s, nnz: next(budgets))
        dijkstra = _Spy(monkeypatch, kernels.csgraph, "dijkstra")
        assert_rows_are_dijkstras(matrix, 10, 200)
        # the reference's call comes first, then the kernel's from block 2 on
        assert dijkstra.calls[1][1]["indices"].tolist() == list(range(74, 200))

    def test_peak_memory_stays_under_dijkstras_result(self, monkeypatch):
        """One call on a 600-vertex BA rank peaks at most 1.25x the n x s
        float64 rows Dijkstra would allocate (the rows themselves are the
        caller's)."""
        n = 600
        matrix = uniform_csr(barabasi_albert(n, 2, seed=7), 1.0)
        dijkstra = _Spy(monkeypatch, kernels.csgraph, "dijkstra")
        out = np.empty((n, n))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            kernels.local_apsp_rows(matrix, 0, n, out)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert dijkstra.calls == []
        assert peak <= 1.25 * n * n * 8

    @pytest.mark.parametrize("weights", ["unit", "tenth", "random"])
    def test_ia_kernel_is_dijkstra_folded_into_dv(self, weights):
        """The whole IA task equals one direct Dijkstra call folded into
        the owned columns: the level sweep on uniform weights, Dijkstra
        on random ones."""
        g = barabasi_albert(200, 2, seed=3)
        if weights == "random":
            g = random_weights(g, 0.5, 9.0, seed=4)
        matrix = g.to_csr().matrix
        if weights != "random":
            matrix.data[:] = 1.0 if weights == "unit" else 0.1
        n = matrix.shape[0]
        task = IATask(matrix=matrix, cols=np.arange(n), n=n, nnz=matrix.nnz)
        dv = np.random.default_rng(3).uniform(0.5, 30.0, size=(n, n))
        apsp_want = csgraph.dijkstra(matrix, directed=False)
        dv_want = np.minimum(dv, apsp_want)
        apsp = np.zeros((n, n))
        KERNELS.ia_kernel(task, dv, apsp)
        assert apsp.tobytes() == apsp_want.tobytes()
        assert dv.tobytes() == dv_want.tobytes()


# ----------------------------------------------------------------------
# closure fold: minplus_closure == minplus_fold_changed, bitwise
# ----------------------------------------------------------------------
CLOSURE_SHAPES = ["ba", "er", "path", "grid", "union"]
#: edge weights per kind; "three" is one weight past the unit ring (a ring
#: of four frontiers); "float" mixes halves (exact sums, still refused) with
#: thirds and tenths (rounded sums)
CLOSURE_WEIGHTS = {
    "unit": lambda rng: 1.0,
    "three": lambda rng: 3.0,
    "int": lambda rng: float(rng.integers(1, 6)),
    "float": lambda rng: float(rng.choice([0.5, 1.5, 0.1, 1 / 3])),
}


def closure_state(
    shape: str,
    n: int,
    n_cols: int,
    seed: int,
    *,
    weights: str = "int",
    density: float = 0.3,
    p_inf: float = 0.2,
):
    """``(graph, apsp, dv, changed)``: the CSR of a ``shape`` graph on
    ``0 .. n-1`` with ``weights``, its Dijkstra closure, and a block of
    positive integer entries (``p_inf`` of them +inf) of which a ``density``
    share is marked — +inf entries included."""
    rng = np.random.default_rng(seed)
    g = Graph()
    for v in range(n):
        g.add_vertex(v)
    for u, v, _w in sweep_graph(shape, n, seed).edges():
        g.add_edge(u, v, CLOSURE_WEIGHTS[weights](rng))
    graph = g.to_csr(list(range(n))).matrix
    apsp = csgraph.dijkstra(graph, directed=False)
    dv = rng.integers(1, 60, size=(n, n_cols)).astype(np.float64)
    dv[rng.random(dv.shape) < p_inf] = np.inf
    changed = rng.random(dv.shape) < density
    return graph, apsp, dv, changed


def assert_closure_matches_push(graph, apsp, dv, changed, chunk=None) -> List[int]:
    """``dv`` bytes and returned rows of the closure against the push; with
    ``chunk`` the closure runs under that ``_ENTRY_CHUNK_ELEMS``."""
    got, mask = dv.copy(), changed.copy()
    with mock.patch.object(
        kernels, "_ENTRY_CHUNK_ELEMS", chunk or kernels._ENTRY_CHUNK_ELEMS
    ):
        got_rows = kernels.minplus_closure(graph, apsp, got, mask)
    assert mask.tobytes() == changed.tobytes()  # only read
    ref = dv.copy()
    assert got_rows == kernels.minplus_fold_changed(apsp, ref, changed)
    assert got.tobytes() == ref.tobytes()
    return got_rows


def exact_for_closure(graph, dv, changed) -> bool:
    """The closure's exactness precondition, restated for the spies:
    positive integer weights, non-negative integer finite entries."""
    w = graph.data
    seeds = dv[changed][np.isfinite(dv[changed])]
    ints = all(
        ((x >= low) & (x == np.round(x))).all() for x, low in ((w, 1), (seeds, 0))
    )
    top = (seeds.max() if seeds.size else 0) + (w.max() if w.size else 0) * (
        dv.shape[0] - 1
    )
    return bool(ints and top < 2**53)


class TestClosureFold:
    """``oracle.minplus_closure`` — the entry push as one seeded, bit-parallel
    level sweep over the local CSR — against ``minplus_fold_changed``:
    bitwise on positive integer weights and entries, for any mask (no
    closure invariant needed), past the tick cap included (the push takes
    the fold there); and the fold takes it only where ``closure_applies``:
    never on float weights or a non-integral or near-2**53 entry, never on
    a sparse fold — a zero entry (a diagonal) is exact and swept."""

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        shape=st.sampled_from(CLOSURE_SHAPES),
        n=st.sampled_from([1, 2, 7, 30, 65]),
        n_cols=st.integers(1, 150),
        weights=st.sampled_from(["unit", "three", "int"]),
        density=st.sampled_from([0.02, 0.2, 0.7, 1.0]),
        p_inf=st.sampled_from([0.0, 0.3]),
        seed=st.integers(0, 2**16),
        split=st.booleans(),
    )
    # an isolated last vertex, 150 columns in blocks of 64, 64 and 22
    @example(
        shape="union", n=65, n_cols=150, weights="int", density=1.0, p_inf=0.3,
        seed=1, split=True,
    )
    @example(
        shape="union", n=7, n_cols=70, weights="three", density=0.7, p_inf=0.0,
        seed=2, split=True,
    )
    def test_bitwise_equal_to_the_push(
        self, shape, n, n_cols, weights, density, p_inf, seed, split
    ):
        """``split`` shrinks the element cap so the column blocks are 64
        wide: a block boundary falls inside the touched columns."""
        assert_closure_matches_push(
            *closure_state(
                shape, n, n_cols, seed, weights=weights, density=density, p_inf=p_inf
            ),
            chunk=1 if split else None,
        )

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        shape=st.sampled_from(CLOSURE_SHAPES),
        n=st.sampled_from([2, 7, 30]),
        weights=st.sampled_from(sorted(CLOSURE_WEIGHTS)),
        entry=st.sampled_from([None, 0.0, 2.5, 2.0**53 - 2, np.inf]),
        seed=st.integers(0, 2**16),
    )
    def test_the_tier_takes_it_exactly_where_it_is_exact(
        self, shape, n, weights, entry, seed
    ):
        """The cost rule switched off: the fold is the push's bytes
        whatever the weights and entries, and ran as the closure iff the
        integer precondition holds."""
        graph, apsp, dv, changed = closure_state(
            shape, n, 12, seed, weights=weights, density=0.5
        )
        if entry is not None:
            dv[0, 0], changed[0, 0] = entry, True
        got, ref = dv.copy(), dv.copy()
        with mock.patch.object(kernels, "_CLOSURE_MIN_ENTRIES", 0), mock.patch.object(
            kernels, "minplus_closure", wraps=kernels.minplus_closure
        ) as closure:
            rows = KERNELS.minplus_fold(apsp, got, changed, graph=graph)
        assert rows == kernels.minplus_fold_changed(apsp, ref, changed)
        assert got.tobytes() == ref.tobytes()
        assert closure.called == exact_for_closure(graph, dv, changed)

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        shape=st.sampled_from(CLOSURE_SHAPES),
        n=st.sampled_from([1, 2, 7, 30, 65]),
        n_cols=st.integers(1, 150),
        weights=st.sampled_from(["unit", "three", "int"]),
        full=st.booleans(),
        p_inf=st.sampled_from([0.0, 0.3]),
        seed=st.integers(0, 2**16),
        split=st.booleans(),
    )
    # an isolated last vertex, 150 columns in blocks of 64, 64 and 22
    @example(
        shape="union", n=65, n_cols=150, weights="int", full=True,
        p_inf=0.3, seed=1, split=True,
    )
    @example(
        shape="grid", n=30, n_cols=70, weights="three", full=True,
        p_inf=0.0, seed=2, split=True,
    )
    def test_a_full_fold_is_one_sweep_and_the_rectangle_fold(
        self, shape, n, n_cols, weights, full, p_inf, seed, split
    ):
        """Given the CSR, a full fold (``changed=None``) is one sweep
        seeded from every finite entry, bitwise the rectangle fold over the
        whole block, closed block or not; an incremental fold (``changed``)
        stays the push.  Each block holds zero diagonals ``d(v,v)`` and
        +inf columns; ``split`` makes its column blocks 64 wide."""
        graph, apsp, dv, changed = closure_state(
            shape, n, n_cols, seed, weights=weights, p_inf=p_inf
        )
        rng = np.random.default_rng(seed)
        dv[:, rng.random(n_cols) < 0.2] = np.inf  # fresh columns
        dv[np.arange(n), np.arange(n) % n_cols] = 0.0
        ref = dv.copy()
        if not full:
            ref_rows = kernels.minplus_fold_changed(apsp, ref, changed)
        else:
            ref_rows = kernels.minplus_fold(apsp, ref, np.arange(n), np.arange(n_cols))
        got = dv.copy()
        with mock.patch.object(
            kernels, "_ENTRY_CHUNK_ELEMS", 1 if split else kernels._ENTRY_CHUNK_ELEMS
        ), mock.patch.object(
            kernels, "minplus_closure", wraps=kernels.minplus_closure
        ) as closure:
            rows = KERNELS.minplus_fold(
                apsp, got, None if full else changed, graph=graph
            )
        assert rows == ref_rows and got.tobytes() == ref.tobytes()
        if not full:
            assert closure.called == kernels.closure_applies(graph, dv, changed)
        else:
            (_g, _a, _d, seeds), _kw = closure.call_args
            assert np.array_equal(seeds, np.isfinite(dv))

    def test_nothing_seeded_returns_none_without_a_warning(self):
        """A block whose marks are all +inf seeds nothing: no span to take
        (``inf - inf``), so no sweep and no ``RuntimeWarning``."""
        graph, _apsp, dv, _ = closure_state("path", 7, 5, 1)
        indices, starts, weights = kernels._padded_rows(graph)
        arcs = (indices - weights.astype(np.intp) * 7, starts, 7)
        dv[:, 2] = np.inf
        seeds = np.zeros(dv.shape, dtype=bool)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernels._fold_sweep(arcs, dv, seeds) is None
            seeds[:, 2] = True
            assert kernels._fold_sweep(arcs, dv, seeds) is None

    def test_push_chunks_and_closure_blocks_split_the_columns(self, monkeypatch):
        """150 touched columns under a tiny element cap: column blocks of 64,
        64 and 22 (a block boundary inside a 64-bit word run), and push
        chunks that split a column's entries — the same bytes as one
        block."""
        graph, apsp, dv, changed = closure_state("grid", 30, 150, 3, density=0.6)
        one_block = dv.copy()
        kernels.minplus_closure(graph, apsp, one_block, changed)
        sweep = _Spy(monkeypatch, kernels, "_fold_sweep")
        monkeypatch.setattr(kernels, "_ENTRY_CHUNK_ELEMS", 4 * 30)
        got = dv.copy()
        kernels.minplus_closure(graph, apsp, got, changed)
        assert [args[1].shape[1] for args, _kw in sweep.calls] == [64, 64, 22]
        assert got.tobytes() == one_block.tobytes()
        assert_closure_matches_push(graph, apsp, dv, changed)

    def test_masked_infinite_and_empty_columns_are_inert(self):
        graph, apsp, dv, changed = closure_state("path", 30, 20, 4, p_inf=0.6)
        changed |= np.isinf(dv)
        changed[:, 3] = False
        dv[:, 5] = np.inf
        changed[:, 5] = True  # a column of +inf seeds: never reached
        assert_closure_matches_push(graph, apsp, dv, changed)
        assert kernels.minplus_closure(graph, apsp, dv, np.zeros(dv.shape, bool)) == []

    @pytest.mark.parametrize(
        "case", ["seed span", "path", "weight", "span 254 sweeps"]
    )
    def test_the_push_takes_a_fold_past_the_tick_cap(self, monkeypatch, case):
        """Seeds 255 ticks apart, a 300-vertex path swept from one end and a
        weight of 300 each hand the fold to the push before anything of it
        is written; seeds 254 ticks apart still sweep."""
        shape, n = ("path", 300) if case == "path" else ("ba", 40)
        graph, apsp, dv, changed = closure_state(
            shape, n, 70, 5, weights="unit", p_inf=0.0
        )
        changed[:] = False
        if case == "path":
            changed[0] = True
        else:
            changed[:3] = True
            dv[0], dv[1] = 1.0, 256.0 if case == "seed span" else 255.0
        if case == "weight":
            graph.data[0] = 300.0
            apsp = csgraph.dijkstra(graph, directed=False)
        got, start = dv.copy(), dv.copy()
        untouched = []
        push = kernels.minplus_fold_changed

        def spy(*args):
            untouched.append(got.tobytes() == start.tobytes())
            return push(*args)

        monkeypatch.setattr(kernels, "minplus_fold_changed", spy)
        rows = kernels.minplus_closure(graph, apsp, got, changed)
        assert untouched == ([] if case == "span 254 sweeps" else [True])
        ref = dv.copy()
        assert rows == push(apsp, ref, changed) and got.tobytes() == ref.tobytes()

    def test_dense_integer_fold_takes_the_closure(self, monkeypatch):
        graph, apsp, dv, changed = closure_state(
            "ba", 200, 50, 5, density=1.0, p_inf=0.0
        )
        assert kernels.closure_applies(graph, dv, changed)
        closure = _Spy(monkeypatch, kernels, "minplus_closure")
        push = _Spy(monkeypatch, kernels, "minplus_fold_changed")
        got = dv.copy()
        KERNELS.minplus_fold(apsp, got, changed, graph=graph)
        assert len(closure.calls) == 1 and push.calls == []
        assert_closure_matches_push(graph, apsp, dv, changed)

    @pytest.mark.parametrize(
        "case", ["float weights", "non-integral", "near 2**53", "zero", "sparse", "no CSR"]
    )
    def test_spies_see_the_push(self, monkeypatch, case):
        graph, apsp, dv, changed = closure_state(
            "path", 200, 50, 5, weights="float" if case == "float weights" else "int",
            density=1.0, p_inf=0.0,
        )
        entry = {"non-integral": 7.5, "near 2**53": 2.0**53 - 2, "zero": 0.0}.get(case)
        if entry is not None:
            dv[3, 4] = entry
        if case == "sparse":  # about 4 entries per column
            changed &= np.random.default_rng(5).random(changed.shape) < 0.02
        ref = dv.copy()
        ref_rows = kernels.minplus_fold_changed(apsp, ref, changed)
        closure = _Spy(monkeypatch, kernels, "minplus_closure")
        push = _Spy(monkeypatch, kernels, "minplus_fold_changed")
        got = dv.copy()
        rows = KERNELS.minplus_fold(
            apsp, got, changed, graph=None if case == "no CSR" else graph
        )
        assert rows == ref_rows and got.tobytes() == ref.tobytes()
        if case == "zero":  # as a diagonal d(v,v) is: exact, so swept
            assert len(closure.calls) == 1 and push.calls == []
        else:
            assert closure.calls == [] and len(push.calls) == 1

    def test_precondition_boundary_is_two_to_the_53(self):
        graph, _apsp, dv, changed = closure_state(
            "path", 200, 50, 5, weights="unit", density=1.0, p_inf=0.0
        )
        dv[0, 0] = 2.0**53 - 200  # + 199 hops of weight 1 = 2**53 - 1
        assert kernels.closure_applies(graph, dv, changed)
        dv[0, 0] += 1
        assert not kernels.closure_applies(graph, dv, changed)

    def test_cost_rule_is_entries_per_touched_column(self):
        graph, _apsp, dv, _ = closure_state("ba", 100, 10, 6, p_inf=0.0)
        changed = np.zeros(dv.shape, dtype=bool)
        changed[:8, :] = True  # 8 entries in each of 10 columns
        assert not kernels.closure_applies(graph, dv, changed)
        changed[8, 0] = True
        assert kernels.closure_applies(graph, dv, changed)

    def test_static_solve_first_folds_take_the_closure(self, monkeypatch):
        """The ``static-solve`` input (BA 1000, 2 ranks): its first two folds
        on each rank carry 59-361 entries per touched column — the closure
        runs, and each call is the push's bytes over ``dijkstra(graph)``,
        which check 10 holds to ``local_apsp``."""
        calls = []

        def checked(graph, apsp, dv, changed, _real=kernels.minplus_closure):
            ref = dv.copy()
            ref_rows = kernels.minplus_fold_changed(
                csgraph.dijkstra(graph, directed=False), ref, changed
            )
            calls.append(_real(graph, apsp, dv, changed))
            assert calls[-1] == ref_rows and dv.tobytes() == ref.tobytes()
            return calls[-1]

        monkeypatch.setattr(kernels, "minplus_closure", checked)
        engine = AnytimeAnywhereCloseness(
            barabasi_albert(1000, 3, seed=1),
            AnytimeConfig(nprocs=2, backend="serial", collect_snapshots=False),
        )
        with engine:
            engine.setup()
            engine.run(step_budget=2)
            assert "local-csr-closure" in check_cluster_invariants(engine.cluster)
        assert len(calls) == 4  # the first two folds of each rank

    def test_distance_block_stays_under_its_constant(self, monkeypatch):
        """2 000 touched columns on a 100-vertex rank under an element cap
        of about 64 columns: unchunked, the block of ``dv`` and its
        candidate distances alone are 2 x 100 x 2 000 float64 (3.2 MB)."""
        graph, apsp, dv, _ = closure_state("path", 100, 2000, 6, p_inf=0.0)
        changed = np.zeros(dv.shape, dtype=bool)
        changed[[10, 60]] = True
        cap = 64 * (4 * 100 + 20)
        monkeypatch.setattr(kernels, "_ENTRY_CHUNK_ELEMS", cap)
        assert 2 * 100 * 2000 > 10 * cap
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            kernels.minplus_closure(graph, apsp, dv, changed)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # a block's gathers, sweep state and compare, the column list
        assert peak < 2 * cap * 8
