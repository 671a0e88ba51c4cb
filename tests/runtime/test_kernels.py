"""Edge cases of the min-plus folds and the edge-row relaxation.

The fold in :func:`repro.runtime.kernels.minplus_fold` (the RC
superstep's local propagation) processes sources in blocks, clamps the
block size to 1 when ``n * c`` exceeds the broadcast-temporary element
budget, and skips blocks whose sources are all infinite.  Every variant
must be bitwise-equal to a naive unblocked reference fold.

The implementation module is :mod:`repro.runtime.kernels.oracle` (the
``numpy`` tier delegates to it), so the block-size knobs are patched
there.

:func:`repro.runtime.kernels.minplus_fold_changed` — the entry-level
fold every RC superstep runs — visits only the ``dv`` entries marked in
the changed mask.  On states whose unmarked entries are closed under
``local_apsp`` (the invariant the writers maintain) and whose path sums
are exact (integer weights) it must be bitwise-equal to the rectangle
fold over any rectangle that contains the mask.

:func:`repro.runtime.kernels.relax_edge_kernel` (per orientation dense
in place, or gathered when the finite rectangle is thin) is pinned bitwise
against ``_reference_relax_edge``: the per-orientation gather/scatter
loop it replaced, kept here statement for statement.

:func:`repro.runtime.kernels.minplus_pull` — the deletion repair —
re-derives only the entries marked in the risen mask.  On states where
everything outside that mask only rose (``local_apsp`` included), the
pull followed by the push over the changed mask must be bitwise-equal to
the rectangle fold over the whole block.

:func:`repro.runtime.kernels.minplus_fold_pairs` — the fold after a local
edge — folds every target over the ``local_apsp`` pairs marked in the
fallen mask.  On states where everything outside the three masks is
closed, pull + push + pairs (the tier's ``minplus_fold``) must be
bitwise-equal to the rectangle fold over the whole block.
"""

from __future__ import annotations

import tracemalloc
from typing import Callable, List, NamedTuple, Optional, Tuple
from unittest import mock

import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.runtime.kernels.oracle as kernels
from repro import AnytimeAnywhereCloseness, AnytimeConfig, ChangeStream
from repro.centrality import exact_closeness, sssp_dijkstra
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
from repro.runtime import GlobalIndex, Worker
from repro.runtime.kernels import make_tier
from repro.runtime.shm import (
    SharedMemoryAllocator,
    attach_shm_array,
    detach_shm,
)

from ..conftest import cycle_graph, grid_graph, path_graph, superstep


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
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(apsp, dv, changed)`` as an RC superstep finds them, integer weights.

    ``apsp`` is the closure of a random integer-weight graph (possibly
    disconnected, so it holds +inf), ``dv`` a full fold of a random seed
    matrix — hence closed under ``apsp`` — in which a ``density`` share of
    the entries was then lowered (or made finite) and marked in
    ``changed``.
    """
    rng = np.random.default_rng(seed)
    w = np.triu(rng.integers(1, 9, size=(n, n)) * (rng.random((n, n)) < p_edge), 1)
    apsp = csgraph.dijkstra(w + w.T, directed=False)
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
    return apsp, dv, changed


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
            )
        )

    def test_empty_mask_touches_nothing(self):
        apsp, dv, _ = closed_state(1, 12, 30)
        before = dv.copy()
        assert kernels.minplus_fold_changed(apsp, dv, np.zeros(dv.shape, bool)) == []
        assert dv.tobytes() == before.tobytes()

    def test_one_entry(self):
        apsp, dv, _ = closed_state(2, 12, 30, p_edge=1.0, p_inf=0.0, density=0.0)
        changed = np.zeros(dv.shape, dtype=bool)
        dv[3, 7] = 0.0
        changed[3, 7] = True
        rows = assert_entry_fold_matches_rectangle(apsp, dv, changed)
        assert rows and 3 not in rows  # the source row itself does not improve

    def test_masked_infinite_entries_are_inert(self):
        apsp, dv, changed = closed_state(3, 12, 30, p_inf=0.6)
        changed |= np.isinf(dv)
        assert np.isinf(dv[changed]).any()
        assert_entry_fold_matches_rectangle(apsp, dv, changed)

    def test_dense_rectangle_and_full_mask(self):
        apsp, dv, _ = closed_state(4, 16, 36, p_edge=0.5, density=0.0)
        rng = np.random.default_rng(4)
        lowered = np.maximum(dv - rng.integers(1, 6, size=dv.shape), 0.0)
        block = np.zeros(dv.shape, dtype=bool)
        block[2:11, 5:30] = True
        for changed in (block, np.ones(dv.shape, dtype=bool)):
            state = np.where(changed & np.isfinite(dv), lowered, dv)
            assert assert_entry_fold_matches_rectangle(apsp, state, changed)

    def test_fresh_infinite_columns(self):
        """Columns just added by ``grow_columns``: all +inf, one entry set."""
        apsp, dv, changed = closed_state(5, 10, 20, p_edge=1.0, density=0.0)
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
        apsp, dv, changed = closed_state(6, 14, 25, p_edge=0.6, density=0.5)
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
        apsp, dv, _ = closed_state(7, 200, 800, p_edge=0.05, p_inf=0.0, density=0.0)
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
        apsp, dv, _ = closed_state(8, 10, 20, density=0.0)
        before = dv.copy()
        changed = np.zeros(dv.shape, dtype=bool)
        dirty = np.zeros(20, dtype=bool)
        rng = np.random.default_rng(8)
        items = [
            (rng.integers(0, 30, size=20).astype(np.float64), [(2, 1.0), (5, 3.0)]),
            (rng.integers(0, 30, size=20).astype(np.float64), [(5, 2.0)]),
        ]
        rows = kernels.relax_cut_kernel(dv, changed, dirty, items)
        assert np.array_equal(changed, dv < before)
        assert np.array_equal(dirty, changed.any(axis=0))
        assert rows == np.flatnonzero(changed.any(axis=1)).tolist()

    def test_writes_land_in_the_shared_memory_blocks(self):
        """Pool children map ``dv`` and the mask by name: what the relaxation
        marks and what the fold lowers must be visible through a second
        attachment, i.e. written in place and never re-homed."""
        apsp, dv, _ = closed_state(9, 10, 20, p_edge=1.0, density=0.0)
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
                items = [(np.zeros(20), [(4, 1.0)])]
                kernels.relax_cut_kernel(
                    pool_dv, pool_mask, np.zeros(20, dtype=bool), items
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
# deletion repair: pull the risen + push the lowered == the rectangle fold
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
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(apsp, dv, changed, rose)`` as a deletion leaves them, integer weights.

    A :func:`closed_state` in which a ``risen`` share of the entries was
    raised (most to +inf, as the witness test does; some to a larger
    finite value) and marked in ``rose``, ``apsp`` optionally rose too
    (doubling keeps it transitively closed), and then ``relowered``
    entries — inside the risen set or not — were lowered and marked in
    ``changed``, as the addition half of a reweight-up does.
    """
    apsp, dv, changed = closed_state(seed, n, n_cols, **closed)
    rng = np.random.default_rng(seed + 1)
    rose = rng.random(dv.shape) < risen
    raised = np.where(
        rng.random(dv.shape) < 0.8, np.inf, dv + rng.integers(1, 9, size=dv.shape)
    )
    dv[rose] = raised[rose]
    if apsp_rises:
        apsp = apsp * 2.0
    for _ in range(relowered if dv.size else 0):
        r, c = rng.integers(0, n), rng.integers(0, n_cols)
        old = dv[r, c]
        dv[r, c] = float(rng.integers(0, 20)) if np.isinf(old) else max(old - 2.0, 0.0)
        changed[r, c] = True
    return apsp, dv, changed, rose


def assert_repair_matches_rectangle(
    apsp: np.ndarray,
    dv: np.ndarray,
    changed: np.ndarray,
    rose: Optional[np.ndarray],
    fell: Optional[np.ndarray] = None,
) -> List[int]:
    """``dv`` bytes and returned rows of the tier's fold — pull, push and
    pairs — against the rectangle fold over the whole block; returns the
    rows."""
    got = dv.copy()
    masks = [None if m is None else m.copy() for m in (changed, rose, fell)]
    got_rows = make_tier("numpy").minplus_fold(apsp, got, *masks)
    for mask, given in zip(masks, (changed, rose, fell)):
        assert mask is None or mask.tobytes() == given.tobytes()  # only read
    ref = dv.copy()
    n, n_cols = dv.shape
    ref_rows = kernels.minplus_fold(apsp, ref, np.arange(n), np.arange(n_cols))
    assert got.tobytes() == ref.tobytes()
    assert got_rows == ref_rows
    return got_rows


class TestPullFold:
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
    def test_pull_then_push_bitwise_equal_to_rectangle_fold(
        self, seed, n, n_cols, p_edge, p_inf, density, risen, relowered, apsp_rises
    ):
        assert_repair_matches_rectangle(
            *repair_state(
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
        )

    def test_empty_mask_touches_nothing(self):
        apsp, dv, _ = closed_state(1, 12, 30, density=0.0)
        before = dv.copy()
        assert kernels.minplus_pull(apsp, dv, np.zeros(dv.shape, bool)) == []
        assert dv.tobytes() == before.tobytes()

    def test_one_entry_is_rederived_and_nothing_else_moves(self):
        apsp, dv, changed = closed_state(2, 12, 30, p_edge=1.0, p_inf=0.0, density=0.0)
        before = dv.copy()
        rose = np.zeros(dv.shape, dtype=bool)
        rose[3, 7] = True
        dv[3, 7] = np.inf
        assert assert_repair_matches_rectangle(apsp, dv, changed, rose) == [3]
        assert kernels.minplus_pull(apsp, dv, rose) == [3]
        # a connected block re-derives the entry from its neighbours' rows
        assert dv.tobytes() == before.tobytes()

    def test_all_true_mask(self):
        apsp, dv, changed, _ = repair_state(3, 16, 36, risen=0.3, p_edge=0.5)
        assert_repair_matches_rectangle(apsp, dv, changed, np.ones(dv.shape, bool))

    def test_empty_worker(self):
        assert kernels.minplus_pull(
            np.zeros((0, 0)), np.zeros((0, 6)), np.zeros((0, 6), dtype=bool)
        ) == []

    def test_column_split_across_chunks(self, monkeypatch):
        """A chunk boundary inside one column's entries, and a last chunk
        shorter than the buffers: same bytes as one chunk."""
        apsp, dv, changed, rose = repair_state(6, 14, 25, risen=0.5, p_edge=0.6)
        assert (rose.sum(axis=0) > 5).any()
        one_chunk = dv.copy()
        kernels.minplus_pull(apsp, one_chunk, rose)
        for entries in (1, 3, 5):
            monkeypatch.setattr(kernels, "_ENTRY_CHUNK_ELEMS", entries * 2 * 14)
            assert entries == 1 or int(rose.sum()) % entries  # short tail
            got = dv.copy()
            kernels.minplus_pull(apsp, got, rose)
            assert got.tobytes() == one_chunk.tobytes()
            assert_repair_matches_rectangle(apsp, dv, changed, rose)

    def test_gather_temporaries_stay_under_their_constant(self):
        """A quarter of a 200 x 800 block is 8 M candidates per gather
        (128 MB for the two at once): the pull must stream them through its
        two capped buffers."""
        rng = np.random.default_rng(7)
        apsp, dv = rng.random((200, 200)), rng.random((200, 800))
        rose = rng.random(dv.shape) < 0.25
        cap = kernels._ENTRY_CHUNK_ELEMS * 8
        assert 2 * rose.sum() * 200 * 8 > 4 * cap
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            kernels.minplus_pull(apsp, dv, rose)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the buffers, plus index vectors, the apsp transpose and results
        assert peak < cap + cap // 2

    def test_float_weights_agree_with_rectangle_within_closure_rtol(self):
        """Path sums round on float weights, so chained pulls may differ
        from the rectangle fold in the last place — never by more than
        check 9 tolerates, and never below it."""
        rng = np.random.default_rng(11)
        for seed in range(5):
            apsp, dv, changed, rose = repair_state(
                seed, 20, 45, risen=0.2, p_edge=0.4, p_inf=0.1
            )
            scale = rng.uniform(0.1, 3.7)
            apsp, dv = apsp * scale / 3.0, dv * scale / 7.0
            # re-close under the float apsp, then re-raise
            np.minimum(
                dv, np.min(apsp[:, :, None] + dv[None, :, :], axis=1), out=dv
            )
            dv[rose] = np.inf
            got, ref = dv.copy(), dv.copy()
            make_tier("numpy").minplus_fold(apsp, got, changed, rose)
            kernels.minplus_fold(apsp, ref, np.arange(20), np.arange(45))
            assert np.array_equal(np.isinf(got), np.isinf(ref))
            np.testing.assert_allclose(got, ref, rtol=1e-12)


class TestDeletionRepairOnFloatWeights:
    """Deletions on general float weights end to end: the repaired run
    converges to the exact closeness (1e-9) through every tier entry."""

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
# local edges: pull + push + the fallen pairs == the rectangle fold
# ----------------------------------------------------------------------
def add_isolated_vertex(
    apsp: np.ndarray, dv: np.ndarray, *masks: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """Pad the state as ``add_local_vertex`` does: an isolated last row
    whose one finite entry, a fresh column's ``d(v,v) = 0``, is marked in
    the first mask (``changed``)."""
    n, n_cols = dv.shape
    grown = np.full((n + 1, n + 1), np.inf)
    grown[:n, :n] = apsp
    grown[n, n] = 0.0
    dv = np.pad(dv, ((0, 1), (0, 1)), constant_values=np.inf)
    dv[n, n_cols] = 0.0
    masks = tuple(np.pad(m, ((0, 1), (0, 1))) for m in masks)
    masks[0][n, n_cols] = True
    return (grown, dv) + masks


def lower_apsp(
    apsp: np.ndarray, edges: List[Tuple[int, int, float]]
) -> Tuple[np.ndarray, np.ndarray]:
    """``(apsp, fell)`` after ``add_local_edge``'s incremental repair for
    each ``(u, v, w)`` in turn: the new closure and the pairs it lowered."""
    apsp = apsp.copy()
    fell = np.zeros(apsp.shape, dtype=bool)
    for u, v, w in edges:
        cand = np.minimum(
            apsp[:, u][:, None] + w + apsp[v][None, :],
            apsp[:, v][:, None] + w + apsp[u][None, :],
        )
        improved = cand < apsp
        apsp[improved] = cand[improved]
        fell |= improved
    return apsp, fell


def random_edges(seed: int, n: int, count: int) -> List[Tuple[int, int, float]]:
    rng = np.random.default_rng(seed + 2)
    if n < 2:
        return []
    pairs = (rng.choice(n, size=2, replace=False) for _ in range(count))
    return [(int(u), int(v), float(rng.integers(1, 4))) for u, v in pairs]


class TestPairFold:
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
        risen=st.sampled_from([None, 0.0, 0.1, 0.6]),
        new_vertex=st.booleans(),
        local_edges=st.sampled_from([1, 2, 5, "all pairs"]),
    )
    def test_pull_push_and_pairs_bitwise_equal_to_rectangle_fold(
        self, seed, n, n_cols, p_edge, p_inf, density, risen, new_vertex, local_edges
    ):
        """``p_edge=0`` makes every edge the first of an isolated row,
        ``p_edge=1`` makes every edge a shortcut; ``new_vertex`` joins a
        freshly padded row; ``"all pairs"`` halves every local distance."""
        apsp, dv, changed, rose = repair_state(
            seed,
            n,
            n_cols,
            risen=risen or 0.0,
            apsp_rises=bool(seed % 2),
            p_edge=p_edge,
            p_inf=p_inf,
            density=density,
        )
        if new_vertex:
            apsp, dv, changed, rose = add_isolated_vertex(apsp, dv, changed, rose)
        if local_edges == "all pairs":
            lowered = apsp * 0.5
            fell = lowered < apsp
        else:
            edges = random_edges(seed, apsp.shape[0], local_edges)
            if new_vertex:  # its first edge
                edges.insert(0, (n, seed % n, 2.0))
            lowered, fell = lower_apsp(apsp, edges)
        # risen=None: no repair pending, the fold does not pull
        assert_repair_matches_rectangle(
            lowered, dv, changed, None if risen is None else rose, fell
        )

    def test_empty_mask_touches_nothing(self):
        apsp, dv, changed = closed_state(1, 12, 30)
        fell = np.zeros(apsp.shape, dtype=bool)
        before = dv.copy()
        assert kernels.minplus_fold_pairs(apsp, dv, fell, dv.copy()) == []
        assert dv.tobytes() == before.tobytes()
        # through the tier: the same bytes and rows as with no mask at all
        rows = make_tier("numpy").minplus_fold(apsp, dv, changed, None, fell)
        assert rows == make_tier("numpy").minplus_fold(apsp, before, changed)
        assert dv.tobytes() == before.tobytes()

    def test_one_pair(self):
        """One directed pair: only its row moves, through its one source."""
        apsp, dv, changed = closed_state(2, 12, 30, p_edge=1.0, p_inf=0.0, density=0.0)
        apsp[3, 7] = 0.0
        fell = np.zeros(apsp.shape, dtype=bool)
        fell[3, 7] = True
        before = dv.copy()
        assert kernels.minplus_fold_pairs(apsp, dv, fell, before) == [3]
        assert np.array_equal(dv[3], np.minimum(before[3], before[7]))
        assert np.array_equal(np.delete(dv, 3, 0), np.delete(before, 3, 0))

    def test_first_edge_of_a_new_vertex(self):
        """The case the all-entries marking paid for: a new vertex's first
        edge lowers one pair per row and per column — 2(n-1) of n**2 — and
        the fold must fill the new row and the new column from them."""
        apsp, dv, changed = add_isolated_vertex(
            *closed_state(3, 15, 32, p_edge=1.0, p_inf=0.0, density=0.0)
        )
        lowered, fell = lower_apsp(apsp, [(15, 4, 2.0)])
        assert fell.sum() == 2 * 15 and fell[15, :15].all() and fell[:15, 15].all()
        rows = assert_repair_matches_rectangle(lowered, dv, changed, None, fell)
        assert rows == list(range(16))

    def test_all_true_mask(self):
        """Diagonal and +inf pairs included: inert, as a +inf entry is."""
        apsp, dv, changed, rose = repair_state(4, 16, 36, risen=0.2, p_edge=0.2)
        assert np.isinf(apsp).any()
        lowered, _ = lower_apsp(apsp, random_edges(4, 16, 3))
        everything = np.ones(apsp.shape, dtype=bool)
        assert_repair_matches_rectangle(lowered, dv, changed, rose, everything)
        assert_repair_matches_rectangle(lowered, dv, changed, None, everything)

    def test_empty_worker(self):
        dv = np.zeros((0, 6))
        fell = np.zeros((0, 0), dtype=bool)
        assert kernels.minplus_fold_pairs(np.zeros((0, 0)), dv, fell, dv) == []
        assert make_tier("numpy").minplus_fold(
            np.zeros((0, 0)), dv, np.zeros((0, 6), dtype=bool), None, fell
        ) == []

    def test_row_group_split_across_chunks(self, monkeypatch):
        """A chunk boundary inside one row's pairs, and a last chunk shorter
        than the buffer: same bytes as one chunk."""
        apsp, dv, changed = closed_state(6, 14, 25, p_edge=0.6, density=0.1)
        lowered, fell = lower_apsp(apsp * 3.0, random_edges(6, 14, 4))
        assert (fell.sum(axis=1) > 5).any()
        one_chunk = dv.copy()
        kernels.minplus_fold_pairs(lowered, one_chunk, fell, dv)
        for pairs in (1, 3, 5):
            monkeypatch.setattr(kernels, "_ENTRY_CHUNK_ELEMS", pairs * 25)
            assert pairs == 1 or int(fell.sum()) % pairs  # short tail
            got = dv.copy()
            kernels.minplus_fold_pairs(lowered, got, fell, dv)
            assert got.tobytes() == one_chunk.tobytes()
            assert_repair_matches_rectangle(lowered, dv, changed, None, fell)

    def test_sources_are_read_as_the_fold_began(self):
        """What an earlier chunk (or the push before it) lowered is not a
        source: every candidate is ``apsp(x,k) + src(k,t)``, one sum."""
        apsp = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        src = np.array([[9.0], [9.0], [0.0]])
        fell = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=bool)
        dv = src.copy()
        assert kernels.minplus_fold_pairs(apsp, dv, fell, src) == [1]
        # row 0 folds over (0,1) only: 1 + src(1) = 10, not 1 + dv(1) = 2
        assert dv.tolist() == [[9.0], [1.0], [0.0]]

    def test_tier_snapshots_the_sources_before_the_push(self):
        """Float sums do not re-associate: 0.1 + (0.2 + 0.3) is one ulp below
        (0.1 + 0.2) + 0.3, so pairs folded from what the push just wrote
        would undercut the rectangle fold's single sums."""
        apsp = np.array([[0.0, 0.1, 0.1 + 0.2], [0.1, 0.0, 0.2], [0.1 + 0.2, 0.2, 0.0]])
        dv = np.array([[np.inf], [np.inf], [0.3]])
        changed = np.array([[False], [False], [True]])
        fell = ~np.eye(3, dtype=bool)
        assert_repair_matches_rectangle(apsp, dv, changed, None, fell)
        assert 0.1 + (0.2 + 0.3) < (0.1 + 0.2) + 0.3

    def test_gather_temporary_stays_under_its_constant(self):
        """Every pair of a 200-row block over 800 columns is 32 M candidates
        (256 MB at once): the fold must stream them through its one capped
        gather buffer."""
        rng = np.random.default_rng(7)
        apsp, dv = rng.random((200, 200)), rng.random((200, 800))
        fell = np.ones(apsp.shape, dtype=bool)
        cap = kernels._ENTRY_CHUNK_ELEMS * 8
        assert fell.sum() * 800 * 8 > 8 * cap
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            kernels.minplus_fold_pairs(apsp, dv, fell, dv.copy())
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the buffer, plus the snapshot, index vectors and per-chunk results
        assert peak < cap + cap // 2

    def test_float_weights_agree_with_rectangle_within_closure_rtol(self):
        """Path sums round on float weights, so a candidate the pair fold
        skips as dominated may beat the stored entry in the last place —
        never by more than check 9 tolerates."""
        rng = np.random.default_rng(11)
        for seed in range(5):
            apsp, dv, changed, rose = repair_state(
                seed, 20, 45, risen=0.2, p_edge=0.4, p_inf=0.1
            )
            scale = rng.uniform(0.1, 3.7)
            apsp, dv = apsp * scale / 3.0, dv * scale / 7.0
            # re-close under the float apsp, then re-raise
            np.minimum(
                dv, np.min(apsp[:, :, None] + dv[None, :, :], axis=1), out=dv
            )
            dv[rose] = np.inf
            edges = [(u, v, w * scale / 3.0) for u, v, w in random_edges(seed, 20, 3)]
            lowered, fell = lower_apsp(apsp, edges)
            assert fell.any()
            got, ref = dv.copy(), dv.copy()
            make_tier("numpy").minplus_fold(lowered, got, changed, rose, fell)
            kernels.minplus_fold(lowered, ref, np.arange(20), np.arange(45))
            assert np.array_equal(np.isinf(got), np.isinf(ref))
            np.testing.assert_allclose(got, ref, rtol=1e-12)


# ----------------------------------------------------------------------
# edge-row relaxation: relax_edge_kernel == the loop it replaced, bitwise
# ----------------------------------------------------------------------
def _reference_relax_edge(
    dv: np.ndarray,
    dirty_cols: np.ndarray,
    col_a: int,
    row_a: np.ndarray,
    col_b: int,
    row_b: np.ndarray,
    w: float,
    charge: Callable[[], None],
    mark_rows_changed: Callable[[np.ndarray], None],
) -> bool:
    """``Worker.relax_with_edge_rows`` as of the commit before the kernel.

    The loop body is verbatim; only ``self.dv`` / ``self._dirty_cols``
    became parameters and the two ``self`` calls became callbacks
    (``charge()`` stands for
    ``self._charge(self.cost.relax_time(self.n_local * self.n_cols))``).
    """
    improved_any = False
    for col_src, row in ((col_a, row_b), (col_b, row_a)):
        charge()
        src_col = dv[:, col_src]
        rows_f = np.flatnonzero(np.isfinite(src_col)).astype(np.int64)
        cols_f = np.flatnonzero(np.isfinite(row))
        if rows_f.size == 0 or cols_f.size == 0:
            continue
        sub = dv[np.ix_(rows_f, cols_f)]
        through = src_col[rows_f][:, None] + (w + row[cols_f])[None, :]
        mask = through < sub
        if mask.any():
            sub[mask] = through[mask]
            dv[np.ix_(rows_f, cols_f)] = sub
            dirty_cols[cols_f[mask.any(axis=0)]] = True
            mark_rows_changed(rows_f[mask.any(axis=1)])
            improved_any = True
    return improved_any


class EdgeCase(NamedTuple):
    """One relaxation: the worker owns vertices (= columns) ``0..n_local-1``."""

    dv: np.ndarray
    col_a: int
    row_a: np.ndarray
    col_b: int
    row_b: np.ndarray
    w: float

    def dense(self) -> Tuple[bool, bool]:
        """Which orientations relax a finite rectangle above the quarter."""
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
    for queue in w._pending:
        queue.clear()
    w._changed_rows.clear()
    w._charge(0.1 + rng.random())
    return w


def assert_kernel_matches_reference(case: EdgeCase, seed: int = 0) -> bool:
    """Kernel level, then through a Worker; returns whether it improved."""
    n_local, n_cols = case.dv.shape
    args = (case.col_a, case.row_a, case.col_b, case.row_b, case.w)

    ref_dv, ref_dirty = case.dv.copy(), np.zeros(n_cols, dtype=bool)
    ref_rows: List[int] = []
    ref_improved = _reference_relax_edge(
        ref_dv, ref_dirty, *args,
        charge=lambda: None,
        mark_rows_changed=lambda rows: ref_rows.extend(rows.tolist()),
    )
    dv, dirty = case.dv.copy(), np.zeros(n_cols, dtype=bool)
    changed = np.zeros(dv.shape, dtype=bool)
    rows = kernels.relax_edge_kernel(dv, changed, dirty, *args)
    assert dv.tobytes() == ref_dv.tobytes()
    assert np.array_equal(changed, dv < case.dv)  # exactly what was lowered
    assert dirty.tobytes() == ref_dirty.tobytes()
    assert rows.tolist() == sorted(set(ref_rows))
    assert bool(rows.size) == ref_improved

    ref_w, new_w = block_worker(case.dv, seed), block_worker(case.dv, seed)
    assert _reference_relax_edge(
        ref_w.dv, ref_w._dirty_cols, *args,
        charge=lambda: ref_w._charge(
            ref_w.cost.relax_time(ref_w.n_local * ref_w.n_cols)
        ),
        mark_rows_changed=ref_w._mark_rows_changed,
    ) is ref_improved
    assert new_w.relax_with_edge_rows(
        case.col_a, case.row_a, case.col_b, case.row_b, case.w
    ) is ref_improved
    assert new_w.dv.tobytes() == ref_dv.tobytes()
    assert np.array_equal(new_w.dv_changed, changed)
    assert new_w._dirty_cols.tobytes() == ref_w._dirty_cols.tobytes()
    assert new_w._changed_rows == ref_w._changed_rows == set(rows.tolist())
    assert new_w._pending == ref_w._pending
    assert new_w._seconds.hex() == ref_w._seconds.hex()
    return ref_improved


_SHARES = st.sampled_from([0.0, 0.05, 0.3, 0.9, 1.0])


@st.composite
def edge_cases(draw) -> EdgeCase:
    n_cols = draw(st.integers(2, 60))
    n_local = draw(st.integers(1, min(40, n_cols)))
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


class TestRelaxEdgeKernel:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=edge_cases(), seed=st.integers(0, 1000))
    def test_bitwise_equal_to_reference(self, case, seed):
        assert_kernel_matches_reference(case, seed)

    # (finite shares of col a, col b, row a, row b) -> (dense 1, dense 2);
    # endpoints 30 / 31 are external to the 24 x 40 block, 3 / 5 owned
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
        fa, fb, ra, rb = shares
        for seed in range(5):
            case = edge_case(
                seed, 24, 40, *cols, p_inf=0.0,
                finite_col_a=fa, finite_col_b=fb,
                finite_row_a=ra, finite_row_b=rb,
            )
            assert case.dense() == expected
            assert_kernel_matches_reference(case, seed)

    def test_orientation_two_reads_column_b_after_orientation_one(self):
        # d(x, b) is unknown everywhere, so only orientation 1 (through
        # a, arriving at b itself) makes column b finite — and only then
        # can orientation 2 improve anything through it
        case = edge_case(7, 24, 40, 30, 31, p_inf=0.0, finite_col_b=0.0)
        assert not np.isfinite(case.dv[:, 31]).any()
        without_a = case._replace(
            dv=np.where(np.arange(40) == 30, np.inf, case.dv)
        )
        assert not assert_kernel_matches_reference(without_a)
        assert case.dense() == (True, True)
        assert assert_kernel_matches_reference(case)
        thin = edge_case(
            7, 24, 40, 30, 31, p_inf=0.0, finite_col_b=0.0, finite_row_a=0.05
        )
        assert thin.dense() == (True, False)
        assert assert_kernel_matches_reference(thin)

    def test_no_improvement_leaves_everything_untouched(self):
        for share, dense in ((1.0, True), (0.05, False)):
            case = edge_case(
                3, 24, 40, 30, 31, w=1e6, p_inf=0.0,
                finite_row_a=share, finite_row_b=share,
            )
            assert case.dense() == (dense, dense)
            before = case.dv.copy()
            assert not assert_kernel_matches_reference(case)
            dirty = np.zeros(40, dtype=bool)
            changed = np.zeros(case.dv.shape, dtype=bool)
            rows = kernels.relax_edge_kernel(
                case.dv, changed, dirty, 30, case.row_a, 31, case.row_b, case.w
            )
            assert rows.size == 0 and not dirty.any() and not changed.any()
            assert case.dv.tobytes() == before.tobytes()

    def test_empty_worker_returns_false_and_charges_nothing(self):
        w = block_worker(np.empty((0, 6)), seed=0)
        seconds = w._seconds
        row = np.arange(6, dtype=np.float64)
        assert w.relax_with_edge_rows(2, row, 4, row, 1.0) is False
        assert w._seconds == seconds
        assert not w._changed_rows and not any(w._pending)
        rows = kernels.relax_edge_kernel(
            np.empty((0, 6)), np.zeros((0, 6), dtype=bool),
            np.zeros(6, dtype=bool), 2, row, 4, row, 1.0,
        )
        assert rows.size == 0

    @pytest.mark.parametrize("finite_row_a", [1.0, 0.05])
    def test_writes_land_in_the_shared_memory_block(self, finite_row_a):
        """The process backend's pool reads ``dv`` through its own mapping
        of the segment: the relaxation must write into it, not re-home it."""
        case = edge_case(11, 24, 40, 30, 31, finite_row_a=finite_row_a)
        expected = case.dv.copy()
        assert _reference_relax_edge(
            expected, np.zeros(40, dtype=bool), *case[1:],
            charge=lambda: None, mark_rows_changed=lambda rows: None,
        )
        allocator = SharedMemoryAllocator()
        try:
            w = block_worker(case.dv, 0, allocator)
            resident = w.dv
            shm, pool_view = attach_shm_array(allocator.descriptor(resident))
            try:
                assert w.relax_with_edge_rows(30, case.row_a, 31, case.row_b, case.w)
                assert w.dv is resident
                assert pool_view.tobytes() == expected.tobytes()
            finally:
                del pool_view
                detach_shm(shm)
        finally:
            allocator.release_all()

    def test_thin_rectangle_allocates_far_less_than_the_block(self):
        """First edge of a new vertex: one finite row x one finite column.

        An always-dense kernel would allocate whole-block temporaries
        here (30 % of serve-churn's orientations are this shape); the
        gather path must stay O(n_local + n_cols).
        """
        n_local, n_cols, a, b = 200, 800, 7, 650
        rng = np.random.default_rng(0)
        dv = rng.uniform(1.0, 20.0, size=(n_local, n_cols))
        dv[:, a] = np.inf          # nobody reaches the new vertex yet ...
        dv[a, :] = np.inf          # ... and it reaches nobody
        dv[a, a] = 0.0
        row_a = dv[a].copy()
        row_b = rng.uniform(1.0, 20.0, size=n_cols)
        row_b[[a, b]] = np.inf, 0.0
        case = EdgeCase(dv, a, row_a, b, row_b, 1.0)
        assert case.dense() == (False, False)
        assert assert_kernel_matches_reference(case)
        dirty = np.zeros(n_cols, dtype=bool)
        changed = np.zeros(dv.shape, dtype=bool)
        work = dv.copy()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rows = kernels.relax_edge_kernel(
                work, changed, dirty, a, row_a, b, row_b, 1.0
            )
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert rows.tolist() == list(range(n_local))  # everyone reaches a now
        assert peak < n_local * n_cols * 8 // 4


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
