"""Edge cases of the blocked batched min-plus kernel.

The fold in :func:`repro.runtime.kernels.minplus_fold` (the RC
superstep's local propagation) processes sources in blocks, clamps the
block size to 1 when ``n * c`` exceeds the broadcast-temporary element
budget, and skips blocks whose sources are all infinite.  Every variant
must be bitwise-equal to a naive unblocked reference fold.

The implementation module is :mod:`repro.runtime.kernels.oracle` (the
``numpy`` tier delegates to it), so the block-size knobs are patched
there.
"""

from __future__ import annotations

from typing import List

import numpy as np

import repro.runtime.kernels.oracle as kernels
from repro.graph import extract_local_subgraph
from repro.model import DEFAULT_COST
from repro.runtime import GlobalIndex, Worker

from ..conftest import path_graph, superstep


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
