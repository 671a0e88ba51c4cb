"""Unit tests for the delta wire format: encoding, fallback, baselines."""

import numpy as np
import pytest

from repro.errors import WorkerError
from repro.graph.views import extract_local_subgraph
from repro.model.cost import DEFAULT_COST
from repro.runtime.index import GlobalIndex
from repro.runtime.message import (
    DeltaRows,
    delta_row_words,
    dense_row_words,
)
from repro.runtime.worker import Worker

from ..conftest import path_graph


def delta_worker(n_cols=12, wire_format="delta"):
    """A 2-rank worker owning half of a path graph with many columns."""
    g = path_graph(n_cols)
    half = n_cols // 2
    owner = {v: (0 if v < half else 1) for v in range(n_cols)}
    idx = GlobalIndex(g.vertex_list())
    w = Worker(0, 2, idx, DEFAULT_COST, wire_format=wire_format)
    w.load_subgraph(extract_local_subgraph(g, list(range(half)), owner, 0))
    return g, w


class TestDeltaRows:
    def test_len_bool_iter_contains(self):
        rows = DeltaRows()
        assert not rows and len(rows) == 0
        rows.dense[3] = np.zeros(4)
        rows.sparse[1] = (np.array([0], dtype=np.int64), np.array([1.0]))
        assert rows and len(rows) == 2
        assert list(rows) == [1, 3]
        assert 1 in rows and 3 in rows and 2 not in rows

    def test_getitem_dense_only(self):
        rows = DeltaRows()
        rows.dense[3] = np.zeros(4)
        rows.sparse[1] = (np.array([0], dtype=np.int64), np.array([1.0]))
        np.testing.assert_array_equal(rows[3], np.zeros(4))
        with pytest.raises(KeyError):
            rows[1]

    def test_words_pricing(self):
        rows = DeltaRows()
        rows.dense[3] = np.zeros(10)
        rows.sparse[1] = (
            np.array([0, 4], dtype=np.int64),
            np.array([1.0, 2.0]),
        )
        assert rows.words() == dense_row_words(10) + delta_row_words(2)
        assert dense_row_words(10) == 11  # row + id header
        assert delta_row_words(2) == 6  # (col, val) pairs + id + count


class TestEncodeRow:
    def test_first_publication_is_dense(self):
        _g, w = delta_worker()
        w.run_initial_approximation()
        w.subscribe(0, 1)
        payload = w.build_payload(1)
        assert 0 in payload.dense
        assert not payload.sparse

    def test_small_improvement_goes_sparse(self):
        _g, w = delta_worker()
        w.run_initial_approximation()
        w.subscribe(0, 1)
        w.build_payload(1)  # establishes the baseline
        w.dv[w.row_of[0], 9] = 1.5  # one column improves
        w.channels[1].pending.add(0)
        payload = w.build_payload(1)
        cols, vals = payload.sparse[0]
        assert cols.tolist() == [9]
        assert vals.tolist() == [1.5]

    def test_unchanged_row_is_skipped(self):
        _g, w = delta_worker()
        w.run_initial_approximation()
        w.subscribe(0, 1)
        w.build_payload(1)
        w.channels[1].pending.add(0)  # queued, but nothing improved
        assert not w.build_payload(1)

    def test_large_delta_falls_back_to_dense(self):
        _g, w = delta_worker()
        w.run_initial_approximation()
        w.subscribe(0, 1)
        w.build_payload(1)
        # improve enough columns that 2k+2 >= n+1
        row = w.dv[w.row_of[0]]
        row[6:] = np.arange(6, dtype=np.float64) * 0.25
        w.channels[1].pending.add(0)
        payload = w.build_payload(1)
        assert 0 in payload.dense
        assert not payload.sparse

    def test_dense_mode_never_emits_sparse(self):
        _g, w = delta_worker(wire_format="dense")
        w.run_initial_approximation()
        w.subscribe(0, 1)
        w.build_payload(1)
        w.dv[w.row_of[0], 9] = 1.5
        w.channels[1].pending.add(0)
        payload = w.build_payload(1)
        assert 0 in payload.dense
        assert not payload.sparse

    def test_baselines_are_per_destination(self):
        g = path_graph(12)
        owner = {v: (0 if v < 6 else 1) for v in range(12)}
        idx = GlobalIndex(g.vertex_list())
        w = Worker(0, 3, idx, DEFAULT_COST)  # ranks 1 and 2 both subscribe
        w.load_subgraph(extract_local_subgraph(g, list(range(6)), owner, 0))
        w.run_initial_approximation()
        w.subscribe(0, 1)
        w.build_payload(1)  # only rank 1 has a baseline
        w.dv[w.row_of[0], 9] = 1.5
        w.channels[1].pending.add(0)
        assert w.build_payload(1).sparse  # rank 1: delta
        w.subscribe(0, 2)
        payload = w.build_payload(2)  # rank 2: first publication
        assert 0 in payload.dense and not payload.sparse

    def test_invalid_wire_format_rejected(self):
        idx = GlobalIndex([0])
        with pytest.raises(WorkerError):
            Worker(0, 2, idx, DEFAULT_COST, wire_format="zip")


class TestReceiveDelta:
    def test_sparse_min_merges_into_stored_row(self):
        _g, w = delta_worker()
        stored = np.full(12, np.inf)
        stored[0] = 3.0
        w.receive_rows(DeltaRows(dense={100: stored.copy()}))
        rows = DeltaRows(
            sparse={
                100: (
                    np.array([0, 5], dtype=np.int64),
                    np.array([5.0, 2.0]),
                )
            }
        )
        w.receive_rows(rows)
        got = w.ext_row(100)
        assert got[0] == 3.0  # min(3, 5): stale delta value loses
        assert got[5] == 2.0
        assert 100 in w._fresh_ext

    def test_sparse_for_unknown_vertex_dropped(self):
        _g, w = delta_worker()
        rows = DeltaRows(
            sparse={77: (np.array([0], dtype=np.int64), np.array([1.0]))}
        )
        w.receive_rows(rows)
        assert w.ext_row(77) is None

    def test_sparse_out_of_range_column_rejected(self):
        _g, w = delta_worker()
        w.receive_rows(DeltaRows(dense={100: np.full(12, np.inf)}))
        rows = DeltaRows(
            sparse={100: (np.array([99], dtype=np.int64), np.array([1.0]))}
        )
        with pytest.raises(WorkerError):
            w.receive_rows(rows)


class TestBaselineInvalidation:
    def _primed(self):
        _g, w = delta_worker()
        w.run_initial_approximation()
        w.subscribe(0, 1)
        w.build_payload(1)
        assert w.channels[1].sent_rows
        return w

    def test_full_repropagate_resets_baselines(self):
        w = self._primed()
        w.request_full_repropagate()
        assert not w.channels[1].sent_rows

    def test_queue_all_boundary_rows_resets_baselines(self):
        w = self._primed()
        w.queue_all_boundary_rows()
        assert not w.channels[1].sent_rows

    def test_reset_channel_resets_baselines(self):
        w = self._primed()
        w.reset_channel(1)
        assert not w.channels[1].sent_rows

    def test_resubscribe_forces_dense(self):
        w = self._primed()
        w.subscribe(0, 1)  # receiver may have dropped its copy
        assert 0 not in w.channels[1].sent_rows
        payload = w.build_payload(1)
        assert 0 in payload.dense

    def test_grow_columns_pads_baselines(self):
        w = self._primed()
        w.index.add(500)
        w.grow_columns(13)
        base = w.channels[1].sent_rows[0]
        assert base.size == 13
        assert base[12] == np.inf

    def test_flush_unacked_drops_baselines(self):
        w = self._primed()
        w.dv[w.row_of[0], 9] = 0.25
        w.channels[1].pending.add(0)
        packets = w.outbound_packets(1, max_retries=3)
        assert packets and packets[0][1].sparse  # delta went in flight
        w.requeue_in_flight()  # delivery never confirmed
        assert 0 not in w.channels[1].sent_rows
        assert 0 in w.channels[1].pending

    def test_retries_are_dense_and_leave_baselines_alone(self):
        w = self._primed()
        w.dv[w.row_of[0], 9] = 0.25
        w.channels[1].pending.add(0)
        first = w.outbound_packets(1, max_retries=3)
        assert first[0][1].sparse
        base_before = w.channels[1].sent_rows[0].copy()
        retry = w.outbound_packets(1, max_retries=3)
        assert retry[0][2] == 2  # the second attempt: a retry
        assert not retry[0][1].sparse  # rebuilt dense from the current DV
        np.testing.assert_array_equal(w.channels[1].sent_rows[0], base_before)
