"""Execution backends: process must be bitwise-identical to serial.

The process backend runs the exact kernel functions serial runs, one
rank per pool slot, merging outcomes in rank order — so closeness bits,
the trace event sequence, the modeled clock, and the wire/fault
accounting must all match exactly, on static and dynamic runs and under
a seeded fault plan.  Also covers the shared-memory allocator and the
backend factory.
"""

from __future__ import annotations

import pickle
import re

import numpy as np
import pytest

import repro
from repro import AnytimeAnywhereCloseness, AnytimeConfig
from repro.errors import ConfigurationError
from repro.graph import barabasi_albert
from repro.runtime import (
    RECOVERY_POLICIES,
    ProcessBackend,
    SerialBackend,
    available_backends,
    make_backend,
)
from repro.runtime.backends.base import ExecutionBackend
from repro.runtime.shm import ArrayAllocator, SharedMemoryAllocator

from ..test_harness import FIXED, STATIC, bits, run


def _same_on_both(s):
    assert run(s, "serial", "delta", None).pin == run(s, "process", "delta", None).pin


class TestProcessMatchesSerial:
    """Acceptance criterion: bitwise identity across backends — the
    harness's ``serial`` ≡ ``process`` twin (closeness bits, ``rc_steps``,
    hex clock, summary, fault log, modeled trace) on the BA(70, 2, 7)
    input: static, dynamic (``fault-free-batch``) and under a crash,
    loss, duplication and send failures (``faulty-batch``)."""

    def test_static_run_identical(self):
        _same_on_both(STATIC)

    def test_dynamic_run_identical(self):
        _same_on_both(FIXED["fault-free-batch"])

    def test_faulty_run_identical(self):
        _same_on_both(FIXED["faulty-batch"])

    def test_one_shot_api_accepts_backend(self):
        g = barabasi_albert(60, 2, seed=3)
        results = {}
        for backend in available_backends():
            cfg = AnytimeConfig(
                nprocs=3, seed=3, collect_snapshots=False, backend=backend
            )
            results[backend] = repro.closeness(g.copy(), config=cfg)
        assert bits(results["serial"].closeness) == bits(
            results["process"].closeness
        )


class TestTasksShipSlots:
    """The pool ships store slots, never received rows."""

    def test_prepared_task_holds_no_float_row(self):
        g = barabasi_albert(300, 2, seed=7)
        engine = AnytimeAnywhereCloseness(
            g, AnytimeConfig(nprocs=4, seed=7, collect_snapshots=False)
        )
        with engine:
            engine.setup()
            engine.cluster.exchange_boundary()
            for w in engine.cluster.workers:
                task = w.superstep_prepare()
                items = task.relax_items
                assert len(items) >= 2
                assert all(type(slot) is int for slot, _pairs in items)
                # one stored row alone is 8 * n_cols bytes; the task holds
                # slots, pairs, one bool per column and the local CSR
                assert len(pickle.dumps(task)) < 8 * w.n_cols * len(items) // 4

    def test_relaxing_a_stored_row_marked_fresh_by_add_cut_edge(self):
        """The superstep's only work is relaxing a row already in the
        store: the pool must not take it for an empty task."""

        def outcome(backend: str):
            g = barabasi_albert(70, 2, seed=7)
            engine = AnytimeAnywhereCloseness(
                g,
                AnytimeConfig(
                    nprocs=4, seed=7, collect_snapshots=False, backend=backend
                ),
            )
            with engine:
                engine.setup()
                engine.run()
                cluster = engine.cluster
                assert not any(w.has_pending() for w in cluster.workers)
                w = cluster.workers[1]
                x = min(w.ext_store.slot_of)
                u = next(u for u in w.owned if x not in w.cut_adj.get(u, {}))
                w.add_cut_edge(u, x, 0.5)
                assert w.has_pending()
                improved = cluster.relax_and_propagate()
                return (
                    improved,
                    [wk.dv.tobytes() for wk in cluster.workers],
                    cluster.tracer.modeled_seconds.hex(),
                )

        serial = outcome("serial")
        assert serial[0]
        assert serial == outcome("process")


class TestBackendFactory:
    def test_available_backends(self):
        assert available_backends() == ("serial", "process")

    def test_make_backend_by_name(self):
        assert isinstance(make_backend("serial", 4), SerialBackend)
        assert isinstance(make_backend("process", 4), ProcessBackend)

    def test_make_backend_passthrough(self):
        backend = SerialBackend()
        assert make_backend(backend, 4) is backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            make_backend("threads", 4)

    def test_config_validates_backend(self):
        with pytest.raises(ConfigurationError):
            AnytimeConfig(backend="threads")

    def test_config_reads_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        assert AnytimeConfig().backend == "process"
        monkeypatch.delenv("REPRO_BACKEND")
        assert AnytimeConfig().backend == "serial"

    def test_config_names_match_the_registries(self):
        """config.py repeats the accepted names as literals (it imports
        without the runtime package); they may not drift."""
        from repro.core.config import _RECOVERY_POLICIES

        assert _RECOVERY_POLICIES == RECOVERY_POLICIES
        for name in available_backends():
            AnytimeConfig(backend=name)
        with pytest.raises(ConfigurationError) as exc:
            AnytimeConfig(backend="numba")
        names = tuple(re.findall(r"'(\w+)'", str(exc.value)))[:-1]
        assert names == available_backends()

    def test_kernel_tier_field_runs_the_one_kernel_set(self):
        """``kernel_tier`` is accepted as "numpy" or "scipy" and changes
        nothing; any other name is still a configuration error."""
        scipy = run(STATIC, "serial", "delta", None, kernel_tier="scipy")
        assert scipy.pin == run(STATIC, "serial", "delta", None).pin
        with pytest.raises(ConfigurationError):
            AnytimeConfig(kernel_tier="numba")

    def test_backend_is_abstract(self):
        with pytest.raises(TypeError):
            ExecutionBackend()  # type: ignore[abstract]


class TestSharedMemoryAllocator:
    def test_empty_is_shared_and_described(self):
        alloc = SharedMemoryAllocator()
        arr = alloc.empty((3, 5))
        assert alloc.owns(arr)
        name, shape = alloc.descriptor(arr)
        assert shape == (3, 5)
        assert isinstance(name, str) and name
        alloc.release_all()

    def test_adopt_copies_foreign_arrays(self):
        alloc = SharedMemoryAllocator()
        src = np.arange(6, dtype=np.float64).reshape(2, 3)
        owned = alloc.adopt(src, None)
        assert owned is not src
        assert alloc.owns(owned)
        np.testing.assert_array_equal(owned, src)
        alloc.release_all()

    def test_adopt_releases_replaced_block(self):
        alloc = SharedMemoryAllocator()
        first = alloc.empty((2, 2))
        second = alloc.adopt(np.zeros((4, 4)), first)
        assert not alloc.owns(first)
        assert alloc.owns(second)
        alloc.release_all()

    def test_adopt_keeps_own_array(self):
        alloc = SharedMemoryAllocator()
        arr = alloc.empty((2, 2))
        assert alloc.adopt(arr, arr) is arr
        assert alloc.owns(arr)
        alloc.release_all()

    def test_descriptor_rejects_foreign_array(self):
        alloc = SharedMemoryAllocator()
        with pytest.raises(TypeError):
            alloc.descriptor(np.zeros((2, 2)))

    def test_zero_size_arrays_supported(self):
        # dv/local_apsp start as (0, 0); shm segments cannot be 0 bytes
        alloc = SharedMemoryAllocator()
        arr = alloc.empty((0, 0))
        assert arr.shape == (0, 0)
        alloc.release_all()

    def test_plain_allocator_is_passthrough(self):
        alloc = ArrayAllocator()
        src = np.zeros((2, 2))
        assert alloc.adopt(src, None) is src
        assert not alloc.shared
        with pytest.raises(TypeError):
            alloc.descriptor(src)
