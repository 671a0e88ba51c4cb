"""Checkpoint save / restore."""

import pytest

from repro import AnytimeAnywhereCloseness, AnytimeConfig
from repro.bench import community_workload
from repro.centrality import exact_closeness
from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.errors import ConfigurationError
from repro.graph import barabasi_albert
from repro.runtime import check_cluster_invariants


def make_engine(n=80, nprocs=4, seed=1):
    g = barabasi_albert(n, 2, seed=seed)
    engine = AnytimeAnywhereCloseness(
        g, AnytimeConfig(nprocs=nprocs, collect_snapshots=False)
    )
    engine.setup()
    return g, engine


def test_requires_setup(tmp_path):
    g = barabasi_albert(20, 2, seed=0)
    engine = AnytimeAnywhereCloseness(g, AnytimeConfig(nprocs=2))
    with pytest.raises(ConfigurationError):
        save_checkpoint(engine, tmp_path / "c.npz")


def test_roundtrip_converged_state(tmp_path):
    g, engine = make_engine()
    engine.run()
    path = tmp_path / "c.npz"
    save_checkpoint(engine, path)
    restored = load_checkpoint(path)
    check_cluster_invariants(restored.cluster)
    # immediate read matches without any further steps
    exact = exact_closeness(g)
    got = restored.current_closeness()
    for v, c in exact.items():
        assert got[v] == pytest.approx(c, abs=1e-9)
    # resuming converges quickly (only the conservative refresh drains)
    result = restored.run()
    assert result.converged


def test_roundtrip_mid_computation_with_pending_changes(tmp_path):
    wl = community_workload(120, 24, seed=2, inject_step=3)
    engine = AnytimeAnywhereCloseness(
        wl.base, AnytimeConfig(nprocs=4, collect_snapshots=False)
    )
    engine.setup()
    engine.run(
        changes=wl.stream, strategy="cutedge", budget_modeled_seconds=1e-4
    )
    path = tmp_path / "mid.npz"
    save_checkpoint(engine, path)
    restored = load_checkpoint(path)
    result = restored.run(changes=wl.stream, strategy="cutedge")
    assert result.converged
    exact = exact_closeness(wl.final)
    for v, c in exact.items():
        assert result.closeness[v] == pytest.approx(c, abs=1e-9)


def test_clock_survives(tmp_path):
    _g, engine = make_engine()
    engine.run()
    before = engine.modeled_seconds
    path = tmp_path / "c.npz"
    save_checkpoint(engine, path)
    restored = load_checkpoint(path)
    assert restored.modeled_seconds == pytest.approx(before)


def test_nprocs_mismatch_rejected(tmp_path):
    _g, engine = make_engine(nprocs=4)
    path = tmp_path / "c.npz"
    save_checkpoint(engine, path)
    with pytest.raises(ConfigurationError):
        load_checkpoint(path, AnytimeConfig(nprocs=8))


def test_weighted_graph_roundtrip(tmp_path):
    from repro.graph import random_weights

    g = random_weights(barabasi_albert(50, 2, seed=3), 1.0, 9.0, seed=4)
    engine = AnytimeAnywhereCloseness(
        g, AnytimeConfig(nprocs=3, collect_snapshots=False)
    )
    engine.setup()
    engine.run()
    path = tmp_path / "w.npz"
    save_checkpoint(engine, path)
    restored = load_checkpoint(path)
    assert restored.graph == g
    exact = exact_closeness(g)
    got = restored.current_closeness()
    for v, c in exact.items():
        assert got[v] == pytest.approx(c, abs=1e-9)


def test_worker_speeds_survive(tmp_path):
    g = barabasi_albert(60, 2, seed=6)
    engine = AnytimeAnywhereCloseness(
        g,
        AnytimeConfig(
            nprocs=4, worker_speeds=[2.0, 1.0, 1.0, 1.0],
            collect_snapshots=False,
        ),
    )
    engine.setup()
    engine.run()
    path = tmp_path / "het.npz"
    save_checkpoint(engine, path)
    restored = load_checkpoint(path)
    assert [w.speed for w in restored.cluster.workers] == [2.0, 1.0, 1.0, 1.0]


class TestAtomicWrite:
    """save_checkpoint stages via temp file + fsync + atomic rename."""

    def test_successful_save_leaves_no_temp_file(self, tmp_path):
        _g, engine = make_engine(n=40)
        engine.run()
        path = tmp_path / "c.npz"
        save_checkpoint(engine, path)
        assert path.is_file()
        assert not (tmp_path / "c.npz.tmp").exists()

    def test_interrupted_write_preserves_previous_checkpoint(
        self, tmp_path, monkeypatch
    ):
        """A crash mid-write must never corrupt the checkpoint at the
        final path: the previous complete file stays untouched and no
        partial .tmp is left behind."""
        import numpy as np

        from repro.core import checkpoint as cp

        g, engine = make_engine(n=40)
        engine.run()
        path = tmp_path / "c.npz"
        save_checkpoint(engine, path)
        good = path.read_bytes()

        def exploding_savez(fh, **arrays):
            fh.write(b"PK\x03\x04 partial garbage")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez_compressed", exploding_savez)
        with pytest.raises(OSError, match="disk full"):
            cp.save_checkpoint(engine, path)
        monkeypatch.undo()
        # previous complete checkpoint untouched, partial staged file gone
        assert path.read_bytes() == good
        assert not (tmp_path / "c.npz.tmp").exists()
        restored = load_checkpoint(path)
        assert restored.current_closeness() == engine.current_closeness()

    def test_truncated_partial_is_never_picked_up(self, tmp_path):
        """A stray truncated .tmp (crash between write and rename) must
        not shadow the real checkpoint, and loading a truncated file at
        the final path fails loudly rather than yielding garbage."""
        _g, engine = make_engine(n=40)
        engine.run()
        path = tmp_path / "c.npz"
        save_checkpoint(engine, path)
        blob = path.read_bytes()
        # crash-between-write-and-rename leftovers are invisible to load
        (tmp_path / "c.npz.tmp").write_bytes(blob[: len(blob) // 3])
        restored = load_checkpoint(path)
        assert restored.current_closeness() == engine.current_closeness()
        # and a truncated file at the final path is rejected, not read
        trunc = tmp_path / "trunc.npz"
        trunc.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ConfigurationError):
            load_checkpoint(trunc)


class TestFileValidation:
    """Corrupted / foreign / wrong-version checkpoint files."""

    def _minimal_meta_npz(self, path, meta):
        import json

        import numpy as np

        arrays = {
            "meta_json": np.frombuffer(
                json.dumps(meta).encode("utf-8"), dtype=np.uint8
            )
        }
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **arrays)

    def test_garbage_bytes_rejected(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"\x00\x01definitely not a zip archive\xff" * 20)
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        _g, engine = make_engine(n=40)
        engine.run()
        path = tmp_path / "full.npz"
        save_checkpoint(engine, path)
        blob = path.read_bytes()
        trunc = tmp_path / "trunc.npz"
        trunc.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ConfigurationError):
            load_checkpoint(trunc)

    def test_foreign_npz_rejected(self, tmp_path):
        import numpy as np

        path = tmp_path / "foreign.npz"
        with open(path, "wb") as fh:
            np.savez_compressed(fh, weights=np.arange(10.0))
        with pytest.raises(ConfigurationError, match="no meta_json"):
            load_checkpoint(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "old.npz"
        self._minimal_meta_npz(path, {"version": 999, "nprocs": 2})
        with pytest.raises(ConfigurationError, match="version"):
            load_checkpoint(path)

    def test_corrupted_metadata_rejected(self, tmp_path):
        import numpy as np

        path = tmp_path / "badmeta.npz"
        arrays = {
            "meta_json": np.frombuffer(b"{not json!", dtype=np.uint8)
        }
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        with pytest.raises(ConfigurationError, match="metadata"):
            load_checkpoint(path)

    def test_missing_arrays_rejected(self, tmp_path):
        path = tmp_path / "sparse.npz"
        self._minimal_meta_npz(
            path, {"version": 1, "nprocs": 2}
        )
        with pytest.raises(ConfigurationError, match="missing arrays"):
            load_checkpoint(path)

    def test_invalid_nprocs_rejected(self, tmp_path):
        path = tmp_path / "badnprocs.npz"
        self._minimal_meta_npz(path, {"version": 1, "nprocs": "four"})
        with pytest.raises(ConfigurationError, match="nprocs"):
            load_checkpoint(path)

    def test_index_vertex_mismatch_rejected(self, tmp_path):
        import numpy as np

        _g, engine = make_engine(n=30)
        engine.run()
        path = tmp_path / "tampered.npz"
        save_checkpoint(engine, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["index_ids"] = arrays["index_ids"][:-1]  # drop one column id
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        with pytest.raises(ConfigurationError, match="column index"):
            load_checkpoint(path)


def test_restored_engine_traces_supersteps(tmp_path):
    """A restored engine's cluster reports to the engine's observers."""
    import json

    import validate_trace  # tools/ is on sys.path via tests/conftest.py

    _, engine = make_engine()
    save_checkpoint(engine, tmp_path / "c.npz")
    trace = tmp_path / "t.jsonl"
    config = AnytimeConfig(
        nprocs=4, collect_snapshots=False, observers=(f"jsonl:{trace}",)
    )
    with load_checkpoint(tmp_path / "c.npz", config) as restored:
        steps = restored.run().rc_steps
    assert steps > 0 and validate_trace.validate_trace_file(trace) == []
    seen = [
        (ev["kind"], ev["kind"] == "metric" or ev["name"], ev["rank"])
        for ev in map(json.loads, trace.read_text().splitlines())
    ]
    for kind in ("begin", "end"):
        assert seen.count((kind, "rc_step", None)) == steps
    for rank in range(4):
        assert seen.count(("point", "kernel", rank)) == steps
    assert ("metric", True, None) in seen
