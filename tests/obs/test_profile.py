"""The span-folding cost-attribution profiler (`repro.obs.profile`)."""

from __future__ import annotations

import pytest

from repro import AnytimeAnywhereCloseness, AnytimeConfig
from repro.obs import load_events
from repro.obs import profile as profile_mod
from repro.obs.profile import (
    Profile,
    fold_cluster,
    fold_events,
    profile_to_perfetto,
    render_profile,
)
from repro.serve import SizeAdmission, UpdateService, synthesize_churn

from .conftest import run_scenario


def _strip_wall(profile: dict) -> dict:
    """The deterministic part of a profile dict (wall is annotation)."""
    out = dict(profile)
    out.pop("skew", None)
    out["phases"] = [
        {k: v for k, v in row.items() if k != "wall_seconds"}
        for row in profile["phases"]
    ]
    return out


class TestFoldCluster:
    def test_run_result_carries_profile(self):
        result, _ = run_scenario("dynamic")
        prof = result.profile
        assert prof["total_seconds"] == result.modeled_seconds
        assert prof["meta"]["source"] == "cluster"
        phases = {row["phase"] for row in prof["phases"]}
        assert {"domain_decomposition", "initial_approximation",
                "rc_step"} <= phases

    def test_modeled_time_partitions_exactly(self):
        result, _ = run_scenario("dynamic")
        prof = result.profile
        bucketed = sum(r["modeled_seconds"] for r in prof["phases"])
        assert bucketed == pytest.approx(prof["attributed_seconds"])
        assert prof["attributed_seconds"] + prof["unattributed_seconds"] \
            == pytest.approx(prof["total_seconds"])
        # self = modeled - kernel - comm, never negative
        for row in prof["phases"]:
            assert row["self_seconds"] >= 0.0
            assert row["kernel_seconds"] + row["comm_seconds"] \
                <= row["modeled_seconds"] + 1e-12

    def test_attribution_coverage_at_scale(self):
        # the >=95% acceptance criterion targets full-scale dynamic
        # runs; n=240 is the smallest scale that is clearly past the
        # fixed-cost regime where per-step convergence votes dominate
        result, _ = run_scenario("dynamic", n_base=240)
        assert result.profile["coverage"] >= 0.95

    def test_rank_and_tier_charges_are_consistent(self):
        result, engine = run_scenario("dynamic")
        prof = result.profile
        charged_ranks = sum(r["charged_seconds"] for r in prof["ranks"])
        kernel = sum(r["kernel_seconds"] for r in prof["phases"])
        assert charged_ranks == pytest.approx(kernel)
        # metered >= charged per rank in aggregate: the critical rank's
        # time is charged, the others' metered time overlaps it
        metered = sum(r["metered_seconds"] for r in prof["ranks"])
        assert metered >= charged_ranks - 1e-12
        assert prof["meta"]["barriers"] > 0

    def test_profile_is_deterministic_across_backends(self):
        serial, _ = run_scenario("dynamic", backend="serial")
        process, _ = run_scenario("dynamic", backend="process")
        assert _strip_wall(serial.profile) == _strip_wall(process.profile)

    def test_chaos_runs_fold_too(self):
        result, _ = run_scenario("chaos")
        assert result.profile["total_seconds"] == result.modeled_seconds
        assert result.profile["coverage"] > 0.0


def _fold_records(cluster) -> dict:
    """The cluster fold as it was before the tracer kept per-phase totals:
    one pass over every closed record."""
    tracer = cluster.tracer
    buckets = {}
    for rec in tracer.records:
        b = buckets.get(rec.name)
        if b is None:
            level = "superstep" if rec.name == "rc_step" else "phase"
            b = buckets[rec.name] = profile_mod._Bucket(name=rec.name, level=level)
        b.count += 1
        b.modeled_seconds += rec.modeled_total
        b.comm_seconds += rec.modeled_comm
        b.wall_seconds += rec.wall_seconds
        b.truncated += bool(rec.info.get("aborted"))
    for name, secs in cluster.kernel_charged_by_phase.items():
        if name in buckets:
            buckets[name].kernel_seconds += secs
    return profile_mod._finish(
        tracer.modeled_seconds,
        tracer.unattributed_seconds,
        list(buckets.values()),
        dict(cluster.kernel_metered_by_rank),
        dict(cluster.kernel_charged_by_rank),
        top=10,
        meta={
            "source": "cluster",
            "barriers": cluster.kernel_barriers,
            "truncated_spans": sum(b.truncated for b in buckets.values()),
        },
    ).to_dict()


class _Unreadable(list):
    def __iter__(self):
        raise AssertionError("fold_cluster walked the tracer records")


def test_serve_profile_reads_phase_totals_not_records():
    """After a 40-tick serve the cluster fold equals the fold over every
    record, bit for bit, and reads no record: a tick's profile costs the
    same at tick 40 as at tick 1."""
    trace = synthesize_churn("steady-small", n_base=40, ticks=40, seed=1)
    engine = AnytimeAnywhereCloseness(
        trace.base, AnytimeConfig(nprocs=4, collect_snapshots=False)
    )
    service = UpdateService(engine, admission=SizeAdmission(max_events=3))
    per_tick = [[] for _ in range(trace.ticks)]
    for tick, event in trace.events:
        per_tick[tick].append(event)
    for events in per_tick:
        service.feed(events)
        service.step()
    cluster = engine.cluster
    assert len(service.ticks) == 40
    want = _fold_records(cluster)
    cluster.tracer.records = _Unreadable(cluster.tracer.records)
    assert fold_cluster(cluster).to_dict() == want


class TestFoldEvents:
    def test_events_fold_matches_cluster_fold(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        result, _ = run_scenario("dynamic", observers=(f"jsonl:{path}",))
        prof = fold_events(load_events(path))
        live = result.profile
        assert prof.total_seconds == pytest.approx(live["total_seconds"])
        by_name = {row["phase"]: row for row in prof.to_dict()["phases"]}
        for row in live["phases"]:
            got = by_name[row["phase"]]
            assert got["modeled_seconds"] == pytest.approx(
                row["modeled_seconds"]
            )
            assert got["count"] == row["count"]
            # without mitigation, charged == max metered: both folds
            # attribute the same kernel time to each phase
            assert got["kernel_seconds"] == pytest.approx(
                row["kernel_seconds"]
            )
        assert prof.meta["source"] == "events"
        assert prof.meta["barriers"] == live["meta"]["barriers"]

    def test_empty_stream_yields_zero_profile(self):
        prof = fold_events([])
        assert isinstance(prof, Profile)
        assert prof.total_seconds == 0.0
        assert prof.coverage == 1.0
        assert prof.phases == [] and prof.hot == []

    def test_unclosed_spans_truncate_at_last_event(self):
        events = [
            {"kind": "begin", "level": "run", "name": "run", "t": 0.0},
            {"kind": "begin", "level": "phase",
             "name": "domain_decomposition", "t": 0.0},
            {"kind": "end", "level": "phase",
             "name": "domain_decomposition", "t": 1.0, "attrs": {}},
            {"kind": "begin", "level": "superstep", "name": "rc_step",
             "t": 1.0},
            {"kind": "point", "level": "rank_kernel", "name": "kernel",
             "t": 1.5, "step": 0, "rank": 0,
             # kernel points in older traces carry a "tier" attr too
             "attrs": {"modeled_seconds": 0.25, "tier": "numpy"}},
            # run aborts here: rc_step and run never close
        ]
        prof = fold_events(events)
        assert prof.meta["truncated_spans"] == 2  # rc_step + run
        rc = next(r for r in prof.phases if r["phase"] == "rc_step")
        assert rc["truncated"] == 1
        assert rc["modeled_seconds"] == pytest.approx(0.5)  # 1.0 -> 1.5
        assert prof.total_seconds == pytest.approx(1.5)

    def test_top_k_hot_paths(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        run_scenario("dynamic", observers=(f"jsonl:{path}",))
        events = load_events(path)
        prof = fold_events(events, top=2)
        assert len(prof.hot) == 2
        shares = [row["share"] for row in fold_events(events).hot]
        assert shares == sorted(shares, reverse=True)


class TestRendering:
    def test_render_profile_sections(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        run_scenario("dynamic", observers=(f"jsonl:{path}",))
        prof = fold_events(load_events(path))
        text = render_profile(prof)
        assert "cost attribution (modeled clock):" in text
        assert "phases (self/total split):" in text
        assert "ranks (kernel attribution):" in text
        assert "hot paths" in text and "skew" in text
        pinned = render_profile(prof, include_wall=False)
        assert "wall" not in pinned

    def test_render_handles_empty_profile(self):
        text = render_profile(fold_events([]))
        assert "(no phase spans)" in text

    def test_perfetto_view_shape(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        run_scenario("dynamic", observers=(f"jsonl:{path}",))
        prof = fold_events(load_events(path))
        doc = profile_to_perfetto(prof)
        events = doc["traceEvents"]
        slices = [e for e in events if e["ph"] == "X" and e["tid"] == 0]
        assert len(slices) == len(prof.phases)
        # phase slices tile the modeled timeline end-to-end
        assert slices[0]["ts"] == 0.0
        total_us = sum(e["dur"] for e in slices)
        assert total_us == pytest.approx(prof.attributed_seconds * 1e6)
        assert any(e["ph"] == "C" for e in events)  # coverage counter
        rank_tracks = [e for e in events if e["ph"] == "X" and e["tid"] > 0]
        assert len(rank_tracks) == len(prof.ranks)
