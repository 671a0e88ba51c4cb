"""Span-folding cost-attribution profiler.

Folds the run > phase > superstep > rank_kernel span tree into
attribution tables answering "where did the modeled clock go?":

* **phases** — modeled seconds per span name with a kernel / comm /
  self split (self = coordinator-side serial work inside the span),
* **ranks** — metered kernel seconds per rank, plus the *charged*
  barrier seconds attributed to the critical (slowest) rank,
* **hot paths** — top-k flattened span paths by modeled seconds,
* **skew** — phases whose wall-clock share diverges from their modeled
  share (annotation only; wall never enters the deterministic tables).

Two folds produce the same :class:`Profile`:

* :func:`fold_events` — offline, from a ``jsonl:PATH`` trace export
  (backs ``repro profile``), and
* :func:`fold_cluster` — live, from a finished cluster's tracer and
  kernel accumulators (backs ``RunResult.profile``).

Folding rules (DESIGN.md §15): tracer phases never nest, so modeled
time partitions exactly into the phase buckets plus the tracer's
unattributed remainder (charges made between phases, e.g. convergence
votes); coverage = attributed / total.  Barrier charges attribute to
the first-slowest rank (deterministic tiebreak), matching the BSP rule
that the slowest worker owns the superstep's critical path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.cluster import Cluster

__all__ = [
    "Profile",
    "fold_cluster",
    "fold_events",
    "profile_to_perfetto",
    "render_profile",
]

#: a phase whose wall share is this many times its modeled share (or
#: 1/this) is flagged as skewed — the cost model disagrees with the host
SKEW_RATIO = 3.0

#: skew is only meaningful for phases that actually matter: both shares
#: must clear this floor before a phase can be flagged
SKEW_MIN_SHARE = 0.01


@dataclass
class Profile:
    """Folded cost-attribution view of one run (modeled clock)."""

    #: total modeled seconds of the run
    total_seconds: float = 0.0
    #: modeled seconds landing in named phase/superstep buckets
    attributed_seconds: float = 0.0
    #: modeled seconds charged outside any phase (votes, bookkeeping)
    unattributed_seconds: float = 0.0
    #: per-phase rows: phase, level, count, modeled/kernel/comm/self
    phases: List[Dict[str, Any]] = field(default_factory=list)
    #: per-rank rows: rank, metered kernel seconds, charged seconds
    ranks: List[Dict[str, Any]] = field(default_factory=list)
    #: top-k hot paths: path, modeled seconds, share of total
    hot: List[Dict[str, Any]] = field(default_factory=list)
    #: wall-vs-modeled skew rows (wall annotation only, never gated)
    skew: List[Dict[str, Any]] = field(default_factory=list)
    #: fold metadata: barrier count, truncated span count, ...
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def coverage(self) -> float:
        """Fraction of modeled time attributed to named buckets."""
        if self.total_seconds <= 0.0:
            return 1.0
        return self.attributed_seconds / self.total_seconds

    def to_dict(self, include_wall: bool = True) -> Dict[str, Any]:
        """JSON-ready dict; drop wall-derived fields for byte pinning."""
        phases = [dict(row) for row in self.phases]
        if not include_wall:
            for row in phases:
                row.pop("wall_seconds", None)
        out: Dict[str, Any] = {
            "total_seconds": self.total_seconds,
            "attributed_seconds": self.attributed_seconds,
            "unattributed_seconds": self.unattributed_seconds,
            "coverage": self.coverage,
            "phases": phases,
            "ranks": [dict(row) for row in self.ranks],
            "hot": [dict(row) for row in self.hot],
            "meta": dict(self.meta),
        }
        if include_wall:
            out["skew"] = [dict(row) for row in self.skew]
        return out


@dataclass
class _Bucket:
    """One phase/superstep attribution bucket while folding."""

    name: str
    level: str
    count: int = 0
    modeled_seconds: float = 0.0
    kernel_seconds: float = 0.0
    comm_seconds: float = 0.0
    wall_seconds: float = 0.0
    truncated: int = 0


def _share(part: float, total: float) -> float:
    return part / total if total > 0.0 else 0.0


def _finish(
    total: float,
    unattributed: float,
    buckets: List[_Bucket],
    metered_by_rank: Dict[int, float],
    charged_by_rank: Dict[int, float],
    *,
    top: int = 10,
    meta: Optional[Dict[str, Any]] = None,
) -> Profile:
    """Assemble a :class:`Profile` from fold accumulators."""
    attributed = sum(b.modeled_seconds for b in buckets)
    if total <= 0.0:
        total = attributed + unattributed
    prof = Profile(
        total_seconds=total,
        attributed_seconds=attributed,
        unattributed_seconds=unattributed,
        meta=dict(meta or {}),
    )
    wall_total = sum(b.wall_seconds for b in buckets)
    for b in buckets:
        self_seconds = max(
            0.0, b.modeled_seconds - b.kernel_seconds - b.comm_seconds
        )
        row: Dict[str, Any] = {
            "phase": b.name,
            "level": b.level,
            "count": b.count,
            "modeled_seconds": b.modeled_seconds,
            "kernel_seconds": b.kernel_seconds,
            "comm_seconds": b.comm_seconds,
            "self_seconds": self_seconds,
            "share": _share(b.modeled_seconds, total),
            "wall_seconds": b.wall_seconds,
        }
        if b.truncated:
            row["truncated"] = b.truncated
        prof.phases.append(row)
    prof.phases.sort(key=lambda r: (-float(r["modeled_seconds"]), str(r["phase"])))
    for rank in sorted(set(metered_by_rank) | set(charged_by_rank)):
        charged = charged_by_rank.get(rank, 0.0)
        prof.ranks.append(
            {
                "rank": rank,
                "metered_seconds": metered_by_rank.get(rank, 0.0),
                "charged_seconds": charged,
                "charged_share": _share(charged, total),
            }
        )
    # hot paths: flattened bucket paths, kernel sub-paths, the gap
    paths: List[Tuple[str, float]] = []
    for b in buckets:
        paths.append((f"run/{b.name}", b.modeled_seconds))
        if b.kernel_seconds > 0.0:
            paths.append((f"run/{b.name}/kernel", b.kernel_seconds))
    if unattributed > 0.0:
        paths.append(("run/(unattributed)", unattributed))
    paths.sort(key=lambda p: (-p[1], p[0]))
    prof.hot = [
        {"path": path, "modeled_seconds": sec, "share": _share(sec, total)}
        for path, sec in paths[: max(0, top)]
    ]
    # wall-vs-modeled skew (annotation only)
    for b in buckets:
        wall_share = _share(b.wall_seconds, wall_total)
        modeled_share = _share(b.modeled_seconds, total)
        if wall_share < SKEW_MIN_SHARE and modeled_share < SKEW_MIN_SHARE:
            continue
        if modeled_share <= 0.0:
            ratio = float("inf") if wall_share > 0.0 else 1.0
        else:
            ratio = wall_share / modeled_share
        if ratio >= SKEW_RATIO or ratio <= 1.0 / SKEW_RATIO:
            prof.skew.append(
                {
                    "phase": b.name,
                    "wall_share": wall_share,
                    "modeled_share": modeled_share,
                    "ratio": ratio,
                }
            )
    prof.skew.sort(key=lambda r: (-float(r["ratio"]), str(r["phase"])))
    return prof


# ----------------------------------------------------------------------
# offline fold: JSONL trace events
# ----------------------------------------------------------------------
def fold_events(events: List[Dict[str, Any]], *, top: int = 10) -> Profile:
    """Fold an exported event stream (dicts, emission order) into a
    :class:`Profile`.

    Degenerate inputs are handled, not rejected: an empty stream yields
    an all-zero profile; spans left open by an aborted run are truncated
    at the last event's timestamp and counted in ``meta.truncated``.
    """
    buckets: Dict[Tuple[str, str], _Bucket] = {}
    #: stack of open phase/superstep spans: (level, name, t_begin)
    open_phase: List[Tuple[str, str, float]] = []
    run_begin: Optional[float] = None
    run_end: Optional[float] = None
    last_t = 0.0
    metered_by_rank: Dict[int, float] = {}
    charged_by_rank: Dict[int, float] = {}
    #: kernel points of the current barrier: (t, step) -> rank -> attrs
    barrier_key: Optional[Tuple[float, Optional[int]]] = None
    barrier_points: List[Dict[str, Any]] = []
    barriers = 0
    truncated = 0

    def bucket(level: str, name: str) -> _Bucket:
        b = buckets.get((level, name))
        if b is None:
            b = buckets[(level, name)] = _Bucket(name=name, level=level)
        return b

    def flush_barrier() -> None:
        """Attribute the completed barrier's max to rank/phase."""
        nonlocal barrier_key, barriers
        if not barrier_points:
            barrier_key = None
            return
        barriers += 1
        best_rank, best_secs = -1, -1.0
        for pt in barrier_points:
            rank = int(pt.get("rank") or 0)
            attrs = pt.get("attrs") or {}
            secs = float(attrs.get("modeled_seconds") or 0.0)
            if secs > 0.0:
                metered_by_rank[rank] = (
                    metered_by_rank.get(rank, 0.0) + secs
                )
            if secs > best_secs:
                best_rank, best_secs = rank, secs
        charged_by_rank[best_rank] = (
            charged_by_rank.get(best_rank, 0.0) + best_secs
        )
        if open_phase:
            level, name, _ = open_phase[-1]
            bucket(level, name).kernel_seconds += best_secs
        barrier_points.clear()
        barrier_key = None

    for ev in events:
        kind = str(ev.get("kind"))
        level = str(ev.get("level"))
        name = str(ev.get("name"))
        t = float(ev.get("t") or 0.0)
        last_t = max(last_t, t)
        if kind == "point" and level == "rank_kernel":
            key = (t, ev.get("step"))
            if barrier_key is not None and key != barrier_key:
                flush_barrier()
            barrier_key = key
            barrier_points.append(ev)
            continue
        if barrier_key is not None:
            flush_barrier()
        if kind == "begin":
            if level == "run":
                run_begin = t
            elif level in ("phase", "superstep"):
                open_phase.append((level, name, t))
        elif kind == "end":
            if level == "run":
                run_end = t
            elif level in ("phase", "superstep"):
                begin_t = t
                for i in range(len(open_phase) - 1, -1, -1):
                    if open_phase[i][:2] == (level, name):
                        begin_t = open_phase.pop(i)[2]
                        break
                b = bucket(level, name)
                b.count += 1
                b.modeled_seconds += t - begin_t
                attrs = ev.get("attrs") or {}
                comm = attrs.get("modeled_comm")
                if isinstance(comm, (int, float)):
                    b.comm_seconds += float(comm)
                wall = ev.get("wall")
                if isinstance(wall, (int, float)):
                    b.wall_seconds += float(wall)
    flush_barrier()
    # spans left open by an aborted run: truncate at the last timestamp
    for level, name, begin_t in open_phase:
        b = bucket(level, name)
        b.count += 1
        b.truncated += 1
        b.modeled_seconds += max(0.0, last_t - begin_t)
        truncated += 1
    ordered = [buckets[key] for key in buckets]
    # event timestamps are the absolute modeled clock (0 at cluster
    # creation), so the final run end IS the total — setup phases that
    # ran before the run span began are inside it, matching fold_cluster
    total = 0.0
    if run_end is not None:
        total = run_end
    elif run_begin is not None:
        total = max(0.0, last_t)
        truncated += 1
    attributed = sum(b.modeled_seconds for b in ordered)
    unattributed = max(0.0, total - attributed) if total > 0.0 else 0.0
    meta = {
        "source": "events",
        "events": len(events),
        "barriers": barriers,
        "truncated_spans": truncated,
    }
    return _finish(
        total,
        unattributed,
        ordered,
        metered_by_rank,
        charged_by_rank,
        top=top,
        meta=meta,
    )


# ----------------------------------------------------------------------
# live fold: finished cluster
# ----------------------------------------------------------------------
def fold_cluster(cluster: "Cluster", *, top: int = 10) -> Profile:
    """Fold a finished cluster's per-phase tracer totals and kernel
    accumulators.

    This is the fold behind ``RunResult.profile`` — no event stream is
    needed, so it works with observers off and costs only bookkeeping:
    the tracer sums each phase as it ends, so the fold is O(phase names),
    not O(records), however long the run or serve session.
    """
    tracer = cluster.tracer
    buckets: Dict[str, _Bucket] = {}
    for name, t in tracer.totals.items():
        buckets[name] = _Bucket(
            name=name,
            level="superstep" if name == "rc_step" else "phase",
            count=t.count,
            modeled_seconds=t.modeled_seconds,
            comm_seconds=t.comm_seconds,
            wall_seconds=t.wall_seconds,
            truncated=t.aborted,
        )
    for name, secs in cluster.kernel_charged_by_phase.items():
        b = buckets.get(name)
        if b is not None:
            b.kernel_seconds += secs
    meta = {
        "source": "cluster",
        "barriers": cluster.kernel_barriers,
        "truncated_spans": sum(b.truncated for b in buckets.values()),
    }
    return _finish(
        tracer.modeled_seconds,
        tracer.unattributed_seconds,
        list(buckets.values()),
        dict(cluster.kernel_metered_by_rank),
        dict(cluster.kernel_charged_by_rank),
        top=top,
        meta=meta,
    )


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def render_profile(prof: Profile, *, include_wall: bool = True) -> str:
    """Human-readable attribution tables (``repro profile`` output)."""
    # deferred: repro.bench imports the engine, which imports repro.obs
    from ..bench.reporting import format_table

    sections: List[str] = []
    sections.append(
        "cost attribution (modeled clock): "
        f"total={prof.total_seconds:.6g}s "
        f"attributed={prof.attributed_seconds:.6g}s "
        f"coverage={prof.coverage:.1%} "
        f"unattributed={prof.unattributed_seconds:.6g}s"
    )
    sections.append("")
    sections.append("phases (self/total split):")
    if prof.phases:
        cols = [
            "phase", "level", "count", "modeled_seconds",
            "kernel_seconds", "comm_seconds", "self_seconds", "share",
        ]
        if include_wall:
            cols.append("wall_seconds")
        rows = [
            {k: row.get(k, 0.0) for k in cols} for row in prof.phases
        ]
        sections.append(format_table(rows, cols))
    else:
        sections.append("(no phase spans)")
    if prof.ranks:
        sections.append("")
        sections.append("ranks (kernel attribution):")
        sections.append(
            format_table(
                prof.ranks,
                ["rank", "metered_seconds", "charged_seconds",
                 "charged_share"],
            )
        )
    if prof.hot:
        sections.append("")
        sections.append(f"hot paths (top {len(prof.hot)}):")
        sections.append(
            format_table(prof.hot, ["path", "modeled_seconds", "share"])
        )
    if include_wall:
        sections.append("")
        sections.append(
            "wall-vs-modeled skew (wall-clock annotation, "
            f"flagged at {SKEW_RATIO:g}x):"
        )
        if prof.skew:
            sections.append(
                format_table(
                    prof.skew,
                    ["phase", "wall_share", "modeled_share", "ratio"],
                )
            )
        else:
            sections.append("(no skewed phases)")
    return "\n".join(sections) + "\n"


def profile_to_perfetto(prof: Profile) -> Dict[str, Any]:
    """Aggregated Chrome trace-event view: one complete slice per phase
    bucket laid end-to-end on the main track, one metered-kernel slice
    per rank, and a coverage counter."""
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "repro profile (aggregated, modeled clock)"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "phases"},
        },
    ]
    cursor = 0.0
    for row in prof.phases:
        dur = float(row["modeled_seconds"])
        events.append(
            {
                "name": str(row["phase"]),
                "cat": str(row["level"]),
                "ph": "X",
                "ts": cursor * 1e6,
                "dur": dur * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {
                    "count": row["count"],
                    "kernel_seconds": row["kernel_seconds"],
                    "comm_seconds": row["comm_seconds"],
                    "self_seconds": row["self_seconds"],
                },
            }
        )
        cursor += dur
    for row in prof.ranks:
        rank = int(row["rank"])
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": rank + 1,
                "args": {"name": f"rank {rank} (metered)"},
            }
        )
        events.append(
            {
                "name": "kernel",
                "cat": "rank_kernel",
                "ph": "X",
                "ts": 0.0,
                "dur": float(row["metered_seconds"]) * 1e6,
                "pid": 0,
                "tid": rank + 1,
                "args": {"charged_seconds": row["charged_seconds"]},
            }
        )
    events.append(
        {
            "name": "coverage",
            "ph": "C",
            "ts": 0.0,
            "pid": 0,
            "tid": 0,
            "args": {"value": prof.coverage},
        }
    )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def dump_profile(prof: Profile, path: str, *, include_wall: bool = True) -> None:
    """Write :meth:`Profile.to_dict` as pretty JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(prof.to_dict(include_wall=include_wall), fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
