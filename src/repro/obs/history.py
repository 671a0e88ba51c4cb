"""The benchmark regression ledger: normalized append-only history.

``benchmarks/history/`` holds one JSONL file per benchmark; every line
is one :class:`BenchRecord` — a single ``(bench, case, metric)``
measurement.  Bench reports (the ``BENCH_*.json`` blobs the bench
scripts already write) are flattened into records by
:func:`records_from_report`, appended by ``tools/bench_history.py``,
and judged against the committed baseline by ``tools/bench_diff.py``.

Gating: metrics whose name contains a *gated substring* (default
``"modeled"``) are regression-gated — modeled-time figures are
deterministic, so any increase beyond the threshold is a real
performance regression, not noise.  Wall-clock figures ride along as
informational context and are never gated.

Determinism: record identity (bench/case/metric/value/unit/context) is
a pure function of the bench report; the ``created`` stamp is an
annotation added by the tools layer (this module never reads a clock)
and is ignored by comparisons.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

__all__ = [
    "SCHEMA_VERSION",
    "BenchRecord",
    "RecordKey",
    "DiffRow",
    "BenchDiff",
    "append_records",
    "diff_records",
    "latest_by_key",
    "load_records",
    "records_from_report",
    "records_from_rows",
    "render_diff",
]

#: bump when the record field set changes incompatibly
SCHEMA_VERSION = 1

#: (bench, case, metric, sorted context items) — the ledger identity
RecordKey = Tuple[str, str, str, Tuple[Tuple[str, str], ...]]

#: metric-name substrings selecting the regression-gated figures
DEFAULT_GATED_SUBSTRINGS = ("modeled",)

#: relative increase on a gated metric that fails the diff
DEFAULT_THRESHOLD = 0.05

#: list-item keys promoted into the case path when flattening reports
_CASE_KEYS = ("name", "case", "backend", "strategy", "shape", "label")

#: report keys that are bookkeeping, not measurements
_SKIP_KEYS = frozenset({"bench", "pass", "failures", "schema_version"})


@dataclass(frozen=True)
class BenchRecord:
    """One measurement of one benchmark case."""

    #: benchmark name (``BENCH_<bench>.json`` / history file stem)
    bench: str
    #: case path inside the bench report (dotted; "" for top-level)
    case: str
    #: metric name (the numeric leaf's key)
    metric: str
    value: float
    #: optional unit annotation ("seconds", "ratio", "count", ...)
    unit: str = ""
    #: string context labels (scale, backend, host class, ...)
    context: Mapping[str, str] = field(default_factory=dict)
    #: ISO-8601 stamp added by the tools layer (annotation only)
    created: Optional[str] = None
    schema_version: int = SCHEMA_VERSION

    @property
    def key(self) -> Tuple[str, str, str, Tuple[Tuple[str, str], ...]]:
        """The identity compared across runs.

        Context labels are part of the identity so one ledger can hold
        the same metric at several scales (CI smoke vs full runs)
        without the two overwriting each other.
        """
        return (
            self.bench,
            self.case,
            self.metric,
            tuple(sorted(self.context.items())),
        )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "schema_version": self.schema_version,
            "bench": self.bench,
            "case": self.case,
            "metric": self.metric,
            "value": self.value,
        }
        if self.unit:
            out["unit"] = self.unit
        if self.context:
            out["context"] = {k: self.context[k] for k in sorted(self.context)}
        if self.created is not None:
            out["created"] = self.created
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_dict(raw: Mapping[str, Any]) -> "BenchRecord":
        return BenchRecord(
            bench=str(raw["bench"]),
            case=str(raw.get("case", "")),
            metric=str(raw["metric"]),
            value=float(raw["value"]),
            unit=str(raw.get("unit", "")),
            context={
                str(k): str(v)
                for k, v in (raw.get("context") or {}).items()
            },
            created=(
                str(raw["created"]) if raw.get("created") is not None
                else None
            ),
            schema_version=int(raw.get("schema_version", SCHEMA_VERSION)),
        )


def _guess_unit(metric: str) -> str:
    lower = metric.lower()
    if "seconds" in lower or lower.endswith("_s"):
        return "seconds"
    if any(tok in lower for tok in ("ratio", "rate", "fraction", "overhead",
                                    "speedup", "share")):
        return "ratio"
    if any(tok in lower for tok in ("words", "rows", "count", "steps",
                                    "ticks", "events", "vertices", "edges")):
        return "count"
    return ""


def _case_segment(item: Mapping[str, Any], index: int) -> str:
    parts = [
        str(item[k]) for k in _CASE_KEYS
        if isinstance(item.get(k), (str, int)) and str(item[k]) != ""
    ]
    return "=".join(parts) if parts else str(index)


def _flatten(
    obj: Any, case: str, out: List[Tuple[str, str, float]]
) -> None:
    """Collect ``(case, metric, value)`` triples from a report node."""
    if isinstance(obj, Mapping):
        for key in sorted(obj):
            if case == "" and key in _SKIP_KEYS:
                continue
            value = obj[key]
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                out.append((case, str(key), float(value)))
            elif isinstance(value, (Mapping, list)):
                sub = f"{case}.{key}" if case else str(key)
                _flatten(value, sub, out)
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            if isinstance(item, Mapping):
                seg = _case_segment(item, i)
                sub = f"{case}[{seg}]" if case else f"[{seg}]"
                _flatten(item, sub, out)


def records_from_report(
    report: Mapping[str, Any],
    *,
    bench: Optional[str] = None,
    context: Optional[Mapping[str, str]] = None,
    created: Optional[str] = None,
) -> List[BenchRecord]:
    """Flatten one ``BENCH_*.json`` report into normalized records.

    Every numeric leaf becomes one record; the dotted path to the leaf
    is the case, with list items labeled by their identifying keys
    (``name`` / ``backend`` / ``strategy`` / ...).  Booleans and the
    bookkeeping keys (``bench``/``pass``/``failures``) are skipped.
    """
    name = bench or str(report.get("bench", "unknown"))
    triples: List[Tuple[str, str, float]] = []
    _flatten(report, "", triples)
    ctx: Dict[str, str] = {}
    if "smoke" in report:
        # scale is part of the ledger identity: smoke-scale CI runs and
        # full-scale runs of the same bench never judge each other
        ctx["scale"] = "smoke" if report.get("smoke") else "full"
    ctx.update(context or {})
    return [
        BenchRecord(
            bench=name,
            case=case,
            metric=metric,
            value=value,
            unit=_guess_unit(metric),
            context=ctx,
            created=created,
        )
        for case, metric, value in triples
    ]


def records_from_rows(
    bench: str,
    rows: Iterable[Mapping[str, Any]],
    *,
    context: Optional[Mapping[str, str]] = None,
    created: Optional[str] = None,
) -> List[BenchRecord]:
    """Normalize pytest-bench table rows (list of flat dicts).

    Non-numeric cells of a row form its case label; numeric cells
    become one record each.
    """
    out: List[BenchRecord] = []
    ctx = dict(context or {})
    for i, row in enumerate(rows):
        labels = [
            f"{k}={row[k]}" for k in sorted(row)
            if isinstance(row[k], str) and row[k] != ""
        ]
        case = ",".join(labels) if labels else str(i)
        for key in sorted(row):
            value = row[key]
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                continue
            out.append(
                BenchRecord(
                    bench=bench,
                    case=case,
                    metric=str(key),
                    value=float(value),
                    unit=_guess_unit(str(key)),
                    context=ctx,
                    created=created,
                )
            )
    return out


# ----------------------------------------------------------------------
# ledger IO
# ----------------------------------------------------------------------
def append_records(
    path: Union[str, Path], records: Iterable[BenchRecord]
) -> int:
    """Append records to a ledger file (created, with parents, if new)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with open(target, "a", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec.to_json())
            fh.write("\n")
            count += 1
    return count


def load_records(path: Union[str, Path]) -> List[BenchRecord]:
    """Load every record of one ledger file (skipping blank lines)."""
    out: List[BenchRecord] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(BenchRecord.from_dict(json.loads(line)))
    return out


def latest_by_key(
    records: Iterable[BenchRecord],
) -> Dict[RecordKey, BenchRecord]:
    """Newest record per :attr:`BenchRecord.key` — files are
    append-only, so the last occurrence wins."""
    out: Dict[RecordKey, BenchRecord] = {}
    for rec in records:
        out[rec.key] = rec
    return out


# ----------------------------------------------------------------------
# diffing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DiffRow:
    """One compared metric: baseline vs current."""

    bench: str
    case: str
    metric: str
    base: float
    new: float
    #: (new - base) / |base|; inf when base == 0 and new != 0
    delta: float
    #: is this metric regression-gated (a modeled-time figure)?
    gated: bool
    #: gated and worsened beyond the threshold
    regressed: bool


@dataclass
class BenchDiff:
    """Outcome of one baseline comparison."""

    rows: List[DiffRow] = field(default_factory=list)
    #: baseline keys with no current measurement (informational)
    missing: List[RecordKey] = field(default_factory=list)
    #: current keys absent from the baseline (new coverage)
    added: List[RecordKey] = field(default_factory=list)
    threshold: float = DEFAULT_THRESHOLD

    @property
    def regressions(self) -> List[DiffRow]:
        return [r for r in self.rows if r.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions


def diff_records(
    baseline: Iterable[BenchRecord],
    current: Iterable[BenchRecord],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    gated_substrings: Tuple[str, ...] = DEFAULT_GATED_SUBSTRINGS,
) -> BenchDiff:
    """Compare the newest current records against the baseline.

    A gated metric regresses when it *increases* by more than
    ``threshold`` relative to the baseline (modeled figures are costs:
    more is worse).  Ungated metrics are reported but never fail.
    """
    base_map = latest_by_key(baseline)
    cur_map = latest_by_key(current)
    out = BenchDiff(threshold=threshold)
    for key in sorted(base_map):
        base = base_map[key]
        cur = cur_map.get(key)
        if cur is None:
            out.missing.append(key)
            continue
        if base.value == 0.0:
            delta = 0.0 if cur.value == 0.0 else float("inf")
        else:
            delta = (cur.value - base.value) / abs(base.value)
        gated = any(sub in base.metric.lower() for sub in gated_substrings)
        regressed = gated and delta > threshold
        out.rows.append(
            DiffRow(
                bench=base.bench,
                case=base.case,
                metric=base.metric,
                base=base.value,
                new=cur.value,
                delta=delta,
                gated=gated,
                regressed=regressed,
            )
        )
    for key in sorted(set(cur_map) - set(base_map)):
        out.added.append(key)
    return out


def render_diff(diff: BenchDiff, *, show_all: bool = False) -> str:
    """Human-readable diff summary (``tools/bench_diff.py`` output)."""
    lines: List[str] = []
    shown = [
        r for r in diff.rows
        if show_all or r.regressed or (r.gated and abs(r.delta) > 0.0)
    ]
    if shown:
        lines.append(
            f"{'bench':<22} {'case':<34} {'metric':<32}"
            f" {'base':>12} {'new':>12} {'delta':>9} flag"
        )
        for r in shown:
            flag = "REGRESSED" if r.regressed else (
                "gated" if r.gated else ""
            )
            delta = (
                "inf" if r.delta == float("inf") else f"{r.delta:+.1%}"
            )
            lines.append(
                f"{r.bench:<22} {r.case[:34]:<34} {r.metric[:32]:<32}"
                f" {r.base:>12.6g} {r.new:>12.6g} {delta:>9} {flag}"
            )
    lines.append(
        f"compared {len(diff.rows)} metrics"
        f" ({sum(1 for r in diff.rows if r.gated)} gated,"
        f" threshold {diff.threshold:.0%}):"
        f" {len(diff.regressions)} regression(s),"
        f" {len(diff.missing)} missing, {len(diff.added)} new"
    )
    if diff.regressions:
        lines.append("FAIL: gated modeled-time metrics regressed")
    else:
        lines.append("OK: no gated regressions")
    return "\n".join(lines) + "\n"
