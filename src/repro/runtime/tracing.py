"""Execution tracing and time accounting for the simulated cluster.

The tracer records one :class:`PhaseRecord` per pipeline phase / RC step and
accumulates the two clocks the benchmarks report:

* **modeled time** — LogP communication time + cost-model compute time,
  where each synchronized step costs ``max_p(compute_p) + comm``; this is
  the clock that reproduces the paper's figures, and
* **wall time** — actual Python execution time, reported for transparency.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..obs.events import AttrValue
from ..obs.observer import NULL_HUB, ObserverHub

__all__ = ["PhaseRecord", "PhaseTotals", "Tracer"]


def _span_level(name: str) -> str:
    """Map a tracer phase name onto the span hierarchy: RC steps are
    ``superstep`` spans, every other phase is a ``phase`` span."""
    return "superstep" if name == "rc_step" else "phase"


@dataclass
class PhaseRecord:
    """Timing/volume record for one phase or RC step."""

    name: str
    step: Optional[int] = None
    modeled_compute: float = 0.0
    modeled_comm: float = 0.0
    messages: int = 0
    words: int = 0
    wall_seconds: float = 0.0
    info: Dict[str, float] = field(default_factory=dict)

    @property
    def modeled_total(self) -> float:
        return self.modeled_compute + self.modeled_comm


@dataclass
class PhaseTotals:
    """The running sums of one phase name's closed records, added in
    record order (so bitwise the sums over :attr:`Tracer.records`)."""

    count: int = 0
    modeled_seconds: float = 0.0
    comm_seconds: float = 0.0
    wall_seconds: float = 0.0
    #: records closed by :meth:`Tracer.abort`
    aborted: int = 0


class Tracer:
    """Collects phase records and aggregates the cluster clocks."""

    def __init__(self, hub: Optional[ObserverHub] = None) -> None:
        self.records: List[PhaseRecord] = []
        #: per phase name, in order of first appearance: the totals of its
        #: closed records, folded as each one ends
        self.totals: Dict[str, PhaseTotals] = {}
        self.modeled_seconds = 0.0
        self.wall_seconds = 0.0
        self.total_messages = 0
        self.total_words = 0
        #: modeled seconds charged outside any open phase (convergence
        #: votes between RC steps etc.) — the profiler's coverage gap
        self.unattributed_seconds = 0.0
        self._open: Optional[PhaseRecord] = None
        self._open_wall_start = 0.0
        #: observability hub phase spans are emitted to (disabled default)
        self.hub = hub if hub is not None else NULL_HUB

    # ------------------------------------------------------------------
    def now(self) -> float:
        """The modeled clock *including* the open phase's running charge.

        This is the deterministic timestamp span events are keyed on.
        """
        if self._open is not None:
            return self.modeled_seconds + self._open.modeled_total
        return self.modeled_seconds

    # ------------------------------------------------------------------
    def begin(self, name: str, step: Optional[int] = None) -> PhaseRecord:
        """Open a phase record.

        Nested phases are rejected: opening a phase while another is
        open raises ``RuntimeError`` (an auto-close here would silently
        misattribute the first record's wall time).  Exception paths
        that must leave the tracer reusable call :meth:`abort` instead.
        """
        if self._open is not None:
            raise RuntimeError(f"phase {self._open.name!r} is still open")
        rec = PhaseRecord(name=name, step=step)
        self._open = rec
        self._open_wall_start = time.perf_counter()
        if self.hub.enabled:
            self.hub.span_begin(
                _span_level(name), name, self.modeled_seconds, step=step
            )
        return rec

    def add_compute(self, seconds: float) -> None:
        """Add modeled compute time (already max-reduced by the caller).

        Outside any open phase the charge lands directly on the totals
        (e.g. convergence votes between RC steps).
        """
        if self._open is None:
            self.modeled_seconds += seconds
            self.unattributed_seconds += seconds
        else:
            self._open.modeled_compute += seconds

    def add_comm(self, seconds: float, messages: int = 0, words: int = 0) -> None:
        if self._open is None:
            self.modeled_seconds += seconds
            self.unattributed_seconds += seconds
            self.total_messages += messages
            self.total_words += words
        else:
            self._open.modeled_comm += seconds
            self._open.messages += messages
            self._open.words += words

    def note(self, key: str, value: float) -> None:
        if self._open is not None:
            self._open.info[key] = value

    def end(self) -> PhaseRecord:
        rec = self._require_open()
        rec.wall_seconds = time.perf_counter() - self._open_wall_start
        self.records.append(rec)
        totals = self.totals.get(rec.name)
        if totals is None:
            totals = self.totals[rec.name] = PhaseTotals()
        totals.count += 1
        totals.modeled_seconds += rec.modeled_total
        totals.comm_seconds += rec.modeled_comm
        totals.wall_seconds += rec.wall_seconds
        if rec.info.get("aborted"):
            totals.aborted += 1
        self.modeled_seconds += rec.modeled_total
        self.wall_seconds += rec.wall_seconds
        self.total_messages += rec.messages
        self.total_words += rec.words
        self._open = None
        if self.hub.enabled:
            attrs: Dict[str, AttrValue] = {
                "modeled_compute": rec.modeled_compute,
                "modeled_comm": rec.modeled_comm,
                "messages": rec.messages,
                "words": rec.words,
            }
            attrs.update(rec.info)
            self.hub.span_end(
                _span_level(rec.name),
                rec.name,
                self.modeled_seconds,
                step=rec.step,
                attrs=attrs,
                wall=rec.wall_seconds,
            )
        return rec

    def abort(self) -> Optional[PhaseRecord]:
        """Close the open phase (if any) on an exception path.

        The partial charge is kept — the modeled work *did* happen — and
        the record (and its span-end event) is marked ``aborted`` so the
        exported span tree stays balanced.  No-op when no phase is open.
        """
        if self._open is None:
            return None
        self._open.info["aborted"] = 1.0
        return self.end()

    def _require_open(self) -> PhaseRecord:
        if self._open is None:
            raise RuntimeError("no open phase")
        return self._open

    # ------------------------------------------------------------------
    def phases(self, name: str) -> List[PhaseRecord]:
        """All closed records of one phase name (e.g. ``"fault_recovery"``)."""
        return [r for r in self.records if r.name == name]

    def by_phase(self) -> Dict[str, float]:
        """Total modeled seconds per phase name."""
        return {name: t.modeled_seconds for name, t in self.totals.items()}

    def summary(self) -> Dict[str, float]:
        return {
            "modeled_seconds": self.modeled_seconds,
            "wall_seconds": self.wall_seconds,
            "messages": float(self.total_messages),
            "words": float(self.total_words),
            "phases": float(len(self.records)),
        }

    def to_json(self) -> Dict[str, Any]:
        """A JSON-serializable dump of the full trace (for plotting)."""
        return {
            "summary": self.summary(),
            "records": [
                {
                    "name": r.name,
                    "step": r.step,
                    "modeled_compute": r.modeled_compute,
                    "modeled_comm": r.modeled_comm,
                    "messages": r.messages,
                    "words": r.words,
                    "wall_seconds": r.wall_seconds,
                    "info": dict(r.info),
                }
                for r in self.records
            ],
        }

    def save(self, path: Union[str, Path]) -> None:
        """Write :meth:`to_json` to ``path``."""
        import json

        Path(path).write_text(
            json.dumps(self.to_json(), indent=2), encoding="utf-8"
        )
