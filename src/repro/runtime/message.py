"""What simulated workers put on the wire, and what it costs.

Payloads are NumPy rows of distance values; the network only *prices* them
(LogP model), delivery itself is an in-process handoff.

Wire pricing is unified here: every send site charges through
:func:`dense_row_words` / :func:`delta_row_words` (directly or via
:meth:`DeltaRows.words` / :func:`dv_payload_words`), so the dense and
delta formats are priced by one formula each.

Two boundary-row wire formats exist (``AnytimeConfig.wire_format``):

* **dense** — a full row of ``n_cols`` values plus a 1-word vertex-id
  header: ``n_cols + 1`` words.
* **delta** — only the ``k`` columns that improved since the last send:
  a vertex-id header, a column count, and ``k`` (index, value) pairs:
  ``2k + 2`` words.  Senders fall back to dense whenever the delta would
  not be strictly cheaper (roughly ``k >= n_cols / 2``), and always send
  dense on first publication and after any event that invalidates the
  per-channel baseline (crash, re-subscription, full refresh).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from ..types import FloatArray, IntArray, VertexId

__all__ = [
    "DeltaRows",
    "dense_row_words",
    "delta_row_words",
    "dv_payload_words",
]


def dense_row_words(n_cols: int) -> int:
    """Wire words for one dense DV row: the values + a vertex-id header."""
    return n_cols + 1


def delta_row_words(n_entries: int) -> int:
    """Wire words for one sparse delta row.

    A vertex-id header, an entry count, and an (index, value) pair per
    improved column.
    """
    return 2 * n_entries + 2


def dv_payload_words(n_rows: int, n_cols: int) -> int:
    """Wire words for ``n_rows`` dense DV rows of ``n_cols`` entries each."""
    return n_rows * dense_row_words(n_cols)


@dataclass
class DeltaRows:
    """A boundary-exchange payload mixing dense and delta-encoded rows.

    ``dense`` maps a vertex id to its full DV row (sent on first
    publication, after channel resets, and when a delta would not be
    cheaper); ``sparse`` maps a vertex id to the ``(col_indices, values)``
    of the columns that improved since the last send on this channel.

    A dense row is a view of the sender's ``dv``, not a copy: a boundary
    exchange delivers every packet before any ``dv`` changes, and the
    receiver copies what it keeps into its external-row store.
    """

    dense: Dict[VertexId, FloatArray] = field(default_factory=dict)
    sparse: Dict[VertexId, Tuple[IntArray, FloatArray]] = field(
        default_factory=dict
    )

    def __len__(self) -> int:
        return len(self.dense) + len(self.sparse)

    def __bool__(self) -> bool:
        return bool(self.dense) or bool(self.sparse)

    def __contains__(self, v: VertexId) -> bool:
        return v in self.dense or v in self.sparse

    def __iter__(self) -> Iterator[VertexId]:
        return iter(self.vertices())

    def __getitem__(self, v: VertexId) -> FloatArray:
        """The full row for a densely-encoded vertex (KeyError for sparse)."""
        return self.dense[v]

    def vertices(self) -> List[VertexId]:
        """All vertex ids carried by this payload, sorted."""
        return sorted([*self.dense, *self.sparse])

    def words(self) -> int:
        """Wire words for this payload under the unified pricing."""
        words = 0
        for row in self.dense.values():
            words += dense_row_words(row.size)
        for cols, _vals in self.sparse.values():
            words += delta_row_words(cols.size)
        return words
