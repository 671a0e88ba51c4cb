"""One worker's boundary channel to one peer rank.

Each RC step is one personalized all-to-all of boundary DV rows (paper
Fig. 1 lines 9-15).  A :class:`Channel` holds everything a worker keeps
for one peer of that exchange, in both directions: the subscriptions, the
pending queue, the delta baselines, the outgoing sequence / ack / retry
state and the incoming dedup filter.  Row encoding stays on
:class:`~repro.runtime.worker.Worker`, which owns ``dv`` and the cost
model, so a channel holds no array a kernel touches.  A crash, a reload
or a peer reset rebuilds a channel whole.
"""

from __future__ import annotations

from typing import AbstractSet, Container, Dict, List, Optional, Set, Tuple

from ..types import FloatArray, VertexId

__all__ = ["Channel"]


class Channel:
    """A worker's sequenced, delta-encoded boundary channel to one peer."""

    __slots__ = (
        "subscribed", "pending", "sent_rows", "send_seq", "unacked",
        "seen_floor", "seen_seq",
    )

    def __init__(self, subscribed: Optional[Set[VertexId]] = None) -> None:
        #: owned vertices in the peer's external boundary (it needs their rows)
        self.subscribed: Set[VertexId] = set() if subscribed is None else subscribed
        #: subscribed rows queued for the next exchange
        self.pending: Set[VertexId] = set()
        #: vertex -> the row as of the last payload built for the peer.  A
        #: row's delta is the columns strictly below this baseline; no
        #: baseline forces a dense send
        self.sent_rows: Dict[VertexId, FloatArray] = {}
        #: next outgoing sequence number
        self.send_seq = 0
        #: seq -> (vertex ids awaiting acknowledgement, send attempts so far)
        self.unacked: Dict[int, Tuple[List[VertexId], int]] = {}
        #: the dedup filter.  ``seen_floor`` is the watermark — the peer
        #: has settled every sequence number below it and will never
        #: resend one — and ``seen_seq`` holds the numbers at or above it
        #: already delivered (at most the peer's in-flight retries, so O(1)
        #: on a lossless channel)
        self.seen_floor = 0
        self.seen_seq: Set[int] = set()

    def queue(self, vertices: AbstractSet[VertexId]) -> None:
        """Queue the subscribed rows among ``vertices``."""
        self.pending |= self.subscribed & vertices

    def subscribe(self, v: VertexId) -> None:
        """The peer wants ``v``'s row from now on: queue the current row,
        dense — the peer may have dropped (or never held) its copy."""
        self.subscribed.add(v)
        self.pending.add(v)
        self.sent_rows.pop(v, None)

    def unsubscribe(self) -> None:
        """The peer needs no row any more (repartition, recovery rewire)."""
        self.subscribed.clear()
        self.pending.clear()
        self.sent_rows.clear()

    def forget(self, v: VertexId) -> None:
        """``v`` left this rank; an in-flight packet naming it is pruned
        when it is next resent."""
        self.subscribed.discard(v)
        self.pending.discard(v)
        self.sent_rows.pop(v, None)

    def open_packet(self, vertices: List[VertexId]) -> int:
        """Sequence a fresh packet of ``vertices`` (its first attempt)."""
        seq = self.send_seq
        self.send_seq += 1
        self.unacked[seq] = (vertices, 1)
        return seq

    def ack(self, seq: int) -> None:
        """The peer acknowledged packet ``seq``; stop retrying it."""
        self.unacked.pop(seq, None)

    @property
    def send_floor(self) -> int:
        """Lowest sequence number this end may still (re)send.

        Everything below it was acknowledged or abandoned
        (:meth:`requeue_in_flight`, rows that migrated away), so the
        receiver may forget it — the header field that keeps the dedup
        filter bounded (cf. SCTP's forward-TSN).
        """
        return min(self.unacked) if self.unacked else self.send_seq

    def accept(self, seq: int, floor: int) -> bool:
        """Dedup filter for incoming packet ``seq``; False for a duplicate.

        ``floor`` is the sender's :attr:`send_floor` riding on the packet:
        the watermark rises to it and delivered numbers below it are
        forgotten.
        """
        if floor > self.seen_floor:
            self.seen_seq.difference_update(range(self.seen_floor, floor))
            self.seen_floor = floor
        if seq < self.seen_floor or seq in self.seen_seq:
            return False
        self.seen_seq.add(seq)
        return True

    def requeue_in_flight(self, owned: Container[VertexId]) -> None:
        """Move unacknowledged rows still ``owned`` back to the pending
        queue.  Delivery was never confirmed, so the baseline may be ahead
        of the receiver: each is resent dense."""
        for ids, _attempts in self.unacked.values():
            for v in ids:
                if v in owned:
                    self.pending.add(v)
                    self.sent_rows.pop(v, None)
        self.unacked.clear()
