"""The three WARPED history queues: input, output and state queues.

Each simulation object owns one of each (see Figure 1 of the paper).  The
queues are pure data structures — rollback *policy* lives in the LP — but
they encapsulate the fiddly parts: annihilation of anti-messages against
positive messages in any arrival order, lazy deletion from the future heap,
and fossil collection below GVT.
"""

from __future__ import annotations

import heapq
from typing import Iterable

from .errors import StateHistoryError, TimeWarpError
from .event import Event, EventId, EventKey, SentRecord, VirtualTime
from .state import SavedState

#: Tombstones tolerated before the future heap is compacted.  Lazy
#: deletion only discards dead entries when they surface at the heap top;
#: under a rollback storm that annihilates deep in the future the heap
#: would otherwise grow without bound (dead entries below the top are
#: never popped), so once tombstones outnumber live entries — and there
#: are enough of them to amortize the O(n) rebuild — the heap is filtered
#: and re-heapified in place.
_COMPACT_MIN_TOMBSTONES = 64


class InputQueue:
    """Pending and processed events of one simulation object.

    The unprocessed side is a binary heap ordered by :class:`EventKey`;
    annihilation removes events lazily (a tombstone set) so that cancelling
    a message costs O(1) amortized.  The processed side is a list in
    execution order, which rollback slices by key.
    """

    __slots__ = (
        "_future",
        "_tombstones",
        "_future_ids",
        "processed",
        "_processed_ids",
        "_pending_antis",
        "_live_future",
    )

    def __init__(self) -> None:
        self._future: list[tuple[EventKey, Event]] = []
        self._tombstones: set[EventId] = set()
        self._future_ids: dict[EventId, Event] = {}
        self.processed: list[Event] = []
        #: identity index over ``processed`` (anti-messages against
        #: already-executed positives resolve in O(1) instead of a scan)
        self._processed_ids: dict[EventId, Event] = {}
        self._pending_antis: dict[EventId, Event] = {}
        self._live_future = 0

    # ------------------------------------------------------------------ #
    # insertion and annihilation
    # ------------------------------------------------------------------ #
    def insert_positive(self, event: Event) -> bool:
        """Insert a positive message.

        Contract: if the event is a straggler (its key precedes
        :meth:`last_processed_key`), the caller must roll the object back
        *first* — the LP's delivery path does — so that the processed
        list stays in key order.

        Returns ``True`` if the event was enqueued, ``False`` if it was
        annihilated on arrival by a previously received anti-message (the
        network may deliver the pair in either order).
        """
        eid = event.event_id()
        if eid in self._pending_antis:
            del self._pending_antis[eid]
            return False
        heapq.heappush(self._future, (event.key(), event))
        self._future_ids[eid] = event
        self._live_future += 1
        return True

    def find_processed(self, eid: EventId) -> Event | None:
        """Return the processed positive message with identity ``eid``."""
        return self._processed_ids.get(eid)

    def insert_anti(self, anti: Event) -> Event | None:
        """Handle an arriving anti-message.

        Returns ``None`` if the anti-message was resolved locally (it
        annihilated an unprocessed positive, or was stashed because the
        positive has not arrived yet).  Returns the *processed* positive
        event if the LP must first roll the object back to just before that
        event; the caller then re-invokes :meth:`insert_anti` after the
        rollback, at which point the positive is unprocessed and the pair
        annihilates.
        """
        eid = anti.event_id()
        if eid in self._future_ids:
            del self._future_ids[eid]
            self._tombstones.add(eid)
            self._live_future -= 1
            if (
                len(self._tombstones) >= _COMPACT_MIN_TOMBSTONES
                and len(self._tombstones) > self._live_future
            ):
                self._compact()
            return None
        processed = self.find_processed(eid)
        if processed is not None:
            return processed
        self._pending_antis[eid] = anti
        return None

    def _compact(self) -> None:
        """Drop dead heap entries everywhere, not just at the top.

        Keeps exactly the entries :meth:`_skip_tombstones` would ever
        yield (the ``eid in _future_ids`` guard protects a live event
        re-inserted after an earlier copy was annihilated), then
        re-heapifies.  Keys are unique per event, so the pop order is
        unchanged.  Tombstones whose entries were dropped are discarded,
        mirroring the incremental discard at the heap top.
        """
        tombstones = self._tombstones
        future_ids = self._future_ids
        keep: list[tuple[EventKey, Event]] = []
        for entry in self._future:
            eid = entry[1].event_id()
            if eid in tombstones and eid not in future_ids:
                continue
            keep.append(entry)
        heapq.heapify(keep)
        self._future = keep
        tombstones.intersection_update(
            {entry[1].event_id() for entry in keep}
        )

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def _skip_tombstones(self) -> None:
        if not self._tombstones:  # fast path: no stale entries anywhere
            return
        while self._future:
            key, event = self._future[0]
            eid = event.event_id()
            if eid in self._tombstones and eid not in self._future_ids:
                heapq.heappop(self._future)
                self._tombstones.discard(eid)
            else:
                break

    def peek_next(self) -> Event | None:
        """Smallest-key unprocessed event, or ``None``."""
        if self._tombstones:
            self._skip_tombstones()
        future = self._future
        return future[0][1] if future else None

    def peek_next_entry(self) -> tuple[EventKey, Event] | None:
        """Smallest (key, event) pair without reconstructing the key —
        the LP's ready heap re-peeks every member whose queue changed, so
        this is hot (the tombstone check is inlined to skip a call frame)."""
        if self._tombstones:
            self._skip_tombstones()
        future = self._future
        return future[0] if future else None

    def pop_next(self) -> Event:
        """Remove and return the smallest unprocessed event, marking it
        processed."""
        if self._tombstones:
            self._skip_tombstones()
        if not self._future:
            raise TimeWarpError("pop_next on an empty input queue")
        _, event = heapq.heappop(self._future)
        eid = event.event_id()
        del self._future_ids[eid]
        self._live_future -= 1
        self.processed.append(event)
        self._processed_ids[eid] = event
        return event

    def last_processed_key(self) -> EventKey | None:
        return self.processed[-1].key() if self.processed else None

    def has_future(self) -> bool:
        if self._tombstones:  # same inlined fast path as peek_next
            self._skip_tombstones()
        return bool(self._future)

    def future_count(self) -> int:
        return self._live_future

    def iter_future(self) -> Iterable[Event]:
        """All live unprocessed events (unordered; for GVT accounting)."""
        for _, event in self._future:
            eid = event.event_id()
            if eid in self._future_ids:
                yield event

    # ------------------------------------------------------------------ #
    # rollback and fossil collection
    # ------------------------------------------------------------------ #
    def rollback(self, key: EventKey) -> list[Event]:
        """Un-process every event with key ``>= key``.

        The un-processed events are re-inserted into the future heap and
        returned in their original execution order.
        """
        split = len(self.processed)
        while split > 0 and self.processed[split - 1].key() >= key:
            split -= 1
        rolled = self.processed[split:]
        del self.processed[split:]
        processed_ids = self._processed_ids
        for event in rolled:
            eid = event.event_id()
            del processed_ids[eid]
            heapq.heappush(self._future, (event.key(), event))
            self._future_ids[eid] = event
            self._live_future += 1
        return rolled

    def fossil_collect(
        self, gvt: VirtualTime, limit_key: EventKey | None = None
    ) -> list[Event]:
        """Commit and drop processed events with ``recv_time < gvt``.

        ``limit_key`` (the oldest retained state snapshot's last event)
        additionally bounds collection: events *after* that snapshot must
        be retained even when below GVT, because a rollback to a time in
        ``[snapshot, gvt)``-adjacent territory coasts forward through them.
        Pass ``None`` for unbounded collection (final commit).
        """
        split = 0
        processed = self.processed
        while split < len(processed) and processed[split].recv_time < gvt:
            if limit_key is not None and processed[split].key() > limit_key:
                break
            split += 1
        committed = processed[:split]
        if split:
            self.processed = processed[split:]
            processed_ids = self._processed_ids
            for event in committed:
                del processed_ids[event.event_id()]
        return committed

    def min_unprocessed_time(self) -> VirtualTime | None:
        event = self.peek_next()
        return event.recv_time if event is not None else None

    def pending_anti_count(self) -> int:
        return len(self._pending_antis)


class OutputQueue:
    """Record of positive messages sent by one object, in send order.

    Rollback slices the records whose *causing event* is being undone; the
    cancellation strategy then decides whether each becomes an immediate
    anti-message (aggressive) or a pending-lazy entry.
    """

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: list[SentRecord] = []

    def record_send(self, event: Event, cause_key: EventKey) -> None:
        self.records.append(SentRecord(event=event, cause_key=cause_key))

    def rollback(self, key: EventKey) -> list[SentRecord]:
        """Remove and return records caused by events with key ``>= key``."""
        split = len(self.records)
        while split > 0 and self.records[split - 1].cause_key >= key:
            split -= 1
        undone = self.records[split:]
        del self.records[split:]
        return undone

    def fossil_collect(self, gvt: VirtualTime) -> int:
        """Drop records whose causing event has been committed."""
        split = 0
        records = self.records
        while split < len(records) and records[split].cause_key.recv_time < gvt:
            split += 1
        del records[:split]
        return split

    def __len__(self) -> int:
        return len(self.records)


class StateQueue:
    """Checkpointed state snapshots of one object, oldest first."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: list[SavedState] = []

    def save(self, entry: SavedState) -> None:
        if self.entries and entry.last_key is not None:
            prev = self.entries[-1].last_key
            if prev is not None and entry.last_key <= prev:
                raise TimeWarpError("state snapshots must be saved in key order")
        self.entries.append(entry)

    def restore_for(self, key: EventKey) -> SavedState:
        """Discard snapshots taken at or after ``key``; return the newest
        surviving snapshot (the rollback restore point)."""
        entries = self.entries
        split = len(entries)
        while split > 0 and not entries[split - 1].precedes(key):
            split -= 1
        del entries[split:]
        if not entries:
            raise StateHistoryError(
                f"no snapshot precedes straggler key {key!r}; "
                "fossil collection was unsafe or the initial state is missing"
            )
        return entries[-1]

    def fossil_collect(self, gvt: VirtualTime) -> int:
        """Drop every snapshot older than the newest one strictly below GVT.

        A straggler can only carry ``recv_time >= gvt``, so the newest
        snapshot with ``lvt < gvt`` (strictly) is a safe restore point for
        any future rollback; everything older is fossil.
        """
        entries = self.entries
        keep_from = 0
        for index, entry in enumerate(entries):
            if entry.lvt < gvt:
                keep_from = index
            else:
                break
        del entries[:keep_from]
        return keep_from

    def latest(self) -> SavedState | None:
        return self.entries[-1] if self.entries else None

    def __len__(self) -> int:
        return len(self.entries)
