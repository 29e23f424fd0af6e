"""Checkpoint-based migration of simulation objects between LPs.

An :class:`ObjectCheckpoint` is a *canonical*, self-contained serial form
of one simulation object's entire Time Warp context: application object
and state, the three WARPED history queues, parked lazy-cancellation
comparisons, pending anti-messages, and every kernel scalar (LVT, send
serial, cancellation mode, checkpoint interval chi, controller phase).
"Canonical" means two checkpoints of equivalent contexts pickle to the
same bytes:

* events are flattened to plain field tuples — a live :class:`Event`
  memoizes its key/id/size on first use (``init=False`` slots), so two
  equal events can pickle differently depending on access history;
* unordered collections are serialized in a deterministic order (the
  future heap by key, pending anti-messages by event id, comparisons by
  park sequence) and rebuilt on restore;
* the application object is embedded as a pickle blob taken with its
  kernel services unbound, so a checkpoint never drags an LP (and with
  it the whole process) into the pickle graph.

The three free functions are the whole protocol: ``checkpoint_object``
captures, ``detach_object`` captures *and* removes the object from its
LP, ``restore_object`` rebuilds the context inside another LP (in the
same or a different OS process).  The caller is responsible for
quiescence: the object must not be mid-execution, and any in-flight
messages addressed to it must be drained or forwarded
(:attr:`~repro.kernel.lp.LogicalProcess.forward`) around the move.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any

from .arena import ArrayInputQueue
from .cancellation import Mode
from .checkpointing import CheckpointWindow
from .errors import SchedulingError
from .event import Event, EventKey, SentRecord, VirtualTime
from .lp import INITIAL_KEY, LogicalProcess, ObjectContext
from .state import SavedState
from ..stats.counters import ObjectStats

#: pinned pickle protocol so checkpoint bytes are stable across runs
PICKLE_PROTOCOL = 4

#: (sender, receiver, send_time, recv_time, payload, serial, sign)
EventTuple = tuple[int, int, VirtualTime, VirtualTime, Any, int, int]


def _event_tuple(event: Event) -> EventTuple:
    return (
        event.sender, event.receiver, event.send_time, event.recv_time,
        event.payload, event.serial, event.sign,
    )


def _event_from(fields: EventTuple) -> Event:
    sender, receiver, send_time, recv_time, payload, serial, sign = fields
    return Event(
        sender=sender, receiver=receiver, send_time=send_time,
        recv_time=recv_time, payload=payload, serial=serial, sign=sign,
    )


@dataclass(frozen=True, slots=True)
class ObjectCheckpoint:
    """Canonical serialized form of one object's Time Warp context."""

    oid: int
    name: str
    #: the application object, pickled with services unbound
    obj_blob: bytes

    # kernel scalars
    lvt: VirtualTime
    event_count: int
    events_since_save: int
    send_serial: int
    mode: Mode
    chi: int
    comparisons_since_control: int
    events_since_ckpt_control: int

    # policies and controller state (plain objects; deterministic pickles)
    cancel_policy: Any
    ckpt_policy: Any
    ckpt_window: CheckpointWindow
    stats: ObjectStats

    #: live unprocessed events, sorted by :class:`EventKey`
    future: tuple[EventTuple, ...]
    #: processed events, in execution order
    processed: tuple[EventTuple, ...]
    #: anti-messages whose positives have not arrived, sorted by event id
    pending_antis: tuple[EventTuple, ...]
    #: output-queue records in send order: (event, cause_key)
    sent: tuple[tuple[EventTuple, EventKey], ...]
    #: state snapshots oldest-first: (last_key, lvt, event_count, state,
    #: save_cost)
    states: tuple[tuple[EventKey | None, VirtualTime, int, Any, float], ...]
    #: unresolved comparison-buffer entries in park order:
    #: (event, cause_key, lazy)
    comparisons: tuple[tuple[EventTuple, EventKey, bool], ...]

    def to_bytes(self) -> bytes:
        """The canonical wire form (stable bytes for equal contexts)."""
        return pickle.dumps(self, protocol=PICKLE_PROTOCOL)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ObjectCheckpoint":
        ckpt = pickle.loads(blob)
        if not isinstance(ckpt, cls):
            raise SchedulingError(
                f"checkpoint blob decoded to {type(ckpt).__name__}"
            )
        return ckpt


# --------------------------------------------------------------------- #
# capture
# --------------------------------------------------------------------- #
def checkpoint_object(ctx: ObjectContext) -> ObjectCheckpoint:
    """Capture ``ctx`` as a canonical checkpoint (non-destructive).

    The context must be quiescent: not coasting, not mid-event.  The
    checkpoint shares the live state/policy objects with the context, so
    a caller that keeps executing the source afterwards must serialize
    (``to_bytes``) first; migration always does, crossing the process
    boundary.
    """
    if ctx.coasting:
        raise SchedulingError(
            f"cannot checkpoint {ctx.obj.name!r} during coast-forward"
        )
    obj = ctx.obj
    services = obj._services
    obj._services = None
    try:
        obj_blob = pickle.dumps(obj, protocol=PICKLE_PROTOCOL)
    finally:
        obj._services = services

    iq = ctx.iq
    future = tuple(
        _event_tuple(event)
        for event in sorted(iq.iter_future(), key=Event.key)
    )
    processed = tuple(_event_tuple(event) for event in iq.processed)
    pending_antis = tuple(
        _event_tuple(anti)
        for anti in sorted(iq._pending_antis.values(), key=Event.event_id)
    )
    sent = tuple(
        (_event_tuple(record.event), record.cause_key)
        for record in ctx.oq.records
    )
    states = tuple(
        (entry.last_key, entry.lvt, entry.event_count, entry.state,
         entry.save_cost)
        for entry in ctx.sq.entries
    )
    unresolved = sorted(
        (entry for _, _, entry in ctx.cmp_buffer._by_key if not entry.resolved),
        key=lambda entry: entry.seq,
    )
    comparisons = tuple(
        (_event_tuple(entry.record.event), entry.record.cause_key, entry.lazy)
        for entry in unresolved
    )
    return ObjectCheckpoint(
        oid=ctx.oid,
        name=obj.name,
        obj_blob=obj_blob,
        lvt=ctx.lvt,
        event_count=ctx.event_count,
        events_since_save=ctx.events_since_save,
        send_serial=ctx.send_serial,
        mode=ctx.mode,
        chi=ctx.chi,
        comparisons_since_control=ctx.comparisons_since_control,
        events_since_ckpt_control=ctx.events_since_ckpt_control,
        cancel_policy=ctx.cancel_policy,
        ckpt_policy=ctx.ckpt_policy,
        ckpt_window=ctx.ckpt_window,
        stats=ctx.stats,
        future=future,
        processed=processed,
        pending_antis=pending_antis,
        sent=sent,
        states=states,
        comparisons=comparisons,
    )


def detach_object(lp: LogicalProcess, oid: int) -> ObjectCheckpoint:
    """Checkpoint object ``oid`` and remove it from ``lp``.

    After this returns the LP no longer hosts the object; events routed
    to it must be re-routed (update the shared routing map first) or
    rescued through :attr:`LogicalProcess.forward`.
    """
    ctx = lp.members.get(oid)
    if ctx is None:
        raise SchedulingError(f"LP {lp.lp_id} does not host object {oid}")
    ckpt = checkpoint_object(ctx)
    lp.release(oid)
    return ckpt


# --------------------------------------------------------------------- #
# restore
# --------------------------------------------------------------------- #
def restore_object(lp: LogicalProcess, ckpt: ObjectCheckpoint) -> ObjectContext:
    """Rebuild a checkpointed object inside ``lp`` and return its context.

    The caller must have updated the routing map so ``ckpt.oid`` now
    resolves to ``lp`` — otherwise the first send to the object would
    bounce.  The restored context is bit-equivalent to the captured one:
    a fresh :func:`checkpoint_object` of it yields identical bytes.
    """
    if ckpt.oid in lp.members:
        raise SchedulingError(
            f"LP {lp.lp_id} already hosts object {ckpt.oid}"
        )
    obj = pickle.loads(ckpt.obj_blob)
    ctx = ObjectContext(obj=obj, oid=ckpt.oid)
    ctx.lvt = ckpt.lvt
    ctx.event_count = ckpt.event_count
    ctx.events_since_save = ckpt.events_since_save
    ctx.send_serial = ckpt.send_serial
    ctx.mode = ckpt.mode
    ctx.chi = ckpt.chi
    ctx.comparisons_since_control = ckpt.comparisons_since_control
    ctx.events_since_ckpt_control = ckpt.events_since_ckpt_control
    ctx.cancel_policy = ckpt.cancel_policy
    ctx.ckpt_policy = ckpt.ckpt_policy
    ctx.ckpt_window = ckpt.ckpt_window
    ctx.stats = ckpt.stats
    ctx.current_cause_key = INITIAL_KEY
    ctx.coasting = False

    if lp.arena is not None:
        ctx.iq = ArrayInputQueue(lp.arena)
    iq = ctx.iq
    for fields in ckpt.processed:
        event = _event_from(fields)
        iq.processed.append(event)
        iq._processed_ids[event.event_id()] = event
    if lp.arena is not None:
        iq.insert_batch([_event_from(fields) for fields in ckpt.future])
    else:
        # key-sorted list == valid binary heap
        for fields in ckpt.future:
            event = _event_from(fields)
            iq._future.append((event.key(), event))
            iq._future_ids[event.event_id()] = event
        iq._live_future = len(ckpt.future)
    for fields in ckpt.pending_antis:
        anti = _event_from(fields)
        iq._pending_antis[anti.event_id()] = anti

    for fields, cause_key in ckpt.sent:
        ctx.oq.records.append(
            SentRecord(event=_event_from(fields), cause_key=cause_key)
        )
    for last_key, lvt, event_count, state, save_cost in ckpt.states:
        ctx.sq.entries.append(SavedState(
            last_key=last_key, lvt=lvt, event_count=event_count,
            state=state, save_cost=save_cost, size=state.size_bytes(),
        ))
    # re-park in original order: fresh seqs, same relative expiry order
    for fields, cause_key, is_lazy in ckpt.comparisons:
        record = SentRecord(event=_event_from(fields), cause_key=cause_key)
        ctx.cmp_buffer.park(record, lazy=is_lazy)

    lp.adopt(ctx)
    return ctx
