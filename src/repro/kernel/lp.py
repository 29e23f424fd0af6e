"""Logical processes: scheduling, rollback, coast-forward and cancellation.

An LP groups simulation objects that share an address space (one modelled
workstation).  It schedules its members lowest-timestamp-first from a lazy
ready heap (a member is re-peeked only after its input queue changed),
detects stragglers and anti-messages on delivery, performs rollback with
periodic check-pointing and coast-forward, dispatches undone sends to the
active cancellation strategy, and runs the per-object feedback controllers
at their configured periods.  All CPU work is charged to the LP's wall clock
(``self.clock``); the cluster executive orders LPs by that clock.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from ..cluster.costmodel import CostModel
from ..oracle.invariants import NULL_ORACLE
from ..stats.counters import LPStats, ObjectStats
from ..trace.tracer import NULL_TRACER
from .arena import ArrayInputQueue, EventArena, resolve_fastpath
from .cancellation import CancellationPolicy, ComparisonBuffer, Mode
from .checkpointing import MAX_INTERVAL, CheckpointPolicy, CheckpointWindow
from .errors import (
    ApplicationError,
    CausalityViolationError,
    SchedulingError,
    TimeWarpError,
)
from .event import Event, EventKey, SentRecord, VirtualTime
from .queues import InputQueue, OutputQueue, StateQueue
from .simobject import SimulationObject
from .state import COPY_SNAPSHOT, SavedState, SnapshotStrategy

if TYPE_CHECKING:  # pragma: no cover
    from ..comm.transport import CommModule

#: Synthetic cause key for sends made during ``initialize`` — smaller than
#: every real event key, so initial sends are never rolled back.
INITIAL_KEY = EventKey(float("-inf"), -1, -1, float("-inf"), -1)


@dataclass(slots=True)
class ObjectContext:
    """Kernel-side runtime record of one simulation object."""

    obj: SimulationObject
    oid: int
    iq: InputQueue = field(default_factory=InputQueue)
    oq: OutputQueue = field(default_factory=OutputQueue)
    sq: StateQueue = field(default_factory=StateQueue)
    lvt: VirtualTime = 0.0
    event_count: int = 0
    events_since_save: int = 0
    send_serial: int = 0
    coasting: bool = False
    current_cause_key: EventKey = INITIAL_KEY
    mode: Mode = Mode.AGGRESSIVE
    cmp_buffer: ComparisonBuffer = field(default_factory=ComparisonBuffer)
    cancel_policy: CancellationPolicy = None  # type: ignore[assignment]
    ckpt_policy: CheckpointPolicy = None  # type: ignore[assignment]
    chi: int = 1
    ckpt_window: CheckpointWindow = field(default_factory=CheckpointWindow)
    comparisons_since_control: int = 0
    events_since_ckpt_control: int = 0
    stats: ObjectStats = field(default_factory=ObjectStats)
    #: smallest unprocessed key when the member was last peeked — the key
    #: it is published under on its LP's ready heap (``None``: no work)
    ready_key: EventKey | None = None

    @property
    def state(self):
        return self.obj.state

    @state.setter
    def state(self, value) -> None:
        self.obj.state = value


class _ObjectServices:
    """The :class:`KernelServices` adapter handed to application objects."""

    __slots__ = ("_lp", "_ctx")

    def __init__(self, lp: "LogicalProcess", ctx: ObjectContext) -> None:
        self._lp = lp
        self._ctx = ctx

    @property
    def now(self) -> VirtualTime:
        return self._ctx.lvt

    def send(self, dest: str, delay: VirtualTime, payload: Any) -> None:
        self._lp.send_from(self._ctx, dest, delay, payload)


class LogicalProcess:
    """One Time Warp logical process pinned to one modelled workstation."""

    def __init__(
        self,
        lp_id: int,
        costs: CostModel,
        *,
        resolve_name: Callable[[str], int],
        lp_of: Callable[[int], int],
        end_time: VirtualTime = float("inf"),
        fastpath: str | None = "python",
    ) -> None:
        self.lp_id = lp_id
        self.costs = costs
        #: resolved hot-loop implementation ("python" or "numpy"); the
        #: arena is the LP-wide struct-of-arrays future-event store backing
        #: every member's :class:`ArrayInputQueue` on the numpy path
        self.fastpath = resolve_fastpath(fastpath)
        self.arena: EventArena | None = (
            EventArena() if self.fastpath == "numpy" else None
        )
        self.clock: float = 0.0
        self.end_time = end_time
        self._resolve_name = resolve_name
        self._lp_of = lp_of
        self.members: dict[int, ObjectContext] = {}
        self._member_list: list[ObjectContext] = []
        #: lazy ready heap of ``(ready_key, oid)``; an entry is live iff it
        #: carries its hosted member's current ``ready_key`` object
        self._ready: list[tuple[EventKey, int]] = []
        #: members whose input queue changed since they were last peeked
        self._dirty: dict[int, ObjectContext] = {}
        self.comm: "CommModule" = None  # type: ignore[assignment]
        #: absolute virtual-time optimism bound (GVT + window), set by the
        #: executive when a time-window policy is active
        self.optimism_bound: VirtualTime = float("inf")
        self.stats = LPStats()
        #: structured observability tracer (repro.trace); NULL_TRACER when
        #: tracing is off, so emission sites cost one attribute check
        self.tracer = NULL_TRACER
        #: runtime invariant oracle (repro.oracle); NULL_ORACLE when off,
        #: same zero-cost guard discipline as the tracer
        self.oracle = NULL_ORACLE
        #: optional committed-event trace recorder (tests / debugging)
        self.trace_sink: Callable[[Event], None] | None = None
        #: rescue hook for events addressed to an object this LP no longer
        #: hosts (live migration re-homes objects mid-run; stale aggregate
        #: buffers and in-flight messages may still carry the old address)
        self.forward: Callable[[Event], None] | None = None
        #: set by the executive so arrivals can wake an idle LP
        self.idle: bool = False
        #: how checkpoint saves and rollback restores copy state
        #: (``SimulationConfig.snapshot``; see repro.kernel.state)
        self.snapshot_strategy: SnapshotStrategy = COPY_SNAPSHOT

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def attach(
        self,
        obj: SimulationObject,
        oid: int,
        cancel_policy: CancellationPolicy,
        ckpt_policy: CheckpointPolicy,
    ) -> ObjectContext:
        ctx = ObjectContext(obj=obj, oid=oid)
        if self.arena is not None:
            ctx.iq = ArrayInputQueue(self.arena)
        ctx.cancel_policy = cancel_policy
        ctx.ckpt_policy = ckpt_policy
        ctx.mode = cancel_policy.initial_mode()
        ctx.chi = max(1, min(MAX_INTERVAL, ckpt_policy.initial_interval()))
        obj.bind(_ObjectServices(self, ctx))
        self.members[oid] = ctx
        self._member_list.append(ctx)
        self._dirty[oid] = ctx
        return ctx

    def adopt(self, ctx: ObjectContext) -> None:
        """Host an already-built context (a migrated-in object)."""
        if ctx.oid in self.members:
            raise SchedulingError(f"LP {self.lp_id} already hosts object {ctx.oid}")
        ctx.obj.bind(_ObjectServices(self, ctx))
        self.members[ctx.oid] = ctx
        self._member_list.append(ctx)
        self._member_list.sort(key=lambda member: member.oid)
        ctx.ready_key = None  # not on this heap yet: the refresh publishes it
        self._dirty[ctx.oid] = ctx

    def release(self, oid: int) -> ObjectContext:
        """Stop hosting ``oid`` (a migrated-out object); its heap entries
        go stale because the oid no longer resolves to a member."""
        ctx = self.members.pop(oid)
        self._member_list.remove(ctx)
        self._dirty.pop(oid, None)
        if isinstance(ctx.iq, ArrayInputQueue):
            # the member's unprocessed events leave with it; their arena
            # rows must die too
            ctx.iq.detach()
        ctx.obj._services = None  # sever the stale kernel binding
        return ctx

    def initialize(self) -> None:
        """Create initial states, run app initializers, take snapshot zero.

        The snapshot is taken *after* ``initialize()`` on purpose: sends
        made during initialization are tagged :data:`INITIAL_KEY` and are
        never rolled back, so the recovery point for a rollback to the
        beginning of time must include any state mutations that produced
        them — otherwise a deep rollback would replay a different history
        than the one whose messages are already in the system.
        """
        for ctx in self._member_list:
            ctx.state = ctx.obj.initial_state()
        for ctx in self._member_list:
            ctx.current_cause_key = INITIAL_KEY
            ctx.obj.initialize()
            state = self.snapshot_strategy.snapshot(ctx.state)
            saved = SavedState(
                last_key=None,
                lvt=0.0,
                event_count=0,
                state=state,
                size=state.size_bytes(),
            )
            ctx.sq.save(saved)
            oracle = self.oracle
            if oracle.enabled:
                oracle.on_state_save(self.clock, self.lp_id, ctx.obj.name, saved)

    # ------------------------------------------------------------------ #
    # wall clock
    # ------------------------------------------------------------------ #
    def charge(self, cost: float) -> None:
        self.clock += cost
        self.stats.busy_time += cost

    def advance_clock_to(self, wallclock: float) -> None:
        if wallclock > self.clock:
            self.stats.idle_time += wallclock - self.clock
            self.clock = wallclock

    def schedule_flush(self, dst_lp: int, at: float, generation: int) -> None:
        """Installed by the executive (transport host hook)."""
        raise SchedulingError("LP is not attached to an executive")

    def note_physical_sent(self) -> None:
        self.stats.physical_messages_sent += 1

    # ------------------------------------------------------------------ #
    # delivery path
    # ------------------------------------------------------------------ #
    def receive_physical(self, size_bytes: int, events: tuple[Event, ...]) -> None:
        """Receive one arrived physical message and deliver its events."""
        self.stats.physical_messages_received += 1
        self.stats.remote_events_received += len(events)
        self.charge(self.costs.physical_recv(size_bytes))
        for event in events:
            self.charge(self.costs.event_handle_cost)
            self.deliver_event(event)

    def deliver_event(self, event: Event) -> None:
        ctx = self.members.get(event.receiver)
        if ctx is None:
            if self.forward is not None:
                self.forward(event)
                return
            raise SchedulingError(
                f"event for object {event.receiver} delivered to LP {self.lp_id}"
            )
        if event.is_anti:
            self._handle_anti(ctx, event)
        else:
            self._handle_positive(ctx, event)

    def _handle_positive(self, ctx: ObjectContext, event: Event) -> None:
        last = ctx.iq.last_processed_key()
        if last is not None and event.key() < last:
            self._rollback(ctx, event.key(), primary=True)
        ctx.iq.insert_positive(event)
        self._dirty[ctx.oid] = ctx

    def _handle_anti(self, ctx: ObjectContext, anti: Event) -> None:
        processed = ctx.iq.insert_anti(anti)
        if processed is not None:
            # The positive was already executed: roll back to just before
            # it, then annihilate the (now unprocessed) pair.
            self._rollback(ctx, processed.key(), primary=False)
            leftover = ctx.iq.insert_anti(anti)
            if leftover is not None:  # pragma: no cover - invariant
                raise CausalityViolationError(
                    "anti-message did not annihilate after rollback"
                )
        self._dirty[ctx.oid] = ctx

    # ------------------------------------------------------------------ #
    # rollback machinery
    # ------------------------------------------------------------------ #
    def _rollback(self, ctx: ObjectContext, key: EventKey, *, primary: bool) -> None:
        stats = ctx.stats
        stats.rollbacks += 1
        if primary:
            stats.primary_rollbacks += 1
        else:
            stats.secondary_rollbacks += 1
        ctx.ckpt_window.rollbacks += 1

        rolled = ctx.iq.rollback(key)
        self._dirty[ctx.oid] = ctx
        stats.events_rolled_back += len(rolled)

        snapshot = ctx.sq.restore_for(key)
        self.charge(
            self.costs.rollback_base + self.costs.state_restore(snapshot.size)
        )
        stats.state_restores += 1
        ctx.state = self.snapshot_strategy.snapshot(snapshot.state)
        ctx.lvt = snapshot.lvt
        ctx.event_count = snapshot.event_count
        ctx.events_since_save = 0

        oracle = self.oracle
        if oracle.enabled:
            oracle.on_rollback(self.clock, self.lp_id, ctx.obj.name, key.recv_time)
            oracle.on_state_restore(
                self.clock, self.lp_id, ctx.obj.name, snapshot, ctx.state
            )

        # Undo sends caused at or after the rollback point, according to
        # the strategy currently in force at this object.
        undone = ctx.oq.rollback(key)
        if undone:
            if ctx.mode is Mode.AGGRESSIVE:
                monitoring = ctx.cancel_policy.monitoring
                for record in undone:
                    self._emit_anti(ctx, record)
                    if monitoring:
                        ctx.cmp_buffer.park(record, lazy=False)
            else:
                for record in undone:
                    ctx.cmp_buffer.park(record, lazy=True)

        # Coast forward: re-execute the surviving processed events that
        # came after the restored snapshot, with sends suppressed.
        coast_events_before = stats.coast_forward_events
        coast_cost_before = ctx.ckpt_window.coast_cost
        self._coast_forward(ctx, snapshot)

        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                "rollback", self.clock,
                lp=self.lp_id, obj=ctx.obj.name,
                cause="primary" if primary else "secondary",
                to=key.recv_time, restored_lvt=snapshot.lvt,
                depth=len(rolled), undone_sends=len(undone),
                coast_events=stats.coast_forward_events - coast_events_before,
                coast_cost=ctx.ckpt_window.coast_cost - coast_cost_before,
            )

    def _coast_forward(self, ctx: ObjectContext, snapshot: SavedState) -> None:
        processed = ctx.iq.processed
        start = len(processed)
        if snapshot.last_key is None:
            start = 0
        else:
            while start > 0 and processed[start - 1].key() > snapshot.last_key:
                start -= 1
        to_replay = processed[start:]
        if not to_replay:
            return
        ctx.coasting = True
        try:
            grain = ctx.obj.grain_factor
            for event in to_replay:
                ctx.lvt = event.recv_time
                try:
                    ctx.obj.execute_process(event.payload)
                except TimeWarpError:
                    raise
                except Exception as exc:
                    raise ApplicationError(
                        ctx.obj.name, event.recv_time, event.payload,
                        coasting=True,
                    ) from exc
                cost = self.costs.coast_forward_event(grain)
                self.charge(cost)
                ctx.ckpt_window.coast_events += 1
                ctx.ckpt_window.coast_cost += cost
                ctx.stats.coast_forward_events += 1
                ctx.event_count += 1
                ctx.events_since_save += 1
        finally:
            ctx.coasting = False

    def _emit_anti(self, ctx: ObjectContext, record: SentRecord) -> None:
        anti = record.event.anti_message()
        self.charge(self.costs.anti_send_cost)
        ctx.stats.antis_sent += 1
        self._route(anti)

    # ------------------------------------------------------------------ #
    # send path
    # ------------------------------------------------------------------ #
    def send_from(
        self, ctx: ObjectContext, dest: str, delay: VirtualTime, payload: Any
    ) -> None:
        if ctx.coasting:
            return  # previously sent messages are still correct
        receiver = self._resolve_name(dest)
        event = Event(
            sender=ctx.oid,
            receiver=receiver,
            send_time=ctx.lvt,
            recv_time=ctx.lvt + delay,
            payload=payload,
            serial=ctx.send_serial,
        )
        ctx.send_serial += 1
        ctx.stats.sends += 1

        if ctx.cmp_buffer.pending():
            self.charge(self.costs.lazy_compare_cost)
            entry = ctx.cmp_buffer.match(event)
            if entry is not None:
                self._resolve_comparison(ctx, hit=True, lazy_entry=entry.lazy)
                if entry.lazy:
                    # Lazy hit: the original message stands; re-own it under
                    # the regenerating event so a future rollback can still
                    # cancel it.  Nothing goes on the wire.
                    ctx.stats.sends_suppressed += 1
                    ctx.oq.record_send(entry.record.event, ctx.current_cause_key)
                    return
                # Lazy-aggressive hit: the original was already cancelled,
                # so the regenerated message must be sent normally.

        ctx.oq.record_send(event, ctx.current_cause_key)
        self._route(event)

    def _route(self, event: Event) -> None:
        dst_lp = self._lp_of(event.receiver)
        if dst_lp == self.lp_id:
            self.charge(self.costs.intra_send_cost)
            self.stats.intra_lp_events += 1
            self.deliver_event(event)
        else:
            self.stats.remote_events_sent += 1
            self.comm.enqueue(event)

    # ------------------------------------------------------------------ #
    # comparison resolution and controllers
    # ------------------------------------------------------------------ #
    def _resolve_comparison(self, ctx: ObjectContext, *, hit: bool, lazy_entry: bool) -> None:
        stats = ctx.stats
        stats.comparisons += 1
        if lazy_entry:
            if hit:
                stats.lazy_hits += 1
            else:
                stats.lazy_misses += 1
        else:
            if hit:
                stats.lazy_aggressive_hits += 1
            else:
                stats.lazy_aggressive_misses += 1
        ctx.cancel_policy.record(hit)
        ctx.comparisons_since_control += 1
        period = ctx.cancel_policy.period
        if period is not None and ctx.comparisons_since_control >= period:
            ctx.comparisons_since_control = 0
            self.charge(self.costs.control_invocation_cost)
            stats.control_invocations += 1
            old_mode = ctx.mode
            new_mode = ctx.cancel_policy.control()
            switched = new_mode is not old_mode
            if switched:
                ctx.mode = new_mode
                stats.mode_switches += 1
            tracer = self.tracer
            if tracer.enabled:
                policy = ctx.cancel_policy
                tracer.emit(
                    "ctrl.cancellation", self.clock,
                    lp=self.lp_id, obj=ctx.obj.name,
                    o=getattr(policy, "hit_ratio", 0.0),
                    old=old_mode.name.lower(), new=new_mode.name.lower(),
                    verdict=getattr(policy, "last_verdict", ""),
                    switched=switched,
                )

    def _expire_comparisons(self, ctx: ObjectContext, key: EventKey | None) -> None:
        expired = (
            ctx.cmp_buffer.expire_through(key)
            if key is not None
            else ctx.cmp_buffer.expire_all()
        )
        for entry in expired:
            self.charge(self.costs.lazy_compare_cost)
            if entry.lazy:
                self._emit_anti(ctx, entry.record)
            self._resolve_comparison(ctx, hit=False, lazy_entry=entry.lazy)

    def _run_checkpoint_control(self, ctx: ObjectContext) -> None:
        period = ctx.ckpt_policy.period
        if period is None:
            return
        ctx.events_since_ckpt_control += 1
        if ctx.events_since_ckpt_control < period:
            return
        ctx.events_since_ckpt_control = 0
        self.charge(self.costs.control_invocation_cost)
        ctx.stats.control_invocations += 1
        window = ctx.ckpt_window
        old_chi = ctx.chi
        new_interval = ctx.ckpt_policy.control(window.snapshot())
        ctx.chi = max(1, min(MAX_INTERVAL, int(new_interval)))
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                "ctrl.checkpoint", self.clock,
                lp=self.lp_id, obj=ctx.obj.name,
                o=window.ec / max(1, window.events),
                old=old_chi, new=ctx.chi,
                verdict=getattr(ctx.ckpt_policy, "last_verdict", "static"),
                events=window.events, saves=window.saves,
                save_cost=window.save_cost,
                coast_events=window.coast_events, coast_cost=window.coast_cost,
                rollbacks=window.rollbacks,
            )
        window.reset()

    # ------------------------------------------------------------------ #
    # forward execution
    # ------------------------------------------------------------------ #
    def _refresh_ready(self) -> None:
        """Re-peek the dirty members; publish each changed key."""
        ready = self._ready
        for ctx in self._dirty.values():
            entry = ctx.iq.peek_next_entry()
            if entry is None:
                ctx.ready_key = None
                continue
            key = entry[0]
            if key != ctx.ready_key:
                ctx.ready_key = key
                heapq.heappush(ready, (key, ctx.oid))
        self._dirty.clear()
        if len(ready) > 4 * len(self._member_list) + 64:
            # stale entries dominate: rebuild from the published keys
            ready = [
                (ctx.ready_key, ctx.oid)
                for ctx in self._member_list
                if ctx.ready_key is not None
            ]
            heapq.heapify(ready)
            self._ready = ready

    def _ready_top(self) -> ObjectContext | None:
        """Member with the smallest unprocessed key, horizon aside.

        Keys order by receive time first and include the receiver, so
        they are unique across members: the heap top is exactly the
        member a scan of every queue would pick.
        """
        if self._dirty:
            self._refresh_ready()
        ready = self._ready
        members = self.members
        while ready:
            key, oid = ready[0]
            ctx = members.get(oid)
            if ctx is not None and ctx.ready_key is key:
                return ctx
            heapq.heappop(ready)  # superseded key or departed member
        return None

    def next_work(self) -> ObjectContext | None:
        """Member with the lowest-key unprocessed event (its ``ready_key``)
        within the virtual-time horizon and the optimism window."""
        ctx = self._ready_top()
        if ctx is None:
            return None
        horizon = self.end_time
        if self.optimism_bound < horizon:
            horizon = self.optimism_bound
        if ctx.ready_key.recv_time > horizon:  # type: ignore[union-attr]
            return None
        return ctx

    def execute_one(self) -> bool:
        """Execute the LP's next event; False if the LP has no work."""
        ctx = self.next_work()
        if ctx is None:
            return False
        event = ctx.iq.pop_next()
        self._dirty[ctx.oid] = ctx
        ctx.lvt = event.recv_time
        ctx.current_cause_key = event.key()
        try:
            ctx.obj.execute_process(event.payload)
        except TimeWarpError:
            raise
        except Exception as exc:
            raise ApplicationError(
                ctx.obj.name, event.recv_time, event.payload
            ) from exc
        self.charge(self.costs.event_execution(ctx.obj.grain_factor))
        ctx.event_count += 1
        ctx.events_since_save += 1
        ctx.stats.events_executed += 1
        ctx.ckpt_window.events += 1

        if ctx.events_since_save >= ctx.chi:
            self._save_state(ctx, event.key())

        # Pending comparisons caused at or before this event can no longer
        # be regenerated: resolve them as misses.
        if ctx.cmp_buffer.pending():
            self._expire_comparisons(ctx, event.key())

        self._run_checkpoint_control(ctx)
        return True

    def _save_state(self, ctx: ObjectContext, last_key: EventKey) -> None:
        size = ctx.state.size_bytes()
        cost = self.costs.state_save(size)
        self.charge(cost)
        saved = SavedState(
            last_key=last_key,
            lvt=ctx.lvt,
            event_count=ctx.event_count,
            state=self.snapshot_strategy.snapshot(ctx.state),
            save_cost=cost,
            size=size,
        )
        ctx.sq.save(saved)
        oracle = self.oracle
        if oracle.enabled:
            oracle.on_state_save(self.clock, self.lp_id, ctx.obj.name, saved)
        ctx.events_since_save = 0
        ctx.stats.state_saves += 1
        ctx.ckpt_window.saves += 1
        ctx.ckpt_window.save_cost += cost

    def on_idle(self) -> None:
        """Called by the executive when the LP runs out of work: flush
        aggregates and resolve dangling comparisons so the system drains."""
        for ctx in self._member_list:
            if not ctx.cmp_buffer.pending():
                continue
            event = ctx.iq.peek_next()
            if event is None or event.recv_time > self.end_time:
                self._expire_comparisons(ctx, None)
        if self.comm is not None:
            flushed = self.comm.flush_all()
            self.stats.aggregates_flushed_idle += flushed

    # ------------------------------------------------------------------ #
    # GVT support and fossil collection
    # ------------------------------------------------------------------ #
    def local_min(self) -> VirtualTime:
        """Lower bound on any virtual time this LP can still affect."""
        top = self._ready_top()
        best = float("inf") if top is None else top.ready_key.recv_time  # type: ignore[union-attr]
        for ctx in self._member_list:
            t = ctx.cmp_buffer.min_live_time()
            if t is not None and t < best:
                best = t
        if self.comm is not None:
            t = self.comm.min_buffered_time()
            if t is not None and t < best:
                best = t
        return best

    def fossil_collect(self, gvt: VirtualTime, *, final: bool = False) -> int:
        """Commit history below ``gvt``; returns committed event count.

        The state queue is collected first so the input queue keeps every
        event newer than the oldest *retained* snapshot — those events may
        still be replayed by a coast-forward.  The ``final`` pass (at
        termination) commits everything unconditionally.
        """
        committed_total = 0
        items = 0
        self._sample_memory()
        for ctx in self._member_list:
            if final:
                committed = ctx.iq.fossil_collect(gvt, None)
            else:
                items += ctx.sq.fossil_collect(gvt)
                base = ctx.sq.entries[0] if ctx.sq.entries else None
                if base is None or base.last_key is None:
                    committed = []
                else:
                    committed = ctx.iq.fossil_collect(gvt, base.last_key)
            if committed:
                ctx.stats.events_committed += len(committed)
                committed_total += len(committed)
                items += len(committed)
                if self.trace_sink is not None:
                    for event in committed:
                        self.trace_sink(event)
            items += ctx.oq.fossil_collect(gvt)
        if items:
            self.charge(self.costs.fossil_item_cost * items)
        self.stats.fossil_collections += 1
        self.stats.fossil_items += items
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                "fossil.collect", self.clock,
                lp=self.lp_id, gvt=gvt, committed=committed_total,
                items=items, final=final,
            )
        return committed_total

    def _sample_memory(self) -> None:
        """High-water marks of the history queues, sampled pre-collection
        (their natural maximum within each GVT interval)."""
        state_entries = 0
        state_bytes = 0
        history_events = 0
        for ctx in self._member_list:
            entries = ctx.sq.entries
            state_entries += len(entries)
            state_bytes += sum(e.size for e in entries)
            history_events += len(ctx.iq.processed) + ctx.iq.future_count()
            history_events += len(ctx.oq)
        stats = self.stats
        if state_entries > stats.peak_state_entries:
            stats.peak_state_entries = state_entries
        if state_bytes > stats.peak_state_bytes:
            stats.peak_state_bytes = state_bytes
        if history_events > stats.peak_history_events:
            stats.peak_history_events = history_events

    def finalize(self) -> None:
        for ctx in self._member_list:
            ctx.obj.finalize()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def has_work(self, *, ignore_window: bool = False) -> bool:
        """Whether the LP has executable events.

        ``ignore_window=True`` asks whether *any* event below the horizon
        remains, even if the optimism window currently blocks it —
        termination detection must not confuse "throttled" with "done".
        """
        if not ignore_window:
            return self.next_work() is not None
        top = self._ready_top()
        if top is None:
            return False
        return top.ready_key.recv_time <= self.end_time  # type: ignore[union-attr]

    def object_stats(self) -> dict[str, ObjectStats]:
        return {ctx.obj.name: ctx.stats for ctx in self._member_list}
