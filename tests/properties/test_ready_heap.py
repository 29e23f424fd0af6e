"""Differential state machine: the LP's lazy ready heap vs a linear scan.

``LogicalProcess`` schedules from a heap of published member keys that
is refreshed lazily (only members whose input queue changed are
re-peeked).  Its answers must equal those of the obvious scan over every
hosted member's queue after any interleaving of deliveries,
anti-messages (before and after their positive was processed, and
before the positive arrived), straggler rollbacks, pops, horizon changes
and migration detach/adopt.  The scan lives only here, as the reference.
"""

from dataclasses import dataclass

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.cluster.costmodel import CostModel
from repro.kernel.arena import HAVE_NUMPY
from repro.kernel.cancellation import Mode, StaticCancellation
from repro.kernel.checkpointing import StaticCheckpoint
from repro.kernel.event import Event
from repro.kernel.lp import LogicalProcess
from repro.kernel.migration import ObjectCheckpoint, detach_object, restore_object
from repro.kernel.simobject import SimulationObject
from repro.kernel.state import RecordState

NAMES = ("a", "b", "c", "d")
OIDS = {name: oid for oid, name in enumerate(NAMES)}
EXTERNAL = 99  # sender id of injected events
INF = float("inf")

# coarse grid: equal receive times across members are frequent, so the
# key tie-breaks (receiver, sender, ...) decide the heap order
times = st.sampled_from([5.0, 10.0, 10.0, 20.0, 35.0, 50.0, 80.0])
horizons = st.sampled_from([15.0, 40.0, 60.0, INF])


@dataclass
class TallyState(RecordState):
    seen: int = 0


class Relay(SimulationObject):
    """Counts events; ``("fwd", dest)`` payloads forward to ``dest`` at
    +7, so executions and coast-forwards cause intra-LP deliveries (and
    rollbacks cause intra-LP anti-messages)."""

    def initial_state(self) -> TallyState:
        return TallyState()

    def execute_process(self, payload) -> None:
        self.state.seen += 1
        if payload[0] == "fwd":
            self.send_event(payload[1], 7.0, ("note",))


def reference_next(lp: LogicalProcess, *, ignore_window: bool = False):
    """Reference scheduler: peek every member, keep the smallest key
    inside the horizon.  Returns ``(oid, key)`` or ``None``."""
    horizon = lp.end_time if ignore_window else min(lp.end_time, lp.optimism_bound)
    best = None
    for oid, ctx in lp.members.items():
        entry = ctx.iq.peek_next_entry()
        if entry is None or entry[1].recv_time > horizon:
            continue
        if best is None or entry[0] < best[1]:
            best = (oid, entry[0])
    return best


def reference_local_min(lp: LogicalProcess) -> float:
    best = INF
    for ctx in lp.members.values():
        for t in (ctx.iq.min_unprocessed_time(), ctx.cmp_buffer.min_live_time()):
            if t is not None and t < best:
                best = t
    return best


class ReadyHeapMachine(RuleBasedStateMachine):
    fastpath = "python"

    def __init__(self) -> None:
        super().__init__()
        self.lp = LogicalProcess(
            0,
            CostModel(),
            resolve_name=OIDS.__getitem__,
            lp_of=lambda oid: 0,
            fastpath=self.fastpath,
        )
        for name, oid in OIDS.items():
            self.lp.attach(
                Relay(name),
                oid,
                cancel_policy=StaticCancellation(Mode.AGGRESSIVE),
                ckpt_policy=StaticCheckpoint(2),
            )
        self.lp.initialize()
        # sends to a detached member are dropped (the test checks
        # scheduling, not the model's results)
        self.lp.forward = lambda event: None
        self.serial = 0
        #: injected positives that may still be cancelled
        self.sent: list[Event] = []
        #: injected events whose anti-message arrived first
        self.anti_first: list[Event] = []
        #: oid -> checkpoint of a detached member
        self.parked: dict = {}

    def _event(self, oid: int, recv_time: float, payload) -> Event:
        self.serial += 1
        return Event(
            sender=EXTERNAL,
            receiver=oid,
            send_time=recv_time - 1.0,
            recv_time=recv_time,
            payload=payload,
            serial=self.serial,
        )

    def _hosted(self) -> list[int]:
        return sorted(self.lp.members)

    # ------------------------------------------------------------------ #
    # deliveries (a straggler rolls its receiver back)
    # ------------------------------------------------------------------ #
    @rule(data=st.data(), recv_time=times, fwd=st.booleans())
    def insert(self, data, recv_time, fwd):
        oid = data.draw(st.sampled_from(self._hosted()))
        dest = data.draw(st.sampled_from(NAMES))
        event = self._event(oid, recv_time, ("fwd", dest) if fwd else ("note",))
        self.lp.deliver_event(event)
        self.sent.append(event)

    @rule(data=st.data(), count=st.integers(2, 30))
    def descending_burst(self, data, count):
        """Ever-smaller keys for one member, refreshed after each: every
        insert publishes a new key, piling stale entries into the heap
        (this is what drives it past its rebuild threshold)."""
        oid = data.draw(st.sampled_from(self._hosted()))
        for i in range(count):
            event = self._event(oid, 100.0 - i, ("note",))
            self.lp.deliver_event(event)
            self.sent.append(event)
            self.lp.has_work()

    @precondition(lambda self: self.sent)
    @rule(data=st.data())
    def anti(self, data):
        """Cancel an injected positive, processed (secondary rollback)
        or not (annihilation in place)."""
        event = data.draw(st.sampled_from(self.sent))
        if event.receiver not in self.lp.members:
            return
        self.sent.remove(event)
        self.lp.deliver_event(event.anti_message())

    @rule(data=st.data(), recv_time=times)
    def anti_before_positive(self, data, recv_time):
        oid = data.draw(st.sampled_from(self._hosted()))
        event = self._event(oid, recv_time, ("note",))
        self.lp.deliver_event(event.anti_message())
        self.anti_first.append(event)

    @precondition(lambda self: self.anti_first)
    @rule(data=st.data())
    def late_positive(self, data):
        event = data.draw(st.sampled_from(self.anti_first))
        if event.receiver not in self.lp.members:
            return
        self.anti_first.remove(event)
        self.lp.deliver_event(event)  # annihilates on arrival

    # ------------------------------------------------------------------ #
    # execution and horizons
    # ------------------------------------------------------------------ #
    @rule(steps=st.integers(1, 4))
    def pop(self, steps):
        for _ in range(steps):
            expected = reference_next(self.lp)
            executed = self.lp.execute_one()
            assert executed == (expected is not None)
            if not executed:
                break
            oid, key = expected
            assert self.lp.members[oid].current_cause_key == key

    @rule(bound=horizons)
    def set_optimism_bound(self, bound):
        self.lp.optimism_bound = bound

    @rule(end=horizons)
    def set_end_time(self, end):
        self.lp.end_time = end

    # ------------------------------------------------------------------ #
    # migration
    # ------------------------------------------------------------------ #
    @precondition(lambda self: len(self.lp.members) > 1)
    @rule(data=st.data())
    def detach(self, data):
        oid = data.draw(st.sampled_from(self._hosted()))
        self.parked[oid] = detach_object(self.lp, oid).to_bytes()

    @precondition(lambda self: self.parked)
    @rule(data=st.data())
    def adopt(self, data):
        oid = data.draw(st.sampled_from(sorted(self.parked)))
        restore_object(self.lp, ObjectCheckpoint.from_bytes(self.parked.pop(oid)))

    # ------------------------------------------------------------------ #
    # the differential
    # ------------------------------------------------------------------ #
    @invariant()
    def heap_matches_scan(self):
        lp = self.lp
        work = lp.next_work()
        expected = reference_next(lp)
        assert (None if work is None else (work.oid, work.ready_key)) == expected
        assert lp.has_work() == (expected is not None)
        assert lp.has_work(ignore_window=True) == (
            reference_next(lp, ignore_window=True) is not None
        )
        assert lp.local_min() == reference_local_min(lp)
        # the heap stays bounded however many keys went stale
        assert len(lp._ready) <= 4 * len(NAMES) + 64


CORE_SETTINGS = settings(max_examples=60, stateful_step_count=40)

TestReadyHeapPythonCore = ReadyHeapMachine.TestCase
TestReadyHeapPythonCore.settings = CORE_SETTINGS


class NumpyReadyHeapMachine(ReadyHeapMachine):
    fastpath = "numpy"


TestReadyHeapNumpyCore = pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy core needs numpy"
)(NumpyReadyHeapMachine.TestCase)
TestReadyHeapNumpyCore.settings = CORE_SETTINGS
