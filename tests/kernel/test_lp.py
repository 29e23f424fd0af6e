"""LP-level tests: rollback, coast-forward, cancellation mechanics.

These tests drive a :class:`LogicalProcess` directly, injecting crafted
events so the exact rollback behaviour can be asserted — no executive, no
network, deterministic by construction.
"""

from dataclasses import dataclass, field

import pytest

from repro import SimulationConfig, TimeWarpSimulation
from repro.apps.phold import PHOLDParams, PHOLDState, build_phold
from repro.cluster.costmodel import CostModel
from repro.kernel.arena import HAVE_NUMPY, ArrayInputQueue
from repro.kernel.cancellation import Mode, StaticCancellation
from repro.kernel.checkpointing import StaticCheckpoint
from repro.kernel.event import Event
from repro.kernel.lp import LogicalProcess
from repro.kernel.queues import InputQueue
from repro.kernel.simobject import SimulationObject
from repro.kernel.state import RecordState
from tests.helpers import flatten


@dataclass
class LogState(RecordState):
    seen: list = field(default_factory=list)
    counter: int = 0


class Recorder(SimulationObject):
    """Processes (tag, value) payloads; optionally forwards to a peer.

    Payload forms:
      ("note", v)        -- record v
      ("fwd", v, dest)   -- record v and send ("note", v) to dest at +10
      ("ctr", v)         -- record (v, counter) and bump counter
                            (order-sensitive output for lazy-miss tests)
      ("ctrfwd", v, dst) -- order-sensitive forward: payload includes the
                            counter, so regenerated sends differ after a
                            straggler reorders execution
    """

    def initial_state(self) -> LogState:
        return LogState()

    def execute_process(self, payload):
        state: LogState = self.state
        tag = payload[0]
        if tag == "note":
            state.seen.append(payload[1])
        elif tag == "fwd":
            state.seen.append(payload[1])
            self.send_event(payload[2], 10.0, ("note", payload[1]))
        elif tag == "ctr":
            state.seen.append((payload[1], state.counter))
            state.counter += 1
        elif tag == "ctrfwd":
            state.seen.append(payload[1])
            self.send_event(payload[2], 10.0, ("note", (payload[1], state.counter)))
            state.counter += 1
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unknown payload {payload!r}")


def build_lp(names=("a", "b"), chi=1, mode=Mode.AGGRESSIVE, monitor=False):
    name_to_oid = {name: i for i, name in enumerate(names)}
    lp = LogicalProcess(
        0,
        CostModel(),
        resolve_name=name_to_oid.__getitem__,
        lp_of=lambda oid: 0,
    )
    objs = {}
    for name, oid in name_to_oid.items():
        obj = Recorder(name)
        lp.attach(
            obj,
            oid,
            cancel_policy=StaticCancellation(mode, monitor=monitor),
            ckpt_policy=StaticCheckpoint(chi),
        )
        objs[name] = obj
    lp.initialize()
    return lp, objs, name_to_oid


EXTERNAL = 99  # a sender id for injected events (never resolved locally)
_serial = iter(range(10_000, 99_999))


def inject(lp, receiver_oid, recv_time, payload, send_time=None):
    event = Event(
        sender=EXTERNAL,
        receiver=receiver_oid,
        send_time=recv_time - 1.0 if send_time is None else send_time,
        recv_time=recv_time,
        payload=payload,
        serial=next(_serial),
    )
    lp.deliver_event(event)
    return event


def drain(lp):
    while lp.execute_one():
        pass


class TestForwardExecution:
    def test_events_execute_in_key_order_across_objects(self):
        lp, objs, ids = build_lp()
        inject(lp, ids["b"], 3.0, ("note", "b3"))
        inject(lp, ids["a"], 1.0, ("note", "a1"))
        inject(lp, ids["a"], 2.0, ("note", "a2"))
        drain(lp)
        assert objs["a"].state.seen == ["a1", "a2"]
        assert objs["b"].state.seen == ["b3"]

    def test_clock_advances_with_work(self):
        lp, _, ids = build_lp()
        inject(lp, ids["a"], 1.0, ("note", 1))
        before = lp.clock
        drain(lp)
        assert lp.clock > before

    def test_intra_lp_send_delivered(self):
        lp, objs, ids = build_lp()
        inject(lp, ids["a"], 1.0, ("fwd", "x", "b"))
        drain(lp)
        assert objs["b"].state.seen == ["x"]


class TestRollback:
    def test_straggler_restores_order(self):
        lp, objs, ids = build_lp()
        inject(lp, ids["a"], 10.0, ("note", "late"))
        drain(lp)
        inject(lp, ids["a"], 5.0, ("note", "early"))
        drain(lp)
        assert objs["a"].state.seen == ["early", "late"]
        ctx = lp.members[ids["a"]]
        assert ctx.stats.rollbacks == 1
        assert ctx.stats.primary_rollbacks == 1

    def test_order_sensitive_state_is_repaired(self):
        lp, objs, ids = build_lp()
        for t in (10.0, 20.0, 30.0):
            inject(lp, ids["a"], t, ("ctr", t))
        drain(lp)
        inject(lp, ids["a"], 15.0, ("ctr", 15.0))
        drain(lp)
        assert objs["a"].state.seen == [
            (10.0, 0), (15.0, 1), (20.0, 2), (30.0, 3)
        ]

    def test_rollback_counts_rolled_events(self):
        lp, objs, ids = build_lp()
        for t in (10.0, 20.0, 30.0):
            inject(lp, ids["a"], t, ("note", t))
        drain(lp)
        inject(lp, ids["a"], 5.0, ("note", 5.0))
        drain(lp)
        assert lp.members[ids["a"]].stats.events_rolled_back == 3

    def test_coast_forward_with_sparse_checkpoints(self):
        lp, objs, ids = build_lp(chi=3)
        for t in (10.0, 20.0, 30.0, 40.0, 50.0):
            inject(lp, ids["a"], t, ("ctr", t))
        drain(lp)
        # Straggler at 45: restore must go back to the chi=3 snapshot
        # (after event at 30) and coast through 40.
        inject(lp, ids["a"], 45.0, ("ctr", 45.0))
        drain(lp)
        ctx = lp.members[ids["a"]]
        assert ctx.stats.coast_forward_events == 1
        assert objs["a"].state.seen == [
            (10.0, 0), (20.0, 1), (30.0, 2), (40.0, 3), (45.0, 4), (50.0, 5)
        ]

    def test_coast_forward_does_not_resend(self):
        lp, objs, ids = build_lp(chi=4)
        for t in (10.0, 20.0, 30.0):
            inject(lp, ids["a"], t, ("fwd", t, "b"))
        drain(lp)
        assert objs["b"].state.seen == [10.0, 20.0, 30.0]
        # Straggler before 30 forces a coast through 10 and 20; their
        # sends must not be duplicated at b.
        inject(lp, ids["a"], 25.0, ("note", "x"))
        drain(lp)
        assert sorted(objs["b"].state.seen) == [10.0, 20.0, 30.0]


class TestAggressiveCancellation:
    def test_undone_sends_are_cancelled(self):
        lp, objs, ids = build_lp(mode=Mode.AGGRESSIVE)
        inject(lp, ids["a"], 10.0, ("fwd", "v1", "b"))
        drain(lp)
        assert objs["b"].state.seen == ["v1"]
        # Straggler at a before 10 -> a re-executes fwd and resends; the
        # anti cancels the first copy, so b must see v1 exactly once (the
        # resent copy) plus nothing else.
        inject(lp, ids["a"], 5.0, ("note", "s"))
        drain(lp)
        assert objs["b"].state.seen == ["v1"]
        assert lp.members[ids["a"]].stats.antis_sent == 1

    def test_anti_cascades_roll_back_receiver(self):
        lp, objs, ids = build_lp(mode=Mode.AGGRESSIVE)
        inject(lp, ids["a"], 10.0, ("ctrfwd", "v", "b"))
        drain(lp)
        assert objs["b"].state.seen == [("v", 0)]
        inject(lp, ids["a"], 5.0, ("ctrfwd", "u", "b"))
        drain(lp)
        # Order-sensitive payload: after repair b sees u with counter 0
        # and v with counter 1.
        assert objs["b"].state.seen == [("u", 0), ("v", 1)]
        assert lp.members[ids["b"]].stats.secondary_rollbacks >= 1


class TestLazyCancellation:
    def test_identical_regeneration_is_suppressed(self):
        lp, objs, ids = build_lp(mode=Mode.LAZY)
        inject(lp, ids["a"], 10.0, ("fwd", "v1", "b"))
        drain(lp)
        inject(lp, ids["a"], 5.0, ("note", "s"))
        drain(lp)
        ctx = lp.members[ids["a"]]
        assert ctx.stats.lazy_hits == 1
        assert ctx.stats.antis_sent == 0
        assert ctx.stats.sends_suppressed == 1
        assert objs["b"].state.seen == ["v1"]

    def test_divergent_regeneration_cancels_original(self):
        lp, objs, ids = build_lp(mode=Mode.LAZY)
        inject(lp, ids["a"], 10.0, ("ctrfwd", "v", "b"))
        drain(lp)
        inject(lp, ids["a"], 5.0, ("ctrfwd", "u", "b"))
        drain(lp)
        ctx = lp.members[ids["a"]]
        assert ctx.stats.lazy_misses >= 1
        assert ctx.stats.antis_sent >= 1
        assert objs["b"].state.seen == [("u", 0), ("v", 1)]

    def test_idle_expiry_resolves_dangling_entries(self):
        lp, objs, ids = build_lp(mode=Mode.LAZY)
        event = inject(lp, ids["a"], 10.0, ("fwd", "v1", "b"))
        drain(lp)
        # Annihilate the cause event: a rolls back, parks the send, and
        # the cause will never re-execute.
        lp.deliver_event(event.anti_message())
        drain(lp)
        lp.on_idle()
        ctx = lp.members[ids["a"]]
        assert ctx.stats.lazy_misses == 1
        assert ctx.stats.antis_sent == 1
        assert objs["b"].state.seen == []


class TestAntiMessageHandling:
    def test_anti_for_unprocessed_annihilates_silently(self):
        lp, objs, ids = build_lp()
        event = inject(lp, ids["a"], 50.0, ("note", "x"))
        lp.deliver_event(event.anti_message())
        drain(lp)
        assert objs["a"].state.seen == []
        assert lp.members[ids["a"]].stats.rollbacks == 0

    def test_anti_before_positive_annihilates_on_arrival(self):
        lp, objs, ids = build_lp()
        event = Event(sender=EXTERNAL, receiver=ids["a"], send_time=1.0,
                      recv_time=2.0, payload=("note", "x"), serial=424242)
        lp.deliver_event(event.anti_message())
        lp.deliver_event(event)
        drain(lp)
        assert objs["a"].state.seen == []

    def test_anti_for_processed_causes_secondary_rollback(self):
        lp, objs, ids = build_lp()
        event = inject(lp, ids["a"], 10.0, ("ctr", "x"))
        inject(lp, ids["a"], 20.0, ("ctr", "y"))
        drain(lp)
        lp.deliver_event(event.anti_message())
        drain(lp)
        assert objs["a"].state.seen == [("y", 0)]
        assert lp.members[ids["a"]].stats.secondary_rollbacks == 1


class TestFossilCollection:
    def test_commits_and_prunes(self):
        lp, objs, ids = build_lp(chi=2)
        for t in (10.0, 20.0, 30.0, 40.0):
            inject(lp, ids["a"], t, ("note", t))
        drain(lp)
        committed = lp.fossil_collect(35.0)
        ctx = lp.members[ids["a"]]
        assert committed >= 1
        assert ctx.stats.events_committed == committed
        # a snapshot at or below GVT must survive for future rollbacks
        assert ctx.sq.entries[0].lvt < 35.0 or ctx.sq.entries[0].last_key is None

    def test_rollback_still_possible_after_fossil(self):
        lp, objs, ids = build_lp(chi=2)
        for t in (10.0, 20.0, 30.0, 40.0):
            inject(lp, ids["a"], t, ("ctr", t))
        drain(lp)
        lp.fossil_collect(25.0)
        inject(lp, ids["a"], 27.0, ("ctr", 27.0))
        drain(lp)
        seen = objs["a"].state.seen
        assert seen[-3:] == [(27.0, 2), (30.0, 3), (40.0, 4)]

    def test_final_commit_flushes_everything(self):
        lp, objs, ids = build_lp()
        for t in (10.0, 20.0):
            inject(lp, ids["a"], t, ("note", t))
        drain(lp)
        committed = lp.fossil_collect(float("inf"), final=True)
        assert committed == 2
        assert lp.members[ids["a"]].iq.processed == []


class TestLocalMin:
    def test_reflects_unprocessed_events(self):
        lp, _, ids = build_lp()
        assert lp.local_min() == float("inf")
        inject(lp, ids["a"], 42.0, ("note", "x"))
        assert lp.local_min() == 42.0

    def test_reflects_pending_lazy_antis(self):
        lp, _, ids = build_lp(mode=Mode.LAZY)
        inject(lp, ids["a"], 10.0, ("fwd", "v", "b"))
        drain(lp)
        # b's event at 20 is unprocessed; roll a back so the send parks.
        inject(lp, ids["a"], 5.0, ("note", "s"))
        # before draining, a's pending lazy entry (recv 20) and the
        # unprocessed events bound local_min
        assert lp.local_min() <= 20.0


class TestOptimismBound:
    def test_next_work_respects_bound(self):
        lp, objs, ids = build_lp()
        inject(lp, ids["a"], 10.0, ("note", "x"))
        inject(lp, ids["a"], 100.0, ("note", "y"))
        lp.optimism_bound = 50.0
        drain(lp)
        assert objs["a"].state.seen == ["x"]
        # the blocked event is still pending work for termination purposes
        assert not lp.has_work()
        assert lp.has_work(ignore_window=True)

    def test_raising_bound_unblocks(self):
        lp, objs, ids = build_lp()
        inject(lp, ids["a"], 100.0, ("note", "y"))
        lp.optimism_bound = 50.0
        drain(lp)
        assert objs["a"].state.seen == []
        lp.optimism_bound = 200.0
        drain(lp)
        assert objs["a"].state.seen == ["y"]

    def test_end_time_still_wins(self):
        lp, objs, ids = build_lp()
        lp.end_time = 50.0
        lp.optimism_bound = 1_000.0
        inject(lp, ids["a"], 100.0, ("note", "beyond"))
        drain(lp)
        assert objs["a"].state.seen == []
        assert not lp.has_work(ignore_window=True)


class TestReceivePath:
    def test_receive_physical_charges_and_delivers(self):
        lp, objs, ids = build_lp()
        from repro.kernel.event import Event

        events = tuple(
            Event(sender=EXTERNAL, receiver=ids["a"], send_time=0.0,
                  recv_time=float(t), payload=("note", t), serial=5000 + t)
            for t in (1, 2, 3)
        )
        before = lp.clock
        lp.receive_physical(500, events)
        assert lp.clock > before
        assert lp.stats.physical_messages_received == 1
        assert lp.stats.remote_events_received == 3
        drain(lp)
        assert objs["a"].state.seen == [1, 2, 3]

    def test_unknown_receiver_rejected(self):
        lp, _, _ = build_lp()
        from repro.kernel.errors import SchedulingError
        from repro.kernel.event import Event

        stray = Event(sender=EXTERNAL, receiver=999, send_time=0.0,
                      recv_time=1.0, payload=None, serial=1)
        import pytest

        with pytest.raises(SchedulingError):
            lp.deliver_event(stray)


class TestReadyHeap:
    def test_readopted_context_is_scheduled_again(self):
        lp, objs, ids = build_lp()
        inject(lp, ids["a"], 5.0, ("note", "x"))
        assert lp.next_work().oid == ids["a"]
        ctx = lp.release(ids["a"])
        assert lp.next_work() is None
        lp.adopt(ctx)
        assert lp.next_work() is ctx
        drain(lp)
        assert objs["a"].state.seen == ["x"]


class TestSchedulingScales:
    """Work counters, not timings: scheduling must not go back to peeking
    every member per event, and saved states must not be re-measured."""

    @pytest.mark.parametrize("fastpath", [
        "python",
        pytest.param("numpy", marks=pytest.mark.skipif(
            not HAVE_NUMPY, reason="numpy core needs numpy")),
    ])
    def test_peeks_and_size_calls_per_event(self, monkeypatch, fastpath):
        counts = {"peeks": 0, "sizes": 0}

        def counted(fn, name):
            def wrapper(self):
                counts[name] += 1
                return fn(self)
            return wrapper

        for queue_cls in (InputQueue, ArrayInputQueue):
            monkeypatch.setattr(queue_cls, "peek_next_entry", counted(
                queue_cls.peek_next_entry, "peeks"))
        monkeypatch.setattr(PHOLDState, "size_bytes", counted(
            PHOLDState.size_bytes, "sizes"))

        members = 100
        objects = flatten(build_phold(PHOLDParams(
            n_objects=members, n_lps=1, jobs_per_object=2, seed=5)))
        config = SimulationConfig(end_time=1_000.0, fastpath=fastpath)
        stats = TimeWarpSimulation([objects], config).run()

        assert stats.executed_events > 10 * members
        assert stats.gvt_rounds > 5
        # a scan of every member would peek >= 100 times per event
        assert counts["peeks"] <= 3 * stats.executed_events
        # one measurement per save, snapshot zero included
        assert counts["sizes"] <= stats.state_saves + members
