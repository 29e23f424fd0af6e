"""Micro-benchmarks of the kernel's hot paths (pytest-benchmark proper).

These track the *real* (wall-clock) cost of the reproduction's inner
loops — event execution, state checkpointing, rollback, queue operations
— so performance regressions in the kernel itself are visible
independently of the modelled results.
"""

from repro import SequentialSimulation, SimulationConfig, TimeWarpSimulation
from repro.apps.phold import PHOLDParams, build_phold
from repro.apps.pingpong import build_pingpong
from repro.apps.smmp import SMMPParams, build_smmp
from repro.kernel.event import Event
from repro.kernel.queues import InputQueue
from tests.helpers import flatten, make_event


def test_micro_sequential_event_loop(benchmark):
    """Sequential kernel throughput (events/second of real time)."""

    def run():
        seq = SequentialSimulation(
            flatten(build_smmp(SMMPParams(requests_per_processor=20)))
        )
        seq.run()
        return seq.events_executed

    events = benchmark(run)
    assert events > 1000


def test_micro_timewarp_no_rollback(benchmark):
    """Time Warp overhead on a rollback-free workload (pingpong)."""

    def run():
        sim = TimeWarpSimulation(build_pingpong(400), SimulationConfig())
        return sim.run().committed_events

    committed = benchmark(run)
    assert committed == 400


def test_micro_timewarp_with_rollbacks(benchmark):
    """Time Warp throughput under real rollback pressure (PHOLD, skewed)."""

    params = PHOLDParams(n_objects=12, n_lps=4, jobs_per_object=2)

    def run():
        config = SimulationConfig(
            end_time=2_000.0, lp_speed_factors={1: 1.3, 2: 1.6, 3: 2.0}
        )
        stats = TimeWarpSimulation(build_phold(params), config).run()
        assert stats.rollbacks > 0
        return stats.executed_events

    executed = benchmark(run)
    assert executed > 1000


def test_micro_input_queue_ops(benchmark):
    """Insert + pop throughput of the event heap."""

    events = [make_event(recv_time=float((i * 7919) % 1000), serial=i)
              for i in range(2000)]

    def run():
        q = InputQueue()
        for e in events:
            q.insert_positive(e)
        n = 0
        while q.peek_next() is not None:
            q.pop_next()
            n += 1
        return n

    assert benchmark(run) == 2000


def test_micro_rollback_storm(benchmark):
    """Rollback machinery cost: repeated deep rollbacks on one object."""

    from repro.cluster.costmodel import CostModel
    from repro.kernel.cancellation import Mode, StaticCancellation
    from repro.kernel.checkpointing import StaticCheckpoint
    from repro.kernel.lp import LogicalProcess
    from repro.kernel.simobject import SimulationObject
    from repro.kernel.state import RecordState
    from dataclasses import dataclass, field

    @dataclass
    class S(RecordState):
        log: list = field(default_factory=list)

    class Obj(SimulationObject):
        def initial_state(self):
            return S()

        def execute_process(self, payload):
            self.state.log.append(payload)

    def run():
        lp = LogicalProcess(0, CostModel(), resolve_name=lambda n: 0,
                            lp_of=lambda o: 0)
        lp.attach(Obj("o"), 0,
                  cancel_policy=StaticCancellation(Mode.AGGRESSIVE),
                  ckpt_policy=StaticCheckpoint(4))
        lp.initialize()
        serial = 0
        for wave in range(10):
            base = 1000.0 - wave * 100.0  # each wave is a deep straggler
            for i in range(30):
                lp.deliver_event(Event(
                    sender=99, receiver=0, send_time=base + i,
                    recv_time=base + i + 1, payload=i, serial=serial,
                ))
                serial += 1
            while lp.execute_one():
                pass
        return lp.members[0].stats.rollbacks

    rollbacks = benchmark(run)
    assert rollbacks == 9


def _numpy_or_skip():
    import pytest

    from repro.kernel.arena import HAVE_NUMPY

    if not HAVE_NUMPY:
        pytest.skip("numpy fast path unavailable in this environment")


def test_micro_queue_insert_batch(benchmark):
    """Bulk column-fill insert into the array queue (numpy fast path)."""

    _numpy_or_skip()
    from repro.kernel.arena import ArrayInputQueue, EventArena

    events = [make_event(recv_time=float((i * 7919) % 1000), serial=i)
              for i in range(2000)]

    def run():
        q = ArrayInputQueue(EventArena())
        q.insert_batch(events)
        n = 0
        while q.peek_next() is not None:
            q.pop_next()
            n += 1
        return n

    assert benchmark(run) == 2000


def test_micro_annihilate_scan(benchmark):
    """Vectorized anti-message matching over the arena columns."""

    _numpy_or_skip()
    from repro.kernel.arena import ArrayInputQueue, EventArena

    events = [make_event(recv_time=float((i * 7919) % 1000), serial=i)
              for i in range(2000)]
    antis = [e.anti_message() for e in events[::2]]

    def run():
        q = ArrayInputQueue(EventArena())
        q.insert_batch(events)
        leftovers = q.annihilate_batch(antis)
        assert not leftovers
        return q.future_count()

    assert benchmark(run) == 1000


def test_micro_snapshot_array(benchmark):
    """Block ndarray.copy() checkpointing of an array-backed state."""

    _numpy_or_skip()
    import numpy as np

    from dataclasses import dataclass, field
    from repro.kernel.state import RecordState, resolve_snapshot_strategy

    @dataclass
    class S(RecordState):
        counter: int = 0
        table: object = None
        shards: list = field(default_factory=list)

    strategy = resolve_snapshot_strategy("array")
    state = S(counter=7, table=np.arange(4096, dtype=np.float64),
              shards=[np.arange(512, dtype=np.int64) for _ in range(4)])

    def run():
        total = 0
        for _ in range(50):
            clone = strategy.snapshot(state)
            total += clone.counter
        return total

    assert benchmark(run) == 350
