"""Packed wire codec and shm ring-buffer tests (docs/parallel.md).

The codec's contract is exact round-trip: ``decode_batch(encode_batch())``
must reproduce every event field bit-identically, because the parallel
backend's differential validation compares committed results against the
sequential golden byte-for-byte.  The ring's contract is FIFO byte-exact
delivery across wraparound with honest backpressure (``try_push`` ->
``False`` on full, never a corrupted frame).
"""

import multiprocessing

import pytest

from repro.comm.message import MessageKind, PhysicalMessage
from repro.kernel.config import SimulationConfig
from repro.kernel.errors import ConfigurationError
from repro.kernel.event import Event
from repro.parallel.shm import (
    RING_CAPACITY,
    RingRecordTooLarge,
    ShmRing,
    shm_wire_supported,
)
from repro.parallel.wire import (
    WIRE_VERSION,
    WireEncodeError,
    WireFormatError,
    decode_batch,
    encode_batch,
)
from repro.verify import Scenario, run_scenario
from repro.verify.lattice import validation_scenario

#: the phold workload the parallel validation runs (``repro-bench parallel``)
PHOLD = Scenario(app="phold", end_time=300.0)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel backend requires the fork start method",
)

needs_tso = pytest.mark.skipif(
    not shm_wire_supported(),
    reason="shm wire requires x86-TSO store ordering",
)


def _event(serial=0, payload=None, sign=1, sender=3, receiver=7,
           send_time=1.5, recv_time=2.5):
    return Event(sender=sender, receiver=receiver, send_time=send_time,
                 recv_time=recv_time, payload=payload, serial=serial,
                 sign=sign)


def _batch(events, *, stamp=0, src_lp=3, dst_lp=7, src_shard=0):
    message = PhysicalMessage(src_lp=src_lp, dst_lp=dst_lp,
                              kind=MessageKind.DATA, events=tuple(events))
    return src_shard, ((stamp, message),)


def _roundtrip(events, **kwargs):
    src_shard, envelopes = _batch(events, **kwargs)
    batch = decode_batch(encode_batch(src_shard, envelopes))
    assert batch.src_shard == src_shard
    return batch


class TestCodecRoundTrip:
    @pytest.mark.parametrize("payload", [
        None, False, True, 0, -1, 2**62, -(2**62), 0.0, -0.25, 1e300,
        "", "hello", "uniçøde \U0001f600", b"", b"\x00\xff" * 9,
        (), (1, "two", 3.0, None, (True, b"x"))
    ])
    def test_payload_types(self, payload):
        batch = _roundtrip([_event(payload=payload)])
        (_stamp, message), = batch.envelopes
        assert message.events[0].payload == payload
        assert type(message.events[0].payload) is type(payload)

    @pytest.mark.parametrize("payload", [
        2**70, -(2**70),          # outside i64: pickle escape hatch
        {"a": 1},                 # dict: not inline-encodable
        frozenset({1, 2}),
    ])
    def test_escape_hatch_payloads(self, payload):
        batch = _roundtrip([_event(payload=payload)])
        (_stamp, message), = batch.envelopes
        assert message.events[0].payload == payload

    def test_event_fields_exact(self):
        events = [
            _event(serial=s, sign=-1 if s % 3 == 0 else 1,
                   send_time=s * 0.1, recv_time=s * 0.1 + 0.7,
                   payload=s)
            for s in range(40)  # > _NP_MIN_EVENTS: numpy block path
        ]
        batch = _roundtrip(events, stamp=5, src_lp=2, dst_lp=9, src_shard=1)
        (stamp, message), = batch.envelopes
        assert stamp == 5
        assert (message.src_lp, message.dst_lp) == (2, 9)
        assert message.kind is MessageKind.DATA
        for original, decoded in zip(events, message.events):
            assert decoded == original  # dataclass eq over every field
            assert decoded.serial == original.serial
            assert decoded.sign == original.sign

    def test_small_batch_struct_path_matches_large_numpy_path(self):
        # the two _pack_block paths must produce interchangeable bytes
        small = [_event(serial=s) for s in range(4)]
        large = [_event(serial=s) for s in range(64)]
        for events in (small, large):
            batch = _roundtrip(events)
            (_stamp, message), = batch.envelopes
            assert [e.serial for e in message.events] == \
                [e.serial for e in events]

    def test_multiple_envelopes(self):
        messages = tuple(
            (stamp, PhysicalMessage(
                src_lp=stamp, dst_lp=stamp + 1, kind=MessageKind.DATA,
                events=(_event(serial=stamp, payload=f"e{stamp}"),),
            ))
            for stamp in range(5)
        )
        batch = decode_batch(encode_batch(2, messages))
        assert len(batch.envelopes) == 5
        for stamp, message in batch.envelopes:
            assert message.src_lp == stamp
            assert message.events[0].payload == f"e{stamp}"

    def test_decode_accepts_memoryview(self):
        src_shard, envelopes = _batch([_event(payload="mv")])
        frame = memoryview(encode_batch(src_shard, envelopes))
        (_stamp, message), = decode_batch(frame).envelopes
        assert message.events[0].payload == "mv"


class TestCodecRejections:
    def test_control_message_is_not_encodable(self):
        message = PhysicalMessage(src_lp=0, dst_lp=1, kind=MessageKind.DATA,
                                  events=(), control={"x": 1})
        with pytest.raises(WireEncodeError):
            encode_batch(0, ((0, message),))

    def test_non_data_kind_is_not_encodable(self):
        message = PhysicalMessage(src_lp=0, dst_lp=1,
                                  kind=MessageKind.GVT_TOKEN)
        with pytest.raises(WireEncodeError):
            encode_batch(0, ((0, message),))

    def test_oversized_lp_id_falls_back(self):
        message = PhysicalMessage(src_lp=2**40, dst_lp=1,
                                  kind=MessageKind.DATA,
                                  events=(_event(),))
        with pytest.raises(WireEncodeError):
            encode_batch(0, ((0, message),))

    def test_bad_magic_rejected(self):
        src_shard, envelopes = _batch([_event()])
        frame = bytearray(encode_batch(src_shard, envelopes))
        frame[0] ^= 0xFF
        with pytest.raises(WireFormatError, match="magic"):
            decode_batch(bytes(frame))

    def test_future_version_rejected_not_misread(self):
        # the versioning rule: unknown versions refuse loudly
        src_shard, envelopes = _batch([_event()])
        frame = bytearray(encode_batch(src_shard, envelopes))
        frame[2] = WIRE_VERSION + 1
        with pytest.raises(WireFormatError, match="version"):
            decode_batch(bytes(frame))

    def test_unknown_frame_kind_rejected(self):
        src_shard, envelopes = _batch([_event()])
        frame = bytearray(encode_batch(src_shard, envelopes))
        frame[3] = 99
        with pytest.raises(WireFormatError, match="kind"):
            decode_batch(bytes(frame))


@pytest.fixture()
def ring():
    r = ShmRing.create(1 << 12)
    yield r
    r.destroy()


class TestShmRing:
    def test_fifo_byte_exact(self, ring):
        records = [bytes([i]) * (i + 1) for i in range(50)]
        for record in records:
            assert ring.try_push(record)
        popped = []
        while (record := ring.try_pop()) is not None:
            popped.append(record)
        assert popped == records
        assert ring.empty

    def test_wraparound_preserves_order(self, ring):
        # records sized so the write offset crosses the physical end
        # many times; every byte must still come out in order
        record = bytes(range(256)) * 3  # 768 B in a 4 KiB ring
        for round_no in range(40):
            payload = bytes([round_no]) + record
            assert ring.try_push(payload)
            assert ring.try_pop() == payload

    def test_interleaved_wraparound(self, ring):
        pushed = []
        popped = []
        sizes = [700, 13, 421, 999, 64, 1, 333]
        seq = 0
        for _ in range(30):
            for size in sizes:
                payload = seq.to_bytes(4, "little") * (size // 4 + 1)
                if ring.try_push(payload):
                    pushed.append(payload)
                    seq += 1
                else:
                    record = ring.try_pop()
                    assert record is not None
                    popped.append(record)
        while (record := ring.try_pop()) is not None:
            popped.append(record)
        assert popped == pushed

    def test_full_ring_backpressure(self, ring):
        record = b"x" * 1000
        accepted = 0
        while ring.try_push(record):
            accepted += 1
        assert accepted >= 3  # 4 KiB ring, ~1 KiB records
        assert not ring.try_push(record)  # still full, still honest
        assert ring.try_pop() == record
        assert ring.try_push(record)  # space reclaimed after a pop

    def test_record_too_large_raises(self, ring):
        with pytest.raises(RingRecordTooLarge):
            ring.try_push(b"y" * (ring.max_record + 1))

    def test_max_record_pushable_at_any_offset(self):
        # Regression: with max_record > capacity//2 a large record could
        # land at an offset where neither the straight run nor the wrap
        # path ever fits — permanently unpushable on an *empty* ring
        # (e.g. a 700-byte record at offset 600 of a 1024-byte ring).
        ring = ShmRing.create(1024)
        try:
            big = b"m" * ring.max_record
            # walk the write offset all around the ring
            for size in range(1, ring.max_record + 1, 7):
                filler = b"f" * size
                assert ring.try_push(filler)
                assert ring.try_pop() == filler
                assert ring.empty
                assert ring.try_push(big), f"wedged after {size}B filler"
                assert ring.try_pop() == big
        finally:
            ring.destroy()

    def test_pop_empty_returns_none(self, ring):
        assert ring.try_pop() is None
        assert ring.empty

    def test_waiting_flag_handshake(self, ring):
        assert not ring.take_waiting()  # nothing armed
        ring.set_waiting()
        assert ring.take_waiting()      # producer test-and-clears
        assert not ring.take_waiting()  # exactly once
        ring.set_waiting()
        ring.clear_waiting()
        assert not ring.take_waiting()

    def test_default_capacity_ring(self):
        ring = ShmRing.create()
        try:
            assert ring.capacity == RING_CAPACITY
            assert ring.try_push(b"z" * ring.max_record)
            assert ring.try_pop() == b"z" * ring.max_record
        finally:
            ring.destroy()

    def test_unusably_small_capacity_rejected(self):
        with pytest.raises(ValueError):
            ShmRing.create(16)


class TestShmWireSupported:
    @pytest.mark.parametrize("machine", ["x86_64", "AMD64", "amd64", "i686"])
    def test_tso_machines(self, machine):
        assert shm_wire_supported(machine)

    @pytest.mark.parametrize("machine", ["aarch64", "arm64", "ppc64le",
                                         "riscv64", "s390x", ""])
    def test_weakly_ordered_machines(self, machine):
        assert not shm_wire_supported(machine)


class TestBackpressureFallback:
    """A full ring that never drains must not wedge the producer."""

    def test_send_batch_gives_up_on_stuck_ring(self, monkeypatch):
        from repro.parallel import worker as worker_mod
        from repro.parallel.ipc import DataBatch

        monkeypatch.setattr(worker_mod, "_BACKPRESSURE_YIELDS", 2)
        monkeypatch.setattr(worker_mod, "_BACKPRESSURE_MAX_WAITS", 3)
        monkeypatch.setattr(worker_mod, "BACKPRESSURE_WAIT_S", 0.0)

        ring = ShmRing.create(1 << 12)
        try:
            while ring.try_push(b"j" * 1000):
                pass
            while ring.try_push(b"j"):
                pass  # dead-consumer ring: brim-full, never drained

            class _Sink:
                def __init__(self):
                    self.items = []

                def put(self, item):
                    self.items.append(item)

            sink = _Sink()
            stub = type("StubRuntime", (), {})()
            stub.shard_id = 0
            stub._rings_out = {1: ring}
            stub._absorb_rings = lambda: 0
            stub.out_queues = {1: sink}
            stub._frames_sent = 0
            stub._ring_bytes_sent = 0
            stub._wire_fallbacks = 0

            _src, envelopes = _batch([_event(payload="stuck")])
            worker_mod._ShardRuntime._send_batch(stub, 1, envelopes)

            assert stub._wire_fallbacks == 1
            assert stub._frames_sent == 0
            (fallback,) = sink.items
            assert isinstance(fallback, DataBatch)
            assert fallback.envelopes == envelopes
        finally:
            ring.destroy()


class TestWireConfig:
    def test_default_is_shm(self):
        assert SimulationConfig().wire == "shm"

    def test_unknown_wire_rejected(self):
        config = SimulationConfig(wire="carrier-pigeon")
        with pytest.raises(ConfigurationError, match="wire"):
            config.validate()

    @pytest.mark.parametrize("wire", ["shm", "queue"])
    def test_known_wires_validate(self, wire):
        SimulationConfig(wire=wire).validate()


@needs_fork
class TestWireParity:
    """Both wires must commit the identical sequential-golden result."""

    @pytest.mark.parametrize("wire", [
        pytest.param("shm", marks=needs_tso), "queue",
    ])
    def test_differential_matches_golden(self, wire):
        result = run_scenario(validation_scenario(
            "phold", backend="parallel", workers=2, wire=wire
        ))
        assert result.ok, result.describe()
        assert result.raw["wire"] == wire
        assert f"wire={wire}" in result.describe()

    @needs_tso
    def test_shm_run_reports_ring_traffic(self):
        from repro.parallel.backend import ParallelSimulation

        build, end_time = PHOLD.build_partition, PHOLD.end_time
        config = SimulationConfig(backend="parallel", workers=2,
                                  end_time=end_time, wire="shm")
        sim = ParallelSimulation.from_builder(build, config)
        sim.run()
        assert sim.wire == "shm"
        assert sim.wire_stats["frames_sent"] > 0
        assert sim.wire_stats["ring_bytes_sent"] > 0

    def test_single_worker_degrades_to_queue(self):
        from repro.parallel.backend import ParallelSimulation

        build, end_time = PHOLD.build_partition, PHOLD.end_time
        config = SimulationConfig(backend="parallel", workers=1,
                                  end_time=end_time, wire="shm")
        sim = ParallelSimulation.from_builder(build, config)
        sim.run()
        assert sim.wire == "queue"  # no shard pairs, no rings

    def test_non_tso_machine_degrades_to_queue(self, monkeypatch):
        from repro.parallel import backend as backend_mod

        monkeypatch.setattr(backend_mod, "shm_wire_supported", lambda: False)
        build, end_time = PHOLD.build_partition, PHOLD.end_time
        config = SimulationConfig(backend="parallel", workers=2,
                                  end_time=end_time, wire="shm")
        sim = backend_mod.ParallelSimulation.from_builder(build, config)
        sim.run()
        assert sim.wire == "queue"
        assert sim.wire_stats["frames_sent"] == 0
