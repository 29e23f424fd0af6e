"""Per-layer spans, recorded from outside the program.

:func:`install` replaces public functions and methods of each layer with
timing wrappers, patched where the program looks them up (a class
attribute, or a module global such as ``repro.parallel.worker.encode_batch``).
Every wrapper pushes a span on one stack, so a layer's *self* time is its
span's duration minus the time of the spans nested inside it.  Spans stay
in memory as per-bucket totals; only a finished worker writes them out.

Wrappers installed before ``run()`` are inherited by the parallel
backend's forked workers.  The wrapped ``worker_main`` clears the tallies
it inherited, times the worker's lifetime, and writes the worker's
tallies to a JSON file when the worker ends.
"""

from __future__ import annotations

import json
import multiprocessing.queues
import os
import time
from collections import defaultdict
from pathlib import Path

#: span name of ``LogicalProcess.deliver_event``: work run beneath it
#: (restores, coast-forward re-execution) belongs to a rollback
DELIVER = "kernel.deliver"


class LayerTrace:
    """Span stack and per-bucket totals of one process."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        #: open spans, innermost last: [name, time covered by children]
        self.stack: list[list] = []
        #: wall time covered by outermost spans
        self.covered_s = 0.0

    def reset(self) -> None:
        self.self_s.clear()
        self.incl_s.clear()
        self.counts.clear()
        self.stack.clear()
        self.covered_s = 0.0

    def tallies(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "counts": dict(self.counts),
            "covered_s": self.covered_s,
        }

    # ------------------------------------------------------------------ #
    def span(self, fn, name: str, classify=None):
        """Wrap ``fn`` in a span.  ``classify(parent, args)`` may rename
        the span by its caller's span (``parent`` is None at top level)."""
        stack = self.stack
        self_s = self.self_s
        incl_s = self.incl_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            bucket = name
            if classify is not None:
                bucket = classify(stack[-1][0] if stack else None, args)
            frame = [bucket, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[bucket] += elapsed - frame[1]
                incl_s[bucket] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.covered_s += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, fn, name: str):
        """Wrap ``fn`` so each call adds one to ``name`` (no timing)."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


# --------------------------------------------------------------------- #
# installation
# --------------------------------------------------------------------- #
def _patch(owner, attr: str, make) -> None:
    setattr(owner, attr, make(getattr(owner, attr)))


def _defining_class(cls: type, attr: str) -> type:
    for klass in cls.__mro__:
        if attr in vars(klass):
            return klass
    raise AttributeError(f"{cls.__name__} has no {attr}")


def install(trace: LayerTrace, objects, tally_dir: Path) -> None:
    """Wrap every layer boundary the benchmark reports.

    ``objects`` are the model's simulation objects: their classes give
    the application's ``execute_process`` and state ``size_bytes``.
    Worker tallies are written into ``tally_dir``.
    """
    from repro import DynamicCancellation, DynamicCheckpoint, SAAWPolicy
    from repro.cluster.executive import Executive
    from repro.comm.message import PhysicalMessage
    from repro.comm.transport import CommModule
    from repro.gvt.manager import OmniscientGVT
    from repro.gvt.mattern import MatternGVT
    from repro.kernel import arena, queues, state
    from repro.kernel.lp import LogicalProcess
    from repro.parallel import backend, worker
    from repro.parallel.gvt import GvtCoordinator
    from repro.parallel.shm import ShmRing

    span, counter = trace.span, trace.counter
    counts = trace.counts

    def timed(name, classify=None):
        return lambda fn: span(fn, name, classify)

    # -- kernel -------------------------------------------------------- #
    _patch(LogicalProcess, "next_work", timed("kernel.sched"))
    _patch(LogicalProcess, "execute_one", timed("kernel.execute"))
    _patch(LogicalProcess, "deliver_event", timed(DELIVER))
    _patch(LogicalProcess, "fossil_collect", timed("kernel.fossil"))
    _patch(LogicalProcess, "local_min", timed("gvt.local_min"))
    for queue_cls in (queues.InputQueue, arena.ArrayInputQueue):
        _patch(queue_cls, "peek_next_entry",
               lambda fn: counter(fn, "kernel.peeks"))
        _patch(queue_cls, "rollback", timed("kernel.rollback"))
    _patch(queues.StateQueue, "restore_for", timed("kernel.rollback"))
    _patch(queues.OutputQueue, "rollback", timed("kernel.rollback"))
    _patch(queues.StateQueue, "save", timed("kernel.save"))

    def restore_or_save(parent, _args):
        # a snapshot taken under a delivery restores a rolled-back state
        return "kernel.rollback" if parent == DELIVER else "kernel.save"

    for strategy in (state.CopySnapshot, state.PickleSnapshot,
                     state.DeepcopySnapshot, state.ArraySnapshot):
        _patch(strategy, "snapshot", timed("kernel.save", restore_or_save))

    def counted_size(fn):
        def size_bytes(self):
            counts["kernel.size_calls"] += 1
            return fn(self)
        return span(size_bytes, "kernel.size")

    def coast_or_forward(parent, _args):
        if parent == DELIVER:
            counts["kernel.coast_events"] += 1
            return "kernel.coast"
        return "apps.execute"

    wrapped: set[tuple[type, str]] = set()
    for obj in objects:
        targets = (
            (_defining_class(type(obj), "execute_process"), "execute_process",
             timed("apps.execute", coast_or_forward)),
            (_defining_class(type(obj.initial_state()), "size_bytes"),
             "size_bytes", counted_size),
        )
        for owner, attr, make in targets:
            if (owner, attr) not in wrapped:
                wrapped.add((owner, attr))
                _patch(owner, attr, make)

    # -- comm ------------------------------------------------------------ #
    for attr in ("enqueue", "flush_due", "flush_all"):
        _patch(CommModule, attr, timed("comm.send"))
    _patch(LogicalProcess, "receive_physical", timed("comm.recv"))
    _patch(PhysicalMessage, "size_bytes", timed("comm.msg_size"))

    # -- cluster executive and GVT --------------------------------------- #
    _patch(Executive, "run", timed("cluster.dispatch"))

    def counted_round(fn):
        def round_(*args, **kwargs):
            counts["gvt.rounds"] += 1
            return fn(*args, **kwargs)
        return span(round_, "gvt.round")

    _patch(OmniscientGVT, "start_round", counted_round)
    _patch(MatternGVT, "start_round", counted_round)
    _patch(GvtCoordinator, "run_round", counted_round)

    # -- core: the on-line controllers ----------------------------------- #
    def controller(before):
        def make(fn):
            def control(*args, **kwargs):
                in_force = before(args)
                result = fn(*args, **kwargs)
                counts["core.invocations"] += 1
                if result != in_force:
                    counts["core.moves"] += 1
                return result
            return span(control, "core.control")
        return make

    _patch(DynamicCheckpoint, "control", controller(lambda a: a[0].interval))
    _patch(DynamicCancellation, "control", controller(lambda a: a[0].mode))
    # next_window(self, sent_count, age, window): the window in force
    _patch(SAAWPolicy, "next_window", controller(lambda a: a[3]))

    # -- parallel backend -------------------------------------------------- #
    _patch(worker, "encode_batch", timed("parallel.encode"))
    _patch(worker, "decode_batch", timed("parallel.decode"))

    def counted_push(fn):
        def try_push(self, payload):
            counts["parallel.push_attempts"] += 1
            pushed = fn(self, payload)
            if not pushed:
                counts["parallel.push_full"] += 1
            return pushed
        return span(try_push, "parallel.push")

    _patch(ShmRing, "try_push", counted_push)

    # -- partitioning (set-up of the parallel backend) -------------------- #
    _patch(backend, "profile_model", timed("partition.profile"))
    kl = backend.kernighan_lin
    timed_kl = span(kl, "partition.kl")
    backend.kernighan_lin = timed_kl
    # resolve_strategy looks strategies up by name in this table and
    # compares the entry with the module global; keep the two identical
    table = getattr(backend, "_STRATEGIES", {})
    for key, value in table.items():
        if value is kl:
            table[key] = timed_kl

    _patch(backend, "worker_main",
           lambda fn: _traced_worker_main(fn, trace, tally_dir))


def _traced_worker_main(fn, trace: LayerTrace, tally_dir: Path):
    def worker_main(shard_id, *args, **kwargs):
        trace.reset()  # drop the tallies inherited from the parent
        # Only workers block on an inbox; the coordinator's report waits
        # belong to its GVT round span.
        _patch(multiprocessing.queues.Queue, "get",
               lambda get: trace.span(get, "parallel.inbox_wait", _blocking))
        started = time.perf_counter()
        try:
            fn(shard_id, *args, **kwargs)
        finally:
            record = trace.tallies()
            record["shard"] = shard_id
            record["lifetime_s"] = time.perf_counter() - started
            path = tally_dir / f"shard-{shard_id}-{os.getpid()}.json"
            path.write_text(json.dumps(record))

    return worker_main


def _blocking(_parent, args) -> str:
    # Queue.get(self, block=True, timeout=None); get_nowait() is get(False)
    block = args[1] if len(args) > 1 else True
    return "parallel.inbox_wait" if block else "comm.recv"


def read_worker_tallies(tally_dir: Path) -> list[dict]:
    return [
        json.loads(path.read_text())
        for path in sorted(tally_dir.glob("shard-*.json"))
    ]
