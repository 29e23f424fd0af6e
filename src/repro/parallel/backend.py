"""Process-sharded parallel execution backend.

:class:`ParallelSimulation` is the concurrent sibling of
:class:`~repro.kernel.kernel.TimeWarpSimulation`: same partition-of-objects
input, same ``run() -> RunStats`` output, but the LPs execute in separate
OS processes (one LP per worker — the process boundary is the address
space the paper's LP abstraction stands for).  Inter-shard events travel
behind the DyMA aggregation buffers as packed binary frames through
shared-memory SPSC rings (``wire="shm"``, the default; see
:mod:`repro.parallel.wire` and :mod:`repro.parallel.shm`) or as pickled
batches over ``multiprocessing`` queues (``wire="queue"``, the pure
fallback); the parent process runs Mattern-colour GVT rounds
(:mod:`repro.parallel.gvt`), drives fossil collection, detects
termination, and merges the per-shard statistics into one
:class:`~repro.stats.counters.RunStats`.

A parallel run is **not** tick-for-tick deterministic — OS scheduling
decides the rollback pattern — so correctness is enforced differentially
(:mod:`repro.verify.runner`): committed model counters and final
object states must match the sequential golden, and the invariant oracle
runs inside every worker.  See docs/parallel.md.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import queue as queue_mod
import random
import time
from pathlib import Path
from typing import Callable, Sequence

from ..kernel.config import SimulationConfig
from ..kernel.errors import ConfigurationError
from ..kernel.kernel import Partition
from ..kernel.simobject import SimulationObject
from ..oracle.invariants import InvariantViolation
from ..partition.graph import CommGraph, profile_model
from ..partition.rebalance import choose_moves
from ..partition.strategies import (
    greedy_growth,
    kernighan_lin,
    partition_quality,
    round_robin,
)
from ..stats.counters import RunStats
from .gvt import GvtCoordinator, RoundResult
from .shm import RING_CAPACITY, ShmRing, shm_wire_supported
from .ipc import (
    DrainAck,
    DrainProbe,
    GvtCommit,
    MigrateDone,
    PauseEpoch,
    Reconfigure,
    Resume,
    Retire,
    ShardDone,
    ShardError,
    ShardRetired,
    Stop,
)
from .worker import ShardPlan, worker_main

#: wait between all-idle rounds while termination drains, seconds
QUIET_SLEEP_S = 0.001

PartitionBuilder = Callable[[], Partition]

_STRATEGIES = {
    "round_robin": round_robin,
    "greedy_growth": greedy_growth,
    "kernighan_lin": kernighan_lin,
}


def resolve_strategy(spec) -> Callable[[CommGraph, int], dict[str, int]]:
    """Name or callable -> assignment strategy.

    ``"kernighan_lin"`` (the default everywhere) degrades to
    ``greedy_growth`` when networkx is unavailable, so the parallel
    backend works on a bare install.
    """
    if callable(spec):
        return spec
    try:
        strategy = _STRATEGIES[spec]
    except KeyError:
        raise ConfigurationError(
            f"unknown partition strategy {spec!r}; "
            f"available: {sorted(_STRATEGIES)}"
        ) from None
    if strategy is kernighan_lin:
        def kl_with_fallback(graph: CommGraph, n_lps: int) -> dict[str, int]:
            try:
                return kernighan_lin(graph, n_lps)
            except ImportError:
                return greedy_growth(graph, n_lps)
        return kl_with_fallback
    return strategy


class ParallelSimulation:
    """One Time Warp run sharded across ``config.workers`` processes."""

    def __init__(
        self,
        partition: Partition,
        config: SimulationConfig | None = None,
        *,
        shard_map: dict[str, int] | None = None,
        trace_dir: str | None = None,
        timeout_s: float = 120.0,
    ) -> None:
        self.config = config or SimulationConfig(backend="parallel")
        # Enforce the parallel-specific constraints even when the caller
        # constructed us directly with backend="modelled" in the config.
        dataclasses.replace(self.config, backend="parallel").validate()
        if not partition or not any(partition):
            raise ConfigurationError("partition must contain at least one object")
        self.workers = self.config.workers
        self.trace_dir = trace_dir
        if trace_dir is not None:
            # workers open shard-<n>.jsonl inside it before executing
            Path(trace_dir).mkdir(parents=True, exist_ok=True)
        self.timeout_s = timeout_s

        # --- directory (same walk as TimeWarpSimulation) ----------------
        # Object ids are assigned in partition flat order and NEVER by
        # shard, because the event total order tie-breaks on integer oids
        # (kernel/event.py EventKey): keeping oid order identical to a
        # sequential run over the same flattened partition makes the
        # committed result — including same-timestamp tie order — equal to
        # the sequential golden.  ``shard_map`` (object name -> shard)
        # overrides placement without perturbing oid order; without it,
        # groups map to shards 1:1 when counts match, else fold
        # round-robin so each modelled-LP group stays co-resident.
        self._objects: list[SimulationObject] = []
        self._name_to_oid: dict[str, int] = {}
        self._oid_to_shard: dict[int, int] = {}
        n_groups = len(partition)
        for group_index, group in enumerate(partition):
            group_shard = (
                group_index
                if n_groups == self.workers
                else group_index % self.workers
            )
            for obj in group:
                if obj.name in self._name_to_oid:
                    raise ConfigurationError(f"duplicate object name {obj.name!r}")
                if shard_map is not None:
                    try:
                        shard = shard_map[obj.name]
                    except KeyError:
                        raise ConfigurationError(
                            f"shard_map is missing object {obj.name!r}"
                        ) from None
                    if not 0 <= shard < self.workers:
                        raise ConfigurationError(
                            f"shard_map sends {obj.name!r} to shard {shard}, "
                            f"but workers={self.workers}"
                        )
                else:
                    shard = group_shard
                oid = len(self._objects)
                self._objects.append(obj)
                self._name_to_oid[obj.name] = oid
                self._oid_to_shard[oid] = shard
        hosted = set(self._oid_to_shard.values())
        if hosted != set(range(self.workers)):
            empty = sorted(set(range(self.workers)) - hosted)
            raise ConfigurationError(
                f"shard(s) {empty} would host no objects; "
                f"use fewer workers or more partition groups"
            )

        #: set by :meth:`from_builder` when a strategy chose the sharding
        self.assignment: dict[str, int] | None = None
        self.partition_quality: dict | None = None

        # --- elastic pool state (docs/parallel.md) -----------------------
        churn = self.config.churn or {}
        #: GVT-commit index -> scripted churn steps due at that commit
        self._churn_steps: dict[int, list[dict]] = {}
        for step in churn.get("steps", []):
            self._churn_steps.setdefault(step["at"], []).append(step)
        self._churn_rng = random.Random(churn.get("seed", 0))
        self._join_budget = sum(
            1
            for steps in self._churn_steps.values()
            for step in steps
            if step["kind"] == "join"
        )
        self._epoch = 0
        self._commits = 0
        self._next_shard = self.workers
        self._retired_payloads: dict[int, dict] = {}
        #: (GVT-commit index, active worker count) — grows on join/leave;
        #: BENCH provenance and compare_documents key off this timeline
        self.worker_timeline: list[tuple[int, int]] = [(0, self.workers)]
        self.migrations_in = 0
        self.migrations_out = 0
        self.churn_executed = 0
        self.churn_skipped = 0

        #: the wire actually used, resolved at run(): config.wire, with
        #: "shm" degrading to "queue" if shared memory is unavailable,
        #: the run has a single worker, or the CPU lacks the x86-TSO
        #: store ordering the ring protocol relies on (shm_wire_supported)
        self.wire = self.config.wire
        self._rings: dict[tuple[int, int], ShmRing] | None = None
        #: merged per-shard wire counters (frames, fallbacks) after run()
        self.wire_stats: dict[str, int] = {
            "frames_sent": 0,
            "frames_received": 0,
            "ring_bytes_sent": 0,
            "wire_fallbacks": 0,
        }

        # --- run results -------------------------------------------------
        self.stats: RunStats | None = None
        self.final_states: dict[str, object] = {}
        self.violations: list[tuple[int, InvariantViolation]] = []
        self.oracle_checks = 0
        self.wall_s = 0.0
        self.gvt_rounds_run = 0
        self.gvt_passes_run = 0
        self._ran = False

    # ------------------------------------------------------------------ #
    @classmethod
    def from_builder(
        cls,
        builder: PartitionBuilder,
        config: SimulationConfig | None = None,
        *,
        strategy="kernighan_lin",
        profile_end_time: float | None = None,
        profile_max_events: int | None = 200_000,
        **kwargs,
    ) -> "ParallelSimulation":
        """Shard a model with a partition strategy (kernighan_lin default).

        Profiling consumes one instance of the model (it runs
        sequentially, see :func:`repro.partition.profile_model`), so the
        model arrives as a zero-argument ``builder`` returning a fresh
        partition; its group structure only fixes the canonical oid order
        — *placement* follows the measured communication graph via the
        ``shard_map`` mechanism, so tie-breaking stays sequential-equal.
        """
        config = config or SimulationConfig(backend="parallel")
        probe = [obj for group in builder() for obj in group]
        end_time = (
            profile_end_time if profile_end_time is not None else config.end_time
        )
        graph = profile_model(
            probe, end_time=end_time, max_events=profile_max_events
        )
        assignment = resolve_strategy(strategy)(graph, config.workers)
        sim = cls(builder(), config, shard_map=assignment, **kwargs)
        sim.assignment = assignment
        sim.partition_quality = partition_quality(graph, assignment)
        return sim

    # ------------------------------------------------------------------ #
    def run(self) -> RunStats:
        """Execute to global quiescence and return merged statistics."""
        if self._ran:
            raise ConfigurationError("a ParallelSimulation can only run once")
        self._ran = True
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigurationError(
                "backend='parallel' needs the 'fork' start method "
                "(policy factories and model objects are not picklable "
                "under spawn)"
            )
        ctx = multiprocessing.get_context("fork")
        started = time.perf_counter()

        # Pre-provision one inbox per potential worker — the initial
        # shards plus one per scripted join step.  The queues must exist
        # before the first fork so every worker can already address
        # workers that join later (mp queues cannot be shipped mid-run).
        pool_size = self.workers + self._join_budget
        self._ctx = ctx
        self._inboxes = inboxes = [ctx.Queue() for _ in range(pool_size)]
        self._report_queue = report_queue = ctx.Queue()
        self._plan_extras: dict = {}
        if self.config.placement == "dynamic":
            self._plan_extras["report_loads"] = True
        # One SPSC ring per directed pair, allocated for the whole
        # pre-provisioned pool (joiners inherit theirs across fork, like
        # the inboxes).  Allocation failure is not an error: the queue
        # wire is the always-works fallback.
        if self.wire == "shm" and not shm_wire_supported():
            # The ring protocol needs x86-TSO store ordering; on weaker
            # memory models the queue wire is the only safe one.
            self.wire = "queue"
        if self.wire == "shm" and pool_size > 1:
            self._rings = {}
            try:
                for src in range(pool_size):
                    for dst in range(pool_size):
                        if src != dst:
                            self._rings[(src, dst)] = ShmRing.create(
                                RING_CAPACITY
                            )
            except (OSError, ValueError):
                self._destroy_rings()
                self.wire = "queue"
        elif self.wire == "shm":
            self.wire = "queue"  # single worker: nothing inter-shard
        self._processes: dict[int, multiprocessing.process.BaseProcess] = {}
        for shard in range(self.workers):
            self._processes[shard] = ctx.Process(
                target=worker_main,
                args=(shard, self._make_plan(shard), inboxes[shard],
                      report_queue, dict(enumerate(inboxes)), self._rings),
                name=f"repro-shard-{shard}",
                daemon=True,
            )
        for process in self._processes.values():
            process.start()

        coordinator = GvtCoordinator(
            inboxes, report_queue, timeout_s=self.timeout_s,
            active=range(self.workers),
        )
        gvt_period_s = self.config.gvt_period / 1e6
        committed = 0.0
        committed_any = False
        try:
            final_round = self._drive(coordinator, gvt_period_s)
            committed, committed_any = final_round[1], final_round[2]
            last = final_round[0]
            stop = Stop(
                final_gvt=committed if committed_any else last.gvt,
                total_sent=last.total_sent,
                total_received=last.total_received,
            )
            for inbox in coordinator.active_inboxes():
                inbox.put(stop)
            payloads = self._collect_done(report_queue, coordinator)
        except Exception:
            for process in self._processes.values():
                if process.is_alive():
                    process.terminate()
            raise
        finally:
            for process in self._processes.values():
                process.join(timeout=10.0)
            self._destroy_rings()

        for steps in self._churn_steps.values():
            # only reachable when the run committed no GVT at all —
            # quiescence with commits fires leftovers in _drive
            self.churn_skipped += len(steps)
        payloads.update(self._retired_payloads)
        self.wall_s = time.perf_counter() - started
        self.gvt_rounds_run = coordinator.rounds_completed
        self.gvt_passes_run = coordinator.passes_total
        self.stats = self._merge(payloads, committed if committed_any else 0.0)
        self._global_checks(payloads)
        return self.stats

    def _destroy_rings(self) -> None:
        """Release every shared-memory segment (parent is the creator)."""
        if self._rings is not None:
            for ring in self._rings.values():
                ring.destroy()
            self._rings = None

    def _make_plan(
        self, shard: int, *, extra: dict | None = None
    ) -> ShardPlan:
        """Build a ShardPlan from the parent's current placement map."""
        extras = dict(self._plan_extras)
        if extra:
            extras.update(extra)
        return ShardPlan(
            objects=[
                (oid, self._objects[oid])
                for oid, owner in self._oid_to_shard.items()
                if owner == shard
            ],
            name_to_oid=self._name_to_oid,
            oid_to_shard=dict(self._oid_to_shard),
            config=self.config,
            n_shards=len(self._inboxes),
            trace_dir=self.trace_dir,
            extras=extras,
        )

    # ------------------------------------------------------------------ #
    def _drive(self, coordinator, gvt_period_s):
        """GVT rounds until a round proves quiescence.

        Returns ``(final RoundResult, committed gvt, committed_any)``.
        Elastic epochs (scripted churn steps, dynamic-placement
        rebalancing) run strictly between rounds, right after a commit.
        """
        committed = 0.0
        committed_any = False
        while True:
            result: RoundResult = coordinator.run_round()
            gvt = result.gvt
            if gvt != float("inf") and (not committed_any or gvt > committed):
                committed = gvt
                committed_any = True
                self._commits += 1
                commit = GvtCommit(result.round, gvt)
                for inbox in coordinator.active_inboxes():
                    inbox.put(commit)
                if not result.all_quiet:
                    self._maybe_reconfigure(coordinator, result)
            if result.all_quiet:
                if committed_any and self._churn_steps:
                    # The fleet quiesced before some scripted steps'
                    # commit indices were reached (fast wires finish
                    # short runs in a handful of rounds).  A quiet
                    # fleet drains trivially, so fire the outstanding
                    # steps now, in plan order, then run one more
                    # round so the final totals and active set match
                    # the post-churn fleet.
                    for index in sorted(self._churn_steps):
                        for step in self._churn_steps.pop(index):
                            self._run_churn_step(coordinator, step)
                    continue
                return result, committed, committed_any
            # Busy fleet: next round after the configured period.  Idle
            # fleet (draining in-flight work or final reds): spin fast so
            # termination is detected promptly.
            time.sleep(gvt_period_s if result.any_active else QUIET_SLEEP_S)

    # ------------------------------------------------------------------ #
    # elastic epochs: pause -> drain -> move -> resume (docs/parallel.md)
    # ------------------------------------------------------------------ #
    def _maybe_reconfigure(self, coordinator, result: RoundResult) -> None:
        for step in self._churn_steps.pop(self._commits, []):
            self._run_churn_step(coordinator, step)
        if self.config.placement == "dynamic":
            self._balance(coordinator, result)

    def _run_churn_step(self, coordinator, step: dict) -> None:
        """Materialize one scripted churn step with the plan's RNG.

        Impossible steps (a leave with one worker left, a join past the
        pre-provisioned pool, a migrate with a single active worker) are
        counted skipped, never errors: fuzzed plans must stay runnable.
        """
        rng = self._churn_rng
        owners = self._oid_to_shard
        active = sorted(coordinator.active)
        kind = step["kind"]
        if kind == "migrate":
            if len(active) < 2:
                self.churn_skipped += 1
                return
            moves = []
            taken: set[int] = set()
            for _ in range(step.get("count", 1)):
                candidates = [oid for oid in sorted(owners) if oid not in taken]
                if not candidates:
                    break
                oid = rng.choice(candidates)
                taken.add(oid)
                src = owners[oid]
                moves.append(
                    (oid, src, rng.choice([s for s in active if s != src]))
                )
            self._elastic_epoch(coordinator, tuple(moves), (), ())
            self.churn_executed += 1
        elif kind == "join":
            if self._next_shard >= len(self._inboxes):
                self.churn_skipped += 1
                return
            joiner = self._next_shard
            self._next_shard += 1
            count = step.get(
                "count", max(1, len(owners) // (len(active) + 1))
            )
            pool = sorted(owners)
            rng.shuffle(pool)
            moves = tuple(
                (oid, owners[oid], joiner) for oid in pool[:count]
            )
            self._elastic_epoch(coordinator, moves, (joiner,), ())
            self.churn_executed += 1
        else:  # leave
            done = 0
            for _ in range(step.get("count", 1)):
                active = sorted(coordinator.active)
                if len(active) < 2:
                    break
                leaver = rng.choice(active)
                remaining = [s for s in active if s != leaver]
                moves = tuple(
                    (oid, leaver, rng.choice(remaining))
                    for oid in sorted(owners)
                    if owners[oid] == leaver
                )
                self._elastic_epoch(coordinator, moves, (), (leaver,))
                done += 1
            if done:
                self.churn_executed += 1
            else:
                self.churn_skipped += 1

    def _balance(self, coordinator, result: RoundResult) -> None:
        """Dynamic placement: migrate load off the hottest worker."""
        loads = {
            report.shard: dict(report.loads)
            for report in result.reports
            if report.loads is not None and report.shard in coordinator.active
        }
        if len(loads) < 2:
            return
        moves = choose_moves(loads)
        if moves:
            self._elastic_epoch(coordinator, moves, (), ())

    def _elastic_epoch(self, coordinator, moves, joiners, leavers) -> None:
        """One reconfiguration epoch, strictly between GVT rounds.

        Protocol (see repro/parallel/ipc.py): pause every active worker,
        prove the wire empty with drain probes, fork joiners against a
        pre-move routing snapshot, broadcast the placement delta, wait
        for every checkpoint handoff, retire drained leavers, resume.
        """
        self._epoch += 1
        epoch = self._epoch
        deadline = time.monotonic() + self.timeout_s
        pause = PauseEpoch(epoch)
        for inbox in coordinator.active_inboxes():
            inbox.put(pause)
        self._drain_barrier(coordinator, epoch, deadline)
        for shard in joiners:
            # The joiner's plan snapshots the routing map BEFORE this
            # epoch's moves; the Reconfigure broadcast below (which the
            # joiner also receives) applies the delta, so every address
            # space converges on the same map.
            process = self._ctx.Process(
                target=worker_main,
                args=(shard, self._make_plan(shard, extra={"join_epoch": epoch}),
                      self._inboxes[shard], self._report_queue,
                      dict(enumerate(self._inboxes)), self._rings),
                name=f"repro-shard-{shard}",
                daemon=True,
            )
            self._processes[shard] = process
            process.start()
            coordinator.add_worker(shard)
        reconfigure = Reconfigure(epoch, tuple(moves), tuple(leavers))
        for inbox in coordinator.active_inboxes():
            inbox.put(reconfigure)
        self._collect_elastic(
            MigrateDone, lambda m: m.epoch == epoch,
            set(coordinator.active), deadline,
        )
        for shard in leavers:
            self._inboxes[shard].put(Retire(epoch))
        for shard in leavers:
            retired = self._collect_elastic(
                ShardRetired, lambda m, s=shard: m.shard == s,
                {shard}, deadline,
            )[shard]
            transport = retired.payload["transport"]
            coordinator.retire_worker(
                shard,
                transport["messages_sent"],
                transport["messages_received"],
            )
            self._retired_payloads[shard] = retired.payload
            self._processes[shard].join(timeout=10.0)
        resume = Resume(epoch)
        for inbox in coordinator.active_inboxes():
            inbox.put(resume)
        for oid, _src, dst in moves:
            self._oid_to_shard[oid] = dst
        if joiners or leavers:
            self.worker_timeline.append(
                (self._commits, len(coordinator.active))
            )

    def _drain_barrier(self, coordinator, epoch: int, deadline: float) -> None:
        """Probe the paused fleet until the wire is provably empty.

        A probe succeeds when the retired-corrected lifetime totals
        balance: every ack was snapshotted with an empty inbox, and a
        send after a snapshot would need a receive after a snapshot,
        which inductively needs an uncounted earlier send.
        """
        probe_no = 0
        while True:
            probe_no += 1
            probe = DrainProbe(epoch, probe_no)
            for inbox in coordinator.active_inboxes():
                inbox.put(probe)
            acks = self._collect_elastic(
                DrainAck,
                lambda m: (m.epoch, m.probe) == (epoch, probe_no),
                set(coordinator.active), deadline,
            )
            sent = coordinator.retired_sent + sum(
                ack.total_sent for ack in acks.values()
            )
            received = coordinator.retired_received + sum(
                ack.total_received for ack in acks.values()
            )
            if sent == received:
                return
            time.sleep(QUIET_SLEEP_S)  # whites still in a pipe; reprobe

    def _collect_elastic(self, kind, match, expected: set[int], deadline):
        """Collect one matching ``kind`` record per expected shard."""
        got: dict[int, object] = {}
        while expected:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(
                    f"elastic epoch stalled: no {kind.__name__} from "
                    f"shard(s) {sorted(expected)} within {self.timeout_s:.0f}s"
                )
            try:
                message = self._report_queue.get(timeout=min(remaining, 1.0))
            except queue_mod.Empty:
                continue
            if isinstance(message, ShardError):
                raise RuntimeError(
                    f"shard {message.shard} crashed during elastic epoch:\n"
                    f"{message.error}"
                )
            if isinstance(message, kind) and match(message):
                got[message.shard] = message
                expected.discard(message.shard)
            # anything else (an ack from an abandoned probe) is dropped:
            # the epoch protocol is lockstep per record kind
        return got

    def _collect_done(self, report_queue, coordinator) -> dict[int, dict]:
        payloads: dict[int, dict] = {}
        expected = set(coordinator.active)
        deadline = time.monotonic() + self.timeout_s
        while expected:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(
                    f"shard(s) {sorted(expected)} never sent their final report"
                )
            message = report_queue.get(timeout=remaining)
            if isinstance(message, ShardError):
                raise RuntimeError(
                    f"shard {message.shard} crashed during shutdown:\n"
                    f"{message.error}"
                )
            if isinstance(message, ShardDone):
                payloads[message.shard] = message.payload
                expected.discard(message.shard)
            # stale ShardReports from the final round are dropped
        return payloads

    # ------------------------------------------------------------------ #
    def _merge(self, payloads: dict[int, dict], final_gvt: float) -> RunStats:
        stats = RunStats()
        stats.final_gvt = final_gvt
        for shard in sorted(payloads):
            payload = payloads[shard]
            lp_stats = payload["lp_stats"]
            stats.per_lp[shard] = lp_stats
            stats.gvt_rounds += lp_stats.gvt_rounds
            stats.execution_time = max(stats.execution_time, payload["clock"])
            stats.peak_state_entries = max(
                stats.peak_state_entries, lp_stats.peak_state_entries
            )
            stats.peak_state_bytes = max(
                stats.peak_state_bytes, lp_stats.peak_state_bytes
            )
            stats.peak_history_events = max(
                stats.peak_history_events, lp_stats.peak_history_events
            )
            transport = payload["transport"]
            stats.physical_messages += transport["messages_sent"]
            stats.events_on_wire += transport["events_carried"]
            stats.bytes_on_wire += transport["bytes_sent"]
            for key in self.wire_stats:
                self.wire_stats[key] += transport.get(key, 0)
            for name, ostats in payload["object_stats"].items():
                stats.per_object[name] = ostats
                stats.committed_events += ostats.events_committed
                stats.executed_events += ostats.events_executed
                stats.rolled_back_events += ostats.events_rolled_back
                stats.rollbacks += ostats.rollbacks
                stats.state_saves += ostats.state_saves
                stats.coast_forward_events += ostats.coast_forward_events
                stats.antis_sent += ostats.antis_sent
                stats.lazy_hits += ostats.lazy_hits
                stats.lazy_misses += ostats.lazy_misses
            self.final_states.update(payload["final_states"])
            self.oracle_checks += payload["oracle_checks"]
            migrations = payload.get("migrations", {})
            self.migrations_in += migrations.get("in", 0)
            self.migrations_out += migrations.get("out", 0)
            for violation in payload["violations"]:
                self.violations.append((shard, violation))
        if self.migrations_in != self.migrations_out:
            self.violations.append(
                (-1, InvariantViolation(
                    "migration_conservation",
                    stats.execution_time,
                    f"checkpoints shipped vs restored diverge: "
                    f"{self.migrations_out} out vs {self.migrations_in} in",
                ))
            )
        return stats

    def _global_checks(self, payloads: dict[int, dict]) -> None:
        """Parent-side wire conservation over the merged totals."""
        sent = sum(p["transport"]["messages_sent"] for p in payloads.values())
        received = sum(
            p["transport"]["messages_received"] for p in payloads.values()
        )
        if sent != received:
            self.violations.append(
                (-1, InvariantViolation(
                    "wire_conservation",
                    self.stats.execution_time if self.stats else 0.0,
                    f"global totals diverge after shutdown: "
                    f"{sent} sent vs {received} received",
                ))
            )

    # ------------------------------------------------------------------ #
    def shard_of(self, name: str) -> int:
        """Which worker hosts the named object (introspection/tests)."""
        return self._oid_to_shard[self._name_to_oid[name]]


def flatten(partition: Partition) -> list[SimulationObject]:
    """Partition-of-objects -> flat list, preserving group order."""
    return [obj for group in partition for obj in group]


# re-exported convenience: Sequence import kept for type checkers
__all__ = [
    "ParallelSimulation",
    "PartitionBuilder",
    "flatten",
    "resolve_strategy",
]

_ = Sequence  # pragma: no cover - silence unused-import in type-only use
