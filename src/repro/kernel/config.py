"""Simulation configuration: the paper's notion of *configuration* as data.

A :class:`SimulationConfig` bundles the sub-algorithm selections and
parameter settings of the simulator — cancellation strategy, checkpoint
policy, aggregation policy, GVT algorithm and period — together with the
modelled platform (cost model, network, per-LP speed factors).  The bench
harness sweeps these objects to regenerate the paper's figures.

Policy fields are *factories* (one policy instance is created per object,
or per LP for aggregation) and receive the thing they will govern, so an
application can, for example, give disks and forks different controllers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..cluster.costmodel import DEFAULT_COSTS, DEFAULT_NETWORK, CostModel, NetworkModel
from .arena import FASTPATHS
from .cancellation import CancellationPolicy, StaticCancellation, Mode
from .checkpointing import CheckpointPolicy, StaticCheckpoint
from .errors import ConfigurationError
from .simobject import SimulationObject
from .state import SnapshotStrategy, resolve_snapshot_strategy

if TYPE_CHECKING:  # pragma: no cover - avoids a kernel <-> comm import cycle
    from ..comm.aggregation import AggregationPolicy
    from ..control.meta import MetaController
    from ..core.window_controller import TimeWindowPolicy
    from ..faults.plan import FaultPlan
    from ..oracle.invariants import InvariantOracle
    from ..trace.tracer import Tracer

CancellationFactory = Callable[[SimulationObject], CancellationPolicy]
CheckpointFactory = Callable[[SimulationObject], CheckpointPolicy]
AggregationFactory = Callable[[int], "AggregationPolicy"]
TimeWindowFactory = Callable[[], "TimeWindowPolicy"]
MetaControlFactory = Callable[[], "MetaController"]


def default_cancellation(_obj: SimulationObject) -> CancellationPolicy:
    """WARPED's default: aggressive cancellation, no monitoring."""
    return StaticCancellation(Mode.AGGRESSIVE)


def default_checkpoint(_obj: SimulationObject) -> CheckpointPolicy:
    """WARPED's default: save state after every event."""
    return StaticCheckpoint(1)


def default_aggregation(_lp_id: int) -> "AggregationPolicy":
    """No aggregation: one physical message per remote event."""
    from ..comm.aggregation import NoAggregation

    return NoAggregation()


_CHURN_KINDS = ("migrate", "join", "leave")


def validate_churn_plan(plan: dict) -> None:
    """Structurally validate a churn plan (see :attr:`SimulationConfig.churn`).

    Raises :class:`ConfigurationError` on malformed plans; semantic
    impossibilities (e.g. a ``leave`` when one worker remains) are legal
    here and skipped at run time.
    """
    if not isinstance(plan, dict):
        raise ConfigurationError("churn must be a dict")
    unknown = set(plan) - {"seed", "steps"}
    if unknown:
        raise ConfigurationError(
            f"unknown churn key(s): {sorted(unknown)}"
        )
    seed = plan.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigurationError("churn seed must be an int")
    steps = plan.get("steps", [])
    if not isinstance(steps, (list, tuple)):
        raise ConfigurationError("churn steps must be a list")
    for i, step in enumerate(steps):
        if not isinstance(step, dict):
            raise ConfigurationError(f"churn step {i} must be a dict")
        extra = set(step) - {"at", "kind", "count"}
        if extra:
            raise ConfigurationError(
                f"churn step {i}: unknown key(s) {sorted(extra)}"
            )
        at = step.get("at")
        if not isinstance(at, int) or at < 1:
            raise ConfigurationError(
                f"churn step {i}: 'at' must be a GVT-commit index >= 1"
            )
        kind = step.get("kind")
        if kind not in _CHURN_KINDS:
            raise ConfigurationError(
                f"churn step {i}: unknown kind {kind!r} "
                f"(known: {', '.join(_CHURN_KINDS)})"
            )
        count = step.get("count", 1)
        if not isinstance(count, int) or count < 1:
            raise ConfigurationError(
                f"churn step {i}: 'count' must be an int >= 1"
            )


@dataclass
class SimulationConfig:
    """Everything that parameterizes one Time Warp run."""

    cancellation: CancellationFactory = default_cancellation
    checkpoint: CheckpointFactory = default_checkpoint
    aggregation: AggregationFactory = default_aggregation

    #: execution backend: "modelled" runs every LP in this process on the
    #: deterministic modelled cluster; "parallel" shards LPs across
    #: ``workers`` OS processes with batched IPC and distributed GVT
    #: (docs/parallel.md).  Parallel runs are validated differentially,
    #: not tick-for-tick.
    backend: str = "modelled"
    #: worker-process count for the parallel backend (ignored otherwise)
    workers: int = 1

    #: inter-shard data wire for the parallel backend: "shm" (the
    #: default) carries packed binary frames through shared-memory SPSC
    #: rings with the queues demoted to a control/doorbell channel;
    #: "queue" is the pure-Python fallback that pickles every DataBatch
    #: over mp.Queue (docs/parallel.md, "Wire formats").  Runs on either
    #: wire commit byte-identical results; "shm" degrades to "queue" at
    #: run time if shared memory cannot be allocated.
    wire: str = "shm"

    #: hot-loop implementation for the Time Warp kernel: "numpy" backs
    #: each LP's input queues with a struct-of-arrays
    #: :class:`repro.kernel.arena.EventArena` (vectorized annihilation
    #: and tombstone compaction); "python" keeps the
    #: pure ``heapq`` structures; ``None`` (the default) auto-selects
    #: "numpy" when numpy is importable.  Both paths commit
    #: byte-identical results, and "numpy" silently degrades to "python"
    #: on interpreters without numpy — the same contract as ``wire``.
    fastpath: "str | None" = None

    #: pin each parallel worker to one CPU core via os.sched_setaffinity
    #: (ROOT-Sim style).  Off by default: binding helps when cores >=
    #: workers and hurts when the fleet is oversubscribed.  Ignored on
    #: platforms without sched_setaffinity and by the modelled backend.
    pin_cores: bool = False

    #: how the kernel copies states for checkpoints and restores: a
    #: registry name ("copy", "pickle", "deepcopy") or a
    #: :class:`repro.kernel.state.SnapshotStrategy` instance.  "copy" is
    #: the measured default (see docs/benchmarking.md, ``snapshot.*``
    #: micro-benchmarks); "pickle" wins for large container-heavy states.
    snapshot: "str | SnapshotStrategy" = "copy"

    #: "omniscient" (exact, centrally computed) or "mattern" (distributed)
    gvt_algorithm: str = "omniscient"
    #: wall-clock µs between GVT round initiations
    gvt_period: float = 50_000.0

    #: optional optimism throttling (extension): a factory for the
    #: bounded-time-window policy, e.g.
    #: ``lambda: AdaptiveTimeWindow()``.  ``None`` = pure Time Warp.
    time_window: TimeWindowFactory | None = None

    #: optional unified control plane (docs/control.md): a factory for a
    #: :class:`repro.control.MetaController` driving the meta-managed
    #: global knobs (GVT period, snapshot strategy) at GVT rounds, e.g.
    #: ``lambda: MetaController()``.  ``None`` = those knobs stay static.
    meta_control: MetaControlFactory | None = None

    #: external runtime adjustments (paper reference [26]): a list of
    #: ``(wallclock_us, adjustment)`` pairs; see :mod:`repro.core.external`
    external_script: list = field(default_factory=list)

    #: optional :class:`repro.stats.timeline.Timeline` that receives one
    #: snapshot per GVT round (controller trajectories over the run)
    timeline: object | None = None

    #: optional :class:`repro.trace.Tracer` receiving structured records
    #: for every controller decision, rollback, GVT round, fossil
    #: collection and transport flush (docs/observability.md).  ``None``
    #: (the default) costs one attribute check per potential emission.
    tracer: "Tracer | None" = None

    #: events an LP executes per executive turn (arrival polling interval)
    events_per_turn: int = 1

    #: virtual-time horizon; events beyond it are never executed
    end_time: float = float("inf")

    costs: CostModel = DEFAULT_COSTS
    network: NetworkModel = DEFAULT_NETWORK

    #: per-LP CPU speed factor (>1 = slower workstation); keyed by LP id.
    #: LPs not listed run at factor 1.0.  Heterogeneity is one source of
    #: the LVT skew that produces rollbacks on a real NOW.
    lp_speed_factors: dict[int, float] = field(default_factory=dict)

    #: safety valve for tests: abort after this many executed events
    max_executed_events: int | None = None

    #: record committed (object, time, payload) triples for equivalence tests
    record_trace: bool = False

    #: optional :class:`repro.faults.FaultPlan`: replace the perfect wire
    #: with a fault-injecting one (docs/robustness.md).  ``None`` (the
    #: default) keeps the zero-overhead perfect wire.
    faults: "FaultPlan | None" = None

    #: optional :class:`repro.oracle.InvariantOracle` checking Time Warp
    #: invariants during the run (docs/robustness.md).  ``None`` (the
    #: default) costs one attribute check per potential hook.
    oracle: "InvariantOracle | None" = None

    #: object placement over LPs/workers: "static" pins the initial
    #: partition for the whole run; "dynamic" puts placement under
    #: on-line control — the MetaController's PlacementController on the
    #: modelled backend, the coordinator-side load balancer (live LP
    #: migration) on the parallel backend (docs/control.md, the
    #: ``placement`` knob).
    placement: str = "static"

    #: optional scripted churn plan for the parallel backend: seeded
    #: migration / worker-join / worker-leave steps executed at GVT
    #: commits, e.g. ``{"seed": 7, "steps": [{"at": 1, "kind": "migrate",
    #: "count": 2}, {"at": 2, "kind": "leave"}]}`` (docs/parallel.md).
    churn: "dict | None" = None

    def validate(self) -> None:
        if self.backend not in ("modelled", "parallel"):
            raise ConfigurationError(f"unknown backend {self.backend!r}")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.backend == "parallel":
            # Features whose semantics are tied to the single-process
            # modelled cluster; fail loudly instead of silently ignoring.
            unsupported = [
                ("faults", self.faults is not None),
                ("time_window", self.time_window is not None),
                ("meta_control", self.meta_control is not None),
                ("external_script", bool(self.external_script)),
                ("timeline", self.timeline is not None),
                ("record_trace", self.record_trace),
                ("tracer", self.tracer is not None),
            ]
            offending = [name for name, active in unsupported if active]
            if offending:
                raise ConfigurationError(
                    f"backend='parallel' does not support: "
                    f"{', '.join(offending)} (see docs/parallel.md; "
                    "per-shard tracing uses ParallelSimulation(trace_dir=...))"
                )
        if self.wire not in ("shm", "queue"):
            raise ConfigurationError(
                f"unknown wire {self.wire!r} (known: 'shm', 'queue')"
            )
        if self.fastpath is not None and self.fastpath not in FASTPATHS:
            raise ConfigurationError(
                f"unknown fastpath {self.fastpath!r} "
                "(known: 'python', 'numpy'; None = auto)"
            )
        if self.gvt_algorithm not in ("omniscient", "mattern"):
            raise ConfigurationError(
                f"unknown GVT algorithm {self.gvt_algorithm!r}"
            )
        if self.gvt_period <= 0:
            raise ConfigurationError("gvt_period must be positive")
        if self.events_per_turn < 1:
            raise ConfigurationError("events_per_turn must be >= 1")
        for lp_id, factor in self.lp_speed_factors.items():
            if factor <= 0:
                raise ConfigurationError(
                    f"speed factor for LP {lp_id} must be positive, got {factor}"
                )
        if self.faults is not None:
            self.faults.validate()
        if self.placement not in ("static", "dynamic"):
            raise ConfigurationError(
                f"unknown placement {self.placement!r} "
                "(known: 'static', 'dynamic')"
            )
        if self.churn is not None:
            if self.backend != "parallel":
                raise ConfigurationError(
                    "churn plans script live migration and worker "
                    "join/leave, which only the parallel backend executes "
                    "(docs/parallel.md)"
                )
            validate_churn_plan(self.churn)
        resolve_snapshot_strategy(self.snapshot)  # raises on a bad spec

    def costs_for_lp(self, lp_id: int) -> CostModel:
        factor = self.lp_speed_factors.get(lp_id, 1.0)
        return self.costs if factor == 1.0 else self.costs.scaled(factor)
