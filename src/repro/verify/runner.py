"""Execute one :class:`Scenario` and check it against every oracle.

Checks applied to each run (docs/testing.md):

* **Differential** — the committed-state digest (per-object committed
  event counts + canonicalized final states) must equal the sequential
  golden's digest for the same app/topology/horizon.  Because the golden
  is knob-independent, this simultaneously enforces the metamorphic
  claims: config-invariance across every modelled-only knob,
  fault-invariance under reliable transport, and partition/worker-count
  invariance for the parallel backend.
* **Trace equality** — in-process backends (modelled, conservative)
  additionally compare the full committed-event trace, which also checks
  payloads and send times, not just counts and final states.
* **Invariants** — the :class:`~repro.oracle.InvariantOracle` is armed
  in every run (in every worker, for the parallel backend) and must
  report zero violations.

The digest deliberately uses only quantities every backend can produce
deterministically: a process-sharded run is not tick-for-tick stable
(the OS schedule decides the rollback count) but its *committed result*
is, so the digest replays byte-identically across runs and machines.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import time
from collections import Counter
from dataclasses import dataclass, field, fields as dc_fields, is_dataclass
from typing import Any

from ..conservative import ConservativeSimulation
from ..kernel.arena import resolve_fastpath
from ..kernel.kernel import TimeWarpSimulation
from ..oracle.invariants import InvariantOracle
from ..sequential import SequentialSimulation
from ..trace.tracer import Tracer
from .scenario import Scenario

#: Safety valve: a livelocked run aborts instead of hanging the harness.
MAX_EXECUTED_EVENTS = 300_000

#: Wall-clock stall limit handed to the parallel backend.
PARALLEL_TIMEOUT_S = 120.0


def fork_available() -> bool:
    """Whether the process-sharded backend can run on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


# --------------------------------------------------------------------- #
# canonical digesting
# --------------------------------------------------------------------- #
def canonical_value(value: Any) -> Any:
    """JSON-able, cross-process-stable form of an application state."""
    if is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonical_value(getattr(value, f.name))
            for f in dc_fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    if isinstance(value, dict):
        return {
            repr(key): canonical_value(val)
            for key, val in sorted(value.items(), key=lambda kv: repr(kv[0]))
        }
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return repr(value)


def committed_digest(records: dict[str, tuple[int, Any]]) -> str:
    """SHA-256 over ``object name -> (committed count, final state)``."""
    doc = [
        [name, committed, canonical_value(state)]
        for name, (committed, state) in sorted(records.items())
    ]
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# --------------------------------------------------------------------- #
# sequential golden
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class GoldenRef:
    """The sequential kernel's committed result for one workload."""

    digest: str
    committed: int
    per_object: dict[str, int]
    trace: list
    states: dict[str, Any]


_golden_cache: dict[str, GoldenRef] = {}


def _golden_key(scenario: Scenario) -> str:
    return json.dumps(
        [scenario.app, scenario.merged_params(),
         repr(scenario.effective_end_time())],
        sort_keys=True,
    )


def sequential_golden(scenario: Scenario) -> GoldenRef:
    """Golden reference for the scenario's workload (cached per topology)."""
    key = _golden_key(scenario)
    golden = _golden_cache.get(key)
    if golden is None:
        objects = [
            obj for group in scenario.build_partition() for obj in group
        ]
        seq = SequentialSimulation(
            objects,
            record_trace=True,
            end_time=scenario.effective_end_time(),
            max_events=MAX_EXECUTED_EVENTS,
        )
        seq.run()
        per_object = Counter(entry[1] for entry in seq.trace)
        records = {
            obj.name: (per_object.get(obj.name, 0), obj.state)
            for obj in objects
        }
        golden = GoldenRef(
            digest=committed_digest(records),
            committed=seq.events_executed,
            per_object=dict(per_object),
            trace=seq.sorted_trace(),
            states={obj.name: obj.state for obj in objects},
        )
        _golden_cache[key] = golden
    return golden


# --------------------------------------------------------------------- #
# the result of one run
# --------------------------------------------------------------------- #
@dataclass
class ScenarioResult:
    """Everything the checks and the coverage map need from one run."""

    scenario: Scenario
    digest: str = ""
    committed: int = 0
    expected: int = 0
    digest_match: bool = False
    #: full-trace comparison; ``None`` when the backend records no trace
    trace_match: bool | None = None
    violations: tuple[str, ...] = ()
    oracle_checks: int = 0
    features: frozenset = frozenset()
    wall_s: float = 0.0
    error: str = ""
    #: per-object disagreements with the golden, filled on a digest mismatch
    mismatches: tuple[str, ...] = ()
    #: the backend's raw outputs the features were drawn from (stats,
    #: oracle check kinds, trace record types; on the parallel backend
    #: also the wire and fastpath it resolved to, its migrations and its
    #: worker timeline)
    raw: dict = field(default_factory=dict, repr=False)

    @property
    def failure_kind(self) -> str:
        """Stable classification driving the shrinker; '' when ok."""
        if self.error:
            return f"error:{self.error.split(':', 1)[0]}"
        if self.violations:
            return f"violation:{self.violations[0]}"
        if not self.digest_match:
            return "digest"
        if self.trace_match is False:
            return "trace"
        return ""

    @property
    def ok(self) -> bool:
        return not self.failure_kind

    def describe(self) -> str:
        s = self.scenario
        knobs = f"{s.app} backend={s.backend}"
        if s.backend == "parallel":
            knobs += (
                f":{s.workers}w wire={self.raw.get('wire', s.wire or 'default')}"
                f" fastpath={self.raw.get('fastpath', s.fastpath or 'default')}"
            )
        knobs += (
            f" cancel={s.cancellation} chi={s.checkpoint}"
            f" agg={s.aggregation} snap={s.snapshot} gvt={s.gvt_algorithm}"
            + (f" faults(plan_seed={s.faults.get('seed')})" if s.faults else "")
        )
        if self.ok:
            lines = [
                f"PASS {knobs} ({self.committed} events, "
                f"{self.oracle_checks} oracle check(s), {self.wall_s:.2f}s)"
            ]
        else:
            detail = self.error or (
                f"committed {self.committed}/{self.expected}, "
                f"digest_match={self.digest_match}, "
                f"trace_match={self.trace_match}, "
                f"violations={list(self.violations)}"
            )
            lines = [f"FAIL[{self.failure_kind}] {knobs}: {detail}"]
        timeline = self.raw.get("worker_timeline", ())
        if self.raw.get("migrations") or len(timeline) > 1:
            steps = " -> ".join(f"{n}w@{at}" for at, n in timeline)
            lines.append(
                f"  elastic: {self.raw['migrations']} migration(s), "
                f"workers {steps}"
            )
        lines.extend(f"  {mismatch}" for mismatch in self.mismatches)
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------- #
def run_scenario(
    scenario: Scenario,
    *,
    collect_trace_features: bool = True,
    timeout_s: float = PARALLEL_TIMEOUT_S,
    trace_dir: str | None = None,
) -> ScenarioResult:
    """Run one scenario on its backend and apply every check.

    A crash inside the run is a *finding* (``error:<Type>``), not a
    harness abort — the fuzzer shrinks crashes exactly like divergences.
    ``timeout_s`` and ``trace_dir`` (per-shard JSONL traces) are
    run-local plumbing for the parallel backend.
    """
    from .coverage import features_for  # cycle: coverage imports runner types

    scenario.validate()
    golden = sequential_golden(scenario)
    result = ScenarioResult(scenario=scenario, expected=golden.committed)
    started = time.perf_counter()
    raw: dict[str, Any] = {}
    try:
        if scenario.backend == "modelled":
            raw = _run_modelled(scenario, golden, result, collect_trace_features)
        elif scenario.backend == "conservative":
            raw = _run_conservative(scenario, golden, result)
        else:
            raw = _run_parallel(scenario, golden, result, timeout_s, trace_dir)
    except Exception as exc:
        result.error = f"{type(exc).__name__}: {exc}"
    result.wall_s = time.perf_counter() - started
    result.raw = raw
    result.features = frozenset(features_for(scenario, result, raw))
    return result


def _finish(
    result: ScenarioResult,
    golden: GoldenRef,
    records: dict[str, tuple[int, Any]],
) -> None:
    result.digest = committed_digest(records)
    result.committed = sum(count for count, _ in records.values())
    result.digest_match = result.digest == golden.digest
    if not result.digest_match:
        result.mismatches = tuple(_mismatches(golden, records))


def _mismatches(golden: GoldenRef, records: dict[str, tuple[int, Any]]):
    for name, (count, state) in sorted(records.items()):
        want = golden.per_object.get(name, 0)
        if count != want:
            yield f"count mismatch {name}: run={count} sequential={want}"
        if canonical_value(state) != canonical_value(golden.states[name]):
            yield f"final-state mismatch: {name}"


def _run_modelled(
    scenario: Scenario,
    golden: GoldenRef,
    result: ScenarioResult,
    collect_trace_features: bool,
) -> dict[str, Any]:
    oracle = InvariantOracle()
    tracer = Tracer(capacity=4096) if collect_trace_features else None
    config = scenario.build_config(
        record_trace=True,
        oracle=oracle,
        tracer=tracer,
        max_executed_events=MAX_EXECUTED_EVENTS,
    )
    sim = TimeWarpSimulation(scenario.build_partition(), config)
    stats = sim.run()
    records = {
        name: (
            stats.per_object[name].events_committed
            if name in stats.per_object
            else 0,
            sim.object_named(name).state,
        )
        for name in golden.states
    }
    _finish(result, golden, records)
    result.trace_match = sim.sorted_trace() == golden.trace
    result.violations = tuple(v.invariant for v in oracle.violations)
    result.oracle_checks = oracle.checks
    return {
        "stats": stats,
        "oracle_kinds": set(oracle.checks_by_kind),
        "trace_types": (
            {r["type"] for r in tracer.records} if tracer is not None else set()
        ),
    }


def _run_conservative(
    scenario: Scenario, golden: GoldenRef, result: ScenarioResult
) -> dict[str, Any]:
    sim = ConservativeSimulation(
        scenario.build_partition(),
        lookahead=scenario.spec.lookahead(scenario.merged_params()),
        end_time=scenario.effective_end_time(),
        lp_speed_factors=scenario.speed_factors(),
        record_trace=True,
    )
    stats = sim.run()
    per_object = Counter(entry[1] for entry in sim.trace or ())
    records = {
        obj.name: (per_object.get(obj.name, 0), obj.state)
        for obj in sim.objects
    }
    _finish(result, golden, records)
    result.trace_match = sim.sorted_trace() == golden.trace
    return {"stats": stats}


def _run_parallel(
    scenario: Scenario,
    golden: GoldenRef,
    result: ScenarioResult,
    timeout_s: float,
    trace_dir: str | None,
) -> dict[str, Any]:
    if not fork_available():  # pragma: no cover - platform dependent
        result.error = (
            "SkipBackend: parallel backend needs the fork start method"
        )
        return {}
    from ..parallel.backend import ParallelSimulation

    config = scenario.build_config(
        oracle=InvariantOracle(),
        max_executed_events=MAX_EXECUTED_EVENTS,
    )
    sim = ParallelSimulation.from_builder(
        scenario.build_partition, config,
        timeout_s=timeout_s, trace_dir=trace_dir,
    )
    stats = sim.run()
    records = {
        name: (
            stats.per_object[name].events_committed
            if name in stats.per_object
            else 0,
            sim.final_states[name],
        )
        for name in golden.states
    }
    _finish(result, golden, records)
    result.violations = tuple(
        f"{violation.invariant}" for _shard, violation in sim.violations
    )
    result.oracle_checks = sim.oracle_checks
    return {
        "stats": stats,
        "gvt_rounds": sim.gvt_rounds_run,
        "migrations": sim.migrations_in,
        "worker_timeline": tuple(sim.worker_timeline),
        "wire": sim.wire,
        "fastpath": resolve_fastpath(config.fastpath),
    }
