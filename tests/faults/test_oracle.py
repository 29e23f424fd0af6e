"""Unit and end-to-end tests for the Time Warp invariant oracle."""

from dataclasses import dataclass, field
from types import SimpleNamespace

import pytest

from repro import (
    FaultPlan,
    FaultRates,
    InvariantOracle,
    SimulationConfig,
    TimeWarpSimulation,
)
from repro.apps.phold import PHOLDParams, build_phold
from repro.kernel.errors import InvariantViolationError
from repro.oracle import NULL_ORACLE
from repro.oracle.invariants import state_digest
from repro.verify import Scenario, run_scenario


@dataclass
class FakeState:
    x: int = 0
    items: list = field(default_factory=list)

    def size_bytes(self) -> int:
        return 8 * (1 + len(self.items))


def snapshot(state, lvt=10.0):
    return SimpleNamespace(state=state, lvt=lvt, size=state.size_bytes())


class TestStateDigest:
    def test_dataclass_digest_reflects_fields(self):
        a, b = FakeState(x=1), FakeState(x=1)
        assert state_digest(a) == state_digest(b)
        b.x = 2
        assert state_digest(a) != state_digest(b)

    def test_plain_object_digest(self):
        a = SimpleNamespace(v=1)
        assert state_digest(a) == state_digest(SimpleNamespace(v=1))
        assert state_digest(a) != state_digest(SimpleNamespace(v=2))

    def test_opaque_fallback(self):
        assert state_digest(42) == state_digest(42)


class TestGVTInvariants:
    def test_advancing_estimates_are_clean(self):
        oracle = InvariantOracle()
        for estimate in (1.0, 5.0, 5.0, 9.0):
            oracle.on_gvt_estimate(0.0, estimate, None)
        assert oracle.violations == []
        assert oracle.checks == 4

    def test_regressing_estimate_is_flagged(self):
        oracle = InvariantOracle()
        oracle.on_gvt_estimate(0.0, 5.0, None)
        oracle.on_gvt_estimate(1.0, 3.0, None)
        assert [v.invariant for v in oracle.violations] == ["gvt_monotonic"]

    def test_rollback_below_committed_gvt_is_flagged(self):
        oracle = InvariantOracle()
        oracle.on_gvt_estimate(0.0, 50.0, None)
        oracle.on_rollback(1.0, 0, "obj0", 60.0)  # above GVT: fine
        oracle.on_rollback(2.0, 0, "obj0", 40.0)  # below: committed undone
        assert [v.invariant for v in oracle.violations] == ["gvt_safety"]

    def test_strict_mode_raises_at_first_violation(self):
        oracle = InvariantOracle(strict=True)
        oracle.on_gvt_estimate(0.0, 5.0, None)
        with pytest.raises(InvariantViolationError, match="gvt_monotonic"):
            oracle.on_gvt_estimate(1.0, 3.0, None)


class TestStateFidelity:
    def test_faithful_restore_is_clean(self):
        oracle = InvariantOracle()
        snap = snapshot(FakeState(x=7))
        oracle.on_state_save(0.0, 0, "obj0", snap)
        oracle.on_state_restore(1.0, 0, "obj0", snap, FakeState(x=7))
        assert oracle.violations == []

    def test_mutated_snapshot_is_flagged(self):
        oracle = InvariantOracle()
        snap = snapshot(FakeState(x=7))
        oracle.on_state_save(0.0, 0, "obj0", snap)
        snap.state.x = 8  # history aliasing
        oracle.on_state_restore(1.0, 0, "obj0", snap, FakeState(x=8))
        assert [v.invariant for v in oracle.violations] == ["state_fidelity"]
        assert "mutated" in oracle.violations[0].detail

    def test_unfaithful_restore_is_flagged(self):
        oracle = InvariantOracle()
        snap = snapshot(FakeState(x=7))
        oracle.on_state_save(0.0, 0, "obj0", snap)
        oracle.on_state_restore(1.0, 0, "obj0", snap, FakeState(x=9))
        assert [v.invariant for v in oracle.violations] == ["state_fidelity"]
        assert "differs" in oracle.violations[0].detail

    def test_stale_cached_size_is_flagged(self):
        oracle = InvariantOracle()
        snap = snapshot(FakeState(x=7))
        snap.size += 1  # a size cached from some other state
        oracle.on_state_save(0.0, 0, "obj0", snap)
        assert [v.invariant for v in oracle.violations] == ["state_fidelity"]
        assert "cached snapshot size" in oracle.violations[0].detail

    def test_unseen_snapshot_is_ignored(self):
        # Saved before the oracle was attached: nothing to compare against.
        oracle = InvariantOracle()
        oracle.on_state_restore(
            1.0, 0, "obj0", snapshot(FakeState()), FakeState(x=99)
        )
        assert oracle.violations == []

    def test_snapshots_pruned_at_gvt_commit(self):
        oracle = InvariantOracle()
        old = snapshot(FakeState(), lvt=5.0)
        new = snapshot(FakeState(), lvt=50.0)
        oracle.on_state_save(0.0, 0, "obj0", old)
        oracle.on_state_save(0.0, 0, "obj0", new)
        oracle.on_gvt_estimate(1.0, 20.0, None)
        assert id(old) not in oracle._snapshots
        assert id(new) in oracle._snapshots


class TestWireConservation:
    def test_balanced_counts_are_clean(self):
        oracle = InvariantOracle()
        net = SimpleNamespace(wire_counts=lambda: {
            "sent": 10, "delivered": 7, "lost": 1, "in_flight": 2,
        })
        oracle.on_wire_check(0.0, net)
        assert oracle.violations == []

    def test_unbalanced_counts_are_flagged(self):
        oracle = InvariantOracle()
        net = SimpleNamespace(wire_counts=lambda: {
            "sent": 10, "delivered": 7, "lost": 0, "in_flight": 2,
        })
        oracle.on_wire_check(0.0, net)
        assert [v.invariant for v in oracle.violations] == ["wire_conservation"]


def phold_partition():
    return build_phold(
        PHOLDParams(n_objects=6, n_lps=3, jobs_per_object=2, seed=7)
    )


class TestEndToEnd:
    def test_oracle_off_by_default(self):
        sim = TimeWarpSimulation(
            phold_partition(), SimulationConfig(end_time=100.0)
        )
        sim.run()
        assert sim.oracle is NULL_ORACLE
        assert sim.executive.oracle is NULL_ORACLE

    def test_clean_run_has_zero_violations(self):
        oracle = InvariantOracle(strict=True)  # raise on any false positive
        sim = TimeWarpSimulation(
            phold_partition(),
            SimulationConfig(end_time=200.0, oracle=oracle,
                             gvt_algorithm="mattern"),
        )
        sim.run()
        assert oracle.violations == []
        assert oracle.checks > 0

    def test_faulted_reliable_run_has_zero_violations(self):
        oracle = InvariantOracle(strict=True)
        plan = FaultPlan(
            seed=6,
            rates=FaultRates(drop=0.1, duplicate=0.1, delay=0.05,
                             reorder=0.1),
        )
        sim = TimeWarpSimulation(
            phold_partition(),
            SimulationConfig(end_time=200.0, oracle=oracle, faults=plan),
        )
        sim.run()
        assert oracle.violations == []

    def test_oracle_detects_unrecovered_drop(self):
        # Retransmission off: an injected drop is permanent and must be
        # *detected* — this is the acceptance criterion that proves the
        # oracle can fail.
        plan = FaultPlan(seed=1, rates=FaultRates(drop=0.15), retransmit=False)
        result = run_scenario(
            Scenario(app="phold", end_time=300.0, faults=plan.to_dict())
        )
        assert not result.ok
        assert "message_loss" in result.violations
