"""Differential fuzzing under network faults (docs/robustness.md).

The acceptance bar for the fault layer: 100 seeded plans mixing drops,
duplicates, delays and reorders, on both PHOLD and SMMP, every one
matching the sequential golden trace with zero oracle violations —
plus proof that the oracle *can* fail when recovery is disabled.  The
sweep is a list of verify scenarios (``fault_sweep_scenarios``) run
through ``run_scenario``, exactly as ``repro-bench faults`` runs it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.transport import ReliableReceiver
from repro.faults import FaultPlan, FaultRates
from repro.verify import Scenario, run_scenario
from repro.verify.lattice import FAULT_SWEEP_RATES, fault_sweep_scenarios


def run_sweep(plans):
    return [run_scenario(s) for s in fault_sweep_scenarios(plans)]


def phold_case(plan: FaultPlan):
    return run_scenario(
        Scenario(app="phold", end_time=300.0, faults=plan.to_dict())
    )


class TestSweep:
    def test_smoke_sweep(self):
        results = run_sweep(10)
        assert all(r.ok for r in results), [r.describe() for r in results]
        assert len(results) == 20
        assert any("trace:fault.inject" in r.features for r in results)
        assert any("trace:net.retransmit" in r.features for r in results)
        assert all(r.oracle_checks > 0 for r in results)

    def test_acceptance_sweep_100_plans(self):
        # Both GVT estimators face every second plan (even = omniscient,
        # odd = mattern); every case must commit the golden trace.
        results = run_sweep(100)
        failed = [r.describe() for r in results if not r.ok]
        assert not failed, failed
        assert len(results) == 200
        by_gvt = {r.scenario.gvt_algorithm for r in results}
        assert by_gvt == {"omniscient", "mattern"}

    def test_sweep_scenario_list_is_pinned(self):
        scenarios = list(fault_sweep_scenarios(4))
        assert [s.app for s in scenarios] == ["phold", "smmp"] * 4
        for app_scenarios in (scenarios[0::2], scenarios[1::2]):
            assert [s.faults["seed"] for s in app_scenarios] == [0, 1, 2, 3]
            assert [s.gvt_algorithm for s in app_scenarios] == [
                "omniscient", "mattern", "omniscient", "mattern",
            ]
        assert {s.end_time for s in scenarios[0::2]} == {300.0}
        assert {s.end_time for s in scenarios[1::2]} == {None}  # quiescence
        rates = {"drop": 0.08, "duplicate": 0.08, "delay": 0.06,
                 "reorder": 0.08}
        assert all(s.faults["rates"] == rates for s in scenarios)
        assert all(set(s.faults) == {"seed", "rates"} for s in scenarios)

    def test_report_renders_failures(self):
        plan = FaultPlan(seed=1, rates=FaultRates(drop=0.15), retransmit=False)
        result = phold_case(plan)
        assert not result.ok
        rendered = result.describe()
        assert "FAIL" in rendered
        assert "plan_seed=1" in rendered


class TestOracleCanFail:
    def test_unrecovered_drop_is_detected(self):
        plan = FaultPlan(seed=1, rates=FaultRates(drop=0.15), retransmit=False)
        result = phold_case(plan)
        assert result.trace_match is False
        assert "message_loss" in result.violations
        assert result.failure_kind == "violation:message_loss"

    def test_reordering_alone_is_absorbed_by_rollback(self):
        # Time Warp's whole premise: out-of-order arrival is not a fault
        # the application can observe — rollback repairs it.
        plan = FaultPlan(
            seed=2, rates=FaultRates(duplicate=0.2, reorder=0.3),
            retransmit=False,
        )
        result = phold_case(plan)
        assert result.ok, result.describe()


class TestDefaultRates:
    def test_sweep_rates_meet_the_acceptance_bar(self):
        assert FAULT_SWEEP_RATES.drop > 0
        assert FAULT_SWEEP_RATES.duplicate > 0
        assert FAULT_SWEEP_RATES.reorder > 0


@st.composite
def wire_schedules(draw):
    """An arbitrary arrival schedule: a shuffled, duplicated prefix of
    sequence numbers 0..n-1 as the wire might present them."""
    n = draw(st.integers(min_value=1, max_value=12))
    seqs = list(range(n))
    arrivals = draw(st.permutations(seqs))
    extra = draw(st.lists(st.sampled_from(seqs), max_size=8))
    interleaved = draw(st.permutations(list(arrivals) + extra))
    return n, interleaved


class TestReceiverProperties:
    @given(wire_schedules())
    @settings(max_examples=200, deadline=None)
    def test_ordered_receiver_releases_in_sequence_exactly_once(self, case):
        n, arrivals = case
        receiver = ReliableReceiver(ordered=True)
        released = []
        for seq in arrivals:
            ready = receiver.accept(seq, f"m{seq}")
            if ready is not None:
                released.extend(ready)
        assert released == [f"m{i}" for i in range(n)]
        assert receiver.held_count() == 0
        assert receiver.cumulative_ack() == n - 1

    @given(wire_schedules())
    @settings(max_examples=200, deadline=None)
    def test_unordered_receiver_dedups_in_arrival_order(self, case):
        n, arrivals = case
        receiver = ReliableReceiver(ordered=False)
        released = []
        for seq in arrivals:
            ready = receiver.accept(seq, f"m{seq}")
            if ready is not None:
                released.extend(ready)
        first_sight = list(dict.fromkeys(arrivals))
        assert released == [f"m{s}" for s in first_sight]
        assert sorted(released) == sorted(f"m{i}" for i in range(n))
