"""run_scenario: digests, check battery, failure classification."""

import multiprocessing

import pytest

from repro.verify import Scenario, run_scenario, sequential_golden
from repro.verify.runner import ScenarioResult, canonical_value, committed_digest

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel backend requires the fork start method",
)


def test_committed_digest_is_order_insensitive_and_stable():
    records = {"b": (2, {"x": 1}), "a": (3, [1, 2])}
    assert committed_digest(records) == committed_digest(dict(reversed(records.items())))
    assert committed_digest(records) != committed_digest({"a": (3, [1, 2])})


def test_canonical_value_sorts_dicts_and_handles_dataclasses():
    from dataclasses import dataclass

    @dataclass
    class S:
        n: int
        items: tuple

    assert canonical_value(S(1, (2, 3))) == {"n": 1, "items": [2, 3]}
    assert canonical_value({2: "b", 1: "a"}) == {"1": "a", "2": "b"}


def test_sequential_golden_is_cached_per_workload():
    a = sequential_golden(Scenario())
    b = sequential_golden(Scenario(cancellation="lazy", checkpoint=8))
    assert a is b  # knobs don't change the workload key
    c = sequential_golden(Scenario(app_params={"n_objects": 6}))
    assert c is not a


def test_modelled_pivot_passes_all_checks():
    result = run_scenario(Scenario())
    assert result.ok, result.describe()
    assert result.digest_match and result.trace_match
    assert result.committed == result.expected > 0
    assert result.oracle_checks > 0
    assert "backend:modelled" in result.features


def test_knob_variants_reproduce_the_golden_digest():
    golden = run_scenario(Scenario())
    for changes in (
        {"cancellation": "lazy"},
        {"checkpoint": 16},
        {"aggregation": "saaw"},
        {"snapshot": "deepcopy"},
        {"gvt_algorithm": "mattern"},
        {"lp_speed_factors": {"0": 3.0}},
        {"faults": {"seed": 9, "rates": {"drop": 0.1}}},
    ):
        result = run_scenario(Scenario(**changes))
        assert result.ok, result.describe()
        assert result.digest == golden.digest, changes


def test_fastpath_pins_reproduce_the_golden_digest():
    # the whole point of the SoA hot core: python and numpy paths must
    # commit identical results, event for event
    golden = run_scenario(Scenario())
    for fastpath in ("python", "numpy"):
        result = run_scenario(Scenario(fastpath=fastpath))
        assert result.ok, result.describe()
        assert result.digest == golden.digest, fastpath


def test_conservative_backend_matches_golden():
    result = run_scenario(Scenario(app="smmp", backend="conservative"))
    assert result.ok, result.describe()
    assert result.trace_match is True


@needs_fork
def test_parallel_backend_matches_golden():
    result = run_scenario(Scenario(backend="parallel", workers=2))
    assert result.ok, result.describe()
    assert result.trace_match is None  # no trace across processes
    assert "backend:parallel:2" in result.features


def test_run_is_deterministic_across_invocations():
    first = run_scenario(Scenario(app="raid", cancellation="dynamic"))
    second = run_scenario(Scenario(app="raid", cancellation="dynamic"))
    assert first.digest == second.digest
    assert first.committed == second.committed


def test_crash_is_a_finding_not_an_abort(monkeypatch):
    import repro.verify.runner as runner_mod

    class Boom:
        def __init__(self, *args, **kwargs):
            raise RuntimeError("boom")

    monkeypatch.setattr(runner_mod, "TimeWarpSimulation", Boom)
    result = run_scenario(Scenario())
    assert result.failure_kind == "error:RuntimeError"
    assert "boom" in result.error


def test_failure_kind_ordering():
    r = ScenarioResult(scenario=Scenario())
    r.error = "ValueError: boom"
    assert r.failure_kind == "error:ValueError"
    r.error = ""
    r.violations = ("gvt_monotonic",)
    assert r.failure_kind == "violation:gvt_monotonic"
    r.violations = ()
    assert r.failure_kind == "digest"
    r.digest_match = True
    r.trace_match = False
    assert r.failure_kind == "trace"
    r.trace_match = True
    assert r.ok


def test_digest_mismatch_lists_the_disagreeing_objects(monkeypatch):
    import dataclasses

    import repro.verify.runner as runner_mod

    scenario = Scenario()
    golden = sequential_golden(scenario)
    name = sorted(golden.per_object)[0]
    tampered = dataclasses.replace(
        golden,
        digest="0" * 64,
        per_object={**golden.per_object, name: golden.per_object[name] + 1},
    )
    monkeypatch.setitem(
        runner_mod._golden_cache, runner_mod._golden_key(scenario), tampered
    )
    result = run_scenario(scenario)
    assert result.failure_kind == "digest"
    want = golden.per_object[name] + 1
    assert result.mismatches == (
        f"count mismatch {name}: run={want - 1} sequential={want}",
    )
    assert result.mismatches[0] in result.describe()
