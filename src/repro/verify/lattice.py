"""Deterministic enumeration of the configuration lattice.

The full cross product (6 cancellation variants x 8 checkpoint settings
x 3 aggregation policies x 3 snapshot strategies x 2 GVT algorithms x 2
optimism windows x backends) is ~5000 points per app — too many for a
gate.  ``sweep_scenarios`` instead walks the paper-shaped slices that
matter: every value of every axis, one axis at a time, from a default
pivot per app, plus every backend variant of the pivot.  The fuzzer
(:mod:`repro.verify.fuzzer`) explores the interior of the lattice; the
sweep guarantees the axes themselves are always covered.

``fault_sweep_scenarios`` is the seeded fault-plan sweep behind
``repro-bench faults`` (docs/robustness.md).
"""

from __future__ import annotations

from typing import Iterator

from ..faults.plan import FaultPlan, FaultRates
from .runner import fork_available
from .scenario import (
    AGGREGATION_VARIANTS,
    CANCELLATION_VARIANTS,
    GVT_VARIANTS,
    SNAPSHOT_VARIANTS,
    TIME_WINDOW_VARIANTS,
    Scenario,
)

#: checkpoint chi values swept along the checkpoint axis
CHECKPOINT_SWEEP = (1, 2, 4, 8, 16, 32, 64, "dynamic")

#: one-axis sweeps: scenario field -> values
AXES: dict[str, tuple] = {
    "cancellation": CANCELLATION_VARIANTS,
    "checkpoint": CHECKPOINT_SWEEP,
    "aggregation": AGGREGATION_VARIANTS,
    "snapshot": SNAPSHOT_VARIANTS,
    "gvt_algorithm": GVT_VARIANTS,
    "time_window": TIME_WINDOW_VARIANTS,
}

DEFAULT_APPS = ("phold", "smmp", "raid")


def sweep_scenarios(
    apps: tuple[str, ...] = DEFAULT_APPS,
    axes: tuple[str, ...] | None = None,
    *,
    include_backends: bool = True,
) -> Iterator[Scenario]:
    """Yield the axis sweep, deduplicated, in a deterministic order."""
    chosen = axes or tuple(AXES)
    unknown = set(chosen) - set(AXES)
    if unknown:
        raise ValueError(f"unknown sweep axis/axes: {sorted(unknown)}")
    seen: set[str] = set()

    def emit(scenario: Scenario) -> Iterator[Scenario]:
        key = scenario.scenario_id()
        if key not in seen:
            seen.add(key)
            yield scenario

    for app in apps:
        pivot = Scenario(app=app)
        yield from emit(pivot)
        for axis in chosen:
            for value in AXES[axis]:
                yield from emit(pivot.with_(**{axis: value}))
        if include_backends:
            yield from emit(pivot.with_(backend="conservative"))
            if fork_available():
                for workers in (1, 2):
                    yield from emit(
                        pivot.with_(backend="parallel", workers=workers)
                    )


#: the fault sweep's rates: every fault class on -- drop, duplicate and
#: reorder per the acceptance bar, plus a little extra latency noise
FAULT_SWEEP_RATES = FaultRates(drop=0.08, duplicate=0.08, delay=0.06, reorder=0.08)

#: virtual-time horizon for PHOLD (which is unbounded) in the fault sweep
#: and the parallel validation; the other apps run to quiescence
PHOLD_END_TIME = 300.0


def validation_scenario(app: str, **knobs) -> Scenario:
    """``app`` at its validation horizon, with ``knobs`` set."""
    end_time = PHOLD_END_TIME if app == "phold" else None
    return Scenario(app=app, end_time=end_time, **knobs)


def fault_sweep_scenarios(
    plans: int, apps: tuple[str, ...] = ("phold", "smmp")
) -> Iterator[Scenario]:
    """``plans`` seeded fault plans over ``apps``, plan seed by plan seed.

    Seed ``s`` runs with the omniscient GVT when even and Mattern when
    odd, so both estimators face every second plan.
    """
    for seed in range(plans):
        faults = FaultPlan(seed=seed, rates=FAULT_SWEEP_RATES).to_dict()
        gvt = "mattern" if seed % 2 else "omniscient"
        for app in apps:
            yield validation_scenario(app, faults=faults, gvt_algorithm=gvt)
