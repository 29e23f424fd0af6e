"""Deterministic network fault injection (docs/robustness.md).

A seeded :class:`FaultPlan` describes drop/duplicate/delay/reorder
behaviour; configuring one (``SimulationConfig(faults=plan)``) swaps the
perfect wire for a :class:`FaultyNetwork` with a reliable transport on
top.  ``repro-bench faults`` sweeps seeded plans as verify scenarios
(:func:`repro.verify.lattice.fault_sweep_scenarios`), differentially
against the sequential kernel.
"""

from .network import FaultCounters, FaultyNetwork
from .plan import CLEAN, FaultDecision, FaultPlan, FaultRates

__all__ = [
    "CLEAN",
    "FaultCounters",
    "FaultDecision",
    "FaultPlan",
    "FaultRates",
    "FaultyNetwork",
]
