"""Benchmark harness: regenerate every table and figure of the paper.

Use the CLI (``repro-bench figures --fig 5``) or call the functions in
:mod:`repro.bench.figures` directly; pytest entry points live in the
repository's ``benchmarks/`` directory.
"""

from .harness import (
    RAID_PROFILE,
    SMMP_PROFILE,
    ExperimentProfile,
    RunResult,
    run_cell,
    scaled,
)
from .figures import FIGURES, fig5, fig6, fig7, fig8, fig9, baseline_rates

__all__ = [
    "ExperimentProfile",
    "FIGURES",
    "RAID_PROFILE",
    "RunResult",
    "SMMP_PROFILE",
    "baseline_rates",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "run_cell",
    "scaled",
]
