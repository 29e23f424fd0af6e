"""The benchmark's two workloads, built from the public library API.

Each workload turns a seed into a model builder and a configured,
ready-to-run simulation.  The seed reaches only the generated inputs:
``PHOLDParams.seed`` / ``SMMPParams.seed`` and the ``NetworkModel``
jitter seed.  Every other knob is fixed here, and ``fastpath`` and
``wire`` are left at the library defaults on purpose, so the benchmark
keeps measuring what users run when those axes change or disappear.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro import (
    DynamicCancellation,
    DynamicCheckpoint,
    FixedWindow,
    NetworkModel,
    SAAWPolicy,
    SimulationConfig,
    TimeWarpSimulation,
)
from repro.apps import PHOLDParams, SMMPParams, build_phold, build_smmp
from repro.bench.harness import SMMP_PROFILE
from repro.parallel.backend import ParallelSimulation

INF = float("inf")


@dataclass(frozen=True)
class Workload:
    name: str
    #: "modelled" (deterministic in-process cluster) or "parallel"
    backend: str
    #: virtual-time horizon of the run (and of its sequential golden)
    end_time: float
    #: seed -> zero-argument builder returning a fresh partition
    builder: Callable[[int], Callable[[], list]]
    #: (seed, builder) -> simulation ready to ``run()``; this is the
    #: work ``setup_s`` times
    setup: Callable[[int, Callable[[], list]], object]


# --------------------------------------------------------------------- #
# smmp-online: the paper's model under the paper's three controllers
# --------------------------------------------------------------------- #
SMMP_REQUESTS = 300


def _smmp_builder(seed: int):
    # paper sizing: 16 CPUs, 48 banks, 100 objects on 4 LPs
    params = SMMPParams(requests_per_processor=SMMP_REQUESTS, seed=seed)
    return lambda: build_smmp(params)


def _smmp_setup(seed: int, builder):
    config = SMMP_PROFILE.config(
        seed=seed,
        checkpoint=lambda _obj: DynamicCheckpoint(period=16),
        cancellation=lambda _obj: DynamicCancellation(
            filter_depth=16, a2l_threshold=0.45, l2a_threshold=0.2, period=8
        ),
        aggregation=lambda _lp: SAAWPolicy(),
    )
    return TimeWarpSimulation(builder(), config)


# --------------------------------------------------------------------- #
# parallel-phold: real processes, real IPC, coordinator GVT
# --------------------------------------------------------------------- #
PARALLEL_END = 20_000.0
PARALLEL_WORKERS = 2


def _parallel_builder(seed: int):
    params = PHOLDParams(
        n_objects=16, n_lps=2, jobs_per_object=3, locality=0.9, seed=seed
    )
    return lambda: build_phold(params)


def _parallel_setup(seed: int, builder):
    config = SimulationConfig(
        backend="parallel",
        workers=PARALLEL_WORKERS,
        end_time=PARALLEL_END,
        network=NetworkModel(seed=seed),
        aggregation=lambda _lp: FixedWindow(50.0),
    )
    # profiling + kernighan_lin sharding are part of set-up
    return ParallelSimulation.from_builder(builder, config)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("smmp-online", "modelled", INF,
                 _smmp_builder, _smmp_setup),
        Workload("parallel-phold", "parallel", PARALLEL_END,
                 _parallel_builder, _parallel_setup),
    )
}
