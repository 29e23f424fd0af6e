"""Process-sharded parallel execution backend (docs/parallel.md).

Shards the LPs of a partitioned model across OS worker processes, runs
the proven single-process Time Warp loop inside each shard, batches
inter-shard events over ``multiprocessing`` queues behind the DyMA
aggregation buffers, and drives Mattern-colour GVT from a coordinator in
the parent process.  Select it with
``SimulationConfig(backend="parallel", workers=N)`` through
:func:`repro.make_simulation`, or construct
:class:`ParallelSimulation` directly.
"""

from .backend import ParallelSimulation, resolve_strategy
from .gvt import GvtCoordinator, RoundResult, WorkerFailedError
from .ipc import (
    DataBatch,
    GvtCommit,
    GvtStart,
    ShardDone,
    ShardError,
    ShardReport,
    Stop,
)
from .transport import ShardTransport
from .worker import ShardPlan, worker_main

__all__ = [
    "DataBatch",
    "GvtCommit",
    "GvtCoordinator",
    "GvtStart",
    "ParallelSimulation",
    "RoundResult",
    "ShardDone",
    "ShardError",
    "ShardPlan",
    "ShardReport",
    "ShardTransport",
    "Stop",
    "WorkerFailedError",
    "resolve_strategy",
    "worker_main",
]
