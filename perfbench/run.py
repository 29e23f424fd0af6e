"""Benchmark driver: one workload, timed repetitions, checked results.

Usage (from the repository root)::

    python3 perfbench/run.py --workload smmp-online --seed 1 --seconds 60 --trace 0

Each repetition runs in a forked child of this process, in its own
process group: set-up (timed as ``setup_s``), then ``run()`` (timed for
wall and CPU), then the committed-state digest.  The child reports back
over a pipe.  A repetition that crashes, times out or commits a digest
other than the sequential golden counts as failed.  Repetitions repeat
until ``--seconds`` have passed; metrics are medians over repetitions.
The first repetition runs on a held-out seed and is only checked.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones (see perfbench/README.md).  The last line of standard output
is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: a seed no tuning run uses: every invocation also checks one run on it
HOLDOUT_SEED = 104_729
#: a repetition still running after this long is killed and failed
REP_TIMEOUT_S = 40.0
MIN_REPS = 3
#: stop starting repetitions past this many seconds of the invocation
WALL_BUDGET_S = 120.0

END_TO_END = {
    "committed_events_per_s": "1/s",
    "cpu_us_per_event": "us",
    "model_makespan_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "kernel.sched_s": "s",
    "kernel.peeks_per_event": "peeks/event",
    "kernel.execute_s": "s",
    "kernel.deliver_s": "s",
    "kernel.save_s": "s",
    "kernel.size_s": "s",
    "kernel.size_calls": "count",
    "kernel.rollback_s": "s",
    "kernel.coast_s": "s",
    "kernel.coast_events": "count",
    "kernel.fossil_s": "s",
    "kernel.commit_ratio": "ratio",
    "kernel.rollbacks": "count",
    "kernel.antis_sent": "count",
    "kernel.state_saves": "count",
    "gvt.local_min_s": "s",
    "gvt.round_s": "s",
    "gvt.rounds": "count",
    "apps.execute_s": "s",
    "comm.send_s": "s",
    "comm.recv_s": "s",
    "comm.msg_size_s": "s",
    "comm.physical_messages": "count",
    "comm.events_per_message": "events/msg",
    "cluster.dispatch_s": "s",
    "core.control_s": "s",
    "core.invocations": "count",
    "core.moves": "count",
    "parallel.encode_s": "s",
    "parallel.decode_s": "s",
    "parallel.frames": "count",
    "parallel.wire_bytes": "bytes",
    "parallel.wire_fallbacks": "count",
    "parallel.push_s": "s",
    "parallel.push_full_ratio": "ratio",
    "parallel.worker_busy_s": "s",
    "parallel.inbox_wait_s": "s",
    "parallel.idle_share": "ratio",
    "partition.profile_s": "s",
    "partition.kl_s": "s",
    "trace.overhead": "ratio",
    "trace.unattributed_share": "ratio",
}


# --------------------------------------------------------------------- #
# sequential golden and digests
# --------------------------------------------------------------------- #
def golden_digest(workload, seed: int) -> str:
    """Committed-state digest of the sequential kernel's run."""
    from repro.sequential import SequentialSimulation
    from repro.verify.runner import committed_digest

    objects = [obj for group in workload.builder(seed)() for obj in group]
    seq = SequentialSimulation(
        objects, record_trace=True, end_time=workload.end_time
    )
    seq.run()
    per_object = Counter(entry[1] for entry in seq.trace)
    records = {
        obj.name: (per_object.get(obj.name, 0), obj.state) for obj in objects
    }
    return committed_digest(records)


def run_digest(sim, stats) -> str:
    """Committed-state digest of a finished run, comparable with the golden."""
    from repro.verify.runner import committed_digest

    if hasattr(sim, "final_states"):  # parallel backend
        states = sim.final_states
    else:
        states = {name: sim.object_named(name).state for name in stats.per_object}
    records = {
        name: (ostats.events_committed, states[name])
        for name, ostats in stats.per_object.items()
    }
    return committed_digest(records)


# --------------------------------------------------------------------- #
# provenance
# --------------------------------------------------------------------- #
def source_id() -> str:
    """The git commit when there is one, else a digest of the sources."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def host_provenance() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "commit": source_id(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
    }


def resolved_axes(sim) -> dict:
    """fastpath and wire as the program resolved them, read back from the
    simulation; an axis the program no longer has reads as "absent"."""
    lps = getattr(sim, "lps", None)
    if lps is not None:  # modelled: every LP stores its resolved hot core
        return {"fastpath": getattr(lps[0], "fastpath", "absent"),
                "wire": "none (modelled)"}
    # parallel: workers resolve the hot core with the same function in the
    # same interpreter; the coordinator keeps the wire it ended up using
    from repro.kernel import arena

    resolve = getattr(arena, "resolve_fastpath", None)
    fastpath = (
        resolve(getattr(sim.config, "fastpath", None))
        if resolve is not None else "absent"
    )
    return {"fastpath": fastpath, "wire": getattr(sim, "wire", "absent")}


# --------------------------------------------------------------------- #
# one repetition (runs in the forked child)
# --------------------------------------------------------------------- #
def _reset_peak_rss() -> None:
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass  # no reset available: the peak then includes set-up


def _own_peak_rss_kb() -> int:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def repetition(workload, seed: int, traced: bool, work_dir: Path) -> dict:
    """Set up, run and measure one simulation; return its record."""
    builder = workload.builder(seed)
    trace = None
    if traced:
        import layers

        trace = layers.LayerTrace()
        layers.install(
            trace, [obj for group in builder() for obj in group], work_dir
        )

    started = time.perf_counter()
    sim = workload.setup(seed, builder)
    setup_s = time.perf_counter() - started
    setup_tallies = trace.tallies() if trace is not None else None
    if trace is not None:
        trace.reset()

    _reset_peak_rss()
    cpu0 = _cpu_s()
    started = time.perf_counter()
    stats = sim.run()
    wall_s = time.perf_counter() - started
    cpu_s = _cpu_s() - cpu0
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_kb = max(_own_peak_rss_kb(), children_kb)

    record = {
        "seed": seed,
        "traced": traced,
        "digest": run_digest(sim, stats),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "axes": resolved_axes(sim),
        # all deterministic on the modelled backend; the drift guard
        # compares every one of them between repetitions
        "counters": {
            "committed": stats.committed_events,
            "executed": stats.executed_events,
            "rollbacks": stats.rollbacks,
            "state_saves": stats.state_saves,
            "antis_sent": stats.antis_sent,
            "coast_forward_events": stats.coast_forward_events,
            "physical_messages": stats.physical_messages,
            "events_on_wire": stats.events_on_wire,
            "execution_time_us": stats.execution_time,
        },
    }
    if hasattr(sim, "wire_stats"):
        record["wire_stats"] = dict(sim.wire_stats)
    if trace is not None:
        record["layers"] = {
            "setup": setup_tallies,
            "run": trace.tallies(),
            "workers": layers.read_worker_tallies(work_dir),
        }
    return record


def _raise_exit(_signum, _frame):
    raise SystemExit("terminated by the benchmark driver (timeout)")


def run_forked(fn, timeout_s: float) -> dict:
    """Run ``fn()`` in a forked child in its own process group.

    Returns its record, or ``{"error": ...}`` on crash or timeout; the
    child and everything it started are stopped either way.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(read_fd)
        status = 0
        try:
            os.setpgid(0, 0)
            signal.signal(signal.SIGTERM, _raise_exit)
            payload = {"ok": fn()}
        except BaseException:
            payload = {"error": traceback.format_exc()}
            status = 1
        try:
            with os.fdopen(write_fd, "w") as pipe:
                pipe.write(json.dumps(payload))
        finally:
            os._exit(status)

    os.close(write_fd)
    try:
        os.setpgid(pid, pid)  # either side may win the race; both agree
    except OSError:
        pass
    chunks = []
    deadline = time.monotonic() + timeout_s
    timed_out = False
    with os.fdopen(read_fd, "rb") as pipe:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                timed_out = True
                break
            ready, _, _ = select.select([pipe], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(pipe.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    if timed_out:
        _stop_group(pid)
    else:
        os.waitpid(pid, 0)
    _wait_group_gone(pid)
    if timed_out:
        return {"error": f"timed out after {timeout_s:.0f} s"}
    try:
        payload = json.loads(b"".join(chunks) or b"{}")
    except ValueError:
        return {"error": "unreadable result from the repetition"}
    if "ok" not in payload:
        return {"error": payload.get("error", "repetition exited silently")}
    return payload["ok"]


def _stop_group(pid: int) -> None:
    """Stop a timed-out repetition and reap it: SIGTERM first, so the
    backend can reap its workers and free shared memory, then SIGKILL."""
    os.killpg(pid, signal.SIGTERM)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if os.waitpid(pid, os.WNOHANG)[0]:
            return
        time.sleep(0.05)
    os.killpg(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


def _wait_group_gone(pgid: int, limit_s: float = 10.0) -> None:
    """Wait until no process of the repetition's group is left."""
    deadline = time.monotonic() + limit_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# --------------------------------------------------------------------- #
# checking and reporting
# --------------------------------------------------------------------- #
def check(record: dict, golden: str, reference: dict | None) -> str:
    """'' when the repetition is correct, else why it failed."""
    if "error" in record:
        return record["error"].strip().splitlines()[-1]
    if record["digest"] != golden:
        return "committed digest differs from the sequential golden"
    if reference is not None and record["counters"] != reference:
        drift = sorted(
            key for key, value in reference.items()
            if record["counters"][key] != value
        )
        return f"deterministic counters drifted: {drift}"
    if "layers" in record:
        # the span rule that tells coast-forward from forward execution
        # must agree with the kernel's own count
        tallies = [record["layers"]["run"], *record["layers"]["workers"]]
        traced = sum(t["counts"].get("kernel.coast_events", 0) for t in tallies)
        counted = record["counters"]["coast_forward_events"]
        if traced != counted:
            return f"trace saw {traced} coast-forward events, kernel {counted}"
    return ""


def end_to_end(records: list[dict]) -> dict:
    def med(values):
        return statistics.median(values)

    return {
        "committed_events_per_s": med(
            r["counters"]["committed"] / r["wall_s"] for r in records
        ),
        "cpu_us_per_event": med(
            r["cpu_s"] * 1e6 / r["counters"]["committed"] for r in records
        ),
        "model_makespan_s": med(
            r["counters"]["execution_time_us"] / 1e6 for r in records
        ),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in records),
        "setup_s": med(r["setup_s"] for r in records),
    }


def per_layer(record: dict) -> dict:
    """Per-layer metrics of one traced repetition."""
    tallies = record["layers"]
    workers = tallies["workers"]
    run = tallies["run"]
    self_s: Counter = Counter(run["self_s"])
    counts: Counter = Counter(run["counts"])
    for tally in workers:
        self_s.update(tally["self_s"])
        counts.update(tally["counts"])
    setup_incl = tallies["setup"]["incl_s"]
    c = record["counters"]
    executed = max(1, c["executed"])
    wire = record.get("wire_stats", {})
    attempts = counts["parallel.push_attempts"]

    if workers:
        lifetime = sum(t["lifetime_s"] for t in workers)
        covered = sum(t["covered_s"] for t in workers)
        busy = [t["incl_s"].get("kernel.execute", 0.0) for t in workers]
        idle_share = max(
            1.0 - b / t["lifetime_s"] for b, t in zip(busy, workers)
        )
    else:
        lifetime, covered = record["wall_s"], run["covered_s"]
        busy, idle_share = [], 0.0

    metrics = {
        "kernel.sched_s": self_s["kernel.sched"],
        "kernel.peeks_per_event": counts["kernel.peeks"] / executed,
        "kernel.execute_s": self_s["kernel.execute"],
        "kernel.deliver_s": self_s["kernel.deliver"],
        "kernel.save_s": self_s["kernel.save"],
        "kernel.size_s": self_s["kernel.size"],
        "kernel.size_calls": counts["kernel.size_calls"],
        "kernel.rollback_s": self_s["kernel.rollback"],
        "kernel.coast_s": self_s["kernel.coast"],
        "kernel.coast_events": counts["kernel.coast_events"],
        "kernel.fossil_s": self_s["kernel.fossil"],
        "kernel.commit_ratio": c["committed"] / executed,
        "kernel.rollbacks": c["rollbacks"],
        "kernel.antis_sent": c["antis_sent"],
        "kernel.state_saves": c["state_saves"],
        "gvt.local_min_s": self_s["gvt.local_min"],
        "gvt.round_s": self_s["gvt.round"],
        "gvt.rounds": counts["gvt.rounds"],
        "apps.execute_s": self_s["apps.execute"],
        "comm.send_s": self_s["comm.send"],
        "comm.recv_s": self_s["comm.recv"],
        "comm.msg_size_s": self_s["comm.msg_size"],
        "comm.physical_messages": c["physical_messages"],
        "comm.events_per_message": (
            c["events_on_wire"] / c["physical_messages"]
            if c["physical_messages"] else 0.0
        ),
        "cluster.dispatch_s": self_s["cluster.dispatch"],
        "core.control_s": self_s["core.control"],
        "core.invocations": counts["core.invocations"],
        "core.moves": counts["core.moves"],
        "parallel.encode_s": self_s["parallel.encode"],
        "parallel.decode_s": self_s["parallel.decode"],
        "parallel.frames": wire.get("frames_sent", 0),
        "parallel.wire_bytes": wire.get("ring_bytes_sent", 0),
        "parallel.wire_fallbacks": wire.get("wire_fallbacks", 0),
        "parallel.push_s": self_s["parallel.push"],
        "parallel.push_full_ratio": (
            counts["parallel.push_full"] / attempts if attempts else 0.0
        ),
        "parallel.worker_busy_s": sum(busy),
        "parallel.inbox_wait_s": self_s["parallel.inbox_wait"],
        "parallel.idle_share": idle_share,
        "partition.profile_s": setup_incl.get("partition.profile", 0.0),
        "partition.kl_s": setup_incl.get("partition.kl", 0.0),
        "trace.unattributed_share": 1.0 - covered / lifetime,
    }
    return metrics


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    rows = [per_layer(r) for r in traced]
    metrics = {
        name: statistics.median(row[name] for row in rows)
        for name in rows[0]
    }
    metrics["trace.overhead"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced)
        - 1.0
    )
    return metrics


# --------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed == HOLDOUT_SEED:
        print(f"perfbench: seed {HOLDOUT_SEED} is the held-out seed",
              file=sys.stderr)
        return 2

    invocation_start = time.monotonic()
    # The golden runs are outside set-up and outside the timed region.
    golden = golden_digest(workload, args.seed)
    holdout_golden = golden_digest(workload, HOLDOUT_SEED)
    host = host_provenance()

    # worker tallies of traced repetitions land here, inside the checkout
    work_root = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    if workload.backend == "parallel":
        # Start the shared-memory resource tracker here, outside the
        # repetitions' process groups: a tracker started inside one would
        # outlive its repetition as an orphan the driver cannot wait for.
        resource_tracker.ensure_running()
    passed: list[dict] = []
    attempted = failed = 0
    reference = None

    def attempt(seed: int, traced: bool, want: str) -> dict | None:
        nonlocal attempted, failed, reference
        work_dir = Path(tempfile.mkdtemp(dir=work_root))
        try:
            record = run_forked(
                lambda: repetition(workload, seed, traced, work_dir),
                REP_TIMEOUT_S,
            )
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        attempted += 1
        # modelled runs are deterministic: every repetition on the measured
        # seed, traced or not, must reproduce the first one's counters
        guarded = workload.backend == "modelled" and seed == args.seed
        problem = check(record, want, reference if guarded else None)
        line = {"rep": attempted, "seed": seed, "traced": traced,
                "ok": not problem, **host}
        if problem:
            failed += 1
            line["failure"] = problem
        else:
            line.update(axes=record["axes"], setup_s=record["setup_s"],
                        wall_s=record["wall_s"], cpu_s=record["cpu_s"],
                        peak_rss_mb=record["peak_rss_mb"],
                        counters=record["counters"])
            if guarded and reference is None:
                reference = record["counters"]
        print(json.dumps(line), flush=True)
        return None if problem else record

    try:
        measure_start = time.monotonic()
        # The held-out repetition comes first, inside the measured window:
        # it is only checked, and it warms the host up before the timed
        # repetitions on --seed.
        attempt(HOLDOUT_SEED, False, holdout_golden)
        rep = 0
        while True:
            elapsed = time.monotonic() - measure_start
            reps_done = [r for r in passed if not r["traced"]]
            enough = len(reps_done) >= MIN_REPS and (
                not args.trace or len(passed) - len(reps_done) >= MIN_REPS
            )
            if elapsed >= args.seconds and enough:
                break
            if time.monotonic() - invocation_start > WALL_BUDGET_S:
                break
            record = attempt(args.seed, bool(args.trace) and rep % 2 == 1,
                             golden)
            if record is not None:
                passed.append(record)
            rep += 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop_tracker is not None:
            stop_tracker()  # closes its pipe and waits for it to exit

    untraced = [r for r in passed if not r["traced"]]
    traced = [r for r in passed if r["traced"]]
    if not untraced or (args.trace and not traced):
        print("perfbench: no repetition succeeded", file=sys.stderr)
        return 1
    if args.trace:
        values, units = layer_metrics(traced, untraced), PER_LAYER
    else:
        values, units = end_to_end(untraced), END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
