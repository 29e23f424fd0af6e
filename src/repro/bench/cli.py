"""Command-line entry point for every benchmark family.

Subcommands::

    repro-bench figures --fig 5            # regenerate a paper figure
    repro-bench figures --all              # every figure, quick scale
    repro-bench figures --ablation checkpoint
    repro-bench faults --plans 100         # differential fault fuzzing
    repro-bench perf --quick               # wall-clock perf suite
    repro-bench perf --compare benchmarks/baseline.json --fail-on-regress 25
    repro-bench parallel --workers 2       # validate the parallel backend
    repro-bench ablate --knob checkpoint   # static-best vs on-line control
    repro-bench verify fuzz --budget 40    # forwards to repro-verify

``faults`` and ``parallel`` run verify scenarios (:mod:`repro.verify`):
every case must commit the sequential golden with the oracle clean.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from collections import Counter

from . import ablations, harness
from .figures import FIGURES
from .tables import render_fig5, render_results, render_series

_SERIES_META = {
    "6": ("requests", "Figure 6 — RAID: execution time vs number of requests"),
    "7": ("vectors", "Figure 7 — SMMP: execution time vs number of test vectors"),
    "8": ("agg age (us)", "Figure 8 — SMMP: DyMA execution time vs aggregate age"),
    "9": ("agg age (us)", "Figure 9 — RAID: DyMA execution time vs aggregate age"),
}

#: the elasticity smoke's churn plan: one scripted migration, then one
#: worker leave
_ELASTIC_SMOKE_CHURN = {
    "seed": 7,
    "steps": [
        {"at": 1, "kind": "migrate", "count": 1},
        {"at": 2, "kind": "leave", "count": 1},
    ],
}


def render(fig: str, results) -> str:
    if fig == "5":
        return render_fig5(results)
    if fig in _SERIES_META:
        xlabel, title = _SERIES_META[fig]
        return render_series(results, xlabel, title)
    return render_results(results, f"Experiment {fig}")


# --------------------------------------------------------------------- #
# argument groups
# --------------------------------------------------------------------- #
def _add_figure_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fig", choices=sorted(FIGURES),
                        help="figure to regenerate (5..9 or 'baseline')")
    parser.add_argument("--all", action="store_true",
                        help="regenerate every figure")
    parser.add_argument("--ablation", choices=sorted(ablations.ABLATIONS),
                        help="run an ablation study instead of a figure")
    parser.add_argument("--scale", type=float, default=None,
                        help="workload scale (1.0 = paper size; default: "
                             "per-figure quick scale)")
    parser.add_argument("--full", action="store_true",
                        help="shorthand for --scale 1.0 (paper-sized; slow)")
    parser.add_argument("--replicates", type=int, default=3,
                        help="seeded replicates per cell (paper used 5)")
    parser.add_argument("--json", metavar="PATH",
                        help="also dump raw results as JSON (figures only)")
    parser.add_argument("--trace", metavar="DIR",
                        help="dump a controller-decision trace (JSONL, see "
                             "docs/observability.md) per replicate into DIR")


def _add_perf_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized workloads (~1 min for the full suite)")
    parser.add_argument("--reps", type=int, default=3,
                        help="timed repetitions per benchmark")
    parser.add_argument("--warmup", type=int, default=1,
                        help="untimed warmup repetitions per benchmark")
    parser.add_argument("--only", metavar="SUBSTR",
                        help="run only benchmarks whose name contains SUBSTR")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="output document path (default: BENCH_3.json; "
                             "'-' skips writing)")
    parser.add_argument("--compare", metavar="BASELINE.json",
                        help="diff this run against a baseline document")
    parser.add_argument("--fail-on-regress", type=float, default=None,
                        metavar="PCT",
                        help="with --compare: exit non-zero if any "
                             "benchmark's rate drops more than PCT percent "
                             "or its deterministic counters drift")
    parser.add_argument("--wire-gate", type=float, default=None,
                        metavar="RATIO",
                        help="exit non-zero unless every parallel shm "
                             "benchmark beats its in-document .queue twin "
                             "by at least RATIO x (same machine, same run)")
    parser.add_argument("--fastpath-gate", type=float, default=None,
                        metavar="RATIO",
                        help="exit non-zero unless every numpy-fastpath "
                             "benchmark beats its in-document .python twin "
                             "by at least RATIO x (same machine, same run)")


# --------------------------------------------------------------------- #
# runners
# --------------------------------------------------------------------- #
def run_figures(args: argparse.Namespace) -> int:
    if not (args.fig or args.all or args.ablation):
        raise SystemExit(
            "repro-bench figures: choose --fig N, --all or --ablation NAME"
        )
    if args.trace:
        harness.set_trace_dir(args.trace)
        print(f"tracing every replicate into {args.trace}/ "
              f"(inspect with repro-trace)")

    kwargs: dict = {"replicates": args.replicates}
    if args.full:
        kwargs["scale"] = 1.0
    elif args.scale is not None:
        kwargs["scale"] = args.scale

    if args.ablation:
        start = time.perf_counter()
        text = ablations.ABLATIONS[args.ablation](**kwargs)
        print(text)
        print(f"\n[{time.perf_counter() - start:.1f}s wall]")
        return 0

    figures = sorted(FIGURES) if args.all else [args.fig]
    dump: dict[str, list[dict]] = {}
    for fig in figures:
        start = time.perf_counter()
        results = FIGURES[fig](**kwargs)
        print(render(fig, results))
        print(f"\n[{time.perf_counter() - start:.1f}s wall]\n")
        dump[fig] = [dataclasses.asdict(r) for r in results]
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(dump, fh, indent=2, default=str)
        print(f"raw results written to {args.json}")
    return 0


def run_faults(args: argparse.Namespace) -> int:
    from ..verify.lattice import fault_sweep_scenarios
    from ..verify.runner import run_scenario

    start = time.perf_counter()
    results = [run_scenario(s) for s in fault_sweep_scenarios(args.plans)]
    by_app = Counter(result.scenario.app for result in results)
    per_app = ", ".join(f"{app}: {n}" for app, n in sorted(by_app.items()))
    injected = sum("trace:fault.inject" in r.features for r in results)
    retransmitted = sum("trace:net.retransmit" in r.features for r in results)
    checks = sum(r.oracle_checks for r in results)
    print(f"fuzzed {len(results)} case(s) ({per_app}); {injected} with "
          f"injected faults, {retransmitted} with retransmissions, "
          f"{checks} oracle check(s)")
    failed = [r for r in results if not r.ok]
    for result in failed:
        print(f"  {result.describe()}")
    print("PASS" if not failed else f"FAIL ({len(failed)} case(s))")
    print(f"\n[{time.perf_counter() - start:.1f}s wall]")
    return 1 if failed else 0


def run_parallel(args: argparse.Namespace) -> int:
    from ..kernel.errors import ConfigurationError
    from ..verify.lattice import validation_scenario
    from ..verify.runner import run_scenario

    churn = json.loads(args.churn) if args.churn else None
    gvt_period = args.gvt_period
    if args.elastic_smoke:
        if churn is not None:
            raise SystemExit("repro-bench parallel: --elastic-smoke "
                             "supplies its own churn plan")
        churn = _ELASTIC_SMOKE_CHURN
        if gvt_period is None:
            gvt_period = 5_000.0
    knobs: dict = {"backend": "parallel", "workers": args.workers,
                   "wire": args.wire, "fastpath": args.fastpath,
                   "churn": churn}
    if gvt_period is not None:
        knobs["gvt_period"] = gvt_period
    try:
        results = [
            run_scenario(validation_scenario(app, **knobs),
                         trace_dir=args.trace_dir)
            for app in args.app or ("phold", "smmp")
        ]
    except ConfigurationError as exc:  # a malformed --churn plan
        raise SystemExit(f"repro-bench parallel: {exc}") from None
    for result in results:
        print(result.describe())
    failed = [r for r in results if not r.ok]
    print("PASS" if not failed else f"FAIL ({len(failed)} app(s))")
    return 1 if failed else 0


def run_perf(args: argparse.Namespace) -> int:
    from .perf.report import (
        DEFAULT_OUTPUT,
        compare_documents,
        fastpath_gate,
        load_document,
        make_document,
        render_document,
        wire_gate,
        write_document,
    )
    from .perf.suite import run_suite

    start = time.perf_counter()
    results = run_suite(
        quick=args.quick,
        reps=args.reps,
        warmup=args.warmup,
        only=args.only,
        progress=lambda name: print(f"  running {name} ...", file=sys.stderr),
    )
    document = make_document(
        results, quick=args.quick, reps=args.reps, warmup=args.warmup
    )
    print(render_document(document))
    print(f"\n[{time.perf_counter() - start:.1f}s wall]")

    out = args.out if args.out is not None else DEFAULT_OUTPUT
    if out != "-":
        path = write_document(document, out)
        print(f"document written to {path}")

    failed = False
    if args.compare:
        baseline = load_document(args.compare)
        comparison = compare_documents(
            baseline, document, fail_on_regress=args.fail_on_regress
        )
        print()
        print(f"comparison vs {args.compare}:")
        print(comparison.render())
        if args.fail_on_regress is not None and not comparison.ok:
            failed = True
    elif args.fail_on_regress is not None:
        raise SystemExit("--fail-on-regress requires --compare BASELINE.json")
    if args.wire_gate is not None:
        gate = wire_gate(document, min_speedup=args.wire_gate)
        print()
        print(gate.render())
        if not gate.ok:
            failed = True
    if args.fastpath_gate is not None:
        gate = fastpath_gate(document, min_speedup=args.fastpath_gate)
        print()
        print(gate.render())
        if not gate.ok:
            failed = True
    return 1 if failed else 0


def run_ablate(args: argparse.Namespace) -> int:
    from ..control.registry import KNOBS
    from .ablate import (
        ABLATE_APPS,
        render_ablate,
        run_ablate as run_sweep,
        write_ablate_document,
    )

    knobs = tuple(args.knob) if args.knob else None
    apps = tuple(args.app) if args.app else None
    scale = args.scale if args.scale is not None else 0.05
    replicates = args.replicates
    if args.quick:
        # CI-sized: two knobs, tiny workloads, still static-vs-dynamic
        knobs = knobs or ("checkpoint", "cancellation")
        if args.scale is None:
            scale = 0.02
        replicates = min(replicates, 2)
    if knobs is not None:
        unknown = sorted(set(knobs) - set(KNOBS))
        if unknown:
            raise SystemExit(f"repro-bench ablate: unknown knob(s) "
                             f"{', '.join(unknown)}; see repro-control list")
    if apps is not None:
        unknown = sorted(set(apps) - set(ABLATE_APPS))
        if unknown:
            raise SystemExit(f"repro-bench ablate: unknown app(s) "
                             f"{', '.join(unknown)}")

    start = time.perf_counter()
    results = run_sweep(
        knobs, apps, scale=scale, replicates=replicates,
        tolerance=args.tolerance,
        progress=lambda label: print(f"  sweeping {label} ...",
                                     file=sys.stderr),
    )
    print(render_ablate(results))
    print(f"\n[{time.perf_counter() - start:.1f}s wall]")
    if args.json:
        path = write_ablate_document(
            results, args.json, scale=scale, replicates=replicates
        )
        print(f"document written to {path}")
    if args.fail_on_loss and not all(r.ok for r in results):
        return 1
    return 0


def _add_ablate_args(parser: argparse.ArgumentParser) -> None:
    from .ablate import DEFAULT_TOLERANCE

    parser.add_argument("--knob", action="append", metavar="NAME",
                        help="knob to ablate (repeatable; default: every "
                             "registered knob — see repro-control list)")
    parser.add_argument("--app", action="append",
                        choices=("phold", "smmp"),
                        help="workload to sweep on (repeatable; default: "
                             "each knob's declared apps)")
    parser.add_argument("--scale", type=float, default=None,
                        help="workload scale (1.0 = paper size; "
                             "default 0.05, or 0.02 with --quick)")
    parser.add_argument("--replicates", type=int, default=3,
                        help="seeded replicates per cell")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="allowed dynamic-vs-best-static shortfall "
                             "(fraction; default %(default)s)")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized: 2 knobs, tiny scale, 2 replicates")
    parser.add_argument("--json", metavar="PATH",
                        help="write the sweep as a JSON document")
    parser.add_argument("--fail-on-loss", action="store_true",
                        help="exit non-zero if any dynamic run loses to "
                             "its best static beyond the tolerance")


# --------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------- #
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Benchmarks for the Time Warp reproduction: paper "
                    "figures, fault-injection fuzzing, and wall-clock "
                    "performance (docs/benchmarking.md).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    figures = subparsers.add_parser(
        "figures", help="regenerate the paper's figures and ablations")
    _add_figure_args(figures)
    figures.set_defaults(runner=run_figures)
    faults = subparsers.add_parser(
        "faults", help="differential fault-injection fuzz sweep")
    faults.add_argument("--plans", type=int, default=100,
                        help="seeded fault plans to sweep")
    faults.set_defaults(runner=run_faults)
    perf = subparsers.add_parser(
        "perf", help="wall-clock performance suite (emits BENCH_3.json)")
    _add_perf_args(perf)
    perf.set_defaults(runner=run_perf)
    parallel = subparsers.add_parser(
        "parallel",
        help="differentially validate the process-sharded backend "
             "(docs/parallel.md)")
    parallel.add_argument("--app", action="append",
                          choices=("phold", "smmp"),
                          help="application to validate (repeatable; "
                               "default: all)")
    parallel.add_argument("--workers", type=int, default=2,
                          help="worker-process count")
    parallel.add_argument("--trace-dir", metavar="DIR",
                          help="write per-shard JSONL traces into DIR")
    parallel.add_argument("--churn", metavar="JSON",
                          help="elasticity plan as inline JSON "
                               "(docs/parallel.md)")
    parallel.add_argument("--elastic-smoke", action="store_true",
                          help="canned elasticity check: one scripted "
                               "migration plus one worker leave")
    parallel.add_argument("--gvt-period", type=float, default=None,
                          help="wall-clock GVT period in microseconds")
    parallel.add_argument("--wire", default=None, choices=("shm", "queue"),
                          help="inter-shard data wire (default: shm); the "
                               "CI parity matrix runs both")
    parallel.add_argument("--fastpath", default=None,
                          choices=("python", "numpy"),
                          help="hot-core pin (default: numpy when "
                               "available); the CI parity leg runs both")
    parallel.set_defaults(runner=run_parallel)
    ablate = subparsers.add_parser(
        "ablate",
        help="per-knob static-best sweep vs on-line control "
             "(docs/control.md)")
    _add_ablate_args(ablate)
    ablate.set_defaults(runner=run_ablate)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "verify":
        # the verification harness owns its own CLI (repro-verify)
        from ..verify.cli import main as verify_main

        return verify_main(argv[1:])
    args = _build_parser().parse_args(argv)
    return args.runner(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
