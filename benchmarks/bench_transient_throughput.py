#!/usr/bin/env python3
"""Transient injection throughput: checkpointed runtime vs from-reset runs.

Runs the same transient campaign plan — storage-cell sites x sampled start
times, the exact job list ``CampaignEngine`` plans — twice on each backend:
once the naive way (every injection re-executes the workload from reset) and
once through the checkpointed runtime of :mod:`repro.engine.checkpoint`
(golden snapshot ladder, fork-from-checkpoint, early-convergence exit),
**verifying bit-identity of the golden and of every injection pair before
any number is reported** (a wrong-but-fast runtime is worthless).  The
checkpointed leg's time includes recording the ladder, so the reported
speedup is the honest campaign-level figure.

The two legs are measured in :data:`PAIRS` interleaved pairs: each pair runs
every workload's from-reset leg immediately followed by its checkpointed
leg, and the reported aggregate speedup is the median of the pairs' ratios.
A single pass let warm-up and background load land on one leg only, which
made the 2% CI gate flaky.

Both legs also count the instructions they simulate
(:class:`bench_utils.SimulatedInstructions`): from reset, every injection
runs the whole workload; checkpointed, the ladder recording plus each fork
from its rung to its end or early exit.  Their ratio, the *work ratio*, is
a property of the plan: it does not move with host load, nor when the
from-reset leg gets faster, so ``--check`` also holds it against the
committed record.

Workloads run at ``--iterations`` loop iterations (default 4, longer than
the permanent-campaign instances): transient campaigns sample the *time*
axis of the workload, so longer-running instances are the representative
case — and the paper's core argument is that their injection counts are what
makes transient studies expensive.

Appends a dated record to the ``BENCH_transient_throughput.json`` history
next to the repo root so CI and future optimisation PRs can track the trend:

    python benchmarks/bench_transient_throughput.py                  # record
    python benchmarks/bench_transient_throughput.py --no-write       # measure
    python benchmarks/bench_transient_throughput.py --check          # CI gate

``--check`` compares the measured aggregate *speedup* against the latest
committed record, failing on a >20% regression or on a speedup below the 3x
floor the checkpointed runtime is required to clear, and fails a work ratio
more than the same tolerance under the committed one.  Both ratios are
machine-portable; absolute injections/second are recorded for context but
never compared across machines.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bench_utils import (  # noqa: E402
    SimulatedInstructions,
    aggregate_work_ratio_of,
    run_gated_benchmark,
    stamp,
)

from repro.engine.backend import (  # noqa: E402
    IssBackend,
    Leon3RtlBackend,
    watchdog_budget,
)
from repro.engine.checkpoint import assert_run_results_identical  # noqa: E402
from repro.engine.jobs import plan_transient_jobs  # noqa: E402
from repro.workloads import build_program  # noqa: E402

BASELINE_PATH = (
    Path(__file__).resolve().parents[1] / "BENCH_transient_throughput.json"
)

#: The RTL-scale workload mix of the other throughput benches.
DEFAULT_WORKLOADS = ("rspeed", "membench", "intbench")

#: Hard floor on the aggregate checkpointed-vs-from-reset speedup.
SPEEDUP_FLOOR = 3.0

#: Interleaved from-reset/checkpointed measurement pairs; the median pair's
#: speedup is the reported one.
PAIRS = 5

BACKENDS = {"rtl": Leon3RtlBackend, "iss": IssBackend}


def plan(backend_name, program, sites, windows, seed, max_instructions):
    """One workload on one backend: golden run and the transient job plan."""
    backend = BACKENDS[backend_name]()
    backend.prepare(program)
    golden = backend.run(max_instructions=max_instructions)
    if not golden.normal_exit:
        raise SystemExit(
            f"ERROR: golden run of {program.name!r} on {backend_name} "
            f"did not exit normally"
        )
    horizon = (
        golden.cycles if backend.transient_unit == "cycles" else golden.instructions
    )
    site_list = backend.sites.sample(
        sites, seed=seed, storage_only=True
    )
    jobs = plan_transient_jobs(
        site_list, horizon=horizon, windows=windows, duration=1,
        seed=seed, workload=program.name,
    )
    return backend, golden, jobs


def measure_pair(backend_name, program, backend, golden, jobs, max_instructions):
    """Time one from-reset leg and, right after it, one checkpointed leg of
    the same jobs; verify the pair bit-identical.  Returns both legs'
    seconds, the runner and both legs' simulated instructions."""
    budget = watchdog_budget(golden.instructions)
    with SimulatedInstructions() as reference_work:
        start = time.perf_counter()
        reference = [
            backend.run(max_instructions=budget, faults=[job.fault])
            for job in jobs
        ]
        reference_seconds = time.perf_counter() - start

    # The checkpointed leg pays for its own ladder (recorded inside golden()).
    with SimulatedInstructions() as fast_work:
        start = time.perf_counter()
        runner = backend.checkpoint_runner(max_instructions)
        ladder_golden = runner.golden()
        checkpointed = [runner.run_transient(job.fault, budget) for job in jobs]
        fast_seconds = time.perf_counter() - start

    assert_run_results_identical(golden, ladder_golden)
    for job, expected, observed in zip(jobs, reference, checkpointed):
        try:
            assert_run_results_identical(expected, observed)
        except AssertionError as error:
            raise SystemExit(
                f"ERROR: checkpointed run diverges from from-reset on "
                f"{program.name!r}/{backend_name} under {job.fault.describe()}: "
                f"{error}"
            ) from error
    return (
        reference_seconds, fast_seconds, runner,
        reference_work.count, fast_work.count,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workloads", nargs="+", default=list(DEFAULT_WORKLOADS))
    parser.add_argument("--iterations", type=int, default=4,
                        help="workload loop iterations (default: 4 — transient "
                             "campaigns sample the time axis, so longer runs "
                             "are the representative case)")
    parser.add_argument("--sites", type=int, default=8,
                        help="storage sites sampled per workload (default: 8)")
    parser.add_argument("--windows", type=int, default=3,
                        help="transient start times sampled per site "
                             "(default: 3)")
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--max-instructions", type=int, default=400_000)
    parser.add_argument("--no-write", action="store_true",
                        help="measure and print only; do not update the baseline")
    parser.add_argument("--check", action="store_true",
                        help="fail on a >20%% speedup or work-ratio regression "
                             "vs the committed baseline or an aggregate speedup "
                             f"below {SPEEDUP_FLOOR}x (bit-identity always "
                             "verified)")
    parser.add_argument("--tolerance", type=float, default=None, metavar="FRAC",
                        help="override the --check regression tolerance "
                             "(default 0.20); CI passes 0.02 here to bound "
                             "the disabled-telemetry overhead of the "
                             "instrumented checkpoint runtime at 2%%")
    args = parser.parse_args()

    print(f"Transient injection throughput: {len(args.workloads)} workloads x "
          f"{sorted(BACKENDS)} backends, {args.sites} sites x {args.windows} "
          f"windows each, {PAIRS} interleaved pairs")
    cases = []
    for name in args.workloads:
        program = build_program(name, iterations=args.iterations)
        for backend_name in sorted(BACKENDS):
            backend, golden, jobs = plan(
                backend_name, program, args.sites, args.windows,
                args.seed, args.max_instructions,
            )
            cases.append((name, backend_name, program, backend, golden, jobs))
    # Each pair runs every case's from-reset leg right before its
    # checkpointed leg, so both legs of a ratio see the same machine state;
    # the reported speedup is the median pair's, which one slow pass cannot
    # move.
    seconds = {(case[0], case[1]): ([], []) for case in cases}
    pair_speedups = []
    runners = {}
    work = {}
    for _ in range(PAIRS):
        pair_ref_s = pair_fast_s = 0.0
        for name, backend_name, program, backend, golden, jobs in cases:
            ref_s, fast_s, runner, ref_work, fast_work = measure_pair(
                backend_name, program, backend, golden, jobs,
                args.max_instructions,
            )
            seconds[name, backend_name][0].append(ref_s)
            seconds[name, backend_name][1].append(fast_s)
            runners[name, backend_name] = runner
            if work.setdefault((name, backend_name), (ref_work, fast_work)) != (
                ref_work, fast_work
            ):
                raise SystemExit(
                    f"ERROR: simulated instructions of {name!r}/{backend_name} "
                    f"differ between pairs: {work[name, backend_name]} vs "
                    f"{(ref_work, fast_work)}"
                )
            pair_ref_s += ref_s
            pair_fast_s += fast_s
        pair_speedups.append(pair_ref_s / pair_fast_s)

    rows = []
    total_injections = 0
    for name, backend_name, program, backend, golden, jobs in cases:
        ref_s = statistics.median(seconds[name, backend_name][0])
        fast_s = statistics.median(seconds[name, backend_name][1])
        runner = runners[name, backend_name]
        ref_work, fast_work = work[name, backend_name]
        row = {
            "workload": name,
            "backend": backend_name,
            "injections": len(jobs),
            "golden_instructions": golden.instructions,
            "ladder_rungs": len(runner.ladder().checkpoints),
            "early_exits": runner.early_exits,
            "from_reset": {
                "seconds": round(ref_s, 4),
                "injections_per_second": round(len(jobs) / ref_s, 2),
                "instructions": ref_work,
            },
            "checkpointed": {
                "seconds": round(fast_s, 4),
                "injections_per_second": round(len(jobs) / fast_s, 2),
                "instructions": fast_work,
            },
            "speedup": round(ref_s / fast_s, 2),
            "work_ratio": round(ref_work / fast_work, 3),
        }
        rows.append(row)
        total_injections += len(jobs)
        print(f"  {name:10s} {backend_name}  {row['injections']:4d} inj  "
              f"({row['early_exits']:3d} early exits, "
              f"{row['ladder_rungs']:3d} rungs)   "
              f"reset {row['from_reset']['injections_per_second']:8.2f} inj/s   "
              f"ckpt {row['checkpointed']['injections_per_second']:8.2f} inj/s   "
              f"{row['speedup']:5.2f}x  work {row['work_ratio']:6.2f}x  "
              f"(bit-identical)")

    total_ref_s = sum(row["from_reset"]["seconds"] for row in rows)
    total_fast_s = sum(row["checkpointed"]["seconds"] for row in rows)
    aggregate_speedup = statistics.median(pair_speedups)
    work_ratio = sum(ref for ref, _ in work.values()) / sum(
        fast for _, fast in work.values()
    )
    print(f"  pair speedups: "
          f"{', '.join(f'{ratio:.2f}x' for ratio in pair_speedups)}")
    print(f"  aggregate: reset {total_injections / total_ref_s:.2f} inj/s, "
          f"checkpointed {total_injections / total_fast_s:.2f} inj/s "
          f"-> {aggregate_speedup:.2f}x median pair speedup, "
          f"{work_ratio:.3f}x work ratio")

    baseline = {
        "benchmark": "transient_throughput",
        "workloads": list(args.workloads),
        "iterations": args.iterations,
        "sites_per_workload": args.sites,
        "windows_per_site": args.windows,
        "seed": args.seed,
        "max_instructions": args.max_instructions,
        "pairs": PAIRS,
        **stamp(),
        "per_run": rows,
        "aggregate": {
            "injections": total_injections,
            "from_reset_injections_per_second": round(
                total_injections / total_ref_s, 2
            ),
            "checkpointed_injections_per_second": round(
                total_injections / total_fast_s, 2
            ),
            "speedup": round(aggregate_speedup, 2),
            "work_ratio": round(work_ratio, 3),
        },
    }
    return run_gated_benchmark(
        BASELINE_PATH, baseline,
        config_fields=("workloads", "iterations", "sites_per_workload",
                       "windows_per_site", "seed", "max_instructions"),
        check=args.check, no_write=args.no_write,
        speedup_floor=SPEEDUP_FLOOR,
        regression_message="checkpointed-runtime throughput fell below the floor",
        tolerance=args.tolerance,
        work_of=aggregate_work_ratio_of,
    )


if __name__ == "__main__":
    raise SystemExit(main())
