#!/usr/bin/env python3
"""Lockstep pack throughput: N-way replica packs vs the scalar checkpointed path.

Paperbench phase: the lockstep leg stands for the ISS lockstep packs of
``seu_lockstep`` (its ISS transient and register-file permanent
campaigns), the only paperbench workload that runs packs.  A pack-runtime
speedup here shrinks that phase of ``seu_lockstep``'s ``wall_s``.

Runs the same ISS transient campaign plan — storage-cell sites x sampled
start times, the exact job list ``CampaignEngine`` plans — twice:

* **scalar leg**: every injection goes through the checkpointed transient
  runtime of :mod:`repro.engine.checkpoint` one replica at a time (the PR 5
  campaign fast path this benchmark's floor is defined against), and
* **lockstep leg**: consecutive jobs are grouped into packs of ``--width``
  replicas that execute through the shared fetch/decode front end of
  :mod:`repro.engine.lockstep` (sparse deltas against a golden-replay
  leader, demote-on-input-touch, checkpoint-ladder fast-forward).

Both legs pay for their own golden ladder recording, so the reported
speedup is the honest campaign-level figure.  **Bit-identity is verified
before any number is reported**: every pack outcome and every scalar run is
compared against an untimed from-reset reference on all observables
(outcome classification inputs, transaction stream, trace, trap kind), and
every pack replica's final architectural state is compared against the
from-reset final state (a wrong-but-fast pack runtime is worthless).

Appends a dated record to the ``BENCH_lockstep_throughput.json`` history
next to the repo root so CI and future optimisation PRs can track the trend:

    python benchmarks/bench_lockstep_throughput.py                  # record
    python benchmarks/bench_lockstep_throughput.py --no-write       # measure
    python benchmarks/bench_lockstep_throughput.py --check          # CI gate

``--check`` compares the measured aggregate *speedup* against the latest
committed record, failing on a >20% regression or on a speedup below the 3x
floor the pack runtime is required to clear over the scalar checkpointed
path.  The speedup ratio is the machine-portable metric; absolute
injections/second are recorded for context but never compared across
machines.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bench_utils import run_gated_benchmark, stamp  # noqa: E402

from repro.engine.backend import IssBackend, watchdog_budget  # noqa: E402
from repro.engine.checkpoint import assert_run_results_identical  # noqa: E402
from repro.engine.jobs import plan_transient_jobs  # noqa: E402
from repro.engine.schedulers import group_packs  # noqa: E402
from repro.iss.fastpath import FastEmulator  # noqa: E402
from repro.iss.memory import Memory  # noqa: E402
from repro.workloads import build_program  # noqa: E402

BASELINE_PATH = (
    Path(__file__).resolve().parents[1] / "BENCH_lockstep_throughput.json"
)

#: Four automotive kernels plus the synthetic memory benchmark.  Lockstep
#: speedup is bounded by each workload's divergent-fault fraction (a
#: demoted replica costs the same as its scalar run, so the pack can only
#: win on the replicas that converge or ride), and this mix reflects the
#: paper's campaign profile: mostly faults that are architecturally
#: absorbed, a minority that genuinely fork the run.
DEFAULT_WORKLOADS = ("puwmod", "canrdr", "ttsprk", "bitmnp", "membench")

#: Hard floor on the aggregate lockstep-vs-scalar-checkpointed speedup.
SPEEDUP_FLOOR = 3.0


def from_reset_final_state(program, backend, fault, budget):
    """Final architectural state of an untimed from-reset faulty run."""
    emulator = FastEmulator(memory=Memory())
    emulator.collect_raw_counts = True
    emulator.load_program(program)
    base_pages = {i: bytes(p) for i, p in emulator.memory._pages.items()}
    arch = backend._to_architectural(fault)
    emulator.restore_state(emulator.capture_state(base_pages), base_pages, 0, arch)
    emulator.run(max_instructions=budget)
    return emulator.capture_state(base_pages)


def measure(program, args):
    """One workload: plan, run both legs, verify everything, time."""
    backend = IssBackend()
    backend.prepare(program)
    golden = backend.run(max_instructions=args.max_instructions)
    if not golden.normal_exit:
        raise SystemExit(
            f"ERROR: golden run of {program.name!r} did not exit normally"
        )
    budget = watchdog_budget(golden.instructions)
    sites = backend.sites.sample(args.sites, seed=args.seed, storage_only=True)
    jobs = plan_transient_jobs(
        sites, horizon=golden.instructions, windows=args.windows, duration=1,
        seed=args.seed, workload=program.name,
    )
    packs = group_packs(jobs, args.width)

    # Scalar leg: the PR 5 checkpointed fast path, one replica at a time
    # (pays for its own ladder recording).
    start = time.perf_counter()
    scalar_runner = backend.checkpoint_runner(args.max_instructions)
    scalar_golden = scalar_runner.golden()
    scalar = [scalar_runner.run_transient(job.fault, budget) for job in jobs]
    scalar_s = time.perf_counter() - start

    # Lockstep leg: same jobs in packs of --width through the shared front
    # end (pays for its own ladder recording too).
    lockstep_backend = IssBackend()
    lockstep_backend.prepare(program)
    start = time.perf_counter()
    lockstep_runner = lockstep_backend.checkpoint_runner(args.max_instructions)
    lockstep_golden = lockstep_runner.golden()
    pack_runner = lockstep_runner.pack_runner(args.width)
    outcomes = []
    for pack in packs:
        faults = [lockstep_backend._to_architectural(job.fault) for job in pack]
        outcomes.extend(pack_runner.run_pack(faults, budget))
    fast_s = time.perf_counter() - start
    # Snapshot the pack statistics now — the verification pass below reuses
    # the runner and would otherwise double them.
    pack_stats = {
        "packs": len(packs),
        "demotions": pack_runner.demotions,
        "demoted_splices": pack_runner.demoted_splices,
        "in_pack_convergences": pack_runner.in_pack_convergences,
        "golden_riders": pack_runner.golden_riders,
        "propagations": pack_runner.propagations,
    }

    # Bit-identity gate (untimed): every observable of both legs against a
    # from-reset reference, and every pack replica's final architectural
    # state against the from-reset final state.
    assert_run_results_identical(golden, scalar_golden)
    assert_run_results_identical(golden, lockstep_golden)
    for pack in packs:
        faults = [lockstep_backend._to_architectural(job.fault) for job in pack]
        for job, outcome in zip(
            pack, pack_runner.run_pack(faults, budget, capture_final_state=True)
        ):
            expected = from_reset_final_state(program, backend, job.fault, budget)
            if outcome.final_state != expected:
                raise SystemExit(
                    f"ERROR: lockstep final state diverges from from-reset on "
                    f"{program.name!r} under {job.fault.describe()} "
                    f"({outcome.resolution})"
                )
    for job, scalar_run, outcome in zip(jobs, scalar, outcomes):
        reference = backend.run(max_instructions=budget, faults=[job.fault])
        for label, observed in (("scalar", scalar_run), ("lockstep", outcome.result)):
            try:
                assert_run_results_identical(reference, observed)
            except AssertionError as error:
                raise SystemExit(
                    f"ERROR: {label} run diverges from from-reset on "
                    f"{program.name!r} under {job.fault.describe()}: {error}"
                ) from error

    return {
        "injections": len(jobs),
        "golden_instructions": golden.instructions,
        **pack_stats,
        "scalar": {
            "seconds": round(scalar_s, 4),
            "injections_per_second": round(len(jobs) / scalar_s, 2),
        },
        "lockstep": {
            "seconds": round(fast_s, 4),
            "injections_per_second": round(len(jobs) / fast_s, 2),
        },
        "speedup": round(scalar_s / fast_s, 2),
    }, scalar_s, fast_s


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workloads", nargs="+", default=list(DEFAULT_WORKLOADS))
    parser.add_argument("--iterations", type=int, default=4,
                        help="workload loop iterations (default: 4, matching "
                             "the transient-throughput bench)")
    parser.add_argument("--sites", type=int, default=8,
                        help="storage sites sampled per workload (default: 8)")
    parser.add_argument("--windows", type=int, default=24,
                        help="transient start times sampled per site "
                             "(default: 24 — the one-time golden ladder and "
                             "touch-timeline recordings amortise over the "
                             "injection count)")
    parser.add_argument("--width", type=int, default=24,
                        help="replicas per lockstep pack (default: 24 — one "
                             "pack per site at the default window count, so "
                             "the shared front end amortises over the whole "
                             "site's window sample)")
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--max-instructions", type=int, default=400_000)
    parser.add_argument("--no-write", action="store_true",
                        help="measure and print only; do not update the baseline")
    parser.add_argument("--check", action="store_true",
                        help="fail on a >20%% speedup regression vs the latest "
                             "committed record or an aggregate speedup below "
                             f"{SPEEDUP_FLOOR}x (bit-identity always verified)")
    parser.add_argument("--tolerance", type=float, default=None, metavar="FRAC",
                        help="override the --check regression tolerance "
                             "(default 0.20); CI passes 0.02 here to bound "
                             "the disabled-telemetry overhead of the "
                             "instrumented pack loop at 2%%")
    args = parser.parse_args()

    rows = []
    total_injections = 0
    total_scalar_s = 0.0
    total_fast_s = 0.0
    print(f"Lockstep pack throughput (paperbench phase: seu_lockstep ISS "
          f"packs): {len(args.workloads)} workloads, "
          f"{args.sites} sites x {args.windows} windows each, "
          f"width {args.width}")
    for name in args.workloads:
        program = build_program(name, iterations=args.iterations)
        row, scalar_s, fast_s = measure(program, args)
        row = {"workload": name, **row}
        rows.append(row)
        total_injections += row["injections"]
        total_scalar_s += scalar_s
        total_fast_s += fast_s
        print(f"  {name:10s} {row['injections']:4d} inj in {row['packs']:2d} packs "
              f"({row['demotions']:3d} demoted, {row['demoted_splices']:3d} spliced, "
              f"{row['in_pack_convergences']:3d} converged, "
              f"{row['golden_riders']:3d} riders)   "
              f"scalar {row['scalar']['injections_per_second']:8.2f} inj/s   "
              f"pack {row['lockstep']['injections_per_second']:8.2f} inj/s   "
              f"{row['speedup']:5.2f}x  (bit-identical)")

    aggregate_speedup = total_scalar_s / total_fast_s
    print(f"  aggregate: scalar {total_injections / total_scalar_s:.2f} inj/s, "
          f"lockstep {total_injections / total_fast_s:.2f} inj/s "
          f"-> {aggregate_speedup:.2f}x speedup")

    baseline = {
        "benchmark": "lockstep_throughput",
        "workloads": list(args.workloads),
        "iterations": args.iterations,
        "sites_per_workload": args.sites,
        "windows_per_site": args.windows,
        "lockstep_width": args.width,
        "seed": args.seed,
        "max_instructions": args.max_instructions,
        **stamp(),
        "per_workload": rows,
        "aggregate": {
            "injections": total_injections,
            "scalar_injections_per_second": round(
                total_injections / total_scalar_s, 2
            ),
            "lockstep_injections_per_second": round(
                total_injections / total_fast_s, 2
            ),
            "speedup": round(aggregate_speedup, 2),
        },
    }
    return run_gated_benchmark(
        BASELINE_PATH, baseline,
        config_fields=("workloads", "iterations", "sites_per_workload",
                       "windows_per_site", "lockstep_width", "seed",
                       "max_instructions"),
        check=args.check, no_write=args.no_write,
        speedup_floor=SPEEDUP_FLOOR,
        regression_message="lockstep pack throughput fell below the floor",
        tolerance=args.tolerance,
    )


if __name__ == "__main__":
    raise SystemExit(main())
