#!/usr/bin/env python3
"""RTL injection throughput: injections/second, reference core vs fast engine.

Runs the same injection series — one golden run plus ``--sites`` sampled
fault sites x the three permanent fault models, through the backend API a
campaign scheduler uses (reload + inject + run per job on a reused backend) —
once on the reference :class:`Leon3Core` and once on the fast
:class:`~repro.leon3.fastcore.Leon3FastCore`, **verifying bit-identity of
every golden and faulty run pair before any number is reported** (a
wrong-but-fast cycle engine is worthless).  Sites are sampled from the full
universe, so the series includes net sites: the fast engine applies
decode-net faults itself and runs the others on its
reference-core fallback — the reported speedup is the honest campaign-level
figure, not a storage-array best case.  Each row records the net-site jobs
(``net_site_jobs``) and the runs that actually took the fallback
(``net_fault_fallbacks``).  Both series collapse
open-line net jobs: :class:`~repro.engine.backend.Leon3RtlBackend` serves an
open-line net fault from the result of its stuck-at twin, which runs
earlier in the series, so neither series simulates those jobs.

**Paperbench phase it moves:** ``leon3.fast_s`` on the ``paper_rtl`` workload
(``python3 paperbench/run.py --workload paper_rtl --trace 1``) — the fast
core's runs behind Figs 5–7's permanent-fault campaigns.  The fast core runs
straight-line code as compiled blocks; each row reports the share of the
series' fast-core instructions that ran inside blocks (``block_share``), and
that share over the runs faulting a register-file cell
(``register_file_block_share``) and a cache-array cell
(``cache_array_block_share``, half the sample).  ``--check`` fails when the
overall or the cache-array share is 0 (the block path, or its cache-hook
rule, silently off).

Appends a dated record to the ``BENCH_rtl_throughput.json`` history next to
the repo root so CI and future optimisation PRs can track the trend:

    python benchmarks/bench_rtl_throughput.py                  # record
    python benchmarks/bench_rtl_throughput.py --no-write       # measure only
    python benchmarks/bench_rtl_throughput.py --check          # CI smoke gate

``--check`` compares the measured aggregate *speedup* against the latest
committed record, failing on a >20% regression, on a speedup below the 3x
floor the fast engine is required to clear, or on a zero (overall or
cache-array) block share.  The speedup ratio (fast inj/s /
reference inj/s on the same machine, same run) is the machine-portable
metric; absolute injections/second are recorded for context but never
compared across machines.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bench_utils import run_gated_benchmark, stamp  # noqa: E402

from repro.engine.backend import Leon3RtlBackend, watchdog_budget  # noqa: E402
from repro.leon3.fastcore import verify_rtl_bit_identity  # noqa: E402
from repro.rtl.faults import ALL_FAULT_MODELS, FaultModel, PermanentFault  # noqa: E402
from repro.workloads import build_program  # noqa: E402

BASELINE_PATH = Path(__file__).resolve().parents[1] / "BENCH_rtl_throughput.json"

#: RTL-scale workloads: one automotive kernel plus the two synthetics (the
#: mix Figures 5/6 lean on, kept small enough for a CI smoke run).
DEFAULT_WORKLOADS = ("rspeed", "membench", "intbench")

#: Hard floor on the aggregate fast-vs-reference speedup.
SPEEDUP_FLOOR = 3.0


#: Block-share groups: the storage arrays a run's fault sits on.
SITE_GROUPS = {"rf.cells": "register_file"} | {
    f"{cache}.{array}": "cache_array"
    for cache in ("icache", "dcache") for array in ("tags", "data", "valid")
}


class FallbackCounter:
    """Counts the runs *core* executes on its reference-core fallback, and
    the instructions of the others (the fast core's own) and of those the
    ones that ran in compiled blocks, in total and per :data:`SITE_GROUPS`
    group.  Without a core it only sums other counters (:meth:`merge`)."""

    def __init__(self, core=None):
        self.runs = 0
        self.fast_instructions = 0
        self.block_instructions = 0
        self.groups = {group: [0, 0] for group in set(SITE_GROUPS.values())}
        if core is not None:
            self._core = core
            self._run = core.run
            core.run = self._counted_run

    def _counted_run(self, **kwargs):
        fallback = self._core.uses_fallback
        self.runs += fallback
        blocks_before = self._core.block_instructions
        result = self._run(**kwargs)
        if not fallback:
            blocks = self._core.block_instructions - blocks_before
            self.fast_instructions += result.instructions
            self.block_instructions += blocks
            for group in {SITE_GROUPS.get(fault.site.net) for fault in result.faults}:
                if group is not None:
                    self.groups[group][0] += result.instructions
                    self.groups[group][1] += blocks
        return result

    def merge(self, other: "FallbackCounter") -> None:
        self.fast_instructions += other.fast_instructions
        self.block_instructions += other.block_instructions
        for group, (instructions, blocks) in other.groups.items():
            self.groups[group][0] += instructions
            self.groups[group][1] += blocks

    def shares(self) -> dict:
        """``block_share`` overall and per group, rounded for the record."""
        return {
            "block_share": round(
                self.block_instructions / max(self.fast_instructions, 1), 3),
            **{f"{group}_block_share": round(blocks / max(instructions, 1), 3)
               for group, (instructions, blocks) in sorted(self.groups.items())},
        }


def run_series(backend, budget, faults):
    """Run every fault on *backend* the way a campaign scheduler would."""
    results = []
    start = time.perf_counter()
    for fault in faults:
        results.append(backend.run(max_instructions=budget, faults=[fault]))
    return results, time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workloads", nargs="+", default=list(DEFAULT_WORKLOADS))
    parser.add_argument("--sites", type=int, default=12,
                        help="fault sites sampled per workload from the full "
                             "site universe (default: 12; x3 fault models)")
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--max-instructions", type=int, default=400_000)
    parser.add_argument("--no-write", action="store_true",
                        help="measure and print only; do not update the baseline")
    parser.add_argument("--check", action="store_true",
                        help="fail on a >20%% speedup regression vs the committed "
                             "baseline or an aggregate speedup below "
                             f"{SPEEDUP_FLOOR}x (bit-identity always verified)")
    args = parser.parse_args()

    rows = []
    total_injections = 0
    total_ref_s = 0.0
    total_fast_s = 0.0
    totals = FallbackCounter()
    print(f"RTL injection throughput: {len(args.workloads)} workloads, "
          f"{args.sites} sites x {len(ALL_FAULT_MODELS)} fault models each; "
          f"paperbench phase: leon3.fast_s on paper_rtl")
    for name in args.workloads:
        program = build_program(name)
        # Full-state bit-identity of the fault-free run (register cells,
        # PSR, caches, memory image) before anything is timed.
        verify_rtl_bit_identity(program, max_instructions=args.max_instructions)

        reference = Leon3RtlBackend(fast=False)
        fast = Leon3RtlBackend(fast=True)
        reference.prepare(program)
        fast.prepare(program)
        golden_ref = reference.run(max_instructions=args.max_instructions)
        golden_fast = fast.run(max_instructions=args.max_instructions)
        if golden_fast != golden_ref:
            raise SystemExit(
                f"ERROR: fast golden run diverges from reference on {name!r}"
            )
        budget = watchdog_budget(golden_ref.instructions)

        sites = reference.sites.sample(args.sites, seed=args.seed)
        faults = [
            PermanentFault(site=site, model=model)
            for model in ALL_FAULT_MODELS
            for site in sites
        ]
        net_jobs = sum(1 for fault in faults if fault.site.index is None)
        # Open line comes last in ALL_FAULT_MODELS, after its stuck-at twin.
        collapsed = sum(
            1 for fault in faults
            if fault.site.index is None and fault.model is FaultModel.OPEN_LINE
        )

        ref_results, ref_s = run_series(reference, budget, faults)
        fallbacks = FallbackCounter(fast.core)
        fast_results, fast_s = run_series(fast, budget, faults)
        shares = fallbacks.shares()
        for fault, expected, observed in zip(faults, ref_results, fast_results):
            if observed != expected:
                raise SystemExit(
                    f"ERROR: fast engine diverges from reference on {name!r} "
                    f"under {fault.describe()}"
                )

        injections = len(faults)
        speedup = ref_s / fast_s
        rows.append({
            "workload": name,
            "injections": injections,
            "net_site_jobs": net_jobs,
            "net_fault_fallbacks": fallbacks.runs,
            "collapsed_open_line_jobs": collapsed,
            "golden_instructions": golden_ref.instructions,
            "reference": {"seconds": round(ref_s, 4),
                          "injections_per_second": round(injections / ref_s, 2)},
            "fast": {"seconds": round(fast_s, 4),
                     "injections_per_second": round(injections / fast_s, 2)},
            "speedup": round(speedup, 2),
            **shares,
        })
        total_injections += injections
        total_ref_s += ref_s
        total_fast_s += fast_s
        totals.merge(fallbacks)
        print(f"  {name:10s} {injections:4d} inj ({net_jobs} net-site jobs, "
              f"{fallbacks.runs} fallbacks, {collapsed} collapsed)   "
              f"ref {injections / ref_s:7.2f} inj/s   "
              f"fast {injections / fast_s:7.2f} inj/s   "
              f"{speedup:5.2f}x  blocks {shares['block_share']:5.1%} "
              f"(rf {shares['register_file_block_share']:5.1%}, "
              f"cache {shares['cache_array_block_share']:5.1%})  (bit-identical)")

    aggregate_speedup = total_ref_s / total_fast_s
    shares = totals.shares()
    print(f"  aggregate: ref {total_injections / total_ref_s:.2f} inj/s, "
          f"fast {total_injections / total_fast_s:.2f} inj/s "
          f"-> {aggregate_speedup:.2f}x speedup; "
          f"{shares['block_share']:.1%} of fast-core instructions ran in blocks "
          f"(register-file runs {shares['register_file_block_share']:.1%}, "
          f"cache-array runs {shares['cache_array_block_share']:.1%})")

    baseline = {
        "benchmark": "rtl_throughput",
        "workloads": list(args.workloads),
        "sites_per_workload": args.sites,
        "fault_models": len(ALL_FAULT_MODELS),
        "seed": args.seed,
        "max_instructions": args.max_instructions,
        **stamp(),
        "per_workload": rows,
        "aggregate": {
            "injections": total_injections,
            "reference_injections_per_second": round(
                total_injections / total_ref_s, 2
            ),
            "fast_injections_per_second": round(total_injections / total_fast_s, 2),
            "speedup": round(aggregate_speedup, 2),
            **shares,
        },
    }
    if args.check and not totals.block_instructions:
        print("ERROR: no fast-core instruction ran in a compiled block")
        return 1
    if args.check and not totals.groups["cache_array"][1]:
        print("ERROR: no instruction of a cache-array run ran in a compiled block")
        return 1
    return run_gated_benchmark(
        BASELINE_PATH, baseline,
        config_fields=("workloads", "sites_per_workload", "seed",
                       "max_instructions"),
        check=args.check, no_write=args.no_write,
        speedup_floor=SPEEDUP_FLOOR,
        regression_message="fast-engine throughput fell below the floor",
    )


if __name__ == "__main__":
    raise SystemExit(main())
