#!/usr/bin/env python3
"""ISS interpreter throughput: instructions/second, reference vs fast path.

Runs every selected workload once on the reference interpreter and once on
the fast-path interpreter (`repro.iss.fastpath.FastEmulator`), **verifying
bit-identity of the two runs before any number is reported** (trace
statistics, transaction stream, trap kind, final architectural state — a
wrong-but-fast interpreter is worthless).  It then reports per-workload and
aggregate instructions/second and the fast-vs-reference speedup.

**Paperbench phase it moves:** ``iss.run_s`` on the ``paper_rtl`` workload
(``python3 paperbench/run.py --workload paper_rtl --trace 1``) — the
fault-free ISS runs behind Table 1's characterisations, the Fig 7 diversity
axis and the Section 4.2 simulation-time comparison.  The default workload
list is Table 1's six full-size characterisations, i.e. that phase's
dominant calls.  Each fast run starts on a fresh emulator and pays for
compiling its workload's blocks (the process-wide block memo holds no other
workload's code), so the figure is a first-run one; repeated runs of the
same program, as campaigns make, reuse the compiled blocks.

Appends a dated record to the ``BENCH_iss_throughput.json`` history next to
the repo root so CI and future optimisation PRs can track the trend:

    python benchmarks/bench_iss_throughput.py                  # full-size
    python benchmarks/bench_iss_throughput.py --no-write       # measure only
    python benchmarks/bench_iss_throughput.py --check          # CI smoke gate

``--check`` compares the measured aggregate *speedup* against the latest
committed record and fails on a >20% regression.  The speedup ratio (fast
ips / reference ips on the same machine, same run) is the machine-portable
metric; absolute instructions/second are recorded for context but never
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

from repro.iss.emulator import Emulator  # noqa: E402
from repro.iss.fastpath import FastEmulator, assert_results_identical  # noqa: E402
from repro.iss.memory import Memory  # noqa: E402
from repro.workloads import build_program  # noqa: E402

BASELINE_PATH = Path(__file__).resolve().parents[1] / "BENCH_iss_throughput.json"

#: The full-size workloads of the paper's Table 1 characterisation.
DEFAULT_WORKLOADS = ("puwmod", "canrdr", "ttsprk", "rspeed", "membench", "intbench")


def timed_run(emulator_cls, program, max_instructions, **kwargs):
    emulator = emulator_cls(memory=Memory(), **kwargs)
    emulator.load_program(program)
    start = time.perf_counter()
    result = emulator.run(max_instructions=max_instructions)
    elapsed = time.perf_counter() - start
    return emulator, result, elapsed


def verify_identical(name, ref_emu, ref, fast_emu, fast) -> None:
    """Assert the two timed runs are bit-identical on every observable.

    Delegates to the contract's single definition in ``repro.iss.fastpath``
    so the benchmark gate can never drift from what the tests enforce.
    """
    try:
        assert_results_identical(ref_emu, ref, fast_emu, fast)
    except AssertionError as exc:
        raise SystemExit(
            f"ERROR: fast interpreter diverges from reference on {name!r}: {exc}"
        ) from exc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workloads", nargs="+", default=list(DEFAULT_WORKLOADS))
    parser.add_argument("--rtl-scale", action="store_true",
                        help="use the scaled-down RTL iteration counts instead of "
                             "the full-size Table 1 ones (quick look, not the "
                             "acceptance configuration)")
    parser.add_argument("--max-instructions", type=int, default=2_000_000)
    parser.add_argument("--no-write", action="store_true",
                        help="measure and print only; do not update the baseline")
    parser.add_argument("--check", action="store_true",
                        help="fail on a >20%% speedup regression vs the committed "
                             "baseline (implies bit-identity verification, which "
                             "always runs)")
    args = parser.parse_args()

    full_size = not args.rtl_scale
    rows = []
    total_instructions = 0
    total_ref_s = 0.0
    total_fast_s = 0.0
    print(f"ISS throughput: {len(args.workloads)} workloads "
          f"({'full-size' if full_size else 'rtl-scale'}); "
          f"paperbench phase: iss.run_s on paper_rtl")
    for name in args.workloads:
        program = build_program(name, full_size=full_size)
        ref_emu, ref, ref_s = timed_run(Emulator, program, args.max_instructions)
        fast_emu, fast, fast_s = timed_run(
            FastEmulator, program, args.max_instructions
        )
        verify_identical(name, ref_emu, ref, fast_emu, fast)
        speedup = ref_s / fast_s
        rows.append({
            "workload": name,
            "instructions": ref.instructions,
            "reference": {"seconds": round(ref_s, 4),
                          "instructions_per_second": round(ref.instructions / ref_s)},
            "fast": {"seconds": round(fast_s, 4),
                     "instructions_per_second": round(fast.instructions / fast_s)},
            "speedup": round(speedup, 2),
        })
        total_instructions += ref.instructions
        total_ref_s += ref_s
        total_fast_s += fast_s
        print(f"  {name:10s} {ref.instructions:8d} instr   "
              f"ref {ref.instructions / ref_s:9.0f} i/s   "
              f"fast {fast.instructions / fast_s:9.0f} i/s   "
              f"{speedup:5.2f}x  (bit-identical)")

    aggregate_speedup = total_ref_s / total_fast_s
    print(f"  aggregate: ref {total_instructions / total_ref_s:.0f} i/s, "
          f"fast {total_instructions / total_fast_s:.0f} i/s "
          f"-> {aggregate_speedup:.2f}x speedup")

    baseline = {
        "benchmark": "iss_throughput",
        "workloads": list(args.workloads),
        "full_size": full_size,
        "max_instructions": args.max_instructions,
        **stamp(),
        "per_workload": rows,
        "aggregate": {
            "instructions": total_instructions,
            "reference_instructions_per_second": round(
                total_instructions / total_ref_s
            ),
            "fast_instructions_per_second": round(total_instructions / total_fast_s),
            "speedup": round(aggregate_speedup, 2),
        },
    }
    # Speedups are only comparable for the same measurement configuration
    # (short rtl-scale runs are dominated by decode-cache fill overhead).
    return run_gated_benchmark(
        BASELINE_PATH, baseline,
        config_fields=("workloads", "full_size", "max_instructions"),
        check=args.check, no_write=args.no_write,
        regression_message="fast-path throughput regressed",
    )


if __name__ == "__main__":
    raise SystemExit(main())
