#!/usr/bin/env python3
"""Steadiness check: run a workload k times, one seed each, and report every
end-to-end metric's median, quartiles and spread against its bound.

Run from the repository root::

    python3 paperbench/steady.py --workload paper_rtl --runs 10

The spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  A metric
is steady when its spread stays under a third of the bound in
``BENCHMARK.json``; ``setup_s`` is exempt from the spread rule and is only
compared between two sets of runs.  Exits non-zero when a run fails or a
spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent


def spread(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if completed.returncode != 0 or not result.get("correct"):
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed ({completed.returncode})")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    runs = []
    for seed in range(1, args.runs + 1):
        started = time.monotonic()
        runs.append(run_once(args.workload, seed, spec["run_seconds"]))
        print(f"seed {seed} ({time.monotonic() - started:.1f} s): "
              + ", ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)

    steady = True
    print(f"{'metric':14} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} "
          f"{'bound':>6}  verdict")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        stats = spread([run[name] for run in runs])
        if name == "setup_s":
            verdict = "exempt"
        elif stats["spread"] < bound / 3:
            verdict = "steady"
        elif stats["spread"] <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO WIDE"
            steady = False
        print(f"{name:14} {stats['median']:10.4g} {stats['q1']:10.4g} "
              f"{stats['q3']:10.4g} {stats['spread']:7.3f} {bound:6.2f}  {verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
