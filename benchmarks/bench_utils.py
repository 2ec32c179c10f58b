"""Shared helpers of the figure/table reproduction benchmarks (``test_*``).

Every such benchmark reproduces one table or figure of the paper.  Campaign
sizes are controlled by environment variables so that the default run
finishes in minutes while larger (more faithful) campaigns remain one
variable away:

* ``REPRO_BENCH_SAMPLE``  — fault sites sampled per campaign (default 40),
* ``REPRO_BENCH_SEED``    — sampling seed (default 2015).

Run ``pytest benchmarks/ --benchmark-only -s`` to see the rendered tables.
The throughput legs and their CI gates live in ``throughput.py``.
"""

from __future__ import annotations

import os

#: Fault sites sampled per campaign in the benchmark harness.
SAMPLE_SIZE = int(os.environ.get("REPRO_BENCH_SAMPLE", "40"))
#: Seed used for site sampling.
SEED = int(os.environ.get("REPRO_BENCH_SEED", "2015"))


def run_once(benchmark, function, *args, **kwargs):
    """Run *function* exactly once under pytest-benchmark timing.

    Fault-injection campaigns are far too heavy for statistical repetition; a
    single timed round both reports the cost (the Section 4.2 argument) and
    returns the experiment results for the shape assertions.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
