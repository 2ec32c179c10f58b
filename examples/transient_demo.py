#!/usr/bin/env python3
"""Transient (SEU) campaign demo: the checkpointed runtime end to end.

Walks through what the checkpointed transient-fault runtime does and proves
its core contract on the spot:

1. run a workload's golden execution while recording the **checkpoint
   ladder** (a full machine snapshot every few hundred instructions),
2. inject one transient storage-cell upset the naive way (from reset) and
   through **fork-from-checkpoint**, and verify the two runs are identical
   on every observable,
3. run a small SEU campaign (`repro.engine.CampaignEngine` with
   ``CampaignConfig(transient_windows=...)``) with the **early-convergence
   exit** on, on both the RTL and the ISS backend, and compare their
   failure pictures — the paper's ISS-vs-RTL argument, extended to
   transients,
4. show the same campaign as a durable store entry (resume/cache-hit
   machinery works for transient campaigns too).

Run with:  PYTHONPATH=src python examples/transient_demo.py
"""

import os
import tempfile
import time

from repro.engine import (
    CampaignConfig,
    CampaignEngine,
    IssBackend,
    Leon3RtlBackend,
    watchdog_budget,
)
from repro.engine.backend import ARCH_REGFILE_UNIT
from repro.engine.checkpoint import assert_run_results_identical
from repro.leon3.units import IU_SCOPE
from repro.rtl.faults import FaultModel, TransientFault
from repro.store import CampaignStore
from repro.workloads import build_program

WORKLOAD = "rspeed"


def transient_campaign(program, backend_factory=Leon3RtlBackend, **config):
    """One SEU campaign: 30 storage sites x 3 start times per site."""
    config = CampaignConfig(sample_size=30, transient_windows=3, seed=2015, **config)
    engine = CampaignEngine(program, config, backend_factory=backend_factory)
    return engine.run()[FaultModel.TRANSIENT]


def main() -> None:
    program = build_program(WORKLOAD, iterations=2)

    # --- 1. Golden run + checkpoint ladder ---------------------------------
    backend = Leon3RtlBackend()
    backend.prepare(program)
    golden = backend.run(max_instructions=400_000)
    runner = backend.checkpoint_runner(400_000)
    ladder = runner.ladder()
    print(f"Golden run of {WORKLOAD!r} (RTL backend)")
    print(f"  instructions    : {golden.instructions}")
    print(f"  ladder rungs    : {len(ladder.checkpoints)} "
          f"(every {ladder.interval} instructions)")
    assert_run_results_identical(golden, ladder.golden)
    print("  ladder golden   : bit-identical to the plain golden run")

    # --- 2. One upset, both ways -------------------------------------------
    budget = watchdog_budget(golden.instructions)
    site = backend.sites.sample(1, seed=4, storage_only=True)[0]
    fault = TransientFault(site, start_cycle=golden.cycles // 2, duration=4)
    start = time.perf_counter()
    from_reset = backend.run(max_instructions=budget, faults=[fault])
    reset_seconds = time.perf_counter() - start
    start = time.perf_counter()
    forked = runner.run_transient(fault, budget)
    fork_seconds = time.perf_counter() - start
    assert_run_results_identical(from_reset, forked)
    print(f"\nOne transient upset: {fault.describe()}")
    print(f"  from reset      : {reset_seconds * 1000:6.1f} ms")
    print(f"  fork+early exit : {fork_seconds * 1000:6.1f} ms "
          f"({runner.early_exits} early exit) — identical result")

    # --- 3. A small SEU campaign on both backends --------------------------
    print("\nSEU campaign: 30 storage sites x 3 start times (8-cycle windows), "
          "both backends")
    backends = {
        "rtl": (Leon3RtlBackend, IU_SCOPE),
        "iss": (IssBackend, ARCH_REGFILE_UNIT),
    }
    for kind, (factory, scope) in backends.items():
        result = transient_campaign(
            program, factory, unit_scope=scope, transient_duration=8
        )
        histogram = {
            failure_class.value: count
            for failure_class, count in result.classification_histogram().items()
        }
        print(f"  {kind}: Pf = {result.failure_probability * 100:5.1f}%  "
              f"({result.injections} injections)  {histogram}")
    print("  (the ISS practice overestimates transient Pf — every upset "
          "lands in architectural state — mirroring the paper's argument)")

    # --- 4. The campaign as a durable store entry --------------------------
    with tempfile.TemporaryDirectory() as tmp:
        store_path = os.path.join(tmp, "campaigns.sqlite")
        transient_campaign(program, store_path=store_path)
        repeat = transient_campaign(program, store_path=store_path)
        with CampaignStore(store_path) as store:
            counters = store.counters()
        assert counters["campaign_hits"] == 1, counters
        assert counters["jobs_executed"] == repeat.injections, counters
        print(f"\nDurable campaign: repeat served {counters['jobs_cached']} "
              f"outcomes from the store ({counters['campaign_hits']} full "
              f"cache hit, zero new injections)")


if __name__ == "__main__":
    main()
