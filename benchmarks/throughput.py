#!/usr/bin/env python3
"""Throughput legs: each fast execution strategy against its reference.

    python benchmarks/throughput.py LEG              # measure, append a record
    python benchmarks/throughput.py LEG --no-write   # measure, print the record
    python benchmarks/throughput.py LEG --check      # also gate it (CI)

``LEG`` is one of ``iss``, ``rtl``, ``transient`` and ``lockstep``.  Each
leg is a :class:`Leg` declaration: its fixed measurement configuration, the
paperbench phase it moves, its gate bounds and three functions — ``plan``
(untimed setup and one-off verification), ``measure`` (one timed pair: the
reference leg, then the fast leg) and ``verify`` (untimed bit-identity of
that pair).  The harness below owns everything else, once:

* **Interleaved pairs.**  Each pair runs every case's reference leg right
  before its fast leg, so both legs of a ratio see the same machine state.
  The aggregate speedup is the median over pairs of Σreference/Σfast
  seconds (Kalibera & Jones, "Rigorous Benchmarking in Reasonable Time",
  ISMM 2013); one slow pass cannot move it.  Every pair must simulate the
  same plan: its verified row fields and simulated-instruction counts must
  equal the other pairs'.
* **Bit-identity first.**  Every pair is verified before any number is
  printed: a wrong-but-fast engine never reaches the gate.
* **The gate** (``--check``): the declared configuration must equal the
  latest committed record's, and the speedup must stay within the leg's
  tolerance of that record and above its hard floor.  Legs whose fast path
  does less *work* than the reference (forks, early exits, packs) also count
  the instructions each leg simulates (:class:`SimulatedInstructions`) and
  hold their ratio, the *work ratio*, within the same tolerance.  The work
  ratio is a property of the plan: host load and a faster reference leg do
  not move it.
* **The history.**  ``BENCH_<leg>_throughput.json`` is an append-only
  ``{"benchmark": ..., "history": [record, ...]}`` document;
  ``gen_perf_history.py`` renders it as ``docs/perf_history.md``.

Speedup and work ratios are machine-portable; absolute rates carry the
recording machine's ``cpu_count``/``python`` stamp and are context only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.engine.backend import (  # noqa: E402
    IssBackend,
    Leon3RtlBackend,
    watchdog_budget,
)
from repro.engine.checkpoint import assert_run_results_identical  # noqa: E402
from repro.engine.jobs import plan_transient_jobs  # noqa: E402
from repro.engine.schedulers import group_packs  # noqa: E402
from repro.iss.emulator import Emulator  # noqa: E402
from repro.iss.fastpath import FastEmulator, assert_results_identical  # noqa: E402
from repro.iss.memory import Memory  # noqa: E402
from repro.leon3.fastcore import Leon3FastCore, verify_rtl_bit_identity  # noqa: E402
from repro.rtl.faults import ALL_FAULT_MODELS, FaultModel, PermanentFault  # noqa: E402
from repro.workloads import build_program  # noqa: E402


class Case(NamedTuple):
    """One measured unit of a leg: its row's identity fields (the workload,
    and the backend where a leg runs two) and what ``measure`` needs."""

    fields: Dict[str, Any]
    state: Any


class Timing(NamedTuple):
    """One timed pair of a case: each leg's seconds and output, and the
    instructions each leg simulated (``None`` where the leg does the same
    work on both sides)."""

    reference_s: float
    reference: Any
    fast_s: float
    fast: Any
    work: Optional[Tuple[int, int]] = None


@dataclass(frozen=True)
class Leg:
    """One throughput leg: a reference strategy, the fast strategy that must
    reproduce it bit for bit, and the bounds their ratio is gated by."""

    name: str
    #: Heading of the leg's table in ``docs/perf_history.md``.
    title: str
    #: The ``per_layer`` paperbench metric (``BENCHMARK.json``) whose time
    #: this leg's fast strategy shrinks.
    phase: str
    #: The fixed measurement configuration; recorded, and gated against the
    #: latest committed record, field by field.
    config: Dict[str, Any]
    #: What the rates count: ``"instructions"`` or ``"injections"``.
    unit: str
    #: Record keys of the reference and the fast leg.
    sides: Tuple[str, str]
    #: Their column labels in ``docs/perf_history.md``.
    labels: Tuple[str, str]
    pairs: int
    #: Largest tolerated fall of the speedup (and work ratio) under the
    #: latest committed record, as a fraction of it.
    tolerance: float
    #: Hard floor on the speedup, whatever the committed record says.
    floor: Optional[float]
    plan: Callable[[Dict[str, Any]], List[Case]]
    measure: Callable[[Any], Timing]
    #: Raises :class:`AssertionError` on any divergence (or a leg-specific
    #: failure); returns the row's deterministic fields, including the
    #: case's ``unit`` count.
    verify: Callable[[Any, Timing], Dict[str, Any]]
    #: Extra aggregate fields from the last pair's timings.
    summary: Optional[Callable[[List[Timing]], Dict[str, Any]]] = None
    rows_key: str = "per_workload"

    @property
    def benchmark(self) -> str:
        return f"{self.name}_throughput"

    @property
    def history(self) -> str:
        """The history file's name, next to the repository root."""
        return f"BENCH_{self.benchmark}.json"

    def rate_key(self, side: str) -> str:
        """The aggregate field holding *side*'s rate."""
        return f"{side}_{self.unit}_per_second"


# -- histories ---------------------------------------------------------------


def load_history(path: Path) -> List[Dict[str, Any]]:
    """The records of the history at *path*, oldest first."""
    return json.loads(Path(path).read_text())["history"]


def append_record(path: Path, record: Dict[str, Any]) -> None:
    """Append *record* to the history at *path*, creating it if absent."""
    document = (json.loads(path.read_text()) if path.exists()
                else {"benchmark": record["benchmark"], "history": []})
    document["history"].append(record)
    path.write_text(json.dumps(document, indent=2) + "\n")


def stamp() -> Dict[str, Any]:
    """The machine/time fields of every record: absolute rates from
    different machines are never compared blindly, and ``recorded_at``
    orders the history."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# -- the harness -------------------------------------------------------------


class SimulatedInstructions:
    """Counts the instructions the fast engines simulate while active.

    Wraps ``FastEmulator.run`` (each call's executed count) and
    ``Leon3FastCore.run_segment`` (the run state's advance), which every
    from-reset run, ladder recording, checkpoint fork, lockstep leader pass
    and demoted lockstep replica goes through.  Replicas that ride a lockstep
    pack simulate nothing of their own and count nothing.  The count is a
    property of the plan, not of the host: the same legs simulate the same
    instructions at any host speed or load.
    """

    def __init__(self) -> None:
        self.count = 0

    def __enter__(self) -> "SimulatedInstructions":
        run = self._run = FastEmulator.run
        segment = self._segment = Leon3FastCore.run_segment

        def counted_run(emulator: Any, *args: Any, **kwargs: Any) -> Any:
            result = run(emulator, *args, **kwargs)
            self.count += result.instructions
            return result

        def counted_segment(core: Any, state: Any, budget: int) -> None:
            before = state.executed
            segment(core, state, budget)
            self.count += state.executed - before

        FastEmulator.run = counted_run
        Leon3FastCore.run_segment = counted_segment
        return self

    def __exit__(self, *exc_info: object) -> None:
        FastEmulator.run = self._run
        Leon3FastCore.run_segment = self._segment


def timed(run: Callable[[], Any]) -> Tuple[float, Any, int]:
    """Seconds, result and simulated instructions of ``run()``."""
    with SimulatedInstructions() as work:
        start = time.perf_counter()
        result = run()
        seconds = time.perf_counter() - start
    return seconds, result, work.count


def measure(leg: Leg) -> Tuple[Dict[str, Any], List[float]]:
    """Run *leg*'s interleaved pairs; return its record and each pair's
    speedup.  Raises :class:`AssertionError` on any
    divergence, before any number leaves this function."""
    cases = leg.plan(leg.config)
    pairs: List[List[Tuple[Timing, Dict[str, Any]]]] = []
    for _ in range(leg.pairs):
        pair = []
        for case in cases:
            timing = leg.measure(case.state)
            pair.append((timing, leg.verify(case.state, timing)))
        pairs.append(pair)

    def rate(amount: float, seconds: float) -> float:
        # Instruction rates are recorded whole, injection rates to 0.01.
        return round(amount / seconds, None if leg.unit == "instructions" else 2)

    def side(amount: float, seconds: float, work: Optional[int]) -> Dict[str, Any]:
        entry = {"seconds": round(seconds, 4),
                 f"{leg.unit}_per_second": rate(amount, seconds)}
        if work is not None:
            entry["instructions"] = work
        return entry

    rows = []
    amount, reference_total, fast_total = 0, 0.0, 0.0
    for index, case in enumerate(cases):
        runs = [pair[index] for pair in pairs]
        timing, fields = runs[-1]
        for other, other_fields in runs:
            if (other_fields, other.work) != (fields, timing.work):
                raise AssertionError(
                    f"{' '.join(map(str, case.fields.values()))} simulated "
                    f"different plans in two pairs: {other_fields, other.work} "
                    f"vs {fields, timing.work}"
                )
        reference_s = statistics.median(run.reference_s for run, _ in runs)
        fast_s = statistics.median(run.fast_s for run, _ in runs)
        work = timing.work or (None, None)
        row = {
            **case.fields,
            **fields,
            leg.sides[0]: side(fields[leg.unit], reference_s, work[0]),
            leg.sides[1]: side(fields[leg.unit], fast_s, work[1]),
            "speedup": round(reference_s / fast_s, 2),
        }
        if timing.work:
            row["work_ratio"] = round(work[0] / work[1], 3)
        rows.append(row)
        amount += fields[leg.unit]
        reference_total += reference_s
        fast_total += fast_s

    pair_speedups = [
        sum(timing.reference_s for timing, _ in pair)
        / sum(timing.fast_s for timing, _ in pair)
        for pair in pairs
    ]
    aggregate = {
        leg.unit: amount,
        leg.rate_key(leg.sides[0]): rate(amount, reference_total),
        leg.rate_key(leg.sides[1]): rate(amount, fast_total),
        "speedup": round(statistics.median(pair_speedups), 2),
    }
    if "work_ratio" in rows[0]:
        reference_work, fast_work = (
            sum(row[side]["instructions"] for row in rows) for side in leg.sides
        )
        aggregate["work_ratio"] = round(reference_work / fast_work, 3)
    if leg.summary is not None:
        aggregate.update(leg.summary([timing for timing, _ in pairs[-1]]))
    record = {
        "benchmark": leg.benchmark,
        **leg.config,
        "pairs": leg.pairs,
        **stamp(),
        leg.rows_key: rows,
        "aggregate": aggregate,
    }
    return record, pair_speedups


def report(leg: Leg, record: Dict[str, Any], pair_speedups: List[float]) -> None:
    """Print *record*'s rows, the pair speedups and the aggregate."""
    reference, fast = leg.sides
    rate = f"{leg.unit}_per_second"
    shown = {"workload", "backend", leg.unit, reference, fast, "speedup", "work_ratio"}
    for row in record[leg.rows_key]:
        label = " ".join(str(row[key]) for key in ("workload", "backend") if key in row)
        work = f"  work {row['work_ratio']:6.3f}x" if "work_ratio" in row else ""
        extras = ", ".join(f"{key} {value}" for key, value in row.items()
                           if key not in shown)
        print(f"  {label:13s} {row[leg.unit]:7d} {leg.unit}   "
              f"{reference} {row[reference][rate]:>10}/s   "
              f"{fast} {row[fast][rate]:>10}/s   "
              f"{row['speedup']:6.2f}x{work}" + (f"   ({extras})" if extras else ""))
    aggregate = record["aggregate"]
    work = (f", {aggregate['work_ratio']:.3f}x work ratio"
            if "work_ratio" in aggregate else "")
    print(f"  pair speedups: {', '.join(f'{ratio:.2f}x' for ratio in pair_speedups)}")
    print(f"  aggregate: {reference} {aggregate[leg.rate_key(reference)]}/s, "
          f"{fast} {aggregate[leg.rate_key(fast)]}/s -> "
          f"{aggregate['speedup']:.2f}x median pair speedup{work}; "
          f"every pair bit-identical")


def gate(leg: Leg, record: Dict[str, Any], committed: Dict[str, Any]) -> Optional[str]:
    """Why *record* fails against the *committed* record, or ``None``."""
    for field, value in leg.config.items():
        if committed.get(field) != value:
            return (f"configuration mismatch on {field!r}: declared {value!r}, "
                    f"committed {committed.get(field)!r}")
    bounds = [("speedup", leg.floor or 0.0)]
    if "work_ratio" in record["aggregate"]:
        if "work_ratio" in committed["aggregate"]:
            # The work ratio has no hard floor: it is held to the record only.
            bounds.append(("work_ratio", 0.0))
        else:
            print("  check: no work ratio in the committed record "
                  "(work comparison skipped)")
    failures = []
    for name, hard_floor in bounds:
        measured = record["aggregate"][name]
        reference = committed["aggregate"][name]
        floor = max(reference * (1.0 - leg.tolerance), hard_floor)
        print(f"  check: {name} {measured:.3f}x vs committed {reference:.3f}x "
              f"(floor {floor:.3f}x)")
        if measured < floor:
            failures.append(f"{name} {measured:.3f}x fell below its floor "
                            f"{floor:.3f}x")
    if failures:
        return (f"{leg.name}: {'; '.join(failures)} ({leg.tolerance:.0%} under "
                f"the committed record, or the hard floor)")
    return None


def run(leg: Leg, check: bool = False, no_write: bool = False) -> int:
    """Measure *leg*, gate it under *check*, and append its record to the
    history unless *no_write* (which prints the record instead)."""
    path = REPO_ROOT / leg.history
    print(f"{leg.title} throughput ({leg.name}): {leg.pairs} interleaved "
          f"pair(s), {json.dumps(leg.config)}; paperbench phase {leg.phase}")
    history = load_history(path) if check and path.exists() else []
    if check and not history:
        print(f"ERROR: --check needs a committed history at {path}")
        return 1
    try:
        record, pair_speedups = measure(leg)
    except AssertionError as error:
        print(f"ERROR: {leg.name}: the fast leg fails verification: {error}")
        return 1
    report(leg, record, pair_speedups)
    if check:
        error = gate(leg, record, history[-1])
        if error is not None:
            print(f"ERROR: {error}")
            return 1
        print("  check: ok")
    if no_write:
        print(json.dumps(record, indent=2))
    else:
        append_record(path, record)
        print(f"  record appended to {leg.history}")
    return 0


# -- iss: the ISS interpreter ------------------------------------------------
#
# Every workload once on the reference interpreter and once on the fast path.
# The workloads are Table 1's six full-size characterisations, the dominant
# calls of ``iss.run_s``.  Each fast run starts on a fresh emulator and pays
# for compiling its workload's blocks (the process-wide block memo holds no
# other workload's code), so the figure is a first-run one.


def _iss_plan(config: Dict[str, Any]) -> List[Case]:
    return [
        Case({"workload": name}, (build_program(name, full_size=config["full_size"]),
                                  config["max_instructions"]))
        for name in config["workloads"]
    ]


def _iss_run(emulator_cls: type, program: Any, budget: int) -> Tuple[float, Any]:
    emulator = emulator_cls(memory=Memory())
    emulator.load_program(program)
    start = time.perf_counter()
    result = emulator.run(max_instructions=budget)
    return time.perf_counter() - start, (emulator, result)


def _iss_measure(state: Any) -> Timing:
    return Timing(*_iss_run(Emulator, *state), *_iss_run(FastEmulator, *state))


def _iss_verify(state: Any, timing: Timing) -> Dict[str, Any]:
    assert_results_identical(*timing.reference, *timing.fast)
    return {"instructions": timing.reference[1].instructions}


ISS = Leg(
    name="iss",
    title="ISS interpreter",
    phase="iss.run_s",
    config={
        "workloads": ["puwmod", "canrdr", "ttsprk", "rspeed", "membench", "intbench"],
        "full_size": True,
        "max_instructions": 2_000_000,
    },
    unit="instructions",
    sides=("reference", "fast"),
    labels=("reference", "fast path"),
    pairs=1,
    tolerance=0.20,
    floor=None,
    plan=_iss_plan,
    measure=_iss_measure,
    verify=_iss_verify,
)


# -- rtl: permanent-fault injections on the RTL core -------------------------
#
# One golden run plus sampled sites x the three permanent models per
# workload, through the backend API a campaign scheduler uses, on the
# reference core and on the fast core.  Sites come from the full universe,
# so the series includes net sites: the fast core applies decode-net faults
# itself and runs the others on its reference-core fallback, which makes the
# speedup the campaign-level figure.  Both series collapse open-line net jobs
# onto their stuck-at twin, which runs earlier in the series.  The rows
# record the share of fast-core instructions run in compiled blocks, overall
# and over the runs faulting a register-file or a cache-array cell; a zero
# overall or cache-array share fails verification (the block path, or its
# cache hook, is off).

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

    def __init__(self, core: Any = None) -> None:
        self.runs = 0
        self.fast_instructions = 0
        self.block_instructions = 0
        self.groups = {group: [0, 0] for group in set(SITE_GROUPS.values())}
        self._core = core

    def __enter__(self) -> "FallbackCounter":
        self._run = self._core.run
        self._core.run = self._counted_run
        return self

    def __exit__(self, *exc_info: object) -> None:
        del self._core.run

    def _counted_run(self, **kwargs: Any) -> Any:
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

    def shares(self) -> Dict[str, float]:
        """``block_share`` overall and per group, rounded for the record."""
        return {
            "block_share": round(
                self.block_instructions / max(self.fast_instructions, 1), 3),
            **{f"{group}_block_share": round(blocks / max(instructions, 1), 3)
               for group, (instructions, blocks) in sorted(self.groups.items())},
        }


def _rtl_plan(config: Dict[str, Any]) -> List[Case]:
    cases = []
    for name in config["workloads"]:
        program = build_program(name)
        # Full-state bit-identity of the fault-free run (register cells,
        # PSR, caches, memory image) before anything is timed.
        verify_rtl_bit_identity(program, max_instructions=config["max_instructions"])
        reference = Leon3RtlBackend(fast=False)
        fast = Leon3RtlBackend(fast=True)
        reference.prepare(program)
        fast.prepare(program)
        golden = reference.run(max_instructions=config["max_instructions"])
        if fast.run(max_instructions=config["max_instructions"]) != golden:
            raise AssertionError(f"fast golden run diverges on {name!r}")
        sites = reference.sites.sample(config["sites_per_workload"], seed=config["seed"])
        # Open line comes last in ALL_FAULT_MODELS, after its stuck-at twin.
        faults = [
            PermanentFault(site=site, model=model)
            for model in ALL_FAULT_MODELS
            for site in sites
        ]
        budget = watchdog_budget(golden.instructions)
        cases.append(Case({"workload": name},
                          (reference, fast, budget, faults, golden.instructions)))
    return cases


def _rtl_series(backend: Any, budget: int, faults: List[Any]) -> Tuple[float, list]:
    start = time.perf_counter()
    results = [backend.run(max_instructions=budget, faults=[fault]) for fault in faults]
    return time.perf_counter() - start, results


def _rtl_measure(state: Any) -> Timing:
    reference, fast, budget, faults, _ = state
    reference_s, reference_results = _rtl_series(reference, budget, faults)
    with FallbackCounter(fast.core) as counter:
        fast_s, fast_results = _rtl_series(fast, budget, faults)
    return Timing(reference_s, reference_results, fast_s, (fast_results, counter))


def _rtl_verify(state: Any, timing: Timing) -> Dict[str, Any]:
    _, _, _, faults, golden_instructions = state
    fast_results, counter = timing.fast
    for fault, expected, observed in zip(faults, timing.reference, fast_results):
        if observed != expected:
            raise AssertionError(f"under {fault.describe()}")
    if not counter.block_instructions:
        raise AssertionError("no fast-core instruction ran in a compiled block")
    if not counter.groups["cache_array"][1]:
        raise AssertionError(
            "no instruction of a cache-array run ran in a compiled block")
    return {
        "injections": len(faults),
        "net_site_jobs": sum(fault.site.index is None for fault in faults),
        "net_fault_fallbacks": counter.runs,
        "collapsed_open_line_jobs": sum(
            fault.site.index is None and fault.model is FaultModel.OPEN_LINE
            for fault in faults
        ),
        "golden_instructions": golden_instructions,
        **counter.shares(),
    }


def _rtl_summary(timings: List[Timing]) -> Dict[str, Any]:
    # The aggregate shares weigh each group by its fast-core instructions,
    # which the rows do not carry.
    total = FallbackCounter()
    for timing in timings:
        total.merge(timing.fast[1])
    return total.shares()


RTL = Leg(
    name="rtl",
    title="RTL injection",
    phase="leon3.fast_s",
    # One automotive kernel plus the two synthetics: the mix Figs 5/6 lean
    # on, small enough for a CI smoke run.
    config={
        "workloads": ["rspeed", "membench", "intbench"],
        "sites_per_workload": 12,
        "fault_models": len(ALL_FAULT_MODELS),
        "seed": 2015,
        "max_instructions": 400_000,
    },
    unit="injections",
    sides=("reference", "fast"),
    labels=("reference core", "fast engine"),
    pairs=1,
    tolerance=0.20,
    floor=3.0,
    plan=_rtl_plan,
    measure=_rtl_measure,
    verify=_rtl_verify,
    summary=_rtl_summary,
)


# -- transient: the checkpointed runtime -------------------------------------
#
# The transient job plan ``CampaignEngine`` makes (storage sites x sampled
# start times) on both backends: every injection from reset, then through
# the checkpointed runtime (golden ladder, fork from a rung, early exit on
# convergence), whose time includes recording its ladder.  Workloads run at
# 4 loop iterations: transient campaigns sample the time axis, so longer
# runs are the representative case.


def _golden(backend: Any, program: Any, max_instructions: int) -> Any:
    backend.prepare(program)
    golden = backend.run(max_instructions=max_instructions)
    if not golden.normal_exit:
        raise SystemExit(f"ERROR: golden run of {program.name!r} on "
                         f"{backend.name} did not exit normally")
    return golden


def _transient_jobs(config: Dict[str, Any], backend: Any, program: Any,
                    horizon: int) -> list:
    sites = backend.sites.sample(
        config["sites_per_workload"], seed=config["seed"], storage_only=True
    )
    return plan_transient_jobs(
        sites, horizon=horizon, windows=config["windows_per_site"], duration=1,
        seed=config["seed"], workload=program.name,
    )


def _identical(expected: Any, observed: Any, fault: Any) -> None:
    try:
        assert_run_results_identical(expected, observed)
    except AssertionError as error:
        raise AssertionError(f"under {fault.describe()}: {error}") from error


def _transient_plan(config: Dict[str, Any]) -> List[Case]:
    cases = []
    for name in config["workloads"]:
        program = build_program(name, iterations=config["iterations"])
        for backend in (IssBackend(), Leon3RtlBackend()):
            golden = _golden(backend, program, config["max_instructions"])
            horizon = (golden.cycles if backend.transient_unit == "cycles"
                       else golden.instructions)
            jobs = _transient_jobs(config, backend, program, horizon)
            cases.append(Case({"workload": name, "backend": backend.name},
                              (backend, golden, jobs, config["max_instructions"])))
    return cases


def _transient_measure(state: Any) -> Timing:
    backend, golden, jobs, max_instructions = state
    budget = watchdog_budget(golden.instructions)

    def checkpointed() -> Tuple[Any, Any, list]:
        runner = backend.checkpoint_runner(max_instructions)
        return (runner, runner.golden(),
                [runner.run_transient(job.fault, budget) for job in jobs])

    reference_s, reference, reference_work = timed(lambda: [
        backend.run(max_instructions=budget, faults=[job.fault]) for job in jobs
    ])
    fast_s, fast, fast_work = timed(checkpointed)
    return Timing(reference_s, reference, fast_s, fast, (reference_work, fast_work))


def _transient_verify(state: Any, timing: Timing) -> Dict[str, Any]:
    _, golden, jobs, _ = state
    runner, ladder_golden, checkpointed = timing.fast
    assert_run_results_identical(golden, ladder_golden)
    for job, expected, observed in zip(jobs, timing.reference, checkpointed):
        _identical(expected, observed, job.fault)
    return {
        "injections": len(jobs),
        "golden_instructions": golden.instructions,
        "ladder_rungs": len(runner.ladder().checkpoints),
        "early_exits": runner.early_exits,
    }


TRANSIENT = Leg(
    name="transient",
    title="Transient runtime",
    phase="checkpoint.fork_s",
    config={
        "workloads": ["rspeed", "membench", "intbench"],
        "iterations": 4,
        "sites_per_workload": 8,
        "windows_per_site": 3,
        "seed": 2015,
        "max_instructions": 400_000,
    },
    unit="injections",
    sides=("from_reset", "checkpointed"),
    labels=("from reset", "checkpointed"),
    pairs=5,
    # Both legs run with telemetry off (the default registry state), so the
    # 2% bound also caps what the checkpoint runtime's instrumentation costs.
    tolerance=0.02,
    floor=3.0,
    plan=_transient_plan,
    measure=_transient_measure,
    verify=_transient_verify,
    rows_key="per_run",
)


# -- lockstep: N-way replica packs -------------------------------------------
#
# The same ISS transient plan, through the checkpointed runtime one replica
# at a time (scalar) and in packs of ``lockstep_width`` replicas through the
# shared front end of ``repro.engine.lockstep``.  Each leg rebuilds its
# runner, and so pays for its ladder, in every pair.  The workloads are four
# automotive kernels and the synthetic memory benchmark: pack speedup is
# bounded by each workload's share of divergent faults (a demoted replica
# costs its scalar run), and this mix has mostly absorbed faults and a
# minority that fork the run, as the paper's campaigns do.  24 windows per
# site and packs of 24 make one pack per site, so the ladder and touch
# timelines amortise over the whole window sample.


def _from_reset_final_state(program: Any, fault: Any, budget: int) -> Any:
    """Final architectural state of an untimed from-reset faulty run."""
    emulator = FastEmulator(memory=Memory())
    emulator.collect_raw_counts = True
    emulator.load_program(program)
    base_pages = {i: bytes(p) for i, p in emulator.memory._pages.items()}
    emulator.restore_state(emulator.capture_state(base_pages), base_pages, 0, fault)
    emulator.run(max_instructions=budget)
    return emulator.capture_state(base_pages)


def _lockstep_plan(config: Dict[str, Any]) -> List[Case]:
    """Plan each workload and verify, once and untimed, every pack replica's
    result and final architectural state against its from-reset run; each
    pair then compares its results with those from-reset ones."""
    cases = []
    for name in config["workloads"]:
        program = build_program(name, iterations=config["iterations"])
        backend = IssBackend()
        golden = _golden(backend, program, config["max_instructions"])
        budget = watchdog_budget(golden.instructions)
        jobs = _transient_jobs(config, backend, program, golden.instructions)
        packs = group_packs(jobs, config["lockstep_width"])
        references = [backend.run(max_instructions=budget, faults=[job.fault])
                      for job in jobs]
        runner = backend.checkpoint_runner(config["max_instructions"])
        runner.golden()
        pack_runner = runner.pack_runner(config["lockstep_width"])
        outcomes = [outcome for pack in packs for outcome in pack_runner.run_pack(
            [backend._to_architectural(job.fault) for job in pack], budget,
            capture_final_state=True)]
        for job, reference, outcome in zip(jobs, references, outcomes):
            _identical(reference, outcome.result, job.fault)
            fault = backend._to_architectural(job.fault)
            if outcome.final_state != _from_reset_final_state(program, fault, budget):
                raise AssertionError(
                    f"final state diverges on {name!r} under "
                    f"{job.fault.describe()} ({outcome.resolution})"
                )
        cases.append(Case({"workload": name},
                          (backend, golden, budget, jobs, packs, references, config)))
    return cases


def _lockstep_measure(state: Any) -> Timing:
    backend, _, budget, jobs, packs, _, config = state

    def scalar() -> Tuple[Any, list]:
        runner = backend.checkpoint_runner(config["max_instructions"])
        return runner.golden(), [runner.run_transient(job.fault, budget) for job in jobs]

    def lockstep() -> Tuple[Any, Any, list]:
        runner = backend.checkpoint_runner(config["max_instructions"])
        golden = runner.golden()
        pack_runner = runner.pack_runner(config["lockstep_width"])
        return golden, pack_runner, [
            outcome for pack in packs for outcome in pack_runner.run_pack(
                [backend._to_architectural(job.fault) for job in pack], budget)
        ]

    scalar_s, scalar_out, scalar_work = timed(scalar)
    lockstep_s, lockstep_out, lockstep_work = timed(lockstep)
    return Timing(scalar_s, scalar_out, lockstep_s, lockstep_out,
                  (scalar_work, lockstep_work))


def _lockstep_verify(state: Any, timing: Timing) -> Dict[str, Any]:
    _, golden, _, jobs, packs, references, _ = state
    scalar_golden, scalar = timing.reference
    lockstep_golden, pack_runner, outcomes = timing.fast
    assert_run_results_identical(golden, scalar_golden)
    assert_run_results_identical(golden, lockstep_golden)
    for job, reference, scalar_run, outcome in zip(jobs, references, scalar, outcomes):
        _identical(reference, scalar_run, job.fault)
        _identical(reference, outcome.result, job.fault)
    return {
        "injections": len(jobs),
        "golden_instructions": golden.instructions,
        "packs": len(packs),
        "demotions": pack_runner.demotions,
        "demoted_splices": pack_runner.demoted_splices,
        "in_pack_convergences": pack_runner.in_pack_convergences,
        "golden_riders": pack_runner.golden_riders,
        "propagations": pack_runner.propagations,
    }


LOCKSTEP = Leg(
    name="lockstep",
    title="Lockstep packs",
    phase="lockstep.pack_s",
    config={
        "workloads": ["puwmod", "canrdr", "ttsprk", "bitmnp", "membench"],
        "iterations": 4,
        "sites_per_workload": 8,
        "windows_per_site": 24,
        "lockstep_width": 24,
        "seed": 2015,
        "max_instructions": 400_000,
    },
    unit="injections",
    sides=("scalar", "lockstep"),
    labels=("scalar checkpointed", "lockstep"),
    pairs=5,
    # Telemetry is off in both legs, so the 2% bound also caps what the
    # pack loop's instrumentation costs.
    tolerance=0.02,
    floor=3.0,
    plan=_lockstep_plan,
    measure=_lockstep_measure,
    verify=_lockstep_verify,
)

#: Every leg, bottom-up: the order docs/performance.md walks the stack.
LEGS = {leg.name: leg for leg in (ISS, RTL, TRANSIENT, LOCKSTEP)}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("leg", choices=LEGS, help="the leg to measure")
    parser.add_argument("--check", action="store_true",
                        help="gate the record against the latest committed one")
    parser.add_argument("--no-write", action="store_true",
                        help="print the record instead of appending it")
    args = parser.parse_args(argv)
    return run(LEGS[args.leg], args.check, args.no_write)


if __name__ == "__main__":
    raise SystemExit(main())
