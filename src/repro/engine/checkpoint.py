"""Checkpointed transient-fault runtime: golden ladders, forks, early exits.

A transient (SEU-style) fault only disturbs the machine inside its activity
window, which makes the naive campaign loop — re-execute the whole workload
from reset for every injection — mostly redundant work: everything before the
window opens is bit-identical to the golden run, and after the window closes
most runs re-converge to the golden trajectory long before completion.  This
module removes exactly that redundancy while staying **bit-identical to the
from-reset execution of the same fault** (the same contract the fast
interpreters honour, enforced by ``tests/test_checkpoint.py`` and re-verified
by ``benchmarks/bench_transient_throughput.py`` before any number is
reported):

* **Golden snapshot ladder** — the golden run executes once, in
  ``checkpoint_interval``-instruction segments, capturing a full mid-run
  snapshot (architectural state + dirty memory pages + a state digest +
  prefix offsets into the golden observable streams) at every segment
  boundary: one :class:`Checkpoint` per rung, collected into a
  :class:`CheckpointLadder`.

* **Fork-from-checkpoint** — an injection run for a transient starting at
  time *t* restores the latest rung at or before *t* and runs forward from
  there with the fault armed, instead of from reset.  The restored prefix is
  bit-identical to the from-reset prefix by construction (the fault has no
  effect before its window), so the finished run is the complete from-reset
  observable stream.

* **Early-convergence exit** — once the fault window has closed, the fork
  compares its rolling state digest against the golden rung at the same
  instruction count at every ladder boundary.  The digest covers *all* state
  the remaining execution depends on (registers, PSR/ICC, Y, PC/nPC, annul
  flag, dirty memory pages, cache/timing state, cycle count), so a match
  proves the rest of the run replays the golden tail exactly — the runner
  splices the golden tail observables onto the fork prefix and classifies
  immediately, without simulating the remainder.

Ladders live one per worker (mirroring the per-worker golden caching of the
schedulers).  They are never pickled across the pool boundary — but they no
longer have to be *rebuilt* per worker either: the runners round-trip
through the store's golden-artifact cache (``to_artifact()`` /
``from_artifact()``, serialized by :mod:`repro.store.artifacts` and keyed by
:func:`repro.store.keys.artifact_key`), so a worker, shard, or repeated
campaign whose (workload, backend, budget, interval) matches a stored
recording loads the ladder instead of re-executing the golden run.  Loading
is gated on bit-identity: every deserialized rung is restored into the live
engine and its recomputed ``state_digest`` must equal the stored one before
the ladder is trusted.

Time units are backend-native: netlist cycles on the RTL backend, executed
instruction indices on the ISS (see ``ExecutionBackend.transient_unit``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.iss.fastpath import FastEmulator
from repro.iss.memory import Memory
from repro.iss.trace import ExecutionTrace
from repro.rtl.faults import TransientFault

from repro.engine.backend import ARCH_REGFILE_NET, RunResult

if TYPE_CHECKING:
    from repro.engine.lockstep import LockstepPackRunner
from repro.obs.telemetry import TELEMETRY

#: Starting rung spacing of the adaptive ladder (instructions).  Small enough
#: that short workloads still get a dense ladder (forks skip most of the
#: prefix, convergence is detected quickly), with the doubling rule below
#: keeping long workloads from drowning in capture/digest overhead.
ADAPTIVE_BASE_INTERVAL = 256

#: Rung-count cap of the adaptive ladder: when recording exceeds it, every
#: other rung is dropped and the interval doubles, so the final spacing is
#: roughly ``golden_instructions / MAX_RUNGS`` whatever the workload length.
#: Must stay even so the thinning boundary remains a multiple of the doubled
#: interval.
MAX_RUNGS = 48

__all__ = [
    "ADAPTIVE_BASE_INTERVAL",
    "MAX_RUNGS",
    "Checkpoint",
    "CheckpointLadder",
    "IssCheckpointRunner",
    "RtlCheckpointRunner",
    "make_checkpoint_runner",
    "assert_run_results_identical",
    "splice_golden_tail",
    "trace_from_counts",
]


@dataclass(frozen=True)
class Checkpoint:
    """One rung of the golden ladder: a paused golden run at an instruction
    boundary."""

    #: Executed instructions at the capture point (a multiple of the interval).
    instructions: int
    #: Accumulated cycles at the capture point.
    cycles: int
    #: Digest of the complete machine state (the convergence comparison key).
    digest: str
    #: Backend-specific restore payload (see the fast engines'
    #: ``capture_state``/``restore_state``).
    payload: Dict[str, Any]
    #: Off-core transactions emitted so far (prefix length into the golden
    #: stream; forks inherit exactly this prefix).
    txn_count: int
    #: Cumulative per-mnemonic execution counts at the capture point.
    counts: Dict[str, int] = field(default_factory=dict)


@dataclass
class CheckpointLadder:
    """The recorded golden run: final result plus one rung per interval."""

    interval: int
    checkpoints: List[Checkpoint]
    golden: RunResult
    #: Per-mnemonic execution counts of the complete golden run (tail splicing
    #: subtracts a rung's cumulative counts from these).
    final_counts: Dict[str, int]

    def rung_at_or_before(self, time: int, times: List[int]) -> Checkpoint:
        """Latest rung whose timestamp (from *times*) is <= *time*."""
        index = bisect_right(times, time) - 1
        return self.checkpoints[max(index, 0)]


def trace_from_counts(counts: Dict[str, int]) -> ExecutionTrace:
    """Rebuild an aggregate :class:`ExecutionTrace` from per-mnemonic counts.

    Value-identical to a trace folded instruction by instruction (or via
    ``record_bulk``) in any order — all aggregates derive from the definition
    and the count.  Zero counts are skipped so ``unit_opcodes`` sets contain
    exactly the opcodes that executed.
    """
    trace = ExecutionTrace(detailed=False)
    trace.record_counts(counts)
    return trace


def _merge_tail_counts(
    counts: Dict[str, int], final: Dict[str, int], at_rung: Dict[str, int]
) -> None:
    """Fold the golden tail's per-mnemonic counts (*final* minus *at_rung*)
    into the fork's *counts* in place."""
    for mnemonic, total in final.items():
        delta = total - at_rung.get(mnemonic, 0)
        if delta > 0:
            counts[mnemonic] = counts.get(mnemonic, 0) + delta


def splice_golden_tail(
    ladder: CheckpointLadder,
    rung: Checkpoint,
    transactions: List[Any],
    counts: Dict[str, int],
) -> RunResult:
    """Complete an ISS fork whose state digest matched *rung*: splice the
    golden tail observables onto the fork's accumulated prefix.

    The digest match proves the remaining execution replays the golden tail
    exactly, so the finished run is the fork's transactions plus the golden
    transactions after the rung, the fork's counts plus the golden tail
    counts, and the golden run's terminal facts.  Shared by
    :class:`IssCheckpointRunner` and the lockstep pack runtime
    (:mod:`repro.engine.lockstep`), whose demoted replicas re-converge
    through the same rung-aligned digest gate.  Mutates *transactions* and
    *counts* in place (callers hand over ownership).
    """
    golden = ladder.golden
    transactions.extend(golden.transactions[rung.txn_count:])
    _merge_tail_counts(counts, ladder.final_counts, rung.counts)
    return RunResult(
        backend=golden.backend,
        transactions=transactions,
        trace=trace_from_counts(counts),
        instructions=golden.instructions,
        cycles=golden.cycles,
        halted=golden.halted,
        exit_code=golden.exit_code,
        trap_kind=golden.trap_kind,
    )


def assert_run_results_identical(expected: RunResult, observed: RunResult) -> None:
    """Assert two runs match on every campaign observable.

    The single definition of the checkpoint bit-identity comparison set —
    ``tests/test_checkpoint.py`` and
    ``benchmarks/bench_transient_throughput.py`` both call it, so the
    contract cannot drift.  Raises :class:`AssertionError` naming the first
    divergent observable.
    """
    assert observed.backend == expected.backend, "backends diverge"
    assert observed.transactions == expected.transactions, (
        "transaction streams diverge"
    )
    assert observed.transaction_cycles == expected.transaction_cycles, (
        "transaction cycle stamps diverge"
    )
    assert observed.trace == expected.trace, "trace statistics diverge"
    assert observed.instructions == expected.instructions, (
        "instruction counts diverge"
    )
    assert observed.cycles == expected.cycles, "cycle counts diverge"
    assert observed.halted == expected.halted, "halt status diverges"
    assert observed.exit_code == expected.exit_code, "exit codes diverge"
    assert observed.trap_kind == expected.trap_kind, "trap kinds diverge"


class _CheckpointRunnerBase:
    """Shared ladder bookkeeping and fork statistics of the two runners."""

    def __init__(
        self, backend: Any, max_instructions: int, interval: Optional[int] = None
    ) -> None:
        if interval is not None and interval < 1:
            raise ValueError(f"checkpoint interval must be >= 1, got {interval}")
        self._backend = backend
        self._max_instructions = max_instructions
        #: Explicit rung spacing; ``None`` selects the adaptive ladder.
        self.interval = interval
        self._ladder: Optional[CheckpointLadder] = None
        self._rung_times: List[int] = []
        #: Forks executed from a checkpoint (observability for tests/benchmarks).
        self.forks = 0
        #: Forks that ended through the early-convergence exit.
        self.early_exits = 0
        #: Jobs that could not fork (unsupported site) and ran from reset.
        self.from_reset_runs = 0

    def ladder(self) -> CheckpointLadder:
        """The golden ladder (recorded on first use, then reused)."""
        if self._ladder is None:
            with TELEMETRY.span("checkpoint.capture"):
                self._ladder = self._record_ladder()
            self._rung_times = [
                self._rung_time(rung) for rung in self._ladder.checkpoints
            ]
            TELEMETRY.set_gauge(
                "checkpoint.rungs", len(self._ladder.checkpoints)
            )
        return self._ladder

    def golden(self) -> RunResult:
        """The golden run result (recording the ladder as a side effect)."""
        return self.ladder().golden

    @property
    def recorded(self) -> bool:
        """Whether a ladder is already in place (recorded or loaded)."""
        return self._ladder is not None

    # -- golden-artifact round-trip -----------------------------------------------

    def to_artifact(self) -> Dict[str, Any]:
        """Serialize the golden recording for the store's artifact cache.

        The payload (see :mod:`repro.store.artifacts`) carries the complete
        ladder — rung restore payloads, state digests, cumulative counts,
        transaction-prefix lengths — plus the golden result and, when a
        lockstep consumer recorded one, the golden touch timeline.  Records
        the ladder first if this runner has not run yet.
        """
        from repro.store.artifacts import ladder_to_payload

        return ladder_to_payload(self.ladder(), timeline=self._artifact_timeline())

    def from_artifact(self, payload: Dict[str, Any]) -> None:
        """Install a deserialized golden recording instead of re-executing.

        Bit-identity is asserted before the ladder is trusted: every rung's
        payload is restored into the live engine and the recomputed
        ``state_digest`` must equal the stored digest (the same digest
        machinery the early-convergence exit compares against), so a stale
        or corrupt artifact raises
        :class:`~repro.store.artifacts.ArtifactError` rather than silently
        skewing a campaign.
        """
        from repro.store.artifacts import payload_to_ladder

        ladder, timeline = payload_to_ladder(payload)
        with TELEMETRY.span("checkpoint.verify"):
            self._verify_artifact(ladder)
        self._ladder = ladder
        self._rung_times = [self._rung_time(rung) for rung in ladder.checkpoints]
        TELEMETRY.set_gauge("checkpoint.rungs", len(ladder.checkpoints))
        self._accept_timeline(timeline)

    def _artifact_timeline(self) -> Optional[Dict[Any, List[int]]]:
        """The lockstep touch timeline to embed in artifacts (ISS only)."""
        return None

    def _accept_timeline(self, timeline: Optional[Dict[Any, List[int]]]) -> None:
        """Adopt a timeline restored from an artifact (ISS only)."""

    def _verify_artifact(self, ladder: CheckpointLadder) -> None:
        """Restore every rung into the live engine and check its digest."""
        raise NotImplementedError

    def run_transient(
        self, fault: TransientFault, budget: int, early_exit: bool = True
    ) -> RunResult:
        """Execute one transient injection, bit-identical to
        ``backend.run(max_instructions=budget, faults=[fault])``.

        Forks from the latest ladder rung at or before the fault's start
        time; falls back to the plain from-reset run for sites the fast
        engine cannot fork (RTL net sites).  With *early_exit* the fork stops
        at the first post-window state-digest match against the golden ladder
        and splices the golden tail.
        """
        if not self.supports(fault):
            self.from_reset_runs += 1
            TELEMETRY.inc("checkpoint.from_reset_runs")
            return self._backend.run(max_instructions=budget, faults=[fault])
        ladder = self.ladder()
        rung = ladder.rung_at_or_before(fault.start_cycle, self._rung_times)
        self.forks += 1
        registry = TELEMETRY
        if not registry.enabled:
            return self._fork(ladder, rung, fault, budget, early_exit)
        # Per-fork cost is one span plus a few dict updates — negligible next
        # to the simulated fork, and skipped entirely above when disabled.
        registry.counter("checkpoint.forks").inc()
        registry.histogram("checkpoint.fork_distance").observe(
            fault.start_cycle - self._rung_time(rung)
        )
        early_exits_before = self.early_exits
        with registry.span("checkpoint.fork"):
            result = self._fork(ladder, rung, fault, budget, early_exit)
        if self.early_exits > early_exits_before:
            registry.counter("checkpoint.early_exits").inc()
            events = registry.events
            if events is not None:
                events.emit_instant("checkpoint.splice")
        return result

    # -- adaptive ladder spacing --------------------------------------------------

    def _start_interval(self) -> int:
        return self.interval if self.interval is not None else ADAPTIVE_BASE_INTERVAL

    def _maybe_thin(self, checkpoints: List[Checkpoint], interval: int) -> int:
        """Halve the ladder density once it exceeds :data:`MAX_RUNGS`.

        Dropping every other rung keeps all remaining rungs on multiples of
        the doubled interval (the property the fork's boundary arithmetic
        relies on).  Only active in adaptive mode (no explicit interval).
        """
        if self.interval is None and len(checkpoints) > MAX_RUNGS:
            interval *= 2
            checkpoints[:] = [
                rung for rung in checkpoints if rung.instructions % interval == 0
            ]
        return interval

    # -- provided by the backend-specific runner ----------------------------------

    def supports(self, fault: TransientFault) -> bool:
        raise NotImplementedError

    def _rung_time(self, rung: Checkpoint) -> int:
        raise NotImplementedError

    def _record_ladder(self) -> CheckpointLadder:
        raise NotImplementedError

    def _fork(
        self,
        ladder: CheckpointLadder,
        rung: Checkpoint,
        fault: TransientFault,
        budget: int,
        early_exit: bool,
    ) -> RunResult:
        raise NotImplementedError


class IssCheckpointRunner(_CheckpointRunnerBase):
    """Checkpointed transient runtime on the fast-path ISS interpreter.

    The ISS time unit is the executed-instruction index: a transient upsets
    its register cell once, when the instruction count reaches
    ``start_cycle`` (mapped onto the existing ``bit_flip`` architectural
    fault, exactly as the plain ``IssBackend.run`` maps it — so fork and
    from-reset runs share one fault semantics by construction).
    """

    def __init__(
        self, backend: Any, max_instructions: int, interval: Optional[int]
    ) -> None:
        super().__init__(backend, max_instructions, interval)
        self._emulator: Optional[FastEmulator] = None
        self._base_pages: Dict[int, bytes] = {}
        #: Golden touch timeline donated to lockstep pack runners (loaded
        #: from an artifact, or recorded eagerly by :meth:`record_timeline`
        #: before publication) — see :func:`repro.engine.lockstep.make_pack_runner`.
        self.donated_timeline: Optional[Dict[Any, List[int]]] = None

    def supports(self, fault: TransientFault) -> bool:
        site = fault.site
        return site.index is not None and site.net == ARCH_REGFILE_NET

    def _rung_time(self, rung: Checkpoint) -> int:
        return rung.instructions

    def _record_ladder(self) -> CheckpointLadder:
        program = self._backend.program
        if program is None:
            raise RuntimeError("backend not prepared: call prepare(program) first")
        emulator = FastEmulator(memory=Memory(), detailed_trace=False)
        # Slices fold their trace tallies here once per run, not per slice.
        emulator.collect_raw_counts = True
        emulator.load_program(program)
        self._emulator = emulator
        self._base_pages = {
            index: bytes(page) for index, page in emulator.memory._pages.items()
        }
        checkpoints = [
            Checkpoint(
                instructions=0, cycles=0,
                digest=emulator.state_digest(self._base_pages),
                payload=emulator.capture_state(self._base_pages),
                txn_count=0, counts={},
            )
        ]
        transactions: List[Any] = []
        counts: Dict[str, int] = {}
        executed = 0
        interval = self._start_interval()
        while True:
            slice_budget = min(interval, self._max_instructions - executed)
            result = emulator.run(max_instructions=slice_budget)
            executed += result.instructions
            transactions.extend(result.transactions)
            for mnemonic, count in emulator.last_counts.items():
                counts[mnemonic] = counts.get(mnemonic, 0) + count
            if result.halted or executed >= self._max_instructions:
                final = result
                break
            checkpoints.append(
                Checkpoint(
                    instructions=executed, cycles=result.cycles,
                    digest=emulator.state_digest(self._base_pages),
                    payload=emulator.capture_state(self._base_pages),
                    txn_count=len(transactions), counts=dict(counts),
                )
            )
            interval = self._maybe_thin(checkpoints, interval)
        golden = self._package(transactions, counts, executed, final)
        return CheckpointLadder(
            interval=interval, checkpoints=checkpoints,
            golden=golden, final_counts=dict(counts),
        )

    def _package(
        self,
        transactions: List[Any],
        counts: Dict[str, int],
        executed: int,
        final: Any,
    ) -> RunResult:
        trap_kind = self._backend.normalize_trap_kind(final.trap)
        return RunResult(
            backend=self._backend.name,
            transactions=list(transactions),
            trace=trace_from_counts(counts),
            instructions=executed,
            cycles=final.cycles,
            halted=final.halted,
            exit_code=final.exit_code,
            trap_kind=trap_kind,
        )

    def _fork(
        self,
        ladder: CheckpointLadder,
        rung: Checkpoint,
        fault: TransientFault,
        budget: int,
        early_exit: bool,
    ) -> RunResult:
        emulator = self._emulator
        assert emulator is not None  # _record_ladder ran before any fork
        arch_fault = self._backend._to_architectural(fault)
        emulator.restore_state(
            rung.payload, self._base_pages, rung.instructions, arch_fault
        )
        transactions = list(ladder.golden.transactions[: rung.txn_count])
        counts = dict(rung.counts)
        executed = rung.instructions
        rungs = ladder.checkpoints
        interval = ladder.interval
        while True:
            slice_budget = min(interval, budget - executed)
            result = emulator.run(max_instructions=slice_budget)
            executed += result.instructions
            transactions.extend(result.transactions)
            for mnemonic, count in emulator.last_counts.items():
                counts[mnemonic] = counts.get(mnemonic, 0) + count
            if result.halted or executed >= budget:
                return self._package(transactions, counts, executed, result)
            if not (early_exit and emulator._flip_done):
                continue
            index, remainder = divmod(executed, interval)
            if (
                remainder == 0
                and index < len(rungs)
                and rungs[index].instructions == executed
                and emulator.state_digest(self._base_pages)
                == rungs[index].digest
            ):
                self.early_exits += 1
                return self._splice(ladder, rungs[index], transactions, counts)

    def _splice(
        self,
        ladder: CheckpointLadder,
        rung: Checkpoint,
        transactions: List[Any],
        counts: Dict[str, int],
    ) -> RunResult:
        return splice_golden_tail(ladder, rung, transactions, counts)

    def _artifact_timeline(self) -> Optional[Dict[Any, List[int]]]:
        return self.donated_timeline

    def _accept_timeline(self, timeline: Optional[Dict[Any, List[int]]]) -> None:
        if timeline is not None:
            self.donated_timeline = timeline

    def _verify_artifact(self, ladder: CheckpointLadder) -> None:
        program = self._backend.program
        if program is None:
            raise RuntimeError("backend not prepared: call prepare(program) first")
        emulator = FastEmulator(memory=Memory(), detailed_trace=False)
        emulator.collect_raw_counts = True
        emulator.load_program(program)
        base_pages = {
            index: bytes(page) for index, page in emulator.memory._pages.items()
        }
        for rung in ladder.checkpoints:
            emulator.restore_state(rung.payload, base_pages, rung.instructions, None)
            digest = emulator.state_digest(base_pages)
            if digest != rung.digest:
                from repro.store.artifacts import ArtifactError

                raise ArtifactError(
                    f"golden artifact failed bit-identity verification: rung at "
                    f"instruction {rung.instructions} restores to digest "
                    f"{digest[:12]}..., recorded {rung.digest[:12]}..."
                )
        # The verified emulator becomes the fork engine, exactly as if
        # _record_ladder had just run it to completion.
        self._emulator = emulator
        self._base_pages = base_pages

    def record_timeline(self, width: int) -> None:
        """Eagerly record the lockstep touch timeline (normally lazy) so an
        artifact published for a lockstep campaign carries it — every later
        consumer then skips the recording pass too."""
        if self.donated_timeline is None:
            self.donated_timeline = self.pack_runner(width)._ensure_timeline()

    def pack_runner(self, width: int) -> "LockstepPackRunner":
        """The lockstep pack runtime sharing this runner's golden ladder, so
        whole packs fork from the same rungs scalar forks use (and demoted
        replicas splice the same golden tail).  A donated touch timeline
        (from a cached artifact) rides along."""
        from repro.engine.lockstep import LockstepPackRunner

        return LockstepPackRunner(
            self._backend,
            self._max_instructions,
            width,
            ladder=self.ladder(),
            timeline=self.donated_timeline,
        )


class RtlCheckpointRunner(_CheckpointRunnerBase):
    """Checkpointed transient runtime on the fast LEON3 cycle engine.

    The RTL time unit is the netlist cycle (the unit
    :meth:`~repro.rtl.faults.TransientFault.active_at` is defined over).
    Forks restore the rung whose cycle count is at or before ``start_cycle``
    — the fault cannot have been active earlier, so the restored prefix is
    the from-reset prefix.  Only storage-array sites fork: every transient
    net fault runs from reset on the fast core's reference-core fallback
    (the fast engine applies net faults itself only when they are permanent
    and on word-determined nets).
    """

    def supports(self, fault: TransientFault) -> bool:
        return self._core.native_site(fault.site)

    @property
    def _core(self) -> Any:
        return self._backend.core

    def _rung_time(self, rung: Checkpoint) -> int:
        return rung.cycles

    def _record_ladder(self) -> CheckpointLadder:
        core = self._core
        core.clear_faults()
        core.reload()
        state = core.begin_run()
        checkpoints = [
            Checkpoint(
                instructions=0, cycles=0, digest=core.state_digest(state),
                payload=core.capture_state(state), txn_count=0, counts={},
            )
        ]
        interval = self._start_interval()
        while True:
            slice_budget = min(interval, self._max_instructions - state.executed)
            core.run_segment(state, slice_budget)
            if state.halted or state.executed >= self._max_instructions:
                break
            checkpoints.append(
                Checkpoint(
                    instructions=state.executed, cycles=state.cycles,
                    digest=core.state_digest(state),
                    payload=core.capture_state(state),
                    txn_count=len(core.transactions), counts=dict(state.counts),
                )
            )
            interval = self._maybe_thin(checkpoints, interval)
        golden = self._package(core.finish_run(state))
        return CheckpointLadder(
            interval=interval, checkpoints=checkpoints, golden=golden,
            final_counts=dict(golden.trace.opcode_counts),
        )

    def _verify_artifact(self, ladder: CheckpointLadder) -> None:
        core = self._core
        core.clear_faults()
        core.reload()
        golden = ladder.golden
        for rung in ladder.checkpoints:
            state = core.restore_state(
                rung.payload,
                golden.transactions[: rung.txn_count],
                golden.transaction_cycles[: rung.txn_count],
                rung.counts,
            )
            digest = core.state_digest(state)
            if digest != rung.digest:
                from repro.store.artifacts import ArtifactError

                raise ArtifactError(
                    f"golden artifact failed bit-identity verification: rung at "
                    f"instruction {rung.instructions} restores to digest "
                    f"{digest[:12]}..., recorded {rung.digest[:12]}..."
                )

    def _package(self, native: Any) -> RunResult:
        return RunResult(
            backend=self._backend.name,
            transactions=native.transactions,
            trace=native.trace,
            instructions=native.instructions,
            cycles=native.cycles,
            halted=native.halted,
            exit_code=native.exit_code,
            trap_kind=native.trap_kind,
            transaction_cycles=native.transaction_cycles,
        )

    def _fork(
        self,
        ladder: CheckpointLadder,
        rung: Checkpoint,
        fault: TransientFault,
        budget: int,
        early_exit: bool,
    ) -> RunResult:
        core = self._core
        core.clear_faults()
        golden = ladder.golden
        state = core.restore_state(
            rung.payload,
            golden.transactions[: rung.txn_count],
            golden.transaction_cycles[: rung.txn_count],
            rung.counts,
        )
        core.inject([fault])
        rungs = ladder.checkpoints
        interval = ladder.interval
        end_cycle = fault.end_cycle
        try:
            while True:
                slice_budget = min(interval, budget - state.executed)
                core.run_segment(state, slice_budget)
                if state.halted or state.executed >= budget:
                    return self._package(core.finish_run(state))
                if not (early_exit and state.cycles >= end_cycle):
                    continue
                index, remainder = divmod(state.executed, interval)
                if (
                    remainder == 0
                    and index < len(rungs)
                    and rungs[index].instructions == state.executed
                    and core.state_digest(state) == rungs[index].digest
                ):
                    self.early_exits += 1
                    return self._splice(ladder, rungs[index], core, state)
        finally:
            core.clear_faults()

    def _splice(
        self,
        ladder: CheckpointLadder,
        rung: Checkpoint,
        core: Any,
        state: Any,
    ) -> RunResult:
        golden = ladder.golden
        transactions = list(core.transactions)
        transactions.extend(golden.transactions[rung.txn_count :])
        stamps = list(state.transaction_cycles)
        stamps.extend(golden.transaction_cycles[rung.txn_count :])
        counts = dict(state.counts)
        _merge_tail_counts(counts, ladder.final_counts, rung.counts)
        return RunResult(
            backend=golden.backend,
            transactions=transactions,
            trace=trace_from_counts(counts),
            instructions=golden.instructions,
            cycles=golden.cycles,
            halted=golden.halted,
            exit_code=golden.exit_code,
            trap_kind=golden.trap_kind,
            transaction_cycles=stamps,
        )


def make_checkpoint_runner(
    backend: Any,
    max_instructions: int,
    interval: Optional[int] = None,
) -> Optional[_CheckpointRunnerBase]:
    """Build the checkpoint runner for *backend*, or ``None`` when the
    backend cannot checkpoint (reference engines, detailed tracing).

    *interval* pins the rung spacing; ``None`` (the default) selects the
    adaptive ladder, whose spacing scales with the golden run's length.
    """
    if not getattr(backend, "supports_checkpoints", False):
        return None
    if backend.name == "iss":
        return IssCheckpointRunner(backend, max_instructions, interval)
    return RtlCheckpointRunner(backend, max_instructions, interval)
