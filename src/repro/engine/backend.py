"""Execution backends: one run API over every simulator in the framework.

The paper's core experiment runs the *same* workload under fault injection on
two very different simulators — the RTL-level structural Leon3 model and the
instruction-set simulator — and correlates the results.  Historically the two
exposed ad-hoc, divergent run APIs, which forced every experiment driver to
carry bespoke per-simulator loops.  This module closes that gap:

* :class:`RunResult` is the common outcome record of one program execution
  (off-core transaction stream, trace, counts, termination status) — the
  comparison point used to declare failures, regardless of backend.
* :class:`ExecutionBackend` is the protocol every simulator adapter follows:
  ``prepare(program)`` once, then any number of ``run(max_instructions,
  faults=...)`` calls, each starting from a clean reset with the given faults
  active.
* :class:`Leon3RtlBackend` adapts the structural Leon3 model (RTL-level
  permanent faults on netlist sites).
* :class:`IssBackend` adapts the functional emulator (architectural faults on
  register-file bits, the baseline practice the paper argues about).

Backends are cheap to construct and deliberately hold *all* their state, so a
campaign scheduler can build one per worker process and reuse it across
thousands of injection runs (per-worker golden caching).
"""

from __future__ import annotations

import types
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    cast,
    runtime_checkable,
)

from repro.isa.assembler import Program
from repro.iss.emulator import Emulator, ExecutionResult
from repro.iss.fastpath import FastEmulator
from repro.iss.faults import ArchitecturalFault, FaultyEmulator
from repro.iss.memory import Memory
from repro.iss.trace import ExecutionTrace, OffCoreTransaction
from repro.leon3.core import Leon3Core, RtlExecutionResult
from repro.leon3.fastcore import Leon3FastCore
from repro.rtl.faults import CellReads, FaultModel, PermanentFault, TransientFault
from repro.rtl.sites import FaultSite, SiteUniverse

if TYPE_CHECKING:
    from repro.engine.checkpoint import _CheckpointRunnerBase
    from repro.engine.lockstep import GoldenTimelines

#: Head-room factor applied to the golden instruction count to detect hangs.
WATCHDOG_FACTOR = 2.0
WATCHDOG_SLACK = 1_000


def watchdog_budget(golden_instructions: int) -> int:
    """Instruction budget for faulty runs, derived from the golden run.

    A faulty run that executes more than ``WATCHDOG_FACTOR`` times the golden
    instruction count (plus slack) without terminating is declared hung; the
    comparator then classifies it as :attr:`FailureClass.HANG`.
    """
    return int(golden_instructions * WATCHDOG_FACTOR) + WATCHDOG_SLACK


@dataclass
class RunResult:
    """Backend-independent outcome of one program execution.

    Carries exactly the observables the failure comparison and the analysis
    layers need; simulator-specific extras (cache miss counts, trap objects)
    stay on the native result types.
    """

    backend: str
    transactions: List[OffCoreTransaction]
    trace: ExecutionTrace
    instructions: int
    cycles: int
    halted: bool
    exit_code: Optional[int] = None
    trap_kind: Optional[str] = None
    #: Cycle stamps of the off-core transactions (empty when the backend does
    #: not track them; the comparator then falls back to the final cycle).
    transaction_cycles: List[int] = field(default_factory=list)

    @property
    def normal_exit(self) -> bool:
        return self.halted and self.trap_kind is None and self.exit_code is not None


@runtime_checkable
class ExecutionBackend(Protocol):
    """Protocol implemented by every simulator adapter."""

    #: Short identifier ("rtl", "iss", ...) recorded on results.
    name: str

    def prepare(self, program: Program) -> None:
        """Load *program*; subsequent runs execute it from reset."""

    @property
    def sites(self) -> SiteUniverse:
        """The universe of fault sites this backend can inject into."""

    def run(
        self,
        max_instructions: int,
        faults: Iterable[Union[PermanentFault, TransientFault]] = (),
    ) -> RunResult:
        """Execute the prepared program from reset with *faults* active."""


class Leon3RtlBackend:
    """RTL-level backend: the structural Leon3 model with netlist faults.

    ``fast`` selects the cycle engine: the fast
    :class:`~repro.leon3.fastcore.Leon3FastCore` (flattened pipeline, decode
    memo, compiled per-array fault hooks — the default) or the reference
    :class:`Leon3Core`.  The two are bit-identical on every observable —
    ``tests/test_fastcore.py`` enforces it — so the flag is
    result-transparent: it changes throughput only, and both settings share
    one campaign-store identity (see
    :func:`repro.store.keys.backend_identity`).  Passing an explicit *core*
    pins the backend to that instance and ignores ``fast``.

    **Open-line collapsing on nets.**  An open line on a net holds the bit it
    latched when the fault appeared, and every run injects its faults just
    after a fault-free reset.  So an open line on a net *is* a stuck-at of
    that bit's post-reset value (0 on almost every net; the reset-time
    ``%sp`` write leaves some ``rf.waddr``/``rf.wdata`` bits at 1).
    Single-fault permanent runs on net sites are memoized per
    :meth:`prepare` under ``(site, equivalent model, max_instructions)``:
    whichever of an open-line job and its stuck-at twin runs first fills the
    memo, and the other is served from it without simulating.  Storage
    cells are not collapsed: their open line keeps the previous read-port
    value, a different model.

    **Net faults on the fast core** split two ways over the 1162 IU net
    bits: permanent faults on word-determined nets (124 bits:
    ``iu.fe.inst`` and the nine ``iu.de.*`` nets) compile into the fast
    core's per-PC decode; data-path nets (the other 1038 bits), all CMEM
    nets and every transient net fault fall back to the embedded reference
    core.

    **Read watching.**  ``run(watch=sites)`` on the fast core records every
    read of those storage cells during a fault-free run and leaves the
    summary in :attr:`cell_reads` (see
    :meth:`~repro.leon3.fastcore.Leon3FastCore.watch`); the campaign
    engine's golden run uses it to resolve inert storage-cell faults
    without simulating them.
    """

    name = "rtl"
    #: Time unit of TransientFault windows on this backend (netlist cycles).
    transient_unit = "cycles"

    def __init__(
        self,
        core: Optional[Leon3Core] = None,
        *,
        fast: bool = True,
        **core_kwargs: Any,
    ) -> None:
        if core is not None:
            self.core = core
        elif fast:
            self.core = Leon3FastCore(**core_kwargs)
        else:
            self.core = Leon3Core(**core_kwargs)
        # Reflects the engine actually in use (an explicit core overrides
        # the flag), so diagnostics can trust backend.fast.
        self.fast = isinstance(self.core, Leon3FastCore)
        self._program: Optional[Program] = None
        self._reset_latched: Dict[str, int] = {}
        self._collapsed: Dict[Tuple[FaultSite, FaultModel, int], RunResult] = {}
        #: Reads of the cells the latest run watched, per ``(array, cell)``;
        #: ``None`` when it watched none (or ran on the reference core).
        self.cell_reads: Optional[Dict[Tuple[str, int], CellReads]] = None

    def prepare(self, program: Program) -> None:
        self._program = program
        self.core.load_program(program)
        # The netlist is fresh out of a fault-free reset only now: after a
        # run it holds that run's final values.
        self._reset_latched = self.core.netlist.latched_values()
        self._collapsed = {}

    @property
    def program(self) -> Optional[Program]:
        """The prepared program (``None`` before :meth:`prepare`)."""
        return self._program

    @property
    def sites(self) -> SiteUniverse:
        return self.core.sites

    @property
    def supports_checkpoints(self) -> bool:
        """True when the fast cycle engine can record/restore ladder rungs.

        Requires the fast engine (the reference core has no snapshot API)
        with aggregate tracing (detailed traces carry per-instruction records
        that cannot be spliced).
        """
        return self.fast and not self.core.detailed_trace

    def checkpoint_runner(
        self, max_instructions: int, interval: Optional[int] = None
    ) -> Optional["_CheckpointRunnerBase"]:
        """Build the checkpointed transient runtime for this backend
        (see :mod:`repro.engine.checkpoint`); ``None`` when unsupported."""
        # Imported lazily: checkpoint.py imports this module.
        from repro.engine.checkpoint import make_checkpoint_runner

        return make_checkpoint_runner(self, max_instructions, interval)

    def run(
        self,
        max_instructions: int,
        faults: Iterable[Union[PermanentFault, TransientFault]] = (),
        *,
        watch: Sequence[FaultSite] = (),
    ) -> RunResult:
        if self._program is None:
            raise RuntimeError("backend not prepared: call prepare(program) first")
        self.cell_reads = None
        fault_list = list(faults)
        key = self._collapse_key(fault_list, max_instructions)
        if key is not None:
            twin = self._collapsed.pop(key, None)
            if twin is not None:
                return twin
        self.core.clear_faults()
        self.core.reload()
        if fault_list:
            self.core.inject(fault_list)
        if watch and self.fast:
            self.cell_reads = cast(Leon3FastCore, self.core).watch(watch)
        native: RtlExecutionResult = self.core.run(max_instructions=max_instructions)
        self.core.clear_faults()
        result = RunResult(
            backend=self.name,
            transactions=native.transactions,
            trace=native.trace,
            instructions=native.instructions,
            cycles=native.cycles,
            halted=native.halted,
            exit_code=native.exit_code,
            trap_kind=native.trap_kind,
            transaction_cycles=native.transaction_cycles,
        )
        if key is not None:
            self._collapsed[key] = result
        return result

    def _collapse_key(
        self, faults: List[Union[PermanentFault, TransientFault]], max_instructions: int
    ) -> Optional[Tuple[FaultSite, FaultModel, int]]:
        """Memo key of a run whose open-line/stuck-at twin gives the same
        result (see the class docstring); ``None`` when the run has none."""
        if len(faults) != 1 or not isinstance(faults[0], PermanentFault):
            return None
        site, model = faults[0].site, faults[0].model
        if site.index is not None or site.net not in self._reset_latched:
            return None
        latched_bit = (self._reset_latched[site.net] >> site.bit) & 1
        equivalent = FaultModel.STUCK_AT_1 if latched_bit else FaultModel.STUCK_AT_0
        if model is not FaultModel.OPEN_LINE and model is not equivalent:
            return None
        return site, equivalent, max_instructions


#: Unit path of the ISS backend's architectural register-file sites.
ARCH_REGFILE_UNIT = "arch.regfile"
ARCH_REGFILE_NET = "regfile"

#: How RTL permanent-fault models map onto architectural fault models.  The
#: open-line model has no architectural equivalent; it degrades to a single
#: transient bit flip, the closest practice used in ISS-level campaigns.
_ARCH_MODEL = types.MappingProxyType(
    {
        FaultModel.STUCK_AT_0: "stuck_at_0",
        FaultModel.STUCK_AT_1: "stuck_at_1",
        FaultModel.OPEN_LINE: "bit_flip",
    }
)


class IssBackend:
    """ISS-level backend: the functional emulator with architectural faults.

    Its site universe is the architectural register file (32 registers of 32
    bits, unit path ``"arch.regfile"``); a :class:`PermanentFault` whose site
    comes from that universe is translated to the equivalent
    :class:`ArchitecturalFault`.  This is the fault-injection practice the
    paper evaluates ISS simulators against, exposed through the same API as
    the RTL campaigns so experiments can swap backends without new code.

    ``fast`` selects the interpreter: the fast-path
    :class:`~repro.iss.fastpath.FastEmulator` (decode cache + table
    dispatch, the default) or the reference :class:`Emulator`.  The two are
    bit-identical on every observable — ``tests/test_fastpath.py`` enforces
    it — so the flag is result-transparent: it changes throughput only, and
    both settings share one campaign-store identity (see
    :func:`repro.store.keys.backend_identity`).

    **Register watching.**  ``run(watch=sites)`` on the fast interpreter
    folds the value each watched register holds at every instruction
    boundary of a fault-free run into :attr:`cell_reads` — the boundaries
    where an architectural stuck-at is applied — so the campaign engine's
    inert screen serves ISS campaigns as it serves RTL ones.  ``%g0``
    ignores writes and reports unread; the other registers report every
    bit changed, so the open-line model (a ``bit_flip``) is never screened.
    ``run(record_touches=True)`` also records the lockstep runtime's golden
    touch timelines (:class:`~repro.engine.lockstep.TouchRecorder`) into
    :attr:`touch_timelines` on the same pass.
    """

    name = "iss"
    #: Time unit of TransientFault windows on this backend: the functional
    #: ISS has no cycle-accurate notion of time, so transient windows are
    #: expressed in executed-instruction indices (the unit the architectural
    #: ``bit_flip`` trigger already uses).
    transient_unit = "instructions"

    def __init__(self, detailed_trace: bool = False, fast: bool = True):
        self.detailed_trace = detailed_trace
        self.fast = fast
        self._program: Optional[Program] = None
        self._sites = SiteUniverse()
        self._sites.add_array(
            ARCH_REGFILE_NET, width=32, cells=32, unit=ARCH_REGFILE_UNIT
        )
        #: Boundary values of the registers the latest run watched, per
        #: ``(array, register)``; ``None`` when it watched none (or ran on
        #: the reference interpreter).
        self.cell_reads: Optional[Dict[Tuple[str, int], CellReads]] = None
        #: The lockstep runtime's golden touch timelines, recorded by the
        #: latest run when it was asked to (``record_touches``, fast
        #: interpreter, fault-free); else ``None``.
        self.touch_timelines: Optional["GoldenTimelines"] = None

    def prepare(self, program: Program) -> None:
        self._program = program

    @property
    def program(self) -> Optional[Program]:
        """The prepared program (``None`` before :meth:`prepare`)."""
        return self._program

    @property
    def sites(self) -> SiteUniverse:
        return self._sites

    @property
    def supports_checkpoints(self) -> bool:
        """True when the fast-path interpreter can record/restore ladder
        rungs (the reference interpreter has no snapshot API; detailed traces
        cannot be spliced)."""
        return self.fast and not self.detailed_trace

    def checkpoint_runner(
        self, max_instructions: int, interval: Optional[int] = None
    ) -> Optional["_CheckpointRunnerBase"]:
        """Build the checkpointed transient runtime for this backend
        (see :mod:`repro.engine.checkpoint`); ``None`` when unsupported."""
        from repro.engine.checkpoint import make_checkpoint_runner

        return make_checkpoint_runner(self, max_instructions, interval)

    def run(
        self,
        max_instructions: int,
        faults: Iterable[
            Union[PermanentFault, TransientFault, ArchitecturalFault]
        ] = (),
        *,
        watch: Sequence[FaultSite] = (),
        record_touches: bool = False,
    ) -> RunResult:
        if self._program is None:
            raise RuntimeError("backend not prepared: call prepare(program) first")
        self.cell_reads = None
        self.touch_timelines = None
        arch_faults = [self._to_architectural(fault) for fault in faults]
        if len(arch_faults) > 1:
            raise ValueError("the ISS backend supports a single fault per run")
        recorder = None
        if self.fast:
            fast = FastEmulator(
                memory=Memory(),
                detailed_trace=self.detailed_trace,
                fault=arch_faults[0] if arch_faults else None,
            )
            if watch:
                self.cell_reads = self._watch(fast, watch)
            if record_touches:
                from repro.engine.lockstep import TouchRecorder

                recorder = TouchRecorder(fast.registers)
                fast.observe(recorder)
            emulator: Emulator = fast
        elif arch_faults:
            emulator = FaultyEmulator(
                arch_faults[0], memory=Memory(), detailed_trace=self.detailed_trace
            )
        else:
            emulator = Emulator(memory=Memory(), detailed_trace=self.detailed_trace)
        emulator.load_program(self._program)
        native: ExecutionResult = emulator.run(max_instructions=max_instructions)
        if recorder is not None:
            self.touch_timelines = recorder.timelines()
        trap_kind = self.normalize_trap_kind(native.trap)
        return RunResult(
            backend=self.name,
            transactions=native.transactions,
            trace=native.trace,
            instructions=native.instructions,
            cycles=native.cycles,
            halted=native.halted,
            exit_code=native.exit_code,
            trap_kind=trap_kind,
        )

    @staticmethod
    def _watch(
        emulator: FastEmulator, sites: Sequence[FaultSite]
    ) -> Dict[Tuple[str, int], CellReads]:
        """Arm *emulator*'s register watch for the register-file *sites*;
        returns the summaries it fills in (see the class docstring)."""
        mask = (1 << 32) - 1
        summary: Dict[Tuple[str, int], CellReads] = {}
        registers: Dict[int, CellReads] = {}
        for site in sites:
            if site.net != ARCH_REGFILE_NET or site.index is None:
                continue
            key = (site.net, site.index)
            if key in summary:
                continue
            if site.index == 0:
                summary[key] = CellReads.unread(32)
            else:
                summary[key] = registers[site.index] = CellReads(
                    ored=0, anded=mask, changed=mask
                )
        emulator.watch(registers)
        return summary

    @staticmethod
    def normalize_trap_kind(trap: Any) -> Optional[str]:
        """The ISS result's trap kind as campaigns observe it.

        Budget exhaustion is reported as a "watchdog" trap event by the
        emulator; the RTL model reports it as a non-halted run with no trap.
        Normalise to the latter so the comparator classifies both as HANG;
        clean exits likewise carry no trap kind.  The one definition shared
        by :meth:`run` and the checkpointed transient runtime, so fork
        results cannot drift from from-reset results.
        """
        if trap is not None and not trap.is_exit and trap.kind != "watchdog":
            return trap.kind
        return None

    @staticmethod
    def _to_architectural(
        fault: Union[PermanentFault, TransientFault, ArchitecturalFault]
    ) -> ArchitecturalFault:
        if isinstance(fault, ArchitecturalFault):
            return fault
        site = fault.site
        if site.net != ARCH_REGFILE_NET or site.index is None:
            raise ValueError(
                f"site {site.describe()} is not an architectural register-file "
                f"site; the ISS backend injects into {ARCH_REGFILE_UNIT!r} only"
            )
        if isinstance(fault, TransientFault):
            # A transient is a single-event upset of the register cell when
            # the executed-instruction count reaches the window start (the
            # ISS time unit — see ``transient_unit``).  The checkpointed
            # runtime uses this same mapping, so fork and from-reset runs
            # share one fault semantics by construction.
            return ArchitecturalFault(
                register=site.index,
                bit=site.bit,
                model="bit_flip",
                trigger_index=fault.start_cycle,
            )
        return ArchitecturalFault(
            register=site.index, bit=site.bit, model=_ARCH_MODEL[fault.model]
        )
