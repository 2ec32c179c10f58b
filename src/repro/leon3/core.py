"""Top-level structural Leon3 microcontroller model.

:class:`Leon3Core` wires the netlist, register file, ALU, PSR, cache memory,
bus monitor and integer unit together, loads assembled programs into memory
and runs them to completion — either fault-free (golden run) or with permanent
faults injected into any net or storage cell of the design.

The run result exposes the off-core transaction stream (the failure comparison
point), an execution trace compatible with the ISS one, and cycle counts for
propagation-latency measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.isa.assembler import Program
from repro.isa.decoder import DecodeError, decode, decode_cached
from repro.isa.registers import RegisterWindowError
from repro.iss.memory import Memory, MemoryError_
from repro.iss.trace import ExecutionTrace, OffCoreTransaction
from repro.leon3.alu import Alu
from repro.leon3.bus import BusMonitor
from repro.leon3.cache import CacheMemory
from repro.leon3.iu import IntegerUnit, IuTrap
from repro.leon3.psr import ProcessorState
from repro.leon3.regfile import RegisterFileRtl
from repro.rtl.faults import PermanentFault
from repro.rtl.netlist import Netlist
from repro.rtl.sites import SiteUniverse

#: Default stack top, matching the ISS emulator.
DEFAULT_STACK_TOP = 0x4007FFF0

#: Extra cycles paid for each cache refill (memory latency).
MISS_PENALTY = 20


@dataclass
class RtlExecutionResult:
    """Outcome of one run of the structural model."""

    transactions: List[OffCoreTransaction]
    transaction_cycles: List[int]
    trace: ExecutionTrace
    instructions: int
    cycles: int
    halted: bool
    exit_code: Optional[int] = None
    trap_kind: Optional[str] = None
    icache_misses: int = 0
    dcache_misses: int = 0
    faults: List[PermanentFault] = field(default_factory=list)

    @property
    def normal_exit(self) -> bool:
        return self.halted and self.trap_kind is None and self.exit_code is not None


class Leon3Core:
    """Structural Leon3-like core: IU + CMEM + bus, built on a netlist."""

    def __init__(
        self,
        nwindows: int = 8,
        icache_lines: int = 32,
        dcache_lines: int = 32,
        words_per_line: int = 8,
        detailed_trace: bool = False,
    ):
        self.netlist = Netlist()
        self.memory = Memory()
        self.regfile = RegisterFileRtl(self.netlist, nwindows=nwindows)
        self.alu = Alu(self.netlist)
        self.psr = ProcessorState(self.netlist, nwindows=nwindows)
        self.cmem = CacheMemory(
            self.netlist,
            self.memory,
            icache_lines=icache_lines,
            dcache_lines=dcache_lines,
            words_per_line=words_per_line,
        )
        self.bus = BusMonitor(self.netlist)
        self.iu = IntegerUnit(
            self.netlist, self.regfile, self.alu, self.psr, self.cmem, self.bus
        )
        self.detailed_trace = detailed_trace
        self._program: Optional[Program] = None
        self.pc = 0
        self.npc = 4

    # -- site universe ------------------------------------------------------------

    @property
    def sites(self) -> SiteUniverse:
        """All injectable fault sites of this core."""
        return self.netlist.universe

    # -- fault management -----------------------------------------------------------

    def inject(self, faults: Iterable[PermanentFault]) -> None:
        for fault in faults:
            self.netlist.inject(fault)

    def clear_faults(self) -> None:
        self.netlist.clear_faults()

    # -- program management ------------------------------------------------------------

    def load_program(self, program: Program) -> None:
        """Load *program* into memory and reset the architectural state."""
        self._program = program
        self.memory.clear()
        self.memory.load_program(program)
        self.reset()

    def reset(self) -> None:
        """Reset processor state and caches (memory image is preserved)."""
        if self._program is None:
            raise RuntimeError("no program loaded")
        self.netlist.reset_state()
        self.regfile.reset()
        self.psr.reset()
        self.cmem.invalidate()
        self.bus.reset()
        self.pc = self._program.entry_point
        self.npc = self.pc + 4
        cwp = self.psr.read_cwp()
        self.regfile.write(14, DEFAULT_STACK_TOP, cwp)  # %sp

    def reload(self) -> None:
        """Restore the memory image and reset (used between injection runs)."""
        if self._program is None:
            raise RuntimeError("no program loaded")
        self.memory.clear()
        self.memory.load_program(self._program)
        self.reset()

    # -- execution -----------------------------------------------------------------------

    def run(self, max_instructions: int = 200_000) -> RtlExecutionResult:
        """Run until the program exits (``ta 0``), traps or exhausts the budget."""
        trace = ExecutionTrace(detailed=self.detailed_trace)
        transaction_cycles: List[int] = []
        cycles = 0
        executed = 0
        halted = False
        exit_code: Optional[int] = None
        trap_kind: Optional[str] = None
        annul_next = False
        misses_before = self.cmem.icache.misses + self.cmem.dcache.misses
        # Aggregate traces tally mnemonics in first-execution order and fold
        # once after the loop, exactly as the fast core does.
        detailed = self.detailed_trace
        counts: Dict[str, int] = {}
        read_word = self.memory.read_word

        while executed < max_instructions:
            self.netlist.cycle = cycles
            if annul_next:
                annul_next = False
                self.pc = self.npc
                self.npc += 4
                continue
            current_pc = self.pc
            try:
                outcome = self.iu.step(current_pc, self.npc)
            except IuTrap as trap:
                trap_kind = trap.kind
                halted = True
                break
            except RegisterWindowError:
                trap_kind = "window"
                halted = True
                break
            except MemoryError_:
                trap_kind = "memory"
                halted = True
                break
            except ZeroDivisionError:
                trap_kind = "division_by_zero"
                halted = True
                break

            executed += 1
            cycles += outcome.latency
            misses_now = self.cmem.icache.misses + self.cmem.dcache.misses
            if misses_now != misses_before:
                cycles += (misses_now - misses_before) * MISS_PENALTY
                misses_before = misses_now
            if detailed:
                self._record_trace(trace, current_pc, cycles)
            else:
                # Decoded from the memory image, as in _record_trace.
                try:
                    mnemonic = decode_cached(read_word(current_pc)).defn.mnemonic
                except (DecodeError, MemoryError_):
                    pass
                else:
                    counts[mnemonic] = counts.get(mnemonic, 0) + 1
            while len(transaction_cycles) < len(self.bus.transactions):
                transaction_cycles.append(cycles)

            if outcome.exit_code is not None:
                halted = True
                exit_code = outcome.exit_code
                break

            if outcome.transfer_target is not None:
                self.pc = self.npc
                self.npc = outcome.transfer_target
                annul_next = outcome.annul_delay_slot
            else:
                self.pc = self.npc
                self.npc += 4
                annul_next = outcome.annul_delay_slot

        trace.record_counts(counts)
        return RtlExecutionResult(
            transactions=list(self.bus.transactions),
            transaction_cycles=transaction_cycles,
            trace=trace,
            instructions=executed,
            cycles=cycles,
            halted=halted,
            exit_code=exit_code,
            trap_kind=trap_kind,
            icache_misses=self.cmem.icache.misses,
            dcache_misses=self.cmem.dcache.misses,
            faults=self.netlist.active_faults(),
        )

    # -- helpers ------------------------------------------------------------------------------

    def _record_trace(self, trace: ExecutionTrace, pc: int, cycle: int) -> None:
        """Account the executed instruction in the trace.

        The trace is decoded from the *memory image* (not the possibly faulted
        fetch path) because it only serves workload characterisation; failure
        detection relies exclusively on the off-core transaction stream.
        """
        try:
            instruction = decode(self.memory.read_word(pc))
        except (DecodeError, MemoryError_):
            return
        trace.record(instruction, pc, cycle)


def run_program_rtl(program: Program, max_instructions: int = 200_000, **kwargs) -> RtlExecutionResult:
    """Convenience helper: build a core, load *program*, run it fault-free."""
    core = Leon3Core(**kwargs)
    core.load_program(program)
    return core.run(max_instructions=max_instructions)
