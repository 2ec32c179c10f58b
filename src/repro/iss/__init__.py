"""Instruction Set Simulator (ISS) for the SPARCv8 subset.

The ISS follows the split described in the paper (Figure 1b): a *functional
emulator* that interprets instructions and keeps the architectural state
(registers and memory), and a lightweight *timing simulator* that annotates
the execution with instruction latencies and cache hit/miss estimates.

The functional emulator also produces the observables the paper's methodology
needs: the executed-instruction trace, the opcode histogram and the
per-functional-unit access counts from which instruction diversity is
computed.
"""

from repro.iss.emulator import Emulator, ExecutionResult, SimulationError, TrapEvent
from repro.iss.fastpath import FastEmulator, verify_bit_identity
from repro.iss.faults import ArchitecturalFault, FaultyEmulator
from repro.iss.memory import Memory, MemoryError_
from repro.iss.timing import TimingModel, TimingReport
from repro.iss.trace import ExecutionTrace, InstructionRecord

__all__ = [
    "Emulator",
    "ExecutionResult",
    "FastEmulator",
    "verify_bit_identity",
    "SimulationError",
    "TrapEvent",
    "ArchitecturalFault",
    "FaultyEmulator",
    "Memory",
    "MemoryError_",
    "TimingModel",
    "TimingReport",
    "ExecutionTrace",
    "InstructionRecord",
]
