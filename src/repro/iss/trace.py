"""Execution traces and per-functional-unit statistics.

The trace is the ISS observable the paper's correlation methodology consumes:
from it we derive the opcode histogram, the instruction counts reported in
Table 1 (total / integer-unit / memory instructions) and the per-unit
diversity values used by the failure model (Eq. 1).

Recording every executed instruction individually would be prohibitively
memory-hungry for the full-size workloads (hundreds of thousands of
instructions), so the trace keeps aggregate counters by default and can
optionally retain the detailed per-instruction records for debugging or for
short runs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set

from repro.isa.decoder import Instruction
from repro.isa.instructions import (
    INSTRUCTION_SET,
    FunctionalUnit,
    InstructionCategory,
    InstructionDef,
)


@dataclass(frozen=True)
class InstructionRecord:
    """One executed instruction (only kept when detailed tracing is enabled)."""

    index: int
    pc: int
    mnemonic: str
    category: InstructionCategory
    cycle: int


@dataclass
class ExecutionTrace:
    """Aggregated execution statistics plus an optional detailed record list."""

    detailed: bool = False
    opcode_counts: Counter = field(default_factory=Counter)
    category_counts: Counter = field(default_factory=Counter)
    unit_opcodes: Dict[FunctionalUnit, Set[str]] = field(default_factory=dict)
    unit_counts: Counter = field(default_factory=Counter)
    records: List[InstructionRecord] = field(default_factory=list)
    total_instructions: int = 0
    memory_reads: int = 0
    memory_writes: int = 0

    def record(self, instruction: Instruction, pc: int, cycle: int) -> None:
        """Account one executed *instruction*."""
        defn = instruction.defn
        self._fold_aggregates(defn, 1)
        if self.detailed:
            self.records.append(
                InstructionRecord(
                    index=self.total_instructions - 1,
                    pc=pc,
                    mnemonic=defn.mnemonic,
                    category=defn.category,
                    cycle=cycle,
                )
            )

    def record_bulk(self, defn: InstructionDef, count: int) -> None:
        """Account *count* executions of *defn* in one step.

        Aggregate-only equivalent of calling :meth:`record` *count* times,
        used by the fast-path interpreter to fold its deferred opcode counts
        after the hot loop.  Both paths share :meth:`_fold_aggregates`, so
        they cannot drift; the resulting trace is value-identical to one
        built by per-instruction :meth:`record` calls in any order.  Detailed
        traces need the pc/cycle of each execution and cannot be bulk-recorded.
        """
        if self.detailed:
            raise ValueError("record_bulk cannot produce detailed records")
        self._fold_aggregates(defn, count)

    def record_counts(self, counts: Mapping[str, int]) -> None:
        """Fold per-mnemonic execution *counts*, as :meth:`record_bulk`
        would one mnemonic at a time.

        Mnemonics fold in the mapping's order and zero counts are skipped.
        Counts kept in first-execution order give Counters whose key
        insertion order equals that of a per-instruction fold, so every core
        that defers its tally this way builds the same trace, key for key.
        """
        by_mnemonic = INSTRUCTION_SET.by_mnemonic
        opcode_counts = self.opcode_counts
        opcode_get = opcode_counts.get
        # Category and unit totals fold once per key, in first-appearance
        # order (enum hashing dominates a per-mnemonic Counter update); the
        # local maps are keyed by the members' ids, which hash in C.
        categories: Dict[int, list] = {}
        units: Dict[int, list] = {}
        for mnemonic, count in counts.items():
            if count <= 0:
                continue
            if self.detailed:
                raise ValueError("record_counts cannot produce detailed records")
            defn = by_mnemonic(mnemonic)
            self.total_instructions += count
            opcode_counts[mnemonic] = opcode_get(mnemonic, 0) + count
            entry = categories.get(id(defn.category))
            if entry is None:
                categories[id(defn.category)] = [defn.category, count]
            else:
                entry[1] += count
            if defn.reads_memory:
                self.memory_reads += count
            if defn.writes_memory:
                self.memory_writes += count
            for unit in defn.units:
                entry = units.get(id(unit))
                if entry is None:
                    units[id(unit)] = [unit, count, [mnemonic]]
                else:
                    entry[1] += count
                    entry[2].append(mnemonic)
        for category, count in categories.values():
            self.category_counts[category] += count
        for unit, count, mnemonics in units.values():
            self.unit_counts[unit] += count
            self.unit_opcodes.setdefault(unit, set()).update(mnemonics)

    def _fold_aggregates(self, defn: InstructionDef, count: int) -> None:
        mnemonic = defn.mnemonic
        self.total_instructions += count
        self.opcode_counts[mnemonic] += count
        self.category_counts[defn.category] += count
        if defn.reads_memory:
            self.memory_reads += count
        if defn.writes_memory:
            self.memory_writes += count
        for unit in defn.units:
            self.unit_counts[unit] += count
            self.unit_opcodes.setdefault(unit, set()).add(mnemonic)

    # -- derived quantities -----------------------------------------------------

    @property
    def diversity(self) -> int:
        """Instruction diversity: number of distinct opcodes executed."""
        return len(self.opcode_counts)

    def unit_diversity(self, unit: FunctionalUnit) -> int:
        """Number of distinct opcodes that exercised functional unit *unit*."""
        return len(self.unit_opcodes.get(unit, ()))

    @property
    def memory_instructions(self) -> int:
        """Instructions that access data memory (loads + stores)."""
        return self.memory_reads + self.memory_writes

    @property
    def integer_unit_instructions(self) -> int:
        """Instructions executed by the integer unit.

        On the Leon3 every instruction flows through the IU pipeline; the
        paper's Table 1 reports an IU count marginally below the total because
        a handful of instructions (traps and other privileged operations) are
        handled outside the IU statistics.  We follow the same convention and
        exclude trap instructions.
        """
        traps = self.category_counts.get(InstructionCategory.TRAP, 0)
        return self.total_instructions - traps

    def opcode_histogram(self) -> Dict[str, int]:
        """Executed-instruction histogram keyed by mnemonic."""
        return dict(self.opcode_counts)

    def executed_opcodes(self) -> Set[str]:
        return set(self.opcode_counts)

    def category_histogram(self) -> Dict[InstructionCategory, int]:
        return dict(self.category_counts)

    def merge(self, other: "ExecutionTrace") -> "ExecutionTrace":
        """Return a new trace combining *self* and *other* (used for subsets)."""
        merged = ExecutionTrace(detailed=False)
        merged.opcode_counts = self.opcode_counts + other.opcode_counts
        merged.category_counts = self.category_counts + other.category_counts
        merged.unit_counts = self.unit_counts + other.unit_counts
        merged.total_instructions = self.total_instructions + other.total_instructions
        merged.memory_reads = self.memory_reads + other.memory_reads
        merged.memory_writes = self.memory_writes + other.memory_writes
        for source in (self.unit_opcodes, other.unit_opcodes):
            for unit, opcodes in source.items():
                merged.unit_opcodes.setdefault(unit, set()).update(opcodes)
        return merged


@dataclass(frozen=True)
class OffCoreTransaction:
    """One transaction observed at the off-core boundary.

    The paper defines failures as mismatches at the off-core boundary (the
    comparison point of light-lockstep cores): memory writes, I/O accesses.
    Both the ISS and the structural Leon3 model produce sequences of these
    records so that golden and faulty runs can be compared transaction by
    transaction.
    """

    kind: str  # "store" or "io"
    address: int
    value: int
    size: int

    def matches(self, other: "OffCoreTransaction") -> bool:
        return (
            self.kind == other.kind
            and self.address == other.address
            and self.value == other.value
            and self.size == other.size
        )
