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
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.isa.decoder import Instruction
from repro.isa.instructions import (
    INSTRUCTION_SET,
    FunctionalUnit,
    InstructionCategory,
    InstructionDef,
)


#: Index spaces of the fold classes below.
_CATEGORIES = tuple(InstructionCategory)
_UNITS = tuple(FunctionalUnit)

#: What :meth:`ExecutionTrace.record_counts` folds per executed mnemonic
#: besides its opcode count, by index into :data:`_CATEGORIES` /
#: :data:`_UNITS`: category, memory read and write flags, and the units in
#: ``defn.units`` iteration order.  Mnemonics that agree on all of it share
#: one class.
_FoldClass = Tuple[int, bool, bool, Tuple[int, ...]]


def _fold_classes() -> Tuple[Dict[str, int], List[_FoldClass]]:
    by_class: Dict[_FoldClass, int] = {}
    of_mnemonic: Dict[str, int] = {}
    for defn in INSTRUCTION_SET:
        row = (
            _CATEGORIES.index(defn.category),
            defn.reads_memory,
            defn.writes_memory,
            tuple(_UNITS.index(unit) for unit in defn.units),
        )
        of_mnemonic[defn.mnemonic] = by_class.setdefault(row, len(by_class))
    return of_mnemonic, list(by_class)


#: Mnemonic -> index of its fold class in :data:`_FOLD_CLASSES`.
_FOLD_CLASS, _FOLD_CLASSES = _fold_classes()


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

        Each mnemonic adds its count to its fold class (:data:`_FOLD_CLASS`);
        the classes then fold into the category, memory and unit totals in
        first-appearance order.  A category or unit first appears with the
        first class holding it, which holds the first mnemonic that uses
        it, so the key order is the per-instruction fold's.
        """
        fold_class = _FOLD_CLASS
        opcode_counts = self.opcode_counts
        opcode_get = opcode_counts.get
        classes: Dict[int, list] = {}
        for mnemonic, count in counts.items():
            if count <= 0:
                continue
            if self.detailed:
                raise ValueError("record_counts cannot produce detailed records")
            opcode_counts[mnemonic] = opcode_get(mnemonic, 0) + count
            key = fold_class[mnemonic]
            entry = classes.get(key)
            if entry is None:
                classes[key] = [count, [mnemonic]]
            else:
                entry[0] += count
                entry[1].append(mnemonic)
        # Categories and units fold by index first: enum members hash in
        # Python, so each member is hashed once per call, not once per class.
        categories: Dict[int, int] = {}
        units: Dict[int, list] = {}
        for key, (count, mnemonics) in classes.items():
            category, reads_memory, writes_memory, unit_ids = _FOLD_CLASSES[key]
            self.total_instructions += count
            categories[category] = categories.get(category, 0) + count
            if reads_memory:
                self.memory_reads += count
            if writes_memory:
                self.memory_writes += count
            for unit in unit_ids:
                entry = units.get(unit)
                if entry is None:
                    units[unit] = [count, mnemonics]
                else:
                    entry[0] += count
                    entry.append(mnemonics)
        for category, count in categories.items():
            self.category_counts[_CATEGORIES[category]] += count
        for unit, (count, *mnemonics) in units.items():
            member = _UNITS[unit]
            self.unit_counts[member] += count
            self.unit_opcodes.setdefault(member, set()).update(*mnemonics)

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
