"""Tests for the timing model and the execution trace."""

import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import IssBackend
from repro.isa.decoder import decode
from repro.isa.encoding import Format3Imm, Format3Reg
from repro.isa.instructions import INSTRUCTION_SET, FunctionalUnit, InstructionCategory
from repro.iss.timing import TimingModel, TimingReport
from repro.iss.trace import ExecutionTrace, OffCoreTransaction
from repro.workloads import all_workloads, build_program

from conftest import run_asm


def _decoded(mnemonic_op3, op=2, imm=None):
    if imm is None:
        return decode(Format3Reg(op=op, op3=mnemonic_op3, rd=1, rs1=2, rs2=3).encode())
    return decode(Format3Imm(op=op, op3=mnemonic_op3, rd=1, rs1=2, simm13=imm).encode())


class TestTimingModel:
    def test_latency_accumulates_per_instruction(self):
        timing = TimingModel()
        add = _decoded(0x00)
        timing.account(add)
        timing.account(add)
        assert timing.cycles == 2 * add.defn.latency
        assert timing.instructions == 2

    def test_divide_is_slower_than_add(self):
        timing = TimingModel()
        timing.account(_decoded(0x0E))  # udiv
        divide_cycles = timing.cycles
        timing.reset()
        timing.account(_decoded(0x00))  # add
        assert divide_cycles > timing.cycles

    def test_latency_override(self):
        timing = TimingModel()
        timing.set_latency("add", 10)
        timing.account(_decoded(0x00))
        assert timing.cycles == 10

    def test_first_access_to_line_misses(self):
        timing = TimingModel()
        timing.account_data_access(0x1000, is_store=False)
        timing.account_data_access(0x1004, is_store=False)  # same line
        assert timing.dcache_misses == 1
        assert timing.dcache_hits == 1

    def test_miss_penalty_added_to_cycles(self):
        timing = TimingModel(miss_penalty=50)
        timing.account_data_access(0x2000, is_store=False)
        assert timing.cycles == 50

    def test_report_contents(self):
        timing = TimingModel()
        timing.account(_decoded(0x00))
        report = timing.report()
        assert isinstance(report, TimingReport)
        assert report.instructions == 1
        assert report.cpi >= 1.0
        assert report.microseconds > 0

    def test_reset_clears_counters(self):
        timing = TimingModel()
        timing.account(_decoded(0x00))
        timing.account_data_access(0, is_store=True)
        timing.reset()
        assert timing.cycles == 0
        assert timing.dcache_misses == 0


class TestExecutionTrace:
    def test_diversity_counts_distinct_opcodes(self):
        trace = ExecutionTrace()
        add = _decoded(0x00)
        sub = _decoded(0x04)
        for _ in range(3):
            trace.record(add, 0, 0)
        trace.record(sub, 4, 1)
        assert trace.diversity == 2
        assert trace.total_instructions == 4

    def test_opcode_histogram(self):
        trace = ExecutionTrace()
        trace.record(_decoded(0x00), 0, 0)
        trace.record(_decoded(0x00), 4, 1)
        assert trace.opcode_histogram() == {"add": 2}

    def test_unit_diversity_tracks_units(self):
        trace = ExecutionTrace()
        trace.record(_decoded(0x25), 0, 0)  # sll
        trace.record(_decoded(0x26), 4, 1)  # srl
        trace.record(_decoded(0x00), 8, 2)  # add
        assert trace.unit_diversity(FunctionalUnit.SHIFTER) == 2
        assert trace.unit_diversity(FunctionalUnit.ALU_ADDER) == 1
        assert trace.unit_diversity(FunctionalUnit.FETCH) == 3

    def test_memory_counters(self):
        trace = ExecutionTrace()
        trace.record(_decoded(0x00, op=3), 0, 0)  # ld
        trace.record(_decoded(0x04, op=3), 4, 1)  # st
        assert trace.memory_reads == 1
        assert trace.memory_writes == 1
        assert trace.memory_instructions == 2

    def test_detailed_trace_keeps_records(self):
        trace = ExecutionTrace(detailed=True)
        trace.record(_decoded(0x00), 0x40000000, 5)
        assert len(trace.records) == 1
        record = trace.records[0]
        assert record.pc == 0x40000000
        assert record.mnemonic == "add"
        assert record.category is InstructionCategory.ARITHMETIC

    def test_aggregate_trace_skips_records(self):
        trace = ExecutionTrace(detailed=False)
        trace.record(_decoded(0x00), 0, 0)
        assert trace.records == []

    def test_merge_combines_counts(self):
        first = ExecutionTrace()
        second = ExecutionTrace()
        first.record(_decoded(0x00), 0, 0)
        second.record(_decoded(0x04), 0, 0)
        merged = first.merge(second)
        assert merged.total_instructions == 2
        assert merged.diversity == 2

    def test_integer_unit_excludes_traps(self, run_assembly):
        result, _ = run_assembly(".text\n        mov 1, %o0\n        ta 0\n")
        trace = result.trace
        assert trace.integer_unit_instructions == trace.total_instructions - 1


def _ordered(trace):
    """Every aggregate of *trace*, with the Counters' key insertion order."""
    return (
        list(trace.opcode_counts.items()),
        list(trace.category_counts.items()),
        list(trace.unit_counts.items()),
        list(trace.unit_opcodes.items()),
        trace.total_instructions,
        trace.memory_reads,
        trace.memory_writes,
    )


_MNEMONICS = [defn.mnemonic for defn in INSTRUCTION_SET]


class TestRecordCounts:
    """``record_counts`` folds unit and category totals once per key; the
    trace must equal a per-instruction ``record`` fold, key order included."""

    @settings(max_examples=100, deadline=None)
    @given(
        counts=st.dictionaries(
            st.sampled_from(_MNEMONICS), st.integers(min_value=0, max_value=5),
            max_size=len(_MNEMONICS),
        ),
        before=st.lists(st.sampled_from(_MNEMONICS), max_size=4),
    )
    def test_equals_a_per_instruction_fold(self, counts, before):
        bulk, stepped = ExecutionTrace(), ExecutionTrace()
        # A trace that already holds some keys keeps their positions.
        for trace in (bulk, stepped):
            for mnemonic in before:
                trace.record(_instruction(mnemonic), 0, 0)
        bulk.record_counts(counts)
        for mnemonic, count in counts.items():
            for _ in range(count):
                stepped.record(_instruction(mnemonic), 0, 0)
        assert _ordered(bulk) == _ordered(stepped)
        assert bulk == stepped

    @pytest.mark.parametrize("name", sorted(all_workloads()))
    def test_equals_a_per_instruction_fold_on_every_workload(self, name):
        """The opcode counts of a reference ISS run, in first-execution
        order, fold into the trace its per-instruction ``record`` built."""
        backend = IssBackend(fast=False)
        backend.prepare(build_program(name))
        stepped = backend.run(max_instructions=400_000).trace
        bulk = ExecutionTrace()
        bulk.record_counts(stepped.opcode_counts)
        assert _ordered(bulk) == _ordered(stepped)
        assert bulk == stepped

    def test_detailed_traces_refuse_counts_but_not_empty_ones(self):
        trace = ExecutionTrace(detailed=True)
        trace.record_counts({"add": 0})
        with pytest.raises(ValueError):
            trace.record_counts({"add": 1})


def _instruction(mnemonic):
    """A stand-in decoded instruction: ``record`` reads only its ``defn``."""
    return types.SimpleNamespace(defn=INSTRUCTION_SET.by_mnemonic(mnemonic))


class TestOffCoreTransaction:
    def test_matching_transactions(self):
        a = OffCoreTransaction("store", 0x100, 5, 4)
        b = OffCoreTransaction("store", 0x100, 5, 4)
        assert a.matches(b)

    def test_mismatching_value(self):
        a = OffCoreTransaction("store", 0x100, 5, 4)
        b = OffCoreTransaction("store", 0x100, 6, 4)
        assert not a.matches(b)

    def test_mismatching_kind_or_size(self):
        a = OffCoreTransaction("store", 0x100, 5, 4)
        assert not a.matches(OffCoreTransaction("io", 0x100, 5, 4))
        assert not a.matches(OffCoreTransaction("store", 0x100, 5, 2))
