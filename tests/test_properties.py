"""Property-based tests (hypothesis) on core data structures and invariants."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.isa import encoding, semantics
from repro.isa.assembler import assemble
from repro.isa.ccodes import ConditionCodes, evaluate_condition, icc_add, icc_sub
from repro.isa.decoder import decode
from repro.isa.encoding import to_s32, to_u32
from repro.isa.instructions import INSTRUCTION_SET
from repro.iss.memory import Memory
from repro.iss.trace import ExecutionTrace
from repro.rtl.faults import (
    ALL_FAULT_MODELS,
    FaultModel,
    PermanentFault,
    TransientFault,
)
from repro.rtl.netlist import Netlist
from repro.rtl.sites import FaultSite

words32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
registers = st.integers(min_value=0, max_value=31)
bits32 = st.integers(min_value=0, max_value=31)


class TestEncodingProperties:
    @given(rd=registers, rs1=registers, rs2=registers)
    def test_format3_register_roundtrip(self, rd, rs1, rs2):
        word = encoding.Format3Reg(op=2, op3=0x00, rd=rd, rs1=rs1, rs2=rs2).encode()
        fields = encoding.decode_format3(word)
        assert (fields["rd"], fields["rs1"], fields["rs2"]) == (rd, rs1, rs2)

    @given(imm=st.integers(min_value=-4096, max_value=4095))
    def test_simm13_roundtrip(self, imm):
        word = encoding.Format3Imm(op=2, op3=0x00, rd=1, rs1=2, simm13=imm).encode()
        assert encoding.decode_format3(word)["simm13"] == imm

    @given(disp=st.integers(min_value=-(1 << 21), max_value=(1 << 21) - 1),
           cond=st.integers(min_value=0, max_value=15),
           annul=st.booleans())
    def test_branch_roundtrip(self, disp, cond, annul):
        word = encoding.Format2Branch(cond=cond, disp22=disp, annul=annul).encode()
        decoded = encoding.Format2Branch.decode(word)
        assert (decoded.cond, decoded.disp22, decoded.annul) == (cond, disp, annul)

    @given(value=words32)
    def test_signed_unsigned_conversion_roundtrip(self, value):
        assert to_u32(to_s32(value)) == value

    @given(value=words32)
    def test_decoder_never_returns_wrong_word(self, value):
        try:
            instruction = decode(value)
        except Exception:
            return
        assert instruction.word == value
        assert instruction.mnemonic in INSTRUCTION_SET.mnemonics


class TestConditionCodeProperties:
    @given(op1=words32, op2=words32)
    def test_add_then_sub_flags_consistent_with_comparison(self, op1, op2):
        # After `subcc op1, op2`, the signed "less than" condition must agree
        # with Python's signed comparison.
        result = to_u32(op1 - op2)
        icc = icc_sub(op1, op2, result)
        assert evaluate_condition(0x3, icc) == (to_s32(op1) < to_s32(op2))  # bl
        assert evaluate_condition(0x1, icc) == (op1 == op2)                 # be

    @given(op1=words32, op2=words32)
    def test_unsigned_comparison_via_carry(self, op1, op2):
        result = to_u32(op1 - op2)
        icc = icc_sub(op1, op2, result)
        assert evaluate_condition(0x5, icc) == (op1 < op2)   # bcs / blu
        assert evaluate_condition(0xD, icc) == (op1 >= op2)  # bcc / bgeu

    @given(op1=words32, op2=words32)
    def test_add_carry_matches_wide_addition(self, op1, op2):
        result = to_u32(op1 + op2)
        icc = icc_add(op1, op2, result)
        assert icc.c == (1 if op1 + op2 > 0xFFFFFFFF else 0)

    @given(cond=st.integers(min_value=0, max_value=7),
           n=st.integers(0, 1), z=st.integers(0, 1),
           v=st.integers(0, 1), c=st.integers(0, 1))
    def test_conditions_are_complementary(self, cond, n, z, v, c):
        icc = ConditionCodes(n=n, z=z, v=v, c=c)
        assert evaluate_condition(cond, icc) != evaluate_condition(cond | 0x8, icc)


class TestMemoryProperties:
    @given(address=st.integers(min_value=0, max_value=0xFFFFFFF0).map(lambda a: a & ~3),
           value=words32)
    def test_word_write_read_roundtrip(self, address, value):
        memory = Memory()
        memory.write_word(address, value)
        assert memory.read_word(address) == value

    @given(address=st.integers(min_value=0, max_value=0xFFFFFF00),
           payload=st.binary(min_size=1, max_size=64))
    def test_byte_block_roundtrip(self, address, payload):
        memory = Memory()
        memory.write_bytes(address, payload)
        assert memory.read_bytes(address, len(payload)) == payload

    @given(address=st.integers(min_value=0, max_value=0xFFFFFFF0).map(lambda a: a & ~3),
           value=words32)
    def test_word_is_big_endian_composition_of_bytes(self, address, value):
        memory = Memory()
        memory.write_word(address, value)
        recomposed = 0
        for offset in range(4):
            recomposed = (recomposed << 8) | memory.read_byte(address + offset)
        assert recomposed == value


class TestFaultModelProperties:
    @given(value=words32, previous=words32, bit=bits32)
    def test_stuck_at_1_sets_exactly_one_bit(self, value, previous, bit):
        site = FaultSite("net", bit, "iu")
        faulted = PermanentFault(site, FaultModel.STUCK_AT_1).apply(value, previous)
        assert faulted | (1 << bit) == faulted
        assert faulted & ~(1 << bit) == value & ~(1 << bit)

    @given(value=words32, previous=words32, bit=bits32)
    def test_stuck_at_0_clears_exactly_one_bit(self, value, previous, bit):
        site = FaultSite("net", bit, "iu")
        faulted = PermanentFault(site, FaultModel.STUCK_AT_0).apply(value, previous)
        assert faulted & (1 << bit) == 0
        assert faulted | (1 << bit) == value | (1 << bit)

    @given(value=words32, previous=words32, bit=bits32)
    def test_open_line_copies_previous_bit(self, value, previous, bit):
        site = FaultSite("net", bit, "iu")
        faulted = PermanentFault(site, FaultModel.OPEN_LINE).apply(value, previous)
        assert (faulted >> bit) & 1 == (previous >> bit) & 1

    @given(value=words32, previous=words32, bit=bits32,
           model=st.sampled_from(list(ALL_FAULT_MODELS)))
    def test_fault_application_is_idempotent(self, value, previous, bit, model):
        site = FaultSite("net", bit, "iu")
        fault = PermanentFault(site, model)
        once = fault.apply(value, previous)
        twice = fault.apply(once, previous)
        assert once == twice

    @given(bit=bits32)
    def test_permanent_fault_rejects_the_transient_bucket(self, bit):
        with pytest.raises(ValueError):
            PermanentFault(FaultSite("net", bit, "iu"), FaultModel.TRANSIENT)

    @given(value=words32, bit=st.integers(min_value=0, max_value=15))
    def test_netlist_drive_respects_width_and_fault(self, value, bit):
        netlist = Netlist()
        netlist.declare("n", 16, "iu")
        netlist.inject(PermanentFault(netlist.site_for("n", bit), FaultModel.STUCK_AT_1))
        observed = netlist.drive("n", value)
        assert observed < (1 << 16)
        assert (observed >> bit) & 1 == 1


class TestTransientFaultProperties:
    windows = st.tuples(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=10**4),
    )

    @given(window=windows, offset=st.integers(min_value=-(10**6), max_value=10**7))
    def test_active_exactly_inside_half_open_window(self, window, offset):
        start, duration = window
        fault = TransientFault(FaultSite("n", 0, "iu"), start, duration)
        cycle = start + offset
        assert fault.active_at(cycle) == (start <= cycle < start + duration)

    @given(value=words32, previous=words32, bit=bits32, window=windows)
    def test_apply_is_an_involution_on_its_bit(self, value, previous, bit, window):
        fault = TransientFault(FaultSite("n", bit, "iu"), *window)
        once = fault.apply(value, previous)
        assert once ^ value == 1 << bit
        assert fault.apply(once, previous) == value

    @given(value=words32, previous=words32, bit=bits32, window=windows)
    def test_apply_ignores_the_previous_value(self, value, previous, bit, window):
        """Transients are momentary inversions, not charge retention: the
        open-line 'previous value' input must be irrelevant."""
        fault = TransientFault(FaultSite("n", bit, "iu"), *window)
        assert fault.apply(value, previous) == fault.apply(value, ~previous)

    @given(start=st.integers(min_value=-(10**6), max_value=-1),
           duration=st.integers(min_value=1, max_value=100))
    def test_negative_start_rejected(self, start, duration):
        with pytest.raises(ValueError):
            TransientFault(FaultSite("n", 0, "iu"), start, duration)

    @given(start=st.integers(min_value=0, max_value=10**6),
           duration=st.integers(min_value=-100, max_value=0))
    def test_non_positive_duration_rejected(self, start, duration):
        with pytest.raises(ValueError):
            TransientFault(FaultSite("n", 0, "iu"), start, duration)


class TestDiversityProperties:
    @settings(max_examples=25)
    @given(opcodes=st.lists(st.sampled_from(["add", "sub", "sll", "ld", "st", "umul"]),
                            min_size=1, max_size=60))
    def test_diversity_is_permutation_invariant(self, opcodes):
        """The paper's key property: for permanent faults the metric must not
        depend on the order in which instructions execute."""
        from repro.isa.encoding import Format3Imm
        from repro.isa.instructions import INSTRUCTION_SET as table

        def trace_for(sequence):
            trace = ExecutionTrace()
            for mnemonic in sequence:
                defn = table.by_mnemonic(mnemonic)
                word = Format3Imm(op=defn.op, op3=defn.op3, rd=1, rs1=1, simm13=0).encode()
                trace.record(decode(word), 0, 0)
            return trace

        forward = trace_for(opcodes)
        backward = trace_for(list(reversed(opcodes)))
        assert forward.diversity == backward.diversity
        assert forward.diversity == len(set(opcodes))

    @settings(max_examples=25)
    @given(opcodes=st.lists(st.sampled_from(["add", "sub", "sll", "ld"]),
                            min_size=1, max_size=30),
           extra=st.sampled_from(["umul", "sdiv", "xor"]))
    def test_diversity_monotone_under_new_opcode(self, opcodes, extra):
        base = len(set(opcodes))
        extended = len(set(opcodes + [extra]))
        assert extended >= base


class TestAssemblerEmulatorProperties:
    @settings(max_examples=30, deadline=None)
    @given(a=st.integers(min_value=0, max_value=0x7FFFFFFF),
           b=st.integers(min_value=0, max_value=0x7FFFFFFF))
    def test_add_program_matches_python_semantics(self, a, b):
        from repro.iss.emulator import run_program

        source = f"""
        .text
        set     out, %l1
        set     {a}, %o0
        set     {b}, %o1
        add     %o0, %o1, %o2
        st      %o2, [%l1]
        ta      0
        .data
out:
        .space  4
"""
        result = run_program(assemble(source))
        assert result.transactions[-1].value == (a + b) & 0xFFFFFFFF

    @settings(max_examples=20, deadline=None)
    @given(a=st.integers(min_value=1, max_value=0xFFFF),
           b=st.integers(min_value=1, max_value=0xFFFF))
    def test_mul_div_roundtrip_property(self, a, b):
        from repro.iss.emulator import run_program

        source = f"""
        .text
        set     out, %l1
        set     {a}, %o0
        set     {b}, %o1
        umul    %o0, %o1, %o2
        wr      %g0, 0, %y
        udiv    %o2, %o1, %o3
        st      %o3, [%l1]
        ta      0
        .data
out:
        .space  4
"""
        result = run_program(assemble(source))
        assert result.transactions[-1].value == a


#: Every semantics-table mnemonic, in the plain and ``cc`` forms the ISA
#: defines (``sll``/``srl``/``sra`` have no ``cc`` form).
TABLE_MNEMONICS = sorted(
    defn.mnemonic for defn in INSTRUCTION_SET
    if defn.alu_base in {*semantics.ALU_RESULTS, *semantics.PRODUCTS,
                         *semantics.QUOTIENTS}
)

#: Operand registers: a global, an out, a local and an in.
HANDLER_REGS = (1, 9, 18, 27)


@st.composite
def handler_cases(draw):
    """Register fields (``rd`` aliasing ``rs1`` half the time), a register
    or immediate operand 2, and random register values, ``icc`` and Y."""
    regs = st.sampled_from(HANDLER_REGS)
    rs1, rs2 = draw(regs), draw(regs)
    rd = rs1 if draw(st.booleans()) else draw(regs)
    imm = draw(st.none() | st.integers(min_value=-4096, max_value=4095))
    values = {reg: draw(words32) for reg in HANDLER_REGS}
    return rd, rs1, rs2, imm, values, draw(st.integers(0, 15)), draw(words32)


def _handler_word(mnemonic, rd, rs1, rs2, imm):
    defn = INSTRUCTION_SET.by_mnemonic(mnemonic)
    if imm is None:
        return encoding.Format3Reg(defn.op, defn.op3, rd, rs1, rs2).encode()
    return encoding.Format3Imm(defn.op, defn.op3, rd, rs1, imm).encode()


def _iss_step(fast, word, values, icc, y):
    """Execute *word* once on a fresh ISS (reference interpreter or fast
    handler); the registers, ``icc`` bits and Y after it, or the trap."""
    from repro.iss.emulator import Emulator
    from repro.iss.fastpath import FastEmulator, _CachedOp

    emulator = (FastEmulator if fast else Emulator)(memory=Memory())
    for reg, value in values.items():
        emulator.registers.write(reg, value)
    emulator.icc = ConditionCodes.from_bits(icc)
    emulator.y_register = y
    instruction = decode(word)
    try:
        if fast:
            op = _CachedOp(instruction, 0)
            op.handler(emulator, op, 0, [])
        else:
            emulator._execute(instruction, 0, [])
    except ZeroDivisionError:
        return "division_by_zero"
    registers = [emulator.registers.read(reg) for reg in HANDLER_REGS]
    return registers, emulator.icc.as_bits(), emulator.y_register


@pytest.fixture(scope="module")
def rtl_cores():
    """One reference and one fast LEON3 core, reused across examples."""
    from repro.leon3.core import Leon3Core
    from repro.leon3.fastcore import Leon3FastCore

    program = assemble("        .text\nstart:  nop\n        ta 0\n")
    cores = Leon3Core(), Leon3FastCore()
    for core in cores:
        core.load_program(program)
    return cores


def _rtl_step(core, fast, word, values, icc, y):
    """Execute *word* once at the entry of a reloaded LEON3 core (the
    reference pipeline or the fast core's handler); the registers, ``icc``
    bits and Y after it, or the trap."""
    core.reload()
    pc = core.pc
    core.memory.write_word(pc, word)
    try:
        if fast:
            for reg, value in values.items():
                core._rf_write(reg, value)
            core.icc = ConditionCodes.from_bits(icc)
            core.y = y
            op = core._build_op(pc, word)
            op.handler(core, op)
            return ([core._rf_read(reg) for reg in HANDLER_REGS],
                    core.icc.as_bits(), core.y)
        cwp = core.psr.read_cwp()
        for reg, value in values.items():
            core.regfile.write(reg, value, cwp)
        core.psr.write_icc(ConditionCodes.from_bits(icc))
        core.psr.write_y(y)
        core.iu.step(pc, pc + 4)
        return ([core.regfile.read_port1(reg, cwp) for reg in HANDLER_REGS],
                core.psr.read_icc().as_bits(), core.psr.read_y())
    except ZeroDivisionError:
        return "division_by_zero"


class TestGeneratedHandlerProperties:
    """Each fast engine's generated handler for every semantics-table
    mnemonic gives the registers, ``icc`` and Y its reference engine gives,
    over random operands, incoming ``icc`` (the carry of ``addx``/``subx``)
    and Y (the high dividend word)."""

    @pytest.mark.parametrize("mnemonic", TABLE_MNEMONICS)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=handler_cases())
    def test_fast_handlers_match_the_reference_engines(self, rtl_cores, mnemonic, case):
        rd, rs1, rs2, imm, values, icc, y = case
        word = _handler_word(mnemonic, rd, rs1, rs2, imm)
        expected = _iss_step(False, word, values, icc, y)
        assert _iss_step(True, word, values, icc, y) == expected
        reference, fast = rtl_cores
        expected = _rtl_step(reference, False, word, values, icc, y)
        assert _rtl_step(fast, True, word, values, icc, y) == expected

    def test_every_table_form_is_covered(self):
        assert len(TABLE_MNEMONICS) == 31
        assert {"xnorcc", "subxcc", "addxcc", "umulcc", "sdivcc"} <= set(TABLE_MNEMONICS)


# -- compiled blocks against the reference engines ---------------------------

#: Data registers of the block programs; ``ldd``/``std`` pairs start at the
#: even ones.
BLOCK_DATA_REGS = ("%g1", "%o2", "%l2", "%i4")
BLOCK_PAIR_REGS = ("%o2", "%l2", "%i4")
#: Base registers of the memory accesses: an allocated data page, a page
#: nothing touches, the I/O region, and the program's own code page (just
#: past the exit, so a negative offset hits the ``ta 0`` itself).
BLOCK_BASES = {"%g4": "data", "%g5": "0x40100000", "%g6": "0x80000000",
               "%g7": "pad"}
BLOCK_BUDGET = 300
#: The product and quotient rows, drawn as often as all other rows together.
WIDE_MNEMONICS = [
    mnemonic for mnemonic in TABLE_MNEMONICS
    if INSTRUCTION_SET.by_mnemonic(mnemonic).alu_base
    in {*semantics.PRODUCTS, *semantics.QUOTIENTS}
]

_block_reg = st.sampled_from(BLOCK_DATA_REGS + ("%g0",))
_block_operand2 = _block_reg | st.integers(min_value=-16, max_value=16).map(str)


def _address_text(base, offset):
    return f"[{base} + {offset}]" if offset >= 0 else f"[{base} - {-offset}]"


@st.composite
def block_instructions(draw):
    """One straight-line instruction: a semantics-table row (small immediates
    give zero divisors and ``sdiv`` saturation), ``rd``/``wr %y``, or a load
    or store of any size at a base register plus a small, possibly
    misaligned, offset."""
    kind = draw(st.sampled_from(("alu", "wide", "y", "memory", "memory")))
    if kind in ("alu", "wide"):
        mnemonic = draw(st.sampled_from(
            TABLE_MNEMONICS if kind == "alu" else WIDE_MNEMONICS
        ))
        return (f"{mnemonic} {draw(_block_reg)}, {draw(_block_operand2)}, "
                f"{draw(_block_reg)}")
    if kind == "y":
        if draw(st.booleans()):
            return f"rd %y, {draw(_block_reg)}"
        return f"wr {draw(_block_reg)}, {draw(_block_operand2)}, %y"
    mnemonic = draw(st.sampled_from(
        ("ld", "ldub", "lduh", "ldsb", "ldsh", "ldd", "st", "stb", "sth", "std")
    ))
    address = _address_text(draw(st.sampled_from(sorted(BLOCK_BASES))),
                            draw(st.integers(min_value=-8, max_value=16)))
    reg = draw(st.sampled_from(BLOCK_PAIR_REGS) if mnemonic in ("ldd", "std")
               else _block_reg)
    if mnemonic.startswith("ld"):
        return f"{mnemonic} {address}, {reg}"
    return f"{mnemonic} {reg}, {address}"


@st.composite
def block_programs(draw):
    """The source of a program: random register values, Y and ``icc``, then
    1–12 random straight-line instructions and ``ta 0``."""
    lines = [f"set {value}, {reg}" for reg, value in BLOCK_BASES.items()]
    lines += [f"set {draw(words32)}, {reg}" for reg in BLOCK_DATA_REGS]
    lines += [f"set {draw(words32)}, %l7", "wr %l7, 0, %y",
              "subcc %g1, %o2, %g0"]
    lines += draw(st.lists(block_instructions(), min_size=1, max_size=12))
    body = "\n".join(f"        {line}" for line in lines)
    source = (f"        .text\nstart:\n{body}\n        ta 0\n"
              "pad:    nop\n        nop\n        nop\n        nop\n"
              "        .data\ndata:   .word 0x80010203, 0xFFFF8001, 7, 0\n")
    return source


class _BlockCounter:
    """A block observer counting the instructions a fast ISS run executes in
    blocks and one at a time."""

    def __init__(self):
        self.blocked = self.stepped = 0

    def start(self):
        pass

    def plan(self, block):
        return block

    def after_block(self, plan, ran):
        self.blocked += ran

    def before_op(self, op):
        self.stepped += 1

    def after_op(self, op):
        pass


def _rewrites_code(source):
    """Whether *source* stores into its own code page, after which the
    rewritten words may run anywhere and step."""
    return any(line.split()[0] in ("st", "stb", "sth", "std") and "%g7" in line
               for line in source.splitlines() if line.strip())


class TestBlockDifferential:
    """Straight-line code run as compiled blocks of either fast engine gives
    the registers, ``icc``, Y, memory, transactions and trap (kind, PC and
    text) of its reference engine.  The generated handler tests above cover
    one instruction at a time; these cover the inlined block bodies."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(source=block_programs())
    def test_blocks_match_the_reference_engines(self, rtl_cores, source):
        from repro.iss.emulator import Emulator
        from repro.iss.fastpath import FastEmulator, assert_results_identical
        from repro.leon3 import fastcore

        program = assemble(source, name="block-diff")
        reference = Emulator(memory=Memory())
        reference.load_program(program)
        expected = reference.run(max_instructions=BLOCK_BUDGET)
        fast = FastEmulator(memory=Memory())
        fast.load_program(program)
        counter = _BlockCounter()
        fast.observe(counter)
        observed = fast.run(max_instructions=BLOCK_BUDGET)
        assert_results_identical(reference, expected, fast, observed)
        # Only the final ``ta 0`` steps, unless the code was rewritten.
        assert counter.blocked + counter.stepped == observed.instructions
        assert counter.stepped <= 1 or _rewrites_code(source)

        reference_core = rtl_cores[0]
        reference_core.load_program(program)
        expected = reference_core.run(max_instructions=BLOCK_BUDGET)
        fast_core = fastcore.Leon3FastCore()
        fast_core.load_program(program)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fastcore, "_COMPILE_AFTER", 1)
            observed = fast_core.run(max_instructions=BLOCK_BUDGET)
        fastcore.assert_rtl_results_identical(
            reference_core, expected, fast_core, observed
        )
        assert (observed.instructions - fast_core.block_instructions <= 1
                or _rewrites_code(source))


@pytest.mark.parametrize("engine", ["iss", "rtl"])
def test_compiled_blocks_call_no_handler(engine):
    """No compiled block of either fast engine calls an ``_h_*`` handler:
    every registry workload is translated, and the global and attribute
    names each block's code uses are checked."""
    from repro.iss import fastpath
    from repro.iss.fastpath import run_fast_program
    from repro.leon3 import fastcore
    from repro.workloads import all_workloads

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fastcore, "_COMPILE_AFTER", 1)
        for workload in all_workloads().values():
            program = workload.build()
            if engine == "iss":
                run_fast_program(program)
            else:
                core = fastcore.Leon3FastCore()
                core.load_program(program)
                core.run()
    module = fastpath if engine == "iss" else fastcore
    blocks = list(module._BLOCK_MEMO.values())
    assert blocks
    for block in blocks:
        names = block.run.__code__.co_names
        assert not [name for name in names if name.startswith("_h_")
                    or name == "handler"], names
    assert not [name for name in module._BLOCK_GLOBALS if name.startswith("_h_")]
