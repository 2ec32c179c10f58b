"""Tests for the two-pass assembler."""

import pytest

from repro.isa.assembler import (
    DEFAULT_DATA_BASE,
    DEFAULT_TEXT_BASE,
    Assembler,
    AssemblyError,
    assemble,
    parse_register,
)
from repro.isa.decoder import decode


class TestRegisterParsing:
    def test_globals(self):
        assert parse_register("%g0") == 0
        assert parse_register("%g7") == 7

    def test_outs_locals_ins(self):
        assert parse_register("%o0") == 8
        assert parse_register("%l0") == 16
        assert parse_register("%i7") == 31

    def test_raw_register_numbers(self):
        assert parse_register("%r13") == 13

    def test_aliases(self):
        assert parse_register("%sp") == 14
        assert parse_register("%fp") == 30

    def test_invalid_register_raises(self):
        with pytest.raises(AssemblyError):
            parse_register("%q3")

    def test_out_of_range_register_raises(self):
        with pytest.raises(AssemblyError):
            parse_register("%g9")


class TestBasicAssembly:
    def test_simple_add(self):
        program = assemble(".text\n        add %g1, %g2, %g3\n")
        inst = decode(program.text[0])
        assert inst.mnemonic == "add"
        assert (inst.rs1, inst.rs2, inst.rd) == (1, 2, 3)

    def test_immediate_operand(self):
        program = assemble(".text\n        add %g1, -5, %g3\n")
        inst = decode(program.text[0])
        assert inst.imm == -5

    def test_immediate_out_of_range(self):
        with pytest.raises(AssemblyError):
            assemble(".text\n        add %g1, 5000, %g3\n")

    def test_load_store_syntax(self):
        program = assemble(
            ".text\n        ld [%l0 + 8], %o0\n        st %o0, [%l1 - 4]\n"
        )
        load = decode(program.text[0])
        store = decode(program.text[1])
        assert load.mnemonic == "ld" and load.imm == 8
        assert store.mnemonic == "st" and store.imm == -4

    def test_register_indexed_address(self):
        program = assemble(".text\n        ld [%l0 + %g2], %o0\n")
        inst = decode(program.text[0])
        assert not inst.uses_immediate
        assert inst.rs2 == 2

    def test_comments_are_ignored(self):
        program = assemble(".text\n        add %g1, %g2, %g3 ! a comment\n")
        assert len(program.text) == 1

    def test_unknown_mnemonic_raises(self):
        with pytest.raises(AssemblyError):
            assemble(".text\n        frobnicate %g1, %g2, %g3\n")

    def test_text_base_default(self):
        program = assemble(".text\nstart:\n        nop\n")
        assert program.entry_point == DEFAULT_TEXT_BASE
        assert program.symbol("start") == DEFAULT_TEXT_BASE


class TestLabelsAndBranches:
    def test_forward_branch_displacement(self):
        source = """
        .text
        be target
        nop
        nop
target:
        nop
"""
        program = assemble(source)
        branch = decode(program.text[0])
        assert branch.disp == 12

    def test_backward_branch_displacement(self):
        source = """
        .text
loop:
        nop
        ba loop
        nop
"""
        program = assemble(source)
        branch = decode(program.text[1])
        assert branch.disp == -4

    def test_annulled_branch(self):
        source = ".text\n        be,a skip\n        nop\nskip:\n        nop\n"
        program = assemble(source)
        assert decode(program.text[0]).annul is True

    def test_branch_alias_blu_maps_to_bcs(self):
        source = ".text\nloop:\n        blu loop\n        nop\n"
        assert decode(assemble(source).text[0]).mnemonic == "bcs"

    def test_branch_alias_bgeu_maps_to_bcc(self):
        source = ".text\nloop:\n        bgeu loop\n        nop\n"
        assert decode(assemble(source).text[0]).mnemonic == "bcc"

    def test_call_displacement(self):
        source = """
        .text
        call function
        nop
        nop
function:
        retl
        nop
"""
        program = assemble(source)
        assert decode(program.text[0]).disp == 12

    def test_duplicate_label_raises(self):
        with pytest.raises(AssemblyError):
            assemble(".text\na:\n        nop\na:\n        nop\n")

    def test_undefined_label_raises(self):
        with pytest.raises(AssemblyError):
            assemble(".text\n        ba nowhere\n        nop\n")


class TestPseudoInstructions:
    def test_nop_is_sethi_zero(self):
        program = assemble(".text\n        nop\n")
        inst = decode(program.text[0])
        assert inst.mnemonic == "sethi" and inst.rd == 0

    def test_set_expands_to_sethi_or(self):
        program = assemble(".text\n        set 0x12345678, %g1\n")
        assert len(program.text) == 2
        sethi, orop = (decode(word) for word in program.text)
        assert sethi.mnemonic == "sethi"
        assert orop.mnemonic == "or"
        # Reconstruct the constant: (imm22 << 10) | lo10
        assert (sethi.imm << 10) | orop.imm == 0x12345678

    def test_mov_is_or_with_g0(self):
        inst = decode(assemble(".text\n        mov 7, %o0\n").text[0])
        assert inst.mnemonic == "or" and inst.rs1 == 0 and inst.imm == 7

    def test_cmp_is_subcc_to_g0(self):
        inst = decode(assemble(".text\n        cmp %o0, 3\n").text[0])
        assert inst.mnemonic == "subcc" and inst.rd == 0

    def test_inc_dec(self):
        program = assemble(".text\n        inc %o0\n        dec 2, %o1\n")
        inc, dec = (decode(word) for word in program.text)
        assert inc.mnemonic == "add" and inc.imm == 1
        assert dec.mnemonic == "sub" and dec.imm == 2

    def test_clr_not_neg(self):
        program = assemble(".text\n        clr %o0\n        not %o1\n        neg %o2\n")
        clr, notop, neg = (decode(word) for word in program.text)
        assert clr.mnemonic == "or"
        assert notop.mnemonic == "xnor"
        assert neg.mnemonic == "sub" and neg.rs1 == 0

    def test_ret_and_retl(self):
        program = assemble(".text\n        ret\n        retl\n")
        ret, retl = (decode(word) for word in program.text)
        assert ret.mnemonic == "jmpl" and ret.rs1 == 31 and ret.imm == 8
        assert retl.mnemonic == "jmpl" and retl.rs1 == 15 and retl.imm == 8

    def test_ta_is_ticc(self):
        inst = decode(assemble(".text\n        ta 0\n").text[0])
        assert inst.mnemonic == "ticc"

    def test_bare_save_restore(self):
        program = assemble(".text\n        save\n        restore\n")
        save, restore = (decode(word) for word in program.text)
        assert save.mnemonic == "save" and save.rs1 == 0
        assert restore.mnemonic == "restore"

    def test_mov_to_y_register(self):
        inst = decode(assemble(".text\n        mov %o1, %y\n").text[0])
        assert inst.mnemonic == "wr"

    def test_rd_from_y_register(self):
        inst = decode(assemble(".text\n        rd %y, %o2\n").text[0])
        assert inst.mnemonic == "rd" and inst.rd == 10


class TestDataSection:
    def test_word_directive(self):
        program = assemble(".data\nvalues:\n        .word 1, 2, 3\n")
        assert program.data == b"\x00\x00\x00\x01\x00\x00\x00\x02\x00\x00\x00\x03"

    def test_half_and_byte_directives(self):
        program = assemble(".data\nd:\n        .half 0x1234\n        .byte 0xAB, 1\n")
        assert program.data == b"\x12\x34\xab\x01"

    def test_space_directive(self):
        program = assemble(".data\nbuf:\n        .space 8\n")
        assert program.data == bytes(8)

    def test_align_directive_pads(self):
        program = assemble(".data\na:\n        .byte 1\n        .align 4\nb:\n        .word 2\n")
        assert program.symbol("b") - program.symbol("a") == 4

    def test_data_labels_resolve_to_data_base(self):
        program = assemble(".data\ntable:\n        .word 5\n")
        assert program.symbol("table") == DEFAULT_DATA_BASE

    def test_hi_lo_relocations(self):
        source = """
        .text
        sethi %hi(table), %l0
        or %l0, %lo(table), %l0
        .data
table:
        .word 9
"""
        program = assemble(source)
        sethi, orop = (decode(word) for word in program.text)
        assert (sethi.imm << 10) | orop.imm == DEFAULT_DATA_BASE

    def test_label_plus_offset_expression(self):
        source = ".text\n        set table + 8, %l0\n        .data\ntable:\n        .word 1, 2, 3\n"
        program = assemble(source)
        sethi, orop = (decode(word) for word in program.text)
        assert (sethi.imm << 10) | orop.imm == DEFAULT_DATA_BASE + 8

    def test_word_outside_data_section_raises(self):
        with pytest.raises(AssemblyError):
            assemble(".text\n        .word 5\n")

    def test_instruction_in_data_section_raises(self):
        with pytest.raises(AssemblyError):
            assemble(".data\n        add %g1, %g2, %g3\n")

    def test_custom_section_bases(self):
        assembler = Assembler(text_base=0x1000, data_base=0x2000)
        program = assembler.assemble(".text\nstart:\n        nop\n.data\nd:\n        .word 1\n")
        assert program.symbol("start") == 0x1000
        assert program.symbol("d") == 0x2000

    def test_text_bytes_big_endian(self):
        program = assemble(".text\n        add %g1, %g2, %g3\n")
        assert program.text_bytes == program.text[0].to_bytes(4, "big")


ALIGNED_CALL_SOURCE = """
        .text
start:
        mov     5, %o0
        call    routine
        nop
        add     %o0, 1, %o0
        ta      0
        .align  32
routine:
        add     %o0, 2, %o0
        retl
        nop
"""


class TestTextAlignment:
    def test_align_pads_text_with_nops(self):
        """Text word i sits at text_base + 4 * i, so every label maps to the
        word that follows it and the padding executes as nops."""
        program = assemble(ALIGNED_CALL_SOURCE)
        routine = program.symbol("routine")
        assert routine % 32 == 0
        assert len(program.text) == (routine - DEFAULT_TEXT_BASE) // 4 + 3
        for label, mnemonic in (("start", "or"), ("routine", "add")):
            index = (program.symbol(label) - DEFAULT_TEXT_BASE) // 4
            assert decode(program.text[index]).mnemonic == mnemonic
        padding = program.text[(program.symbol("routine") - DEFAULT_TEXT_BASE)
                               // 4 - 1]
        assert decode(padding).mnemonic == "sethi"
        assert decode(padding).rd == 0

    def test_align_inside_text_runs_on_every_engine(self):
        """A call into an .align-ed routine returns and exits normally on
        the reference ISS, the fast ISS and the reference RTL core."""
        from repro.engine.backend import IssBackend, Leon3RtlBackend

        program = assemble(ALIGNED_CALL_SOURCE, name="aligned_call")
        for backend in (IssBackend(fast=False), IssBackend(),
                        Leon3RtlBackend(fast=False)):
            backend.prepare(program)
            result = backend.run(max_instructions=1_000)
            assert result.normal_exit, type(backend).__name__
            assert result.exit_code == 8

    def test_align_rejects_zero(self):
        with pytest.raises(AssemblyError):
            assemble(".text\n        .align 0\n        nop\n")
