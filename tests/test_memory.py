"""Tests for the sparse memory model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.assembler import assemble
from repro.iss.memory import PAGE_SHIFT, PAGE_SIZE, Memory, MemoryError_


class TestByteAccess:
    def test_uninitialised_memory_reads_zero(self):
        memory = Memory()
        assert memory.read_byte(0x1234) == 0

    def test_byte_roundtrip(self):
        memory = Memory()
        memory.write_byte(0x40000000, 0xAB)
        assert memory.read_byte(0x40000000) == 0xAB

    def test_byte_values_masked(self):
        memory = Memory()
        memory.write_byte(0, 0x1FF)
        assert memory.read_byte(0) == 0xFF

    def test_bytes_block_roundtrip(self):
        memory = Memory()
        memory.write_bytes(0x100, b"hello")
        assert memory.read_bytes(0x100, 5) == b"hello"

    def test_sparse_pages_allocated_on_demand(self):
        memory = Memory()
        memory.write_byte(0x40000000, 1)
        memory.write_byte(0x80000000, 2)
        assert len(list(memory.allocated_pages())) == 2


class TestWordAccess:
    def test_word_big_endian_layout(self):
        memory = Memory()
        memory.write_word(0x200, 0x11223344)
        assert memory.read_bytes(0x200, 4) == b"\x11\x22\x33\x44"

    def test_word_roundtrip(self):
        memory = Memory()
        memory.write_word(0x204, 0xCAFEBABE)
        assert memory.read_word(0x204) == 0xCAFEBABE

    def test_misaligned_word_read_raises(self):
        with pytest.raises(MemoryError_):
            Memory().read_word(0x201)
        memory = Memory()
        memory.write_word(0x200, 0x11223344)
        for address in (0x202, 0x203):
            with pytest.raises(MemoryError_):
                memory.read_word(address)

    def test_untouched_page_word_reads_zero_without_allocating(self):
        memory = Memory()
        memory.write_word(0x40000000, 1)
        assert memory.read_word(0x80000000) == 0
        assert memory.read_word(0xFFFFFFFC) == 0
        assert list(memory.allocated_pages()) == [0x40000000 >> PAGE_SHIFT]

    def test_last_word_of_a_page_matches_its_bytes(self):
        memory = Memory()
        last = 0x40000000 + PAGE_SIZE - 4
        memory.write_bytes(last - 2, bytes(range(0xA0, 0xAA)))
        assert memory.read_word(last) == int.from_bytes(memory.read_bytes(last, 4), "big")
        assert memory.read_word(last) == 0xA2A3A4A5
        assert memory.read_word(last + 4) == 0xA6A7A8A9  # first word of the next page

    def test_misaligned_word_write_raises(self):
        with pytest.raises(MemoryError_):
            Memory().write_word(0x202, 0)

    def test_half_roundtrip_and_alignment(self):
        memory = Memory()
        memory.write_half(0x300, 0xBEEF)
        assert memory.read_half(0x300) == 0xBEEF
        with pytest.raises(MemoryError_):
            memory.read_half(0x301)

    def test_double_roundtrip(self):
        memory = Memory()
        memory.write_double(0x400, 0x11111111, 0x22222222)
        assert memory.read_double(0x400) == (0x11111111, 0x22222222)

    def test_double_alignment_enforced(self):
        with pytest.raises(MemoryError_):
            Memory().read_double(0x404)

    def test_sized_access_dispatch(self):
        memory = Memory()
        memory.write_sized(0x500, 0xAA, 1)
        memory.write_sized(0x502, 0xBBCC, 2)
        memory.write_sized(0x504, 0xDDEEFF00, 4)
        assert memory.read_sized(0x500, 1) == 0xAA
        assert memory.read_sized(0x502, 2) == 0xBBCC
        assert memory.read_sized(0x504, 4) == 0xDDEEFF00

    def test_unsupported_size_raises(self):
        with pytest.raises(MemoryError_):
            Memory().read_sized(0, 3)

    def test_word_wraps_to_32_bits(self):
        memory = Memory()
        memory.write_word(0, 0x1_FFFF_FFFF)
        assert memory.read_word(0) == 0xFFFFFFFF


class TestProgramLoading:
    def test_load_program_places_text_and_data(self):
        program = assemble(
            ".text\nstart:\n        nop\n.data\nvalues:\n        .word 0x11223344\n"
        )
        memory = Memory()
        memory.load_program(program)
        assert memory.read_word(program.text_base) == program.text[0]
        assert memory.read_word(program.data_base) == 0x11223344

    def test_clear_releases_pages(self):
        memory = Memory()
        memory.write_word(0x40000000, 5)
        memory.clear()
        assert memory.read_word(0x40000000) == 0
        assert not list(memory.allocated_pages())

    def test_copy_is_independent(self):
        memory = Memory()
        memory.write_word(0x40, 1)
        clone = memory.copy()
        clone.write_word(0x40, 2)
        assert memory.read_word(0x40) == 1
        assert clone.read_word(0x40) == 2


#: Accesses land within a few bytes of a page boundary (either side), on
#: the first, a middle and the last page of the 32-bit address space.
_EDGE_ADDRESSES = st.builds(
    lambda page, delta: ((page << PAGE_SHIFT) + delta) & 0xFFFFFFFF,
    st.sampled_from([0, 1, 0x40000, 0xFFFFF]),
    st.integers(min_value=-8, max_value=8),
)
_ACCESSES = st.lists(
    st.tuples(
        st.sampled_from(["write_word", "write_half", "read_word", "read_half"]),
        _EDGE_ADDRESSES,
        st.integers(min_value=0, max_value=0x1_FFFF_FFFF),
    ),
    max_size=40,
)


def _write_bytewise(memory, address, data):
    for index, value in enumerate(data):
        memory.write_byte(address + index, value)


def _read_bytewise(memory, address, length):
    return bytes(memory.read_byte(address + index) for index in range(length))


#: Byte ranges from a few bytes to just over two pages, so they straddle one
#: or two page boundaries (or the top of the address space); the repeated
#: pattern may be all zeros.
_RANGES = st.lists(
    st.tuples(
        st.sampled_from(["write_bytes", "read_bytes"]),
        _EDGE_ADDRESSES,
        st.one_of(st.integers(min_value=0, max_value=24),
                  st.integers(min_value=PAGE_SIZE - 8, max_value=2 * PAGE_SIZE + 8)),
        st.binary(min_size=1, max_size=8),
    ),
    max_size=6,
)


class TestSliceAccessMatchesBytewise:
    """Page-slice accessors against the byte-wise path they replace."""

    @settings(max_examples=200, deadline=None)
    @given(_ACCESSES)
    def test_page_edge_equivalence(self, accesses):
        fast, bytewise = Memory(), Memory()
        for op, address, value in accesses:
            size = 4 if op.endswith("word") else 2
            address &= ~(size - 1)
            mask = (1 << (8 * size)) - 1
            if op.startswith("write"):
                getattr(fast, op)(address, value)
                _write_bytewise(bytewise, address, (value & mask).to_bytes(size, "big"))
            else:
                expected = int.from_bytes(_read_bytewise(bytewise, address, size), "big")
                assert getattr(fast, op)(address) == expected
            # Reads never allocate; writes allocate exactly the touched page.
            assert fast.allocated_pages() == bytewise.allocated_pages()
        assert fast._pages == bytewise._pages

    @settings(max_examples=100, deadline=None)
    @given(_RANGES)
    def test_byte_ranges_across_page_edges(self, ranges):
        fast, bytewise = Memory(), Memory()
        for op, address, length, pattern in ranges:
            if op == "write_bytes":
                data = (pattern * length)[:length]
                fast.write_bytes(address, data)
                _write_bytewise(bytewise, address, data)
            else:
                assert fast.read_bytes(address, length) == _read_bytewise(
                    bytewise, address, length
                )
            # Writes allocate every page they touch (zero bytes too), empty
            # writes and reads allocate nothing.
            assert fast.allocated_pages() == bytewise.allocated_pages()
        assert fast._pages == bytewise._pages
