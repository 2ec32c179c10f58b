"""Sparse byte-addressable memory model.

Both the ISS and the structural Leon3 model operate on the same memory
abstraction: a big-endian, 32-bit address space backed by a sparse page
dictionary so that programs can use widely separated text/data/stack regions
without allocating gigabytes.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1
ADDRESS_MASK = 0xFFFFFFFF


class MemoryError_(RuntimeError):
    """Raised on misaligned or otherwise invalid memory accesses."""


class Memory:
    """Sparse big-endian memory with word/half/byte accessors."""

    def __init__(self):
        self._pages: Dict[int, bytearray] = {}

    # -- page management ------------------------------------------------------

    def _page(self, address: int) -> Tuple[bytearray, int]:
        address &= ADDRESS_MASK
        page_index = address >> PAGE_SHIFT
        page = self._pages.get(page_index)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[page_index] = page
        return page, address & PAGE_MASK

    # -- raw byte access --------------------------------------------------------

    def read_byte(self, address: int) -> int:
        address &= ADDRESS_MASK
        page = self._pages.get(address >> PAGE_SHIFT)
        if page is None:
            # Reads of untouched memory return zero without allocating a page.
            return 0
        return page[address & PAGE_MASK]

    def write_byte(self, address: int, value: int) -> None:
        page, offset = self._page(address)
        page[offset] = value & 0xFF

    def read_bytes(self, address: int, length: int) -> bytes:
        return bytes(self.read_byte(address + index) for index in range(length))

    def write_bytes(self, address: int, data: bytes) -> None:
        for index, value in enumerate(data):
            self.write_byte(address + index, value)

    # -- aligned accessors -------------------------------------------------------

    def read_word(self, address: int) -> int:
        if address % 4:
            raise MemoryError_(f"misaligned word read at {address:#010x}")
        address &= ADDRESS_MASK
        page = self._pages.get(address >> PAGE_SHIFT)
        if page is None:
            return 0
        # An aligned word never straddles a page, so one slice reads it.
        offset = address & PAGE_MASK
        return int.from_bytes(page[offset:offset + 4], "big")

    def write_word(self, address: int, value: int) -> None:
        if address % 4:
            raise MemoryError_(f"misaligned word write at {address:#010x}")
        page, offset = self._page(address)
        page[offset:offset + 4] = (value & 0xFFFFFFFF).to_bytes(4, "big")

    def read_half(self, address: int) -> int:
        if address % 2:
            raise MemoryError_(f"misaligned halfword read at {address:#010x}")
        address &= ADDRESS_MASK
        page = self._pages.get(address >> PAGE_SHIFT)
        if page is None:
            return 0
        offset = address & PAGE_MASK
        return int.from_bytes(page[offset:offset + 2], "big")

    def write_half(self, address: int, value: int) -> None:
        if address % 2:
            raise MemoryError_(f"misaligned halfword write at {address:#010x}")
        page, offset = self._page(address)
        page[offset:offset + 2] = (value & 0xFFFF).to_bytes(2, "big")

    def read_double(self, address: int) -> Tuple[int, int]:
        if address % 8:
            raise MemoryError_(f"misaligned doubleword read at {address:#010x}")
        return self.read_word(address), self.read_word(address + 4)

    def write_double(self, address: int, high: int, low: int) -> None:
        if address % 8:
            raise MemoryError_(f"misaligned doubleword write at {address:#010x}")
        self.write_word(address, high)
        self.write_word(address + 4, low)

    # -- sized access used by the emulators --------------------------------------

    def read_sized(self, address: int, size: int) -> int:
        if size == 1:
            return self.read_byte(address)
        if size == 2:
            return self.read_half(address)
        if size == 4:
            return self.read_word(address)
        raise MemoryError_(f"unsupported access size {size}")

    def write_sized(self, address: int, value: int, size: int) -> None:
        if size == 1:
            self.write_byte(address, value)
        elif size == 2:
            self.write_half(address, value)
        elif size == 4:
            self.write_word(address, value)
        else:
            raise MemoryError_(f"unsupported access size {size}")

    # -- program loading -----------------------------------------------------------

    def load_program(self, program) -> None:
        """Load an assembled :class:`~repro.isa.assembler.Program` image."""
        self.write_bytes(program.text_base, program.text_bytes)
        if program.data:
            self.write_bytes(program.data_base, program.data)

    def clear(self) -> None:
        self._pages.clear()

    def allocated_pages(self) -> Iterable[int]:
        """Indices of pages that have been touched (diagnostics/tests)."""
        return tuple(sorted(self._pages))

    def copy(self) -> "Memory":
        clone = Memory()
        for index, page in self._pages.items():
            clone._pages[index] = bytearray(page)
        return clone
