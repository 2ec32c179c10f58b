"""Fast LEON3 cycle engine: the structural model without the netlist walk.

The reference :class:`~repro.leon3.core.Leon3Core` is an executable
specification: every intermediate value of every instruction is driven
through a named net (a dict lookup, a width mask and a fault scan per drive)
and every stage builds throwaway dicts.  That is exactly what makes each net
a fault site — and exactly what makes the structural model the throughput
ceiling of every RTL injection campaign now that the ISS has its own fast
path.  :class:`Leon3FastCore` removes that overhead while staying
**result-transparent**, mirroring the ISS fast path's design:

* **Flattened pipeline** — the per-cycle walk through the seven stage
  functions is precompiled into one handler per instruction definition
  (resolved once per decoded word, exactly like the ISS handler table).  A
  handler performs the architectural work of all seven stages in one flat
  function, preserving the reference's order of register-file and cache-array
  accesses (which is observable under array faults through the open-line
  "previous value" rule).

* **Per-PC op cache** — each instruction word is decoded once per PC by
  the reference decode stage (the executable spec, so decode needs no second
  copy) and specialised into a :class:`_FastOp` with operands pre-extracted
  and branch/call targets pre-resolved.  A cached op is validated against
  the *fetched* word (the instruction cache is not coherent with stores, so
  a faulted or stale fetch re-specialises automatically) and invalidated
  page-wise on stores (the trace decodes from the memory image, which
  stores mutate).

* **Sparse per-unit injection table** — :meth:`inject` compiles the active
  fault list into per-storage-array hook objects (register-file cells, cache
  tag/data/valid arrays): only accesses to a *faulted* array pay the fault
  scan, instead of every drive of every net scanning a fault dict.
  Permanent faults on combinational **nets** split two ways over the
  1162 IU net bits:

  - *word-determined* (124 bits: ``iu.fe.inst`` and the nine ``iu.de.*``
    nets) — the driven value is a pure function of the fetched word, so
    the fault compiles into the per-PC op.  Every op is built by the
    reference decode stage itself, on the (possibly faulted) reference
    netlist, and the op cache is flushed whenever such faults become or
    stop being active;
  - *data-path* (the other 1038 bits) — applying the fault faithfully
    requires driving the net, so the run delegates to the embedded
    reference core (bit-identity is then trivial).

  CMEM nets, transient faults on any net, and any fault set that includes
  a data-path net delegate too.  On the paper benchmark (``paperbench``
  ``paper_rtl``) every net job falls in the first class.

* **Read watching** — :meth:`Leon3FastCore.watch` binds a recorder to the
  same per-array hook points for a fault-free run and folds every read of
  the watched cells into a :class:`~repro.rtl.faults.CellReads`.  The
  campaign engine's golden run watches the sampled storage cells, and a
  job whose fault changes none of those reads takes the golden result
  without simulating (the inert screen).

* **Bulk accounting** — trace statistics are kept as a per-mnemonic counter
  and folded into the :class:`~repro.iss.trace.ExecutionTrace` after the run
  (:meth:`ExecutionTrace.record_bulk`); latency, miss penalties and
  transaction cycle stamps are accumulated with plain integer arithmetic.
  With ``detailed_trace=True`` per-record pc/cycle stamps are required, so
  trace accounting runs live (the flattened pipeline still applies).

The contract — enforced by ``tests/test_fastcore.py`` and re-verified by
``benchmarks/bench_rtl_throughput.py`` before it reports any number — is
**bit-identity with the reference core on every observable**: off-core
transaction stream and cycle stamps, trace statistics, instruction and cycle
counts, halt/exit/trap status, cache miss counters, and the final
architectural state (register cells, window depth, PSR, Y, caches, memory
image), fault-free and under injected faults.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.isa.ccodes import (
    ConditionCodes,
    evaluate_condition,
    icc_add,
    icc_logic,
    icc_sub,
)
from repro.isa.decoder import DecodeError, decode_cached
from repro.isa.encoding import to_s32, to_u32
from repro.isa.instructions import INSTRUCTION_SET, InstructionCategory
from repro.isa.registers import NUM_GLOBALS, WINDOW_REGS, RegisterWindowError
from repro.iss.memory import PAGE_SHIFT, Memory, MemoryError_
from repro.iss.trace import ExecutionTrace, OffCoreTransaction
from repro.leon3.core import (
    DEFAULT_STACK_TOP,
    MISS_PENALTY,
    Leon3Core,
    RtlExecutionResult,
)
from repro.leon3.iu import IO_BASE, IuTrap
from repro.rtl.faults import CellReads, PermanentFault
from repro.rtl.sites import FaultSite

_U32 = 0xFFFFFFFF

__all__ = [
    "Leon3FastCore",
    "assert_rtl_results_identical",
    "verify_rtl_bit_identity",
    "run_program_fast_rtl",
]


class _ArrayFaultState:
    """Compiled fault hooks for one storage array (the sparse injection table).

    Replicates :meth:`repro.rtl.netlist.StorageArray.read` exactly: faults
    apply to the addressed cell only, but *every* read of a faulted array
    updates ``last_read`` (the open-line model's "previous value").
    """

    __slots__ = ("core", "mask", "by_cell", "last_read")

    def __init__(self, core: "Leon3FastCore", width: int):
        self.core = core
        self.mask = (1 << width) - 1
        self.by_cell: Dict[int, List[PermanentFault]] = {}
        self.last_read = 0

    def read(self, index: int, value: int) -> int:
        faults = self.by_cell.get(index)
        if faults:
            cycle = self.core.cycle
            mask = self.mask
            for fault in faults:
                if fault.active_at(cycle):
                    value = fault.apply(value, self.last_read) & mask
        self.last_read = value
        return value


class _ArrayWatch:
    """Read recorder for the watched cells of one storage array.

    Bound to the same hook points as :class:`_ArrayFaultState` (see
    :meth:`Leon3FastCore.watch`), so it sees exactly the reads a fault on
    the array would see, and keeps ``last_read`` by the same rule.
    """

    __slots__ = ("cells", "last_read")

    def __init__(self) -> None:
        self.cells: Dict[int, CellReads] = {}
        self.last_read = 0

    def read(self, index: int, value: int) -> int:
        reads = self.cells.get(index)
        if reads is not None:
            reads.record(value, self.last_read)
        self.last_read = value
        return value


#: A storage-array read hook: fault application or read watching.
_ArrayHook = Union[_ArrayFaultState, _ArrayWatch]


class _FastCache:
    """Direct-mapped write-through cache mirroring DirectMappedCache bit for bit.

    Tag/data/valid contents, hit/miss counters and refill ordering are
    identical to the reference; the netlist drives (identity in the absence
    of net faults) are elided.  Array faults attach through the optional
    ``*_fault`` hooks.
    """

    __slots__ = (
        "core", "lines", "words_per_line", "line_bytes", "index_shift",
        "tag_shift", "tags", "data", "valid", "hits", "misses",
        "tag_fault", "data_fault", "valid_fault",
    )

    def __init__(self, core: "Leon3FastCore", lines: int, words_per_line: int):
        self.core = core
        self.lines = lines
        self.words_per_line = words_per_line
        self.line_bytes = words_per_line * 4
        self.index_shift = self.line_bytes.bit_length() - 1
        self.tag_shift = self.index_shift + lines.bit_length() - 1
        self.tags = [0] * lines
        self.data = [0] * (lines * words_per_line)
        self.valid = [0] * lines
        self.hits = 0
        self.misses = 0
        self.tag_fault: Optional[_ArrayHook] = None
        self.data_fault: Optional[_ArrayHook] = None
        self.valid_fault: Optional[_ArrayHook] = None

    def _lookup(self, index: int, tag: int) -> bool:
        # Same read order as the reference lookup: valid cell, then tag cell.
        valid = self.valid[index]
        vf = self.valid_fault
        if vf is not None:
            valid = vf.read(index, valid)
        stored = self.tags[index]
        tf = self.tag_fault
        if tf is not None:
            stored = tf.read(index, stored)
        return bool(valid) and stored == tag

    def _fill(self, index: int, tag: int, aligned: int) -> None:
        line_base = aligned & ~(self.line_bytes - 1)
        memory = self.core.memory
        base = index * self.words_per_line
        data = self.data
        core = self.core
        for word in range(self.words_per_line):
            # A refill read past the mapped image raises MemoryError_ exactly
            # like the reference, with the same partially-written line.
            data[base + word] = memory.read_word(line_base + word * 4)
            core.bus_reads += 1
        self.tags[index] = tag
        self.valid[index] = 1

    def read_word(self, address: int) -> int:
        wpl = self.words_per_line
        word_in_line = (address >> 2) & (wpl - 1)
        index = (address >> self.index_shift) & (self.lines - 1)
        tag = (address >> self.tag_shift) & 0x3FFFFF
        if self._lookup(index, tag):
            self.hits += 1
        else:
            self.misses += 1
            self._fill(index, tag, address & ~0x3)
        cell = index * wpl + word_in_line
        value = self.data[cell]
        df = self.data_fault
        if df is not None:
            value = df.read(cell, value)
        return value

    def write_word(self, address: int, value: int) -> None:
        wpl = self.words_per_line
        index = (address >> self.index_shift) & (self.lines - 1)
        tag = (address >> self.tag_shift) & 0x3FFFFF
        aligned = address & ~0x3
        core = self.core
        core.memory.write_word(aligned, value)
        page = aligned >> PAGE_SHIFT
        if page in core._code_pages:
            core._invalidate_code_page(page)
        if self._lookup(index, tag):
            self.hits += 1
            self.data[index * wpl + ((address >> 2) & (wpl - 1))] = value & _U32
        else:
            self.misses += 1

    def invalidate(self) -> None:
        self.tags = [0] * self.lines
        self.data = [0] * (self.lines * self.words_per_line)
        self.valid = [0] * self.lines
        self.hits = 0
        self.misses = 0


class _FastOp:
    """One decoded instruction specialised for its PC.

    ``word`` is the *fetched* word the specialisation was built from (cached
    ops are revalidated against the next fetch, so stale-icache and
    fault-corrupted fetch paths re-specialise); ``trace_instr``/``trace_defn``
    come from the *memory image* at the same PC, matching the reference
    core's trace convention.  The decode fields are those the reference
    decode stage drives: *imm* is the 32-bit immediate operand (``None``
    when ``rs2`` supplies it; the shifted value for ``sethi``), *cond* the
    branch condition.
    """

    __slots__ = (
        "word", "mnemonic", "handler", "latency", "rd", "rs1", "rs2",
        "use_imm", "imm_u32", "sets_icc", "access_size", "sign_extend_load",
        "cond", "annul", "annul_taken", "target", "value",
        "trace_instr", "trace_defn", "trace_mnemonic",
    )

    def __init__(
        self, pc: int, word: int, memory: Memory, defn, rd: int, rs1: int,
        rs2: int, imm: Optional[int], cond: Optional[int], annul: bool,
        disp: int,
    ):
        mnemonic = defn.mnemonic
        self.word = word
        self.mnemonic = mnemonic
        self.handler = _HANDLER_TABLE[mnemonic]
        self.latency = defn.latency
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.use_imm = imm is not None
        self.imm_u32 = imm
        self.sets_icc = defn.sets_icc
        self.access_size = defn.access_size
        self.sign_extend_load = defn.sign_extend
        if defn.category is InstructionCategory.BRANCH:
            self.cond = cond
            self.annul = annul
            self.annul_taken = annul and cond == 0x8
            self.target = to_u32(pc + disp)
        elif mnemonic == "call":
            self.target = to_u32(pc + disp)
        elif mnemonic == "sethi":
            self.value = imm
        elif mnemonic == "ticc":
            self.cond = rd & 0xF
        try:
            traced = decode_cached(memory.read_word(pc))
        except (DecodeError, MemoryError_):
            self.trace_instr = None
            self.trace_defn = None
            self.trace_mnemonic = None
        else:
            self.trace_instr = traced
            self.trace_defn = traced.defn
            self.trace_mnemonic = traced.defn.mnemonic


# ---------------------------------------------------------------------------
# Handlers.
#
# One flat function per opcode, signature ``handler(core, op)``.  Return value
# protocol:
#   * ``None``              — fall through to the sequential pc/npc advance,
#   * ``(target, annul)``   — delayed control transfer,
#   * ``int``               — exit code of the ``ta 0`` convention.
# Traps raise (IuTrap / RegisterWindowError / MemoryError_ /
# ZeroDivisionError), mirroring the exception set the reference run loop
# catches.  Each body preserves the reference pipeline's order of
# register-file and cache-array accesses — observable under array faults.
# ---------------------------------------------------------------------------


def _h_branch(core, op):
    if evaluate_condition(op.cond, core.icc):
        return (op.target, op.annul_taken)
    if op.annul:
        core._annul_next = True
    return None


def _h_call(core, op):
    # The link register is the decoded rd (15 unless iu.de.rd is faulted).
    core._rf_write(op.rd, core.pc)
    return (op.target, False)


def _h_sethi(core, op):
    core._rf_write(op.rd, op.value)
    return None


def _h_jmpl(core, op):
    op1 = core._rf_read(op.rs1)
    op2 = op.imm_u32 if op.use_imm else core._rf_read(op.rs2)
    target = (op1 + op2) & _U32
    if target % 4:
        raise IuTrap("memory", f"misaligned jump target {target:#010x}")
    core._rf_write(op.rd, core.pc)
    return (target, False)


def _h_ticc(core, op):
    core._rf_read(op.rs1)
    trap_number = op.imm_u32 if op.use_imm else core._rf_read(op.rs2)
    if not evaluate_condition(op.cond, core.icc):
        return None
    if trap_number == 0:
        return core._rf_read(8) & 0xFF
    raise IuTrap("software_trap", str(trap_number))


def _h_save(core, op):
    op1 = core._rf_read(op.rs1)
    op2 = op.imm_u32 if op.use_imm else core._rf_read(op.rs2)
    result = (op1 + op2) & _U32
    if core._saved_depth >= core.nwindows - 1:
        raise RegisterWindowError("register window overflow")
    core._saved_depth += 1
    core.cwp = (core.cwp + 1) % core.nwindows
    core._rf_write(op.rd, result)  # written in the *new* window
    return None


def _h_restore(core, op):
    op1 = core._rf_read(op.rs1)
    op2 = op.imm_u32 if op.use_imm else core._rf_read(op.rs2)
    result = (op1 + op2) & _U32
    if core._saved_depth <= 0:
        raise RegisterWindowError("register window underflow")
    core._saved_depth -= 1
    core.cwp = (core.cwp - 1) % core.nwindows
    core._rf_write(op.rd, result)
    return None


def _h_rd(core, op):
    # The register-access stage reads both operand ports for state
    # instructions too (observable through array-fault last_read ordering).
    core._rf_read(op.rs1)
    if not op.use_imm:
        core._rf_read(op.rs2)
    core._rf_write(op.rd, core.y)
    return None


def _h_wr(core, op):
    op1 = core._rf_read(op.rs1)
    op2 = op.imm_u32 if op.use_imm else core._rf_read(op.rs2)
    core.y = (op1 ^ op2) & _U32
    return None


# -- ALU --------------------------------------------------------------------


def _h_add(core, op):
    op1 = core._rf_read(op.rs1)
    op2 = op.imm_u32 if op.use_imm else core._rf_read(op.rs2)
    result = (op1 + op2) & _U32
    if op.sets_icc:
        core.icc = icc_add(op1, op2, result)
    core._rf_write(op.rd, result)
    return None


def _h_addx(core, op):
    op1 = core._rf_read(op.rs1)
    op2 = op.imm_u32 if op.use_imm else core._rf_read(op.rs2)
    carry = core.icc.c
    result = (op1 + op2 + carry) & _U32
    if op.sets_icc:
        core.icc = icc_add(op1, op2, result, carry_in=carry)
    core._rf_write(op.rd, result)
    return None


def _h_sub(core, op):
    op1 = core._rf_read(op.rs1)
    op2 = op.imm_u32 if op.use_imm else core._rf_read(op.rs2)
    result = (op1 - op2) & _U32
    if op.sets_icc:
        core.icc = icc_sub(op1, op2, result)
    core._rf_write(op.rd, result)
    return None


def _h_subx(core, op):
    op1 = core._rf_read(op.rs1)
    op2 = op.imm_u32 if op.use_imm else core._rf_read(op.rs2)
    borrow = core.icc.c
    result = (op1 - op2 - borrow) & _U32
    if op.sets_icc:
        core.icc = icc_sub(op1, op2, result, borrow_in=borrow)
    core._rf_write(op.rd, result)
    return None


def _h_and(core, op):
    op1 = core._rf_read(op.rs1)
    op2 = op.imm_u32 if op.use_imm else core._rf_read(op.rs2)
    result = op1 & op2
    if op.sets_icc:
        core.icc = icc_logic(result)
    core._rf_write(op.rd, result)
    return None


def _h_andn(core, op):
    op1 = core._rf_read(op.rs1)
    op2 = op.imm_u32 if op.use_imm else core._rf_read(op.rs2)
    result = op1 & (~op2 & _U32)
    if op.sets_icc:
        core.icc = icc_logic(result)
    core._rf_write(op.rd, result)
    return None


def _h_or(core, op):
    op1 = core._rf_read(op.rs1)
    op2 = op.imm_u32 if op.use_imm else core._rf_read(op.rs2)
    result = op1 | op2
    if op.sets_icc:
        core.icc = icc_logic(result)
    core._rf_write(op.rd, result)
    return None


def _h_orn(core, op):
    op1 = core._rf_read(op.rs1)
    op2 = op.imm_u32 if op.use_imm else core._rf_read(op.rs2)
    result = op1 | (~op2 & _U32)
    if op.sets_icc:
        core.icc = icc_logic(result)
    core._rf_write(op.rd, result)
    return None


def _h_xor(core, op):
    op1 = core._rf_read(op.rs1)
    op2 = op.imm_u32 if op.use_imm else core._rf_read(op.rs2)
    result = op1 ^ op2
    if op.sets_icc:
        core.icc = icc_logic(result)
    core._rf_write(op.rd, result)
    return None


def _h_xnor(core, op):
    op1 = core._rf_read(op.rs1)
    op2 = op.imm_u32 if op.use_imm else core._rf_read(op.rs2)
    result = ~(op1 ^ op2) & _U32
    if op.sets_icc:
        core.icc = icc_logic(result)
    core._rf_write(op.rd, result)
    return None


def _h_sll(core, op):
    op1 = core._rf_read(op.rs1)
    op2 = op.imm_u32 if op.use_imm else core._rf_read(op.rs2)
    core._rf_write(op.rd, (op1 << (op2 & 0x1F)) & _U32)
    return None


def _h_srl(core, op):
    op1 = core._rf_read(op.rs1)
    op2 = op.imm_u32 if op.use_imm else core._rf_read(op.rs2)
    core._rf_write(op.rd, op1 >> (op2 & 0x1F))
    return None


def _h_sra(core, op):
    op1 = core._rf_read(op.rs1)
    op2 = op.imm_u32 if op.use_imm else core._rf_read(op.rs2)
    core._rf_write(op.rd, (to_s32(op1) >> (op2 & 0x1F)) & _U32)
    return None


def _h_umul(core, op):
    op1 = core._rf_read(op.rs1)
    op2 = op.imm_u32 if op.use_imm else core._rf_read(op.rs2)
    product = op1 * op2
    low = product & _U32
    core.y = (product >> 32) & _U32
    if op.sets_icc:
        core.icc = icc_logic(low)
    core._rf_write(op.rd, low)
    return None


def _h_smul(core, op):
    op1 = core._rf_read(op.rs1)
    op2 = op.imm_u32 if op.use_imm else core._rf_read(op.rs2)
    product = to_s32(op1) * to_s32(op2)
    low = product & _U32
    core.y = (product >> 32) & _U32
    if op.sets_icc:
        core.icc = icc_logic(low)
    core._rf_write(op.rd, low)
    return None


def _h_udiv(core, op):
    op1 = core._rf_read(op.rs1)
    op2 = op.imm_u32 if op.use_imm else core._rf_read(op.rs2)
    if op2 == 0:
        raise ZeroDivisionError
    quotient = min(((core.y << 32) | op1) // op2, 0xFFFFFFFF)
    if op.sets_icc:
        core.icc = icc_logic(quotient)
    core._rf_write(op.rd, quotient)
    return None


def _h_sdiv(core, op):
    op1 = core._rf_read(op.rs1)
    op2 = op.imm_u32 if op.use_imm else core._rf_read(op.rs2)
    if op2 == 0:
        raise ZeroDivisionError
    dividend_u = (core.y << 32) | op1
    dividend = dividend_u - (1 << 64) if dividend_u & (1 << 63) else dividend_u
    divisor = to_s32(op2)
    quotient = abs(dividend) // abs(divisor)
    if (dividend < 0) != (divisor < 0):
        quotient = -quotient
    quotient = max(min(quotient, 0x7FFFFFFF), -0x80000000)
    result = quotient & _U32
    if op.sets_icc:
        core.icc = icc_logic(result)
    core._rf_write(op.rd, result)
    return None


def _h_unimplemented(core, op):
    raise IuTrap("illegal_instruction", f"no semantics for {op.mnemonic}")


# -- memory -----------------------------------------------------------------


def _h_load(core, op):
    op1 = core._rf_read(op.rs1)
    op2 = op.imm_u32 if op.use_imm else core._rf_read(op.rs2)
    address = (op1 + op2) & _U32
    size = op.access_size
    if size != 1 and address % size:
        raise IuTrap("memory", f"misaligned access at {address:#010x}")
    if address >= IO_BASE:
        # I/O reads bypass the cache and are visible off-core (value 0, as in
        # the reference model's device stub).
        value = 0
        core.transactions.append(OffCoreTransaction("io", address, 0, size))
    else:
        value = core._dcache_load(address, size)
    if op.sign_extend_load and size != 4 and value & (1 << (size * 8 - 1)):
        value = to_u32(value - (1 << (size * 8)))
    core._rf_write(op.rd, value)
    return None


def _h_ldd(core, op):
    op1 = core._rf_read(op.rs1)
    op2 = op.imm_u32 if op.use_imm else core._rf_read(op.rs2)
    address = (op1 + op2) & _U32
    if address % 8:
        raise IuTrap("memory", f"misaligned access at {address:#010x}")
    # The reference loads doubles through the data cache even for I/O
    # addresses (no transaction): replicated as-is.
    high = core.dcache.read_word(address)
    low = core.dcache.read_word(address + 4)
    rd_even = op.rd & ~1
    core._rf_write(rd_even, high)
    core._rf_write(rd_even | 1, low)
    return None


def _h_store(core, op):
    op1 = core._rf_read(op.rs1)
    op2 = op.imm_u32 if op.use_imm else core._rf_read(op.rs2)
    store_data = core._rf_read(op.rd)
    address = (op1 + op2) & _U32
    size = op.access_size
    if size != 1 and address % size:
        raise IuTrap("memory", f"misaligned access at {address:#010x}")
    if size == 1:
        store_data &= 0xFF
    elif size == 2:
        store_data &= 0xFFFF
    if address >= IO_BASE:
        core.transactions.append(OffCoreTransaction("io", address, store_data, size))
    else:
        core._dcache_store(address, store_data, size)
        core.transactions.append(
            OffCoreTransaction("store", address, store_data, size)
        )
    return None


def _h_std(core, op):
    op1 = core._rf_read(op.rs1)
    op2 = op.imm_u32 if op.use_imm else core._rf_read(op.rs2)
    # Reference quirk preserved: the high word comes from rd as encoded (not
    # forced even), the low word from the odd pair register.
    high = core._rf_read(op.rd)
    low = core._rf_read((op.rd & ~1) | 1)
    address = (op1 + op2) & _U32
    if address % 8:
        raise IuTrap("memory", f"misaligned access at {address:#010x}")
    if address >= IO_BASE:
        core.transactions.append(OffCoreTransaction("io", address, high, 4))
        core.transactions.append(OffCoreTransaction("io", address + 4, low, 4))
    else:
        core._dcache_store(address, high, 4)
        core.transactions.append(OffCoreTransaction("store", address, high, 4))
        core._dcache_store(address + 4, low, 4)
        core.transactions.append(OffCoreTransaction("store", address + 4, low, 4))
    return None


_SPECIAL_HANDLERS: Dict[str, Callable] = {
    "call": _h_call,
    "sethi": _h_sethi,
    "jmpl": _h_jmpl,
    "ticc": _h_ticc,
    "save": _h_save,
    "restore": _h_restore,
    "rd": _h_rd,
    "wr": _h_wr,
}

_ALU_HANDLERS: Dict[str, Callable] = {
    "add": _h_add,
    "addx": _h_addx,
    "sub": _h_sub,
    "subx": _h_subx,
    "and": _h_and,
    "andn": _h_andn,
    "or": _h_or,
    "orn": _h_orn,
    "xor": _h_xor,
    "xnor": _h_xnor,
    "sll": _h_sll,
    "srl": _h_srl,
    "sra": _h_sra,
    "umul": _h_umul,
    "smul": _h_smul,
    "udiv": _h_udiv,
    "sdiv": _h_sdiv,
}


def _handler_for(defn) -> Callable:
    if defn.category is InstructionCategory.BRANCH:
        return _h_branch
    special = _SPECIAL_HANDLERS.get(defn.mnemonic)
    if special is not None:
        return special
    if defn.is_memory:
        if defn.access_size == 8:
            return _h_ldd if defn.reads_memory else _h_std
        return _h_load if defn.reads_memory else _h_store
    # Missing ALU semantics trap at execution time (not cache-fill time),
    # mirroring the reference's trap point.
    return _ALU_HANDLERS.get(defn.alu_base, _h_unimplemented)


#: Precomputed per-InstructionDef dispatch table, built once at import.
_HANDLER_TABLE: Dict[str, Callable] = {
    defn.mnemonic: _handler_for(defn) for defn in INSTRUCTION_SET
}

#: Storage arrays the fast engine injects into natively.
_NATIVE_ARRAYS = frozenset(
    {
        "rf.cells",
        "icache.tags", "icache.data", "icache.valid",
        "dcache.tags", "dcache.data", "dcache.valid",
    }
)

#: Word-determined nets (124 bits): the value driven on them is a pure
#: function of the fetched instruction word, so a permanent fault on them
#: compiles into the per-PC op (built through the reference decode stage).
_WORD_NETS = frozenset(
    {
        "iu.fe.inst", "iu.de.inst", "iu.de.op", "iu.de.op3", "iu.de.rd",
        "iu.de.rs1", "iu.de.rs2", "iu.de.imm", "iu.de.use_imm", "iu.de.cond",
    }
)


class _RtlRunState:
    """Mutable per-run accumulators of the fast engine's segmented loop.

    One logical run is one state object; :meth:`Leon3FastCore._run_segment`
    can be called repeatedly on the same state to execute the run in
    instruction-bounded segments (the checkpointed transient runtime pauses
    at checkpoint boundaries this way).  ``cycles``/``executed`` accumulate
    across segments; ``counts`` holds the deferred per-mnemonic trace tally.
    """

    __slots__ = (
        "trace", "counts", "transaction_cycles", "stamped", "cycles",
        "executed", "halted", "exit_code", "trap_kind",
    )

    def __init__(self, detailed: bool):
        self.trace = ExecutionTrace(detailed=detailed)
        self.counts: Dict[str, int] = {}
        self.transaction_cycles: List[int] = []
        self.stamped = 0
        self.cycles = 0
        self.executed = 0
        self.halted = False
        self.exit_code: Optional[int] = None
        self.trap_kind: Optional[str] = None


class Leon3FastCore:
    """Drop-in, bit-identical, faster replacement for :class:`Leon3Core`.

    Exposes the same core API the backends and campaigns use
    (``load_program`` / ``reset`` / ``reload`` / ``inject`` /
    ``clear_faults`` / ``run`` / ``sites`` / ``netlist``).  An embedded
    reference :class:`Leon3Core` provides the site universe, validates
    injected faults, decodes every instruction word (under any
    word-determined net faults), and executes the runs whose faults target
    data-path or CMEM nets (which only the netlist walk can apply
    faithfully; see the module docstring for the split of net faults).
    """

    def __init__(
        self,
        nwindows: int = 8,
        icache_lines: int = 32,
        dcache_lines: int = 32,
        words_per_line: int = 8,
        detailed_trace: bool = False,
    ):
        self._ref = Leon3Core(
            nwindows=nwindows,
            icache_lines=icache_lines,
            dcache_lines=dcache_lines,
            words_per_line=words_per_line,
            detailed_trace=detailed_trace,
        )
        self.detailed_trace = detailed_trace
        self.nwindows = nwindows
        self.memory = Memory()
        self.cells: List[int] = [0] * (NUM_GLOBALS + nwindows * WINDOW_REGS)
        self._saved_depth = 0
        self.cwp = 0
        self.icc = ConditionCodes.from_bits(0)
        self.y = 0
        self.icache = _FastCache(self, icache_lines, words_per_line)
        self.dcache = _FastCache(self, dcache_lines, words_per_line)
        self.transactions: List[OffCoreTransaction] = []
        self.bus_reads = 0
        self.pc = 0
        self.npc = 4
        self.cycle = 0
        self._annul_next = False
        self._program = None
        self._mem_snapshot: Optional[Dict[int, bytes]] = None
        self._op_cache: Dict[int, _FastOp] = {}
        self._code_pages: Dict[int, Set[int]] = {}
        self._rf_fault: Optional[_ArrayHook] = None
        self._array_states: Dict[str, _ArrayHook] = {}
        self._watching = False
        self._fallback = False
        self._word_faults = False
        self._word_nets_at_reset: Dict[str, int] = {}
        #: Decode specialisations built (one per distinct PC between
        #: invalidations) — observable for tests and diagnostics.
        self.decode_fills = 0

    # -- reference-core views -----------------------------------------------------

    @property
    def sites(self):
        """All injectable fault sites (the reference core's full universe)."""
        return self._ref.sites

    @property
    def netlist(self):
        """The reference netlist (site validation, ``site_for``, fault lists)."""
        return self._ref.netlist

    @property
    def uses_fallback(self) -> bool:
        """True when the active faults require the reference engine."""
        return self._fallback

    # -- fault management ---------------------------------------------------------

    def inject(self, faults) -> None:
        if self._watching:
            raise RuntimeError("a read watch is bound: clear_faults() first")
        fault_list = list(faults)
        # The reference netlist validates sites (unknown nets, out-of-range
        # bits/cells fail loud) and keeps the canonical active-fault list.
        self._ref.inject(fault_list)
        for fault in fault_list:
            site = fault.site
            if site.index is None:
                if isinstance(fault, PermanentFault) and site.net in _WORD_NETS:
                    # Ops built so far decoded without this fault.
                    self._word_faults = True
                    self._flush_op_cache()
                else:
                    self._fallback = True
                continue
            if site.net not in _NATIVE_ARRAYS:
                self._fallback = True
                continue
            state = self._array_states.get(site.net)
            if state is None:
                width = self._ref.netlist.array(site.net).width
                state = _ArrayFaultState(self, width)
                self._array_states[site.net] = state
                self._bind_array_state(site.net, state)
            state.by_cell.setdefault(site.index, []).append(fault)

    def watch(self, cells: Iterable[FaultSite]) -> Dict[Tuple[str, int], CellReads]:
        """Record every read of the storage cells *cells* until
        :meth:`clear_faults`.

        Returns one :class:`CellReads` per watched ``(array, cell)``, filled
        in as the next run reads; net sites are skipped.  The watch binds
        the fault hooks' read points, so it refuses while faults (or another
        watch) are active; bind it after ``reload``, which resets
        ``last_read``.
        """
        if self._ref.netlist.active_faults() or self._array_states:
            raise RuntimeError("cannot watch reads while faults are active")
        summary: Dict[Tuple[str, int], CellReads] = {}
        for site in cells:
            if not self.native_site(site):
                continue
            state = self._array_states.get(site.net)
            if state is None:
                state = _ArrayWatch()
                self._array_states[site.net] = state
                self._bind_array_state(site.net, state)
            if site.index not in state.cells:
                width = self._ref.netlist.array(site.net).width
                state.cells[site.index] = CellReads.unread(width)
                summary[(site.net, site.index)] = state.cells[site.index]
        self._watching = bool(summary)
        return summary

    def _bind_array_state(self, name: str, state: _ArrayHook) -> None:
        if name == "rf.cells":
            self._rf_fault = state
            return
        cache = self.icache if name.startswith("icache.") else self.dcache
        kind = name.split(".", 1)[1]
        if kind == "tags":
            cache.tag_fault = state
        elif kind == "data":
            cache.data_fault = state
        else:
            cache.valid_fault = state

    def clear_faults(self) -> None:
        self._ref.clear_faults()
        self._rf_fault = None
        self._array_states = {}
        self._watching = False
        self.icache.tag_fault = self.icache.data_fault = self.icache.valid_fault = None
        self.dcache.tag_fault = self.dcache.data_fault = self.dcache.valid_fault = None
        self._fallback = False
        if self._word_faults:
            # Ops built under the faults must not outlive them.
            self._word_faults = False
            self._flush_op_cache()

    # -- program management -------------------------------------------------------

    def load_program(self, program) -> None:
        """Load *program* and reset; snapshots the image for fast reloads."""
        self._program = program
        self._ref.load_program(program)
        # An open line on a word-determined net holds the bit the net
        # latched at reset (when runs inject their faults), on every decode.
        netlist = self._ref.netlist
        self._word_nets_at_reset = {
            name: netlist.sample(name) for name in sorted(_WORD_NETS)
        }
        self.memory.clear()
        self.memory.load_program(program)
        self._mem_snapshot = {
            index: bytes(page) for index, page in self.memory._pages.items()
        }
        self._flush_op_cache()
        self.reset()

    def reset(self) -> None:
        """Reset processor state and caches (memory image is preserved)."""
        if self._program is None:
            raise RuntimeError("no program loaded")
        self.cycle = 0
        self.cells = [0] * len(self.cells)
        self._saved_depth = 0
        self.cwp = 0
        self.icc = ConditionCodes.from_bits(0)
        self.y = 0
        self.icache.invalidate()
        self.dcache.invalidate()
        self.transactions = []
        self.bus_reads = 0
        self._annul_next = False
        for state in self._array_states.values():
            state.last_read = 0
        self.pc = self._program.entry_point
        self.npc = self.pc + 4
        self._rf_write(14, DEFAULT_STACK_TOP)  # %sp, window 0

    def reload(self) -> None:
        """Restore the memory image from the snapshot and reset.

        Specialisations survive the reload when their code page is byte-equal
        to the snapshot: within-run stores to a cached page already
        invalidated its ops, so any op still cached was built against the
        page's end-of-run bytes — if those match the snapshot, the op's
        memory-derived half (the trace decode) stays valid after the restore.
        """
        if self._program is None or self._mem_snapshot is None:
            raise RuntimeError("no program loaded")
        pages = self.memory._pages
        snapshot = self._mem_snapshot
        for page in list(self._code_pages):
            if pages.get(page) != snapshot.get(page):
                self._invalidate_code_page(page)
        self.memory._pages = {
            index: bytearray(page) for index, page in snapshot.items()
        }
        self.reset()

    def _flush_op_cache(self) -> None:
        self._op_cache.clear()
        self._code_pages.clear()

    def _invalidate_code_page(self, page: int) -> None:
        cache = self._op_cache
        for cached_pc in self._code_pages.pop(page):
            cache.pop(cached_pc, None)

    # -- checkpoint capture / restore ---------------------------------------------
    #
    # The capture payload is the complete mid-run machine + accumulator state
    # of a fault-free run paused at an instruction boundary: everything
    # `_run_segment` needs to continue bit-identically, with memory stored as
    # dirty pages relative to the load-time snapshot.  The checkpointed
    # transient runtime (repro.engine.checkpoint) records one payload per
    # ladder rung during the golden run and restores them to fork injection
    # runs from mid-execution.

    def native_site(self, site) -> bool:
        """True when a transient fault at *site* can fork from a checkpoint.

        Only storage cells: every transient net fault, and every permanent
        fault on a data-path net, runs from reset on the reference core.
        Permanent faults on word-determined nets also run on the fast
        engine, but this answers the fork question only.
        """
        return site.index is not None and site.net in _NATIVE_ARRAYS

    def capture_state(self, state: _RtlRunState) -> dict:
        """Snapshot the paused run (architectural state, caches, dirty
        pages, cycle/instruction counters).  The prefix *observables*
        (transaction stream, cycle stamps, trace tally) are deliberately not
        captured — on a fault-free run they are a slice of the golden run's
        streams, which the caller hands back to :meth:`restore_state`.  Only
        valid between segments of a fault-free run with aggregate tracing."""
        if state.trace.detailed:
            raise ValueError("checkpoint capture requires aggregate tracing")
        snapshot = self._mem_snapshot or {}
        return {
            "cells": list(self.cells),
            "saved_depth": self._saved_depth,
            "cwp": self.cwp,
            "icc": self.icc.as_bits(),
            "y": self.y,
            "pc": self.pc,
            "npc": self.npc,
            "annul": self._annul_next,
            "icache": (
                list(self.icache.tags), list(self.icache.data),
                list(self.icache.valid), self.icache.hits, self.icache.misses,
            ),
            "dcache": (
                list(self.dcache.tags), list(self.dcache.data),
                list(self.dcache.valid), self.dcache.hits, self.dcache.misses,
            ),
            "bus_reads": self.bus_reads,
            "dirty_pages": {
                index: bytes(page)
                for index, page in self.memory._pages.items()
                if snapshot.get(index) != page
            },
            "run": (state.cycles, state.executed),
        }

    def state_digest(self, state: _RtlRunState) -> str:
        """Digest of the complete mid-run state (the convergence key).

        Covers everything the remaining execution and its observables depend
        on — register cells, window depth, ICC, Y, PC/nPC, annul flag, both
        cache arrays with their hit/miss counters, the bus-read tally, the
        cycle count and the pages dirtied relative to the load-time snapshot.
        The accumulated transaction stream and trace tallies are past
        observables, not state, and are excluded.
        """
        icache = self.icache
        dcache = self.dcache
        hasher = hashlib.sha256()
        hasher.update(
            repr(
                (
                    self.cells, self._saved_depth, self.cwp,
                    self.icc.as_bits(), self.y, self.pc, self.npc,
                    self._annul_next,
                    (icache.tags, icache.data, icache.valid,
                     icache.hits, icache.misses),
                    (dcache.tags, dcache.data, dcache.valid,
                     dcache.hits, dcache.misses),
                    self.bus_reads, state.cycles,
                )
            ).encode()
        )
        snapshot = self._mem_snapshot or {}
        for index in sorted(self.memory._pages):
            page = self.memory._pages[index]
            if snapshot.get(index) != page:
                hasher.update(b"%d:" % index)
                hasher.update(page)
        return hasher.hexdigest()

    def restore_state(
        self,
        payload: dict,
        transactions,
        transaction_cycles,
        counts: Dict[str, int],
    ) -> _RtlRunState:
        """Rewind the core to a captured mid-run payload.

        *transactions*/*transaction_cycles*/*counts* are the run's prefix
        observables at the capture point — for a golden-ladder rung, slices
        of the golden run's streams (see :meth:`capture_state`).  Returns
        the primed :class:`_RtlRunState`; faults must be (re)injected
        *after* the restore.  Specialisations survive the restore when their
        code page is byte-equal to the restored image (same rule as
        :meth:`reload`); pages that change are invalidated.
        """
        if self._program is None or self._mem_snapshot is None:
            raise RuntimeError("no program loaded")
        self.cells = list(payload["cells"])
        self._saved_depth = payload["saved_depth"]
        self.cwp = payload["cwp"]
        self.icc = ConditionCodes.from_bits(payload["icc"])
        self.y = payload["y"]
        self.pc = payload["pc"]
        self.npc = payload["npc"]
        self._annul_next = payload["annul"]
        for cache, saved in ((self.icache, payload["icache"]),
                             (self.dcache, payload["dcache"])):
            cache.tags = list(saved[0])
            cache.data = list(saved[1])
            cache.valid = list(saved[2])
            cache.hits = saved[3]
            cache.misses = saved[4]
        self.bus_reads = payload["bus_reads"]
        pages = {
            index: bytearray(page) for index, page in self._mem_snapshot.items()
        }
        for index, page in payload["dirty_pages"].items():
            pages[index] = bytearray(page)
        current = self.memory._pages
        for page_index in list(self._code_pages):
            if current.get(page_index) != pages.get(page_index):
                self._invalidate_code_page(page_index)
        self.memory._pages = pages
        self.transactions = list(transactions)
        for fault_state in self._array_states.values():
            fault_state.last_read = 0
        state = _RtlRunState(self.detailed_trace)
        state.cycles, state.executed = payload["run"]
        self.cycle = state.cycles
        state.counts = dict(counts)
        state.transaction_cycles = list(transaction_cycles)
        state.stamped = len(state.transaction_cycles)
        return state

    # -- register file ------------------------------------------------------------

    def _rf_read(self, reg: int) -> int:
        if reg == 0:
            return 0
        # Inlined physical_register_index (repro.leon3.regfile) — the mapping
        # must match the reference register file bit for bit.  For outs
        # (8..15) the offset (reg - 8) + 8 collapses to reg; for locals and
        # ins (16..31) it collapses to reg - 16.
        cwp = self.cwp
        if reg < NUM_GLOBALS:
            phys = reg
        elif reg <= 15:
            phys = NUM_GLOBALS + ((cwp + 1) % self.nwindows) * WINDOW_REGS + reg
        else:
            phys = NUM_GLOBALS + cwp * WINDOW_REGS + reg - 16
        value = self.cells[phys]
        state = self._rf_fault
        if state is not None:
            value = state.read(phys, value)
        return value

    def _rf_write(self, reg: int, value: int) -> None:
        if reg == 0:
            return
        cwp = self.cwp
        if reg < NUM_GLOBALS:
            phys = reg
        elif reg <= 15:
            phys = NUM_GLOBALS + ((cwp + 1) % self.nwindows) * WINDOW_REGS + reg
        else:
            phys = NUM_GLOBALS + cwp * WINDOW_REGS + reg - 16
        self.cells[phys] = value & _U32

    # -- data cache ---------------------------------------------------------------

    def _dcache_load(self, address: int, size: int) -> int:
        word = self.dcache.read_word(address)
        if size == 4:
            return word
        offset = address & 0x3
        if size == 2:
            shift = (2 - offset) * 8 if offset in (0, 2) else 0
            return (word >> shift) & 0xFFFF
        return (word >> ((3 - offset) * 8)) & 0xFF

    def _dcache_store(self, address: int, value: int, size: int) -> None:
        if size == 4:
            self.dcache.write_word(address, value)
            return
        aligned = address & ~0x3
        current = self.memory.read_word(aligned)
        offset = address & 0x3
        if size == 2:
            shift = (2 - offset) * 8
            mask = 0xFFFF << shift
            merged = (current & ~mask) | ((value & 0xFFFF) << shift)
        else:
            shift = (3 - offset) * 8
            mask = 0xFF << shift
            merged = (current & ~mask) | ((value & 0xFF) << shift)
        self.dcache.write_word(aligned, merged)

    # -- decode specialisation ----------------------------------------------------

    def _build_op(self, pc: int, word: int) -> _FastOp:
        """Specialise *word* at *pc* through the reference decode stage.

        Runs the reference fetch-latch drive and decode stage (the executable
        spec, trapping exactly where it traps) on the reference netlist, which
        carries any word-determined net faults.  Those nets are first put
        back to their post-reset values so an open line reads the bit it
        latched at reset.
        """
        netlist = self._ref.netlist
        for name, value in self._word_nets_at_reset.items():
            netlist.net(name).value = value
        decoded = self._ref.iu._decode_stage(netlist.drive("iu.fe.inst", word))
        op = _FastOp(
            pc, word, self.memory, decoded["defn"], decoded.get("rd", 0),
            decoded.get("rs1", 0), decoded.get("rs2", 0), decoded.get("imm"),
            decoded.get("cond"), decoded.get("annul", False),
            decoded.get("disp", 0),
        )
        self._op_cache[pc] = op
        self._code_pages.setdefault(pc >> PAGE_SHIFT, set()).add(pc)
        self.decode_fills += 1
        return op

    # -- execution ----------------------------------------------------------------

    def run(self, max_instructions: int = 200_000) -> RtlExecutionResult:
        """Run until the program exits (``ta 0``), traps or exhausts the budget.

        Delegates to the embedded reference core when the active faults
        include a data-path or CMEM net, or a transient net fault (see the
        module docstring); otherwise executes the flattened fast engine.
        """
        if self._program is None:
            raise RuntimeError("no program loaded")
        if self._fallback:
            # Data-path net faults need the netlist walk.  Replay the canonical
            # backend order on the reference core — reset *then* inject — so
            # the reset-time state writes (%sp, PSR) are driven fault-free,
            # exactly as they are when the reference core is used directly.
            ref = self._ref
            active = ref.netlist.active_faults()
            ref.clear_faults()
            ref.reload()
            ref.inject(active)
            return ref.run(max_instructions=max_instructions)

        state = self.begin_run()
        self.run_segment(state, max_instructions)
        return self.finish_run(state)

    def begin_run(self) -> _RtlRunState:
        """Open a fresh segmented run (see :meth:`run_segment`).

        The caller must have put the core in its canonical pre-run state
        first (``clear_faults``/``reload`` — or ``restore_state`` for a
        checkpoint fork, which primes and returns the state itself).
        """
        if self._program is None:
            raise RuntimeError("no program loaded")
        if self._fallback:
            raise RuntimeError(
                "segmented runs require faults the fast engine applies "
                "(data-path net faults delegate to the reference core)"
            )
        return _RtlRunState(self.detailed_trace)

    def run_segment(self, state: _RtlRunState, budget: int) -> None:
        """Execute up to *budget* more instructions of the run held by *state*.

        Stops early when the program halts (exit/trap); a segment that
        returns with ``state.halted`` still False simply paused at the
        instruction boundary, and the run continues bit-identically when the
        method is called again on the same state — this is the substrate of
        the checkpointed transient runtime.
        """
        detailed = self.detailed_trace
        trace = state.trace
        transactions = self.transactions
        transaction_cycles = state.transaction_cycles
        stamped = state.stamped
        counts = state.counts
        counts_get = counts.get
        op_cache_get = self._op_cache.get
        icache = self.icache
        dcache = self.dcache
        cycles = state.cycles
        executed = 0
        halted = False
        exit_code: Optional[int] = None
        trap_kind: Optional[str] = None
        # At a segment boundary every raised miss has already been charged,
        # so recomputing the watermark equals carrying it over.
        misses_before = icache.misses + dcache.misses
        # Fetch fast path: with no fault hooks on the instruction cache the
        # probe inlines to plain list indexing (invalidate()/reset() rebind
        # the lists, but both happen strictly before run()).
        ic_plain = (
            icache.tag_fault is None
            and icache.data_fault is None
            and icache.valid_fault is None
        )
        ic_valid = icache.valid
        ic_tags = icache.tags
        ic_data = icache.data
        ic_index_shift = icache.index_shift
        ic_tag_shift = icache.tag_shift
        ic_lines_mask = icache.lines - 1
        ic_wpl = icache.words_per_line
        ic_wpl_mask = ic_wpl - 1

        while executed < budget:
            self.cycle = cycles
            if self._annul_next:
                # Annulled delay slot: skipped without executing, recording
                # or consuming instruction budget.
                self._annul_next = False
                self.pc = self.npc
                self.npc = (self.npc + 4) & _U32
                continue
            pc = self.pc
            try:
                if pc & 3:
                    raise IuTrap("memory", f"misaligned fetch at {pc:#010x}")
                if ic_plain:
                    index = (pc >> ic_index_shift) & ic_lines_mask
                    tag = (pc >> ic_tag_shift) & 0x3FFFFF
                    if ic_valid[index] and ic_tags[index] == tag:
                        icache.hits += 1
                    else:
                        icache.misses += 1
                        icache._fill(index, tag, pc & ~0x3)
                    word = ic_data[index * ic_wpl + ((pc >> 2) & ic_wpl_mask)]
                else:
                    word = icache.read_word(pc)
                op = op_cache_get(pc)
                if op is None or op.word != word:
                    op = self._build_op(pc, word)
                outcome = op.handler(self, op)
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
            cycles += op.latency
            misses_now = icache.misses + dcache.misses
            if misses_now != misses_before:
                cycles += (misses_now - misses_before) * MISS_PENALTY
                misses_before = misses_now
            if detailed:
                if op.trace_instr is not None:
                    trace.record(op.trace_instr, pc, cycles)
            else:
                mnemonic = op.trace_mnemonic
                if mnemonic is not None:
                    counts[mnemonic] = counts_get(mnemonic, 0) + 1
            tl = len(transactions)
            while stamped < tl:
                transaction_cycles.append(cycles)
                stamped += 1

            if outcome is None:
                self.pc = self.npc
                self.npc = (self.npc + 4) & _U32
            elif type(outcome) is tuple:
                self.pc = self.npc
                self.npc = outcome[0]
                self._annul_next = outcome[1]
            else:
                halted = True
                exit_code = outcome
                break

        state.cycles = cycles
        state.executed += executed
        state.stamped = stamped
        state.halted = halted
        state.exit_code = exit_code
        state.trap_kind = trap_kind

    def finish_run(self, state: _RtlRunState) -> RtlExecutionResult:
        """Fold the deferred trace tally and package the finished run."""
        trace = state.trace
        trace.record_counts(state.counts)
        return RtlExecutionResult(
            transactions=list(self.transactions),
            transaction_cycles=list(state.transaction_cycles),
            trace=trace,
            instructions=state.executed,
            cycles=state.cycles,
            halted=state.halted,
            exit_code=state.exit_code,
            trap_kind=state.trap_kind,
            icache_misses=self.icache.misses,
            dcache_misses=self.dcache.misses,
            faults=self._ref.netlist.active_faults(),
        )


# ---------------------------------------------------------------------------
# Bit-identity verification (shared by tests and the throughput benchmark).
# ---------------------------------------------------------------------------


def run_program_fast_rtl(
    program, max_instructions: int = 200_000, **kwargs
) -> RtlExecutionResult:
    """Convenience helper: build a fast core, load *program*, run fault-free."""
    core = Leon3FastCore(**kwargs)
    core.load_program(program)
    return core.run(max_instructions=max_instructions)


def _cache_state(cache) -> dict:
    if isinstance(cache, _FastCache):
        return {
            "tags": list(cache.tags),
            "data": list(cache.data),
            "valid": list(cache.valid),
            "hits": cache.hits,
            "misses": cache.misses,
        }
    return {
        "tags": list(cache._tags._data),
        "data": list(cache._data._data),
        "valid": list(cache._valid._data),
        "hits": cache.hits,
        "misses": cache.misses,
    }


def _core_state(core) -> dict:
    """Final architectural state of either core flavour, for comparison."""
    if isinstance(core, Leon3FastCore):
        if core._fallback:
            return _core_state(core._ref)
        return {
            "cells": list(core.cells),
            "saved_depth": core._saved_depth,
            "cwp": core.cwp,
            "icc": core.icc.as_bits(),
            "y": core.y,
            "pc": core.pc & _U32,
            "npc": core.npc & _U32,
            "icache": _cache_state(core.icache),
            "dcache": _cache_state(core.dcache),
            "memory": {
                index: bytes(page) for index, page in core.memory._pages.items()
            },
            "bus_reads": core.bus_reads,
        }
    return {
        "cells": list(core.regfile._cells._data),
        "saved_depth": core.regfile._saved_depth,
        "cwp": core.psr.read_cwp(),
        "icc": core.netlist.sample("psr.icc"),
        "y": core.psr.read_y(),
        "pc": core.pc & _U32,
        "npc": core.npc & _U32,
        "icache": _cache_state(core.cmem.icache),
        "dcache": _cache_state(core.cmem.dcache),
        "memory": {
            index: bytes(page) for index, page in core.memory._pages.items()
        },
        "bus_reads": core.bus.read_count,
    }


def assert_rtl_results_identical(
    reference_core, reference: RtlExecutionResult, fast_core, fast: RtlExecutionResult
) -> None:
    """Assert two finished RTL runs match on every observable of the contract.

    The single definition of the comparison set — ``tests/test_fastcore.py``
    and ``benchmarks/bench_rtl_throughput.py`` both call it, so the contract
    cannot drift.  Raises :class:`AssertionError` naming the first divergent
    observable.
    """
    assert fast.transactions == reference.transactions, "transaction streams diverge"
    assert fast.transaction_cycles == reference.transaction_cycles, (
        "transaction cycle stamps diverge"
    )
    assert fast.trace == reference.trace, "trace statistics diverge"
    assert fast.instructions == reference.instructions, "instruction counts diverge"
    assert fast.cycles == reference.cycles, "cycle counts diverge"
    assert fast.halted == reference.halted, "halt status diverges"
    assert fast.exit_code == reference.exit_code, "exit codes diverge"
    assert fast.trap_kind == reference.trap_kind, "trap kinds diverge"
    assert fast.icache_misses == reference.icache_misses, "icache misses diverge"
    assert fast.dcache_misses == reference.dcache_misses, "dcache misses diverge"
    assert fast.faults == reference.faults, "active fault lists diverge"
    assert _core_state(fast_core) == _core_state(reference_core), (
        "final architectural state diverges"
    )


def verify_rtl_bit_identity(
    program,
    faults=(),
    max_instructions: int = 200_000,
    detailed_trace: bool = False,
    **core_kwargs,
):
    """Run *program* on both cores and assert every observable matches.

    *faults* are injected into both (fresh) cores.  Raises
    :class:`AssertionError` on the first divergence; returns the
    ``(reference, fast)`` result pair for further inspection.
    """
    fault_list = list(faults)

    reference_core = Leon3Core(detailed_trace=detailed_trace, **core_kwargs)
    reference_core.load_program(program)
    if fault_list:
        reference_core.inject(fault_list)
    reference = reference_core.run(max_instructions=max_instructions)

    fast_core = Leon3FastCore(detailed_trace=detailed_trace, **core_kwargs)
    fast_core.load_program(program)
    if fault_list:
        fast_core.inject(fault_list)
    fast = fast_core.run(max_instructions=max_instructions)

    assert_rtl_results_identical(reference_core, reference, fast_core, fast)
    return reference, fast
