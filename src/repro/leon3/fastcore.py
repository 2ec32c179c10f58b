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
  functions is precompiled into one handler per mnemonic (resolved once per
  decoded word, exactly like the ISS handler table).  A handler performs the
  architectural work of all seven stages in one flat function, preserving
  the reference's order of register-file and cache-array accesses (which is
  observable under array faults through the open-line "previous value"
  rule).  The ALU and multiply/divide handlers are generated at import from
  the semantics table the ISS fast path shares (:mod:`repro.isa.semantics`).
  Handlers serve the per-instruction loop; compiled blocks inline every row
  of that table instead (below).

* **Per-PC op cache** — each instruction word is decoded once per PC by
  the reference decode stage (the executable spec, so decode needs no second
  copy) and specialised into a :class:`_FastOp` with operands pre-extracted
  and branch/call targets pre-resolved; without word-net faults the ops are
  shared process-wide (:data:`_OP_MEMO`).  A cached op is validated against
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

* **Block path** — fault-free straight-line code runs as compiled blocks,
  one generated Python function per (entry PC, CWP) translated from the
  core's own ops, as the ISS fast path does (:mod:`repro.iss.fastpath`).  A
  block runs up to a CTI plus its delay slot, at most :data:`_BLOCK_CAP`
  instructions, and ends before ``ticc``, an op without semantics, a word
  that does not decode, and an op built from a word other than the memory
  image's.  No instruction calls its handler: ALU, product and quotient rows
  are inlined (a zero divisor raises from ``//`` before any write), and a
  store writes the memory word into its page (an absent page takes
  ``Memory.write_word``).  Register operands are cell-list accesses at
  physical indices resolved at translation; the instruction-cache probe is
  inlined once per line with constant index and tag, and a hit checks that
  the line holds the block's words (a stale line steps singly); latency is a
  constant per instruction, while miss penalties, transaction stamps,
  hit/miss counters and refills stay exact.  Each exit returns how many instructions
  completed, and the run adds that prefix's mnemonic histogram once per
  distinct exit.

  *Entry conditions:* no pending annul, ``npc == pc + 4``, an aggregate
  trace and the whole block inside the segment's budget, so checkpoint
  slices, watchdog boundaries and traps stop on the same instruction as
  stepping.  *Hooks* (:meth:`_block_mode`): a register-file watch, or
  open-line fault, enters *hooked* blocks that route every register read
  through the hook in reference order.  Every other hook but a cache-array
  transient enters the plain blocks whose static footprint (the register
  cells they read, the instruction-cache lines and data cells they fetch,
  any data-cache access) misses its cells, or that run wholly outside a
  register-file transient's window.  After each block the instruction-cache arrays a watch or open
  line reads get the ``last_read`` the reference's last fetch left; with
  such a hook on the tag or valid array a block is entered only when every
  line it probes is resident, so that value is static.

  *Invalidation and memo:* blocks are dropped with the ops of their code
  pages (a store there, a ``reload``/``restore_state`` page change, a change
  of word-net faults), and a store to a code page ends the running block
  right after it; :meth:`clear_faults` drops the blocks a faulted fetch cut
  short, with the op it left.  Compiled blocks are shared process-wide,
  keyed by entry PC, CWP, window count, flavour, cache geometry and every
  op's word and decode fields, so word-net-faulted ops never share a block
  with clean ones.  Compiling a block (parsing its generated source) costs about what
  a hundred runs of it save, so a block not in the memo compiles on the
  :data:`_COMPILE_AFTER`-th entry of its key, counted process-wide, and
  translation is tried only where straight-line code starts (a segment's
  first instruction, a block exit, a branch target); cold code steps.
  Invariants in ``docs/determinism.md``.

The contract — enforced by ``tests/test_fastcore.py`` and re-verified by
``benchmarks/throughput.py rtl`` before it reports any number — is
**bit-identity with the reference core on every observable**: off-core
transaction stream and cycle stamps, trace statistics, instruction and cycle
counts, halt/exit/trap status, cache miss counters, and the final
architectural state (register cells, window depth, PSR, Y, caches, memory
image), fault-free and under injected faults.
"""

from __future__ import annotations

import hashlib
from array import array
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.isa import semantics
from repro.isa.ccodes import ConditionCodes, evaluate_condition
from repro.isa.decoder import DecodeError, decode_cached
from repro.isa.encoding import to_u32
from repro.isa.instructions import INSTRUCTION_SET, InstructionCategory
from repro.isa.registers import NUM_GLOBALS, WINDOW_REGS, RegisterWindowError
from repro.iss.memory import (
    PAGE_MASK,
    PAGE_SHIFT,
    Memory,
    MemoryError_,
    page_read_source,
    page_write_source,
)
from repro.iss.trace import ExecutionTrace, OffCoreTransaction
from repro.leon3.core import (
    DEFAULT_STACK_TOP,
    MISS_PENALTY,
    Leon3Core,
    RtlExecutionResult,
)
from repro.leon3.iu import IO_BASE, IuTrap
from repro.rtl.faults import CellReads, FaultModel, PermanentFault, TransientFault
from repro.rtl.sites import FaultSite

_U32 = 0xFFFFFFFF
_MASK = semantics.MASK

#: End of a permanent fault's activity window, for the block guards.
_FOREVER = 1 << 62

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
    branch condition.  ``from_memory`` says whether the fetched word equals
    the memory image's, which holds while the op is cached (a store to its
    page drops it); only such ops enter blocks.  ``key`` is everything a
    block's code depends on in the op (its part of the block memo key).
    """

    __slots__ = (
        "word", "mnemonic", "handler", "latency", "rd", "rs1", "rs2",
        "use_imm", "imm_u32", "sets_icc", "access_size", "sign_extend_load",
        "writes_memory", "cond", "annul", "annul_taken", "target", "value",
        "trace_instr", "trace_defn", "trace_mnemonic", "from_memory", "key",
    )

    def __init__(
        self, pc: int, word: int, memory_word: int, defn, rd: int, rs1: int,
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
        self.writes_memory = defn.writes_memory
        self.cond = self.annul = self.target = self.value = None
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
            traced = decode_cached(memory_word)
        except DecodeError:
            self.trace_instr = None
            self.trace_defn = None
            self.trace_mnemonic = None
        else:
            self.trace_instr = traced
            self.trace_defn = traced.defn
            self.trace_mnemonic = traced.defn.mnemonic
        self.from_memory = memory_word == word
        self.key = (
            word, self.handler, self.latency, rd, rs1, rs2, imm, self.sets_icc,
            self.access_size, self.sign_extend_load, self.cond, self.annul,
            self.target, self.value, self.trace_mnemonic,
        )


#: Process-wide memo of the ops built with no word-net fault active, keyed by
#: (pc, fetched word, memory word at pc): everything such an op depends on.
_OP_MEMO: Dict[Tuple[int, int, int], _FastOp] = {}


# ---------------------------------------------------------------------------
# Handlers.
#
# One flat function per mnemonic (per ``alu_base`` for the ALU), signature
# ``handler(core, op)``.  Return value protocol:
#   * ``None``              — fall through to the sequential pc/npc advance,
#   * ``(target, annul)``   — delayed control transfer,
#   * ``int``               — exit code of the ``ta 0`` convention.
# Traps raise (IuTrap / RegisterWindowError / MemoryError_ /
# ZeroDivisionError), mirroring the exception set the reference run loop
# catches.  The ALU and multiply/divide handlers are generated from the
# semantics table (:mod:`repro.isa.semantics`) the block compiler inlines
# too; the rest are written out here.  Each preserves the reference
# pipeline's order of register-file and cache-array accesses — observable
# under array faults — and the reference core stays the specification they
# are tested against.
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


def _h_unimplemented(core, op):
    raise IuTrap("illegal_instruction", f"no semantics for {op.mnemonic}")


# -- generated handlers -----------------------------------------------------
#
# Each reads rs1 then operand 2, sets the condition codes before its
# register write, and ``umul``/``smul`` write Y first, as the reference
# pipeline does (register access, execute, write-back).

_ARITHMETIC_SOURCE = """\
def _h_{name}(core, op):
    a = core._rf_read(op.rs1)
    b = op.imm_u32 if op.use_imm else core._rf_read(op.rs2)
    {compute}
    if op.sets_icc:
        {icc}
        core.icc = CC(y >> 31, 0 if y else 1, v, c)
    core._rf_write(op.rd, y)
"""

_ALU_HANDLERS: Dict[str, Callable] = semantics.compile_handlers(
    _ARITHMETIC_SOURCE,
    semantics.arithmetic_rows(carry="core.icc.c", y_register="core.y"),
    {"__name__": __name__, "CC": ConditionCodes},
)
_h_addx, _h_subx = _ALU_HANDLERS["addx"], _ALU_HANDLERS["subx"]


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


# ---------------------------------------------------------------------------
# Block translation.
#
# A block compiles into one function
# ``block(core, rf, iv, it, idat, cy, tc) -> ran`` specialised for its entry
# PC and CWP: *rf* is the register-cell list, *iv*/*it*/*idat* the
# instruction cache's valid/tag/data lists, *cy* the cycle count at entry and
# *tc* the run's transaction cycle stamps.  Register operands are ``rf[K]`` at
# physical indices resolved here (``h(K, rf[K])`` in a hooked block, which
# routes every read through the register file's hook in reference order);
# the condition codes are the locals n/z/v/c.  ``cy`` gains the miss
# penalties as they happen; the latencies are constants added where a cycle
# count is observed (stamps, exits).  Every exit stores pc/npc (and a pending
# annul), the cycle count in ``core.cycle``, and returns how many
# instructions completed.  An instruction that may raise first records its
# pc/npc and the cycle count before it in k/kn/kc; the ``except`` clause
# stores them, so the caller sees the per-instruction loop's paused state.
#
# Instruction fetch: the first fetch of each cache line probes it with
# constant index and tag.  On a hit the block checks that the line holds the
# words it was translated from, and otherwise exits before that instruction
# (a stale line steps singly).  On a miss the refill reads memory, which
# holds exactly those words: a store to any page a block covers drops it.
# Every fetch counts as a hit at the exit (the caller adds ``ran``, plus the
# trapping instruction's fetch), and a miss takes one back.
# ---------------------------------------------------------------------------

#: Longest block, delay slot included.
_BLOCK_CAP = 32

_CTI_HANDLERS = frozenset({_h_branch, _h_call, _h_jmpl})

#: Inlined ALU results and ``cc`` V/C updates (:mod:`repro.isa.semantics`),
#: keyed by handler.
_ALU_RESULTS = {
    _ALU_HANDLERS[base]: result for base, result in semantics.ALU_RESULTS.items()
}
_ICC_UPDATES = {
    _ALU_HANDLERS[base]: update for base, update in semantics.ICC_UPDATES.items()
}

#: Inlined product and quotient rows (``compute`` and ``icc`` statements over
#: the locals a/b, the block's carry ``c`` and Y), keyed by handler.
_WIDE_ROWS = {
    _ALU_HANDLERS[base]: row
    for base, row in semantics.arithmetic_rows(carry="c", y_register="core.y").items()
    if base in semantics.PRODUCTS or base in semantics.QUOTIENTS
}

_MEMORY_HANDLERS = frozenset({_h_load, _h_store, _h_ldd, _h_std})

#: Handlers whose instruction may trap (a quotient on a zero divisor).
_RAISING_HANDLERS = (
    _MEMORY_HANDLERS | {_h_jmpl, _h_save, _h_restore}
    | {_ALU_HANDLERS[base] for base in semantics.QUOTIENTS}
)

#: Every handler a block may contain.  Anything else — ``ticc``, an ALU op
#: without semantics — ends the block before it.
_BLOCK_HANDLERS = (
    _CTI_HANDLERS | _MEMORY_HANDLERS | set(_ALU_RESULTS) | set(_WIDE_ROWS)
    | {_h_sethi, _h_save, _h_restore, _h_rd, _h_wr}
)

#: The one globals dict every compiled block shares.  ``new(OCT, fields)``
#: builds a transaction without the Python-level tuple constructor.
_BLOCK_GLOBALS: Dict[str, object] = {
    "CC": ConditionCodes,
    "OCT": OffCoreTransaction,
    "new": tuple.__new__,
    "fb": int.from_bytes,
    "IuTrap": IuTrap,
    "RegisterWindowError": RegisterWindowError,
}

#: Exceptions an instruction raises to trap the run, and the trap kind each
#: reports.
_TRAP_KINDS = (
    (RegisterWindowError, "window"),
    (MemoryError_, "memory"),
    (ZeroDivisionError, "division_by_zero"),
)
_TRAP_ERRORS = (IuTrap,) + tuple(error for error, _ in _TRAP_KINDS)


def _trap_kind(exc: BaseException) -> str:
    """The trap kind the reference core reports for *exc*, one of
    :data:`_TRAP_ERRORS`."""
    if isinstance(exc, IuTrap):
        return exc.kind
    return next(kind for error, kind in _TRAP_KINDS if isinstance(exc, error))


def _physical(reg: int, cwp: int, nwindows: int) -> int:
    """Physical register cell of *reg* in window *cwp* (as :meth:`_rf_read`)."""
    if reg < NUM_GLOBALS:
        return reg
    if reg <= 15:
        return NUM_GLOBALS + ((cwp + 1) % nwindows) * WINDOW_REGS + reg
    return NUM_GLOBALS + cwp * WINDOW_REGS + reg - 16


#: Index into ``_RtlBlock.footprint`` of the cells each hookable storage
#: array's reads inside a block can touch.
_FOOTPRINT = {
    "rf.cells": 0,
    "icache.tags": 1, "icache.valid": 1,
    "icache.data": 2,
    "dcache.tags": 3, "dcache.valid": 3, "dcache.data": 3,
}


class _RtlBlock:
    """One compiled block: its function, length, per-exit histograms, its
    static footprint in the storage arrays and a bound on the cycles it spans.

    ``footprint`` holds, indexed as :data:`_FOOTPRINT`, the register cells
    the block's instructions read, the
    instruction-cache lines its fetches look up, the instruction-cache data
    cells they read, and every data-cache cell when it accesses the data
    cache at all (its addresses are not static): a fault or watch on another
    cell cannot act inside it.  ``probes`` are the (line, tag) pairs of its
    line probes.  ``fetched`` maps each instruction-cache array to the value
    each instruction's fetch reads from it when every probe hits (the op's
    word, its line's tag, valid); after a block, that value is the array's
    ``last_read``.  ``max_cycles`` counts every latency and a miss penalty
    per line probe and data-cache access.
    """

    __slots__ = ("run", "length", "mnemonics", "_histograms", "footprint",
                 "probes", "fetched", "max_cycles", "stores")

    def __init__(self, run: Callable, ops: List[_FastOp],
                 compiler: "_RtlBlockCompiler"):
        self.run = run
        self.length = len(ops)
        self.mnemonics = tuple(op.trace_mnemonic for op in ops)
        self._histograms: Dict[int, List[Tuple[str, int]]] = {}
        dcache = compiler.dcache
        self.footprint = (
            frozenset(compiler.reads),
            frozenset(line for line, _ in compiler.probed),
            frozenset(cell for cells, _ in compiler.probes.values() for cell in cells),
            range(dcache.lines * dcache.words_per_line if "dcache" in compiler.uses
                  else 0),
        )
        self.probes = tuple(compiler.probed)
        self.fetched = {
            "icache.data": tuple(op.word for op in ops),
            "icache.tags": tuple(compiler.fetch_tags),
            "icache.valid": (1,) * len(ops),
        }
        accesses = sum(
            (2 if op.access_size == 8 else 1)
            for op in ops if op.handler in _MEMORY_HANDLERS
        )
        self.stores = any(op.writes_memory for op in ops)
        self.max_cycles = (
            sum(op.latency for op in ops)
            + (len(self.probes) + accesses) * MISS_PENALTY
        )

    def histogram(self, ran: int) -> List[Tuple[str, int]]:
        """Trace-mnemonic counts of the first *ran* instructions, in
        first-execution order (built on the first exit at that length)."""
        histogram = self._histograms.get(ran)
        if histogram is None:
            counts: Dict[str, int] = {}
            for mnemonic in self.mnemonics[:ran]:
                if mnemonic is not None:
                    counts[mnemonic] = counts.get(mnemonic, 0) + 1
            histogram = self._histograms[ran] = list(counts.items())
        return histogram


#: Process-wide memo: (pc, cwp, nwindows, hooked, cache geometry, op keys)
#: -> compiled block.
_BLOCK_MEMO: Dict[tuple, _RtlBlock] = {}

#: Entries so far of each memo key not compiled yet, as a one-item list
#: every pending entry of that key shares (see ``Leon3FastCore._visit``).
_BLOCK_HEAT: Dict[tuple, List[int]] = {}

#: Entries a new block's key must see before it is compiled.
_COMPILE_AFTER = 128

#: ``Leon3FastCore._blocks`` lookup default for a PC not translated yet
#: (``None`` records that no block starts there).
_UNTRANSLATED = object()

#: ``Leon3FastCore._mode`` until the hooks' block mode is computed.
_UNSET = object()


class _Pending:
    """A translated block not compiled yet: its memo key, its ops, and the
    entry count its key shares process-wide (see ``Leon3FastCore._visit``)."""

    __slots__ = ("key", "ops", "heat")

    def __init__(self, key: tuple, ops: List[_FastOp], heat: List[int]):
        self.key = key
        self.ops = ops
        self.heat = heat


def _plus4(npc: str) -> str:
    """Source for *npc* + 4 (mod 2**32), folded when *npc* is a constant."""
    if npc == "nn":
        return f"(nn + 4) & {_MASK}"
    return f"{(int(npc) + 4) & _U32}"


class _RtlBlockCompiler:
    """Generates the source of one block's function (see the section note)."""

    def __init__(self, core: "Leon3FastCore", ops: List[_FastOp], pc: int,
                 hooked: bool):
        self.nwindows = core.nwindows
        self.cwp = core.cwp
        self.hooked = hooked
        self.icache = core.icache
        self.dcache = core.dcache
        self.lines: List[str] = []
        self.indent = "            "
        #: The word lists of long line checks, closure constants W0, W1, ...
        self.constants: List[List[int]] = []
        self.writes_icc = any(op.sets_icc for op in ops)
        self.touches_icc = self.writes_icc
        self.raises = False
        self.uses: Set[str] = set()
        self.reads: Set[int] = set()
        self.temps = 0
        #: Latency of the instructions completed so far on the emitted path.
        self.lat = 0
        #: Line-first instruction index -> (cells, words) the probe checks.
        self.probes: Dict[int, Tuple[List[int], List[int]]] = {}
        #: (line, tag) of each probe, and the tag of each instruction's line.
        self.probed: List[Tuple[int, int]] = []
        self.fetch_tags: List[int] = []
        icache = self.icache
        line = None
        for index, op in enumerate(ops):
            at = pc + 4 * index
            tag = (at >> icache.tag_shift) & 0x3FFFFF
            self.fetch_tags.append(tag)
            if at // icache.line_bytes != line:
                line = at // icache.line_bytes
                first = index
                self.probes[first] = ([], [])
                self.probed.append(((at >> icache.index_shift) & (icache.lines - 1), tag))
            cells, words = self.probes[first]
            cells.append(self._icache_cell(at))
            words.append(op.word)
        for index, op in enumerate(ops):
            at = pc + 4 * index
            if op.handler in _CTI_HANDLERS:
                self._cti(op, index, at,
                          ops[index + 1] if index + 1 < len(ops) else None)
                break
            self._instruction(op, index, at, f"{at + 4}")
        else:
            end = pc + 4 * len(ops)
            self._exit(f"{end}", f"{end + 4}", len(ops))

    # -- operands ----------------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append(self.indent + line)

    def _icache_cell(self, at: int) -> int:
        icache = self.icache
        index = (at >> icache.index_shift) & (icache.lines - 1)
        return index * icache.words_per_line + ((at >> 2) & (icache.words_per_line - 1))

    def read(self, reg: int) -> str:
        if reg == 0:
            return "0"
        phys = _physical(reg, self.cwp, self.nwindows)
        self.reads.add(phys)
        if not self.hooked:
            return f"rf[{phys}]"
        self.temps += 1
        self.emit(f"r{self.temps} = h({phys}, rf[{phys}])")
        return f"r{self.temps}"

    def write(self, reg: int, value: str) -> None:
        if reg:
            self.emit(f"rf[{_physical(reg, self.cwp, self.nwindows)}] = {value}")

    def operands(self, op: _FastOp) -> Tuple[str, str]:
        """rs1 and operand 2, read in the handlers' order."""
        first = self.read(op.rs1)
        return first, (str(op.imm_u32) if op.use_imm else self.read(op.rs2))

    def address(self, first: str, second: str) -> str:
        """*first* + *second* (mod 2**32), folding a zero addend away."""
        if second == "0":
            return first
        if first == "0":
            return second
        return f"({first} + {second}) & {_MASK}"

    def stamp(self, count: int = 1) -> None:
        """Stamp *count* transactions with the cycle count after this
        instruction (its latency is already in ``self.lat``)."""
        for _ in range(count):
            self.emit(f"tc.append(cy + {self.lat})")

    # -- control -----------------------------------------------------------

    def _exit(self, pc: str, npc: str, ran: int, annul: bool = False) -> None:
        if self.writes_icc:
            self.emit("core.icc = CC(n, z, v, c)")
        self.emit(f"core.pc = {pc}; core.npc = {npc}")
        if annul:
            self.emit("core._annul_next = True")
        self.emit(f"core.cycle = cy + {self.lat}")
        self.emit(f"return {ran}")

    def _fetch(self, index: int, at: int, npc: str) -> None:
        """The instruction-cache fetch of instruction *index* (see the
        section note); only the first fetch of a line probes."""
        probe = self.probes.get(index)
        if probe is None:
            return
        icache = self.icache
        line = (at >> icache.index_shift) & (icache.lines - 1)
        tag = (at >> icache.tag_shift) & 0x3FFFFF
        cells, words = probe
        if len(cells) > 2:
            name = f"W{len(self.constants)}"
            self.constants.append(words)
            stale = f"idat[{cells[0]}:{cells[-1] + 1}] != {name}"
        else:
            stale = " or ".join(
                f"idat[{cell}] != {word}" for cell, word in zip(cells, words)
            )
        self.emit(f"if iv[{line}] and it[{line}] == {tag}:")
        self.indent += "    "
        self.emit(f"if {stale}:")
        self.indent += "    "
        self._exit(f"{at}", npc, index)
        self.indent = self.indent[:-8]
        self.emit("else:")
        self.emit(f"    ic = core.icache; ic.misses += 1; ic.hits -= 1; "
                  f"cy += {MISS_PENALTY}; ic._fill({line}, {tag}, {at})")

    def _cti(self, op: _FastOp, index: int, at: int,
             slot: Optional[_FastOp]) -> None:
        handler = op.handler
        if handler is _h_jmpl:
            self.may_raise(at, f"{at + 4}")
        self._fetch(index, at, f"{at + 4}")
        if handler is _h_branch:
            self.lat += op.latency
            cond = op.cond
            target = op.target
            if op.annul and cond & 7 == 0:
                # ba,a annuls its slot when taken, bn,a always does.
                npc = target if cond == 8 else at + 8
                self._exit(f"{at + 4}", f"{npc}", index + 1, annul=True)
                return
            if op.annul:
                self.touches_icc = True
                condition = semantics.CONDITIONS[cond & 7]
                self.emit(f"if not {condition}:" if cond & 8 else f"if {condition}:")
                self.indent += "    "
                lat, cwp = self.lat, self.cwp
                self._instruction(slot, index + 1, at + 4, f"{target}")
                self._exit(f"{target}", _plus4(f"{target}"), index + 2)
                self.lat, self.cwp = lat, cwp
                self.indent = self.indent[:-4]
                self._exit(f"{at + 4}", f"{at + 8}", index + 1, annul=True)
                return
            if cond == 8:
                npc = f"{target}"
            elif cond == 0:
                npc = f"{at + 8}"
            else:
                self.touches_icc = True
                condition = semantics.CONDITIONS[cond & 7]
                if cond & 8:
                    condition = f"not {condition}"
                self.emit(f"nn = {target} if {condition} else {at + 8}")
                npc = "nn"
        elif handler is _h_call:
            self.lat += op.latency
            self.write(op.rd, f"{at}")
            npc = f"{op.target}"
        else:  # jmpl
            first, second = self.operands(op)
            self.emit(f"nn = {self.address(first, second)}")
            self.emit("if nn & 3: raise IuTrap('memory', "
                      "f'misaligned jump target {nn:#010x}')")
            self.lat += op.latency
            self.write(op.rd, f"{at}")
            npc = "nn"
        self._instruction(slot, index + 1, at + 4, npc)
        self._exit(npc, _plus4(npc), index + 2)

    def may_raise(self, at: int, npc: str) -> None:
        self.raises = True
        self.emit(f"k = {at}; kn = {npc}; kc = cy + {self.lat}")

    # -- instructions ------------------------------------------------------

    def _instruction(self, op: _FastOp, index: int, at: int, npc: str) -> None:
        handler = op.handler
        if handler in _RAISING_HANDLERS:
            self.may_raise(at, npc)
        self._fetch(index, at, npc)
        emit = self.emit
        if handler in _MEMORY_HANDLERS:
            self._memory(op, index, npc)
            return
        if handler is _h_sethi:
            self.lat += op.latency
            self.write(op.rd, f"{op.value}")
            return
        first, second = self.operands(op)
        self.lat += op.latency
        if handler in _ALU_RESULTS:
            result = _ALU_RESULTS[handler]
            if handler is _h_addx or handler is _h_subx:
                self.touches_icc = True
            if not op.sets_icc:
                self.write(op.rd, result.format(a=first, b=second))
                return
            emit(f"a = {first}; b = {second}; y = {result.format(a='a', b='b')}")
            emit("n = y >> 31; z = 0 if y else 1; "
                 + _ICC_UPDATES.get(handler, "v = 0; c = 0"))
            self.write(op.rd, "y")
        elif handler in _WIDE_ROWS:
            # A zero divisor raises from ``//`` before any write.
            row = _WIDE_ROWS[handler]
            emit(f"a = {first}; b = {second}; {row['compute']}")
            if op.sets_icc:
                emit(f"n = y >> 31; z = 0 if y else 1; {row['icc']}")
            self.write(op.rd, "y")
        elif handler is _h_save or handler is _h_restore:
            emit(f"x = {self.address(first, second)}")
            if handler is _h_save:
                emit(f"if core._saved_depth >= {self.nwindows - 1}: "
                     "raise RegisterWindowError('register window overflow')")
                self.cwp = (self.cwp + 1) % self.nwindows
                emit(f"core._saved_depth += 1; core.cwp = {self.cwp}")
            else:
                emit("if core._saved_depth <= 0: "
                     "raise RegisterWindowError('register window underflow')")
                self.cwp = (self.cwp - 1) % self.nwindows
                emit(f"core._saved_depth -= 1; core.cwp = {self.cwp}")
            self.write(op.rd, "x")
        elif handler is _h_rd:
            self.write(op.rd, "core.y")
        else:  # wr
            emit(f"core.y = {first} ^ {second}")

    def _dcache_probe(self, address: str) -> None:
        """Emit the data-cache lookup of *address* into the locals i/t/hit
        (the probe and counters of :meth:`_FastCache.read_word`)."""
        dcache = self.dcache
        self.uses.add("dcache")
        self.emit(f"i = ({address} >> {dcache.index_shift}) & {dcache.lines - 1}; "
                  f"t = ({address} >> {dcache.tag_shift}) & 0x3FFFFF")

    def _dcache_read(self, address: str, into: str) -> None:
        dcache = self.dcache
        self._dcache_probe(address)
        self.emit("if dv[i] and dt[i] == t: dc.hits += 1")
        self.emit(f"else: dc.misses += 1; cy += {MISS_PENALTY}; "
                  f"dc._fill(i, t, {address})")
        self.emit(f"{into} = dd[i * {dcache.words_per_line} + "
                  f"(({address} >> 2) & {dcache.words_per_line - 1})]")

    def _dcache_write(self, address: str, value: str) -> None:
        """A word store through the write-through, no-allocate data cache
        (:meth:`_FastCache.write_word` minus the code-page check, which the
        caller emits once the instruction completes).  The memory write
        indexes the page; an absent page is allocated by the method."""
        dcache = self.dcache
        self.uses.update(("mw", "pages"))
        self.emit(f"pg = pages.get({address} >> {PAGE_SHIFT})")
        self.emit(f"if pg is None: mw({address}, {value})")
        self.emit(f"else: o = {address} & {PAGE_MASK}; "
                  f"{page_write_source(4, value)}")
        self._dcache_probe(address)
        self.emit(f"if dv[i] and dt[i] == t: dc.hits += 1; "
                  f"dd[i * {dcache.words_per_line} + "
                  f"(({address} >> 2) & {dcache.words_per_line - 1})] = {value}")
        self.emit(f"else: dc.misses += 1; cy += {MISS_PENALTY}")

    def _memory(self, op: _FastOp, index: int, npc: str) -> None:
        handler = op.handler
        emit = self.emit
        size = op.access_size
        first, second = self.operands(op)
        if handler is _h_store or handler is _h_std:
            data = self.read(op.rd)
            if handler is _h_std:
                low = self.read((op.rd & ~1) | 1)
        emit(f"a = {self.address(first, second)}")
        if size != 1:
            emit(f"if a & {size - 1}: raise IuTrap('memory', "
                 "f'misaligned access at {a:#010x}')")
        self.lat += op.latency
        self.uses.add("tx")
        if handler is _h_load:
            emit(f"if a >= {IO_BASE}:")
            emit(f"    x = 0; tx.append(new(OCT, ('io', a, 0, {size}))); "
                 f"tc.append(cy + {self.lat})")
            emit("else:")
            self.indent += "    "
            self._dcache_read("a", "x")
            if size == 2:
                emit("x = (x >> ((2 - (a & 3)) << 3)) & 0xFFFF")
            elif size == 1:
                emit("x = (x >> ((3 - (a & 3)) << 3)) & 0xFF")
            self.indent = self.indent[:-4]
            if op.sign_extend_load and size != 4:
                sign = 1 << (size * 8 - 1)
                emit(f"if x & {sign}: x = (x - {sign << 1}) & {_MASK}")
            self.write(op.rd, "x")
            return
        if handler is _h_ldd:
            self._dcache_read("a", "hi")
            emit("a4 = a + 4")
            self._dcache_read("a4", "lo")
            even = op.rd & ~1
            self.write(even, "hi")
            self.write(even | 1, "lo")
            return
        # Stores: rs1, rs2 and the data registers were read above, in the
        # handlers' order.
        emit(f"x = {data}" + {1: " & 0xFF", 2: " & 0xFFFF"}.get(size, ""))
        emit(f"if a >= {IO_BASE}:")
        self.indent += "    "
        if handler is _h_std:
            emit(f"lo = {low}")
            emit("tx.append(new(OCT, ('io', a, x, 4))); "
                 "tx.append(new(OCT, ('io', a + 4, lo, 4)))")
            self.stamp(2)
        else:
            emit(f"tx.append(new(OCT, ('io', a, x, {size})))")
            self.stamp()
        self.indent = self.indent[:-4]
        emit("else:")
        self.indent += "    "
        if handler is _h_std:
            emit(f"lo = {low}")
            self._dcache_write("a", "x")
            emit("tx.append(new(OCT, ('store', a, x, 4)))")
            emit("a4 = a + 4")
            self._dcache_write("a4", "lo")
            emit("tx.append(new(OCT, ('store', a4, lo, 4)))")
            self.stamp(2)
        else:
            if size == 4:
                self._dcache_write("a", "x")
            else:
                # Sub-word stores merge into the memory word (zero on an
                # absent page), then store it.
                self.uses.add("pages")
                mask = 0xFFFF if size == 2 else 0xFF
                emit(f"a4 = a & 0xFFFFFFFC; s = ({4 - size} - (a & 3)) << 3")
                emit(f"pg = pages.get(a4 >> {PAGE_SHIFT}); o = a4 & {PAGE_MASK}")
                emit(f"y = 0 if pg is None else {page_read_source(4)}")
                emit(f"y = (y & ~({mask} << s)) | (x << s)")
                self._dcache_write("a4", "y")
            emit(f"tx.append(new(OCT, ('store', a, x, {size})))")
            self.stamp()
        # A store into a code page drops that page's decodes and blocks —
        # possibly this one — so the block ends right after it.
        self.uses.add("cp")
        emit(f"if (a >> {PAGE_SHIFT}) in cp:")
        self.indent += "    "
        emit(f"core._invalidate_code_page(a >> {PAGE_SHIFT})")
        self._exit(npc, _plus4(npc), index + 1)
        self.indent = self.indent[:-8]

    # -- assembly ----------------------------------------------------------

    def source(self) -> str:
        uses = self.uses
        prologue = []
        if self.hooked:
            prologue.append("h = core._rf_fault.read")
        if self.touches_icc:
            prologue.append("i_ = core.icc; n = i_.n; z = i_.z; v = i_.v; c = i_.c")
        if "dcache" in uses:
            prologue.append("dc = core.dcache; dv = dc.valid; dt = dc.tags; dd = dc.data")
        if "mw" in uses:
            prologue.append("mw = core.memory.write_word")
        if "pages" in uses:
            prologue.append("pages = core.memory._pages")
        if "tx" in uses:
            prologue.append("tx = core.transactions")
        if "cp" in uses:
            prologue.append("cp = core._code_pages")
        closure = ", ".join(f"W{i}" for i in range(len(self.constants)))
        head = [f"def _make({closure}):",
                "    def _block(core, rf, iv, it, idat, cy, tc):"]
        head += ["        " + line for line in prologue]
        if not self.raises:
            # Body lines are indented for the ``try`` suite; without one they
            # move out a level.
            body = [line[4:] for line in self.lines]
        else:
            body = ["        try:"] + self.lines + [
                "        except BaseException:",
                "            core.pc = k; core.npc = kn; core.cycle = kc",
                "            raise",
            ]
            if self.writes_icc:
                body.insert(-2, "            core.icc = CC(n, z, v, c)")
        return "\n".join(head + body + ["    return _block", ""])

    def build(self) -> Callable:
        namespace: Dict[str, Callable] = {}
        exec(compile(self.source(), "<rtl-block>", "exec"), _BLOCK_GLOBALS, namespace)
        return namespace["_make"](*self.constants)


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
        #: Plain and hooked (see :meth:`_block_mode`) per-CWP maps of block
        #: entry PC -> compiled block, pending block, or ``None`` where no
        #: block starts.
        self._blocks: Tuple[List[Dict[int, Any]], ...] = tuple(
            [{} for _ in range(nwindows)] for _ in range(2)
        )
        #: Code page -> the (hooked, cwp, pc) block entries with an
        #: instruction on it.
        self._block_pages: Dict[int, Set[Tuple[int, int, int]]] = {}
        #: (hooked, cwp, pc, op pc) of the block entries cut short by an op
        #: from another fetched word (see :meth:`_block_ops`), dropped with
        #: that op by :meth:`clear_faults`.
        self._foreign: List[Tuple[int, int, int, int]] = []
        self._rf_fault: Optional[_ArrayHook] = None
        self._array_states: Dict[str, _ArrayHook] = {}
        #: :meth:`_block_mode` of the current hooks, computed on first use.
        self._mode: Any = _UNSET
        self._watching = False
        self._fallback = False
        self._word_faults = False
        self._word_nets_at_reset: Dict[str, int] = {}
        #: Decode specialisations built (one per distinct PC between
        #: invalidations) — observable for tests and diagnostics.
        self.decode_fills = 0
        #: Instructions this core ran inside compiled blocks, over all runs.
        self.block_instructions = 0

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
        self._mode = _UNSET
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
        self._mode = _UNSET
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
        self._mode = _UNSET
        self._watching = False
        self.icache.tag_fault = self.icache.data_fault = self.icache.valid_fault = None
        self.dcache.tag_fault = self.dcache.data_fault = self.dcache.valid_fault = None
        self._fallback = False
        if self._word_faults:
            # Ops built under the faults must not outlive them.
            self._word_faults = False
            self._flush_op_cache()
        # Nor may blocks a faulted fetch cut short, or the op it left.
        cache = self._op_cache
        for hooked, cwp, pc, at in self._foreign:
            self._blocks[hooked][cwp].pop(pc, None)
            op = cache.get(at)
            if op is not None and not op.from_memory:
                del cache[at]
        self._foreign.clear()

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
        """Drop every specialisation and block."""
        self._op_cache.clear()
        self._code_pages.clear()
        for flavour in self._blocks:
            for blocks in flavour:
                blocks.clear()
        self._block_pages.clear()
        self._foreign.clear()

    def _retraced(self, pc: int):
        """The instruction the trace counts at *pc* after a store rewrote
        its code page: like the reference core, the trace decodes the memory
        image after the instruction ran, so a store over its own word counts
        the word it wrote (``None`` when that does not decode)."""
        try:
            return decode_cached(self.memory.read_word(pc))
        except DecodeError:
            return None

    def _invalidate_code_page(self, page: int) -> None:
        """Drop the specialisations and blocks on *page* (a store changed
        it, or a reload/restore replaced it)."""
        cache = self._op_cache
        for cached_pc in self._code_pages.pop(page):
            cache.pop(cached_pc, None)
        blocks = self._blocks
        for hooked, cwp, block_pc in self._block_pages.pop(page, ()):
            blocks[hooked][cwp].pop(block_pc, None)

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
        # Fixed-width words: the lists' lengths are fixed by the geometry,
        # so the concatenation is injective (and far cheaper than a repr).
        for words in (
            self.cells, icache.tags, icache.data, icache.valid,
            dcache.tags, dcache.data, dcache.valid,
            (self._saved_depth, self.cwp, self.icc.as_bits(), self.y, self.pc,
             self.npc, self._annul_next, icache.hits, icache.misses,
             dcache.hits, dcache.misses, self.bus_reads, state.cycles),
        ):
            hasher.update(array("Q", words).tobytes())
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
        latched at reset.  Without word-net faults the op is a pure function
        of *pc*, *word* and the memory word at *pc*, and is shared
        process-wide through :data:`_OP_MEMO`.
        """
        memory_word = self.memory.read_word(pc)
        key = (pc, word, memory_word)
        op = None if self._word_faults else _OP_MEMO.get(key)
        if op is None:
            netlist = self._ref.netlist
            for name, value in self._word_nets_at_reset.items():
                netlist.net(name).value = value
            decoded = self._ref.iu._decode_stage(netlist.drive("iu.fe.inst", word))
            op = _FastOp(
                pc, word, memory_word, decoded["defn"], decoded.get("rd", 0),
                decoded.get("rs1", 0), decoded.get("rs2", 0), decoded.get("imm"),
                decoded.get("cond"), decoded.get("annul", False),
                decoded.get("disp", 0),
            )
            if not self._word_faults:
                _OP_MEMO[key] = op
        self._op_cache[pc] = op
        self._code_pages.setdefault(pc >> PAGE_SHIFT, set()).add(pc)
        self.decode_fills += 1
        return op

    # -- block translation --------------------------------------------------------

    def _block_op(self, pc: int) -> Optional[_FastOp]:
        """The cached op at *pc*, else one built from the memory word;
        ``None`` when that word does not decode."""
        op = self._op_cache.get(pc)
        if op is None:
            try:
                return self._build_op(pc, self.memory.read_word(pc))
            except IuTrap:
                return None
        return op

    def _translate(self, pc: int, hooked: int) -> Optional[_RtlBlock]:
        """Look up the block entered at *pc* in the current window; ``None``
        to step this entry.

        The block is the run of instructions from *pc* the block compiler
        handles, up to a CTI plus its delay slot or :data:`_BLOCK_CAP`
        instructions.  A memoized block is used at once; a new one waits as
        a :class:`_Pending` entry (see :meth:`_visit`).  The answer — a
        block, a pending entry, or ``None`` when the instruction at *pc*
        itself ends a block — is cached per (flavour, cwp, pc) and
        registered on every code page the block covers, so stores there
        drop it.
        """
        cwp = self.cwp
        ops, foreign = self._block_ops(pc)
        if foreign is not None:
            self._foreign.append((hooked, cwp, pc, foreign))
        block: Union[_RtlBlock, _Pending, None] = None
        if ops:
            icache, dcache = self.icache, self.dcache
            key = (
                pc, cwp, self.nwindows, hooked,
                icache.lines, icache.words_per_line,
                dcache.lines, dcache.words_per_line,
                tuple(op.key for op in ops),
            )
            block = _BLOCK_MEMO.get(key)
            if block is None:
                block = _Pending(key, ops, _BLOCK_HEAT.setdefault(key, [0]))
        self._blocks[hooked][cwp][pc] = block
        last = pc + 4 * max(len(ops) - 1, 0)
        for page in range(pc >> PAGE_SHIFT, (last >> PAGE_SHIFT) + 1):
            self._block_pages.setdefault(page, set()).add((hooked, cwp, pc))
        return self._visit(pc, hooked, block) if type(block) is _Pending else block

    def _visit(self, pc: int, hooked: int, pending: "_Pending") -> Optional[_RtlBlock]:
        """Count an entry of a block not compiled yet; compile it on its
        key's :data:`_COMPILE_AFTER`-th entry, counted process-wide
        (compiling costs about what a hundred block runs save, so cold code
        keeps stepping), else ``None`` to step this entry."""
        heat = pending.heat
        heat[0] += 1
        if heat[0] < _COMPILE_AFTER:
            return None
        key = pending.key
        # Another core may have compiled it since.
        block = _BLOCK_MEMO.get(key)
        if block is None:
            _BLOCK_HEAT.pop(key, None)
            compiler = _RtlBlockCompiler(self, pending.ops, pc, bool(hooked))
            block = _BLOCK_MEMO[key] = _RtlBlock(compiler.build(), pending.ops, compiler)
        self._blocks[hooked][self.cwp][pc] = block
        return block

    def _block_ops(self, pc: int) -> Tuple[List[_FastOp], Optional[int]]:
        """The ops of the block entered at *pc* (empty when none starts), and
        the PC of the cached op that cut them short by coming from another
        fetched word than the memory image's (a stale line or a faulted
        fetch, which the per-instruction loop handles), if one did."""
        ops: List[_FastOp] = []
        at = pc
        while len(ops) < _BLOCK_CAP and not at & 3 and at < _U32 - 8:
            op = self._block_op(at)
            if op is None:
                break
            if not op.from_memory:
                return ops, at
            if op.handler not in _BLOCK_HANDLERS:
                break
            if op.handler in _CTI_HANDLERS:
                if op.handler is _h_branch and op.annul and op.cond & 7 == 0:
                    ops.append(op)  # ba,a / bn,a: the slot never executes
                elif len(ops) + 2 <= _BLOCK_CAP:
                    slot = self._block_op(at + 4)
                    if slot is not None and not slot.from_memory:
                        return ops, at + 4
                    if (slot is not None and slot.handler in _BLOCK_HANDLERS
                            and slot.handler not in _CTI_HANDLERS):
                        ops += (op, slot)
                break
            ops.append(op)
            at += 4
        return ops, None

    def _block_mode(self) -> Optional[Tuple[int, Optional[list], Optional[list], bool]]:
        """How this run may use blocks: ``None`` for not at all, else
        (hooked, guards, last_reads, resident).

        A detailed trace steps.  Watches and open-line faults read every
        read's ``last_read`` (the previous value of their array's read port);
        stuck-at and transient faults ignore it.  A register-file watch or
        open line enters *hooked* blocks, which route each register read
        through the hook in reference order; with any other hook as well, or
        with a register-file transient, the run steps.  A cache-array
        transient steps too: blocks would speed its from-reset runs up more
        than the checkpoint forks that replace them, and the checkpointed
        runtime is gated on that ratio (``docs/performance.md``).  Every
        other hook becomes *guards* of (footprint index, cell, start, end),
        one per hooked cell (:data:`_FOOTPRINT`): a block whose footprint
        holds a guarded cell is entered only when the fault cannot be active
        during it (see :meth:`run_segment`).  Stuck-at faults, open lines and
        watches are active throughout.

        Blocks so admitted read no hooked cell, but their fetches still read
        the instruction cache's arrays.  *last_reads* lists, as (hook,
        array), those whose ``last_read`` a watch or open line reads; each
        block exit sets it to what the reference's last fetch read
        (``_RtlBlock.fetched``).  That value is static for the data array;
        for the tag and valid arrays it is static when the fetch's line probe
        hit, so with such a hook on them (*resident*) a block is entered only
        when every line it probes is resident.  Data-cache arrays need
        neither: no block that reads the data cache runs under a hook there.
        """
        if self.detailed_trace:
            return None
        hooked = 0
        guards = []
        last_reads = []
        resident = False
        for name, hook in self._array_states.items():
            if isinstance(hook, _ArrayWatch):
                faults = [(cell, None) for cell in hook.cells]
                consumer = True
            else:
                faults = [(cell, fault) for cell, cell_faults in hook.by_cell.items()
                          for fault in cell_faults]
                consumer = any(fault.model is FaultModel.OPEN_LINE
                               for _, fault in faults)
            transient = any(isinstance(fault, TransientFault) for _, fault in faults)
            if name == "rf.cells":
                if consumer:
                    if transient:
                        return None
                    hooked = 1
                    continue
            elif transient:
                return None
            elif consumer and name.startswith("icache."):
                last_reads.append((hook, name))
                resident = resident or name != "icache.data"
            kind = _FOOTPRINT[name]
            guards += [
                (kind, cell, fault.start_cycle, fault.end_cycle)
                if isinstance(fault, TransientFault) else (kind, cell, -1, _FOREVER)
                for cell, fault in faults
            ]
        if hooked and len(self._array_states) > 1:
            return None
        return hooked, guards or None, last_reads or None, resident

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
        # Block path (see "Block path" in the module docstring).
        mode = self._mode
        if mode is _UNSET:
            mode = self._mode = self._block_mode()
        use_blocks = mode is not None
        hooked, guards, last_reads, resident = mode or (0, None, None, False)
        blocks = self._blocks[hooked]
        cells = self.cells
        in_blocks = 0
        #: True where a block may start a run of straight-line code: the
        #: segment's first instruction, a block's exit, a branch target.
        #: Only there is a missing block translated; inside code that steps
        #: (cold, or after a non-block instruction) compiled blocks are still
        #: entered, but no new ones are looked for.
        leader = True
        #: (block, instructions ran) -> times, folded into counts at the end.
        exits: Dict[Tuple[_RtlBlock, int], int] = {}
        exits_get = exits.get

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
            if use_blocks and (sequential := self.npc == pc + 4):
                block = blocks[self.cwp].get(pc, _UNTRANSLATED)
                if block is _UNTRANSLATED:
                    block = self._translate(pc, hooked) if leader else None
                elif type(block) is _Pending:
                    block = self._visit(pc, hooked, block)
                if block is not None:
                    if executed + block.length > budget:
                        # The budget ends inside this block: the few
                        # remaining instructions step one at a time.
                        use_blocks = False
                        block = None
                    elif guards is not None:
                        # A guarded cell the block reads must be inactive
                        # for the whole block: a closed transient window, or
                        # one that opens after the block's last cycle.
                        footprint = block.footprint
                        for kind, cell, start, end in guards:
                            if (cell in footprint[kind] and cycles < end
                                    and cycles + block.max_cycles > start):
                                block = None
                                break
                    if resident and block is not None:
                        for line, tag in block.probes:
                            if not (ic_valid[line] and ic_tags[line] == tag):
                                block = None
                                break
                if block is not None:
                    error = None
                    try:
                        ran = block.run(self, cells, ic_valid, ic_tags, ic_data,
                                        cycles, transaction_cycles)
                    except _TRAP_ERRORS as exc:
                        # The trapping instruction was fetched, not completed.
                        ran = (self.pc - pc) >> 2
                        icache.hits += 1
                        error = exc
                    if last_reads is not None:
                        # The last fetch: the trapping instruction's, else
                        # the last completed one's.
                        last = ran if error is not None else ran - 1
                        if last >= 0:
                            for hook, array in last_reads:
                                hook.last_read = block.fetched[array][last]
                    if ran:
                        executed += ran
                        in_blocks += ran
                        icache.hits += ran
                        cycles = self.cycle
                        misses_before = icache.misses + dcache.misses
                        stamped = len(transaction_cycles)
                        # A store into a code page drops its cached ops and
                        # ends the block: that store then counts the word at
                        # its own pc as it stands after it ran.
                        retraced = False
                        if block.stores and error is None:
                            last_pc = pc + 4 * (ran - 1)
                            retraced = op_cache_get(last_pc) is None
                        counted = ran - 1 if retraced else ran
                        key = (block, counted)
                        seen = exits_get(key)
                        if seen is None:
                            exits[key] = 1
                            # Claim the mnemonics' first-execution order now;
                            # their counts fold in after the loop.
                            for mnemonic, _ in block.histogram(counted):
                                if mnemonic not in counts:
                                    counts[mnemonic] = 0
                        else:
                            exits[key] = seen + 1
                        if retraced:
                            traced = self._retraced(last_pc)
                            if traced is not None:
                                mnemonic = traced.defn.mnemonic
                                counts[mnemonic] = counts_get(mnemonic, 0) + 1
                    if error is not None:
                        cycles = self.cycle
                        trap_kind = _trap_kind(error)
                        halted = True
                        break
                    if ran:
                        leader = True
                        continue
                    # A stale line at the block's entry: step it singly.
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
            except _TRAP_ERRORS as exc:
                trap_kind = _trap_kind(exc)
                halted = True
                break

            executed += 1
            cycles += op.latency
            misses_now = icache.misses + dcache.misses
            if misses_now != misses_before:
                cycles += (misses_now - misses_before) * MISS_PENALTY
                misses_before = misses_now
            if op.writes_memory and op_cache_get(pc) is None:
                # A store rewrote this code page, maybe this very word.
                traced = self._retraced(pc)
                if detailed:
                    if traced is not None:
                        trace.record(traced, pc, cycles)
                elif traced is not None:
                    mnemonic = traced.defn.mnemonic
                    counts[mnemonic] = counts_get(mnemonic, 0) + 1
            elif detailed:
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

            if use_blocks:
                leader = outcome is not None or not sequential
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

        for (block, ran), times in exits.items():
            for mnemonic, count in block.histogram(ran):
                counts[mnemonic] += count * times
        self.block_instructions += in_blocks
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
    and ``benchmarks/throughput.py rtl`` both call it, so the contract
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
