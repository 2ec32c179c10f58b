"""Fast-path ISS interpreter: per-PC decode cache + precomputed table dispatch.

The reference :class:`~repro.iss.emulator.Emulator` re-reads and re-decodes
the 32-bit word at every fetch and dispatches each instruction through a
chain of Python string comparisons — fine as an executable specification,
but it makes the interpreter (not the campaign engine or the store) the
throughput ceiling of every ISS campaign.  :class:`FastEmulator` removes
exactly that overhead while staying **result-transparent**:

* **Decode cache** — each PC decodes once into a :class:`_CachedOp` holding
  the decoded instruction, its semantics handler and the operand fields
  pre-extracted (immediates already wrapped to u32, branch/call targets
  already resolved against the PC).  Straight-line code and loops never
  touch the decoder again.  A second, process-wide word→``Instruction`` memo
  (:func:`repro.isa.decoder.decode_cached`) means even a fresh emulator —
  campaigns build one per injection run — skips the bit-slicing for every
  word any previous run has decoded.

  *Invalidation rule:* a store whose address lands in a page with cached
  decodes drops that page's entries, so self-modifying (or fault-corrupted)
  code re-decodes exactly like the reference interpreter.  All runtime
  memory writes go through the store handlers, so this is complete for
  execution; external memory mutation between runs must go through
  :meth:`FastEmulator.load_program` (which flushes) or
  :meth:`FastEmulator.flush_decode_cache`.

* **Table dispatch** — semantics are precomputed per
  :class:`~repro.isa.instructions.InstructionDef`: one handler function per
  mnemonic (keyed by :attr:`InstructionDef.alu_base` for the ALU), resolved
  once at decode-cache fill time.  The per-instruction loop is one dict
  lookup plus one call — no mnemonic string comparisons.  The ALU,
  multiply/divide and single-word load/store handlers are generated at
  import from the semantics table (:mod:`repro.isa.semantics`).  Handlers
  serve the per-instruction loop and the lockstep runtime only: the block
  compiler inlines every row of the same table, so no compiled block calls
  one.

* **Deferred accounting** — trace and latency accounting are additive and
  order-independent, so the hot loop keeps one per-mnemonic counter and
  folds it into the :class:`~repro.iss.trace.ExecutionTrace` and
  :class:`~repro.iss.timing.TimingModel` after the run
  (:meth:`ExecutionTrace.record_bulk` / :meth:`TimingModel.account_bulk`).
  Data-cache accounting stays live in the memory handlers (it is
  order-dependent).  With ``detailed_trace=True`` the per-instruction
  records need pc/cycle stamps, so accounting runs live — the decode cache
  and table dispatch still apply.

* **Block path** — straight-line code runs as compiled blocks, one generated
  Python function per (entry PC, CWP).  A block runs from its entry up to a
  CTI plus its delay slot, at most :data:`_BLOCK_CAP` instructions; it ends
  early before ``ticc``, an ALU op without semantics, a word that does not
  decode, and a CTI whose delay slot is itself a CTI (or any of those).
  Register operands are list accesses at physical indices resolved at
  translation (``save``/``restore`` still call the register file, so window
  overflow and underflow raise as before); the condition codes live in
  locals and are written back at every exit; data-cache line accounting is
  inlined.  Products and quotients inline the rows of
  :func:`~repro.isa.semantics.arithmetic_rows` (a zero divisor raises from
  ``//`` before any write), ``rd``/``wr`` read and write ``emu.y_register``,
  and aligned loads and stores of an allocated page index
  ``Memory._pages`` directly; misaligned accesses and absent pages call the
  :class:`~repro.iss.memory.Memory` method, for its trap text, zero reads
  and page allocation.  Transactions are built with ``tuple.__new__``.
  Each exit returns how many of the block's instructions ran, and the run
  adds that prefix's mnemonic histogram once per distinct exit.

  *Entry conditions:* ``run`` enters a block only when the trace is not
  detailed, no ``bit_flip`` is armed, no annul is pending, ``npc == pc + 4``
  and the whole block fits the remaining instruction budget.  Everything
  else — delay slots of CTIs stepped singly, the last few instructions
  before a budget boundary — runs on the per-instruction loop, so watchdog
  boundaries and sliced runs stop at exactly the same instruction as the
  reference.

  *Armed stuck-at:* the fault is re-applied before every instruction, but
  it can act only at a boundary where its register's physical slot has just
  been written or the window has just moved.  Each block records the slots
  its instructions write and whether it runs ``save``/``restore``
  (:class:`_Block`); a stuck-at run applies the fault once at block entry
  and enters a block only when no instruction before the block's last one
  writes the fault's slot (or, for a window register, moves the window).
  Other blocks step one instruction at a time, from the next PC on the block
  path again.  A register watch (:meth:`FastEmulator.watch`) uses the same
  records to fold register values at block exits, and any other block
  observer (:meth:`FastEmulator.observe`) may step a block the same way.

  *Invalidation rule:* translation fills the decode cache, so every page a
  block covers is a code page; a store to a code page drops that page's
  blocks along with its decodes, and a block returns right after such a
  store (it may have rewritten itself).  ``flush_decode_cache``,
  ``load_program`` and ``restore_state`` (for the pages it changes) drop
  blocks the same way.

  *Memo key:* compiled blocks are shared process-wide, keyed by (entry PC,
  CWP, window count, the block's instruction words, their handlers), like
  :func:`~repro.isa.decoder.decode_cached` — campaigns build a fresh
  emulator per run, and the compile cost is paid once per process.

The contract — enforced by ``tests/test_fastpath.py`` and re-verified by
``benchmarks/throughput.py iss`` before it reports any number — is
**bit-identity with the reference interpreter**: same trace statistics, same
off-core transaction stream, same trap kind / exit code / instruction and
cycle counts, same final architectural state (registers, icc, Y, PC, memory),
fault-free and under injected architectural faults.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.isa import semantics
from repro.isa.ccodes import ConditionCodes, evaluate_condition
from repro.isa.decoder import DecodeError, Instruction, decode_cached
from repro.isa.encoding import to_u32
from repro.isa.instructions import INSTRUCTION_SET, InstructionCategory
from repro.isa.registers import RegisterWindowError
from repro.iss.emulator import (
    IO_BASE,
    Emulator,
    ExecutionResult,
    SimulationError,
    TrapEvent,
)
from repro.iss.faults import ArchitecturalFault, FaultyEmulator
from repro.iss.memory import (
    PAGE_MASK,
    PAGE_SHIFT,
    Memory,
    MemoryError_,
    page_read_source,
    page_write_source,
)
from repro.iss.trace import ExecutionTrace, OffCoreTransaction

_U32 = 0xFFFFFFFF
_MASK = semantics.MASK

__all__ = [
    "FastEmulator",
    "assert_results_identical",
    "verify_bit_identity",
    "run_fast_program",
]


class _CachedOp:
    """One decoded instruction specialised for its PC.

    Carries the raw :class:`Instruction` (for detailed tracing), the resolved
    semantics handler, and the operand fields pre-extracted so handlers never
    touch the decoder's dataclass properties in the hot loop.
    """

    __slots__ = (
        "mnemonic",
        "instruction",
        "handler",
        "rd",
        "rs1",
        "rs2",
        "use_imm",
        "imm",
        "imm_u32",
        "sets_icc",
        "cond",
        "annul",
        "annul_taken",
        "target",
        "value",
    )

    def __init__(self, instruction: Instruction, pc: int):
        defn = instruction.defn
        mnemonic = defn.mnemonic
        self.mnemonic = mnemonic
        self.instruction = instruction
        self.handler = _HANDLER_TABLE[mnemonic]
        self.rd = instruction.rd
        self.rs1 = instruction.rs1
        self.rs2 = instruction.rs2
        imm = instruction.imm
        self.use_imm = imm is not None
        self.imm = imm
        self.imm_u32 = to_u32(imm) if imm is not None else None
        self.sets_icc = defn.sets_icc
        if defn.category is InstructionCategory.BRANCH:
            self.cond = defn.cond
            self.annul = instruction.annul
            self.annul_taken = instruction.annul and defn.cond == 0x8
            self.target = to_u32(pc + instruction.disp)
        elif mnemonic == "call":
            self.target = to_u32(pc + instruction.disp)
        elif mnemonic == "sethi":
            self.value = to_u32(instruction.imm << 10)
        elif mnemonic == "ticc":
            self.cond = instruction.rd & 0xF


def _written_registers(op: _CachedOp) -> Tuple[int, ...]:
    """The architectural registers *op* writes, ``%g0`` left out
    (``save``/``restore`` write theirs under the new window; a handler that
    traps writes none)."""
    defn = op.instruction.defn
    mnemonic = op.mnemonic
    if (defn.category is InstructionCategory.BRANCH or defn.writes_memory
            or mnemonic == "ticc" or mnemonic == "wr"):
        return ()
    if mnemonic == "call":
        return (15,)
    if mnemonic == "ldd":
        return (op.rd & ~1, op.rd | 1) if op.rd > 1 else (1,)
    return (op.rd,) if op.rd else ()


# ---------------------------------------------------------------------------
# Semantics handlers.
#
# One function per mnemonic (per ``alu_base`` for the ALU), signature
# ``handler(emu, op, pc, transactions)``.  Return value protocol (cheaper
# than the reference's dataclass outcome):
#   * ``None``                  — fall through to pc/npc advance,
#   * ``(target, annul_slot)``  — delayed control transfer,
#   * ``TrapEvent``             — halt the run.
# The ALU, multiply/divide and single-word load/store handlers are generated
# from the semantics table (:mod:`repro.isa.semantics`) the block compiler
# inlines too; control transfer, ``save``/``restore``, ``rd``/``wr``,
# ``ticc`` and ``ldd``/``std`` are written out here.  Every handler mirrors
# the reference ``Emulator._execute*`` semantics exactly — including
# evaluation order where destination and source registers alias — and the
# reference interpreter stays the specification they are tested against.
# ---------------------------------------------------------------------------


def _h_branch(emu, op, pc, transactions):
    if evaluate_condition(op.cond, emu.icc):
        return (op.target, op.annul_taken)
    if op.annul:
        emu._annul_next = True
    return None


def _h_call(emu, op, pc, transactions):
    emu.registers.write(15, pc)
    return (op.target, False)


def _h_sethi(emu, op, pc, transactions):
    emu.registers.write(op.rd, op.value)
    return None


def _h_jmpl(emu, op, pc, transactions):
    r = emu.registers
    target = (r.read(op.rs1) + (op.imm_u32 if op.use_imm else r.read(op.rs2))) & _U32
    r.write(op.rd, pc)
    return (target, False)


def _h_ticc(emu, op, pc, transactions):
    r = emu.registers
    trap_number = op.imm if op.use_imm else r.read(op.rs2)
    if not evaluate_condition(op.cond, emu.icc):
        return None
    if trap_number == 0:
        return TrapEvent("exit", pc, detail=str(r.read(8) & 0xFF))
    return TrapEvent("software_trap", pc, detail=str(trap_number))


def _h_save(emu, op, pc, transactions):
    r = emu.registers
    result = (r.read(op.rs1) + (op.imm_u32 if op.use_imm else r.read(op.rs2))) & _U32
    r.save()
    r.write(op.rd, result)
    return None


def _h_restore(emu, op, pc, transactions):
    r = emu.registers
    result = (r.read(op.rs1) + (op.imm_u32 if op.use_imm else r.read(op.rs2))) & _U32
    r.restore()
    r.write(op.rd, result)
    return None


def _h_rd(emu, op, pc, transactions):
    emu.registers.write(op.rd, emu.y_register)
    return None


def _h_wr(emu, op, pc, transactions):
    r = emu.registers
    emu.y_register = r.read(op.rs1) ^ (op.imm_u32 if op.use_imm else r.read(op.rs2))
    return None


def _h_unimplemented(emu, op, pc, transactions):
    raise SimulationError(f"no ALU semantics for {op.mnemonic}")


# -- generated handlers -----------------------------------------------------
#
# Each reads rs1 then operand 2, writes rd before it sets the condition
# codes, and ``umul``/``smul`` write Y before rd, as the reference
# ``Emulator`` does.


def _address(emu, op):
    r = emu.registers
    return (r.read(op.rs1) + (op.imm_u32 if op.use_imm else r.read(op.rs2))) & _U32


def _invalidate_code_page(emu, page: int) -> None:
    cache = emu._decode_cache
    for cached_pc in emu._code_pages.pop(page):
        cache.pop(cached_pc, None)
    blocks = emu._blocks
    for cwp, block_pc in emu._block_pages.pop(page, ()):
        blocks[cwp].pop(block_pc, None)


def _load_value(sign: int) -> str:
    """Source for the loaded value of raw ``x``, sign-extended from bit
    *sign* (0 for an unsigned load)."""
    return f"(x - {sign << 1}) & {_MASK} if x & {sign} else x" if sign else "x"


#: Single-word loads: (memory reader, size, sign bit or 0), by mnemonic.
_LOADS = {
    "ld": ("read_word", 4, 0),
    "ldub": ("read_byte", 1, 0),
    "lduh": ("read_half", 2, 0),
    "ldsb": ("read_byte", 1, 0x80),
    "ldsh": ("read_half", 2, 0x8000),
}

#: Single-word stores: (memory writer, size, data mask source), by mnemonic.
_STORES = {
    "st": ("write_word", 4, ""),
    "stb": ("write_byte", 1, " & 0xFF"),
    "sth": ("write_half", 2, " & 0xFFFF"),
}

_ARITHMETIC_SOURCE = """\
def _h_{name}(emu, op, pc, transactions):
    r = emu.registers
    a = r.read(op.rs1)
    b = op.imm_u32 if op.use_imm else r.read(op.rs2)
    {compute}
    r.write(op.rd, y)
    if op.sets_icc:
        {icc}
        emu.icc = CC(y >> 31, 0 if y else 1, v, c)
"""

_LOAD_SOURCE = """\
def _h_{name}(emu, op, pc, transactions):
    address = _address(emu, op)
    emu.timing.account_data_access(address, is_store=False)
    x = emu.memory.{reader}(address)
    emu.registers.write(op.rd, {value})
    if address >= IO_BASE:
        transactions.append(OCT("io", address, x, {size}))
"""

_STORE_SOURCE = """\
def _h_{name}(emu, op, pc, transactions):
    address = _address(emu, op)
    emu.timing.account_data_access(address, is_store=True)
    x = emu.registers.read(op.rd){mask}
    emu.memory.{writer}(address, x)
    if (address >> PAGE_SHIFT) in emu._code_pages:
        _invalidate_code_page(emu, address >> PAGE_SHIFT)
    transactions.append(OCT("io" if address >= IO_BASE else "store", address, x, {size}))
"""

_HANDLER_GLOBALS = {
    "__name__": __name__,
    "CC": ConditionCodes,
    "OCT": OffCoreTransaction,
    "IO_BASE": IO_BASE,
    "PAGE_SHIFT": PAGE_SHIFT,
    "_address": _address,
    "_invalidate_code_page": _invalidate_code_page,
}

_ALU_HANDLERS: Dict[str, Callable] = semantics.compile_handlers(
    _ARITHMETIC_SOURCE,
    semantics.arithmetic_rows(carry="emu.icc.c", y_register="emu.y_register"),
    _HANDLER_GLOBALS,
)
_h_addx, _h_subx = _ALU_HANDLERS["addx"], _ALU_HANDLERS["subx"]

_LOAD_HANDLERS: Dict[str, Callable] = semantics.compile_handlers(
    _LOAD_SOURCE,
    {
        name: {"reader": reader, "size": size, "value": _load_value(sign)}
        for name, (reader, size, sign) in _LOADS.items()
    },
    _HANDLER_GLOBALS,
)
_STORE_HANDLERS: Dict[str, Callable] = semantics.compile_handlers(
    _STORE_SOURCE,
    {
        name: {"writer": writer, "size": size, "mask": mask}
        for name, (writer, size, mask) in _STORES.items()
    },
    _HANDLER_GLOBALS,
)


# -- double-word memory -----------------------------------------------------


def _h_ldd(emu, op, pc, transactions):
    address = _address(emu, op)
    emu.timing.account_data_access(address, is_store=False)
    high, low = emu.memory.read_double(address)
    rd_even = op.rd & ~1
    r = emu.registers
    r.write(rd_even, high)
    r.write(rd_even | 1, low)
    if address >= IO_BASE:
        transactions.append(OffCoreTransaction("io", address, (high << 32) | low, 8))
    return None


def _h_std(emu, op, pc, transactions):
    address = _address(emu, op)
    emu.timing.account_data_access(address, is_store=True)
    r = emu.registers
    rd_even = op.rd & ~1
    high = r.read(rd_even)
    low = r.read(rd_even | 1)
    emu.memory.write_double(address, high, low)
    if (address >> PAGE_SHIFT) in emu._code_pages:
        _invalidate_code_page(emu, address >> PAGE_SHIFT)
    transactions.append(OffCoreTransaction("store", address, high, 4))
    transactions.append(OffCoreTransaction("store", address + 4, low, 4))
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

_MEMORY_HANDLERS: Dict[str, Callable] = {
    **_LOAD_HANDLERS,
    **_STORE_HANDLERS,
    "ldd": _h_ldd,
    "std": _h_std,
}


def _handler_for(defn) -> Callable:
    if defn.category is InstructionCategory.BRANCH:
        return _h_branch
    special = _SPECIAL_HANDLERS.get(defn.mnemonic)
    if special is not None:
        return special
    if defn.is_memory:
        return _MEMORY_HANDLERS[defn.mnemonic]
    # An ALU opcode without semantics raises SimulationError at execution
    # time (not at cache-fill time), mirroring the reference interpreter's
    # trap point so both classify the run identically.
    return _ALU_HANDLERS.get(defn.alu_base, _h_unimplemented)


#: The precomputed per-InstructionDef dispatch table, built once at import.
_HANDLER_TABLE: Dict[str, Callable] = {
    defn.mnemonic: _handler_for(defn) for defn in INSTRUCTION_SET
}


# ---------------------------------------------------------------------------
# Block translation.
#
# A block is compiled into one Python function ``block(emu, tx) -> ran``
# specialised for its entry PC and CWP.  Register operands are list accesses
# at physical indices resolved here, the condition codes are the locals
# n/z/v/c, and every exit stores pc/npc (and the pending annul, if any) and
# returns how many of the block's instructions ran.  An instruction that
# raises first records its pc/npc in the locals k/kn; the ``except`` clause
# stores them, so the caller sees the same paused state as the per-instruction
# loop and derives the count from the pc.
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
    for base, row in semantics.arithmetic_rows(
        carry="c", y_register="emu.y_register").items()
    if base in semantics.PRODUCTS or base in semantics.QUOTIENTS
}
_QUOTIENT_HANDLERS = frozenset(_ALU_HANDLERS[base] for base in semantics.QUOTIENTS)

#: Every handler a block may contain.  Anything else — ``ticc``, an ALU op
#: without semantics, a patched table entry — ends the block before it.
_BLOCK_HANDLERS = (
    _CTI_HANDLERS | set(_MEMORY_HANDLERS.values()) | set(_ALU_RESULTS)
    | set(_WIDE_ROWS) | {_h_sethi, _h_save, _h_restore, _h_rd, _h_wr}
)

#: The one globals dict every compiled block shares.  ``new(OCT, fields)``
#: builds a transaction without the Python-level tuple constructor.
_BLOCK_GLOBALS: Dict[str, object] = {
    "CC": ConditionCodes,
    "OCT": OffCoreTransaction,
    "new": tuple.__new__,
    "fb": int.from_bytes,
    "invalidate": _invalidate_code_page,
}


class _Block:
    """One compiled block: its function, length, per-exit histograms and
    the register slots it writes.

    A slot is a global's index (1..7) or ``8 +`` a window register's physical
    index, the lockstep runtime's slot numbering.  ``early_writes`` and
    ``early_shift`` cover every instruction but the last: an armed stuck-at
    may enter the block when neither touches its register (see
    :meth:`FastEmulator.run`).  ``rewrites`` are the slots written more than
    once, which a register watch cannot see between the writes.
    """

    __slots__ = ("run", "length", "ops", "mnemonics", "_histograms", "writes",
                 "early_writes", "rewrites", "early_shift", "shifts")

    def __init__(self, run: Callable, ops: Tuple[_CachedOp, ...],
                 slot_writes: List[Tuple[int, int]], shift_at: List[int]):
        self.run = run
        self.length = len(ops)
        #: The ops the block runs, one per instruction from its entry PC.
        self.ops = ops
        self.mnemonics = tuple(op.mnemonic for op in ops)
        self._histograms: Dict[int, List[Tuple[str, int]]] = {}
        last = self.length - 1
        writes: Set[int] = set()
        rewrites: Set[int] = set()
        for _, slot in slot_writes:
            (rewrites if slot in writes else writes).add(slot)
        self.writes = frozenset(writes)
        self.rewrites = frozenset(rewrites)
        self.early_writes = frozenset(
            slot for index, slot in slot_writes if index < last
        )
        self.shifts = bool(shift_at)
        self.early_shift = any(index < last for index in shift_at)

    def histogram(self, ran: int) -> List[Tuple[str, int]]:
        """Mnemonic counts of the first *ran* instructions, in first-execution
        order (built on the first exit at that length)."""
        histogram = self._histograms.get(ran)
        if histogram is None:
            counts: Dict[str, int] = {}
            for mnemonic in self.mnemonics[:ran]:
                counts[mnemonic] = counts.get(mnemonic, 0) + 1
            histogram = self._histograms[ran] = list(counts.items())
        return histogram


#: Process-wide memo: (pc, cwp, nwindows, words, handlers) -> compiled block.
_BLOCK_MEMO: Dict[tuple, _Block] = {}


def _plus4(npc: str) -> str:
    """Source for *npc* + 4, folded when *npc* is a constant."""
    return f"{npc} + 4" if npc == "nn" else f"{int(npc) + 4}"


class _BlockCompiler:
    """Generates the source of one block's function (see the section note)."""

    def __init__(self, registers, ops: List[_CachedOp], pc: int):
        self.registers = registers
        self.cwp = registers.cwp
        self.lines: List[str] = []
        self.indent = "        "
        self.writes_icc = any(op.sets_icc for op in ops)
        self.touches_icc = self.writes_icc
        self.raises = False
        self.uses: Set[str] = set()
        #: (instruction index, slot) of every register write, and the indices
        #: of ``save``/``restore`` (see :class:`_Block`).
        self.slot_writes: List[Tuple[int, int]] = []
        self.shift_at: List[int] = []
        for index, op in enumerate(ops):
            at = pc + 4 * index
            if op.handler in _CTI_HANDLERS:
                self._cti(op, at, ops[index + 1] if index + 1 < len(ops) else None,
                          index)
                break
            self._op(op, at, f"{at + 4}", index)
        else:
            end = pc + 4 * len(ops)
            self._exit(f"{end}", f"{end + 4}", len(ops))

    # -- operands ----------------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append(self.indent + line)

    def read(self, reg: int) -> str:
        if reg == 0:
            return "0"
        if reg < 8:
            self.uses.add("g")
            return f"g[{reg}]"
        self.uses.add("w")
        return f"w[{self.registers._physical_index(reg, self.cwp)}]"

    def write(self, reg: int, value: str) -> None:
        if reg:
            self.emit(f"{self.read(reg)} = {value}")

    def operand2(self, op: _CachedOp) -> str:
        return str(op.imm_u32) if op.use_imm else self.read(op.rs2)

    def address(self, op: _CachedOp) -> str:
        """rs1 + operand2 (mod 2**32), folding a zero addend away."""
        first, second = self.read(op.rs1), self.operand2(op)
        if second == "0":
            return first
        if first == "0":
            return second
        return f"({first} + {second}) & {_MASK}"

    def note_writes(self, op: _CachedOp, index: int) -> None:
        """Record *op*'s register writes, under the window it writes in."""
        for reg in _written_registers(op):
            self.slot_writes.append((
                index,
                reg if reg < 8
                else 8 + self.registers._physical_index(reg, self.cwp),
            ))

    def may_raise(self, at: int, npc: str) -> None:
        self.raises = True
        self.emit(f"k = {at}; kn = {npc}")

    def _exit(self, pc: str, npc: str, ran: int, annul: bool = False) -> None:
        if self.writes_icc:
            self.emit("emu.icc = CC(n, z, v, c)")
        self.emit(f"emu.pc = {pc}; emu.npc = {npc}")
        if annul:
            self.emit("emu._annul_next = True")
        self.emit(f"return {ran}")

    # -- instructions ------------------------------------------------------

    def _cti(self, op: _CachedOp, at: int, slot: Optional[_CachedOp],
             index: int) -> None:
        handler = op.handler
        if handler is _h_branch:
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
                self._op(slot, at + 4, f"{target}", index + 1)
                self._exit(f"{target}", f"{target + 4}", index + 2)
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
            self.write(15, f"{to_u32(at)}")
            npc = f"{op.target}"
        else:  # jmpl
            self.emit(f"nn = {self.address(op)}")
            self.write(op.rd, f"{to_u32(at)}")
            npc = "nn"
        self.note_writes(op, index)
        self._op(slot, at + 4, npc, index + 1)
        self._exit(npc, _plus4(npc), index + 2)

    def _op(self, op: _CachedOp, at: int, npc: str, index: int) -> None:
        handler = op.handler
        emit = self.emit
        if handler is _h_sethi:
            self.write(op.rd, f"{op.value}")
        elif handler in _ALU_RESULTS:
            self._alu(op)
        elif handler in _WIDE_ROWS:
            # A zero divisor raises from ``//`` before any write.
            if handler in _QUOTIENT_HANDLERS:
                self.may_raise(at, npc)
            row = _WIDE_ROWS[handler]
            emit(f"a = {self.read(op.rs1)}; b = {self.operand2(op)}; "
                 f"{row['compute']}")
            if op.sets_icc:
                emit(f"n = y >> 31; z = 0 if y else 1; {row['icc']}")
            self.write(op.rd, "y")
        elif handler is _h_rd:
            self.write(op.rd, "emu.y_register")
        elif handler is _h_wr:
            emit(f"emu.y_register = {self.read(op.rs1)} ^ {self.operand2(op)}")
        elif handler is _h_save or handler is _h_restore:
            self.may_raise(at, npc)
            self.shift_at.append(index)
            self.uses.add("r")
            emit(f"x = {self.address(op)}")
            if handler is _h_save:
                emit("r.save()")
                self.cwp = (self.cwp + 1) % self.registers.nwindows
            else:
                emit("r.restore()")
                self.cwp = (self.cwp - 1) % self.registers.nwindows
            self.write(op.rd, "x")
        else:
            self._memory(op, at, npc, index)
        self.note_writes(op, index)

    def _alu(self, op: _CachedOp) -> None:
        handler = op.handler
        result = _ALU_RESULTS[handler]
        if handler is _h_addx or handler is _h_subx:
            self.touches_icc = True
        first, second = self.read(op.rs1), self.operand2(op)
        if not op.sets_icc:
            self.write(op.rd, result.format(a=first, b=second))
            return
        self.emit(f"a = {first}; b = {second}; y = {result.format(a='a', b='b')}")
        self.emit("n = y >> 31; z = 0 if y else 1; "
                  + _ICC_UPDATES.get(handler, "v = 0; c = 0"))
        self.write(op.rd, "y")

    def _memory(self, op: _CachedOp, at: int, npc: str, index: int) -> None:
        handler = op.handler
        emit = self.emit
        self.may_raise(at, npc)
        self.uses.update(("mem", "dcache"))
        emit(f"a = {self.address(op)}")
        emit("l = a // ls")
        emit("if l in tl: tm.dcache_hits += 1")
        emit("else: tm.dcache_misses += 1; tl.add(l); "
             "tm.cycles += tm.miss_penalty")
        if op.mnemonic in _LOADS:
            reader, size, sign = _LOADS[op.mnemonic]
            self._page_access(size, f"x = mem.{reader}(a)",
                              f"x = {page_read_source(size)}")
            self.write(op.rd, _load_value(sign))
            emit(f"if a >= {IO_BASE}: tx.append(new(OCT, ('io', a, x, {size})))")
            return
        even = op.rd & ~1
        if handler is _h_ldd:
            self._page_access(8, "hi, lo = mem.read_double(a)",
                              f"hi = {page_read_source(4)}; "
                              f"lo = {page_read_source(4, 'o + 4')}")
            self.write(even, "hi")
            self.write(even | 1, "lo")
            emit(f"if a >= {IO_BASE}: "
                 "tx.append(new(OCT, ('io', a, (hi << 32) | lo, 8)))")
            return
        if handler is _h_std:
            emit(f"hi = {self.read(even)}; lo = {self.read(even | 1)}")
            self._page_access(8, "mem.write_double(a, hi, lo)",
                              f"{page_write_source(4, 'hi')}; "
                              f"{page_write_source(4, 'lo', 'o + 4')}")
            emit("tx.append(new(OCT, ('store', a, hi, 4))); "
                 "tx.append(new(OCT, ('store', a + 4, lo, 4)))")
        else:
            writer, size, mask = _STORES[op.mnemonic]
            emit(f"x = {self.read(op.rd)}{mask}")
            self._page_access(size, f"mem.{writer}(a, x)",
                              page_write_source(size, "x"))
            emit(f"tx.append(new(OCT, ('io' if a >= {IO_BASE} else 'store', "
                 f"a, x, {size})))")
        # A store into a code page drops that page's decodes and blocks —
        # possibly this one — so the block ends right after it.
        self.uses.add("cp")
        emit(f"if (a >> {PAGE_SHIFT}) in cp:")
        self.indent += "    "
        emit(f"invalidate(emu, a >> {PAGE_SHIFT})")
        self._exit(npc, _plus4(npc), index + 1)
        self.indent = self.indent[:-4]

    def _page_access(self, size: int, method: str, inline: str) -> None:
        """Emit an access of *size* bytes at ``a``: *inline* on the page
        ``pg`` at offset ``o`` when the access is aligned and its page is
        allocated, else the :class:`Memory` *method* call, which raises the
        misaligned trap, reads an absent page as zeros and allocates it on a
        store."""
        self.uses.add("pages")
        misaligned = f" or a & {size - 1}" if size > 1 else ""
        self.emit(f"pg = pages.get(a >> {PAGE_SHIFT})")
        self.emit(f"if pg is None{misaligned}: {method}")
        self.emit(f"else: o = a & {PAGE_MASK}; {inline}")

    # -- assembly ----------------------------------------------------------

    def source(self) -> str:
        uses = self.uses
        prologue = []
        if uses & {"r", "g", "w"}:
            prologue.append("r = emu.registers")
        if "g" in uses:
            prologue.append("g = r._globals")
        if "w" in uses:
            prologue.append("w = r._windows")
        if self.touches_icc:
            prologue.append("ic = emu.icc; n = ic.n; z = ic.z; v = ic.v; c = ic.c")
        if "mem" in uses:
            prologue.append("mem = emu.memory")
        if "pages" in uses:
            prologue.append("pages = mem._pages")
        if "dcache" in uses:
            prologue.append("tm = emu.timing; tl = tm._touched_lines; "
                            "ls = tm.line_size")
        if "cp" in uses:
            prologue.append("cp = emu._code_pages")
        head = ["def _block(emu, tx):"] + ["    " + line for line in prologue]
        if not self.raises:
            # Body lines are indented for the ``try`` suite; without one they
            # move out a level.
            body = [line[4:] for line in self.lines]
        else:
            body = ["    try:"] + self.lines + [
                "    except BaseException:",
                "        emu.pc = k; emu.npc = kn",
                "        raise",
            ]
            if self.writes_icc:
                body.insert(-2, "        emu.icc = CC(n, z, v, c)")
        return "\n".join(head + body + [""])

    def build(self) -> Callable:
        namespace: Dict[str, Callable] = {}
        exec(compile(self.source(), "<block>", "exec"), _BLOCK_GLOBALS, namespace)
        return namespace["_block"]


#: ``FastEmulator._blocks`` lookup default for a PC not translated yet
#: (``None`` records that no block starts there).
_UNTRANSLATED = object()

#: Exceptions an instruction raises to trap the run (see :func:`_trap_event`).
_TRAP_ERRORS = (RegisterWindowError, MemoryError_, ZeroDivisionError, SimulationError)


def _trap_event(exc: BaseException, pc: int) -> TrapEvent:
    """The trap the reference interpreter takes for *exc* raised at *pc*."""
    if isinstance(exc, ZeroDivisionError):
        return TrapEvent("division_by_zero", pc)
    if isinstance(exc, RegisterWindowError):
        kind = "window"
    elif isinstance(exc, MemoryError_):
        kind = "memory"
    else:
        # An instruction without semantics (a decoder/table mismatch) must
        # surface as a classified trap, not escape the run.
        kind = "simulation_error"
    return TrapEvent(kind, pc, str(exc))


def _fold_counts(
    counts: Dict[str, int], timing, trace: Optional[ExecutionTrace]
) -> None:
    """Charge deferred per-mnemonic *counts* to *timing* and, unless *trace*
    is ``None``, record them in it; zero counts are skipped, as
    :meth:`ExecutionTrace.record_counts` skips them."""
    by_mnemonic = INSTRUCTION_SET.by_mnemonic
    for mnemonic, count in counts.items():
        if count:
            defn = by_mnemonic(mnemonic)
            if trace is not None:
                trace.record_bulk(defn, count)
            timing.account_bulk(defn, count)


# A *block observer* watches a fault-free run from the block path.  ``run``
# calls ``start()`` once, ``plan(block)`` right before entering a block
# (``None`` steps the block one instruction at a time instead), then
# ``after_block(plan, ran)`` with the number of its instructions that ran;
# on the per-instruction loop it calls ``before_op(op)`` and ``after_op(op)``
# around each executed op.  :class:`_RegisterWatch` is one; the lockstep
# runtime's golden touch recorder (:mod:`repro.engine.lockstep`) is another.


class _RegisterWatch:
    """Folds every value the watched registers hold at an instruction
    boundary into their read summaries (objects with ``ored``/``anded``
    words, e.g. :class:`~repro.rtl.faults.CellReads`).

    A register's boundary value changes only when its physical slot is
    written or the window moves, so the watch records after writes rather
    than at every boundary: every register at the start of a run and after
    a window move, and otherwise the registers an op or block just wrote.
    A block can be watched this way when it rewrites no watched slot (the
    first value would be lost) and moves the window only in its last
    instruction; other blocks step one instruction at a time.  The value
    left by a run's last instruction is recorded too, although no boundary
    follows it: the summary may over-approximate, never miss, a value.
    """

    def __init__(self, reads: Mapping[int, Any], registers) -> None:
        self._registers = registers
        self._reads = reads
        self._windowed = [reg for reg in reads if reg >= 8]
        #: Block -> ``None`` when it cannot be watched, else the
        #: (slot, summary) pairs it may write and whether it moves the window.
        self._plans: Dict[_Block, Optional[tuple]] = {}
        #: Op -> the registers to record after it (see :meth:`after_op`).
        self._targets: Dict[_CachedOp, Tuple[int, ...]] = {}

    def record(self, regs) -> None:
        read = self._registers.read
        reads = self._reads
        for reg in regs:
            summary = reads.get(reg)
            if summary is not None:
                value = read(reg)
                summary.ored |= value
                summary.anded &= value

    def start(self) -> None:
        self.record(self._reads)

    def before_op(self, op: _CachedOp) -> None:
        pass

    def after_op(self, op: _CachedOp) -> None:
        targets = self._targets.get(op)
        if targets is None:
            # The watched registers *op* writes, all window registers after
            # a window move (computed once per op).
            targets = self._targets[op] = tuple(
                reg for reg in _written_registers(op) if reg in self._reads
            ) + (tuple(self._windowed)
                 if op.handler is _h_save or op.handler is _h_restore else ())
        if targets:
            self.record(targets)

    def plan(self, block: _Block) -> Optional[tuple]:
        """The block's watch plan (computed once per block, which is
        specialised to one window)."""
        plan = self._plans.get(block, _UNTRANSLATED)
        if plan is _UNTRANSLATED:
            registers = self._registers
            cwp = registers.cwp
            slots = {
                (reg if reg < 8 else 8 + registers._physical_index(reg, cwp)):
                    summary
                for reg, summary in self._reads.items()
            }
            if (block.rewrites.isdisjoint(slots)
                    and not (block.early_shift and self._windowed)):
                plan = (
                    tuple((slot, summary) for slot, summary in slots.items()
                          if slot in block.writes),
                    block.shifts,
                )
            else:
                plan = None
            self._plans[block] = plan
        return plan

    def after_block(self, plan: tuple, ran: int) -> None:
        registers = self._registers
        for slot, summary in plan[0]:
            value = (registers._globals[slot] if slot < 8
                     else registers._windows[slot - 8])
            summary.ored |= value
            summary.anded &= value
        if plan[1]:
            self.record(self._windowed)


class _Observers:
    """Several block observers on one run: a block runs when every observer
    plans it, and each sees its own plan afterwards."""

    def __init__(self, observers: Tuple[Any, ...]) -> None:
        self._observers = observers

    def start(self) -> None:
        for observer in self._observers:
            observer.start()

    def plan(self, block: _Block) -> Optional[tuple]:
        plans = []
        for observer in self._observers:
            plan = observer.plan(block)
            if plan is None:
                return None
            plans.append(plan)
        return tuple(plans)

    def after_block(self, plan: tuple, ran: int) -> None:
        for observer, own in zip(self._observers, plan):
            observer.after_block(own, ran)

    def before_op(self, op: _CachedOp) -> None:
        for observer in self._observers:
            observer.before_op(op)

    def after_op(self, op: _CachedOp) -> None:
        for observer in self._observers:
            observer.after_op(op)


class FastEmulator(Emulator):
    """Drop-in, bit-identical, faster replacement for :class:`Emulator`.

    Optionally applies an :class:`~repro.iss.faults.ArchitecturalFault`
    while running (pass ``fault=``), replicating
    :class:`~repro.iss.faults.FaultyEmulator` exactly: a stuck-at is
    applied to the register file before every executed (non-annulled)
    instruction (on the block path, where it can act — see the module
    docstring); a ``bit_flip`` fires once at its trigger index.
    """

    def __init__(
        self,
        memory: Optional[Memory] = None,
        nwindows: int = 8,
        timing=None,
        detailed_trace: bool = False,
        fault: Optional[ArchitecturalFault] = None,
    ):
        super().__init__(
            memory=memory,
            nwindows=nwindows,
            timing=timing,
            detailed_trace=detailed_trace,
        )
        self._fault = fault
        self._fault_executed = 0
        self._flip_done = False
        self._watch: Optional[_RegisterWatch] = None
        #: A further block observer (see :meth:`observe`).
        self._observer: Optional[Any] = None
        self._decode_cache: Dict[int, _CachedOp] = {}
        self._code_pages: Dict[int, Set[int]] = {}
        #: Per-CWP map of block entry PC -> compiled block, or ``None`` where
        #: no block starts (the per-instruction loop runs that PC).
        self._blocks: List[Dict[int, Optional[_Block]]] = [
            {} for _ in range(nwindows)
        ]
        #: Code page -> the (cwp, pc) block entries with an instruction on it.
        self._block_pages: Dict[int, Set[Tuple[int, int]]] = {}
        #: Decode-cache fills this emulator performed (one per distinct PC
        #: between invalidations) — observable for tests and diagnostics.
        #: Block translation fills through the same cache, and may fill the
        #: delay slot of a conditional annulling branch that is never taken,
        #: so a run can count a fill for a PC it never executes.
        self.decode_fills = 0
        #: Opt-in for segment drivers (the checkpointed transient runtime):
        #: when True, ``run`` skips folding the deferred per-mnemonic counts
        #: into the returned trace and exposes them raw on :attr:`last_counts`
        #: instead — the driver accumulates counts across many short slices
        #: and folds once, so the returned ``trace`` is left empty on purpose.
        self.collect_raw_counts = False
        #: Raw per-mnemonic counts of the last run (see above).
        self.last_counts: Dict[str, int] = {}

    # -- cache management ---------------------------------------------------------

    def flush_decode_cache(self) -> None:
        """Drop every cached decode and block (required after external memory
        writes)."""
        self._decode_cache.clear()
        self._code_pages.clear()
        for blocks in self._blocks:
            blocks.clear()
        self._block_pages.clear()

    def load_program(self, program) -> None:
        self.flush_decode_cache()
        super().load_program(program)

    def reset(self, entry_point: int = 0) -> None:
        super().reset(entry_point=entry_point)
        self._fault_executed = 0
        self._flip_done = False

    def watch(self, reads: Mapping[int, Any]) -> None:
        """Fold the value of each register in *reads* at every instruction
        boundary of the following runs into its summary (``reads`` maps a
        register 1..31 to an object with ``ored``/``anded`` words).  Refused
        while a fault is armed: the watch describes the fault-free run."""
        if self._fault is not None:
            raise RuntimeError("cannot watch registers while a fault is armed")
        self._watch = _RegisterWatch(reads, self.registers) if reads else None

    def observe(self, observer: Optional[Any]) -> None:
        """Attach a block observer (see the note above :class:`_RegisterWatch`)
        to the following runs, beside any register watch; ``None`` detaches
        it.  Refused while a fault is armed, like :meth:`watch`."""
        if observer is not None and self._fault is not None:
            raise RuntimeError("cannot observe a run while a fault is armed")
        self._observer = observer

    def _fill(self, pc: int) -> _CachedOp:
        word = self.memory.read_word(pc)
        op = _CachedOp(decode_cached(word), pc)
        self._decode_cache[pc] = op
        self._code_pages.setdefault(pc >> PAGE_SHIFT, set()).add(pc)
        self.decode_fills += 1
        return op

    def _translate(self, pc: int) -> Optional[_Block]:
        """Find or compile the block entered at *pc* in the current window.

        The block is the run of instructions from *pc* the block compiler
        handles, up to a CTI plus its delay slot or :data:`_BLOCK_CAP`
        instructions; ``None`` when the instruction at *pc* itself ends a
        block.  Either answer is cached per (cwp, pc) and registered on every
        code page the block covers, so stores there drop it.
        """
        cache_get = self._decode_cache.get
        ops: List[_CachedOp] = []
        at = pc
        while len(ops) < _BLOCK_CAP:
            try:
                op = cache_get(at) or self._fill(at)
            except (MemoryError_, DecodeError):
                break
            handler = op.handler
            if handler not in _BLOCK_HANDLERS:
                break
            if handler in _CTI_HANDLERS:
                if handler is _h_branch and op.annul and op.cond & 7 == 0:
                    ops.append(op)  # ba,a / bn,a: the slot never executes
                elif len(ops) + 2 <= _BLOCK_CAP:
                    try:
                        slot = cache_get(at + 4) or self._fill(at + 4)
                    except (MemoryError_, DecodeError):
                        break
                    if (slot.handler in _BLOCK_HANDLERS
                            and slot.handler not in _CTI_HANDLERS):
                        ops += (op, slot)
                break
            ops.append(op)
            at += 4
        registers = self.registers
        cwp = registers.cwp
        block = None
        if ops:
            key = (
                pc, cwp, registers.nwindows,
                tuple(op.instruction.word for op in ops),
                tuple(op.handler for op in ops),
            )
            block = _BLOCK_MEMO.get(key)
            if block is None:
                compiler = _BlockCompiler(registers, ops, pc)
                block = _BLOCK_MEMO[key] = _Block(
                    compiler.build(), tuple(ops),
                    compiler.slot_writes, compiler.shift_at,
                )
        self._blocks[cwp][pc] = block
        last = pc + 4 * max(len(ops) - 1, 0)
        for page in range(pc >> PAGE_SHIFT, (last >> PAGE_SHIFT) + 1):
            self._block_pages.setdefault(page, set()).add((cwp, pc))
        return block

    # -- checkpoint capture / restore ---------------------------------------------
    #
    # A capture is the complete mid-run architectural + timing state of a
    # paused emulator (``run`` stops at any instruction boundary when its
    # budget expires and continues bit-identically on the next call), with
    # memory stored as dirty pages relative to *base_pages* — the page image
    # right after ``load_program``.  The checkpointed transient runtime
    # (repro.engine.checkpoint) records one capture per ladder rung during
    # the golden run and restores them to fork injection runs mid-execution.

    def capture_state(self, base_pages: Dict[int, bytes]) -> dict:
        """Snapshot the paused emulator state (dirty pages vs *base_pages*)."""
        registers = self.registers
        timing = self.timing
        return {
            "globals": list(registers._globals),
            "windows": list(registers._windows),
            "cwp": registers.cwp,
            "saved_depth": registers._saved_depth,
            "icc": self.icc.as_bits(),
            "y": self.y_register,
            "pc": self.pc,
            "npc": self.npc,
            "annul": self._annul_next,
            "cycles": timing.cycles,
            "timing_instructions": timing.instructions,
            "dcache_hits": timing.dcache_hits,
            "dcache_misses": timing.dcache_misses,
            "touched_lines": tuple(sorted(timing._touched_lines)),
            "dirty_pages": {
                index: bytes(page)
                for index, page in self.memory._pages.items()
                if base_pages.get(index) != page
            },
        }

    def restore_state(
        self,
        payload: dict,
        base_pages: Dict[int, bytes],
        executed: int,
        fault: Optional[ArchitecturalFault] = None,
    ) -> None:
        """Rewind the emulator to a captured payload and arm *fault*.

        *executed* is the instruction count at the capture point; the fault
        trigger counter resumes from it so a ``bit_flip`` fires at exactly
        the same instruction index as in a from-reset run.  Cached decodes
        survive the restore when their code page is byte-equal to the
        restored image (the cache's invariant is "ops reflect the bytes in
        memory", which the comparison re-establishes); pages that change are
        invalidated, exactly like a store to them would.
        """
        registers = self.registers
        registers._globals = list(payload["globals"])
        registers._windows = list(payload["windows"])
        registers.cwp = payload["cwp"]
        registers._saved_depth = payload["saved_depth"]
        self.icc = ConditionCodes.from_bits(payload["icc"])
        self.y_register = payload["y"]
        self.pc = payload["pc"]
        self.npc = payload["npc"]
        self._annul_next = payload["annul"]
        timing = self.timing
        timing.cycles = payload["cycles"]
        timing.instructions = payload["timing_instructions"]
        timing.dcache_hits = payload["dcache_hits"]
        timing.dcache_misses = payload["dcache_misses"]
        timing._touched_lines = set(payload["touched_lines"])
        pages = {index: bytearray(page) for index, page in base_pages.items()}
        for index, page in payload["dirty_pages"].items():
            pages[index] = bytearray(page)
        current = self.memory._pages
        for page_index in list(self._code_pages):
            if current.get(page_index) != pages.get(page_index):
                _invalidate_code_page(self, page_index)
        self.memory._pages = pages
        self._fault = fault
        self._fault_executed = executed
        self._flip_done = False

    def state_digest(self, base_pages: Dict[int, bytes]) -> str:
        """Digest of the complete mid-run state (the convergence key).

        Covers everything the remaining execution and its observables depend
        on — registers, ICC, Y, PC/nPC, the pending-annul flag, the full
        timing state (cycle/instruction tallies, cache counters, touched
        lines) and the pages dirtied relative to *base_pages* — so two runs
        with equal digests at equal instruction counts replay identical
        futures.  Fault bookkeeping is deliberately excluded: the runtime
        only compares digests after the fault effect is spent.
        """
        registers = self.registers
        timing = self.timing
        hasher = hashlib.sha256()
        hasher.update(
            repr(
                (
                    registers._globals, registers._windows, registers.cwp,
                    registers._saved_depth, self.icc.as_bits(),
                    self.y_register, self.pc, self.npc, self._annul_next,
                    timing.cycles, timing.instructions, timing.dcache_hits,
                    timing.dcache_misses, tuple(sorted(timing._touched_lines)),
                )
            ).encode()
        )
        for index in sorted(self.memory._pages):
            page = self.memory._pages[index]
            if base_pages.get(index) != page:
                hasher.update(b"%d:" % index)
                hasher.update(page)
        return hasher.hexdigest()

    # -- main loop ----------------------------------------------------------------

    def run(self, max_instructions: int = 2_000_000) -> ExecutionResult:
        detailed = self.detailed_trace
        trace = ExecutionTrace(detailed=detailed)
        transactions: List[OffCoreTransaction] = []
        trap: Optional[TrapEvent] = None
        halted = False
        exit_code: Optional[int] = None
        executed = 0
        counts: Dict[str, int] = {}
        counts_get = counts.get
        cache_get = self._decode_cache.get
        timing = self.timing
        registers = self.registers
        fault = self._fault
        fault_permanent = fault is not None and fault.model != "bit_flip"
        # Blocks fold their mnemonic counts per exit, so a detailed trace
        # steps every instruction; so does a bit_flip.  A stuck-at is
        # applied at block entry and enters only the blocks it cannot act
        # inside (see "Armed stuck-at" in the module docstring).
        use_blocks = not detailed and (fault is None or fault_permanent)
        #: Per-CWP block slot of the stuck-at's register; ``None`` without a
        #: stuck-at, or on %g0, which ignores writes (every block is entered).
        stuck_slots: Optional[List[int]] = None
        stuck_windowed = False
        if fault_permanent and fault.register:
            stuck_windowed = fault.register >= 8
            stuck_slots = [
                8 + registers._physical_index(fault.register, cwp)
                if stuck_windowed else fault.register
                for cwp in range(registers.nwindows)
            ]
        watch: Any = self._watch
        if self._observer is not None:
            watch = (self._observer if watch is None
                     else _Observers((watch, self._observer)))
        if watch is not None and max_instructions > 0:
            watch.start()
        # One test on the fault-free block path for both of the above.
        armed = stuck_slots is not None or watch is not None
        blocks = self._blocks
        #: (block, instructions ran) -> times, folded into counts at the end.
        exits: Dict[Tuple[_Block, int], int] = {}
        exits_get = exits.get

        while executed < max_instructions:
            pc = self.pc
            if self._annul_next:
                # The delay-slot instruction is annulled: skip it without
                # executing, recording, or charging the instruction budget.
                self._annul_next = False
                self.pc = self.npc
                self.npc += 4
                continue
            if use_blocks and self.npc == pc + 4:
                block = blocks[registers.cwp].get(pc, _UNTRANSLATED)
                if block is _UNTRANSLATED:
                    block = self._translate(pc)
                if block is not None:
                    if executed + block.length > max_instructions:
                        # The budget ends inside this block: the few
                        # remaining instructions step one at a time.
                        use_blocks = False
                    elif armed and (
                        (stuck_slots is not None and (
                            stuck_slots[registers.cwp] in block.early_writes
                            or (stuck_windowed and block.early_shift)
                        ))
                        or (watch is not None and (plan := watch.plan(block)) is None)
                    ):
                        # The stuck-at would act inside, or an observer
                        # cannot follow the block: step this one.
                        pass
                    else:
                        if armed and stuck_slots is not None:
                            registers.write(
                                fault.register,
                                fault.apply(registers.read(fault.register)),
                            )
                        error = None
                        try:
                            ran = block.run(self, transactions)
                        except _TRAP_ERRORS as exc:
                            ran = ((self.pc - pc) >> 2) + 1
                            error = exc
                        executed += ran
                        if armed and watch is not None:
                            watch.after_block(plan, ran)
                        key = (block, ran)
                        seen = exits_get(key)
                        if seen is None:
                            exits[key] = 1
                            # Claim the mnemonics' first-execution order now;
                            # their counts fold in after the loop.
                            for mnemonic, _ in block.histogram(ran):
                                if mnemonic not in counts:
                                    counts[mnemonic] = 0
                        else:
                            exits[key] = seen + 1
                        if error is not None:
                            trap = _trap_event(error, self.pc)
                            halted = True
                            break
                        continue
            op = cache_get(pc)
            if op is None:
                try:
                    op = self._fill(pc)
                except (MemoryError_, DecodeError) as exc:
                    trap = TrapEvent("illegal_instruction", pc, str(exc))
                    halted = True
                    break
            if detailed:
                trace.record(op.instruction, pc, timing.cycles)
                timing.account(op.instruction)
            else:
                mnemonic = op.mnemonic
                counts[mnemonic] = counts_get(mnemonic, 0) + 1
            executed += 1
            if fault is not None:
                if fault_permanent:
                    registers.write(
                        fault.register, fault.apply(registers.read(fault.register))
                    )
                elif not self._flip_done and self._fault_executed >= fault.trigger_index:
                    registers.write(
                        fault.register, fault.apply(registers.read(fault.register))
                    )
                    self._flip_done = True
                self._fault_executed += 1
            if armed and watch is not None:
                watch.before_op(op)
            try:
                outcome = op.handler(self, op, pc, transactions)
            except _TRAP_ERRORS as exc:
                trap = _trap_event(exc, pc)
                halted = True
                break
            if armed and watch is not None:
                watch.after_op(op)
            if outcome is None:
                self.pc = self.npc
                self.npc += 4
            elif type(outcome) is tuple:
                self.pc = self.npc
                self.npc = outcome[0]
                self._annul_next = outcome[1]
            else:
                trap = outcome
                halted = True
                if outcome.is_exit:
                    exit_code = int(outcome.detail) if outcome.detail else 0
                break

        if executed >= max_instructions and not halted:
            trap = TrapEvent("watchdog", self.pc, "instruction budget exhausted")

        for (block, ran), times in exits.items():
            for mnemonic, count in block.histogram(ran):
                counts[mnemonic] += count * times
        if self.collect_raw_counts:
            # Latency accounting must stay complete per slice — ``cycles``
            # below is read from the timing model.  Only the trace fold is
            # deferred to the driver.
            self.last_counts = counts
            _fold_counts(counts, timing, None)
        else:
            _fold_counts(counts, timing, trace)

        return ExecutionResult(
            trace=trace,
            transactions=transactions,
            instructions=executed,
            cycles=timing.cycles,
            halted=halted,
            exit_code=exit_code,
            trap=trap,
            final_pc=self.pc,
        )


# ---------------------------------------------------------------------------
# Bit-identity verification (shared by tests and the throughput benchmark).
# ---------------------------------------------------------------------------


def run_fast_program(
    program,
    max_instructions: int = 2_000_000,
    fault: Optional[ArchitecturalFault] = None,
    detailed_trace: bool = False,
) -> ExecutionResult:
    """Convenience helper: run *program* on a fresh :class:`FastEmulator`."""
    emulator = FastEmulator(
        memory=Memory(), detailed_trace=detailed_trace, fault=fault
    )
    emulator.load_program(program)
    return emulator.run(max_instructions=max_instructions)


def _final_state(emulator: Emulator) -> dict:
    return {
        "registers": emulator.registers.snapshot(),
        "icc": emulator.icc,
        "y": emulator.y_register,
        "pc": emulator.pc,
        "npc": emulator.npc,
        "memory": {
            index: bytes(page) for index, page in emulator.memory._pages.items()
        },
    }


def assert_results_identical(
    reference_emulator: Emulator,
    reference: ExecutionResult,
    fast_emulator: Emulator,
    fast: ExecutionResult,
) -> None:
    """Assert two finished runs match on every observable of the contract.

    The single definition of the bit-identity comparison set — the tests and
    the throughput benchmark both call it, so the contract cannot drift
    between the two.  Raises :class:`AssertionError` naming the first
    divergent observable.
    """
    assert fast.trace == reference.trace, "trace statistics diverge"
    assert fast.transactions == reference.transactions, "transaction streams diverge"
    assert fast.instructions == reference.instructions, "instruction counts diverge"
    assert fast.cycles == reference.cycles, "cycle counts diverge"
    assert fast.halted == reference.halted, "halt status diverges"
    assert fast.exit_code == reference.exit_code, "exit codes diverge"
    assert fast.trap == reference.trap, "trap events diverge"
    assert fast.final_pc == reference.final_pc, "final PCs diverge"
    assert _final_state(fast_emulator) == _final_state(reference_emulator), (
        "final architectural state diverges"
    )


def verify_bit_identity(
    program,
    max_instructions: int = 2_000_000,
    fault: Optional[ArchitecturalFault] = None,
    detailed_trace: bool = False,
) -> Tuple[ExecutionResult, ExecutionResult]:
    """Run *program* on both interpreters and assert every observable matches.

    Compares the execution trace (statistics and, when detailed, the
    per-instruction records), the off-core transaction stream, instruction
    and cycle counts, halt/exit/trap status, and the final architectural
    state (register file, condition codes, Y, PC/nPC, memory image).
    Raises :class:`AssertionError` on the first divergence; returns the
    ``(reference, fast)`` result pair for further inspection.
    """
    if fault is not None:
        reference_emulator: Emulator = FaultyEmulator(
            fault, memory=Memory(), detailed_trace=detailed_trace
        )
    else:
        reference_emulator = Emulator(memory=Memory(), detailed_trace=detailed_trace)
    reference_emulator.load_program(program)
    reference = reference_emulator.run(max_instructions=max_instructions)

    fast_emulator = FastEmulator(
        memory=Memory(), detailed_trace=detailed_trace, fault=fault
    )
    fast_emulator.load_program(program)
    fast = fast_emulator.run(max_instructions=max_instructions)

    assert_results_identical(reference_emulator, reference, fast_emulator, fast)
    return reference, fast
