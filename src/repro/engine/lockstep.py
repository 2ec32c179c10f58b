"""Lockstep N-way replica execution: one shared front end, many replicas.

A transient campaign runs hundreds of near-identical replicas of one
workload; after the checkpointed runtime (:mod:`repro.engine.checkpoint`)
removed the redundancy *within* each run, the dominant remaining redundancy
is *across* replicas — every faulty run re-executes a mostly-golden
instruction stream one at a time.  This module removes exactly that
redundancy while staying **bit-identical to the from-reset execution of each
fault** (the same contract the fast interpreters and the checkpoint runtime
honour, enforced by ``tests/test_lockstep.py`` and re-verified by
``benchmarks/throughput.py lockstep`` before any number is reported):

* **Pack leader** — a pack of N faulty replicas executes through a single
  shared fetch/decode front end: one fault-free :class:`FastEmulator` (the
  *leader*) replays the golden trajectory, and every in-pack replica is
  represented as a sparse *delta* — the physical register slots (plus the
  ``"icc"``/``"y"`` pseudo-slots) where its architectural state differs from
  the leader's.  (The per-replica state arrays of the dense formulation
  degenerate to these deltas precisely because in-pack replicas share the
  leader's control flow and memory image — see the invariant below.)

* **Propagate across the pack** — when an instruction's input set intersects
  a live delta, the shared front end applies the op across the whole pack:
  for ALU-class ops (add/sub/logic/shift/multiply, ``sethi``, ``rd``/``wr``)
  the leader *double-executes* — the replica's delta values are patched into
  the leader's register file (and ICC/Y), the already-resolved handler runs
  once more against them, the replica's outputs are captured, and the leader
  is rolled back exactly — so the replica's divergent results flow into its
  delta without leaving the pack.  Conditional branches compare the
  replica's branch outcome (its delta ICC through the same
  ``evaluate_condition``) against the leader's.  Memory stays shared through
  per-replica *word deltas*: a load whose address agrees with the leader
  reads through the replica's patched view of the one shared image, and a
  store of divergent data lands in the replica's word delta plus a *patched
  store transaction* over the golden off-core stream — the replica's
  observable history with its own store data in place — instead of forking
  the memory image.

* **Demote on divergence** — a replica leaves the pack the moment it stops
  agreeing with the leader's control flow or memory addresses: a different
  branch outcome, a touched op that can trap or redirect control (``jmpl``,
  ``ticc``, division, register-window save/restore), a memory access whose
  *address* registers are touched (the replica accesses somewhere else
  entirely), or any touched access aimed at the I/O region (reads there are
  observable).  The demoted replica is handed to the existing scalar fast
  path at that exact instruction boundary — the leader's captured state plus
  the replica's delta — which runs it forward alone, with the checkpoint
  runtime's golden-tail splice when its convergence digest matches a ladder
  rung.  Demotion *before* the divergent instruction executes is what keeps
  the sparse deltas a complete replica representation.

* **Converge on overwrite** — an instruction whose output set overwrites a
  delta slot with an untouched-input result makes the replica's value equal
  the leader's again, and a propagated result that matches the leader's
  converges the same way (a golden-valued store erases a dirty memory word
  just like a register overwrite erases a register delta).  A transient
  replica whose deltas empty — and whose store history carries no patch, a
  patched history being a permanent observable difference — has re-converged
  to the golden trajectory: since the leader *is* the golden run, its result
  is the golden result — the pack resolves it immediately, without the
  rung-boundary digest wait of the scalar runtime.  This is also how a
  demoted replica "rejoins" the pack: rejoining the golden-replay leader and
  splicing the golden tail are the same operation.

* **Event-driven front end** — the golden trajectory is fixed, so the runner
  has a *touch timeline*: for every physical slot, pseudo-slot and accessed
  memory word, the sorted executed-instruction indices where the golden run
  reads or writes it, plus a *write timeline* of the register writes and
  window moves.  A :class:`TouchRecorder` records both on compiled blocks,
  as a block observer of the golden run the campaign already makes (the
  transient ladder's, or the permanent plan's watched golden): per block it
  logs the entry index, and expands a slot's list on the sweep's first
  query.  A runner built without them records its own on the same recorder.
  In a warm ``seu_lockstep`` pass on a 2-CPU container this replaced a
  stepped replay of every golden (0.53–0.65 s) with 0.06–0.08 s inside the
  goldens.  Between events — the next fault trigger, the next golden touch
  of any live delta slot, and the boundary after the next golden write of a
  stuck-at's slot (or window move, for a window register) — nothing in the
  pack can change, so the leader fast-forwards at full scalar speed
  (restoring the latest golden ladder rung first, which forks the whole
  pack from the checkpoint in one restore) and the per-instruction pack
  bookkeeping runs *only* on the instructions that can matter.  Replicas whose fault lands in ``%g0`` or
  in a never-touched slot therefore cost almost nothing — exactly the runs
  that are the scalar runtime's worst case (a dead-register flip never
  digest-matches and runs to the golden end).  One sweep serves transient
  and permanent replicas alike.

Per-instruction fault semantics replicate :class:`FastEmulator` exactly:
annulled delay slots are skipped before any fault bookkeeping, a ``bit_flip``
fires once when the executed-instruction count reaches its trigger, and a
permanent (stuck-at) fault acts as if re-applied to the replica's register
image before every executed instruction.  It can change that image only at
a boundary right after its slot was written or the window moved, so the
sweep re-applies it exactly there — kept sticky in the delta and re-derived
under the current window pointer, so ``save``/``restore`` renaming behaves
exactly like the scalar path's physical register file.

The pack runtime is ISS-only (the RTL backend falls back to the scalar
checkpoint runtime) and plugs in beneath the campaign layer through
``CampaignConfig.lockstep_width`` / ``repro campaign run --lockstep N``;
like the interpreter choice and the checkpoint knobs it is an execution
strategy, not a result input, and is excluded from the campaign store key
(see :data:`repro.store.keys.KEY_VERSION`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.isa import semantics
from repro.isa.ccodes import ConditionCodes, evaluate_condition
from repro.isa.decoder import DecodeError
from repro.isa.instructions import INSTRUCTION_SET
from repro.isa.registers import NUM_GLOBALS, RegisterWindowError
from repro.iss.emulator import IO_BASE, SimulationError, TrapEvent
from repro.iss import fastpath as _fastpath
from repro.iss.fastpath import FastEmulator
from repro.iss.faults import ArchitecturalFault
from repro.iss.memory import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, Memory, MemoryError_
from repro.iss.trace import OffCoreTransaction

from repro.engine.backend import RunResult
from repro.engine.checkpoint import (
    CheckpointLadder,
    splice_golden_tail,
    trace_from_counts,
)
from repro.obs.telemetry import TELEMETRY, TelemetryRegistry

__all__ = [
    "GoldenTimelines",
    "LockstepPackRunner",
    "PackOutcome",
    "TouchRecorder",
    "make_pack_runner",
    "packs_enabled",
]

_PLAIN_LOADS = frozenset({"ld", "ldub", "lduh", "ldsb", "ldsh"})
_PLAIN_STORES = frozenset({"st", "stb", "sth"})

#: Delta / timeline key: a physical register slot, the ``"icc"``/``"y"``
#: pseudo-slots (ICC stored as its packed ``as_bits()`` integer so it patches
#: straight into ``capture_state`` payloads and compares by value), or a
#: memory word — ``_MEM_KEY_BASE + aligned word address``, disjoint from
#: every register slot index.
_Key = Union[int, str]

#: The memory split of one load/store op — ``(address_regs, data_regs,
#: is_store, is_double)`` — in architectural-register form
#: (:func:`_arch_effects`) or physical-slot form (:class:`_EffectsCache`).
_MemInfo = Tuple[Tuple[_Key, ...], Tuple[_Key, ...], bool, bool]

_MEM_KEY_BASE = 0x1_0000_0000

#: A recorded load/store: ``(offset, rs1 slot, rs2 slot or None, immediate,
#: is_double)`` (see :class:`_TouchPlan`).
_MemOp = Tuple[int, int, Optional[int], int, bool]

_BRANCH_HANDLER = _fastpath._h_branch
_TICC_HANDLER = _fastpath._h_ticc


def _table_handlers(*families: Iterable[str]) -> FrozenSet[Callable[..., Any]]:
    """The fast-path handlers of every row of the semantics-table
    *families* (:mod:`repro.isa.semantics`)."""
    return frozenset(
        _fastpath._ALU_HANDLERS[base] for family in families for base in family
    )


#: Handlers safe to double-execute on the leader: they read only registers /
#: ICC / Y, write only their destination slots / ICC / Y, never touch memory
#: or transactions, never trap and never redirect control flow — every ALU
#: and product row of the semantics table, plus the ops below.  (Division
#: propagates too, but through its own triage branch — its only trap is a
#: zero divisor, so each replica's divisor view is checked first; everything
#: else that can trap or compute a control target demotes.)
_PROPAGATE_HANDLERS = _table_handlers(
    semantics.ALU_RESULTS, semantics.PRODUCTS
) | frozenset({_fastpath._h_sethi, _fastpath._h_call, _fastpath._h_rd,
               _fastpath._h_wr})

#: Rows that read the carry read the ICC; products write Y; quotients read Y
#: and are the division handlers.
_ICC_READERS = _table_handlers(semantics.CARRY_READERS)
_DIV_HANDLERS = _table_handlers(semantics.QUOTIENTS)
_Y_READERS = _DIV_HANDLERS | {_fastpath._h_rd}
_Y_WRITERS = _table_handlers(semantics.PRODUCTS) | {_fastpath._h_wr}

_WINDOW_HANDLERS = frozenset({_fastpath._h_save, _fastpath._h_restore})

#: Demote a replica after this many touched instructions.  A replica whose
#: divergent slots feed nearly every instruction (a corrupted loop counter
#: or accumulator) pays a per-touch propagation cost comparable to scalar
#: execution *plus* the pack's bookkeeping, so past this budget the scalar
#: path is strictly cheaper.  Purely a performance valve: demotion is exact
#: at any boundary, so the cutoff never changes an observable.  Replicas
#: that converge do so within a few touches; genuine riders are touched
#: rarely and stay far below the budget.
PROPAGATION_BUDGET = 48

#: ``bn``/``ba`` (and ``tn``/``ta``): conditions that never consult the ICC.
_UNCONDITIONAL_CONDS = (0x0, 0x8)


def _arch_effects(
    op: Any,
) -> Tuple[
    Tuple[_Key, ...], Tuple[_Key, ...], Optional[str], bool, Optional[_MemInfo]
]:
    """Architectural input/output sets of one cached op.

    Returns ``(inputs, outputs, window_shift, propagatable, memory)``.
    *inputs* and *outputs* mix architectural register indices with the
    ``"icc"``/``"y"`` pseudo-keys; *window_shift* marks ``save``/``restore``
    (their destination register is written under the *new* window);
    *propagatable* marks ops the pack applies to touched replicas by
    double-execution instead of demoting; *memory* is ``None`` except for the
    ten load/store mnemonics, where it is ``(address_regs, data_regs,
    is_store, is_double)`` — the split the pack's memory fast path uses to
    demote on a divergent *address* while keeping divergent *data* in pack.

    Inputs are conservative supersets of what the handler may read —
    ``ticc`` always lists ``%o0`` (the exit-code read) and its trap-number
    register even though both are only consulted when the condition passes —
    which can only cause an early demotion, never a missed one.  Outputs are
    **exact**: a listed slot is always written when the op executes (that
    exactness is what makes converge-on-overwrite sound); their registers
    are :func:`~repro.iss.fastpath._written_registers`, the set the block
    compiler records.
    ``%g0`` is filtered by the physical mapping (it reads as a constant and
    ignores writes, so it can never carry a delta).
    """
    handler = op.handler
    mnemonic = op.mnemonic
    rs2 = () if op.use_imm else (op.rs2,)
    writes = _fastpath._written_registers(op)
    if handler is _BRANCH_HANDLER:
        icc_in = () if op.cond in _UNCONDITIONAL_CONDS else ("icc",)
        return icc_in, (), None, False, None
    if mnemonic == "call" or mnemonic == "sethi":
        return (), writes, None, True, None
    if mnemonic == "jmpl":
        return (op.rs1,) + rs2, writes, None, False, None
    if mnemonic == "ticc":
        ticc_in = rs2 + (8,)
        if op.cond not in _UNCONDITIONAL_CONDS:
            ticc_in += ("icc",)
        return ticc_in, (), None, False, None
    if mnemonic == "save" or mnemonic == "restore":
        return (op.rs1,) + rs2, writes, mnemonic, False, None
    if mnemonic == "rd":
        return ("y",), writes, None, True, None
    if mnemonic == "wr":
        return (op.rs1,) + rs2, ("y",), None, True, None
    address_regs = (op.rs1,) + rs2
    if mnemonic in _PLAIN_STORES:
        return (address_regs + (op.rd,), (), None, False,
                (address_regs, (op.rd,), True, False))
    if mnemonic == "std":
        even = op.rd & ~1
        return (address_regs + (even, even | 1), (), None, False,
                (address_regs, (even, even | 1), True, True))
    if mnemonic == "ldd" or mnemonic in _PLAIN_LOADS:
        return (address_regs, writes, None, False,
                (address_regs, (), False, mnemonic == "ldd"))
    # Every remaining opcode dispatches through the ALU table (unimplemented
    # ALU semantics trap in the handler, which a golden replay never reaches).
    inputs: Tuple[_Key, ...] = (op.rs1,) + rs2
    outputs: Tuple[_Key, ...] = writes
    if handler in _ICC_READERS:
        inputs += ("icc",)
    if handler in _Y_READERS:
        inputs += ("y",)
    if op.sets_icc:
        outputs += ("icc",)
    if handler in _Y_WRITERS:
        outputs += ("y",)
    return inputs, outputs, None, handler in _PROPAGATE_HANDLERS, None


def _slot_of(registers: Any, register: int, cwp: int) -> int:
    """The physical slot of architectural *register* under window *cwp*
    (``%g0`` maps to slot 0)."""
    if register < NUM_GLOBALS:
        return register
    return NUM_GLOBALS + registers._physical_index(register, cwp)


class _EffectsCache:
    """Physical-slot input/output sets, memoised per cached op per CWP.

    Delta keys are *physical* register slots (globals ``1..7`` keep their
    index; window registers map through
    :meth:`~repro.isa.registers.RegisterFile._physical_index` offset by
    ``NUM_GLOBALS``) plus the ``"icc"``/``"y"`` pseudo-slots, so a delta
    survives ``save``/``restore`` renaming without any remapping — exactly
    like the physical register file itself.  Entries pin their op object, so
    an ``id()`` can never be reused while its memo entry is alive.
    """

    def __init__(self, registers: Any) -> None:
        self._registers = registers
        self._nwindows = registers.nwindows
        self._by_op: Dict[int, Tuple[Any, List[Any]]] = {}

    def _slots(self, keys: Tuple[_Key, ...], cwp: int) -> Tuple[_Key, ...]:
        physical_index = self._registers._physical_index
        out: List[_Key] = []
        for key in keys:
            if type(key) is str:
                out.append(key)
            elif key != 0:
                out.append(
                    key if key < NUM_GLOBALS
                    else NUM_GLOBALS + physical_index(key, cwp)
                )
        return tuple(out)

    def get(
        self, op: Any, cwp: int
    ) -> Tuple[Tuple[_Key, ...], Tuple[_Key, ...], bool, Optional[_MemInfo],
               Tuple[_Key, ...], Tuple[_Key, ...]]:
        entry = self._by_op.get(id(op))
        if entry is None:
            entry = (op, [None] * self._nwindows)
            self._by_op[id(op)] = entry
        effects = entry[1][cwp]
        if effects is None:
            inputs, outputs, window_shift, propagatable, memory = _arch_effects(op)
            out_cwp = cwp
            if window_shift == "save":
                out_cwp = (cwp + 1) % self._nwindows
            elif window_shift == "restore":
                out_cwp = (cwp - 1) % self._nwindows
            if memory is not None:
                address_regs, data_regs, is_store, is_double = memory
                memory = (
                    self._slots(address_regs, cwp),
                    self._slots(data_regs, cwp),
                    is_store,
                    is_double,
                )
            input_slots = self._slots(inputs, cwp)
            output_slots = self._slots(outputs, out_cwp)
            effects = (
                input_slots,
                output_slots,
                propagatable,
                memory,
                # Merged, deduplicated touch set: what the timeline recorder
                # marks per executed instruction (reads and writes land in
                # one list there anyway).
                input_slots + tuple(
                    slot for slot in output_slots if slot not in input_slots
                ),
                # The register slots written, plus ``"cwp"`` for a window
                # move: the write timeline's marks.
                tuple(slot for slot in output_slots if type(slot) is int)
                + (("cwp",) if window_shift is not None else ()),
            )
            entry[1][cwp] = effects
        return effects


class _TouchPlan:
    """The golden touches of one recorded unit — a compiled block, or one
    stepped op — at one CWP, and the indices it ran from.

    *touches* / *writes* map each key to the offsets (from the unit's first
    instruction, ascending, one per mark) where the unit touches it / writes
    it.  *at_entry* and *at_exit* list the unit's load/store ops as
    ``(offset, rs1 slot, rs2 slot or None, immediate, is_double)``, split by
    when the register file holds their address registers' values: at unit
    entry (no earlier instruction of the unit writes them) or at its exit
    (neither the op nor a later one does).  Slot ``0`` is ``%g0``, which
    reads 0.  *runs* maps an instructions-ran count to the executed indices
    the unit was entered at.
    """

    __slots__ = ("touches", "writes", "at_entry", "at_exit", "runs")

    def __init__(self) -> None:
        self.touches: Dict[_Key, List[int]] = {}
        self.writes: Dict[_Key, List[int]] = {}
        self.at_entry: Tuple[_MemOp, ...] = ()
        self.at_exit: Tuple[_MemOp, ...] = ()
        self.runs: Dict[int, List[int]] = {}


class _Timeline(dict):
    """Key -> the sorted executed-instruction indices of its golden marks.

    Memory-word keys are filled as the golden runs; a register or pseudo-slot
    key is expanded from the plans that mark it the first time it is looked
    up (``timeline[key]``; an unmarked key reads ``[]``), since a sweep asks
    for only a minority of them.
    """

    def __init__(self, plans: Dict[_Key, List[_TouchPlan]], field: str,
                 eager: Optional[Dict[_Key, List[int]]] = None) -> None:
        super().__init__(eager or {})
        self._plans = plans
        self._field = field

    def __missing__(self, key: _Key) -> List[int]:
        indices: List[int] = []
        for plan in self._plans.get(key, ()):
            offsets = getattr(plan, self._field)[key]
            for ran, entries in plan.runs.items():
                for offset in offsets:
                    if offset >= ran:
                        break
                    indices.extend([entry + offset for entry in entries])
        indices.sort()
        self[key] = indices
        return indices

    def expanded(self) -> Dict[_Key, List[int]]:
        """Every marked key's list (the whole timeline, expanded)."""
        keys = set(self._plans) | set(dict.keys(self))
        return {key: self[key] for key in keys if self[key]}


class GoldenTimelines(NamedTuple):
    """The golden run's touch timeline and write timeline (see
    :class:`LockstepPackRunner`)."""

    touches: _Timeline
    writes: _Timeline


class TouchRecorder:
    """Records a golden run's :class:`GoldenTimelines` as a block observer of
    the :class:`FastEmulator` that runs it (``emulator.observe(recorder)``).

    Each block is planned once: the touch and write slots of each of its
    instructions at the CWP it runs under (:class:`_EffectsCache`, the one
    definition of the slots the sweep propagates through), and its memory
    ops.  A memory op's accessed words are computed from the register file
    at block entry when no earlier instruction of the block writes one of
    its address slots, else at block exit when neither it nor a later one
    does; a block with an op that fits neither gets no plan and steps.
    (``save``/``restore`` only move the CWP, so a physical slot keeps its
    value across them.)  Stepped ops are recorded one by one, from the
    register file before they execute.  A block entry costs one log append
    per (block, instructions ran) plus the words of its memory ops; the
    register lists are expanded lazily (:class:`_Timeline`).
    """

    def __init__(self, registers: Any) -> None:
        self._registers = registers
        self._effects = _EffectsCache(registers)
        self._block_plans: Dict[Any, Optional[_TouchPlan]] = {}
        #: (op, CWP) -> the plan of the op stepped alone.
        self._op_plans: Dict[Tuple[Any, int], _TouchPlan] = {}
        self._touching: Dict[_Key, List[_TouchPlan]] = {}
        self._writing: Dict[_Key, List[_TouchPlan]] = {}
        self._words: Dict[_Key, List[int]] = {}
        #: (offset, word keys) of the entered block's ``at_entry`` ops.
        self._entry_words: List[Tuple[int, Tuple[int, ...]]] = []
        #: Executed instructions so far (across runs: a ladder runs slices).
        self.executed = 0

    def timelines(self) -> GoldenTimelines:
        return GoldenTimelines(
            _Timeline(self._touching, "touches", self._words),
            _Timeline(self._writing, "writes"),
        )

    def _plan(self, ops: Sequence[Any], cwp: int) -> Optional[_TouchPlan]:
        plan = _TouchPlan()
        memory = []
        nwindows = self._registers.nwindows
        for offset, op in enumerate(ops):
            _, _, _, mem, touches, writes = self._effects.get(op, cwp)
            if mem is not None:
                memory.append((offset, mem[0], (
                    offset,
                    _slot_of(self._registers, op.rs1, cwp),
                    None if op.use_imm
                    else _slot_of(self._registers, op.rs2, cwp),
                    op.imm_u32,
                    mem[3],
                )))
            for key in touches:
                plan.touches.setdefault(key, []).append(offset)
            for key in writes:
                plan.writes.setdefault(key, []).append(offset)
            if op.mnemonic == "save":
                cwp = (cwp + 1) % nwindows
            elif op.mnemonic == "restore":
                cwp = (cwp - 1) % nwindows
        at_entry = []
        at_exit = []
        for offset, address_slots, memory_op in memory:
            written_at = [
                at for slot in address_slots for at in plan.writes.get(slot, ())
            ]
            if all(at >= offset for at in written_at):
                at_entry.append(memory_op)
            elif all(at < offset for at in written_at):
                at_exit.append(memory_op)
            else:
                return None
        plan.at_entry = tuple(at_entry)
        plan.at_exit = tuple(at_exit)
        for key in plan.touches:
            self._touching.setdefault(key, []).append(plan)
        for key in plan.writes:
            self._writing.setdefault(key, []).append(plan)
        return plan

    def _word_keys(
        self, memory_ops: Tuple[_MemOp, ...]
    ) -> List[Tuple[int, Tuple[int, ...]]]:
        """(offset, accessed word keys) of *memory_ops*, from the register
        file as it stands."""
        registers = self._registers
        g = registers._globals
        w = registers._windows
        out = []
        for offset, first, second, imm, is_double in memory_ops:
            address = g[first] if first < NUM_GLOBALS else w[first - NUM_GLOBALS]
            if second is None:
                address += imm
            else:
                address += (g[second] if second < NUM_GLOBALS
                            else w[second - NUM_GLOBALS])
            address &= 0xFFFFFFFF
            if is_double:
                keys = (_MEM_KEY_BASE + address, _MEM_KEY_BASE + address + 4)
            else:
                keys = (_MEM_KEY_BASE + (address & ~3),)
            out.append((offset, keys))
        return out

    def _log(self, plan: _TouchPlan, entry: int, ran: int,
             words: List[Tuple[int, Tuple[int, ...]]]) -> None:
        entries = plan.runs.get(ran)
        if entries is None:
            plan.runs[ran] = [entry]
        else:
            entries.append(entry)
        for offset, keys in words:
            if offset < ran:
                for key in keys:
                    indices = self._words.get(key)
                    if indices is None:
                        self._words[key] = [entry + offset]
                    else:
                        indices.append(entry + offset)

    # -- the block-observer protocol ----------------------------------------------

    def start(self) -> None:
        pass

    def plan(self, block: Any) -> Optional[_TouchPlan]:
        plan = self._block_plans.get(block, _UNPLANNED)
        if plan is _UNPLANNED:
            plan = self._block_plans[block] = self._plan(
                block.ops, self._registers.cwp
            )
        if plan is not None and plan.at_entry:
            self._entry_words = self._word_keys(plan.at_entry)
        return plan

    def after_block(self, plan: _TouchPlan, ran: int) -> None:
        entry = self.executed
        self.executed = entry + ran
        words = self._entry_words if plan.at_entry else []
        if plan.at_exit:
            # Word lists stay sorted: log the block's accesses in order.
            words = sorted(words + self._word_keys(plan.at_exit))
        self._log(plan, entry, ran, words)

    def before_op(self, op: Any) -> None:
        key = (op, self._registers.cwp)
        plan = self._op_plans.get(key)
        if plan is None:
            plan = self._plan((op,), key[1])
            assert plan is not None  # one op reads its addresses at entry
            self._op_plans[key] = plan
        entry = self.executed
        self.executed = entry + 1
        self._log(plan, entry, 1,
                  self._word_keys(plan.at_entry) if plan.at_entry else [])

    def after_op(self, op: Any) -> None:
        pass


#: ``TouchRecorder._block_plans`` lookup default for a block not planned yet.
_UNPLANNED = object()


class _Replica:
    """One pack member: its fault plus its sparse divergence from the leader."""

    __slots__ = ("fault", "sticky", "delta", "mem_delta", "txn_patches",
                 "touches", "outcome")

    def __init__(self, fault: ArchitecturalFault):
        self.fault = fault
        #: Stuck-at faults re-apply before every instruction; ``bit_flip``
        #: (transient upsets and the open-line degradation) fires once.
        self.sticky = fault.model != "bit_flip"
        #: Physical slot / pseudo-slot -> replica's value where it differs
        #: from the leader.  Empty delta == architecturally identical to
        #: golden.
        self.delta: Dict[_Key, int] = {}
        #: Memory word key (``_MEM_KEY_BASE + aligned address``) -> the
        #: replica's 32-bit word where its memory image differs from the
        #: leader's (created by stores of divergent data, erased when a later
        #: golden-valued store overwrites the word).
        self.mem_delta: Dict[int, int] = {}
        #: Golden transaction stream index -> the replica's divergent
        #: :class:`OffCoreTransaction` at that position (a store that wrote
        #: different data through the same control flow).  A patched history
        #: is permanent — the replica's observables can never equal golden's
        #: again, so it rides the pack to the end and resolves to the golden
        #: result with these patches applied.
        self.txn_patches: Dict[int, OffCoreTransaction] = {}
        #: Times this replica's divergence intersected an instruction's
        #: inputs (each costs a per-replica propagation / triage pass).
        #: Past :data:`PROPAGATION_BUDGET` the replica demotes — see there.
        self.touches = 0
        self.outcome: Optional[PackOutcome] = None


@dataclass
class PackOutcome:
    """How one replica of a pack resolved."""

    #: Bit-identical to ``backend.run(max_instructions=budget, faults=[...])``.
    result: Optional[RunResult]
    #: ``"golden"`` (never diverged / re-converged in pack), ``"rode_pack"``
    #: (reached the golden end carrying a live register/memory delta or a
    #: patched store history), ``"spliced"`` (demoted, then digest-matched a
    #: golden rung) or ``"demoted"`` (demoted, ran to its own end on the
    #: scalar path).
    resolution: str
    #: ``capture_state`` payload of the replica's final architectural and
    #: timing state (only with ``capture_final_state=True``).
    final_state: Optional[Dict[str, Any]] = None


class LockstepPackRunner:
    """Execute packs of faulty replicas through one shared front end.

    With a :class:`CheckpointLadder` (transient campaigns) the leader forks
    whole packs from golden rungs and demoted replicas splice the golden
    tail; without one (permanent campaigns) the leader sweeps from reset and
    demoted replicas run to their own end.  Construction is cheap next to a
    golden run; the leader, the demotion emulator and the touch timelines
    (*timelines*, recorded by the campaign's golden run, else on first use)
    are all reused across packs, mirroring the per-worker backend reuse of
    the schedulers.
    """

    def __init__(
        self,
        backend: Any,
        max_instructions: int,
        width: int,
        ladder: Optional[CheckpointLadder] = None,
        timelines: Optional[GoldenTimelines] = None,
    ) -> None:
        if width < 1:
            raise ValueError(f"lockstep width must be >= 1, got {width}")
        program = backend.program
        if program is None:
            raise RuntimeError("backend not prepared: call prepare(program) first")
        self._backend = backend
        self._max_instructions = max_instructions
        self.width = width
        self._ladder = ladder
        leader = FastEmulator(memory=Memory())
        leader.collect_raw_counts = True
        leader.load_program(program)
        self._leader = leader
        demote = FastEmulator(memory=Memory())
        demote.collect_raw_counts = True
        demote.load_program(program)
        self._demote_emulator = demote
        self._base_pages = {
            index: bytes(page) for index, page in leader.memory._pages.items()
        }
        if ladder is not None:
            self._reset_payload = ladder.checkpoints[0].payload
            self._rung_times = [rung.instructions for rung in ladder.checkpoints]
        else:
            self._reset_payload = leader.capture_state(self._base_pages)
            self._rung_times = []
        self._effects = _EffectsCache(leader.registers)
        #: Slot / pseudo-slot / memory word -> sorted executed-instruction
        #: indices where the golden run reads or writes it.  Recorded by the
        #: campaign's golden run (*timelines*), else once, on first use.
        self._timeline: Optional[_Timeline] = None
        #: Register slot -> the indices where the golden run writes it, and
        #: ``"cwp"`` -> the indices of its window moves: the instructions
        #: after which a stuck-at can act.  Recorded with the timeline.
        self._write_timeline: Optional[_Timeline] = None
        if timelines is not None:
            self._timeline, self._write_timeline = timelines
            TELEMETRY.inc("lockstep.timeline", labels={"source": "golden"})
        #: Golden result / final-state capture, taken from the ladder or
        #: recorded lazily by the first sweep that needs it.
        self._golden_result: Optional[RunResult] = (
            ladder.golden if ladder is not None else None
        )
        self._golden_final: Optional[Dict[str, Any]] = None
        # Sweep-local accumulators (reset per pack).
        self._transactions: List[Any] = []
        self._counts: Dict[str, int] = {}
        self._pending: Dict[str, int] = {}
        self._executed = 0
        # Observability for tests and the benchmark.  Plain integer
        # attributes stay the hot-loop representation; :meth:`run_pack`
        # folds per-pack deltas into the :data:`~repro.obs.telemetry.TELEMETRY`
        # registry only when it is enabled, so the disabled path pays one
        # boolean check per pack.
        self.packs = 0
        self.replicas = 0
        self.demotions = 0
        self.propagations = 0
        self.in_pack_convergences = 0
        self.golden_riders = 0
        self.demoted_splices = 0
        #: Demotion cause -> count (see the ``reason`` strings passed to
        #: :meth:`_demote_touched` at its six call sites).
        self.demotion_reasons: Dict[str, int] = {}

    # -- sweep bookkeeping --------------------------------------------------------

    def _fold_pending(self) -> None:
        """Fold the pack loop's deferred per-mnemonic counts into the
        leader's timing model and the cumulative counts.  The fold is
        additive and order-transparent, but it must happen before any
        capture, digest or packaging so cycle totals match the scalar
        path's per-slice folds."""
        pending = self._pending
        if not pending:
            return
        timing = self._leader.timing
        counts = self._counts
        by_mnemonic = INSTRUCTION_SET.by_mnemonic
        for mnemonic, count in pending.items():
            timing.account_bulk(by_mnemonic(mnemonic), count)
            counts[mnemonic] = counts.get(mnemonic, 0) + count
        pending.clear()

    def _leader_slot_value(self, slot: int) -> int:
        registers = self._leader.registers
        if slot < NUM_GLOBALS:
            return registers._globals[slot]
        return registers._windows[slot - NUM_GLOBALS]

    def _set_leader_slot(self, slot: int, value: int) -> None:
        registers = self._leader.registers
        if slot < NUM_GLOBALS:
            registers._globals[slot] = value
        else:
            registers._windows[slot - NUM_GLOBALS] = value

    def _leader_key_value(self, key: _Key) -> int:
        if key == "icc":
            return self._leader.icc.as_bits()
        if key == "y":
            return self._leader.y_register
        return self._leader_slot_value(key)

    def _replica_reg(self, replica: "_Replica", register: int, cwp: int) -> int:
        """The replica's architectural view of *register* (its delta value
        where one exists, else the shared leader value; ``%g0`` reads 0)."""
        if register == 0:
            return 0
        slot = _slot_of(self._leader.registers, register, cwp)
        value = replica.delta.get(slot)
        return self._leader_slot_value(slot) if value is None else value

    def _replica_word(self, replica: "_Replica", word_address: int) -> int:
        """The replica's view of the aligned memory word at *word_address*
        (its memory delta where one exists, else the shared leader image)."""
        value = replica.mem_delta.get(_MEM_KEY_BASE + word_address)
        return self._leader.memory.read_word(word_address) if value is None else value

    def _fault_slot(self, fault: ArchitecturalFault) -> Optional[int]:
        register = fault.register
        if register == 0:
            return None  # %g0 ignores writes: the fault is architecturally inert
        if register < NUM_GLOBALS:
            return register
        registers = self._leader.registers
        return NUM_GLOBALS + registers._physical_index(register, registers.cwp)

    def _apply_fault(
        self, replica: _Replica, live_slots: Dict[_Key, List[_Replica]]
    ) -> Optional[int]:
        """The pack equivalent of the scalar
        ``registers.write(reg, fault.apply(registers.read(reg)))`` that runs
        between the instruction count and the handler: a flip at its
        trigger, a stuck-at wherever it can act.  Keeps *live_slots* in step
        with the replica's delta; returns the fault's slot (``None`` for
        ``%g0``, which ignores writes)."""
        fault = replica.fault
        slot = self._fault_slot(fault)
        if slot is None:
            return None
        leader_value = self._leader_slot_value(slot)
        delta = replica.delta
        faulted = fault.apply(delta.get(slot, leader_value))
        if faulted == leader_value:
            if slot in delta:
                del delta[slot]
                bucket = live_slots[slot]
                bucket.remove(replica)
                if not bucket:
                    del live_slots[slot]
        elif slot not in delta:
            delta[slot] = faulted
            live_slots.setdefault(slot, []).append(replica)
        else:
            delta[slot] = faulted
        return slot

    # -- the golden touch timeline ------------------------------------------------

    def _ensure_timeline(self) -> _Timeline:
        """The golden touch timeline, recording it on the first call when the
        runner was built without one: a golden pass on the demotion emulator
        (restored before every other use, so the pass is free to move it)
        with a :class:`TouchRecorder` observing it."""
        if self._timeline is None:
            emulator = self._demote_emulator
            emulator.restore_state(self._reset_payload, self._base_pages, 0, None)
            recorder = TouchRecorder(emulator.registers)
            emulator.observe(recorder)
            try:
                emulator.run(max_instructions=self._max_instructions)
            finally:
                emulator.observe(None)
            self._timeline, self._write_timeline = recorder.timelines()
            TELEMETRY.inc("lockstep.timeline", labels={"source": "own_pass"})
        return self._timeline

    # -- packaging ----------------------------------------------------------------

    def _package(
        self,
        transactions: Sequence[Any],
        counts: Dict[str, int],
        executed: int,
        cycles: int,
        halted: bool,
        exit_code: Optional[int],
        trap: Optional[TrapEvent],
    ) -> RunResult:
        return RunResult(
            backend=self._backend.name,
            transactions=list(transactions),
            trace=trace_from_counts(counts),
            instructions=executed,
            cycles=cycles,
            halted=halted,
            exit_code=exit_code,
            trap_kind=self._backend.normalize_trap_kind(trap),
        )

    def _golden_final_payload(self) -> Dict[str, Any]:
        """Final-state capture of the golden run (for replicas that resolve
        onto the golden trajectory), recorded lazily on the demotion emulator
        so the leader's sweep position is never disturbed."""
        if self._golden_final is None:
            emulator = self._demote_emulator
            if self._ladder is not None:
                rung = self._ladder.checkpoints[-1]
                emulator.restore_state(
                    rung.payload, self._base_pages, rung.instructions, None
                )
            else:
                emulator.restore_state(self._reset_payload, self._base_pages, 0, None)
            emulator.run(max_instructions=self._max_instructions)
            self._golden_final = emulator.capture_state(self._base_pages)
        return self._golden_final

    def _payload_with_delta(
        self, payload: Dict[str, Any], delta: Dict[_Key, int]
    ) -> Dict[str, Any]:
        if not delta:
            return payload
        patched = dict(payload)
        patched["globals"] = list(payload["globals"])
        patched["windows"] = list(payload["windows"])
        for slot, value in delta.items():
            if slot == "icc":
                patched["icc"] = value
            elif slot == "y":
                patched["y"] = value
            elif slot < NUM_GLOBALS:
                patched["globals"][slot] = value
            else:
                patched["windows"][slot - NUM_GLOBALS] = value
        return patched

    def _payload_with_replica(
        self, payload: Dict[str, Any], replica: _Replica
    ) -> Dict[str, Any]:
        """*payload* with the replica's register **and** memory deltas
        patched in — the replica's full ``capture_state`` equivalent."""
        patched = self._payload_with_delta(payload, replica.delta)
        if not replica.mem_delta:
            return patched
        if patched is payload:
            patched = dict(payload)
        dirty = dict(patched["dirty_pages"])
        base_pages = self._base_pages
        for key, value in replica.mem_delta.items():
            address = key - _MEM_KEY_BASE
            page_index = address >> PAGE_SHIFT
            image = dirty.get(page_index)
            if image is None:
                image = base_pages.get(page_index, b"\x00" * PAGE_SIZE)
            page = bytearray(image)
            offset = address & PAGE_MASK
            page[offset:offset + 4] = value.to_bytes(4, "big")
            dirty[page_index] = bytes(page)
        patched["dirty_pages"] = dirty
        return patched

    def _rider_result(self, replica: _Replica) -> RunResult:
        """The golden result with the replica's divergent store transactions
        patched in — exactly the observable stream its from-reset run emits
        (same control flow, counts, cycles and exit, different store data)."""
        golden = self._golden_result
        assert golden is not None  # riders resolve only after golden packaging
        if not replica.txn_patches:
            return golden
        transactions = list(golden.transactions)
        for index, txn in replica.txn_patches.items():
            transactions[index] = txn
        return replace(golden, transactions=transactions)

    # -- demotion to the scalar fast path -----------------------------------------

    def _demote(
        self,
        replica: _Replica,
        leader_capture: Dict[str, Any],
        budget: int,
        early_exit: bool,
        capture_final: bool,
        reason: str,
    ) -> PackOutcome:
        """Hand one replica to the scalar fast path at the current
        instruction boundary: leader state plus delta, golden observable
        prefix, and (for sticky faults) the still-armed fault.  Mirrors the
        checkpoint runtime's fork loop, including the rung-aligned digest
        checks that splice the golden tail on re-convergence."""
        self.demotions += 1
        self.demotion_reasons[reason] = self.demotion_reasons.get(reason, 0) + 1
        payload = self._payload_with_replica(leader_capture, replica)
        # A fired bit_flip lives entirely in the delta; re-arming it would
        # flip twice.  Sticky faults keep applying on the scalar path (the
        # demoted run re-applies at the hand-off instruction too — stuck-at
        # application is idempotent, so the image is unchanged).
        fault = replica.fault if replica.sticky else None
        emulator = self._demote_emulator
        emulator.restore_state(payload, self._base_pages, self._executed, fault)
        if not replica.sticky:
            # The flip is spent: open the early-exit digest gate exactly as a
            # scalar in-run flip would have.
            emulator._flip_done = True
        transactions = list(self._transactions)
        for index, txn in replica.txn_patches.items():
            # The replica's observable prefix is the golden stream with its
            # divergent store data patched in.
            transactions[index] = txn
        counts = dict(self._counts)
        executed = self._executed
        ladder = self._ladder
        rungs = ladder.checkpoints if ladder is not None else []
        interval = ladder.interval if ladder is not None else None
        while True:
            if interval is None:
                slice_budget = budget - executed
            else:
                boundary = (executed // interval + 1) * interval
                slice_budget = min(boundary - executed, budget - executed)
            result = emulator.run(max_instructions=slice_budget)
            executed += result.instructions
            transactions.extend(result.transactions)
            for mnemonic, count in emulator.last_counts.items():
                counts[mnemonic] = counts.get(mnemonic, 0) + count
            if result.halted or executed >= budget:
                run_result = self._package(
                    transactions, counts, executed, result.cycles,
                    result.halted, result.exit_code, result.trap,
                )
                final = (
                    emulator.capture_state(self._base_pages) if capture_final else None
                )
                return PackOutcome(run_result, "demoted", final)
            if interval is None or not (early_exit and emulator._flip_done):
                continue
            index, remainder = divmod(executed, interval)
            if (
                remainder == 0
                and index < len(rungs)
                and rungs[index].instructions == executed
                and emulator.state_digest(self._base_pages) == rungs[index].digest
            ):
                assert ladder is not None  # interval is set only with a ladder
                self.demoted_splices += 1
                run_result = splice_golden_tail(
                    ladder, rungs[index], transactions, counts
                )
                final = self._golden_final_payload() if capture_final else None
                return PackOutcome(run_result, "spliced", final)

    def _demote_touched(
        self,
        touched: List[_Replica],
        live_slots: Dict[_Key, List[_Replica]],
        sticky: List[_Replica],
        budget: int,
        early_exit: bool,
        capture_final: bool,
        reason: str,
    ) -> None:
        """Demote every replica in *touched* at the current boundary.

        *reason* names the divergence that forced the hand-off (one of
        ``propagation_budget``, ``address_divergence``, ``branch_divergence``,
        ``trap_divergence``, ``div_zero``, ``unsupported_op``) and feeds the
        per-cause demotion histogram."""
        self._fold_pending()
        leader_capture = self._leader.capture_state(self._base_pages)
        for replica in touched:
            for keys in (replica.delta, replica.mem_delta):
                for slot in keys:
                    bucket = live_slots.get(slot)
                    if bucket is not None:
                        bucket.remove(replica)
                        if not bucket:
                            del live_slots[slot]
            if replica.sticky:
                sticky.remove(replica)
            replica.outcome = self._demote(
                replica, leader_capture, budget, early_exit, capture_final,
                reason,
            )

    # -- in-pack propagation ------------------------------------------------------

    def _propagate_outputs(
        self,
        op: Any,
        pc: int,
        touched: List[_Replica],
        input_slots: Tuple[_Key, ...],
        output_slots: Tuple[_Key, ...],
    ) -> Dict[_Replica, Dict[_Key, int]]:
        """Double-execute *op* on the leader for every touched replica.

        For each replica the leader's register file (and ICC/Y) is patched
        with the replica's delta values over the op's input and output slots,
        the already-resolved handler runs against them, the replica's output
        values are captured, and the leader is rolled back exactly — the op
        is applied across the whole pack through the one shared front end.
        Only :data:`_PROPAGATE_HANDLERS` ops and zero-divisor-screened
        divisions reach here: they never touch memory, transactions, control
        flow or the annul flag, so rolling back the register slots, ICC and
        Y restores the leader completely.
        """
        leader = self._leader
        self.propagations += len(touched)
        saved_regs: Dict[int, int] = {}
        for slot in input_slots:
            if type(slot) is not str and slot not in saved_regs:
                saved_regs[slot] = self._leader_slot_value(slot)
        for slot in output_slots:
            if type(slot) is not str and slot not in saved_regs:
                saved_regs[slot] = self._leader_slot_value(slot)
        saved_icc = leader.icc
        saved_y = leader.y_register
        handler = op.handler
        scratch: List[Any] = []
        results: Dict[_Replica, Dict[_Key, int]] = {}
        for replica in touched:
            delta = replica.delta
            for slot, original in saved_regs.items():
                self._set_leader_slot(slot, delta.get(slot, original))
            icc_bits = delta.get("icc")
            if icc_bits is not None:
                leader.icc = ConditionCodes.from_bits(icc_bits)
            y_value = delta.get("y")
            if y_value is not None:
                leader.y_register = y_value
            handler(leader, op, pc, scratch)
            outs: Dict[_Key, int] = {}
            for slot in output_slots:
                if slot == "icc":
                    outs[slot] = leader.icc.as_bits()
                elif slot == "y":
                    outs[slot] = leader.y_register
                else:
                    outs[slot] = self._leader_slot_value(slot)
            results[replica] = outs
            for slot, original in saved_regs.items():
                self._set_leader_slot(slot, original)
            leader.icc = saved_icc
            leader.y_register = saved_y
        return results

    def _replica_load_outputs(
        self, replica: _Replica, op: Any, address: int, cwp: int
    ) -> Dict[_Key, int]:
        """The destination values a touched replica loads at *address*.

        The address registers agree with the leader (else the replica was
        demoted), so the replica reads the same — necessarily aligned, the
        golden run executed it — address through its own memory view: the
        shared image with its word deltas patched over it.  Mirrors the
        ``_h_ld*`` handlers' big-endian extraction exactly.
        """
        mnemonic = op.mnemonic
        if mnemonic == "ldd":
            pairs = (
                (op.rd & ~1, self._replica_word(replica, address)),
                ((op.rd & ~1) | 1, self._replica_word(replica, address + 4)),
            )
        else:
            word = self._replica_word(replica, address & ~3)
            if mnemonic == "ld":
                value = word
            elif mnemonic == "ldub":
                value = (word >> ((3 - (address & 3)) * 8)) & 0xFF
            elif mnemonic == "ldsb":
                raw = (word >> ((3 - (address & 3)) * 8)) & 0xFF
                value = (raw - 0x100) & 0xFFFFFFFF if raw & 0x80 else raw
            elif mnemonic == "lduh":
                value = (word >> ((2 - (address & 2)) * 8)) & 0xFFFF
            else:  # ldsh
                raw = (word >> ((2 - (address & 2)) * 8)) & 0xFFFF
                value = (raw - 0x10000) & 0xFFFFFFFF if raw & 0x8000 else raw
            pairs = ((op.rd, value),)
        outs: Dict[_Key, int] = {}
        for register, value in pairs:
            if register:
                outs[_slot_of(self._leader.registers, register, cwp)] = value
        return outs

    def _replica_store_effects(
        self, replica: _Replica, op: Any, address: int, cwp: int
    ) -> Tuple[Tuple[int, ...], Tuple[OffCoreTransaction, ...]]:
        """The memory words and transactions a touched replica's store
        produces at *address* — computed against the pre-store image, before
        the leader executes the golden store.  Mirrors the ``_h_st*``
        handlers' write layout and transaction records exactly."""
        mnemonic = op.mnemonic
        if mnemonic == "st":
            value = self._replica_reg(replica, op.rd, cwp)
            return (value,), (OffCoreTransaction("store", address, value, 4),)
        if mnemonic == "stb":
            value = self._replica_reg(replica, op.rd, cwp) & 0xFF
            old = self._replica_word(replica, address & ~3)
            shift = (3 - (address & 3)) * 8
            word = (old & ~(0xFF << shift)) | (value << shift)
            return (word,), (OffCoreTransaction("store", address, value, 1),)
        if mnemonic == "sth":
            value = self._replica_reg(replica, op.rd, cwp) & 0xFFFF
            old = self._replica_word(replica, address & ~3)
            shift = (2 - (address & 2)) * 8
            word = (old & ~(0xFFFF << shift)) | (value << shift)
            return (word,), (OffCoreTransaction("store", address, value, 2),)
        # std: two aligned words, two transaction records.
        even = op.rd & ~1
        high = self._replica_reg(replica, even, cwp)
        low = self._replica_reg(replica, even | 1, cwp)
        return (high, low), (
            OffCoreTransaction("store", address, high, 4),
            OffCoreTransaction("store", address + 4, low, 4),
        )

    # -- leader fast-forward ------------------------------------------------------

    def _fast_forward(self, target: int) -> Optional[Any]:
        """Advance the quiescent pack to *target* executed instructions (or
        the golden end, whichever comes first): restore the latest usable
        golden rung — forking the whole pack from the checkpoint in one
        restore — then run the remaining gap at full scalar speed.  Exact
        because between the current position and *target* the golden stream
        touches no live delta slot and no fault trigger fires.  Returns the
        leader's ``ExecutionResult`` if it halted, else ``None``."""
        self._fold_pending()
        ladder = self._ladder
        leader = self._leader
        if ladder is not None and self._rung_times:
            index = bisect_right(self._rung_times, target) - 1
            if index >= 0:
                rung = ladder.checkpoints[index]
                if rung.instructions > self._executed:
                    leader.restore_state(
                        rung.payload, self._base_pages, rung.instructions, None
                    )
                    self._executed = rung.instructions
                    self._transactions = list(
                        ladder.golden.transactions[: rung.txn_count]
                    )
                    self._counts = dict(rung.counts)
        while self._executed < target:
            result = leader.run(max_instructions=target - self._executed)
            self._executed += result.instructions
            self._transactions.extend(result.transactions)
            counts = self._counts
            for mnemonic, count in leader.last_counts.items():
                counts[mnemonic] = counts.get(mnemonic, 0) + count
            if result.halted:
                return result
        return None

    # -- the pack sweep -----------------------------------------------------------

    def run_pack(
        self,
        faults: Sequence[ArchitecturalFault],
        budget: int,
        early_exit: bool = True,
        capture_final_state: bool = False,
    ) -> List[PackOutcome]:
        """Run one pack of replicas; element *i* of the returned list is
        bit-identical (result and, on request, final state) to
        ``backend.run(max_instructions=budget, faults=[faults[i]])``."""
        if len(faults) > self.width:
            raise ValueError(
                f"pack of {len(faults)} exceeds lockstep width {self.width}"
            )
        self.packs += 1
        self.replicas += len(faults)
        telemetry = TELEMETRY if TELEMETRY.enabled else None
        stats_before: Optional[Tuple[int, int, Dict[str, int]]] = None
        if telemetry is not None:
            stats_before = (
                self.propagations,
                self.demoted_splices,
                dict(self.demotion_reasons),
            )
        replicas = [_Replica(fault) for fault in faults]
        leader = self._leader
        leader.restore_state(self._reset_payload, self._base_pages, 0, None)
        self._executed = 0
        self._transactions = []
        self._counts = {}
        self._pending = {}
        #: Transient replicas waiting for their trigger; soonest at the end,
        #: so the hot loop pops in firing order.
        pending = sorted(
            (replica for replica in replicas if not replica.sticky),
            key=lambda replica: replica.fault.trigger_index,
            reverse=True,
        )
        sticky = [replica for replica in replicas if replica.sticky]
        #: Physical slot / pseudo-slot -> in-pack replicas whose delta covers
        #: that slot.
        live_slots: Dict[_Key, List[_Replica]] = {}
        halt_trap: Optional[TrapEvent] = None
        halted_flag = False
        exit_code: Optional[int] = None

        # Event-driven sweep: the only instructions that can change the pack
        # are fault triggers and golden touches of live delta slots, and a
        # stuck-at acts only at the boundary after a golden write of its
        # slot or, on a window register, after a window move (``due`` below);
        # everything in between fast-forwards at full scalar speed.
        timeline = self._ensure_timeline()
        writes = self._write_timeline
        assert writes is not None  # recorded with the timeline
        moves = writes["cwp"]
        #: Stuck-at replica -> the next boundary at which its fault may act.
        due = {replica: 0 for replica in sticky}
        while True:
            if self._executed >= self._max_instructions:
                break  # golden budget exhausted: the watchdog case
            executed = self._executed
            next_event: Optional[int] = None
            if pending:
                next_event = pending[-1].fault.trigger_index
            for replica in sticky:
                boundary = due[replica]
                if boundary <= executed:
                    slot = self._apply_fault(replica, live_slots)
                    boundary = self._max_instructions
                    if slot is not None:
                        for indices in (
                            writes[slot],
                            moves if replica.fault.register >= 8 else (),
                        ):
                            position = bisect_left(indices, executed)
                            if position < len(indices):
                                boundary = min(boundary, indices[position] + 1)
                    due[replica] = boundary
                if boundary < self._max_instructions and (
                    next_event is None or boundary < next_event
                ):
                    next_event = boundary
            for key in live_slots:
                indices = timeline[key]
                if not indices:
                    continue
                position = bisect_left(indices, executed)
                if position < len(indices) and (
                    next_event is None or indices[position] < next_event
                ):
                    next_event = indices[position]
            if next_event is None:
                # Nothing left can touch the pack.  Riders still need the
                # leader at the golden end when their final state is
                # requested, and ladder-less mode still owes the golden
                # observables.
                if (live_slots and capture_final_state) or (
                    self._golden_result is None and any(
                        replica.outcome is None
                        or replica.outcome.result is None
                        for replica in replicas
                    )
                ):
                    result = self._fast_forward(self._max_instructions)
                    if result is not None:
                        halt_trap = result.trap
                        halted_flag = result.halted
                        exit_code = result.exit_code
                break
            if next_event > executed:
                result = self._fast_forward(
                    min(next_event, self._max_instructions)
                )
                if result is not None:
                    halt_trap = result.trap
                    halted_flag = result.halted
                    exit_code = result.exit_code
                    break
                continue
            trap = self._step_pack(
                pending, sticky, live_slots, budget, early_exit,
                capture_final_state,
            )
            if trap is not None:
                halt_trap = trap
                halted_flag = True
                if trap.is_exit:
                    exit_code = int(trap.detail) if trap.detail else 0
                break

        # Leader finished (golden halt, budget, or nothing left to watch):
        # package the golden result — only a leader at the golden end holds
        # it; one that stopped early because every replica already has its
        # own result leaves it to a later pack — and resolve everything
        # still riding.
        self._fold_pending()
        if self._golden_result is None and (
            halted_flag or self._executed >= self._max_instructions
        ):
            if halt_trap is None and not halted_flag:
                halt_trap = TrapEvent(
                    "watchdog", leader.pc, "instruction budget exhausted"
                )
            self._golden_result = self._package(
                self._transactions, self._counts, self._executed,
                leader.timing.cycles, halted_flag, exit_code, halt_trap,
            )
        riders = [replica for replica in replicas if replica.outcome is None]
        leader_final: Optional[Dict[str, Any]] = None
        if capture_final_state and riders and (
            halted_flag or self._executed >= self._max_instructions
        ):
            leader_final = leader.capture_state(self._base_pages)
            if halted_flag and self._golden_final is None:
                # The leader stands at the golden end: its capture doubles as
                # the golden final state for every on-trajectory replica.
                self._golden_final = leader_final
        for replica in riders:
            if replica.delta or replica.mem_delta or replica.txn_patches:
                self.golden_riders += 1
                resolution = "rode_pack"
            else:
                self.in_pack_convergences += 1
                resolution = "golden"
            final = None
            if capture_final_state:
                # Replicas still carrying a live delta kept the leader running
                # to the golden end (their slots/words are live events);
                # patch-history-only riders may leave it mid-stream, but their
                # state *is* the golden final state.
                basis = (
                    leader_final if leader_final is not None
                    else self._golden_final_payload()
                )
                final = self._payload_with_replica(basis, replica)
            replica.outcome = PackOutcome(
                self._rider_result(replica), resolution, final
            )
        outcomes: List[PackOutcome] = []
        for replica in replicas:
            outcome = replica.outcome
            assert outcome is not None  # every sweep path above resolved it
            if outcome.result is None:
                outcome.result = self._golden_result
            if capture_final_state and outcome.final_state is None:
                outcome.final_state = self._golden_final_payload()
            outcomes.append(outcome)
        if telemetry is not None and stats_before is not None:
            self._record_pack_telemetry(telemetry, stats_before, outcomes)
        return outcomes

    def _record_pack_telemetry(
        self,
        telemetry: TelemetryRegistry,
        stats_before: Tuple[int, int, Dict[str, int]],
        outcomes: List[PackOutcome],
    ) -> None:
        """Fold this pack's stat deltas into the telemetry registry.

        Called once per pack (never from the instruction loop): cumulative
        attribute deltas become counters, the pack width an observation, and
        each replica's resolution a labelled count."""
        propagations, demoted_splices, reasons = stats_before
        telemetry.counter("lockstep.packs").inc()
        telemetry.counter("lockstep.replicas").inc(len(outcomes))
        telemetry.histogram("lockstep.pack.width").observe(len(outcomes))
        delta = self.propagations - propagations
        if delta:
            telemetry.counter("lockstep.propagations").inc(delta)
        delta = self.demoted_splices - demoted_splices
        if delta:
            telemetry.counter("lockstep.demoted_splices").inc(delta)
        for reason, count in self.demotion_reasons.items():
            delta = count - reasons.get(reason, 0)
            if delta:
                telemetry.counter(
                    "lockstep.demotions", {"reason": reason}
                ).inc(delta)
        for outcome in outcomes:
            telemetry.counter(
                "lockstep.resolutions", {"kind": outcome.resolution}
            ).inc()

    def _step_pack(
        self,
        pending: List[_Replica],
        sticky: List[_Replica],
        live_slots: Dict[_Key, List[_Replica]],
        budget: int,
        early_exit: bool,
        capture_final: bool,
    ) -> Optional[TrapEvent]:
        """Execute exactly one leader instruction with full pack bookkeeping.

        Returns the leader's halting :class:`TrapEvent` when this
        instruction ends the run, else ``None``.  The ordering replicates
        the scalar loop exactly: annul skip (uncounted, no fault effects),
        fault application, then the handler — with touched replicas either
        propagated (the op applied across the pack by double-execution, or a
        branch whose outcome the replica agrees on) or demoted *between*
        fault application and execution, so a demoted replica re-executes
        this instruction on the scalar path with identical state."""
        leader = self._leader
        # Annulled delay slot: skip without counting or applying faults.
        if leader._annul_next:
            leader._annul_next = False
            leader.pc = leader.npc
            leader.npc += 4
            return None
        pc = leader.pc
        op = leader._decode_cache.get(pc)
        if op is None:
            try:
                op = leader._fill(pc)
            except (MemoryError_, DecodeError) as exc:
                # Unreachable on a well-formed golden replay, but the golden
                # run itself may legitimately end on a decode trap.
                return TrapEvent("illegal_instruction", pc, str(exc))
        registers = leader.registers
        cwp = registers.cwp
        executed = self._executed
        # 1. Fault effects (scalar order: after the annul skip, before the
        #    handler).  Flips fire when the executed count reaches their
        #    trigger; the sweep has already re-applied the stuck-at faults
        #    at this boundary.
        while pending and pending[-1].fault.trigger_index <= executed:
            replica = pending.pop()
            self._apply_fault(replica, live_slots)
            if not replica.delta:
                # e.g. a %g0 flip: architecturally invisible, instantly golden.
                replica.outcome = PackOutcome(self._golden_result, "golden", None)
                self.in_pack_convergences += 1
        # 2. Apply the op across the pack: replicas whose delta intersects
        #    the input set either propagate (divergent results folded into
        #    their deltas through the shared front end) or demote (the op
        #    could diverge control flow, trap, or fork the shared state in a
        #    way the deltas cannot carry).
        inputs, outputs, propagatable, memory, _, _ = self._effects.get(op, cwp)
        propagated: Optional[Dict[_Replica, Dict[_Key, int]]] = None
        store_pending: Optional[List[Any]] = None
        store_keys: Tuple[int, ...] = ()
        if live_slots:
            touched: List[_Replica] = []
            for slot in inputs:
                for replica in live_slots.get(slot, ()):
                    if replica not in touched:
                        touched.append(replica)
            if memory is not None:
                # Loads and stores: the accessed words are inputs (loads) or
                # outputs (stores) too, known only now that the leader holds
                # the address.  A touched *address* demotes (the replica
                # accesses somewhere else entirely, as does anything aimed at
                # the I/O region, whose reads are observable); touched *data*
                # stays in pack — divergent loaded values land in the
                # register delta, divergent stored values in the memory
                # delta plus a patched store transaction.
                address_slots, data_slots, is_store, is_double = memory
                read = registers.read
                address = (
                    read(op.rs1) + (op.imm_u32 if op.use_imm else read(op.rs2))
                ) & 0xFFFFFFFF
                if is_double:
                    word_keys = (_MEM_KEY_BASE + address,
                                 _MEM_KEY_BASE + address + 4)
                else:
                    word_keys = (_MEM_KEY_BASE + (address & ~3),)
                for key in word_keys:
                    for replica in live_slots.get(key, ()):
                        if replica not in touched:
                            touched.append(replica)
            if touched:
                # Propagation budget (see :data:`PROPAGATION_BUDGET`): a
                # replica touched this often is cheaper on the scalar path.
                over = [replica for replica in touched
                        if replica.touches >= PROPAGATION_BUDGET]
                if over:
                    self._demote_touched(
                        over, live_slots, sticky, budget, early_exit,
                        capture_final, "propagation_budget",
                    )
                    touched = [
                        replica for replica in touched
                        if replica not in over
                    ]
                for replica in touched:
                    replica.touches += 1
            if memory is not None:
                if touched:
                    if address >= IO_BASE:
                        demoted = touched
                    else:
                        demoted = [
                            replica for replica in touched
                            if any(slot in replica.delta
                                   for slot in address_slots)
                        ]
                    if demoted:
                        self._demote_touched(
                            demoted, live_slots, sticky, budget, early_exit,
                            capture_final, "address_divergence",
                        )
                        touched = [
                            replica for replica in touched
                            if replica not in demoted
                        ]
                    if touched:
                        self.propagations += len(touched)
                        if is_store:
                            store_keys = word_keys
                            store_pending = [
                                (replica,) + self._replica_store_effects(
                                    replica, op, address, cwp
                                )
                                for replica in touched
                            ]
                        else:
                            propagated = {
                                replica: self._replica_load_outputs(
                                    replica, op, address, cwp
                                )
                                for replica in touched
                            }
            elif touched:
                if op.handler is _BRANCH_HANDLER:
                    # The branch reads only the ICC: replicas that reach the
                    # same taken/untaken (and annul) decision keep riding; a
                    # different branch outcome is *the* control-flow
                    # divergence and demotes at this boundary.
                    leader_taken = evaluate_condition(op.cond, leader.icc)
                    touched = [
                        replica for replica in touched
                        if evaluate_condition(
                            op.cond,
                            ConditionCodes.from_bits(replica.delta["icc"]),
                        ) != leader_taken
                    ]
                    if touched:
                        self._demote_touched(
                            touched, live_slots, sticky, budget, early_exit,
                            capture_final, "branch_divergence",
                        )
                elif op.handler is _TICC_HANDLER:
                    # A trap-on-condition reads the ICC exactly like a
                    # branch, and an *untaken* ``ticc`` has no architectural
                    # effect at all.  The leader's mid-run ``ticc`` is never
                    # taken (a taken one ends the golden run), so replicas
                    # whose condition view also evaluates untaken keep
                    # riding; a replica whose condition fires — or any
                    # touched replica when the leader itself takes the trap
                    # on the final instruction (the exit detail reads
                    # ``%o0``) — diverges and demotes.
                    if not evaluate_condition(op.cond, leader.icc):
                        touched = [
                            replica for replica in touched
                            if "icc" in replica.delta and evaluate_condition(
                                op.cond,
                                ConditionCodes.from_bits(
                                    replica.delta["icc"]
                                ),
                            )
                        ]
                    if touched:
                        self._demote_touched(
                            touched, live_slots, sticky, budget, early_exit,
                            capture_final, "trap_divergence",
                        )
                elif op.handler in _DIV_HANDLERS:
                    # Division is a plain ALU op whose only trap is a zero
                    # divisor.  Each replica's divisor view decides: non-zero
                    # double-executes through the shared front end like any
                    # propagatable op; zero traps where the leader does not
                    # and demotes.  When the *leader's* divisor is zero this
                    # instruction ends the golden run in a
                    # ``division_by_zero`` trap — every touched replica
                    # demotes rather than racing it.
                    divisor = (
                        op.imm_u32 if op.use_imm else registers.read(op.rs2)
                    )
                    if divisor == 0:
                        trapping = touched
                    elif op.use_imm:
                        trapping = []
                    else:
                        trapping = [
                            replica for replica in touched
                            if self._replica_reg(replica, op.rs2, cwp) == 0
                        ]
                    if trapping:
                        self._demote_touched(
                            trapping, live_slots, sticky, budget, early_exit,
                            capture_final, "div_zero",
                        )
                        touched = [
                            replica for replica in touched
                            if replica not in trapping
                        ]
                    if touched:
                        propagated = self._propagate_outputs(
                            op, pc, touched, inputs, outputs
                        )
                elif op.handler in _WINDOW_HANDLERS:
                    # ``save``/``restore`` shift the *shared* window state —
                    # identical across the pack, so the window trap cannot
                    # fire divergently (the leader executed it at the same
                    # depth) — and compute ``rd = rs1 + op2`` from the old
                    # window into the new window's ``rd``.  The effects
                    # cache already mapped the output slot under the shifted
                    # window, so touched replicas propagate by direct
                    # computation (double-execution would shift the leader's
                    # window twice).
                    self.propagations += len(touched)
                    propagated = {}
                    for replica in touched:
                        value = (
                            self._replica_reg(replica, op.rs1, cwp)
                            + (op.imm_u32 if op.use_imm
                               else self._replica_reg(replica, op.rs2, cwp))
                        ) & 0xFFFFFFFF
                        propagated[replica] = {
                            slot: value for slot in outputs
                        }
                elif propagatable:
                    propagated = self._propagate_outputs(
                        op, pc, touched, inputs, outputs
                    )
                else:
                    self._demote_touched(
                        touched, live_slots, sticky, budget, early_exit,
                        capture_final, "unsupported_op",
                    )
        # 3. Execute on the leader (golden replay: traps other than the
        #    final exit cannot occur here).
        mnemonic = op.mnemonic
        pending_counts = self._pending
        pending_counts[mnemonic] = pending_counts.get(mnemonic, 0) + 1
        self._executed = executed + 1
        try:
            outcome = op.handler(leader, op, pc, self._transactions)
        except RegisterWindowError as exc:
            return TrapEvent("window", pc, str(exc))
        except MemoryError_ as exc:
            return TrapEvent("memory", pc, str(exc))
        except ZeroDivisionError:
            return TrapEvent("division_by_zero", pc)
        except SimulationError as exc:
            return TrapEvent("simulation_error", pc, str(exc))
        if outcome is None:
            leader.pc = leader.npc
            leader.npc += 4
        elif type(outcome) is tuple:
            leader.pc = leader.npc
            leader.npc = outcome[0]
            leader._annul_next = outcome[1]
        else:
            return outcome  # the golden exit trap
        # 4. Outputs overwrite delta slots: untouched replicas computed the
        #    leader's value (the inputs agreed), so those slots converge;
        #    propagated replicas take their double-executed results instead,
        #    converging slot by slot wherever they match the leader's.
        if live_slots:
            for slot in outputs:
                bucket = live_slots.get(slot)
                if bucket is None:
                    continue
                survivors: List[_Replica] = []
                for replica in bucket:
                    if propagated is not None and replica in propagated:
                        survivors.append(replica)
                        continue
                    del replica.delta[slot]
                    self._maybe_resolve_golden(replica)
                if survivors:
                    live_slots[slot] = survivors
                else:
                    del live_slots[slot]
        if propagated:
            for replica, outs in propagated.items():
                delta = replica.delta
                for slot, value in outs.items():
                    if value == self._leader_key_value(slot):
                        if slot in delta:
                            del delta[slot]
                            bucket = live_slots[slot]
                            bucket.remove(replica)
                            if not bucket:
                                del live_slots[slot]
                    else:
                        if slot not in delta:
                            live_slots.setdefault(slot, []).append(replica)
                        delta[slot] = value
                self._maybe_resolve_golden(replica)
        if store_pending is not None:
            # Reconcile the touched stores against what the leader just
            # wrote: a word matching the golden image converges, a divergent
            # word joins the memory delta, and a divergent transaction is
            # recorded as a patch over the golden stream (its index is the
            # position the leader's own record(s) just took).
            transactions = self._transactions
            base = len(transactions) - len(store_keys)
            golden_words = tuple(
                leader.memory.read_word(key - _MEM_KEY_BASE)
                for key in store_keys
            )
            for replica, words, txns in store_pending:
                mem_delta = replica.mem_delta
                for key, word, golden_word in zip(
                    store_keys, words, golden_words
                ):
                    if word == golden_word:
                        if key in mem_delta:
                            del mem_delta[key]
                            bucket = live_slots[key]
                            bucket.remove(replica)
                            if not bucket:
                                del live_slots[key]
                    else:
                        if key not in mem_delta:
                            live_slots.setdefault(key, []).append(replica)
                        mem_delta[key] = word
                for offset, txn in enumerate(txns):
                    if txn != transactions[base + offset]:
                        replica.txn_patches[base + offset] = txn
                self._maybe_resolve_golden(replica)
        return None

    def _maybe_resolve_golden(self, replica: _Replica) -> None:
        """Resolve *replica* onto the golden trajectory if nothing about it
        diverges any more: no register/memory delta and no patched store
        history (a patched history is permanent — such a replica keeps
        riding and resolves to the patched golden result at the end)."""
        if (replica.delta or replica.mem_delta or replica.txn_patches
                or replica.sticky):
            return
        replica.outcome = PackOutcome(self._golden_result, "golden", None)
        self.in_pack_convergences += 1


def packs_enabled(backend: Any, width: int) -> bool:
    """Whether :func:`make_pack_runner` builds a pack runtime for *backend*:
    width above 1 (the scalar path *is* the pack of one), the ISS backend
    (the RTL engine has no shared-front-end replay) on its fast,
    snapshot-capable interpreter.  Only then does a golden run record
    :class:`GoldenTimelines`."""
    return (
        width > 1
        and getattr(backend, "name", None) == "iss"
        and getattr(backend, "supports_checkpoints", False)
    )


def make_pack_runner(
    backend: Any,
    max_instructions: int,
    width: int,
    runner: Optional[Any] = None,
    timelines: Optional[GoldenTimelines] = None,
) -> Optional[LockstepPackRunner]:
    """Build the lockstep pack runtime for *backend*, or ``None`` when packs
    cannot help (see :func:`packs_enabled`).  *runner* — the plan's
    :class:`~repro.engine.checkpoint.IssCheckpointRunner` — donates its
    golden ladder so the pack forks from the same rungs the scalar runtime
    uses, and the touch timelines its ladder recording took; *timelines*
    are those of a permanent plan's golden run."""
    if not packs_enabled(backend, width):
        return None
    ladder = None
    if runner is not None and hasattr(runner, "ladder"):
        ladder = runner.ladder()
        if timelines is None:
            timelines = runner.touch_timelines
    return LockstepPackRunner(
        backend, max_instructions, width, ladder=ladder, timelines=timelines
    )
