"""Fast-path ISS interpreter: bit-identity contract, decode cache, dispatch.

The fast interpreter's whole value proposition is that it is *not* a second
implementation of SPARC semantics from the campaign's point of view: every
observable must match the reference interpreter bit for bit.  These tests
enforce that contract across the full workload registry, fault-free and under
injected architectural faults, plus the decode-cache invalidation rule and
the delayed control-transfer corner cases that live in the hot loop.
"""

import pytest

from conftest import SMALL_PROGRAM_SOURCE

import repro.iss.fastpath as fastpath
from repro.engine import CampaignConfig, CampaignEngine, IssBackend
from repro.engine.backend import ARCH_REGFILE_UNIT
from repro.isa import encoding
from repro.isa.assembler import assemble
from repro.isa.encoding import OP_ARITH
from repro.isa.registers import RegisterFile
from repro.iss.emulator import Emulator
from repro.iss.fastpath import FastEmulator, verify_bit_identity
from repro.iss.faults import ArchitecturalFault
from repro.iss.memory import Memory
from repro.rtl.faults import FaultModel
from repro.store.keys import backend_identity
from repro.workloads.registry import all_workloads, build_program

EMULATOR_CLASSES = [Emulator, FastEmulator]


def run_on(emulator_cls, source: str, max_instructions: int = 10_000):
    program = assemble(source, name="test")
    emulator = emulator_cls(memory=Memory())
    emulator.load_program(program)
    return emulator.run(max_instructions=max_instructions), emulator


# ---------------------------------------------------------------------------
# Bit-identity: the contract
# ---------------------------------------------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("name", sorted(all_workloads()))
    def test_every_registered_workload_fault_free(self, name):
        program = all_workloads()[name].build()
        reference, fast = verify_bit_identity(program, max_instructions=400_000)
        assert reference.normal_exit

    @pytest.mark.parametrize(
        "fault",
        [
            ArchitecturalFault(register=9, bit=3, model="stuck_at_1"),
            ArchitecturalFault(register=10, bit=0, model="stuck_at_0"),
            ArchitecturalFault(register=14, bit=2, model="stuck_at_1"),
            ArchitecturalFault(register=8, bit=7, model="bit_flip", trigger_index=100),
            ArchitecturalFault(register=22, bit=31, model="bit_flip", trigger_index=7),
        ],
        ids=lambda fault: f"{fault.model}-r{fault.register}b{fault.bit}",
    )
    @pytest.mark.parametrize("name", ["rspeed", "membench", "tblook"])
    def test_under_injected_faults(self, name, fault):
        program = all_workloads()[name].build()
        verify_bit_identity(program, max_instructions=400_000, fault=fault)

    def test_watchdog_truncated_runs(self):
        # Budget exhaustion mid-loop must leave identical partial state.
        program = build_program("rspeed")
        for budget in (1, 37, 500):
            reference, fast = verify_bit_identity(program, max_instructions=budget)
            assert reference.trap is not None and reference.trap.kind == "watchdog"

    def test_run_fast_program_matches_run_program(self):
        from repro.iss.emulator import run_program
        from repro.iss.fastpath import run_fast_program

        program = assemble(SMALL_PROGRAM_SOURCE, name="small")
        reference = run_program(program)
        fast = run_fast_program(program)
        assert fast.transactions == reference.transactions
        assert fast.trace == reference.trace
        assert fast.exit_code == reference.exit_code

    def test_detailed_trace_runs_identically(self):
        program = assemble(SMALL_PROGRAM_SOURCE, name="small")
        reference, fast = verify_bit_identity(program, detailed_trace=True)
        assert fast.trace.records  # detailed records were produced and compared


# ---------------------------------------------------------------------------
# Decode cache
# ---------------------------------------------------------------------------


class TestDecodeCache:
    def test_loops_decode_each_pc_once(self):
        result, emulator = run_on(FastEmulator, SMALL_PROGRAM_SOURCE)
        assert result.normal_exit
        # The 10-iteration loop re-executes its body from the cache: far
        # fewer decode fills than executed instructions, exactly one fill
        # per cached PC.
        assert emulator.decode_fills < result.instructions
        assert emulator.decode_fills == len(emulator._decode_cache)

    def test_store_to_code_page_invalidates_cached_decode(self):
        # Overwrite an already-executed (hence cached) instruction with
        # "mov 7, %o0" and loop back over it: the fast interpreter must
        # re-decode and execute the patched word, like the reference does.
        patch_word = encoding.Format3Imm(
            op=OP_ARITH, op3=0x02, rd=8, rs1=0, simm13=7
        ).encode()  # or %g0, 7, %o0
        source = f"""
        .text
        set     patch, %o3
        set     {patch_word:#010x}, %o4
        set     out, %l1
        mov     0, %o5
loop:
patch:
        mov     1, %o0
        st      %o0, [%l1]
        cmp     %o5, 0
        bne     done
        nop
        inc     %o5
        st      %o4, [%o3]
        ba      loop
        nop
done:
        ta      0
        .data
out:
        .space  8
"""
        program = assemble(source, name="selfmod")
        reference, fast = verify_bit_identity(program)
        out_values = [
            t.value for t in fast.transactions if t.value in (1, 7)
        ]
        assert out_values == [1, 7]  # pass 1 pre-patch, pass 2 patched

    def test_load_program_flushes_decode_cache(self):
        first = assemble(SMALL_PROGRAM_SOURCE, name="small")
        emulator = FastEmulator(memory=Memory())
        emulator.load_program(first)
        emulator.run()
        assert emulator._decode_cache
        emulator.load_program(assemble("        .text\n        ta 0\n", name="tiny"))
        assert not emulator._decode_cache
        assert not emulator._code_pages


# ---------------------------------------------------------------------------
# SimulationError containment (hot-path bugfix)
# ---------------------------------------------------------------------------


class TestSimulationErrorTrap:
    SOURCE = """
        .text
        mov     3, %o0
        mov     5, %o1
        xnor    %o0, %o1, %o2
        ta      0
"""

    def test_reference_interpreter_traps_instead_of_raising(self, monkeypatch):
        original = Emulator._execute_alu

        def poisoned(self, instruction):
            if instruction.defn.mnemonic == "xnor":
                from repro.iss.emulator import SimulationError

                raise SimulationError("no ALU semantics for xnor")
            return original(self, instruction)

        monkeypatch.setattr(Emulator, "_execute_alu", poisoned)
        result, _ = run_on(Emulator, self.SOURCE)
        assert result.halted
        assert result.trap is not None
        assert result.trap.kind == "simulation_error"

    def test_fast_interpreter_traps_instead_of_raising(self, monkeypatch):
        monkeypatch.setitem(
            fastpath._HANDLER_TABLE, "xnor", fastpath._h_unimplemented
        )
        result, _ = run_on(FastEmulator, self.SOURCE)
        assert result.halted
        assert result.trap is not None
        assert result.trap.kind == "simulation_error"
        assert "xnor" in result.trap.detail


# ---------------------------------------------------------------------------
# Delayed control-transfer corner cases, asserted on both interpreters
# ---------------------------------------------------------------------------


def _cti_program(body: str) -> str:
    return f"""
        .text
        set     out, %l1
        mov     0, %o0
{body}
        st      %o0, [%l1]
        ta      0
        .data
out:
        .space  8
"""


@pytest.mark.parametrize("emulator_cls", EMULATOR_CLASSES, ids=["reference", "fast"])
class TestDelayedControlTransfer:
    def test_taken_ba_annul_skips_delay_slot(self, emulator_cls):
        result, _ = run_on(emulator_cls, _cti_program("""
        ba,a    target
        mov     1, %o0                 ! annulled
target:
"""))
        assert result.normal_exit
        assert result.transactions[-1].value == 0

    def test_bn_executes_delay_slot(self, emulator_cls):
        result, _ = run_on(emulator_cls, _cti_program("""
        bn      target
        mov     1, %o0                 ! delay slot of an untaken branch
target:
"""))
        assert result.normal_exit
        assert result.transactions[-1].value == 1

    def test_bn_annul_skips_delay_slot_unconditionally(self, emulator_cls):
        result, _ = run_on(emulator_cls, _cti_program("""
        bn,a    target
        mov     1, %o0                 ! annulled: bn,a always annuls
target:
"""))
        assert result.normal_exit
        assert result.transactions[-1].value == 0

    def test_untaken_conditional_annul_skips_delay_slot(self, emulator_cls):
        result, _ = run_on(emulator_cls, _cti_program("""
        cmp     %o0, 0                 ! %o0 == 0 -> Z set
        bne,a   target
        mov     1, %o0                 ! annulled because bne is not taken
target:
"""))
        assert result.normal_exit
        assert result.transactions[-1].value == 0

    def test_branch_in_delay_slot_couples(self, emulator_cls):
        # A taken branch whose delay slot is itself a taken branch: the
        # first target's instruction executes once, then control reaches the
        # second target (the emulators' sequential pc/npc model).
        result, _ = run_on(emulator_cls, _cti_program("""
        ba      first
        ba      second
        nop
first:
        mov     1, %o0                 ! executes between the two transfers
second:
"""))
        assert result.normal_exit
        assert result.transactions[-1].value == 1

    def test_annul_pending_at_watchdog_boundary(self, emulator_cls):
        # `ba,a loop` alternates one executed branch with one annulled slot;
        # the budget expires with an annul pending.  Annulled instructions
        # must consume no budget and the run must end in a watchdog trap.
        source = """
        .text
loop:
        ba,a    loop
        nop
"""
        result, _ = run_on(emulator_cls, source, max_instructions=5)
        assert not result.halted
        assert result.trap is not None and result.trap.kind == "watchdog"
        assert result.instructions == 5
        assert result.trace.opcode_counts == {"ba": 5}

    def test_watchdog_boundary_is_bit_identical(self, emulator_cls):
        if emulator_cls is Emulator:
            pytest.skip("pairwise comparison runs once")
        program = assemble("        .text\nloop:\n        ba,a    loop\n        nop\n",
                           name="annul-loop")
        for budget in (1, 2, 5, 6):
            verify_bit_identity(program, max_instructions=budget)


# ---------------------------------------------------------------------------
# Backend / engine / façade selection
# ---------------------------------------------------------------------------


class TestSelection:
    def test_iss_backend_defaults_to_fast(self):
        assert IssBackend().fast is True
        assert IssBackend(fast=False).fast is False

    def test_backend_runs_identical_under_fault(self):
        program = assemble(SMALL_PROGRAM_SOURCE, name="small")
        results = {}
        for fast in (True, False):
            backend = IssBackend(fast=fast)
            backend.prepare(program)
            site = backend.sites.sample(1, units=[ARCH_REGFILE_UNIT], seed=7)[0]
            from repro.rtl.faults import PermanentFault

            fault = PermanentFault(site=site, model=FaultModel.STUCK_AT_1)
            results[fast] = backend.run(max_instructions=100_000, faults=[fault])
        fast_result, reference_result = results[True], results[False]
        assert fast_result.transactions == reference_result.transactions
        assert fast_result.trace == reference_result.trace
        assert fast_result.instructions == reference_result.instructions
        assert fast_result.cycles == reference_result.cycles
        assert fast_result.halted == reference_result.halted
        assert fast_result.exit_code == reference_result.exit_code
        assert fast_result.trap_kind == reference_result.trap_kind

    def test_campaign_config_selects_interpreter(self):
        program = assemble(SMALL_PROGRAM_SOURCE, name="small")
        config = CampaignConfig(
            unit_scope=ARCH_REGFILE_UNIT, sample_size=2, iss_fast=False
        )
        engine = CampaignEngine(program, config, backend_factory=IssBackend)
        assert engine.backend.fast is False
        default_engine = CampaignEngine(program, backend_factory=IssBackend)
        assert default_engine.backend.fast is True
        # Both interpreter choices share one store identity: the flag is
        # result-transparent and must not fork the campaign cache.
        assert backend_identity("iss", engine.backend_factory) == backend_identity(
            "iss", default_engine.backend_factory
        ) == backend_identity("iss", IssBackend)

    def test_campaign_config_honours_partial_iss_factories(self):
        import functools

        program = assemble(SMALL_PROGRAM_SOURCE, name="small")
        config = CampaignConfig(
            unit_scope=ARCH_REGFILE_UNIT, sample_size=2, iss_fast=False
        )
        # A partial that customises an unrelated flag must still get the
        # config's interpreter choice (silently ignoring iss_fast here was a
        # review finding); an explicit fast= binding wins over the config.
        engine = CampaignEngine(
            program,
            config,
            backend_factory=functools.partial(IssBackend, detailed_trace=True),
        )
        assert engine.backend.fast is False
        assert engine.backend.detailed_trace is True
        pinned = CampaignEngine(
            program,
            config,
            backend_factory=functools.partial(IssBackend, fast=True),
        )
        assert pinned.backend.fast is True
        # A positionally bound fast (second constructor argument) also wins —
        # rebinding it as a keyword would crash backend construction.
        positional = CampaignEngine(
            program,
            CampaignConfig(unit_scope=ARCH_REGFILE_UNIT, sample_size=2,
                           iss_fast=True),
            backend_factory=functools.partial(IssBackend, False, False),
        )
        assert positional.backend.fast is False

    def test_result_affecting_partials_get_their_own_identity(self):
        # Only the ISS interpreter flags are result-transparent: a partial
        # binding anything else (e.g. RTL cache geometry) must not alias the
        # bare factory's stored campaigns.
        import functools

        from repro.engine import Leon3RtlBackend

        bare = backend_identity("rtl", Leon3RtlBackend)
        tuned = backend_identity(
            "rtl", functools.partial(Leon3RtlBackend, icache_lines=8)
        )
        assert tuned != bare
        assert "icache_lines=8" in tuned
        # Every IssBackend partial collapses to the bare class: its only
        # constructor parameters are the result-transparent interpreter flags.
        for factory in (
            functools.partial(IssBackend, fast=False),
            functools.partial(IssBackend, True),
            functools.partial(IssBackend, False, False),
        ):
            assert backend_identity("iss", factory) == backend_identity(
                "iss", IssBackend
            )

    def test_object_bound_partials_are_refused(self):
        # An object's default repr embeds its memory address (key never
        # matches again), and rendering by type would alias
        # differently-configured instances (silently serving wrong stored
        # results) — so object-valued bound arguments must fail loud.
        import functools

        from repro.engine import Leon3RtlBackend
        from repro.leon3.core import Leon3Core

        with pytest.raises(ValueError, match="named zero-argument factory"):
            backend_identity(
                "rtl", functools.partial(Leon3RtlBackend, core=Leon3Core())
            )
        # Class-valued bound arguments are fine: qualified names are stable.
        identity = backend_identity(
            "rtl", functools.partial(Leon3RtlBackend, core_cls=Leon3Core)
        )
        assert "Leon3Core" in identity and "0x" not in identity

    def test_reused_faulty_emulators_stay_identical_after_reset(self):
        # reset() restarts the experiment on both interpreters: the transient
        # flip re-arms, and the second run matches bit for bit.
        from repro.iss.faults import FaultyEmulator

        program = build_program("rspeed")
        fault = ArchitecturalFault(register=9, bit=5, model="bit_flip",
                                   trigger_index=40)
        reference = FaultyEmulator(fault, memory=Memory())
        fast = FastEmulator(memory=Memory(), fault=fault)
        for emulator in (reference, fast):
            emulator.load_program(program)
            emulator.run(max_instructions=100_000)
            emulator.reset(entry_point=program.entry_point)
        second_reference = reference.run(max_instructions=100_000)
        second_fast = fast.run(max_instructions=100_000)
        fastpath.assert_results_identical(
            reference, second_reference, fast, second_fast
        )
        assert reference._flip_done and fast._flip_done

    def test_iss_campaign_fast_matches_reference(self):
        program = build_program("rspeed")

        def campaign(fast):
            config = CampaignConfig(
                unit_scope=ARCH_REGFILE_UNIT, sample_size=6,
                fault_models=[FaultModel.STUCK_AT_1], seed=11, iss_fast=fast,
            )
            return CampaignEngine(program, config, backend_factory=IssBackend).run()

        fast = campaign(True)
        reference = campaign(False)
        for model in fast:
            assert fast[model].outcomes == reference[model].outcomes
            assert (
                fast[model].failure_probability
                == reference[model].failure_probability
            )


# ---------------------------------------------------------------------------
# Block path: compiled straight-line blocks against the reference
# ---------------------------------------------------------------------------

BLOCK_BUDGETS = (1, 7, 100, 1001, 5003, 2_000_000)


def _run_pair(program, max_instructions=10_000, **fast_kwargs):
    reference_emulator = Emulator(memory=Memory())
    reference_emulator.load_program(program)
    reference = reference_emulator.run(max_instructions=max_instructions)
    fast_emulator = FastEmulator(memory=Memory(), **fast_kwargs)
    fast_emulator.load_program(program)
    fast = fast_emulator.run(max_instructions=max_instructions)
    fastpath.assert_results_identical(reference_emulator, reference, fast_emulator, fast)
    # Counter equality ignores order; Table 1 and the reports iterate the
    # histograms, so key order (first execution) must match too.
    for field in ("opcode_counts", "category_counts", "unit_counts"):
        assert list(getattr(fast.trace, field)) == list(
            getattr(reference.trace, field)
        ), field
    return reference, fast, fast_emulator


def _translations(emulator) -> int:
    return sum(len(blocks) for blocks in emulator._blocks)


def _slot(register: int, cwp: int) -> int:
    """The block metadata's slot of *register* in window *cwp*."""
    if register < 8:
        return register
    return 8 + RegisterFile()._physical_index(register, cwp)


def _record_block_entries(monkeypatch):
    """Record the (block, cwp) of every block translation and every block
    entry of the fast emulators run from now on (a fresh block memo, so
    every block is compiled and wrapped here)."""
    translated, entries = [], []
    translate = FastEmulator._translate

    def recording(self, pc):
        block = translate(self, pc)
        if block is not None:
            translated.append((block, self.registers.cwp))
            if not hasattr(block.run, "recorded"):
                run = block.run

                def entered(emu, tx, block=block, run=run):
                    entries.append((block, emu.registers.cwp))
                    return run(emu, tx)

                entered.recorded = True
                block.run = entered
        return block

    monkeypatch.setattr(fastpath, "_BLOCK_MEMO", {})
    monkeypatch.setattr(FastEmulator, "_translate", recording)
    return translated, entries


def _patch_word() -> int:
    return encoding.Format3Imm(
        op=OP_ARITH, op3=0x02, rd=8, rs1=0, simm13=7
    ).encode()  # or %g0, 7, %o0


class TestBlockPath:
    @pytest.mark.parametrize("name", sorted(all_workloads()))
    def test_registry_across_budgets(self, name):
        program = build_program(name, full_size=True)
        for budget in BLOCK_BUDGETS:
            _, fast, emulator = _run_pair(program, max_instructions=budget)
            assert _translations(emulator)
        assert fast.normal_exit

    def test_store_rewrites_later_instruction_of_its_block(self):
        source = f"""
        .text
        set     patch, %o3
        set     {_patch_word():#010x}, %o4
        set     out, %l1
        st      %o4, [%o3]
patch:
        mov     1, %o0
        st      %o0, [%l1]
        ta      0
        .data
out:
        .space  8
"""
        _, fast, _ = _run_pair(assemble(source, name="selfmod-block"))
        assert fast.transactions[-1].value == 7

    def test_store_rewrites_its_delay_slot(self):
        source = f"""
        .text
        set     patch, %o3
        set     {_patch_word():#010x}, %o4
        set     out, %l1
        mov     1, %o0
        st      %o4, [%o3]
        ba      done
patch:
        mov     1, %o0
done:
        st      %o0, [%l1]
        ta      0
        .data
out:
        .space  8
"""
        _, fast, _ = _run_pair(assemble(source, name="selfmod-slot"))
        assert fast.transactions[-1].value == 7

    @pytest.mark.parametrize("branch", ["be", "bne"])
    def test_misaligned_load_in_delay_slot(self, branch):
        # cmp sets Z, so `be` is taken (npc = target) and `bne` is not
        # (npc = slot + 4); either way the slot traps with its own pc/npc.
        source = f"""
        .text
        set     out, %l1
        add     %l1, 1, %l2
        cmp     %g0, 0
        {branch}      target
        ld      [%l2], %o0
        nop
target:
        ta      0
        .data
out:
        .space  8
"""
        program = assemble(source, name="slot-trap")
        reference, fast, emulator = _run_pair(program)
        assert fast.trap is not None and fast.trap.kind == "memory"
        slot = program.symbols["target"] - 8
        assert fast.trap.pc == slot and emulator.pc == slot
        expected_npc = program.symbols["target"] if branch == "be" else slot + 4
        assert emulator.npc == expected_npc

    def test_save_overflow_mid_block(self):
        saves = "\n".join("        save    %sp, -96, %sp\n        add     %g1, 1, %g1"
                          for _ in range(8))
        _, fast, _ = _run_pair(assemble(f"        .text\n{saves}\n        ta 0\n",
                                        name="overflow"))
        assert fast.trap is not None and fast.trap.kind == "window"
        assert fast.trap.detail == "register window overflow"

    def test_restore_underflow_mid_block(self):
        source = """
        .text
        mov     1, %o0
        subcc   %o0, 2, %g0
        restore %o0, 1, %o1
        mov     2, %o0
        ta      0
"""
        _, fast, _ = _run_pair(assemble(source, name="underflow"))
        assert fast.trap is not None and fast.trap.kind == "window"
        assert fast.trap.detail == "register window underflow"

    def test_udiv_by_zero_mid_block(self):
        # The subcc leaves N and C set; the trap must write them back.
        source = """
        .text
        mov     5, %o0
        mov     0, %o1
        wr      %g0, %g0, %y
        subcc   %o0, 6, %g0
        udiv    %o0, %o1, %o2
        mov     3, %o3
        ta      0
"""
        _, fast, emulator = _run_pair(assemble(source, name="div0"))
        assert fast.trap is not None and fast.trap.kind == "division_by_zero"
        assert emulator.icc.n == 1 and emulator.icc.c == 1

    @pytest.mark.parametrize("body", [
        "        ba,a    target\n        mov     1, %o0\ntarget:\n",
        "        bn,a    target\n        mov     1, %o0\ntarget:\n",
        "        cmp     %o0, 0\n        bne,a   target\n        mov     1, %o0\n"
        "target:\n",
    ], ids=["ba,a", "bn,a", "untaken-bne,a"])
    def test_annulling_branches_at_every_budget(self, body):
        program = assemble(_cti_program(body), name="annul")
        for budget in range(1, 12):
            _run_pair(program, max_instructions=budget)

    @pytest.mark.parametrize("slice_budget", [7, 100, 1001])
    def test_sliced_runs_equal_one_run(self, slice_budget):
        # The checkpoint and lockstep drivers run fast emulators in slices
        # with collect_raw_counts; the sum of the slices is the whole run.
        program = build_program("rspeed")
        reference_emulator = Emulator(memory=Memory())
        reference_emulator.load_program(program)
        reference = reference_emulator.run()
        emulator = FastEmulator(memory=Memory())
        emulator.collect_raw_counts = True
        emulator.load_program(program)
        counts, transactions, executed = {}, [], 0
        while True:
            result = emulator.run(max_instructions=slice_budget)
            assert not result.trace.opcode_counts
            executed += result.instructions
            transactions += result.transactions
            for mnemonic, count in emulator.last_counts.items():
                counts[mnemonic] = counts.get(mnemonic, 0) + count
            if result.halted:
                break
        assert list(counts.items()) == list(reference.trace.opcode_counts.items())
        assert transactions == reference.transactions
        assert executed == reference.instructions
        assert result.cycles == reference.cycles
        assert fastpath._final_state(emulator) == fastpath._final_state(
            reference_emulator
        )

    def test_blocks_are_shared_across_emulators(self):
        program = build_program("rspeed")
        _run_pair(program)
        compiled = len(fastpath._BLOCK_MEMO)
        _run_pair(program)
        assert len(fastpath._BLOCK_MEMO) == compiled

    def test_stuck_at_runs_enter_only_blocks_that_keep_the_fault_slot(
        self, monkeypatch
    ):
        # Entered blocks write the faulted slot, and move the window, only
        # in their last instruction; the next boundary is outside the block.
        translated, entered = _record_block_entries(monkeypatch)
        program = build_program("rspeed")
        refused = 0
        for register in (1, 9, 17, 30):  # a global, an out, a local, an in
            for model in ("stuck_at_0", "stuck_at_1"):
                translated.clear()
                entered.clear()
                fault = ArchitecturalFault(register=register, bit=0, model=model)
                verify_bit_identity(program, fault=fault)
                assert entered
                for block, cwp in entered:
                    slot = _slot(register, cwp)
                    assert slot not in block.early_writes
                    assert register < 8 or not block.early_shift
                refused += sum(
                    _slot(register, cwp) in block.early_writes
                    for block, cwp in translated
                )
        assert refused

    @pytest.mark.parametrize("register,body", [
        (15, "        call    next\n        mov     %o7, %o1\nnext:\n"),
        (8, "        mov     6, %o0\n        add     %o0, 0, %o1\n"),
        (16, "        save    %sp, -96, %sp\n        mov     %l0, %i1\n"
             "        restore\n"),
        (2, "        save    %sp, -96, %sp\n        mov     %g2, %i1\n"
            "        restore\n"),
    ], ids=["call-then-slot", "write-then-read", "save-then-local",
            "save-then-global"])
    def test_stuck_at_acts_inside_a_block(self, register, body):
        # The faulted register is written (or renamed by a window move) and
        # then read by the same block: the fault must act in between.
        source = f"""
        .text
        set     out, %l1
        mov     2, %g2
{body}
        st      %o1, [%l1]
        ta      0
        .data
out:
        .space  8
"""
        program = assemble(source, name="stuck-inside")
        for bit in (0, 1, 2, 3):
            for model in ("stuck_at_0", "stuck_at_1"):
                fault = ArchitecturalFault(register=register, bit=bit, model=model)
                verify_bit_identity(program, fault=fault)

    def test_bit_flip_runs_never_enter_a_block(self):
        fault = ArchitecturalFault(register=9, bit=3, model="bit_flip",
                                   trigger_index=40)
        emulator = FastEmulator(memory=Memory(), fault=fault)
        emulator.load_program(build_program("rspeed"))
        emulator.run(max_instructions=5_000)
        assert _translations(emulator) == 0

    def test_blocks_record_the_slots_they_write(self):
        source = """
        .text
        mov     1, %o0
        add     %o0, 1, %o0
        save    %sp, -96, %sp
        umul    %i0, 3, %l0
        call    target
        mov     2, %g1
target:
        ta      0
"""
        emulator = FastEmulator(memory=Memory())
        emulator.load_program(assemble(source, name="slots"))
        block = emulator._translate(emulator.pc)
        # save writes its %sp, umul its %l0 and call its %o7 in window 1.
        o0 = _slot(8, 0)
        assert _slot(24, 1) == o0  # the save renames %o0 to %i0
        assert block.writes == {o0, _slot(14, 1), _slot(16, 1), _slot(15, 1), 1}
        assert block.rewrites == {o0}
        assert block.early_writes == block.writes - {1}  # the slot's %g1
        assert block.shifts and block.early_shift

    def test_detailed_trace_runs_never_enter_a_block(self):
        emulator = FastEmulator(memory=Memory(), detailed_trace=True)
        emulator.load_program(build_program("rspeed"))
        emulator.run(max_instructions=5_000)
        assert _translations(emulator) == 0

    def test_zero_counts_do_not_become_opcodes(self):
        from repro.iss.timing import TimingModel
        from repro.iss.trace import ExecutionTrace

        trace, timing = ExecutionTrace(), TimingModel()
        fastpath._fold_counts({"add": 0, "or": 2}, timing, trace)
        assert dict(trace.opcode_counts) == {"or": 2}
        assert trace.diversity == 1
        assert timing.instructions == 2


# ---------------------------------------------------------------------------
# Stuck-at faults on the block path, across the registry
# ---------------------------------------------------------------------------

#: Budget of each run of the sweep: the reference interpreter costs ~30 us
#: an instruction, and the sweep runs it 1024 times.  300 instructions reach
#: the first calls (save/restore) and loop iterations of every workload.
STUCK_AT_BUDGET = 300
#: The bits the sweep forces, one per (workload, register), rotating so each
#: register sees several bits across the registry.
STUCK_AT_BITS = (0, 1, 2, 3, 5, 8, 13, 31)


@pytest.mark.parametrize("name", sorted(all_workloads()))
def test_stuck_at_sweep_matches_the_reference(name):
    """Every register (``%g0`` included) x both stuck-at models against the
    reference :class:`FaultyEmulator`: same result, same final state."""
    program = build_program(name)
    offset = sorted(all_workloads()).index(name)
    for register in range(32):
        bit = STUCK_AT_BITS[(register + offset) % len(STUCK_AT_BITS)]
        for model in ("stuck_at_0", "stuck_at_1"):
            verify_bit_identity(
                program, max_instructions=STUCK_AT_BUDGET,
                fault=ArchitecturalFault(register=register, bit=bit, model=model),
            )
