"""Fast LEON3 cycle engine: bit-identity contract, fault compilation, plumbing.

The fast cycle engine's whole value proposition is that it is *not* a second
implementation of the structural model from the campaign's point of view:
every observable must match the reference core bit for bit.  These tests
enforce that contract across the workload registry, fault-free and under
injected faults (storage-array sites and decode nets on the fast engine,
data-path nets through the reference fallback), plus the
specialisation-cache invalidation rules,
the backend/config/store plumbing of the ``fast`` flag, and the
result-transparency fix the contract depends on.
"""

import functools

import pytest

from conftest import SMALL_PROGRAM_SOURCE

from repro.engine import CampaignConfig, CampaignEngine, Leon3RtlBackend
from repro.engine.backend import watchdog_budget
from repro.isa.assembler import assemble
from repro.leon3.core import Leon3Core
from repro.leon3.fastcore import (
    _WORD_NETS,
    _ArrayWatch,
    Leon3FastCore,
    assert_rtl_results_identical,
    run_program_fast_rtl,
    verify_rtl_bit_identity,
)
from repro.leon3.regfile import physical_register_index
from repro.rtl.faults import (
    ALL_FAULT_MODELS,
    FaultModel,
    PermanentFault,
    TransientFault,
)
from repro.rtl.sites import FaultSite
from repro.store.keys import backend_identity
from repro.workloads.registry import all_workloads, build_program


def _sampled_faults():
    """Site x model pairs drawn from both campaign scopes plus edge sites."""
    universe = Leon3Core().sites
    sites = universe.sample(6, units=["iu"], seed=5)
    sites += universe.sample(6, units=["cmem"], seed=7)
    # Handpicked sites covering every native array and both fallback paths.
    sites += [
        FaultSite(net="rf.cells", bit=3, unit="iu.regfile", index=38),  # %sp cell
        FaultSite(net="icache.data", bit=13, unit="cmem.icache", index=17),
        FaultSite(net="icache.tags", bit=2, unit="cmem.icache", index=1),
        FaultSite(net="dcache.valid", bit=0, unit="cmem.dcache", index=4),
        FaultSite(net="psr.icc", bit=2, unit="iu.psr"),  # net -> fallback
        FaultSite(net="alu.adder.sum", bit=0, unit="iu.alu.adder"),  # net -> fallback
    ]
    pairs = []
    for index, site in enumerate(sites):
        # Rotate through the three models so every model sees every site kind
        # without tripling the runtime.
        model = ALL_FAULT_MODELS[index % len(ALL_FAULT_MODELS)]
        pairs.append(pytest.param(
            PermanentFault(site=site, model=model),
            id=f"{model.value}-{site.net}"
               f"{'' if site.index is None else f'[{site.index}]'}b{site.bit}",
        ))
    return pairs


class TestBitIdentity:
    @pytest.mark.parametrize("name", sorted(all_workloads()))
    def test_every_registered_workload_fault_free(self, name):
        program = all_workloads()[name].build()
        reference, fast = verify_rtl_bit_identity(program, max_instructions=400_000)
        assert reference.normal_exit

    @pytest.mark.parametrize("fault", _sampled_faults())
    def test_under_injected_faults(self, fault):
        program = build_program("rspeed")
        verify_rtl_bit_identity(program, faults=[fault], max_instructions=8_000)

    @pytest.mark.parametrize("fault", [
        PermanentFault(
            site=FaultSite(net="dcache.data", bit=7, unit="cmem.dcache", index=40),
            model=FaultModel.STUCK_AT_1,
        ),
        PermanentFault(
            site=FaultSite(net="rf.cells", bit=31, unit="iu.regfile", index=24),
            model=FaultModel.OPEN_LINE,
        ),
    ], ids=["dcache-data", "rf-open-line"])
    @pytest.mark.parametrize("name", ["membench", "intbench"])
    def test_injected_faults_on_other_workloads(self, name, fault):
        program = build_program(name)
        verify_rtl_bit_identity(program, faults=[fault], max_instructions=8_000)

    def test_watchdog_truncated_runs(self):
        program = build_program("rspeed")
        for budget in (1, 37, 500):
            reference, fast = verify_rtl_bit_identity(
                program, max_instructions=budget
            )
            assert not reference.halted  # budget exhaustion, not a trap

    def test_detailed_trace_runs_identically(self):
        program = assemble(SMALL_PROGRAM_SOURCE, name="small")
        reference, fast = verify_rtl_bit_identity(program, detailed_trace=True)
        assert fast.trace.records  # detailed records were produced and compared

    def test_non_default_cache_geometry(self):
        program = assemble(SMALL_PROGRAM_SOURCE, name="small")
        verify_rtl_bit_identity(
            program, icache_lines=4, dcache_lines=8, words_per_line=4
        )

    def test_run_program_fast_matches_reference_helper(self):
        from repro.leon3.core import run_program_rtl

        program = assemble(SMALL_PROGRAM_SOURCE, name="small")
        reference = run_program_rtl(program)
        fast = run_program_fast_rtl(program)
        assert fast.transactions == reference.transactions
        assert fast.trace == reference.trace
        assert fast.exit_code == reference.exit_code
        assert fast.cycles == reference.cycles


def _ordered_aggregates(trace):
    """The aggregate trace with the Counters' key insertion order kept."""
    return (
        list(trace.opcode_counts.items()),
        list(trace.category_counts.items()),
        list(trace.unit_counts.items()),
        trace.unit_opcodes,
        trace.total_instructions,
        trace.memory_reads,
        trace.memory_writes,
    )


class TestTraceOrder:
    """Both cores defer the trace tally and fold it in first-execution order,
    so their traces match key for key, not only as multisets."""

    @pytest.mark.parametrize("name", ["rspeed", "intbench", "membench"])
    def test_reference_and_fast_traces_match_key_for_key(self, name):
        program = build_program(name)
        fault = PermanentFault(
            site=FaultSite(net="rf.cells", bit=3, unit="iu.regfile", index=38),
            model=FaultModel.STUCK_AT_1,
        )
        for faults in ((), (fault,)):
            reference, fast = verify_rtl_bit_identity(
                program, faults=faults, max_instructions=400_000
            )
            assert _ordered_aggregates(fast.trace) == _ordered_aggregates(
                reference.trace
            )

    def test_detailed_reference_trace_keeps_records_and_aggregates(self):
        program = build_program("intbench")
        aggregate = Leon3Core()
        aggregate.load_program(program)
        detailed = Leon3Core(detailed_trace=True)
        detailed.load_program(program)
        plain, full = aggregate.run(), detailed.run()
        assert not plain.trace.records
        assert len(full.trace.records) == full.trace.total_instructions > 0
        assert [r.index for r in full.trace.records] == list(
            range(full.trace.total_instructions)
        )
        assert _ordered_aggregates(full.trace) == _ordered_aggregates(plain.trace)


class TestTrapCorners:
    """Every trap path of the pipeline, asserted bit-identical."""

    @pytest.mark.parametrize("body, expected_kind", [
        ("        ta      1\n", "software_trap"),
        ("        set     bogus, %o0\n        jmpl    %o0, 0, %g0\n"
         "        nop\n", "illegal_instruction"),  # jump into undecodable data
        ("        set     3, %o0\n        jmpl    %o0, 0, %g0\n        nop\n",
         "memory"),  # misaligned jump target
        ("        mov     0, %o1\n        udiv    %o0, %o1, %o2\n",
         "division_by_zero"),
        ("        " + "save    %sp, -64, %sp\n        " * 9 + "nop\n", "window"),
        ("        restore\n", "window"),
        ("        ld      [%g0 + 1], %o0\n", None),  # decodes, misaligned access
    ], ids=["software-trap", "illegal", "jmpl-misaligned", "div-zero",
            "save-overflow", "restore-underflow", "misaligned-load"])
    def test_trap_kinds_match(self, body, expected_kind):
        source = (
            "        .text\n" + body + "        ta      0\n"
            "        .data\nbogus:\n        .word   0x01800000\n"  # op2=6
        )
        program = assemble(source, name="trap-corner")
        reference, fast = verify_rtl_bit_identity(program, max_instructions=100)
        if expected_kind is not None:
            assert reference.trap_kind == expected_kind
        else:
            assert reference.trap_kind is not None

    def test_io_accesses_match(self):
        source = """
        .text
        set     0x80000010, %l0
        mov     0x5A, %o0
        st      %o0, [%l0]
        stb     %o0, [%l0 + 4]
        sth     %o0, [%l0 + 6]
        ld      [%l0], %o1
        ldub    [%l0 + 4], %o2
        std     %o2, [%l0 + 8]
        ldd     [%l0 + 8], %o4
        ta      0
"""
        program = assemble(source, name="io")
        reference, fast = verify_rtl_bit_identity(program, max_instructions=100)
        assert any(t.kind == "io" for t in reference.transactions)

    def test_subword_and_signed_memory_ops_match(self):
        source = """
        .text
        set     buffer, %l0
        mov     0x8F, %o0
        stb     %o0, [%l0 + 1]
        sth     %o0, [%l0 + 2]
        ldsb    [%l0 + 1], %o1
        ldsh    [%l0 + 2], %o2
        ldub    [%l0 + 1], %o3
        lduh    [%l0 + 2], %o4
        st      %o1, [%l0 + 4]
        ta      0
        .data
buffer:
        .space  16
"""
        program = assemble(source, name="subword")
        reference, fast = verify_rtl_bit_identity(program, max_instructions=100)
        assert reference.normal_exit


class TestSpecialisationCache:
    def test_loops_specialise_each_pc_once(self):
        program = assemble(SMALL_PROGRAM_SOURCE, name="small")
        core = Leon3FastCore()
        core.load_program(program)
        result = core.run(max_instructions=10_000)
        assert result.normal_exit
        assert core.decode_fills < result.instructions
        assert core.decode_fills == len(core._op_cache)

    def test_store_to_code_page_stays_identical(self):
        # The RTL model's icache is not coherent with stores: patching an
        # already-cached instruction leaves the *stale* word executing while
        # the trace decodes the patched memory image.  The fast engine must
        # replicate both halves of that behaviour exactly.
        from repro.isa import encoding
        from repro.isa.encoding import OP_ARITH

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
        reference, fast = verify_rtl_bit_identity(program)
        out_values = [t.value for t in fast.transactions if t.value in (1, 7)]
        # Both passes execute the stale cached instruction (unlike the ISS,
        # whose store invalidates its decode cache *and* its "icache" is the
        # memory image itself).
        assert out_values == [1, 1]

    @pytest.mark.parametrize("detailed_trace", [False, True])
    @pytest.mark.parametrize("stored", ["%g1", "%g0"])
    def test_store_over_its_own_word_traces_the_written_word(
        self, detailed_trace, stored
    ):
        # The reference trace decodes the memory image after each
        # instruction, so a store over its own word counts the word it wrote
        # (``sethi`` for the nop, nothing for the undecodable zero word), not
        # ``st``.
        program = assemble(_SELF_STORE_SOURCE.format(stored=stored),
                           name="selfstore")
        _, fast = verify_rtl_bit_identity(program, detailed_trace=detailed_trace)
        counts = fast.trace.opcode_counts
        assert "st" not in counts
        assert counts["sethi"] == counts["or"] + (stored == "%g1")

    def test_reload_restores_patched_memory(self):
        core = Leon3FastCore()
        program = assemble(SMALL_PROGRAM_SOURCE, name="small")
        core.load_program(program)
        first = core.run(max_instructions=10_000)
        core.reload()
        second = core.run(max_instructions=10_000)
        assert first.transactions == second.transactions
        assert first.cycles == second.cycles


class TestFaultCompilation:
    def test_array_faults_run_on_the_fast_engine(self):
        core = Leon3FastCore()
        core.load_program(build_program("intbench"))
        site = core.netlist.site_for("rf.cells", 5, index=20)
        core.inject([PermanentFault(site=site, model=FaultModel.STUCK_AT_1)])
        assert not core.uses_fallback
        assert core._rf_fault is not None

    def test_net_faults_delegate_to_the_reference(self):
        core = Leon3FastCore()
        program = build_program("intbench")
        core.load_program(program)
        site = core.netlist.site_for("alu.adder.sum", 1)
        fault = PermanentFault(site=site, model=FaultModel.STUCK_AT_1)
        core.inject([fault])
        assert core.uses_fallback
        fast = core.run(max_instructions=8_000)

        reference_core = Leon3Core()
        reference_core.load_program(program)
        reference_core.inject([fault])
        reference = reference_core.run(max_instructions=8_000)
        assert_rtl_results_identical(reference_core, reference, core, fast)

    def test_clear_faults_restores_the_fast_engine(self):
        core = Leon3FastCore()
        core.load_program(build_program("intbench"))
        core.inject([PermanentFault(
            site=core.netlist.site_for("alu.adder.sum", 1),
            model=FaultModel.STUCK_AT_1,
        )])
        assert core.uses_fallback
        core.clear_faults()
        assert not core.uses_fallback
        assert core.netlist.active_faults() == []

    def test_invalid_sites_fail_loud(self):
        from repro.rtl.netlist import NetlistError

        core = Leon3FastCore()
        core.load_program(build_program("intbench"))
        bogus = FaultSite(net="rf.cells", bit=40, unit="iu.regfile", index=3)
        with pytest.raises(NetlistError):
            core.inject([PermanentFault(site=bogus, model=FaultModel.STUCK_AT_1)])


#: Bits of the 32-bit word-determined nets the quick sweep covers; an odd
#: stride lands in every instruction-word field.
_WIDE_NET_STRIDE = 5


def _strided_native_net_sites(netlist):
    """Every bit of the narrow decode nets, a stride of the 32-bit ones."""
    sites = []
    for net in sorted(_WORD_NETS):
        width = netlist.net(net).width
        step = _WIDE_NET_STRIDE if width == 32 else 1
        sites += [netlist.site_for(net, bit) for bit in range(0, width, step)]
    return sites


def _run_pair(reference, fast, faults, budget):
    """Run *faults* from reset on both cores and assert bit-identity."""
    reference.clear_faults()
    reference.reload()
    reference.inject(faults)
    expected = reference.run(max_instructions=budget)
    fast.clear_faults()
    fast.reload()
    fast.inject(faults)
    observed = fast.run(max_instructions=budget)
    assert_rtl_results_identical(reference, expected, fast, observed)
    return fast.uses_fallback


def _native_net_sweep(program, sites):
    """Every site x permanent model on one reused fast core: identical to
    a from-reset reference run, no fallback, and a fault-free run after
    each faulted one still equals the golden run."""
    fast = Leon3FastCore()
    fast.load_program(program)
    golden = fast.run(max_instructions=400_000)
    budget = watchdog_budget(golden.instructions)
    reference = Leon3Core()
    reference.load_program(program)
    for site in sites:
        for model in ALL_FAULT_MODELS:
            fault = PermanentFault(site=site, model=model)
            assert not _run_pair(reference, fast, [fault], budget), fault
            fast.clear_faults()
            fast.reload()
            assert fast.run(max_instructions=400_000) == golden, fault


class TestNativeNetFaults:
    """Permanent faults on word-determined nets run on the fast engine,
    compiled into the per-PC ops."""

    def test_net_bit_split(self):
        netlist = Leon3Core().netlist
        iu_net_bits = sum(
            1 for site in netlist.universe.iter_sites(["iu"]) if site.index is None
        )
        assert iu_net_bits == 1162
        assert sum(netlist.net(net).width for net in _WORD_NETS) == 124

    def test_strided_bits_match_the_reference(self):
        program = build_program("excerpt_a2time")
        _native_net_sweep(program, _strided_native_net_sites(Leon3Core().netlist))

    @pytest.mark.slow
    @pytest.mark.parametrize("name", sorted(all_workloads()))
    def test_every_bit_on_every_workload(self, name):
        netlist = Leon3Core().netlist
        sites = [
            netlist.site_for(net, bit)
            for net in sorted(_WORD_NETS)
            for bit in range(netlist.net(net).width)
        ]
        _native_net_sweep(all_workloads()[name].build(), sites)

    @pytest.mark.parametrize("faults", [
        [TransientFault(
            site=FaultSite(net="iu.de.cond", bit=1, unit="iu.decode"),
            start_cycle=40, duration=200,
        )],
        [
            PermanentFault(
                site=FaultSite(net="iu.de.cond", bit=1, unit="iu.decode"),
                model=FaultModel.STUCK_AT_1,
            ),
            PermanentFault(
                site=FaultSite(net="alu.adder.sum", bit=2, unit="iu.alu.adder"),
                model=FaultModel.STUCK_AT_0,
            ),
        ],
        [PermanentFault(
            site=FaultSite(net="iu.fe.npc", bit=2, unit="iu.fetch"),
            model=FaultModel.STUCK_AT_1,
        )],
    ], ids=["transient-decode", "decode-plus-data-path", "fetch-npc"])
    def test_other_net_faults_fall_back(self, faults):
        program = build_program("excerpt_a2time")
        fast = Leon3FastCore()
        fast.load_program(program)
        reference = Leon3Core()
        reference.load_program(program)
        assert _run_pair(reference, fast, faults, 8_000)

    def test_open_line_reads_the_reset_bit_after_a_fallback_run(self):
        # The fallback run leaves the reference netlist's decode nets latched
        # at the last decoded word (``ta 0``: op = 2); the open line must
        # still read the bit latched at reset.
        program = build_program("excerpt_a2time")
        fast = Leon3FastCore()
        fast.load_program(program)
        reference = Leon3Core()
        reference.load_program(program)
        never_active = TransientFault(
            site=FaultSite(net="iu.de.cond", bit=1, unit="iu.decode"),
            start_cycle=10**9,
        )
        for net, bit in (("iu.de.op", 1), ("iu.de.inst", 31)):
            assert _run_pair(reference, fast, [never_active], 8_000)
            open_line = PermanentFault(
                site=FaultSite(net=net, bit=bit, unit="iu.decode"),
                model=FaultModel.OPEN_LINE,
            )
            assert not _run_pair(reference, fast, [open_line], 8_000)

    def test_call_links_through_the_decoded_rd(self):
        # iu.de.rd stuck-at-1 on bit 4 turns call's rd 15 (%o7) into 31
        # (%i7); ta's condition (rd & 0xF) is unchanged.
        program = assemble(
            """
            .text
    start:
            call    target
            nop
    target:
            ta      0
            """,
            name="call-link",
        )
        fault = PermanentFault(
            site=FaultSite(net="iu.de.rd", bit=4, unit="iu.decode"),
            model=FaultModel.STUCK_AT_1,
        )
        fast = Leon3FastCore()
        fast.load_program(program)
        reference = Leon3Core()
        reference.load_program(program)
        assert not _run_pair(reference, fast, [fault], 1_000)
        cell = functools.partial(physical_register_index, cwp=0, nwindows=8)
        assert fast.cells[cell(31)] == program.entry_point
        assert fast.cells[cell(15)] == 0

    def test_op_cache_is_flushed_at_fault_boundaries(self):
        core = Leon3FastCore()
        core.load_program(build_program("intbench"))
        core.run(max_instructions=400_000)
        assert core._op_cache
        site = core.netlist.site_for("iu.de.cond", 1)
        core.inject([PermanentFault(site=site, model=FaultModel.STUCK_AT_1)])
        assert not core._op_cache
        core.reload()
        core.run(max_instructions=400_000)
        assert core._op_cache
        core.clear_faults()
        assert not core._op_cache
        # Array faults leave the cache alone.
        core.run(max_instructions=400_000)
        core.inject([
            PermanentFault(
                site=core.netlist.site_for("rf.cells", 0, index=20),
                model=FaultModel.STUCK_AT_1,
            ),
        ])
        assert core._op_cache
        assert not core.uses_fallback


#: A store that overwrites its own instruction word with ``{stored}``.
_SELF_STORE_SOURCE = """
        .text
        set     0x01000000, %g1
        set     self, %g7
self:
        st      {stored}, [%g7]
        ta      0
"""


def _blocked_pair(program, faults=(), max_instructions=400_000, **core_kwargs):
    """Run *program* under *faults* on a fresh reference and a fresh fast
    core, assert bit-identity, and return the fast result and core (whose
    ``block_instructions`` shows whether blocks ran)."""
    reference_core = Leon3Core(**core_kwargs)
    reference_core.load_program(program)
    reference_core.inject(list(faults))
    reference = reference_core.run(max_instructions=max_instructions)
    fast_core = Leon3FastCore(**core_kwargs)
    fast_core.load_program(program)
    fast_core.inject(list(faults))
    fast = fast_core.run(max_instructions=max_instructions)
    assert_rtl_results_identical(reference_core, reference, fast_core, fast)
    _assert_cache_last_reads(reference_core, fast_core)
    return fast, fast_core


def _assert_cache_last_reads(reference_core, fast_core):
    """Every cache array's read-port value that a watch or an open line
    reads (their previous value) matches the reference's at the end of the
    run."""
    for name, hook in fast_core._array_states.items():
        if name != "rf.cells" and (
            isinstance(hook, _ArrayWatch)
            or any(fault.model is FaultModel.OPEN_LINE
                   for faults in hook.by_cell.values() for fault in faults)
        ):
            assert hook.last_read == reference_core.netlist.array(name)._last_read, name


def _read_cells(program, limit=None):
    """Register cells *program* reads with a value other than 0, busiest
    first (a watched fault-free run)."""
    core = Leon3FastCore()
    core.load_program(program)
    reads = core.watch(
        core.netlist.site_for("rf.cells", 0, index=index)
        for index in range(len(core.cells))
    )
    core.run(max_instructions=400_000)
    cells = [cell for (_, cell), summary in reads.items()
             if summary.ored or summary.changed]
    return cells[:limit]


#: A hot loop that loads, stores and calls a routine, an ALU-only loop (the
#: blocks every cache hook admits), and exit code on a line of its own (nops
#: pad the text: ``.align`` does not pad it).
_CACHE_LOOPS_SOURCE = """
        .text
start:
        set     table, %l0
        set     out, %l1
        mov     0, %o0
        mov     8, %o1
loop:
        ld      [%l0], %o2
        add     %o2, %o0, %o2
        st      %o2, [%l0]
        call    helper
        mov     5, %o4
        subcc   %o1, 1, %o1
        bne     loop
        add     %o0, 1, %o0
        mov     40, %o1
spin:
        add     %o3, %o0, %o3
        xor     %o3, %o1, %o5
        subcc   %o1, 1, %o1
        bne     spin
        sll     %o5, 1, %o5
        nop
        nop
        nop
        nop
exit:
        set     cold, %l2
        ld      [%l2], %o2
        add     %o2, %o3, %o2
        st      %o2, [%l1]
        st      %o5, [%l1 + 4]
        ta      0
        nop
helper:
        add     %o0, 3, %o3
        or      %o3, %o4, %o3
        retl
        sub     %o3, 1, %o3
        .data
table:
        .word   0x12345678
        .align  32
cold:
        .word   0x9abcdef0
        .align  32
out:
        .space  8
"""


def _cache_cells(program, array):
    """(hot, cold) cells of *array* in the cache-loops program: read on every
    pass of the hot loop, and only outside it (default 32 x 8-word caches)."""
    symbols = program.symbols
    assert not (symbols["exit"] | symbols["helper"]) & 31  # line-aligned
    hot, cold = ((symbols["helper"], symbols["exit"]) if array.startswith("icache.")
                 else (symbols["table"], symbols["cold"]))
    if array.endswith(".data"):
        return tuple(((at >> 5) & 31) * 8 + ((at >> 2) & 7) for at in (hot, cold))
    if array.startswith("icache."):
        hot = symbols["loop"]
    return tuple((at >> 5) & 31 for at in (hot, cold))


_CACHE_ARRAYS = [f"{cache}.{kind}" for cache in ("icache", "dcache")
                 for kind in ("tags", "data", "valid")]


def _patch_word():
    from repro.isa import encoding
    from repro.isa.encoding import OP_ARITH

    return encoding.Format3Imm(
        op=OP_ARITH, op3=0x02, rd=8, rs1=0, simm13=7
    ).encode()  # or %g0, 7, %o0


def _stale_line_program():
    """Pass 1 runs the loop head from a cached line and patches it; pass 2
    runs the stale word, then calls a routine whose line evicts the patched
    one, so pass 3 fetches the patch (stores 1, 1, 7)."""
    head = f"""
        .text
        set     patch, %o3
        set     {_patch_word():#010x}, %o4
        set     out, %l1
        mov     0, %o5
loop:
patch:
        mov     1, %o0
        st      %o0, [%l1]
        cmp     %o5, 2
        be      done
        nop
        cmp     %o5, 1
        bne     skip
        nop
        call    evict
        nop
skip:
        inc     %o5
        st      %o4, [%o3]
        ba      loop
        nop
done:
        ta      0
"""
    tail = """
evict:
        retl
        nop
        .data
out:
        .space  8
"""
    probe = assemble(head + tail, name="stale-line")
    line_span = 32 * 32  # icache lines x line bytes
    pad = ((probe.symbols["patch"] - probe.symbols["evict"]) % line_span) // 4
    return assemble(head + "        nop\n" * pad + tail, name="stale-line")


class TestBlockPath:
    """Straight-line code runs as compiled blocks (``run_segment``'s block
    path); every case is checked against the reference core and shows that
    blocks were entered.  Blocks compile on their first entry here, so even
    code that runs once takes the block path."""

    @pytest.fixture(autouse=True)
    def _compile_at_once(self, monkeypatch):
        from repro.leon3 import fastcore

        monkeypatch.setattr(fastcore, "_COMPILE_AFTER", 1)

    @pytest.mark.parametrize("stored", ["%g1", "%g0"])
    def test_store_over_its_own_word_ends_the_block_traced(self, stored):
        program = assemble(_SELF_STORE_SOURCE.format(stored=stored),
                           name="selfstore")
        fast, fast_core = _blocked_pair(program)
        # The block runs through the store; only ``ta`` steps.
        assert fast_core.block_instructions == fast.instructions - 1
        assert "st" not in fast.trace.opcode_counts

    def test_new_blocks_compile_once_hot(self, monkeypatch):
        from repro.leon3 import fastcore

        monkeypatch.setattr(fastcore, "_COMPILE_AFTER", 3)
        # Shifted by one instruction: code no other test runs, so the memo
        # and the entry counts start empty.
        source = SMALL_PROGRAM_SOURCE.replace("start:\n", "start:\n        nop\n")
        program = assemble(source, name="small-heat")
        loop = program.symbols["loop"]
        _, core = _blocked_pair(program)
        # The loop head is entered once per iteration after the first
        # (which runs inside the straight-line entry code): it compiled on
        # its third entry; the entry block, entered once, still waits.
        assert core._blocks[0][0][loop] is not None
        assert type(core._blocks[0][0][program.entry_point]) is fastcore._Pending
        assert core.block_instructions == 7 * 5
        # A fresh core uses the memoized block from its first entry on.
        _, again = _blocked_pair(program)
        assert again._blocks[0][0][loop] is core._blocks[0][0][loop]
        assert again.block_instructions == 9 * 5

    @pytest.mark.parametrize("name", sorted(all_workloads()))
    def test_registry_fault_free(self, name):
        fast, core = _blocked_pair(all_workloads()[name].build())
        assert fast.normal_exit
        # Everything but the final ``ta 0`` and the entry's cold steps.
        assert core.block_instructions > 0.9 * fast.instructions

    def test_memo_serves_a_fresh_core_and_keeps_word_faults_apart(self):
        from repro.leon3 import fastcore

        program = build_program("intbench")
        _, clean = _blocked_pair(program)
        memo = len(fastcore._BLOCK_MEMO)
        _, again = _blocked_pair(program)
        assert len(fastcore._BLOCK_MEMO) == memo  # no re-translation
        assert again._blocks[0][0] == clean._blocks[0][0]
        fault = PermanentFault(
            site=FaultSite(net="iu.de.rd", bit=0, unit="iu.decode"),
            model=FaultModel.STUCK_AT_1,
        )
        _, faulted = _blocked_pair(program, [fault], 8_000)
        assert faulted.block_instructions
        blocks = faulted._blocks[0][0]
        assert any(
            block is not None and block is not clean._blocks[0][0].get(pc)
            for pc, block in blocks.items()
        )  # faulted ops, own blocks

    @pytest.mark.parametrize("net, bit", [
        ("iu.de.rd", 1), ("iu.de.rs1", 0), ("iu.de.imm", 2), ("iu.de.cond", 3),
        ("iu.de.op3", 1), ("iu.fe.inst", 13), ("iu.de.use_imm", 0),
    ])
    def test_word_net_faults(self, net, bit):
        program = build_program("intbench")
        entered = 0
        for model in ALL_FAULT_MODELS:
            fault = PermanentFault(
                site=FaultSite(net=net, bit=bit, unit="iu.decode"), model=model
            )
            _, core = _blocked_pair(program, [fault], 8_000)
            assert not core.uses_fallback
            entered += core.block_instructions
        assert entered

    @pytest.mark.parametrize("model", ALL_FAULT_MODELS, ids=lambda m: m.value)
    def test_register_file_permanent_faults(self, model):
        program = build_program("intbench")
        entered = 0
        for cell in _read_cells(program, limit=6):
            for bit in (0, 5, 31):
                site = FaultSite(net="rf.cells", bit=bit, unit="iu.regfile",
                                 index=cell)
                _, core = _blocked_pair(
                    program, [PermanentFault(site=site, model=model)], 8_000
                )
                entered += core.block_instructions
        assert entered

    def test_register_file_transient_windows_open_mid_block(self):
        program = assemble(SMALL_PROGRAM_SOURCE, name="small")
        golden, _ = _blocked_pair(program)
        # Every start cycle of the run: windows open at every position
        # inside the loop's blocks, which read %l2 and %l3.
        cell = physical_register_index(19, cwp=0, nwindows=8)  # %l3
        entered = acted = 0
        for start in range(golden.cycles):
            for duration in (1, 9):
                fault = TransientFault(
                    site=FaultSite(net="rf.cells", bit=2, unit="iu.regfile",
                                   index=cell),
                    start_cycle=start, duration=duration,
                )
                fast, core = _blocked_pair(program, [fault], 1_000)
                entered += core.block_instructions
                acted += fast.transactions != golden.transactions
        assert entered and acted

    def test_transient_and_open_line_together_step(self):
        program = build_program("intbench")
        cell = _read_cells(program, limit=1)[0]
        site = FaultSite(net="rf.cells", bit=1, unit="iu.regfile", index=cell)
        _, core = _blocked_pair(program, [
            PermanentFault(site=site, model=FaultModel.OPEN_LINE),
            TransientFault(site=site, start_cycle=200, duration=50),
        ], 8_000)
        assert core.block_instructions == 0

    @staticmethod
    def _assert_blocked_watch_equals_stepped(program, sites, monkeypatch,
                                             max_instructions=400_000):
        """A watched run on blocks records the reads, and gives the result,
        of the same watched run stepped."""
        summaries = []
        for blocks in (True, False):
            if not blocks:
                monkeypatch.setattr(Leon3FastCore, "_block_mode", lambda self: None)
            core = Leon3FastCore()
            core.load_program(program)
            reads = core.watch(sites)
            result = core.run(max_instructions=max_instructions)
            summaries.append((reads, result, core.block_instructions))
        (blocked, result, entered), (stepped, expected, none) = summaries
        assert entered and not none
        assert result == expected
        assert blocked == stepped

    @pytest.mark.parametrize("name", ["intbench", "rspeed", "membench"])
    def test_watched_golden_equals_the_stepped_watch(self, name, monkeypatch):
        core = Leon3FastCore()
        self._assert_blocked_watch_equals_stepped(
            build_program(name),
            [core.netlist.site_for("rf.cells", 0, index=index)
             for index in range(len(core.cells))],
            monkeypatch,
        )

    @pytest.mark.parametrize("array", _CACHE_ARRAYS)
    def test_cache_array_faults_enter_the_blocks_that_miss_them(self, array):
        program = assemble(_CACHE_LOOPS_SOURCE, name="cache-loops")
        golden, _ = _blocked_pair(program)
        bits = {"tags": (0, 9), "data": (0, 1, 13, 30), "valid": (0,)}[
            array.split(".")[1]]
        acted = 0
        for cell in _cache_cells(program, array):
            for bit in bits:
                site = FaultSite(net=array, bit=bit, unit="cmem", index=cell)
                for model in ALL_FAULT_MODELS:
                    fast, core = _blocked_pair(
                        program, [PermanentFault(site=site, model=model)], 5_000
                    )
                    assert core.block_instructions > 0, (cell, bit, model)
                    acted += fast != golden
        assert acted

    def test_cache_transients_step(self):
        program = assemble(_CACHE_LOOPS_SOURCE, name="cache-loops")
        golden, _ = _blocked_pair(program)
        acted = 0
        for array in ("icache.data", "icache.valid", "dcache.data"):
            cell = _cache_cells(program, array)[0]
            for start in range(0, golden.cycles, 97):
                fault = TransientFault(
                    site=FaultSite(net=array, bit=0, unit="cmem", index=cell),
                    start_cycle=start, duration=5,
                )
                fast, core = _blocked_pair(program, [fault], 5_000)
                assert core.block_instructions == 0
                acted += fast != golden
        assert acted

    @pytest.mark.parametrize("array", _CACHE_ARRAYS)
    def test_watched_cache_cells_equal_the_stepped_watch(self, array, monkeypatch):
        program = assemble(_CACHE_LOOPS_SOURCE, name="cache-loops")
        netlist = Leon3FastCore().netlist
        self._assert_blocked_watch_equals_stepped(
            program,
            [netlist.site_for(array, 0, index=cell)
             for cell in _cache_cells(program, array)],
            monkeypatch, 5_000,
        )

    @pytest.mark.parametrize("name", ["intbench", "rspeed", "membench"])
    def test_watched_cmem_sample_equals_the_stepped_watch(self, name, monkeypatch):
        # The sites a CMEM campaign's golden run watches.
        self._assert_blocked_watch_equals_stepped(
            build_program(name),
            Leon3Core().sites.sample(24, units=["cmem"], seed=2015),
            monkeypatch,
        )

    def test_register_file_and_cache_hooks_together(self):
        program = assemble(_CACHE_LOOPS_SOURCE, name="cache-loops")
        rf_cell = physical_register_index(11, cwp=0, nwindows=8)  # %o3
        rf_site = FaultSite(net="rf.cells", bit=1, unit="iu.regfile", index=rf_cell)
        data_site = FaultSite(net="icache.data", bit=1, unit="cmem",
                              index=_cache_cells(program, "icache.data")[1])
        stuck = PermanentFault(site=rf_site, model=FaultModel.STUCK_AT_1)
        fetch = PermanentFault(site=data_site, model=FaultModel.OPEN_LINE)
        _, core = _blocked_pair(program, [stuck, fetch], 5_000)
        assert core.block_instructions  # guards on both arrays
        open_line = PermanentFault(site=rf_site, model=FaultModel.OPEN_LINE)
        _, core = _blocked_pair(program, [open_line, fetch], 5_000)
        assert core.block_instructions == 0  # a hooked register file steps

    @pytest.mark.parametrize("hook", [
        ("icache.data", 0, FaultModel.OPEN_LINE),
        ("icache.valid", 31, FaultModel.OPEN_LINE),
        ("dcache.tags", 31, FaultModel.STUCK_AT_1),
    ], ids=lambda hook: hook[0])
    @pytest.mark.parametrize("body, kind", [
        ("        save    %sp, -96, %sp\n        add     %g1, 1, %g1\n" * 8,
         "window"),
        ("        mov     5, %o0\n        mov     0, %o1\n"
         "        wr      %g0, %g0, %y\n        subcc   %o0, 6, %g0\n"
         "        udiv    %o0, %o1, %o2\n", "division_by_zero"),
        ("        set     out, %l1\n        st      %l1, [%l1]\n"
         "        sth     %l1, [%l1 + 1]\n", "memory"),
    ], ids=["save-overflow", "udiv-zero", "misaligned-store"])
    def test_traps_mid_block_under_a_cache_hook(self, body, kind, hook):
        # Cell 0 holds the entry ``ba``; line 31 is never fetched.  Runs
        # twice, so the second pass finds the body's lines resident.
        array, cell, model = hook
        source = (".text\n        mov     2, %o5\nagain:\n        ba      start\n"
                  "        nop\nstart:\n        subcc   %o5, 1, %o5\n"
                  "        bne     again\n        nop\n" + body
                  + "        mov     3, %o3\n        ta      0\n"
                  ".data\nout:\n        .space  8\n")
        site = FaultSite(net=array, bit=0, unit="cmem", index=cell)
        fast, core = _blocked_pair(assemble(source, name="trap"),
                                   [PermanentFault(site=site, model=model)], 200)
        assert fast.trap_kind == kind
        assert core.block_instructions

    @pytest.mark.parametrize("hook", [
        ("icache.data", FaultModel.OPEN_LINE),
        ("icache.tags", FaultModel.STUCK_AT_1),
        ("icache.valid", FaultModel.OPEN_LINE),
    ], ids=lambda hook: hook[0])
    def test_stale_line_under_a_cache_hook(self, hook):
        array, model = hook
        # Line 30 / its first cell: code no pass of the program fetches.
        cell = 30 * 8 if array.endswith(".data") else 30
        site = FaultSite(net=array, bit=0 if array.endswith(".valid") else 3,
                         unit="cmem", index=cell)
        fast, core = _blocked_pair(
            _stale_line_program(), [PermanentFault(site=site, model=model)]
        )
        assert [t.value for t in fast.transactions if t.value in (1, 7)] == [1, 1, 7]
        assert core.block_instructions

    @pytest.mark.parametrize("array, bit", [("icache.tags", 20),
                                            ("icache.valid", 0)])
    def test_open_line_reads_a_missed_probe_after_a_block(self, array, bit):
        # `far`'s block ends on the first word of a new line.  On the first
        # pass both its lines are cold, so a block there would leave the
        # missed probe's old tag and valid bit as the read-port value the
        # open line on line 0 reads next (at `back`): it steps.  On the
        # second pass its lines are resident and it runs.
        source = (
            ".text\n        mov     2, %o1\n        ba      far\n        nop\n"
            "back:\n        subcc   %o1, 1, %o1\n        bne     far\n"
            "        nop\n        ta      0\n" + "        nop\n" * 10
            + "far:\n        add     %o2, 1, %o2\n        add     %o3, 2, %o3\n"
            "        add     %o4, 3, %o4\n        add     %o5, 4, %o5\n"
            "        xor     %o2, %o3, %o2\n        xor     %o4, %o5, %o4\n"
            "        ba      back\n        or      %o2, %o4, %o3\n"
        )
        program = assemble(source, name="missed-probe")
        assert program.symbols["far"] + 28 == program.entry_point + 0x60
        site = FaultSite(net=array, bit=bit, unit="cmem", index=0)
        fast, core = _blocked_pair(
            program, [PermanentFault(site=site, model=FaultModel.OPEN_LINE)], 200
        )
        golden, _ = _blocked_pair(program, max_instructions=200)
        assert fast.icache_misses != golden.icache_misses  # the open line acts
        assert core.block_instructions

    def test_clean_run_after_a_faulted_fetch_enters_every_block(self):
        # The loop is first entered at `mid`, whose block holds the faulted
        # fetch (``add 1`` turns into ``add 3``) and steps.  The loop head,
        # translated after that fetch, is cut short before it.  A clean run
        # on the same core must then enter the blocks a fresh core enters.
        source = """
        .text
        mov     6, %o1
        mov     0, %o0
        ba      mid
        nop
head:
        add     %o0, 2, %o0
mid:
        add     %o0, 4, %o0
        add     %o0, 1, %o0
        subcc   %o1, 1, %o1
        bne     head
        nop
        set     out, %l1
        st      %o0, [%l1]
        ta      0
        .data
out:
        .space  8
"""
        program = assemble(source, name="enter-mid")
        mid = program.symbols["mid"] + 4
        site = FaultSite(net="icache.data", bit=1, unit="cmem",
                         index=((mid >> 5) & 31) * 8 + ((mid >> 2) & 7))
        faulted, core = _blocked_pair(
            program, [PermanentFault(site=site, model=FaultModel.STUCK_AT_1)], 1_000
        )
        assert core._foreign  # the head's block was cut short
        core.clear_faults()
        core.reload()
        before = core.block_instructions
        reused = core.run(max_instructions=1_000)
        fresh, fresh_core = _blocked_pair(program, max_instructions=1_000)
        assert reused == fresh != faulted
        assert core.block_instructions - before == fresh_core.block_instructions

    def test_store_rewrites_a_later_instruction_of_its_block(self):
        # The store ends its block; the patched word is in a cached line, so
        # the stale instruction runs (the block's line check steps it).
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
        fast, core = _blocked_pair(assemble(source, name="selfmod-block"))
        assert fast.transactions[-1].value == 1
        assert core.block_instructions

    def test_store_rewrites_its_delay_slot(self):
        # The store ends its block, whose delay slot it patches.
        source = f"""
        .text
        set     patch, %o3
        set     {_patch_word():#010x}, %o4
        set     out, %l1
        mov     2, %o0
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
        fast, core = _blocked_pair(assemble(source, name="selfmod-slot"))
        # The slot's line is not cached yet: the refill reads the patch.
        assert fast.transactions[-1].value == 7
        assert core.block_instructions

    def test_stale_line_steps_until_an_eviction_refills_it(self):
        fast, core = _blocked_pair(_stale_line_program())
        assert [t.value for t in fast.transactions if t.value in (1, 7)] == [1, 1, 7]
        assert core.block_instructions

    def test_ops_from_a_stale_fetch_stay_out_of_blocks(self):
        # Pass 1 patches `patch` and re-runs it from the stale line, which
        # caches an op of the old word; pass 2 evicts the line and enters at
        # `entry`, so a block over `patch` refills the line from memory and
        # must run the new word.
        head = f"""
        .text
        set     patch, %o3
        set     {_patch_word():#010x}, %o4
        set     out, %l1
        mov     0, %o5
entry:
        nop
patch:
        mov     1, %o0
        st      %o0, [%l1]
        inc     %o5
        cmp     %o5, 1
        bne     second
        nop
        st      %o4, [%o3]
        ba      patch
        nop
second:
        cmp     %o5, 2
        bne     done
        nop
        call    evict
        nop
        ba      entry
        nop
done:
        ta      0
"""
        tail = """
evict:
        retl
        nop
        .data
out:
        .space  8
"""
        probe = assemble(head + tail, name="stale-op")
        pad = ((probe.symbols["patch"] - probe.symbols["evict"]) % (32 * 32)) // 4
        program = assemble(head + "        nop\n" * pad + tail, name="stale-op")
        fast, core = _blocked_pair(program)
        assert [t.value for t in fast.transactions if t.value in (1, 7)] == [1, 1, 7]
        assert core.block_instructions

    def test_detailed_traces_step(self):
        program = assemble(SMALL_PROGRAM_SOURCE, name="small")
        fast, core = _blocked_pair(program, detailed_trace=True)
        assert fast.trace.records
        assert core.block_instructions == 0

    @pytest.mark.parametrize("name", ["intbench", "rspeed"])
    def test_budget_ending_inside_a_block(self, name):
        program = build_program(name)
        for budget in list(range(1, 70)) + [333, 1000]:
            _, core = _blocked_pair(program, max_instructions=budget)
            if budget > 40:
                assert core.block_instructions

    @pytest.mark.parametrize("name", ["small", "intbench"])
    def test_segment_slices_at_every_boundary_equal_one_run(self, name):
        from repro.leon3.fastcore import _core_state

        program = (assemble(SMALL_PROGRAM_SOURCE, name="small") if name == "small"
                   else build_program(name))
        whole, whole_core = _blocked_pair(program)
        for size in range(1, 40):
            core = Leon3FastCore()
            core.load_program(program)
            state = core.begin_run()
            while not state.halted and state.executed < 400_000:
                core.run_segment(state, min(size, 400_000 - state.executed))
            assert core.finish_run(state) == whole, size
            assert _core_state(core) == _core_state(whole_core), size
            assert core.block_instructions or size < 5

    @pytest.mark.parametrize("branch", ["be", "bne"])
    def test_misaligned_load_in_a_delay_slot(self, branch):
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
        fast, core = _blocked_pair(program)
        assert fast.trap_kind == "memory"
        slot = program.symbols["target"] - 8
        assert core.pc == slot
        assert core.npc == (program.symbols["target"] if branch == "be" else slot + 4)
        assert core.block_instructions  # the block ran up to the slot

    @pytest.mark.parametrize("body, kind", [
        ("        save    %sp, -96, %sp\n        add     %g1, 1, %g1\n" * 8,
         "window"),
        ("        mov     1, %o0\n        subcc   %o0, 2, %g0\n"
         "        restore %o0, 1, %o1\n", "window"),
        ("        mov     5, %o0\n        mov     0, %o1\n"
         "        wr      %g0, %g0, %y\n        subcc   %o0, 6, %g0\n"
         "        udiv    %o0, %o1, %o2\n", "division_by_zero"),
        ("        set     3, %o0\n        add     %o0, 4, %o1\n"
         "        jmpl    %o0, 0, %g0\n        nop\n", "memory"),
        ("        set     out, %l1\n        st      %l1, [%l1]\n"
         "        sth     %l1, [%l1 + 1]\n", "memory"),
    ], ids=["save-overflow", "restore-underflow", "udiv-zero", "jmpl-misaligned",
            "misaligned-store"])
    def test_traps_mid_block(self, body, kind):
        # A cold line first: the trap follows a miss inside the same block.
        source = (".text\n        ba      start\n        nop\nstart:\n" + body
                  + "        mov     3, %o3\n        ta      0\n"
                  ".data\nout:\n        .space  8\n")
        fast, core = _blocked_pair(assemble(source, name="trap"), max_instructions=100)
        assert fast.trap_kind == kind
        assert core.block_instructions

    @pytest.mark.parametrize("body", [
        "        ba,a    target\n        mov     1, %o0\ntarget:\n",
        "        bn,a    target\n        mov     1, %o0\ntarget:\n",
        "        cmp     %o0, 0\n        bne,a   target\n        mov     1, %o0\n"
        "target:\n",
        "        cmp     %o0, 0\n        be,a    target\n        mov     1, %o0\n"
        "target:\n",
    ], ids=["ba,a", "bn,a", "untaken-bne,a", "taken-be,a"])
    def test_annulled_slots_at_every_budget(self, body):
        source = (".text\n        mov     0, %o0\n        mov     2, %o1\n" + body
                  + "        add     %o0, %o1, %o2\n        set     out, %l1\n"
                  "        st      %o2, [%l1]\n        ta      0\n"
                  ".data\nout:\n        .space  8\n")
        program = assemble(source, name="annul")
        entered = 0
        for budget in range(1, 14):
            _, core = _blocked_pair(program, max_instructions=budget)
            entered += core.block_instructions
        assert entered


class TestResultTransparency:
    """Open-line outcomes must not depend on what ran before on the backend.

    Regression test for the ``StorageArray._last_read`` reset: the open-line
    model's "previous value" must start from the post-reset state every run,
    so a backend reused across jobs (every scheduler does this) classifies a
    fault exactly like a fresh one.
    """

    def _entry_valid_fault(self, backend, program):
        # The valid cell of the entry point's icache line is the first cell
        # of its array read in every run — the site where leaked last_read
        # state would be observable.
        cache = (
            backend.core.cmem.icache
            if isinstance(backend.core, Leon3Core)
            else backend.core.icache
        )
        index = (program.entry_point >> cache.index_shift) & (cache.lines - 1)
        site = backend.core.netlist.site_for("icache.valid", 0, index=index)
        return PermanentFault(site=site, model=FaultModel.OPEN_LINE)

    @pytest.mark.parametrize("fast", [False, True], ids=["reference", "fast"])
    def test_reused_backend_matches_fresh_backend(self, fast):
        program = build_program("intbench")
        reused = Leon3RtlBackend(fast=fast)
        reused.prepare(program)
        golden = reused.run(max_instructions=400_000)  # pollutes reused state
        fault = self._entry_valid_fault(reused, program)
        budget = watchdog_budget(golden.instructions)
        from_reused = reused.run(max_instructions=budget, faults=[fault])

        fresh = Leon3RtlBackend(fast=fast)
        fresh.prepare(program)
        from_fresh = fresh.run(max_instructions=budget, faults=[fault])
        assert from_reused == from_fresh


class TestSelection:
    def test_rtl_backend_defaults_to_fast(self):
        assert isinstance(Leon3RtlBackend().core, Leon3FastCore)
        assert isinstance(Leon3RtlBackend(fast=False).core, Leon3Core)

    def test_backend_runs_identical_under_fault(self):
        program = assemble(SMALL_PROGRAM_SOURCE, name="small")
        results = {}
        for fast in (True, False):
            backend = Leon3RtlBackend(fast=fast)
            backend.prepare(program)
            site = backend.sites.sample(1, units=["cmem"], seed=3)[0]
            fault = PermanentFault(site=site, model=FaultModel.STUCK_AT_1)
            results[fast] = backend.run(max_instructions=100_000, faults=[fault])
        assert results[True] == results[False]

    def test_campaign_config_selects_cycle_engine(self):
        program = assemble(SMALL_PROGRAM_SOURCE, name="small")
        config = CampaignConfig(sample_size=2, rtl_fast=False)
        engine = CampaignEngine(program, config, backend_factory=Leon3RtlBackend)
        assert isinstance(engine.backend.core, Leon3Core)
        default_engine = CampaignEngine(program, backend_factory=Leon3RtlBackend)
        assert isinstance(default_engine.backend.core, Leon3FastCore)
        # Both cycle-engine choices share one store identity: the flag is
        # result-transparent and must not fork the campaign cache.
        assert backend_identity("rtl", engine.backend_factory) == backend_identity(
            "rtl", default_engine.backend_factory
        ) == backend_identity("rtl", Leon3RtlBackend)

    def test_campaign_config_honours_partial_rtl_factories(self):
        program = assemble(SMALL_PROGRAM_SOURCE, name="small")
        config = CampaignConfig(sample_size=2, rtl_fast=False)
        # A partial customising an unrelated knob still gets the config's
        # engine choice; an explicit fast= binding wins over the config.
        engine = CampaignEngine(
            program, config,
            backend_factory=functools.partial(Leon3RtlBackend, icache_lines=8),
        )
        assert isinstance(engine.backend.core, Leon3Core)
        assert engine.backend.core.cmem.icache.lines == 8
        pinned = CampaignEngine(
            program, config,
            backend_factory=functools.partial(Leon3RtlBackend, fast=True),
        )
        assert isinstance(pinned.backend.core, Leon3FastCore)

    def test_geometry_partials_keep_their_own_identity(self):
        bare = backend_identity("rtl", Leon3RtlBackend)
        assert backend_identity(
            "rtl", functools.partial(Leon3RtlBackend, fast=False)
        ) == bare
        assert backend_identity(
            "rtl", functools.partial(Leon3RtlBackend, fast=True)
        ) == bare
        tuned = backend_identity(
            "rtl", functools.partial(Leon3RtlBackend, fast=True, icache_lines=8)
        )
        assert tuned != bare
        assert "icache_lines=8" in tuned
        assert "fast" not in tuned

    def test_object_bound_partials_are_refused(self):
        # Mirrors the ISS-side contract: an object's default repr embeds its
        # memory address (the key never matches again), so object-valued
        # bound arguments must fail loud even with the fast flag present.
        with pytest.raises(ValueError, match="named zero-argument factory"):
            backend_identity(
                "rtl",
                functools.partial(Leon3RtlBackend, fast=True, core=Leon3FastCore()),
            )

    def test_iu_campaign_fast_matches_reference(self):
        program = build_program("intbench")

        def campaign(fast):
            config = CampaignConfig(
                sample_size=5, fault_models=[FaultModel.STUCK_AT_1], seed=11,
                rtl_fast=fast,
            )
            return CampaignEngine(program, config).run()

        fast = campaign(True)
        reference = campaign(False)
        for model in fast:
            assert fast[model].outcomes == reference[model].outcomes
            assert (
                fast[model].failure_probability
                == reference[model].failure_probability
            )


class TestStoreRoundTrip:
    def test_fast_and_reference_engines_share_one_stored_campaign(self, tmp_path):
        from repro.store import CampaignStore

        program = build_program("intbench")
        store_path = str(tmp_path / "campaigns.db")
        shared = {
            "unit_scope": "cmem", "sample_size": 4,
            "fault_models": [FaultModel.STUCK_AT_1], "seed": 3,
            "store_path": store_path,
        }
        fast_results = CampaignEngine(
            program, CampaignConfig(rtl_fast=True, **shared),
            backend_factory=Leon3RtlBackend,
        ).run()
        with CampaignStore(store_path) as store:
            after_fast = store.counters()
        assert after_fast["jobs_executed"] == 4

        # The reference engine must hit the fast engine's stored campaign:
        # same key, zero new injections, bit-identical outcomes.
        reference_results = CampaignEngine(
            program, CampaignConfig(rtl_fast=False, **shared),
            backend_factory=Leon3RtlBackend,
        ).run()
        with CampaignStore(store_path) as store:
            after_reference = store.counters()
        assert after_reference["jobs_executed"] == after_fast["jobs_executed"]
        assert after_reference["jobs_cached"] == after_fast["jobs_cached"] + 4
        assert after_reference["campaign_hits"] == after_fast["campaign_hits"] + 1
        for model in fast_results:
            assert fast_results[model].outcomes == reference_results[model].outcomes
