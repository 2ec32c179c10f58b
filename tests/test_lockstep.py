"""Bit-identity and transparency of the lockstep pack runtime.

The contract (mirroring ``test_checkpoint.py``): a pack of N faulty
replicas executed through the shared fetch/decode front end of
:mod:`repro.engine.lockstep` yields, for every replica, a result (and on
request a final architectural state) bit-identical to running that fault
alone — whether the replica never diverges, rides the pack with a live
delta, re-converges in pack, or demotes to the scalar path and splices.
The campaign layers must preserve all of it: ``lockstep_width`` is
result-transparent (serial == process == lockstep, and it is excluded from
the campaign store key).
"""

import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.engine.lockstep as lockstep
import repro.iss.fastpath as fastpath
from repro.engine.backend import IssBackend, Leon3RtlBackend, watchdog_budget
from repro.engine.campaign import CampaignConfig, CampaignEngine
from repro.engine.checkpoint import (
    assert_run_results_identical,
    make_checkpoint_runner,
)
from repro.engine.lockstep import (
    _MEM_KEY_BASE,
    PROPAGATION_BUDGET,
    LockstepPackRunner,
    TouchRecorder,
    _EffectsCache,
    make_pack_runner,
)
from repro.engine.schedulers import group_packs
from repro.isa.assembler import assemble
from repro.isa.decoder import DecodeError
from repro.isa.registers import RegisterWindowError
from repro.iss.emulator import SimulationError
from repro.iss.fastpath import FastEmulator
from repro.iss.memory import Memory, MemoryError_
from repro.obs.telemetry import TELEMETRY
from repro.rtl.faults import FaultModel, PermanentFault, TransientFault
from repro.rtl.sites import FaultSite
from repro.workloads import all_workloads, build_program
from repro.workloads.builder import assemble_workload

MAX_INSTRUCTIONS = 400_000

#: Workloads exercised by the exhaustive registry sweep.
REGISTRY = sorted(all_workloads())

#: Replicas per pack in the sweep — wide enough that one pack mixes
#: resolution paths (riders next to demotions next to convergences).
WIDTH = 8

#: Pack statistics accumulated across the registry sweep, so the
#: path-coverage test below can assert every resolution path actually ran.
SWEEP_STATS = Counter()

#: %g0's cell in the architectural register file (reads short-circuit to 0,
#: so an upset there is invisible) and %o0's (read by nearly everything).
G0_SITE = FaultSite("regfile", 3, "arch.regfile", index=0)
O0_SITE = FaultSite("regfile", 0, "arch.regfile", index=8)


def _prepared_backend(program):
    backend = IssBackend()
    backend.prepare(program)
    return backend


def from_reset_final_state(program, backend, fault, budget):
    """Final architectural state of an untimed from-reset faulty run."""
    emulator = FastEmulator(memory=Memory())
    emulator.collect_raw_counts = True
    emulator.load_program(program)
    base_pages = {i: bytes(p) for i, p in emulator.memory._pages.items()}
    arch = backend._to_architectural(fault) if fault is not None else None
    emulator.restore_state(emulator.capture_state(base_pages), base_pages, 0, arch)
    emulator.run(max_instructions=budget)
    return emulator.capture_state(base_pages)


def _sweep_faults(backend, horizon, name, sites=3, windows=2):
    """The fault mix of one sweep workload: sampled transients, the %g0/%o0
    specials, and sticky (permanent) faults — same recipe as the
    checkpointed-runtime sweep, plus the pack-specific corners."""
    rng = random.Random(name)
    faults = []
    for site in backend.sites.sample(sites, seed=5, storage_only=True):
        for _ in range(windows):
            faults.append(
                TransientFault(site, start_cycle=rng.randrange(horizon), duration=1)
            )
    faults.append(TransientFault(G0_SITE, start_cycle=horizon // 2, duration=1))
    faults.append(TransientFault(O0_SITE, start_cycle=horizon // 3, duration=1))
    faults.append(TransientFault(O0_SITE, start_cycle=0, duration=1))
    faults.append(PermanentFault(O0_SITE, FaultModel.STUCK_AT_1))
    faults.append(PermanentFault(G0_SITE, FaultModel.OPEN_LINE))
    return faults


@pytest.mark.parametrize("workload", REGISTRY)
def test_pack_bit_identity_across_registry(workload):
    """Every replica of every pack == the same fault run alone, on every
    observable plus the final architectural state."""
    program = build_program(workload)
    backend = _prepared_backend(program)
    golden = backend.run(max_instructions=MAX_INSTRUCTIONS)
    assert golden.normal_exit
    budget = watchdog_budget(golden.instructions)
    runner = backend.checkpoint_runner(MAX_INSTRUCTIONS)
    pack_runner = runner.pack_runner(WIDTH)
    faults = _sweep_faults(backend, golden.instructions, workload)
    arch = [backend._to_architectural(fault) for fault in faults]
    outcomes = []
    for start in range(0, len(arch), WIDTH):
        outcomes.extend(
            pack_runner.run_pack(
                arch[start : start + WIDTH], budget, capture_final_state=True
            )
        )
    for fault, outcome in zip(faults, outcomes):
        reference = backend.run(max_instructions=budget, faults=[fault])
        assert_run_results_identical(reference, outcome.result)
        assert outcome.final_state == from_reset_final_state(
            program, backend, fault, budget
        )
    SWEEP_STATS.update(
        demotions=pack_runner.demotions,
        demoted_splices=pack_runner.demoted_splices,
        in_pack_convergences=pack_runner.in_pack_convergences,
        golden_riders=pack_runner.golden_riders,
        propagations=pack_runner.propagations,
    )


#: Bits the stuck-at pack sweep forces, rotating over registers and workloads.
STUCK_BITS = (0, 1, 2, 3, 5, 8, 13, 31)


@pytest.mark.parametrize("workload", REGISTRY)
def test_stuck_at_packs_across_registry(workload):
    """Stuck-at replicas ride the one event-driven sweep: the pack re-applies
    each fault only after a golden write of its slot or a window move.  A
    ladder-less pack (as permanent campaigns run it) with one stuck-at on
    every register, ``%g0`` included, equals each fault run alone, final
    architectural state included."""
    program = build_program(workload)
    backend = _prepared_backend(program)
    golden = backend.run(max_instructions=MAX_INSTRUCTIONS)
    budget = watchdog_budget(golden.instructions)
    pack_runner = make_pack_runner(backend, MAX_INSTRUCTIONS, 16)
    offset = REGISTRY.index(workload)
    faults = [
        PermanentFault(
            FaultSite("regfile", STUCK_BITS[(register + offset) % len(STUCK_BITS)],
                      "arch.regfile", index=register),
            (FaultModel.STUCK_AT_0, FaultModel.STUCK_AT_1)[(register + offset) % 2],
        )
        for register in range(32)
    ]
    arch = [backend._to_architectural(fault) for fault in faults]
    outcomes = []
    for start in range(0, len(arch), 16):
        outcomes.extend(pack_runner.run_pack(
            arch[start : start + 16], budget, capture_final_state=True
        ))
    for fault, outcome in zip(faults, outcomes):
        reference = backend.run(max_instructions=budget, faults=[fault])
        assert_run_results_identical(reference, outcome.result)
        assert outcome.final_state == from_reset_final_state(
            program, backend, fault, budget
        )


def test_sweep_covered_every_resolution_path():
    """The registry sweep must actually exercise demotion, demoted-splice
    rejoin, in-pack convergence, golden riding and delta propagation —
    otherwise the bit-identity assertions above prove less than they claim."""
    if not SWEEP_STATS:
        pytest.skip("registry sweep did not run")
    # demoted_splices needs a denser window sample to show up — it has its
    # own dedicated coverage test below.
    for path in (
        "demotions",
        "in_pack_convergences",
        "golden_riders",
        "propagations",
    ):
        assert SWEEP_STATS[path] > 0, f"sweep never took the {path} path"


def test_handler_sets_come_from_the_semantics_table():
    """The effect sets lockstep derives from the semantics table's families
    are exactly the ones it listed by mnemonic before."""
    alu = fastpath._ALU_HANDLERS

    def handlers(*bases):
        return frozenset(alu[base] for base in bases)

    assert lockstep._PROPAGATE_HANDLERS == handlers(
        "add", "addx", "sub", "subx", "and", "andn", "or", "orn",
        "xor", "xnor", "sll", "srl", "sra", "umul", "smul",
    ) | {fastpath._h_sethi, fastpath._h_call, fastpath._h_rd, fastpath._h_wr}
    assert lockstep._ICC_READERS == handlers("addx", "subx")
    assert lockstep._Y_READERS == handlers("udiv", "sdiv") | {fastpath._h_rd}
    assert lockstep._Y_WRITERS == handlers("umul", "smul") | {fastpath._h_wr}
    assert lockstep._DIV_HANDLERS == handlers("udiv", "sdiv")


class TestWidthOne:
    def test_width_one_pack_equals_scalar(self):
        """A pack of one is the scalar path: same results, fault by fault."""
        program = build_program("rspeed")
        backend = _prepared_backend(program)
        golden = backend.run(max_instructions=MAX_INSTRUCTIONS)
        budget = watchdog_budget(golden.instructions)
        runner = backend.checkpoint_runner(MAX_INSTRUCTIONS)
        solo = runner.pack_runner(1)
        horizon = golden.instructions
        for site in backend.sites.sample(2, seed=11, storage_only=True):
            fault = TransientFault(site, start_cycle=horizon // 2, duration=1)
            (outcome,) = solo.run_pack(
                [backend._to_architectural(fault)], budget
            )
            assert_run_results_identical(
                runner.run_transient(fault, budget), outcome.result
            )

    def test_make_pack_runner_gates(self):
        """Width 1, non-ISS backends and no-snapshot interpreters all fall
        back to the scalar path (``None``)."""
        program = build_program("rspeed")
        backend = _prepared_backend(program)
        assert make_pack_runner(backend, MAX_INSTRUCTIONS, 1) is None
        reference = IssBackend(fast=False)
        reference.prepare(program)
        assert make_pack_runner(reference, MAX_INSTRUCTIONS, 4) is None
        rtl = Leon3RtlBackend()
        rtl.prepare(program)
        assert make_pack_runner(rtl, MAX_INSTRUCTIONS, 4) is None

    def test_pack_runner_donates_the_scalar_ladder(self):
        program = build_program("rspeed")
        backend = _prepared_backend(program)
        runner = backend.checkpoint_runner(MAX_INSTRUCTIONS)
        pack_runner = make_pack_runner(backend, MAX_INSTRUCTIONS, 4, runner=runner)
        assert pack_runner is not None
        assert pack_runner._ladder is runner.ladder()

    def test_oversized_pack_is_refused(self):
        program = build_program("rspeed")
        backend = _prepared_backend(program)
        runner = backend.checkpoint_runner(MAX_INSTRUCTIONS)
        pack_runner = runner.pack_runner(2)
        fault = backend._to_architectural(
            TransientFault(O0_SITE, start_cycle=1, duration=1)
        )
        with pytest.raises(ValueError, match="exceeds lockstep width"):
            pack_runner.run_pack([fault] * 3, 1000)


class TestResolutionPaths:
    def test_dead_cell_flip_rides_to_golden(self):
        """A %g0 upset is architecturally invisible: the replica must resolve
        to the golden result without ever demoting."""
        program = build_program("rspeed")
        backend = _prepared_backend(program)
        golden = backend.run(max_instructions=MAX_INSTRUCTIONS)
        budget = watchdog_budget(golden.instructions)
        pack_runner = backend.checkpoint_runner(MAX_INSTRUCTIONS).pack_runner(2)
        fault = TransientFault(
            G0_SITE, start_cycle=golden.instructions // 2, duration=1
        )
        (outcome,) = pack_runner.run_pack(
            [backend._to_architectural(fault)], budget
        )
        assert outcome.resolution == "golden"
        assert pack_runner.demotions == 0
        assert_run_results_identical(golden, outcome.result)

    def test_store_data_divergence_rides_pack(self):
        """A replica whose corruption reaches memory through a store — same
        address, divergent data — must keep riding the pack (patched
        transaction history, live memory delta) and still produce the exact
        from-reset result, transactions included."""
        # 8 iterations: the corrupted accumulator feeds ~5 instructions per
        # loop, comfortably inside PROPAGATION_BUDGET, so the replica is
        # never demoted for cost.
        program = assemble_workload(
            "storeloop",
            "\n".join(
                [
                    "        .text",
                    "start:",
                    "        set     buf, %l0",
                    "        or      %g0, 8, %l1",
                    "        or      %g0, 0, %l2",
                    "        or      %g0, 0, %l4",
                    "loop:",
                    "        add     %l2, 3, %l2",
                    "        st      %l2, [%l0]",
                    "        ld      [%l0], %l3",
                    "        add     %l3, %l4, %l4",
                    "        subcc   %l1, 1, %l1",
                    "        bne     loop",
                    "        nop",
                    "        st      %l4, [%l0]",
                    "        ta      0",
                ]
            ),
            "buf:\n        .word   0",
        )
        backend = _prepared_backend(program)
        golden = backend.run(max_instructions=MAX_INSTRUCTIONS)
        assert golden.normal_exit
        budget = watchdog_budget(golden.instructions)
        pack_runner = backend.checkpoint_runner(MAX_INSTRUCTIONS).pack_runner(2)
        # Flip a bit of %l2 (cell 18) mid-run: every later store writes a
        # divergent word, every later load reads it back.
        fault = TransientFault(
            FaultSite("regfile", 2, "arch.regfile", index=18),
            start_cycle=golden.instructions // 2,
            duration=1,
        )
        (outcome,) = pack_runner.run_pack(
            [backend._to_architectural(fault)], budget, capture_final_state=True
        )
        assert outcome.resolution == "rode_pack"
        assert pack_runner.golden_riders == 1
        assert outcome.result.transactions != golden.transactions
        reference = backend.run(max_instructions=budget, faults=[fault])
        assert_run_results_identical(reference, outcome.result)
        assert outcome.final_state == from_reset_final_state(
            program, backend, fault, budget
        )

    def test_demoted_replica_splices_back_onto_the_golden_tail(self):
        """A demoted replica whose scalar tail digest-matches a golden rung
        must rejoin (``"spliced"``) — and still equal the from-reset run.
        bitmnp's bit-shuffling kernel absorbs many %o0 upsets only *after*
        they have already forked control flow, which is exactly the
        demote-then-rejoin shape."""
        program = build_program("bitmnp")
        backend = _prepared_backend(program)
        golden = backend.run(max_instructions=MAX_INSTRUCTIONS)
        budget = watchdog_budget(golden.instructions)
        runner = backend.checkpoint_runner(MAX_INSTRUCTIONS)
        pack_runner = runner.pack_runner(WIDTH)
        from repro.engine.jobs import plan_transient_jobs

        jobs = plan_transient_jobs(
            backend.sites.sample(8, seed=2015, storage_only=True),
            horizon=golden.instructions, windows=8, duration=1,
            seed=2015, workload="bitmnp",
        )
        outcomes = []
        for start in range(0, len(jobs), WIDTH):
            outcomes.extend(
                pack_runner.run_pack(
                    [
                        backend._to_architectural(job.fault)
                        for job in jobs[start : start + WIDTH]
                    ],
                    budget,
                )
            )
        assert pack_runner.demoted_splices > 0
        assert any(outcome.resolution == "spliced" for outcome in outcomes)
        for job, outcome in zip(jobs, outcomes):
            assert_run_results_identical(
                runner.run_transient(job.fault, budget), outcome.result
            )

    def test_early_stopped_leader_records_no_golden_result(self):
        """A ladder-less pack whose every replica demotes stops its leader
        mid-run; the golden result is not taken from there, so the next
        pack's golden-resolved replicas still get the real golden."""
        program = build_program("rspeed")
        backend = _prepared_backend(program)
        golden = backend.run(max_instructions=MAX_INSTRUCTIONS)
        budget = watchdog_budget(golden.instructions)
        pack_runner = make_pack_runner(backend, MAX_INSTRUCTIONS, 2)
        demoting = PermanentFault(
            FaultSite("regfile", 8, "arch.regfile", index=25),
            FaultModel.STUCK_AT_1,
        )
        first = pack_runner.run_pack(
            [backend._to_architectural(demoting)], budget
        )
        assert first[0].resolution == "demoted"
        assert pack_runner._executed < golden.instructions
        absorbed = PermanentFault(
            FaultSite("regfile", 20, "arch.regfile", index=9),
            FaultModel.OPEN_LINE,
        )
        (then,) = pack_runner.run_pack(
            [backend._to_architectural(absorbed)], budget
        )
        assert_run_results_identical(
            backend.run(max_instructions=budget, faults=[absorbed]),
            then.result,
        )

    def test_propagation_budget_demotes_exactly(self):
        """A replica whose delta feeds nearly every instruction demotes once
        it exhausts :data:`PROPAGATION_BUDGET` — and demotion is exact: the
        result still matches the from-reset run bit for bit."""
        assert PROPAGATION_BUDGET > 0
        # 64 loop iterations, each reading the corrupted accumulator once:
        # the replica is touched well past the budget with no branch or
        # memory divergence, so only the cost valve can demote it.
        program = assemble_workload(
            "accloop",
            "\n".join(
                [
                    "        .text",
                    "start:",
                    "        set     buf, %l0",
                    "        or      %g0, 64, %l1",
                    "        or      %g0, 1, %l2",
                    "        or      %g0, 0, %l4",
                    "loop:",
                    "        add     %l2, %l4, %l4",
                    "        subcc   %l1, 1, %l1",
                    "        bne     loop",
                    "        nop",
                    "        st      %l4, [%l0]",
                    "        ta      0",
                ]
            ),
            "buf:\n        .word   0",
        )
        backend = _prepared_backend(program)
        golden = backend.run(max_instructions=MAX_INSTRUCTIONS)
        assert golden.normal_exit
        budget = watchdog_budget(golden.instructions)
        pack_runner = backend.checkpoint_runner(MAX_INSTRUCTIONS).pack_runner(2)
        # Flip a bit of %l2 (cell 18) just before the loop: the delta feeds
        # every iteration's accumulate and survives to the final store.
        fault = TransientFault(
            FaultSite("regfile", 4, "arch.regfile", index=18),
            start_cycle=6, duration=1,
        )
        (outcome,) = pack_runner.run_pack(
            [backend._to_architectural(fault)], budget
        )
        assert outcome.resolution == "demoted"
        assert pack_runner.demotions == 1
        assert_run_results_identical(
            backend.run(max_instructions=budget, faults=[fault]), outcome.result
        )


class TestCampaignTransparency:
    """serial == process == lockstep, at the campaign level."""

    BASE = {
        "unit_scope": "arch.regfile",
        "sample_size": 4,
        "seed": 3,
        "transient_windows": 2,
    }

    @staticmethod
    def _outcomes(results):
        return {
            model: [(o.fault, o.failure_class) for o in result.outcomes]
            for model, result in results.items()
        }

    def test_transient_campaign_scalar_vs_lockstep_vs_process(self):
        program = build_program("intbench")
        scalar = CampaignEngine(
            program, CampaignConfig(**self.BASE), backend_factory=IssBackend
        ).run()
        packed = CampaignEngine(
            program,
            CampaignConfig(**self.BASE, lockstep_width=4),
            backend_factory=IssBackend,
        ).run()
        process = CampaignEngine(
            program,
            CampaignConfig(
                **self.BASE, lockstep_width=4, n_workers=2, scheduler="process"
            ),
            backend_factory=IssBackend,
        ).run()
        assert self._outcomes(scalar) == self._outcomes(packed)
        assert self._outcomes(scalar) == self._outcomes(process)

    def test_permanent_campaign_scalar_vs_lockstep(self):
        program = build_program("rspeed")
        base = {"unit_scope": "arch.regfile", "sample_size": 3, "seed": 7}
        scalar = CampaignEngine(
            program, CampaignConfig(**base), backend_factory=IssBackend
        ).run()
        packed = CampaignEngine(
            program,
            CampaignConfig(**base, lockstep_width=3),
            backend_factory=IssBackend,
        ).run()
        process = CampaignEngine(
            program,
            CampaignConfig(
                **base, lockstep_width=3, n_workers=2, scheduler="process"
            ),
            backend_factory=IssBackend,
        ).run()
        assert self._outcomes(scalar) == self._outcomes(packed)
        assert self._outcomes(scalar) == self._outcomes(process)

    def test_lockstep_width_validation(self):
        with pytest.raises(ValueError, match="lockstep_width"):
            CampaignConfig(lockstep_width=0)

    def test_group_packs_respects_width_and_order(self):
        jobs = CampaignEngine(
            build_program("intbench"),
            CampaignConfig(**self.BASE),
            backend_factory=IssBackend,
        ).plan().jobs
        packs = group_packs(jobs, 3)
        assert [job for pack in packs for job in pack] == list(jobs)
        assert all(len(pack) <= 3 for pack in packs)


class TestStoreTransparency:
    def test_lockstep_width_is_not_part_of_the_key(self):
        """This is the exact key PR 2..5 stored rspeed/sample8/seed7
        campaigns under; a lockstep campaign must address the same record."""
        program = build_program("rspeed")
        pinned = "5acce84097c754ea00e3c4196e2da8a32df18b74f5e12fa660f98fb2d2d01e17"
        scalar = CampaignEngine(program, CampaignConfig(sample_size=8, seed=7))
        packed = CampaignEngine(
            program, CampaignConfig(sample_size=8, seed=7, lockstep_width=4)
        )
        assert scalar.store_key() == pinned
        assert packed.store_key() == pinned

    def test_lockstep_campaign_serves_and_populates_the_scalar_store(
        self, tmp_path
    ):
        """A lockstep campaign populates the store a scalar campaign reads
        (and vice versa): same key, pure cache hits both ways."""
        from repro.store import CampaignStore

        program = build_program("intbench")
        store_path = str(tmp_path / "campaigns.sqlite")
        base = {
            "unit_scope": "arch.regfile", "sample_size": 4, "seed": 3,
            "transient_windows": 2, "store_path": store_path,
        }
        packed = CampaignEngine(
            program,
            CampaignConfig(**base, lockstep_width=4),
            backend_factory=IssBackend,
        ).run()[FaultModel.TRANSIENT]
        scalar = CampaignEngine(
            program, CampaignConfig(**base), backend_factory=IssBackend
        ).run()[FaultModel.TRANSIENT]
        assert [(o.fault, o.failure_class) for o in packed.outcomes] == [
            (o.fault, o.failure_class) for o in scalar.outcomes
        ]
        with CampaignStore(store_path) as store:
            counters = store.counters()
            assert counters["campaign_hits"] == 1
            assert counters["jobs_executed"] == 8
            assert counters["jobs_cached"] == 8


class _Env:
    """One prepared workload shared by every Hypothesis example."""

    def __init__(self, name):
        self.program = build_program(name)
        self.backend = _prepared_backend(self.program)
        self.golden = self.backend.run(max_instructions=MAX_INSTRUCTIONS)
        self.budget = watchdog_budget(self.golden.instructions)
        self.runner = self.backend.checkpoint_runner(MAX_INSTRUCTIONS)
        self.pack_runner = self.runner.pack_runner(6)
        self.solo_runner = self.runner.pack_runner(1)


_ENVS = {}


def _env(name="canrdr"):
    if name not in _ENVS:
        _ENVS[name] = _Env(name)
    return _ENVS[name]


_FAULTS = st.builds(
    lambda cell, bit, frac: (cell, bit, frac),
    st.integers(min_value=0, max_value=31),
    st.integers(min_value=0, max_value=31),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


def _to_transient(env, spec):
    cell, bit, frac = spec
    start = min(int(frac * env.golden.instructions), env.golden.instructions - 1)
    return TransientFault(
        FaultSite("regfile", bit, "arch.regfile", index=cell),
        start_cycle=start,
        duration=1,
    )


class TestProperties:
    """Hypothesis: the pack is observationally equivalent to scalar runs."""

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(specs=st.lists(_FAULTS, min_size=2, max_size=6))
    def test_pack_of_n_equals_n_scalar_runs(self, specs):
        env = _env()
        faults = [_to_transient(env, spec) for spec in specs]
        outcomes = env.pack_runner.run_pack(
            [env.backend._to_architectural(fault) for fault in faults],
            env.budget,
        )
        for fault, outcome in zip(faults, outcomes):
            assert_run_results_identical(
                env.runner.run_transient(fault, env.budget), outcome.result
            )

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(spec=_FAULTS)
    def test_width_one_equals_scalar(self, spec):
        env = _env()
        fault = _to_transient(env, spec)
        (outcome,) = env.solo_runner.run_pack(
            [env.backend._to_architectural(fault)], env.budget
        )
        assert_run_results_identical(
            env.runner.run_transient(fault, env.budget), outcome.result
        )

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        bit=st.integers(min_value=0, max_value=31),
        frac=st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
    )
    def test_demote_then_rejoin_is_transparent(self, bit, frac):
        """Forcing divergence on an actively-read register (demotion, then a
        possible splice back onto the golden tail) never changes the
        result."""
        env = _env()
        fault = _to_transient(env, (8, bit, frac))
        outcomes = env.pack_runner.run_pack(
            [env.backend._to_architectural(fault)], env.budget
        )
        assert_run_results_identical(
            env.runner.run_transient(fault, env.budget), outcomes[0].result
        )


# ---------------------------------------------------------------------------
# Golden touch timelines: the block recorder against the stepped oracle.
# ---------------------------------------------------------------------------


def stepped_timelines(program, budget):
    """The golden touch timeline and write timeline, recorded one executed
    instruction at a time — the definition the block recorder must match.

    Steps the golden stream with the annul-skip / decode / execute ordering
    of the pack sweep's ``_step_pack`` and marks, per executed instruction,
    every touched slot, every accessed memory word (from the address
    registers before the op executes) and, in the write timeline, every
    written register slot and window move."""
    emulator = FastEmulator(memory=Memory())
    emulator.load_program(program)
    effects = _EffectsCache(emulator.registers)
    timeline = {}
    writes = {}
    scratch = []
    executed = 0
    while executed < budget:
        if emulator._annul_next:
            emulator._annul_next = False
            emulator.pc = emulator.npc
            emulator.npc += 4
            continue
        pc = emulator.pc
        op = emulator._decode_cache.get(pc)
        if op is None:
            try:
                op = emulator._fill(pc)
            except (MemoryError_, DecodeError):
                break
        _, _, _, memory, touches, written = effects.get(
            op, emulator.registers.cwp
        )
        for key in touches:
            timeline.setdefault(key, []).append(executed)
        for key in written:
            writes.setdefault(key, []).append(executed)
        if memory is not None:
            read = emulator.registers.read
            address = (
                read(op.rs1) + (op.imm_u32 if op.use_imm else read(op.rs2))
            ) & 0xFFFFFFFF
            if memory[3]:
                word_keys = (_MEM_KEY_BASE + address,
                             _MEM_KEY_BASE + address + 4)
            else:
                word_keys = (_MEM_KEY_BASE + (address & ~3),)
            for key in word_keys:
                timeline.setdefault(key, []).append(executed)
        executed += 1
        try:
            outcome = op.handler(emulator, op, pc, scratch)
        except (RegisterWindowError, MemoryError_, ZeroDivisionError,
                SimulationError):
            break
        if outcome is None:
            emulator.pc = emulator.npc
            emulator.npc += 4
        elif type(outcome) is tuple:
            emulator.pc = emulator.npc
            emulator.npc = outcome[0]
            emulator._annul_next = outcome[1]
        else:
            break  # the exit trap
    return timeline, writes


def ladder_timelines(program, budget):
    """Timelines recorded by the checkpoint ladder's golden pass."""
    runner = make_checkpoint_runner(
        _prepared_backend(program), budget, record_touches=True
    )
    runner.golden()
    return runner.touch_timelines


def own_pass_timelines(program, budget):
    """Timelines a pack runner built without any records for itself."""
    pack_runner = LockstepPackRunner(_prepared_backend(program), budget, 2)
    pack_runner._ensure_timeline()
    return pack_runner._timeline, pack_runner._write_timeline


def watched_run_timelines(program, budget):
    """Timelines recorded beside the inert screen's register watch, as a
    permanent campaign's golden records them."""
    backend = _prepared_backend(program)
    backend.run(budget, watch=backend.sites.sample(6, seed=1),
                record_touches=True)
    return backend.touch_timelines


RECORDERS = {
    "ladder": ladder_timelines,
    "own_pass": own_pass_timelines,
    "watched": watched_run_timelines,
}


def assert_timelines_match(program, budget=MAX_INSTRUCTIONS, paths=RECORDERS):
    expected_touches, expected_writes = stepped_timelines(program, budget)
    assert expected_touches and expected_writes
    for path in paths:
        touches, writes = RECORDERS[path](program, budget)
        assert touches.expanded() == expected_touches, path
        assert writes.expanded() == expected_writes, path
        # Lazily expanded keys read the same lists, and unmarked keys none.
        for key, indices in expected_touches.items():
            assert touches[key] == indices, (path, key)
        assert touches[_MEM_KEY_BASE - 1] == []


TIMELINE_SIZES = {
    "x2": {"iterations": 2},
    "x8": {"iterations": 8},
    "full": {"full_size": True},
}


@pytest.mark.parametrize("size", sorted(TIMELINE_SIZES))
@pytest.mark.parametrize("workload", REGISTRY)
def test_block_timelines_equal_the_stepped_oracle(workload, size):
    """The block recorder's timelines equal the stepped oracle's on every
    registry workload, from the ladder's golden pass, a pack runner's own
    pass and a watched permanent golden."""
    program = build_program(workload, **TIMELINE_SIZES[size])
    assert_timelines_match(program)


SELF_MODIFYING_SOURCE = """
        .text
        set     patch, %l1
        set     out, %l2
        set     0x9210200c, %o4          ! encoding of: or %g0, 12, %o1
        mov     0, %o1
        mov     0, %o5
loop:
        st      %o4, [%l1]               ! rewrites the next instruction
patch:
        mov     1, %o0
        add     %o0, %o1, %o2
        st      %o2, [%l2]
        cmp     %o5, 0
        bne     done
        nop
        inc     %o5
        ba      loop
        nop
done:
        mov     %o2, %o0
        ta      0
        .data
out:
        .space  8
"""

WINDOW_OVERFLOW_SOURCE = """
        .text
        set     buf, %g2
        mov     0, %o0
        mov     6, %o1
descend:
        save    %sp, -96, %sp
        st      %i0, [%g2 + 4]
        add     %i0, 1, %o0
        subcc   %i1, 1, %o1
        bne     descend
        nop
        mov     6, %g3
ascend:
        restore %o0, 2, %o0
        st      %o0, [%g2]
        subcc   %g3, 1, %g3
        bne     ascend
        nop
        save    %sp, -96, %sp
        st      %g3, [%g2 + 8]
        save    %sp, -96, %sp
        save    %sp, -96, %sp
        save    %sp, -96, %sp
        save    %sp, -96, %sp
        save    %sp, -96, %sp
        save    %sp, -96, %sp
        save    %sp, -96, %sp
        mov     1, %o0                   ! never runs: the save above traps
        ta      0
        .data
buf:
        .space  16
"""

DOUBLE_WORD_SOURCE = """
        .text
        set     buf, %o0
        mov     4, %o5
loop:
        add     %o0, 8, %o1
        ldd     [%o1], %o2
        add     %o2, %o3, %o4
        add     %o1, 8, %o1
        std     %o2, [%o1]
        ld      [%o0], %o0
        add     %o0, 0, %o0
        set     buf, %o0
        add     %o0, 4, %g4
        ld      [%g4], %g5
        st      %g5, [%g4 + 8]
        subcc   %o5, 1, %o5
        bne     loop
        nop
        mov     0, %o0
        ta      0
        .data
        .align  8
buf:
        .word   1, 2, 3, 4, 5, 6, 7, 8
"""

ALIGNED_ROUTINE_SOURCE = """
        .text
        set     buf, %l0
        mov     3, %l1
loop:
        call    routine
        mov     %l1, %o0
        subcc   %l1, 1, %l1
        bne     loop
        nop
        ta      0
        .align  32
routine:
        st      %o0, [%l0]
        ld      [%l0], %o1
        retl
        add     %o1, 1, %o0
        .data
buf:
        .space  8
"""


class TestTimelineCorners:
    """Programs that stress the block recorder's exactness rules."""

    @pytest.mark.parametrize("source", [
        SELF_MODIFYING_SOURCE, WINDOW_OVERFLOW_SOURCE, DOUBLE_WORD_SOURCE,
        ALIGNED_ROUTINE_SOURCE,
    ], ids=["self_modifying", "window_overflow", "ldd_std", "aligned"])
    def test_corner_programs(self, source):
        assert_timelines_match(assemble(source, name="corner"), budget=5_000)

    @pytest.mark.parametrize("source", [
        SELF_MODIFYING_SOURCE, WINDOW_OVERFLOW_SOURCE,
    ], ids=["code_page_store", "window_trap"])
    def test_corner_programs_leave_a_block_early(self, source):
        """The self-modifying store and the window-overflow trap each end a
        block before its last instruction, so the corner tests above cover
        a block's early exit."""
        emulator = FastEmulator(memory=Memory())
        emulator.load_program(assemble(source))
        recorder = TouchRecorder(emulator.registers)
        emulator.observe(recorder)
        emulator.run(5_000)
        assert any(
            ran < block.length
            for block, plan in recorder._block_plans.items()
            if plan is not None for ran in plan.runs
        )

    def test_corner_program_results(self):
        """The self-modifying program runs its patched instruction; the
        window program's golden traps."""
        backend = _prepared_backend(assemble(SELF_MODIFYING_SOURCE))
        assert backend.run(5_000).exit_code == 12
        backend = _prepared_backend(assemble(WINDOW_OVERFLOW_SOURCE))
        assert backend.run(5_000).trap_kind == "window"

    @pytest.mark.parametrize("budget", [1, 7, 37, 501, 2_049])
    def test_budget_ending_mid_block(self, budget):
        assert_timelines_match(build_program("rspeed"), budget=budget)

    def test_address_written_in_block_steps_that_block(self):
        """A block whose load address register is written both before and
        after the load gets no plan (so the run steps it), one whose address
        registers are written only before reads them at block exit; the
        timelines still match."""
        program = assemble(DOUBLE_WORD_SOURCE)
        emulator = FastEmulator(memory=Memory())
        emulator.load_program(program)
        recorder = TouchRecorder(emulator.registers)
        emulator.observe(recorder)
        emulator.run(5_000)
        plans = list(recorder._block_plans.values())
        assert None in plans
        assert any(plan is not None and plan.at_exit for plan in plans)


class TestTimelineSources:
    """Every pack runner counts where its timeline came from."""

    @staticmethod
    def _sources(config, workload="intbench"):
        try:
            CampaignEngine(
                build_program(workload), CampaignConfig(**config),
                backend_factory=IssBackend,
            ).run()
            counters = TELEMETRY.snapshot()["counters"]
        finally:
            TELEMETRY.reset()
            TELEMETRY.disable()
        return {
            series: value for series, value in counters.items()
            if series.startswith("lockstep.timeline")
        }

    def test_transient_and_permanent_campaigns_ride_the_golden(self):
        base = {"unit_scope": "arch.regfile", "sample_size": 3, "seed": 3}
        for config in ({**base, "transient_windows": 2, "lockstep_width": 4},
                       {**base, "lockstep_width": 4}):
            assert self._sources(config) == {
                "lockstep.timeline{source=golden}": 1
            }

    def test_pool_workers_record_with_their_golden(self):
        config = {"unit_scope": "arch.regfile", "sample_size": 3, "seed": 3,
                  "transient_windows": 2, "lockstep_width": 4,
                  "n_workers": 2, "scheduler": "process"}
        sources = self._sources(config)
        assert set(sources) == {"lockstep.timeline{source=golden}"}

    def test_scalar_campaign_records_nothing(self):
        config = {"unit_scope": "arch.regfile", "sample_size": 3, "seed": 3,
                  "transient_windows": 2}
        assert self._sources(config) == {}

    def test_directly_built_runner_records_its_own(self):
        TELEMETRY.enable()
        TELEMETRY.reset()
        try:
            program = build_program("intbench")
            backend = _prepared_backend(program)
            runner = backend.checkpoint_runner(MAX_INSTRUCTIONS)
            pack_runner = runner.pack_runner(2)
            pack_runner._ensure_timeline()
            pack_runner._ensure_timeline()
            counters = TELEMETRY.snapshot()["counters"]
        finally:
            TELEMETRY.reset()
            TELEMETRY.disable()
        assert counters["lockstep.timeline{source=own_pass}"] == 1
        assert "lockstep.timeline{source=golden}" not in counters
