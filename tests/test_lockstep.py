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

from repro.engine.backend import IssBackend, Leon3RtlBackend, watchdog_budget
from repro.engine.campaign import CampaignConfig, CampaignEngine
from repro.engine.checkpoint import assert_run_results_identical
from repro.engine.lockstep import PROPAGATION_BUDGET, make_pack_runner
from repro.engine.schedulers import group_packs
from repro.iss.fastpath import FastEmulator
from repro.iss.memory import Memory
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
        assert self._outcomes(scalar) == self._outcomes(packed)

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
