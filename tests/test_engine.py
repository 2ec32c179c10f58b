"""Tests for the execution-backend / campaign-engine layer."""

import pytest

from conftest import SMALL_PROGRAM_SOURCE

from repro.engine import (
    CampaignConfig,
    CampaignEngine,
    InjectionJob,
    IssBackend,
    Leon3RtlBackend,
    MultiprocessingScheduler,
    SerialScheduler,
    make_scheduler,
    plan_jobs,
    watchdog_budget,
)
from repro.engine.schedulers import chunk_jobs
from repro.faultinjection.comparison import FailureClass, compare_runs
from repro.isa.assembler import assemble
from repro.rtl.faults import ALL_FAULT_MODELS, FaultModel, PermanentFault

#: A program whose loop counter goes through the ALU adder: stuck-at-0 on the
#: adder's sum bit 0 turns `inc` into a no-op and the loop never terminates,
#: which is the deterministic hang used by the watchdog tests.
LOOP_PROGRAM_SOURCE = """
        .text
start:
        set     result, %l1
        mov     0, %l2
loop:
        inc     %l2
        cmp     %l2, 4
        bl      loop
        nop
        st      %l2, [%l1]
        ta      0

        .data
result:
        .space  4
"""


@pytest.fixture(scope="module")
def small_program():
    return assemble(SMALL_PROGRAM_SOURCE, name="small")


@pytest.fixture(scope="module")
def loop_program():
    return assemble(LOOP_PROGRAM_SOURCE, name="loop")


class TestBackends:
    def test_rtl_and_iss_golden_runs_agree_off_core(self, small_program):
        results = {}
        for factory in (Leon3RtlBackend, IssBackend):
            backend = factory()
            backend.prepare(small_program)
            results[backend.name] = backend.run(max_instructions=100_000)
        rtl, iss = results["rtl"], results["iss"]
        assert rtl.normal_exit and iss.normal_exit
        assert len(rtl.transactions) == len(iss.transactions)
        assert all(
            a.matches(b) for a, b in zip(rtl.transactions, iss.transactions)
        )

    def test_run_before_prepare_raises(self, small_program):
        with pytest.raises(RuntimeError):
            Leon3RtlBackend().run(max_instructions=10)
        with pytest.raises(RuntimeError):
            IssBackend().run(max_instructions=10)

    def test_rtl_backend_resets_between_runs(self, small_program):
        backend = Leon3RtlBackend()
        backend.prepare(small_program)
        golden = backend.run(max_instructions=100_000)
        site = backend.core.netlist.site_for("alu.adder.sum", 0)
        backend.run(
            max_instructions=100_000,
            faults=[PermanentFault(site, FaultModel.STUCK_AT_1)],
        )
        clean = backend.run(max_instructions=100_000)
        assert clean.normal_exit
        assert len(clean.transactions) == len(golden.transactions)
        assert all(
            a.matches(b) for a, b in zip(golden.transactions, clean.transactions)
        )

    def test_iss_backend_exposes_architectural_sites(self, small_program):
        backend = IssBackend()
        assert backend.sites.count(["arch.regfile"]) == 32 * 32

    def test_iss_backend_injects_register_fault(self, small_program):
        backend = IssBackend()
        backend.prepare(small_program)
        golden = backend.run(max_instructions=100_000)
        # %l0 (r16) holds the input pointer; sticking a high address bit
        # guarantees a divergence.
        site = next(
            s
            for s in backend.sites.iter_sites(["arch.regfile"])
            if s.index == 16 and s.bit == 20
        )
        faulty = backend.run(
            max_instructions=watchdog_budget(golden.instructions),
            faults=[PermanentFault(site, FaultModel.STUCK_AT_1)],
        )
        assert compare_runs(golden, faulty).is_failure

    def test_iss_backend_rejects_rtl_sites(self, small_program):
        backend = IssBackend()
        backend.prepare(small_program)
        rtl = Leon3RtlBackend()
        rtl.prepare(small_program)
        site = rtl.core.netlist.site_for("alu.adder.sum", 0)
        with pytest.raises(ValueError):
            backend.run(
                max_instructions=100,
                faults=[PermanentFault(site, FaultModel.STUCK_AT_1)],
            )


class TestPlanning:
    def test_jobs_enumerate_models_over_shared_sites(self, small_program):
        engine = CampaignEngine(
            small_program,
            CampaignConfig(unit_scope="iu", sample_size=5, seed=1),
        )
        plan = engine.plan()
        assert plan.total_jobs == 5 * len(ALL_FAULT_MODELS)
        assert [job.index for job in plan.jobs] == list(range(plan.total_jobs))
        for model in ALL_FAULT_MODELS:
            model_sites = [j.site for j in plan.jobs if j.fault_model is model]
            assert model_sites == plan.sites

    def test_plan_reuses_one_golden_run(self, small_program):
        engine = CampaignEngine(
            small_program, CampaignConfig(unit_scope="iu", sample_size=3)
        )
        first = engine.plan()
        second = engine.plan()
        assert first.golden is second.golden

    def test_chunk_jobs_covers_all_jobs_in_order(self):
        jobs = plan_jobs(
            sites=[],
            fault_models=[],
            workload="w",
        )
        assert chunk_jobs(jobs, n_workers=4) == []
        jobs = [
            InjectionJob(index=i, site=None, fault_model=FaultModel.STUCK_AT_1,
                         workload="w")
            for i in range(10)
        ]
        batches = chunk_jobs(jobs, n_workers=3, chunk_size=4)
        assert [len(batch) for batch in batches] == [4, 4, 2]
        assert [job.index for batch in batches for job in batch] == list(range(10))

    def test_make_scheduler_auto_selects(self):
        assert isinstance(make_scheduler(None, 1), SerialScheduler)
        assert isinstance(make_scheduler(None, 4), MultiprocessingScheduler)
        assert isinstance(make_scheduler("serial", 4), SerialScheduler)
        with pytest.raises(ValueError):
            make_scheduler("threads", 2)


class TestSchedulers:
    def _config(self, **overrides):
        defaults = {
            "unit_scope": "iu",
            "sample_size": 6,
            "fault_models": [FaultModel.STUCK_AT_1, FaultModel.STUCK_AT_0],
            "seed": 11,
        }
        defaults.update(overrides)
        return CampaignConfig(**defaults)

    def test_serial_and_multiprocessing_results_identical(self, small_program):
        serial = CampaignEngine(small_program, self._config(n_workers=1)).run()
        parallel = CampaignEngine(
            small_program, self._config(n_workers=2, chunk_size=3)
        ).run()
        assert serial.keys() == parallel.keys()
        for model in serial:
            s, p = serial[model], parallel[model]
            assert s.outcomes == p.outcomes  # same faults, classes, cycles, order
            assert s.failure_probability == p.failure_probability
            assert s.classification_histogram() == p.classification_histogram()
            assert s.golden_instructions == p.golden_instructions

    def test_progress_callback_streams_every_job(self, small_program):
        seen = []
        engine = CampaignEngine(small_program, self._config())
        engine.run(progress=lambda done, total, outcome: seen.append((done, total)))
        total = 6 * 2
        assert seen == [(i, total) for i in range(1, total + 1)]

    def test_config_n_workers_runs_on_a_pool(self, small_program):
        config = self._config(n_workers=2, chunk_size=4)
        results = CampaignEngine(small_program, config).run()
        result = results[FaultModel.STUCK_AT_1]
        assert result.injections == 6
        assert result.simulation_seconds > 0


class TestWatchdog:
    def test_injected_infinite_loop_trips_watchdog(self, loop_program):
        engine = CampaignEngine(loop_program, CampaignConfig(unit_scope="iu"))
        golden = engine.golden_run()
        assert golden.normal_exit
        backend = engine.backend
        budget = watchdog_budget(golden.instructions)
        # Stuck-at-0 on the adder sum LSB makes `inc %l2` a no-op: the loop
        # counter never advances and the program spins forever.
        site = backend.core.netlist.site_for("alu.adder.sum", 0)
        faulty = backend.run(
            max_instructions=budget,
            faults=[PermanentFault(site, FaultModel.STUCK_AT_0)],
        )
        assert not faulty.halted
        assert faulty.instructions == budget
        assert compare_runs(golden, faulty).failure_class is FailureClass.HANG

    def test_iss_budget_exhaustion_normalised_to_hang(self, loop_program):
        backend = IssBackend()
        backend.prepare(loop_program)
        golden = backend.run(max_instructions=100_000)
        assert golden.normal_exit
        # An artificially tiny budget stands in for an injected infinite
        # loop; the emulator's "watchdog" trap must surface as a HANG, the
        # same class the RTL backend produces.
        starved = backend.run(max_instructions=5)
        assert not starved.halted
        assert starved.trap_kind is None
        assert compare_runs(golden, starved).failure_class is FailureClass.HANG

    def test_hang_classified_through_engine_campaign(self, loop_program):
        engine = CampaignEngine(loop_program, CampaignConfig(unit_scope="iu"))
        site = engine.backend.core.netlist.site_for("alu.adder.sum", 0)
        result = engine.run_model(FaultModel.STUCK_AT_0, sites=[site])
        assert result.injections == 1
        assert result.classification_histogram() == {FailureClass.HANG: 1}
        budget = watchdog_budget(engine.golden_run().instructions)
        assert result.outcomes[0].faulty_instructions == budget


class TestPoisonedJob:
    """A SimulationError raised inside the emulator must surface as a
    classified TRAP outcome, not escape ``Emulator.run()`` and abort the
    campaign (in a multiprocessing campaign it would kill the worker chunk).
    """

    #: Golden control flow never reaches the poisoned opcode; a stuck-at-1 on
    #: %o0 diverts the faulty run onto it.
    POISONED_SOURCE = """
        .text
        set     flag, %l0
        ld      [%l0], %o0
        cmp     %o0, 0
        be      done
        nop
        xnor    %o0, %o0, %o1          ! poisoned: only the faulty run gets here
done:
        mov     0, %o0
        ta      0
        .data
flag:
        .word   0
"""

    def _poisoned_campaign(self, backend_factory):
        from repro.engine.backend import ARCH_REGFILE_UNIT
        from repro.rtl.sites import FaultSite

        program = assemble(self.POISONED_SOURCE, name="poisoned")
        config = CampaignConfig(
            unit_scope=ARCH_REGFILE_UNIT, sample_size=1, max_instructions=10_000
        )
        engine = CampaignEngine(program, config, backend_factory=backend_factory)
        site = FaultSite(net="regfile", bit=0, unit=ARCH_REGFILE_UNIT, index=8)
        return engine.run(fault_models=[FaultModel.STUCK_AT_1], sites=[site])

    def test_reference_interpreter_poisoned_job_yields_trap(self, monkeypatch):
        from repro.iss.emulator import Emulator, SimulationError

        original = Emulator._execute_alu

        def poisoned(self, instruction):
            if instruction.defn.mnemonic == "xnor":
                raise SimulationError("no ALU semantics for xnor")
            return original(self, instruction)

        monkeypatch.setattr(Emulator, "_execute_alu", poisoned)
        results = self._poisoned_campaign(lambda: IssBackend(fast=False))
        outcomes = results[FaultModel.STUCK_AT_1].outcomes
        assert len(outcomes) == 1
        assert outcomes[0].failure_class is FailureClass.TRAP
        assert outcomes[0].is_failure

    def test_fast_interpreter_poisoned_job_yields_trap(self, monkeypatch):
        import repro.iss.fastpath as fastpath

        monkeypatch.setitem(
            fastpath._HANDLER_TABLE, "xnor", fastpath._h_unimplemented
        )
        results = self._poisoned_campaign(IssBackend)
        outcomes = results[FaultModel.STUCK_AT_1].outcomes
        assert len(outcomes) == 1
        assert outcomes[0].failure_class is FailureClass.TRAP
        assert outcomes[0].is_failure
