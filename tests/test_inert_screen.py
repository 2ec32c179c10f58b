"""The inert screen: storage-cell faults resolved from a watched golden run.

A permanent fault on a storage cell acts only on reads of that cell.  When
none of the golden run's reads of the cell would change under the fault,
the faulty run *is* the golden run, and the campaign engine classifies the
job without simulating it.  These tests pin the three-integer decision rule
against the fault semantics it summarises, the screened runs against
from-reset reference-core runs across the workload registry, and the
outcome streams against every execution strategy and the unscreened
reference engine.
"""

import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    CampaignConfig,
    CampaignEngine,
    IssBackend,
    Leon3RtlBackend,
    run_sharded_campaign,
)
from repro.engine.backend import (
    ARCH_REGFILE_NET,
    ARCH_REGFILE_UNIT,
    watchdog_budget,
)
from repro.core.experiments import figure5_iu_faults, figure6_cmem_faults
from repro.iss.emulator import Emulator
from repro.iss.memory import Memory
from repro.leon3.core import Leon3Core
from repro.leon3.fastcore import Leon3FastCore, assert_rtl_results_identical
from repro.leon3.units import CMEM_SCOPE
from repro.obs.telemetry import TELEMETRY
from repro.rtl.faults import ALL_FAULT_MODELS, CellReads, PermanentFault
from repro.rtl.sites import FaultSite, SiteUniverse
from repro.store import CampaignStore
from repro.store.cli import main as cli_main
from repro.workloads.registry import all_workloads, build_program

ARRAYS = (
    "rf.cells",
    "icache.tags", "icache.data", "icache.valid",
    "dcache.tags", "dcache.data", "dcache.valid",
)
#: A permanent campaign whose sample mixes screened cells, simulated cells
#: and IU nets (which are never screened).
CAMPAIGN = {"unit_scope": "iu", "sample_size": 8, "seed": 3,
            "fault_models": list(ALL_FAULT_MODELS)}
#: Workloads of the shared-store Fig 5 / Fig 6 test.
FIG_WORKLOADS = ("intbench", "rspeed")


@st.composite
def _read_streams(draw):
    width = draw(st.sampled_from([1, 22, 32]))
    values = st.integers(min_value=0, max_value=(1 << width) - 1)
    stream = draw(st.lists(st.tuples(values, values), max_size=12))
    return width, draw(st.integers(min_value=0, max_value=width - 1)), stream


@settings(max_examples=300, deadline=None)
@given(_read_streams())
def test_inert_on_iff_apply_changes_no_read(drawn):
    """``inert_on(summary)`` holds exactly when ``apply`` returns the read
    value on every read of the stream (value, array's previous read)."""
    width, bit, stream = drawn
    mask = (1 << width) - 1
    reads = CellReads.unread(width)
    for value, previous in stream:
        reads.record(value, previous)
    site = FaultSite(net="rf.cells", bit=bit, unit="iu.regfile", index=0)
    for model in ALL_FAULT_MODELS:
        fault = PermanentFault(site=site, model=model)
        unchanged = all(
            fault.apply(value, previous) & mask == value
            for value, previous in stream
        )
        assert fault.inert_on(reads) == unchanged


def _array_sites(core, rng):
    """Three random cells (one random bit each) of every storage array."""
    sites = []
    for name in ARRAYS:
        array = core.netlist.array(name)
        for index in rng.sample(range(array.cells), 3):
            sites.append(FaultSite(
                net=name, bit=rng.randrange(array.width), unit=array.unit,
                index=index,
            ))
    return sites


def _reference_reads(reference, cells):
    """Run the reference core fault-free, folding the reads of *cells* that
    its storage arrays (the fault semantics' spec) perform."""
    expected = {
        (net, index): CellReads.unread(reference.netlist.array(net).width)
        for net, index in cells
    }
    arrays = [reference.netlist.array(net) for net in {net for net, _ in cells}]
    for array in arrays:
        def read(index, array=array, spec=array.read):
            previous = array._last_read
            value = spec(index)
            reads = expected.get((array.name, index))
            if reads is not None:
                reads.record(value, previous)
            return value

        array.read = read
    try:
        reference.reload()
        reference.run(max_instructions=400_000)
    finally:
        for array in arrays:
            del array.read
    return expected


@pytest.mark.parametrize("name", sorted(all_workloads()))
def test_screened_faults_reproduce_the_golden_on_the_reference_core(name):
    """The fast core's watch folds exactly the reads the reference storage
    arrays perform, on three cells of every array kind.  And for screened
    (cell, model) pairs, a from-reset reference-core run under the fault
    equals the watched golden on every observable, final architectural
    state included.  One pair per model is run per workload, rotating over
    the arrays across the registry."""
    program = build_program(name)
    rng = random.Random(name)
    fast = Leon3FastCore()
    fast.load_program(program)
    sites = _array_sites(fast, rng)
    summary = fast.watch(sites)
    golden = fast.run(max_instructions=400_000)
    assert golden.normal_exit
    reference = Leon3Core()
    reference.load_program(program)
    assert summary == _reference_reads(reference, summary)
    screened = [
        PermanentFault(site=site, model=model)
        for site in sites for model in ALL_FAULT_MODELS
        if PermanentFault(site=site, model=model).inert_on(
            summary[(site.net, site.index)]
        )
    ]
    # The screen is a real filter: some faults on watched cells do act.
    assert len(screened) < len(sites) * len(ALL_FAULT_MODELS)
    offset = sorted(all_workloads()).index(name)
    for turn, model in enumerate(ALL_FAULT_MODELS):
        preferred = ARRAYS[(offset + turn) % len(ARRAYS)]
        candidates = [fault for fault in screened if fault.model is model]
        if not candidates:
            continue
        in_array = [f for f in candidates if f.site.net == preferred]
        fault = rng.choice(in_array or candidates)
        reference.clear_faults()
        reference.reload()
        reference.inject([fault])
        faulty = reference.run(max_instructions=400_000)
        assert faulty.faults == [fault]
        assert_rtl_results_identical(
            reference, replace(faulty, faults=[]), fast, golden
        )


class TestWatch:
    def _core(self):
        core = Leon3FastCore()
        core.load_program(build_program("excerpt_rspeed"))
        return core

    def test_refuses_while_faults_are_active(self):
        core = self._core()
        site = FaultSite(net="rf.cells", bit=0, unit="iu.regfile", index=9)
        core.inject([PermanentFault(site=site, model=ALL_FAULT_MODELS[0])])
        with pytest.raises(RuntimeError):
            core.watch([site])
        core.clear_faults()
        assert core.watch([site])

    def test_clear_faults_unbinds_the_watch(self):
        core = self._core()
        site = FaultSite(net="rf.cells", bit=0, unit="iu.regfile", index=9)
        core.watch([site])
        with pytest.raises(RuntimeError):
            core.inject([PermanentFault(site=site, model=ALL_FAULT_MODELS[0])])
        core.clear_faults()
        core.inject([PermanentFault(site=site, model=ALL_FAULT_MODELS[0])])

    def test_nets_and_the_reference_core_are_not_watched(self):
        net = FaultSite(net="alu.adder.sum", bit=0, unit="iu.alu.adder")
        cell = FaultSite(net="rf.cells", bit=0, unit="iu.regfile", index=9)
        assert self._core().watch([net]) == {}
        reference = Leon3RtlBackend(fast=False)
        reference.prepare(build_program("excerpt_rspeed"))
        reference.run(10_000, watch=[cell])
        assert reference.cell_reads is None


def _outcomes(**overrides):
    engine = CampaignEngine(
        build_program("intbench"), CampaignConfig(**{**CAMPAIGN, **overrides})
    )
    results = engine.run()
    counters = TELEMETRY.snapshot()["counters"]
    outcomes = [o for model in results for o in results[model].outcomes]
    return engine, outcomes, counters


def test_outcomes_identical_across_schedulers_shards_and_reference(
    tmp_path, monkeypatch
):
    """Serial, 2-process and 3-shard runs screen the same jobs and give the
    reference engine's (unscreened) outcomes; unscreened jobs simulate."""
    faulted_runs = []
    run = Leon3RtlBackend.run

    def counting_run(self, max_instructions, faults=(), **kwargs):
        faulted_runs.extend(faults)
        return run(self, max_instructions, faults, **kwargs)

    monkeypatch.setattr(Leon3RtlBackend, "run", counting_run)
    serial_engine, serial, serial_counters = _outcomes()
    monkeypatch.undo()
    screened = serial_counters["engine.jobs_screened"]
    dispatched = serial_counters["campaign.jobs_executed"]
    assert 0 < screened < dispatched == len(serial)
    assert len(faulted_runs) == dispatched - screened
    assert serial_engine._screen
    _, process, process_counters = _outcomes(
        n_workers=2, scheduler="process", chunk_size=3
    )
    assert process == serial
    assert process_counters["engine.jobs_screened"] == screened
    reference_engine, reference, reference_counters = _outcomes(
        rtl_fast=False
    )
    assert reference == serial
    assert reference_engine._screen is None
    assert "engine.jobs_screened" not in reference_counters
    store_path = str(tmp_path / "sharded.sqlite")
    run_sharded_campaign(
        build_program("intbench"), CampaignConfig(**CAMPAIGN), shards=3,
        store_path=store_path,
    )
    with CampaignStore(store_path) as store:
        (info,) = store.list_campaigns()
        sharded = [r.to_outcome() for r in store.stored_records(info.key)]
    # Stored records come back in job order, models outermost like results.
    assert sharded == serial


def test_sample_is_drawn_once_and_watched_cells_are_the_plans(monkeypatch):
    """The golden's watch list and the plan share one site draw."""
    samples = []
    watched = []
    sample = SiteUniverse.sample
    run = Leon3RtlBackend.run

    def counting_sample(self, *args, **kwargs):
        samples.append(args)
        return sample(self, *args, **kwargs)

    def recording_run(self, max_instructions, faults=(), **kwargs):
        watched.append(list(kwargs.get("watch", ())))
        return run(self, max_instructions, faults, **kwargs)

    monkeypatch.setattr(SiteUniverse, "sample", counting_sample)
    monkeypatch.setattr(Leon3RtlBackend, "run", recording_run)
    engine = CampaignEngine(build_program("intbench"), CampaignConfig(**CAMPAIGN))
    plan = engine.plan()
    assert engine.select_sites() == plan.sites
    assert engine.select_sites() is not engine.select_sites()
    assert len(samples) == 1
    storage = [site for site in plan.sites if site.index is not None]
    assert storage and len(storage) < len(plan.sites)
    assert watched == [storage]


def test_rerun_on_a_file_store_builds_the_same_screen(tmp_path):
    """A ``resume=False`` rerun on the store of a cold run executes its own
    watched golden, so it screens the same jobs with the same outcomes."""
    store_path = str(tmp_path / "campaigns.sqlite")
    first, cold, cold_counters = _outcomes(store_path=store_path)
    second, rerun, rerun_counters = _outcomes(
        store_path=store_path, resume=False
    )
    assert first._screen and second._screen
    screened = cold_counters["engine.jobs_screened"]
    assert screened > 0
    assert rerun_counters["engine.jobs_screened"] == screened
    assert rerun == cold


def _fig6_screening(store_path):
    """(jobs screened, outcomes) of the Fig 6 driver on *store_path*, with
    the screened count summed over its campaigns' run manifests."""
    results = figure6_cmem_faults(
        workloads=FIG_WORKLOADS, sample_size=4, n_workers=2,
        store_path=store_path,
    )
    with CampaignStore(store_path) as store:
        screened = sum(
            store.get_manifest(info.key)["metrics"]["counters"].get(
                "engine.jobs_screened", 0
            )
            for info in store.list_campaigns()
            if info.unit_scope == CMEM_SCOPE
        )
    outcomes = {
        workload: {model: result.outcomes for model, result in by_model.items()}
        for workload, by_model in results.items()
    }
    return screened, outcomes


def test_fig6_after_fig5_on_one_store_screens_like_fig6_alone(tmp_path):
    """Fig 5 first on the same file store changes nothing about Fig 6: each
    Fig 6 campaign still watches its own golden and screens its jobs."""
    alone = _fig6_screening(str(tmp_path / "alone.sqlite"))
    shared = str(tmp_path / "shared.sqlite")
    figure5_iu_faults(
        workloads=FIG_WORKLOADS, sample_size=4, n_workers=2, store_path=shared
    )
    after_fig5 = _fig6_screening(shared)
    assert alone[0] > 0
    assert after_fig5 == alone


# ---------------------------------------------------------------------------
# The ISS screen: register-file stuck-at faults
# ---------------------------------------------------------------------------

#: An ISS permanent campaign whose packs mix screened and simulated jobs.
ISS_CAMPAIGN = {"unit_scope": ARCH_REGFILE_UNIT, "sample_size": 12, "seed": 5,
                "fault_models": list(ALL_FAULT_MODELS), "lockstep_width": 24}
ISS_MODELS = ("stuck_at_0", "stuck_at_1", "bit_flip")


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=31),
    st.lists(st.integers(min_value=0, max_value=(1 << 32) - 1), min_size=1,
             max_size=12),
)
def test_iss_inert_on_iff_apply_is_the_identity_on_every_boundary(bit, values):
    """Summarised as the ISS watch summarises a register (every bit marked
    changed), a stream of boundary values screens a fault exactly when the
    architectural fault leaves each of those values unchanged."""
    reads = CellReads.unread(32)
    for value in values:
        reads.record(value, value)
    reads.changed = (1 << 32) - 1
    site = FaultSite(net=ARCH_REGFILE_NET, bit=bit, unit=ARCH_REGFILE_UNIT,
                     index=9)
    for model in ALL_FAULT_MODELS:
        fault = PermanentFault(site=site, model=model)
        arch = IssBackend._to_architectural(fault)
        assert arch.model in ISS_MODELS
        unchanged = all(arch.apply(value) == value for value in values)
        assert fault.inert_on(reads) == unchanged


class _BoundaryRecorder(Emulator):
    """The reference interpreter, folding every register's value at each
    boundary where an architectural fault is applied (``_execute``)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.seen = {register: CellReads.unread(32) for register in range(1, 32)}

    def _execute(self, instruction, pc, transactions):
        for register, reads in self.seen.items():
            value = self.registers.read(register)
            reads.ored |= value
            reads.anded &= value
        return super()._execute(instruction, pc, transactions)


@pytest.mark.parametrize("name", sorted(all_workloads()))
def test_iss_screen_is_exact_and_screened_jobs_are_the_golden(name):
    """The fast ISS watch folds exactly the reference interpreter's boundary
    values of every register, and screened jobs (one per stuck-at model per
    workload, rotating over the registers) run from reset on the reference
    interpreter to the golden result."""
    program = build_program(name)
    backend = IssBackend()
    backend.prepare(program)
    sites = list(backend.sites.iter_sites([ARCH_REGFILE_UNIT]))
    golden = backend.run(400_000, watch=sites)
    summary = backend.cell_reads
    assert golden.normal_exit and summary is not None
    recorder = _BoundaryRecorder(memory=Memory())
    recorder.load_program(program)
    recorder.run(max_instructions=400_000)
    assert summary[(ARCH_REGFILE_NET, 0)] == CellReads.unread(32)
    for register, reads in recorder.seen.items():
        watched = summary[(ARCH_REGFILE_NET, register)]
        assert (watched.ored, watched.anded) == (reads.ored, reads.anded)
        assert watched.changed == (1 << 32) - 1
    reference = IssBackend(fast=False)
    reference.prepare(program)
    offset = sorted(all_workloads()).index(name)
    budget = watchdog_budget(golden.instructions)
    for turn, model in enumerate(ALL_FAULT_MODELS[:2]):
        screened = [
            fault for fault in (
                PermanentFault(site=site, model=model) for site in sites
            )
            if fault.inert_on(summary[(fault.site.net, fault.site.index)])
        ]
        assert len(screened) < len(sites)  # some faults on each model act
        fault = screened[(offset + turn) % len(screened)]
        assert reference.run(budget, faults=[fault]) == golden


def _iss_outcomes(**overrides):
    engine = CampaignEngine(
        build_program("intbench"), CampaignConfig(**{**ISS_CAMPAIGN, **overrides}),
        backend_factory=IssBackend,
    )
    results = engine.run()
    counters = TELEMETRY.snapshot()["counters"]
    outcomes = [o for model in results for o in results[model].outcomes]
    return engine, outcomes, counters


def test_iss_outcomes_identical_across_schedulers_shards_and_reference(
    tmp_path
):
    """Serial, 2-process and 3-shard lockstep runs of one ISS permanent
    campaign screen the same jobs, keep them out of the packs, and give the
    reference interpreter's (unscreened, scalar) outcomes."""
    serial_engine, serial, serial_counters = _iss_outcomes()
    screened = serial_counters["engine.jobs_screened"]
    dispatched = serial_counters["campaign.jobs_executed"]
    assert 0 < screened < dispatched == len(serial)
    assert serial_counters["lockstep.replicas"] == dispatched - screened
    assert serial_engine._screen
    _, process, process_counters = _iss_outcomes(
        n_workers=2, scheduler="process", chunk_size=10
    )
    assert process == serial
    assert process_counters["engine.jobs_screened"] == screened
    reference_engine, reference, reference_counters = _iss_outcomes(
        iss_fast=False
    )
    assert reference == serial
    assert reference_engine._screen is None
    assert "engine.jobs_screened" not in reference_counters
    store_path = str(tmp_path / "sharded.sqlite")
    run_sharded_campaign(
        build_program("intbench"), CampaignConfig(**ISS_CAMPAIGN), IssBackend,
        shards=3, store_path=store_path,
    )
    with CampaignStore(store_path) as store:
        (info,) = store.list_campaigns()
        sharded = [r.to_outcome() for r in store.stored_records(info.key)]
    assert sharded == serial


def test_metrics_command_reports_the_iss_screen_share(tmp_path, capsys):
    store_path = str(tmp_path / "campaigns.sqlite")
    assert cli_main([
        "campaign", "run", "--workload", "intbench", "--backend", "iss",
        "--sites", "12", "--seed", "5", "--lockstep", "24",
        "--store", store_path, "--quiet",
    ]) == 0
    capsys.readouterr()
    assert cli_main(["campaign", "metrics", "--store", store_path]) == 0
    out = capsys.readouterr().out
    match = re.search(r"inert screen: (\d+) of 36 jobs resolved", out)
    assert match and int(match.group(1)) > 0
