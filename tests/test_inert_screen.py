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
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    CampaignConfig,
    CampaignEngine,
    Leon3RtlBackend,
    run_sharded_campaign,
)
from repro.leon3.core import Leon3Core
from repro.leon3.fastcore import Leon3FastCore, assert_rtl_results_identical
from repro.obs.telemetry import TELEMETRY
from repro.rtl.faults import ALL_FAULT_MODELS, CellReads, PermanentFault
from repro.rtl.sites import FaultSite
from repro.store import CampaignStore
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


def test_artifact_served_golden_builds_no_screen(tmp_path):
    store_path = str(tmp_path / "campaigns.sqlite")
    first, cold, cold_counters = _outcomes(store_path=store_path)
    assert first._screen and cold_counters["engine.jobs_screened"] > 0
    second, warm, warm_counters = _outcomes(
        store_path=store_path, resume=False
    )
    assert warm_counters["golden.cache.hit"] == 1
    assert second._screen is None
    assert "engine.jobs_screened" not in warm_counters
    assert warm == cold
