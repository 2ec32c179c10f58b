"""Open-line → stuck-at collapsing of net faults in the RTL backend.

An open line on a net holds the bit the net latched when the fault
appeared, and every run injects its faults just after a fault-free reset.
So on a net, open line is the stuck-at of that bit's post-reset value, and
:class:`~repro.engine.backend.Leon3RtlBackend` serves one of the two twins
from the other's result.  These tests pin the equivalence itself on both
cycle engines, that a served twin simulates nothing, and that the memo
cannot make outcomes depend on how jobs are spread over workers or shards.
"""

import pytest

from conftest import SMALL_PROGRAM_SOURCE

from repro.engine import (
    CampaignConfig,
    CampaignEngine,
    Leon3RtlBackend,
    run_sharded_campaign,
)
from repro.engine.backend import watchdog_budget
from repro.isa.assembler import assemble
from repro.leon3.core import DEFAULT_STACK_TOP
from repro.rtl.faults import ALL_FAULT_MODELS, FaultModel, PermanentFault
from repro.store import CampaignStore
from repro.workloads.registry import build_program

#: Nets a fault-free reset leaves non-zero: the ``%sp`` write.
RESET_LATCHED = {"rf.waddr": 14, "rf.wdata": DEFAULT_STACK_TOP}


def _twin(latched, site):
    bit = (latched.get(site.net, 0) >> site.bit) & 1
    return FaultModel.STUCK_AT_1 if bit else FaultModel.STUCK_AT_0


def _prepared(program, fast):
    backend = Leon3RtlBackend(fast=fast)
    backend.prepare(program)
    return backend


def test_only_the_sp_write_latches_ones_at_reset():
    backend = _prepared(build_program("excerpt_rspeed"), fast=False)
    latched = backend.core.netlist.latched_values()
    assert {net: value for net, value in latched.items() if value} == RESET_LATCHED


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "reference"])
def test_open_line_equals_stuck_at_of_the_reset_latched_bit(fast):
    """Every net at bit 0 and at every bit a reset latches to 1: the two
    models give equal results on every ``RunResult`` observable."""
    program = build_program("excerpt_rspeed")
    # One backend per model, each running every site once, so no result is
    # ever served from the memo: both twins are really simulated.
    open_line = _prepared(program, fast)
    stuck_at = _prepared(program, fast)
    netlist = open_line.core.netlist
    latched = netlist.latched_values()
    budget = watchdog_budget(open_line.run(max_instructions=400_000).instructions)
    sites = []
    for net, value in latched.items():
        bits = {0} | {bit for bit in range(netlist.net(net).width) if value >> bit & 1}
        sites += [netlist.site_for(net, bit) for bit in sorted(bits)]
    assert len(sites) == len(latched) + 3 + 16  # 0b1110 and 0x4007FFF0
    for site in sites:
        a = open_line.run(budget, faults=[PermanentFault(site, FaultModel.OPEN_LINE)])
        b = stuck_at.run(budget, faults=[PermanentFault(site, _twin(latched, site))])
        assert a == b, site.describe()


class TestMemo:
    @pytest.fixture
    def backend(self, monkeypatch):
        backend = _prepared(build_program("intbench"), fast=True)
        backend.core_runs = 0
        run = backend.core.run

        def counting_run(*args, **kwargs):
            backend.core_runs += 1
            return run(*args, **kwargs)

        monkeypatch.setattr(backend.core, "run", counting_run)
        return backend

    def _fault(self, backend, net, bit, model, index=None):
        return PermanentFault(backend.core.netlist.site_for(net, bit, index), model)

    @pytest.mark.parametrize("net, bit, twin", [
        ("iu.de.cond", 1, FaultModel.STUCK_AT_0),
        ("rf.wdata", 16, FaultModel.STUCK_AT_1),
    ])
    @pytest.mark.parametrize("open_line_first", [True, False])
    def test_collapsed_twin_runs_no_simulation(self, backend, net, bit, twin,
                                               open_line_first):
        models = [FaultModel.OPEN_LINE, twin]
        if not open_line_first:
            models.reverse()
        first = backend.run(5_000, faults=[self._fault(backend, net, bit, models[0])])
        assert backend.core_runs == 1
        second = backend.run(5_000, faults=[self._fault(backend, net, bit, models[1])])
        assert backend.core_runs == 1
        assert second == first

    def test_other_stuck_at_budget_and_prepare_are_not_collapsed(self, backend):
        def run(net, bit, model, budget=5_000):
            backend.run(budget, faults=[self._fault(backend, net, bit, model)])

        run("rf.wdata", 16, FaultModel.OPEN_LINE)
        run("rf.wdata", 16, FaultModel.STUCK_AT_0)  # bit 16 latched 1: no twin
        assert backend.core_runs == 2
        run("rf.wdata", 16, FaultModel.STUCK_AT_1, budget=4_000)  # another key
        assert backend.core_runs == 3
        run("iu.de.cond", 1, FaultModel.STUCK_AT_0)
        backend.prepare(backend.program)  # empties the memo
        run("iu.de.cond", 1, FaultModel.OPEN_LINE)
        assert backend.core_runs == 5

    def test_storage_cells_and_fault_pairs_are_not_collapsed(self, backend):
        cell = [self._fault(backend, "rf.cells", 3, FaultModel.OPEN_LINE, index=38),
                self._fault(backend, "rf.cells", 3, FaultModel.STUCK_AT_0, index=38)]
        pair = [self._fault(backend, "iu.de.cond", 1, FaultModel.OPEN_LINE),
                self._fault(backend, "alu.adder.sum", 0, FaultModel.OPEN_LINE)]
        for _ in range(2):
            backend.run(5_000, faults=cell[:1])
            backend.run(5_000, faults=cell[1:])
            backend.run(5_000, faults=pair)
        assert backend.core_runs == 6


def test_campaign_outcomes_match_across_serial_process_and_sharded(tmp_path):
    program = assemble(SMALL_PROGRAM_SOURCE, name="small")
    config = {"unit_scope": "iu", "sample_size": 4, "seed": 3,
              "fault_models": list(ALL_FAULT_MODELS)}
    serial = CampaignEngine(program, CampaignConfig(**config))
    assert any(site.index is None for site in serial.select_sites())
    paths = {name: str(tmp_path / f"{name}.sqlite")
             for name in ("serial", "process", "sharded")}
    CampaignEngine(program, CampaignConfig(store_path=paths["serial"], **config)).run()
    CampaignEngine(program, CampaignConfig(
        store_path=paths["process"], n_workers=2, scheduler="process", chunk_size=1,
        **config)).run()
    run_sharded_campaign(program, CampaignConfig(**config), shards=3,
                         store_path=paths["sharded"])
    outcomes = {}
    for name, path in paths.items():
        with CampaignStore(path) as store:
            (info,) = store.list_campaigns()
            outcomes[name] = [r.to_outcome() for r in store.stored_records(info.key)]
    assert outcomes["process"] == outcomes["serial"]
    assert outcomes["sharded"] == outcomes["serial"]
