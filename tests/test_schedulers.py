"""One worker pool across campaigns: reuse equivalence and process hygiene.

A :class:`MultiprocessingScheduler` keeps its pool from the first batch it
runs to ``close()``, and its workers rebuild their campaign state whenever a
batch carries a new campaign token.  These tests pin what that must not
change and what it must not leave behind:

* **Reuse equivalence** — campaigns of every execution path (RTL permanent
  stored and direct, RTL checkpoint-ladder transients, ISS lockstep
  transients, ISS permanent packs) run back to back on one scheduler, in
  both orders, give the serial scheduler's outcomes; a worker reloads its
  state exactly when the token changes.
* **Process hygiene** — no worker outlives a pooled driver call, a campaign
  whose progress callback raises, or a worker-raised error; a driver call
  the store serves in full starts no pool at all.
"""

import dataclasses
import multiprocessing
import os
import pickle

import pytest

from repro.core import experiments
from repro.engine import (
    CampaignConfig,
    CampaignEngine,
    IssBackend,
    Leon3RtlBackend,
    MultiprocessingScheduler,
)
from repro.engine import schedulers
from repro.engine.backend import ARCH_REGFILE_UNIT
from repro.obs.telemetry import split_series_name
from repro.store import CampaignStore
from repro.workloads import build_program

#: One campaign per execution path: (workload, backend factory, config,
#: through a store).  Different programs, so a worker that kept the previous
#: campaign's backend or golden would misclassify.
CAMPAIGNS = {
    "rtl-permanent-stored": (
        "intbench", Leon3RtlBackend,
        {"unit_scope": "iu", "sample_size": 4, "seed": 5}, True,
    ),
    "rtl-permanent-direct": (
        "rspeed", Leon3RtlBackend,
        {"unit_scope": "cmem", "sample_size": 4, "seed": 6}, False,
    ),
    "rtl-transient": (
        "membench", Leon3RtlBackend,
        {"unit_scope": "iu", "sample_size": 3, "seed": 7, "transient_windows": 2},
        False,
    ),
    "iss-lockstep-transient": (
        "puwmod", IssBackend,
        {"unit_scope": ARCH_REGFILE_UNIT, "sample_size": 4, "seed": 8,
         "transient_windows": 3, "lockstep_width": 4},
        False,
    ),
    "iss-permanent-packs": (
        "canrdr", IssBackend,
        {"unit_scope": ARCH_REGFILE_UNIT, "sample_size": 4, "seed": 9,
         "lockstep_width": 3},
        False,
    ),
}


def _run(name, tmp_path=None, scheduler=None, **overrides):
    workload, factory, config, stored = CAMPAIGNS[name]
    if stored and tmp_path is not None:
        overrides["store_path"] = str(tmp_path / f"{name}.sqlite")
    engine = CampaignEngine(
        build_program(workload),
        CampaignConfig(**config, **overrides),
        backend_factory=factory,
        scheduler=scheduler,
    )
    return {model: result.outcomes for model, result in engine.run().items()}


@pytest.fixture(scope="module")
def serial_outcomes():
    return {name: _run(name) for name in CAMPAIGNS}


@pytest.fixture(autouse=True)
def _no_workers_left():
    """Every test starts and ends without a child process."""
    assert multiprocessing.active_children() == []
    yield
    assert multiprocessing.active_children() == []


class TestReuseEquivalence:
    @pytest.mark.parametrize("order", ["forward", "reverse"])
    def test_one_pool_serves_every_path(self, order, serial_outcomes, tmp_path):
        names = list(CAMPAIGNS)
        if order == "reverse":
            names.reverse()
        with MultiprocessingScheduler(2, chunk_size=2) as scheduler:
            pools = set()
            for name in names:
                assert _run(name, tmp_path, scheduler) == serial_outcomes[name], name
                pools.add(id(scheduler._pool))
            # One pool served every campaign.
            assert len(pools) == 1
        assert scheduler._pool is None

    def test_worker_reloads_state_when_the_token_changes(self, monkeypatch):
        monkeypatch.setattr(schedulers, "_WORKER", {})
        loads = []
        init = schedulers._init_worker

        def counting_init(campaign):
            loads.append(campaign.program.name)
            init(campaign)

        monkeypatch.setattr(schedulers, "_init_worker", counting_init)
        plans = {}
        for workload in ("intbench", "rspeed"):
            engine = CampaignEngine(
                build_program(workload),
                CampaignConfig(unit_scope="iu", sample_size=3, seed=4),
            )
            plan = engine.plan()
            campaign = pickle.dumps(schedulers.WorkerCampaign.of(plan))
            serial = schedulers.SerialScheduler().execute(plan)
            plans[workload] = (plan, campaign, serial)

        def batch(token, workload, lo, hi):
            plan, campaign, serial = plans[workload]
            records, _ = schedulers._run_batch((token, campaign, plan.jobs[lo:hi]))
            assert [r.failure_class for r in records] == [
                r.failure_class for r in serial[lo:hi]
            ]
            assert [r.faulty_instructions for r in records] == [
                r.faulty_instructions for r in serial[lo:hi]
            ]

        batch(1, "intbench", 0, 4)
        batch(1, "intbench", 4, 9)
        assert loads == ["intbench"]
        backend = schedulers._WORKER["backend"]
        batch(2, "rspeed", 0, 5)
        assert loads == ["intbench", "rspeed"]
        assert schedulers._WORKER["backend"] is not backend
        # State this process did not build (a forked worker inherits its
        # parent's) is rebuilt even under a matching token.
        schedulers._WORKER["campaign"] = (os.getpid() + 1, 2)
        batch(2, "rspeed", 5, 9)
        assert loads == ["intbench", "rspeed", "rspeed"]


def _pool_starts(snapshot):
    """Pool starts recorded in a metrics snapshot."""
    return sum(
        data["count"]
        for series, data in snapshot["histograms"].items()
        if split_series_name(series)[0] == "scheduler.pool_start.seconds"
    )


def _stored_pool_starts(store_path):
    """Pool starts over every run manifest in the store."""
    with CampaignStore(store_path) as store:
        return sum(
            _pool_starts(manifest["metrics"])
            for info in store.list_campaigns()
            for manifest in store.list_manifests(info.key)
        )


#: Every driver that runs campaigns, at its smallest shape.
DRIVERS = {
    "fig3": (experiments.figure3_input_data, {}),
    "fig4": (experiments.figure4_iterations, {"iteration_counts": (2, 4)}),
    "fig5": (experiments.figure5_iu_faults, {"workloads": ("intbench", "rspeed")}),
    "fig6": (experiments.figure6_cmem_faults, {"workloads": ("intbench", "rspeed")}),
    "fig7": (experiments.figure7_correlation, {"workloads": ("intbench",)}),
    "simtime": (experiments.simulation_time_comparison, {"workload": "intbench"}),
}


class TestProcessHygiene:
    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_pooled_driver_call_leaves_no_worker(self, driver, tmp_path):
        function, kwargs = DRIVERS[driver]
        store_path = str(tmp_path / "drivers.sqlite")
        function(sample_size=2, n_workers=2, store_path=store_path, **kwargs)
        assert multiprocessing.active_children() == []
        # One pool for the whole call, however many campaigns it ran.
        assert _stored_pool_starts(store_path) == 1
        # Served in full from the store: no pool at all.
        function(sample_size=2, n_workers=2, store_path=store_path, **kwargs)
        assert multiprocessing.active_children() == []
        assert _stored_pool_starts(store_path) == 1

    def test_interrupted_campaign_leaves_no_worker(self, tmp_path, serial_outcomes):
        class Interrupt(Exception):
            pass

        def interrupt(done, total, outcome):
            if done == 3:
                raise Interrupt

        name = "rtl-permanent-stored"
        workload, factory, config, _ = CAMPAIGNS[name]
        store_path = str(tmp_path / f"{name}.sqlite")
        with MultiprocessingScheduler(2, chunk_size=1) as scheduler:
            engine = CampaignEngine(
                build_program(workload),
                CampaignConfig(**config, store_path=store_path),
                backend_factory=factory,
                scheduler=scheduler,
            )
            with pytest.raises(Interrupt):
                engine.run(progress=interrupt)
            assert multiprocessing.active_children() == []
            # The scheduler forks a new pool for the resumed campaign.
            assert _run(name, tmp_path, scheduler) == serial_outcomes[name]

    def test_worker_raised_error_leaves_no_worker(self, small_program):
        engine = CampaignEngine(
            small_program, CampaignConfig(unit_scope="iu", sample_size=3, seed=2)
        )
        plan = engine.plan()
        # A budget the workers' golden runs cannot finish in.
        starved = dataclasses.replace(plan, max_instructions=5)
        with MultiprocessingScheduler(2) as scheduler:
            with pytest.raises(RuntimeError, match="worker golden run"):
                scheduler.execute(starved)
            assert multiprocessing.active_children() == []
            # The same scheduler still runs a sound plan.
            records = scheduler.execute(plan)
        assert _timeless(records) == _timeless(
            schedulers.SerialScheduler().execute(plan)
        )


def _timeless(records):
    return [dataclasses.replace(record, seconds=0.0) for record in records]
