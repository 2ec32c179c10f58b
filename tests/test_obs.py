"""Tests for the observability subsystem (metrics, manifests, traces).

The acceptance properties of :mod:`repro.obs` live here:

* **Scheduler transparency** — a serial and a multiprocessing run of the
  same campaign produce *equal* counter and histogram values (wall-clock
  timing series excluded), because worker snapshots merge additively and
  order-transparently.
* **Reconciliation** — lockstep resolution counts add up to the replica
  count, and demotion-reason counts add up to the demoted resolutions, so
  the telemetry is an account of the run rather than an approximation.
* **Store transparency** — campaign keys are byte-identical with telemetry
  on and off (pinned against the exact key PR 2..6 stored campaigns under),
  and run manifests live beside the campaign, never in its key.
* **Trace export** — per-PID JSONL sidecars merge into a Chrome
  trace-event file Perfetto can load.
"""

import json
import os
import pickle

import pytest

from repro.engine import (
    CampaignConfig,
    CampaignEngine,
    IssBackend,
    MultiprocessingScheduler,
)
from repro.obs.events import EventLog, export_chrome_trace, sidecar_paths
from repro.obs.telemetry import (
    TELEMETRY,
    Histogram,
    TelemetryRegistry,
    bucket_bound,
    series_name,
    split_series_name,
)
from repro.rtl.faults import FaultModel
from repro.store import CampaignStore
from repro.store.cli import main as cli_main
from repro.workloads import build_program


@pytest.fixture(autouse=True)
def _clean_registry():
    """Leave the process-local registry as this test found it."""
    yield
    TELEMETRY.disable()
    TELEMETRY.reset()
    if TELEMETRY.events is not None:
        TELEMETRY.events.close()
        TELEMETRY.events = None


def _snapshot_of(config_overrides, workload="rspeed", scheduler=None):
    """Run one direct (store-less) campaign and return the merged snapshot."""
    program = build_program(workload)
    config = CampaignConfig(
        unit_scope="arch.regfile",
        sample_size=4,
        seed=3,
        transient_windows=2,
        **config_overrides,
    )
    CampaignEngine(
        program, config, backend_factory=IssBackend, scheduler=scheduler
    ).run()
    return TELEMETRY.snapshot()


def _without_timings(snapshot):
    """Counters/gauges/histograms minus the wall-clock series."""
    return {
        kind: {
            series: value
            for series, value in snapshot[kind].items()
            if not split_series_name(series)[0].endswith(".seconds")
        }
        for kind in ("counters", "gauges", "histograms")
    }


class TestSeriesNames:
    def test_unlabelled_name_is_identity(self):
        assert series_name("engine.jobs") == "engine.jobs"
        assert split_series_name("engine.jobs") == ("engine.jobs", {})

    def test_labels_are_sorted_and_round_trip(self):
        series = series_name("a.b", {"z": 1, "a": "x"})
        assert series == "a.b{a=x,z=1}"
        assert split_series_name(series) == ("a.b", {"a": "x", "z": "1"})


class TestHistogram:
    def test_bucket_bounds_are_powers_of_two(self):
        assert bucket_bound(0) == 0
        assert bucket_bound(1) == 1
        assert bucket_bound(3) == 4
        assert bucket_bound(1024) == 1024
        assert bucket_bound(1025) == 2048
        assert bucket_bound(float("inf")) == "inf"

    def test_merge_equals_direct_observation(self):
        """Observing in two registries and merging == observing in one."""
        left, right, direct = Histogram(), Histogram(), Histogram()
        for value, target in ((3, left), (900, right), (3, left), (0, right)):
            target.observe(value)
            direct.observe(value)
        merged = Histogram()
        merged.merge_dict(json.loads(json.dumps(left.to_dict())))
        merged.merge_dict(json.loads(json.dumps(right.to_dict())))
        assert merged.to_dict() == direct.to_dict()

    def test_json_bucket_keys_do_not_split_buckets(self):
        """A snapshot stringifies bucket keys; merging it back must land in
        the same bucket as local observations (8, not "8")."""
        histogram = Histogram()
        histogram.observe(7)
        histogram.merge_dict(json.loads(json.dumps(histogram.to_dict())))
        assert histogram.buckets == {8: 2}


class TestSnapshotMerge:
    def test_counters_add_and_gauges_overwrite(self):
        source, target = TelemetryRegistry(), TelemetryRegistry()
        for registry in (source, target):
            registry.enable()
            registry.inc("jobs", 3)
            registry.set_gauge("rungs", 7)
        target.merge(source.snapshot())
        assert target.counter("jobs").value == 6
        assert target.gauge("rungs").value == 7

    def test_snapshot_reset_yields_disjoint_deltas(self):
        registry = TelemetryRegistry()
        registry.enable()
        registry.inc("jobs")
        first = registry.snapshot(reset=True)
        registry.inc("jobs")
        second = registry.snapshot(reset=True)
        assert first == second
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_snapshot_is_picklable_and_jsonable(self):
        registry = TelemetryRegistry()
        registry.enable()
        registry.inc("jobs", labels={"class": "trap"})
        registry.observe("width", 5)
        snapshot = registry.snapshot()
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_disabled_registry_records_nothing(self):
        registry = TelemetryRegistry()
        registry.inc("jobs")
        registry.observe("width", 5)
        registry.set_gauge("rungs", 7)
        with registry.span("work"):
            pass
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_span_measures_even_while_disabled(self):
        registry = TelemetryRegistry()
        with registry.span("work") as span:
            pass
        assert span.seconds >= 0.0


class TestSchedulerTransparency:
    def test_serial_and_process_snapshots_are_equal(self):
        """The merged worker metrics of a process run equal the serial run's
        (timings excluded): shipping snapshots per batch loses nothing."""
        serial = _snapshot_of({})
        process = _snapshot_of({"n_workers": 2, "scheduler": "process"})
        assert _without_timings(serial) == _without_timings(process)
        # And the equality is not vacuous: the run produced real series.
        assert serial["counters"]["campaign.jobs_executed"] == 8
        assert any(
            series.startswith("checkpoint.") for series in serial["counters"]
        )

    def test_campaigns_sharing_one_pool_ship_their_own_deltas(self):
        """Two campaigns on one process scheduler: each one's merged worker
        metrics still equal its serial run's, and the second campaign's
        workers ran their own golden for it."""
        with MultiprocessingScheduler(2) as scheduler:
            for workload in ("rspeed", "intbench"):
                serial = _snapshot_of({}, workload)
                process = _snapshot_of(
                    {"n_workers": 2, "scheduler": "process"}, workload, scheduler
                )
                assert _without_timings(serial) == _without_timings(process)
                # The planner's golden plus at least one worker's.
                assert process["histograms"]["golden.seconds"]["count"] >= 2

    @pytest.mark.parametrize(
        "untraced", [{"telemetry": False}, {}], ids=["telemetry-off", "untraced"]
    )
    def test_traced_campaign_after_untraced_one_on_one_pool(
        self, tmp_path, untraced
    ):
        """A worker that served an untraced campaign mirrors the next
        campaign's tracing: it ships deltas and writes its own sidecar."""
        trace = str(tmp_path / "trace.jsonl")
        process = {"n_workers": 2, "scheduler": "process"}
        with MultiprocessingScheduler(2) as scheduler:
            _snapshot_of({**process, **untraced}, "rspeed", scheduler)
            traced = _snapshot_of(
                {**process, "trace_path": trace}, "intbench", scheduler
            )
        serial = _snapshot_of({}, "intbench")
        assert _without_timings(traced) == _without_timings(serial)
        pids = {int(path.rsplit(".", 1)[1]) for path in sidecar_paths(trace)}
        assert os.getpid() in pids
        assert pids - {os.getpid()}, "no worker wrote a trace sidecar"

    def test_campaign_run_with_telemetry_off_records_nothing(self):
        snapshot = _snapshot_of({"telemetry": False})
        assert snapshot == {"counters": {}, "gauges": {}, "histograms": {}}


class TestLockstepReconciliation:
    def test_resolutions_account_for_every_replica(self):
        snapshot = _snapshot_of(
            {"lockstep_width": 4}, workload="intbench"
        )
        counters = snapshot["counters"]
        resolutions = {}
        demotions = {}
        for series, value in counters.items():
            base, labels = split_series_name(series)
            if base == "lockstep.resolutions":
                resolutions[labels["kind"]] = value
            elif base == "lockstep.demotions":
                demotions[labels["reason"]] = value
        assert sum(resolutions.values()) == counters["lockstep.replicas"]
        assert resolutions.get("demoted", 0) + resolutions.get(
            "spliced", 0
        ) == sum(demotions.values())
        width = snapshot["histograms"]["lockstep.pack.width"]
        assert width["count"] == counters["lockstep.packs"]
        assert width["total"] == counters["lockstep.replicas"]


class TestStoreTransparency:
    def test_telemetry_is_not_part_of_the_key(self):
        """This is the exact key PR 2..6 stored rspeed/sample8/seed7
        campaigns under; telemetry on/off/traced must address the same
        record byte-identically."""
        program = build_program("rspeed")
        pinned = (
            "5acce84097c754ea00e3c4196e2da8a32df18b74f5e12fa660f98fb2d2d01e17"
        )
        on = CampaignEngine(
            program, CampaignConfig(sample_size=8, seed=7, telemetry=True)
        )
        off = CampaignEngine(
            program, CampaignConfig(sample_size=8, seed=7, telemetry=False)
        )
        traced = CampaignEngine(
            program,
            CampaignConfig(
                sample_size=8, seed=7, trace_path="trace.jsonl"
            ),
        )
        assert on.store_key() == pinned
        assert off.store_key() == pinned
        assert traced.store_key() == pinned

    def test_trace_path_requires_telemetry(self):
        with pytest.raises(ValueError, match="trace_path"):
            CampaignConfig(trace_path="t.jsonl", telemetry=False)


class TestRunManifest:
    def _config(self, store_path, **overrides):
        return CampaignConfig(
            unit_scope="arch.regfile",
            sample_size=3,
            fault_models=[FaultModel.STUCK_AT_1],
            seed=5,
            store_path=str(store_path),
            **overrides,
        )

    def test_manifest_round_trips_and_appends_per_run(self, tmp_path):
        program = build_program("intbench")
        store_path = tmp_path / "campaigns.sqlite"
        engine = CampaignEngine(
            program, self._config(store_path), backend_factory=IssBackend
        )
        engine.run()
        with CampaignStore(str(store_path)) as store:
            key = engine.store_key()
            manifest = store.get_manifest(key)
            assert manifest["manifest_version"] == 1
            assert manifest["wall_seconds"] > 0.0
            assert manifest["environment"]["python"]
            assert manifest["execution"]["n_workers"] == 1
            metrics = manifest["metrics"]
            assert metrics["counters"]["campaign.jobs_executed"] == 3
            assert metrics["counters"]["store.cache_misses"] == 3
        # A second run is a pure cache hit — and appends its own manifest.
        CampaignEngine(
            program, self._config(store_path), backend_factory=IssBackend
        ).run()
        with CampaignStore(str(store_path)) as store:
            manifests = store.list_manifests(key)
            assert len(manifests) == 2
            latest = store.get_manifest(key)
            assert latest["metrics"]["counters"]["store.cache_hits"] == 3
            assert latest == manifests[-1]
            assert store.get_manifest(key, 0) == manifests[0]

    def test_no_manifest_without_telemetry(self, tmp_path):
        program = build_program("intbench")
        store_path = tmp_path / "campaigns.sqlite"
        engine = CampaignEngine(
            program,
            self._config(store_path, telemetry=False),
            backend_factory=IssBackend,
        )
        engine.run()
        with CampaignStore(str(store_path)) as store:
            assert store.get_manifest(engine.store_key()) is None

    def test_manifest_for_unknown_campaign_is_refused(self, tmp_path):
        from repro.store import StoreError

        with CampaignStore(str(tmp_path / "s.sqlite")) as store:
            with pytest.raises(StoreError, match="no campaign"):
                store.put_manifest("0" * 64, {})


class TestTraceExport:
    def test_sidecars_merge_into_chrome_trace(self, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        registry = TelemetryRegistry()
        registry.enable()
        registry.events = EventLog(trace)
        with registry.span("engine.job", {"index": 1}):
            pass
        registry.events.emit_instant("checkpoint.splice")
        registry.events.close()
        assert len(sidecar_paths(trace)) == 1

        out = tmp_path / "chrome.json"
        count = export_chrome_trace(trace, str(out))
        assert count == 2
        document = json.loads(out.read_text())
        events = document["traceEvents"]
        assert events[0]["ph"] == "M"  # process_name metadata first
        spans = [event for event in events if event["ph"] == "X"]
        (span,) = [e for e in spans if e["name"] == "engine.job"]
        assert span["cat"] == "engine"
        assert span["dur"] >= 0
        assert span["args"] == {"index": 1}

    def test_export_without_sidecars_fails_loudly(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            export_chrome_trace(
                str(tmp_path / "missing.jsonl"), str(tmp_path / "out.json")
            )


class TestCli:
    def _run(self, *argv):
        return cli_main(list(argv))

    def _seed_campaign(self, store_path, trace=None):
        args = [
            "campaign", "run", "--workload", "intbench", "--sites", "2",
            "--seed", "7", "--store", store_path, "--quiet",
        ]
        if trace is not None:
            args += ["--trace", trace]
        assert self._run(*args) == 0

    def test_metrics_command_renders_manifest(self, tmp_path, capsys):
        store_path = str(tmp_path / "campaigns.sqlite")
        self._seed_campaign(store_path)
        capsys.readouterr()
        assert self._run("campaign", "metrics", "--store", store_path) == 0
        out = capsys.readouterr().out
        assert "run manifest" in out
        assert "campaign.jobs_executed: 6" in out
        assert "cache-hit ratio" in out
        assert "jobs resolved from the golden" in out

        assert self._run(
            "campaign", "metrics", "--store", store_path, "--json"
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["counters"]["campaign.jobs_executed"] == 6

    def test_metrics_without_manifest_fails_cleanly(self, tmp_path, capsys):
        store_path = str(tmp_path / "campaigns.sqlite")
        args = (
            "campaign", "run", "--workload", "intbench", "--sites", "2",
            "--seed", "7", "--store", store_path, "--quiet", "--no-telemetry",
        )
        assert self._run(*args) == 0
        capsys.readouterr()
        assert self._run("campaign", "metrics", "--store", store_path) == 1
        assert "no manifest" in capsys.readouterr().err

    def test_trace_roundtrip_through_cli(self, tmp_path, capsys):
        store_path = str(tmp_path / "campaigns.sqlite")
        trace = str(tmp_path / "trace.jsonl")
        out = str(tmp_path / "chrome.json")
        self._seed_campaign(store_path, trace=trace)
        assert self._run("trace", "export", "--input", trace, "--chrome", out) == 0
        document = json.loads((tmp_path / "chrome.json").read_text())
        names = {event["name"] for event in document["traceEvents"]}
        assert "campaign.run" in names

    def test_trace_export_without_sidecars_fails_cleanly(
        self, tmp_path, capsys
    ):
        missing = str(tmp_path / "nothing.jsonl")
        assert self._run(
            "trace", "export", "--input", missing, "--chrome",
            str(tmp_path / "out.json"),
        ) == 1
        assert "no trace sidecars" in capsys.readouterr().err

    def test_watch_exits_when_campaigns_complete(self, tmp_path, capsys):
        store_path = str(tmp_path / "campaigns.sqlite")
        self._seed_campaign(store_path)
        capsys.readouterr()
        assert self._run(
            "campaign", "status", "--watch", "--store", store_path
        ) == 0
        out = capsys.readouterr().out
        assert "done" in out
