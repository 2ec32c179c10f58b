"""Property and regression tests for sharded campaign execution + merge.

The contract under test (see ``repro/engine/sharding.py`` and
``repro/store/merge.py``):

* the partition is disjoint, covering, contiguous, balanced and pure;
* ``merge(run_shard(0..N-1)) == unsharded`` — bit-identical outcome rows and
  a byte-identical aggregated report, on both backends, including the
  transient runtime and kill-and-resume of individual shards;
* merging is idempotent, partial shard sets stay ``running`` and name their
  missing shards, and a conflicting outcome row is a hard error naming both
  stores;
* ``shards``/``shard_index`` are result-transparent: the campaign key is
  byte-identical across shard coordinates (pinned against the exact key
  PR 2..7 stored rspeed/sample8/seed7 campaigns under).
"""

import dataclasses
import json
import shutil
import sqlite3

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import SMALL_PROGRAM_SOURCE

from repro.engine import (
    CampaignConfig,
    CampaignEngine,
    IssBackend,
    Leon3RtlBackend,
    run_sharded_campaign,
    select_shard,
    shard_bounds,
    shard_slice,
    shard_store_path,
    shard_token,
)
from repro.isa.assembler import assemble
from repro.store import (
    CampaignSession,
    CampaignStore,
    MergeConflictError,
    MergeError,
    merge_stores,
    missing_shards,
    report_payload,
)
from repro.store.cli import main as cli_main
from repro.workloads import build_program


@pytest.fixture(scope="module")
def small_program():
    return assemble(SMALL_PROGRAM_SOURCE, name="small")


def _iss_config(**overrides):
    defaults = {"unit_scope": "arch.regfile", "sample_size": 2, "seed": 9}
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def _only_info(store):
    (info,) = store.list_campaigns()
    return info


def _report_json(store_path):
    """The exact bytes ``repro campaign report --json`` prints for the
    store's single campaign."""
    with CampaignStore(store_path) as store:
        payload = report_payload(store, _only_info(store))
    return json.dumps(payload, indent=2, sort_keys=True)


def _outcomes(store_path):
    """(key, reconstructed outcomes) of the store's single campaign.

    Comparison happens on :class:`InjectionOutcome` (via ``to_outcome``)
    rather than raw records because ``seconds`` is wall clock and
    result-transparent.
    """
    with CampaignStore(store_path) as store:
        info = _only_info(store)
        records = store.stored_records(info.key)
    return info.key, [record.to_outcome() for record in records]


class Interrupted(Exception):
    """Stand-in for a mid-campaign crash/SIGINT raised from the progress hook."""


def _interrupt_after(n):
    def progress(done, total, outcome):
        if done >= n:
            raise Interrupted(f"killed after {done}/{total}")

    return progress


# ---------------------------------------------------------------------------
# The partition: pure-function properties over wide ranges
# ---------------------------------------------------------------------------


class TestPartitionProperties:
    @given(
        total=st.integers(min_value=0, max_value=10_000),
        shards=st.integers(min_value=1, max_value=64),
    )
    def test_bounds_are_disjoint_covering_contiguous_balanced(self, total, shards):
        bounds = shard_bounds(total, shards)
        assert len(bounds) == shards
        assert bounds[0][0] == 0
        assert bounds[-1][1] == total
        for (_, hi), (next_lo, _) in zip(bounds, bounds[1:]):
            assert hi == next_lo  # contiguous => disjoint and ascending
        sizes = [hi - lo for lo, hi in bounds]
        assert sum(sizes) == total
        assert max(sizes) - min(sizes) <= 1
        # The first total % shards slices take the extra job.
        assert sizes == sorted(sizes, reverse=True)

    @given(
        total=st.integers(min_value=0, max_value=500),
        shards=st.integers(min_value=1, max_value=12),
    )
    def test_select_shard_is_a_partition_of_the_plan(self, total, shards):
        jobs = list(range(total))
        recombined = []
        for shard_index in range(shards):
            piece = select_shard(jobs, shards, shard_index)
            assert piece == jobs[slice(*shard_slice(total, shards, shard_index))]
            recombined.extend(piece)
        assert recombined == jobs

    @given(jobs=st.lists(st.integers(), max_size=50))
    def test_single_shard_is_the_whole_plan(self, jobs):
        assert select_shard(jobs, 1, 0) == jobs

    def test_partition_validation(self):
        with pytest.raises(ValueError, match="shards"):
            shard_bounds(10, 0)
        with pytest.raises(ValueError, match="total"):
            shard_bounds(-1, 2)
        with pytest.raises(ValueError, match="shard_index"):
            shard_slice(10, 3, 3)
        with pytest.raises(ValueError, match="shard_index"):
            shard_slice(10, 3, -1)

    def test_shards_beyond_total_come_out_empty(self):
        bounds = shard_bounds(3, 5)
        assert [hi - lo for lo, hi in bounds] == [1, 1, 1, 0, 0]


class TestShardTokens:
    KEY = "5acce84097c754ea00e3c4196e2da8a32df18b74f5e12fa660f98fb2d2d01e17"

    def test_token_is_deterministic_hex(self):
        token = shard_token(self.KEY, 3, 1)
        assert token == shard_token(self.KEY, 3, 1)
        assert len(token) == 64
        int(token, 16)

    @given(
        shards=st.integers(min_value=1, max_value=16),
        shard_index=st.integers(min_value=0, max_value=15),
        other_index=st.integers(min_value=0, max_value=15),
    )
    def test_token_distinguishes_coordinates(self, shards, shard_index, other_index):
        token = shard_token(self.KEY, shards, shard_index)
        assert token != shard_token(self.KEY, shards + 1, shard_index)
        assert token != shard_token(self.KEY[::-1], shards, shard_index)
        if other_index != shard_index:
            assert token != shard_token(self.KEY, shards, other_index)

    def test_shard_store_path_convention(self, tmp_path):
        path = shard_store_path(tmp_path / "campaigns.sqlite", 3, 0)
        assert path.endswith("campaigns.shard0of3.sqlite")
        with pytest.raises(ValueError, match="shard_index"):
            shard_store_path("campaigns.sqlite", 3, 3)


# ---------------------------------------------------------------------------
# Store transparency: the key must not depend on the split
# ---------------------------------------------------------------------------


class TestStoreTransparency:
    def test_shards_are_not_part_of_the_key(self):
        """This is the exact key PR 2..7 stored rspeed/sample8/seed7
        campaigns under; every shard of a sharded campaign must address the
        same record, or shard stores could never merge back."""
        program = build_program("rspeed")
        pinned = (
            "5acce84097c754ea00e3c4196e2da8a32df18b74f5e12fa660f98fb2d2d01e17"
        )
        unsharded = CampaignEngine(program, CampaignConfig(sample_size=8, seed=7))
        assert unsharded.store_key() == pinned
        for shards, shard_index in [(2, 0), (3, 1), (8, 7)]:
            sharded = CampaignEngine(
                program,
                CampaignConfig(
                    sample_size=8, seed=7, shards=shards, shard_index=shard_index
                ),
            )
            assert sharded.store_key() == pinned

    def test_config_validation(self):
        with pytest.raises(ValueError, match="shards"):
            CampaignConfig(shards=0)
        with pytest.raises(ValueError, match="shard_index"):
            CampaignConfig(shards=2, shard_index=2)
        with pytest.raises(ValueError, match="shard_index"):
            CampaignConfig(shard_index=1)


# ---------------------------------------------------------------------------
# End-to-end: merge(shards) == serial, bit for bit
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sharded_env(tmp_path_factory, small_program):
    """One serial run and one 3-way sharded run of the same ISS campaign.

    Shared read-only by the tests below; anything that edits a store copies
    it first.
    """
    tmp = tmp_path_factory.mktemp("sharded")
    serial_path = str(tmp / "serial.sqlite")
    CampaignEngine(
        small_program,
        _iss_config(store_path=serial_path),
        backend_factory=IssBackend,
    ).run()
    merged_path = str(tmp / "campaigns.sqlite")
    report = run_sharded_campaign(
        small_program,
        _iss_config(),
        backend_factory=IssBackend,
        shards=3,
        store_path=merged_path,
    )
    return {
        "program": small_program,
        "serial": serial_path,
        "merged": merged_path,
        "shards": [shard_store_path(merged_path, 3, i) for i in range(3)],
        "report": report,
    }


class TestShardedExecution:
    def test_merged_equals_serial_bit_identical(self, sharded_env):
        serial_key, serial_outcomes = _outcomes(sharded_env["serial"])
        merged_key, merged_outcomes = _outcomes(sharded_env["merged"])
        assert merged_key == serial_key
        assert merged_outcomes == serial_outcomes
        assert _report_json(sharded_env["merged"]) == _report_json(
            sharded_env["serial"]
        )
        (campaign,) = sharded_env["report"].campaigns
        assert campaign.complete
        assert campaign.inserted == len(serial_outcomes)
        assert campaign.duplicates == 0
        assert campaign.missing_shards == {}

    def test_merged_golden_stats_match_serial(self, sharded_env):
        def golden(path):
            with CampaignStore(path) as store:
                return CampaignSession(
                    store=store, key=_only_info(store).key
                ).golden_stats()

        stats = golden(sharded_env["serial"])
        assert stats is not None
        assert golden(sharded_env["merged"]) == stats

    def test_shard_stores_stay_running_and_record_their_slice(self, sharded_env):
        total = len(_outcomes(sharded_env["serial"])[1])
        bounds = shard_bounds(total, 3)
        for shard_index, path in enumerate(sharded_env["shards"]):
            with CampaignStore(path) as store:
                info = _only_info(store)
                assert info.status == "running"  # awaiting merge
                assert info.total_jobs == total  # parent plan, not the slice
                lo, hi = bounds[shard_index]
                assert info.done_jobs == hi - lo
                (row,) = store.shard_rows(info.key)
            assert (row.shard_count, row.shard_index) == (3, shard_index)
            assert (row.job_lo, row.job_hi) == (lo, hi)  # half-open slice
            assert row.token == shard_token(info.key, 3, shard_index)

    def test_shard_outcomes_carry_original_job_indices(self, sharded_env):
        total = len(_outcomes(sharded_env["serial"])[1])
        for shard_index, path in enumerate(sharded_env["shards"]):
            with CampaignStore(path) as store:
                info = _only_info(store)
                indices = [
                    record.job.index for record in store.stored_records(info.key)
                ]
            lo, hi = shard_slice(total, 3, shard_index)
            assert indices == list(range(lo, hi))

    def test_remerge_is_idempotent(self, sharded_env):
        before = _report_json(sharded_env["merged"])
        report = merge_stores(sharded_env["merged"], sharded_env["shards"])
        assert report.inserted == 0
        assert report.duplicates == len(_outcomes(sharded_env["serial"])[1])
        assert _report_json(sharded_env["merged"]) == before

    def test_partial_merge_stays_running_then_completes(self, sharded_env, tmp_path):
        dest = str(tmp_path / "partial.sqlite")
        partial = merge_stores(dest, sharded_env["shards"][:2])
        (campaign,) = partial.campaigns
        assert not campaign.complete
        assert campaign.missing_shards == {3: (2,)}
        with CampaignStore(dest) as store:
            info = _only_info(store)
            assert info.status == "running"
            assert missing_shards(store, info.key) == {3: (2,)}
        final = merge_stores(dest, sharded_env["shards"][2:])
        (campaign,) = final.campaigns
        assert campaign.complete
        assert campaign.missing_shards == {}
        assert _report_json(dest) == _report_json(sharded_env["serial"])

    def test_killed_and_resumed_shard_merges_bit_identically(
        self, sharded_env, tmp_path
    ):
        """Kill shard 1 mid-chunk, resume it, merge: still == serial."""
        program = sharded_env["program"]
        paths = []
        for shard_index in range(3):
            path = str(tmp_path / f"shard{shard_index}.sqlite")
            paths.append(path)
            config = _iss_config(
                store_path=path, shards=3, shard_index=shard_index, chunk_size=2
            )
            engine = CampaignEngine(program, config, backend_factory=IssBackend)
            if shard_index == 1:
                with pytest.raises(Interrupted):
                    engine.run(progress=_interrupt_after(1))
                with CampaignStore(path) as store:
                    info = _only_info(store)
                    # The shard is independently resumable: its store already
                    # carries the shard row and a committed prefix.
                    assert store.shard_rows(info.key) != []
                engine = CampaignEngine(
                    program, config, backend_factory=IssBackend
                )
            engine.run()
        dest = str(tmp_path / "merged.sqlite")
        merge_stores(dest, paths)
        assert _outcomes(dest) == _outcomes(sharded_env["serial"])
        assert _report_json(dest) == _report_json(sharded_env["serial"])

    def test_rtl_backend_shards_merge_bit_identically(self, small_program, tmp_path):
        from repro.rtl.faults import FaultModel

        kwargs = {
            "unit_scope": "iu",
            "sample_size": 2,
            "fault_models": [FaultModel.STUCK_AT_1, FaultModel.STUCK_AT_0],
            "seed": 11,
        }
        serial_path = str(tmp_path / "serial.sqlite")
        CampaignEngine(
            small_program, CampaignConfig(store_path=serial_path, **kwargs)
        ).run()
        merged_path = str(tmp_path / "merged.sqlite")
        report = run_sharded_campaign(
            small_program,
            CampaignConfig(**kwargs),
            shards=2,
            store_path=merged_path,
        )
        assert report.campaigns[0].complete
        assert _outcomes(merged_path) == _outcomes(serial_path)
        assert _report_json(merged_path) == _report_json(serial_path)

    def test_transient_campaign_shards_merge_bit_identically(
        self, small_program, tmp_path
    ):
        kwargs = {
            "unit_scope": "arch.regfile",
            "sample_size": 2,
            "seed": 5,
            "transient_windows": 2,
        }
        serial_path = str(tmp_path / "serial.sqlite")
        CampaignEngine(
            small_program,
            CampaignConfig(store_path=serial_path, **kwargs),
            backend_factory=IssBackend,
        ).run()
        merged_path = str(tmp_path / "merged.sqlite")
        report = run_sharded_campaign(
            small_program,
            CampaignConfig(**kwargs),
            backend_factory=IssBackend,
            shards=2,
            store_path=merged_path,
        )
        assert report.campaigns[0].complete
        assert _outcomes(merged_path) == _outcomes(serial_path)
        assert _report_json(merged_path) == _report_json(serial_path)


#: Store-backed campaigns of every shape: permanent and transient (SEU),
#: on the ISS (the transient one through lockstep packs) and on the RTL
#: core (the transient one through the checkpoint ladder).
FILE_STORE_CAMPAIGNS = {
    "perm-iss": ({"unit_scope": "arch.regfile", "sample_size": 3}, IssBackend),
    "perm-rtl": ({"unit_scope": "iu", "sample_size": 2}, Leon3RtlBackend),
    "seu-iss": (
        {"unit_scope": "arch.regfile", "sample_size": 3,
         "transient_windows": 2},
        IssBackend,
    ),
    "seu-iss-lockstep": (
        {"unit_scope": "arch.regfile", "sample_size": 3,
         "transient_windows": 2, "lockstep_width": 4},
        IssBackend,
    ),
    "seu-rtl-checkpoint": (
        {"unit_scope": "iu", "sample_size": 2, "transient_windows": 1},
        Leon3RtlBackend,
    ),
}


@pytest.mark.parametrize("kind", sorted(FILE_STORE_CAMPAIGNS))
def test_file_store_serial_pool_and_shards_agree(small_program, tmp_path, kind):
    """One campaign, every golden-bearing execution strategy: store-less,
    store-less 3-shard slices, cold on a file store, a ``resume=False``
    process-pool rerun on that store, a rerun with explicit rung spacing,
    and a 3-shard merge all give the same outcomes (and the merge the same
    report bytes); the store-less and cold-store runs report the same
    progress stream."""
    params, factory = FILE_STORE_CAMPAIGNS[kind]
    config = CampaignConfig(seed=11, **params)

    def run(progress=None, **overrides):
        return CampaignEngine(
            small_program,
            dataclasses.replace(config, **overrides),
            backend_factory=factory,
        ).run(progress=progress)

    def flatten(results):
        return [o for model in results for o in results[model].outcomes]

    direct_progress, cold_progress = [], []
    direct = run(lambda done, total, _: direct_progress.append((done, total)))
    flattened = flatten(direct)
    sliced = []
    for index in range(3):
        sliced += flatten(run(shards=3, shard_index=index))
    assert sliced == flattened
    store_path = str(tmp_path / "campaigns.sqlite")
    run(
        lambda done, total, _: cold_progress.append((done, total)),
        store_path=store_path,
    )
    assert cold_progress == direct_progress
    key, cold = _outcomes(store_path)
    assert cold == flattened
    report = _report_json(store_path)
    run(store_path=store_path, resume=False, n_workers=2, scheduler="process")
    assert _outcomes(store_path) == (key, cold)
    run(store_path=store_path, resume=False, checkpoint_interval=64)
    assert _outcomes(store_path) == (key, cold)
    merged_path = str(tmp_path / "merged.sqlite")
    merge = run_sharded_campaign(
        small_program, config, factory, shards=3, store_path=merged_path
    )
    assert merge.campaigns[0].complete
    assert _outcomes(merged_path) == (key, cold)
    assert _report_json(merged_path) == report


def _seu_iss_config(**overrides):
    """A transient (SEU) register-file campaign on the ISS."""
    params = {
        "unit_scope": "arch.regfile", "sample_size": 3, "seed": 11,
        "transient_windows": 2,
    }
    params.update(overrides)
    return CampaignConfig(**params)


def _run_seu_iss(program, **overrides):
    return CampaignEngine(
        program, _seu_iss_config(**overrides), backend_factory=IssBackend
    ).run()


def test_process_pool_rerun_equals_serial_on_a_file_store(
    small_program, tmp_path
):
    """Process-pool workers each execute their own golden run; the pooled
    rerun of a transient campaign reproduces the serial run's outcomes."""
    store_path = str(tmp_path / "c.sqlite")
    serial = _run_seu_iss(small_program, store_path=store_path)
    key, stored = _outcomes(store_path)
    pooled = _run_seu_iss(
        small_program, store_path=store_path, resume=False,
        n_workers=2, scheduler="process",
    )
    assert _outcomes(store_path) == (key, stored)
    for model in serial:
        assert serial[model].outcomes == pooled[model].outcomes
        assert (
            serial[model].failure_probability
            == pooled[model].failure_probability
        )


def test_rung_spacing_is_result_transparent_on_a_file_store(
    small_program, tmp_path
):
    """Checkpoint-rung spacing is an execution strategy: the same campaign
    key and the same outcomes, cold and on a ``resume=False`` rerun."""
    base_path = str(tmp_path / "base.sqlite")
    spaced_path = str(tmp_path / "spaced.sqlite")
    base = _run_seu_iss(small_program, store_path=base_path)
    spaced = _run_seu_iss(
        small_program, store_path=spaced_path, checkpoint_interval=64
    )
    rerun = _run_seu_iss(
        small_program, store_path=spaced_path, checkpoint_interval=64,
        resume=False,
    )
    for results in (spaced, rerun):
        assert results.keys() == base.keys()
        for model in base:
            assert base[model].outcomes == results[model].outcomes
    assert _outcomes(base_path) == _outcomes(spaced_path)


def test_transient_shards_merge_bit_identically(small_program, tmp_path):
    """Three shards of a transient campaign, each with its own golden run,
    merge into the unsharded campaign's key and report bytes."""
    canonical = str(tmp_path / "c.sqlite")
    unsharded = str(tmp_path / "u.sqlite")
    config = _seu_iss_config(store_path=canonical)
    merge = run_sharded_campaign(
        small_program, config, IssBackend, shards=3, store_path=canonical
    )
    assert merge.campaigns[0].complete
    for index in range(3):
        with CampaignStore(shard_store_path(canonical, 3, index)) as store:
            assert len(store.list_campaigns()) == 1
    _run_seu_iss(small_program, store_path=unsharded)
    assert _outcomes(canonical) == _outcomes(unsharded)
    assert _report_json(canonical) == _report_json(unsharded)


class TestShardedExecutionProperties:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        shards=st.integers(min_value=1, max_value=5),
        sample_size=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_sharded_equals_serial_over_plans(
        self, tmp_path_factory, small_program, shards, sample_size, seed
    ):
        tmp = tmp_path_factory.mktemp("shard-prop")
        config = _iss_config(sample_size=sample_size, seed=seed)
        serial_path = str(tmp / "serial.sqlite")
        CampaignEngine(
            small_program,
            dataclasses.replace(config, store_path=serial_path),
            backend_factory=IssBackend,
        ).run()
        merged_path = str(tmp / "merged.sqlite")
        report = run_sharded_campaign(
            small_program,
            config,
            backend_factory=IssBackend,
            shards=shards,
            store_path=merged_path,
        )
        assert report.campaigns[0].complete
        assert _outcomes(merged_path) == _outcomes(serial_path)
        assert _report_json(merged_path) == _report_json(serial_path)

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        shards=st.integers(min_value=2, max_value=4),
        killed_shard=st.integers(min_value=0, max_value=3),
        interrupt_point=st.integers(min_value=1, max_value=2),
    )
    def test_kill_and_resume_any_shard_over_interrupt_points(
        self,
        tmp_path_factory,
        sharded_env,
        shards,
        killed_shard,
        interrupt_point,
    ):
        killed_shard %= shards
        tmp = tmp_path_factory.mktemp("shard-kill")
        program = sharded_env["program"]
        paths = []
        for shard_index in range(shards):
            path = str(tmp / f"shard{shard_index}.sqlite")
            paths.append(path)
            config = _iss_config(
                store_path=path,
                shards=shards,
                shard_index=shard_index,
                chunk_size=2,
            )
            engine = CampaignEngine(program, config, backend_factory=IssBackend)
            if shard_index == killed_shard:
                try:
                    # May finish uninterrupted when the slice is shorter than
                    # the interrupt point; resume is then a pure cache hit.
                    engine.run(progress=_interrupt_after(interrupt_point))
                except Interrupted:
                    pass
                engine = CampaignEngine(
                    program, config, backend_factory=IssBackend
                )
            engine.run()
        dest = str(tmp / "merged.sqlite")
        report = merge_stores(dest, paths)
        assert report.campaigns[0].complete
        assert _outcomes(dest) == _outcomes(sharded_env["serial"])
        assert _report_json(dest) == _report_json(sharded_env["serial"])


# ---------------------------------------------------------------------------
# Conflict policy: disagreement between stores is a hard error
# ---------------------------------------------------------------------------


class TestMergeConflicts:
    def _tampered_shard(self, sharded_env, tmp_path):
        """A copy of shard 2's store with one outcome row flipped to a
        different (valid) failure class."""
        tampered = str(tmp_path / "tampered.sqlite")
        shutil.copyfile(sharded_env["shards"][2], tampered)
        conn = sqlite3.connect(tampered)
        job_index, failure_class = conn.execute(
            "SELECT job_index, failure_class FROM outcomes "
            "ORDER BY job_index LIMIT 1"
        ).fetchone()
        flipped = "wrong_data" if failure_class != "wrong_data" else "no_effect"
        conn.execute(
            "UPDATE outcomes SET failure_class = ? WHERE job_index = ?",
            (flipped, job_index),
        )
        conn.commit()
        conn.close()
        return tampered, job_index

    def test_conflicting_outcome_names_both_stores(self, sharded_env, tmp_path):
        tampered, job_index = self._tampered_shard(sharded_env, tmp_path)
        dest = str(tmp_path / "merged.sqlite")
        merge_stores(dest, sharded_env["shards"])
        with pytest.raises(MergeConflictError) as excinfo:
            merge_stores(dest, [tampered])
        error = excinfo.value
        key = _outcomes(sharded_env["serial"])[0]
        assert error.campaign_key == key
        assert error.job_index == job_index
        assert error.source_path == tampered
        message = str(error)
        assert key in message
        assert f"job {job_index}" in message
        assert tampered in message
        assert dest in message
        # Nothing was silently committed: the merged store still matches.
        assert _report_json(dest) == _report_json(sharded_env["serial"])

    def test_cli_merge_conflict_is_operational_exit_1(
        self, sharded_env, tmp_path, capsys
    ):
        tampered, _ = self._tampered_shard(sharded_env, tmp_path)
        dest = str(tmp_path / "merged.sqlite")
        assert cli_main(["store", "merge", dest, sharded_env["shards"][2]]) == 0
        capsys.readouterr()
        assert cli_main(["store", "merge", dest, tampered]) == 1
        err = capsys.readouterr().err
        assert "outcome conflict" in err
        assert "refusing to merge" in err

    def test_foreign_token_is_rejected(self, sharded_env, tmp_path):
        tampered = str(tmp_path / "foreign.sqlite")
        shutil.copyfile(sharded_env["shards"][0], tampered)
        conn = sqlite3.connect(tampered)
        conn.execute("UPDATE shards SET token = ?", ("ab" * 32,))
        conn.commit()
        conn.close()
        dest = str(tmp_path / "merged.sqlite")
        with pytest.raises(MergeError, match="token"):
            merge_stores(dest, [tampered])

    def test_merge_into_itself_is_refused(self, sharded_env):
        with pytest.raises(MergeError, match="itself"):
            merge_stores(sharded_env["shards"][0], [sharded_env["shards"][0]])

    def test_missing_source_is_refused(self, tmp_path):
        with pytest.raises(MergeError, match="no store database"):
            merge_stores(
                str(tmp_path / "dest.sqlite"), [str(tmp_path / "nope.sqlite")]
            )

    def test_merge_needs_sources(self, tmp_path):
        with pytest.raises(MergeError, match="at least one source"):
            merge_stores(str(tmp_path / "dest.sqlite"), [])


# ---------------------------------------------------------------------------
# CLI workflow: N processes, one merge, byte-identical report
# ---------------------------------------------------------------------------


class TestCliSharding:
    ARGS = (
        "--workload", "intbench", "--backend", "iss", "--sites", "2",
        "--seed", "7", "--quiet",
    )

    def test_three_shard_cli_workflow(self, tmp_path, capsys):
        serial = str(tmp_path / "serial.sqlite")
        assert cli_main(
            ["campaign", "run", *self.ARGS, "--store", serial]
        ) == 0
        capsys.readouterr()

        shard_paths = []
        for shard_index in range(3):
            path = str(tmp_path / f"shard{shard_index}.sqlite")
            shard_paths.append(path)
            assert cli_main(
                [
                    "campaign", "run", *self.ARGS,
                    "--shards", "3", "--shard-index", str(shard_index),
                    "--store", path,
                ]
            ) == 0
            out = capsys.readouterr().out
            assert f"shard {shard_index} of 3" in out
            assert "repro store merge" in out

        # A shard store's status names which siblings are missing.
        assert cli_main(["campaign", "status", "--store", shard_paths[1]]) == 0
        out = capsys.readouterr().out
        assert "running" in out
        assert "holds 1 of 3" in out
        assert "missing 0,2" in out

        merged = str(tmp_path / "merged.sqlite")
        assert cli_main(["store", "merge", merged, *shard_paths]) == 0
        out = capsys.readouterr().out
        assert "6 outcomes inserted" in out
        assert "complete" in out

        assert cli_main(["campaign", "status", "--store", merged]) == 0
        out = capsys.readouterr().out
        assert "complete" in out
        assert "holds all 3 shards" in out

        # The bit-identity gate, byte for byte on the user-facing payload.
        assert cli_main(
            ["campaign", "report", "--json", "--store", merged]
        ) == 0
        merged_report = capsys.readouterr().out
        assert cli_main(
            ["campaign", "report", "--json", "--store", serial]
        ) == 0
        assert merged_report == capsys.readouterr().out

        # The merged store carries a folded run manifest.
        assert cli_main(["campaign", "metrics", "--store", merged]) == 0
        out = capsys.readouterr().out
        assert "merged_runs=3" in out

    def test_cli_resume_of_a_shard_store_stays_in_its_slice(
        self, tmp_path, capsys
    ):
        path = str(tmp_path / "shard0.sqlite")
        assert cli_main(
            [
                "campaign", "run", *self.ARGS,
                "--shards", "3", "--shard-index", "0", "--store", path,
            ]
        ) == 0
        capsys.readouterr()
        with CampaignStore(path) as store:
            info = _only_info(store)
            done_before = info.done_jobs
        assert cli_main(
            ["campaign", "resume", "--key", info.key[:10], "--store", path,
             "--quiet"]
        ) == 0
        out = capsys.readouterr().out
        # The resume recognises the single shard row and does not execute the
        # other shards' jobs into this store.
        assert "executed 0 injections" in out
        assert f"served {done_before} from the store" in out
        with CampaignStore(path) as store:
            assert _only_info(store).done_jobs == done_before

    def test_gc_keeps_shard_stores(self, tmp_path, capsys):
        path = str(tmp_path / "shard0.sqlite")
        assert cli_main(
            [
                "campaign", "run", *self.ARGS,
                "--shards", "3", "--shard-index", "0", "--store", path,
            ]
        ) == 0
        capsys.readouterr()
        # The shard campaign is incomplete by design; gc must keep it.
        assert cli_main(["store", "gc", "--store", path]) == 0
        assert "removed 0" in capsys.readouterr().out
        with CampaignStore(path) as store:
            assert len(store.list_campaigns()) == 1
