"""The campaign result store: durable, resumable, content-addressed campaigns.

:class:`CampaignStore` persists campaign plans and their streamed
:class:`~repro.engine.jobs.OutcomeRecord`s in a single SQLite database
(stdlib-only).  Campaigns are addressed by the content key of
:func:`repro.store.keys.campaign_key`, which gives the two properties the
methodology needs:

* **Resumability** — an interrupted campaign keeps every outcome committed up
  to the last chunk; re-running the same campaign executes only the missing
  jobs and merges, bit-identically, with the stored prefix.
* **Incrementality** — a campaign whose key already has all its outcomes is a
  pure cache hit: zero injections re-execute, results are served straight
  from the store.

The engine talks to the store through :meth:`CampaignStore.begin_campaign`,
which returns a :class:`CampaignSession` scoped to one campaign key; the
session exposes the stored records, chunked commits and completion marking.
Rows are written only by the scheduler's parent process, so a single
connection with SQLite's own locking is sufficient.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.engine.jobs import InjectionJob, OutcomeRecord, TransientJob
from repro.faultinjection.comparison import FailureClass
from repro.isa.assembler import Program
from repro.rtl.faults import FaultModel
from repro.rtl.sites import FaultSite

from repro.obs.clock import utc_isoformat, wallclock
from repro.obs.telemetry import TELEMETRY

from repro.store.keys import backend_identity, campaign_key, transient_token
from repro.store.schema import StoreError, apply_schema

__all__ = [
    "COUNTER_NAMES",
    "CampaignInfo",
    "CampaignSession",
    "CampaignStore",
    "ShardInfo",
    "StoreError",
    "breakdown_rows",
    "report_payload",
]

#: Store-wide counters maintained by the engine integration.
COUNTER_NAMES = ("jobs_executed", "jobs_cached", "campaign_hits")


def _utcnow() -> str:
    # Row timestamps are result-transparent bookkeeping (created_at /
    # updated_at); the one sanctioned clock read keeps them out of any key.
    return utc_isoformat(wallclock())


@dataclass(frozen=True)
class CampaignInfo:
    """One row of ``repro store ls`` / ``repro campaign status``."""

    key: str
    workload: str
    unit_scope: str
    backend: str
    seed: int
    sample_size: Optional[int]
    total_jobs: int
    done_jobs: int
    status: str
    hit_count: int
    created_at: str
    updated_at: str
    config: Dict[str, Any]

    @property
    def complete(self) -> bool:
        return self.status == "complete" and self.done_jobs >= self.total_jobs

    @property
    def progress(self) -> float:
        if self.total_jobs == 0:
            return 1.0
        return self.done_jobs / self.total_jobs


@dataclass(frozen=True)
class ShardInfo:
    """One row of the ``shards`` table: a slice of a sharded campaign that
    this store holds (or held, on a merged store) — see
    :mod:`repro.engine.sharding`."""

    shard_count: int
    shard_index: int
    token: str
    job_lo: int
    job_hi: int


class CampaignStore:
    """SQLite-backed persistence for fault-injection campaigns."""

    def __init__(self, path: Union[str, Path] = "campaigns.sqlite") -> None:
        if str(path) != ":memory:":
            path = Path(path).expanduser()
            path.resolve().parent.mkdir(parents=True, exist_ok=True)
        self.path = str(path)
        self._conn = sqlite3.connect(self.path, timeout=30.0)
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA foreign_keys = ON")
        if self.path != ":memory:":
            self._conn.execute("PRAGMA journal_mode = WAL")
        apply_schema(self._conn)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- campaign sessions (engine hook) ------------------------------------------

    def begin_campaign(
        self,
        *,
        program: Program,
        sites: Sequence[FaultSite],
        fault_models: Sequence[FaultModel],
        seed: int,
        unit_scope: str,
        sample_size: Optional[int],
        max_instructions: int,
        backend_name: str,
        backend_factory: Callable[[], object],
        total_jobs: int,
        transient_jobs: Optional[Sequence[TransientJob]] = None,
        transient_config: Optional[Dict[str, Any]] = None,
    ) -> "CampaignSession":
        """Open (or create) the campaign row for this exact plan content.

        Transient campaigns pass their planned job list and window
        parameters; both extend the content key (so a transient campaign can
        never alias a permanent one) and the stored configuration (so the CLI
        can rebuild the plan for ``repro campaign resume``).
        """
        backend_id = backend_identity(backend_name, backend_factory)
        transient: Optional[Dict[str, Any]] = None
        if transient_jobs is not None:
            transient = dict(transient_config or {})
            transient["jobs"] = [transient_token(job) for job in transient_jobs]
        key = campaign_key(
            program=program,
            sites=sites,
            fault_models=fault_models,
            seed=seed,
            backend_id=backend_id,
            unit_scope=unit_scope,
            sample_size=sample_size,
            max_instructions=max_instructions,
            transient=transient,
        )
        config: Dict[str, Any] = {
            "workload": program.name,
            "unit_scope": unit_scope,
            "sample_size": sample_size,
            "seed": seed,
            "max_instructions": max_instructions,
            "fault_models": [model.value for model in fault_models],
            "backend": backend_name,
        }
        if transient_config is not None:
            config["transient"] = dict(transient_config)
        now = _utcnow()
        with self._conn:
            self._conn.execute(
                """
                INSERT INTO campaigns (
                    key, workload, unit_scope, backend, seed, sample_size,
                    max_instructions, fault_models, total_jobs, status,
                    config_json, created_at, updated_at
                ) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, 'running', ?, ?, ?)
                ON CONFLICT (key) DO NOTHING
                """,
                (
                    key,
                    program.name,
                    unit_scope,
                    backend_name,
                    seed,
                    sample_size,
                    max_instructions,
                    json.dumps(config["fault_models"]),
                    total_jobs,
                    json.dumps(config, sort_keys=True),
                    now,
                    now,
                ),
            )
        return CampaignSession(store=self, key=key)

    # -- counters ----------------------------------------------------------------

    def bump(self, name: str, delta: int) -> None:
        if delta == 0:
            return
        with self._conn:
            self._conn.execute(
                """
                INSERT INTO counters (name, value) VALUES (?, ?)
                ON CONFLICT (name) DO UPDATE SET value = value + excluded.value
                """,
                (name, delta),
            )

    def counters(self) -> Dict[str, int]:
        """Store-wide statistics (executed vs. cache-served jobs)."""
        values = {name: 0 for name in COUNTER_NAMES}
        for row in self._conn.execute("SELECT name, value FROM counters"):
            values[row["name"]] = row["value"]
        return values

    # -- queries -----------------------------------------------------------------

    def _campaign_row(self, key: str) -> Optional[sqlite3.Row]:
        return self._conn.execute(
            "SELECT * FROM campaigns WHERE key = ?", (key,)
        ).fetchone()

    def resolve_key(self, prefix: str) -> str:
        """Expand a unique key prefix into the full campaign key."""
        rows = self._conn.execute(
            "SELECT key FROM campaigns WHERE key LIKE ? ORDER BY key",
            (prefix + "%",),
        ).fetchall()
        if not rows:
            raise StoreError(f"no campaign matches key prefix {prefix!r}")
        if len(rows) > 1:
            raise StoreError(
                f"key prefix {prefix!r} is ambiguous "
                f"({len(rows)} campaigns match)"
            )
        return rows[0]["key"]

    def _info_from_row(self, row: sqlite3.Row, done: int) -> CampaignInfo:
        return CampaignInfo(
            key=row["key"],
            workload=row["workload"],
            unit_scope=row["unit_scope"],
            backend=row["backend"],
            seed=row["seed"],
            sample_size=row["sample_size"],
            total_jobs=row["total_jobs"],
            done_jobs=done,
            status=row["status"],
            hit_count=row["hit_count"],
            created_at=row["created_at"],
            updated_at=row["updated_at"],
            config=json.loads(row["config_json"]),
        )

    def campaign_info(self, key: str) -> CampaignInfo:
        row = self._campaign_row(key)
        if row is None:
            raise StoreError(f"no campaign with key {key!r}")
        (done,) = self._conn.execute(
            "SELECT COUNT(*) FROM outcomes WHERE campaign_key = ?", (key,)
        ).fetchone()
        return self._info_from_row(row, done)

    def list_campaigns(self) -> List[CampaignInfo]:
        rows = self._conn.execute(
            """
            SELECT c.*, COUNT(o.job_index) AS done
            FROM campaigns c LEFT JOIN outcomes o ON o.campaign_key = c.key
            GROUP BY c.key ORDER BY c.created_at, c.key
            """
        ).fetchall()
        return [self._info_from_row(row, row["done"]) for row in rows]

    def stored_records(self, key: str) -> List[OutcomeRecord]:
        """Reconstruct the committed outcome records of a campaign, in order."""
        row = self._campaign_row(key)
        if row is None:
            raise StoreError(f"no campaign with key {key!r}")
        workload = row["workload"]
        records: List[OutcomeRecord] = []
        for outcome in self._conn.execute(
            "SELECT * FROM outcomes WHERE campaign_key = ? ORDER BY job_index",
            (key,),
        ):
            site = FaultSite(
                net=outcome["net"],
                bit=outcome["bit"],
                unit=outcome["unit"],
                index=outcome["cell_index"],
            )
            if outcome["start_cycle"] is not None:
                job: InjectionJob = TransientJob(
                    index=outcome["job_index"],
                    site=site,
                    start_cycle=outcome["start_cycle"],
                    duration=outcome["duration"],
                    workload=workload,
                )
            else:
                job = InjectionJob(
                    index=outcome["job_index"],
                    site=site,
                    fault_model=FaultModel(outcome["fault_model"]),
                    workload=workload,
                )
            records.append(
                OutcomeRecord(
                    job=job,
                    failure_class=FailureClass(outcome["failure_class"]),
                    detection_cycle=outcome["detection_cycle"],
                    faulty_instructions=outcome["faulty_instructions"],
                    seconds=outcome["seconds"],
                )
            )
        return records

    def shard_rows(self, key: str) -> List[ShardInfo]:
        """The shard slices of a campaign recorded in this store, in shard
        order (empty for unsharded campaigns)."""
        return [
            ShardInfo(
                shard_count=row["shard_count"],
                shard_index=row["shard_index"],
                token=row["token"],
                job_lo=row["job_lo"],
                job_hi=row["job_hi"],
            )
            for row in self._conn.execute(
                "SELECT * FROM shards WHERE campaign_key = ? "
                "ORDER BY shard_count, shard_index",
                (key,),
            )
        ]

    def breakdown(self, key: str) -> Dict[str, Dict[str, int]]:
        """Per-fault-model classification histogram of the stored outcomes."""
        per_model: Dict[str, Dict[str, int]] = {}
        for row in self._conn.execute(
            """
            SELECT fault_model, failure_class, COUNT(*) AS n
            FROM outcomes WHERE campaign_key = ?
            GROUP BY fault_model, failure_class
            """,
            (key,),
        ):
            per_model.setdefault(row["fault_model"], {})[row["failure_class"]] = (
                row["n"]
            )
        return per_model

    # -- run manifests (telemetry artifacts) ----------------------------------------

    def put_manifest(self, key: str, payload: Dict[str, Any]) -> int:
        """Append one run manifest under *key*; returns its run index.

        Manifests are result-transparent (metrics, environment, wall clock —
        never outcomes), so they live beside the campaign rather than in its
        content key, and each run of the same campaign appends a new row.
        """
        if self._campaign_row(key) is None:
            raise StoreError(f"no campaign with key {key!r}")
        with self._conn:
            (run_index,) = self._conn.execute(
                "SELECT COALESCE(MAX(run_index), -1) + 1 FROM manifests "
                "WHERE campaign_key = ?",
                (key,),
            ).fetchone()
            self._conn.execute(
                """
                INSERT INTO manifests (campaign_key, run_index, payload,
                                       created_at)
                VALUES (?, ?, ?, ?)
                """,
                (key, run_index, json.dumps(payload, sort_keys=True), _utcnow()),
            )
        return run_index

    def get_manifest(
        self, key: str, run_index: Optional[int] = None
    ) -> Optional[Dict[str, Any]]:
        """The manifest of one run (latest when *run_index* is ``None``)."""
        if run_index is None:
            row = self._conn.execute(
                "SELECT payload FROM manifests WHERE campaign_key = ? "
                "ORDER BY run_index DESC LIMIT 1",
                (key,),
            ).fetchone()
        else:
            row = self._conn.execute(
                "SELECT payload FROM manifests WHERE campaign_key = ? "
                "AND run_index = ?",
                (key, run_index),
            ).fetchone()
        return None if row is None else json.loads(row["payload"])

    def list_manifests(self, key: str) -> List[Dict[str, Any]]:
        """Every stored run manifest of a campaign, oldest first."""
        return [
            json.loads(row["payload"])
            for row in self._conn.execute(
                "SELECT payload FROM manifests WHERE campaign_key = ? "
                "ORDER BY run_index",
                (key,),
            )
        ]

    # -- memos (non-campaign artifacts) --------------------------------------------

    def memo_get(self, key: str) -> Optional[Dict[str, Any]]:
        row = self._conn.execute(
            "SELECT payload FROM memos WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else json.loads(row["payload"])

    def memo_put(self, key: str, kind: str, payload: Dict[str, Any]) -> None:
        with self._conn:
            self._conn.execute(
                """
                INSERT INTO memos (key, kind, payload, created_at)
                VALUES (?, ?, ?, ?)
                ON CONFLICT (key) DO UPDATE
                    SET payload = excluded.payload, kind = excluded.kind
                """,
                (key, kind, json.dumps(payload, sort_keys=True), _utcnow()),
            )

    # -- the unused schema-v5 artifact tables ------------------------------------

    def artifact_get(self, key: str) -> Optional[bytes]:
        """The ``artifacts`` row payload under *key*, or ``None``.

        Nothing in the program reads or writes these rows any more (the
        golden-artifact cache they held was retired; :meth:`gc` deletes
        leftovers).  This method and :meth:`artifact_put` stay only because
        paperbench's layer hooks resolve both by name; a benchmark change
        can drop the hooks and the methods together.
        """
        row = self._conn.execute(
            "SELECT payload FROM artifacts WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else bytes(row["payload"])

    def artifact_put(
        self, key: str, kind: str, workload: str, backend: str, payload: bytes
    ) -> bool:
        """Insert an ``artifacts`` row; returns whether one was inserted.

        Unused by the program — kept for paperbench's layer hooks only (see
        :meth:`artifact_get`).
        """
        now = _utcnow()
        with self._conn:
            cursor = self._conn.execute(
                """
                INSERT INTO artifacts
                    (key, kind, workload, backend, payload, size_bytes,
                     created_at, last_used_at)
                VALUES (?, ?, ?, ?, ?, ?, ?, ?)
                ON CONFLICT (key) DO NOTHING
                """,
                (key, kind, workload, backend, payload, len(payload), now, now),
            )
        return cursor.rowcount > 0

    # -- garbage collection -----------------------------------------------------------

    def gc(self, all_campaigns: bool = False) -> Dict[str, int]:
        """Delete incomplete campaigns (or everything with ``all_campaigns``).

        Returns the number of campaigns, outcomes, memos and leftover
        artifact rows removed.  The database is vacuumed afterwards so the
        space is actually reclaimed.

        An incomplete campaign is *kept* when it is still reachable from a
        run manifest or a shard row: a shard store's campaign is incomplete
        by design (it awaits ``repro store merge``), and a campaign whose
        telemetry manifest was persisted finished a run someone may still
        want to inspect.  Only unreferenced interrupted campaigns — the
        abandoned-run debris gc exists for — are collected.
        ``all_campaigns`` overrides the reachability protection.

        Every row of the unused schema-v5 ``artifacts`` / ``artifact_refs``
        tables is deleted unconditionally: nothing reads them.
        """
        where = (
            ""
            if all_campaigns
            else (
                "WHERE status != 'complete' "
                "AND key NOT IN (SELECT campaign_key FROM manifests) "
                "AND key NOT IN (SELECT campaign_key FROM shards)"
            )
        )
        with self._conn:
            (outcomes,) = self._conn.execute(
                f"""
                SELECT COUNT(*) FROM outcomes WHERE campaign_key IN
                    (SELECT key FROM campaigns {where})
                """
            ).fetchone()
            campaigns = self._conn.execute(
                f"DELETE FROM campaigns {where}"
            ).rowcount
            memos = 0
            if all_campaigns:
                memos = self._conn.execute("DELETE FROM memos").rowcount
            self._conn.execute("DELETE FROM artifact_refs")
            artifacts = self._conn.execute("DELETE FROM artifacts").rowcount
        self._conn.execute("VACUUM")
        return {
            "campaigns": campaigns,
            "outcomes": outcomes,
            "memos": memos,
            "artifacts": artifacts,
        }


@dataclass
class CampaignSession:
    """A store handle scoped to one campaign key (what the engine drives)."""

    store: CampaignStore
    key: str

    # -- state -------------------------------------------------------------------

    @property
    def info(self) -> CampaignInfo:
        return self.store.campaign_info(self.key)

    def stored_records(self) -> List[OutcomeRecord]:
        return self.store.stored_records(self.key)

    # -- writes ------------------------------------------------------------------

    def record_golden(self, instructions: int, cycles: int, transactions: int) -> None:
        """Persist the golden-run stats (needed to serve pure cache hits)."""
        with self.store._conn:
            self.store._conn.execute(
                """
                UPDATE campaigns SET golden_instructions = ?, golden_cycles = ?,
                       golden_transactions = ?, updated_at = ?
                WHERE key = ?
                """,
                (instructions, cycles, transactions, _utcnow(), self.key),
            )

    def golden_stats(self) -> Optional[Dict[str, int]]:
        row = self.store._campaign_row(self.key)
        if row is None or row["golden_instructions"] is None:
            return None
        return {
            "instructions": row["golden_instructions"],
            "cycles": row["golden_cycles"],
            "transactions": row["golden_transactions"],
        }

    def commit(self, records: Sequence[OutcomeRecord]) -> None:
        """Commit one chunk of finished outcomes atomically (idempotent).

        Each chunk commit is one ``store.commit`` span (commit latency) plus
        an outcome counter when telemetry is enabled.
        """
        if not records:
            return
        with TELEMETRY.span("store.commit"):
            self._commit(records)
        TELEMETRY.inc("store.outcomes_committed", len(records))

    def _commit(self, records: Sequence[OutcomeRecord]) -> None:
        rows = [
            (
                self.key,
                record.job.index,
                record.job.fault_model.value,
                record.job.site.net,
                record.job.site.bit,
                record.job.site.unit,
                record.job.site.index,
                record.failure_class.value,
                record.detection_cycle,
                record.faulty_instructions,
                record.seconds,
                getattr(record.job, "start_cycle", None),
                getattr(record.job, "duration", None),
            )
            for record in records
        ]
        with self.store._conn:
            self.store._conn.executemany(
                """
                INSERT INTO outcomes (
                    campaign_key, job_index, fault_model, net, bit, unit,
                    cell_index, failure_class, detection_cycle,
                    faulty_instructions, seconds, start_cycle, duration
                ) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                ON CONFLICT (campaign_key, job_index) DO NOTHING
                """,
                rows,
            )
            self.store._conn.execute(
                "UPDATE campaigns SET updated_at = ? WHERE key = ?",
                (_utcnow(), self.key),
            )

    def reset(self) -> None:
        """Drop the committed outcomes (forced re-execution, ``resume=False``)."""
        with self.store._conn:
            self.store._conn.execute(
                "DELETE FROM outcomes WHERE campaign_key = ?", (self.key,)
            )
            self.store._conn.execute(
                "UPDATE campaigns SET status = 'running', updated_at = ? "
                "WHERE key = ?",
                (_utcnow(), self.key),
            )

    def put_manifest(self, payload: Dict[str, Any]) -> int:
        """Append this run's telemetry manifest (see
        :meth:`CampaignStore.put_manifest`)."""
        return self.store.put_manifest(self.key, payload)

    def get_manifest(
        self, run_index: Optional[int] = None
    ) -> Optional[Dict[str, Any]]:
        return self.store.get_manifest(self.key, run_index)

    def mark_complete(self) -> None:
        with self.store._conn:
            self.store._conn.execute(
                "UPDATE campaigns SET status = 'complete', updated_at = ? "
                "WHERE key = ?",
                (_utcnow(), self.key),
            )

    def mark_complete_if_done(self) -> bool:
        """Mark the campaign complete iff every planned outcome is committed.

        The completion gate of sharded execution: a shard run finishes its
        own slice with the store still short of ``total_jobs`` rows, so its
        store correctly stays ``running`` (awaiting ``repro store merge``),
        while an unsharded run — or the last shard executed against a shared
        store file — crosses the threshold and completes.  Returns whether
        the campaign is now complete.
        """
        (done,) = self.store._conn.execute(
            "SELECT COUNT(*) FROM outcomes WHERE campaign_key = ?",
            (self.key,),
        ).fetchone()
        row = self.store._campaign_row(self.key)
        if row is None or done < row["total_jobs"]:
            return False
        self.mark_complete()
        return True

    def record_shard(
        self,
        shard_count: int,
        shard_index: int,
        token: str,
        job_lo: int,
        job_hi: int,
    ) -> None:
        """Record which shard slice this store executes (idempotent).

        The row marks the store as a deliberate partial artifact — gc keeps
        its incomplete campaign — and carries the derived shard token that
        ``repro store merge`` re-derives and cross-checks.
        """
        with self.store._conn:
            self.store._conn.execute(
                """
                INSERT INTO shards (campaign_key, shard_count, shard_index,
                                    token, job_lo, job_hi, created_at)
                VALUES (?, ?, ?, ?, ?, ?, ?)
                ON CONFLICT (campaign_key, shard_count, shard_index)
                DO NOTHING
                """,
                (self.key, shard_count, shard_index, token, job_lo, job_hi,
                 _utcnow()),
            )

    def register_hit(self) -> None:
        with self.store._conn:
            self.store._conn.execute(
                "UPDATE campaigns SET hit_count = hit_count + 1 WHERE key = ?",
                (self.key,),
            )
        self.store.bump("campaign_hits", 1)


# ---------------------------------------------------------------------------
# Aggregated reports
# ---------------------------------------------------------------------------
#
# The one definition of "the campaign report" — shared by the CLI
# (``repro campaign report``) and by the sharding bit-identity gate
# (tests/test_sharding.py, the CI 3-shard smoke job), so the
# merge(shards) == unsharded comparison is byte-for-byte on exactly the
# payload users read.

def breakdown_rows(
    store: CampaignStore, info: CampaignInfo
) -> List[Tuple[str, int, int, float, Dict[str, int]]]:
    """(model, injections, failures, Pf, histogram) rows from stored outcomes."""
    breakdown = store.breakdown(info.key)
    rows: List[Tuple[str, int, int, float, Dict[str, int]]] = []
    for model_value in info.config.get("fault_models", sorted(breakdown)):
        histogram = breakdown.get(model_value, {})
        injections = sum(histogram.values())
        failures = sum(
            count
            for failure_class, count in histogram.items()
            if FailureClass(failure_class).is_failure
        )
        pf = failures / injections if injections else 0.0
        rows.append((model_value, injections, failures, pf, histogram))
    return rows


def report_payload(store: CampaignStore, info: CampaignInfo) -> Dict[str, Any]:
    """The machine-readable campaign report (``repro campaign report --json``).

    A pure function of the stored outcome rows and the content-derived
    campaign metadata — no timestamps, no telemetry — so a merged shard set
    and the equivalent unsharded campaign render byte-identical payloads.
    """
    return {
        "key": info.key,
        "workload": info.workload,
        "unit_scope": info.unit_scope,
        "backend": info.backend,
        "seed": info.seed,
        "status": info.status,
        "total_jobs": info.total_jobs,
        "done_jobs": info.done_jobs,
        "models": [
            {
                "fault_model": model,
                "injections": injections,
                "failures": failures,
                "failure_probability": pf,
                "classification": histogram,
            }
            for model, injections, failures, pf, histogram
            in breakdown_rows(store, info)
        ],
    }
