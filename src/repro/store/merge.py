"""Folding N shard stores back into one canonical campaign store.

The merge side of :mod:`repro.engine.sharding`: each shard of a campaign
executed its slice of the canonical plan against its own SQLite store file,
committing outcomes under the *parent* campaign's content-addressed key with
the parent plan's job indices.  Because the slices are disjoint and the key
pins down everything that can influence a result, merging is safe by
construction — :func:`merge_stores` only has to copy rows and *verify* that
construction held:

* **Conflict policy (hard error).**  The same ``(campaign key, job index)``
  with a different outcome in two stores means the bit-identity contract was
  broken somewhere (hand-edited store, mismatched code versions behind one
  key): :class:`MergeConflictError` names the campaign key, the job index,
  both store paths and both rows, and nothing is committed for that
  campaign.  The comparison covers every result column; only ``seconds``
  (wall-clock cost of the original execution, result-transparent) is
  excluded.
* **Idempotence.**  A row already present with an identical outcome is a
  duplicate, not a conflict — re-merging the same shard stores inserts zero
  rows and leaves the report byte-identical.
* **Completion gate.**  A campaign is marked complete only when the merged
  store holds exactly ``total_jobs`` outcomes covering the contiguous index
  range ``0..total_jobs-1``; a partial shard set stays ``running`` and
  ``repro campaign status`` shows which shards are missing.
* **Manifest folding.**  The latest telemetry manifest of each source store
  is folded into one merged run manifest (counters and histograms add,
  wall-clock sums — the same :meth:`TelemetryRegistry.merge
  <repro.obs.telemetry.TelemetryRegistry.merge>` semantics the
  multiprocessing scheduler uses for worker deltas).

The end-to-end gate — ``merge(run_shard(0..N-1))`` report and outcome rows
bit-identical to the unsharded campaign — is enforced by
``tests/test_sharding.py`` and the CI 3-shard smoke job.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple, Union

from repro.engine.sharding import shard_token
from repro.obs.clock import utc_isoformat, wallclock
from repro.obs.telemetry import TelemetryRegistry

from repro.store.store import CampaignStore, StoreError

__all__ = [
    "MergeConflictError",
    "MergeError",
    "MergeReport",
    "CampaignMergeResult",
    "fold_manifests",
    "merge_stores",
    "missing_shards",
]

#: Outcome columns compared for conflicts: the full result identity of one
#: injection.  ``seconds`` is deliberately absent — it records the wall-clock
#: cost of the original execution (result-transparent), and two honest
#: executions of the same job may legitimately differ in it.
RESULT_COLUMNS = (
    "fault_model",
    "net",
    "bit",
    "unit",
    "cell_index",
    "failure_class",
    "detection_cycle",
    "faulty_instructions",
    "start_cycle",
    "duration",
)

#: Campaign columns that are pure functions of the content key and must
#: therefore agree wherever the same key appears.
_CAMPAIGN_IDENTITY_COLUMNS = ("workload", "unit_scope", "backend", "seed",
                              "sample_size", "max_instructions",
                              "fault_models", "total_jobs", "config_json")


class MergeError(StoreError):
    """A store merge that cannot proceed (unusable inputs, broken coverage)."""


class MergeConflictError(MergeError):
    """Two stores disagree on the outcome of one job of one campaign.

    This is the safety property everything else assumes: under one
    content-addressed key all results are bit-identical, so a disagreement
    means a store was edited or produced by diverging code.  The merge
    refuses rather than silently picking a winner.
    """

    def __init__(
        self,
        campaign_key: str,
        job_index: int,
        dest_path: str,
        source_path: str,
        dest_row: Dict[str, Any],
        source_row: Dict[str, Any],
    ) -> None:
        self.campaign_key = campaign_key
        self.job_index = job_index
        self.dest_path = dest_path
        self.source_path = source_path
        self.dest_row = dest_row
        self.source_row = source_row
        differing = [
            column
            for column in RESULT_COLUMNS
            if dest_row.get(column) != source_row.get(column)
        ]

        def render(row: Dict[str, Any]) -> str:
            return " ".join(f"{column}={row.get(column)!r}" for column in differing)

        super().__init__(
            f"outcome conflict for campaign {campaign_key} job {job_index}: "
            f"{dest_path} holds {campaign_key[:12]}[{job_index}] "
            f"{render(dest_row)} but {source_path} holds "
            f"{campaign_key[:12]}[{job_index}] {render(source_row)}; stores "
            f"of one campaign key must agree bit-for-bit — refusing to merge"
        )


@dataclass(frozen=True)
class CampaignMergeResult:
    """Per-campaign accounting of one :func:`merge_stores` call."""

    key: str
    inserted: int
    duplicates: int
    total_jobs: int
    done_jobs: int
    complete: bool
    #: shard_count -> sorted missing shard indices, for every recorded shard
    #: set that is still incomplete in the merged store.
    missing_shards: Dict[int, Tuple[int, ...]]


@dataclass(frozen=True)
class MergeReport:
    """What one :func:`merge_stores` call did."""

    dest: str
    sources: Tuple[str, ...]
    campaigns: Tuple[CampaignMergeResult, ...]

    @property
    def inserted(self) -> int:
        return sum(campaign.inserted for campaign in self.campaigns)

    @property
    def duplicates(self) -> int:
        return sum(campaign.duplicates for campaign in self.campaigns)


def missing_shards(store: CampaignStore, key: str) -> Dict[int, Tuple[int, ...]]:
    """Missing shard indices per recorded shard set of a campaign.

    ``{3: (1,)}`` reads "of the 3-way shard set, shard 1 has not been merged
    in yet".  Empty for unsharded campaigns and for fully assembled sets.
    """
    present: Dict[int, List[int]] = {}
    for row in store.shard_rows(key):
        present.setdefault(row.shard_count, []).append(row.shard_index)
    return {
        count: tuple(index for index in range(count) if index not in indices)
        for count, indices in sorted(present.items())
        if len(indices) < count
    }


def fold_manifests(payloads: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-shard run manifests into one merged run manifest.

    Metric series merge exactly like worker deltas (counters and histograms
    add, gauges last-write-wins); wall-clock seconds sum (the aggregate
    simulation cost across shards); the environment is taken from the first
    manifest and the execution section drops the per-shard coordinate.
    """
    if not payloads:
        raise ValueError("fold_manifests needs at least one manifest")
    registry = TelemetryRegistry()
    for payload in payloads:
        registry.merge(payload.get("metrics"))
    execution = {
        key: value
        for key, value in payloads[0].get("execution", {}).items()
        if key != "shard_index"
    }
    execution["merged_runs"] = len(payloads)
    return {
        "manifest_version": 1,
        "created_at": utc_isoformat(wallclock()),
        "wall_seconds": sum(p.get("wall_seconds", 0.0) for p in payloads),
        "environment": dict(payloads[0].get("environment", {})),
        "execution": execution,
        "metrics": registry.snapshot(),
    }


def _row_dict(row: sqlite3.Row) -> Dict[str, Any]:
    return {key: row[key] for key in row.keys()}


def _insert_row(
    conn: sqlite3.Connection, table: str, row: sqlite3.Row
) -> None:
    columns = list(row.keys())
    placeholders = ", ".join("?" for _ in columns)
    conn.execute(
        f"INSERT INTO {table} ({', '.join(columns)}) VALUES ({placeholders})",
        tuple(row[column] for column in columns),
    )


def _merge_campaign_row(
    dest: CampaignStore,
    source: CampaignStore,
    source_path: str,
    key: str,
) -> None:
    """Create or reconcile the campaign row for *key* in the merged store."""
    source_row = source._campaign_row(key)
    assert source_row is not None
    dest_row = dest._campaign_row(key)
    if dest_row is None:
        with dest._conn:
            _insert_row(dest._conn, "campaigns", source_row)
        return
    for column in _CAMPAIGN_IDENTITY_COLUMNS:
        if dest_row[column] != source_row[column]:
            raise MergeError(
                f"campaign {key[:12]} disagrees on {column!r} between "
                f"{dest.path} ({dest_row[column]!r}) and {source_path} "
                f"({source_row[column]!r}); one of the stores is corrupt "
                f"(the column is derived from the content key)"
            )
    # Golden-run stats are results: both sides set and differing is the same
    # contract violation as an outcome conflict.
    if source_row["golden_instructions"] is not None:
        if dest_row["golden_instructions"] is None:
            with dest._conn:
                dest._conn.execute(
                    """
                    UPDATE campaigns SET golden_instructions = ?,
                           golden_cycles = ?, golden_transactions = ?
                    WHERE key = ?
                    """,
                    (
                        source_row["golden_instructions"],
                        source_row["golden_cycles"],
                        source_row["golden_transactions"],
                        key,
                    ),
                )
        else:
            for column in ("golden_instructions", "golden_cycles",
                           "golden_transactions"):
                if dest_row[column] != source_row[column]:
                    raise MergeError(
                        f"campaign {key[:12]} disagrees on {column!r} "
                        f"between {dest.path} ({dest_row[column]!r}) and "
                        f"{source_path} ({source_row[column]!r}); golden-run "
                        f"stats are results and must be bit-identical under "
                        f"one key — refusing to merge"
                    )


def _merge_shard_rows(
    dest: CampaignStore, source: CampaignStore, source_path: str, key: str
) -> None:
    """Copy shard provenance rows, cross-checking the derived tokens."""
    for row in source._conn.execute(
        "SELECT * FROM shards WHERE campaign_key = ? "
        "ORDER BY shard_count, shard_index",
        (key,),
    ):
        expected = shard_token(key, row["shard_count"], row["shard_index"])
        if row["token"] != expected:
            raise MergeError(
                f"shard row {row['shard_index']}/{row['shard_count']} of "
                f"campaign {key[:12]} in {source_path} carries token "
                f"{row['token'][:12]}, expected {expected[:12]} (derived "
                f"from the campaign key); the store does not belong to this "
                f"campaign — refusing to merge"
            )
        with dest._conn:
            dest._conn.execute(
                """
                INSERT INTO shards (campaign_key, shard_count, shard_index,
                                    token, job_lo, job_hi, created_at)
                VALUES (?, ?, ?, ?, ?, ?, ?)
                ON CONFLICT (campaign_key, shard_count, shard_index)
                DO NOTHING
                """,
                (
                    key,
                    row["shard_count"],
                    row["shard_index"],
                    row["token"],
                    row["job_lo"],
                    row["job_hi"],
                    row["created_at"],
                ),
            )


def _merge_outcomes(
    dest: CampaignStore, source: CampaignStore, source_path: str, key: str
) -> Tuple[int, int]:
    """Fold *source*'s outcome rows for one campaign; (inserted, duplicates)."""
    existing = {
        row["job_index"]: row
        for row in dest._conn.execute(
            "SELECT * FROM outcomes WHERE campaign_key = ?", (key,)
        )
    }
    inserted = 0
    duplicates = 0
    with dest._conn:
        for row in source._conn.execute(
            "SELECT * FROM outcomes WHERE campaign_key = ? ORDER BY job_index",
            (key,),
        ):
            held = existing.get(row["job_index"])
            if held is None:
                _insert_row(dest._conn, "outcomes", row)
                inserted += 1
                continue
            if any(held[column] != row[column] for column in RESULT_COLUMNS):
                raise MergeConflictError(
                    campaign_key=key,
                    job_index=row["job_index"],
                    dest_path=dest.path,
                    source_path=source_path,
                    dest_row=_row_dict(held),
                    source_row=_row_dict(row),
                )
            duplicates += 1
    return inserted, duplicates


def _finalize_campaign(
    dest: CampaignStore, key: str, inserted: int, duplicates: int
) -> CampaignMergeResult:
    """Apply the completion gate and collect the per-campaign accounting."""
    row = dest._campaign_row(key)
    assert row is not None
    total = row["total_jobs"]
    done, lo, hi = dest._conn.execute(
        "SELECT COUNT(*), MIN(job_index), MAX(job_index) FROM outcomes "
        "WHERE campaign_key = ?",
        (key,),
    ).fetchone()
    if done > total:
        raise MergeError(
            f"campaign {key[:12]} holds {done} outcomes for a "
            f"{total}-job plan after merging; a shard store committed "
            f"outside the canonical plan — refusing to complete"
        )
    complete = row["status"] == "complete"
    if done == total and total > 0:
        if lo != 0 or hi != total - 1:
            raise MergeError(
                f"campaign {key[:12]} holds {done} outcomes but their "
                f"indices span [{lo}, {hi}] instead of [0, {total - 1}]; "
                f"the shard set does not cover the canonical plan — "
                f"refusing to complete"
            )
        if not complete:
            with dest._conn:
                dest._conn.execute(
                    "UPDATE campaigns SET status = 'complete', "
                    "updated_at = ? WHERE key = ?",
                    (utc_isoformat(wallclock()), key),
                )
        complete = True
    return CampaignMergeResult(
        key=key,
        inserted=inserted,
        duplicates=duplicates,
        total_jobs=total,
        done_jobs=done,
        complete=complete,
        missing_shards=missing_shards(dest, key),
    )


def _merge_memos(dest: CampaignStore, source: CampaignStore) -> None:
    for row in source._conn.execute("SELECT * FROM memos ORDER BY key"):
        with dest._conn:
            dest._conn.execute(
                """
                INSERT INTO memos (key, kind, payload, created_at)
                VALUES (?, ?, ?, ?)
                ON CONFLICT (key) DO NOTHING
                """,
                (row["key"], row["kind"], row["payload"], row["created_at"]),
            )


def merge_stores(
    dest_path: Union[str, Path],
    source_paths: Sequence[Union[str, Path]],
) -> MergeReport:
    """Fold the campaigns of *source_paths* into the store at *dest_path*.

    The destination is created if missing (the canonical store of a shard
    set usually starts empty).  Sources are folded in argument order; every
    campaign they contain is merged — outcome rows with conflict detection,
    shard provenance with token cross-checks, golden stats, memos — and each
    campaign whose merged outcomes cover its full plan is marked complete.
    Leftover rows of the unused ``artifacts`` tables are not copied.
    The latest run manifest of each source is folded into one merged
    manifest per campaign (appended only when this merge actually added
    outcome rows, so re-merging is idempotent).  Raises
    :class:`MergeConflictError` on the first disagreement;
    :class:`MergeError` on unusable inputs or broken plan coverage.
    """
    if not source_paths:
        raise MergeError("store merge needs at least one source store")
    dest_resolved = Path(dest_path).expanduser().resolve()
    sources: List[str] = []
    for path in source_paths:
        resolved = Path(path).expanduser().resolve()
        if resolved == dest_resolved:
            raise MergeError(
                f"cannot merge store {path} into itself; pick a different "
                f"destination path"
            )
        if not resolved.is_file():
            raise MergeError(f"no store database at {path}")
        sources.append(str(path))

    inserted_by_key: Dict[str, int] = {}
    duplicates_by_key: Dict[str, int] = {}
    manifests_by_key: Dict[str, List[Dict[str, Any]]] = {}
    key_order: List[str] = []

    with CampaignStore(dest_path) as dest:
        for source_path in sources:
            with CampaignStore(source_path) as source:
                for info in source.list_campaigns():
                    key = info.key
                    if key not in inserted_by_key:
                        key_order.append(key)
                        inserted_by_key[key] = 0
                        duplicates_by_key[key] = 0
                    _merge_campaign_row(dest, source, source_path, key)
                    _merge_shard_rows(dest, source, source_path, key)
                    inserted, duplicates = _merge_outcomes(
                        dest, source, source_path, key
                    )
                    inserted_by_key[key] += inserted
                    duplicates_by_key[key] += duplicates
                    manifest = source.get_manifest(key)
                    if manifest is not None:
                        manifests_by_key.setdefault(key, []).append(manifest)
                _merge_memos(dest, source)

        campaigns: List[CampaignMergeResult] = []
        for key in key_order:
            result = _finalize_campaign(
                dest, key, inserted_by_key[key], duplicates_by_key[key]
            )
            campaigns.append(result)
            payloads = manifests_by_key.get(key)
            if payloads and result.inserted > 0:
                dest.put_manifest(key, fold_manifests(payloads))
        dest.bump("jobs_executed", sum(inserted_by_key.values()))

    return MergeReport(
        dest=str(dest_path),
        sources=tuple(sources),
        campaigns=tuple(campaigns),
    )
