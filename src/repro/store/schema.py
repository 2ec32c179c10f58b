"""SQLite schema of the campaign result store.

Seven tables, two of them unused:

* ``campaigns`` — one row per content-addressed campaign: the plan metadata
  (workload, scope, models, seed, backend, budget), the golden-run stats, a
  completion status and bookkeeping timestamps/hit counts.  ``config_json``
  preserves enough of the originating configuration for ``repro campaign
  resume`` to rebuild the plan from the key alone.
* ``outcomes`` — the streamed :class:`~repro.engine.jobs.OutcomeRecord`s,
  one row per finished injection, keyed by ``(campaign_key, job_index)``.
  Rows carry everything needed to reconstruct the record bit-identically.
* ``manifests`` — per-run telemetry manifests (merged metrics snapshot +
  environment + wall clock, see :mod:`repro.obs`), keyed by
  ``(campaign_key, run_index)`` so repeated runs of one campaign append.
  Result-transparent: manifests describe how a run executed, never what it
  computed, and play no part in the content key.
* ``shards`` — which slices of a sharded campaign this store holds (see
  :mod:`repro.engine.sharding`): one row per ``(campaign, shard_count,
  shard_index)`` with the shard's derived identity token and its
  ``[job_lo, job_hi)`` slice of the canonical plan.  A shard store is an
  intentionally incomplete campaign awaiting ``repro store merge``, which is
  why ``gc`` keeps incomplete campaigns that carry shard rows.
* ``memos`` — content-addressed JSON artifacts that are not campaigns
  (Table 1 characterisations, simulation-time comparisons).
* ``artifacts`` / ``artifact_refs`` — unused.  They held a golden-artifact
  cache (serialized golden runs and checkpoint ladders) that was retired;
  migrations are forward-only, so the tables stay, nothing reads them, and
  ``gc`` deletes any leftover rows.

``counters`` holds monotonically increasing store-wide statistics
(``jobs_executed``, ``jobs_cached``, ``campaign_hits``), which is how tests
and operators observe that a repeated campaign really executed zero new
injections.
"""

from __future__ import annotations

import sqlite3

#: Bump on any incompatible schema change; the store refuses to open newer
#: databases and transparently creates missing tables on older ones.
#:
#: Version 2 adds the nullable ``start_cycle``/``duration`` columns to
#: ``outcomes`` (transient-job identity); version-1 databases are migrated in
#: place with ``ALTER TABLE`` — existing permanent-fault rows keep NULLs and
#: reconstruct exactly as before.
#:
#: Version 3 adds the ``manifests`` table (per-run telemetry artifacts).
#: The v2 -> v3 migration is purely additive: the ``CREATE TABLE IF NOT
#: EXISTS`` pass below creates the missing table in place, no existing row
#: changes shape, and campaign keys are untouched (``KEY_VERSION`` stays 1
#: — see :mod:`repro.store.keys`).
#:
#: Version 4 adds the ``shards`` table (which slices of a sharded campaign
#: a store holds — see :mod:`repro.engine.sharding`).  Again purely
#: additive: the ``CREATE TABLE IF NOT EXISTS`` pass migrates v3 databases
#: in place, no existing row changes shape, and ``KEY_VERSION`` stays 1
#: (sharding is result-transparent).
#:
#: Version 5 adds the ``artifacts`` and ``artifact_refs`` tables, for a
#: golden-artifact cache since retired.  Purely additive once more: the
#: ``CREATE TABLE IF NOT EXISTS`` pass migrates v4 databases in place,
#: campaigns/outcomes/manifests/shards/memos rows are byte-for-byte
#: untouched (round-tripped by the populated-migration test in
#: ``tests/test_store_properties.py``), and ``KEY_VERSION`` stays 1.  The
#: tables are unused now; ``gc`` empties them.
SCHEMA_VERSION = 5


class StoreError(RuntimeError):
    """Raised on store misuse (unknown keys, ambiguous prefixes, unusable
    database files, ...).  Defined here, beside the schema gate that raises
    it first, and re-exported by :mod:`repro.store.store`."""

SCHEMA_STATEMENTS = (
    """
    CREATE TABLE IF NOT EXISTS campaigns (
        key                 TEXT PRIMARY KEY,
        workload            TEXT NOT NULL,
        unit_scope          TEXT NOT NULL,
        backend             TEXT NOT NULL,
        seed                INTEGER NOT NULL,
        sample_size         INTEGER,
        max_instructions    INTEGER NOT NULL,
        fault_models        TEXT NOT NULL,
        total_jobs          INTEGER NOT NULL,
        status              TEXT NOT NULL DEFAULT 'running'
                            CHECK (status IN ('running', 'complete')),
        golden_instructions INTEGER,
        golden_cycles       INTEGER,
        golden_transactions INTEGER,
        hit_count           INTEGER NOT NULL DEFAULT 0,
        config_json         TEXT NOT NULL DEFAULT '{}',
        created_at          TEXT NOT NULL,
        updated_at          TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS outcomes (
        campaign_key        TEXT NOT NULL
                            REFERENCES campaigns(key) ON DELETE CASCADE,
        job_index           INTEGER NOT NULL,
        fault_model         TEXT NOT NULL,
        net                 TEXT NOT NULL,
        bit                 INTEGER NOT NULL,
        unit                TEXT NOT NULL,
        cell_index          INTEGER,
        failure_class       TEXT NOT NULL,
        detection_cycle     INTEGER,
        faulty_instructions INTEGER NOT NULL,
        seconds             REAL NOT NULL DEFAULT 0.0,
        start_cycle         INTEGER,
        duration            INTEGER,
        PRIMARY KEY (campaign_key, job_index)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS manifests (
        campaign_key TEXT NOT NULL
                     REFERENCES campaigns(key) ON DELETE CASCADE,
        run_index    INTEGER NOT NULL,
        payload      TEXT NOT NULL,
        created_at   TEXT NOT NULL,
        PRIMARY KEY (campaign_key, run_index)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS shards (
        campaign_key TEXT NOT NULL
                     REFERENCES campaigns(key) ON DELETE CASCADE,
        shard_count  INTEGER NOT NULL,
        shard_index  INTEGER NOT NULL,
        token        TEXT NOT NULL,
        job_lo       INTEGER NOT NULL,
        job_hi       INTEGER NOT NULL,
        created_at   TEXT NOT NULL,
        PRIMARY KEY (campaign_key, shard_count, shard_index)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS memos (
        key        TEXT PRIMARY KEY,
        kind       TEXT NOT NULL,
        payload    TEXT NOT NULL,
        created_at TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS artifacts (
        key          TEXT PRIMARY KEY,
        kind         TEXT NOT NULL
                     CHECK (kind IN ('golden', 'ladder')),
        workload     TEXT NOT NULL,
        backend      TEXT NOT NULL,
        payload      BLOB NOT NULL,
        size_bytes   INTEGER NOT NULL,
        hit_count    INTEGER NOT NULL DEFAULT 0,
        created_at   TEXT NOT NULL,
        last_used_at TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS artifact_refs (
        artifact_key TEXT NOT NULL
                     REFERENCES artifacts(key) ON DELETE CASCADE,
        campaign_key TEXT NOT NULL
                     REFERENCES campaigns(key) ON DELETE CASCADE,
        created_at   TEXT NOT NULL,
        PRIMARY KEY (artifact_key, campaign_key)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS counters (
        name  TEXT PRIMARY KEY,
        value INTEGER NOT NULL DEFAULT 0
    )
    """,
    """
    CREATE INDEX IF NOT EXISTS idx_outcomes_campaign
        ON outcomes (campaign_key)
    """,
)


def apply_schema(connection: sqlite3.Connection) -> None:
    """Create missing tables, run migrations, stamp/verify the version."""
    (version,) = connection.execute("PRAGMA user_version").fetchone()
    if version > SCHEMA_VERSION:
        raise StoreError(
            f"store was written by a newer schema (version {version}, "
            f"supported {SCHEMA_VERSION}); refusing to open"
        )
    with connection:
        for statement in SCHEMA_STATEMENTS:
            connection.execute(statement)
        if version == 1:
            # v1 -> v2: transient-job identity columns (NULL for the
            # permanent-fault rows every v1 database holds).
            existing = {
                row[1]
                for row in connection.execute("PRAGMA table_info(outcomes)")
            }
            for column in ("start_cycle", "duration"):
                if column not in existing:
                    connection.execute(
                        f"ALTER TABLE outcomes ADD COLUMN {column} INTEGER"
                    )
        connection.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
