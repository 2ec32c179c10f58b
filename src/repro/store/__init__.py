"""Persistent, content-addressed campaign results.

The store subsystem makes fault-injection campaigns durable artifacts:

* :mod:`repro.store.keys` — content-addressed campaign keys (hash of the
  workload bytes, site sample, fault models, seed, backend identity and
  code-relevant configuration) and memo keys.
* :mod:`repro.store.schema` — the SQLite schema.
* :mod:`repro.store.store` — :class:`CampaignStore` / :class:`CampaignSession`,
  the persistence API the engine drives (resume, chunked commits, cache hits).
* :mod:`repro.store.merge` — :func:`merge_stores`, folding the per-shard
  stores of a sharded campaign (see :mod:`repro.engine.sharding`) back into
  the canonical store with conflict detection and a completion gate.
* :mod:`repro.store.cli` — the ``repro`` console script
  (``repro campaign run/resume/status/report``, ``repro store ls/gc/merge``).

The engine integration lives in :meth:`repro.engine.campaign.CampaignEngine.run`
(``store=`` hook, ``CampaignConfig.store_path`` / ``resume``); resumed-then-
merged campaigns are bit-identical to uninterrupted ones, and a repeated
campaign with an unchanged key executes zero new injections and no golden
run.
"""

from repro.store.keys import (
    KEY_VERSION,
    backend_identity,
    campaign_key,
    memo_key,
    program_digest,
)
from repro.store.merge import (
    CampaignMergeResult,
    MergeConflictError,
    MergeError,
    MergeReport,
    merge_stores,
    missing_shards,
)
from repro.store.schema import SCHEMA_VERSION
from repro.store.store import (
    COUNTER_NAMES,
    CampaignInfo,
    CampaignSession,
    CampaignStore,
    ShardInfo,
    StoreError,
    breakdown_rows,
    report_payload,
)

__all__ = [
    "KEY_VERSION",
    "SCHEMA_VERSION",
    "COUNTER_NAMES",
    "CampaignInfo",
    "CampaignMergeResult",
    "CampaignSession",
    "CampaignStore",
    "MergeConflictError",
    "MergeError",
    "MergeReport",
    "ShardInfo",
    "StoreError",
    "backend_identity",
    "breakdown_rows",
    "campaign_key",
    "memo_key",
    "merge_stores",
    "missing_shards",
    "program_digest",
    "report_payload",
]
