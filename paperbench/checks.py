"""Output checks: per-campaign outcome digests and the job mix the layers see.

Every campaign a pass runs ends in ``CampaignEngine.run``.  :class:`Capture`
wraps that call and reduces each finished campaign to a
:class:`CampaignRecord`: its identity, the digest of its ordered outcomes
(failure class, detection cycle, faulty instructions) and its job mix.
:class:`DigestBook` compares the digests with the committed reference
(``digests.json``, derived on the reference engines) and, for campaigns the
reference does not cover, with the digests an earlier run in the same
checkout recorded.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from layers import Hook, Patcher

ENGINE_RUN = Hook("repro.engine.campaign:CampaignEngine.run", None)
ENGINE_INIT = Hook("repro.engine.campaign:CampaignEngine.__init__", None)

#: Config overrides that put a campaign on the reference engines: reference
#: RTL core, reference ISS interpreter, scalar (no lockstep) execution.  On
#: the reference engines no checkpoint runner exists, so transients run
#: from reset.
REFERENCE_ENGINES = {"rtl_fast": False, "iss_fast": False, "lockstep_width": 1}

@dataclass
class CampaignRecord:
    """One finished campaign, reduced to what the checks need."""

    key: str
    digest: str
    jobs: int
    #: Jobs per ``(backend, scope, fault model, "net" | "storage")``.
    traffic: Counter


def outcome_digest(outcomes: List[Any]) -> str:
    """Digest of an ordered outcome list: class, detection cycle, faulty
    instructions of each injection."""
    sha = hashlib.sha256()
    for outcome in outcomes:
        sha.update(
            f"{outcome.failure_class.value}:{outcome.detection_cycle}:"
            f"{outcome.faulty_instructions}\n".encode()
        )
    return sha.hexdigest()


def campaign_key(engine: Any, model: Any) -> str:
    """The identity of one campaign result: backend, scope, program bytes,
    fault model, seed, sample size and transient windows."""
    from repro.store import program_digest

    config = engine.config
    return (
        f"{engine.backend.name}:{config.unit_scope}:{engine.program.name}"
        f"@{program_digest(engine.program)[:12]}:{model.value}"
        f":seed={config.seed}:n={config.sample_size}"
        f":w={config.transient_windows}"
    )


def _traffic(backend: str, scope: str, outcomes: List[Any]) -> Counter:
    mix: Counter = Counter()
    for outcome in outcomes:
        fault = outcome.fault
        kind = "net" if fault.site.index is None else "storage"
        mix[(backend, scope, fault.model.value, kind)] += 1
    return mix


class Capture:
    """Collects a :class:`CampaignRecord` for every campaign that finishes."""

    def __init__(self) -> None:
        self.records: List[CampaignRecord] = []
        #: Sums of ``repro.obs`` counters over the captured campaigns:
        #: executed (not store-served) jobs, checkpoint forks, early exits.
        self.counters: Counter = Counter()

    def install(self, patcher: Patcher, reference: bool = False) -> None:
        records = self.records
        totals = self.counters

        def wrap_run(original: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(original)
            def run(engine: Any, *args: Any, **kwargs: Any) -> Any:
                from repro.obs.telemetry import TELEMETRY

                results = original(engine, *args, **kwargs)
                # Campaigns keep telemetry on (the default), which resets
                # the registry at entry: it now holds this campaign's counts.
                counters = TELEMETRY.snapshot()["counters"]
                for name in ("campaign.jobs_executed", "checkpoint.forks",
                             "checkpoint.early_exits"):
                    totals[name] += counters.get(name, 0)
                for model, result in results.items():
                    outcomes = result.outcomes
                    records.append(CampaignRecord(
                        key=campaign_key(engine, model),
                        digest=outcome_digest(outcomes),
                        jobs=len(outcomes),
                        traffic=_traffic(
                            engine.backend.name, engine.config.unit_scope, outcomes
                        ),
                    ))
                return results

            return run

        patcher.wrap(ENGINE_RUN, wrap_run)
        if reference:
            patcher.wrap(ENGINE_INIT, _reference_init)


def _reference_init(original: Callable[..., Any]) -> Callable[..., Any]:
    """``CampaignEngine.__init__`` with the config moved onto the reference
    engines."""

    @functools.wraps(original)
    def init(engine: Any, program: Any, config: Any = None, *args: Any, **kwargs: Any) -> None:
        from repro.engine import CampaignConfig

        config = dataclasses.replace(config or CampaignConfig(), **REFERENCE_ENGINES)
        original(engine, program, config, *args, **kwargs)

    return init


class DigestBook:
    """Reference digests (committed) plus digests recorded by earlier runs."""

    def __init__(self, committed_path: str, recorded_path: str) -> None:
        self.committed_path = committed_path
        self.recorded_path = recorded_path
        self.committed = _load(committed_path)
        self.recorded = _load(recorded_path)
        #: Keys whose digest this run saw first (neither committed nor
        #: recorded before).
        self.new: Dict[str, Dict[str, Any]] = {}

    def expected(self, key: str) -> Optional[str]:
        for book in (self.committed, self.recorded, self.new):
            if key in book:
                return book[key]["digest"]
        return None

    def check(self, record: CampaignRecord) -> bool:
        """True when *record* matches every digest known for its key."""
        expected = self.expected(record.key)
        if expected is None:
            self.new[record.key] = {"digest": record.digest, "jobs": record.jobs}
            return True
        return expected == record.digest

    def save_recorded(self) -> None:
        if not self.new:
            return
        merged = {**self.recorded, **self.new}
        _dump(self.recorded_path, merged)

    def write_committed(self, records: List[CampaignRecord]) -> None:
        """Add *records* to the committed reference (reference mode)."""
        merged = dict(self.committed)
        for record in records:
            merged[record.key] = {"digest": record.digest, "jobs": record.jobs}
        _dump(self.committed_path, merged)


def _load(path: str) -> Dict[str, Dict[str, Any]]:
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        return json.load(handle)["campaigns"]


def _dump(path: str, campaigns: Dict[str, Dict[str, Any]]) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"campaigns": dict(sorted(campaigns.items()))}, handle, indent=1)
        handle.write("\n")
