"""Content-addressed campaign keys.

A campaign key is the SHA-256 digest of *exactly what produced the results*:
the workload bytes, the fault-site sample, the fault models, the sampling
seed, the backend identity, and the code-relevant configuration (instruction
budget, watchdog parameters, unit scope).  Two campaigns with the same key
are guaranteed to produce bit-identical ``Pf`` breakdowns — schedulers are
result-transparent — so the key is a safe cache address for stored outcomes.

Deliberately *not* part of the key: ``n_workers``, ``scheduler`` and
``chunk_size`` (execution strategy, not results), ``lockstep_width`` (the
N-way pack runtime of :mod:`repro.engine.lockstep` is bit-identical to the
scalar path on every observable — a lockstep campaign reads and populates
the same stored campaign as a scalar one, and ``KEY_VERSION`` stays at 1),
``store_path``/``resume`` (persistence plumbing), wall-clock timing, and the
``telemetry``/``trace_path`` observability switches (metrics and trace
events describe *how* a run executed and never feed back into what it
computes; run manifests are stored beside the campaign, not in its key —
byte-identical keys with telemetry on and off are enforced by the
pinned-key test in ``tests/test_obs.py``).

Bump :data:`KEY_VERSION` whenever a change to the simulators or the
comparison logic can alter campaign outcomes; old stored campaigns then stop
matching instead of serving stale results.
"""

from __future__ import annotations

import functools
import hashlib
import json
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Sequence

from repro.engine.backend import (
    WATCHDOG_FACTOR,
    WATCHDOG_SLACK,
    IssBackend,
    Leon3RtlBackend,
)
from repro.isa.assembler import Program
from repro.rtl.faults import FaultModel
from repro.rtl.sites import FaultSite

if TYPE_CHECKING:
    from repro.engine.jobs import TransientJob

#: Version of the key derivation (and of everything behind it that can change
#: results).  Part of every digest.
#:
#: Deliberately **not** bumped for the ISS fast-path interpreter PR, because
#: none of its changes can alter a stored campaign outcome:
#:
#: * The fast interpreter is bit-identical to the reference on every
#:   observable (trace statistics, transaction stream, trap kind, final
#:   architectural state), fault-free and under injection — enforced by
#:   ``tests/test_fastpath.py`` across the full workload registry and
#:   re-verified by ``benchmarks/throughput.py iss`` before it reports
#:   any number.  The interpreter choice is an execution strategy, exactly
#:   like ``n_workers``.
#: * The I/O-load fix (transactions now record the loaded value instead of a
#:   hard-coded 0) cannot move a golden-vs-faulty comparison: inside the ISS
#:   every memory write is itself a recorded transaction, so the value a load
#:   returns is a pure function of the program image plus the preceding
#:   transaction stream — two runs whose streams first diverge at index *k*
#:   still first diverge at *k*.  (The fix matters for *external* peripheral
#:   corruption, which no stored campaign models.)
#: * ``SimulationError`` runs previously crashed the campaign before any
#:   outcome could be committed, so no stored outcome can disagree with the
#:   new trap classification.
#:
#: Also deliberately **not** bumped for the RTL fast-path PR:
#:
#: * The fast LEON3 cycle engine is bit-identical to the reference structural
#:   core on every observable, fault-free and under injection — enforced by
#:   ``tests/test_fastcore.py`` across the workload registry and re-verified
#:   by ``benchmarks/throughput.py rtl`` before it reports any number.
#:   Like the ISS interpreter choice, the cycle-engine choice is an execution
#:   strategy, not a result input.
#: Also deliberately **not** bumped for the checkpointed transient runtime PR:
#:
#: * Transient campaigns are a *new* key population: their keys carry an
#:   additional ``"transient"`` payload section (window sample, duration,
#:   time unit) that no pre-existing key ever contained, so they can never
#:   alias a stored permanent campaign.  Permanent campaign payloads are
#:   byte-for-byte unchanged — the section is only added when transient jobs
#:   are planned — so every previously stored campaign keeps serving cache
#:   hits and resuming under its existing key.
#: * The checkpointed execution itself (golden snapshot ladder,
#:   fork-from-checkpoint, early-convergence exit) is bit-identical to the
#:   from-reset execution of the same fault — enforced by
#:   ``tests/test_checkpoint.py`` across the workload registry on both
#:   backends and re-verified by ``benchmarks/throughput.py transient``
#:   before it reports any number.  Like the fast interpreters, it is an
#:   execution strategy: ``checkpoint_interval`` and ``early_exit`` are
#:   therefore excluded from the key.
#:
#: * The ``StorageArray._last_read`` reset fix (see
#:   :meth:`repro.rtl.netlist.StorageArray.reset`) closes a cross-run leak
#:   through the open-line "previous value": before the fix, an open-line
#:   array fault whose faulted cell was the *first* cell of its array read in
#:   a run observed a value leaked from whatever run happened to precede it
#:   on that worker's reused backend.  Such outcomes depended on scheduler
#:   partitioning and ``n_workers`` — values deliberately excluded from the
#:   key — so the key never validly addressed them in the first place: the
#:   store's bit-identity guarantee was vacuous for exactly the runs the fix
#:   changes, and re-running them pre-fix could already disagree with what
#:   was stored.  Every run whose outcome *was* reproducible is unaffected.
KEY_VERSION = 1

#: Result-transparent :class:`~repro.engine.campaign.CampaignConfig` fields —
#: the explicit registry behind reprolint's R002 key-transparency rule.
#:
#: Every ``CampaignConfig`` field must either feed the campaign key (be read
#: by ``store_key()`` / ``_transient_meta()`` / ``_models()``) or appear here,
#: asserting that it can never change a stored outcome.  A field in neither
#: place is a potential cache poisoner: two campaigns that differ in it would
#: share a key while possibly disagreeing on results.  When a new config field
#: is added, R002 fails CI until the author makes the choice explicitly —
#: either wire the field into the key payload or register it below with the
#: rest of the execution-strategy knobs (see the module docstring for why each
#: of these is excluded from the key).
RESULT_TRANSPARENT = frozenset(
    {
        "n_workers",
        "scheduler",
        "chunk_size",
        "store_path",
        "resume",
        "iss_fast",
        "rtl_fast",
        "checkpoint_interval",
        "early_exit",
        "telemetry",
        "trace_path",
        "lockstep_width",
        # Sharding is pure execution partitioning: a shard commits outcomes
        # under the *parent* campaign's key with the parent plan's job
        # indices, and merge(shards) is bit-identical to the unsharded run
        # (enforced by tests/test_sharding.py and the CI 3-shard smoke gate).
        # Keys must not depend on the split, or shard stores could never
        # merge back into the canonical campaign.  KEY_VERSION stays at 1;
        # the pinned-key test in tests/test_sharding.py holds the key
        # byte-identical across shard coordinates.
        "shards",
        "shard_index",
    }
)


def _digest(payload: Dict[str, Any]) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def program_digest(program: Program) -> str:
    """Digest of the executable content of *program* (name excluded).

    Two workloads that assemble to the same image are interchangeable for
    campaign purposes, whatever they are called.
    """
    return _digest(
        {
            "text": program.text,
            "data": program.data.hex(),
            "text_base": program.text_base,
            "data_base": program.data_base,
            "entry_point": program.entry_point,
        }
    )


def site_token(site: FaultSite) -> str:
    """Canonical string form of one fault site."""
    location = site.net if site.index is None else f"{site.net}[{site.index}]"
    return f"{location}.bit{site.bit}@{site.unit}"


def transient_token(job: "TransientJob") -> str:
    """Canonical string form of one transient job (site + window)."""
    return f"{site_token(job.site)}@{job.start_cycle}+{job.duration}"


def _render_bound(value: object) -> str:
    """Deterministic rendering of a factory's bound argument.

    Primitives render by value and classes by qualified name.  Anything else
    is refused: the default ``repr`` of an arbitrary object embeds its
    memory address (key never matches again — resume always misses), while
    rendering by type would alias differently-configured instances of the
    same class (silently serving one configuration's stored results as the
    other's).  Either failure is silent, so fail loud instead.
    """
    if isinstance(value, (bool, int, float, str, bytes, type(None))):
        return repr(value)
    if isinstance(value, type):
        return f"{value.__module__}.{value.__qualname__}"
    raise ValueError(
        f"cannot derive a stable campaign-store identity from a factory that "
        f"binds a {type(value).__module__}.{type(value).__qualname__} instance; "
        f"use a named zero-argument factory function instead of functools.partial"
    )


def backend_identity(
    backend_name: str, backend_factory: Callable[[], object]
) -> str:
    """Identity string of the simulator behind a campaign.

    Combines the backend's short name with the factory's qualified name, so
    e.g. a new simulator *class* never aliases another's results.

    ``functools.partial`` wrappers of :class:`IssBackend` are unwrapped to
    the bare class: its only constructor parameters are the
    *result-transparent* interpreter flags (``fast``, ``detailed_trace``) —
    the fast interpreter is bit-identical to the reference (see
    :data:`KEY_VERSION`) — so every interpreter choice reads and populates
    the same stored campaign.  :class:`Leon3RtlBackend` partials get the same
    treatment for their ``fast`` flag only (the fast cycle engine is
    bit-identical to the reference structural core): ``fast`` is dropped from
    the bound arguments, and the partial collapses to the bare class when
    nothing else is bound.  Any *other* bound argument — on the RTL backend
    or any other backend class — can change results (e.g. cache geometry)
    and keeps its place in the identity string, so it can never alias the
    bare factory's stored campaigns.  Bound primitives render by value and
    classes by qualified name (stable across processes); binding arbitrary
    object *instances* raises — use a named zero-argument factory function
    for those (see :func:`_render_bound`).
    """
    bound = ""
    while isinstance(backend_factory, functools.partial):
        args = backend_factory.args
        keywords = dict(backend_factory.keywords or {})
        if backend_factory.func is IssBackend:
            backend_factory = backend_factory.func
            continue
        if backend_factory.func is Leon3RtlBackend:
            keywords.pop("fast", None)  # result-transparent cycle-engine flag
            if not args and not keywords:
                backend_factory = backend_factory.func
                continue
        rendered = ",".join(
            [_render_bound(value) for value in args]
            + [f"{key}={_render_bound(value)}" for key, value in sorted(keywords.items())]
        )
        bound = f"({rendered})" + bound
        backend_factory = backend_factory.func
    module = getattr(backend_factory, "__module__", "") or ""
    qualname = getattr(
        backend_factory, "__qualname__", backend_factory.__class__.__name__
    )
    return f"{backend_name}:{module}.{qualname}{bound}"


def campaign_key(
    program: Program,
    sites: Sequence[FaultSite],
    fault_models: Sequence[FaultModel],
    seed: int,
    backend_id: str,
    unit_scope: str,
    sample_size: Optional[int],
    max_instructions: int,
    transient: Optional[Dict[str, Any]] = None,
) -> str:
    """The content address of one campaign (64 hex chars).

    *transient* extends the payload for transient campaigns (the sampled
    window list plus window parameters — everything that identifies the
    planned transient fault population).  Permanent campaigns pass ``None``
    and their payload stays byte-identical to every earlier KEY_VERSION-1
    key, which is why adding the section needs no version bump (see the
    :data:`KEY_VERSION` rationale).
    """
    payload: Dict[str, Any] = {
        "key_version": KEY_VERSION,
        "program": program_digest(program),
        "sites": [site_token(site) for site in sites],
        "fault_models": [model.value for model in fault_models],
        "seed": seed,
        "backend": backend_id,
        "unit_scope": unit_scope,
        "sample_size": sample_size,
        "max_instructions": max_instructions,
        "watchdog": [WATCHDOG_FACTOR, WATCHDOG_SLACK],
    }
    if transient is not None:
        payload["transient"] = transient
    return _digest(payload)


def memo_key(kind: str, payload: Dict[str, Any]) -> str:
    """Content address of a non-campaign artifact (Table 1 rows, timings)."""
    return _digest({"key_version": KEY_VERSION, "kind": kind, "payload": payload})
