"""The campaign engine: plan, schedule and aggregate fault-injection runs.

This is the load-bearing orchestration layer of the framework.  A campaign is

1. **planned** — one golden run, one site sample shared by every fault model,
   expanded into a flat list of picklable :class:`InjectionJob`s,
2. **executed** — through a pluggable scheduler (serial, or a
   :mod:`multiprocessing` pool with chunked batches and per-worker golden
   caching; a caller running several campaigns passes one scheduler to
   each engine, so they share one pool), and
3. **aggregated** — finished :class:`OutcomeRecord`s stream into per-model
   :class:`CampaignResult`s incrementally, firing an optional progress
   callback after every injection.

Schedulers are required to be result-transparent: for the same plan, every
scheduler yields bit-identical ``Pf`` breakdowns (the test suite enforces
serial == multiprocessing).

:class:`CampaignEngine` is the one entry point for every campaign: the
figure drivers, the ``repro`` CLI, the examples and paperbench all build one
from a :class:`CampaignConfig` and a backend factory.  It has one execution
path, which the :mod:`repro.store` subsystem can make **durable**: with a
:class:`~repro.store.CampaignStore` (``run(store=...)``, or
``CampaignConfig.store_path``) every finished outcome is committed in chunks
under the campaign's content-addressed key, an interrupted campaign resumes
from its last committed outcome, and a repeated campaign is a pure cache hit
that executes zero new injections.  Stored and freshly executed outcomes are
merged through an ordered reorder buffer, so a resumed campaign aggregates in
exactly the same order as an uninterrupted one (bit-identical results,
enforced by ``tests/test_store.py``); a store-less run folds through the same
buffer and opens no database.
"""

from __future__ import annotations

import contextlib
import functools
import os
import platform
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ContextManager,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

from repro.faultinjection.results import CampaignResult, InjectionOutcome
from repro.isa.assembler import Program
from repro.leon3.units import IU_SCOPE
from repro.rtl.faults import ALL_FAULT_MODELS, FaultModel
from repro.rtl.sites import FaultSite

from repro.engine.backend import (
    ExecutionBackend,
    IssBackend,
    Leon3RtlBackend,
    RunResult,
)
from repro.engine.checkpoint import make_checkpoint_runner
from repro.engine.lockstep import GoldenTimelines, packs_enabled
from repro.engine.jobs import (
    CampaignJob,
    CampaignPlan,
    InertScreen,
    OutcomeRecord,
    TransientJob,
    plan_jobs,
    plan_transient_jobs,
)
from repro.engine.schedulers import (
    KNOWN_SCHEDULERS,
    Scheduler,
    _run_golden,
    make_scheduler,
)
from repro.engine.sharding import select_shard, shard_slice, shard_token
from repro.obs.clock import utc_isoformat, wallclock
from repro.obs.events import EventLog
from repro.obs.telemetry import TELEMETRY, Span

if TYPE_CHECKING:
    from repro.store import CampaignSession, CampaignStore

#: Progress callback: (completed jobs, total jobs, outcome just finished).
ProgressCallback = Callable[[int, int, InjectionOutcome], None]

#: Outcomes per store transaction: small enough that an interrupt loses at
#: most a few seconds of simulation, large enough to amortise the commit.
STORE_COMMIT_CHUNK = 16


@dataclass
class CampaignConfig:
    """Configuration of a fault-injection campaign."""

    #: Unit scope of the injections: "iu", "cmem" or any unit-path prefix.
    unit_scope: str = IU_SCOPE
    #: Number of fault sites sampled from the scope (use ``None`` for all).
    sample_size: Optional[int] = 200
    #: Fault models to inject (defaults to the three permanent models).
    fault_models: Sequence[FaultModel] = field(
        default_factory=lambda: list(ALL_FAULT_MODELS)
    )
    #: Random seed for site sampling (campaigns are reproducible by default).
    seed: int = 2015
    #: Hard instruction ceiling for the golden run.
    max_instructions: int = 400_000
    #: Worker processes executing injection jobs (1 = in-process serial).
    n_workers: int = 1
    #: Scheduler name ("serial" / "process"); ``None`` auto-selects from
    #: ``n_workers``.
    scheduler: Optional[str] = None
    #: Jobs per scheduler batch (``None`` = derived from the plan size).
    chunk_size: Optional[int] = None
    #: Path of a :class:`~repro.store.CampaignStore` SQLite database; when
    #: set, outcomes are committed there and repeated campaigns are served
    #: from the store instead of re-executing injections.
    store_path: Optional[str] = None
    #: Reuse outcomes already committed under this campaign's key (resume
    #: interrupted campaigns, serve complete ones as pure cache hits).
    #: ``False`` forces re-execution, overwriting any stored outcomes.
    resume: bool = True
    #: Interpreter choice for campaigns on the ISS backend: the fast-path
    #: interpreter (decode cache + table dispatch, bit-identical to the
    #: reference — enforced by ``tests/test_fastpath.py``), or with ``False``
    #: the reference interpreter, kept reachable for A/B debugging.  Honoured
    #: when ``backend_factory`` is the :class:`IssBackend` class or a
    #: ``functools.partial`` of it that does not itself bind ``fast``; an
    #: opaque factory (e.g. a lambda) must pass ``fast=`` directly.  Ignored
    #: by non-ISS backends.  Result-transparent, so deliberately not part of
    #: the campaign store key.
    iss_fast: bool = True
    #: Cycle-engine choice for campaigns on the RTL backend, mirroring
    #: ``iss_fast``: the fast :class:`~repro.leon3.fastcore.Leon3FastCore`
    #: (bit-identical to the reference structural model — enforced by
    #: ``tests/test_fastcore.py``) or with ``False`` the reference
    #: :class:`~repro.leon3.core.Leon3Core`.  Honoured for the bare
    #: :class:`Leon3RtlBackend` class and ``functools.partial`` wrappers of it
    #: that do not bind ``fast`` themselves.  Ignored by non-RTL backends.
    #: Result-transparent, so deliberately not part of the campaign store key.
    rtl_fast: bool = True
    #: Transient (SEU-style) campaign mode: number of start times sampled per
    #: site from the golden run's length.  ``None`` (the default) plans the
    #: paper's permanent-fault campaign; an integer switches the campaign to
    #: transient jobs (site x start-time sample over storage cells, outcomes
    #: aggregated under ``FaultModel.TRANSIENT``) executed through the
    #: checkpointed runtime of :mod:`repro.engine.checkpoint` where the
    #: backend supports it.
    transient_windows: Optional[int] = None
    #: Window length of planned transient faults, in backend-native time
    #: units (RTL cycles; on the ISS the upset fires once at window start).
    transient_duration: int = 1
    #: Rung spacing of the golden checkpoint ladder, in instructions.
    #: ``None`` selects the adaptive ladder (spacing scales with the golden
    #: run).  Result-transparent — forks are bit-identical to from-reset
    #: execution — so deliberately not part of the campaign store key.
    checkpoint_interval: Optional[int] = None
    #: Early-convergence exit: splice the golden tail once a fork's
    #: post-window state digest matches the golden ladder.  Result-
    #: transparent, so deliberately not part of the campaign store key.
    early_exit: bool = True
    #: Campaign telemetry: collect structured metrics (counters, histograms,
    #: span timings — see :mod:`repro.obs`) for this run and, on the durable
    #: path, persist them as the campaign's run manifest.  Result-transparent
    #: (metrics never feed back into execution) and deliberately not part of
    #: the campaign store key — enforced by ``tests/test_obs.py``'s pinned-key
    #: test.  ``False`` keeps the registry exactly as the caller left it.
    telemetry: bool = True
    #: Base path of the JSONL trace event log (``None`` disables tracing).
    #: Each process appends spans to its own ``<path>.<pid>`` sidecar;
    #: ``repro trace export --chrome`` merges them into a Perfetto-loadable
    #: timeline.  Result-transparent, not part of the store key.
    trace_path: Optional[str] = None
    #: Lockstep pack width: how many faulty replicas execute together
    #: through one shared fetch/decode front end (the pack runtime of
    #: :mod:`repro.engine.lockstep`).  1 (the default) is the scalar path;
    #: widths > 1 take effect on the fast ISS backend and fall back to
    #: scalar execution elsewhere.  Result-transparent — pack outcomes are
    #: bit-identical to scalar runs (enforced by ``tests/test_lockstep.py``)
    #: — so deliberately not part of the campaign store key.
    lockstep_width: int = 1
    #: Shard count of a sharded campaign (see :mod:`repro.engine.sharding`):
    #: the canonical plan is split into this many disjoint contiguous slices
    #: and this run executes only slice ``shard_index``, committing outcomes
    #: under the *parent* campaign's key with the parent plan's job indices.
    #: Shard stores are folded back into the canonical store by
    #: ``repro store merge``.  Result-transparent — merge(shards) is
    #: bit-identical to the unsharded run (enforced by
    #: ``tests/test_sharding.py``) — so deliberately not part of the
    #: campaign store key.
    shards: int = 1
    #: Which shard of ``shards`` this run executes (0-based).  Result-
    #: transparent, like ``shards``.
    shard_index: int = 0

    def __post_init__(self) -> None:
        # Fail at configuration time with a clear message, not deep inside a
        # worker pool half-way through a golden run.
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.scheduler is not None and self.scheduler not in KNOWN_SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r} "
                f"(expected one of {KNOWN_SCHEDULERS})"
            )
        if self.sample_size is not None and self.sample_size < 1:
            raise ValueError(
                f"sample_size must be >= 1 or None (all sites), "
                f"got {self.sample_size}"
            )
        if self.max_instructions < 1:
            raise ValueError(
                f"max_instructions must be >= 1, got {self.max_instructions}"
            )
        if not self.fault_models:
            raise ValueError("fault_models must name at least one fault model")
        if self.transient_windows is not None and self.transient_windows < 1:
            raise ValueError(
                f"transient_windows must be >= 1 or None (permanent campaign), "
                f"got {self.transient_windows}"
            )
        if self.transient_windows is not None and list(self.fault_models) != list(
            ALL_FAULT_MODELS
        ):
            # Silently discarding an explicit model restriction would hand
            # the caller a TRANSIENT-bucket result they did not ask for.
            raise ValueError(
                "transient campaigns aggregate under the single "
                "FaultModel.TRANSIENT bucket; fault_models cannot be "
                "restricted (drop fault_models or transient_windows)"
            )
        if self.transient_duration < 1:
            raise ValueError(
                f"transient_duration must be >= 1, got {self.transient_duration}"
            )
        if self.checkpoint_interval is not None and self.checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval must be >= 1 or None (adaptive), "
                f"got {self.checkpoint_interval}"
            )
        if self.lockstep_width < 1:
            raise ValueError(
                f"lockstep_width must be >= 1, got {self.lockstep_width}"
            )
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if not 0 <= self.shard_index < self.shards:
            raise ValueError(
                f"shard_index must be in [0, shards), got shard "
                f"{self.shard_index} of {self.shards}"
            )
        if self.trace_path is not None and not self.telemetry:
            raise ValueError(
                "trace_path requires telemetry: the trace events are emitted "
                "by the telemetry spans (drop trace_path or set telemetry=True)"
            )

    @property
    def transient(self) -> bool:
        """True when this configuration plans a transient campaign."""
        return self.transient_windows is not None


class CampaignEngine:
    """Plans and executes fault-injection campaigns on any backend."""

    def __init__(
        self,
        program: Program,
        config: Optional[CampaignConfig] = None,
        backend_factory: Callable[[], ExecutionBackend] = Leon3RtlBackend,
        scheduler: Optional[Scheduler] = None,
    ):
        self.program = program
        self.config = config if config is not None else CampaignConfig()
        #: A scheduler the caller scopes and shares across campaigns (its
        #: pool outlives this engine's runs); ``None`` makes each run build
        #: one from ``config.scheduler`` / ``n_workers`` / ``chunk_size``
        #: and close it when the run ends.
        self.scheduler = scheduler
        self.backend_factory = self._bind_interpreter_flags(
            backend_factory, self.config.iss_fast, self.config.rtl_fast
        )
        self._backend: Optional[ExecutionBackend] = None
        self._golden: Optional[RunResult] = None
        #: The site sample, drawn once by :meth:`select_sites`.
        self._sites: Optional[List[FaultSite]] = None
        #: Inert screen built by the golden run (``None`` when unwatched).
        self._screen: Optional[InertScreen] = None
        #: Golden touch timelines of a campaign that runs lockstep packs.
        self._timelines: Optional[GoldenTimelines] = None
        #: Planner-local checkpoint runner of a transient campaign (its
        #: ladder recording doubles as the golden run; the serial scheduler
        #: reuses it through the plan, workers build their own).
        self._runner = None

    @staticmethod
    def _bind_interpreter_flags(
        backend_factory: Callable[[], ExecutionBackend],
        iss_fast: bool,
        rtl_fast: bool,
    ) -> Callable[[], ExecutionBackend]:
        """Honour ``config.iss_fast`` / ``config.rtl_fast`` on factories.

        Applies to the bare :class:`IssBackend` / :class:`Leon3RtlBackend`
        classes (the CLI and the figure drivers pass them) and to
        ``functools.partial`` wrappers of them that do not already bind
        ``fast`` (an explicit binding wins; for :class:`Leon3RtlBackend` the
        flag is keyword-only, for :class:`IssBackend` two positionals bind
        it).  The result is a ``functools.partial`` — picklable for the
        worker pool, and the store collapses it back to the bare class's
        identity (the flags are result-transparent).  Opaque factories
        (lambdas, closures) cannot be introspected and must pass ``fast=``
        themselves.
        """
        if backend_factory is IssBackend:
            return functools.partial(IssBackend, fast=iss_fast)
        if backend_factory is Leon3RtlBackend:
            return functools.partial(Leon3RtlBackend, fast=rtl_fast)
        if isinstance(backend_factory, functools.partial):
            func = backend_factory.func
            args = backend_factory.args
            keywords = backend_factory.keywords or {}
            if (
                func is IssBackend
                # IssBackend(detailed_trace, fast): two positionals bind fast.
                and len(args) < 2
                and "fast" not in keywords
            ):
                return functools.partial(IssBackend, *args, fast=iss_fast, **keywords)
            if func is Leon3RtlBackend and "fast" not in keywords:
                return functools.partial(
                    Leon3RtlBackend, *args, fast=rtl_fast, **keywords
                )
        return backend_factory

    # -- planner-local backend ---------------------------------------------------------

    @property
    def backend(self) -> ExecutionBackend:
        """The planner-local backend instance (created and prepared lazily)."""
        if self._backend is None:
            self._backend = self.backend_factory()
            self._backend.prepare(self.program)
        return self._backend

    def golden_run(self) -> RunResult:
        """Fault-free reference run on the local backend (cached).

        For transient campaigns on a checkpoint-capable backend the golden
        run *is* the ladder recording (bit-identical to a plain run — the
        checkpoint contract), so the campaign pays for one golden execution,
        not two.

        A permanent campaign on the fast RTL core or the fast ISS watches the
        sampled storage cells (registers) while its golden executes, and
        keeps the reads as the plan's inert screen.  A campaign that will
        run lockstep packs records their golden touch timelines on the same
        pass (the ladder's, or the watched run's).
        """
        if self._golden is None:
            config = self.config
            watch = self._watch_sites()
            record_touches = packs_enabled(self.backend, config.lockstep_width)
            runner = None
            if config.transient:
                runner = make_checkpoint_runner(
                    self.backend,
                    config.max_instructions,
                    config.checkpoint_interval,
                    record_touches,
                )
                if runner is not None:
                    self._runner = runner
            with TELEMETRY.span("golden"):
                golden, self._timelines = _run_golden(
                    self.backend, config.max_instructions, runner, watch,
                    record_touches,
                )
            if watch:
                self._screen = cast(
                    Union[IssBackend, Leon3RtlBackend], self.backend
                ).cell_reads
            if not golden.normal_exit:
                raise RuntimeError(
                    f"golden run of {self.program.name!r} did not exit normally "
                    f"(trap={golden.trap_kind}, instructions={golden.instructions})"
                )
            self._golden = golden
        return self._golden

    def _watch_sites(self) -> List[FaultSite]:
        """The storage cells the golden run watches: the sampled cells of a
        permanent campaign on the fast RTL core or the fast ISS, none
        otherwise.  Watching every cell instead of the sample doubles the
        RTL golden's cost."""
        backend = self.backend
        if (
            self.config.transient
            or not isinstance(backend, (IssBackend, Leon3RtlBackend))
            or not backend.fast
        ):
            return []
        return [site for site in self.select_sites() if site.index is not None]

    # -- planning ------------------------------------------------------------------------

    def select_sites(self) -> List[FaultSite]:
        """Sample (or enumerate) the fault sites of the configured scope.

        The sample is a pure function of the backend's site universe and the
        config seed, so every fault model — and every worker — sees the same
        population.  Transient campaigns restrict the population to storage
        cells (register file, cache arrays): an SEU is an upset of a state
        element, and only storage sites can fork from checkpoints.  The draw
        happens once per engine (the golden's watch list and the plan share
        it); each call returns a fresh list.
        """
        if self._sites is None:
            universe = self.backend.sites
            scope = [self.config.unit_scope]
            storage_only = self.config.transient
            if self.config.sample_size is None:
                self._sites = list(
                    universe.iter_sites(scope, storage_only=storage_only)
                )
            else:
                self._sites = universe.sample(
                    self.config.sample_size,
                    units=scope,
                    seed=self.config.seed,
                    storage_only=storage_only,
                )
        return list(self._sites)

    def _models(
        self, fault_models: Optional[Sequence[FaultModel]]
    ) -> Tuple[FaultModel, ...]:
        """The result buckets of this campaign (transient mode has one)."""
        if self.config.transient:
            if fault_models is not None:
                raise ValueError(
                    "transient campaigns aggregate under the single "
                    "FaultModel.TRANSIENT bucket; drop the explicit "
                    "fault_models argument (or transient_windows)"
                )
            return (FaultModel.TRANSIENT,)
        return tuple(
            fault_models if fault_models is not None else self.config.fault_models
        )

    def _transient_meta(self) -> Dict[str, Any]:
        """Window parameters of a transient campaign — the one definition
        both the content key (:meth:`store_key`) and the stored
        configuration (``begin_campaign``) are built from."""
        return {
            "windows": self.config.transient_windows,
            "duration": self.config.transient_duration,
            "unit": getattr(self.backend, "transient_unit", "cycles"),
        }

    def _plan_job_list(
        self, models: Tuple[FaultModel, ...], site_list: List[FaultSite]
    ) -> List[CampaignJob]:
        """Expand the site sample into the canonical job list.

        Transient planning samples start times from the golden run's length
        in the backend's native time unit, so it (deterministically) runs the
        golden first.
        """
        config = self.config
        if not config.transient:
            return list(plan_jobs(site_list, models, self.program.name))
        if not site_list:
            raise ValueError(
                f"transient campaigns inject into storage cells only, and "
                f"unit scope {config.unit_scope!r} contains none (its sites "
                f"are combinational nets); widen the scope (e.g. 'iu' for "
                f"the register file, 'cmem' for the cache arrays)"
            )
        golden = self.golden_run()
        horizon = (
            golden.cycles
            if getattr(self.backend, "transient_unit", "cycles") == "cycles"
            else golden.instructions
        )
        return list(plan_transient_jobs(
            site_list,
            horizon=horizon,
            windows=config.transient_windows,
            duration=config.transient_duration,
            seed=config.seed,
            workload=self.program.name,
        ))

    def plan(
        self,
        fault_models: Optional[Sequence[FaultModel]] = None,
        sites: Optional[Sequence[FaultSite]] = None,
        jobs: Optional[Sequence[CampaignJob]] = None,
    ) -> CampaignPlan:
        """Build the executable plan: golden run + site sample + job list.

        *jobs* restricts the plan to a subset of the canonical job list (a
        shard's slice, or the jobs a store has not served yet).
        """
        golden = self.golden_run()
        models = self._models(fault_models)
        site_list = list(sites) if sites is not None else self.select_sites()
        if jobs is None:
            jobs = self._plan_job_list(models, site_list)
        return CampaignPlan(
            program=self.program,
            backend_factory=self.backend_factory,
            unit_scope=self.config.unit_scope,
            fault_models=models,
            sites=site_list,
            jobs=list(jobs),
            max_instructions=self.config.max_instructions,
            backend=self.backend,
            golden=golden,
            checkpoint_interval=self.config.checkpoint_interval,
            early_exit=self.config.early_exit,
            runner=self._runner,
            lockstep_width=self.config.lockstep_width,
            screen=self._screen,
            timelines=self._timelines,
        )

    def store_key(self) -> str:
        """The content key this campaign is (or would be) stored under.

        Derived exactly as a run with a store derives it, including the
        transient window sample for transient campaigns (which
        deterministically runs the golden to plan it).
        """
        # Imported lazily: the store subsystem sits beside the engine.
        from repro.store.keys import backend_identity, campaign_key, transient_token

        config = self.config
        models = self._models(None)
        site_list = self.select_sites()
        transient = None
        if config.transient:
            jobs = self._plan_job_list(models, site_list)
            transient = dict(self._transient_meta())
            transient["jobs"] = [
                transient_token(cast(TransientJob, job)) for job in jobs
            ]
        return campaign_key(
            program=self.program,
            sites=site_list,
            fault_models=models,
            seed=config.seed,
            backend_id=backend_identity(self.backend.name, self.backend_factory),
            unit_scope=config.unit_scope,
            sample_size=config.sample_size,
            max_instructions=config.max_instructions,
            transient=transient,
        )

    # -- execution ----------------------------------------------------------------------

    def run(
        self,
        fault_models: Optional[Sequence[FaultModel]] = None,
        sites: Optional[Sequence[FaultSite]] = None,
        progress: Optional[ProgressCallback] = None,
        store: Optional["CampaignStore"] = None,
    ) -> Dict[FaultModel, CampaignResult]:
        """Execute the campaign and aggregate per-fault-model results.

        Outcomes are folded into the result objects as they stream in;
        *progress* (if given) fires after every finished injection with
        ``(done, total, outcome)``.

        *store* (a :class:`~repro.store.CampaignStore`, or implicitly one
        opened from ``config.store_path``) makes the campaign durable: jobs
        whose outcomes are already committed under this campaign's content
        key are served from the store and only the missing ones execute.

        With ``config.telemetry`` (the default) the run collects structured
        metrics into the process-local registry of :mod:`repro.obs` — reset
        at entry, so after the call the registry holds exactly this run's
        metrics — and a run with a store persists them as the campaign's run
        manifest.

        Jobs execute on the engine's ``scheduler`` when it has one, else on
        a scheduler this run builds and closes.
        """
        self._setup_telemetry()
        owns_store = False
        if store is None and self.config.store_path is not None:
            # Imported lazily: the store subsystem sits beside the engine and
            # only campaigns that opt into persistence pay for it.
            from repro.store import CampaignStore

            store = CampaignStore(self.config.store_path)
            owns_store = True
        try:
            with self._scheduler_scope() as scheduler, TELEMETRY.span(
                "campaign.run"
            ) as span:
                return self._run(scheduler, store, fault_models, sites, progress, span)
        finally:
            if owns_store:
                store.close()
            events = TELEMETRY.events
            if events is not None:
                events.close()

    def _scheduler_scope(self) -> ContextManager[Scheduler]:
        """The engine's own scheduler, left open, or one for this run only."""
        if self.scheduler is not None:
            return contextlib.nullcontext(self.scheduler)
        config = self.config
        return make_scheduler(config.scheduler, config.n_workers, config.chunk_size)

    def _setup_telemetry(self) -> None:
        """Arm the process-local registry for this run (when configured).

        ``config.telemetry=False`` touches nothing: the registry keeps
        whatever state the caller put it in (including "disabled", the
        process default)."""
        if not self.config.telemetry:
            return
        TELEMETRY.enable()
        TELEMETRY.reset()
        if self.config.trace_path is not None:
            events = TELEMETRY.events
            if events is None or events.path != self.config.trace_path:
                if events is not None:
                    events.close()
                TELEMETRY.events = EventLog(self.config.trace_path)

    def _run(
        self,
        scheduler: Scheduler,
        store: Optional["CampaignStore"],
        fault_models: Optional[Sequence[FaultModel]],
        sites: Optional[Sequence[FaultSite]],
        progress: Optional[ProgressCallback],
        span: Span,
    ) -> Dict[FaultModel, CampaignResult]:
        """Serve committed outcomes (with a *store*), execute the rest, and
        fold every record in job-index order.

        Stored and fresh records meet in a reorder buffer, so the aggregated
        results are bit-identical to a single uninterrupted run whatever the
        commit pattern was.  Without a store nothing is served, committed or
        persisted, and no SQLite database is opened.
        """
        config = self.config
        models = self._models(fault_models)
        site_list = list(sites) if sites is not None else self.select_sites()
        jobs = self._plan_job_list(models, site_list)
        # The shard's slice of the canonical plan (shards=1 selects all of
        # it), taken after planning so every shard derives its slice from the
        # identical full job list.
        my_jobs = select_shard(jobs, config.shards, config.shard_index)
        session: Optional["CampaignSession"] = None
        stored: List[OutcomeRecord] = []
        if store is not None:
            # The campaign row — key, config, total_jobs — always describes
            # the *full* plan: a shard is not a new campaign, it commits its
            # slice under the parent identity with the parent job indices,
            # so the store stays 'running' until merge (or co-located shard
            # runs) assembles every slice.
            session = store.begin_campaign(
                program=self.program,
                sites=site_list,
                fault_models=models,
                seed=config.seed,
                unit_scope=config.unit_scope,
                sample_size=config.sample_size,
                max_instructions=config.max_instructions,
                backend_name=self.backend.name,
                backend_factory=self.backend_factory,
                total_jobs=len(jobs),
                transient_jobs=(
                    cast(List[TransientJob], jobs) if config.transient else None
                ),
                transient_config=self._transient_meta() if config.transient else None,
            )
            if config.shards > 1:
                lo, hi = shard_slice(len(jobs), config.shards, config.shard_index)
                session.record_shard(
                    shard_count=config.shards,
                    shard_index=config.shard_index,
                    token=shard_token(session.key, config.shards, config.shard_index),
                    job_lo=lo,
                    job_hi=hi,
                )
            if config.resume:
                shard_indices = {job.index for job in my_jobs}
                stored = [
                    record
                    for record in session.stored_records()
                    if record.job.index in shard_indices
                ]
            else:
                session.reset()
            TELEMETRY.inc("campaign.jobs_memoized", len(stored))
        done_indices = {record.job.index for record in stored}
        remaining = [job for job in my_jobs if job.index not in done_indices]
        TELEMETRY.inc("campaign.jobs_planned", len(my_jobs))
        TELEMETRY.inc("campaign.jobs_executed", len(remaining))
        if session is not None:
            TELEMETRY.inc("store.cache_hits", len(stored))
            TELEMETRY.inc("store.cache_misses", len(remaining))

        # A full cache hit is served without touching the golden run: the
        # reference stats were persisted when the campaign first executed.
        golden_stats = session.golden_stats() if session is not None else None
        if remaining or golden_stats is None:
            golden = self.golden_run()
            golden_stats = {
                "instructions": golden.instructions,
                "cycles": golden.cycles,
                "transactions": len(golden.transactions),
            }
            if session is not None:
                session.record_golden(**golden_stats)
        results = self._make_results(
            models,
            golden_stats["instructions"],
            golden_stats["cycles"],
            golden_stats["transactions"],
        )
        if session is not None and stored and not remaining:
            session.register_hit()

        # Reorder buffer: fold records strictly in job-index order (the
        # canonical aggregation order), even when the committed prefix has
        # gaps that fresh jobs fill in from a parallel scheduler.  The order
        # is tracked through the shard's expected index list — which is
        # simply 0..len(jobs)-1 when unsharded — so a shard whose indices
        # start mid-plan folds exactly like a full campaign.
        expected = [job.index for job in my_jobs]
        cursor = 0
        pending: Dict[int, OutcomeRecord] = {}

        def push(record: OutcomeRecord) -> None:
            nonlocal cursor
            pending[record.job.index] = record
            while cursor < len(expected) and expected[cursor] in pending:
                folded = pending.pop(expected[cursor])
                cursor += 1
                outcome = folded.to_outcome()
                results[folded.job.fault_model].outcomes.append(outcome)
                if progress is not None:
                    progress(cursor, len(expected), outcome)

        fresh: List[OutcomeRecord] = []
        commit_buffer: List[OutcomeRecord] = []

        def on_outcome(record: OutcomeRecord) -> None:
            # Buffer for commit before surfacing the record: an exception
            # from the progress callback (the canonical interrupt) reaches
            # the finally-flush below with this record already buffered, so
            # no finished work is lost.  A hard kill (SIGKILL, power loss)
            # can still lose up to one uncommitted chunk.
            fresh.append(record)
            if session is not None:
                commit_buffer.append(record)
                if len(commit_buffer) >= STORE_COMMIT_CHUNK:
                    session.commit(commit_buffer)
                    commit_buffer.clear()
            push(record)

        try:
            for record in stored:
                push(record)
            if remaining:
                plan = self.plan(fault_models, sites, jobs=remaining)
                scheduler.execute(plan, on_outcome)
        finally:
            if session is not None:
                if commit_buffer:
                    session.commit(commit_buffer)
                session.store.bump("jobs_executed", len(fresh))
                session.store.bump("jobs_cached", len(stored))

        if session is not None and cursor == len(expected):
            # This run's slice is done; the campaign itself completes only
            # when the store holds every planned outcome (immediately for an
            # unsharded run, at merge time — or on the last co-located shard
            # — for a sharded one).
            session.mark_complete_if_done()
        self._attribute_seconds(results, stored + fresh, fresh, span)
        if session is not None and config.telemetry:
            session.put_manifest(self._build_manifest(span))
        return results

    def _build_manifest(self, span: Span) -> Dict[str, Any]:
        """This run's manifest: merged metrics + environment + wall clock.

        Persisted by a run with a store as a result-transparent artifact
        (``repro campaign metrics`` reads it back); the metrics snapshot is
        taken after every worker delta has been merged in.
        """
        config = self.config
        return {
            "manifest_version": 1,
            "created_at": utc_isoformat(wallclock()),
            "wall_seconds": span.elapsed(),
            "environment": {
                "python": platform.python_version(),
                "platform": platform.platform(),
                "cpu_count": os.cpu_count(),
            },
            "execution": {
                "scheduler": config.scheduler,
                "n_workers": config.n_workers,
                "chunk_size": config.chunk_size,
                "lockstep_width": config.lockstep_width,
                "checkpoint_interval": config.checkpoint_interval,
                "early_exit": config.early_exit,
                "transient_windows": config.transient_windows,
                "shards": config.shards,
                "shard_index": config.shard_index,
            },
            "metrics": TELEMETRY.snapshot(),
        }

    def _make_results(
        self,
        models: Sequence[FaultModel],
        golden_instructions: int,
        golden_cycles: int,
        golden_transactions: int,
    ) -> Dict[FaultModel, CampaignResult]:
        return {
            model: CampaignResult(
                workload=self.program.name,
                fault_model=model,
                unit_scope=self.config.unit_scope,
                golden_instructions=golden_instructions,
                golden_cycles=golden_cycles,
                golden_transactions=golden_transactions,
            )
            for model in models
        }

    @staticmethod
    def _attribute_seconds(
        results: Dict[FaultModel, CampaignResult],
        all_records: Sequence[OutcomeRecord],
        fresh_records: Sequence[OutcomeRecord],
        span: Span,
    ) -> None:
        """Per-model simulation cost: the measured seconds of that model's
        faulty runs (stored records keep the seconds of their original
        execution), plus an even share of this run's overhead (golden run,
        planning, scheduling) not attributable to any one job.  Both sides
        of the subtraction read the span clock (the run's ``campaign.run``
        span and the per-job ``engine.job``/``lockstep.pack`` spans), so
        overhead can never go negative from mixing timers."""
        elapsed = span.elapsed()
        job_seconds = sum(record.seconds for record in fresh_records)
        overhead = max(0.0, elapsed - job_seconds) / max(1, len(results))
        model_seconds: Dict[FaultModel, float] = {model: 0.0 for model in results}
        for record in all_records:
            model_seconds[record.job.fault_model] += record.seconds
        for model, result in results.items():
            result.simulation_seconds = model_seconds[model] + overhead

    def run_model(
        self,
        fault_model: FaultModel,
        sites: Optional[Sequence[FaultSite]] = None,
        progress: Optional[ProgressCallback] = None,
        store: Optional["CampaignStore"] = None,
    ) -> CampaignResult:
        """Run the campaign for a single fault model."""
        return self.run(
            fault_models=[fault_model], sites=sites, progress=progress, store=store
        )[fault_model]


def reference_run_seconds(
    program: Program,
    backend_factory: Callable[[], ExecutionBackend],
    runs: int,
    max_instructions: int = 400_000,
) -> float:
    """Wall-clock cost of *runs* fault-free executions on a backend.

    Used by the Section 4.2 simulation-cost comparison: the same experiment
    count, timed through the uniform backend API instead of bespoke loops.
    """
    backend = backend_factory()
    backend.prepare(program)
    with TELEMETRY.span("engine.reference_runs") as span:
        for _ in range(runs):
            backend.run(max_instructions=max_instructions)
    return span.seconds
