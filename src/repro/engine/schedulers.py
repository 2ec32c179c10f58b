"""Campaign schedulers: how a planned list of injection jobs gets executed.

Two schedulers are provided:

* :class:`SerialScheduler` — runs every job on the planner's own backend in
  plan order.  Zero overhead, fully deterministic; the reference
  implementation every other scheduler must match bit-for-bit.
* :class:`MultiprocessingScheduler` — fans chunked job batches out to a
  :class:`multiprocessing.Pool`.  The pool is a resource the caller scopes:
  it forks on the first batch the scheduler runs, serves every later
  campaign handed to the same scheduler, and ends on :meth:`close` (or when
  a ``with`` block exits).  Each batch carries its campaign's worker state
  (:class:`WorkerCampaign`, pickled once per campaign) under a campaign
  token; a worker builds one backend and runs the golden reference once per
  campaign, then reuses both across every batch of that campaign it
  receives (per-worker golden caching).  Ordered ``imap`` plus a final sort
  by job index makes the outcome stream identical to the serial
  scheduler's for the same plan.

Both are context managers with the same ``execute`` / ``close`` protocol
(the serial one's ``close`` does nothing), so a caller that runs several
campaigns opens one scheduler and hands it to each
:class:`~repro.engine.campaign.CampaignEngine`.

Both stream :class:`OutcomeRecord`s through an optional callback as they
finish, which the engine uses for incremental aggregation and progress
reporting.

Both are also **pack-aware**: when the plan carries ``lockstep_width > 1``
and the backend supports the lockstep runtime
(:mod:`repro.engine.lockstep`), consecutive jobs are grouped into packs that
execute through one shared fetch/decode front end — per replica
bit-identical to the scalar path, so the outcome stream is unchanged
(serial == process == lockstep, enforced by ``tests/test_lockstep.py``).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

from repro.faultinjection.comparison import compare_runs

from repro.engine.backend import (
    ExecutionBackend,
    IssBackend,
    Leon3RtlBackend,
    RunResult,
    watchdog_budget,
)
from repro.engine.checkpoint import make_checkpoint_runner
from repro.engine.jobs import (
    CampaignJob,
    CampaignPlan,
    InertScreen,
    OutcomeRecord,
    TransientJob,
    screened,
)
from repro.engine.lockstep import make_pack_runner, packs_enabled
from repro.obs.events import EventLog
from repro.obs.telemetry import TELEMETRY
from repro.rtl.sites import FaultSite

if TYPE_CHECKING:
    # Annotations only: ``multiprocessing.Pool()`` imports the module when a
    # pool first starts, so processes that never fork one skip its ~10 ms.
    import multiprocessing.pool

    from repro.engine.checkpoint import _CheckpointRunnerBase
    from repro.engine.lockstep import GoldenTimelines, LockstepPackRunner
    from repro.isa.assembler import Program

OutcomeCallback = Callable[[OutcomeRecord], None]

#: Scheduler names accepted by :func:`make_scheduler` (and validated eagerly
#: by :class:`~repro.engine.campaign.CampaignConfig`).
KNOWN_SCHEDULERS = ("serial", "process")


def execute_job(
    backend: ExecutionBackend,
    golden: RunResult,
    budget: int,
    job: CampaignJob,
    runner: Optional["_CheckpointRunnerBase"] = None,
    early_exit: bool = True,
    screen: Optional[InertScreen] = None,
) -> OutcomeRecord:
    """Run one injection job on *backend* and classify it against *golden*.

    A permanent job that *screen* (the plan's inert screen) proves inert
    takes *golden* as its faulty run without simulating.  Transient jobs go
    through *runner* (the checkpointed transient runtime of
    :mod:`repro.engine.checkpoint`) when one is available — bit-identical to
    the from-reset run, just faster; other permanent jobs and runner-less
    transient jobs execute from reset.

    The span is the one clock path for injection timing:
    ``OutcomeRecord.seconds`` always comes from it, and with telemetry
    enabled the same measurement lands in the ``engine.job.seconds``
    histogram and the trace event stream.
    """
    with TELEMETRY.span("engine.job") as span:
        if screened(job, screen):
            TELEMETRY.inc("engine.jobs_screened")
            faulty = golden
        elif runner is not None and isinstance(job, TransientJob):
            faulty = runner.run_transient(job.fault, budget, early_exit=early_exit)
        else:
            faulty = backend.run(max_instructions=budget, faults=[job.fault])
    comparison = compare_runs(golden, faulty)
    TELEMETRY.inc(
        "engine.outcomes", labels={"class": comparison.failure_class.value}
    )
    return OutcomeRecord(
        job=job,
        failure_class=comparison.failure_class,
        detection_cycle=comparison.detection_cycle,
        faulty_instructions=faulty.instructions,
        seconds=span.seconds,
    )


def group_packs(
    jobs: Sequence[CampaignJob], width: int
) -> List[List[CampaignJob]]:
    """Group consecutive same-workload, same-kind jobs into packs of at most
    *width* replicas for the lockstep runtime.

    Plans are homogeneous (one job kind, one workload), so in practice this
    is contiguous chunking — but the grouping key is checked anyway, so a
    heterogeneous job stream degrades to smaller packs instead of producing
    a mixed pack.  Contiguity preserves the canonical outcome order, and the
    plan's by-start-time transient ordering means a pack's replicas share a
    trigger neighbourhood (the leader fast-forwards once per pack, not per
    replica)."""
    packs: List[List[CampaignJob]] = []
    for job in jobs:
        if (
            packs
            and len(packs[-1]) < width
            and type(job) is type(packs[-1][0])
            and job.workload == packs[-1][0].workload
        ):
            packs[-1].append(job)
        else:
            packs.append([job])
    return packs


def execute_pack(
    backend: ExecutionBackend,
    golden: RunResult,
    budget: int,
    pack_jobs: Sequence[CampaignJob],
    pack_runner: "LockstepPackRunner",
    early_exit: bool = True,
) -> List[OutcomeRecord]:
    """Run one pack of jobs through the lockstep runtime and classify each
    replica against *golden*.

    Per-replica outcomes are bit-identical to :func:`execute_job`'s, so the
    classification stream is scheduler-transparent (serial == process ==
    lockstep).  The pack's wall time (one ``lockstep.pack`` span) is split
    evenly across its records — the cost attribution is per pack, the
    classification is per replica.
    """
    with TELEMETRY.span("lockstep.pack") as span:
        faults = [backend._to_architectural(job.fault) for job in pack_jobs]
        outcomes = pack_runner.run_pack(faults, budget, early_exit=early_exit)
    seconds = span.seconds / len(pack_jobs)
    records: List[OutcomeRecord] = []
    for job, outcome in zip(pack_jobs, outcomes):
        comparison = compare_runs(golden, outcome.result)
        TELEMETRY.inc(
            "engine.outcomes", labels={"class": comparison.failure_class.value}
        )
        records.append(
            OutcomeRecord(
                job=job,
                failure_class=comparison.failure_class,
                detection_cycle=comparison.detection_cycle,
                faulty_instructions=outcome.result.instructions,
                seconds=seconds,
            )
        )
    return records


def execute_jobs(
    backend: ExecutionBackend,
    golden: RunResult,
    budget: int,
    jobs: Sequence[CampaignJob],
    runner: Optional["_CheckpointRunnerBase"] = None,
    pack_runner: Optional["LockstepPackRunner"] = None,
    early_exit: bool = True,
    screen: Optional[InertScreen] = None,
) -> Iterator[OutcomeRecord]:
    """Run *jobs* and yield their records in job order: one by one through
    :func:`execute_job`, or, with a *pack_runner*, in packs of the jobs
    *screen* does not resolve (screened jobs never take a pack slot)."""
    if pack_runner is None:
        for job in jobs:
            yield execute_job(
                backend, golden, budget, job, runner=runner,
                early_exit=early_exit, screen=screen,
            )
        return
    inert = {job.index for job in jobs if screened(job, screen)}
    packs = iter(group_packs(
        [job for job in jobs if job.index not in inert], pack_runner.width
    ))
    done: Dict[int, OutcomeRecord] = {}
    for job in jobs:
        if job.index in inert:
            yield execute_job(backend, golden, budget, job, screen=screen)
            continue
        if job.index not in done:
            for record in execute_pack(
                backend, golden, budget, next(packs), pack_runner,
                early_exit=early_exit,
            ):
                done[record.job.index] = record
        yield done.pop(job.index)


def plan_runner(
    plan: CampaignPlan, backend: ExecutionBackend
) -> Optional["_CheckpointRunnerBase"]:
    """The checkpoint runner for *plan*'s transient jobs (``None`` for
    permanent plans or backends without snapshot support).  Reuses the
    planner's runner when the plan carries one — its ladder recording was
    the golden run, so nothing re-executes."""
    if not plan.transient:
        return None
    if plan.runner is not None:
        return cast("_CheckpointRunnerBase", plan.runner)
    return make_checkpoint_runner(
        backend, plan.max_instructions, plan.checkpoint_interval,
        record_touches=packs_enabled(backend, plan.lockstep_width),
    )


class SerialScheduler:
    """Run jobs one after another on the planner's backend."""

    name = "serial"

    def __enter__(self) -> "SerialScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Nothing to release: the protocol :class:`MultiprocessingScheduler`
        needs for its pool."""

    def execute(
        self, plan: CampaignPlan, on_outcome: Optional[OutcomeCallback] = None
    ) -> List[OutcomeRecord]:
        with TELEMETRY.span("scheduler.execute", {"scheduler": self.name}):
            return self._execute(plan, on_outcome)

    def _execute(
        self, plan: CampaignPlan, on_outcome: Optional[OutcomeCallback]
    ) -> List[OutcomeRecord]:
        budget = watchdog_budget(plan.golden.instructions)
        runner = plan_runner(plan, plan.backend)
        pack_runner = make_pack_runner(
            plan.backend, plan.max_instructions, plan.lockstep_width,
            runner=runner, timelines=plan.timelines,
        )
        records: List[OutcomeRecord] = []
        for record in execute_jobs(
            plan.backend, plan.golden, budget, plan.jobs, runner=runner,
            pack_runner=pack_runner, early_exit=plan.early_exit,
            screen=plan.screen,
        ):
            records.append(record)
            if on_outcome is not None:
                on_outcome(record)
        return records


# -- multiprocessing worker side ---------------------------------------------------
#
# A worker holds the state of one campaign at a time in a module global.  The
# parent pickles that state once per campaign and sends it with every batch
# under a campaign token; a worker whose state belongs to another token (or
# was inherited through fork) rebuilds it before running the batch.  Only
# small picklable objects (the campaign state, job batches, outcome records)
# ever cross the process boundary.

_WORKER: Dict[str, object] = {}  # reprolint: worker-state


@dataclass(frozen=True)
class WorkerCampaign:
    """What a pool worker needs to run one campaign's jobs.

    Built and pickled once per campaign in the parent; each worker loads it
    once, on the first batch of that campaign it receives.
    """

    backend_factory: Callable[[], ExecutionBackend]
    program: "Program"
    max_instructions: int
    transient: bool
    checkpoint_interval: Optional[int]
    early_exit: bool
    lockstep_width: int
    #: The planner's inert screen: valid in a worker, whose golden is
    #: bit-identical to the planner's.
    screen: Optional[InertScreen]
    #: The parent's telemetry state, mirrored into the worker's registry.
    telemetry_enabled: bool
    trace_path: Optional[str]

    @classmethod
    def of(cls, plan: CampaignPlan) -> "WorkerCampaign":
        """The worker state of *plan*, with the parent's telemetry state."""
        events = TELEMETRY.events
        return cls(
            backend_factory=plan.backend_factory,
            program=plan.program,
            max_instructions=plan.max_instructions,
            transient=plan.transient,
            checkpoint_interval=plan.checkpoint_interval,
            early_exit=plan.early_exit,
            lockstep_width=plan.lockstep_width,
            screen=plan.screen,
            telemetry_enabled=TELEMETRY.enabled,
            trace_path=events.path if events is not None else None,
        )


def _run_golden(
    backend: ExecutionBackend,
    max_instructions: int,
    runner: Optional["_CheckpointRunnerBase"],
    watch: Sequence[FaultSite] = (),
    record_touches: bool = False,
) -> Tuple[RunResult, Optional["GoldenTimelines"]]:
    """Execute this process's golden reference from reset; returns it with
    the lockstep runtime's golden touch timelines, recorded on the same pass
    when *record_touches* (else ``None``).

    With a checkpoint *runner* the ladder recording *is* the golden run (the
    recorded result is bit-identical to a plain run — the checkpoint
    contract), and the runner records the timelines when it was built to;
    otherwise a plain golden executes, watching the storage cells *watch*
    (``Leon3RtlBackend.run(watch=...)``, ``IssBackend.run(watch=...)``).
    """
    if runner is not None:
        return runner.golden(), runner.touch_timelines
    if record_touches:
        iss = cast(IssBackend, backend)
        golden = iss.run(max_instructions, watch=watch, record_touches=True)
        return golden, iss.touch_timelines
    if watch:
        return cast(Union[IssBackend, Leon3RtlBackend], backend).run(
            max_instructions, watch=watch
        ), None
    return backend.run(max_instructions=max_instructions), None


def _init_worker(campaign: WorkerCampaign) -> None:
    """Build this worker's state for *campaign*: its backend, its golden run
    and the runners built on them.  The previous campaign's state is dropped
    first."""
    _WORKER.clear()
    # Mirror the parent's telemetry state into this worker process: the
    # registry is process-local, so each worker accumulates its own deltas
    # (shipped home per batch by :func:`_run_batch`) and — when tracing —
    # appends to its own per-PID sidecar file.
    TELEMETRY.reset()
    TELEMETRY.events = None
    if campaign.telemetry_enabled:
        TELEMETRY.enable()
        if campaign.trace_path is not None:
            TELEMETRY.events = EventLog(campaign.trace_path)
    else:
        TELEMETRY.disable()
    backend: ExecutionBackend = campaign.backend_factory()
    backend.prepare(campaign.program)
    max_instructions = campaign.max_instructions
    record_touches = packs_enabled(backend, campaign.lockstep_width)
    runner: Optional["_CheckpointRunnerBase"] = None
    if campaign.transient:
        runner = make_checkpoint_runner(
            backend, max_instructions, campaign.checkpoint_interval,
            record_touches,
        )
    with TELEMETRY.span("golden"):
        golden, timelines = _run_golden(
            backend, max_instructions, runner, record_touches=record_touches
        )
    if not golden.normal_exit:
        raise RuntimeError(
            f"worker golden run of {campaign.program.name!r} did not exit "
            f"normally (trap={golden.trap_kind})"
        )
    _WORKER["backend"] = backend
    _WORKER["golden"] = golden
    _WORKER["budget"] = watchdog_budget(golden.instructions)
    _WORKER["runner"] = runner
    _WORKER["early_exit"] = campaign.early_exit
    _WORKER["screen"] = campaign.screen
    _WORKER["pack_runner"] = make_pack_runner(
        backend, max_instructions, campaign.lockstep_width, runner=runner,
        timelines=timelines,
    )


#: One pool submission: campaign token, pickled :class:`WorkerCampaign`, jobs.
BatchTask = Tuple[int, bytes, Sequence[CampaignJob]]


def _run_batch(
    task: BatchTask,
) -> Tuple[List[OutcomeRecord], Optional[Dict[str, Any]]]:
    """Execute one batch in this worker; returns the outcome records plus a
    snapshot-and-reset of the worker's telemetry registry (``None`` when
    telemetry is off), so successive batches ship disjoint metric deltas the
    parent merges additively.

    The worker (re)builds its campaign state when the batch's token is not
    the one its state was built for in this process: the process id in the
    key keeps a forked worker from taking over state its parent built."""
    token, campaign, jobs = task
    key = (os.getpid(), token)
    if _WORKER.get("campaign") != key:
        _init_worker(pickle.loads(campaign))
        _WORKER["campaign"] = key
    backend: ExecutionBackend = _WORKER["backend"]  # type: ignore[assignment]
    golden: RunResult = _WORKER["golden"]  # type: ignore[assignment]
    budget: int = _WORKER["budget"]  # type: ignore[assignment]
    runner = cast("Optional[_CheckpointRunnerBase]", _WORKER["runner"])
    early_exit: bool = _WORKER["early_exit"]  # type: ignore[assignment]
    screen = cast("Optional[InertScreen]", _WORKER["screen"])
    pack_runner = cast("Optional[LockstepPackRunner]", _WORKER["pack_runner"])
    records = list(execute_jobs(
        backend, golden, budget, jobs, runner=runner, pack_runner=pack_runner,
        early_exit=early_exit, screen=screen,
    ))
    snapshot = TELEMETRY.snapshot(reset=True) if TELEMETRY.enabled else None
    if snapshot is not None and TELEMETRY.events is not None:
        # Keep the worker's trace sidecar current even if the pool is torn
        # down without cleanup (workers are killed, not joined gracefully).
        TELEMETRY.events.close()
    return records, snapshot


def chunk_jobs(
    jobs: Sequence[CampaignJob], n_workers: int, chunk_size: Optional[int] = None
) -> List[List[CampaignJob]]:
    """Split *jobs* into contiguous batches for the pool.

    The default batch size targets a few batches per worker — large enough to
    amortise IPC, small enough to keep the pool balanced and the progress
    stream flowing.
    """
    if not jobs:
        return []
    if chunk_size is None:
        chunk_size = max(1, min(32, -(-len(jobs) // (n_workers * 4))))
    return [list(jobs[i : i + chunk_size]) for i in range(0, len(jobs), chunk_size)]


class MultiprocessingScheduler:
    """Fan job batches out to a pool of worker processes that lives from the
    first batch to :meth:`close`, across every campaign this scheduler runs.

    Scope it to the campaigns that share it (``with make_scheduler(...) as
    scheduler:``); a scheduler that is never closed keeps its workers until
    the interpreter exits.
    """

    name = "process"

    def __init__(self, n_workers: int, chunk_size: Optional[int] = None):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.chunk_size = chunk_size
        self._pool: Optional[multiprocessing.pool.Pool] = None
        #: Campaigns dispatched so far; the last one's token.
        self._campaigns = 0

    def __enter__(self) -> "MultiprocessingScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """End the worker pool, if one was started; a later batch forks a
        new one."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()

    def _workers(self) -> multiprocessing.pool.Pool:
        """The pool, forked on first use."""
        if self._pool is None:
            events = TELEMETRY.events
            if events is not None:
                # Flush the parent's buffered trace lines so no forked
                # worker inherits (and writes out) a copy of them.
                events.close()
            # The span's count is the number of pool starts.
            with TELEMETRY.span("scheduler.pool_start"):
                self._pool = multiprocessing.Pool(processes=self.n_workers)
        return self._pool

    def execute(
        self, plan: CampaignPlan, on_outcome: Optional[OutcomeCallback] = None
    ) -> List[OutcomeRecord]:
        with TELEMETRY.span("scheduler.execute", {"scheduler": self.name}):
            return self._execute(plan, on_outcome)

    def _execute(
        self, plan: CampaignPlan, on_outcome: Optional[OutcomeCallback]
    ) -> List[OutcomeRecord]:
        batches = chunk_jobs(plan.jobs, self.n_workers, self.chunk_size)
        if not batches:
            return []
        # The parent's telemetry state now decides the workers': each worker
        # mirrors it in its own process-local registry and ships per-batch
        # snapshot deltas home with its records.
        self._campaigns += 1
        campaign = pickle.dumps(WorkerCampaign.of(plan))
        tasks: List[BatchTask] = [
            (self._campaigns, campaign, batch) for batch in batches
        ]
        records: List[OutcomeRecord] = []
        try:
            for batch_records, snapshot in self._workers().imap(_run_batch, tasks):
                TELEMETRY.merge(snapshot)
                for record in batch_records:
                    records.append(record)
                    if on_outcome is not None:
                        on_outcome(record)
        except BaseException:
            # An interrupted or failed campaign leaves batches queued or
            # running: end the pool so none of them outlives this call.
            self.close()
            raise
        records.sort(key=lambda record: record.job.index)
        return records


#: Either scheduler; both share the ``execute`` / ``close`` protocol.
Scheduler = Union[SerialScheduler, MultiprocessingScheduler]


def make_scheduler(
    scheduler: Optional[str] = None,
    n_workers: int = 1,
    chunk_size: Optional[int] = None,
) -> Scheduler:
    """Resolve a scheduler from a name plus a worker count.

    ``None`` auto-selects: serial for one worker, multiprocessing otherwise.
    """
    if scheduler is None:
        scheduler = "serial" if n_workers <= 1 else "process"
    if scheduler == "serial":
        return SerialScheduler()
    if scheduler == "process":
        return MultiprocessingScheduler(max(1, n_workers), chunk_size=chunk_size)
    raise ValueError(
        f"unknown scheduler {scheduler!r} (expected one of {KNOWN_SCHEDULERS})"
    )
