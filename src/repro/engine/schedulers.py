"""Campaign schedulers: how a planned list of injection jobs gets executed.

Two schedulers are provided:

* :class:`SerialScheduler` — runs every job on the planner's own backend in
  plan order.  Zero overhead, fully deterministic; the reference
  implementation every other scheduler must match bit-for-bit.
* :class:`MultiprocessingScheduler` — fans chunked job batches out to a
  :class:`multiprocessing.Pool`.  Each worker builds one backend, runs
  the golden reference once, and then reuses both across every batch it
  receives (per-worker golden caching), so the per-injection cost approaches
  the raw simulation cost.  Ordered ``imap`` plus a final sort by job index
  makes the outcome stream identical to the serial scheduler's for the same
  plan.

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
# Worker state lives in module globals initialised once per worker process via
# the Pool initializer; only small picklable objects (the backend factory, the
# program, job batches, outcome records) ever cross the process boundary.

_WORKER: Dict[str, object] = {}  # reprolint: worker-state


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


def _init_worker(
    backend_factory: Callable[[], ExecutionBackend],
    program: "Program",
    max_instructions: int,
    transient: bool = False,
    checkpoint_interval: Optional[int] = None,
    early_exit: bool = True,
    lockstep_width: int = 1,
    telemetry_enabled: bool = False,
    trace_path: Optional[str] = None,
    screen: Optional[InertScreen] = None,
) -> None:
    # Mirror the parent's telemetry state into this worker process: the
    # registry is process-local, so each worker accumulates its own deltas
    # (shipped home per batch by :func:`_run_batch`) and — when tracing —
    # appends to its own per-PID sidecar file.
    if telemetry_enabled:
        TELEMETRY.enable()
        TELEMETRY.reset()
        if trace_path is not None:
            TELEMETRY.events = EventLog(trace_path)
    backend: ExecutionBackend = backend_factory()
    backend.prepare(program)
    record_touches = packs_enabled(backend, lockstep_width)
    runner: Optional["_CheckpointRunnerBase"] = None
    if transient:
        runner = make_checkpoint_runner(
            backend, max_instructions, checkpoint_interval, record_touches
        )
    with TELEMETRY.span("golden"):
        golden, timelines = _run_golden(
            backend, max_instructions, runner, record_touches=record_touches
        )
    if not golden.normal_exit:
        raise RuntimeError(
            f"worker golden run of {program.name!r} did not exit normally "
            f"(trap={golden.trap_kind})"
        )
    _WORKER["backend"] = backend
    _WORKER["golden"] = golden
    _WORKER["budget"] = watchdog_budget(golden.instructions)
    _WORKER["runner"] = runner
    _WORKER["early_exit"] = early_exit
    # The planner's screen is valid here: this worker's golden is
    # bit-identical to the planner's.
    _WORKER["screen"] = screen
    _WORKER["pack_runner"] = make_pack_runner(
        backend, max_instructions, lockstep_width, runner=runner,
        timelines=timelines,
    )


def _run_batch(
    jobs: Sequence[CampaignJob],
) -> Tuple[List[OutcomeRecord], Optional[Dict[str, Any]]]:
    """Execute one batch in this worker; returns the outcome records plus a
    snapshot-and-reset of the worker's telemetry registry (``None`` when
    telemetry is off), so successive batches ship disjoint metric deltas the
    parent merges additively."""
    backend: ExecutionBackend = _WORKER["backend"]  # type: ignore[assignment]
    golden: RunResult = _WORKER["golden"]  # type: ignore[assignment]
    budget: int = _WORKER["budget"]  # type: ignore[assignment]
    runner = cast("Optional[_CheckpointRunnerBase]", _WORKER.get("runner"))
    early_exit: bool = _WORKER.get("early_exit", True)  # type: ignore[assignment]
    screen = cast("Optional[InertScreen]", _WORKER.get("screen"))
    pack_runner = cast(
        "Optional[LockstepPackRunner]", _WORKER.get("pack_runner")
    )
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
    """Fan job batches out to a pool of per-backend worker processes."""

    name = "process"

    def __init__(self, n_workers: int, chunk_size: Optional[int] = None):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.chunk_size = chunk_size

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
        records: List[OutcomeRecord] = []
        # The parent's telemetry state at pool creation decides the workers':
        # each worker mirrors it in its own process-local registry and ships
        # per-batch snapshot deltas home with its records.
        events = TELEMETRY.events
        with multiprocessing.Pool(
            processes=min(self.n_workers, len(batches)),
            initializer=_init_worker,
            initargs=(
                plan.backend_factory, plan.program, plan.max_instructions,
                plan.transient, plan.checkpoint_interval, plan.early_exit,
                plan.lockstep_width, TELEMETRY.enabled,
                events.path if events is not None else None, plan.screen,
            ),
        ) as pool:
            for batch_records, snapshot in pool.imap(_run_batch, batches):
                TELEMETRY.merge(snapshot)
                for record in batch_records:
                    records.append(record)
                    if on_outcome is not None:
                        on_outcome(record)
        records.sort(key=lambda record: record.job.index)
        return records


def make_scheduler(
    scheduler: Optional[str] = None,
    n_workers: int = 1,
    chunk_size: Optional[int] = None,
) -> Union[SerialScheduler, MultiprocessingScheduler]:
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
