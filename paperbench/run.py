#!/usr/bin/env python3
"""Time to reproduce the paper, with outputs checked and layers accounted.

Run from the repository root::

    python3 paperbench/run.py --workload paper_rtl --seed 1 --seconds 30 --trace 0

A run sets up (import, program assembly, site universes, store creation),
then repeats *rounds* while at least half of the next one fits in
``--seconds``.  A
round is a cold pass over the workload's calls followed by warm passes over
the same calls: on ``stored_pool`` the cold pass fills a fresh store and the
warm passes are served from it; the other workloads have no store, so their
warm pass recomputes in an already-warm process.  Every campaign's ordered
outcomes are checked against ``digests.json``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics of the traced
ones (see ``layers.py``).  ``--reference`` runs one cold pass on the
reference engines and checks (or, with ``--write``, records) the committed
digests.  The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
#: Scratch state of runs in this checkout: stores, recorded digests, traces.
STATE = CHECKOUT / ".paperbench"
DIGESTS = HERE / "digests.json"

import workloads  # noqa: E402
from checks import Capture, CampaignRecord, DigestBook  # noqa: E402
from layers import ROOT, Patcher, Tracer, install_layers  # noqa: E402
from pace import Pace  # noqa: E402

#: Set-up is timed in this many fresh processes; the median is reported.
SETUP_PROBES = 5
#: Warm passes per round (the store-served pass is short, so it repeats).
WARM_PASSES = {"stored_pool": 5}
#: Pool size of ``stored_pool``: the host's CPUs, capped so the workload has
#: the same shape (and bounded memory) on larger hosts.
MAX_WORKERS = 2

END_TO_END = {
    "wall_s": "s",
    "inj_per_s": "inj/s",
    "setup_s": "s",
    "warm_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "workloads.build_s": "s", "workloads.builds": "count",
    "rtl.sample_s": "s", "rtl.net_job_share": "ratio",
    "leon3.fast_runs": "count", "leon3.fast_s": "s", "leon3.fast_ms_per_run": "ms",
    "leon3.ref_runs": "count", "leon3.ref_s": "s", "leon3.ref_ms_per_run": "ms",
    "leon3.instr_per_s": "instr/s",
    "iss.runs": "count", "iss.run_s": "s", "iss.instr_per_s": "instr/s",
    "core.characterize_s": "s",
    "engine.golden_s": "s", "engine.golden_calls": "count",
    "engine.plan_s": "s", "engine.run_s": "s",
    "engine.jobs": "count", "engine.job_s": "s",
    "engine.dispatch_s": "s", "engine.pool_first_outcome_s": "s",
    "checkpoint.forks": "count", "checkpoint.fork_s": "s",
    "checkpoint.early_exit_share": "ratio",
    "lockstep.packs": "count", "lockstep.pack_s": "s", "lockstep.replicas": "count",
    "lockstep.golden_share": "ratio", "lockstep.rode_share": "ratio",
    "lockstep.spliced_share": "ratio", "lockstep.demoted_share": "ratio",
    "faultinjection.classify_s": "s", "faultinjection.classify_calls": "count",
    "store.begin_s": "s", "store.commit_s": "s", "store.commits": "count",
    "store.manifest_s": "s", "store.read_s": "s",
    "store.artifact_put_s": "s", "store.artifact_get_s": "s", "store.db_bytes": "B",
    "trace.unaccounted_s": "s", "trace.overhead_frac": "ratio",
}


def n_workers() -> int:
    return max(1, min(MAX_WORKERS, len(os.sched_getaffinity(0))))


def make_calls(workload: str, order: str, store_path: str) -> List[workloads.Call]:
    """The calls of one pass, in the order the order key draws."""
    if workload == "paper_rtl":
        return workloads.paper_rtl(order)
    if workload == "stored_pool":
        return workloads.stored_pool(order, store_path, n_workers())
    return workloads.seu_lockstep(order)


def remove_store(path: Path) -> None:
    for suffix in ("", "-wal", "-shm"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(f"{path}{suffix}")


def store_bytes(path: Path) -> int:
    return sum(
        os.path.getsize(f"{path}{suffix}")
        for suffix in ("", "-wal")
        if os.path.exists(f"{path}{suffix}")
    )


def set_up(workload: str) -> None:
    """The work before the first campaign: import, program assembly, site
    universes and (``stored_pool``) store creation."""
    from repro.engine import IssBackend, Leon3RtlBackend
    from repro.store import CampaignStore
    from repro.workloads import build_program

    for name, iterations, full_size in workloads.programs_used(workload):
        build_program(name, iterations=iterations, full_size=full_size)
    Leon3RtlBackend().sites
    IssBackend().sites
    if workload == "stored_pool":
        path = STATE / f"setup-{os.getpid()}.sqlite"
        CampaignStore(path).close()
        remove_store(path)


def time_setup(workload: str) -> float:
    """Paced seconds from process start to the end of :func:`set_up`, in a
    fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, __file__, "--workload", workload,
         "--setup-probe", repr(time.monotonic())],
        check=True, cwd=CHECKOUT, timeout=120, capture_output=True, text=True,
    )
    return float(probe.stdout.split()[-1])


def probe_setup(workload: str, started: float) -> float:
    """The set-up probe's side of :func:`time_setup`: set up, paced from
    *started* (the parent's ``time.monotonic()`` just before the spawn)."""
    with Pace() as pace:
        set_up(workload)
        since_start = time.monotonic() - started
        return pace.paced((time.perf_counter() - since_start, 0.0, 0))


@dataclass
class Round:
    #: Pass times: paced (see ``pace.py``) in untraced end-to-end runs,
    #: host seconds otherwise.
    cold_s: float
    warm_s: List[float]
    #: Host seconds of the whole round.
    seconds: float
    #: Jobs the cold pass executed (none are store-served there).
    executed: int
    traced: bool
    db_bytes: int
    #: ``Capture.records`` slice of the cold pass.
    cold_records: List[CampaignRecord]


def timed_pass(calls: List[workloads.Call], pace: Optional[Pace]) -> float:
    start = pace.mark() if pace is not None else time.perf_counter()
    for call in calls:
        call()
    if pace is not None:
        return pace.paced(start)
    return time.perf_counter() - start


def run_round(
    workload: str,
    seed: int,
    index: int,
    capture: Capture,
    tracer: Optional[Tracer] = None,
    reference: bool = False,
    paced: bool = False,
) -> Round:
    """One cold pass plus its warm passes (none in reference mode)."""
    store = STATE / f"store-{os.getpid()}-{index}.sqlite"
    calls = make_calls(workload, f"{seed}/{index}", str(store))
    warm_passes = 0 if reference else WARM_PASSES.get(workload, 1)
    first = len(capture.records)
    executed_before = capture.counters["campaign.jobs_executed"]
    started = time.perf_counter()
    try:
        with contextlib.ExitStack() as stack:
            patcher = stack.enter_context(Patcher())
            if tracer is not None:
                install_layers(patcher, tracer)
            capture.install(patcher, reference=reference)
            pace = stack.enter_context(Pace()) if paced else None
            if tracer is not None:
                stack.enter_context(tracer.span(ROOT))
            cold_s = timed_pass(calls, pace)
            executed = capture.counters["campaign.jobs_executed"] - executed_before
            cold_records = capture.records[first:]
            db_bytes = store_bytes(store)
            warm_s = [timed_pass(calls, pace) for _ in range(warm_passes)]
    finally:
        remove_store(store)
    return Round(
        cold_s, warm_s, time.perf_counter() - started, int(executed),
        tracer is not None, db_bytes, cold_records,
    )


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def traffic_table(records: List[CampaignRecord], leon3_s: Dict[str, float]) -> List[str]:
    """The job mix of one cold pass, and each class's share of leon3 time."""
    mix: Counter = Counter()
    for record in records:
        mix.update(record.traffic)
    total = sum(mix.values()) or 1
    lines = [f"{'backend':7} {'scope':12} {'model':11} {'site':7} {'jobs':>6} {'share':>6}"]
    for (backend, scope, model, kind), jobs in sorted(mix.items()):
        lines.append(
            f"{backend:7} {scope:12} {model:11} {kind:7} {jobs:6d} {jobs / total:6.1%}"
        )

    def share(predicate: Any) -> float:
        return sum(n for key, n in mix.items() if predicate(key)) / total

    lines.append(
        f"net {share(lambda k: k[3] == 'net'):.1%} / storage "
        f"{share(lambda k: k[3] == 'storage'):.1%}; rtl {share(lambda k: k[0] == 'rtl'):.1%}"
        f" / iss {share(lambda k: k[0] == 'iss'):.1%}; transient "
        f"{share(lambda k: k[2] == 'transient'):.1%} / permanent "
        f"{share(lambda k: k[2] != 'transient'):.1%}"
    )
    leon3_total = sum(leon3_s.values())
    if leon3_total:
        lines.append("leon3 self time by class:")
        for cls, seconds in sorted(leon3_s.items(), key=lambda item: -item[1]):
            lines.append(f"  {cls:28} {seconds:8.3f} s {seconds / leon3_total:6.1%}")
    return lines


def net_job_share(records: List[CampaignRecord]) -> float:
    """Share of planned RTL permanent jobs whose site is a net."""
    rtl = Counter()
    for record in records:
        for (backend, _, model, kind), jobs in record.traffic.items():
            if backend == "rtl" and model != "transient":
                rtl[kind] += jobs
    return rtl["net"] / max(1, sum(rtl.values()))


def layer_metrics(
    tracer: Tracer, capture: Capture, rounds: List[Round]
) -> Dict[str, float]:
    """Per-layer metrics, per traced round."""
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    n = len(traced)
    own = tracer.layer_self_times()
    calls = tracer.calls()
    counts = tracer.counts

    def s(layer: str) -> float:
        return own.get(layer, 0.0) / n

    def c(layer: str) -> float:
        return calls.get(layer, 0) / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    leon3_s = own.get("leon3.fast", 0.0) + own.get("leon3.ref", 0.0)
    leon3_instr = counts["leon3.fast.instructions"] + counts["leon3.ref.instructions"]
    replicas = counts["lockstep.replicas"]
    metrics = {
        "workloads.build_s": s("workloads.build"), "workloads.builds": c("workloads.build"),
        "rtl.sample_s": s("rtl.sample"),
        "rtl.net_job_share": net_job_share(traced[0].cold_records),
        "leon3.fast_runs": c("leon3.fast"), "leon3.fast_s": s("leon3.fast"),
        "leon3.fast_ms_per_run": 1000 * ratio(s("leon3.fast"), c("leon3.fast")),
        "leon3.ref_runs": c("leon3.ref"), "leon3.ref_s": s("leon3.ref"),
        "leon3.ref_ms_per_run": 1000 * ratio(s("leon3.ref"), c("leon3.ref")),
        "leon3.instr_per_s": ratio(leon3_instr, leon3_s),
        "iss.runs": c("iss.run"), "iss.run_s": s("iss.run"),
        "iss.instr_per_s": ratio(counts["iss.run.instructions"], own.get("iss.run", 0.0)),
        "core.characterize_s": s("core.characterize"),
        "engine.golden_s": s("engine.golden"), "engine.golden_calls": c("engine.golden"),
        "engine.plan_s": s("engine.plan"), "engine.run_s": s("engine.run"),
        "engine.jobs": c("engine.job"), "engine.job_s": s("engine.job"),
        "engine.dispatch_s": s("engine.dispatch"),
        "engine.pool_first_outcome_s": counts["engine.pool_first_outcome_s"] / n,
        "checkpoint.forks": c("checkpoint.fork"), "checkpoint.fork_s": s("checkpoint.fork"),
        "checkpoint.early_exit_share": ratio(
            capture.counters["checkpoint.early_exits"], capture.counters["checkpoint.forks"]
        ),
        "lockstep.packs": c("lockstep.pack"), "lockstep.pack_s": s("lockstep.pack"),
        "lockstep.replicas": replicas / n,
        "faultinjection.classify_s": s("faultinjection.classify"),
        "faultinjection.classify_calls": c("faultinjection.classify"),
        "store.begin_s": s("store.begin"), "store.commit_s": s("store.commit"),
        "store.commits": c("store.commit"), "store.manifest_s": s("store.manifest"),
        "store.read_s": s("store.read"),
        "store.artifact_put_s": s("store.artifact_put"),
        "store.artifact_get_s": s("store.artifact_get"),
        "store.db_bytes": statistics.median(r.db_bytes for r in traced),
        "trace.unaccounted_s": s(ROOT),
        "trace.overhead_frac": ratio(
            statistics.median(r.seconds for r in traced),
            statistics.median(r.seconds for r in untraced),
        ) - 1,
    }
    for kind in ("golden", "rode", "spliced", "demoted"):
        resolution = "rode_pack" if kind == "rode" else kind
        metrics[f"lockstep.{kind}_share"] = ratio(
            counts[f"lockstep.resolution.{resolution}"], replicas
        )
    return metrics


def end_to_end_metrics(rounds: List[Round], setup: List[float]) -> Dict[str, float]:
    untraced = [r for r in rounds if not r.traced]
    return {
        "wall_s": statistics.median(r.cold_s for r in untraced),
        "inj_per_s": statistics.median(r.executed / r.cold_s for r in untraced),
        "setup_s": statistics.median(setup),
        "warm_s": statistics.median(s for r in untraced for s in r.warm_s),
        "peak_rss_mb": peak_rss_mb(),
    }


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, float], units: Dict[str, str]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    })


def check_digests(book: DigestBook, records: List[CampaignRecord]) -> int:
    """Failed jobs: every job of a campaign whose digest disagrees."""
    failed = 0
    for record in records:
        if not book.check(record):
            print(f"digest mismatch: {record.key}", file=sys.stderr)
            failed += record.jobs
    return failed


def benchmark(args: argparse.Namespace, digests: Path = DIGESTS) -> int:
    STATE.mkdir(exist_ok=True)
    setup = [] if args.trace else [time_setup(args.workload) for _ in range(SETUP_PROBES)]
    set_up(args.workload)

    capture = Capture()
    tracer = Tracer()
    rounds: List[Round] = []
    crashed = 0
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        try:
            rounds.append(run_round(
                args.workload, args.seed, len(rounds), capture,
                tracer if traced else None, paced=not args.trace,
            ))
        except Exception:  # a crashing pass is a failed operation, not a crash
            traceback.print_exc()
            crashed = max(1, rounds[0].executed if rounds else 1)
            break
        # Start another round only if at least half of it fits.
        elapsed = time.perf_counter() - started
        enough = len(rounds) >= (2 if args.trace else 1)
        if enough and elapsed + rounds[-1].seconds / 2 > args.seconds:
            break

    book = DigestBook(str(digests), str(STATE / f"digests-{args.workload}.json"))
    failed = check_digests(book, capture.records) + crashed
    book.save_recorded()
    attempted = sum(record.jobs for record in capture.records) + crashed
    if crashed or not rounds:
        print(result_line(False, max(1, attempted), max(1, failed), {}, {}))
        return 1

    print(f"{args.workload}: seed {args.seed}, {len(rounds)} round(s), "
          f"{n_workers() if args.workload == 'stored_pool' else 1} worker process(es)")
    for line in traffic_table(rounds[0].cold_records, tracer.tag_self_times("leon3.")):
        print(line)
    if args.trace:
        metrics, units = layer_metrics(tracer, capture, rounds), PER_LAYER
        tracer.dump(str(STATE / f"trace-{args.workload}-seed{args.seed}.json"))
    else:
        metrics, units = end_to_end_metrics(rounds, setup), END_TO_END
    for name, unit in units.items():
        print(f"  {name:32} {metrics[name]:14.6g} {unit}")
    idle = [name for name in units if metrics[name] == 0]
    if idle:
        print(f"reading 0 on {args.workload}, for want of such work: "
              + ", ".join(idle))
    print(result_line(failed == 0, attempted, failed, metrics, units))
    return 0 if failed == 0 else 1


def reference(args: argparse.Namespace, digests: Path = DIGESTS) -> int:
    """One cold pass on the reference engines; check or record its digests."""
    STATE.mkdir(exist_ok=True)
    capture = Capture()
    run_round(args.workload, args.seed, 0, capture, reference=True)
    book = DigestBook(str(digests), str(STATE / f"digests-{args.workload}.json"))
    if args.write:
        book.write_committed(capture.records)
        print(f"wrote {len(capture.records)} campaign digests to {digests}")
        return 0
    known = [r for r in capture.records if r.key in book.committed]
    failed = sum(r.jobs for r in known if book.committed[r.key]["digest"] != r.digest)
    print(f"{len(known)} of {len(capture.records)} campaigns have a committed "
          f"digest; {failed} jobs disagree")
    return 0 if known and not failed else 1


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.PAPER_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true",
                        help="derive the digests on the reference engines")
    parser.add_argument("--write", action="store_true",
                        help="with --reference: record the digests in digests.json")
    parser.add_argument("--setup-probe", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(CHECKOUT / "src"))
    if args.setup_probe is not None:
        print(probe_setup(args.workload, args.setup_probe))
        return 0
    try:
        import repro
    except ImportError as error:
        print(f"cannot import the program under test from {CHECKOUT / 'src'}: {error}",
              file=sys.stderr)
        return 2
    if CHECKOUT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"repro was imported from {repro.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    if args.reference:
        return reference(args)
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
