"""``repro`` — the command-line front end of the campaign result store.

Drives store-backed campaigns end-to-end without writing any Python:

.. code-block:: console

    repro campaign run --workload rspeed --scope iu --sites 40
    repro campaign run --workload rspeed --transient 4   # SEU campaign
    repro campaign run ... --shards 3 --shard-index 0 \
        --store shard0.sqlite               # one slice of a sharded campaign
    repro campaign resume --key 3f2a        # continue an interrupted campaign
    repro campaign status                   # progress of every stored campaign
    repro campaign status --watch           # live view (rate, ETA, breakdown)
    repro campaign report --key 3f2a        # Pf breakdown, zero simulation
    repro campaign metrics 3f2a             # run manifest: telemetry metrics
    repro trace export --chrome out.json    # Perfetto-loadable trace
    repro store ls                          # stored campaigns
    repro store merge out.sqlite shard*.sqlite  # fold shard stores into one
    repro store gc                          # drop incomplete campaigns

The store path defaults to ``$REPRO_STORE`` or ``campaigns.sqlite`` in the
working directory.  Campaign keys may be abbreviated to any unique prefix.

Exit codes: ``0`` success, ``1`` operational failure (bad arguments, merge
conflicts, unknown keys), ``2`` unusable store database (missing file on a
read-only command, not SQLite, newer schema), ``130`` interrupted.
"""

from __future__ import annotations

import argparse
import json
import os
import sqlite3
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, TextIO

from repro.engine import CampaignConfig, CampaignEngine, IssBackend, Leon3RtlBackend
from repro.obs.events import export_chrome_trace, sidecar_paths
from repro.obs.telemetry import TELEMETRY, split_series_name
from repro.isa.assembler import Program
from repro.rtl.faults import ALL_FAULT_MODELS, FaultModel
from repro.workloads import all_workloads, build_program

from repro.store.merge import merge_stores, missing_shards
from repro.store.store import (
    CampaignInfo,
    CampaignStore,
    StoreError,
    breakdown_rows,
    report_payload,
)

#: Default base path of the JSONL trace event log (``campaign run --trace``
#: writes ``<path>.<pid>`` sidecars; ``repro trace export`` merges them).
DEFAULT_TRACE = "trace.jsonl"

DEFAULT_STORE = os.environ.get("REPRO_STORE", "campaigns.sqlite")

#: Backend name -> picklable zero-argument factory, as the engine needs it.
BACKEND_FACTORIES = {"rtl": Leon3RtlBackend, "iss": IssBackend}
#: Default unit scope per backend (the ISS only has architectural sites).
DEFAULT_SCOPES = {"rtl": "iu", "iss": "arch.regfile"}


class CliError(RuntimeError):
    """User-facing CLI failure (bad arguments, unknown keys, ...).

    *exit_code* classifies the failure for scripts: ``1`` is an operational
    error, ``2`` means the store database itself is unusable (missing on a
    read-only command, not SQLite, written by a newer schema).
    """

    def __init__(self, message: str, exit_code: int = 1) -> None:
        super().__init__(message)
        self.exit_code = exit_code


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _parse_models(spec: Optional[str]) -> List[FaultModel]:
    if not spec or spec == "all":
        return list(ALL_FAULT_MODELS)
    models: List[FaultModel] = []
    for token in spec.split(","):
        token = token.strip()
        if token == FaultModel.TRANSIENT.value:
            # The enum member is the *reporting* bucket of transient jobs,
            # not an injectable permanent model; fail here with the right
            # spelling instead of deep inside the first injection run.
            raise CliError(
                "'transient' is not an injectable fault model; run an SEU "
                "campaign with --transient N (start times per storage site)"
            )
        try:
            models.append(FaultModel(token))
        except ValueError:
            valid = ", ".join(model.value for model in ALL_FAULT_MODELS)
            raise CliError(
                f"unknown fault model {token!r} (expected: {valid})"
            ) from None
    return models


def _parse_sites(spec: str) -> Optional[int]:
    if spec == "all":
        return None
    try:
        return int(spec)
    except ValueError:
        raise CliError(
            f"--sites expects an integer or 'all', got {spec!r}"
        ) from None


def _build_workload(name: str) -> Program:
    try:
        return build_program(name)
    except KeyError:
        known = ", ".join(sorted(all_workloads()))
        raise CliError(f"unknown workload {name!r} (known: {known})") from None


def _format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(header) for header in headers]
    for row in rows:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))
    out = [line(headers), line("-" * width for width in widths)]
    out.extend(line(row) for row in rows)
    return "\n".join(out)


def _open_store(path: str, must_exist: bool = False) -> CampaignStore:
    """Open a store, classifying unusable databases as clean exit-2 errors.

    Read-only commands (status, report, gc, merge inputs, ...) pass
    ``must_exist=True`` — pointing them at a path with no database is an
    operator mistake worth a clear message, not an empty store silently
    created in the wrong place.  A file that is not SQLite (or was written
    by a newer schema) is exit-2 for every command.
    """
    if must_exist and path != ":memory:" and not os.path.exists(path):
        raise CliError(
            f"no store database at {path!r} (run a campaign first, or pass "
            f"--store/$REPRO_STORE)",
            exit_code=2,
        )
    try:
        return CampaignStore(path)
    except sqlite3.DatabaseError as error:
        raise CliError(
            f"store {path!r} is not a usable SQLite database ({error})",
            exit_code=2,
        ) from error
    except StoreError as error:
        # apply_schema refusing a newer-schema database at open time.
        raise CliError(str(error), exit_code=2) from error


def _print_breakdown(store: CampaignStore, info: CampaignInfo) -> None:
    rows = [
        (model, str(injections), str(failures), f"{pf:.4f}")
        for model, injections, failures, pf, _ in breakdown_rows(store, info)
    ]
    print(_format_table(("fault model", "injections", "failures", "Pf"), rows))


def _span_rate() -> Optional[float]:
    """Injections/sec from the measured job/pack spans, ``None`` before any
    span has landed (or with telemetry off).  This is the *simulation* rate —
    the span histograms exclude planning/scheduling overhead — and in
    multiprocessing campaigns it aggregates every worker's shipped deltas."""
    if not TELEMETRY.enabled:
        return None
    snapshot = TELEMETRY.snapshot()
    histograms = snapshot["histograms"]
    seconds = 0.0
    injections = 0
    job = histograms.get("engine.job.seconds")
    if job:
        seconds += job["total"]
        injections += job["count"]
    pack = histograms.get("lockstep.pack.seconds")
    if pack:
        seconds += pack["total"]
        # One pack span covers all its replicas; count injections, not packs.
        injections += snapshot["counters"].get("lockstep.replicas", pack["count"])
    if injections and seconds > 0:
        return injections / seconds
    return None


def _progress_printer(
    stream: Optional[TextIO] = None, min_interval: Optional[float] = None
) -> Callable[[int, int, object], None]:
    """Streaming progress callback for ``repro campaign run``.

    TTY-aware: on a terminal it live-updates one ``\\r`` line; redirected to
    a file or pipe it appends plain newline-terminated lines instead of
    spamming carriage returns into the log.  Emission is rate-limited both
    by count (at most ~20 intermediate updates) and by wall clock (no more
    than one update per *min_interval* seconds — default 0.25s on a TTY, 5s
    redirected), and each update shows injections/sec from the telemetry
    span data when available (wall-clock rate otherwise).
    """
    if stream is None:
        stream = sys.stderr  # call-time lookup, so capture/redirects see it
    is_tty = bool(getattr(stream, "isatty", None)) and stream.isatty()
    if min_interval is None:
        min_interval = 0.25 if is_tty else 5.0
    start = time.monotonic()
    last_emit = [0.0]

    def progress(done: int, total: int, outcome: object) -> None:
        now = time.monotonic()
        final = done == total
        step = max(1, total // 20)
        if not final:
            if done % step != 0 and not is_tty:
                return
            if now - last_emit[0] < min_interval:
                return
        last_emit[0] = now
        rate = _span_rate()
        if rate is None and now > start:
            rate = done / (now - start)
        suffix = f"  ({rate:.1f} inj/s)" if rate else ""
        line = f"  {done}/{total} injections{suffix}"
        if is_tty:
            stream.write(f"\r{line}")
            if final:
                stream.write("\n")
        else:
            stream.write(f"{line}\n")
        stream.flush()

    return progress


def _run_engine(
    store: CampaignStore,
    config: CampaignConfig,
    program: Program,
    backend: str,
    quiet: bool,
) -> int:
    """Run one store-backed campaign and report Pf + cache statistics."""
    before = store.counters()
    engine = CampaignEngine(
        program, config, backend_factory=BACKEND_FACTORIES[backend]
    )
    progress = None if quiet else _progress_printer()
    engine.run(progress=progress, store=store)
    # Derived *after* the run: transient key planning records the golden
    # checkpoint ladder, which should happen inside run() where telemetry is
    # live (the derivation is deterministic, so the key is the same either
    # way — run() stored the campaign under exactly this key).
    key = engine.store_key()
    after = store.counters()
    executed = after["jobs_executed"] - before["jobs_executed"]
    cached = after["jobs_cached"] - before["jobs_cached"]

    info = store.campaign_info(key)
    print(f"campaign {info.key[:12]} ({info.workload}, {info.unit_scope}, "
          f"{info.backend}, seed {info.seed})")
    print(f"  executed {executed} injections, served {cached} from the store")
    if config.shards > 1:
        print(f"  shard {config.shard_index} of {config.shards} "
              f"({info.done_jobs}/{info.total_jobs} outcomes in this store); "
              f"assemble the full campaign with `repro store merge`")
    _print_breakdown(store, info)
    return 0


def _resolve_info(store: CampaignStore, key_prefix: str) -> CampaignInfo:
    return store.campaign_info(store.resolve_key(key_prefix))


def _resolve_info_or_only(
    store: CampaignStore, key_prefix: Optional[str]
) -> CampaignInfo:
    """Resolve a key prefix, defaulting to the store's only campaign."""
    if key_prefix:
        return _resolve_info(store, key_prefix)
    infos = store.list_campaigns()
    if len(infos) != 1:
        raise CliError(
            "store holds several campaigns; pass a key prefix"
            if infos
            else "store is empty"
        )
    return infos[0]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_campaign_run(args: argparse.Namespace) -> int:
    models = _parse_models(args.models)
    scope = args.scope if args.scope is not None else DEFAULT_SCOPES[args.backend]
    program = _build_workload(args.workload)
    config = CampaignConfig(
        unit_scope=scope,
        sample_size=_parse_sites(args.sites),
        fault_models=models,
        seed=args.seed,
        max_instructions=args.max_instructions,
        n_workers=args.workers,
        chunk_size=args.chunk_size,
        resume=not args.no_resume,
        transient_windows=args.transient,
        transient_duration=args.duration,
        checkpoint_interval=args.checkpoint_interval,
        early_exit=not args.no_early_exit,
        lockstep_width=args.lockstep,
        telemetry=not args.no_telemetry,
        trace_path=args.trace,
        shards=args.shards,
        shard_index=args.shard_index,
    )
    with _open_store(args.store) as store:
        return _run_engine(store, config, program, args.backend, args.quiet)


def cmd_campaign_resume(args: argparse.Namespace) -> int:
    with _open_store(args.store, must_exist=True) as store:
        info = _resolve_info(store, args.key)
        config_json = info.config
        backend = config_json.get("backend", "rtl")
        if backend not in BACKEND_FACTORIES:
            raise CliError(f"campaign {info.key[:12]} used unknown backend {backend!r}")
        program = _build_workload(config_json["workload"])
        transient = config_json.get("transient") or {}
        if transient:
            # Transient planning derives its single result bucket itself;
            # the stored ["transient"] list only describes the outcomes.
            fault_models = list(ALL_FAULT_MODELS)
        else:
            fault_models = [FaultModel(v) for v in config_json["fault_models"]]
        # A store holding exactly one shard slice resumes as that shard (it
        # was created by `campaign run --shards N --shard-index i` and only
        # its slice belongs here); anything else — unsharded stores, merged
        # stores, multi-shard stores — resumes the full plan and fills
        # whatever gaps remain.
        shard_rows = store.shard_rows(info.key)
        shards, shard_index = 1, 0
        if len(shard_rows) == 1:
            shards = shard_rows[0].shard_count
            shard_index = shard_rows[0].shard_index
        config = CampaignConfig(
            unit_scope=config_json["unit_scope"],
            sample_size=config_json["sample_size"],
            fault_models=fault_models,
            seed=config_json["seed"],
            max_instructions=config_json["max_instructions"],
            n_workers=args.workers,
            resume=True,
            transient_windows=transient.get("windows"),
            transient_duration=transient.get("duration", 1),
            shards=shards,
            shard_index=shard_index,
        )
        # The campaign is only resumable if the registry still builds the
        # exact program (and site sample) the key was derived from.
        factory = BACKEND_FACTORIES[backend]
        engine = CampaignEngine(program, config, backend_factory=factory)
        rebuilt_key = engine.store_key()
        if rebuilt_key != info.key:
            raise CliError(
                f"campaign {info.key[:12]} cannot be rebuilt from workload "
                f"{config_json['workload']!r} (it was created from a customised "
                f"program or an older code version); resume it through the "
                f"Python API that created it"
            )
        return _run_engine(store, config, program, backend, args.quiet)


def _aggregate_breakdown(store: CampaignStore, key: str) -> str:
    """One-line failure-class histogram across all models of a campaign."""
    classes: Dict[str, int] = {}
    for histogram in store.breakdown(key).values():
        for failure_class, count in histogram.items():
            classes[failure_class] = classes.get(failure_class, 0) + count
    return " ".join(
        f"{failure_class}:{count}" for failure_class, count in sorted(classes.items())
    )


def _watch_campaigns(store: CampaignStore, key: Optional[str], interval: float,
                     stream: Optional[TextIO] = None) -> int:
    """Live progress view: rate, ETA and outcome breakdown, refreshed every
    *interval* seconds until the watched campaign(s) complete (or Ctrl-C).

    Reads only the store — it watches a campaign some *other* process is
    running (or several), which is the whole point of a durable store.
    """
    if stream is None:
        # Resolved at call time, not at def time, so pytest's capsys (and
        # anything else that swaps sys.stdout) sees the output.
        stream = sys.stdout
    is_tty = bool(getattr(stream, "isatty", None)) and stream.isatty()
    previous: Dict[str, int] = {}
    previous_time = time.monotonic()
    first = True
    while True:
        infos = (
            [_resolve_info(store, key)] if key else store.list_campaigns()
        )
        if not infos:
            print("store is empty", file=stream)
            return 0
        now = time.monotonic()
        dt = max(now - previous_time, 1e-9)
        lines = []
        for info in infos:
            done_before = previous.get(info.key, info.done_jobs)
            rate = (info.done_jobs - done_before) / dt if not first else 0.0
            remaining = info.total_jobs - info.done_jobs
            if info.complete:
                eta = "done"
            elif rate > 0:
                eta = f"ETA {remaining / rate:6.0f}s"
            else:
                eta = "ETA --"
            breakdown = _aggregate_breakdown(store, info.key)
            lines.append(
                f"{info.key[:12]}  {info.workload:<10} "
                f"{info.done_jobs}/{info.total_jobs} "
                f"({info.progress * 100:5.1f}%)  {rate:6.1f} inj/s  {eta}"
                + (f"  [{breakdown}]" if breakdown else "")
            )
            previous[info.key] = info.done_jobs
        previous_time = now
        if is_tty and not first:
            # Redraw in place: move up over the previous block.
            stream.write(f"\x1b[{len(lines)}A\x1b[J")
        stream.write("\n".join(lines) + "\n")
        stream.flush()
        if all(info.complete for info in infos):
            return 0
        first = False
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            return 0


def _print_shard_lines(store: CampaignStore, infos: Sequence[CampaignInfo]) -> None:
    """Shard-set presence lines of ``repro campaign status`` (one per
    campaign that carries shard rows — partial shard sets name exactly which
    shards are still missing)."""
    for info in infos:
        by_count: Dict[int, List[int]] = {}
        for row in store.shard_rows(info.key):
            by_count.setdefault(row.shard_count, []).append(row.shard_index)
        for count, indices in sorted(by_count.items()):
            present = ",".join(str(index) for index in sorted(indices))
            gone = missing_shards(store, info.key).get(count)
            if gone:
                print(f"shards: {info.key[:12]} holds {present} of {count} "
                      f"(missing {','.join(str(i) for i in gone)}; assemble "
                      f"with `repro store merge`)")
            else:
                print(f"shards: {info.key[:12]} holds all {count} shards")


def cmd_campaign_status(args: argparse.Namespace) -> int:
    if getattr(args, "watch", False):
        with _open_store(args.store, must_exist=True) as store:
            return _watch_campaigns(store, args.key, args.interval)
    with _open_store(args.store, must_exist=True) as store:
        infos = (
            [_resolve_info(store, args.key)] if args.key else store.list_campaigns()
        )
        if not infos:
            print("store is empty")
            return 0
        rows = [
            (
                info.key[:12],
                info.workload,
                info.unit_scope,
                info.backend,
                f"{info.done_jobs}/{info.total_jobs}",
                f"{info.progress * 100:5.1f}%",
                info.status,
                str(info.hit_count),
            )
            for info in infos
        ]
        print(_format_table(
            ("key", "workload", "scope", "backend", "done", "%", "status", "hits"),
            rows,
        ))
        _print_shard_lines(store, infos)
        counters = store.counters()
        print(f"store totals: {counters['jobs_executed']} executed, "
              f"{counters['jobs_cached']} served from cache, "
              f"{counters['campaign_hits']} full cache hits")
    return 0


def cmd_campaign_report(args: argparse.Namespace) -> int:
    with _open_store(args.store, must_exist=True) as store:
        info = _resolve_info_or_only(store, args.key)
        if args.json:
            print(json.dumps(report_payload(store, info), indent=2, sort_keys=True))
        else:
            print(f"campaign {info.key[:12]} ({info.workload}, {info.unit_scope}, "
                  f"{info.backend}, seed {info.seed}) — {info.status}, "
                  f"{info.done_jobs}/{info.total_jobs} outcomes")
            _print_breakdown(store, info)
    return 0


def _format_histogram(name: str, data: Dict[str, Any]) -> List[str]:
    """Render one snapshot histogram as aligned detail lines."""
    count = data["count"]
    if not count:
        return [f"  {name}: empty"]
    mean = data["total"] / count
    lines = [
        f"  {name}: count={count} mean={mean:.6g} "
        f"min={data['min']:.6g} max={data['max']:.6g}"
    ]
    for bound, n in sorted(
        data["buckets"].items(),
        key=lambda item: float("inf") if item[0] == "inf" else int(item[0]),
    ):
        label = "inf" if bound == "inf" else f"<={bound}"
        lines.append(f"    {label:>12}: {n}")
    return lines


def _metrics_summary(metrics: Dict[str, Any]) -> List[str]:
    """The derived headline numbers the paper workflow actually wants:
    demotion-reason breakdown, fork-rung distance distribution, cache-hit
    ratio, inert-screen share — computed from the raw series in a stored
    manifest."""
    counters = metrics.get("counters", {})
    histograms = metrics.get("histograms", {})
    lines: List[str] = []

    hits = counters.get("store.cache_hits", 0)
    misses = counters.get("store.cache_misses", 0)
    if hits or misses:
        ratio = hits / (hits + misses)
        lines.append(
            f"  cache-hit ratio: {ratio:.1%} ({hits} memoized / "
            f"{hits + misses} planned)"
        )

    dispatched = counters.get("campaign.jobs_executed", 0)
    if dispatched:
        screened = counters.get("engine.jobs_screened", 0)
        lines.append(
            f"  inert screen: {screened} of {dispatched} jobs resolved "
            f"from the golden"
        )

    demotions: Dict[str, int] = {}
    for series, value in counters.items():
        base, labels = split_series_name(series)
        if base == "lockstep.demotions" and "reason" in labels:
            demotions[labels["reason"]] = value
    if demotions:
        total = sum(demotions.values())
        lines.append(f"  demotions by reason ({total} total):")
        for reason, value in sorted(
            demotions.items(), key=lambda item: -item[1]
        ):
            lines.append(f"    {reason:>20}: {value}")

    fork_distance = histograms.get("checkpoint.fork_distance")
    if fork_distance and fork_distance["count"]:
        lines.extend(_format_histogram(
            "fork-rung distance (cycles)", fork_distance
        ))
    forks = counters.get("checkpoint.forks", 0)
    splices = counters.get("checkpoint.early_exits", 0)
    if forks:
        lines.append(
            f"  early-exit splice rate: {splices / forks:.1%} "
            f"({splices}/{forks} forks)"
        )
    return lines


def cmd_campaign_metrics(args: argparse.Namespace) -> int:
    with _open_store(args.store, must_exist=True) as store:
        info = _resolve_info_or_only(store, args.key)
        manifest = store.get_manifest(info.key, args.run)
        if manifest is None:
            which = "any run" if args.run is None else f"run {args.run}"
            raise CliError(
                f"campaign {info.key[:12]} has no manifest for {which} "
                f"(was it run with telemetry disabled, or without a store?)"
            )
        if args.json:
            print(json.dumps(manifest, indent=2, sort_keys=True))
            return 0

        environment = manifest.get("environment", {})
        execution = manifest.get("execution", {})
        print(f"campaign {info.key[:12]} ({info.workload}) — "
              f"run manifest from {manifest.get('created_at', '?')}")
        print(f"  wall clock: {manifest.get('wall_seconds', 0.0):.3f}s  "
              f"python {environment.get('python', '?')} on "
              f"{environment.get('platform', '?')}")
        if execution:
            rendered = " ".join(
                f"{key}={value}" for key, value in sorted(execution.items())
                if value is not None
            )
            print(f"  execution: {rendered}")

        metrics = manifest.get("metrics", {})
        summary = _metrics_summary(metrics)
        if summary:
            print("derived:")
            for line in summary:
                print(line)
        counters = metrics.get("counters", {})
        if counters:
            print("counters:")
            for series in sorted(counters):
                print(f"  {series}: {counters[series]}")
        gauges = metrics.get("gauges", {})
        if gauges:
            print("gauges:")
            for series in sorted(gauges):
                print(f"  {series}: {gauges[series]}")
        histograms = metrics.get("histograms", {})
        if histograms:
            print("histograms:")
            for series in sorted(histograms):
                for line in _format_histogram(series, histograms[series]):
                    print(line)
    return 0


def cmd_trace_export(args: argparse.Namespace) -> int:
    if not sidecar_paths(args.input):
        raise CliError(
            f"no trace sidecars match {args.input}.*; run a campaign with "
            f"--trace first (e.g. repro campaign run ... --trace)"
        )
    count = export_chrome_trace(args.input, args.chrome)
    print(f"wrote {count} events to {args.chrome} "
          f"(load in Perfetto / chrome://tracing)")
    return 0


def cmd_store_ls(args: argparse.Namespace) -> int:
    return cmd_campaign_status(args)


def cmd_store_gc(args: argparse.Namespace) -> int:
    with _open_store(args.store, must_exist=True) as store:
        removed = store.gc(all_campaigns=args.all)
    scope = "all campaigns" if args.all else "unreferenced incomplete campaigns"
    print(f"removed {removed['campaigns']} {scope}, "
          f"{removed['outcomes']} outcomes, {removed['memos']} memos, "
          f"{removed['artifacts']} leftover artifact rows")
    return 0


def cmd_store_merge(args: argparse.Namespace) -> int:
    # Classify unusable inputs (missing file, not SQLite, newer schema) as
    # exit-2 before merging; merge_stores re-verifies, but through the
    # generic StoreError path.
    for path in args.sources:
        _open_store(path, must_exist=True).close()
    _open_store(args.dest).close()
    report = merge_stores(args.dest, args.sources)
    print(f"merged {len(report.sources)} stores into {report.dest}: "
          f"{report.inserted} outcomes inserted, "
          f"{report.duplicates} duplicates skipped")
    for campaign in report.campaigns:
        state = "complete" if campaign.complete else "partial"
        line = (f"  campaign {campaign.key[:12]}: "
                f"{campaign.done_jobs}/{campaign.total_jobs} outcomes, {state}")
        if campaign.missing_shards:
            notes = "; ".join(
                f"missing shard(s) {','.join(str(i) for i in gone)} of {count}"
                for count, gone in sorted(campaign.missing_shards.items())
            )
            line += f" ({notes})"
        print(line)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_store_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store", default=DEFAULT_STORE, metavar="PATH",
        help=f"store database path (default: {DEFAULT_STORE})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Durable, resumable, content-addressed fault-injection "
                    "campaigns (DAC'15 reproduction).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    campaign = commands.add_parser("campaign", help="run and inspect campaigns")
    campaign_commands = campaign.add_subparsers(dest="subcommand", required=True)

    run = campaign_commands.add_parser(
        "run", help="run a store-backed campaign (cache hit if already stored)"
    )
    run.add_argument("--workload", required=True, help="registry workload name")
    run.add_argument("--backend", choices=sorted(BACKEND_FACTORIES),
                     default="rtl", help="simulator backend (default: rtl)")
    run.add_argument("--scope", default=None,
                     help="unit scope (default: iu for rtl, arch.regfile for iss)")
    run.add_argument("--sites", default="60", metavar="N|all",
                     help="fault sites to sample, or 'all' (default: 60)")
    run.add_argument("--models", default="all",
                     help="comma-separated fault models (default: all three)")
    run.add_argument("--transient", type=int, default=None, metavar="N",
                     help="run an SEU-style transient campaign instead: N "
                          "start times sampled per storage site, executed "
                          "through the checkpointed runtime")
    run.add_argument("--duration", type=int, default=1,
                     help="transient window length in backend time units "
                          "(default: 1)")
    run.add_argument("--checkpoint-interval", type=int, default=None,
                     help="golden-ladder rung spacing in instructions "
                          "(default: adaptive)")
    run.add_argument("--no-early-exit", action="store_true",
                     help="disable the early-convergence exit (debugging)")
    run.add_argument("--lockstep", type=int, default=1, metavar="N",
                     help="execute N faulty replicas per lockstep pack "
                          "through one shared front end (ISS backend; "
                          "default: 1, scalar)")
    run.add_argument("--shards", type=int, default=1, metavar="N",
                     help="split the campaign plan into N disjoint shards "
                          "and execute only --shard-index against this store "
                          "(default: 1, unsharded); fold the shard stores "
                          "with `repro store merge`")
    run.add_argument("--shard-index", type=int, default=0, metavar="I",
                     help="which shard of --shards to execute (0-based; "
                          "give each shard its own --store)")
    run.add_argument("--seed", type=int, default=2015)
    run.add_argument("--workers", type=int, default=1,
                     help="worker processes (default: 1, serial)")
    run.add_argument("--chunk-size", type=int, default=None,
                     help="jobs per scheduler batch")
    run.add_argument("--max-instructions", type=int, default=400_000)
    run.add_argument("--no-resume", action="store_true",
                     help="re-execute even if outcomes are already stored")
    run.add_argument("--quiet", action="store_true", help="no progress output")
    run.add_argument("--no-telemetry", action="store_true",
                     help="disable metrics collection and the run manifest "
                          "(results and store keys are identical either way)")
    run.add_argument("--trace", nargs="?", const=DEFAULT_TRACE, default=None,
                     metavar="PATH",
                     help="write JSONL trace events to PATH.<pid> sidecars "
                          f"(default path: {DEFAULT_TRACE}); export with "
                          "`repro trace export --chrome out.json`")
    _add_store_option(run)
    run.set_defaults(handler=cmd_campaign_run)

    resume = campaign_commands.add_parser(
        "resume", help="resume an interrupted campaign by key"
    )
    resume.add_argument("--key", required=True, help="campaign key (unique prefix)")
    resume.add_argument("--workers", type=int, default=1)
    resume.add_argument("--quiet", action="store_true", help="no progress output")
    _add_store_option(resume)
    resume.set_defaults(handler=cmd_campaign_resume)

    status = campaign_commands.add_parser(
        "status", help="progress of stored campaigns"
    )
    status.add_argument("--key", default=None, help="campaign key (unique prefix)")
    status.add_argument("--watch", action="store_true",
                        help="refresh live until complete (rate, ETA, "
                             "outcome breakdown)")
    status.add_argument("--interval", type=float, default=2.0, metavar="SEC",
                        help="--watch refresh interval in seconds (default: 2)")
    _add_store_option(status)
    status.set_defaults(handler=cmd_campaign_status)

    metrics = campaign_commands.add_parser(
        "metrics", help="telemetry metrics from a stored run manifest"
    )
    metrics.add_argument("key", nargs="?", default=None,
                         help="campaign key (unique prefix; optional when the "
                              "store holds exactly one campaign)")
    metrics.add_argument("--run", type=int, default=None, metavar="N",
                         help="run index to show (default: latest)")
    metrics.add_argument("--json", action="store_true",
                         help="dump the raw manifest as JSON")
    _add_store_option(metrics)
    metrics.set_defaults(handler=cmd_campaign_metrics)

    report = campaign_commands.add_parser(
        "report", help="Pf breakdown from stored outcomes (no simulation)"
    )
    report.add_argument("--key", default=None,
                        help="campaign key (unique prefix; optional when the "
                             "store holds exactly one campaign)")
    report.add_argument("--json", action="store_true", help="machine-readable output")
    _add_store_option(report)
    report.set_defaults(handler=cmd_campaign_report)

    store = commands.add_parser("store", help="manage the result store")
    store_commands = store.add_subparsers(dest="subcommand", required=True)

    ls = store_commands.add_parser("ls", help="list stored campaigns")
    ls.add_argument("--key", default=None, help="campaign key (unique prefix)")
    _add_store_option(ls)
    ls.set_defaults(handler=cmd_store_ls)

    merge = store_commands.add_parser(
        "merge",
        help="fold shard stores into a canonical store "
             "(conflicts are hard errors; re-merging is idempotent)",
    )
    merge.add_argument("dest", metavar="OUT",
                       help="destination store database (created if missing)")
    merge.add_argument("sources", nargs="+", metavar="IN",
                       help="source store databases (e.g. the per-shard "
                            "stores of one sharded campaign)")
    merge.set_defaults(handler=cmd_store_merge)

    gc = store_commands.add_parser(
        "gc", help="delete unreferenced incomplete campaigns and leftover "
                   "artifact rows, then vacuum the database (shard stores "
                   "and campaigns with run manifests are kept)"
    )
    gc.add_argument("--all", action="store_true",
                    help="delete every campaign and memo, not just incomplete ones")
    _add_store_option(gc)
    gc.set_defaults(handler=cmd_store_gc)

    # The lint subcommand lives in repro.lint (imported lazily-ish here:
    # the lint engine is stdlib-ast only and costs nothing to import).
    from repro.lint.cli import add_lint_parser

    add_lint_parser(commands)

    trace = commands.add_parser("trace", help="export recorded trace events")
    trace_commands = trace.add_subparsers(dest="subcommand", required=True)

    export = trace_commands.add_parser(
        "export", help="merge trace sidecars into a Chrome/Perfetto trace"
    )
    export.add_argument("--input", default=DEFAULT_TRACE, metavar="PATH",
                        help="trace base path written by campaign run --trace "
                             f"(default: {DEFAULT_TRACE})")
    export.add_argument("--chrome", required=True, metavar="OUT",
                        help="output file in Chrome trace-event format")
    export.set_defaults(handler=cmd_trace_export)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (CliError, StoreError, ValueError) as error:
        # ValueError covers CampaignConfig's eager validation (bad --workers,
        # --chunk-size, --sites, ...): surface it as a clean CLI error.
        # CliError carries its exit code (2 = unusable store database);
        # everything else is an operational failure (1).
        print(f"repro: error: {error}", file=sys.stderr)
        return getattr(error, "exit_code", 1)
    except KeyboardInterrupt:
        print("\nrepro: interrupted — committed outcomes are kept; "
              "rerun `repro campaign resume --key <key>` to continue",
              file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
