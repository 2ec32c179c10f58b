#!/usr/bin/env python3
"""Render the throughput trajectory to ``docs/perf_history.md``.

The ``BENCH_*.json`` baselines are append-only histories: every recording
run of a ``throughput.py`` leg appends a dated record instead of
overwriting (see :mod:`throughput`).  This generator reads every leg's
history next to the repo root and emits one markdown table per leg —
the per-PR throughput trajectory that used to be recoverable only from git
archaeology:

    python benchmarks/gen_perf_history.py            # rewrite docs/perf_history.md
    python benchmarks/gen_perf_history.py --stdout   # print instead

Beyond raw throughput, the histories also carry the *dynamics* that explain
it — how many lockstep replicas were demoted (and how many of those were
spliced mid-pack), how often the checkpointed runtime took the
early-convergence exit — so the generator renders a campaign-dynamics table
per trajectory too.  Pass ``--manifest run-manifest.json`` (the output of
``repro campaign metrics --json``, see :mod:`repro.obs`) to additionally
fold one stored run manifest's headline metrics (cache-hit ratio, demotion
reasons, splice rate) into the page; without it, the manifest section the
page already holds is kept.

Speedup ratios are machine-portable; the absolute rates carry the recording
machine's ``cpu_count``/``python`` stamp and are context only.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from throughput import LEGS, REPO_ROOT, load_history  # noqa: E402

OUTPUT_PATH = REPO_ROOT / "docs" / "perf_history.md"

def _ratio(numerator, denominator) -> str:
    return "—" if not denominator else f"{numerator / denominator:.1%}"


def _sum(rows, field) -> int:
    return sum(row.get(field, 0) for row in rows)


def _dynamics_sections() -> list:
    """Campaign-dynamics tables derived from the committed histories.

    The lockstep and transient baselines already record *why* each run was
    fast (demotions, splices, convergences, riders, early exits) next to how
    fast it was; rendered as rates they form the trend that matters for the
    paper's correlation argument — a rising demotion rate erodes the pack
    speedup long before the throughput gate trips.
    """
    lockstep, transient = LEGS["lockstep"], LEGS["transient"]
    lines = [
        "## Campaign dynamics",
        "",
        "Lockstep replica resolution per recorded run (fractions of all",
        "injections; *spliced* is the share of demotions that had to",
        "replay from the divergence point rather than ride to the end):",
        "",
        "| recorded at (UTC) | injections | demoted | spliced "
        "| converged in pack | rode golden |",
        "|---|---|---|---|---|---|",
    ]
    for record in load_history(REPO_ROOT / lockstep.history):
        rows = record[lockstep.rows_key]
        injections = _sum(rows, "injections")
        demotions = _sum(rows, "demotions")
        lines.append(
            "| {when} | {inj} | {demoted} | {spliced} | {conv} | {rider} |"
            .format(
                when=record["recorded_at"],
                inj=_cell(injections),
                demoted=_ratio(demotions, injections),
                spliced=_ratio(_sum(rows, "demoted_splices"), demotions),
                conv=_ratio(_sum(rows, "in_pack_convergences"), injections),
                rider=_ratio(_sum(rows, "golden_riders"), injections),
            )
        )
    lines += [
        "",
        "Checkpointed-runtime early exits per recorded run (the share of",
        "forks that converged back onto the golden ladder and spliced its",
        "tail instead of simulating to the horizon):",
        "",
        "| recorded at (UTC) | injections | early-exit splice rate |",
        "|---|---|---|",
    ]
    for record in load_history(REPO_ROOT / transient.history):
        rows = record[transient.rows_key]
        lines.append(
            "| {when} | {inj} | {rate} |".format(
                when=record["recorded_at"],
                inj=_cell(_sum(rows, "injections")),
                rate=_ratio(_sum(rows, "early_exits"), _sum(rows, "injections")),
            )
        )
    lines.append("")
    return lines


def _manifest_section(path: Path) -> list:
    """Headline metrics of one stored run manifest (``repro campaign
    metrics --json`` output): cache-hit ratio, inert-screen share, demotion
    rate, splice rate — the same derivations the CLI's human view prints."""
    import json

    manifest = json.loads(path.read_text())
    metrics = manifest.get("metrics", {})
    counters = metrics.get("counters", {})
    lines = [
        f"{MANIFEST_HEADING} (`{path.name}`)",
        "",
        f"Recorded {manifest.get('created_at', '—')}, wall clock "
        f"{manifest.get('wall_seconds', 0.0):.2f}s.",
        "",
        "| metric | value |",
        "|---|---|",
    ]
    hits = counters.get("store.cache_hits", 0)
    misses = counters.get("store.cache_misses", 0)
    lines.append(f"| cache-hit ratio | {_ratio(hits, hits + misses)} |")
    dispatched = counters.get("campaign.jobs_executed", 0)
    if dispatched:
        screened = counters.get("engine.jobs_screened", 0)
        lines.append(f"| inert-screen share | {_ratio(screened, dispatched)} |")
    replicas = counters.get("lockstep.replicas", 0)
    demotions = sum(
        value for series, value in counters.items()
        if series.startswith("lockstep.demotions{")
    )
    if replicas:
        lines.append(f"| lockstep demotion rate | {_ratio(demotions, replicas)} |")
    forks = counters.get("checkpoint.forks", 0)
    if forks:
        lines.append(
            f"| early-exit splice rate | "
            f"{_ratio(counters.get('checkpoint.early_exits', 0), forks)} |"
        )
    lines.append("")
    return lines


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:,.2f}".rstrip("0").rstrip(".")
    return f"{value:,}"


#: Heading of the run-manifest section (see :func:`_manifest_section`).
MANIFEST_HEADING = "## Latest run manifest"


def _kept_manifest_section(previous: str) -> list:
    """The run-manifest section of a previously rendered page (``[]`` when
    it has none), so regenerating without ``--manifest`` keeps it."""
    lines = previous.splitlines()
    for start, line in enumerate(lines):
        if line.startswith(MANIFEST_HEADING):
            break
    else:
        return []
    end = start + 1
    while end < len(lines) and not lines[end].startswith("## "):
        end += 1
    return lines[start:end] + [""]


def render(manifest_path: Path = None, previous: str = "") -> str:
    """The page: every history's tables, then the run-manifest section —
    *manifest_path*'s, else the one kept from *previous* (the page as last
    rendered)."""
    lines = [
        "# Throughput history",
        "",
        "One table per measured layer, one row per recorded benchmark run —",
        "the `history` arrays of the `BENCH_*.json` baselines rendered in",
        "recording order (oldest first).  Regenerate with",
        "`python benchmarks/gen_perf_history.py` after recording a baseline;",
        "see [performance.md](performance.md) for what each layer measures",
        "and how the `--check` CI gates consume the latest record.",
        "",
        "Speedup ratios are the machine-portable trend metric.  Absolute",
        "rates depend on the recording machine (each row carries its CPU",
        "count and Python version) and are context only.",
        "",
    ]
    for leg in LEGS.values():
        slow, fast = leg.sides
        slow_label, fast_label = leg.labels
        lines.append(f"## {leg.title} (`{leg.history}`)")
        lines.append("")
        lines.append(f"| recorded at (UTC) | {slow_label} ({leg.unit}/s) "
                     f"| {fast_label} ({leg.unit}/s) | speedup | cpus | python |")
        lines.append("|---|---|---|---|---|---|")
        for record in load_history(REPO_ROOT / leg.history):
            aggregate = record["aggregate"]
            lines.append(
                "| {when} | {slow} | {fast} | {speedup:.2f}x | {cpus} | {py} |".format(
                    when=record["recorded_at"],
                    slow=_cell(aggregate[leg.rate_key(slow)]),
                    fast=_cell(aggregate[leg.rate_key(fast)]),
                    speedup=aggregate["speedup"],
                    cpus=_cell(record["cpu_count"]),
                    py=record["python"],
                )
            )
        lines.append("")
    lines.extend(_dynamics_sections())
    if manifest_path is not None:
        lines.extend(_manifest_section(manifest_path))
    else:
        lines.extend(_kept_manifest_section(previous))
    return "\n".join(lines).rstrip() + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stdout", action="store_true",
                        help="print the rendered markdown instead of writing "
                             "docs/perf_history.md")
    parser.add_argument("--manifest", type=Path, default=None, metavar="JSON",
                        help="also fold one run manifest's headline metrics "
                             "(cache-hit ratio, demotion rate, splice rate) "
                             "into the page; expects the output of "
                             "`repro campaign metrics --json`")
    args = parser.parse_args()
    previous = OUTPUT_PATH.read_text() if OUTPUT_PATH.exists() else ""
    text = render(args.manifest, previous)
    if args.stdout:
        print(text, end="")
    else:
        OUTPUT_PATH.write_text(text)
        print(f"wrote {OUTPUT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
