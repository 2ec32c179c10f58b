"""The benchmark's workloads: which public calls one pass makes, with which inputs.

A workload is a list of :class:`Call`s.  ``paper_rtl`` and ``stored_pool``
call the figure/table drivers of :mod:`repro.core.experiments` exactly as a
user does; ``seu_lockstep`` drives :class:`repro.engine.CampaignEngine`
directly, because no driver runs transient or lockstep campaigns.

``--seed`` changes one thing: the order of the calls, and of the workloads
inside each driver call.  The campaigns are the same in any order, so state
that one campaign leaks into the next shows up as a digest mismatch.  Each
round of a run draws its own order from the seed and the round's number
(the *order key*), so one run checks several orders.

Every campaign keeps a fixed ``CampaignConfig.seed``: the paper's seed
(:data:`repro.core.experiments.DEFAULT_SEED`) for the driver calls, and one
seed per campaign drawn from it for ``seu_lockstep`` (campaigns sharing a
seed would share one site sample).  A seed-drawn sample would make the wall
time a property of the draw rather than of the code.  Job cost is heavy
tailed: an IU net site falls back to the reference core at 10-40x the cost
of a storage cell, and a demoted or hung transient replica runs to the end
on the scalar path.  Measured over five seeds, a seed-drawn
``seu_lockstep`` pass varied from 8.8 s to 14.2 s (interquartile spread
0.35 of the median), with every campaign drawing its own seed 8.3 s to
12.3 s.  ``paper_rtl`` affords two IU sites per campaign, and a net-site
job cost about ten times a storage-cell job in a probe (124 ms against
13 ms on rspeed), so its pass time would hinge on how many of the two are
nets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("paper_rtl", "stored_pool", "seu_lockstep")

#: The seed the paper-reproduction drivers use by default.
PAPER_SEED = 2015

#: Fault sites per campaign shared by every driver call: the smallest sample
#: whose IU draw at the paper seed holds a net site (it holds one net site
#: and one register-file cell).
SAMPLE_SIZE = 2
#: Transient campaigns of ``seu_lockstep``: storage sites x start times.
SEU_SITES = 12
SEU_WINDOWS = 3
#: Loop-iteration counts the transient campaigns run each Table-1 workload at.
SEU_ITERATIONS = (2, 8)
#: Register-file sites of the ISS permanent campaigns (all three models).
ISS_PERMANENT_SITES = 24
LOCKSTEP_WIDTH = 24


@dataclass(frozen=True)
class Call:
    """One public call of a pass: ``fn(**kwargs)`` from :mod:`repro`."""

    label: str
    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def __call__(self) -> Any:
        return self.fn(**self.kwargs)


def _shuffled(rng: random.Random, items: Sequence[Any]) -> Tuple[Any, ...]:
    order = list(items)
    rng.shuffle(order)
    return tuple(order)


def paper_rtl(order: str) -> List[Call]:
    """The seven drivers (Table 1, Figs 3-7, Section 4.2): RTL fast core,
    serial, no store, one shared sample size."""
    from repro.core import experiments as ex

    rng = random.Random(order)
    common = {"sample_size": SAMPLE_SIZE, "seed": PAPER_SEED}
    calls = [
        Call("table1", ex.table1_characterization,
             {"workloads": _shuffled(rng, ex.TABLE1_WORKLOADS)}),
        Call("fig3", ex.figure3_input_data, dict(common)),
        Call("fig4", ex.figure4_iterations, dict(common)),
        Call("fig5", ex.figure5_iu_faults,
             {"workloads": _shuffled(rng, ex.TABLE1_WORKLOADS), **common}),
        Call("fig6", ex.figure6_cmem_faults,
             {"workloads": _shuffled(rng, ex.TABLE1_WORKLOADS), **common}),
        Call("fig7", ex.figure7_correlation,
             {"workloads": _shuffled(rng, ex.TABLE1_WORKLOADS), **common}),
        Call("simtime", ex.simulation_time_comparison, dict(common)),
    ]
    rng.shuffle(calls)
    return calls


def stored_pool(order: str, store_path: str, n_workers: int) -> List[Call]:
    """The Fig 5 and Fig 6 drivers on a file store with a process pool."""
    from repro.core import experiments as ex

    rng = random.Random(order)
    common = {
        "sample_size": SAMPLE_SIZE,
        "seed": PAPER_SEED,
        "n_workers": n_workers,
        "store_path": store_path,
    }
    calls = [
        Call("fig5", ex.figure5_iu_faults,
             {"workloads": _shuffled(rng, ex.TABLE1_WORKLOADS), **common}),
        Call("fig6", ex.figure6_cmem_faults,
             {"workloads": _shuffled(rng, ex.TABLE1_WORKLOADS), **common}),
    ]
    rng.shuffle(calls)
    return calls


def run_engine_campaign(
    workload: str,
    backend: str,
    iterations: Optional[int] = None,
    **config: Any,
) -> Dict[Any, Any]:
    """Build *workload* and run one :class:`CampaignEngine` campaign on it."""
    from repro.engine import (
        CampaignConfig,
        CampaignEngine,
        IssBackend,
        Leon3RtlBackend,
    )
    from repro.workloads import build_program

    factory = {"rtl": Leon3RtlBackend, "iss": IssBackend}[backend]
    program = build_program(workload, iterations=iterations)
    engine = CampaignEngine(program, CampaignConfig(**config), backend_factory=factory)
    return engine.run()


def seu_lockstep(order: str) -> List[Call]:
    """Transient campaigns on RTL (checkpoint ladder, early exit) and ISS
    (lockstep packs), plus ISS permanent campaigns on the register file."""
    from repro.core.experiments import TABLE1_WORKLOADS
    from repro.engine.backend import ARCH_REGFILE_UNIT
    from repro.leon3.units import IU_SCOPE

    rng = random.Random(order)
    transient = {"sample_size": SEU_SITES, "transient_windows": SEU_WINDOWS}
    calls = []
    for name in TABLE1_WORKLOADS:
        for iterations in SEU_ITERATIONS:
            calls.append(Call(
                f"rtl-seu/{name}x{iterations}", run_engine_campaign,
                {"workload": name, "backend": "rtl", "iterations": iterations,
                 "unit_scope": IU_SCOPE, **transient},
            ))
            calls.append(Call(
                f"iss-seu/{name}x{iterations}", run_engine_campaign,
                {"workload": name, "backend": "iss", "iterations": iterations,
                 "unit_scope": ARCH_REGFILE_UNIT,
                 "lockstep_width": LOCKSTEP_WIDTH, **transient},
            ))
        calls.append(Call(
            f"iss-permanent/{name}", run_engine_campaign,
            {"workload": name, "backend": "iss", "unit_scope": ARCH_REGFILE_UNIT,
             "sample_size": ISS_PERMANENT_SITES, "lockstep_width": LOCKSTEP_WIDTH},
        ))
    campaign_seeds = random.Random(PAPER_SEED)
    for call in calls:
        call.kwargs["seed"] = campaign_seeds.randrange(1 << 31)
    rng.shuffle(calls)
    return calls


def programs_used(workload: str) -> List[Tuple[str, Optional[int], bool]]:
    """``(name, iterations, full_size)`` of every program *workload* builds,
    for the set-up phase."""
    from repro.core.experiments import TABLE1_WORKLOADS
    from repro.workloads.excerpts import SUBSET_A_MEMBERS, SUBSET_B_MEMBERS

    if workload == "seu_lockstep":
        return [
            (name, iterations, False)
            for name in TABLE1_WORKLOADS
            for iterations in (None, *SEU_ITERATIONS)
        ]
    programs = [(name, None, False) for name in TABLE1_WORKLOADS]
    if workload == "paper_rtl":
        programs += [(name, None, True) for name in TABLE1_WORKLOADS]
        programs += [
            (f"excerpt_{member}", None, False)
            for member in (*SUBSET_A_MEMBERS, *SUBSET_B_MEMBERS)
        ]
        programs += [("rspeed", count, False) for count in (2, 4, 10)]
    return programs
