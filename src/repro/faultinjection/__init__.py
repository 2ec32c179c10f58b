"""Failure classification and campaign results.

The campaign flow mirrors the paper's RTL methodology (Figure 2):

1. run the workload fault-free and capture the *golden* off-core transaction
   stream,
2. enumerate (or sample) the injectable sites of the targeted units (IU or
   CMEM),
3. for each site and fault model, re-run the workload with the saboteur
   active and compare its off-core stream against the golden one,
4. classify each injection (no effect, wrong data, missing/extra activity,
   trap, hang) and aggregate the percentage of faults that propagate to
   failures — the ``Pf`` reported in Figures 3-7.

:class:`repro.engine.CampaignEngine` runs that flow, for the paper's
permanent models and for SEU-style transient campaigns
(``CampaignConfig.transient_windows``); this package holds its two leaf
pieces: the comparison of a faulty run against the golden one
(:mod:`~repro.faultinjection.comparison`) and the per-model results
(:mod:`~repro.faultinjection.results`).
"""

from repro.faultinjection.comparison import FailureClass, compare_runs
from repro.faultinjection.results import CampaignResult, InjectionOutcome

__all__ = [
    "FailureClass",
    "compare_runs",
    "CampaignResult",
    "InjectionOutcome",
]
