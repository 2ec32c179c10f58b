"""Golden-vs-faulty comparison at the off-core boundary.

Following the paper, a fault is counted as a *failure* when the off-core
activity of the faulty run differs from the golden run in any way a
light-lockstep comparator would notice: a write with wrong data or address,
missing or extra writes (which includes runs that trap or hang before
completing), or a changed exit status.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.iss.trace import OffCoreTransaction


class FailureClass(enum.Enum):
    """Classification of one injection experiment."""

    NO_EFFECT = "no_effect"
    WRONG_DATA = "wrong_data"
    WRONG_ADDRESS = "wrong_address"
    MISSING_ACTIVITY = "missing_activity"
    EXTRA_ACTIVITY = "extra_activity"
    TRAP = "trap"
    HANG = "hang"

    @property
    def is_failure(self) -> bool:
        return self is not FailureClass.NO_EFFECT


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of comparing a faulty run against the golden run."""

    failure_class: FailureClass
    #: Index of the first divergent transaction (None when streams match).
    divergence_index: Optional[int] = None
    #: Cycle (in the faulty run) at which the divergence was detected.
    detection_cycle: Optional[int] = None

    @property
    def is_failure(self) -> bool:
        return self.failure_class.is_failure


def _first_divergence(
    golden: Sequence[OffCoreTransaction], faulty: Sequence[OffCoreTransaction]
) -> Optional[int]:
    """Index of the first position where the two streams differ, else None.

    Transactions are tuples, so both tests run in C, and identical objects
    (spliced golden prefixes and tails share the golden's) compare without
    looking at their fields.
    """
    if golden == faulty:
        return None
    for index, (expected, observed) in enumerate(zip(golden, faulty)):
        if expected != observed:
            return index
    if len(golden) != len(faulty):
        return min(len(golden), len(faulty))
    return None


def compare_runs(golden, faulty) -> ComparisonResult:
    """Compare a faulty run against the golden run of the same workload.

    Accepts any pair of run results exposing the off-core observables
    (``transactions``, ``transaction_cycles``, ``normal_exit``, ``trap_kind``,
    ``halted``, ``cycles``) — both the backend-neutral
    :class:`~repro.engine.backend.RunResult` and the native
    :class:`~repro.leon3.core.RtlExecutionResult` qualify, so long as golden
    and faulty come from the same backend.
    """
    divergence = _first_divergence(golden.transactions, faulty.transactions)

    if divergence is None:
        if faulty.normal_exit == golden.normal_exit:
            return ComparisonResult(FailureClass.NO_EFFECT)
        # Same off-core writes but different termination (trap or watchdog):
        # the lockstep comparator would eventually flag the missing activity.
        failure_class = (
            FailureClass.TRAP if faulty.trap_kind else FailureClass.HANG
        )
        return ComparisonResult(failure_class, None, faulty.cycles)

    detection_cycle = None
    if divergence < len(faulty.transaction_cycles):
        detection_cycle = faulty.transaction_cycles[divergence]
    else:
        detection_cycle = faulty.cycles

    if divergence >= len(faulty.transactions):
        # The faulty run produced a strict prefix of the golden activity.
        if faulty.trap_kind:
            return ComparisonResult(FailureClass.TRAP, divergence, detection_cycle)
        if not faulty.halted:
            return ComparisonResult(FailureClass.HANG, divergence, detection_cycle)
        return ComparisonResult(
            FailureClass.MISSING_ACTIVITY, divergence, detection_cycle
        )
    if divergence >= len(golden.transactions):
        return ComparisonResult(FailureClass.EXTRA_ACTIVITY, divergence, detection_cycle)

    expected = golden.transactions[divergence]
    observed = faulty.transactions[divergence]
    if expected.address != observed.address or expected.kind != observed.kind:
        return ComparisonResult(FailureClass.WRONG_ADDRESS, divergence, detection_cycle)
    return ComparisonResult(FailureClass.WRONG_DATA, divergence, detection_cycle)
