"""Permanent fault models.

The study uses single permanent hardware faults of three kinds, applied to one
bit of one VHDL signal/port/variable:

* **stuck-at-1** — the bit always reads 1,
* **stuck-at-0** — the bit always reads 0,
* **open line**  — the bit is disconnected from its driver.  We model the
  floating node as retaining the last value that was observed on it (charge
  retention).  On a **net** that value never changes once the fault is
  present, so the open line is exactly the stuck-at of the bit the net
  latched when the fault appeared.  Runs inject just after a fault-free
  reset, which leaves every net at 0 except the ``%sp`` write
  (``rf.waddr`` = 14, ``rf.wdata`` = ``0x4007FFF0``): an open-line net fault
  is a stuck-at-0, or a stuck-at-1 on those bits, and the RTL backend
  collapses the twins (:class:`repro.engine.backend.Leon3RtlBackend`).  On a
  **storage cell** the retained value is the array's previous read-port
  value, which other cells' reads change, so the model stays distinct.

A fault on a storage cell acts only on reads of that cell; stored data never
changes.  :class:`CellReads` summarises every read of one cell along a run,
and :meth:`PermanentFault.inert_on` decides from it whether the fault would
have changed any of them (the campaign engine's inert screen).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.rtl.sites import FaultSite


class FaultModel(enum.Enum):
    """Fault models used by the campaigns.

    The first three are the paper's permanent models.  :attr:`TRANSIENT` is
    the reporting bucket of the SEU-style transient extension (a momentary
    bit flip inside a cycle window); it is deliberately *not* part of
    :data:`ALL_FAULT_MODELS`, so permanent campaigns are unaffected by its
    existence.
    """

    STUCK_AT_0 = "stuck_at_0"
    STUCK_AT_1 = "stuck_at_1"
    OPEN_LINE = "open_line"
    TRANSIENT = "transient"

    @property
    def label(self) -> str:
        """Human-readable label as used in the paper's figures."""
        return {
            FaultModel.STUCK_AT_0: "Stuck-at-0",
            FaultModel.STUCK_AT_1: "Stuck-at-1",
            FaultModel.OPEN_LINE: "Open line",
            FaultModel.TRANSIENT: "Transient flip",
        }[self]


ALL_FAULT_MODELS = (FaultModel.STUCK_AT_1, FaultModel.STUCK_AT_0, FaultModel.OPEN_LINE)


@dataclass
class CellReads:
    """Every read of one storage cell along a run, folded into three words.

    ``ored`` and ``anded`` are the OR and the AND of the values read
    (``anded`` starts at the array's width mask, so an unread cell has every
    bit set); ``changed`` is the OR of ``value ^ previous`` over the reads,
    where *previous* is the array's read-port value before the read (0 after
    reset) — the open-line model's retained value.
    """

    ored: int
    anded: int
    changed: int = 0

    @classmethod
    def unread(cls, width: int) -> "CellReads":
        return cls(ored=0, anded=(1 << width) - 1)

    def record(self, value: int, previous: int) -> None:
        self.ored |= value
        self.anded &= value
        self.changed |= value ^ previous


@dataclass(frozen=True)
class PermanentFault:
    """One permanent fault: a site (net/cell bit) plus a fault model."""

    site: FaultSite
    model: FaultModel

    def __post_init__(self):
        if self.model is FaultModel.TRANSIENT:
            raise ValueError(
                "FaultModel.TRANSIENT is the reporting bucket of TransientFault; "
                "build a TransientFault(site, start_cycle, duration) instead"
            )

    def active_at(self, cycle: int) -> bool:
        """Permanent faults are present from power-on until the end of time."""
        return True

    def apply(self, new_value: int, previous_value: int) -> int:
        """Return the value observed on the net given the driven *new_value*.

        *previous_value* is the value currently latched on the net/cell and is
        only used by the open-line model (charge retention).
        """
        bit_mask = 1 << self.site.bit
        if self.model is FaultModel.STUCK_AT_1:
            return new_value | bit_mask
        if self.model is FaultModel.STUCK_AT_0:
            return new_value & ~bit_mask
        # Open line: the faulted bit keeps its previous value.
        return (new_value & ~bit_mask) | (previous_value & bit_mask)

    def inert_on(self, reads: CellReads) -> bool:
        """True when :meth:`apply` returns the driven value on every read
        summarised by *reads* (a read of this fault's cell).

        Then a run with the fault reads what the fault-free run read, so it
        *is* the fault-free run: the fault never acts.
        """
        bit_mask = 1 << self.site.bit
        if self.model is FaultModel.STUCK_AT_1:
            return bool(reads.anded & bit_mask)
        if self.model is FaultModel.STUCK_AT_0:
            return not reads.ored & bit_mask
        return not reads.changed & bit_mask

    def describe(self) -> str:
        return f"{self.model.label} @ {self.site.describe()}"


@dataclass(frozen=True)
class TransientFault:
    """A transient (SEU-like) fault: the bit is disturbed during a cycle window.

    The paper leaves transient faults as future work because the number of
    injections required for statistical significance is orders of magnitude
    larger (the effect depends on *when* the fault hits).  The model is
    provided as an extension so that such studies can be scripted with the
    same campaign machinery: within ``[start_cycle, end_cycle)`` the bit is
    flipped relative to the driven value; outside the window the fault has no
    effect.

    Time units are backend-native: netlist cycles on the RTL model, executed
    instruction indices on the ISS (whose functional half has no finer notion
    of time) — see :attr:`repro.engine.backend.IssBackend.transient_unit`.
    """

    site: FaultSite
    start_cycle: int
    duration: int = 1

    def __post_init__(self):
        if self.start_cycle < 0 or self.duration < 1:
            raise ValueError("transient faults need start_cycle >= 0 and duration >= 1")

    @property
    def end_cycle(self) -> int:
        return self.start_cycle + self.duration

    @property
    def model(self) -> FaultModel:
        """Transients aggregate under their own reporting bucket."""
        return FaultModel.TRANSIENT

    def active_at(self, cycle: int) -> bool:
        return self.start_cycle <= cycle < self.end_cycle

    def apply(self, new_value: int, previous_value: int) -> int:
        return new_value ^ (1 << self.site.bit)

    def describe(self) -> str:
        return (
            f"Transient flip @ {self.site.describe()} "
            f"cycles [{self.start_cycle}, {self.end_cycle})"
        )
