"""ISS-level (architectural) fault injection.

The paper observes that the *typical* ISS fault-injection practice — flipping
or sticking bits in the architectural register file or in memory — cannot by
itself estimate failure-rate metrics, because it does not model the
probability that a low-level (RTL) fault propagates to the architectural
state.  We nevertheless implement that practice faithfully: it is the baseline
the paper argues about, it is useful for software-level robustness studies
(benefit B3 in the paper), and it lets users compare architectural-level and
RTL-level campaigns within the same framework.

Fault models supported on architectural state:

* ``stuck_at_0`` / ``stuck_at_1`` — the chosen register bit is forced before
  every instruction (a permanent fault as seen by software),
* ``bit_flip`` — a single transient upset applied once at a chosen
  instruction index.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.iss.emulator import Emulator


@dataclass(frozen=True)
class ArchitecturalFault:
    """A fault targeting the architectural register file."""

    register: int
    bit: int
    model: str  # "stuck_at_0", "stuck_at_1" or "bit_flip"
    #: Instruction index at which a transient bit flip is applied.
    trigger_index: int = 0

    def __post_init__(self):
        if not 0 <= self.register < 32:
            raise ValueError(f"register {self.register} out of range")
        if not 0 <= self.bit < 32:
            raise ValueError(f"bit {self.bit} out of range")
        if self.model not in ("stuck_at_0", "stuck_at_1", "bit_flip"):
            raise ValueError(f"unknown fault model {self.model!r}")

    def apply(self, value: int) -> int:
        """Return *value* with the fault effect applied."""
        if self.model == "stuck_at_0":
            return value & ~(1 << self.bit)
        if self.model == "stuck_at_1":
            return value | (1 << self.bit)
        return value ^ (1 << self.bit)


class FaultyEmulator(Emulator):
    """Emulator specialisation that applies an architectural fault while running.

    The ISS fault specification: :func:`repro.iss.fastpath.verify_bit_identity`
    and ``IssBackend(fast=False)`` run it, and the fast path's fault handling
    is tested against it.
    """

    def __init__(self, fault: ArchitecturalFault, **kwargs):
        super().__init__(**kwargs)
        self._fault = fault
        self._executed = 0
        self._flip_done = False

    def reset(self, entry_point: int = 0) -> None:
        """Reset restarts the experiment: the transient flip re-arms.

        Keeps a reused (reset + rerun) faulty emulator bit-identical to the
        fast-path interpreter, which resets its fault counters the same way.
        """
        super().reset(entry_point=entry_point)
        self._executed = 0
        self._flip_done = False

    def _execute(self, instruction, pc, transactions):
        fault = self._fault
        if fault.model == "bit_flip":
            if not self._flip_done and self._executed >= fault.trigger_index:
                original = self.registers.read(fault.register)
                self.registers.write(fault.register, fault.apply(original))
                self._flip_done = True
        else:
            original = self.registers.read(fault.register)
            self.registers.write(fault.register, fault.apply(original))
        self._executed += 1
        return super()._execute(instruction, pc, transactions)
