"""Nets, storage arrays and the hierarchical netlist.

The netlist is the substrate the structural Leon3 model is built on.  Every
intermediate value the microcontroller computes — operand buses, the adder
sum, the shifter output, cache tag comparisons, pipeline stage latches, the
write-back bus — is *driven* onto a named :class:`Net`.  Driving returns the
value actually observed on the net, which is where the permanent-fault
saboteurs are applied.  Downstream logic always consumes the returned value,
so a fault propagates exactly when the corrupted structure is exercised.

Storage arrays (register file cells, cache tag/data/valid arrays) behave the
same way per cell: writes store the driven value, reads apply any fault
attached to the addressed cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.rtl.faults import PermanentFault
from repro.rtl.sites import FaultSite, SiteUniverse


class NetlistError(RuntimeError):
    """Raised on netlist misuse (duplicate or unknown nets, bad widths)."""


@dataclass
class Net:
    """One named net with a width and a latched value."""

    name: str
    width: int
    unit: str
    value: int = 0
    #: ``(1 << width) - 1``, stored because every drive applies it.
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.mask = (1 << self.width) - 1


class Netlist:
    """A flat registry of nets and storage arrays with fault application."""

    def __init__(self):
        self._nets: Dict[str, Net] = {}
        self._arrays: Dict[str, "StorageArray"] = {}
        #: Active net faults, keyed by net name.
        self._net_faults: Dict[str, List[PermanentFault]] = {}
        self.universe = SiteUniverse()
        #: Simulation cycle, advanced by the core; transient faults use it to
        #: decide whether they are active (permanent faults ignore it).
        self.cycle = 0

    # -- declaration -------------------------------------------------------------

    def declare(self, name: str, width: int, unit: str) -> Net:
        """Declare a net; every net must be declared before it is driven."""
        if name in self._nets:
            raise NetlistError(f"net {name!r} already declared")
        if width < 1 or width > 64:
            raise NetlistError(f"net {name!r}: unsupported width {width}")
        net = Net(name=name, width=width, unit=unit)
        self._nets[name] = net
        self.universe.add_net(name, width, unit)
        return net

    def declare_array(
        self, name: str, width: int, cells: int, unit: str
    ) -> "StorageArray":
        """Declare a storage array of *cells* cells of *width* bits."""
        if name in self._arrays:
            raise NetlistError(f"array {name!r} already declared")
        array = StorageArray(name=name, width=width, cells=cells, unit=unit)
        array.clock = self
        self._arrays[name] = array
        self.universe.add_array(name, width, cells, unit)
        return array

    # -- access --------------------------------------------------------------------

    def net(self, name: str) -> Net:
        try:
            return self._nets[name]
        except KeyError as exc:
            raise NetlistError(f"unknown net {name!r}") from exc

    def array(self, name: str) -> "StorageArray":
        try:
            return self._arrays[name]
        except KeyError as exc:
            raise NetlistError(f"unknown array {name!r}") from exc

    def drive(self, name: str, value: int) -> int:
        """Drive *value* on net *name*; return the value actually observed.

        The observed value reflects any active permanent fault on the net.
        """
        try:
            net = self._nets[name]
        except KeyError as exc:
            raise NetlistError(f"unknown net {name!r}") from exc
        value &= net.mask
        if self._net_faults:
            faults = self._net_faults.get(name)
            if faults:
                cycle = self.cycle
                for fault in faults:
                    if fault.active_at(cycle):
                        value = fault.apply(value, net.value) & net.mask
        net.value = value
        return value

    def latched_values(self) -> Dict[str, int]:
        """Snapshot of every net's currently latched value, by net name."""
        return {name: net.value for name, net in self._nets.items()}

    def sample(self, name: str) -> int:
        """Read the currently latched value of net *name*."""
        try:
            return self._nets[name].value
        except KeyError as exc:
            raise NetlistError(f"unknown net {name!r}") from exc

    # -- fault management ---------------------------------------------------------------

    def inject(self, fault: PermanentFault) -> None:
        """Activate *fault* (on a net or a storage cell)."""
        site = fault.site
        if site.index is not None:
            self.array(site.net).inject(fault)
            return
        net = self.net(site.net)
        if site.bit >= net.width:
            raise NetlistError(
                f"fault bit {site.bit} exceeds width of net {site.net!r}"
            )
        self._net_faults.setdefault(site.net, []).append(fault)

    def clear_faults(self) -> None:
        """Remove all active faults (nets and arrays)."""
        self._net_faults.clear()
        for array in self._arrays.values():
            array.clear_faults()

    def active_faults(self) -> List[PermanentFault]:
        faults: List[PermanentFault] = []
        for fault_list in self._net_faults.values():
            faults.extend(fault_list)
        for array in self._arrays.values():
            faults.extend(array.active_faults())
        return faults

    # -- state management ------------------------------------------------------------------

    def reset_state(self) -> None:
        """Reset all net values and array contents (faults stay active)."""
        self.cycle = 0
        for net in self._nets.values():
            net.value = 0
        for array in self._arrays.values():
            array.reset()

    def site_for(self, name: str, bit: int, index: Optional[int] = None) -> FaultSite:
        """Build a :class:`FaultSite` for an existing net/array (validated)."""
        if index is None:
            net = self.net(name)
            if bit >= net.width:
                raise NetlistError(f"bit {bit} out of range for net {name!r}")
            return FaultSite(net=name, bit=bit, unit=net.unit)
        array = self.array(name)
        if bit >= array.width or index >= array.cells:
            raise NetlistError(f"cell {index}/bit {bit} out of range for {name!r}")
        return FaultSite(net=name, bit=bit, unit=array.unit, index=index)


@dataclass
class StorageArray:
    """A storage array (register file, cache tag/data/valid memory)."""

    name: str
    width: int
    cells: int
    unit: str
    _data: List[int] = field(default_factory=list)
    _faults: Dict[int, List[PermanentFault]] = field(default_factory=dict)
    #: Value last observed on the (single) read port, used as the "previous"
    #: value for the open-line (charge retention) fault model.
    _last_read: int = 0
    #: Back-reference to the owning netlist (provides the simulation cycle).
    clock: object = None

    def __post_init__(self):
        if not self._data:
            self._data = [0] * self.cells

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    def read(self, index: int) -> int:
        """Read cell *index*, applying any fault attached to it."""
        value = self._data[index]
        if self._faults:
            faults = self._faults.get(index)
            if faults:
                cycle = self.clock.cycle if self.clock is not None else 0
                for fault in faults:
                    if fault.active_at(cycle):
                        value = fault.apply(value, self._last_read) & self.mask
        self._last_read = value
        return value

    def write(self, index: int, value: int) -> None:
        """Write cell *index*.  Stuck-at faults manifest on read."""
        self._data[index] = value & self.mask

    def inject(self, fault: PermanentFault) -> None:
        if fault.site.index is None or fault.site.index >= self.cells:
            raise NetlistError(f"invalid cell index for array {self.name!r}")
        if fault.site.bit >= self.width:
            raise NetlistError(f"fault bit out of range for array {self.name!r}")
        self._faults.setdefault(fault.site.index, []).append(fault)

    def clear_faults(self) -> None:
        self._faults.clear()

    def active_faults(self) -> List[PermanentFault]:
        faults: List[PermanentFault] = []
        for fault_list in self._faults.values():
            faults.extend(fault_list)
        return faults

    def reset(self) -> None:
        # _last_read is part of the per-run fault-observable state (it is the
        # "previous value" of the open-line model): resetting it makes every
        # run a pure function of the memory image and the injected faults.
        # Before this reset, a backend reused across injection runs leaked the
        # last value read in the *previous* run into the first faulted read of
        # the next one, which made open-line outcomes depend on how jobs were
        # partitioned across workers (a result-transparency violation).
        self._data = [0] * self.cells
        self._last_read = 0

    def load(self, values: Sequence[int]) -> None:
        """Bulk-initialise the array (used to preload memories in tests)."""
        if len(values) > self.cells:
            raise NetlistError(f"too many values for array {self.name!r}")
        for index, value in enumerate(values):
            self._data[index] = value & self.mask
