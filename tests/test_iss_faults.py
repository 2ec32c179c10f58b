"""Tests for architectural (ISS-level) fault injection."""

import pytest

from conftest import SMALL_PROGRAM_SOURCE
from repro.engine.backend import IssBackend
from repro.faultinjection.comparison import compare_runs
from repro.isa.assembler import assemble
from repro.iss.faults import ArchitecturalFault

MAX_INSTRUCTIONS = 2_000_000


class _Injector:
    """Golden and faulty runs of one program on the reference interpreter
    (``IssBackend(fast=False)`` runs :class:`~repro.iss.faults.FaultyEmulator`),
    classified by the campaigns' comparison."""

    def __init__(self, program, fast=False):
        self.backend = IssBackend(fast=fast)
        self.backend.prepare(program)
        self.golden = self.backend.run(MAX_INSTRUCTIONS)

    def run_with_fault(self, fault):
        return self.backend.run(MAX_INSTRUCTIONS, faults=[fault])

    def is_failure(self, faulty):
        return compare_runs(self.golden, faulty).is_failure

    def fails(self, fault):
        return self.is_failure(self.run_with_fault(fault))


@pytest.fixture
def program():
    return assemble(SMALL_PROGRAM_SOURCE, name="small")


@pytest.fixture
def injector(program):
    return _Injector(program)


class TestArchitecturalFault:
    def test_stuck_at_one_sets_bit(self):
        fault = ArchitecturalFault(register=8, bit=3, model="stuck_at_1")
        assert fault.apply(0) == 8

    def test_stuck_at_zero_clears_bit(self):
        fault = ArchitecturalFault(register=8, bit=0, model="stuck_at_0")
        assert fault.apply(0xF) == 0xE

    def test_bit_flip_toggles(self):
        fault = ArchitecturalFault(register=8, bit=1, model="bit_flip")
        assert fault.apply(0) == 2
        assert fault.apply(2) == 0

    def test_invalid_register_rejected(self):
        with pytest.raises(ValueError):
            ArchitecturalFault(register=40, bit=0, model="stuck_at_1")

    def test_invalid_bit_rejected(self):
        with pytest.raises(ValueError):
            ArchitecturalFault(register=1, bit=32, model="stuck_at_1")

    def test_invalid_model_rejected(self):
        with pytest.raises(ValueError):
            ArchitecturalFault(register=1, bit=0, model="stuck_open")


class TestIssFaultInjector:
    def test_golden_run_exits_normally(self, injector):
        assert injector.golden.normal_exit

    def test_fault_in_unused_register_is_masked(self, injector):
        # %i5 (register 29) is never used by the small program.
        fault = ArchitecturalFault(register=29, bit=7, model="stuck_at_1")
        faulty = injector.run_with_fault(fault)
        assert not injector.is_failure(faulty)

    def test_fault_in_live_register_causes_failure(self, injector):
        # %o0 (register 8) holds a loaded operand: stick a high bit.
        fault = ArchitecturalFault(register=8, bit=16, model="stuck_at_1")
        faulty = injector.run_with_fault(fault)
        assert injector.is_failure(faulty)

    def test_g0_faults_never_propagate(self, injector):
        fault = ArchitecturalFault(register=0, bit=5, model="stuck_at_1")
        faulty = injector.run_with_fault(fault)
        assert not injector.is_failure(faulty)

    def test_campaign_statistics_are_consistent(self, injector, program):
        faults = [
            ArchitecturalFault(register=reg, bit=bit, model="stuck_at_1")
            for reg, bit in [(8, 0), (8, 20), (29, 3), (0, 1)]
        ]
        outcomes = [injector.fails(fault) for fault in faults]
        assert len(outcomes) == 4
        # The unused register and %g0 mask their faults; the fast
        # interpreter classifies every fault the same way.
        assert outcomes[2:] == [False, False]
        fast = _Injector(program, fast=True)
        assert [fast.fails(fault) for fault in faults] == outcomes

    def test_transient_flip_late_in_program_is_less_harmful(self, injector):
        early = ArchitecturalFault(register=8, bit=30, model="bit_flip", trigger_index=0)
        late = ArchitecturalFault(register=8, bit=30, model="bit_flip", trigger_index=10_000)
        early_failed = injector.fails(early)
        late_failed = injector.fails(late)
        # The late flip triggers after the program finished using %o0 (or not
        # at all), so it can only be benign if the early one is too.
        assert late_failed <= early_failed
