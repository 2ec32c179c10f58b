"""Tests for the fault-injection framework (comparison, injector, campaign)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faultinjection.campaign import (
    CampaignConfig,
    FaultInjectionCampaign,
    run_cmem_campaign,
    run_iu_campaign,
)
from repro.faultinjection.comparison import (
    FailureClass,
    _first_divergence,
    compare_runs,
)
from repro.faultinjection.injector import FaultInjector
from repro.faultinjection.models import faults_for_sites
from repro.faultinjection.results import CampaignResult, InjectionOutcome
from repro.isa.assembler import assemble
from repro.isa.instructions import FunctionalUnit
from repro.iss.trace import OffCoreTransaction
from repro.leon3.core import RtlExecutionResult, run_program_rtl
from repro.rtl.faults import FaultModel, PermanentFault
from repro.rtl.sites import FaultSite

from conftest import SMALL_PROGRAM_SOURCE


def _result_with(transactions, cycles=None, halted=True, trap=None, exit_code=0):
    from repro.iss.trace import ExecutionTrace

    return RtlExecutionResult(
        transactions=list(transactions),
        transaction_cycles=list(cycles if cycles is not None else range(len(transactions))),
        trace=ExecutionTrace(),
        instructions=10,
        cycles=100,
        halted=halted,
        exit_code=exit_code,
        trap_kind=trap,
    )


GOLDEN = _result_with(
    [
        OffCoreTransaction("store", 0x100, 1, 4),
        OffCoreTransaction("store", 0x104, 2, 4),
        OffCoreTransaction("store", 0x108, 3, 4),
    ]
)


class TestComparison:
    def test_identical_runs_are_no_effect(self):
        faulty = _result_with(list(GOLDEN.transactions))
        comparison = compare_runs(GOLDEN, faulty)
        assert comparison.failure_class is FailureClass.NO_EFFECT
        assert not comparison.is_failure

    def test_wrong_data_detected(self):
        transactions = list(GOLDEN.transactions)
        transactions[1] = OffCoreTransaction("store", 0x104, 99, 4)
        comparison = compare_runs(GOLDEN, _result_with(transactions))
        assert comparison.failure_class is FailureClass.WRONG_DATA
        assert comparison.divergence_index == 1

    def test_wrong_address_detected(self):
        transactions = list(GOLDEN.transactions)
        transactions[0] = OffCoreTransaction("store", 0x200, 1, 4)
        comparison = compare_runs(GOLDEN, _result_with(transactions))
        assert comparison.failure_class is FailureClass.WRONG_ADDRESS

    def test_missing_activity_detected(self):
        comparison = compare_runs(GOLDEN, _result_with(GOLDEN.transactions[:1]))
        assert comparison.failure_class is FailureClass.MISSING_ACTIVITY

    def test_extra_activity_detected(self):
        transactions = list(GOLDEN.transactions) + [OffCoreTransaction("store", 0x10C, 4, 4)]
        comparison = compare_runs(GOLDEN, _result_with(transactions))
        assert comparison.failure_class is FailureClass.EXTRA_ACTIVITY

    def test_trap_classified_when_prefix_matches(self):
        faulty = _result_with(GOLDEN.transactions[:2], trap="memory", exit_code=None)
        comparison = compare_runs(GOLDEN, faulty)
        assert comparison.failure_class is FailureClass.TRAP

    def test_hang_classified_for_watchdog(self):
        faulty = _result_with(GOLDEN.transactions[:2], halted=False, exit_code=None)
        comparison = compare_runs(GOLDEN, faulty)
        assert comparison.failure_class is FailureClass.HANG

    def test_same_stores_but_trap_still_failure(self):
        faulty = _result_with(GOLDEN.transactions, trap="window", exit_code=None)
        comparison = compare_runs(GOLDEN, faulty)
        assert comparison.is_failure
        assert comparison.failure_class is FailureClass.TRAP

    def test_detection_cycle_reported(self):
        transactions = list(GOLDEN.transactions)
        transactions[2] = OffCoreTransaction("store", 0x108, 7, 4)
        faulty = _result_with(transactions, cycles=[10, 20, 30])
        comparison = compare_runs(GOLDEN, faulty)
        assert comparison.detection_cycle == 30


class TestComparisonEdgeCases:
    """Boundary behaviour of the comparator: empty streams, hang truncation
    and self-comparison (the NO_EFFECT fixed point)."""

    def test_both_streams_empty_is_no_effect(self):
        golden = _result_with([])
        faulty = _result_with([])
        comparison = compare_runs(golden, faulty)
        assert comparison.failure_class is FailureClass.NO_EFFECT
        assert comparison.divergence_index is None

    def test_empty_golden_with_extra_faulty_activity(self):
        golden = _result_with([])
        faulty = _result_with([OffCoreTransaction("store", 0x100, 1, 4)])
        comparison = compare_runs(golden, faulty)
        assert comparison.failure_class is FailureClass.EXTRA_ACTIVITY
        assert comparison.divergence_index == 0

    def test_empty_faulty_stream_with_normal_exit_is_missing_activity(self):
        comparison = compare_runs(GOLDEN, _result_with([]))
        assert comparison.failure_class is FailureClass.MISSING_ACTIVITY
        assert comparison.divergence_index == 0

    def test_empty_faulty_stream_from_trap_classified_as_trap(self):
        faulty = _result_with([], trap="memory", exit_code=None)
        comparison = compare_runs(GOLDEN, faulty)
        assert comparison.failure_class is FailureClass.TRAP

    def test_empty_streams_but_hung_faulty_run_is_hang(self):
        golden = _result_with([])
        faulty = _result_with([], halted=False, exit_code=None)
        comparison = compare_runs(golden, faulty)
        assert comparison.failure_class is FailureClass.HANG

    def test_hang_truncated_stream_detection_falls_back_to_final_cycle(self):
        # A hang that truncates the stream and carries no per-transaction
        # cycle stamps must still report a detection cycle (the final one).
        faulty = _result_with(
            GOLDEN.transactions[:1], cycles=[], halted=False, exit_code=None
        )
        comparison = compare_runs(GOLDEN, faulty)
        assert comparison.failure_class is FailureClass.HANG
        assert comparison.divergence_index == 1
        assert comparison.detection_cycle == faulty.cycles

    def test_hang_with_empty_truncated_stream_detects_at_first_index(self):
        faulty = _result_with([], halted=False, exit_code=None)
        comparison = compare_runs(GOLDEN, faulty)
        assert comparison.failure_class is FailureClass.HANG
        assert comparison.divergence_index == 0

    def test_golden_self_comparison_is_no_effect(self):
        comparison = compare_runs(GOLDEN, GOLDEN)
        assert comparison.failure_class is FailureClass.NO_EFFECT
        assert not comparison.is_failure
        assert comparison.divergence_index is None
        assert comparison.detection_cycle is None

    def test_real_golden_run_self_comparison_is_no_effect(self):
        program = assemble(SMALL_PROGRAM_SOURCE, name="self_cmp")
        golden = run_program_rtl(program, max_instructions=100_000)
        comparison = compare_runs(golden, golden)
        assert comparison.failure_class is FailureClass.NO_EFFECT


def _per_element_divergence(golden, faulty):
    """The classifier's first-divergence rule, one field comparison per
    position (the reference for the identity fast path)."""
    for index, (expected, observed) in enumerate(zip(golden, faulty)):
        if not expected.matches(observed):
            return index
    if len(golden) != len(faulty):
        return min(len(golden), len(faulty))
    return None


_transactions = st.lists(
    st.builds(
        OffCoreTransaction,
        kind=st.sampled_from(["store", "io"]),
        address=st.sampled_from([0x100, 0x104, 0x80000000]),
        value=st.integers(min_value=0, max_value=3),
        size=st.sampled_from([1, 4]),
    ),
    max_size=12,
)


class TestFirstDivergence:
    """``_first_divergence`` skips identical objects: spliced streams share
    the golden's transactions, and the answer must not change."""

    @settings(max_examples=200, deadline=None)
    @given(golden=_transactions, own=_transactions, split=st.integers(0, 12),
           tail=st.integers(0, 12), copy=st.booleans())
    def test_matches_the_per_element_scan(self, golden, own, split, tail, copy):
        # Shared prefix, the faulty run's own middle, then a spliced tail of
        # the golden's objects; *copy* replaces shared objects by equal ones.
        shared = golden[:split]
        spliced = golden[len(golden) - min(tail, len(golden)):]
        faulty = shared + own + spliced
        if copy:
            faulty = [OffCoreTransaction(t.kind, t.address, t.value, t.size)
                      for t in faulty]
        assert _first_divergence(golden, faulty) == _per_element_divergence(
            golden, faulty
        )
        assert _first_divergence(faulty, golden) == _per_element_divergence(
            faulty, golden
        )

    def test_shared_objects_are_not_compared(self):
        class Opaque(OffCoreTransaction):
            def matches(self, other):
                raise AssertionError("identical objects compared field by field")

        stream = [Opaque("store", 0x100, 1, 4)] * 3
        assert _first_divergence(stream, list(stream)) is None
        assert _first_divergence(stream, stream[:2]) == 2


class TestResults:
    def _outcome(self, unit="iu.alu.adder", failure=FailureClass.WRONG_DATA, cycle=50):
        site = FaultSite(net="x", bit=0, unit=unit)
        return InjectionOutcome(
            fault=PermanentFault(site, FaultModel.STUCK_AT_1),
            failure_class=failure,
            detection_cycle=cycle,
        )

    def test_failure_probability(self):
        result = CampaignResult("w", FaultModel.STUCK_AT_1, "iu")
        result.outcomes = [
            self._outcome(),
            self._outcome(failure=FailureClass.NO_EFFECT),
        ]
        assert result.failure_probability == 0.5
        assert result.failures == 1
        assert result.injections == 2

    def test_empty_campaign_probability_is_zero(self):
        assert CampaignResult("w", FaultModel.STUCK_AT_1, "iu").failure_probability == 0.0

    def test_per_unit_breakdown(self):
        result = CampaignResult("w", FaultModel.STUCK_AT_1, "iu")
        result.outcomes = [
            self._outcome(unit="iu.alu.adder"),
            self._outcome(unit="iu.alu.adder", failure=FailureClass.NO_EFFECT),
            self._outcome(unit="iu.alu.shifter", failure=FailureClass.NO_EFFECT),
        ]
        per_unit = result.per_unit_probabilities()
        assert per_unit[FunctionalUnit.ALU_ADDER] == 0.5
        assert per_unit[FunctionalUnit.SHIFTER] == 0.0
        assert result.per_unit_injections()[FunctionalUnit.ALU_ADDER] == 2

    def test_latency_statistics(self):
        result = CampaignResult("w", FaultModel.STUCK_AT_1, "iu")
        result.outcomes = [self._outcome(cycle=80), self._outcome(cycle=160)]
        assert result.max_detection_latency_us == pytest.approx(160 / 80e6 * 1e6)
        assert result.mean_detection_latency_us == pytest.approx(120 / 80e6 * 1e6)

    def test_classification_histogram_and_summary(self):
        result = CampaignResult("w", FaultModel.STUCK_AT_1, "iu")
        result.outcomes = [self._outcome(), self._outcome(failure=FailureClass.NO_EFFECT)]
        histogram = result.classification_histogram()
        assert histogram[FailureClass.WRONG_DATA] == 1
        summary = result.summary()
        assert summary["failure_probability"] == 0.5
        assert summary["fault_model"] == "stuck_at_1"


@pytest.fixture(scope="module")
def small_program_module():
    return assemble(SMALL_PROGRAM_SOURCE, name="small")


class TestInjector:
    def test_golden_run_cached_and_normal(self, small_program_module):
        injector = FaultInjector(small_program_module)
        golden = injector.golden_run()
        assert golden.normal_exit
        assert injector.golden_run() is golden

    def test_faulty_budget_exceeds_golden(self, small_program_module):
        injector = FaultInjector(small_program_module)
        assert injector.faulty_budget() > injector.golden_run().instructions

    def test_run_with_fault_restores_state_for_next_run(self, small_program_module):
        injector = FaultInjector(small_program_module)
        golden = injector.golden_run()
        site = injector.core.netlist.site_for("alu.adder.sum", 0)
        injector.run_with_fault(PermanentFault(site, FaultModel.STUCK_AT_1))
        # A subsequent clean faulty run with a harmless fault must match golden.
        harmless_site = injector.core.netlist.site_for("alu.div.quotient", 0)
        clean = injector.run_with_fault(PermanentFault(harmless_site, FaultModel.STUCK_AT_1))
        assert len(clean.transactions) == len(golden.transactions)
        assert all(a.matches(b) for a, b in zip(golden.transactions, clean.transactions))

    def test_multi_fault_injection_supported(self, small_program_module):
        injector = FaultInjector(small_program_module)
        sites = [
            injector.core.netlist.site_for("alu.adder.sum", 0),
            injector.core.netlist.site_for("alu.adder.sum", 1),
        ]
        faults = faults_for_sites(sites, FaultModel.STUCK_AT_1)
        result = injector.run_with_faults(faults)
        assert result.instructions > 0


class TestCampaign:
    def test_campaign_runs_and_reports(self, small_program_module):
        config = CampaignConfig(
            unit_scope="iu", sample_size=12, fault_models=[FaultModel.STUCK_AT_1], seed=1
        )
        campaign = FaultInjectionCampaign(small_program_module, config)
        results = campaign.run()
        result = results[FaultModel.STUCK_AT_1]
        assert result.injections == 12
        assert 0.0 <= result.failure_probability <= 1.0
        assert result.unit_scope == "iu"
        assert result.simulation_seconds > 0

    def test_same_sites_reused_across_models(self, small_program_module):
        config = CampaignConfig(
            unit_scope="iu",
            sample_size=6,
            fault_models=[FaultModel.STUCK_AT_1, FaultModel.STUCK_AT_0],
            seed=3,
        )
        results = FaultInjectionCampaign(small_program_module, config).run()
        sites_sa1 = [o.fault.site for o in results[FaultModel.STUCK_AT_1].outcomes]
        sites_sa0 = [o.fault.site for o in results[FaultModel.STUCK_AT_0].outcomes]
        assert sites_sa1 == sites_sa0

    def test_sampling_is_reproducible(self, small_program_module):
        config = CampaignConfig(unit_scope="iu", sample_size=8, seed=9)
        first = FaultInjectionCampaign(small_program_module, config).select_sites()
        second = FaultInjectionCampaign(small_program_module, config).select_sites()
        assert first == second

    def test_scope_restricts_sites(self, small_program_module):
        config = CampaignConfig(unit_scope="cmem", sample_size=10, seed=2)
        campaign = FaultInjectionCampaign(small_program_module, config)
        assert all(site.unit.startswith("cmem") for site in campaign.select_sites())

    def test_convenience_wrappers(self, small_program_module):
        iu = run_iu_campaign(small_program_module, sample_size=5,
                             fault_models=[FaultModel.STUCK_AT_1])
        cmem = run_cmem_campaign(small_program_module, sample_size=5,
                                 fault_models=[FaultModel.STUCK_AT_1])
        assert iu[FaultModel.STUCK_AT_1].unit_scope == "iu"
        assert cmem[FaultModel.STUCK_AT_1].unit_scope == "cmem"
