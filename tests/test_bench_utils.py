"""The throughput harness: leg declarations, histories, the pair loop and the
CI gate.

``throughput.py`` owns the record format and the ``--check`` gate of every
throughput leg, and ``gen_perf_history.py`` renders the committed histories
through the same declarations, so their behaviour is contract: a default
``--check`` must match the committed configuration, bit-identity is verified
before any number is printed, and the gate compares against the *latest*
record with the leg's tolerance and hard floor.
"""

import itertools
import json
from dataclasses import replace

import gen_perf_history
import pytest
import throughput
from throughput import (
    LEGS,
    REPO_ROOT,
    Case,
    SimulatedInstructions,
    Timing,
    append_record,
    gate,
    load_history,
    stamp,
)


def _record(speedup, work=None, width=4):
    aggregate = {"speedup": speedup}
    if work is not None:
        aggregate["work_ratio"] = work
    return {"benchmark": "unit", "width": width, **stamp(), "aggregate": aggregate}


def _leg(**changes):
    """A leg declared like the ISS one, with a one-field configuration."""
    return replace(LEGS["iss"], name="unit", config={"width": 4}, **changes)


class TestLegDeclarations:
    @pytest.mark.parametrize("name", LEGS)
    def test_config_is_the_latest_committed_ones(self, name):
        """A default ``--check`` can never die on a configuration mismatch."""
        leg = LEGS[name]
        latest = load_history(REPO_ROOT / leg.history)[-1]
        assert latest["benchmark"] == leg.benchmark
        assert {field: latest.get(field) for field in leg.config} == leg.config

    def test_bounds(self):
        assert {
            name: (leg.tolerance, leg.floor, leg.pairs) for name, leg in LEGS.items()
        } == {
            "iss": (0.20, None, 1),
            "rtl": (0.20, 3.0, 1),
            "transient": (0.02, 3.0, 5),
            "lockstep": (0.02, 3.0, 5),
        }

    def test_phases_are_paperbench_metrics(self):
        benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        per_layer = {metric["name"] for metric in benchmark["per_layer"]}
        for leg in LEGS.values():
            assert leg.phase in per_layer, leg.name


class TestHistories:
    def test_append_creates_then_extends(self, tmp_path):
        path = tmp_path / "BENCH_unit.json"
        append_record(path, _record(2.0))
        append_record(path, _record(3.0))
        assert [r["aggregate"]["speedup"] for r in load_history(path)] == [2.0, 3.0]
        assert json.loads(path.read_text())["benchmark"] == "unit"


class TestPairs:
    """The harness's pair loop, on a leg whose timings are scripted."""

    @staticmethod
    def _scripted(pairs):
        """A leg over cases a and b whose pair *p* takes ``pairs[p]``:
        ``((a_reference, a_fast), (b_reference, b_fast))`` seconds."""
        script = itertools.cycle([case for pair in pairs for case in pair])

        def measure(state):
            reference_s, fast_s = next(script)
            return Timing(reference_s, None, fast_s, None)

        return _leg(
            pairs=len(pairs),
            plan=lambda config: [Case({"workload": w}, w) for w in ("a", "b")],
            measure=measure,
            verify=lambda state, timing: {"instructions": 100},
        )

    def test_median_over_pairs_of_the_summed_ratio(self):
        leg = self._scripted([
            ((2.0, 1.0), (2.0, 1.0)),     # 2x
            ((9.0, 1.0), (11.0, 1.0)),    # 10x
            ((3.0, 1.0), (3.0, 1.0)),     # 3x
        ])
        record, pair_speedups = throughput.measure(leg)
        assert pair_speedups == [2.0, 10.0, 3.0]
        assert record["aggregate"]["speedup"] == 3.0
        assert [row["reference"]["seconds"] for row in record["per_workload"]] == [
            3.0, 3.0
        ]
        assert record["pairs"] == 3 and record["width"] == 4

    def test_one_pair_is_the_summed_ratio(self):
        leg = self._scripted([((3.0, 1.0), (1.0, 1.0))])
        record, _ = throughput.measure(leg)
        assert record["aggregate"]["speedup"] == 2.0
        assert record["aggregate"]["instructions"] == 200

    def test_pairs_must_simulate_the_same_plan(self, capsys):
        counts = iter([100, 100, 100, 101])
        leg = replace(
            self._scripted([((1.0, 1.0), (1.0, 1.0))] * 2),
            verify=lambda state, timing: {"instructions": next(counts)},
        )
        assert throughput.run(leg, no_write=True) == 1
        assert "different plans" in capsys.readouterr().out

    def test_divergence_fails_before_any_number(self, capsys):
        def diverge(state, timing):
            raise AssertionError("trap kinds diverge")

        leg = replace(self._scripted([((5.0, 1.0), (5.0, 1.0))]), verify=diverge)
        assert throughput.run(leg, no_write=True) == 1
        out = capsys.readouterr().out
        assert "trap kinds diverge" in out and "aggregate" not in out


class TestGate:
    @staticmethod
    def _history(tmp_path, monkeypatch, *speedups):
        monkeypatch.setattr(throughput, "REPO_ROOT", tmp_path)
        path = tmp_path / "BENCH_unit_throughput.json"
        path.write_text(json.dumps({"benchmark": "unit_throughput", "history": [
            _record(speedup) for speedup in speedups
        ]}))
        return path

    def test_records_unless_no_write(self, tmp_path, monkeypatch):
        path = self._history(tmp_path, monkeypatch, 2.0)
        leg = TestPairs._scripted([((3.0, 1.0), (3.0, 1.0))])
        assert throughput.run(leg, no_write=True) == 0
        assert len(load_history(path)) == 1
        assert throughput.run(leg) == 0
        assert load_history(path)[-1]["aggregate"]["speedup"] == 3.0

    def test_check_requires_a_baseline(self, tmp_path, monkeypatch, capsys):
        """No committed history (or an empty one): an error before anything
        is measured, not a traceback."""
        monkeypatch.setattr(throughput, "REPO_ROOT", tmp_path)
        leg = TestPairs._scripted([((3.0, 1.0), (3.0, 1.0))])
        assert throughput.run(leg, check=True, no_write=True) == 1
        self._history(tmp_path, monkeypatch)
        assert throughput.run(leg, check=True, no_write=True) == 1
        out = capsys.readouterr().out
        assert out.count("needs a committed history") == 2
        assert "aggregate" not in out

    def test_check_compares_against_the_latest_record(self, tmp_path, monkeypatch):
        # 1.9x would regress against the first record but is within the
        # tolerance of the latest one.
        self._history(tmp_path, monkeypatch, 10.0, 2.0)
        leg = TestPairs._scripted([((1.9, 1.0), (1.9, 1.0))])
        assert throughput.run(leg, check=True, no_write=True) == 0
        slower = TestPairs._scripted([((1.5, 1.0), (1.5, 1.0))])
        assert throughput.run(slower, check=True, no_write=True) == 1

    def test_check_fails_on_regression(self):
        leg = _leg(tolerance=0.20)
        floor = 4.0 * (1.0 - 0.20)
        assert gate(leg, _record(floor - 0.1), _record(4.0)) is not None
        assert gate(leg, _record(floor + 0.1), _record(4.0)) is None

    def test_check_enforces_the_hard_floor(self):
        """Never below the floor, even when the committed record would
        tolerate it."""
        leg = _leg(tolerance=0.20, floor=3.0)
        assert gate(leg, _record(2.9), _record(3.2)) is not None

    def test_check_fails_on_configuration_mismatch(self):
        assert gate(_leg(), _record(4.0), _record(4.0, width=8)) is not None


class TestWorkGate:
    """Work-gated legs: the timed speedup is gated as before, and the work
    ratio must also stay within the tolerance of the committed one."""

    LEG = _leg(tolerance=0.02, floor=3.0)
    COMMITTED = _record(6.0, work=5.0)

    def _gate(self, speedup, work, committed=COMMITTED):
        return gate(self.LEG, _record(speedup, work=work), committed)

    def test_the_timed_tolerance_still_holds(self):
        """Equal work does not excuse a slower fast leg: the timed speedup
        keeps its 2% bound against the committed record."""
        assert self._gate(5.9, 5.0) is None
        assert self._gate(5.8, 5.0) is not None
        assert self._gate(3.1, 5.0) is not None

    def test_more_work_per_injection_fails(self):
        assert self._gate(6.0, 4.95) is None
        assert self._gate(6.0, 4.85) is not None

    def test_the_floor_still_holds(self):
        assert self._gate(2.99, 5.0, _record(3.0, work=5.0)) is not None

    def test_a_record_without_work_ratio_skips_the_comparison(self):
        assert self._gate(6.0, 1.0, _record(6.0)) is None


class TestRtlBlockShares:
    """A workload whose fast core ran nothing (or no cache-array run) in a
    compiled block fails the RTL leg's verification, gate or not."""

    @staticmethod
    def _verify(blocks, cache_array_blocks):
        counter = throughput.FallbackCounter()
        counter.block_instructions = blocks
        counter.groups["cache_array"][1] = cache_array_blocks
        state = (None, None, None, [], 0)
        return throughput._rtl_verify(state, Timing(1.0, [], 1.0, ([], counter)))

    def test_non_zero_shares_pass(self):
        assert self._verify(10, 5)["injections"] == 0

    @pytest.mark.parametrize("blocks, cache_array_blocks", [(0, 0), (10, 0)])
    def test_a_zero_share_fails(self, blocks, cache_array_blocks):
        with pytest.raises(AssertionError, match="compiled block"):
            self._verify(blocks, cache_array_blocks)


class TestSimulatedInstructions:
    def test_counts_are_the_instructions_the_runs_report(self):
        from repro.engine import IssBackend, Leon3RtlBackend
        from repro.workloads import build_program

        program = build_program("intbench")
        for factory in (IssBackend, Leon3RtlBackend):
            backend = factory()
            backend.prepare(program)
            with SimulatedInstructions() as work:
                first = backend.run(max_instructions=400_000)
                second = backend.run(max_instructions=400_000)
            assert work.count == first.instructions + second.instructions
        # Leaving the context restores the engines.
        with SimulatedInstructions() as idle:
            pass
        backend.run(max_instructions=400_000)
        assert idle.count == 0


class TestPerfHistory:
    """``gen_perf_history`` renders every leg's committed history and keeps
    the page's run-manifest section unless a new ``--manifest`` replaces it."""

    @staticmethod
    def _manifest(path, wall_seconds):
        path.write_text(json.dumps({
            "created_at": "2026-01-01T00:00:00+00:00",
            "wall_seconds": wall_seconds,
            "metrics": {"counters": {"store.cache_hits": 1,
                                     "store.cache_misses": 3}},
        }))
        return path

    def test_committed_histories_render_the_committed_page(self):
        page = gen_perf_history.OUTPUT_PATH.read_text()
        assert gen_perf_history.render(None, page) == page

    def test_section_survives_a_render_without_manifest(self, tmp_path):
        first = gen_perf_history.render(
            self._manifest(tmp_path / "first.json", 1.5)
        )
        assert "## Latest run manifest (`first.json`)" in first
        again = gen_perf_history.render(None, first)
        assert again == first
        replaced = gen_perf_history.render(
            self._manifest(tmp_path / "second.json", 2.5), first
        )
        assert "`second.json`" in replaced and "`first.json`" not in replaced
        assert "wall clock 2.50s" in replaced

    def test_no_section_without_one_to_keep(self):
        assert "Latest run manifest" not in gen_perf_history.render(None, "")
