"""Self-tests of the benchmark harness (not of the program under test).

Run from the repository root::

    python -m pytest paperbench/tests -q

The tests drive the harness on a tiny stand-in workload (two small
campaigns) so they finish in seconds.
"""

from __future__ import annotations

import json
import sys
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def tiny_calls(workload, order, store_path):
    """One RTL permanent campaign and one ISS lockstep transient campaign."""
    from repro.rtl.faults import FaultModel

    return [
        workloads.Call("rtl", workloads.run_engine_campaign, {
            "workload": "intbench", "backend": "rtl", "unit_scope": "iu",
            "sample_size": 2, "fault_models": [FaultModel.STUCK_AT_1], "seed": 5,
        }),
        workloads.Call("iss", workloads.run_engine_campaign, {
            "workload": "intbench", "backend": "iss", "unit_scope": "arch.regfile",
            "sample_size": 4, "transient_windows": 2, "lockstep_width": 4, "seed": 5,
        }),
    ]


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "make_calls", tiny_calls)
    monkeypatch.setattr(run, "STATE", tmp_path / "state")
    monkeypatch.setattr(run, "time_setup", lambda workload: 0.25)
    monkeypatch.setattr(run, "set_up", lambda workload: None)
    (tmp_path / "state").mkdir()
    return tmp_path


def bindings():
    """Every object the hooks replace, where the program looks it up."""
    found = {}
    for hook in layers.layer_hooks() + [layers.POOL_EXECUTE, checks.ENGINE_RUN]:
        owner, attr, original = hook.resolve()
        found[hook.target] = original
        if not isinstance(owner, type):
            for name, module in sys.modules.items():
                if name.startswith("repro"):
                    for key, value in vars(module).items():
                        if value is original:
                            found[f"{name}.{key}"] = value
    return found


def test_traced_round_restores_the_original_functions(tiny):
    before = bindings()
    tracer = layers.Tracer()
    run.run_round("paper_rtl", 1, 0, checks.Capture(), tracer)
    assert tracer.calls()["leon3.fast"] > 0, "the traced round recorded no layer"
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    # An untraced round in the same process records nothing more.
    spans = len(tracer.spans)
    run.run_round("paper_rtl", 1, 1, checks.Capture())
    assert len(tracer.spans) == spans


def test_layer_self_times_plus_unaccounted_equal_wall(tiny):
    tracer = layers.Tracer()
    run.run_round("paper_rtl", 1, 0, checks.Capture(), tracer)
    wall = sum(end - start for name, start, end, parent, _ in tracer.spans
               if parent is None)
    own = tracer.layer_self_times()
    assert own[layers.ROOT] >= 0
    assert sum(own.values()) == pytest.approx(wall, rel=1e-9)
    assert {"leon3.fast", "lockstep.pack", "engine.golden"} <= own.keys()


def test_corrupted_reference_digest_fails_the_run(tiny, capsys):
    args = Namespace(workload="paper_rtl", seed=1, seconds=0, trace=0)
    committed = tiny / "digests.json"
    assert run.benchmark(args, committed) == 0
    recorded = run.STATE / "digests-paper_rtl.json"
    book = json.loads(recorded.read_text())
    key = sorted(book["campaigns"])[0]
    book["campaigns"][key]["digest"] = "0" * 64
    committed.write_text(json.dumps(book))
    recorded.unlink()
    capsys.readouterr()

    assert run.benchmark(args, committed) != 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    # One round: the campaign ran in the cold and in the warm pass.
    assert result["failed"] == 2 * book["campaigns"][key]["jobs"] > 0


def canonical(calls):
    """Calls with order removed: label plus arguments, workload tuples sorted."""
    return sorted(
        (call.label, call.fn.__name__, sorted(
            (key, tuple(sorted(value)) if key == "workloads" else repr(value))
            for key, value in call.kwargs.items()
        ))
        for call in calls
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_only_the_call_order(workload):
    first = run.make_calls(workload, "1/0", "store.sqlite")
    other = run.make_calls(workload, "2/0", "store.sqlite")
    assert canonical(first) == canonical(other)
    assert [c.label for c in first] != [c.label for c in other] or any(
        a.kwargs.get("workloads") != b.kwargs.get("workloads")
        for a, b in zip(first, other)
    )


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
