"""The benchmark's own tests: reduced-size passes of every workload.

    PYTHONPATH=src python3 -m pytest perfbench -q

Each pass has no time budget, so it stops at a fixed number of answers
and values that depend only on the seed must repeat exactly across two
runs.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from perfbench import run as bench
from perfbench.common import Sizing, windowed_median
from perfbench.layers import LAYER_MAP, PER_LAYER_UNITS, _covered_ns
from perfbench.tracing import Tracer

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: Answers per reduced pass.
PASS_OPS = {"serve-hot": 40, "sim-failover": 1}


def _sizing(workload: str) -> Sizing:
    ops = PASS_OPS[workload]
    return Sizing(seconds=0, min_ops=ops, quality_ops=ops, setups=1)


def _run(workload: str, trace: bool) -> dict:
    return bench.run(workload, 3, _sizing(workload), trace)


def test_spec_matches_the_benchmark():
    gated = [w["name"] for w in SPEC["workloads"]]
    assert gated == list(bench.WORKLOADS)
    assert {where for _moves, where in LAYER_MAP.values()} <= set(gated) | {
        "every workload"
    }
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER_UNITS
    assert set(PER_LAYER_UNITS) == set(LAYER_MAP)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_reduced_pass_is_complete_checked_and_repeatable(workload):
    first = _run(workload, False)
    second = _run(workload, False)
    for outcome in (first, second):
        result = outcome["result"]
        assert result["correct"] is True
        assert result["attempted"] >= PASS_OPS[workload]
        assert {
            name: metric["unit"] for name, metric in result["metrics"].items()
        } == bench.E2E_UNITS
        assert all(m["value"] > 0 for m in result["metrics"].values())
    deterministic = ("mean_satisfaction", "success_frac")
    assert [first["result"]["metrics"][n] for n in deterministic] == [
        second["result"]["metrics"][n] for n in deterministic
    ]
    assert first["result"]["failed"] == second["result"]["failed"] == 0
    if workload == "sim-failover":
        digests = [
            [line for line in outcome["lines"] if "digest" in line]
            for outcome in (first, second)
        ]
        assert digests[0] and digests[0] == digests[1]


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_pass_reports_every_layer(workload):
    first = _run(workload, True)["result"]["metrics"]
    second = _run(workload, True)["result"]["metrics"]
    assert {name: metric["unit"] for name, metric in first.items()} == PER_LAYER_UNITS
    for name in ("core.graph.builds", "planner.cache.hit_ratio"):
        assert first[name] == second[name]
    assert first["trace.overhead_ratio"]["value"] > 0
    serving = first["serve.gateway.self_ms_per_op"]["value"]
    simulating = first["sim.engine.events_per_s"]["value"]
    if workload == "serve-hot":
        assert serving > 0 and simulating == 0
        assert first["core.graph.builds"]["value"] == 0
        assert first["planner.cache.hit_ratio"]["value"] == 1.0
        assert 0 < first["policy.engine.skip_ratio"]["value"] < 1
    else:
        assert serving == 0 and simulating > 0
        assert first["planner.rebuilds"]["value"] > 0


def test_tracing_leaves_no_wrapper_behind():
    from repro.planner.batch import BatchPlanner
    from repro.serve import gateway

    before = (vars(BatchPlanner)["plan_with_policy_info"], gateway.read_request)
    _run("sim-failover", True)
    assert (vars(BatchPlanner)["plan_with_policy_info"], gateway.read_request) == before


def _corrupt_reference(monkeypatch):
    from repro.planner.batch import BatchPlanner

    original = BatchPlanner.plan_uncached

    def corrupted(self, request):
        plan = original(self, request)
        result = dataclasses.replace(
            plan.result, satisfaction=plan.result.satisfaction + 0.25
        )
        return dataclasses.replace(plan, result=result)

    monkeypatch.setattr(BatchPlanner, "plan_uncached", corrupted)


def test_corrupted_reference_fails_the_command(monkeypatch, capsys):
    _corrupt_reference(monkeypatch)
    argv = ["--workload", "serve-hot", "--seed", "3", "--seconds", "0"]
    assert bench.main(argv, sizing=_sizing("serve-hot")) == 1
    captured = capsys.readouterr()
    assert "check failed" in captured.err
    assert '"correct"' not in captured.out


def test_unrepeatable_simulation_fails_the_command(monkeypatch, capsys):
    from repro.sim.engine import Simulator

    digests = iter(range(1_000_000))
    monkeypatch.setattr(Simulator, "trace_digest", lambda self: str(next(digests)))
    argv = ["--workload", "sim-failover", "--seed", "3", "--seconds", "0"]
    assert bench.main(argv, sizing=_sizing("sim-failover")) == 1
    assert "trace digest" in capsys.readouterr().err


def test_command_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "serve-hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_busy_time_excludes_suspension():
    tracer = Tracer()

    async def mostly_waiting():
        await asyncio.sleep(0.05)
        return 7

    wrapped = tracer.coroutine(mostly_waiting, "wait", busy=True)
    assert asyncio.run(wrapped()) == 7
    (span,) = tracer.spans
    assert span[2] - span[1] >= 50_000_000
    assert span[3] < 20_000_000


def test_covered_time_is_a_union_clipped_to_the_parent():
    assert _covered_ns((0, 100), [(10, 30), (20, 40), (90, 150), (-5, 5)]) == 45
    assert _covered_ns((0, 100), []) == 0


def test_windowed_median_weighs_each_window_by_its_length():
    # Two fast windows and one slow one: a pooled median would read the
    # fast value, the windowed median sits a third of the way to the slow.
    values = [1.0, 1.0, 1.0, 1.0, 4.0, 4.0, 2.0]
    assert windowed_median(values, 2) == 2.0
    assert windowed_median([3.0, 1.0, 2.0], 5) == 2.0
