"""What held and cached plans keep alive.

A plan is the selector's answer plus the service descriptors along its
path; the adaptation graph it was selected on is scaffolding for one run.
These tests pin that nothing which holds plans — a finished simulation
run, a batch planner's cache — keeps a graph alive, and that importing
the single-process gateway does not drag in the cluster, the load
generator or the simulator.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
from pathlib import Path

from repro.core.graph import AdaptationGraph
from repro.planner import BatchPlanner, synthetic_requests
from repro.sim.runner import SimulationRun
from repro.sim.scenarios import build_scenario
from repro.workloads.synthetic import SyntheticConfig, generate_scenario

SRC = Path(__file__).resolve().parents[1] / "src"


def _live_graph_ids() -> set:
    gc.collect()
    return {id(obj) for obj in gc.get_objects() if isinstance(obj, AdaptationGraph)}


def test_executed_simulation_run_pins_no_graph():
    before = _live_graph_ids()
    run = SimulationRun(build_scenario("failover-storm", seed=0, sessions=20))
    report = run.execute()
    assert report.admitted > 0
    assert _live_graph_ids() - before == set()
    # The run (its world, plan cache and finished sessions) is still held.
    assert run is not None


def test_batch_planner_caches_plans_without_graphs():
    scenario = generate_scenario(SyntheticConfig(seed=3, n_services=10))
    distinct = 6
    requests = synthetic_requests(scenario, 3 * distinct, distinct)
    before = _live_graph_ids()
    planner = BatchPlanner.for_scenario(scenario, max_workers=1)
    plans = planner.plan_batch(requests)
    assert any(plan.success for plan in plans)
    assert planner.cache.stats.entries == distinct
    assert _live_graph_ids() - before == set()
    # Chains are still buildable from what a cached plan keeps.
    for plan in plans:
        if plan.success:
            assert plan.chain().service_ids() == list(plan.result.path)


def test_gateway_import_leaves_cluster_loadgen_and_simulator_unloaded():
    probe = (
        "import sys\n"
        "import repro.serve.gateway\n"
        "heavy = ('repro.serve.cluster', 'repro.serve.loadgen',"
        " 'multiprocessing', 'repro.sim')\n"
        "print('\\n'.join(sorted(m for m in sys.modules"
        " if m in heavy or m.startswith(tuple(h + '.' for h in heavy)))))\n"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert loaded == []
