"""One request, every in-process answering surface, one answer.

A scenario's :meth:`~repro.workloads.scenario.Scenario.request` is fed to
each surface that plans in process: the bare selector
(:meth:`Scenario.select`), a runtime session, the batch planner
(from scratch, then through its cache cold and warm) and a simulation
world on an empty ledger.  Planning is deterministic in the request and
the infrastructure, so every surface must give the same answer, compared
with exact float equality.  None of these scenarios carries a policy.
"""

from __future__ import annotations

import pytest

from repro.planner import BatchPlanner
from repro.sim.world import SimWorld
from repro.workloads.intro import html_to_wml_scenario, jpeg_to_gif_scenario
from repro.workloads.paper import figure3_scenario, figure6_scenario
from repro.workloads.synthetic import SyntheticConfig, generate_scenario

SCENARIOS = {
    "figure6": figure6_scenario,
    "figure6-without-t7": lambda: figure6_scenario(include_t7=False),
    "figure3": figure3_scenario,
    "jpeg-to-gif": jpeg_to_gif_scenario,
    "jpeg-to-gif-monolith": lambda: jpeg_to_gif_scenario(include_monolith=True),
    "html-to-wml": html_to_wml_scenario,
    **{
        f"synthetic-{seed}": (
            lambda seed=seed: generate_scenario(SyntheticConfig(seed=seed))
        )
        for seed in range(8)
    },
}


def _answer(result):
    return (
        result.success,
        result.path,
        result.formats,
        result.configuration,
        result.satisfaction,
        result.accumulated_cost,
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_surface_gives_the_same_answer(name):
    scenario = SCENARIOS[name]()
    assert scenario.policy is None
    request = scenario.request()
    expected = _answer(scenario.select())

    planner = BatchPlanner.for_scenario(scenario)
    answers = {
        "session": scenario.session().plan().result,
        "plan_uncached": planner.plan_uncached(request).result,
        "plan-cold": planner.plan(request).result,
        "plan-warm": planner.plan(request).result,
    }
    assert planner.cache.stats.hits == 1
    for surface, result in answers.items():
        assert _answer(result) == expected, surface

    # Every scenario here is feasible; SimWorld answers infeasibility None.
    assert expected[0]
    world_plan = SimWorld(scenario).plan(request)
    assert world_plan is not None
    assert _answer(world_plan.result) == expected
