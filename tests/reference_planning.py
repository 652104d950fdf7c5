"""One-step policy-aware planning, kept as the equivalence oracle.

Before :meth:`~repro.planner.batch.BatchPlanner.plan_with_policy_info`
was split into a probe (policy pass, fingerprint, cache probe) and the
selector work the probe leaves, it ran every step in one call on one
thread.  :func:`reference_plan_with_policy_info` keeps that call verbatim
over a planner's internals; the planner-split tests assert that the split
returns the same ``(plan, cache_hit, decision)`` and leaves the same cache
and policy counters.
"""

from __future__ import annotations

from typing import Optional

from repro.core.graph import CatalogView
from repro.planner.batch import BatchPlanner, PlanAnswer, PlanRequest

__all__ = ["reference_plan_with_policy_info"]


def _selector_plan(
    planner: BatchPlanner, request: PlanRequest, view: Optional[CatalogView]
):
    fingerprint = planner.fingerprint(request, view)
    hit = fingerprint in planner.cache
    plan = planner.cache.get_or_compute(
        fingerprint,
        lambda: planner._plan_fresh(request, planner.optimize_memo, view),
    )
    return plan, hit


def reference_plan_with_policy_info(
    planner: BatchPlanner,
    request: PlanRequest,
    view: Optional[CatalogView] = None,
) -> PlanAnswer:
    engine = planner.policy_engine
    if engine is not None:
        decision = engine.evaluate(request)
        if decision.kind == "deny":
            decision.raise_if_denied()
        elif decision.kind == "skip":
            return decision.plan, decision.cached, decision
        elif decision.kind == "force_tier":
            plan, hit = _selector_plan(
                planner, request, planner._tier_view(decision.tier, view)
            )
            return plan, hit, decision
    plan, hit = _selector_plan(planner, request, view)
    return plan, hit, None
