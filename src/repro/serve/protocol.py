"""The gateway's JSON request/response vocabulary.

A plan request is a JSON object carrying at minimum a client id; any of
the four request-side profiles and the endpoints may be supplied inline
(decoded via :mod:`repro.profiles.serialization`) and default to the
serving scenario's own.  Decoding is strict: anything malformed raises
:class:`~repro.errors.ValidationError`, which the gateway maps to a 400 —
a planner worker must never see an undecoded document.

Response payloads all carry a ``status`` discriminator (``ok``,
``infeasible``, ``shed``, ``rate_limited``, ``timeout``, ``invalid``,
``unplannable``, ``draining``, ``error``) so clients can switch on one
field regardless of HTTP status code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.errors import ValidationError
from repro.formats.registry import FormatRegistry
from repro.profiles.content import ContentProfile
from repro.profiles.context import ContextProfile
from repro.profiles.device import DeviceProfile
from repro.profiles.serialization import (
    _require,
    group_receivers_from_list,
    profile_from_dict,
)
from repro.profiles.user import UserProfile
from repro.runtime.session import SessionPlan

__all__ = [
    "GroupPlanEnvelope",
    "PlanRequestEnvelope",
    "decode_group_plan_request",
    "decode_outcome_report",
    "decode_plan_request",
    "decode_reload_scenario",
    "degraded_response_payload",
    "group_response_payload",
    "plan_response_payload",
    "policy_skip_payload",
    "zero_hop_payload",
    "error_payload",
    "encode_payload",
]


@dataclass(frozen=True)
class PlanRequestEnvelope:
    """One decoded plan request, before scenario defaults are applied."""

    client: str
    deadline_ms: Optional[float]
    device: Optional[DeviceProfile]
    user: Optional[UserProfile]
    content: Optional[ContentProfile]
    context: Optional[ContextProfile]
    sender: Optional[str]
    receiver: Optional[str]


def _decode_profile(
    data: Any,
    expected_tag: str,
    registry: FormatRegistry,
) -> Any:
    if not isinstance(data, Mapping):
        raise ValidationError(
            f"{expected_tag!r} field must be a profile object, "
            f"got {type(data).__name__}"
        )
    if data.get("profile") != expected_tag:
        raise ValidationError(
            f"{expected_tag!r} field carries profile tag "
            f"{data.get('profile')!r}"
        )
    return profile_from_dict(data, registry)


def decode_plan_request(
    body: bytes,
    registry: FormatRegistry,
    max_deadline_ms: float,
) -> PlanRequestEnvelope:
    """Parse and validate one ``POST /plan`` body."""
    return _plan_envelope(_json_object(body), registry, max_deadline_ms)


def _json_object(body: bytes) -> Mapping:
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"request body is not valid JSON: {exc}") from None
    if not isinstance(data, Mapping):
        raise ValidationError("request body must be a JSON object")
    return data


def _plan_envelope(
    data: Mapping, registry: FormatRegistry, max_deadline_ms: float
) -> PlanRequestEnvelope:
    """The envelope fields ``/plan`` and ``/plan-group`` share."""
    client = data.get("client", "anonymous")
    if not isinstance(client, str) or not client:
        raise ValidationError("'client' must be a non-empty string")

    deadline_ms = data.get("deadline_ms")
    if deadline_ms is not None:
        if not isinstance(deadline_ms, (int, float)) or isinstance(
            deadline_ms, bool
        ):
            raise ValidationError("'deadline_ms' must be a number")
        if not 0 < deadline_ms <= max_deadline_ms:
            raise ValidationError(
                f"'deadline_ms' must lie in (0, {max_deadline_ms:g}]"
            )
        deadline_ms = float(deadline_ms)

    def profile_or_none(field: str) -> Any:
        value = data.get(field)
        if value is None:
            return None
        return _decode_profile(value, field, registry)

    for endpoint in ("sender", "receiver"):
        value = data.get(endpoint)
        if value is not None and not isinstance(value, str):
            raise ValidationError(f"{endpoint!r} must be a node id string")

    return PlanRequestEnvelope(
        client=client,
        deadline_ms=deadline_ms,
        device=profile_or_none("device"),
        user=profile_or_none("user"),
        content=profile_or_none("content"),
        context=profile_or_none("context"),
        sender=data.get("sender"),
        receiver=data.get("receiver"),
    )


@dataclass(frozen=True)
class GroupPlanEnvelope:
    """One decoded ``POST /plan-group`` body, before scenario defaults."""

    client: str
    deadline_ms: Optional[float]
    receivers: tuple
    user: Optional[UserProfile]
    content: Optional[ContentProfile]
    context: Optional[ContextProfile]
    sender: Optional[str]
    receiver: Optional[str]


def decode_group_plan_request(
    body: bytes,
    registry: FormatRegistry,
    max_deadline_ms: float,
) -> GroupPlanEnvelope:
    """Parse and validate one ``POST /plan-group`` body.

    The shape is the plan-request envelope minus the single ``device``
    field plus a mandatory ``receivers`` array of receiver classes
    (decoded — with duplicate rejection — by
    :func:`repro.profiles.serialization.group_receivers_from_list`).
    """
    # The common fields share the /plan decoder so both endpoints reject
    # identical malformations with identical messages; /plan tolerates a
    # missing body ({} plans the scenario defaults), so the only extra
    # strictness here is the receivers array.
    data = _json_object(body)
    base = _plan_envelope(data, registry, max_deadline_ms)
    if base.device is not None:
        raise ValidationError(
            "group requests carry receiver devices in 'receivers', "
            "not a top-level 'device'"
        )
    receivers = group_receivers_from_list(_require(data, "receivers", "group request"))
    return GroupPlanEnvelope(
        client=base.client,
        deadline_ms=base.deadline_ms,
        receivers=receivers,
        user=base.user,
        content=base.content,
        context=base.context,
        sender=base.sender,
        receiver=base.receiver,
    )


def decode_reload_scenario(body: bytes):
    """Parse and build the scenario named by one ``/admin/reload`` body.

    Accepts either a full ``repro-scenario`` document or a
    ``{"synthetic": {...}}`` generation spec; anything else raises
    :class:`~repro.errors.ValidationError`.  Synchronous and potentially
    expensive (scenario construction) — callers on an event loop run it
    in an executor.  Shared by the single-process gateway's reload
    endpoint and the cluster supervisor's fan-out validation, so both
    reject exactly the same bodies with exactly the same messages.
    """
    # Imported here, not at module top: repro.workloads pulls in the full
    # planning stack, which the lightweight wire-codec users (loadgen,
    # tests) do not need.
    from repro.workloads.io import scenario_from_dict
    from repro.workloads.synthetic import SyntheticConfig, generate_scenario

    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"reload body is not valid JSON: {exc}") from None
    if not isinstance(data, Mapping):
        raise ValidationError("reload body must be a JSON object")
    if data.get("document") == "repro-scenario":
        return scenario_from_dict(data)
    if data.get("document") == "repro-policy":
        from repro.policy.serialization import policy_from_dict

        return policy_from_dict(data)
    synthetic = data.get("synthetic")
    if isinstance(synthetic, Mapping):
        allowed = {"seed", "n_services", "n_formats", "n_nodes"}
        unknown = set(synthetic) - allowed
        if unknown:
            raise ValidationError(
                f"unknown synthetic scenario keys: {sorted(unknown)}"
            )
        coerced = {}
        for key, value in synthetic.items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(
                    f"synthetic scenario key {key!r} must be an integer, "
                    f"got {value!r}"
                )
            coerced[key] = value
        return generate_scenario(SyntheticConfig(**coerced))
    raise ValidationError(
        "reload body must be a repro-scenario document, a repro-policy "
        "document, or {'synthetic': {...}}"
    )


def decode_outcome_report(body: bytes) -> "tuple[str, list]":
    """Parse one ``POST /report`` body into ``(client, outcome samples)``.

    The wire shape is ``{"client": str, "outcomes": [{"service": str,
    "success": bool}, ...]}``; duplicate services are legal (each entry
    is one sample).  Strict like every other decoder here: anything
    malformed raises :class:`~repro.errors.ValidationError` -> 400.
    """
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"report body is not valid JSON: {exc}") from None
    if not isinstance(data, Mapping):
        raise ValidationError("report body must be a JSON object")
    client = data.get("client", "anonymous")
    if not isinstance(client, str) or not client:
        raise ValidationError("'client' must be a non-empty string")
    outcomes = data.get("outcomes")
    if not isinstance(outcomes, list) or not outcomes:
        raise ValidationError("'outcomes' must be a non-empty array")
    samples = []
    for index, entry in enumerate(outcomes):
        if not isinstance(entry, Mapping):
            raise ValidationError(
                f"outcomes[{index}] must be an object, "
                f"got {type(entry).__name__}"
            )
        service = entry.get("service")
        if not isinstance(service, str) or not service:
            raise ValidationError(
                f"outcomes[{index}].service must be a non-empty string"
            )
        success = entry.get("success")
        if not isinstance(success, bool):
            raise ValidationError(
                f"outcomes[{index}].success must be a boolean"
            )
        samples.append((service, success))
    return client, samples


def zero_hop_payload(
    *,
    status: str,
    degraded: bool,
    formats: "list[str]",
    satisfaction: float,
    delivered_frame_rate: Optional[float],
    reason: str,
    generation: int,
    cache_hit: bool,
    queue_ms: float,
    plan_ms: float,
    **extra: Any,
) -> Dict[str, Any]:
    """The 200 body for any zero-hop (sender -> receiver) answer.

    One construction site for every response that ships a source variant
    without an adaptation chain — degraded-mode passthroughs and policy
    fast-path skips — so their wire shapes cannot drift apart.
    ``success`` is always true: the client gets a deliverable plan.
    """
    payload: Dict[str, Any] = {
        "status": status,
        "success": True,
        "degraded": degraded,
        "path": ["sender", "receiver"],
        "formats": list(formats),
        "satisfaction": round(float(satisfaction), 6),
        "cost": 0.0,
        "delivered_frame_rate": (
            round(delivered_frame_rate, 6)
            if delivered_frame_rate is not None
            else None
        ),
        "reason": reason,
        "generation": generation,
        "cache_hit": cache_hit,
        "queue_ms": round(queue_ms, 3),
        "plan_ms": round(plan_ms, 3),
    }
    payload.update(extra)
    return payload


def degraded_response_payload(
    *,
    reason: str,
    generation: int,
    queue_ms: float,
    plan_ms: float,
    quarantined: "list[str]",
) -> Dict[str, Any]:
    """The 200 body for a degraded-mode (zero-hop passthrough) answer.

    The source variant ships unadapted: the path carries only the
    endpoints, no formats, zero declared satisfaction.  ``success`` is
    true — the client gets *something* within its deadline — and
    ``degraded`` marks the quality downgrade explicitly.
    """
    return zero_hop_payload(
        status="degraded",
        degraded=True,
        formats=[],
        satisfaction=0.0,
        delivered_frame_rate=None,
        reason=reason,
        generation=generation,
        cache_hit=False,
        queue_ms=queue_ms,
        plan_ms=plan_ms,
        quarantined=quarantined,
    )


def policy_skip_payload(
    plan: Any,
    *,
    cache_hit: bool,
    generation: int,
    policy_generation: int,
    queue_ms: float,
    plan_ms: float,
) -> Dict[str, Any]:
    """The 200 body for a policy fast-path (zero-hop skip) answer.

    Unlike a degraded passthrough this is a *quality* answer: the policy
    engine proved the declared satisfaction is within the firing rule's
    tolerance of the selector optimum, and the payload names the rule and
    carries the policy trace.
    """
    result = plan.result
    return zero_hop_payload(
        status="policy_skip",
        degraded=False,
        formats=list(result.formats),
        satisfaction=result.satisfaction,
        delivered_frame_rate=result.delivered_frame_rate,
        reason=f"policy rule {plan.rule_id!r} matched",
        generation=generation,
        cache_hit=cache_hit,
        queue_ms=queue_ms,
        plan_ms=plan_ms,
        rule=plan.rule_id,
        policy_trace=list(plan.trace),
        policy_generation=policy_generation,
    )


def plan_response_payload(
    plan: SessionPlan,
    *,
    cache_hit: bool,
    generation: int,
    queue_ms: float,
    plan_ms: float,
) -> Dict[str, Any]:
    """The 200 body for one completed planning request."""
    result = plan.result
    payload: Dict[str, Any] = {
        "status": "ok" if plan.success else "infeasible",
        "success": plan.success,
        "degraded": False,
        "generation": generation,
        "cache_hit": cache_hit,
        "queue_ms": round(queue_ms, 3),
        "plan_ms": round(plan_ms, 3),
    }
    if plan.success:
        frame_rate = result.delivered_frame_rate
        payload.update(
            path=list(result.path),
            formats=list(result.formats),
            satisfaction=round(result.satisfaction, 6),
            cost=round(result.accumulated_cost, 6),
            delivered_frame_rate=(
                round(frame_rate, 6) if frame_rate is not None else None
            ),
        )
    else:
        payload["reason"] = result.failure_reason
    return payload


def group_response_payload(
    plan: Any,
    *,
    cache_hit: bool,
    generation: int,
    queue_ms: float,
    plan_ms: float,
) -> Dict[str, Any]:
    """The 200 body for one completed group-planning request.

    ``status`` is ``ok`` when at least one receiver class got its
    standalone-optimal branch and ``infeasible`` when none did;
    per-class fallbacks are always listed so a partially served group is
    never mistaken for a fully served one.
    """
    tree = plan.tree
    payload: Dict[str, Any] = {
        "status": "ok" if plan.success else "infeasible",
        "success": plan.success,
        "degraded": False,
        "generation": generation,
        "cache_hit": cache_hit,
        "queue_ms": round(queue_ms, 3),
        "plan_ms": round(plan_ms, 3),
        "classes": plan.class_count,
        "sessions": plan.total_sessions,
        "branches": [
            {
                "class_id": branch.class_id,
                "sessions": branch.sessions,
                "path": list(branch.result.path),
                "formats": list(branch.result.formats),
                "satisfaction": round(branch.result.satisfaction, 6),
            }
            for branch in tree.branches
        ],
        "fallbacks": [
            {"class_id": class_id, "reason": reason}
            for class_id, reason in tree.fallbacks
        ],
        "tree": {
            "edges": len(tree.edges),
            "shared_edges": tree.shared_edge_count,
            "leaves": tree.branch_count,
            "digest": tree.digest(),
        },
        "bandwidth": {
            "tree_bps": round(tree.tree_bandwidth_bps(), 3),
            "per_session_bps": round(tree.per_session_bandwidth_bps(), 3),
            "saved_bps": round(tree.saved_bandwidth_bps(), 3),
        },
    }
    return payload


def error_payload(status: str, detail: str = "", **extra: Any) -> Dict[str, Any]:
    """A non-200 body: ``status`` discriminator plus optional detail."""
    payload: Dict[str, Any] = {"status": status}
    if detail:
        payload["detail"] = detail
    payload.update(extra)
    return payload


def encode_payload(payload: Mapping[str, Any]) -> bytes:
    """Canonical (sorted-key, compact) JSON bytes for any payload."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
