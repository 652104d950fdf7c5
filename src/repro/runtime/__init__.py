"""Runtime: end-to-end adaptation sessions over the simulated substrate.

The paper's framework ends where the selected chain starts streaming; this
package closes the loop so examples and benches can observe actual
delivery:

- :class:`~repro.runtime.session.PlanRequest` — one session's inputs:
  the user, content, context and device profiles plus the sender and
  receiver nodes (and an optional peer);
- :class:`~repro.runtime.session.AdaptationSession` — wires one request
  through graph construction → pruning → selection and hands back a
  plan;
- :class:`~repro.runtime.pipeline.DeliveryPipeline` — streams the selected
  chain over the topology (per-hop transmission and processing latency,
  bandwidth fluctuation, loss), producing a
  :class:`~repro.runtime.metrics.DeliveryReport`;
- :class:`~repro.runtime.events.EventLog` — ordered, timestamped record of
  what happened, for debugging and assertions.
"""

from repro.runtime.events import Event, EventLog
from repro.runtime.metrics import DeliveryReport
from repro.runtime.pipeline import DeliveryPipeline
from repro.runtime.session import AdaptationSession, PlanRequest, SessionPlan

__all__ = [
    "Event",
    "EventLog",
    "DeliveryReport",
    "DeliveryPipeline",
    "PlanRequest",
    "AdaptationSession",
    "SessionPlan",
]
