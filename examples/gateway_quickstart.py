#!/usr/bin/env python3
"""Gateway quickstart: boot the planning daemon and fire traffic at it.

The paper's architecture puts the composition planner inside an always-on
intermediary; this example runs that daemon for real.  It starts a
:class:`~repro.serve.gateway.PlanningGateway` on an ephemeral port, sends
one hand-rolled plan request to show the wire format, fires a seeded
open-loop Poisson burst through the load generator, hot-swaps the serving
scenario without dropping the daemon, and finally drains — printing the
same metrics document the ``/metrics`` endpoint serves.

Everything is in-process and stdlib-only; the HTTP on the wire is real.

Run:
    python examples/gateway_quickstart.py
"""

import asyncio
import json

from repro.serve.gateway import GatewayConfig, PlanningGateway
from repro.serve.http11 import read_response, render_request
from repro.serve.loadgen import LoadgenConfig, run_loadgen
from repro.serve.protocol import encode_payload
from repro.workloads.synthetic import SyntheticConfig, generate_scenario


async def one_request(port: int, payload: dict) -> dict:
    """A minimal hand-rolled client: one POST /plan round-trip."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        render_request("POST", "/plan", encode_payload(payload),
                       keep_alive=False)
    )
    await writer.drain()
    response = await read_response(reader)
    writer.close()
    await writer.wait_closed()
    return json.loads(response.body)


async def main() -> None:
    scenario = generate_scenario(
        SyntheticConfig(seed=7, n_services=12, n_formats=8, n_nodes=8)
    )
    gateway = PlanningGateway(scenario, GatewayConfig(port=0, workers=2))
    await gateway.start()
    print(f"gateway up on 127.0.0.1:{gateway.port} "
          f"(scenario {scenario.name!r}, generation {gateway.generation})\n")

    # --- one explicit request, to show the wire contract ---------------
    answer = await one_request(gateway.port, {"client": "quickstart",
                                              "deadline_ms": 1000})
    print("single plan response:")
    print(f"  status:        {answer['status']}")
    print(f"  path:          {','.join(answer['path'])}")
    print(f"  satisfaction:  {answer['satisfaction']:.4f}")
    print(f"  cache_hit:     {answer['cache_hit']}\n")

    # --- a seeded open-loop burst through the load generator -----------
    report = await run_loadgen(
        scenario,
        LoadgenConfig(port=gateway.port, requests=80, rate_per_s=400.0,
                      seed=3, distinct=8),
    )
    print("loadgen burst:")
    print(report.summary())
    print()

    # --- hot catalog swap: no restart, generation bumps -----------------
    replacement = generate_scenario(
        SyntheticConfig(seed=21, n_services=8, n_formats=6, n_nodes=5)
    )
    swap = gateway.swap_scenario(replacement)
    after = await one_request(gateway.port, {"client": "quickstart",
                                             "deadline_ms": 1000})
    print(f"hot swap installed {swap['scenario']!r}: generation "
          f"{swap['generation']}, {swap['invalidated']} cached plans "
          f"invalidated")
    print(f"next plan served from generation {after['generation']} "
          f"(cache_hit={after['cache_hit']})\n")

    # --- graceful drain --------------------------------------------------
    final = await gateway.drain()
    counters = final["metrics"]["counters"]
    print("drained cleanly; final counters:")
    print(f"  received {counters['received']}, planned {counters['planned']}, "
          f"shed {counters['shed_queue'] + counters['shed_rate']}, "
          f"reloads {counters['reloads']}")


if __name__ == "__main__":
    asyncio.run(main())
