"""E16 — extension: concurrent sessions under admission control.

Section 2 argues the proxy-based approach "scal[es] properly with the
number of clients".  This bench admits identical clients one after another
onto the Figure 6 infrastructure through a :class:`~repro.sim.world.SimWorld`,
each new session planned against the bandwidth the previous ones left (the
world's reservation ledger) by the same :meth:`SimWorld.admit` every
simulated arrival goes through, and charts the satisfaction of the k-th
admission until the infrastructure saturates — then tears one session down
and shows capacity returning.
"""

from __future__ import annotations

from repro.sim.world import SimWorld
from repro.workloads.paper import figure6_scenario

from conftest import format_table

FLOOR = 0.10


def fresh_world():
    scenario = figure6_scenario()
    return SimWorld(scenario), scenario.request()


def test_admission_until_saturation(benchmark, save_artifact):
    def one_admission_cycle():
        world, request = fresh_world()
        admission = world.admit(request, FLOOR)
        world.release(admission.leases)
        return admission.plan

    benchmark(one_admission_cycle)

    world, request = fresh_world()
    rows = []
    admitted = []
    k = 0
    while True:
        k += 1
        admission = world.admit(request, FLOOR)
        if not admission.admitted:
            rows.append((k, "REJECTED", "-", "-"))
            break
        admitted.append(admission)
        result = admission.plan.result
        rows.append(
            (
                k,
                ",".join(result.path),
                f"{result.delivered_frame_rate:.2f}",
                f"{result.satisfaction:.3f}",
            )
        )
        if k > 40:  # safety net; the infrastructure saturates well before
            break

    # Tear down the first (best) session and admit once more.
    world.release(admitted[0].leases)
    revived = world.admit(request, FLOOR)
    if revived.admitted:
        revived_result = revived.plan.result
        rows.append(
            (
                "after teardown",
                ",".join(revived_result.path),
                f"{revived_result.delivered_frame_rate:.2f}",
                f"{revived_result.satisfaction:.3f}",
            )
        )
    else:
        rows.append(("after teardown", "REJECTED", "-", "-"))

    save_artifact(
        "admission.txt",
        "E16 — successive admissions on the Figure 6 infrastructure\n"
        "(identical clients; floor S >= 0.10)\n\n"
        + format_table(["admission", "chain", "fps", "satisfaction"], rows),
    )

    satisfactions = [admission.plan.result.satisfaction for admission in admitted]
    # Shape: capacity is finite, early sessions fare best, teardown gives
    # capacity back.
    assert 2 <= len(admitted) <= 40
    assert satisfactions == sorted(satisfactions, reverse=True)
    assert revived.admitted
    assert revived_result.satisfaction >= satisfactions[-1] - 1e-9
