"""Command-line interface.

A small operational surface over the library::

    python -m repro.cli table1                 # regenerate the paper's Table 1
    python -m repro.cli figure6 [--without-t7] # the worked example's result
    python -m repro.cli synthetic --seed 7 --services 30 [--deliver 10]
    python -m repro.cli analyze figure6        # graph analytics
    python -m repro.cli catalog --seed 7       # dump a catalog as WSDL XML
    python -m repro.cli plan-batch --sessions 1000 --distinct 32 --compare
    python -m repro.cli plan-group --sessions 1000 --classes 32 --compare
    python -m repro.cli simulate --scenario failover-storm --seed 3
    python -m repro.cli serve --port 8077 --seed 7
    python -m repro.cli serve --port 8077 --workers 4   # process cluster
    python -m repro.cli loadgen --port 8077 --requests 500 --rate 200
    python -m repro.cli loadgen --port 8077 --shard-affinity --admin-port 8078

(Also installed as the ``repro`` console script.)

Operational failures — a missing or malformed scenario file, an
unreachable gateway — print a one-line ``error:`` message and exit
nonzero; tracebacks are reserved for bugs.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.core.analysis import GraphAnalysis
from repro.discovery.wsdl import catalog_to_wsdl
from repro.errors import ReproError
from repro.workloads.io import load_scenario, save_scenario
from repro.workloads.lint import Severity, lint_scenario
from repro.workloads.paper import figure3_scenario, figure6_scenario
from repro.workloads.scenario import Scenario
from repro.workloads.synthetic import SyntheticConfig, generate_scenario

__all__ = ["main", "build_parser"]


def _load_scenario_checked(path: str, out) -> Optional[Scenario]:
    """Load a scenario file, reporting failures as one-line errors."""
    try:
        return load_scenario(path)
    except OSError as exc:
        reason = exc.strerror or type(exc).__name__
        print(f"error: cannot read scenario file {path!r}: {reason}", file=out)
        return None
    except ReproError as exc:
        print(f"error: {exc}", file=out)
        return None


def _paper_scenario(name: str, include_t7: bool = True) -> Scenario:
    if name == "figure6":
        return figure6_scenario(include_t7=include_t7)
    if name == "figure3":
        return figure3_scenario()
    raise SystemExit(f"unknown paper scenario: {name!r} (figure3|figure6)")


def cmd_table1(args: argparse.Namespace, out) -> int:
    result = figure6_scenario().select()
    print(result.trace.render(), file=out)
    print(file=out)
    print(result.describe(), file=out)
    return 0


def cmd_figure6(args: argparse.Namespace, out) -> int:
    scenario = figure6_scenario(include_t7=not args.without_t7)
    result = scenario.select()
    if not result.success:
        print(f"FAILURE: {result.failure_reason}", file=out)
        return 1
    print(f"selected path:  {','.join(result.path)}", file=out)
    print(f"via formats:    {' -> '.join(result.formats)}", file=out)
    print(f"frame rate:     {result.delivered_frame_rate:.2f} fps", file=out)
    print(f"satisfaction:   {result.satisfaction:.4f}", file=out)
    print(f"cost:           {result.accumulated_cost:.2f}", file=out)
    return 0


def cmd_synthetic(args: argparse.Namespace, out) -> int:
    scenario = generate_scenario(
        SyntheticConfig(
            seed=args.seed,
            n_services=args.services,
            n_formats=args.formats,
            n_nodes=args.nodes,
        )
    )
    print(scenario.description, file=out)
    result = scenario.select()
    if not result.success:
        print(f"FAILURE: {result.failure_reason}", file=out)
        return 1
    print(result.describe(), file=out)
    if args.deliver is not None:
        session = scenario.session()
        plan = session.plan()
        report = session.deliver(plan, duration_s=args.deliver)
        print(file=out)
        print(report.summary(), file=out)
    return 0


def cmd_analyze(args: argparse.Namespace, out) -> int:
    if args.scenario in ("figure3", "figure6"):
        scenario = _paper_scenario(args.scenario)
    else:
        try:
            seed = int(args.scenario)
        except ValueError:
            raise SystemExit(
                f"scenario must be figure3, figure6, or a synthetic seed, "
                f"got {args.scenario!r}"
            )
        scenario = generate_scenario(SyntheticConfig(seed=seed))
    graph = scenario.build_graph()
    print(f"scenario: {scenario.name}", file=out)
    print(GraphAnalysis(graph).summary(), file=out)
    return 0


def cmd_catalog(args: argparse.Namespace, out) -> int:
    if args.paper:
        scenario = _paper_scenario(args.paper)
    else:
        scenario = generate_scenario(SyntheticConfig(seed=args.seed))
    print(catalog_to_wsdl(scenario.catalog), file=out)
    return 0


def cmd_export(args: argparse.Namespace, out) -> int:
    if args.paper:
        scenario = _paper_scenario(args.paper)
    else:
        scenario = generate_scenario(SyntheticConfig(seed=args.seed))
    try:
        path = save_scenario(scenario, args.path)
    except OSError as exc:
        reason = exc.strerror or type(exc).__name__
        print(f"error: cannot write scenario file {args.path!r}: {reason}",
              file=out)
        return 2
    print(f"wrote {scenario.name!r} to {path}", file=out)
    return 0


def cmd_solve(args: argparse.Namespace, out) -> int:
    scenario = _load_scenario_checked(args.path, out)
    if scenario is None:
        return 2
    print(f"scenario: {scenario.name}", file=out)
    result = scenario.select()
    if not result.success:
        print(f"FAILURE: {result.failure_reason}", file=out)
        return 1
    print(result.describe(), file=out)
    if args.trace and result.trace is not None:
        print(file=out)
        print(result.trace.render(), file=out)
    return 0


def cmd_plan_batch(args: argparse.Namespace, out) -> int:
    from repro.planner import BatchPlanner, PlanCache, synthetic_requests
    from repro.runtime.metrics import PlannerReport

    scenario = generate_scenario(
        SyntheticConfig(
            seed=args.seed,
            n_services=args.services,
            n_formats=args.formats,
            n_nodes=args.nodes,
        )
    )
    cache = PlanCache(max_entries=args.cache_size)
    planner = BatchPlanner.for_scenario(
        scenario, cache=cache, max_workers=args.workers
    )
    requests = synthetic_requests(scenario, args.sessions, args.distinct)

    started = time.perf_counter()
    plans = planner.plan_batch(requests)
    elapsed = time.perf_counter() - started

    stats = cache.stats
    memo_stats = planner.optimize_memo.stats
    report = PlannerReport(
        sessions=len(plans),
        successes=sum(1 for plan in plans if plan.success),
        cache_hits=stats.hits,
        cache_misses=stats.misses,
        invalidations=stats.invalidations,
        evictions=stats.evictions,
        elapsed_s=elapsed,
        optimize_calls=memo_stats.lookups,
        optimize_memo_hits=memo_stats.hits,
        settle_rounds=sum(
            plan.result.stats.rounds
            for plan in plans
            if plan.result.stats is not None
        ),
    )
    print(f"scenario: {scenario.name} "
          f"({args.sessions} sessions, {args.distinct} device classes)", file=out)
    print(report.summary(), file=out)
    if args.compare:
        started = time.perf_counter()
        planner.plan_batch(requests, use_cache=False)
        uncached = time.perf_counter() - started
        speedup = uncached / elapsed if elapsed > 0 else float("inf")
        print(file=out)
        print(f"uncached:          {uncached * 1000:.1f} ms", file=out)
        print(f"speedup:           {speedup:.1f}x", file=out)
    return 0


def cmd_plan_group(args: argparse.Namespace, out) -> int:
    """Plan one shared adaptation tree for a synthetic receiver-class set."""
    from repro.group import GroupPlanner, GroupReceiver, GroupRequest
    from repro.planner import device_variants

    scenario = generate_scenario(
        SyntheticConfig(
            seed=args.seed,
            n_services=args.services,
            n_formats=args.formats,
            n_nodes=args.nodes,
        )
    )
    if args.sessions < args.classes:
        print("error: --sessions must be >= --classes", file=out)
        return 2
    variants = device_variants(scenario.device, args.classes)
    base, extra = divmod(args.sessions, args.classes)
    receivers = tuple(
        GroupReceiver(
            class_id=f"class-{index}",
            device=device,
            sessions=base + (1 if index < extra else 0),
        )
        for index, device in enumerate(variants)
    )
    request = GroupRequest(
        content=scenario.content,
        user=scenario.user,
        sender_node=scenario.sender_node,
        receiver_node=scenario.receiver_node,
        receivers=receivers,
        context=scenario.context,
    )
    planner = GroupPlanner.for_scenario(scenario)

    started = time.perf_counter()
    plan = planner.plan(request)
    elapsed = time.perf_counter() - started

    tree = plan.tree
    print(f"scenario: {scenario.name} "
          f"({args.sessions} sessions, {args.classes} receiver classes)",
          file=out)
    print(f"tree:              {len(tree.edges)} edges, "
          f"{tree.branch_count} leaves, "
          f"{tree.shared_edge_count} shared edges", file=out)
    print(f"branches:          {len(tree.branches)} planned, "
          f"{len(tree.fallbacks)} fallback", file=out)
    print(f"tree bandwidth:    {tree.tree_bandwidth_bps() / 1e6:.2f} Mbps",
          file=out)
    print(f"per-session:       "
          f"{tree.per_session_bandwidth_bps() / 1e6:.2f} Mbps", file=out)
    print(f"saved:             {tree.saved_bandwidth_bps() / 1e6:.2f} Mbps",
          file=out)
    print(f"optimize calls:    {plan.optimize_calls()}", file=out)
    print(f"elapsed:           {elapsed * 1000:.1f} ms", file=out)
    print(f"digest:            {tree.digest()}", file=out)
    if args.compare:
        from repro.planner import BatchPlanner

        baseline = BatchPlanner.for_scenario(scenario)
        started = time.perf_counter()
        baseline_bps = 0.0
        baseline_calls = 0
        for receiver in receivers:
            alone = scenario.request(receiver.device)
            for _ in range(receiver.sessions):
                result = baseline.plan_uncached(alone).result
                if result.success and result.stats is not None:
                    baseline_calls += result.stats.optimize_calls
                    baseline_bps += sum(
                        result.configuration.required_bandwidth(
                            baseline.registry.get(fmt)
                        )
                        for fmt in result.formats
                    )
        uncached = time.perf_counter() - started
        print(file=out)
        print(f"per-session baseline: {uncached * 1000:.1f} ms, "
              f"{baseline_calls} optimize calls, "
              f"{baseline_bps / 1e6:.2f} Mbps reserved", file=out)
        speedup = uncached / elapsed if elapsed > 0 else float("inf")
        print(f"speedup:           {speedup:.1f}x", file=out)
    return 0


def cmd_simulate(args: argparse.Namespace, out) -> int:
    from repro.sim import build_scenario, run_simulation

    config = build_scenario(
        args.scenario,
        seed=args.seed,
        sessions=args.sessions,
        faults=not args.no_faults,
        horizon_s=args.horizon,
        trace_capacity=args.trace_capacity,
    )
    report = run_simulation(config)
    if args.json:
        print(report.to_json(include_sessions=not args.fleet_only), file=out)
    elif args.markdown:
        print(report.to_markdown(), file=out)
    else:
        print(report.summary(), file=out)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report.to_json(include_sessions=not args.fleet_only))
            handle.write("\n")
        print(f"wrote JSON report to {args.output}", file=out)
    return 0


def _serving_scenario(args: argparse.Namespace, out) -> Optional[Scenario]:
    """The scenario a serve/loadgen command runs against.

    ``--scenario PATH`` loads a saved document; otherwise the synthetic
    reference scenario is generated from the seed/size flags (identical
    flags on both sides of the wire yield identical worlds).
    """
    if args.scenario:
        return _load_scenario_checked(args.scenario, out)
    return generate_scenario(
        SyntheticConfig(
            seed=args.seed,
            n_services=args.services,
            n_formats=args.formats,
            n_nodes=args.nodes,
        )
    )


def cmd_serve(args: argparse.Namespace, out) -> int:
    import asyncio
    import json

    from repro.serve import (
        ClusterConfig,
        ClusterSupervisor,
        GatewayConfig,
        HealthConfig,
        PlanningGateway,
    )

    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=out)
        return 2
    scenario = _serving_scenario(args, out)
    if scenario is None:
        return 2
    health = None
    if args.health:
        try:
            health = HealthConfig(
                seed=args.seed,
                open_threshold=args.health_open_threshold,
                cooldown_s=args.health_cooldown,
                min_samples=args.health_min_samples,
            )
        except ReproError as exc:
            print(f"error: {exc}", file=out)
            return 2
    config = GatewayConfig(
        host=args.host,
        port=args.port,
        queue_depth=args.queue_depth,
        workers=args.threads,
        default_deadline_ms=args.deadline_ms,
        rate_per_s=args.rate_limit,
        burst=args.burst,
        cache_size=args.cache_size,
        drain_grace_s=args.drain_grace,
        service_floor_ms=args.service_floor_ms,
        health=health,
        degraded_budget_ms=args.degraded_budget_ms,
    )
    if args.workers == 1:
        # Single process: no supervisor, no fork, no admin server — the
        # exact daemon `repro serve` has always been.
        try:
            gateway = PlanningGateway(
                scenario, config, scenario_path=args.scenario
            )
        except ReproError as exc:
            # Misconfiguration (e.g. --burst below 1 with rate limiting on)
            # fails here, at daemon start — same one-line idiom as scenario
            # file problems, never a traceback or a crash on the first
            # request.
            print(f"error: {exc}", file=out)
            return 2

        def announce(gw: PlanningGateway) -> None:
            print(
                f"repro gateway listening on {args.host}:{gw.port} "
                f"(scenario {scenario.name!r}, generation {gw.generation})",
                file=out,
                flush=True,
            )

        final = asyncio.run(gateway.run(on_ready=announce))
    else:
        admin_port = args.admin_port
        if admin_port is None:
            # Ephemeral shared port → ephemeral admin port; otherwise the
            # conventional next-door port.
            admin_port = 0 if args.port == 0 else args.port + 1
        try:
            supervisor = ClusterSupervisor(
                scenario,
                gateway_config=config,
                cluster_config=ClusterConfig(
                    workers=args.workers,
                    admin_host=args.host,
                    admin_port=admin_port,
                ),
                scenario_path=args.scenario,
            )
        except ReproError as exc:
            print(f"error: {exc}", file=out)
            return 2

        def announce_cluster(sup: ClusterSupervisor) -> None:
            print(
                f"repro cluster listening on {args.host}:{sup.port} "
                f"(admin {args.host}:{sup.admin_port}, "
                f"workers {sup.workers}, scenario {scenario.name!r})",
                file=out,
                flush=True,
            )

        try:
            final = asyncio.run(supervisor.run(on_ready=announce_cluster))
        except ReproError as exc:
            # Boot failure (port taken, workers never ready) after the
            # parser accepted the flags — still one line, still exit 2.
            print(f"error: {exc}", file=out)
            return 2
    print("drained; final metrics:", file=out)
    print(json.dumps(final, indent=2, sort_keys=True), file=out, flush=True)
    return 0


def cmd_loadgen(args: argparse.Namespace, out) -> int:
    import asyncio
    import json

    from repro.serve import LoadgenConfig, run_loadgen

    scenario = _serving_scenario(args, out)
    if scenario is None:
        return 2
    config = LoadgenConfig(
        host=args.host,
        port=args.port,
        requests=args.requests,
        rate_per_s=args.rate,
        seed=args.seed_arrivals,
        distinct=args.distinct,
        deadline_ms=args.deadline_ms,
        timeout_s=args.timeout,
        shard_affinity=args.shard_affinity,
        admin_port=args.admin_port,
        retries=args.retries,
        retry_backoff_s=args.retry_backoff,
        group_size=args.group_size,
        policy_mix=args.policy_mix,
    )
    try:
        report = asyncio.run(run_loadgen(scenario, config))
    except ReproError as exc:
        # Affinity setup failures (no admin port, unreachable cluster)
        # are operational, not bugs: one line, exit 2.
        print(f"error: {exc}", file=out)
        return 2
    except OSError as exc:
        reason = exc.strerror or type(exc).__name__
        print(f"error: cannot reach cluster admin endpoint: {reason}", file=out)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True), file=out)
    else:
        print(report.summary(), file=out)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    if report.failed:
        print(f"error: {report.failed} requests failed outright", file=out)
        return 1
    return 0


def cmd_lint(args: argparse.Namespace, out) -> int:
    if args.path is None and args.policy is None:
        print("error: lint needs a scenario path and/or --policy", file=out)
        return 2
    scenario = None
    if args.path is not None:
        scenario = _load_scenario_checked(args.path, out)
        if scenario is None:
            return 2
    findings = []
    name = ""
    if scenario is not None:
        findings.extend(lint_scenario(scenario))
        name = scenario.name
    if args.policy is not None:
        from repro.policy import load_policy
        from repro.policy.lint import lint_policy

        try:
            document = load_policy(args.policy)
        except ReproError as exc:
            # Malformed documents (unknown predicate/action names, bad
            # JSON) are input errors: one line, exit 2 — same contract
            # as an unreadable scenario file.
            print(f"error: {exc}", file=out)
            return 2
        findings.extend(lint_policy(document, scenario=scenario))
        name = f"{name} + {document.name}" if name else document.name
    if not findings:
        print(f"{name}: clean", file=out)
        return 0
    for finding in findings:
        print(str(finding), file=out)
    has_errors = any(f.severity is Severity.ERROR for f in findings)
    return 1 if has_errors else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="QoS-based service composition for content adaptation "
        "(ICDE 2007 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("table1", help="regenerate the paper's Table 1")

    figure6 = commands.add_parser("figure6", help="run the worked example")
    figure6.add_argument(
        "--without-t7",
        action="store_true",
        help="remove trans-coding service T7 (the Figure 6 variant)",
    )

    synthetic = commands.add_parser(
        "synthetic", help="generate and solve a synthetic scenario"
    )
    synthetic.add_argument("--seed", type=int, default=0)
    synthetic.add_argument("--services", type=int, default=30)
    synthetic.add_argument("--formats", type=int, default=12)
    synthetic.add_argument("--nodes", type=int, default=10)
    synthetic.add_argument(
        "--deliver",
        type=float,
        default=None,
        metavar="SECONDS",
        help="also stream the plan for SECONDS and print the report",
    )

    analyze = commands.add_parser("analyze", help="graph analytics")
    analyze.add_argument(
        "scenario",
        help="figure3, figure6, or an integer synthetic seed",
    )

    export = commands.add_parser("export", help="save a scenario to a JSON file")
    export.add_argument("path", help="output file")
    export.add_argument("--seed", type=int, default=0)
    export.add_argument(
        "--paper", choices=("figure3", "figure6"), default=None,
        help="export a paper scenario instead of a synthetic one",
    )

    solve = commands.add_parser("solve", help="run selection on a saved scenario")
    solve.add_argument("path", help="scenario JSON file")
    solve.add_argument("--trace", action="store_true", help="print the round trace")

    lint = commands.add_parser(
        "lint", help="cross-check a saved scenario and/or policy document"
    )
    lint.add_argument("path", nargs="?", default=None,
                      help="scenario JSON file")
    lint.add_argument("--policy", default=None, metavar="PATH",
                      help="also lint a policy document (cross-checked "
                           "against the scenario when one is given)")

    plan_batch = commands.add_parser(
        "plan-batch",
        help="plan a synthetic session batch through the plan cache",
    )
    plan_batch.add_argument("--seed", type=int, default=7)
    plan_batch.add_argument("--services", type=int, default=12)
    plan_batch.add_argument("--formats", type=int, default=8)
    plan_batch.add_argument("--nodes", type=int, default=8)
    plan_batch.add_argument(
        "--sessions", type=int, default=200, help="sessions in the batch"
    )
    plan_batch.add_argument(
        "--distinct", type=int, default=16,
        help="distinct device classes (distinct fingerprints)",
    )
    plan_batch.add_argument(
        "--workers", type=int, default=None, help="thread-pool size"
    )
    plan_batch.add_argument(
        "--cache-size", type=int, default=1024, help="plan-cache capacity"
    )
    plan_batch.add_argument(
        "--compare",
        action="store_true",
        help="also time the uncached baseline and print the speedup",
    )

    plan_group = commands.add_parser(
        "plan-group",
        help="plan one shared adaptation tree for a receiver-class set",
    )
    plan_group.add_argument("--seed", type=int, default=7)
    plan_group.add_argument("--services", type=int, default=12)
    plan_group.add_argument("--formats", type=int, default=8)
    plan_group.add_argument("--nodes", type=int, default=8)
    plan_group.add_argument(
        "--sessions", type=int, default=200,
        help="live sessions spread across the classes",
    )
    plan_group.add_argument(
        "--classes", type=int, default=16,
        help="distinct receiver device classes in the group",
    )
    plan_group.add_argument(
        "--compare",
        action="store_true",
        help="also run the per-session uncached baseline and print the "
             "speedup and reserved-bandwidth comparison",
    )

    simulate = commands.add_parser(
        "simulate",
        help="run a deterministic multi-session fault-injection simulation",
    )
    simulate.add_argument(
        "--scenario",
        default="steady",
        help="named campaign: steady, flash-crowd, failover-storm, "
             "link-churn, gray-failure, live-event",
    )
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--sessions", type=int, default=200, help="organic session arrivals"
    )
    simulate.add_argument(
        "--no-faults",
        action="store_true",
        help="run the campaign without its fault schedule",
    )
    simulate.add_argument(
        "--horizon", type=float, default=None, metavar="SECONDS",
        help="hard virtual-time stop (default: run until the heap drains)",
    )
    simulate.add_argument(
        "--trace-capacity", type=int, default=None, metavar="EVENTS",
        help="bound the in-memory event trace to a ring buffer",
    )
    simulate.add_argument(
        "--json", action="store_true", help="print the full JSON report"
    )
    simulate.add_argument(
        "--markdown", action="store_true", help="print the markdown report"
    )
    simulate.add_argument(
        "--fleet-only",
        action="store_true",
        help="omit per-session rows from JSON output",
    )
    simulate.add_argument(
        "--output", default=None, metavar="PATH",
        help="also write the JSON report to PATH",
    )

    def add_world_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--scenario", default=None, metavar="PATH",
            help="serve/load a saved scenario JSON instead of a synthetic one",
        )
        sub.add_argument("--seed", type=int, default=7)
        sub.add_argument("--services", type=int, default=12)
        sub.add_argument("--formats", type=int, default=8)
        sub.add_argument("--nodes", type=int, default=8)

    serve = commands.add_parser(
        "serve",
        help="run the asyncio planning gateway (drain on SIGTERM/SIGINT, "
        "reload on SIGHUP when serving from a file)",
    )
    add_world_flags(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8077,
                       help="0 binds an ephemeral port")
    serve.add_argument("--queue-depth", type=int, default=256,
                       help="bounded deadline-queue depth (past it: shed)")
    serve.add_argument("--workers", type=int, default=1,
                       help="worker processes; >1 runs the SO_REUSEPORT "
                       "cluster supervisor, 1 the classic single daemon")
    serve.add_argument("--threads", type=int, default=4,
                       help="planning threads per worker process")
    serve.add_argument("--admin-port", type=int, default=None,
                       help="cluster admin/metrics port (default: --port + 1, "
                       "ephemeral when --port is 0; ignored with --workers 1)")
    serve.add_argument("--deadline-ms", type=float, default=250.0,
                       help="default per-request deadline")
    serve.add_argument("--rate-limit", type=float, default=0.0,
                       help="per-client token-bucket rate (0 disables)")
    serve.add_argument("--burst", type=float, default=50.0,
                       help="per-client token-bucket burst")
    serve.add_argument("--cache-size", type=int, default=4096,
                       help="plan-cache capacity")
    serve.add_argument("--drain-grace", type=float, default=5.0,
                       help="seconds granted to in-flight work at drain")
    serve.add_argument("--service-floor-ms", type=float, default=0.0,
                       help="test knob: pad each served request to this floor")
    serve.add_argument("--health", action="store_true",
                       help="enable per-service failure detection, circuit "
                            "breakers, and degraded-mode fallback")
    serve.add_argument("--health-cooldown", type=float, default=1.0,
                       help="seconds an OPEN breaker waits before HALF_OPEN "
                            "probes (jittered; default 1.0)")
    serve.add_argument("--health-open-threshold", type=float, default=0.7,
                       help="EWMA failure score that trips a breaker "
                            "(default 0.7)")
    serve.add_argument("--health-min-samples", type=int, default=5,
                       help="outcome samples required before a breaker may "
                            "trip (default 5)")
    serve.add_argument("--degraded-budget-ms", type=float, default=25.0,
                       help="remaining deadline budget below which a request "
                            "answers degraded instead of planning")

    loadgen = commands.add_parser(
        "loadgen",
        help="fire a seeded open-loop Poisson request stream at a gateway",
    )
    add_world_flags(loadgen)
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=8077)
    loadgen.add_argument("--requests", type=int, default=500)
    loadgen.add_argument("--rate", type=float, default=200.0,
                         help="open-loop arrival rate (req/s)")
    loadgen.add_argument("--seed-arrivals", type=int, default=0,
                         help="seed for the arrival process / outcome digest")
    loadgen.add_argument("--distinct", type=int, default=16,
                         help="distinct device classes cycled over requests")
    loadgen.add_argument("--deadline-ms", type=float, default=250.0)
    loadgen.add_argument("--timeout", type=float, default=10.0,
                         help="client-side per-response timeout (s)")
    loadgen.add_argument("--shard-affinity", action="store_true",
                         help="route each request to the cluster worker "
                         "owning its device-class shard (needs --admin-port)")
    loadgen.add_argument("--admin-port", type=int, default=None,
                         help="cluster admin port to fetch the topology from")
    loadgen.add_argument("--retries", type=int, default=0,
                         help="retry 429/connection-refused responses up to "
                              "N times with seeded jittered backoff")
    loadgen.add_argument("--retry-backoff", type=float, default=0.05,
                         help="base retry delay in seconds (doubles per "
                              "attempt; default 0.05)")
    loadgen.add_argument("--group-size", type=int, default=0,
                         help="batch this many device classes per request as "
                              "one POST /plan-group receiver set (0 = "
                              "classic per-session /plan stream)")
    loadgen.add_argument("--policy-mix", type=float, default=0.0,
                         help="fraction of requests carrying a device that "
                              "decodes the source format natively (seeded); "
                              "the report splits latency by policy fast "
                              "path vs selector path")
    loadgen.add_argument("--json", action="store_true",
                         help="print the full JSON report")
    loadgen.add_argument("--output", default=None, metavar="PATH",
                         help="also write the JSON report to PATH")

    catalog = commands.add_parser("catalog", help="dump a catalog as WSDL XML")
    catalog.add_argument("--seed", type=int, default=0)
    catalog.add_argument(
        "--paper",
        choices=("figure3", "figure6"),
        default=None,
        help="dump a paper scenario's catalog instead of a synthetic one",
    )

    return parser


_HANDLERS = {
    "table1": cmd_table1,
    "figure6": cmd_figure6,
    "synthetic": cmd_synthetic,
    "analyze": cmd_analyze,
    "catalog": cmd_catalog,
    "export": cmd_export,
    "solve": cmd_solve,
    "lint": cmd_lint,
    "plan-batch": cmd_plan_batch,
    "plan-group": cmd_plan_group,
    "simulate": cmd_simulate,
    "serve": cmd_serve,
    "loadgen": cmd_loadgen,
}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    stream = out if out is not None else sys.stdout
    return _HANDLERS[args.command](args, stream)


if __name__ == "__main__":  # pragma: no cover - exercised via tests on main()
    raise SystemExit(main())
