"""The repository benchmark: two planning workloads, one result line.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 15 --trace 0

Run it from the repository root.  Workloads (``BENCHMARK.json`` records
why each was chosen):

- ``serve-hot``: a ``repro serve`` daemon answering warm requests over
  HTTP, closed loop, one client, two keep-alive connections;
- ``sim-failover``: the ``failover-storm`` simulation campaign, where
  every answer builds, prunes and selects on a fresh snapshot.

One operation is one planning answer on every workload.  ``--seed``
shapes the generated inputs only; the program receives the inputs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs an
untraced and then a traced phase of half the time each and prints the
per-layer metrics of the traced phase plus ``trace.overhead_ratio``
(untraced over traced throughput).  Either way the last line of standard
output is ``{"correct": ..., "attempted": ..., "failed": ..., "metrics": ...}``.

Every answer is checked against an in-process reference (serve-hot) or
for a repeatable trace digest (sim-failover).  A failed
check prints the mismatch to standard error and exits 1 without a result;
a checkout without the program's sources exits 2.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from dataclasses import replace
from typing import Dict, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("serve-hot", "sim-failover")

#: Unit of every end-to-end metric, as in ``BENCHMARK.json``.
E2E_UNITS = {
    "throughput_ops": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "success_frac": "ratio",
    "mean_satisfaction": "score",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def run(workload: str, seed: int, sizing, trace: bool) -> Dict:
    """One benchmark run: printable lines and the result object.

    Raises :class:`~perfbench.common.CheckFailed` when a check fails.
    """
    from perfbench import serve_hot, sim_failover
    from perfbench.layers import PER_LAYER_UNITS, layer_metrics

    measure = {
        "serve-hot": serve_hot.measure,
        "sim-failover": sim_failover.measure,
    }[workload]
    lines = []
    if not trace:
        phase = measure(seed, sizing, False)
        values = phase.log.end_to_end(phase.setup_s, phase.peak_rss_mb)
        units = E2E_UNITS
        lines += phase.notes
        lines.append(f"setup_s samples: {[round(s, 4) for s in phase.setup_s]}")
    else:
        half = replace(sizing, seconds=sizing.seconds / 2, min_ops=100,
                       quality_ops=0, setups=1)
        plain = measure(seed, half, False)
        phase = measure(seed, half, True)
        values = layer_metrics(
            phase.spans,
            phase.log.attempted - phase.log.failures,
            phase.windows,
            plain.log.throughput / phase.log.throughput,
        )
        units = PER_LAYER_UNITS
        lines += phase.notes
        lines.append(f"spans recorded: {len(phase.spans)}")
    log = phase.log
    lines.append(
        f"attempted {log.attempted} (the latency sample count), failed "
        f"{log.failures}, failed_frac {log.failures / log.attempted:.6f}, "
        f"median over all answers "
        f"{statistics.median(log.latencies_ms):.4f} ms"
    )
    for name, value in values.items():
        lines.append(f"  {name:<40} {value:>14.6f} {units[name]}")
    return {
        "lines": lines,
        "result": {
            "correct": True,
            "attempted": log.attempted,
            "failed": log.failures,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in values.items()
            },
        },
    }


def main(argv: Optional[list] = None, sizing=None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.common import CheckFailed, Sizing, pin_to_one_cpu

    pin_to_one_cpu()
    try:
        outcome = run(
            args.workload,
            args.seed,
            sizing if sizing is not None else Sizing(seconds=args.seconds),
            bool(args.trace),
        )
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    for line in outcome["lines"]:
        print(line)
    print(json.dumps(outcome["result"]), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
