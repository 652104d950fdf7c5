"""Run one ``repro`` CLI command, optionally with every layer traced.

    python3 perfbench/launch.py [--spans PATH] -- serve --port 0 ...

The benchmark starts the gateway daemon through this launcher in both
modes, so traced and untraced daemons differ only in the wrappers.  With
``--spans`` the layer wrappers of :func:`perfbench.layers.install` are in
place before the command starts, and the recorded spans are written to
``PATH`` once the command returns (after a graceful drain).
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main(argv: list) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.cli import main as cli_main

    if spans_path is None:
        return cli_main(argv)
    from perfbench.layers import install
    from perfbench.tracing import Tracer

    tracer = Tracer()
    install(tracer)
    try:
        return cli_main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
