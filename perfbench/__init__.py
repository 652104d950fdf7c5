"""The repository benchmark: ``python3 perfbench/run.py --workload NAME ...``.

Everything here is benchmark-owned.  It drives the program through its
public entry points (the ``repro serve`` CLI, ``BatchPlanner``,
``SimulationRun``) and, in traced runs, times the calls into each layer
from outside by wrapping them at their import sites (:mod:`perfbench.tracing`).
Nothing under ``src/`` knows the benchmark exists.
"""
