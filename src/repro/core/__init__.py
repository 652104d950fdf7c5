"""Core algorithms: the paper's primary contribution.

This package implements Section 4 of the paper:

- :mod:`repro.core.parameters` — application-layer QoS parameters and their
  value domains (Section 4.1's ``x_i`` variables);
- :mod:`repro.core.satisfaction` — satisfaction functions ``S_i(x_i)`` and
  the combination function ``f_comb`` (Equation 1);
- :mod:`repro.core.configuration` — concrete parameter assignments for one
  service and their bandwidth requirements;
- :mod:`repro.core.optimizer` — per-service configuration choice subject to
  bandwidth, budget, and quality-monotonicity constraints (Equation 2);
- :mod:`repro.core.graph` — construction of the directed acyclic adaptation
  graph (Section 4.2) and :mod:`repro.core.pruning` optimizations
  (Section 4.3's graph cleanup);
- :mod:`repro.core.selection` — the greedy QoS path-selection algorithm of
  Figure 4, with full per-round tracing (:mod:`repro.core.trace`) so Table 1
  can be regenerated verbatim;
- :mod:`repro.core.baselines` — reference algorithms (exhaustive optimum,
  fewest hops, widest path, cheapest path, random) used in the evaluation.
"""

from repro.core.parameters import (
    ContinuousDomain,
    DiscreteDomain,
    Parameter,
    ParameterSet,
    standard_parameters,
)
from repro.core.satisfaction import (
    CombinedSatisfaction,
    GeometricCombiner,
    HarmonicCombiner,
    LinearSatisfaction,
    LogisticSatisfaction,
    MinimumCombiner,
    PiecewiseLinearSatisfaction,
    SatisfactionFunction,
    StepSatisfaction,
    TableSatisfaction,
    WeightedHarmonicCombiner,
)
from repro.core.configuration import Configuration
from repro.core.optimizer import ConfigurationOptimizer, OptimizationConstraints, OptimizedChoice
from repro.core.graph import AdaptationGraph, AdaptationGraphBuilder, CatalogView, Edge, Vertex
from repro.core.pruning import GraphPruner, PruningReport
from repro.core.selection import (
    QoSPathSelector,
    SelectionResult,
    TieBreakPolicy,
)
from repro.core.trace import SelectionRound, SelectionTrace
from repro.core.baselines import (
    CheapestPathSelector,
    ExhaustiveSelector,
    FewestHopsSelector,
    RandomPathSelector,
    WidestPathSelector,
)

__all__ = [
    "Parameter",
    "ParameterSet",
    "ContinuousDomain",
    "DiscreteDomain",
    "standard_parameters",
    "SatisfactionFunction",
    "LinearSatisfaction",
    "PiecewiseLinearSatisfaction",
    "StepSatisfaction",
    "LogisticSatisfaction",
    "TableSatisfaction",
    "CombinedSatisfaction",
    "HarmonicCombiner",
    "WeightedHarmonicCombiner",
    "MinimumCombiner",
    "GeometricCombiner",
    "Configuration",
    "ConfigurationOptimizer",
    "OptimizationConstraints",
    "OptimizedChoice",
    "AdaptationGraph",
    "AdaptationGraphBuilder",
    "CatalogView",
    "Vertex",
    "Edge",
    "GraphPruner",
    "PruningReport",
    "QoSPathSelector",
    "SelectionResult",
    "TieBreakPolicy",
    "SelectionRound",
    "SelectionTrace",
    "ExhaustiveSelector",
    "FewestHopsSelector",
    "WidestPathSelector",
    "CheapestPathSelector",
    "RandomPathSelector",
]
