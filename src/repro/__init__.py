"""QoS-based service composition for content adaptation.

A Python reproduction of El-Khatib, Bochmann & El-Saddik, *A QoS-based
Service Composition for Content Adaptation* (ICDE 2007): a framework that
delivers multimedia content to heterogeneous clients by composing chains of
trans-coding services, choosing the chain — and the configuration of each
service on it — that maximizes the user's satisfaction subject to network
bandwidth and budget constraints.

Quick start::

    from repro import figure6_scenario

    scenario = figure6_scenario()
    result = scenario.select()
    print(result.describe())          # sender,T7,receiver @ satisfaction 0.66
    print(result.trace.render())      # the paper's Table 1, regenerated

Package map (see DESIGN.md for the full inventory):

- :mod:`repro.core` — satisfaction model, adaptation graph, the greedy QoS
  path-selection algorithm, baselines;
- :mod:`repro.formats` / :mod:`repro.services` — media formats and
  executable synthetic transcoders;
- :mod:`repro.profiles` — the six Section-3 profiles;
- :mod:`repro.network` / :mod:`repro.discovery` — the simulated substrate;
- :mod:`repro.runtime` — end-to-end sessions and delivery metrics;
- :mod:`repro.workloads` — the paper's exact scenarios plus synthetic
  generators.
"""

from repro.core import (
    AdaptationGraph,
    AdaptationGraphBuilder,
    CheapestPathSelector,
    CombinedSatisfaction,
    Configuration,
    ConfigurationOptimizer,
    ExhaustiveSelector,
    FewestHopsSelector,
    GraphPruner,
    HarmonicCombiner,
    LinearSatisfaction,
    PiecewiseLinearSatisfaction,
    QoSPathSelector,
    RandomPathSelector,
    SelectionResult,
    SelectionTrace,
    TieBreakPolicy,
    WidestPathSelector,
    standard_parameters,
)
from repro.formats import ContentVariant, FormatRegistry, MediaFormat, MediaType
from repro.network import NetworkTopology, ServicePlacement
from repro.profiles import (
    ContentProfile,
    ContextProfile,
    DeviceProfile,
    IntermediaryProfile,
    NetworkProfile,
    UserProfile,
)
from repro.runtime import AdaptationSession, DeliveryReport, PlanRequest
from repro.services import AdaptationChain, ServiceCatalog, ServiceDescriptor
from repro.workloads import (
    Scenario,
    SyntheticConfig,
    figure1_satisfaction,
    figure3_scenario,
    figure6_scenario,
    generate_scenario,
    table1_expected_rows,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "AdaptationGraph",
    "AdaptationGraphBuilder",
    "GraphPruner",
    "QoSPathSelector",
    "SelectionResult",
    "SelectionTrace",
    "TieBreakPolicy",
    "Configuration",
    "ConfigurationOptimizer",
    "CombinedSatisfaction",
    "HarmonicCombiner",
    "LinearSatisfaction",
    "PiecewiseLinearSatisfaction",
    "standard_parameters",
    "ExhaustiveSelector",
    "FewestHopsSelector",
    "WidestPathSelector",
    "CheapestPathSelector",
    "RandomPathSelector",
    # formats & services
    "MediaFormat",
    "MediaType",
    "FormatRegistry",
    "ContentVariant",
    "ServiceDescriptor",
    "ServiceCatalog",
    "AdaptationChain",
    # profiles
    "UserProfile",
    "ContentProfile",
    "ContextProfile",
    "DeviceProfile",
    "NetworkProfile",
    "IntermediaryProfile",
    # substrate & runtime
    "NetworkTopology",
    "ServicePlacement",
    "PlanRequest",
    "AdaptationSession",
    "DeliveryReport",
    # workloads
    "Scenario",
    "SyntheticConfig",
    "generate_scenario",
    "figure1_satisfaction",
    "figure3_scenario",
    "figure6_scenario",
    "table1_expected_rows",
]
