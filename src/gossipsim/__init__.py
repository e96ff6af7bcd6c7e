"""Randomized gossip dynamics with misbehaving nodes.

Simulates pairwise gossip where selected endpoints may attract toward,
neglect, or repulse away from each other, and evaluates the analytic
agreement/divergence conditions that govern those dynamics. See the README
for the model, the measures, and the command line interface.
"""

from .dynamics import EventProbabilities, Schedule, UpdateMode
from .errors import ConfigError, GossipError, RuntimeFailure
from .graph import SelectionMatrix, generate, spectral, validate
from .montecarlo import (
    Classification,
    ExperimentConfig,
    InitialState,
    config_from_dict,
    config_hash,
    run_experiment,
    sweep,
)
from .theory import (
    ConditionId,
    Verdict,
    contraction,
    critical_measure,
    evaluate_condition,
    theory_report,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "EventProbabilities",
    "Schedule",
    "UpdateMode",
    "ConfigError",
    "GossipError",
    "RuntimeFailure",
    "SelectionMatrix",
    "generate",
    "spectral",
    "validate",
    "Classification",
    "ExperimentConfig",
    "InitialState",
    "config_from_dict",
    "config_hash",
    "run_experiment",
    "sweep",
    "ConditionId",
    "Verdict",
    "contraction",
    "critical_measure",
    "evaluate_condition",
    "theory_report",
]
