"""Cache-replacement simulation with prediction-guided and guarded policies.

The package models paging with miss-count cost: traces of page requests are
replayed against eviction policies (classical, prediction-following, switching
combinations, and a phase-based robustification wrapper), and costs are
reported relative to the offline optimum.

Names outside `__all__` are imported from their submodules.
"""

from .guard import (
    InvariantViolation,
    PhaseReport,
    phase_report,
    phase_stats_csv,
    robustness_bound,
)
from .harness import (
    ExperimentConfig,
    RunTable,
    load_traces,
    run,
)
from .oracle import opt_cost
from .policy import (
    ContractViolation,
    Policy,
    RunResult,
    build_policy,
    simulate,
)
from .predict import (
    PredictionBundle,
    PredictionError,
    flip_labels,
    inverted_nrt,
    measure_error,
    noisy_fitf,
    perfect_labels,
    perfect_nrt,
    pleco,
    popu,
    save_bundle_csv,
    synthetic_nrt,
)
from .trace import (
    Trace,
    adversarial_pinning_trace,
    ingest_address_trace,
    ingest_brightkite,
    ingest_citibike,
    parse_plain_trace,
)

__version__ = "0.1.0"

__all__ = [
    "ContractViolation",
    "ExperimentConfig",
    "InvariantViolation",
    "PhaseReport",
    "Policy",
    "PredictionBundle",
    "PredictionError",
    "RunResult",
    "RunTable",
    "Trace",
    "adversarial_pinning_trace",
    "build_policy",
    "flip_labels",
    "ingest_address_trace",
    "ingest_brightkite",
    "ingest_citibike",
    "inverted_nrt",
    "load_traces",
    "measure_error",
    "noisy_fitf",
    "opt_cost",
    "parse_plain_trace",
    "perfect_labels",
    "perfect_nrt",
    "phase_report",
    "phase_stats_csv",
    "pleco",
    "popu",
    "robustness_bound",
    "run",
    "save_bundle_csv",
    "simulate",
    "synthetic_nrt",
]
