"""Stream-based active learning with an ensemble of acquisition agents.

Exploration agents chase low-density and poorly covered regions of the
stream, an adaptive certainty-threshold agent exploits model uncertainty,
and an adversarial-bandit solver with a control-chart monitor weighs their
votes into one acquire-or-pass decision per sample under a labeling budget.
"""

from .agents import (
    AcquisitionContext,
    Agent,
    CertaintyThresholdAgent,
    LowDensityAgent,
    RandomBaseline,
    SpaceFillingAgent,
    UncertaintyBaseline,
    local_sparsity,
    random_baseline_rate,
    uncertainty_vote,
)
from .core import LabeledPool, SlidingWindow, euclidean
from .datagen import (
    Dataset,
    GeneratorConfig,
    ScenarioSplit,
    generate,
    scenario_split,
)
from .ensemble import (
    JointDecision,
    RewardSpec,
    SolverConfig,
    WeightedEnsemble,
    step_reward,
)
from .harness import (
    STRATEGIES,
    ExperimentConfig,
    ReplicationSummary,
    RunMetrics,
    StepRecord,
    StreamRunner,
    case_study_split,
    export_results,
    load_csv_stream,
    load_experiment_config,
    parse_config_text,
    run_experiment,
    run_replications,
    strategy_configs,
    summary_table,
    write_dataset_csv,
)
from .learner import LearnerConfig, LogisticModel, fit_logistic, loss_gradient, loss_value
from .theory import (
    McEstimate,
    RalSweepConfig,
    TheoryParams,
    expected_ld_acquisition,
    mc_ld_acquisition,
    mc_ral_nonconvergence,
    solve_m2,
    squared_distance_moments,
)

__version__ = "0.1.0"

__all__ = [
    "AcquisitionContext",
    "Agent",
    "CertaintyThresholdAgent",
    "Dataset",
    "ExperimentConfig",
    "GeneratorConfig",
    "JointDecision",
    "LabeledPool",
    "LearnerConfig",
    "LogisticModel",
    "LowDensityAgent",
    "McEstimate",
    "RalSweepConfig",
    "RandomBaseline",
    "ReplicationSummary",
    "RewardSpec",
    "RunMetrics",
    "STRATEGIES",
    "ScenarioSplit",
    "SlidingWindow",
    "SolverConfig",
    "SpaceFillingAgent",
    "StepRecord",
    "StreamRunner",
    "TheoryParams",
    "UncertaintyBaseline",
    "WeightedEnsemble",
    "case_study_split",
    "euclidean",
    "expected_ld_acquisition",
    "export_results",
    "fit_logistic",
    "generate",
    "load_csv_stream",
    "load_experiment_config",
    "local_sparsity",
    "loss_gradient",
    "loss_value",
    "mc_ld_acquisition",
    "mc_ral_nonconvergence",
    "parse_config_text",
    "random_baseline_rate",
    "run_experiment",
    "run_replications",
    "scenario_split",
    "solve_m2",
    "squared_distance_moments",
    "step_reward",
    "strategy_configs",
    "summary_table",
    "uncertainty_vote",
    "write_dataset_csv",
]
