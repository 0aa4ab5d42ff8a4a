"""Bare-bones global optimizers with a multi-scale tunneling sampler.

The package bundles four parameter-light optimizers behind one run
protocol (metered objectives, seeded trials, shared outcome records), the
benchmark suite they are compared on, and the harness, diagnostics, and
command line used to reproduce the comparisons.
"""

from .baselines import (
    BbfwaConfig,
    BbfwaRun,
    BbpsoConfig,
    BbpsoRun,
    GbdeConfig,
    GbdeRun,
)
from .benchmarks import (
    BudgetExhausted,
    BudgetedObjective,
    DoubleWellParams,
    ObjectiveSpec,
    double_well,
    get_objective,
    make_benchmark,
    registry_names,
)
from .bip import (
    BipConfig,
    BipRun,
    accept_moves,
    anneal_gamma,
    gaussian_step,
    ground_state_reached,
    tunneling_probability,
)
from .diagnostics import (
    TrajectoryLog,
    WaveHistogram,
    expected_solution_value,
    record_run,
    transmission_trace,
    wave_modulus,
)
from .harness import (
    ALGORITHMS,
    AggregateStats,
    MULTIMODAL_FUNCTIONS,
    RankingTable,
    UNIMODAL_FUNCTIONS,
    aggregate,
    rank_algorithms,
    read_trials_csv,
    run_experiment,
    run_single,
    write_trials_csv,
)
from .records import EventBatch, EventLog, TrialOutcome

__version__ = "0.1.0"
