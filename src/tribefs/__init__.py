"""Tribe-based genetic feature selection.

The population is split into tribes, each searching subsets whose size
clusters around its own target cardinality; histogram-preserving genetic
operators keep that structure intact while inter-tribe competition shifts
individuals toward the tribes finding the better subsets. Fitness is
cross-validated classifier accuracy on the candidate feature columns.
"""

from .competition import CompetitionConfig, CompetitionRecord, apply_competition, rank_tribes
from .core import (
    CountHistogram,
    Individual,
    Population,
    Tribe,
    best_index,
    best_individual,
    count_selected,
    histogram,
    mask_from_string,
    mask_to_string,
    rank_key,
)
from .data import (
    CsvSchema,
    DataError,
    Dataset,
    DatasetDescriptor,
    FoldPlan,
    dataset_from_arrays,
    fetch_dataset,
    load_csv,
    load_descriptors,
    load_named,
    stratified_folds,
    write_csv,
)
from .evolution import (
    EvolutionConfig,
    count_preserving_crossover,
    evolve_generation,
    paired_mutation,
    rank_selection,
    selection_probabilities,
)
from .fitness import (
    CLASSIFIER_KINDS,
    FitnessCache,
    FitnessProtocol,
    LinearSVM,
    kfold_accuracy,
    make_evaluator,
    train_linear_svm,
)
from .genesis import (
    MIN_SIGMA,
    SIGMA_CAP_COEFF,
    TRIBE_COUNT_COEFF,
    InfeasiblePlanError,
    TribePlan,
    allocate_counts,
    derive_sigma,
    derive_tribe_count,
    init_population,
    place_means,
    sample_counts,
    sample_individual,
    validate_plan,
)
from .harness import (
    SWEEPABLE,
    CompetitionEvent,
    ConfigError,
    FriedmanResult,
    GenerationRecord,
    RunConfig,
    RunReport,
    RunResult,
    TTestResult,
    friedman_test,
    generations,
    paired_t_test,
    resolve_dataset,
    run_experiment,
    sweep,
)
from .oracle import OracleResult, exhaustive_best_subset

__version__ = "0.1.0"
