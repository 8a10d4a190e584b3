"""repro — evolutionary optimization for categorical data protection.

A production-quality reproduction of Marés & Torra, *An Evolutionary
Optimization Approach for Categorical Data Protection* (PAIS/EDBT 2012):
statistical-disclosure-control methods for categorical microdata, the
paper's information-loss and disclosure-risk measure stacks, and the
genetic algorithm that post-optimizes populations of protected files.

Quickstart::

    from repro import (
        load_adult, protected_attributes, build_initial_population,
        ProtectionEvaluator, MaxScore, EvolutionaryProtector,
    )

    original = load_adult()
    attrs = protected_attributes("adult")
    protections = build_initial_population(original, "adult", seed=7)
    evaluator = ProtectionEvaluator(original, attrs, score_function=MaxScore())
    engine = EvolutionaryProtector(evaluator, seed=7)
    result = engine.run(protections, stopping=100)
    print(result.best)
"""

from repro.core import (
    AnyOf,
    EvolutionaryProtector,
    EvolutionHistory,
    EvolutionResult,
    GenerationRecord,
    Individual,
    MaxGenerations,
    Population,
    Stagnation,
    StoppingRule,
    TargetScore,
    crossover,
    mutate,
)
from repro.data import CategoricalDataset, CategoricalDomain, DatasetSchema, read_csv, write_csv
from repro.datasets import (
    dataset_names,
    load_adult,
    load_dataset,
    load_flare,
    load_german,
    load_housing,
    protected_attributes,
)
from repro.exceptions import ReproError
from repro.hierarchy import ValueHierarchy, fanout_hierarchy, frequency_hierarchy
from repro.methods import (
    BottomCoding,
    GlobalRecoding,
    InvariantPram,
    LocalSuppression,
    MdavMicroaggregation,
    Microaggregation,
    Pram,
    ProtectionMethod,
    ProtectionPipeline,
    RankSwapping,
    TopCoding,
)
from repro.metrics import (
    ContingencyTableLoss,
    DistanceBasedLoss,
    DistanceLinkageRisk,
    EntropyBasedLoss,
    IntervalDisclosure,
    MaxScore,
    MeanScore,
    PowerMeanScore,
    ProbabilisticLinkageRisk,
    ProtectionEvaluator,
    ProtectionScore,
    RankSwappingLinkageRisk,
    ScoreFunction,
    WeightedScore,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    # data
    "CategoricalDataset",
    "CategoricalDomain",
    "DatasetSchema",
    "read_csv",
    "write_csv",
    # hierarchies
    "ValueHierarchy",
    "fanout_hierarchy",
    "frequency_hierarchy",
    # datasets
    "load_adult",
    "load_flare",
    "load_german",
    "load_housing",
    "load_dataset",
    "dataset_names",
    "protected_attributes",
    # methods
    "ProtectionMethod",
    "Microaggregation",
    "MdavMicroaggregation",
    "RankSwapping",
    "Pram",
    "InvariantPram",
    "TopCoding",
    "BottomCoding",
    "GlobalRecoding",
    "LocalSuppression",
    "ProtectionPipeline",
    # metrics
    "ContingencyTableLoss",
    "DistanceBasedLoss",
    "EntropyBasedLoss",
    "IntervalDisclosure",
    "DistanceLinkageRisk",
    "ProbabilisticLinkageRisk",
    "RankSwappingLinkageRisk",
    "ScoreFunction",
    "MeanScore",
    "MaxScore",
    "WeightedScore",
    "PowerMeanScore",
    "ProtectionEvaluator",
    "ProtectionScore",
    # core GA
    "EvolutionaryProtector",
    "EvolutionResult",
    "EvolutionHistory",
    "GenerationRecord",
    "Individual",
    "Population",
    "mutate",
    "crossover",
    "StoppingRule",
    "MaxGenerations",
    "Stagnation",
    "TargetScore",
    "AnyOf",
    # experiments (lazy)
    "build_initial_population",
    # service (lazy)
    "ProtectionJob",
    "JobResult",
    "JobRunner",
    "EvaluationCache",
    "CheckpointManager",
    "SqliteJobStore",
    "RemoteJobStore",
    "JobStoreServer",
    "Worker",
    "store_from_spec",
]

_SERVICE_NAMES = {
    "ProtectionJob",
    "JobResult",
    "JobRunner",
    "EvaluationCache",
    "CheckpointManager",
    "SqliteJobStore",
    "RemoteJobStore",
    "JobStoreServer",
    "Worker",
    "store_from_spec",
}


def __getattr__(name: str):
    # build_initial_population and the service layer live above
    # repro.experiments, which imports repro.methods; importing them
    # lazily avoids a package import cycle while keeping them available
    # at the top level (as the docstring shows).
    if name == "build_initial_population":
        from repro.experiments.population_builder import build_initial_population

        return build_initial_population
    if name in _SERVICE_NAMES:
        import repro.service as service

        return getattr(service, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
