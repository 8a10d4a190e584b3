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

The public names resolve on first access (PEP 562), so ``import repro``
loads no numpy: the control-plane commands (``repro submit --detach``,
``repro status``) start without the science stack, which loads with the
first name that needs it.
"""

from repro.utils.lazy import lazy_exports

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

#: Which module defines each public name, imported on first access.
_EXPORTS = {
    "repro.exceptions": ("ReproError",),
    "repro.data": (
        "CategoricalDataset", "CategoricalDomain", "DatasetSchema", "read_csv", "write_csv",
    ),
    "repro.hierarchy": ("ValueHierarchy", "fanout_hierarchy", "frequency_hierarchy"),
    "repro.datasets": (
        "load_adult", "load_flare", "load_german", "load_housing", "load_dataset",
        "dataset_names", "protected_attributes",
    ),
    "repro.methods": (
        "ProtectionMethod", "Microaggregation", "MdavMicroaggregation", "RankSwapping",
        "Pram", "InvariantPram", "TopCoding", "BottomCoding", "GlobalRecoding",
        "LocalSuppression", "ProtectionPipeline",
    ),
    "repro.metrics": (
        "ContingencyTableLoss", "DistanceBasedLoss", "EntropyBasedLoss",
        "IntervalDisclosure", "DistanceLinkageRisk", "ProbabilisticLinkageRisk",
        "RankSwappingLinkageRisk", "ScoreFunction", "MeanScore", "MaxScore",
        "WeightedScore", "PowerMeanScore", "ProtectionEvaluator", "ProtectionScore",
    ),
    "repro.core": (
        "EvolutionaryProtector", "EvolutionResult", "EvolutionHistory", "GenerationRecord",
        "Individual", "Population", "mutate", "crossover", "StoppingRule",
        "MaxGenerations", "Stagnation", "TargetScore", "AnyOf",
    ),
    "repro.experiments.population_builder": ("build_initial_population",),
    "repro.service": (
        "ProtectionJob", "JobResult", "JobRunner", "EvaluationCache", "CheckpointManager",
        "SqliteJobStore", "RemoteJobStore", "JobStoreServer", "Worker", "store_from_spec",
    ),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
