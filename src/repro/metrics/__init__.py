"""Information loss, disclosure risk and score aggregation.

Names resolve on first access (PEP 562): the persistent cache reads a
:class:`ProtectionScore` (:mod:`repro.metrics.score`) without loading
the numpy the measures need.
"""

from repro.utils.lazy import lazy_exports

__all__ = [
    "BoundMeasure",
    "InformationLossMeasure",
    "DisclosureRiskMeasure",
    "ContingencyTableLoss",
    "contingency_counts",
    "DistanceBasedLoss",
    "EntropyBasedLoss",
    "conditional_entropy_bits",
    "IntervalDisclosure",
    "DistanceLinkageRisk",
    "ProbabilisticLinkageRisk",
    "RankSwappingLinkageRisk",
    "ScoreFunction",
    "MeanScore",
    "MaxScore",
    "WeightedScore",
    "PowerMeanScore",
    "score_function_by_name",
    "ProtectionEvaluator",
    "ProtectionScore",
    "ScoreCache",
    "default_il_measures",
    "default_dr_measures",
    "UniquenessRisk",
    "AttributeDisclosureRisk",
    "k_anonymity_level",
    "l_diversity_level",
    "sample_uniques_share",
    "equivalence_class_sizes",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.metrics.anonymity": (
        "AttributeDisclosureRisk",
        "UniquenessRisk",
        "equivalence_class_sizes",
        "k_anonymity_level",
        "l_diversity_level",
        "sample_uniques_share",
    ),
    "repro.metrics.base": ("BoundMeasure", "DisclosureRiskMeasure", "InformationLossMeasure"),
    "repro.metrics.contingency": ("ContingencyTableLoss", "contingency_counts"),
    "repro.metrics.distance_il": ("DistanceBasedLoss",),
    "repro.metrics.entropy_il": ("EntropyBasedLoss", "conditional_entropy_bits"),
    "repro.metrics.evaluation": (
        "ProtectionEvaluator",
        "ScoreCache",
        "default_dr_measures",
        "default_il_measures",
    ),
    "repro.metrics.interval_disclosure": ("IntervalDisclosure",),
    "repro.metrics.linkage_risk": (
        "DistanceLinkageRisk",
        "ProbabilisticLinkageRisk",
        "RankSwappingLinkageRisk",
    ),
    "repro.metrics.score": (
        "MaxScore",
        "MeanScore",
        "PowerMeanScore",
        "ProtectionScore",
        "ScoreFunction",
        "WeightedScore",
        "score_function_by_name",
    ),
})
