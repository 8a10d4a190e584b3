"""Record-linkage substrate used by the disclosure-risk measures."""

from repro.linkage.blocking import blocked_candidate_pairs, blocked_linkage_rate, blocking_recall
from repro.linkage.dbrl import distance_based_record_linkage, fractional_correct_links
from repro.linkage.distance import (
    attribute_distance_columns,
    cross_distance_matrix,
    rank_position_columns,
    rank_positions,
)
from repro.linkage.prl import (
    BatchFellegiSunterModel,
    FellegiSunterModel,
    agreement_pattern_matrix,
    fit_fellegi_sunter,
    fit_fellegi_sunter_many,
    probabilistic_record_linkage,
)
from repro.linkage.rsrl import rank_compatibility_scores, rank_swapping_record_linkage

__all__ = [
    "attribute_distance_columns",
    "cross_distance_matrix",
    "rank_positions",
    "rank_position_columns",
    "distance_based_record_linkage",
    "fractional_correct_links",
    "agreement_pattern_matrix",
    "fit_fellegi_sunter",
    "fit_fellegi_sunter_many",
    "FellegiSunterModel",
    "BatchFellegiSunterModel",
    "probabilistic_record_linkage",
    "rank_compatibility_scores",
    "rank_swapping_record_linkage",
    "blocked_candidate_pairs",
    "blocking_recall",
    "blocked_linkage_rate",
]
