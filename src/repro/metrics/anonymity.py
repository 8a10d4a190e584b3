"""Anonymity-set risk measures (extension beyond the paper's stack).

The paper's §2.3.2 frames disclosure risk as identity disclosure via
record linkage, and mentions *attribute disclosure* (learning an
attribute value without linking a record) as the other family.  This
module supplies the classic anonymity-set measures of both families so
users can extend the fitness function, as the paper's conclusions invite:

* :func:`k_anonymity_level` — the smallest quasi-identifier equivalence
  class in the masked file (the ``k`` of k-anonymity);
* :func:`sample_uniques_share` — fraction of records whose
  quasi-identifier tuple is unique (the classic re-identification
  handle);
* :class:`UniquenessRisk` — sample uniques as a 0-100 bound-measure,
  pluggable into :class:`~repro.metrics.evaluation.ProtectionEvaluator`;
* :class:`AttributeDisclosureRisk` — for a sensitive attribute, the
  expected probability of guessing a record's *original* sensitive value
  from its masked quasi-identifier equivalence class (an l-diversity
  style measure turned into a percentage).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.data.validation import require_attributes
from repro.exceptions import MetricError
from repro.metrics.base import DisclosureRiskMeasure


def _equivalence_classes(dataset: CategoricalDataset, attributes: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """(inverse, counts): class id per record and size per class."""
    columns = require_attributes(dataset, attributes)
    if not columns:
        raise MetricError("equivalence classes need at least one attribute")
    __, inverse, counts = np.unique(
        dataset.narrow_codes[:, columns], axis=0, return_inverse=True, return_counts=True
    )
    return inverse, counts


def k_anonymity_level(dataset: CategoricalDataset, attributes: Sequence[str]) -> int:
    """Size of the smallest quasi-identifier equivalence class.

    A file is k-anonymous (w.r.t. ``attributes``) for every ``k`` up to
    this value.
    """
    __, counts = _equivalence_classes(dataset, attributes)
    return int(counts.min())


def equivalence_class_sizes(dataset: CategoricalDataset, attributes: Sequence[str]) -> np.ndarray:
    """Per-record equivalence class size (ascending-ordered stats ready)."""
    inverse, counts = _equivalence_classes(dataset, attributes)
    return counts[inverse]


def sample_uniques_share(dataset: CategoricalDataset, attributes: Sequence[str]) -> float:
    """Fraction of records whose quasi-identifier tuple appears once (0..1)."""
    return float((equivalence_class_sizes(dataset, attributes) == 1).mean())


def l_diversity_level(
    dataset: CategoricalDataset,
    quasi_identifiers: Sequence[str],
    sensitive: str,
) -> int:
    """Minimum number of distinct sensitive values per equivalence class.

    The distinct-values form of l-diversity: every quasi-identifier
    equivalence class contains at least this many different values of
    the sensitive attribute.
    """
    inverse, counts = _equivalence_classes(dataset, quasi_identifiers)
    (sensitive_column,) = require_attributes(dataset, [sensitive])
    sensitive_values = dataset.column(sensitive_column)
    n_classes = counts.shape[0]
    size = dataset.schema.domain(sensitive_column).size
    seen = np.zeros((n_classes, size), dtype=bool)
    seen[inverse, sensitive_values] = True
    return int(seen.sum(axis=1).min())


class UniquenessRisk(DisclosureRiskMeasure):
    """Share of masked records with a unique quasi-identifier tuple (0-100)."""

    measure_name = "uniqueness"

    def _compute(self, masked: CategoricalDataset) -> float:
        return 100.0 * sample_uniques_share(masked, self.attributes)


class AttributeDisclosureRisk(DisclosureRiskMeasure):
    """Expected success of guessing the original sensitive value (0-100).

    The intruder locates a target's masked equivalence class (by
    quasi-identifier) and guesses the class's most common *original*
    sensitive value.  The measure is the expected fraction of records
    for which that guess is right — 100 means the masked file fully
    reveals the sensitive attribute, ``100/size`` is the blind-guess
    floor for a uniform attribute.

    Parameters
    ----------
    original / attributes:
        As for every bound measure; ``attributes`` are the
        quasi-identifiers.
    sensitive:
        The sensitive attribute (must not be a quasi-identifier).
    """

    measure_name = "attribute_disclosure"

    def __init__(
        self,
        original: CategoricalDataset,
        attributes: Sequence[str],
        sensitive: str,
    ) -> None:
        super().__init__(original, attributes)
        if sensitive in self.attributes:
            raise MetricError(f"sensitive attribute {sensitive!r} is a quasi-identifier")
        (self._sensitive_column,) = require_attributes(original, [sensitive])
        self.sensitive = sensitive

    def _compute(self, masked: CategoricalDataset) -> float:
        inverse, counts = _equivalence_classes(masked, self.attributes)
        sensitive_values = self.original.column(self._sensitive_column)
        size = self.original.schema.domain(self._sensitive_column).size
        n_classes = counts.shape[0]
        # Joint counts: per masked class, distribution of original
        # sensitive values of its members.
        joint = np.zeros((n_classes, size), dtype=np.int64)
        np.add.at(joint, (inverse, sensitive_values), 1)
        # Guessing the modal value succeeds for max-count members of each class.
        successes = joint.max(axis=1).sum()
        return 100.0 * float(successes) / self.original.n_records
