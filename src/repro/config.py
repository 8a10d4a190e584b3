"""What a paper run is, without the science stack.

:class:`ExperimentConfig` specifies one run and
:data:`METRIC_KERNEL_VERSION` names the kernels that score it; together
they fix a job's identity (:mod:`repro.service.job`).  This module
imports no numpy, so queuing a job (``repro submit --detach``) computes
job ids and fingerprints without loading the library.  The experiment
harness (:mod:`repro.experiments.runner`) and the evaluator
(:mod:`repro.metrics.evaluation`) re-export these names.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ExperimentError

#: Version of the metric kernels' *numerical trajectory*, salted into
#: every persistent-cache key.  Bump it whenever a kernel change can
#: move a result by even one ulp (e.g. the EM moving from BLAS matmul
#: to einsum): a stale cache entry differing in the last bit from a
#: fresh computation would otherwise break the bit-identity guarantees
#: (cached vs fresh, resume-across-kill).  Bumping only costs warm
#: caches a recompute.
METRIC_KERNEL_VERSION = 4


@dataclass(frozen=True)
class ExperimentConfig:
    """Full specification of one paper run.

    ``eval_workers`` configures in-run parallel fitness evaluation:
    with ``eval_workers >= 2`` the evaluator fans fresh evaluation
    batches out over that many threads.  Evaluation is pure, so it is a
    throughput knob only — a run's results are bit-identical whatever
    its value (and it is excluded from job fingerprints for the same
    reason).
    """

    dataset: str
    score: str = "max"
    generations: int = 300
    seed: int = 42
    population_seed: int = 0
    drop_best_fraction: float = 0.0
    mutation_probability: float = 0.5
    leader_fraction: float = 0.1
    selection_strategy: str = "proportional"
    eval_workers: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.drop_best_fraction < 1:
            raise ExperimentError(
                f"drop_best_fraction must be in [0, 1), got {self.drop_best_fraction}"
            )
        if self.eval_workers < 0:
            raise ExperimentError(
                f"eval_workers must be >= 0, got {self.eval_workers}"
            )
