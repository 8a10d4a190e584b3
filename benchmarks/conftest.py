"""Shared benchmark plumbing.

Every bench regenerates one paper artifact (figure series or in-text
table) and prints the rows the paper plots.  The bench log is the only
record of those rows today: nothing in the repository keeps them, and a
committed reproduction record waits for the paper-claims ledger across
seeds (ROADMAP direction 2).  Generation budgets default to laptop
scale; set ``REPRO_FULL=1`` for 5x longer, closer-to-paper runs, or
``REPRO_BENCH_GENERATIONS=<n>`` to pin them exactly.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments.runner import ExperimentResult, default_generations

#: Machine-readable rows collected by :func:`record_result`; written out
#: as one JSON array when the session was started with ``--json PATH``.
_RESULTS: list[dict] = []


def record_result(bench: str, leg: str, median_seconds: float,
                  ratio: float | None = None,
                  rate: float | None = None,
                  peak_bytes: int | None = None) -> None:
    """Record one bench leg for the ``--json`` artifact.

    Schema (one object per leg): ``{"bench": ..., "leg": ...,
    "median_seconds": ..., "ratio": ..., "rate": ..., "peak_bytes":
    ...}`` — ``ratio`` is the leg's headline comparison (speedup or
    overhead multiple), ``rate`` its throughput in operations per
    second, ``peak_bytes`` its tracemalloc peak (from an untimed pass),
    and each is omitted for legs without one.  CI uploads the array so
    perf runs are diffable across commits without scraping the bench
    log.
    """
    entry: dict[str, object] = {
        "bench": bench,
        "leg": leg,
        "median_seconds": float(median_seconds),
    }
    if ratio is not None:
        entry["ratio"] = float(ratio)
    if rate is not None:
        entry["rate"] = float(rate)
    if peak_bytes is not None:
        entry["peak_bytes"] = int(peak_bytes)
    _RESULTS.append(entry)


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--json", default="", metavar="PATH",
        help="write machine-readable bench results to PATH as a JSON array",
    )


def pytest_sessionfinish(session: pytest.Session, exitstatus: int) -> None:
    path = session.config.getoption("--json", default="")
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(_RESULTS, handle, indent=2, sort_keys=True)
            handle.write("\n")


def bench_generations(fallback: int = 400) -> int:
    """Generation budget for the experiment benches."""
    override = os.environ.get("REPRO_BENCH_GENERATIONS", "")
    if override:
        return int(override)
    return default_generations(fallback)


def emit(title: str, body: str) -> None:
    """Print one labelled report block to the bench log."""
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}\n{body}")


def emit_experiment_reports(
    label: str,
    outcome: ExperimentResult,
    dispersion_figure: int | None = None,
    evolution_figure: int | None = None,
) -> None:
    """Print the dispersion + evolution + improvement reports of one run."""
    from repro.experiments import dispersion_data, render_dispersion, render_evolution, render_improvements

    if dispersion_figure is not None:
        emit(
            f"{label} — paper Figure {dispersion_figure} (dispersion)",
            render_dispersion(dispersion_data(outcome.result), ""),
        )
    if evolution_figure is not None:
        emit(
            f"{label} — paper Figure {evolution_figure} (score evolution)",
            render_evolution(outcome.history, "", max_rows=16),
        )
    emit(f"{label} — in-text improvements", render_improvements(outcome.history, ""))


@pytest.fixture(scope="session")
def flare_max_full_run():
    """One shared full-population Flare run under Eq. 2 (used by E2 + E3)."""
    from repro.experiments import run_experiment2

    return run_experiment2("flare", generations=bench_generations(), seed=42)
