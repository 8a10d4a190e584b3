"""Small shared utilities: RNG plumbing, ASCII tables, timing helpers.

Names resolve on first access (PEP 562): the ASCII tables of ``repro
status`` load without the numpy that RNG plumbing needs.
"""

from repro.utils.lazy import lazy_exports

__all__ = ["as_generator", "spawn_generators", "format_table", "Stopwatch"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.utils.rng": ("as_generator", "spawn_generators"),
    "repro.utils.tables": ("format_table",),
    "repro.utils.timing": ("Stopwatch",),
})
