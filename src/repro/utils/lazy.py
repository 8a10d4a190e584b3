"""PEP 562 lazy exports: a package's public names, imported on first access."""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``__getattr__`` and ``__dir__`` for ``package`` over ``{module: names}``.

    The first access to a name imports its module and caches the value
    on the package, so later accesses are plain attribute reads.
    Unknown names raise :class:`AttributeError`, which lets ``from
    package import submodule`` fall through to the import system.
    """
    module_of = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = module_of.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(module_of))

    return __getattr__, __dir__
