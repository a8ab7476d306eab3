"""On-access re-exports for package ``__init__`` modules.

A package names, per defining module, what it re-exports.  Nothing is
imported until a name is first read, so ``import repro.api`` loads only
the modules a request runs.  A read is never stored in the package's
namespace: each one returns the defining module's current binding, so
the package never keeps a stale copy of a name that a test monkeypatched.
"""

from __future__ import annotations

import sys
from typing import Callable, Mapping

__all__ = ["reexport"]


def reexport(package: str, table: Mapping[str, tuple[str, ...]]
             ) -> tuple[Callable, Callable, list[str]]:
    """``(__getattr__, __dir__, names)`` for ``package``, which re-exports
    ``table[module]`` from each defining ``module``."""
    home = {name: module for module, names in table.items()
            for name in names}

    def __getattr__(name: str):
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        # The import statement's own machinery, unlike
        # importlib.import_module, shows in `python -X importtime`.
        __import__(module)
        return getattr(sys.modules[module], name)

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | home.keys())

    return __getattr__, __dir__, sorted(home)
