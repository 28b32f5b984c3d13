"""Lazy package exports (PEP 562).

A package ``__init__`` maps each submodule to the names it re-exports;
a name's submodule is imported the first time the name is looked up, so
importing one module loads only what that module itself imports.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a submodule, relative to ``package`` (dotted for a
    nested one), to the names it provides. A resolved name is bound on
    the package, so later lookups never come back here.
    """
    owner = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f".{module}", package), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | owner.keys())

    return sorted(owner), __getattr__, __dir__
