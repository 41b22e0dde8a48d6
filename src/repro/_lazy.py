"""Package re-exports that import on first read (PEP 562).

Each package ``__init__`` hands :func:`exports` its public names, keyed by
the submodule that defines them, and gets back its ``__all__`` and the
loader its module ``__getattr__`` calls.  Importing a package therefore
imports none of its submodules: reading ``repro.sta.STAAnalyzer`` imports
:mod:`repro.sta.analyzer` and what it needs, nothing else.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Any, Callable, List, Mapping, Sequence, Tuple


class _Package(types.ModuleType):
    """A package whose exports win over same-named submodules.

    The import system binds a submodule on its package when the submodule
    is first imported.  ``repro.clocktree.htree`` names both a submodule
    and the function the package exports from it, so the package drops
    that binding for any name in ``__all__``: ``repro.clocktree.htree``
    stays the function whichever of the two is imported first.
    """

    def __setattr__(self, name: str, value: Any) -> None:
        if isinstance(value, types.ModuleType) and name in vars(self).get("__all__", ()):
            return
        super().__setattr__(name, value)


def exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], Any]]:
    """``(__all__, load)`` for ``package``, called from its ``__init__``.

    ``table`` maps each defining submodule, relative to ``package``, to the
    names it exports.  ``load(name)`` imports that submodule and binds the
    value on the package, so the next read is a plain attribute hit, and
    code that swaps the attribute with ``setattr`` and later restores it
    (as the traced benchmark does) works as on any module.
    """
    owners = {name: module for module, names in table.items() for name in names}
    pkg = sys.modules[package]
    pkg.__class__ = _Package

    def load(name: str) -> Any:
        if name not in owners:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{owners[name]}"), name)
        setattr(pkg, name, value)
        return value

    return list(owners), load
