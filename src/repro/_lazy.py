"""Package names that load their module on first use (PEP 562)."""

from __future__ import annotations

import importlib
from typing import Callable, Dict


def lazy_names(namespace: dict, origins: Dict[str, str]) -> Callable:
    """A module ``__getattr__`` that imports ``origins[name]`` on first access.

    ``namespace`` is the package's ``globals()``; a resolved name is bound
    there, so later lookups never reach the hook. ``__all__`` still lists
    every name, and ``from package import *`` resolves each one.
    """

    def __getattr__(name: str):
        try:
            origin = origins[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(origin), name)
        namespace[name] = value
        return value

    return __getattr__
