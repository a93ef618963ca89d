"""Experiment registry: one declarative entry per paper artifact.

Experiment modules register their ``run`` function with the
:func:`experiment` decorator, declaring the quick/full keyword presets
that used to live in a hand-maintained dict inside ``__main__``.  The
CLI — and any other driver — iterates :func:`names` /
:func:`get` and executes entries through a
:class:`~repro.api.session.Session`, which owns seeding and plan
caching and wraps the output in a :class:`~repro.api.result.Result`.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

__all__ = ["ExperimentDef", "experiment", "get", "names", "load_all", "REGISTRY"]


@dataclass(frozen=True)
class ExperimentDef:
    """A registered experiment: its runner plus CLI presets."""

    name: str
    func: Callable
    module: str
    title: str = ""
    quick: Mapping = field(default_factory=dict)
    full: Mapping = field(default_factory=dict)

    def kwargs(self, quick: bool = False) -> Dict:
        """The preset keyword arguments for a quick or full run."""
        return dict(self.quick if quick else self.full)

    def report(self, payload) -> str:
        """Render *payload* with the defining module's ``report``."""
        module = sys.modules.get(self.module) or importlib.import_module(self.module)
        return module.report(payload)


#: name -> definition, in registration (paper-artifact) order.
REGISTRY: "Dict[str, ExperimentDef]" = {}


def experiment(
    name: str,
    *,
    quick: Optional[Mapping] = None,
    full: Optional[Mapping] = None,
    title: str = "",
) -> Callable:
    """Register the decorated ``run`` function as experiment *name*.

    Re-registration under the same name overwrites (module reloads);
    the function is returned unchanged, so modules keep a plain,
    directly-callable ``run``.
    """

    def decorate(func: Callable) -> Callable:
        REGISTRY[name] = ExperimentDef(
            name=name,
            func=func,
            module=func.__module__,
            title=title,
            quick=dict(quick or {}),
            full=dict(full or {}),
        )
        return func

    return decorate


def load_all() -> None:
    """Import every experiment module so the registry is fully populated."""
    from repro.experiments import ALL_MODULES

    for module in ALL_MODULES:
        importlib.import_module(module)


def names() -> List[str]:
    """Registered experiment names in registration order."""
    return list(REGISTRY)


def get(name: str) -> ExperimentDef:
    """Definition of experiment *name* (KeyError with a hint otherwise)."""
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(names()) or "<registry empty — call load_all()>"
        raise KeyError(f"unknown experiment {name!r}; known: {known}") from None
