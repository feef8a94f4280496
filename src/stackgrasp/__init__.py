"""Grasp detection, stacking-order reasoning, and grasp execution for
cluttered tabletop scenes, plus a seeded simulator and evaluation tools.

Importing the package loads every module but ``simulation`` and
``execution``, the two that need numpy; each of those is imported on its
first use, as ``stackgrasp.simulation`` or ``from stackgrasp import
execution``. So ``plan``, ``eval`` and ``augment`` never load numpy."""

import importlib

from . import anchors, dataset, evaluation, geometry, losses, perception, reasoning

__version__ = "0.1.0"

_ON_FIRST_USE = ("execution", "simulation")


def __getattr__(name: str):
    if name in _ON_FIRST_USE:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
