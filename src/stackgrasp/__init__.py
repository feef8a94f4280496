"""Grasp detection, stacking-order reasoning, and grasp execution for
cluttered tabletop scenes, plus a seeded simulator and evaluation tools."""

from . import (
    anchors,
    dataset,
    evaluation,
    execution,
    geometry,
    losses,
    perception,
    reasoning,
    simulation,
)

__version__ = "0.1.0"
