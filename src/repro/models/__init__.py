"""Model-based views over cached sensor data.

Section II notes that MauveDB-style model-based views are orthogonal to
COLR-Tree and that "COLR-Tree can maintain a model from its cached
data".  This package implements that composition: a
:class:`ModelView` answers *point* estimates from a model
fitted on the fly to the fresh readings already sitting in the tree's
leaf caches — zero sensor probes, and a loud
:class:`InsufficientSupport` when the cache cannot support an estimate.

Models implement a tiny protocol (fit to ``(location, value)`` samples,
predict at a point); inverse-distance weighting is provided.
"""

from repro.models.interpolation import IDWModel, SpatialModel
from repro.models.view import InsufficientSupport, ModelView

__all__ = [
    "IDWModel",
    "SpatialModel",
    "ModelView",
    "InsufficientSupport",
]
