"""Model registry: the models one server process serves, by name.

A SPIRE model is the minimum over per-metric piecewise-linear rooflines,
a few hundred breakpoints at paper scale, so a server keeps every model
it serves in memory as the :class:`~repro.core.ensemble.SpireModel` it
was given.  Models are installed when the server starts: from
``spire serve --model name=path``, from the ``<name>.json`` files of the
optional store directory (see :class:`~repro.serve.server.SpireServer`),
or by :meth:`ModelRegistry.install` before ``start()``.  Request names
are only ever dictionary keys; none reaches the filesystem.
"""

from __future__ import annotations

from repro.core.ensemble import SpireModel
from repro.errors import DataError

__all__ = ["ModelRegistry"]


class ModelRegistry:
    """Installed models by name, with lookup counters for ``/health``."""

    def __init__(self):
        self._models: "dict[str, SpireModel]" = {}
        self.hits = 0
        self.misses = 0

    def install(self, name: str, model: SpireModel) -> None:
        """Serve ``model`` as ``name``, replacing any model of that name."""
        self._models[name] = model

    def names(self) -> "list[str]":
        return sorted(self._models)

    def has(self, name: str) -> bool:
        return name in self._models

    def get(self, name: str) -> SpireModel:
        """The model installed as ``name``; ``DataError`` if there is none."""
        model = self._models.get(name)
        if model is None:
            self.misses += 1
            raise DataError(f"no model named {name!r}")
        self.hits += 1
        return model

    def snapshot(self) -> dict:
        """Counters for ``serve_state`` (see :mod:`repro.serve.stats`)."""
        return {"models": self.names(), "hits": self.hits, "misses": self.misses}
