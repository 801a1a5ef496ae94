"""Package surface: every exported name resolves."""

import importlib
import pkgutil

import laneformer


def test_every_module_export_resolves():
    stale = []
    for info in pkgutil.iter_modules(laneformer.__path__):
        module = importlib.import_module(f"laneformer.{info.name}")
        stale += [f"{info.name}.{name}" for name in module.__all__ if not hasattr(module, name)]
    assert not stale, f"__all__ names with no definition: {stale}"
