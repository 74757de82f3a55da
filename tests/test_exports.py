"""Every name a fracwave module lists in ``__all__`` exists in it.

``from fracwave.<module> import *`` fails on a stale entry, so a deleted
function must leave its module's ``__all__`` too.
"""

import importlib
import pkgutil

import pytest

import fracwave

MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(fracwave.__path__)
    if hasattr(importlib.import_module(f"fracwave.{info.name}"), "__all__")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"fracwave.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
