"""Every name a zsindex module lists in __all__ must exist.

A stale entry makes `from zsindex import *` (or the submodule's) raise,
and no other test imports that way.
"""

import importlib
import pkgutil

import zsindex


def test_every_exported_name_exists():
    modules = [zsindex] + [
        importlib.import_module(f"zsindex.{info.name}")
        for info in pkgutil.iter_modules(zsindex.__path__)
    ]
    assert len(modules) > 1
    missing = [f"{m.__name__}.{name}" for m in modules for name in m.__all__ if not hasattr(m, name)]
    assert missing == []
