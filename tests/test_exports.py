"""The public API: every name a zsindex module lists in __all__ must exist,
and the package re-exports each library module's __all__, nothing else.

A stale entry makes `from zsindex import *` (or the submodule's) raise,
and no other test imports that way.
"""

import importlib
import pkgutil

import zsindex
from zsindex import certify, cli, enumeration, harness, normalform, subgroup, zseq

LIBRARY = (zseq, enumeration, normalform, certify, subgroup, harness)


def test_every_exported_name_exists():
    modules = [zsindex] + [
        importlib.import_module(f"zsindex.{info.name}")
        for info in pkgutil.iter_modules(zsindex.__path__)
    ]
    assert len(modules) > 1
    missing = [f"{m.__name__}.{name}" for m in modules for name in m.__all__ if not hasattr(m, name)]
    assert missing == []


def test_the_package_reexports_each_library_modules_all_once():
    # A new module is either re-exported here or, like cli, named as left out.
    names = {info.name for info in pkgutil.iter_modules(zsindex.__path__)}
    assert names == {m.__name__.rpartition(".")[2] for m in LIBRARY} | {"cli"}
    owners = [(name, module) for module in LIBRARY for name in module.__all__]
    assert sorted(zsindex.__all__) == sorted(name for name, _ in owners)
    assert len(set(zsindex.__all__)) == len(zsindex.__all__)
    for name, module in owners:
        assert getattr(zsindex, name) is getattr(module, name), name


def test_the_cli_is_not_reexported():
    assert not set(cli.__all__) & set(zsindex.__all__)
    assert not [name for name in cli.__all__ if hasattr(zsindex, name)]
