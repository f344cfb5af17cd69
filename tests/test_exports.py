import importlib
import pkgutil

import pytest

import rankguard

MODULES = [rankguard] + [
    importlib.import_module(f"rankguard.{info.name}")
    for info in pkgutil.iter_modules(rankguard.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda mod: mod.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_no_two_modules_export_the_same_name():
    # the package star-imports every module, so a shared name would shadow
    owners = {}
    for module in MODULES[1:]:
        for name in getattr(module, "__all__", ()):
            owners.setdefault(name, []).append(module.__name__)
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}


def test_the_package_exports_every_module_export():
    for module in MODULES[1:]:
        for name in getattr(module, "__all__", ()):
            assert name in rankguard.__all__ and getattr(rankguard, name) is getattr(module, name)
