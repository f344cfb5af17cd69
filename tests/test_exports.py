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
