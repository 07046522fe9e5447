"""Every exported name resolves, so a deleted function cannot stay exported."""

import importlib
import pkgutil

import pytest

import capsroute

MODULES = [capsroute.__name__] + [
    f"{capsroute.__name__}.{info.name}" for info in pkgutil.iter_modules(capsroute.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []
