"""Every exported name resolves, so a deletion cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import hydrodisc

MODULES = ["hydrodisc"] + [
    f"hydrodisc.{info.name}" for info in pkgutil.iter_modules(hydrodisc.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
