"""Every name a maxsurf module exports in ``__all__`` exists, so removing a
function cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import maxsurf

MODULES = sorted(m.name for m in pkgutil.iter_modules(maxsurf.__path__, "maxsurf."))


def test_the_modules_are_found():
    assert {"maxsurf.cli", "maxsurf.extension", "maxsurf.weierstrass"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
