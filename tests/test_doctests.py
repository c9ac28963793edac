import doctest
import importlib
import pkgutil

import pytest

import fcperm

# every module of the package, so that a new one cannot go unswept
MODULE_NAMES = sorted(f"fcperm.{info.name}" for info in pkgutil.iter_modules(fcperm.__path__))


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_doctests(name):
    # import_module, not attribute access: the package re-exports a few
    # functions whose names shadow their home modules (fcperm.rsk)
    module = importlib.import_module(name)
    failures, _tried = doctest.testmod(module)
    assert failures == 0
