import doctest
import importlib

import pytest

MODULE_NAMES = [
    "fcperm.permutations",
    "fcperm.patterns",
    "fcperm.words",
    "fcperm.heaps",
    "fcperm.rsk",
    "fcperm.crowding",
    "fcperm.weak_order",
    "fcperm.checks",
]


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_doctests(name):
    # import_module, not attribute access: the package re-exports a few
    # functions whose names shadow their home modules (fcperm.rsk)
    module = importlib.import_module(name)
    failures, _tried = doctest.testmod(module)
    assert failures == 0
