import importlib

import pytest

import opcov


@pytest.mark.parametrize("module", ["opcov." + name for name in opcov.__all__] + ["opcov.cli"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names {missing} that do not exist"
