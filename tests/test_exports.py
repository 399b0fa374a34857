"""Every name a package lists in ``__all__`` resolves, so removing a
function cannot leave a dangling export behind."""

import importlib

import pytest


@pytest.mark.parametrize(
    "module", ["chemtext", "chemtext.smiles", "chemtext.fingerprints", "chemtext.harness"]
)
def test_every_name_in_all_resolves(module):
    package = importlib.import_module(module)
    assert [name for name in package.__all__ if not hasattr(package, name)] == []
