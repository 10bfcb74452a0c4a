import importlib

import pytest

MODULES = ["kinematica"] + [f"kinematica.{name}" for name in
                            ("affine", "classify", "cli", "groups", "isotypic",
                             "matcore", "verify")]


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    # `from kinematica import *` and anything else that walks __all__
    # calls getattr on each name, so a stale entry is an AttributeError.
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
