import ast
import importlib
import inspect
from pathlib import Path

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


ROOT = Path(__file__).resolve().parents[1]


def _mentions(node) -> set:
    """The names that node reads, as a Name or as an Attribute."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_every_public_function_and_class_has_a_caller_besides_the_tests():
    # A public function or class must be used by the package outside its own
    # body, by a demo or by the benchmark; one that only tests call is dead.
    # The names the acceptance tests import are the documented interface and
    # need no other caller.
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    exempt = {alias.name for node in ast.walk(acceptance) if isinstance(node, ast.ImportFrom)
              and (node.module or "").startswith("kinematica") for alias in node.names}
    statements = {}  # per file: (the name a top-level statement defines, the names it reads)
    for pattern in ("src/kinematica/*.py", "demos/*.py", "perfbench/*.py"):
        for path in ROOT.glob(pattern):
            statements[path] = [(getattr(s, "name", None), _mentions(s))
                                for s in ast.parse(path.read_text()).body]
    unused = []
    for module in map(importlib.import_module, MODULES[1:]):
        home = Path(module.__file__).resolve()
        for name in module.__all__:
            obj = getattr(module, name)
            if (not (inspect.isfunction(obj) or inspect.isclass(obj))
                    or obj.__module__ != module.__name__ or name in exempt):
                continue
            if not any(name in mentions for path, body in statements.items()
                       for owner, mentions in body if not (path == home and owner == name)):
                unused.append(f"{module.__name__}.{name}")
    assert unused == []
