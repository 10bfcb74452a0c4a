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


def _resolve(module, expr):
    """What the name or dotted name expr reads in module's namespace, or None."""
    if isinstance(expr, ast.Attribute):
        return getattr(_resolve(module, expr.value), expr.attr, None)
    return getattr(module, expr.id, None) if isinstance(expr, ast.Name) else None


def test_no_public_function_is_a_second_name_for_another():
    # One door per job: a public function whose body, after its docstring, is a single
    # return of another public function called on its own parameters, in order, or of an
    # item of that call's answer, adds a name and no behaviour.
    modules = [importlib.import_module(name) for name in MODULES[1:]]
    public = {id(getattr(m, name)) for m in modules for name in m.__all__}
    aliases = []
    for module in modules:
        for node in ast.parse(inspect.getsource(module)).body:
            if not isinstance(node, ast.FunctionDef) or node.name not in module.__all__:
                continue
            body = node.body[ast.get_docstring(node) is not None:]
            call = body[0].value if len(body) == 1 and isinstance(body[0], ast.Return) else None
            if isinstance(call, ast.Subscript):  # f(params)[i]
                call = call.value
            if (isinstance(call, ast.Call) and not call.keywords
                    and [getattr(a, "id", None) for a in call.args] == [
                        a.arg for a in node.args.args]
                    and id(_resolve(module, call.func)) in public):
                aliases.append(f"{module.__name__}.{node.name} -> {ast.unparse(call.func)}")
    assert aliases == []


def test_every_value_error_a_test_expects_pins_its_message():
    # A bare pytest.raises(ValueError) passes on any ValueError, numpy's own included, so each
    # one names the message it expects with match=.  A typed refusal keeps its type as its pin.
    bare = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and ast.unparse(node.func) == "pytest.raises"
                    and node.args and ast.unparse(node.args[0]) == "ValueError"
                    and "match" not in {k.arg for k in node.keywords}):
                bare.append(f"{path.name}:{node.lineno}")
    assert bare == []
