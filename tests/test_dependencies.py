"""Every third-party module the package imports is a declared dependency."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def declared_dependencies() -> set[str]:
    """Module names of pyproject.toml's [project] dependencies.  Read with a
    regular expression, since tomllib needs Python 3.11 and the package
    supports 3.10."""
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^\[project\]$.*?^dependencies\s*=\s*\[(.*?)\]", text,
                      re.MULTILINE | re.DOTALL)
    assert block, "pyproject.toml has no [project] dependencies list"
    names = re.findall(r"""["']\s*([A-Za-z0-9][A-Za-z0-9._-]*)""", block.group(1))
    return {name.lower().replace("-", "_").replace(".", "_") for name in names}


def imported_third_party() -> dict[str, str]:
    """Top-level name of each absolute import under src/kinematica that is
    neither the standard library nor the package itself, with a file that
    imports it."""
    found = {}
    for path in sorted((ROOT / "src" / "kinematica").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names and top != "kinematica":
                    found.setdefault(top, path.name)
    return found


def test_declared_dependencies_are_read():
    assert {"numpy", "orjson"} <= declared_dependencies()


def test_every_third_party_import_is_declared():
    imported = imported_third_party()
    assert "numpy" in imported  # the scan sees the package's imports
    undeclared = {name: where for name, where in imported.items()
                  if name.lower() not in declared_dependencies()}
    assert not undeclared, f"imported but not in pyproject.toml dependencies: {undeclared}"
