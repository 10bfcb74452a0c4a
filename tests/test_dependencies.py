"""Every third-party module the package imports is a declared dependency, and
the declared numpy floor has every numpy function the package calls."""

import ast
import re
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def dependency_specs() -> str:
    """The text of pyproject.toml's [project] dependencies list."""
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^\[project\]$.*?^dependencies\s*=\s*\[(.*?)\]", text,
                      re.MULTILINE | re.DOTALL)
    assert block, "pyproject.toml has no [project] dependencies list"
    return block.group(1)


def declared_dependencies() -> set[str]:
    """Module names of pyproject.toml's [project] dependencies.  Read with a
    regular expression, since tomllib needs Python 3.11 and the package
    supports 3.10."""
    names = re.findall(r"""["']\s*([A-Za-z0-9][A-Za-z0-9._-]*)""", dependency_specs())
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


def version(text: str) -> tuple[int, int, int]:
    """"2.2" as (2, 2, 0), so that it compares equal to "2.2.0"."""
    return (tuple(int(part) for part in text.split(".")) + (0, 0))[:3]


def added_in(obj) -> tuple[int, int, int]:
    """The version of the docstring's own ``versionadded`` note, (0, 0, 0) without one.  Notes
    under the Parameters heading date a parameter, not the function, and are not read."""
    doc = re.split(r"\n\s*Parameters\n\s*-{3,}", getattr(obj, "__doc__", None) or "")[0]
    return max((version(v) for v in re.findall(r"versionadded::\s*(\d+(?:\.\d+)*)", doc)),
               default=(0, 0, 0))


def numpy_features_used() -> dict[str, object]:
    """Each np.<name> (dotted names resolved) and ndarray.mT the package source uses."""
    found = {}
    for path in sorted((ROOT / "src" / "kinematica").rglob("*.py")):
        text = path.read_text()
        for chain in re.findall(r"\bnp\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)", text):
            obj = np
            for part in chain.split("."):
                obj = getattr(obj, part)
            found["np." + chain] = obj
        if re.search(r"\.mT\b", text):
            found["ndarray.mT"] = np.ndarray.mT
    return found


def test_declared_numpy_floor_has_every_numpy_feature_used():
    floor = re.search(r"""["']numpy\s*>=\s*([\d.]+)["']""", dependency_specs())
    assert floor, "pyproject.toml declares no numpy floor"
    used = numpy_features_used()
    assert "np.vecdot" in used and "ndarray.mT" in used  # the scan sees the package's calls
    newer = {name: ".".join(map(str, added_in(obj))) for name, obj in used.items()
             if added_in(obj) > version(floor.group(1))}
    assert not newer, f"numpy>={floor.group(1)} lacks what the package uses: {newer}"


def private_numpy_names(source: str) -> list[str]:
    """Each numpy name with a part that starts with an underscore that the source imports,
    or reads as an attribute chain or a getattr string on a name bound to numpy, dotted
    from numpy.  numpy's private modules (numpy.linalg._umath_linalg, say) skip the checks
    and the dispatch of the public wrappers, and they may change in any release."""
    tree = ast.parse(source)
    bound, found = {}, []  # local name -> the numpy name it holds
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "numpy":
                    found.append(alias.name)
                    bound[alias.asname or "numpy"] = alias.name if alias.asname else "numpy"
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and \
                (node.module or "").partition(".")[0] == "numpy":
            for alias in node.names:
                found.append(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            parts, root = [], node
            while isinstance(root, ast.Attribute):
                parts.append(root.attr)
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append(".".join([bound[root.id], *reversed(parts)]))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
                node.func.id == "getattr" and len(node.args) >= 2 and \
                isinstance(node.args[0], ast.Name) and node.args[0].id in bound and \
                isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str):
            found.append(f"{bound[node.args[0].id]}.{node.args[1].value}")
    return sorted({name for name in found if any(p.startswith("_") for p in name.split("."))})


def test_private_numpy_names_are_seen():
    source = ("import numpy as np\nimport numpy.linalg._umath_linalg\n"
              "from numpy.linalg import _umath_linalg as gufuncs, qr\nfrom numpy import linalg\n"
              "np.linalg._umath_linalg.qr_r_raw(a)\nlinalg._umath_linalg\nnp._core.umath\n"
              "getattr(np, '_NoValue')\nnp.linalg.qr(a).Q._x\nqr(a)\n")
    assert private_numpy_names(source) == [
        "numpy._NoValue", "numpy._core", "numpy._core.umath", "numpy.linalg._umath_linalg",
        "numpy.linalg._umath_linalg.qr_r_raw"]


def test_the_package_uses_no_private_numpy_name():
    found = {path.name: names for path in sorted((ROOT / "src" / "kinematica").rglob("*.py"))
             if (names := private_numpy_names(path.read_text()))}
    assert not found, f"private numpy names used: {found}"
