"""The package's public surface: the exported names and the README's
library example; the imports of every module, which must all be used; and
the package's own functions and classes, which the package must all use."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import atomiso
import atomiso.theories

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("module", [atomiso, atomiso.theories], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


def test_the_readme_example_runs():
    # the README's one python block, run as a script; each print line ends
    # in a comment giving what it prints
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    want = [m.strip() for m in re.findall(r"^print\(.*#(.*)$", block, re.M)]
    assert want == ["frozenset()", "1", "NOT_FOUND"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", block], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == want


def _unused_imports(path: Path) -> list[str]:
    """The names the module's top-level imports bind that no name in the
    module reads."""
    tree = ast.parse(path.read_text())
    bound = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_no_module_imports_a_name_it_does_not_use():
    # a package __init__ imports names to export them
    paths = [p for p in (ROOT / "src" / "atomiso").rglob("*.py") if p.name != "__init__.py"]
    paths += (ROOT / "tests").glob("*.py")
    unused = {
        str(p.relative_to(ROOT)): names for p in sorted(paths) if (names := _unused_imports(p))
    }
    assert unused == {}


def _unread_definitions(root: Path) -> list[str]:
    """The functions and classes defined under `root`, special methods
    aside, whose names nothing under `root` reads as a name, an attribute
    or an import."""
    defined: list[tuple[str, str]] = []
    read: set[str] = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((str(path.relative_to(root)), node.name))
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [f"{path}:{name}" for path, name in defined if name not in read]


def test_every_definition_is_used_by_the_package():
    # a helper only the tests call, or one a deletion orphaned, shows here
    assert _unread_definitions(ROOT / "src" / "atomiso") == []
