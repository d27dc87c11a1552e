"""The package's public surface: the exported names and the README's
library example; the imports of every module, which must all be used; the
package's own functions and classes, which the package must all use; and
the names the docs quote, which must all be defined."""

import ast
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import atomiso
import atomiso.theories
from atomiso.parser import KEYWORDS
from atomiso.structures import MODES

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
    or an import, outside their own definition: a recursive helper that
    nothing else calls is unread."""
    defined: list[tuple[str, ast.AST]] = []
    reads: dict[str, list[tuple[str, int]]] = {}  # name -> (path, line)
    for path in sorted(root.rglob("*.py")):
        where = str(path.relative_to(root))
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((where, node))
            elif isinstance(node, (ast.Name, ast.Attribute, ast.alias)):
                name = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}[type(node)]
                reads.setdefault(getattr(node, name), []).append((where, node.lineno))

    def read_outside(where: str, node: ast.AST) -> bool:
        return any(
            path != where or not node.lineno <= line <= node.end_lineno
            for path, line in reads.get(node.name, ())
        )

    return [f"{where}:{node.name}" for where, node in defined if not read_outside(where, node)]


def test_every_definition_is_used_by_the_package():
    # a helper only the tests call, or one a deletion orphaned, shows here
    assert _unread_definitions(ROOT / "src" / "atomiso") == []


# a dotted name, alone or called: `least_support`, `structures.MODES`,
# `least_support(comp, e)`
_NAME_SPAN = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?")


def _defined_names(paths) -> set[str]:
    """Every name the modules at `paths` define: modules, functions,
    classes, parameters, and names and attributes assigned to."""
    names = {"atomiso"}
    for path in paths:
        names.add(path.stem)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
    return names


def _backticked_names(text: str) -> set[str]:
    """The dotted names, alone or called, that backticked spans of text
    consist of."""
    spans = re.findall(r"`([^`\n]+)`", text)
    return {m[1] for s in spans if (m := _NAME_SPAN.fullmatch(s))}


def test_every_backticked_name_is_defined():
    # a helper that is deleted cannot linger in the docs: every name the
    # docstrings, comments and README quote is one the package or the tests
    # define, or a keyword of the expression language, a backend or a mode
    package = sorted((ROOT / "src" / "atomiso").rglob("*.py"))
    defined = _defined_names(package + sorted((ROOT / "tests").glob("*.py")))
    defined |= {*KEYWORDS, *atomiso.theories.backend_names(), *MODES}
    quoted = {"README.md": _backticked_names((ROOT / "README.md").read_text())}
    for path in package:
        with path.open() as f:
            text = [
                t.string
                for t in tokenize.generate_tokens(f.readline)
                if t.type in (tokenize.COMMENT, tokenize.STRING)
            ]
        quoted[str(path.relative_to(ROOT))] = _backticked_names("\n".join(text))
    undefined = {
        where: sorted(n for n in names if not set(n.split(".")) <= defined)
        for where, names in quoted.items()
    }
    assert {where: names for where, names in undefined.items() if names} == {}
