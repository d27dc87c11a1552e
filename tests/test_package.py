"""The package's public surface: the exported names and the README's
library example."""

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
