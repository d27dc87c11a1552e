"""The kill matrix: mutants of the package that the test suite must kill.

Each entry of `MUTANTS` changes one exact text of one file under `src/`,
which must occur there exactly once, and names the tests that must fail
once it is applied and the CHANGES.md entry it comes from.  An entry with a
`survives` reason is a known survivor: it is run and reported, and does not
fail the run.  A change that removes or rewrites mutated code updates the
entry; `test_package.py` checks that every text still occurs once.

Run from the repository root, one mutant at a time:

    python tests/mutants.py          # every entry
    python tests/mutants.py ID ...   # the named entries

Each entry is applied to a fresh copy of `src/` in a temporary directory,
and pytest runs the entry's tests against that copy with `-x`.  The mutant
is killed when a test fails.  The run exits with 1 when a mutant that is no
known survivor survives, or when pytest cannot run the tests (a missing
test id, a mutant that breaks the import).  pytest does not collect this
file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    id: str
    #: the mutated file, relative to `src/`
    file: str
    text: str
    replacement: str
    #: pytest ids, relative to the repository root
    tests: tuple[str, ...]
    #: the CHANGES.md entry that reported the mutant
    source: str
    #: why a known survivor survives; None for a mutant that must be killed
    survives: str | None = None


_KERNEL = "tests/test_theories.py::test_conjunct_kernel_matches_oracle"
_UNION = "tests/test_theories.py::test_conjuncts_match_the_union_then_check_reference"
_SUPPORT = "tests/test_algebra.py::test_one_inclusion_decides_support_as_the_equality_does"
_LAZY_R = "tests/test_theories.py::test_lazy_r_eliminates_as_the_eager_readings_do"

MUTANTS = (
    Mutant(
        "consistent-no-constant-chain",
        "atomiso/theories/base.py",
        "for p, q in zip(chain, chain[1:]):",
        "for p, q in ():",
        (_KERNEL, _UNION),
        "one stateless consistency kernel",
    ),
    Mutant(
        "consistent-no-ne-check",
        "atomiso/theories/base.py",
        'if lit.body.name == "=":',
        "if False:",
        (_KERNEL, _UNION),
        "one stateless consistency kernel",
    ),
    Mutant(
        "classes-two-constants-meet",
        "atomiso/theories/base.py",
        "if isinstance(b, Const):\n                    return None",
        "if isinstance(b, Const):\n                    pass",
        (_KERNEL, _UNION),
        "one stateless consistency kernel",
    ),
    Mutant(
        "below-inside-memberships",
        "atomiso/algebra.py",
        "        return comp.subset(e1, e2)\n",
        "        return comp.backend.eliminate(comp.forall_elem(e1, lambda a: comp.exists_elem(e2, lambda b: _below(comp, a, b))))\n",
        (_SUPPORT,),
        "a support test of one inclusion",
    ),
    Mutant(
        "support-without-type-guard",
        "atomiso/algebra.py",
        "Implies(t, _below(comp, body, x))",
        "_below(comp, body, x)",
        (_SUPPORT,),
        "a support test of one inclusion",
    ),
    Mutant(
        "not-r-without-a-eq-c",
        "atomiso/theories/cyclic.py",
        "((a, b), (b, c), (a, c))",
        "((a, b), (b, c))",
        (_LAZY_R,),
        "a support test of one inclusion",
    ),
    Mutant(
        "eliminate-without-unfolding",
        "atomiso/theories/base.py",
        "            if cut:\n",
        "            if False:\n",
        (_LAZY_R,),
        "a support test of one inclusion",
    ),
)


def run(m: Mutant) -> str:
    """'killed', 'survived' or 'error' for one mutant, in a fresh copy of
    `src/`."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / m.file
        text = path.read_text()
        if text.count(m.text) != 1:
            return "error"
        path.write_text(text.replace(m.text, m.replacement))
        # the copy replaces `src` on pytest's path, ahead of the checkout
        cmd = [
            sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "-o", f"pythonpath={src}", *m.tests,
        ]
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        code = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True).returncode
    return {0: "survived", 1: "killed"}.get(code, "error")


def main(ids: list[str]) -> int:
    chosen = [m for m in MUTANTS if not ids or m.id in ids]
    unknown = set(ids) - {m.id for m in chosen}
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}")
        return 2
    failed = 0
    for m in chosen:
        outcome = run(m)
        bad = outcome == "error" or (outcome == "survived" and m.survives is None)
        note = f" (known survivor: {m.survives})" if m.survives else ""
        print(f"{m.id}: {outcome}{note}", flush=True)
        failed += bad
    print(f"{len(chosen)} mutants, {failed} failing the run")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
