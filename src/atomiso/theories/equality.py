"""The pure-set backend: countably many atoms, equality only.

Atoms are written #0, #1, #2, ...  Orbits of n-tuples correspond to the
partitions of an n-element set, so the orbit count is the Bell number.

Literals are = and != only, so the shared conjunct kernel of base.py
decides consistency by equality classes alone and eliminates by
substitution or by dropping disequalities.  The backend's own hooks are
the literal normal form, the witness candidates (the least ids not yet in
play) and the free blocks of complete types.
"""

import itertools

from ..errors import VocabularyError
from .base import Backend, normalize_equality
from .formulas import (
    Atom,
    Const,
    Formula,
    Term,
    Var,
    eq,
    format_atom_value,
    land,
    lor,
    ne,
)


class EqualityBackend(Backend):
    name = "equality"
    relations = {"=": 2}

    # -- atoms ---------------------------------------------------------

    def check_atom(self, a: Atom) -> None:
        if not isinstance(a, int) or isinstance(a, bool) or a < 0:
            raise VocabularyError(
                f"equality atoms look like #7, got {format_atom_value(a)!r}"
            )

    # -- literals ------------------------------------------------------

    def normalize_literal(self, name: str, args: tuple[Term, ...], positive: bool) -> Formula:
        if name != "=":
            raise VocabularyError(f"relation {name!r} not available over the pure set")
        return normalize_equality(args, positive)

    def _witness_candidates(self, landmarks):
        return _fresh_ids(landmarks)

    # -- types -----------------------------------------------------------

    def _free_block_values(self, k, svals):
        # equality alone arranges nothing: one type, the least fresh ids
        yield tuple(itertools.islice(_fresh_ids(svals), k))

    def _free_block_literals(self, free, svals):
        # each free head differs from every parameter and every other head
        heads = [head for _, head in free]
        lits = [ne(head, Const(s)) for head in heads for s in svals]
        lits += [ne(a, b) for i, a in enumerate(heads) for b in heads[i + 1 :]]
        return lits

    def rn_count(self, n: int) -> int:
        # Bell numbers by the triangle recurrence
        if n == 0:
            return 1
        row = [1]
        for _ in range(n - 1):
            nxt = [row[-1]]
            for x in row:
                nxt.append(nxt[-1] + x)
            row = nxt
        return row[-1]

    # -- independence ------------------------------------------------------

    def independence_formula(self, var: str, avoid, keep) -> Formula:
        v = Var(var)
        outside = land(*(ne(v, Const(s)) for s in sorted(avoid)))
        pins = [eq(v, Const(t)) for t in sorted(keep)]
        return lor(outside, *pins)


def _fresh_ids(skip):
    """The ids not in `skip`, ascending from #1."""
    skip = set(skip)
    i = 1
    while True:
        if i not in skip:
            yield i
        i += 1

