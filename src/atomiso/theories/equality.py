"""The pure-set backend: countably many atoms, equality only.

Atoms are written #0, #1, #2, ...  Orbits of n-tuples correspond to the
partitions of an n-element set, so the orbit count is the Bell number.
"""

import itertools
import re

from ..errors import VocabularyError
from .base import Backend, Valuation, pinned_classes
from .formulas import (
    FALSE,
    TRUE,
    Atom,
    Const,
    Formula,
    Not,
    Rel,
    Term,
    Var,
    eq,
    free_vars,
    land,
    lor,
    ne,
)

_ATOM_RE = re.compile(r"#(\d+)$")


class EqualityBackend(Backend):
    name = "equality"
    relations = {"=": 2}

    # -- atoms ---------------------------------------------------------

    def parse_atom(self, text: str) -> Atom:
        m = _ATOM_RE.match(text.strip())
        if not m:
            raise VocabularyError(f"equality atoms look like #7, got {text!r}")
        return int(m.group(1))

    def format_atom(self, a: Atom) -> str:
        return f"#{a}"

    def check_atom(self, a: Atom) -> None:
        if not isinstance(a, int) or isinstance(a, bool) or a < 0:
            raise VocabularyError(f"equality atoms are natural numbers, got {a!r}")

    # -- literals ------------------------------------------------------

    def normalize_literal(self, name: str, args: tuple[Term, ...], positive: bool) -> Formula:
        if name != "=":
            raise VocabularyError(f"relation {name!r} not available over the pure set")
        a, b = args
        if a == b:
            return TRUE if positive else FALSE
        if isinstance(a, Const) and isinstance(b, Const):
            return TRUE if (a.value == b.value) == positive else FALSE
        if b.key < a.key:
            a, b = b, a
        lit = Rel("=", (a, b))
        return lit if positive else Not(lit)

    # -- conjunct hooks --------------------------------------------------

    def conjunct_consistent(self, lits) -> bool:
        flat, members, ok = pinned_classes(lits)
        if not ok:
            return False
        for lit in lits:
            if isinstance(lit, Not):
                a, b = lit.body.args
                if flat.get(a, a) == flat.get(b, b):
                    return False
        return True

    def eliminate_from_conjunct(self, var: str, lits: frozenset[Formula]) -> Formula:
        v = Var(var)
        for lit in sorted(lits, key=lambda l: l.key):
            if isinstance(lit, Rel) and v in lit.args:
                other = lit.args[1] if lit.args[0] == v else lit.args[0]
                rest = []
                for l in lits:
                    if l is lit:
                        continue
                    rest.append(self._subst_literal(l, var, other))
                return land(*rest)
        keep = [l for l in lits if var not in free_vars(l)]
        return land(*keep)

    def _subst_literal(self, lit: Formula, var: str, term: Term) -> Formula:
        positive = isinstance(lit, Rel)
        rel = lit if positive else lit.body
        args = tuple(term if t == Var(var) else t for t in rel.args)
        return self.normalize_literal(rel.name, args, positive)

    # -- witnesses -------------------------------------------------------

    def conjunct_witness(self, lits, fvs: list[str], params: list[Atom]) -> Valuation | None:
        terms = {Var(v) for v in fvs}
        for lit in lits:
            rel = lit if isinstance(lit, Rel) else lit.body
            terms.update(rel.args)
        eqs = [l for l in lits if isinstance(l, Rel)]
        flat, members, ok = pinned_classes(list(eqs) + [eq(t, t) for t in terms])
        if not ok:
            return None

        def root(t: Term) -> Term:
            return flat.get(t, t)

        neighbours: dict[Term, set[Term]] = {}
        for lit in lits:
            if isinstance(lit, Not):
                a, b = (root(t) for t in lit.body.args)
                if a == b:
                    return None
                neighbours.setdefault(a, set()).add(b)
                neighbours.setdefault(b, set()).add(a)

        assigned: dict[Term, Atom] = {}
        for cls, mem in members.items():
            consts = [m.value for m in mem if isinstance(m, Const)]
            if consts:
                assigned[cls] = consts[0]
        order = sorted(
            (c for c in members if c not in assigned),
            key=lambda c: min(m.name for m in members[c] if isinstance(m, Var)),
        )
        for cls in order:
            taken = {
                assigned[nb] for nb in neighbours.get(cls, ()) if nb in assigned
            }
            value = None
            for cand in itertools.chain(params, _fresh_ids(params)):
                if cand not in taken:
                    value = cand
                    break
            assigned[cls] = value
        return {v: assigned[root(Var(v))] for v in fvs}

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

    def independent_atoms(self, params, n: int):
        return tuple(itertools.islice(_fresh_ids(params), n))

    def independence_formula(self, var: str, avoid, keep) -> Formula:
        v = Var(var)
        outside = land(*(ne(v, Const(s)) for s in sorted(avoid)))
        pins = [eq(v, Const(t)) for t in sorted(keep)]
        return lor(outside, *pins)

    # -- partial automorphisms ---------------------------------------------

    def _preserves_relations(self, mapping) -> bool:
        return True  # injectivity is checked by the caller

    def _extension_constraints(self, a, mapping):
        return []  # distinctness from existing images is the only constraint


def _fresh_ids(skip):
    """The ids not in `skip`, ascending from #1."""
    skip = set(skip)
    i = 1
    while True:
        if i not in skip:
            yield i
        i += 1

