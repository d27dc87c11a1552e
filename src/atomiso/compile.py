"""Translation of expression-level questions into first-order formulas.

Equality of two expression values, membership of a value in a set, and set
inclusion all compile to formulas over the atom vocabulary whose free
variables are exactly the free expression variables involved.  Results are
quantifier-free.  Inclusions are the one memo, keyed by the two sets'
structural keys: an equality of sets is the conjunction of its two
inclusions, so it reads that memo twice (once when the first inclusion
is FALSE), and `is_subset` reads it once.
Equalities and memberships compile on each call; the keys of the calls
nested inside a compile carry fresh binder names, so a memo of theirs
would rarely hit.  A membership or an inclusion runs the backend's
uncached `eliminate`, not its memoising `qe`, so no compiled formula is
held twice.  An equality of atoms is one normalized literal, and an
equality of tuples the conjunction of its components' equalities: nothing
is left to eliminate.

Every memo of a compiler and of its backend lives for one question, the
outermost call of the public API: each function of `atomiso.__all__` that
takes the compiler first is wrapped by `question`, which counts as one
`with comp:` block.  The compiler counts the questions and blocks open on
it and empties the memos when the count returns to 0, also when a
question raises.  A question asked by another question shares its memos,
and so do the calls inside one `with comp:` block.

All bound names are drawn from one supply, `names`, which lives exactly
as long as the memos: `forget` starts it afresh.  No drawn name can be
captured.  Within one memo lifetime the supply is monotone and reserves
the names of every expression it compiles, so a name drawn later never
meets a cached formula's variables.  No cached formula outlives that
lifetime.  And a drawn name is always bound inside the sentence that
draws it, which is eliminated before it is answered, so no drawn name
reaches an answer that a caller keeps into a later question.
"""

import functools
from collections.abc import Iterable
from types import MappingProxyType

from .exprs import (
    Expr,
    as_term,
    clauses,
    expr_names,
    kind,
    rename_clause,
)
from .theories.base import Backend
from .theories.formulas import (
    FALSE,
    Bot,
    Exists,
    Forall,
    Formula,
    Implies,
    NameSource,
    land,
    lor,
    quantify,
)


class Compiler:
    """Holds a backend and, for one question, a fresh-name supply, the
    inclusion memo and the orbit-decomposition memo.  As a context manager
    it opens one question around its block, so that the calls inside share
    the memos."""

    #: always empty and read-only: the benchmark's layer metrics still read
    #: these two names; they go with its next change (ROADMAP item 1)
    _eq_cache = _mem_cache = MappingProxyType({})

    def __init__(self, backend: Backend):
        self.backend = backend
        self.names = NameSource()
        self._sub_cache: dict[tuple, Formula] = {}
        self._orbit_cache: dict[tuple, tuple] = {}
        #: how many questions and `with comp:` blocks are open on this compiler
        self._depth = 0

    def __enter__(self) -> "Compiler":
        self._depth += 1
        return self

    def __exit__(self, *exc) -> None:
        self._depth -= 1
        if not self._depth:
            self.forget()

    def forget(self) -> None:
        """Empty the memos of the compiler and of its backend, and start
        the fresh-name supply afresh."""
        self.names = NameSource()
        self._sub_cache.clear()
        self._orbit_cache.clear()
        self.backend.forget()

    # ------------------------------------------------------------------

    def equal(self, e1: Expr, e2: Expr) -> Formula:
        """Quantifier-free formula stating that e1 and e2 denote the same
        value; values of different kinds are simply never equal.  The first
        FALSE tuple component or inclusion ends the compile."""
        self.names.reserve(expr_names(e1) | expr_names(e2))
        k1, k2 = kind(e1), kind(e2)
        if k1 != k2:
            return FALSE
        if k1 == "atom":
            return self.backend.normalize_literal("=", (as_term(e1), as_term(e2)), True)
        if k1 == "tuple":
            if len(e1.items) != len(e2.items):
                return FALSE
            return conjoin(self.equal(a, b) for a, b in zip(e1.items, e2.items))
        return conjoin(self.subset(a, b) for a, b in ((e1, e2), (e2, e1)))

    def member(self, x: Expr, s: Expr) -> Formula:
        """Quantifier-free formula stating that the value of x belongs to
        the set denoted by s."""
        # exists_elem reserves the names of s
        self.names.reserve(expr_names(x))
        return self.backend.eliminate(self.exists_elem(s, lambda e: self.equal(x, e)))

    def subset(self, s1: Expr, s2: Expr) -> Formula:
        key = (s1.key, s2.key)
        hit = self._sub_cache.get(key)
        if hit is not None:
            return hit
        # forall_elem reserves the names of s1
        self.names.reserve(expr_names(s2))
        out = self.backend.eliminate(self.forall_elem(s1, lambda e: self.member(e, s2)))
        self._sub_cache[key] = out
        return out

    # ------------------------------------------------------------------
    # clause-wise bounded quantification

    def forall_elem(self, s: Expr, body_fn) -> Formula:
        """forall v in s: body_fn(v), unfolded clause by clause.  body_fn
        receives the instantiated element expression and returns a formula."""
        self.names.reserve(expr_names(s))
        parts = []
        for c in clauses(s):
            c2 = rename_clause(c, self.names)
            body = Implies(c2.guard, body_fn(c2.element))
            parts.append(quantify(Forall, c2.binders, body))
        return land(*parts)

    def exists_elem(self, s: Expr, body_fn) -> Formula:
        self.names.reserve(expr_names(s))
        parts = []
        for c in clauses(s):
            c2 = rename_clause(c, self.names)
            body = land(c2.guard, body_fn(c2.element))
            parts.append(quantify(Exists, c2.binders, body))
        return lor(*parts)

    # ------------------------------------------------------------------

    def holds(self, sentence: Formula) -> bool:
        return self.backend.holds(sentence)


def conjoin(parts: Iterable[Formula]) -> Formula:
    """The conjunction of `parts`, compiled one at a time: the first FALSE
    settles it, and the parts after it are not compiled."""
    kept = []
    for part in parts:
        if isinstance(part, Bot):
            return part
        kept.append(part)
    return land(*kept)


def question(fn):
    """fn, whose first argument is a `Compiler`, as one question: a call
    counts as a `with comp:` block, so the compiler's memos are emptied
    when the outermost open question or block on it returns or raises."""

    @functools.wraps(fn)
    def asked(comp: Compiler, *args, **kwargs):
        with comp:
            return fn(comp, *args, **kwargs)

    return asked
