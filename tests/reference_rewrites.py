"""Rewrites that rebuild every node they reach: `reference_map_relations`,
`reference_subst` and `reference_subst_expr`, the reference for the
library's one substitution per layer, which keeps each subtree in which
nothing changed.

They are kept apart from `oracles.py` because the benchmark imports that
module, so every line there is compiled inside the measured process and
shows in its peak memory.
"""

from atomiso.exprs import AtomParam, AtomsSet, ETuple, EVar, Expr, SetComp, Union, as_term
from atomiso.theories.formulas import (
    And,
    Bot,
    Exists,
    Forall,
    Implies,
    Not,
    Or,
    Rel,
    Top,
    Var,
    land,
    lnot,
    lor,
)


def reference_map_relations(f, fn):
    """f with every relation atom r replaced by fn(r), every other node
    rebuilt by its own constructor."""
    if isinstance(f, Rel):
        return fn(f)
    if isinstance(f, (Top, Bot)):
        return f
    if isinstance(f, Not):
        return Not(reference_map_relations(f.body, fn))
    if isinstance(f, (And, Or)):
        return type(f)(tuple(reference_map_relations(g, fn) for g in f.args))
    if isinstance(f, Implies):
        return Implies(
            reference_map_relations(f.premise, fn), reference_map_relations(f.conclusion, fn)
        )
    if isinstance(f, (Exists, Forall)):
        return type(f)(f.var, reference_map_relations(f.body, fn))
    raise TypeError(f"not a formula: {f!r}")


def reference_subst(f, mapping: dict):
    """Substitution keyed by terms (a `Var` key for a free variable, a
    `Const` key for an atom), every connective rebuilt by `land`, `lor` or
    `lnot` and every other node by its constructor."""
    if not mapping or isinstance(f, (Top, Bot)):
        return f
    if isinstance(f, Rel):
        return Rel(f.name, tuple(mapping.get(t, t) for t in f.args))
    if isinstance(f, Not):
        return lnot(reference_subst(f.body, mapping))
    if isinstance(f, And):
        return land(*(reference_subst(g, mapping) for g in f.args))
    if isinstance(f, Or):
        return lor(*(reference_subst(g, mapping) for g in f.args))
    if isinstance(f, Implies):
        return Implies(reference_subst(f.premise, mapping), reference_subst(f.conclusion, mapping))
    if isinstance(f, (Exists, Forall)):
        # the library renames a binder that an incoming variable would meet;
        # callers of this reference pass mappings that never do
        inner = {k: v for k, v in mapping.items() if k != Var(f.var)}
        assert Var(f.var) not in inner.values()
        return type(f)(f.var, reference_subst(f.body, inner))
    raise TypeError(f"not a formula: {f!r}")


def reference_subst_expr(e: Expr, image: dict) -> Expr:
    """Substitution keyed by leaves (an `EVar` key for a free variable, an
    `AtomParam` key for an atom), every node rebuilt."""
    if not image:
        return e
    if isinstance(e, (EVar, AtomParam)):
        return image.get(e, e)
    if isinstance(e, AtomsSet):
        return e
    if isinstance(e, ETuple):
        return ETuple(tuple(reference_subst_expr(i, image) for i in e.items))
    if isinstance(e, SetComp):
        inner = {k: v for k, v in image.items() if k not in map(EVar, e.binders)}
        # as for guard quantifiers, callers never pass a binder's name in
        assert not {x for x in inner.values() if isinstance(x, EVar)} & set(map(EVar, e.binders))
        terms = {as_term(k): as_term(v) for k, v in inner.items()}
        return SetComp(reference_subst_expr(e.element, inner), e.binders, reference_subst(e.guard, terms))
    if isinstance(e, Union):
        return Union(tuple(reference_subst_expr(c, image) for c in e.clauses))
    raise TypeError(f"not an expression: {e!r}")
