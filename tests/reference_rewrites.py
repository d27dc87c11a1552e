"""Rewrites that rebuild every node they reach: `reference_map_relations`,
`reference_subst`, `reference_subst_expr_vars` and `reference_map_atoms`,
the reference for the library's rewrites, which keep each subtree in which
nothing changed.

They are kept apart from `oracles.py` because the benchmark imports that
module, so every line there is compiled inside the measured process and
shows in its peak memory.
"""

from atomiso.exprs import AtomParam, AtomsSet, ETuple, EVar, Expr, SetComp, Union
from atomiso.theories.formulas import (
    And,
    Bot,
    Const,
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
    """Capture-avoiding substitution, every connective rebuilt by `land`,
    `lor` or `lnot` and every other node by its constructor."""
    if not mapping or isinstance(f, (Top, Bot)):
        return f
    if isinstance(f, Rel):
        return Rel(f.name, tuple(mapping.get(t.name, t) if isinstance(t, Var) else t for t in f.args))
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
        inner = {k: v for k, v in mapping.items() if k != f.var}
        assert f.var not in {v.name for v in inner.values() if isinstance(v, Var)}
        return type(f)(f.var, reference_subst(f.body, inner))
    raise TypeError(f"not a formula: {f!r}")


def reference_subst_expr_vars(e: Expr, mapping: dict) -> Expr:
    """Substitution of expression variables, every node rebuilt."""
    if not mapping:
        return e
    if isinstance(e, EVar):
        return mapping.get(e.name, e)
    if isinstance(e, (AtomParam, AtomsSet)):
        return e
    if isinstance(e, ETuple):
        return ETuple(tuple(reference_subst_expr_vars(i, mapping) for i in e.items))
    if isinstance(e, SetComp):
        inner = {k: v for k, v in mapping.items() if k not in e.binders}
        terms = {k: Var(v.name) if isinstance(v, EVar) else Const(v.value) for k, v in inner.items()}
        return SetComp(
            reference_subst_expr_vars(e.element, inner), e.binders, reference_subst(e.guard, terms)
        )
    if isinstance(e, Union):
        return Union(tuple(reference_subst_expr_vars(c, mapping) for c in e.clauses))
    raise TypeError(f"not an expression: {e!r}")


def reference_map_atoms(e: Expr, image: dict) -> Expr:
    """e with every atom a in `image` replaced by the atom-denoting
    image[a], guards included, every node rebuilt."""
    terms = {a: Var(x.name) if isinstance(x, EVar) else Const(x.value) for a, x in image.items()}

    def rel(r):
        return Rel(r.name, tuple(terms.get(t.value, t) if isinstance(t, Const) else t for t in r.args))

    def ren(x):
        if isinstance(x, AtomParam):
            return image.get(x.value, x)
        if isinstance(x, (EVar, AtomsSet)):
            return x
        if isinstance(x, ETuple):
            return ETuple(tuple(ren(i) for i in x.items))
        if isinstance(x, SetComp):
            return SetComp(ren(x.element), x.binders, reference_map_relations(x.guard, rel))
        if isinstance(x, Union):
            return Union(tuple(ren(c) for c in x.clauses))
        raise TypeError(f"not an expression: {x!r}")

    return ren(e)
