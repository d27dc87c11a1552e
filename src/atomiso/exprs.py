"""Set-builder expression ASTs.

An expression denotes an atom, a tuple, or a set.  Set values are unions of
comprehensions `{ element | binders in atoms, guard }`; the atom universe,
finite enumerations, and `empty` all normalize into that shape on demand via
`clauses`.  Union nodes canonicalize (sort + dedupe) their clauses at
construction so that syntactic equality of canonical ASTs is stable under
printing and re-parsing.  Each node's structural `key`, which every compile
cache lookup reads, is computed once, at construction, from the keys of its
children, as formula nodes compute theirs, so keys share their sub-tuples.
`expr_names`, which every compile miss reads to reserve names, walks a node
once and keeps the result on it, and so does `free_expr_vars` on a closed
node.  Name sets are shared rather than rebuilt: atoms and the universe
answer the one empty set, `_CLOSED`, and a tuple, clause or union whose
names are those of one of its parts keeps that part's set, so the many
nodes over the same few binders hold few distinct sets.  A tuple or a union
also keeps its shape, `algebra._shape` for no binders: whether it is built
of atoms and tuples, with finite set literals too, or holds any other set,
which tells the literal kernel whether it can answer; and a closed one its
canonical value (`algebra._value`), which the kernel compares.  Other
nodes answer both with no walk, so only tuples and unions carry those two
slots.  The nodes are slotted, as formula nodes are.  The leaves are
interned as formula terms are: `EVar` and `AtomParam` return the one live
node of a name, or of an atom's type and value, from a weak table, and
stay equal by value.  A pickled or copied node is rebuilt through its
constructors, so its key is set again and its leaves are the live ones.

Renaming atoms is one walk, `_map_atoms`, behind both the automorphism
action `act` and the abstraction `abstract_params`; it rewrites guards with
`formulas.map_relations`.  It and `subst_expr_vars` return the very node
they were given wherever nothing in it changed, so a rewritten expression
shares every unchanged subtree with its input.  Guards are read with
`formulas.subformulas` (atom occurrences, binders an abstraction would
capture).  `as_term` is the one conversion of an atom-denoting expression
into a formula term.
"""

from weakref import WeakValueDictionary

from .errors import BindingError, DomainError, ValidationError
from .theories.formulas import (
    TRUE,
    Atom,
    Const,
    Exists,
    Forall,
    Formula,
    NameSource,
    Rel,
    Term,
    Var,
    all_names,
    free_vars,
    frozen_node,
    map_relations,
    rebuilt,
    subformulas,
    subst,
    unchanged,
)


class Expr:
    __slots__ = ("key", "_names", "_free")

    #: set at construction; `expr_names` and `free_expr_vars` fill the others
    key: tuple

    def __reduce__(self):
        # the memo slots are not carried: they refill on first read
        return rebuilt(self)


class _Walked(Expr):
    """A tuple or a union, the nodes whose shape and value take a walk:
    `algebra._shape` and `algebra._value` keep theirs here."""

    __slots__ = ("_shape", "_value")


class _Leaf(Expr):
    """An atom-denoting leaf: one live node per name or atom, kept in its
    class's weak table and filled through setdefault, as the terms
    `formulas.Var` and `Const` are."""

    __slots__ = ("__weakref__",)


_EVARS: "WeakValueDictionary[str, EVar]" = WeakValueDictionary()
_PARAMS: "WeakValueDictionary[tuple, AtomParam]" = WeakValueDictionary()


@frozen_node(init=False)
class EVar(_Leaf):
    """A variable bound by an enclosing comprehension (denotes an atom)."""

    name: str

    def __new__(cls, name: str):
        node = _EVARS.get(name)
        if node is None:
            node = object.__new__(cls)
            object.__setattr__(node, "name", name)
            object.__setattr__(node, "key", ("v", name))
            node = _EVARS.setdefault(name, node)
        return node


@frozen_node(init=False)
class AtomParam(_Leaf):
    """A concrete atom appearing directly in the expression, one node per
    (type, value) as a `Const` is."""

    value: Atom

    def __new__(cls, value: Atom):
        token = (type(value), value)
        node = _PARAMS.get(token)
        if node is None:
            node = object.__new__(cls)
            object.__setattr__(node, "value", value)
            object.__setattr__(node, "key", ("p", value))
            node = _PARAMS.setdefault(token, node)
        return node


@frozen_node()
class AtomsSet(Expr):
    """The set of all atoms."""

    def __post_init__(self):
        object.__setattr__(self, "key", ("A",))


ATOMS = AtomsSet()


@frozen_node()
class ETuple(_Walked):
    items: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValidationError("a tuple needs at least two components")
        object.__setattr__(self, "key", ("t",) + tuple(i.key for i in self.items))


@frozen_node()
class SetComp(Expr):
    """One comprehension clause { element | binders in atoms, guard }."""

    element: Expr
    binders: tuple[str, ...]
    guard: Formula

    def __post_init__(self):
        if len(set(self.binders)) != len(self.binders):
            dup = sorted(b for b in set(self.binders) if self.binders.count(b) > 1)
            raise BindingError(f"duplicate binder: {', '.join(dup)}")
        if not self.binders and self.guard != TRUE:
            raise ValidationError(
                "a comprehension without binders cannot carry a guard"
            )
        object.__setattr__(self, "key", ("s", self.element.key, self.binders, self.guard.key))


@frozen_node()
class Union(_Walked):
    """Union of comprehension clauses; canonically sorted and deduplicated."""

    clauses: tuple[SetComp, ...]

    def __post_init__(self):
        out: list[SetComp] = []
        for c in sorted(self.clauses, key=lambda c: c.key):
            if not isinstance(c, SetComp):
                raise ValidationError("union clauses must be comprehensions")
            # the sort put equal clauses next to each other
            if not out or c.key != out[-1].key:
                out.append(c)
        object.__setattr__(self, "clauses", tuple(out))
        object.__setattr__(self, "key", ("u",) + tuple(c.key for c in self.clauses))


EMPTY = Union(())


def kind(e: Expr) -> str:
    """What an expression denotes: 'atom', 'tuple', or 'set'."""
    if isinstance(e, (EVar, AtomParam)):
        return "atom"
    if isinstance(e, ETuple):
        return "tuple"
    if isinstance(e, (AtomsSet, SetComp, Union)):
        return "set"
    raise TypeError(f"not an expression: {e!r}")


def clauses(e: Expr) -> tuple[SetComp, ...]:
    """A set-denoting expression as comprehension clauses."""
    if isinstance(e, Union):
        return e.clauses
    if isinstance(e, SetComp):
        return (e,)
    if isinstance(e, AtomsSet):
        return (SetComp(EVar("a"), ("a",), TRUE),)
    from .parser import print_expr  # the parser imports this module

    raise ValidationError(f"not a set expression: {print_expr(e)}")


def union_of(*parts: Expr) -> Union:
    """Union of set expressions, normalized to canonical clause form."""
    out: list[SetComp] = []
    for p in parts:
        out.extend(clauses(p))
    return Union(tuple(out))


def expr_params(e: Expr) -> frozenset[Atom]:
    """Every atom occurring in the expression (including guard constants)."""
    return frozenset(param_occurrences(e))


def param_occurrences(e: Expr) -> list[Atom]:
    """Atoms in first-occurrence order of a deterministic pre-order walk,
    guard constants included."""
    seen: dict[Atom, None] = {}

    def walk(x: Expr):
        if isinstance(x, AtomParam):
            seen.setdefault(x.value)
        elif isinstance(x, ETuple):
            for i in x.items:
                walk(i)
        elif isinstance(x, SetComp):
            walk(x.element)
            for g in subformulas(x.guard):
                if isinstance(g, Rel):
                    for t in g.args:
                        if isinstance(t, Const):
                            seen.setdefault(t.value)
        elif isinstance(x, Union):
            for c in x.clauses:
                walk(c)
        elif not isinstance(x, (EVar, AtomsSet)):
            raise TypeError(f"not an expression: {x!r}")

    walk(e)
    return list(seen)


_CLOSED: frozenset[str] = frozenset()


def free_expr_vars(e: Expr) -> frozenset[str]:
    """The expression variables free in e.  A closed tuple, clause or union
    keeps its (shared, empty) result on the node, as `expr_names` keeps its
    names: every query reads it to refuse an open expression."""
    if isinstance(e, EVar):
        return frozenset((e.name,))
    if isinstance(e, (AtomParam, AtomsSet)):
        return _CLOSED
    try:
        return e._free
    except AttributeError:
        pass
    if isinstance(e, ETuple):
        out = frozenset().union(*map(free_expr_vars, e.items))
    elif isinstance(e, SetComp):
        out = (free_expr_vars(e.element) | free_vars(e.guard)).difference(e.binders)
    elif isinstance(e, Union):
        out = frozenset().union(*map(free_expr_vars, e.clauses))
    else:
        raise TypeError(f"not an expression: {e!r}")
    if not out:
        object.__setattr__(e, "_free", _CLOSED)
    return out


def expr_names(e: Expr) -> frozenset[str]:
    """Every variable name appearing anywhere (bound or free), walked once
    per node and kept on it.  Atoms and the universe share `_CLOSED`, and a
    node whose names are one part's shares that part's set."""
    if isinstance(e, (AtomParam, AtomsSet)):
        return _CLOSED
    try:
        return e._names
    except AttributeError:
        pass
    if isinstance(e, EVar):
        out = frozenset((e.name,))
    elif isinstance(e, ETuple):
        out = _shared(list(map(expr_names, e.items)))
    elif isinstance(e, SetComp):
        inner = expr_names(e.element)
        out = inner.union(all_names(e.guard), e.binders)
        if len(out) == len(inner):
            out = inner
    elif isinstance(e, Union):
        out = _shared(list(map(expr_names, e.clauses)))
    else:
        raise TypeError(f"not an expression: {e!r}")
    object.__setattr__(e, "_names", out)
    return out


def _shared(parts: list[frozenset[str]]) -> frozenset[str]:
    """The union of `parts`: the first part that holds all of it, else a
    new set (`_CLOSED` when empty)."""
    out = frozenset().union(*parts)
    for p in parts:
        if len(p) == len(out):
            return p
    return out if out else _CLOSED


def subst_expr_vars(e: Expr, mapping: dict[str, Expr]) -> Expr:
    """Substitute expression variables; shadowed binders are respected.
    Formula guards receive the corresponding term substitution, so mapped
    values there must denote atoms (EVar or AtomParam)."""
    if not mapping:
        return e
    if isinstance(e, EVar):
        return mapping.get(e.name, e)
    if isinstance(e, (AtomParam, AtomsSet)):
        return e
    if isinstance(e, ETuple):
        items = tuple(subst_expr_vars(i, mapping) for i in e.items)
        return e if unchanged(items, e.items) else ETuple(items)
    if isinstance(e, SetComp):
        inner = {k: v for k, v in mapping.items() if k not in e.binders}
        terms = {k: as_term(v) for k, v in inner.items()}
        element = subst_expr_vars(e.element, inner)
        guard = subst(e.guard, terms)
        if element is e.element and guard is e.guard:
            return e
        return SetComp(element, e.binders, guard)
    if isinstance(e, Union):
        cs = tuple(subst_expr_vars(c, mapping) for c in e.clauses)
        return e if unchanged(cs, e.clauses) else Union(cs)
    raise TypeError(f"not an expression: {e!r}")


def instantiate(e: Expr, valuation: dict[str, Atom]) -> Expr:
    """Replace free expression variables by concrete atoms."""
    return subst_expr_vars(e, {k: AtomParam(v) for k, v in valuation.items()})


def as_term(e: Expr) -> Term:
    """The formula term of an atom-denoting expression."""
    if isinstance(e, EVar):
        return Var(e.name)
    if isinstance(e, AtomParam):
        return Const(e.value)
    raise BindingError(f"expected an atom-denoting expression, got {e!r}")


def act(mapping: dict[Atom, Atom], e: Expr) -> Expr:
    """Rename every atom of e through a finite partial automorphism.

    Atoms of e missing from the mapping are kept fixed; the caller-facing
    contract is that the mapping extended with those fixed points must still
    be injective (the backend validates the full automorphism conditions).
    """
    full = {a: a for a in expr_params(e)}
    full.update(mapping)
    if len(set(full.values())) != len(full):
        raise DomainError(
            "atom map cannot fix the missing parameters injectively; extend it first"
        )
    return _map_atoms(e, {a: AtomParam(b) for a, b in full.items()})


def abstract_params(e: Expr, mapping: dict[Atom, str]) -> Expr:
    """Replace concrete atoms by expression variables (the reverse of
    instantiation); every occurrence of a mapped atom is rewritten, guards
    included.  Unmapped atoms stay."""
    return _map_atoms(e, {a: EVar(n) for a, n in mapping.items()})


def _map_atoms(e: Expr, image: dict[Atom, Expr]) -> Expr:
    """e with every atom a in `image` replaced by the atom-denoting image[a],
    guards included; other atoms stay, and so does every node in which no
    atom moved.  An image variable would be captured by a guard quantifier
    binding its name, or by a comprehension binder of its name around an
    atom mapped to it, so both are refused."""
    terms = {a: as_term(x) for a, x in image.items()}
    names = {x.name for x in image.values() if isinstance(x, EVar)}

    def rel(r: Rel) -> Rel:
        args = tuple(terms.get(t.value, t) if isinstance(t, Const) else t for t in r.args)
        return r if unchanged(args, r.args) else Rel(r.name, args)

    def ren(x: Expr) -> Expr:
        if isinstance(x, AtomParam):
            return image.get(x.value, x)
        if isinstance(x, (EVar, AtomsSet)):
            return x
        if isinstance(x, ETuple):
            items = tuple(ren(i) for i in x.items)
            return x if unchanged(items, x.items) else ETuple(items)
        if isinstance(x, SetComp):
            element = ren(x.element)
            if names:
                _refuse_capture(x, names, image)
            guard = map_relations(x.guard, rel)
            if element is x.element and guard is x.guard:
                return x
            return SetComp(element, x.binders, guard)
        if isinstance(x, Union):
            cs = tuple(ren(c) for c in x.clauses)
            return x if unchanged(cs, x.clauses) else Union(cs)
        raise TypeError(f"not an expression: {x!r}")

    return ren(e)


def _refuse_capture(c: SetComp, names: set[str], image: dict[Atom, Expr]) -> None:
    """Raise ValidationError when abstracting the atoms of `image` in the
    clause c would bind one of the new variables `names` inside c."""
    for g in subformulas(c.guard):
        if isinstance(g, (Exists, Forall)) and g.var in names:
            raise ValidationError(
                f"abstraction variable {g.var!r} is already bound in a guard"
            )
    bound = names.intersection(c.binders)
    if bound:
        for a in expr_params(c):
            x = image.get(a)
            if isinstance(x, EVar) and x.name in bound:
                raise ValidationError(
                    f"abstraction variable {x.name!r} is already bound in a comprehension"
                )


def rename_clause(c: SetComp, fresh: NameSource) -> SetComp:
    """The same clause with binders renamed to globally fresh names."""
    if not c.binders:
        return c
    new = tuple(fresh.fresh() for _ in c.binders)
    mapping = {b: EVar(n) for b, n in zip(c.binders, new)}
    element = subst_expr_vars(c.element, mapping)
    guard = subst(c.guard, {b: Var(n) for b, n in zip(c.binders, new)})
    return SetComp(element, new, guard)
