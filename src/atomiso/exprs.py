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

Every rewrite is one capture-avoiding walk, `subst_expr`, keyed by leaves
(an `EVar` for a free variable, an `AtomParam` for an atom), which rewrites
guards by `formulas.subst`: `instantiate`, `act`, `abstract_params` and
`rename_clause` each call it.  It returns the very node it was given
wherever nothing in it changed, so a rewritten expression shares every
unchanged subtree with its input, and its guards are canonical.  Guards
are read with `formulas.subformulas` (atom occurrences).  `as_term` is the
one conversion of an atom-denoting expression into a formula term.
"""

from weakref import WeakValueDictionary

from .errors import BindingError, DomainError, ValidationError
from .theories.formulas import (
    TRUE,
    Atom,
    Const,
    Formula,
    NameSource,
    Rel,
    Term,
    Var,
    all_names,
    free_vars,
    fresh_name,
    frozen_node,
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


def subst_expr(e: Expr, image: dict[Expr, Expr]) -> Expr:
    """Capture-avoiding substitution keyed by leaves: an `EVar` key
    replaces that free variable and an `AtomParam` key renames that atom,
    guards included, each by the atom-denoting image[key].  A comprehension
    binder, as a guard quantifier in `formulas.subst`, is renamed apart only
    when something under it was replaced and an incoming variable has its
    name.  A subtree that nothing reaches comes back as the same node."""
    return _subst(e, image, None) if image else e


def _terms(image: dict[Expr, Expr]) -> dict[Term, Term]:
    """`image` as the substitution of formula terms that guards receive."""
    return {as_term(k): as_term(v) for k, v in image.items()}


def _subst(e: Expr, image: dict[Expr, Expr], terms: dict[Term, Term] | None) -> Expr:
    """`subst_expr` with the guards' `terms`, built at the first set reached."""
    if isinstance(e, _Leaf):
        return image.get(e, e)
    if isinstance(e, AtomsSet):
        return e
    if isinstance(e, ETuple):
        items = tuple([_subst(i, image, terms) for i in e.items])
        return e if unchanged(items, e.items) else ETuple(items)
    if terms is None:
        terms = _terms(image)
    if isinstance(e, Union):
        cs = tuple([_subst(c, image, terms) for c in e.clauses])
        return e if unchanged(cs, e.clauses) else Union(cs)
    if not isinstance(e, SetComp):
        raise TypeError(f"not an expression: {e!r}")
    shadowed = [k for k in image if isinstance(k, EVar) and k.name in e.binders]
    if shadowed:
        image = {k: v for k, v in image.items() if k not in shadowed}
        terms = _terms(image)
    out = _rebound(e, image, terms, e.binders)
    if out is e:
        return e
    incoming = {x.name for x in image.values() if isinstance(x, EVar)}
    captured = incoming.intersection(e.binders)
    if not captured:
        return out
    used, renamed = incoming.union(expr_names(e)), {}
    for b in e.binders:
        if b in captured:
            renamed[b] = fresh_name(b, used)
            used.add(renamed[b])
    image = {**image, **{EVar(b): EVar(n) for b, n in renamed.items()}}
    return _rebound(e, image, _terms(image), tuple(renamed.get(b, b) for b in e.binders))


def _rebound(c: SetComp, image: dict, terms: dict, binders: tuple[str, ...]) -> SetComp:
    """The clause c with `image` substituted into its element and `terms`
    into its guard, bound by `binders`; c itself when nothing changed."""
    element = _subst(c.element, image, terms)
    guard = subst(c.guard, terms)
    if element is c.element and guard is c.guard and binders is c.binders:
        return c
    return SetComp(element, binders, guard)


def instantiate(e: Expr, valuation: dict[str, Atom]) -> Expr:
    """Replace free expression variables by concrete atoms."""
    return subst_expr(e, {EVar(k): AtomParam(v) for k, v in valuation.items()})


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
    return subst_expr(e, {AtomParam(a): AtomParam(b) for a, b in full.items()})


def abstract_params(e: Expr, mapping: dict[Atom, str]) -> Expr:
    """Replace concrete atoms by expression variables (the reverse of
    instantiation); every occurrence of a mapped atom is rewritten, guards
    included, and a binder that would capture a new variable is renamed
    apart.  Unmapped atoms stay."""
    return subst_expr(e, {AtomParam(a): EVar(n) for a, n in mapping.items()})


def rename_clause(c: SetComp, fresh: NameSource) -> SetComp:
    """The same clause with binders renamed to globally fresh names."""
    if not c.binders:
        return c
    new = tuple(fresh.fresh() for _ in c.binders)
    image = {EVar(b): EVar(n) for b, n in zip(c.binders, new)}
    return _rebound(c, image, _terms(image), new)
