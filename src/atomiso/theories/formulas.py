"""First-order formulas over a relational atom vocabulary.

Terms are variables or concrete atoms (ints for the pure-set backend,
Fractions for the ordered backends).  Formulas are immutable; conjunction
and disjunction are n-ary and kept flattened, deduplicated, and sorted by a
structural key.

Every node (term or formula) is a slotted frozen dataclass that computes its
structural `key` and its hash once, at construction, from the cached keys
and hashes of its children; atoms are hashed once, in their `Const`.  Terms
are interned: `Var` and `Const` return the one live node of a name, or of
an atom's type and value, from a weak table, so a term that nothing holds
any more leaves it.  A `Var` is equal only to itself and hashed by
identity, so the dictionaries of the conjunct kernel look variables up
without a Python-level call; a `Const` stays equal by value, an int to an
equal Fraction.  A formula node is equal to another when their keys are
equal, so formulas built along different paths compare and hash equal, and
`key` order is the sort order of `land`/`lor`.  The cached hash of a
compound node is built from its children's cached hashes, never from a
variable's identity, so it does not depend on which node was built first.
A pickled node is rebuilt through its constructor, so a hash never travels
between processes (string hashes differ per process), and a pickled or
copied term is the live one.

One traversal reads every node, `subformulas` (vocabulary checks, the
atoms a formula mentions), and one rewrites, `subst`, keyed by terms: a
`Var` key substitutes that free variable and a `Const` key renames that
atom, so instantiation, atom renaming and the abstraction of atoms by
variables are one capture-avoiding walk.  Walks that only read binders
(`free_vars`, `all_names`) keep their own recursion, and so does the one
walk that handles polarity, the backends' normal form `Backend._nf`.
`subst` rebuilds connectives through `land`, `lor` and `lnot`, so its
results are canonical, and returns the very node it was given wherever
nothing in it changed (`unchanged` compares the rewritten children with
the originals by identity), so its results share every unchanged subtree
with their input.
"""

from dataclasses import FrozenInstanceError, dataclass, fields
from fractions import Fraction
from operator import attrgetter, is_
from typing import Iterable, Iterator, Union
from weakref import WeakValueDictionary

Atom = Union[int, Fraction]


def format_atom_value(v) -> str:
    """The literal an atom is written as: #7 for an equality atom, 2, -1 or
    5/3 for an ordered one."""
    if isinstance(v, int):
        return f"#{v}"
    return str(v)


class _Node:
    """Cached structural `key` and hash; equality by key."""

    __slots__ = ("key", "_hash")

    def _set_key(self, key: tuple, h: int) -> None:
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_hash", h)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, _Node):
            return NotImplemented
        return self._hash == other._hash and self.key == other.key

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return rebuilt(self)


def rebuilt(node) -> tuple:
    """The pickle and copy reduction of a frozen node: its class and its
    fields, so that a copy is built by the constructor, which sets its
    cached key (and hash) again and returns an interned leaf's live node."""
    return type(node), tuple(getattr(node, f.name) for f in fields(node))


def _refuse_set(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_del(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def frozen_node(**options):
    """A frozen slotted dataclass with `options`, whose every assignment
    and deletion raises FrozenInstanceError.  The frozen `__setattr__` and
    `__delattr__` that dataclass writes call super() with the class that
    slots=True replaces, so for a name that is not a field they raised
    TypeError instead."""

    def make(cls):
        cls = dataclass(frozen=True, slots=True, **options)(cls)
        cls.__setattr__ = _refuse_set
        cls.__delattr__ = _refuse_del
        return cls

    return make


_node = frozen_node(eq=False)


class _Term(_Node):
    """A term: one live node per name or atom, kept in its class's weak
    table and filled through setdefault, so that a term never has two
    live nodes."""

    __slots__ = ("__weakref__",)


_VARS: "WeakValueDictionary[str, Var]" = WeakValueDictionary()
_CONSTS: "WeakValueDictionary[tuple, Const]" = WeakValueDictionary()


@frozen_node(eq=False, init=False)
class Var(_Term):
    """A variable, equal only to itself: its one node per name."""

    name: str

    def __new__(cls, name: str):
        node = _VARS.get(name)
        if node is None:
            node = object.__new__(cls)
            object.__setattr__(node, "name", name)
            key = ("v", name)
            node._set_key(key, hash(key))
            node = _VARS.setdefault(name, node)
        return node

    __eq__ = object.__eq__
    __hash__ = object.__hash__


@frozen_node(eq=False, init=False)
class Const(_Term):
    """An atom, one node per (type, value) and equal by value, so that an
    int and an equal Fraction still compare and hash equal."""

    value: Atom

    def __new__(cls, value: Atom):
        token = (type(value), value)
        node = _CONSTS.get(token)
        if node is None:
            node = object.__new__(cls)
            object.__setattr__(node, "value", value)
            key = ("c", value)
            node._set_key(key, hash(key))
            node = _CONSTS.setdefault(token, node)
        return node


Term = Union[Var, Const]


class Formula(_Node):
    """Base class; subclasses are slotted frozen dataclasses whose `key` and
    hash are set at construction."""

    __slots__ = ()


@_node
class Top(Formula):
    def __post_init__(self):
        self._set_key(("1",), hash(("1",)))


@_node
class Bot(Formula):
    def __post_init__(self):
        self._set_key(("0",), hash(("0",)))


TRUE = Top()
FALSE = Bot()
_KEY = attrgetter("key")
_HASH = attrgetter("_hash")


@_node
class Rel(Formula):
    name: str
    args: tuple[Term, ...]

    def __post_init__(self):
        name, args = self.name, self.args
        self._set_key(("r", name, *map(_KEY, args)), hash(("r", name, *map(_HASH, args))))


@_node
class Not(Formula):
    body: Formula

    def __post_init__(self):
        self._set_key(("n", self.body.key), hash(("n", self.body._hash)))


@_node
class And(Formula):
    args: tuple[Formula, ...]

    def __post_init__(self):
        args = self.args
        self._set_key(("a", *map(_KEY, args)), hash(("a", *map(_HASH, args))))


@_node
class Or(Formula):
    args: tuple[Formula, ...]

    def __post_init__(self):
        args = self.args
        self._set_key(("o", *map(_KEY, args)), hash(("o", *map(_HASH, args))))


@_node
class Implies(Formula):
    premise: Formula
    conclusion: Formula

    def __post_init__(self):
        self._set_key(
            ("i", self.premise.key, self.conclusion.key),
            hash(("i", self.premise._hash, self.conclusion._hash)),
        )


@_node
class Exists(Formula):
    var: str
    body: Formula

    def __post_init__(self):
        self._set_key(
            ("e", self.var, self.body.key), hash(("e", self.var, self.body._hash))
        )


@_node
class Forall(Formula):
    var: str
    body: Formula

    def __post_init__(self):
        self._set_key(
            ("f", self.var, self.body.key), hash(("f", self.var, self.body._hash))
        )


def eq(a: Term, b: Term) -> Formula:
    return Rel("=", (a, b))


def ne(a: Term, b: Term) -> Formula:
    return Not(Rel("=", (a, b)))


def lt(a: Term, b: Term) -> Formula:
    return Rel("<", (a, b))


def cyc(a: Term, b: Term, c: Term) -> Formula:
    return Rel("R", (a, b, c))


def land(*parts: Formula) -> Formula:
    """Flattened, deduplicated, sorted conjunction."""
    seen: dict[Formula, None] = {}
    for p in _flatten(parts, And):
        if isinstance(p, Bot):
            return FALSE
        if not isinstance(p, Top):
            seen[p] = None
    if not seen:
        return TRUE
    if len(seen) == 1:
        return next(iter(seen))
    return And(tuple(sorted(seen, key=_KEY)))


def lor(*parts: Formula) -> Formula:
    """Flattened, deduplicated, sorted disjunction."""
    seen: dict[Formula, None] = {}
    for p in _flatten(parts, Or):
        if isinstance(p, Top):
            return TRUE
        if not isinstance(p, Bot):
            seen[p] = None
    if not seen:
        return FALSE
    if len(seen) == 1:
        return next(iter(seen))
    return Or(tuple(sorted(seen, key=_KEY)))


def lnot(f: Formula) -> Formula:
    if isinstance(f, Top):
        return FALSE
    if isinstance(f, Bot):
        return TRUE
    if isinstance(f, Not):
        return f.body
    return Not(f)


def _flatten(parts: Iterable[Formula], kind) -> list[Formula]:
    out: list[Formula] = []
    for p in parts:
        if isinstance(p, kind):
            out += _flatten(p.args, kind)
        else:
            out.append(p)
    return out


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, Rel):
        return frozenset([t.name for t in f.args if isinstance(t, Var)])
    if isinstance(f, (And, Or)):
        return frozenset().union(*map(free_vars, f.args))
    if isinstance(f, (Top, Bot)):
        return frozenset()
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, Implies):
        return free_vars(f.premise) | free_vars(f.conclusion)
    if isinstance(f, (Exists, Forall)):
        return free_vars(f.body) - {f.var}
    raise TypeError(f"not a formula: {f!r}")


def all_names(f: Formula) -> frozenset[str]:
    """Every variable name occurring in f, bound or free."""
    if isinstance(f, (Top, Bot)):
        return frozenset()
    if isinstance(f, Rel):
        return frozenset(t.name for t in f.args if isinstance(t, Var))
    if isinstance(f, Not):
        return all_names(f.body)
    if isinstance(f, (And, Or)):
        out: frozenset[str] = frozenset()
        for g in f.args:
            out |= all_names(g)
        return out
    if isinstance(f, Implies):
        return all_names(f.premise) | all_names(f.conclusion)
    if isinstance(f, (Exists, Forall)):
        return all_names(f.body) | {f.var}
    raise TypeError(f"not a formula: {f!r}")


def formula_atoms(f: Formula) -> frozenset[Atom]:
    """Concrete atoms mentioned in f."""
    return frozenset(
        t.value
        for g in subformulas(f)
        if isinstance(g, Rel)
        for t in g.args
        if isinstance(t, Const)
    )


def subformulas(f: Formula) -> Iterator[Formula]:
    """Every node of f in pre-order, f first; raises TypeError on reaching
    a node that is not a formula."""
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (Rel, Top, Bot)):
            pass  # leaves first: most nodes are relation atoms
        elif isinstance(g, (And, Or)):
            stack.extend(reversed(g.args))
        elif isinstance(g, (Not, Exists, Forall)):
            stack.append(g.body)
        elif isinstance(g, Implies):
            stack += (g.conclusion, g.premise)
        else:
            raise TypeError(f"not a formula: {g!r}")
        yield g


def unchanged(new: tuple, old: tuple) -> bool:
    """Whether every rewritten child in `new` is the original node at the
    same place in `old`: then a rewrite keeps the parent itself."""
    return all(map(is_, new, old))


def subst(f: Formula, mapping: dict[Term, Term]) -> Formula:
    """Capture-avoiding substitution keyed by terms: a `Var` key replaces
    that free variable, a `Const` key renames that atom everywhere.  A
    connective is rebuilt through `land`, `lor` or `lnot`, so the result is
    canonical.  A binder is renamed apart only when something under it was
    replaced and an incoming term is its variable.  A subtree that no
    substitution reaches comes back as the same node."""
    if not mapping or isinstance(f, (Top, Bot)):
        return f
    if isinstance(f, Rel):
        args = tuple([mapping.get(t, t) for t in f.args])
        return f if unchanged(args, f.args) else Rel(f.name, args)
    if isinstance(f, Not):
        body = subst(f.body, mapping)
        return f if body is f.body else lnot(body)
    if isinstance(f, (And, Or)):
        args = tuple([subst(g, mapping) for g in f.args])
        return f if unchanged(args, f.args) else (land if isinstance(f, And) else lor)(*args)
    if isinstance(f, Implies):
        parts = (subst(f.premise, mapping), subst(f.conclusion, mapping))
        return f if unchanged(parts, (f.premise, f.conclusion)) else Implies(*parts)
    if isinstance(f, (Exists, Forall)):
        bound = Var(f.var)
        if bound in mapping:
            mapping = {k: v for k, v in mapping.items() if k is not bound}
        body = subst(f.body, mapping)
        if body is f.body:
            return f
        if bound not in mapping.values():
            return type(f)(f.var, body)
        used = all_names(f.body).union(t.name for t in mapping.values() if isinstance(t, Var))
        new = fresh_name(f.var, used)
        return type(f)(new, subst(f.body, {**mapping, bound: Var(new)}))
    raise TypeError(f"not a formula: {f!r}")


def quantify(kind, binders: Iterable[str], body: Formula) -> Formula:
    """Bind `binders` around body with the quantifier class `kind`
    (Exists or Forall), the first binder outermost."""
    for b in reversed(tuple(binders)):
        body = kind(b, body)
    return body


def fresh_name(stem: str, used: set[str] | frozenset[str]) -> str:
    if stem not in used:
        return stem
    i = 1
    while f"{stem}{i}" in used:
        i += 1
    return f"{stem}{i}"


class NameSource:
    """Deterministic supply of variable names avoiding a given set."""

    def __init__(self, used: Iterable[str] = ()):
        self._used = set(used)
        self._next = 1

    def reserve(self, names: Iterable[str]) -> None:
        self._used.update(names)

    def fresh(self) -> str:
        while True:
            cand = f"q{self._next}"
            self._next += 1
            if cand not in self._used:
                self._used.add(cand)
                return cand
