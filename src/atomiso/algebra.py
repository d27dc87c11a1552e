"""Operations on definable sets: comparison queries, orbit decomposition,
orbit expressions, least supports, subset enumeration, and functions given
by definable graphs.

Orbits here are always orbits under the automorphisms fixing a finite set S
of atoms pointwise.  A set expression decomposes into orbit pieces by pairing
each comprehension clause with every complete S-type of its binder tuple;
each satisfiable pairing carves out one orbit, and pieces carving the same
orbit (which visibly happens for symmetric elements such as unordered pairs)
are merged by `in_orbit`, the one test of whether a closed value lies in an
orbit: a match against the clause's element and the type of the binders it
shows, then, unless it shows every binder, one closed block.  `orbit_index`,
the one lookup of the orbit that holds a value, scans with it.  Likewise
`supported_by` is the one test of whether S supports a value:
`least_support` removes atoms greedily through it, and the isomorphism
search filters with it the candidate images of a target universe with a
clause whose element does not show every binder through tuples, a
set-valued one for instance.  For the other universes the search writes the
fixed images down instead, from the binder values that the support pins
(`base.pinned_reps`).
"""

from dataclasses import dataclass

from .compile import Compiler
from .errors import (
    BindingError,
    DomainError,
    ResourceError,
    SupportError,
    ValidationError,
)
from .exprs import (
    EMPTY,
    AtomParam,
    ETuple,
    EVar,
    Expr,
    SetComp,
    Union,
    abstract_params,
    clauses,
    expr_names,
    expr_params,
    free_expr_vars,
    instantiate,
    kind,
    param_occurrences,
    product_expr,
    rename_clause,
    subst_expr_vars,
    union_of,
)
from .theories.formulas import (
    TRUE,
    Atom,
    Exists,
    Forall,
    Formula,
    Implies,
    NameSource,
    format_atom_value,
    land,
    lnot,
    quantify,
)

DEFAULT_SUBSET_BUDGET = 1 << 16


def _require_closed(e: Expr) -> None:
    fv = free_expr_vars(e)
    if fv:
        raise BindingError(
            f"expression must be closed; unbound: {', '.join(sorted(fv))}"
        )


# ---------------------------------------------------------------------------
# boolean queries on closed expressions


def set_equal(comp: Compiler, e1: Expr, e2: Expr) -> bool:
    _require_closed(e1)
    _require_closed(e2)
    return comp.holds(comp.equal(e1, e2))


def is_member(comp: Compiler, x: Expr, s: Expr) -> bool:
    _require_closed(x)
    _require_closed(s)
    return comp.holds(comp.member(x, s))


def is_subset(comp: Compiler, s1: Expr, s2: Expr) -> bool:
    _require_closed(s1)
    _require_closed(s2)
    return comp.holds(comp.subset(s1, s2))


def sets_disjoint(comp: Compiler, s1: Expr, s2: Expr) -> bool:
    _require_closed(s1)
    _require_closed(s2)
    meet = comp.exists_elem(s1, lambda v: comp.member(v, s2))
    return not comp.holds(meet)


# ---------------------------------------------------------------------------
# orbit decomposition


@dataclass(frozen=True)
class OrbitDescriptor:
    """One orbit of a definable set under the S-pointwise stabilizer,
    presented as a clause of the set restricted to one complete S-type of
    the clause's binders."""

    clause: SetComp
    type_formula: Formula
    params: frozenset
    rep: tuple[tuple[str, Atom], ...]

    def rep_valuation(self) -> dict[str, Atom]:
        return dict(self.rep)

    def rep_element(self) -> Expr:
        return instantiate(self.clause.element, self.rep_valuation())

    def piece(self) -> Union:
        guard = land(self.clause.guard, self.type_formula)
        return Union((SetComp(self.clause.element, self.clause.binders, guard),))


def _element_injective(c: SetComp) -> bool:
    """True when distinct binder tuples always yield distinct elements:
    the element is pure atom/tuple structure mentioning every binder."""
    used: set[str] = set()

    def walk(e: Expr) -> bool:
        if isinstance(e, EVar):
            used.add(e.name)
            return True
        if isinstance(e, AtomParam):
            return True
        if isinstance(e, ETuple):
            return all(walk(i) for i in e.items)
        return False

    return walk(c.element) and set(c.binders) <= used


def orbit_decomposition(comp: Compiler, X: Expr, S) -> list[OrbitDescriptor]:
    """The orbits of X under automorphisms fixing S pointwise, in a
    deterministic order.  S must contain every atom of X.

    Each clause paired with each complete S-type of its binders that its
    guard admits is a candidate orbit.  The guard is decided at the type's
    representative by evaluation (`sat`), which is exact as guard truth is
    constant across a complete type, and the type's formula is written only
    once the guard admits it.  A candidate is kept unless its
    representative lies in an orbit kept before it (`in_orbit`).  Candidates
    from one clause whose element is injective are never compared, as
    distinct types of its binders give distinct elements.  Memoised per
    compiler by (X, S); every call returns a fresh list."""
    S = frozenset(S)
    if (X.key, S) not in comp._orbit_cache:
        comp._orbit_cache[X.key, S] = tuple(_decompose(comp, X, S))
    return list(comp._orbit_cache[X.key, S])


def _decompose(comp: Compiler, X: Expr, S: frozenset) -> list[OrbitDescriptor]:
    _require_closed(X)
    missing = expr_params(X) - S
    if missing:
        names = ", ".join(format_atom_value(a) for a in sorted(missing))
        raise SupportError(f"parameter set must contain the atoms of X; missing: {names}")
    backend = comp.backend
    descs = []  # (descriptor, injectivity of its clause's element)
    for c in clauses(X):
        injective = _element_injective(c)
        for values in backend.type_reps(c.binders, S):
            rep = dict(zip(c.binders, values))
            if backend.sat(c.guard, rep):
                t = backend.type_of(c.binders, values, S)
                descs.append((OrbitDescriptor(c, t, S, tuple(sorted(rep.items()))), injective))
    kept: list[OrbitDescriptor] = []
    for d, injective in descs:
        x = d.rep_element()
        if not any(
            not (injective and k.clause == d.clause) and in_orbit(comp, x, k)
            for k in kept
        ):
            kept.append(d)
    return kept


def in_orbit(comp: Compiler, x: Expr, orbit: OrbitDescriptor) -> bool:
    """Whether the closed value x lies in the orbit, that is in
    `orbit.piece()`.

    x is matched against the clause's element (`_match`), and the binders
    the element shows must take their type at the representative, by `sat`:
    no sentence.  When the element shows every binder and holds no set
    (`_element_injective`), that type is `orbit.type_formula`, which the
    guard admits, so the answer is final.  Otherwise one closed block
    `exists binders: guard and type and x = element` decides, over the
    clause's own binders: x is closed and `Compiler.equal` reserves the
    names of both sides, so nothing is captured, and one compiled equality
    serves every orbit of the clause."""
    _require_closed(x)
    c = orbit.clause
    row: dict = {}
    if not _match(c.element, x, row):
        return False
    backend = comp.backend
    if _element_injective(c):
        return backend.sat(orbit.type_formula, row)
    rep = orbit.rep_valuation()
    shown = tuple(row)
    if not backend.sat(backend.type_of(shown, tuple(rep[b] for b in shown), orbit.params), row):
        return False
    body = land(c.guard, orbit.type_formula, comp.equal(x, c.element))
    return comp.holds(quantify(Exists, c.binders, body))


def _match(element: Expr, x: Expr, row: dict) -> bool:
    """Whether the closed value x has the element's form, putting into
    `row` the atom x shows at each binder the element shows through
    tuples: constants and repeated binders must agree, and a set component
    matches any set."""
    if isinstance(element, EVar):
        return isinstance(x, AtomParam) and row.setdefault(element.name, x.value) == x.value
    if isinstance(element, AtomParam):
        return isinstance(x, AtomParam) and x.value == element.value
    if isinstance(element, ETuple):
        return (
            isinstance(x, ETuple)
            and len(x.items) == len(element.items)
            and all(_match(e, i, row) for e, i in zip(element.items, x.items))
        )
    return kind(x) == "set"


def orbit_index(comp: Compiler, x: Expr, orbits) -> int | None:
    """The index of the orbit among `orbits` that holds the closed value x
    (`in_orbit`), or None when none does."""
    return next((j for j, o in enumerate(orbits) if in_orbit(comp, x, o)), None)


def _abstracted(x: Expr):
    """The atoms of x in first-occurrence order, one fresh binder per atom,
    and x with each atom replaced by its binder."""
    occs = param_occurrences(x)
    names = NameSource()
    names.reserve(expr_names(x))
    binders = tuple(names.fresh() for _ in occs)
    return occs, binders, abstract_params(x, dict(zip(occs, binders)))


def orbit_expression(comp: Compiler, x: Expr, S) -> Union:
    """An expression for the orbit of the value of x under automorphisms
    fixing S pointwise."""
    _require_closed(x)
    occs, binders, body = _abstracted(x)
    t = comp.backend.type_of(binders, tuple(occs), frozenset(S))
    return Union((SetComp(body, binders, t),))


# ---------------------------------------------------------------------------
# least supports


def supported_by(comp: Compiler, x: Expr, S) -> bool:
    """Whether every automorphism fixing S pointwise fixes the value of x.

    Two cases send no sentence.  An atom that is x itself or a component of
    x as a tuple lies in every support, since for any finite S and atom a
    outside it some automorphism fixing S moves a (on all three backends);
    and the atoms of x support x.  Otherwise one sentence: every valuation
    of x's atoms with their type over the atoms of S among them gives x
    again.  Only those atoms matter, as the least support of x lies among
    its atoms and supports are closed upward."""
    _require_closed(x)
    S = frozenset(S)
    if not S.issuperset(_tuple_atoms(x)):
        return False
    occs, binders, body = _abstracted(x)
    if S.issuperset(occs):
        return True
    t = comp.backend.type_of(binders, tuple(occs), S.intersection(occs))
    return comp.holds(quantify(Forall, binders, Implies(t, comp.equal(body, x))))


def least_support(comp: Compiler, x: Expr) -> frozenset:
    """The least finite atom set whose pointwise stabilizer fixes the value
    of x, by greedy removal through `supported_by`.  Greedy removal is exact
    because supports are closed upward and a least one exists."""
    _require_closed(x)
    support = set(param_occurrences(x))
    for a in sorted(support):
        if supported_by(comp, x, support - {a}):
            support.discard(a)
    return frozenset(support)


def _tuple_atoms(x: Expr) -> tuple:
    """The atoms reached from x through tuples alone, in walk order, with
    repeats; the atoms of set components are not reached."""
    if isinstance(x, AtomParam):
        return (x.value,)
    if isinstance(x, ETuple):
        return tuple(a for i in x.items for a in _tuple_atoms(i))
    return ()


# ---------------------------------------------------------------------------
# definable subsets


def definable_subsets(
    comp: Compiler, X: Expr, T, budget: int = DEFAULT_SUBSET_BUDGET
) -> list[Expr]:
    """Every T-definable subset of X, as unions of orbit pieces, in mask
    order (bit i selects orbit i of the decomposition)."""
    orbits = orbit_decomposition(comp, X, T)
    total = 1 << len(orbits)
    if total > budget:
        raise ResourceError(
            f"{total} definable subsets exceed the budget of {budget}", count=total
        )
    out = []
    for mask in range(total):
        picked = [o.piece() for i, o in enumerate(orbits) if mask >> i & 1]
        out.append(union_of(*picked) if picked else EMPTY)
    return out


# ---------------------------------------------------------------------------
# definable functions


@dataclass(frozen=True)
class DefFunction:
    """A function presented by its graph, a definable set of pairs."""

    dom: Expr
    cod: Expr
    graph: Expr


def fn_validate(comp: Compiler, fn: DefFunction) -> None:
    """Well-formedness: closed parts, explicit pair elements, and graph
    contained in dom x cod."""
    for e in (fn.dom, fn.cod, fn.graph):
        _require_closed(e)
    for c in clauses(fn.graph):
        if not (isinstance(c.element, ETuple) and len(c.element.items) == 2):
            raise ValidationError(
                "every graph clause must produce an explicit pair"
            )
    if not is_subset(comp, fn.graph, product_expr(fn.dom, fn.cod)):
        raise ValidationError("graph is not contained in dom x cod")


def breach_block(comp: Compiler, parts, breach) -> Formula:
    """The closed sentence that some instances of the clauses `parts`
    satisfy breach(elements), given the list of their instantiated
    elements.  The one block of existentials ranges over every combination
    of their instances and is decided by one DNF search.  A universal
    property of such combinations is decided as the absence of its breach:
    a block of universals would negate the formula at every binder.

    The first clause keeps its own binder names and the later ones are
    renamed apart, so that a clause given twice still stands for two
    independent instances.  Keeping the first names is sound, as every part
    is closed and its names are reserved before any fresh name is drawn;
    it also lets the sentences about one clause repeat, and so hit the
    compile and `qe` memos."""
    for c in parts:
        comp.names.reserve(expr_names(c))
    renamed = [parts[0], *(rename_clause(c, comp.names) for c in parts[1:])]
    return quantify(
        Exists,
        [b for c in renamed for b in c.binders],
        land(*(c.guard for c in renamed), breach([c.element for c in renamed])),
    )


def determined(comp: Compiler, parts, by: int) -> bool:
    """Whether no instances p, q of the two pair clauses `parts` agree in
    component `by` and differ in the other: by=0 says their union is
    functional, by=1 that it is injective.  The breach is symmetric in p
    and q, so the order of the two parts does not matter."""

    def differ(pq):
        p, q = pq
        return land(
            comp.equal(p.items[by], q.items[by]),
            lnot(comp.equal(p.items[1 - by], q.items[1 - by])),
        )

    return not comp.holds(breach_block(comp, parts, differ))


def fn_check(
    comp: Compiler,
    fn: DefFunction,
    *,
    functional: bool = True,
    total: bool = True,
    injective: bool = False,
    surjective: bool = False,
) -> bool:
    """Decide the requested function properties of the graph.  Injective is
    functional with the pair components swapped, and surjective is total
    with the codomain in place of the domain.

    Functional holds when no two pairs agree in the first component and
    differ in the second, decided orbit by orbit: with S the atoms of dom,
    cod and graph, each S-orbit of the graph's pairs gives its
    representative pair as a clause without binders, and `determined`
    checks it against every graph clause.  The graph is S-invariant, so an
    automorphism fixing S moves any breach to one whose first pair is a
    representative; the one decomposition serves functional and injective.
    Total holds when every element of the domain is the first component of
    some pair."""
    graph = clauses(fn.graph)
    S = expr_params(fn.dom) | expr_params(fn.cod) | expr_params(fn.graph)

    def determined_everywhere(by: int) -> bool:
        return all(
            determined(comp, (c, SetComp(o.rep_element(), (), TRUE)), by)
            for o in orbit_decomposition(comp, fn.graph, S)
            for c in graph
        )

    def covered(s: Expr, by: int) -> bool:
        # every element of s is component `by` of some pair
        return comp.holds(
            comp.forall_elem(
                s, lambda x: comp.exists_elem(fn.graph, lambda p: comp.equal(x, p.items[by]))
            )
        )

    checks = (
        (functional, lambda: determined_everywhere(0)),
        (total, lambda: covered(fn.dom, 0)),
        (injective, lambda: determined_everywhere(1)),
        (surjective, lambda: covered(fn.cod, 1)),
    )
    return all(check() for wanted, check in checks if wanted)


def fn_bijective(comp: Compiler, fn: DefFunction) -> bool:
    return fn_check(comp, fn, injective=True, surjective=True)


def fn_apply(comp: Compiler, fn: DefFunction, x: Expr) -> Expr:
    """The value of the function at x; raises DomainError off the domain.
    Expects a validated, functional graph."""
    _require_closed(x)
    for c in clauses(fn.graph):
        constraint = land(c.guard, comp.equal(x, c.element.items[0]))
        # a binder the constraint leaves free may take any value: the graph
        # is functional, so every choice yields the same image
        witness = comp.backend.find_witness(constraint, c.binders)
        if witness is None:
            continue
        return subst_expr_vars(
            c.element.items[1], {b: AtomParam(witness[b]) for b in c.binders}
        )
    raise DomainError("value lies outside the function's domain")


def fn_inverse(fn: DefFunction) -> DefFunction:
    out = []
    for c in clauses(fn.graph):
        fst, snd = c.element.items
        out.append(SetComp(ETuple((snd, fst)), c.binders, c.guard))
    return DefFunction(fn.cod, fn.dom, Union(tuple(out)))
