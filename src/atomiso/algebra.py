"""Operations on definable sets: comparison queries, orbit decomposition,
orbit expressions, least supports, subset enumeration, and functions given
by definable graphs.

Orbits here are always orbits under the automorphisms fixing a finite set S
of atoms pointwise.  A set expression decomposes into orbit pieces by pairing
each comprehension clause with every complete S-type of its binder tuple;
each satisfiable pairing carves out one orbit.  In one pass over the
pairings, a pairing is kept unless `orbit_index`, the one lookup of the orbit
that holds a value, finds its representative in an orbit kept before it:
pieces carving the same orbit visibly happen for symmetric elements such as
unordered pairs.  `orbit_index` scans with `in_orbit`, the one test of
whether a closed value lies in an orbit.  Likewise `supported_by` is the one
test of whether S supports a value: `least_support` removes atoms greedily
through it, and the isomorphism search filters with it the candidate images
of a target universe with a clause whose element does not show every binder
(`_shape`), a comprehension-valued one for instance.  For the other
universes the search writes the fixed images down instead, from the binder
values that the support pins (`base.pinned_reps`).

An expression shows the binders of its clause when it is built from them,
atoms, tuples and finite set literals such as `{a, b}` (a union of clauses
without binders) and mentions every binder (`_shape`, whose walk each node
keeps).  Whether a closed value is an instance of such an expression is
decided by one kernel, `_admits`: the value is matched against the
expression, which leaves finitely many rows of binder values (one, through
tuples alone), and the guard is evaluated at each, with no sentence.
Against a literal the value must be finite too (`_value`): a comprehension
may denote a finite set, so it keeps the compiled sentence.  `_admits` is
also the one gate: it returns None where it cannot answer, a clause that
hides a binder or a literal against an infinite value, and only there do
its callers `in_orbit`, `is_member`, `fn_apply` and `determined` send their
compiled sentences.  Through them it serves the final check of a map
(`fn_validate`, `fn_check`), which works at the representatives of the
S-orbits of the graph, the domain and the codomain.  Only elements shown
through tuples alone are injective in their binders (`_element_injective`):
`{a, b}` is also `{b, a}`.
"""

from dataclasses import dataclass, field

from .compile import Compiler, question
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
    rename_clause,
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


@question
def set_equal(comp: Compiler, e1: Expr, e2: Expr) -> bool:
    """Whether the closed expressions denote the same value; true with no
    sentence when they are the same expression."""
    _require_closed(e1)
    _require_closed(e2)
    return e1.key == e2.key or comp.holds(comp.equal(e1, e2))


@question
def is_member(comp: Compiler, x: Expr, s: Expr) -> bool:
    """Whether the value of x belongs to the set s.  When the kernel
    `_admits` can answer for every clause of s, it decides clause by
    clause with no sentence; otherwise the compiled membership does."""
    _require_closed(x)
    _require_closed(s)
    rows = [_admits(comp, c.element, c.binders, c.guard, x) for c in clauses(s)]
    if None not in rows:
        return any(True for r in rows for _ in r)
    return comp.holds(comp.member(x, s))


@question
def is_subset(comp: Compiler, s1: Expr, s2: Expr) -> bool:
    _require_closed(s1)
    _require_closed(s2)
    return comp.holds(comp.subset(s1, s2))


@question
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
    the clause's binders.  Its representative element is computed once and
    kept on the descriptor, which lives as long as the compiler's orbit
    memo holds it, for one question, or a caller does."""

    clause: SetComp
    type_formula: Formula
    params: frozenset
    rep: tuple[tuple[str, Atom], ...]
    _element: Expr | None = field(default=None, init=False, repr=False, compare=False)

    def rep_valuation(self) -> dict[str, Atom]:
        return dict(self.rep)

    def rep_element(self) -> Expr:
        """The clause's element at the representative, the same node on
        every call."""
        if self._element is None:
            x = instantiate(self.clause.element, self.rep_valuation())
            object.__setattr__(self, "_element", x)
        return self._element

    def piece(self) -> Union:
        guard = land(self.clause.guard, self.type_formula)
        return Union((SetComp(self.clause.element, self.clause.binders, guard),))


def _element_injective(c: SetComp) -> bool:
    """True when distinct binder tuples always yield distinct elements:
    the element shows every binder through tuples alone (`_shape`)."""
    return _shape(c.element, c.binders) == _TUPLES


#: `_shape` of an expression that shows every binder through tuples alone,
#: and of one that shows them through finite set literals too
_TUPLES, _LITERALS = 1, 2


def _shape(e: Expr, binders) -> int:
    """How e shows the binders: `_TUPLES` when e is pure atom/tuple
    structure mentioning every binder, so that a closed value of e's form
    fixes the value of each binder (`_match`); `_LITERALS` when finite set
    literals, unions of clauses without binders, occur in that structure
    too, so that a finite closed value leaves finitely many rows of binder
    values (`_rows`); 0 when e hides a binder or holds any other set.  With
    no binders, `_TUPLES` says that a closed value is flat: atoms and
    tuples only.

    The answer for no binders is walked once per tuple or union and kept
    on it, as `expr_names` keeps its names; an atom or a variable is
    `_TUPLES` and any other node 0, with no walk.  Where it is not 0, the
    names of e are exactly the variables the walk meets, as a literal's
    clauses have no binders and so no guard: e shows the binders when its
    names include them."""
    if isinstance(e, (EVar, AtomParam)):
        form = _TUPLES
    elif isinstance(e, (ETuple, Union)):
        try:
            form = e._shape
        except AttributeError:
            if isinstance(e, ETuple):
                form, parts = _TUPLES, e.items
            elif _literal(e):
                form, parts = _LITERALS, [c.element for c in e.clauses]
            else:
                form, parts = 0, ()
            forms = [_shape(p, ()) for p in parts]
            form = max([form, *forms]) if all(forms) else 0
            object.__setattr__(e, "_shape", form)
    else:
        form = 0
    return form if form and (not binders or expr_names(e).issuperset(binders)) else 0


def _literal(e: Expr) -> bool:
    """Whether e is a finite set literal: a union of clauses without
    binders, such as `{a, b}`, whatever its members."""
    return isinstance(e, Union) and not any(c.binders for c in e.clauses)


def _flat(x: Expr) -> bool:
    """Whether the closed value x is made of atoms and tuples only."""
    return _shape(x, ()) == _TUPLES


def _value(e: Expr, row=None):
    """The canonical value of e, each binder taking its atom in row: an
    atom as itself, a tuple as the tuple of its components' values, and a
    finite set literal as the frozenset of its members' values; None when
    e holds any other set.  Two finite closed values are equal exactly
    when their canonical values are.  Asked with no row, of a closed tuple
    or union, the answer is computed once and kept on the node."""
    if isinstance(e, AtomParam):
        return e.value
    if isinstance(e, EVar):
        return row[e.name]
    if not isinstance(e, (ETuple, Union)):
        return None
    if row is None:
        try:
            return e._value
        except AttributeError:
            object.__setattr__(e, "_value", _value(e, {}))
            return e._value
    if isinstance(e, ETuple):
        parts, make = e.items, tuple
    elif _literal(e):
        parts, make = [c.element for c in e.clauses], frozenset
    else:
        return None
    values = []
    for p in parts:
        v = _value(p, row)
        if v is None:
            return None
        values.append(v)
    return make(values)


@question
def orbit_decomposition(comp: Compiler, X: Expr, S) -> list[OrbitDescriptor]:
    """The orbits of X under automorphisms fixing S pointwise, in a
    deterministic order.  S must contain every atom of X.

    Each clause paired with each complete S-type of its binders that its
    guard admits is a candidate orbit.  The guard is decided at the type's
    representative by evaluation (`sat`), which is exact as guard truth is
    constant across a complete type, and the type's formula is written only
    once the guard admits it.  In one pass, a candidate is kept unless
    `orbit_index` finds its representative in an orbit it can share.  For a
    clause whose element is injective (`_element_injective`) those are the
    `earlier` orbits, kept before the clause's first candidate: distinct
    types of its binders give distinct elements.  Otherwise they are all
    the orbits kept so far.  Memoised per question by (X, S); every call
    returns a fresh list."""
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
    kept: list[OrbitDescriptor] = []
    for c in clauses(X):
        # the orbits a candidate of this clause can share
        earlier = len(kept) if _element_injective(c) else None
        for values in backend.type_reps(c.binders, S):
            rep = dict(zip(c.binders, values))
            if backend.sat(c.guard, rep):
                t = backend.type_of(c.binders, values, S)
                d = OrbitDescriptor(c, t, S, tuple(sorted(rep.items())))
                shared = kept[:earlier]
                if not shared or orbit_index(comp, d.rep_element(), shared) is None:
                    kept.append(d)
    return kept


def in_orbit(comp: Compiler, x: Expr, orbit: OrbitDescriptor) -> bool:
    """Whether the closed value x lies in the orbit, that is in
    `orbit.piece()`.

    When the kernel `_admits` can answer, it decides with the orbit's type
    as the guard: the clause's guard admits that type, as it admits its
    representative.  Otherwise x is matched against the element
    (`_match`), and the binders the element shows through tuples must take
    their type at the representative, by `sat`; then one closed block
    `exists binders: guard and type and x = element` decides, over the
    clause's own binders: x is closed and `Compiler.equal` reserves the
    names of both sides, so nothing is captured, and one compiled equality
    serves every orbit of the clause."""
    _require_closed(x)
    c = orbit.clause
    rows = _admits(comp, c.element, c.binders, orbit.type_formula, x)
    if rows is not None:
        return any(True for _ in rows)
    row: dict = {}
    if not _match(c.element, x, row):
        return False
    backend = comp.backend
    rep = orbit.rep_valuation()
    shown = tuple(row)
    if not backend.sat(backend.type_of(shown, tuple(rep[b] for b in shown), orbit.params), row):
        return False
    body = land(c.guard, orbit.type_formula, comp.equal(x, c.element))
    return comp.holds(quantify(Exists, c.binders, body))


def _admits(comp: Compiler, shown: Expr, binders, guard: Formula, x: Expr):
    """The rows of values of the binders at which `shown` takes the closed
    value x and the guard holds, each once, lazily, so a caller that needs
    one row stops at the first; None when the kernel cannot answer, and
    the caller sends its sentence.  It can when `shown` shows every binder
    (`_shape`), and x is finite (`_value`) if `shown` shows one through a
    literal.  Through tuples alone x fixes the only candidate row by
    `_match`; against a literal `_rows` gives the candidates from x's
    canonical value.  `sat` evaluates the guard at each candidate, so the
    answer is exact and sends no sentence.  The one gate and kernel of
    `in_orbit`, `is_member`, `fn_apply`, `determined` and so the final
    check."""
    shape = _shape(shown, binders)
    if shape == _TUPLES:
        return _admitted(comp, shown, guard, x, None)
    xv = _value(x) if shape else None
    return None if xv is None else _admitted(comp, shown, guard, x, xv)


def _admitted(comp: Compiler, shown: Expr, guard: Formula, x: Expr, xv):
    """The rows of `_admits`: by `_match` when xv is None, else by `_rows`
    against the canonical value xv."""
    if xv is None:
        row: dict = {}
        candidates = (row,) if _match(shown, x, row) else ()
    else:
        candidates = _rows(shown, xv, {})
    seen: list[dict] = []
    for row in candidates:
        if row not in seen:
            seen.append(row)
            if comp.backend.sat(guard, row):
                yield row


def _rows(e: Expr, v, row: dict):
    """The rows at which e takes the canonical value v, each extending row
    (left as it is), possibly with repeats.  e shows its binders
    (`_shape`), so a binder meets an atom of v, a constant must equal it,
    and a tuple matches component by component.  A literal's members are
    each assigned to one member of v, in order, and a branch ends once
    fewer members are left to assign than members of v are uncovered; a
    completed assignment may still leave a member uncovered, so the
    literal's value there must equal v."""
    if isinstance(e, ETuple):
        if isinstance(v, tuple) and len(v) == len(e.items):
            yield from _assign([(i, (w,)) for i, w in zip(e.items, v)], row, 0)
    elif isinstance(e, Union):
        if isinstance(v, frozenset):
            members = tuple(v)
            for r in _assign([(c.element, members) for c in e.clauses], row, len(members)):
                if _value(e, r) == v:
                    yield r
    elif isinstance(v, (tuple, frozenset)):
        return
    elif isinstance(e, AtomParam):
        if v == e.value:
            yield row
    elif e.name not in row:
        yield {**row, e.name: v}
    elif row[e.name] == v:
        yield row


def _assign(parts: list, row: dict, cover: int, covered: frozenset = frozenset()):
    """The rows of `_rows` for parts, each (expression, the values it may
    take), matched in order from row.  A literal's members are to take all
    `cover` values between them, a tuple's components none; `covered`
    holds the positions of the values taken so far, and a branch ends once
    fewer parts are left than positions are uncovered."""
    if not parts:
        yield row
        return
    if len(parts) < cover - len(covered):
        return
    (e, options), rest = parts[0], parts[1:]
    for j, w in enumerate(options):
        for r in _rows(e, w, row):
            yield from _assign(rest, r, cover, covered | {j})


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


@question
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

    Two cases send no sentence.  An atom shown in x (`_shown_atoms`), that
    is x itself or an atom reached through tuples and finite set literals,
    lies in every support, by homogeneity on all three backends: for such
    an atom b outside S, some automorphism fixes S and the other atoms of
    x pointwise and sends b to an atom b' fresh to x.  Follow the tuple
    components of x to the atom or finite value (`_value`) that holds b:
    its image there holds b' and it holds none, and a finite value's atoms
    are those of its canonical value, so the image of x is another value.
    And the atoms of x support x.  Otherwise one sentence: every
    valuation of x's atoms with their type over the atoms of S among them
    gives x again.  Only those atoms matter, as the least support of x lies
    among its atoms and supports are closed upward."""
    _require_closed(x)
    S = frozenset(S)
    if not S.issuperset(_shown_atoms(x)):
        return False
    occs, binders, body = _abstracted(x)
    if S.issuperset(occs):
        return True
    t = comp.backend.type_of(binders, tuple(occs), S.intersection(occs))
    return comp.holds(quantify(Forall, binders, Implies(t, comp.equal(body, x))))


@question
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


def _shown_atoms(x: Expr) -> tuple:
    """The atoms reached from x through tuples and finite set literals
    (`_value`), in walk order, with repeats; the atoms of any other set, and
    of a literal that holds one, are not reached."""
    if isinstance(x, AtomParam):
        return (x.value,)
    if isinstance(x, ETuple):
        return tuple(a for i in x.items for a in _shown_atoms(i))
    if _value(x) is not None:
        return tuple(param_occurrences(x))
    return ()


# ---------------------------------------------------------------------------
# definable subsets


@question
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
    """A function presented by its graph, a definable set of pairs.  Its
    atoms (`params`) are computed once and kept on the instance, outside
    the compared fields."""

    dom: Expr
    cod: Expr
    graph: Expr
    _params: frozenset | None = field(default=None, init=False, repr=False, compare=False)

    def params(self) -> frozenset:
        """The atoms of dom, cod and graph: the S of the orbit-by-orbit
        checks."""
        if self._params is None:
            atoms = expr_params(self.dom) | expr_params(self.cod) | expr_params(self.graph)
            object.__setattr__(self, "_params", atoms)
        return self._params


@question
def fn_validate(comp: Compiler, fn: DefFunction) -> None:
    """Well-formedness: closed parts, explicit pair elements, and graph
    contained in dom x cod.  Containment is decided orbit by orbit: with S
    the atoms of dom, cod and graph, dom x cod is S-invariant, so the graph
    lies in it when the representative (a, b) of each S-orbit of the
    graph's pairs does, by `is_member(a, dom)` and `is_member(b, cod)`.
    The decomposition is the one `fn_check` reads."""
    for e in (fn.dom, fn.cod, fn.graph):
        _require_closed(e)
    for c in clauses(fn.graph):
        if not (isinstance(c.element, ETuple) and len(c.element.items) == 2):
            raise ValidationError(
                "every graph clause must produce an explicit pair"
            )
    for o in orbit_decomposition(comp, fn.graph, fn.params()):
        a, b = o.rep_element().items
        if not (is_member(comp, a, fn.dom) and is_member(comp, b, fn.cod)):
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
    and q, so the order of the two parts does not matter.

    When one part has no binders and the kernel `_admits` can answer for
    the other's component `by` at the fixed one, the fixed component picks
    the instances that can agree with it: each row `_admits` gives, as a
    literal can be matched more than one way.  The breach is such an
    instance's other component differing from the fixed one: compared by
    canonical value when both are finite (`_value`), else by one closed
    equality.  Otherwise one breach block decides."""
    for c, fixed in (parts, parts[::-1]):
        if fixed.binders:
            continue
        rows = _admits(comp, c.element.items[by], c.binders, c.guard, fixed.element.items[by])
        if rows is not None:
            mine, theirs = c.element.items[1 - by], fixed.element.items[1 - by]
            want = _value(theirs)
            return all(_agrees(comp, mine, row, theirs, want) for row in rows)

    def differ(pq):
        p, q = pq
        return land(
            comp.equal(p.items[by], q.items[by]),
            lnot(comp.equal(p.items[1 - by], q.items[1 - by])),
        )

    return not comp.holds(breach_block(comp, parts, differ))


def _agrees(comp: Compiler, e: Expr, row: dict, theirs: Expr, want) -> bool:
    """Whether e at the binder values of row equals the closed value
    theirs, whose canonical value is want: compared by value when both
    are finite, else by one closed equality."""
    if want is not None:
        mine = _value(e, row)
        if mine is not None:
            return mine == want
    return comp.holds(comp.equal(instantiate(e, row), theirs))


@question
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

    Every property is decided orbit by orbit, with S the atoms of dom, cod
    and graph: the three sets are S-invariant, so an automorphism fixing S
    moves any counterexample to one at an orbit representative.
    Functional holds when no two pairs agree in the first component and
    differ in the second: each S-orbit of the graph's pairs gives its
    representative pair as a clause without binders, and `determined`
    checks it against every graph clause; the one decomposition serves
    functional and injective.  Total holds when the representative of
    every S-orbit of the domain is the first component of some pair:
    `is_member` in the graph's first components, one clause per graph
    clause."""
    graph = clauses(fn.graph)
    S = fn.params()

    def determined_everywhere(by: int) -> bool:
        return all(
            determined(comp, (c, SetComp(o.rep_element(), (), TRUE)), by)
            for o in orbit_decomposition(comp, fn.graph, S)
            for c in graph
        )

    def covered(s: Expr, by: int) -> bool:
        # every element of s is component `by` of some pair
        shadow = Union(tuple(SetComp(c.element.items[by], c.binders, c.guard) for c in graph))
        return all(
            is_member(comp, o.rep_element(), shadow) for o in orbit_decomposition(comp, s, S)
        )

    checks = (
        (functional, lambda: determined_everywhere(0)),
        (total, lambda: covered(fn.dom, 0)),
        (injective, lambda: determined_everywhere(1)),
        (surjective, lambda: covered(fn.cod, 1)),
    )
    return all(check() for wanted, check in checks if wanted)


@question
def fn_bijective(comp: Compiler, fn: DefFunction) -> bool:
    return fn_check(comp, fn, injective=True, surjective=True)


@question
def fn_apply(comp: Compiler, fn: DefFunction, x: Expr) -> Expr:
    """The value of the function at x; raises DomainError off the domain.
    Expects a validated, functional graph.  The clauses are tried in
    order: where the kernel `_admits` can answer for the first component
    at x, it matches x; any other clause searches a witness.  Every row a
    match gives yields the same image, as the graph is functional."""
    _require_closed(x)
    for c in clauses(fn.graph):
        fst, snd = c.element.items
        rows = _admits(comp, fst, c.binders, c.guard, x)
        if rows is None:
            # a binder the constraint leaves free may take any value: the
            # graph is functional, so every choice yields the same image
            row = comp.backend.find_witness(land(c.guard, comp.equal(x, fst)), c.binders)
            rows = () if row is None else (row,)
        for row in rows:
            return instantiate(snd, row)
    raise DomainError("value lies outside the function's domain")


def fn_inverse(fn: DefFunction) -> DefFunction:
    out = []
    for c in clauses(fn.graph):
        fst, snd = c.element.items
        out.append(SetComp(ETuple((snd, fst)), c.binders, c.guard))
    return DefFunction(fn.cod, fn.dom, Union(tuple(out)))
