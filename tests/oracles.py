"""Independent brute-force evaluators used to cross-check the symbolic
engine.

Most of it works over a finite atom pool chosen large enough to realize
every type the checked formula or expression can distinguish, so finite
enumeration is faithful to the infinite structure, and calls none of the
engine's decision procedures.  Two reference methods are the exception:
they are built from the library's orbit decomposition and membership
queries, but decide by another method than the library's.
`orbit_transport` tests a map on structures on orbit representatives, and
`naive_find_iso` searches for an isomorphism by trying every union of
product orbits as a graph instead of matching orbit-graph pieces.
`transports_tuple` is the transport sentence on one tuple of pair
clauses, decided as the absence of a breach.  On it,
`clause_tuple_transport` decides symbol transport by one sentence per
tuple of graph clauses, the unoptimised reference for the library's
transport at orbit representatives, and `piece_tuple_compatible` the
search's pruning by one sentence per tuple of pieces.
`scratch_consistent` and `reference_conjuncts` are the conjunct kernel and
the pruned disjunctive normal form rebuilt from nothing for every literal
set, the reference for the library's incremental `ConjunctState`.
`reference_nf` is the normal form in two walks, the vocabulary check of
each relation atom, and `nnf` with `reference_norm` after it, which
expands each literal by `pre_transform` and then normalizes it, the
reference for the library's one walk `Backend._nf`.
`reference_qe` eliminates every quantifier binder by binder, the reference
for the library's one-search decision of closed quantifier blocks.
`reference_sat` substitutes a valuation into the eliminated formula and
normalizes the result, the reference for the library's evaluation of it,
and `const_folding_sat` evaluates it with each variable made a constant and
each literal folded by `normalize_literal`, as the library did before it
compared raw atoms.  `reference_validate_structure` decides containment by
one `is_subset` sentence per symbol against the power of the universe
(`product_expr`), the reference for the library's validation at orbit
representatives.
`reference_least_support` and `reference_fn_check` send every sentence the
library skips or replaces by breach blocks or by matching, `reference_fn_apply`
searches a witness for every graph clause where the library matches a
clause that shows its binders, and `reference_piece_determined`
decides the search's piece check as one universal sentence instead of the
library's breach block.  `types_with_reps` pairs every complete type that
`type_of` writes with its realization from `type_reps`.  `reference_orbit_decomposition`
merges orbit candidates of one `value_shape` by a membership query on each
kept piece, with its clause renamed, instead of the library's `in_orbit`.
`reference_candidate_images` finds the search's candidate images by
decomposing the target over the anchor, instead of writing down the
values that the anchor pins.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from atomiso.algebra import (
    DefFunction,
    OrbitDescriptor,
    _abstracted,
    _element_injective,
    breach_block,
    fn_apply,
    fn_check,
    fn_validate,
    is_member,
    is_subset,
    orbit_decomposition,
    supported_by,
)
from atomiso.engine import FOUND, NOT_FOUND, NOT_FOUND_INCOMPLETE, Certificate
from atomiso.errors import DomainError, ResourceError, ValidationError, ValuationError
from atomiso.exprs import (
    AtomParam,
    AtomsSet,
    ETuple,
    EVar,
    Expr,
    SetComp,
    Union,
    clauses,
    expr_names,
    expr_params,
    free_expr_vars,
    kind,
    rename_clause,
    subst_expr,
    union_of,
)
from atomiso.structures import (
    FamilySymbol,
    _mk_tuple,
    counterpart,
    signatures_match,
    transports_symbols,
)
from atomiso.theories import get_backend
from atomiso.theories.formulas import (
    And,
    Bot,
    Const,
    Exists,
    FALSE,
    Forall,
    Implies,
    NameSource,
    Not,
    Or,
    TRUE,
    Rel,
    Top,
    Var,
    formula_atoms,
    free_vars,
    land,
    lnot,
    lor,
    quantify,
    subformulas,
    subst,
)


def _cyc3(a, b, c) -> bool:
    return a < b < c or b < c < a or c < a < b


def eval_rel(backend_name: str, name: str, args) -> bool:
    if name == "=":
        return args[0] == args[1]
    if backend_name == "equality":
        raise ValueError(f"unknown relation {name!r} for equality atoms")
    if name == "<":
        return args[0] < args[1]
    if name == "<=":
        return args[0] <= args[1]
    if backend_name == "cyclic" and name == "R":
        return _cyc3(*args)
    raise ValueError(f"unknown relation {name!r} for {backend_name} atoms")


def _term_value(t, valuation):
    if isinstance(t, Var):
        return valuation[t.name]
    if isinstance(t, Const):
        return t.value
    raise TypeError(f"not a term: {t!r}")


def eval_formula(backend_name: str, f, valuation: dict) -> bool:
    """Truth of f under the valuation.

    A quantifier ranges over one representative of every region over the
    atoms currently in scope: the valuation's atoms plus the constants
    below the quantifier.  Over these homogeneous backends the truth of
    the body depends only on the region its variable lands in, so the
    finite sweep is exact.  A static pool is not: elements added last
    would have no witnesses around them for inner quantifiers.  Over the
    circle the sweep takes the dense order's regions, which refine every
    arc, so R stays exact and the linear order that elimination leaves in
    its output reads as over the rationals.
    """
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, Rel):
        vals = [_term_value(t, valuation) for t in f.args]
        return eval_rel(backend_name, f.name, vals)
    if isinstance(f, Not):
        return not eval_formula(backend_name, f.body, valuation)
    if isinstance(f, And):
        return all(eval_formula(backend_name, g, valuation) for g in f.args)
    if isinstance(f, Or):
        return any(eval_formula(backend_name, g, valuation) for g in f.args)
    if isinstance(f, Implies):
        return (not eval_formula(backend_name, f.premise, valuation)) or (
            eval_formula(backend_name, f.conclusion, valuation)
        )
    if isinstance(f, (Exists, Forall)):
        scope = set(valuation.values()) | set(formula_atoms(f))
        sweep = "dlo" if backend_name == "cyclic" else backend_name
        cands = exhaustive_pool(sweep, scope, 0)
        hits = (
            eval_formula(backend_name, f.body, {**valuation, f.var: a})
            for a in cands
        )
        return any(hits) if isinstance(f, Exists) else all(hits)
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# the conjunct kernel, rebuilt from nothing for every literal set


def scratch_consistent(lits) -> bool:
    """Whether a set of normal-form literals (=, != and <) has a solution,
    decided from nothing: equality classes (constants as representatives,
    two constants in one class contradict), then acyclicity of the strict
    order between them with the constant classes on its edges chained in
    value order."""
    parent = {}

    def find(t):
        while parent.get(t, t) != t:
            t = parent[t]
        return t

    for lit in lits:
        if isinstance(lit, Rel) and lit.name == "=":
            ra, rb = find(lit.args[0]), find(lit.args[1])
            if ra != rb:
                if isinstance(rb, Const):
                    if isinstance(ra, Const):
                        return False
                    ra, rb = rb, ra
                parent[rb] = ra
    edges = {}
    for lit in lits:
        if isinstance(lit, Not):
            if find(lit.body.args[0]) == find(lit.body.args[1]):
                return False
        elif lit.name == "<":
            a, b = find(lit.args[0]), find(lit.args[1])
            if a == b:
                return False
            edges.setdefault(a, set()).add(b)
    touched = set(edges).union(*edges.values())
    consts = sorted((u for u in touched if isinstance(u, Const)), key=lambda c: c.value)
    for c1, c2 in zip(consts, consts[1:]):
        edges.setdefault(c1, set()).add(c2)
    state = {}

    def dfs(u) -> bool:
        state[u] = 1
        for w in edges.get(u, ()):
            if state.get(w) == 1 or (w not in state and not dfs(w)):
                return False
        state[u] = 2
        return True

    return all(u in state or dfs(u) for u in edges)


def reference_conjuncts(f, pairs=None, absorb=True) -> list:
    """The theory-pruned disjunctive normal form of a normalized
    quantifier-free formula, as `Backend.conjuncts` lists it: a conjunction
    builds every union c | b of a kept literal set c and a branch b of the
    next argument, keeps the first of equal unions, and drops a union that
    holds a literal beside its complement or fails `scratch_consistent`.
    With `absorb`, a disjunction and each step of a conjunction then drop
    every set that strictly contains another one.  Every (c, b) tried is
    appended to `pairs` when given."""
    if isinstance(f, Top):
        return [frozenset()]
    if isinstance(f, Bot):
        return []
    if isinstance(f, (Rel, Not)):
        return [frozenset((f,))]
    if isinstance(f, Or):
        out, seen = [], set()
        for d in f.args:
            for c in reference_conjuncts(d, pairs, absorb):
                if c not in seen:
                    seen.add(c)
                    out.append(c)
        if absorb:
            out = [c for c in out if not any(d < c for d in out)]
        return out
    if isinstance(f, And):
        acc = [frozenset()]
        for g in f.args:
            branches = reference_conjuncts(g, pairs, absorb)
            nxt, seen = [], set()
            for c in acc:
                for b in branches:
                    if pairs is not None:
                        pairs.append((c, b))
                    u = c | b
                    if u in seen:
                        continue
                    seen.add(u)
                    if any(isinstance(l, Not) and l.body in u for l in u):
                        continue
                    if scratch_consistent(u):
                        nxt.append(u)
            if absorb:
                nxt = [c for c in nxt if not any(d < c for d in nxt)]
            acc = nxt
            if not acc:
                return []
        return acc
    raise TypeError(f"unexpected in DNF conversion: {f!r}")


def nnf(f, negate: bool = False):
    """Negation normal form; implications expanded, negation pushed onto
    relation symbols, quantifiers dualised as needed."""
    if isinstance(f, Top):
        return FALSE if negate else TRUE
    if isinstance(f, Bot):
        return TRUE if negate else FALSE
    if isinstance(f, Rel):
        return lnot(f) if negate else f
    if isinstance(f, Not):
        return nnf(f.body, not negate)
    if isinstance(f, And):
        parts = [nnf(g, negate) for g in f.args]
        return lor(*parts) if negate else land(*parts)
    if isinstance(f, Or):
        parts = [nnf(g, negate) for g in f.args]
        return land(*parts) if negate else lor(*parts)
    if isinstance(f, Implies):
        if negate:
            return land(nnf(f.premise), nnf(f.conclusion, True))
        return lor(nnf(f.premise, True), nnf(f.conclusion))
    if isinstance(f, Exists):
        body = nnf(f.body, negate)
        return Forall(f.var, body) if negate else Exists(f.var, body)
    if isinstance(f, Forall):
        body = nnf(f.body, negate)
        return Exists(f.var, body) if negate else Forall(f.var, body)
    raise TypeError(f"not a formula: {f!r}")


def reference_norm(backend, f):
    """Every literal of a negation-normal formula expanded by the
    backend's `pre_transform` and normalized by its `normalize_literal`."""
    if isinstance(f, (Top, Bot)):
        return f
    if isinstance(f, Rel) or isinstance(f, Not) and isinstance(f.body, Rel):
        positive = isinstance(f, Rel)
        rel = f if positive else f.body
        g = backend.pre_transform(rel)
        if g is not rel:
            return reference_norm(backend, nnf(g, not positive))
        return backend.normalize_literal(rel.name, rel.args, positive)
    if isinstance(f, Not):
        return reference_norm(backend, nnf(f))
    if isinstance(f, And):
        return land(*(reference_norm(backend, g) for g in f.args))
    if isinstance(f, Or):
        return lor(*(reference_norm(backend, g) for g in f.args))
    if isinstance(f, Exists):
        return Exists(f.var, reference_norm(backend, f.body))
    if isinstance(f, Forall):
        return Forall(f.var, reference_norm(backend, f.body))
    return reference_norm(backend, nnf(f))


def reference_nf(backend, f):
    """`backend._nf(f)` as two walks: each relation atom checked by
    `_check_literal` against the vocabulary and the `work_relations`, then
    the negation normal form with every literal expanded and normalized by
    `reference_norm`."""
    for g in subformulas(f):
        if isinstance(g, Rel):
            backend._check_literal(g, True)
    return reference_norm(backend, nnf(f))


def reference_qe(backend, f):
    """`backend.qe(f)` with every quantifier eliminated binder by binder,
    closed blocks included: an existential by `backend._exists` on the
    eliminated body, a universal as the negated existential of the negated
    body.  Not cached."""

    def elim(g):
        if isinstance(g, (Top, Bot, Rel, Not)):
            return g
        if isinstance(g, And):
            return land(*map(elim, g.args))
        if isinstance(g, Or):
            return lor(*map(elim, g.args))
        if isinstance(g, Exists):
            return backend._exists(g.var, elim(g.body))
        neg = reference_norm(backend, nnf(lnot(elim(g.body))))
        return reference_norm(backend, nnf(lnot(backend._exists(g.var, neg))))

    return elim(reference_nf(backend, f))


def const_folding_sat(backend, f, valuation) -> bool:
    """`backend.sat(f, valuation)` as it was written before it evaluated on
    the valuation's atoms: the same checks, then the `qe` output evaluated
    with every variable made a `Const` and every ground literal folded by
    the backend's `normalize_literal`."""
    missing = free_vars(f).difference(valuation)
    if missing:
        raise ValuationError(f"valuation misses variables: {', '.join(sorted(missing))}")
    for v in valuation.values():
        backend.check_atom(v)
    consts = {k: Const(v) for k, v in valuation.items()}

    def holds(g) -> bool:
        if isinstance(g, And):
            return all(map(holds, g.args))
        if isinstance(g, Or):
            return any(map(holds, g.args))
        if isinstance(g, (Top, Bot)):
            return isinstance(g, Top)
        positive = isinstance(g, Rel)
        rel = g if positive else g.body
        args = tuple(consts[t.name] if isinstance(t, Var) else t for t in rel.args)
        folded = backend.normalize_literal(rel.name, args, positive)
        assert isinstance(folded, (Top, Bot)), folded
        return isinstance(folded, Top)

    return holds(backend.qe(f))


def reference_sat(backend, f, valuation) -> bool:
    """`backend.sat(f, valuation)` by rebuilding: the `qe` output with each
    variable replaced by its constant and every literal normalized again,
    which folds the ground formula to TRUE or FALSE."""
    q = backend.qe(f)
    g = reference_norm(backend, subst(q, {Var(k): Const(v) for k, v in valuation.items()}))
    assert isinstance(g, (Top, Bot)), g
    return isinstance(g, Top)


@dataclass(frozen=True)
class TypeInfo:
    """One complete type over a parameter set, with a concrete realization."""

    formula: object
    rep: tuple

    def rep_valuation(self) -> dict:
        return dict(self.rep)


def types_with_reps(backend, variables, params) -> list:
    """Every complete type of `variables` over `params`, each written by
    `type_of` at its realization from `type_reps`, in that order."""
    return [
        TypeInfo(backend.type_of(variables, values, params), tuple(sorted(zip(variables, values))))
        for values in backend.type_reps(variables, params)
    ]


def reference_least_support(comp, x) -> frozenset:
    """`least_support` with a removal sentence for every atom of x, tuple
    components included."""
    occs, binders, body = _abstracted(x)
    support = set(occs)
    for a in sorted(occs):
        t = comp.backend.type_of(binders, tuple(occs), frozenset(support - {a}))
        if comp.holds(quantify(Forall, binders, Implies(t, comp.equal(body, x)))):
            support.discard(a)
    return frozenset(support)


def value_shape(e: Expr):
    """Coarse shape of the denoted value; values of different shapes are
    never equal (atoms, k-tuples by component shape, sets)."""
    k = kind(e)
    if k == "atom":
        return "atom"
    if k == "tuple":
        return ("tuple",) + tuple(value_shape(i) for i in e.items)
    return "set"


def reference_orbit_decomposition(comp, X, S) -> list:
    """`orbit_decomposition` with each candidate kept unless
    `is_member(rep, k.piece())` holds for an orbit k kept before it (of the
    same element shape, and not both from one injective clause)."""
    S = frozenset(S)
    descs = []
    for c in clauses(X):
        shape, injective = value_shape(c.element), _element_injective(c)
        for ti in types_with_reps(comp.backend, c.binders, S):
            if comp.backend.sat(c.guard, ti.rep_valuation()):
                descs.append((OrbitDescriptor(c, ti.formula, S, ti.rep), shape, injective))
    kept, shapes = [], []
    for d, shape, injective in descs:
        if not any(
            ks == shape
            and not (injective and k.clause == d.clause)
            and is_member(comp, d.rep_element(), k.piece())
            for k, ks in zip(kept, shapes)
        ):
            kept.append(d)
            shapes.append(shape)
    return kept


def reference_candidate_images(comp, U, anchor) -> list:
    """The search's candidate images as once enumerated: the representatives
    of U's orbits over the anchor that `supported_by` accepts."""
    return [
        o.rep_element()
        for o in orbit_decomposition(comp, U, anchor)
        if supported_by(comp, o.rep_element(), anchor)
    ]


def reference_fn_check(comp, fn, *, functional=True, total=True, injective=False, surjective=False):
    """`fn_check` with functional and injective as nested universal
    sentences: all pairs p, q of the graph agreeing in one component agree
    in the other."""
    g = fn.graph

    def determined(by):
        return comp.forall_elem(g, lambda p: comp.forall_elem(g, lambda q: Implies(
            comp.equal(p.items[by], q.items[by]), comp.equal(p.items[1 - by], q.items[1 - by]))))

    def covered(s, by):
        return comp.forall_elem(s, lambda x: comp.exists_elem(g, lambda p: comp.equal(x, p.items[by])))

    checks = (
        (functional, lambda: determined(0)),
        (total, lambda: covered(fn.dom, 0)),
        (injective, lambda: determined(1)),
        (surjective, lambda: covered(fn.cod, 1)),
    )
    return all(comp.holds(sentence()) for wanted, sentence in checks if wanted)


def reference_fn_apply(comp, fn, x):
    """`fn_apply` with a witness search for every clause: the first clause,
    in order, whose guard admits x as its first component gives the image
    at the witness; DomainError when none does."""
    for c in clauses(fn.graph):
        fst, snd = c.element.items
        witness = comp.backend.find_witness(land(c.guard, comp.equal(x, fst)), c.binders)
        if witness is not None:
            return subst_expr(snd, {EVar(b): AtomParam(witness[b]) for b in c.binders})
    raise DomainError("value lies outside the function's domain")


def reference_piece_determined(comp, clause, x0, y0, by) -> bool:
    """Whether, across the instances of the pair clause, component `by`
    equal to its value in (x0, y0) forces the other component to its value
    there, as the universal sentence
    forall binders: guard -> (el[by] = rep[by] -> el[1-by] = rep[1-by])."""
    rep = (x0, y0)
    el = clause.element.items
    body = Implies(
        clause.guard,
        Implies(comp.equal(el[by], rep[by]), comp.equal(el[1 - by], rep[1 - by])),
    )
    return comp.holds(quantify(Forall, clause.binders, body))


def quantifier_depth(f) -> int:
    if isinstance(f, (Top, Bot, Rel)):
        return 0
    if isinstance(f, Not):
        return quantifier_depth(f.body)
    if isinstance(f, (And, Or)):
        return max((quantifier_depth(g) for g in f.args), default=0)
    if isinstance(f, Implies):
        return max(quantifier_depth(f.premise), quantifier_depth(f.conclusion))
    if isinstance(f, (Exists, Forall)):
        return 1 + quantifier_depth(f.body)
    raise TypeError(f"not a formula: {f!r}")


def exhaustive_pool(backend_name: str, base, depth: int) -> list:
    """A finite pool grown by depth+1 rounds of region filling.

    Each round adds one representative per region over the atoms named so
    far: a fresh atom for pure equality, a point in every order gap plus
    both ends for the dense order, and a point on every arc for the circle.
    At depth 0 this is exactly one witness per 1-type over the base.
    """
    atoms = set(base)
    if backend_name == "equality":
        fresh = 0
        for _ in range(depth + 1):
            while fresh in atoms:
                fresh += 1
            atoms.add(fresh)
            fresh += 1
        return sorted(atoms)
    if not atoms:
        atoms.add(Fraction(0))
    for _ in range(depth + 1):
        cur = sorted(atoms)
        new = set()
        for a, b in zip(cur, cur[1:]):
            new.add((a + b) / 2)
        if backend_name == "dlo":
            new.add(cur[0] - 1)
            new.add(cur[-1] + 1)
        else:  # the arc wrapping from the greatest value back to the least
            new.add(cur[-1] + 1)
        atoms |= new
    return sorted(atoms)


# ---------------------------------------------------------------------------
# finite extensions of set expressions


def enum_value(e, valuation: dict, backend_name: str, pool):
    """Concrete value of an expression: atoms stay atoms, tuples become
    tuples, sets become frozensets."""
    if isinstance(e, EVar):
        return valuation[e.name]
    if isinstance(e, AtomParam):
        return e.value
    if isinstance(e, ETuple):
        return tuple(enum_value(x, valuation, backend_name, pool) for x in e.items)
    if isinstance(e, AtomsSet):
        return frozenset(pool)
    if isinstance(e, SetComp):
        return frozenset(_enum_clause(e, valuation, backend_name, pool))
    if isinstance(e, Union):
        out = set()
        for c in e.clauses:
            out |= _enum_clause(c, valuation, backend_name, pool)
        return frozenset(out)
    raise TypeError(f"not an expression: {e!r}")


def _enum_clause(c: SetComp, valuation: dict, backend_name: str, pool) -> set:
    """The elements of the clause, with the binders the element shows drawn
    from the pool.  A binder only the guard uses is instead quantified in
    the guard, which eval_formula sweeps over every region of the atoms in
    scope.  Drawn from the pool it would find no atom beyond the pool's
    ends, so over dlo {x | x, y in atoms, y < x} would lose the least pool
    atom."""
    shown = free_expr_vars(c.element)
    guard = c.guard
    for name in reversed(c.binders):
        if name not in shown:
            guard = Exists(name, guard)
    out = set()
    stack = [valuation]
    for name in c.binders:
        if name in shown:
            stack = [{**v, name: a} for v in stack for a in pool]
    for v in stack:
        if eval_formula(backend_name, guard, v):
            out.add(enum_value(c.element, v, backend_name, pool))
    return out


# ---------------------------------------------------------------------------
# orbit counting for atom tuples, by exhaustive signature collection


def _equality_signature(tup):
    seen: dict = {}
    return tuple(seen.setdefault(a, len(seen)) for a in tup)


def _dlo_signature(tup):
    ranks = {a: i for i, a in enumerate(sorted(set(tup)))}
    return tuple(ranks[a] for a in tup)


def _cyclic_signature(tup):
    eqs = _equality_signature(tup)
    firsts = []
    seen = set()
    for i, a in enumerate(tup):
        if a not in seen:
            seen.add(a)
            firsts.append(i)
    rels = tuple(
        _cyc3(tup[i], tup[j], tup[k])
        for i, j, k in itertools.combinations(firsts, 3)
    )
    return (eqs, rels)


def count_tuple_orbits(backend_name: str, n: int, params=()) -> int:
    """Number of orbits of n-tuples of atoms under the automorphisms fixing
    `params`, counted by collecting the full relational signature of the
    parameters followed by each tuple over a pool that realizes every type:
    n atoms without parameters, n rounds of region filling with them."""
    if n == 0:
        return 1
    prefix = tuple(sorted(params))
    pool = exhaustive_pool(backend_name, prefix, n - 1) if prefix else range(n)
    sig = {
        "equality": _equality_signature,
        "dlo": _dlo_signature,
        "cyclic": _cyclic_signature,
    }[backend_name]
    return len({sig(prefix + t) for t in itertools.product(pool, repeat=n)})


# ---------------------------------------------------------------------------
# finite partial automorphisms, by evaluating every relation


def is_partial_automorphism(backend_name: str, mapping: dict) -> bool:
    """Whether a finite map between atoms is injective and preserves and
    reflects every relation of the backend's vocabulary on its domain."""
    dom = sorted(mapping)
    if len(set(mapping.values())) != len(dom):
        return False
    for name, arity in get_backend(backend_name).relations.items():
        for args in itertools.product(dom, repeat=arity):
            image = [mapping[a] for a in args]
            if eval_rel(backend_name, name, args) != eval_rel(backend_name, name, image):
                return False
    return True


def extend_automorphism(backend_name: str, mapping: dict, atoms) -> dict:
    """Extend a finite partial automorphism to cover `atoms`, new atoms in
    ascending order.  Each takes the first value, among one representative
    of every region over the images so far, that keeps the map a partial
    automorphism; homogeneity makes some region work."""
    out = dict(mapping)
    for a in sorted(set(atoms) - set(out)):
        for img in exhaustive_pool(backend_name, set(out.values()), 0):
            if is_partial_automorphism(backend_name, {**out, a: img}):
                out[a] = img
                break
        else:
            raise AssertionError(f"no region over {sorted(out.values())} takes {a!r}")
    return out


# ---------------------------------------------------------------------------
# symbol transport tested on orbit representatives


def product_expr(*sets: Expr) -> Union:
    """The set of tuples pairing one element from each factor."""
    if len(sets) < 2:
        raise ValidationError("a product needs at least two factors")
    fresh = NameSource(n for s in sets for n in expr_names(s))
    out = []
    for combo in itertools.product(*(clauses(s) for s in sets)):
        renamed = [rename_clause(c, fresh) for c in combo]
        element = ETuple(tuple(c.element for c in renamed))
        binders = tuple(b for c in renamed for b in c.binders)
        guard = land(*(c.guard for c in renamed))
        out.append(SetComp(element, binders, guard))
    return Union(tuple(out))


def reference_validate_structure(comp, st) -> None:
    """`validate_structure` by one inclusion sentence per symbol, as it was
    decided before it worked orbit by orbit: the interpretation against
    the power of the universe (`product_expr`), with the index set in
    front for a family."""
    if comp.backend.name != st.backend_name:
        raise ValidationError(
            f"structure {st.name!r} targets backend {st.backend_name!r}, "
            f"not {comp.backend.name!r}"
        )
    for r in st.relations:
        target = st.universe if r.arity == 1 else product_expr(*[st.universe] * r.arity)
        if not is_subset(comp, r.interp, target):
            raise ValidationError(
                f"interpretation of {r.name!r} is not contained in the "
                f"{r.arity}-fold product of the universe"
            )
    for f in st.families:
        if not is_subset(comp, f.interp, product_expr(f.index_set, *[st.universe] * f.arity)):
            raise ValidationError(
                f"interpretation of {f.name!r} is not contained in "
                f"index x universe^{f.arity}"
            )


def orbit_transport(comp, fn, A, B, *, reflect: bool = True) -> bool:
    """Whether the map fn carries every symbol of A into its namesake in B
    (and back, with reflect), tested on one representative per orbit of
    the symbol's ambient product under the automorphisms fixing every atom
    in play.  Membership in a definable set is constant along such orbits,
    so the finitely many tests are exact.  Images come from fn_apply, a
    witness search, so nothing is shared with the library's transport
    sentences.  The signatures must match and fn must be a total function."""
    T = A.params() | B.params() | expr_params(fn.graph)
    b_syms = {s.name: s for s in (*B.relations, *B.families)}
    for sym in (*A.relations, *A.families):
        head = [sym.index_set] if isinstance(sym, FamilySymbol) else []
        factors = head + [A.universe] * sym.arity
        ambient = factors[0] if len(factors) == 1 else product_expr(*factors)
        for orbit in orbit_decomposition(comp, ambient, T):
            rep = orbit.rep_element()
            items = [rep] if len(factors) == 1 else list(rep.items)
            image = items[: len(head)] + [fn_apply(comp, fn, x) for x in items[len(head) :]]
            image = image[0] if len(image) == 1 else ETuple(tuple(image))
            in_a = is_member(comp, rep, sym.interp)
            in_b = is_member(comp, image, b_syms[sym.name].interp)
            if (in_a and not in_b) or (reflect and in_b and not in_a):
                return False
    return True


def transports_tuple(
    comp, sym, interp_b: Expr, parts, *, reflect: bool
) -> bool:
    """Decide forall binders: guards -> (xs in R_A <-> ys in R_B).

    Each part is a clause whose element is a pair (x, y) of an argument and
    its image; a fixed pair is a clause without binders.  The sentence is
    decided as the absence of a breach (`algebra.breach_block`): instances
    of the parts, renamed apart, whose arguments and images disagree on the
    symbol.  For a family the condition holds at every index of its index
    set.  Without reflect only -> is required."""

    def breach(pairs):
        xs = [p.items[0] for p in pairs]
        ys = [p.items[1] for p in pairs]

        def condition(head=None):
            ma = comp.member(_mk_tuple(head, xs), sym.interp)
            mb = comp.member(_mk_tuple(head, ys), interp_b)
            if reflect:
                return And((Implies(ma, mb), Implies(mb, ma)))
            return Implies(ma, mb)

        if isinstance(sym, FamilySymbol):
            return lnot(comp.forall_elem(sym.index_set, condition))
        return lnot(condition())

    return not comp.holds(breach_block(comp, parts, breach))


def piece_tuple_compatible(comp, A, B, assigned, new, *, reflect: bool) -> bool:
    """The search's compatibility of the pieces assigned+new, decided by
    one transport sentence per symbol and per tuple of those pieces that
    holds the new one, with the tuple's first piece fixed at its
    representative pair (x0, y0) and the others over their whole orbits."""
    pool = assigned + [new]
    for sym in (*A.relations, *A.families):
        for combo in itertools.product(pool, repeat=sym.arity):
            if not any(p is new for p in combo):
                continue
            first = SetComp(ETuple((combo[0].x0, combo[0].y0)), (), TRUE)
            parts = [first, *(p.expr.clauses[0] for p in combo[1:])]
            interp_b = counterpart(B, sym).interp
            if not transports_tuple(comp, sym, interp_b, parts, reflect=reflect):
                return False
    return True


def clause_tuple_transport(comp, fn, A, B, *, reflect: bool) -> bool:
    """Whether fn carries every symbol of A into its namesake in B (and,
    with reflect, back), decided by one transport sentence
    (`transports_tuple`) per symbol and per tuple of graph clauses, each
    over all instances of its tuple.  Exact for a functional graph (and an
    injective one when reflecting): tuples outside the domain are not
    constrained.  The signatures must match."""
    graph = clauses(fn.graph)
    for sym in (*A.relations, *A.families):
        interp_b = counterpart(B, sym).interp
        for parts in itertools.product(graph, repeat=sym.arity):
            if not transports_tuple(comp, sym, interp_b, parts, reflect=reflect):
                return False
    return True


# ---------------------------------------------------------------------------
# reference isomorphism search (exhaustive over unions of product orbits)


def naive_find_iso(comp, A, B, T, *, max_orbits: int = 12) -> Certificate:
    """Exhaustive reference search: tries every union of orbits of the pair
    product as a graph.  Exponential; intended for cross-checking the main
    search on small inputs."""
    T = frozenset(T)
    stats = {"orbits_a": 0, "orbits_b": 0, "pieces": 0, "candidates": 0}
    if not signatures_match(comp, A, B):
        return Certificate(NOT_FOUND, None, tuple(sorted(T)), stats)
    prod = product_expr(A.universe, B.universe)
    orbits = orbit_decomposition(comp, prod, T)
    if len(orbits) > max_orbits:
        raise ResourceError(
            f"{len(orbits)} product orbits exceed the oracle bound {max_orbits}",
            count=len(orbits),
        )
    stats["pieces"] = len(orbits)
    for mask in range(1 << len(orbits)):
        picked = [o.piece() for i, o in enumerate(orbits) if mask >> i & 1]
        fn = DefFunction(A.universe, B.universe, union_of(*picked))
        stats["candidates"] += 1
        try:
            fn_validate(comp, fn)
        except ValidationError:
            continue
        if not fn_check(comp, fn, injective=True, surjective=True):
            continue
        if transports_symbols(comp, fn, A, B, reflect=True):
            return Certificate(FOUND, fn, tuple(sorted(T)), stats)
    if comp.backend.dense:
        return Certificate(NOT_FOUND, None, tuple(sorted(T)), stats)
    return Certificate(
        NOT_FOUND_INCOMPLETE,
        None,
        tuple(sorted(T)),
        stats,
        caveat="negative answers are not conclusive over this backend",
    )
