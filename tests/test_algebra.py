"""Set algebra: comparison queries, orbit decomposition, supports, subset
enumeration, and definable functions."""

import hashlib
import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from atomiso.algebra import (
    DefFunction,
    OrbitDescriptor,
    _LITERALS,
    _TUPLES,
    _element_injective,
    _shape,
    _value,
    definable_subsets,
    determined,
    fn_apply,
    fn_bijective,
    fn_check,
    fn_inverse,
    fn_validate,
    in_orbit,
    is_member,
    is_subset,
    least_support,
    orbit_decomposition,
    orbit_expression,
    orbit_index,
    set_equal,
    sets_disjoint,
    supported_by,
)
from atomiso.errors import (
    BindingError,
    DomainError,
    ResourceError,
    SupportError,
    ValidationError,
)
from atomiso.compile import Compiler
from atomiso.exprs import (
    ATOMS,
    EMPTY,
    AtomParam,
    ETuple,
    EVar,
    SetComp,
    Union,
    abstract_params,
    act,
    clauses,
    expr_params,
    union_of,
)
from atomiso.parser import parse, parse_atoms, print_expr
from atomiso.structures import check_isomorphism, structure_from_dict
from atomiso.theories import get_backend
from atomiso.theories.formulas import TRUE, Bot, Const, Rel, Top, Var, format_atom_value, land, lnot
from eager_references import two_inclusions_supported_by
from fixtures_helpers import NESTED_CYCLIC, NESTED_CYCLIC_ORBITS
from generators import (
    equivalent_variant,
    gen_element,
    gen_qf_formula,
    gen_set_expr,
    sample_atoms,
)
from oracles import (
    extend_automorphism,
    product_expr,
    reference_fn_apply,
    reference_fn_check,
    reference_least_support,
    reference_orbit_decomposition,
    reference_piece_determined,
    types_with_reps,
    value_shape,
)


def _p(text, comp):
    return parse(text, comp.backend)


@pytest.mark.parametrize("backend_name", ["equality", "dlo", "cyclic"])
def test_set_equality_needs_no_second_elimination(backend_name):
    # the conjunction of the two compiled inclusions is already eliminated
    # and normalized: eliminating it again changes nothing.  One atom of the
    # second set is abstracted to the free variable u, so that about a third
    # of the equalities are open formulas rather than TRUE or FALSE
    comp = Compiler(get_backend(backend_name))
    rng = random.Random(3)
    open_formulas = 0
    for _ in range(60):
        params = sample_atoms(rng, backend_name, 2)
        e1 = gen_set_expr(rng, backend_name, params, max_binders=3, depth=2)
        if rng.random() < 0.5:
            e2 = equivalent_variant(rng, backend_name, e1, params)
        else:
            e2 = gen_set_expr(rng, backend_name, params, max_binders=3, depth=2)
        e2 = abstract_params(e2, {params[0]: "u"})
        both = land(comp.subset(e1, e2), comp.subset(e2, e1))
        assert comp.equal(e1, e2) == comp.backend.eliminate(both), print_expr(e2)
        open_formulas += not isinstance(both, (Top, Bot))
    assert open_formulas >= 15


def test_set_equal_basic(eq_comp):
    a = _p("{a | a in atoms, a != #1} + {#1}", eq_comp)
    assert set_equal(eq_comp, a, _p("atoms", eq_comp))
    assert not set_equal(eq_comp, _p("{#1}", eq_comp), _p("{#2}", eq_comp))
    assert set_equal(eq_comp, EMPTY, _p("{a | a in atoms, a != a}", eq_comp))


def test_set_equal_ignores_kind_mismatch(eq_comp):
    assert not set_equal(eq_comp, _p("#1", eq_comp), _p("{#1}", eq_comp))


def test_membership_and_subset(eq_comp):
    pairs = _p("{(a, b) | a, b in atoms, a != b}", eq_comp)
    assert is_member(eq_comp, _p("(#1, #2)", eq_comp), pairs)
    assert not is_member(eq_comp, _p("(#1, #1)", eq_comp), pairs)
    assert is_subset(eq_comp, pairs, _p("{(a, b) | a, b in atoms}", eq_comp))
    assert not is_subset(eq_comp, _p("{(a, b) | a, b in atoms}", eq_comp), pairs)


def test_disjoint(eq_comp):
    diag = _p("{(a, a) | a in atoms}", eq_comp)
    off = _p("{(a, b) | a, b in atoms, a != b}", eq_comp)
    assert sets_disjoint(eq_comp, diag, off)
    assert not sets_disjoint(eq_comp, diag, _p("{(a, b) | a, b in atoms}", eq_comp))


def test_queries_require_closed(eq_comp):
    open_expr = parse("{a | a in atoms}").clauses[0].element
    with pytest.raises(BindingError):
        set_equal(eq_comp, open_expr, open_expr)


def test_orbit_counts_pinned(eq_comp, dlo_comp, cyc_comp):
    atoms_e = _p("atoms", eq_comp)
    assert len(orbit_decomposition(eq_comp, atoms_e, frozenset({1}))) == 2
    assert len(orbit_decomposition(eq_comp, atoms_e, frozenset())) == 1
    pairs2 = _p("{ {a, b} | a, b in atoms, a != b }", eq_comp)
    # unordered pairs form a single orbit: the two type pairings merge
    assert len(orbit_decomposition(eq_comp, pairs2, frozenset())) == 1
    sq = _p("{(a, b) | a, b in atoms}", eq_comp)
    assert len(orbit_decomposition(eq_comp, sq, frozenset())) == 2
    datoms = _p("atoms", dlo_comp)
    assert (
        len(orbit_decomposition(dlo_comp, datoms, frozenset({Fraction(0), Fraction(1)})))
        == 5
    )
    tri = _p("{(a, b, c) | a, b, c in atoms, R(a, b, c)}", cyc_comp)
    assert len(orbit_decomposition(cyc_comp, tri, frozenset())) == 1
    assert len(orbit_decomposition(cyc_comp, tri, frozenset({Fraction(0)}))) == 6


def test_orbit_pieces_partition(eq_comp):
    x = _p("{(a, b) | a, b in atoms, a != #1}", eq_comp)
    orbits = orbit_decomposition(eq_comp, x, frozenset({1}))
    pieces = [o.piece() for o in orbits]
    assert set_equal(eq_comp, union_of(*pieces), x)
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            assert sets_disjoint(eq_comp, pieces[i], pieces[j])


def test_orbit_decomposition_needs_support(eq_comp):
    x = _p("{a | a in atoms, a != #4}", eq_comp)
    with pytest.raises(SupportError):
        orbit_decomposition(eq_comp, x, frozenset())


def test_orbit_decomposition_is_memoised_per_set_and_parameters():
    comp = Compiler(get_backend("equality"))
    x = _p("{(a, b) | a, b in atoms, a != #1}", comp)
    with comp:
        first = orbit_decomposition(comp, x, frozenset({1}))
        want = list(first)
        first.clear()
        assert orbit_decomposition(comp, x, {1}) == want
        assert len(comp._orbit_cache) == 1
        # another parameter set is another entry
        assert len(orbit_decomposition(comp, x, frozenset({1, 2}))) > len(want)
        assert len(comp._orbit_cache) == 2
        with pytest.raises(SupportError):
            orbit_decomposition(comp, x, frozenset())
        assert len(comp._orbit_cache) == 2


def test_orbit_expression_contains_value(eq_comp):
    x = _p("(#3, #5)", eq_comp)
    orb = orbit_expression(eq_comp, x, frozenset())
    assert is_member(eq_comp, x, orb)
    assert set_equal(
        eq_comp, orb, _p("{(a, b) | a, b in atoms, a != b}", eq_comp)
    )
    orb1 = orbit_expression(eq_comp, x, frozenset({3}))
    assert is_member(eq_comp, x, orb1)
    assert expr_params(orb1) == frozenset({3})


def test_least_support_pinned(eq_comp):
    assert least_support(eq_comp, _p("(#1, #2)", eq_comp)) == frozenset({1, 2})
    assert least_support(eq_comp, _p("atoms", eq_comp)) == frozenset()
    assert least_support(eq_comp, _p("{a | a in atoms, a != #3}", eq_comp)) == frozenset({3})
    # a symmetric difference hides its parameters: {#1,#2} as a set supports
    # exactly both atoms
    assert least_support(eq_comp, _p("{#1, #2}", eq_comp)) == frozenset({1, 2})


def test_least_support_drops_spurious_params(eq_comp):
    e = _p("{a | a in atoms, a != #2} + {#2}", eq_comp)
    assert least_support(eq_comp, e) == frozenset()


def test_definable_subsets_count(eq_comp):
    subs = definable_subsets(eq_comp, _p("atoms", eq_comp), frozenset({1, 2}))
    assert len(subs) == 8
    keys = {s.key for s in subs}
    assert len(keys) == 8
    assert any(set_equal(eq_comp, s, EMPTY) for s in subs)
    assert any(set_equal(eq_comp, s, _p("atoms", eq_comp)) for s in subs)


def test_definable_subsets_budget(eq_comp):
    with pytest.raises(ResourceError):
        definable_subsets(eq_comp, _p("atoms", eq_comp), frozenset({1, 2}), budget=5)


SMOOTH = (
    "{(a, (a, #1)) | a in atoms} + {((a, #1), a) | a in atoms} + "
    "{((a, b), (a, b)) | a, b in atoms, b != #1}"
)
MIXED = "{(a, b) | a, b in atoms} + {a | a in atoms}"


def _smooth_fn(comp):
    u = _p(MIXED, comp)
    return DefFunction(u, u, _p(SMOOTH, comp))


def test_fn_validate_and_check(eq_comp):
    f = _smooth_fn(eq_comp)
    fn_validate(eq_comp, f)
    assert fn_check(eq_comp, f)
    assert fn_check(eq_comp, f, injective=True, surjective=True)
    assert fn_bijective(eq_comp, f)


def test_fn_validate_rejects_non_pairs(eq_comp):
    u = _p("atoms", eq_comp)
    with pytest.raises(ValidationError):
        fn_validate(eq_comp, DefFunction(u, u, _p("{a | a in atoms}", eq_comp)))


def test_fn_validate_rejects_escaping_graph(eq_comp):
    u = _p("{a | a in atoms, a != #1}", eq_comp)
    graph = _p("{(a, a) | a in atoms}", eq_comp)
    with pytest.raises(ValidationError):
        fn_validate(eq_comp, DefFunction(u, u, graph))


def test_fn_apply_pinned_values(eq_comp):
    f = _smooth_fn(eq_comp)
    assert set_equal(eq_comp, fn_apply(eq_comp, f, _p("#2", eq_comp)), _p("(#2, #1)", eq_comp))
    assert set_equal(eq_comp, fn_apply(eq_comp, f, _p("(#2, #1)", eq_comp)), _p("#2", eq_comp))
    assert set_equal(
        eq_comp, fn_apply(eq_comp, f, _p("(#2, #3)", eq_comp)), _p("(#2, #3)", eq_comp)
    )


def test_fn_apply_outside_domain(eq_comp):
    u = _p("{a | a in atoms, a != #1}", eq_comp)
    f = DefFunction(u, u, _p("{(a, a) | a in atoms, a != #1}", eq_comp))
    with pytest.raises(DomainError):
        fn_apply(eq_comp, f, _p("#1", eq_comp))


@pytest.mark.parametrize("backend_name", ["equality", "dlo", "cyclic"])
@pytest.mark.parametrize("binders", ["a, b", "a, b, c"])
def test_idle_binders_take_any_value(comp_for, backend_name, binders):
    # the identity written with binders that neither the guard nor the
    # first component constrains; every value of them gives the same image
    comp = comp_for(backend_name)
    st = structure_from_dict(
        {
            "backend": backend_name,
            "name": "marked",
            "universe": "atoms",
            "relations": [{"name": "E", "arity": 1, "interp": "atoms"}],
            "families": [],
        }
    )
    f = DefFunction(st.universe, st.universe, _p(f"{{(a, a) | {binders} in atoms}}", comp))
    for text in ("#0", "#3") if backend_name == "equality" else ("0", "3", "-1/2"):
        x = _p(text, comp)
        assert fn_apply(comp, f, x) == x
    assert check_isomorphism(comp, f, st, st)


def test_fn_inverse_round_trip(eq_comp):
    f = _smooth_fn(eq_comp)
    g = fn_inverse(f)
    assert fn_bijective(eq_comp, g)
    x = _p("#7", eq_comp)
    assert set_equal(eq_comp, fn_apply(eq_comp, g, fn_apply(eq_comp, f, x)), x)


def test_partial_function_checks(eq_comp):
    u = _p("atoms", eq_comp)
    half = DefFunction(u, u, _p("{(a, a) | a in atoms, a != #1}", eq_comp))
    assert not fn_check(eq_comp, half)  # not total
    assert fn_check(eq_comp, half, total=False)
    squash = DefFunction(u, u, _p("{(a, #1) | a in atoms}", eq_comp))
    assert fn_check(eq_comp, squash)
    assert not fn_check(eq_comp, squash, injective=True)
    assert not fn_check(eq_comp, squash, surjective=True)


def test_orbit_dimension_constant_on_random_exprs(eq_comp):
    rng = random.Random(31)
    for _ in range(20):
        e = gen_set_expr(rng, "equality", [1, 2], max_binders=2, depth=1)
        s = expr_params(e)
        for orb in orbit_decomposition(eq_comp, e, s):
            rep = orb.rep_element()
            dim = len(least_support(eq_comp, rep))
            mapping = extend_automorphism("equality", {a: a for a in s}, set(range(6)))
            moved = act(mapping, rep)
            assert len(least_support(eq_comp, moved)) == dim


# ---------------------------------------------------------------------------
# differential tests against the unskipped references in oracles.py


def _hidden(p):
    """{p} + {a | a in atoms, a != p}: the atom set, with p spurious and
    inside a set clause's element."""
    return union_of(
        SetComp(AtomParam(p), (), TRUE),
        SetComp(EVar("a"), ("a",), lnot(Rel("=", (Var("a"), Const(p))))),
    )


def _support_value(rng, backend_name, atoms):
    roll = rng.random()
    if roll < 0.3:  # atoms as tuple components, repeats allowed
        return ETuple(tuple(AtomParam(rng.choice(atoms)) for _ in range(rng.choice((2, 3)))))
    if roll < 0.5:
        return _hidden(rng.choice(atoms))
    if roll < 0.65:
        return gen_element(rng, backend_name, [], atoms, 2, [2])
    # atoms inside set clauses, beside a tuple component
    s = gen_set_expr(rng, backend_name, atoms, max_binders=2, depth=1)
    return ETuple((AtomParam(rng.choice(atoms)), rng.choice((s, _hidden(rng.choice(atoms))))))


def _shown(x) -> set:
    """The atoms x shows through tuples."""
    if isinstance(x, AtomParam):
        return {x.value}
    if isinstance(x, ETuple):
        return set().union(*map(_shown, x.items))
    return set()


@pytest.mark.parametrize("backend_name", ["equality", "dlo", "cyclic"])
def test_least_support_matches_the_greedy_reference(backend_name):
    # and S supports x exactly when it holds the reference support, for S
    # each subset of x's atoms and one atom outside them; an S missing an
    # atom x shows through tuples is decided without a sentence
    rng = random.Random(1010)
    comp = Compiler(get_backend(backend_name))
    ref = Compiler(get_backend(backend_name))
    sent = []
    holds = comp.holds
    comp.holds = lambda f: sent.append(f) or holds(f)
    for _ in range(60):
        x = _support_value(rng, backend_name, sample_atoms(rng, backend_name, 3))
        support = reference_least_support(ref, x)
        assert least_support(comp, x) == support, x
        atoms = sorted(expr_params(x))
        atoms.append(max(atoms) + 1)
        for k in range(len(atoms) + 1):
            for S in map(frozenset, itertools.combinations(atoms, k)):
                sent.clear()
                assert supported_by(comp, x, S) == (support <= S), (x, S)
                if not _shown(x) <= S:
                    assert sent == []


def _finite(*values):
    """The finite set literal of `values`, as the parser builds {a, b}."""
    return union_of(*(Union((SetComp(v, (), TRUE),)) for v in values))


def _inclusion_value(rng, backend_name, atoms):
    """A closed value whose support test compiles an inclusion: a set, a
    tuple with set components, or a finite literal of atoms or of sets,
    such as {atoms - {c}, {a, b}}, where a moved {a, b} still lies inside
    an element of the value when c is fixed."""
    s = gen_set_expr(rng, backend_name, atoms, max_binders=2, depth=2)
    pair = _finite(*map(AtomParam, rng.sample(atoms, 2)))
    c = Const(rng.choice(atoms))
    wide = rng.choice((s, ATOMS, Union((SetComp(EVar("g"), ("g",), lnot(Rel("=", (Var("g"), c)))),))))
    roll = rng.random()
    if roll < 0.3:
        return s
    if roll < 0.5:
        return ETuple((s, AtomParam(rng.choice(atoms))))
    if roll < 0.65:
        return ETuple((pair, s))
    if roll < 0.8:
        return ETuple((s, gen_set_expr(rng, backend_name, atoms, max_binders=1, depth=1)))
    return _finite(wide, pair)


@pytest.mark.parametrize("backend_name", ["equality", "dlo", "cyclic"])
def test_one_inclusion_decides_support_as_the_equality_does(backend_name):
    # supported_by asks that every moved copy of x lies below x; the
    # reference asks that it equals x, both inclusions compiled
    rng = random.Random(4401)
    comp = Compiler(get_backend(backend_name))
    ref = Compiler(get_backend(backend_name))
    verdicts = Counter()
    for _ in range(60):
        x = _inclusion_value(rng, backend_name, sample_atoms(rng, backend_name, 3))
        atoms = sorted(expr_params(x))
        for k in range(len(atoms) + 1):
            for S in map(frozenset, itertools.combinations(atoms, k)):
                got = supported_by(comp, x, S)
                assert got == two_inclusions_supported_by(ref, x, S), (x, S)
                verdicts[got] += 1
    assert min(verdicts[True], verdicts[False]) >= 30, verdicts


def test_least_support_of_a_nested_cyclic_set(cyc_comp):
    x = _p(NESTED_CYCLIC, cyc_comp)
    support = least_support(cyc_comp, x)
    assert support == frozenset({Fraction(0), Fraction(-9)})
    # the reference sends the invariance sentence for every atom
    assert reference_least_support(Compiler(get_backend("cyclic")), x) == support


def test_least_support_sends_no_sentence_for_tuple_atoms(monkeypatch, cyc_comp):
    sent = []
    monkeypatch.setattr(cyc_comp, "holds", sent.append)
    one, two, three = (AtomParam(Fraction(k)) for k in (1, 2, 3))
    x = ETuple((one, ETuple((three, two)), one))
    assert least_support(cyc_comp, x) == frozenset({Fraction(1), Fraction(2), Fraction(3)})
    assert sent == []


def _graph_clause(rng, backend_name, atoms):
    binders = ("a", "b")[: rng.choice((1, 2))]
    terms = [EVar(b) for b in binders] + [AtomParam(rng.choice(atoms))]
    pair = ETuple((rng.choice(terms), rng.choice(terms)))
    guard = TRUE
    if rng.random() < 0.7:
        guard = gen_qf_formula(rng, backend_name, list(binders), atoms, depth=1)
    return SetComp(pair, binders, guard)


def _neq(name, value):
    return lnot(Rel("=", (Var(name), Const(value))))


def _kernel_sets(atoms):
    """Sets whose clauses show every binder, with constants, repeated
    binders and guards; then sets with a set component, alone and in a
    union with a clause that shows its binders."""
    a, b = EVar("a"), EVar("b")
    p, q = AtomParam(atoms[0]), AtomParam(atoms[1])
    inner = Union((SetComp(b, ("b",), _neq("b", atoms[0])),))
    shown = [
        ATOMS,
        union_of(SetComp(p, (), TRUE), SetComp(q, (), TRUE)),
        SetComp(ETuple((a, p)), ("a",), _neq("a", atoms[1])),
        SetComp(ETuple((a, a)), ("a",), TRUE),
        SetComp(ETuple((a, ETuple((b, a)))), ("a", "b"), _neq("b", atoms[0])),
        union_of(SetComp(ETuple((a, b)), ("a", "b"), _neq("a", atoms[0])), SetComp(ETuple((p, p)), (), TRUE)),
    ]
    hidden = [
        SetComp(ETuple((a, inner)), ("a",), TRUE),
        union_of(SetComp(ETuple((a, b)), ("a", "b"), TRUE), SetComp(ETuple((a, inner)), ("a",), TRUE)),
        SetComp(a, ("a", "b"), _neq("b", atoms[0])),
    ]
    return shown, hidden


@pytest.mark.parametrize("backend_name", ["equality", "dlo", "cyclic"])
def test_is_member_by_matching_agrees_with_the_compiled_membership(monkeypatch, backend_name):
    """Against `comp.member` on a fresh compiler.  A set whose clauses all
    show their binders is decided with no sentence, when x is finite if a
    clause shows them through a literal; any other set sends its compiled
    membership."""
    rng = random.Random(2525)
    comp = Compiler(get_backend(backend_name))
    ref = Compiler(get_backend(backend_name))
    atoms = sample_atoms(rng, backend_name, 3)
    shown, hidden = _kernel_sets(atoms)
    generated = [gen_set_expr(rng, backend_name, atoms[:2], max_binders=2, depth=2) for _ in range(20)]
    sets = shown + hidden + generated
    values = [
        o.rep_element()
        for x in sets
        for o in orbit_decomposition(comp, x, frozenset(atoms[:2]) | expr_params(x))
    ]
    sent = []
    holds = comp.holds
    monkeypatch.setattr(comp, "holds", lambda f: sent.append(f) or holds(f))
    seen = Counter()
    for s in sets:
        shapes = [_shape(c.element, c.binders) for c in clauses(s)]
        for x in rng.sample(values, 12) + [o.rep_element() for o in orbit_decomposition(ref, s, frozenset(atoms))]:
            kernel = all(shapes) and (_LITERALS not in shapes or _value(x) is not None)
            sent.clear()
            got = is_member(comp, x, s)
            assert got == ref.holds(ref.member(x, s)), (print_expr(x), print_expr(s))
            assert bool(sent) != kernel, (print_expr(x), print_expr(s))
            seen[kernel, got] += 1
    assert all(seen[key] for key in itertools.product((True, False), repeat=2)), seen


@pytest.mark.parametrize("backend_name", ["equality", "dlo", "cyclic"])
def test_fn_apply_by_matching_agrees_with_the_witness_search(backend_name):
    """Against the witness search on every clause (`reference_fn_apply`):
    the same image, or DomainError from both, on graphs whose clauses show
    their binders in the first component, on graphs whose clauses do not,
    and on mixtures."""
    rng = random.Random(2526)
    comp = Compiler(get_backend(backend_name))
    ref = Compiler(get_backend(backend_name))
    atoms = sample_atoms(rng, backend_name, 3)
    shown, hidden = _kernel_sets(atoms)
    a, b = EVar("a"), EVar("b")
    p = AtomParam(atoms[0])
    graphs = [
        union_of(*(SetComp(ETuple((c.element, e)), c.binders, c.guard) for c in clauses(s)))
        for s in shown + hidden
        for e in (p, a)
        if all("a" in c.binders for c in clauses(s))
    ]
    graphs += [
        union_of(*(_graph_clause(rng, backend_name, atoms[:2]) for _ in range(rng.choice((1, 2, 3)))))
        for _ in range(12)
    ]
    graphs.append(SetComp(ETuple((a, b)), ("a", "b"), Rel("=", (Var("a"), Var("b")))))
    values = [o.rep_element() for x in shown + hidden for o in orbit_decomposition(comp, x, frozenset(atoms))]
    answers = Counter()
    for g in graphs:
        fn = DefFunction(ATOMS, ATOMS, g)
        shows = [_shape(c.element.items[0], c.binders) == _TUPLES for c in clauses(g)]
        for x in values:
            try:
                want = reference_fn_apply(ref, fn, x)
            except DomainError:
                with pytest.raises(DomainError):
                    fn_apply(comp, fn, x)
                answers[any(shows), all(shows), None] += 1
                continue
            assert fn_apply(comp, fn, x) == want, (print_expr(g), print_expr(x))
            answers[any(shows), all(shows), True] += 1
    for key in ((True, True), (True, False), (False, False)):
        assert answers[(*key, True)] and answers[(*key, None)], answers


@pytest.mark.parametrize("backend_name", ["equality", "dlo", "cyclic"])
def test_determined_by_matching_agrees_with_the_breach_block(monkeypatch, backend_name):
    """A clause whose component `by` shows its binders against a fixed pair
    is decided by matching: no agreeing instance, flat components compared
    as written, or one closed equality when a set is involved.  Each
    verdict agrees with the universal sentence of the reference."""
    rng = random.Random(2527)
    comp = Compiler(get_backend(backend_name))
    ref = Compiler(get_backend(backend_name))
    atoms = sample_atoms(rng, backend_name, 3)
    shown, _ = _kernel_sets(atoms)
    a = EVar("a")
    p = AtomParam(atoms[0])
    inner = Union((SetComp(EVar("b"), ("b",), _neq("b", atoms[0])),))
    clauses_ = [
        SetComp(ETuple((a, a)), ("a",), TRUE),
        SetComp(ETuple((a, p)), ("a",), _neq("a", atoms[1])),
        SetComp(ETuple((a, inner)), ("a",), TRUE),
        SetComp(ETuple((inner, a)), ("a",), _neq("a", atoms[0])),
        SetComp(ETuple((ETuple((a, p)), a)), ("a",), TRUE),
    ]
    firsts = [o.rep_element() for x in shown for o in orbit_decomposition(comp, x, frozenset(atoms))]
    seconds = firsts[:6] + [inner, Union((SetComp(EVar("b"), ("b",), TRUE),))]
    sent = []
    holds = comp.holds
    monkeypatch.setattr(comp, "holds", lambda f: sent.append(f) or holds(f))
    verdicts = Counter()
    for c in clauses_:
        for x0, y0 in itertools.product(firsts[:8], seconds):
            fixed = SetComp(ETuple((x0, y0)), (), TRUE)
            for by in (0, 1):
                if _shape(c.element.items[by], c.binders) != _TUPLES:
                    continue
                for parts in ((c, fixed), (fixed, c)):
                    sent.clear()
                    got = determined(comp, parts, by)
                    assert got == reference_piece_determined(ref, c, x0, y0, by), (print_expr(c), x0, y0, by)
                    verdicts[got, bool(sent)] += 1
    assert all(verdicts[key] for key in itertools.product((True, False), repeat=2)), verdicts


@pytest.mark.parametrize("backend_name", ["equality", "dlo", "cyclic"])
def test_fn_validate_finds_the_one_escaping_orbit(backend_name):
    """Orbit by orbit against the inclusion in dom x cod, on graphs where
    exactly one S-orbit of pairs escapes: by its first component, by its
    second, and inside a set component; then the same graphs without
    it."""
    rng = random.Random(2528)
    comp = Compiler(get_backend(backend_name))
    ref = Compiler(get_backend(backend_name))
    p, q = sample_atoms(rng, backend_name, 2)
    a, b = EVar("a"), EVar("b")
    off_p = SetComp(a, ("a",), _neq("a", p))
    inner = Union((SetComp(b, ("b",), _neq("b", p)),))
    sets = Union((SetComp(inner, (), TRUE), SetComp(ATOMS, (), TRUE)))
    cases = [
        (ATOMS, off_p, SetComp(ETuple((a, a)), ("a",), TRUE)),
        (off_p, ATOMS, SetComp(ETuple((a, a)), ("a",), _neq("a", q))),
        (ATOMS, ATOMS, union_of(SetComp(ETuple((a, a)), ("a",), TRUE), SetComp(ETuple((AtomParam(q), inner)), (), TRUE))),
        (ATOMS, sets, union_of(SetComp(ETuple((a, inner)), ("a",), TRUE), SetComp(ETuple((AtomParam(q), ATOMS)), (), TRUE))),
    ]
    escaped = Counter()
    for dom, cod, g in cases:
        for graph in (g, union_of(*(c for c in clauses(g) if not c.binders) or [EMPTY])):
            fn = DefFunction(dom, cod, graph)
            S = expr_params(dom) | expr_params(cod) | expr_params(graph)
            out = [
                o for o in orbit_decomposition(comp, graph, S)
                if not ref.holds(ref.member(o.rep_element(), product_expr(dom, cod)))
            ]
            inside = ref.holds(ref.subset(graph, product_expr(dom, cod)))
            assert inside == (not out)
            if inside:
                fn_validate(comp, fn)
            else:
                with pytest.raises(ValidationError):
                    fn_validate(comp, fn)
            escaped[len(out)] += 1
    assert escaped[1] >= 3 and escaped[0] >= 1, escaped


@pytest.mark.parametrize("backend_name", ["equality", "dlo", "cyclic"])
def test_fn_check_matches_the_nested_sentences(backend_name):
    rng = random.Random(2020)
    comp = Compiler(get_backend(backend_name))
    ref = Compiler(get_backend(backend_name))
    atoms = sample_atoms(rng, backend_name, 2)
    u = ATOMS
    orbits = [o.piece() for o in orbit_decomposition(comp, product_expr(u, u), atoms[:1])]
    p = AtomParam(atoms[0])
    graphs = [
        _p("{(a, b) | a, b in atoms}", comp),  # one clause, not functional
        # two functional clauses whose union is not
        union_of(_p("{(a, a) | a in atoms}", comp), SetComp(ETuple((EVar("a"), p)), ("a",), TRUE)),
        SetComp(ETuple((EVar("a"), p)), ("a",), TRUE),  # functional, not injective
        SetComp(ETuple((p, EVar("a"))), ("a",), TRUE),  # injective, not functional
    ]
    for _ in range(12):
        graphs.append(union_of(*rng.sample(orbits, rng.choice((1, 2, 3)))))
        k = rng.choice((1, 2, 3))
        graphs.append(union_of(*(_graph_clause(rng, backend_name, atoms) for _ in range(k))))
    a, b, q = EVar("a"), EVar("b"), AtomParam(atoms[1])

    def pairs(x, y, binders=(), guard=TRUE):
        return SetComp(ETuple((x, y)), binders, guard)

    def avoids(name, *values):
        return land(*(lnot(Rel("=", (Var(name), Const(v)))) for v in values))

    # a parameter of the graph that dom and cod lack, as in the smoothing
    # map, so that the graph's orbits are taken over more atoms than theirs;
    # then the same map made not functional at the pairs (a, p) alone
    mixed = _p("{(a, b) | a, b in atoms} + {a | a in atoms}", comp)
    smoothing = [pairs(a, ETuple((a, p)), ("a",)), pairs(ETuple((a, p)), a, ("a",))]
    ab = ETuple((a, b))
    # the identity away from p and q, with p sent to both: functional in
    # every orbit of pairs but those at p; then its inverse
    rest = pairs(a, a, ("a",), avoids("a", *atoms))
    split = [(mixed, union_of(*smoothing, pairs(ab, ab, ("a", "b"), avoids("b", atoms[0]))), True, True),
             (mixed, union_of(*smoothing, pairs(ab, ab, ("a", "b"))), False, False),
             (u, union_of(rest, pairs(p, p), pairs(p, q)), False, True),
             (u, union_of(rest, pairs(p, p), pairs(q, p)), True, False)]
    for dom, g, functional, injective in split:
        fn = DefFunction(dom, dom, g)
        assert fn_check(comp, fn, total=False) == functional
        assert fn_check(comp, fn, functional=False, total=False, injective=True) == injective
    maps = [(u, g) for g in graphs] + [(dom, g) for dom, g, _, _ in split]
    # each property alone: functional, total, injective, surjective
    alone = [
        {"total": False},
        {"functional": False},
        {"functional": False, "total": False, "injective": True},
        {"functional": False, "total": False, "surjective": True},
    ]
    seen = set()
    for dom, g in maps:
        fn = DefFunction(dom, dom, g)
        for k, flags in enumerate(alone):
            got = fn_check(comp, fn, **flags)
            assert got == reference_fn_check(ref, fn, **flags), (print_expr(g), flags)
            seen.add((k, got))
    assert seen == {(k, v) for k in range(4) for v in (True, False)}


def _orbit_cases(backend_name):
    """40 seeded sets per backend and two with sets inside their elements,
    where the type of the atoms shown through tuples decides nothing, each
    with its own atoms as S and with one more atom, whose finer orbits each
    lie inside one orbit over S."""
    rng = random.Random(1212)
    backend = get_backend(backend_name)
    extra = sample_atoms(rng, backend_name, 1)[0]
    out = [
        (parse(text, backend), frozenset(), frozenset({extra}))
        for text in ("{{a, b} | a, b in atoms}", "{({a, b}, c) | a, b, c in atoms}")
    ]
    for _ in range(40):
        atoms = sample_atoms(rng, backend_name, 3)
        x = gen_set_expr(rng, backend_name, atoms[:2], max_binders=2, depth=2)
        s = expr_params(x)
        out.append((x, s, s | {atoms[2]}))
    return out


# two injective clauses of the same orbits
_SHARED_ORBITS = {
    "equality": "{(a, b) | a, b in atoms, a != b} + {(b, a) | a, b in atoms, a != b}",
    "dlo": "{(a, b) | a, b in atoms, a < b} + {(b, a) | a, b in atoms, b < a}",
    "cyclic": "{(a, b, c) | a, b, c in atoms, R(a, b, c)} + {(b, c, a) | a, b, c in atoms, R(a, b, c)}",
}


def _merging_sets(backend_name):
    """Sets whose candidates merge, over no atom or over one, each with
    whether its clauses' elements are injective, in clause order: a
    non-injective clause merging with itself and then an injective clause
    of the same orbits, two injective clauses of the same orbits, and a
    non-injective clause merging with itself."""
    return [
        ("{(a, b) | a, b, c in atoms, a != b and c != a} + {(b, a) | a, b in atoms, a != b}", [False, True]),
        (_SHARED_ORBITS[backend_name], [True, True]),
        ("{{a, b} | a, b in atoms, a != b}", [False]),
    ]


@pytest.mark.parametrize("backend_name", ["equality", "dlo", "cyclic"])
def test_orbit_decomposition_matches_the_membership_reference(backend_name):
    comp = Compiler(get_backend(backend_name))
    ref = Compiler(get_backend(backend_name))
    cases = [(x, s) for x, s, _ in _orbit_cases(backend_name)]
    extra = frozenset(sample_atoms(random.Random(26), backend_name, 1))
    merging = set()
    for text, injective in _merging_sets(backend_name):
        x = _p(text, comp)
        assert [_element_injective(c) for c in x.clauses] == injective, text
        merging.add(x.key)
        cases += [(x, frozenset()), (x, extra)]
    merged = set()
    for x, s in cases:
        got = orbit_decomposition(comp, x, s)
        assert got == reference_orbit_decomposition(ref, x, s), print_expr(x)
        candidates = sum(
            comp.backend.sat(c.guard, t.rep_valuation())
            for c in x.clauses
            for t in types_with_reps(comp.backend, c.binders, s)
        )
        if candidates > len(got):
            merged.add(x.key)
    assert merged - merging and merging <= merged


def test_orbit_decomposition_of_one_injective_clause_needs_no_merge_test(monkeypatch):
    # distinct types of a clause whose element shows every binder are
    # distinct orbits: each admitted type is kept with no in_orbit call,
    # and with no representative built for a lookup that scans nothing
    comp = Compiler(get_backend("dlo"))
    x = _p("{(a, b, c) | a, b, c in atoms}", comp)
    s = frozenset({Fraction(1), Fraction(2)})
    calls = []
    merge_test = in_orbit
    monkeypatch.setattr("atomiso.algebra.in_orbit", lambda *args: calls.append(args) or merge_test(*args))
    reps = []
    rep_element = OrbitDescriptor.rep_element
    monkeypatch.setattr(OrbitDescriptor, "rep_element", lambda d: reps.append(d) or rep_element(d))
    got = orbit_decomposition(comp, x, s)
    assert calls == []
    assert reps == []
    assert len(got) == sum(1 for _ in comp.backend.type_reps(("a", "b", "c"), s))


def test_orbit_decomposition_of_a_clause_of_many_orbits_is_fast():
    # one injective clause with 12,931 orbits: no candidate is compared with
    # the orbits of its own clause
    comp = Compiler(get_backend("dlo"))
    x = _p("{(v0, v1, v2, v3) | v0, v1, v2, v3 in atoms}", comp)
    s = frozenset(Fraction(i) for i in range(1, 5))
    start = time.process_time()
    assert len(orbit_decomposition(comp, x, s)) == 12931
    assert time.process_time() - start < 10


# sha256 of the descriptors (clause, type, representative) of the
# NESTED_CYCLIC_ORBITS decomposition as the membership reference gives them,
# pinned so that tier-1 need not run the slow reference on it
NESTED_CYCLIC_ORBITS_DIGEST = "e8e762ef79cbbe9a2c2dd3c4f2e885765497efb1a88de85542adcc29f4ca77ce"


def test_orbits_of_a_nested_cyclic_set(cyc_comp):
    x = _p(NESTED_CYCLIC_ORBITS, cyc_comp)
    orbits = orbit_decomposition(cyc_comp, x, expr_params(x))
    assert len(orbits) == 12
    out = [(d.clause.key, d.type_formula.key, d.rep) for d in orbits]
    assert hashlib.sha256(repr(out).encode()).hexdigest() == NESTED_CYCLIC_ORBITS_DIGEST


@pytest.mark.parametrize(
    "backend_name, text, candidates, admitted",
    [
        ("cyclic", NESTED_CYCLIC, 21, 21),
        ("cyclic", "{(a, b) | a, b in atoms, R(a, b, 0) or a = b}", 6, 3),
        ("dlo", "{(a, b, c) | a, b, c in atoms, a < b and not c < 1}", 75, 18),
    ],
    ids=["nested-cyclic", "cyclic-arc", "dlo-order"],
)
def test_orbit_decomposition_writes_only_admitted_types(
    monkeypatch, backend_name, text, candidates, admitted
):
    # a candidate's type formula is written only once its guard admits the
    # representative; the type_of calls of in_orbit's merge test are not
    # the decomposition's own and are not counted
    comp = Compiler(get_backend(backend_name))
    backend = comp.backend
    x = _p(text, comp)
    s = expr_params(x)
    verdicts = [
        backend.sat(c.guard, dict(zip(c.binders, values)))
        for c in x.clauses
        for values in backend.type_reps(c.binders, s)
    ]
    assert (len(verdicts), sum(verdicts)) == (candidates, admitted)
    written, merging = [], []
    type_of, merge_test = backend.type_of, in_orbit

    def counted_type_of(*args):
        if not merging:
            written.append(args)
        return type_of(*args)

    def uncounted_in_orbit(*args):
        merging.append(args)
        try:
            return merge_test(*args)
        finally:
            merging.pop()

    monkeypatch.setattr(backend, "type_of", counted_type_of)
    monkeypatch.setattr("atomiso.algebra.in_orbit", uncounted_in_orbit)
    got = orbit_decomposition(comp, x, s)
    assert len(written) == admitted
    monkeypatch.undo()
    assert got == reference_orbit_decomposition(Compiler(get_backend(backend_name)), x, s)


@pytest.mark.parametrize("backend_name", ["equality", "dlo", "cyclic"])
def test_in_orbit_agrees_with_piece_membership(monkeypatch, backend_name):
    comp = Compiler(get_backend(backend_name))
    ref = Compiler(get_backend(backend_name))
    sent = []
    holds = comp.holds
    monkeypatch.setattr(comp, "holds", lambda f: sent.append(f) or holds(f))
    answers = []
    unsent = Counter()  # (clause element injective, answer) -> decided with no sentence
    other_shapes = 0
    for x, s, finer in _orbit_cases(backend_name):
        orbits = orbit_decomposition(comp, x, s)
        reps = [o.rep_element() for o in orbits + orbit_decomposition(comp, x, finer)]
        shapes = {value_shape(c.element) for c in clauses(x)}
        for rep in reps:
            inside = []
            for o in orbits:
                sent.clear()
                got = in_orbit(comp, rep, o)
                assert got == is_member(ref, rep, o.piece()), (print_expr(x), print_expr(rep))
                injective = _element_injective(o.clause)
                # an element showing every binder is matched by its row alone
                assert not (injective and sent), (print_expr(x), print_expr(rep))
                unsent[injective, got] += not sent
                inside.append(got)
            # the orbits partition the set
            assert inside.count(True) == 1, (print_expr(x), print_expr(rep))
            assert orbit_index(comp, rep, orbits) == inside.index(True)
            answers += inside
            pair = ETuple((rep, rep))
            if value_shape(pair) not in shapes:
                assert orbit_index(comp, pair, orbits) is None
                other_shapes += 1
    assert set(answers) == {True, False}
    assert all(unsent[key] for key in ((True, True), (True, False), (False, False))), unsent
    assert other_shapes > 0


# sets whose clauses show their binders through finite set literals, with
# {p} and {q} standing for two atoms: repeated binders, a constant member,
# a nested literal, a tuple holding a literal, the empty set as a member,
# and a clause of each shape in one union
_LITERAL_SETS = (
    "{ {a, b} | a, b in atoms }",
    "{ {a, b} | a, b in atoms, a = b }",
    "{ {a, a} | a in atoms }",
    "{ {a, {p}} | a in atoms, a != {q} }",
    "{ { {a}, {a, b} } | a, b in atoms }",
    "{ ({a, b}, (a, c)) | a, b, c in atoms }",
    "{ {a, b, c} | a, b, c in atoms, a != b }",
    "{ (a, empty) | a in atoms } + { {a, b} | a, b in atoms, a != b }",
    "{ {a, b} | a, b in atoms, a != b } + {(a, b) | a, b in atoms}",
)

# values to look up besides the sets' orbit representatives: duplicate
# members, the empty set, a literal holding a comprehension, and a
# comprehension that equals a literal, which keeps its sentence
_LITERAL_VALUES = (
    "{{p}, {p}}",
    "{{p}, {q}}",
    "{ {{p}}, {{p}, {q}} }",
    "({{p}, {q}}, ({p}, {q}))",
    "({{p}, {q}}, ({q}, {p}))",
    "empty",
    "{empty}",
    "({p}, empty)",
    "{ {a | a in atoms, a = {p}} }",
    "{a | a in atoms, a = {p} or a = {q}}",
)


def _literal_texts(texts, p, q):
    return [t.replace("{p}", format_atom_value(p)).replace("{q}", format_atom_value(q)) for t in texts]


@pytest.mark.parametrize("backend_name", ["equality", "dlo", "cyclic"])
def test_literal_kernel_agrees_with_the_references(monkeypatch, backend_name):
    """`is_member`, `orbit_decomposition`, `orbit_index` and
    `least_support` on sets shown through literals, and `in_orbit` called
    directly on every orbit, against the compiled membership of a fresh
    compiler, `reference_orbit_decomposition` and
    `reference_least_support`, at the hand-made values and at a sample of
    orbit representatives.  A finite value is decided with no sentence, a
    comprehension with one."""
    rng = random.Random(3030)
    backend = get_backend(backend_name)
    comp, ref = Compiler(backend), Compiler(get_backend(backend_name))
    p, q = sample_atoms(rng, backend_name, 2)
    sets = [parse(t, backend) for t in _literal_texts(_LITERAL_SETS, p, q)]
    values = [parse(t, backend) for t in _literal_texts(_LITERAL_VALUES, p, q)]
    reps = []
    for s in sets:
        for S in (expr_params(s), expr_params(s) | {p}):
            got = orbit_decomposition(comp, s, S)
            assert got == reference_orbit_decomposition(Compiler(get_backend(backend_name)), s, S)
            reps += [o.rep_element() for o in got]
    values += rng.sample(reps, 16)
    sent = []
    holds = comp.holds
    monkeypatch.setattr(comp, "holds", lambda f: sent.append(f) or holds(f))
    seen = Counter()
    for x in values:
        finite = _value(x) is not None
        sent.clear()
        assert least_support(comp, x) == reference_least_support(ref, x), print_expr(x)
        assert not (finite and sent), print_expr(x)
        for s in sets:
            sent.clear()
            got = is_member(comp, x, s)
            assert got == ref.holds(ref.member(x, s)), (print_expr(x), print_expr(s))
            assert bool(sent) != finite, (print_expr(x), print_expr(s))
            seen[finite, got] += 1
    assert all(seen[key] for key in itertools.product((True, False), repeat=2)), seen
    # each orbit's answer by a direct `in_orbit` call, and the orbit
    # holding each value, against the compiled membership of every piece
    for s in sets:
        orbits = orbit_decomposition(comp, s, expr_params(s) | {p})
        for x in values:
            inside = [ref.holds(ref.member(x, o.piece())) for o in orbits]
            want = inside.index(True) if True in inside else None
            sent.clear()
            assert [in_orbit(comp, x, o) for o in orbits] == inside, (print_expr(x), print_expr(s))
            assert orbit_index(comp, x, orbits) == want, (print_expr(x), print_expr(s))
            assert not (_value(x) is not None and sent), (print_expr(x), print_expr(s))


def test_orbits_of_unordered_pairs_send_no_sentence(monkeypatch):
    # the merge tests between the candidates of a literal-valued clause
    # match the representatives against each other with no sentence
    for backend_name, text, S, count in (
        ("equality", "{ {a, b} | a, b in atoms }", "#1, #2", 7),
        ("dlo", "{ ({a, b}, {c, d}) | a, b, c, d in atoms, a < b and b < c and c < d }", "1", 9),
    ):
        backend = get_backend(backend_name)
        comp = Compiler(backend)
        S = frozenset(parse_atoms(S, backend))
        sent = []
        monkeypatch.setattr(backend, "holds", sent.append)
        orbits = orbit_decomposition(comp, parse(text, backend), S)
        monkeypatch.undo()
        assert len(orbits) == count and sent == []
        want = reference_orbit_decomposition(Compiler(get_backend(backend_name)), parse(text, backend), S)
        assert orbits == want


@pytest.mark.parametrize("backend_name", ["equality", "dlo", "cyclic"])
def test_fn_apply_and_determined_on_literals_agree_with_the_references(monkeypatch, backend_name):
    """Graphs whose first component shows its binders through literals:
    `fn_apply` against `reference_fn_apply`, and `determined` at fixed
    pairs against `reference_piece_determined`, where a literal matched
    two ways must check both rows."""
    rng = random.Random(3031)
    backend = get_backend(backend_name)
    comp, ref = Compiler(backend), Compiler(get_backend(backend_name))
    p, q = sample_atoms(rng, backend_name, 2)
    functional = _literal_texts(
        (
            "{ ({a, b}, {a, b}) | a, b in atoms }",
            "{ ({a}, a) | a in atoms }",
            "{ (({a, b}, (a, c)), c) | a, b, c in atoms }",
            "{ ({a, b}, {p}) | a, b in atoms, a != b } + { ({a}, {q}) | a in atoms }",
            "{ ({ {a}, {a, b} }, (a, b)) | a, b in atoms, a != {p} }",
        ),
        p,
        q,
    )
    values = [parse(t, backend) for t in _literal_texts(_LITERAL_VALUES, p, q)]
    for text in functional:
        fn = DefFunction(ATOMS, ATOMS, parse(text, backend))
        for x in values:
            try:
                want = reference_fn_apply(ref, fn, x)
            except DomainError:
                with pytest.raises(DomainError):
                    fn_apply(comp, fn, x)
                continue
            assert set_equal(ref, fn_apply(comp, fn, x), want), (text, print_expr(x))
    # ({a, b}, (a, b)) at ({p, q}, (p, q)) has a second row, (q, p), with
    # another image
    pairs = "{ ({a, b}, (a, b)) | a, b in atoms }"
    fixed = [("{{p}, {q}}", "({p}, {q})"), ("{{p}, {q}}", "({q}, {p})"), ("{{p}}", "({p}, {p})")]
    cases = [(pairs, x0, y0) for x0, y0 in fixed + [("{{p}}", "({p}, {q})")]]
    cases += [(t, x0, y0) for t in functional for x0 in ("{{p}, {q}}", "{{p}}") for y0 in ("{p}", "{{p}, {q}}")]
    sent = []
    holds = comp.holds
    monkeypatch.setattr(comp, "holds", lambda f: sent.append(f) or holds(f))
    verdicts = Counter()
    for texts in cases:
        c, x0, y0 = (parse(t, backend) for t in _literal_texts(texts, p, q))
        c = c.clauses[0]
        fixed = SetComp(ETuple((x0, y0)), (), TRUE)
        for parts in ((c, fixed), (fixed, c)):
            sent.clear()
            got = determined(comp, parts, 0)
            assert got == reference_piece_determined(ref, c, x0, y0, 0), (print_expr(c), print_expr(x0), print_expr(y0))
            assert sent == []
            verdicts[got] += 1
    assert verdicts[True] and verdicts[False], verdicts


def _reference_shape(e, binders) -> int:
    """`_shape` as one walk of e per call, with nothing kept on the nodes:
    the reference for the shape each node keeps."""
    used = set()
    literal = False

    def walk(e) -> bool:
        nonlocal literal
        if isinstance(e, EVar):
            used.add(e.name)
            return True
        if isinstance(e, AtomParam):
            return True
        if isinstance(e, ETuple):
            return all(walk(i) for i in e.items)
        if isinstance(e, Union) and not any(c.binders for c in e.clauses):
            literal = True
            return all(walk(c.element) for c in e.clauses)
        return False

    if not (walk(e) and used.issuperset(binders)):
        return 0
    return _LITERALS if literal else _TUPLES


@pytest.mark.parametrize("backend_name", ["equality", "dlo", "cyclic"])
def test_the_shape_kept_on_a_node_agrees_with_a_fresh_walk(backend_name):
    """On the clause elements and pair components of seeded sets and of
    the literal sets, asked with the clause's binders and with none, the
    first answer (which fills the node) and the second (which reads it)
    equal the walk; the node's key, equality, hash and repr do not change.
    Only the answer for no binders is kept: one node asked with two binder
    tuples, in either order, answers each."""
    rng = random.Random(3333)
    backend = get_backend(backend_name)
    p, q = sample_atoms(rng, backend_name, 2)
    sets = [gen_set_expr(rng, backend_name, [p, q], max_binders=3, depth=3) for _ in range(40)]
    sets += [parse(t, backend) for t in _literal_texts(_LITERAL_SETS, p, q)]
    asked = Counter()
    for s in sets:
        for c in clauses(s):
            items = c.element.items if isinstance(c.element, ETuple) else ()
            # components first, so that each is asked before its tuple
            # fills it
            for e in (*items, c.element):
                twin = act({}, e)
                before = (e.key, hash(e), repr(e))
                assert twin == e
                for binders in (c.binders, ()):
                    want = _reference_shape(e, binders)
                    assert [_shape(e, binders), _shape(e, binders)] == [want, want], (print_expr(e), binders)
                    asked[want] += 1
                assert (e.key, hash(e), repr(e)) == before and twin == e and hash(twin) == hash(e)
    assert all(asked[shape] for shape in (0, _TUPLES, _LITERALS)), asked
    a, b = EVar("a"), EVar("b")
    for order in ((("a", "b"), ("a", "b", "c")), (("a", "b", "c"), ("a", "b"))):
        e = ETuple((a, b))
        assert [_shape(e, binders) for binders in order] == [_TUPLES if len(bs) == 2 else 0 for bs in order]
