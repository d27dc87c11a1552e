"""Expression AST invariants: canonical unions, parameter collection,
substitution, atom-map action, and products; interned leaves, rewrites
that keep what they do not change, and copies that keep their keys."""

import copy
import gc
import hashlib
import pickle
import random
from fractions import Fraction

import pytest

from atomiso import exprs as exprs_module
from atomiso.algebra import is_subset, least_support, set_equal
from atomiso.compile import Compiler
from atomiso.errors import (
    BindingError,
    DomainError,
    ValidationError,
    VocabularyError,
)
from atomiso.exprs import (
    ATOMS,
    EMPTY,
    AtomParam,
    AtomsSet,
    ETuple,
    EVar,
    SetComp,
    Union,
    abstract_params,
    act,
    clauses,
    expr_names,
    expr_params,
    free_expr_vars,
    instantiate,
    kind,
    param_occurrences,
    subst_expr,
    union_of,
)
from atomiso.parser import parse, print_expr
from atomiso.theories import backend_names, get_backend
from atomiso.theories.formulas import (
    TRUE,
    Const,
    Exists,
    Rel,
    Var,
    all_names,
    formula_atoms,
    free_vars,
    ne,
    subformulas,
    subst,
)
from eager_references import eager_readings
from generators import gen_automorphism, gen_formula, gen_set_expr, sample_atoms
from oracles import extend_automorphism, nnf, product_expr, value_shape
from reference_rewrites import reference_map_relations, reference_subst, reference_subst_expr


def test_tuple_needs_two_items():
    with pytest.raises(ValidationError):
        ETuple((EVar("a"),))
    ETuple((EVar("a"), EVar("b")))


def test_setcomp_duplicate_binders():
    with pytest.raises(BindingError):
        SetComp(EVar("a"), ("a", "a"), TRUE)


def test_zero_binder_guard_must_be_trivial():
    with pytest.raises(ValidationError):
        SetComp(AtomParam(1), (), ne(Var("x"), Var("y")))
    SetComp(AtomParam(1), (), TRUE)


def test_union_sorts_and_dedupes():
    c1 = SetComp(EVar("a"), ("a",), TRUE)
    c2 = SetComp(ETuple((EVar("a"), EVar("b"))), ("a", "b"), TRUE)
    u1 = Union((c1, c2, c1))
    u2 = Union((c2, c1))
    assert u1 == u2
    assert len(u1.clauses) == 2


def test_union_rejects_non_clause():
    with pytest.raises(ValidationError):
        Union((EVar("a"),))


def test_empty_and_atoms_kinds():
    assert kind(EMPTY) == "set"
    assert kind(ATOMS) == "set"
    assert kind(AtomParam(3)) == "atom"
    assert kind(ETuple((AtomParam(1), AtomParam(2)))) == "tuple"


def test_clauses_desugars_atoms():
    cs = clauses(ATOMS)
    assert len(cs) == 1
    assert cs[0].binders and cs[0].guard == TRUE
    assert isinstance(cs[0].element, EVar)


def test_value_shape():
    e = ETuple((AtomParam(1), Union((SetComp(EVar("a"), ("a",), TRUE),))))
    assert value_shape(e) == ("tuple", "atom", "set")


def test_expr_params_and_free_vars():
    e = parse("{(a, #3) | a in atoms, a != #5}")
    assert expr_params(e) == frozenset({3, 5})
    assert free_expr_vars(e) == frozenset()
    inner = SetComp(ETuple((EVar("a"), EVar("b"))), ("a",), TRUE)
    assert free_expr_vars(Union((inner,))) == frozenset({"b"})


def test_param_occurrences_first_only():
    e = parse("{(#2, a, #2) | a in atoms, a != #2}")
    occs = param_occurrences(e)
    assert set(occs) == {2}


def test_subst_shadowing():
    e = Union((SetComp(ETuple((EVar("a"), EVar("b"))), ("a",), TRUE),))
    out = subst_expr(e, {EVar("a"): AtomParam(9), EVar("b"): AtomParam(7)})
    c = out.clauses[0]
    # bound a untouched, free b replaced
    assert c.element.items[0] == EVar("a")
    assert c.element.items[1] == AtomParam(7)


def reference_expr_key(e) -> tuple:
    """The structural key of an expression, recomputed by recursion."""
    if isinstance(e, EVar):
        return ("v", e.name)
    if isinstance(e, AtomParam):
        return ("p", e.value)
    if isinstance(e, AtomsSet):
        return ("A",)
    if isinstance(e, ETuple):
        return ("t",) + tuple(reference_expr_key(i) for i in e.items)
    if isinstance(e, SetComp):
        return ("s", reference_expr_key(e.element), e.binders, e.guard.key)
    return ("u",) + tuple(reference_expr_key(c) for c in e.clauses)


def reference_expr_names(e) -> frozenset:
    """Every variable name of an expression, recomputed by recursion."""
    if isinstance(e, EVar):
        return frozenset((e.name,))
    if isinstance(e, SetComp):
        return reference_expr_names(e.element) | all_names(e.guard) | set(e.binders)
    parts = getattr(e, "items", ()) or getattr(e, "clauses", ())
    return frozenset().union(*map(reference_expr_names, parts))


def _expr_nodes(e):
    yield e
    for child in getattr(e, "items", ()) or getattr(e, "clauses", ()):
        yield from _expr_nodes(child)
    if isinstance(e, SetComp):
        yield from _expr_nodes(e.element)


@pytest.mark.parametrize("name", backend_names())
def test_cached_expression_key_and_names_match_recomputation(name):
    # each node's key is computed once, from its children's cached keys, and
    # its names once, on first read, the whole expression's first
    rng = random.Random(5)
    atoms = sample_atoms(rng, name, 3)
    for _ in range(80):
        e = gen_set_expr(rng, name, atoms[:2], max_binders=3, depth=2)
        moved = act(gen_automorphism(rng, name, sorted(expr_params(e))), e)
        for n in (*_expr_nodes(e), *_expr_nodes(moved), ATOMS):
            assert n.key == reference_expr_key(n), (name, n)
            assert expr_names(n) == reference_expr_names(n), (name, n)
            assert expr_names(n) is expr_names(n)


@pytest.mark.parametrize("name", backend_names())
def test_instantiate_then_abstract_roundtrip(name):
    atom = int if name == "equality" else Fraction
    rng = random.Random(3)
    for _ in range(40):
        e = gen_set_expr(rng, name, [atom(1), atom(2)], max_binders=2, depth=1)
        cs = clauses(e)
        if not cs or not cs[0].binders:
            continue
        c = cs[0]
        vals = {b: atom(10 + i) for i, b in enumerate(c.binders)}
        inst = instantiate(c.element, vals)
        assert free_expr_vars(inst) == free_expr_vars(c.element) - set(vals)
        back = abstract_params(inst, {v: k for k, v in vals.items()})
        assert back == c.element


# the five places an abstraction variable meets a binder of its name: a
# guard quantifier, and a comprehension binder around the atom in the
# guard, in the element, in a nested clause, or nested inside another
_CAPTURES = (
    ("{ a | a in atoms, exists p. p != #1 and a != #2 }", "p"),
    ("{ a | a in atoms, a != #1 }", "a"),
    ("{ (a, #1) | a in atoms }", "a"),
    ("{ {b | b in atoms, b != #1} | a in atoms }", "a"),
    ("{ {a | a in atoms, a != #1} | b in atoms }", "a"),
)


def test_abstract_params_renames_a_binder_that_would_capture():
    for name in backend_names():
        comp = Compiler(get_backend(name))
        one = 1 if name == "equality" else Fraction(1)
        for text, var in _CAPTURES:
            e = parse(text if name == "equality" else text.replace("#", ""), comp.backend)
            out = abstract_params(e, {one: var})
            # the binder is renamed apart, so the new variable is free
            assert free_expr_vars(out) == {var} and one not in expr_params(out), (name, text)
            assert set_equal(comp, instantiate(out, {var: one}), e), (name, text)
    # a name the guard does not bind reaches the guard
    e = parse("{ a | a in atoms, exists p. p != #1 and a != #2 }")
    out = abstract_params(e, {1: "q"})
    assert print_expr(out) == "{a | a in atoms, exists p. a != #2 and p != q}"
    # a binder of the name around no mapped atom captures nothing and is kept
    e = parse("{a | a in atoms, exists p. p != #3}")
    assert abstract_params(e, {1: "p"}) is e
    out = abstract_params(parse("{ a | a in atoms, a != #2 } + {#1}"), {1: "a"})
    assert free_expr_vars(out) == frozenset({"a"})
    assert print_expr(out) in ("{a | a in atoms, a != #2} + {a}", "{a} + {a | a in atoms, a != #2}")


def test_act_applies_and_extends():
    e = parse("{(a, #1) | a in atoms, a != #2}")
    out = act({1: 4, 2: 5}, e)
    assert expr_params(out) == frozenset({4, 5})
    # missing parameters ride along unchanged
    out2 = act({1: 4}, e)
    assert expr_params(out2) == frozenset({4, 2})


def test_act_rejects_collisions():
    e = parse("{(#1, #2)}")
    with pytest.raises(DomainError):
        act({1: 2}, e)  # would glue #1 onto the untouched #2
    # the untouched atom is met in a guard only
    guarded = parse("{(a, #1) | a in atoms, a != #2}")
    with pytest.raises(DomainError):
        act({1: 2}, guarded)
    # two atoms sent to one, whether or not e holds them
    with pytest.raises(DomainError):
        act({1: 3, 5: 3}, e)
    # a fixed point given in the map counts as an image too
    with pytest.raises(DomainError):
        act({1: 2, 2: 2}, parse("{(#1, #3)}"))
    # an image that e does not hold, or a moved one, glues nothing
    assert expr_params(act({1: 7, 2: 2}, e)) == frozenset({7, 2})
    assert expr_params(act({1: 2}, parse("{(#1, #3)}"))) == frozenset({2, 3})
    assert expr_params(act({1: 2, 2: 1}, e)) == frozenset({1, 2})


@pytest.mark.parametrize("name", backend_names())
def test_act_results_are_canonical(name):
    # a moved guard is rebuilt through `land`/`lor`, so the printed image
    # parses back to the same key: `x != #3 and x != #5` under {3: 7} reads
    # `x != #5 and x != #7`, not `x != #7 and x != #5`
    b = get_backend(name)
    rng = random.Random(71)
    for _ in range(200):
        e = gen_set_expr(rng, name, sample_atoms(rng, name, 3), max_binders=3, depth=2)
        moved = act(gen_automorphism(rng, name, sorted(expr_params(e))), e)
        assert parse(print_expr(moved), b).key == moved.key, (name, print_expr(e))


def test_act_is_action():
    rng = random.Random(13)
    for _ in range(30):
        e = gen_set_expr(rng, "equality", [1, 2, 3], max_binders=2, depth=1)
        params = expr_params(e)
        m1 = extend_automorphism("equality", {}, params | {4})
        m2 = extend_automorphism("equality", {}, set(m1.values()))
        lhs = act(m2, act(m1, e))
        comp = {k: m2[v] for k, v in m1.items()}
        rhs = act(comp, e)
        assert lhs == rhs


def test_product_expr_shapes():
    a = parse("atoms")
    b = parse("{ {x,y} | x,y in atoms, x != y }")
    p = product_expr(a, b)
    cs = clauses(p)
    assert len(cs) == 1
    el = cs[0].element
    assert isinstance(el, ETuple) and len(el.items) == 2
    assert value_shape(el) == ("tuple", "atom", "set")
    assert len(cs[0].binders) == 3


def test_product_expr_requires_two():
    with pytest.raises(ValidationError):
        product_expr(parse("atoms"))


def test_union_of_flattens():
    u = union_of(parse("{#1}"), parse("{#2} + {#1}"), EMPTY)
    assert len(u.clauses) == 2
    assert print_expr(u) in ("{#1} + {#2}", "{#2} + {#1}")


# sha256 of the formula and atom walks over a seeded corpus per backend:
# vocabulary verdicts and messages under every backend, formula atoms, the
# normalized R expansion, parameter occurrences, and the atom-map action and
# abstraction; pinned so that a walk that moves a verdict, an atom or an
# argument shows
WALK_DIGESTS = {
    "equality": "f15161199b532b04775b567cec4fb9e71be303495a129f9fee02c16d0b907dd3",
    "dlo": "6ced980fe753562472ad20669432c44fea34f2c998152ddafa080153dd3e3e55",
    "cyclic": "4aa58563d57fba38ab32147f9496a91143f3f0295f2b85fa0b12032180943abe",
}


def _verdict(backend, f, internal):
    try:
        for g in subformulas(f):
            if isinstance(g, Rel):
                backend._check_literal(g, internal)
    except VocabularyError as ex:
        return str(ex)
    return None


def test_formula_and_atom_walks_are_pinned():
    judges = [get_backend(n) for n in backend_names()]
    for name in backend_names():
        rng = random.Random(707)
        b = get_backend(name)
        out = []
        for _ in range(150):
            atoms = sample_atoms(rng, name, 3)
            f = gen_formula(rng, name, ["u", "v", "w"], atoms, depth=3, qdepth=2)
            verdicts = [_verdict(j, f, i) for j in judges for i in (False, True)]
            expanded = reference_map_relations(f, eager_readings)
            out.append((verdicts, sorted(formula_atoms(f)), nnf(expanded).key))
            e = gen_set_expr(rng, name, atoms[:2], max_binders=2, depth=2)
            occs = param_occurrences(e)
            moved = act(gen_automorphism(rng, name, occs), e)
            names = {a: f"p{i}" for i, a in enumerate(occs)}
            out.append((occs, moved.key, abstract_params(e, names).key))
        digest = hashlib.sha256(repr(out).encode()).hexdigest()
        assert digest == WALK_DIGESTS[name], (name, digest)


def test_leaves_are_interned():
    assert EVar("x") is EVar("x") and EVar("x") is not EVar("y")
    assert AtomParam(3) is AtomParam(3)
    assert AtomParam(Fraction(1, 2)) is AtomParam(Fraction(1, 2))
    # keyed by the atom's type too, as a `Const` is: an int and an equal
    # Fraction are two nodes, still equal, with equal keys and hashes
    one, also_one = AtomParam(1), AtomParam(Fraction(1))
    assert one is not also_one
    assert one == also_one and hash(one) == hash(also_one) and one.key == also_one.key
    assert type(one.value) is int and type(also_one.value) is Fraction
    # keys, equality and repr are those of the dataclass nodes
    assert EVar("x").key == ("v", "x") and AtomParam(3).key == ("p", 3)
    assert repr(EVar("x")) == "EVar(name='x')"
    assert repr(AtomParam(Fraction(1, 2))) == "AtomParam(value=Fraction(1, 2))"
    assert EVar("x") != AtomParam(3)
    # one name set per name, however many nodes mention it
    assert expr_names(ETuple((EVar("x"), AtomParam(1)))) is expr_names(EVar("x"))


def test_a_leaf_nothing_holds_leaves_its_table():
    for kind, table, payload, token in (
        (EVar, exprs_module._EVARS, "gone_after_collect", "gone_after_collect"),
        (AtomParam, exprs_module._PARAMS, Fraction(7907, 13), (Fraction, Fraction(7907, 13))),
    ):
        leaf = kind(payload)
        assert table[token] is leaf
        del leaf
        gc.collect()
        assert token not in table


def _copies(e):
    yield pickle.loads(pickle.dumps(e))
    yield copy.copy(e)
    yield copy.deepcopy(e)


def test_every_expression_class_survives_pickle_and_copy():
    comp = Compiler(get_backend("equality"))
    e = parse("{(a, #3, {b | b in atoms, b != a}) | a in atoms, a != #5} + {#3}")
    other = parse("{(a, #3, {b | b in atoms, a != b}) | a in atoms, a != #5} + {#3, #4}")
    clause = e.clauses[0]
    nodes = [EVar("a"), AtomParam(3), AtomParam(Fraction(1, 2)), ATOMS, EMPTY, e, clause]
    nodes.append(next(c for c in e.clauses if isinstance(c.element, ETuple)).element)
    assert {type(n) for n in nodes} == {EVar, AtomParam, AtomsSet, ETuple, SetComp, Union}
    for n in nodes:
        for c in _copies(n):
            assert type(c) is type(n) and c == n and hash(c) == hash(n)
            assert c.key == n.key == reference_expr_key(n)
            assert expr_names(c) == expr_names(n)
            if isinstance(n, (EVar, AtomParam)):
                # a leaf comes back as the live node
                assert c is n
    for c in _copies(e):
        assert set_equal(comp, e, c)
        assert set_equal(comp, c, other) == set_equal(comp, e, other) is False
        assert is_subset(comp, c, other) == is_subset(comp, e, other) is True
        assert least_support(comp, c) == least_support(comp, e) == frozenset({3, 5})


def test_rewrites_return_their_input_when_nothing_moves():
    e = parse("{(a, #1, {b | b in atoms, b != #2}) | a in atoms, a != #1 and a != #2}")
    assert act({}, e) is e
    assert act({1: 1, 2: 2}, e) is e
    assert abstract_params(e, {}) is e and abstract_params(e, {7: "p"}) is e
    assert subst_expr(e, {EVar("a"): AtomParam(9), EVar("zz"): AtomParam(9)}) is e
    inner = e.clauses[0].element
    assert subst_expr(inner, {EVar("b"): AtomParam(9), EVar("c"): EVar("d")}) is inner
    # moving one atom keeps the subtrees that do not hold it
    moved = act({2: 4}, e)
    assert moved.clauses[0].element.items[0] is EVar("a")
    assert moved.clauses[0].element.items[1] is inner.items[1]
    f = e.clauses[0].guard
    assert subst(f, {Var("zz"): Var("yy"), Var("b"): Const(3), Const(7): Const(8)}) is f
    # a binder named like an incoming variable, with nothing replaced under it
    g = Exists("y", Rel("<", (Var("y"), Const(1))))
    assert subst(g, {Var("x"): Var("y")}) is g


@pytest.mark.parametrize("name", backend_names())
def test_rewrites_equal_the_rebuilding_reference_and_keep_what_nothing_moved_in(name):
    # the library's rewrites against walks that rebuild every node: equal by
    # key on every subtree, and each subtree that holds nothing moved comes
    # back as the input's own node
    backend = get_backend(name)
    atom = int if name == "equality" else Fraction
    rng = random.Random(43)
    for _ in range(40):
        atoms = sample_atoms(rng, name, 4)
        e = gen_set_expr(rng, name, atoms[:3], max_binders=3, depth=2)
        params = sorted(expr_params(e))
        moved = set(rng.sample(params, rng.randint(0, len(params))))
        # atoms the expressions never hold
        fresh = iter(map(atom, range(100, 200)))
        images = {AtomParam(a): AtomParam(next(fresh)) for a in sorted(moved)}
        names = {AtomParam(a): EVar(f"n{i}") for i, a in enumerate(sorted(moved))}
        binders = sorted({b for c in _expr_nodes(e) if isinstance(c, SetComp) for b in c.binders})
        swapped = sorted(rng.sample(binders, rng.randint(0, len(binders))))
        values = {EVar(b): rng.choice((AtomParam(next(fresh)), EVar(f"m{b}"))) for b in swapped}
        for s in _expr_nodes(e):
            untouched = not (expr_params(s) & moved)
            got = act({a.value: x.value for a, x in images.items()}, s)
            assert got.key == reference_subst_expr(s, images).key, (name, s)
            assert (got is s) == untouched, (name, s)
            got = abstract_params(s, {a.value: x.name for a, x in names.items()})
            assert got.key == reference_subst_expr(s, names).key, (name, s)
            assert (got is s) == untouched, (name, s)
            got = subst_expr(s, values)
            assert got.key == reference_subst_expr(s, values).key, (name, s)
            assert (got is s) == free_expr_vars(s).isdisjoint(swapped), (name, s)
        f = gen_formula(rng, name, ["u", "v", "w"], atoms, depth=3, qdepth=2)
        terms = {Const(a.value): Const(x.value) for a, x in images.items()}
        free = sorted(rng.sample(["u", "v", "w"], rng.randint(0, 3)))
        into = {Var(v): rng.choice((Const(next(fresh)), Var(f"z{v}"))) for v in free}
        for g in subformulas(f):
            got = subst(g, terms)
            assert got.key == reference_subst(g, terms).key, (name, g)
            assert (got is g) == (not (formula_atoms(g) & moved)), (name, g)
            if isinstance(g, Rel):
                # the cyclic backend unfolds R into its linear readings
                assert (backend._unfold(g) is g) == (name != "cyclic" or g.name != "R")
            got = subst(g, into)
            assert got.key == reference_subst(g, into).key, (name, g)
            if free_vars(g).isdisjoint(free):
                assert got is g, (name, g)
