"""Isomorphism search and parameter elimination on the shipped examples and
on small generated instances."""

import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from atomiso import algebra, engine
from atomiso.algebra import (
    DefFunction,
    fn_apply,
    fn_bijective,
    fn_inverse,
    is_member,
    orbit_decomposition,
    orbit_expression,
    set_equal,
)
from atomiso.compile import Compiler
from atomiso.engine import (
    FOUND,
    NOT_FOUND,
    NOT_FOUND_INCOMPLETE,
    decide_definable_iso,
    eliminate_parameters,
    enumerate_pieces,
    find_definable_map,
)
from atomiso.errors import DensenessError, DomainError, ResourceError, ValidationError
from atomiso.exprs import ETuple, SetComp, Union, clauses, expr_params, union_of
from atomiso.parser import parse, print_expr
from atomiso.structures import check_isomorphism, mode_kind, structure_from_dict, validate_structure
from atomiso.theories import backend_names, get_backend
from fixtures_helpers import (
    circle_pair,
    kneser_pair,
    neighborhoods_pair,
    nondefiso_pair,
    smoothing_parts,
)
from generators import (
    _ladder,
    dlo_chains,
    equality_subsets,
    equality_tuples,
    equivalent_variant,
    gen_set_expr,
    gen_structure_pair,
    sample_atoms,
)
from oracles import (
    naive_find_iso,
    orbit_transport,
    piece_tuple_compatible,
    reference_candidate_images,
    reference_piece_determined,
)


def test_kneser_self_iso(eq_comp):
    A, B = kneser_pair()
    cert = decide_definable_iso(eq_comp, A, B)
    assert cert.verdict == FOUND
    ident = parse("{({a,b},{a,b}) | a,b in atoms, a != b}")
    assert set_equal(eq_comp, cert.witness.graph, ident)
    assert cert.caveat is None


def test_nondefiso_is_conclusive(eq_comp):
    A, B = nondefiso_pair()
    cert = decide_definable_iso(eq_comp, A, B)
    assert cert.verdict == NOT_FOUND
    assert cert.witness is None


def test_smoothing_self_iso_without_params(eq_comp):
    st, _ = smoothing_parts()
    cert = decide_definable_iso(eq_comp, st, st)
    assert cert.verdict == FOUND
    assert expr_params(cert.witness.graph) == frozenset()


def test_neighborhood_family_transport(eq_comp):
    A, B = neighborhoods_pair()
    cert = decide_definable_iso(eq_comp, A, B)
    assert cert.verdict == FOUND


def test_circle_needs_parameter(cyc_comp):
    A, B = circle_pair()
    cert = decide_definable_iso(cyc_comp, A, B)
    assert cert.verdict == NOT_FOUND_INCOMPLETE
    assert cert.caveat is not None
    assert cert.stats["pieces"] == 3


def test_circle_with_parameter(cyc_comp):
    A, B = circle_pair()
    cert = decide_definable_iso(cyc_comp, A, B, extra_params=(Fraction(0),))
    assert cert.verdict == FOUND
    assert expr_params(cert.witness.graph) == {Fraction(0)}
    assert check_isomorphism(cyc_comp, cert.witness, A, B)


def test_signature_mismatch_is_exact(eq_comp, cyc_comp):
    A, _ = kneser_pair()
    doc = {
        "backend": "equality",
        "name": "other",
        "universe": "atoms",
        "relations": [{"name": "F", "arity": 2, "interp": "empty"}],
        "families": [],
    }
    B = structure_from_dict(doc)
    cert = decide_definable_iso(eq_comp, A, B)
    assert cert.verdict == NOT_FOUND
    # exact even over the circle, where searches are otherwise inconclusive
    CA, _ = circle_pair()
    doc2 = {
        "backend": "cyclic",
        "name": "bare",
        "universe": "atoms",
        "relations": [],
        "families": [],
    }
    CB = structure_from_dict(doc2)
    cert2 = decide_definable_iso(cyc_comp, CA, CB)
    assert cert2.verdict == NOT_FOUND


def test_hom_and_emb_modes(eq_comp):
    mk = lambda e: structure_from_dict(
        {
            "backend": "equality",
            "name": "g",
            "universe": "atoms",
            "relations": [{"name": "E", "arity": 2, "interp": e}],
            "families": [],
        }
    )
    loops = mk("{(a, a) | a in atoms}")
    bare = mk("empty")
    # loops -> bare: no homomorphism can exist, but negative answers in hom
    # mode stay inconclusive
    cert = decide_definable_iso(eq_comp, loops, bare, mode="hom")
    assert cert.verdict == NOT_FOUND_INCOMPLETE
    # bare -> loops: the identity is a homomorphism but not an isomorphism
    cert2 = decide_definable_iso(eq_comp, bare, loops, mode="hom")
    assert cert2.verdict == FOUND
    cert3 = decide_definable_iso(eq_comp, bare, loops, mode="iso")
    assert cert3.verdict == NOT_FOUND
    cert4 = decide_definable_iso(eq_comp, bare, loops, mode="emb")
    assert cert4.verdict == NOT_FOUND_INCOMPLETE


def test_emb_into_larger_universe(eq_comp):
    small = structure_from_dict(
        {
            "backend": "equality",
            "name": "s",
            "universe": "{(a, a) | a in atoms}",
            "relations": [],
            "families": [],
        }
    )
    big = structure_from_dict(
        {
            "backend": "equality",
            "name": "b",
            "universe": "{(a, b) | a, b in atoms}",
            "relations": [],
            "families": [],
        }
    )
    cert = decide_definable_iso(eq_comp, small, big, mode="emb")
    assert cert.verdict == FOUND
    assert decide_definable_iso(eq_comp, small, big, mode="iso").verdict == NOT_FOUND


def test_mode_validation(eq_comp):
    A, B = kneser_pair()
    with pytest.raises(ValidationError):
        find_definable_map(eq_comp, A, B, frozenset(), mode="epi")


def test_params_must_cover_structures(eq_comp):
    doc = {
        "backend": "equality",
        "name": "marked",
        "universe": "atoms",
        "relations": [{"name": "E", "arity": 1, "interp": "{#1}"}],
        "families": [],
    }
    A = structure_from_dict(doc)
    with pytest.raises(ValidationError):
        find_definable_map(eq_comp, A, A, frozenset())
    cert = decide_definable_iso(eq_comp, A, A)
    assert cert.verdict == FOUND


@pytest.mark.parametrize("backend", ["dlo", "equality"])
def test_a_search_under_another_backend_is_refused(monkeypatch, backend):
    """Cyclic atoms against cyclic distinct pairs is inconclusive over the
    cyclic backend; another compiler must not answer for another theory,
    and must refuse before it decomposes anything."""
    A = structure_from_dict({"backend": "cyclic", "universe": "atoms"})
    B = structure_from_dict(
        {"backend": "cyclic", "universe": "{(a, b) | a, b in atoms, a != b}"}
    )
    assert decide_definable_iso(Compiler(get_backend("cyclic")), A, B).verdict == NOT_FOUND_INCOMPLETE
    monkeypatch.setattr(algebra, "_decompose", lambda *args: pytest.fail("decomposed"))
    comp = Compiler(get_backend(backend))
    for search in (
        lambda: decide_definable_iso(comp, A, B),
        lambda: find_definable_map(comp, A, B, frozenset(), mode="hom"),
    ):
        with pytest.raises(ValidationError, match="structures and compiler use different backends"):
            search()


def test_budget_exhaustion(eq_comp):
    A, B = kneser_pair()
    with pytest.raises(ResourceError):
        find_definable_map(eq_comp, A, B, frozenset(), budget=0)


def test_piece_enumeration_counts(eq_comp):
    st, _ = smoothing_parts()
    pieces, a_orbits, b_orbits = enumerate_pieces(eq_comp, st, st, frozenset())
    assert len(a_orbits) == len(b_orbits) == 3
    # identity piece available for every orbit, plus the two cross pieces
    # between the diagonal and the atoms
    assert len(pieces) == 6


def test_piece_checks_match_the_universal_sentence(monkeypatch):
    # every piece check the search makes, recorded at the engine's names for
    # the breach kernel and for the sentence-free check of flat values,
    # against the universal sentence they replaced
    checks = []
    kernel, flat = engine.determined, engine._flat_piece_determined

    def recording(comp, parts, by):
        verdict = kernel(comp, parts, by)
        clause, fixed = parts
        assert not fixed.binders
        checks.append((comp.backend.name, clause, *fixed.element.items, by, verdict))
        return verdict

    def recording_flat(comp, T, x0, y0, by):
        verdict = flat(comp, T, x0, y0, by)
        if verdict is not None:
            clause = orbit_expression(comp, ETuple((x0, y0)), T).clauses[0]
            checks.append((comp.backend.name, clause, x0, y0, by, verdict))
        return verdict

    monkeypatch.setattr(engine, "determined", recording)
    monkeypatch.setattr(engine, "_flat_piece_determined", recording_flat)
    runs = [(pair(), ()) for pair in (kneser_pair, neighborhoods_pair, nondefiso_pair)]
    st, _ = smoothing_parts()
    # from unordered pairs to atoms, {a, b} -> a is a candidate piece that
    # is not functional; no other run offers one
    runs += [((st, st), ()), (circle_pair(), (Fraction(0),)), (nondefiso_pair()[::-1], ())]
    for (A, B), extra in runs:
        decide_definable_iso(Compiler(get_backend(A.backend_name)), A, B, extra)
    refs = {}
    for name, clause, x0, y0, by, verdict in checks:
        ref = refs.setdefault(name, Compiler(get_backend(name)))
        assert verdict == reference_piece_determined(ref, clause, x0, y0, by), (name, by)
    assert {(by, v) for *_, by, v in checks} == {(0, True), (0, False), (1, True), (1, False)}


def _pairs_graph(name, interp, universe="{(a, b) | a, b in atoms, a != b}"):
    return structure_from_dict(
        {
            "backend": "equality",
            "name": name,
            "universe": universe,
            "relations": [{"name": "S", "arity": 2, "interp": interp}],
            "families": [],
        }
    )


def test_the_last_candidate_image_can_be_the_only_compatible_one(eq_comp):
    # the swap carries "same first component" to "same second component";
    # of the two images of (a, b) that a and b support, the identity comes
    # first and only the swap, the last one, is compatible
    A = _pairs_graph("first", "{((a, b), (a, c)) | a, b, c in atoms, a != b and a != c}")
    B = _pairs_graph("second", "{((b, a), (c, a)) | a, b, c in atoms, a != b and a != c}")
    pieces, _, _ = enumerate_pieces(eq_comp, A, B, frozenset())
    assert [(p.x0, p.y0) for p in pieces] == [
        (parse("(#1, #2)"), parse("(#1, #2)")),
        (parse("(#1, #2)"), parse("(#2, #1)")),
    ]
    cert = decide_definable_iso(eq_comp, A, B)
    assert cert.verdict == FOUND
    swap = parse("{((a, b), (b, a)) | a, b in atoms, a != b}")
    assert set_equal(eq_comp, cert.witness.graph, swap)


def test_the_last_orbit_over_the_anchor_can_be_the_only_image(eq_comp):
    # the one-element orbit of the set of all atoms comes last in the
    # universe, so over its empty anchor it is the last candidate image, and
    # its only one: the pairs' orbit before it is not supported by the
    # empty set
    universe = "{(a, b) | a, b in atoms, a != b} + {{c | c in atoms}}"
    st = _pairs_graph("pairs", "empty", universe)
    pieces, _, b_orbits = enumerate_pieces(eq_comp, st, st, frozenset())
    assert [o.rep_element() for o in b_orbits][-1] == parse("{c | c in atoms}")
    assert [(p.a_index, p.b_index) for p in pieces] == [(0, 0), (0, 0), (1, 1)]
    assert decide_definable_iso(eq_comp, st, st).verdict == FOUND


def _candidate_cases():
    """(backend, universe, T, anchor) on seeded universes of each backend:
    every clause's element showing its binders through tuples (the
    written-down images), no clause, and both; plus clauses that share
    values, where the images are deduplicated, and the universe above."""
    shared = "{(a, b) | a, b in atoms, a != b} + {(b, a) | a, b in atoms} + {a | a in atoms}"
    mixed = "{(a, b) | a, b in atoms, a != b} + {{c | c in atoms}}"
    rng = random.Random(2020)
    cases = []
    for name in backend_names():
        pool = sample_atoms(rng, name, 3)
        for text in (shared, mixed):
            for k in range(3):
                cases.append((name, parse(text), frozenset(), frozenset(pool[:k])))
        kinds = Counter()
        while min(kinds[kind] for kind in (True, False, None)) < 3:
            U = gen_set_expr(rng, name, pool[:1])
            if rng.random() < 0.5:
                U = equivalent_variant(rng, name, U, pool[:1])
            tuples = {algebra._element_injective(c) for c in clauses(U)}
            kind = tuples.pop() if len(tuples) == 1 else None
            if kinds[kind] >= 3:
                continue
            kinds[kind] += 1
            T = expr_params(U) | frozenset(pool[:1])
            for extra in range(3):
                cases.append((name, U, T, T | frozenset(pool[1 : 1 + extra])))
    return cases


def test_candidate_images_match_the_decomposition_over_the_anchor():
    """The images written down from pinned rows, and those of universes
    with set-valued clauses, against the representatives of the target's
    orbits over the anchor that the anchor supports: the same values in the
    same order.  The T-orbit `orbit_index` gives each image holds it."""
    seen = Counter()
    for name, U, T, anchor in _candidate_cases():
        comp, ref = Compiler(get_backend(name)), Compiler(get_backend(name))
        u_orbits = orbit_decomposition(comp, U, T)
        got = list(engine._candidate_images(comp, U, anchor))
        assert got == reference_candidate_images(ref, U, anchor), (name, print_expr(U), anchor)
        written = all(algebra._element_injective(c) for c in clauses(U))
        for y in got:
            j = algebra.orbit_index(comp, y, u_orbits)
            assert is_member(ref, y, u_orbits[j].piece()), (name, print_expr(U), print_expr(y))
            seen[written, j > 0] += 1
    assert all(seen[key] for key in itertools.product((False, True), repeat=2)), seen


def test_pieces_match_those_from_the_decomposition_over_the_anchor(monkeypatch):
    runs = [(kneser_pair(), ()), (neighborhoods_pair(), ()), (nondefiso_pair(), ())]
    runs += [(nondefiso_pair()[::-1], ()), ((dlo_chains(3),) * 2, (Fraction(0),))]
    runs += [(circle_pair(), extra) for extra in ((), (Fraction(0),))]
    st, _ = smoothing_parts()
    runs += [((st, st), extra) for extra in ((), (1,))]

    def pieces(A, B, extra, injective):
        comp = Compiler(get_backend(A.backend_name))
        T = A.params() | B.params() | frozenset(extra)
        out = enumerate_pieces(comp, A, B, T, injective=injective)[0]
        return [(p.x0, p.y0, p.a_index, p.b_index, p.expr) for p in out]

    for (A, B), extra in runs:
        for injective in (True, False):
            got = pieces(A, B, extra, injective)
            with monkeypatch.context() as m:
                m.setattr(engine, "_candidate_images", reference_candidate_images)
                want = pieces(A, B, extra, injective)
            assert got == want, (A.name, B.name, extra, injective)


def test_pieces_on_the_ladders():
    """The dlo 5-chains took 19-33 s when the target was decomposed over
    the 5-atom anchor; one piece comes out."""
    chains = dlo_chains(5)
    start = time.process_time()
    pieces = enumerate_pieces(Compiler(get_backend("dlo")), chains, chains, frozenset())[0]
    assert time.process_time() - start < 5
    assert [(p.a_index, p.b_index) for p in pieces] == [(0, 0)]
    tuples = equality_tuples(4)
    assert len(enumerate_pieces(Compiler(get_backend("equality")), tuples, tuples, frozenset())[0]) == 339
    # set-valued: the target is still decomposed over the anchor
    subsets = equality_subsets(3)
    pieces = enumerate_pieces(Compiler(get_backend("equality")), subsets, subsets, frozenset())[0]
    three = "{#1} + {#2} + {#3}"
    assert [(print_expr(p.x0), print_expr(p.y0), p.a_index, p.b_index) for p in pieces] == [
        (three, three, 0, 0)
    ]
    assert print_expr(pieces[0].expr) == (
        "{({q1} + {q2} + {q3}, {q1} + {q2} + {q3}) | q1, q2, q3 in atoms, "
        "q1 != q2 and q1 != q3 and q2 != q3}"
    )


def test_the_search_on_the_4_subsets_is_fast(monkeypatch):
    """Validation and the full search on the 4-subsets ladder took 0.6 s
    when each match of a literal, each merge test of its orbits and each
    support test was a sentence; matched by their atoms, none is sent."""
    st = equality_subsets(4)
    comp = Compiler(get_backend("equality"))
    sent = []
    holds = comp.backend.holds
    monkeypatch.setattr(comp.backend, "holds", lambda f: sent.append(f) or holds(f))
    start = time.process_time()
    validate_structure(comp, st)
    cert = decide_definable_iso(comp, st, st)
    assert time.process_time() - start < 2
    assert cert.verdict == FOUND
    assert sent == []


def test_matching_agrees_with_naive_search(eq_comp):
    rng = random.Random(17)
    agree = 0
    while agree < 25:
        A, B = gen_structure_pair(rng)
        try:
            naive = naive_find_iso(eq_comp, A, B, frozenset(), max_orbits=4)
        except ResourceError:
            continue
        fast = find_definable_map(eq_comp, A, B, frozenset())
        assert fast.verdict == naive.verdict, (
            A.universe,
            B.universe,
            fast.verdict,
            naive.verdict,
        )
        if fast.verdict == FOUND:
            assert check_isomorphism(eq_comp, fast.witness, A, B)
        agree += 1


def test_fresh_parameter_changes_no_verdict(eq_comp):
    # the parameter-elimination theorem: an isomorphism definable with a
    # fresh atom p exists exactly when a parameter-free one does, and the
    # smoothing rebuilds a p-definable witness without p
    rng = random.Random(20)
    p = frozenset({0})
    found = 0
    for _ in range(30):
        A, B = gen_structure_pair(rng)
        bare = find_definable_map(eq_comp, A, B, frozenset())
        with_p = find_definable_map(eq_comp, A, B, p)
        assert (bare.verdict == FOUND) == (with_p.verdict == FOUND), (
            A.universe,
            B.universe,
            bare.verdict,
            with_p.verdict,
        )
        if with_p.verdict == FOUND:
            found += 1
            h, _ = eliminate_parameters(eq_comp, with_p.witness, A, B)
            assert expr_params(h.graph) == frozenset()
            assert orbit_transport(eq_comp, h, A, B)
    assert found >= 5, found


def _dlo_graph(name, interp):
    return structure_from_dict(
        {
            "backend": "dlo",
            "name": name,
            "universe": "atoms",
            "relations": [{"name": "E", "arity": 2, "interp": interp}],
            "families": [],
        }
    )


@pytest.mark.parametrize("params", [(), (Fraction(0),)])
def test_dlo_order_and_its_reverse_are_not_definably_isomorphic(dlo_comp, params):
    A = _dlo_graph("less", "{(a, b) | a, b in atoms, a < b}")
    B = _dlo_graph("greater", "{(a, b) | a, b in atoms, b < a}")
    cert = decide_definable_iso(dlo_comp, A, B, extra_params=params)
    assert cert.verdict == NOT_FOUND
    assert cert.caveat is None


@pytest.mark.parametrize("mode", ["iso", "emb", "hom"])
def test_a_candidate_failing_the_final_check_makes_the_answer_inconclusive(
    dlo_comp, monkeypatch, mode
):
    # with pruning switched off the identity, the only piece, is assembled;
    # it transports < to >, so the final check rejects it
    A = _dlo_graph("less", "{(a, b) | a, b in atoms, a < b}")
    B = _dlo_graph("greater", "{(a, b) | a, b in atoms, b < a}")
    monkeypatch.setattr(engine._MorphismChecker, "compatible_with", lambda *_: True)
    cert = find_definable_map(dlo_comp, A, B, frozenset(), mode=mode)
    assert cert.verdict == NOT_FOUND_INCOMPLETE
    assert cert.caveat == "a candidate failed final verification; result inconclusive"
    assert cert.stats["candidates"] == 1


def _pruning_cases():
    """(backend, A, B, extra parameters): seeded equality pairs on one
    universe, the dlo order against itself and its reverse, dlo chains,
    the neighborhoods family anchored at two atoms, and the circle bare
    and anchored."""
    rng = random.Random(1717)
    cases = []
    while len(cases) < 8:
        A, B = gen_structure_pair(rng)
        if A.universe == B.universe:  # else there are seldom any pieces
            cases.append(("equality", A, B, ()))
    less = _dlo_graph("less", "{(a, b) | a, b in atoms, a < b}")
    greater = _dlo_graph("greater", "{(a, b) | a, b in atoms, b < a}")
    cases += [("dlo", less, less, ()), ("dlo", less, greater, (Fraction(0),))]
    cases += [("dlo", dlo_chains(2), dlo_chains(2), ())]
    cases += [("equality", *neighborhoods_pair(), (1, 2))]
    cases += [("cyclic", *circle_pair(), params) for params in ((), (Fraction(0),))]
    return cases


@pytest.mark.parametrize("mode", ["iso", "emb", "hom"])
def test_pruning_matches_the_piece_tuple_sentences(monkeypatch, mode):
    """At every step of the matching, the checks at orbit representatives
    agree with one transport sentence per tuple of the pieces."""
    reflect = mode_kind(mode)[0]
    checked = engine._MorphismChecker.compatible_with
    verdicts = Counter()
    case = {}

    def compare(self, at, new):
        got = checked(self, at, new)
        assigned = [p for p in at[0].values() if p is not new]
        A, B = case["A"], case["B"]
        want = piece_tuple_compatible(case["ref"], A, B, assigned, new, reflect=reflect)
        assert got == want, (A.name, B.name, [p.x0 for p in assigned], new.y0)
        verdicts[got] += 1
        return got

    monkeypatch.setattr(engine._MorphismChecker, "compatible_with", compare)
    for backend_name, A, B, params in _pruning_cases():
        case.update(A=A, B=B, ref=Compiler(get_backend(backend_name)))
        decide_definable_iso(Compiler(get_backend(backend_name)), A, B, params, mode=mode)
    assert verdicts[True] and verdicts[False], verdicts


def _rotated_tuples(k: int, r: int):
    """The k-tuples of equality atoms with E sending each tuple to its
    rotation by r places, built as `equality_tuples` builds r = 1."""
    xs = [f"x{i}" for i in range(k)]
    x, rotated = ", ".join(xs), ", ".join(xs[r:] + xs[:r])
    return _ladder(
        "equality",
        f"tuples{k}rot{r}",
        f"{{({x}) | {x} in atoms}}",
        f"{{(({x}), ({rotated})) | {x} in atoms}}",
    )


def _piece_shapes(fn: DefFunction) -> list[str]:
    """Each graph clause as 'x -> y', a tuple written as its binders'
    numbers: q1, q2 and q2 are '122'."""
    return [
        " -> ".join("".join(v.name[1:] for v in t.items) for t in c.element.items)
        for c in clauses(fn.graph)
    ]


_ROTATION_3_ISO = [
    "1111 -> 1111", "1112 -> 1112", "1121 -> 2111", "1122 -> 1122", "1123 -> 1123",
    "1211 -> 1211", "1212 -> 1212", "1213 -> 1213", "1221 -> 2112", "1222 -> 2212",
    "1223 -> 2312", "1231 -> 3112", "1232 -> 3212", "1233 -> 1233", "1234 -> 1432",
]
_ROTATION_3_HOM = [
    "1111 -> 1111", "1112 -> 1111", "1121 -> 1111", "1122 -> 1122", "1123 -> 1111",
    "1211 -> 1111", "1212 -> 1212", "1213 -> 1111", "1221 -> 2112", "1222 -> 2222",
    "1223 -> 2222", "1231 -> 1111", "1232 -> 2222", "1233 -> 3333", "1234 -> 1432",
]


@pytest.mark.parametrize(
    "r, mode, verdict, calls, witness",
    [
        (2, "iso", NOT_FOUND, 24, None),
        (2, "emb", NOT_FOUND_INCOMPLETE, 24, None),
        (2, "hom", NOT_FOUND_INCOMPLETE, 256, None),
        (3, "iso", FOUND, 59, _ROTATION_3_ISO),
        (3, "emb", FOUND, 59, _ROTATION_3_ISO),
        (3, "hom", FOUND, 670, _ROTATION_3_HOM),
    ],
)
def test_rotation_pairs_search_the_pinned_tree(monkeypatch, r, mode, verdict, calls, witness):
    """The equality 4-tuples with E the rotation by one place against the
    rotation by r places: the verdict, the number of `compatible_with`
    calls and the first witness are pinned.  The hom witness sends 11 of
    its 15 pieces onto the one orbit of constant tuples, so a matcher that
    kept the target orbits distinct in hom mode would search another
    tree."""
    checked = engine._MorphismChecker.compatible_with
    count = Counter()

    def counting(self, at, new):
        count["calls"] += 1
        return checked(self, at, new)

    monkeypatch.setattr(engine._MorphismChecker, "compatible_with", counting)
    comp = Compiler(get_backend("equality"))
    cert = decide_definable_iso(comp, equality_tuples(4), _rotated_tuples(4, r), mode=mode)
    assert (cert.verdict, count["calls"]) == (verdict, calls)
    assert (cert.witness and _piece_shapes(cert.witness)) == witness
    if mode == "hom" and witness:
        constant = [s for s in witness if len(set(s.split(" -> ")[1])) == 1]
        assert len(constant) == 11


def test_the_search_decomposes_each_set_once(monkeypatch):
    """On the dlo 3-chains the pruning and the final check decompose the
    edge relation over the same parameters: the memo does it once."""
    decompose = algebra._decompose
    calls = Counter()

    def counting(comp, X, S):
        calls[X.key, S] += 1
        return decompose(comp, X, S)

    monkeypatch.setattr(algebra, "_decompose", counting)
    chains = dlo_chains(3)
    cert = decide_definable_iso(Compiler(get_backend("dlo")), chains, chains)
    assert cert.verdict == FOUND
    assert calls[chains.relations[0].interp.key, frozenset()] == 1
    assert set(calls.values()) == {1}


def test_stepping_back_fails_exactly_off_the_covered_region():
    """The elimination walk stops when stepping back through the partial
    result raises DomainError.  On unions of search pieces that happens
    exactly off the region they cover, here written out from the graph
    clauses: the image for the inverse (the walk from A), the domain for
    the map itself (the walk from B)."""
    rng = random.Random(1919)
    cases = []
    while len(cases) < 4:
        A, B = gen_structure_pair(rng)
        if A.universe == B.universe:  # else there are seldom any pieces
            cases.append(("equality", A, B, {1}, 2))
    less = _dlo_graph("less", "{(a, b) | a, b in atoms, a < b}")
    half = Fraction(1, 2)
    cases += [("dlo", less, less, {Fraction(0)}, half)]
    cases += [("dlo", dlo_chains(2), dlo_chains(2), {Fraction(0)}, half)]
    outcomes = Counter()
    for backend_name, A, B, T, extra in cases:
        comp = Compiler(get_backend(backend_name))
        pieces = enumerate_pieces(comp, A, B, frozenset(T))[0]
        for k in range(len(pieces) + 1):
            graph = union_of(*(p.expr for p in rng.sample(pieces, k)))
            h = DefFunction(A.universe, B.universe, graph)
            for by, universe, f in ((1, B.universe, fn_inverse(h)), (0, A.universe, h)):
                covered = Union(
                    tuple(SetComp(c.element.items[by], c.binders, c.guard) for c in clauses(graph))
                )
                for o in orbit_decomposition(comp, universe, T | {extra}):
                    y = o.rep_element()
                    try:
                        fn_apply(comp, f, y)
                        stepped = True
                    except DomainError:
                        stepped = False
                    assert stepped == is_member(comp, y, covered), (print_expr(graph), y)
                    outcomes[stepped] += 1
    assert outcomes[True] and outcomes[False], outcomes


def test_eliminate_parameters_dlo_identity(dlo_comp):
    # the identity on atoms plus pairs, written piecewise around 5
    st = structure_from_dict(
        {
            "backend": "dlo",
            "name": "mixed",
            "universe": "{(a, b) | a, b in atoms} + {a | a in atoms}",
            "relations": [],
            "families": [],
        }
    )
    graph = parse(
        "{(a, a) | a in atoms, a < 5} + {(5, 5)} + {(a, a) | a in atoms, 5 < a} + "
        "{((a, b), (a, b)) | a, b in atoms, a < 5} + "
        "{((a, b), (a, b)) | a, b in atoms, 5 <= a}",
        dlo_comp.backend,
    )
    fn = DefFunction(st.universe, st.universe, graph)
    assert expr_params(graph) == {Fraction(5)}
    h, report = eliminate_parameters(dlo_comp, fn, st, st)
    assert expr_params(h.graph) == frozenset()
    assert orbit_transport(dlo_comp, h, st, st)
    # one round per orbit: the atoms and the pairs a < b, a = b, a > b
    assert len(report.steps) == 4
    ident = parse(
        "{(a, a) | a in atoms} + {((a, b), (a, b)) | a, b in atoms}",
        dlo_comp.backend,
    )
    assert set_equal(dlo_comp, h.graph, ident)


def test_eliminate_parameter_free_identity_values_idle_binders(dlo_comp):
    # with S empty the independence constraints fold to true, so the atoms
    # orbit's binder is constrained by nothing and takes the first witness
    # candidate
    st = structure_from_dict(
        {
            "backend": "dlo",
            "name": "mixed",
            "universe": "{(a, b) | a, b in atoms} + {a | a in atoms}",
            "relations": [],
            "families": [],
        }
    )
    ident = parse(
        "{(a, a) | a in atoms} + {((a, b), (a, b)) | a, b in atoms}",
        dlo_comp.backend,
    )
    fn = DefFunction(st.universe, st.universe, ident)
    h, report = eliminate_parameters(dlo_comp, fn, st, st, T=())
    assert print_expr(h.graph) == (
        "{((q1, q1), (q1, q1)) | q1 in atoms} + "
        "{((q1, q2), (q1, q2)) | q1, q2 in atoms, q1 < q2} + "
        "{((q1, q2), (q1, q2)) | q1, q2 in atoms, q2 < q1} + "
        "{(q1, q1) | q1 in atoms}"
    )
    assert set_equal(dlo_comp, h.graph, ident)
    assert [(s.a_index, s.b_index) for s in report.steps] == [(1, 1), (2, 2), (0, 0), (3, 3)]
    assert [print_expr(s.x0) for s in report.steps] == ["(0, 1)", "(0, -1)", "(0, 0)", "0"]
    assert all(s.walk == [(s.x0, s.x0)] for s in report.steps)


def test_eliminate_parameters_smoothing(eq_comp):
    st, fn = smoothing_parts()
    h, report = eliminate_parameters(eq_comp, fn, st, st)
    assert expr_params(h.graph) == frozenset()
    assert fn_bijective(eq_comp, h)
    assert check_isomorphism(eq_comp, h, st, st)
    assert len(report.steps) == 3
    ident = parse(
        "{(a, a) | a in atoms} + {((a, b), (a, b)) | a, b in atoms}"
    )
    assert set_equal(eq_comp, h.graph, ident)
    # the atoms round walks through one covered value before exiting
    walks = sorted(len(s.walk) for s in report.steps)
    assert walks == [1, 1, 2]


def test_eliminate_picks_orbits_of_the_target(eq_comp):
    # A's atoms outside #1 against B's pairs (a, #1): the pair orbits have
    # dimension 2 and the atom orbits at most 1, so both rounds start in B
    def marked(universe, p):
        return structure_from_dict(
            {
                "backend": "equality",
                "name": "marked",
                "universe": universe,
                "relations": [{"name": "P", "arity": 1, "interp": p}],
                "families": [],
            }
        )

    A = marked("{a | a in atoms, a != #1}", "{#2}")
    B = marked("{(a, #1) | a in atoms, a != #1}", "{(#2, #1)}")
    swap = parse(
        "{(#2, (#2, #1))} + {(#3, (#4, #1))} + {(#4, (#3, #1))} + "
        "{(a, (a, #1)) | a in atoms, a != #1 and a != #2 and a != #3 and a != #4}"
    )
    fn = DefFunction(A.universe, B.universe, swap)
    h, report = eliminate_parameters(eq_comp, fn, A, B, T=frozenset({1, 2}))
    assert [(s.side, s.a_index, s.b_index) for s in report.steps] == [
        ("cod", 0, 0),
        ("cod", 1, 1),
    ]
    assert print_expr(h.graph) == (
        "{(q1, (q1, q2)) | q1, q2 in atoms, q1 != #1 and q1 != #2 and q2 = #1} + "
        "{(q1, (q1, q2)) | q1, q2 in atoms, q1 = #2 and q2 = #1}"
    )
    assert check_isomorphism(eq_comp, h, A, B)


def test_eliminate_walks_back_through_the_partial_result_from_the_target(eq_comp):
    # the smoothing map followed by u -> (u, #0): B's orbits outrank A's on
    # most rounds, and the round of B's pairs (a, #0) walks back once
    def mixed(universe):
        doc = {"backend": "equality", "name": "mixed", "universe": universe}
        return structure_from_dict({**doc, "relations": [], "families": []})

    A = mixed("{(a, b) | a, b in atoms} + {a | a in atoms}")
    B = mixed("{((a, b), #0) | a, b in atoms} + {(a, #0) | a in atoms}")
    lifted = parse(
        "{(a, ((a, #1), #0)) | a in atoms} + {((a, #1), (a, #0)) | a in atoms} + "
        "{((a, b), ((a, b), #0)) | a, b in atoms, b != #1}"
    )
    h, report = eliminate_parameters(
        eq_comp, DefFunction(A.universe, B.universe, lifted), A, B, T=frozenset({0})
    )
    assert [(s.side, s.a_index, s.b_index, len(s.walk)) for s in report.steps] == [
        ("cod", 4, 4, 1),
        ("dom", 2, 2, 1),
        ("dom", 3, 3, 1),
        ("cod", 1, 1, 1),
        ("cod", 6, 6, 2),
        ("dom", 0, 0, 1),
        ("dom", 5, 5, 2),
    ]
    assert [print_expr(v) for v in report.steps[4].walk[1]] == ["((#2, #1), #0)", "#2"]
    lift = parse("{(a, (a, #0)) | a in atoms} + {((a, b), ((a, b), #0)) | a, b in atoms}")
    assert set_equal(eq_comp, h.graph, lift)


def test_eliminate_rejects_non_iso(eq_comp):
    st, _ = smoothing_parts()
    bad = DefFunction(
        st.universe, st.universe, parse("{(a, a) | a in atoms}")
    )
    with pytest.raises(ValidationError):
        eliminate_parameters(eq_comp, bad, st, st)


def test_eliminate_needs_dense_backend(cyc_comp):
    A, B = circle_pair()
    rot = parse(
        "{((a, b, c), (b, c, a)) | a, b, c in atoms, R(a, b, c)}",
        cyc_comp.backend,
    )
    fn = DefFunction(A.universe, A.universe, rot)
    with pytest.raises(DensenessError):
        eliminate_parameters(cyc_comp, fn, A, A)


def test_eliminate_keeps_requested_params(eq_comp):
    doc = {
        "backend": "equality",
        "name": "marked",
        "universe": "atoms",
        "relations": [{"name": "E", "arity": 1, "interp": "{#1}"}],
        "families": [],
    }
    A = structure_from_dict(doc)
    two_point = parse(
        "{(#1, #1)} + {(#2, #3)} + {(#3, #2)} + "
        "{(a, a) | a in atoms, a != #1 and a != #2 and a != #3}"
    )
    fn = DefFunction(A.universe, A.universe, two_point)
    assert check_isomorphism(eq_comp, fn, A, A)
    h, _ = eliminate_parameters(eq_comp, fn, A, A, T=frozenset({1}))
    assert expr_params(h.graph) <= frozenset({1})
    assert check_isomorphism(eq_comp, h, A, A)


def test_naive_verdict_kinds(eq_comp, cyc_comp):
    A, B = nondefiso_pair()
    assert naive_find_iso(eq_comp, A, B, frozenset()).verdict == NOT_FOUND
    # over the circle a failed exhaustion is reported as inconclusive
    mk = lambda u: structure_from_dict(
        {
            "backend": "cyclic",
            "name": "c",
            "universe": u,
            "relations": [],
            "families": [],
        }
    )
    CA = mk("atoms")
    CB = mk("{(a, b) | a, b in atoms, a != b}")
    naive = naive_find_iso(cyc_comp, CA, CB, frozenset(), max_orbits=6)
    assert naive.verdict == NOT_FOUND_INCOMPLETE
    # the reference search refuses instances past its orbit bound
    with pytest.raises(ResourceError):
        naive_find_iso(cyc_comp, *circle_pair(), frozenset(), max_orbits=10)
