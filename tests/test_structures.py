"""Structure documents: JSON round trips, shape validation, interpretation
checks, and isomorphism verification including indexed families."""

import json
import random
from collections import Counter

import pytest

from atomiso.algebra import (
    DefFunction,
    fn_check,
    fn_validate,
    orbit_decomposition,
    set_equal,
)
from atomiso.engine import FOUND, decide_definable_iso
from atomiso.errors import ValidationError
from atomiso.exprs import product_expr, union_of
from atomiso.parser import parse
from atomiso.structures import (
    check_isomorphism,
    function_from_dict,
    function_to_dict,
    load_structure,
    save_structure,
    signatures_match,
    structure_from_dict,
    structure_to_dict,
    transports_symbols,
    validate_structure,
)
from fixtures_helpers import kneser_pair, neighborhoods_pair, smoothing_parts
from generators import gen_structure_pair
from oracles import orbit_transport


def test_roundtrip(tmp_path, eq_comp):
    A, _ = kneser_pair()
    path = tmp_path / "a.json"
    save_structure(A, str(path))
    B = load_structure(str(path))
    assert structure_to_dict(A) == structure_to_dict(B)
    assert set_equal(eq_comp, A.universe, B.universe)


def test_missing_field_rejected():
    with pytest.raises(ValidationError):
        structure_from_dict({"backend": "equality", "name": "x"})


def test_duplicate_symbol_rejected():
    doc = {
        "backend": "equality",
        "name": "x",
        "universe": "atoms",
        "relations": [
            {"name": "E", "arity": 1, "interp": "atoms"},
            {"name": "E", "arity": 1, "interp": "empty"},
        ],
        "families": [],
    }
    with pytest.raises(ValidationError):
        structure_from_dict(doc)


def test_arity_bounds():
    doc = {
        "backend": "equality",
        "name": "x",
        "universe": "atoms",
        "relations": [{"name": "E", "arity": 9, "interp": "empty"}],
        "families": [],
    }
    with pytest.raises(ValidationError):
        structure_from_dict(doc)


def test_validate_structure_checks_interps(eq_comp):
    doc = {
        "backend": "equality",
        "name": "x",
        "universe": "{a | a in atoms, a != #1}",
        "relations": [{"name": "E", "arity": 1, "interp": "atoms"}],
        "families": [],
    }
    st = structure_from_dict(doc)
    with pytest.raises(ValidationError) as ei:
        validate_structure(eq_comp, st)
    assert "E" in str(ei.value)


def test_validate_structure_family_interp(eq_comp):
    doc = {
        "backend": "equality",
        "name": "x",
        "universe": "atoms",
        "relations": [],
        "families": [
            {
                "name": "N",
                "arity": 1,
                "index": "atoms",
                "interp": "{(a, a) | a in atoms}",
            }
        ],
    }
    st = structure_from_dict(doc)
    validate_structure(eq_comp, st)
    bad = dict(doc)
    bad["families"] = [
        {
            "name": "N",
            "arity": 1,
            "index": "{a | a in atoms, a != #1}",
            "interp": "{(#1, #1)}",
        }
    ]
    st2 = structure_from_dict(bad)
    with pytest.raises(ValidationError):
        validate_structure(eq_comp, st2)


def test_signatures_match(eq_comp):
    A, B = kneser_pair()
    assert signatures_match(eq_comp, A, B)
    doc = structure_to_dict(A)
    doc["relations"][0]["arity"] = 1
    doc["relations"][0]["interp"] = "empty"
    C = structure_from_dict(doc)
    assert not signatures_match(eq_comp, A, C)


def test_check_isomorphism_validates_the_map_before_the_signatures(eq_comp):
    A, _ = kneser_pair()
    doc = structure_to_dict(A)
    doc["relations"][0]["arity"] = 1
    doc["relations"][0]["interp"] = "empty"
    C = structure_from_dict(doc)
    escaping = DefFunction(A.universe, C.universe, parse("{(a, a) | a in atoms}"))
    with pytest.raises(ValidationError, match="not contained in dom x cod"):
        check_isomorphism(eq_comp, escaping, A, C)


def test_check_isomorphism_checks_the_map_of_each_mode(eq_comp):
    def graph(interp):
        return structure_from_dict(
            {
                "backend": "equality",
                "universe": "atoms",
                "relations": [{"name": "E", "arity": 2, "interp": interp}],
            }
        )

    A = graph("empty")
    B = graph("{(a, b) | a, b in atoms, a != b}")
    # the identity preserves the empty relation but does not reflect B's;
    # the constant map is not even injective
    ident = DefFunction(A.universe, B.universe, parse("{(a, a) | a in atoms}"))
    const = DefFunction(A.universe, B.universe, parse("{(a, #1) | a in atoms}"))
    for fn in (ident, const):
        assert check_isomorphism(eq_comp, fn, A, B, mode="hom")
        assert not check_isomorphism(eq_comp, fn, A, B, mode="emb")
        assert not check_isomorphism(eq_comp, fn, A, B)
    assert check_isomorphism(eq_comp, ident, A, A, mode="emb")
    assert not check_isomorphism(eq_comp, const, A, A, mode="emb")
    with pytest.raises(ValidationError, match="unknown search mode 'epi'"):
        check_isomorphism(eq_comp, ident, A, B, mode="epi")


def test_check_isomorphism_identity(eq_comp):
    A, B = kneser_pair()
    u = A.universe
    ident = DefFunction(
        u, u, parse("{({a,b},{a,b}) | a,b in atoms, a != b}", eq_comp.backend)
    )
    assert check_isomorphism(eq_comp, ident, A, B)


def test_check_isomorphism_rejects_non_morphism(eq_comp):
    doc = {
        "backend": "equality",
        "name": "loops",
        "universe": "atoms",
        "relations": [{"name": "E", "arity": 2, "interp": "{(#1, #1)}"}],
        "families": [],
    }
    A = structure_from_dict(doc)
    other = dict(doc)
    other["relations"] = [{"name": "E", "arity": 2, "interp": "{(#2, #2)}"}]
    B = structure_from_dict(other)
    ident = DefFunction(A.universe, B.universe, parse("{(a, a) | a in atoms}"))
    assert not check_isomorphism(eq_comp, ident, A, B)
    # swapping the named atoms repairs it
    swap = parse("{(#1, #2)} + {(#2, #1)} + {(a, a) | a in atoms, a != #1 and a != #2}")
    f = DefFunction(A.universe, B.universe, swap)
    assert check_isomorphism(eq_comp, f, A, B)


def test_check_isomorphism_families(eq_comp):
    base = {
        "backend": "equality",
        "name": "fam",
        "universe": "atoms",
        "relations": [],
        "families": [
            {
                "name": "N",
                "arity": 1,
                "index": "atoms",
                "interp": "{(a, b) | a, b in atoms, a != b}",
            }
        ],
    }
    A = structure_from_dict(base)
    ident = DefFunction(A.universe, A.universe, parse("{(a, a) | a in atoms}"))
    assert check_isomorphism(eq_comp, ident, A, A)
    # same family at a shifted index set must fail the signature check
    other = json.loads(json.dumps(base))
    other["families"][0]["index"] = "{a | a in atoms, a != #1}"
    B = structure_from_dict(other)
    assert not signatures_match(eq_comp, A, B)


def test_function_document_roundtrip(eq_comp):
    _, fn = smoothing_parts()
    doc = function_to_dict("equality", fn)
    backend_name, fn2 = function_from_dict(doc)
    assert backend_name == "equality"
    assert fn2.graph == fn.graph
    assert set_equal(eq_comp, fn2.dom, fn.dom)


# ---------------------------------------------------------------------------
# transport sentences against the orbit-representative oracle


def test_transport_matches_orbit_oracle_on_union_graphs(eq_comp):
    """Every bijective union of product orbits between random universes,
    as the exhaustive reference search enumerates them."""
    rng = random.Random(23)
    verdicts = Counter()
    pairs = 0
    while pairs < 20:
        A, B = gen_structure_pair(rng)
        prod = product_expr(A.universe, B.universe)
        orbits = orbit_decomposition(eq_comp, prod, frozenset())
        if len(orbits) > 7:
            continue
        pairs += 1
        for mask in range(1, 1 << len(orbits)):
            graph = union_of(*(o.piece() for i, o in enumerate(orbits) if mask >> i & 1))
            fn = DefFunction(A.universe, B.universe, graph)
            try:
                fn_validate(eq_comp, fn)
            except ValidationError:
                continue
            if not fn_check(eq_comp, fn, injective=True, surjective=True):
                continue
            got = signatures_match(eq_comp, A, B) and transports_symbols(
                eq_comp, fn, A, B, reflect=True
            )
            want = orbit_transport(eq_comp, fn, A, B)
            assert got == want, (A.universe, B.universe, graph)
            verdicts[got] += 1
    assert verdicts[True] and verdicts[False], verdicts


def _with_relations(st, relations):
    doc = structure_to_dict(st)
    doc["relations"] = [
        {"name": name, "arity": arity, "interp": interp}
        for name, arity, interp in relations
    ]
    return structure_from_dict(doc)


def _transport_agrees(comp, fn, A, B) -> Counter:
    verdicts = Counter()
    for reflect in (False, True):
        got = transports_symbols(comp, fn, A, B, reflect=reflect)
        assert got == orbit_transport(comp, fn, A, B, reflect=reflect)
        verdicts[got] += 1
    return verdicts


@pytest.mark.parametrize("name", ["kneser", "neighborhoods", "smoothing"])
def test_transport_matches_orbit_oracle_on_fixture_maps(eq_comp, name):
    """The search's witnesses in hom, emb and iso mode, plus the shipped
    smoothing map, in both directions of the transport condition."""
    if name == "smoothing":
        st, given = smoothing_parts()
        # the shipped structure has no symbols; these make the marked map
        # fail them while the parameter-free identity keeps them
        st = _with_relations(
            st,
            [("P", 1, "{a | a in atoms}"), ("E", 2, "{(a, (a, b)) | a, b in atoms}")],
        )
        A = B = st
        maps = [given]
    else:
        A, B = kneser_pair() if name == "kneser" else neighborhoods_pair()
        maps = []
    for mode in ("hom", "emb", "iso"):
        cert = decide_definable_iso(eq_comp, A, B, mode=mode)
        assert cert.verdict == FOUND
        assert orbit_transport(eq_comp, cert.witness, A, B, reflect=mode != "hom")
        maps.append(cert.witness)
    verdicts = Counter()
    for fn in maps:
        verdicts += _transport_agrees(eq_comp, fn, A, B)
    assert verdicts[True]
    if name == "smoothing":
        assert verdicts[False]


# swapping the atoms #1 and #2 inside every unordered pair: an automorphism
# of the disjointness graph that moves neighborhoods between indices
_SWAP_12 = (
    "{({a, b}, {a, b}) | a, b in atoms, "
    "a != b and a != #1 and a != #2 and b != #1 and b != #2} + "
    "{({#1, a}, {#2, a}) | a in atoms, a != #1 and a != #2} + "
    "{({#2, a}, {#1, a}) | a in atoms, a != #1 and a != #2} + "
    "{({#1, #2}, {#1, #2})}"
)


def test_bijection_breaking_a_family_member(eq_comp):
    kA, kB = kneser_pair()
    nA, nB = neighborhoods_pair()
    fn = DefFunction(kA.universe, kB.universe, parse(_SWAP_12, eq_comp.backend))
    assert check_isomorphism(eq_comp, fn, kA, kB)
    assert orbit_transport(eq_comp, fn, kA, kB)
    # the family keeps its index in place while the members move
    assert not check_isomorphism(eq_comp, fn, nA, nB)
    assert _transport_agrees(eq_comp, fn, nA, nB) == Counter({False: 2})
