"""Grammar coverage: accepted forms, printed canonical forms, reparse
identity, and rejected inputs with their reported positions."""

import itertools
import random
from fractions import Fraction

import pytest

from atomiso.errors import ParseError, VocabularyError
from atomiso.exprs import (
    AtomParam,
    AtomsSet,
    ETuple,
    EVar,
    SetComp,
    Union,
    expr_params,
    kind,
    subst_expr,
)
from atomiso.parser import (
    MAX_NESTING,
    parse,
    parse_atoms,
    parse_formula,
    print_expr,
    print_formula,
    validate_expr,
)
from atomiso.theories import get_backend
from atomiso.theories.formulas import TRUE, And, Exists, Implies, Not, Or, Rel, Var, subst
from generators import gen_set_expr, sample_atoms


def test_parse_atoms_and_empty():
    a = parse("atoms")
    assert a == AtomsSet()
    assert kind(a) == "set"
    assert print_expr(a) == "atoms"
    assert parse("empty") == Union(())


def test_parse_atom_literals():
    assert parse("#12") == AtomParam(12)
    dlo = get_backend("dlo")
    assert parse("3/4", dlo) == AtomParam(Fraction(3, 4))
    assert parse("-2", dlo) == AtomParam(Fraction(-2))
    with pytest.raises(ParseError):
        parse("1/0", dlo)


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])  # superscript two, Arabic-Indic three
@pytest.mark.parametrize("template", ["{#%s}", "{%s}", "{-%s}", "{1/%s}"])
def test_atom_literals_take_ascii_digits_only(digit, template):
    for backend in (get_backend("equality"), get_backend("dlo")):
        with pytest.raises(ParseError):
            parse(template % digit, backend)
        with pytest.raises(VocabularyError):
            parse_atoms((template % digit)[1:-1], backend)


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])  # superscript two, Arabic-Indic three
def test_a_hash_before_a_non_ascii_digit_is_a_bad_literal(digit):
    # not the start of a comment that would swallow the rest of the line
    with pytest.raises(ParseError, match=repr("#" + digit)) as ei:
        parse("{#%s}" % digit)
    assert (ei.value.line, ei.value.column) == (1, 2)
    # a comment may still hold any digit after its first character
    assert parse("{#1}  # note #%s" % digit) == parse("{#1}")


def test_parse_atoms_reads_the_expression_literals():
    eqb = get_backend("equality")
    dlo = get_backend("dlo")
    assert parse_atoms(None, eqb) == frozenset()
    assert parse_atoms(" , ", eqb) == frozenset()
    assert parse_atoms("#1,#2  #3", eqb) == {1, 2, 3}
    assert parse_atoms("-1, 5/3 2/4", dlo) == {Fraction(-1), Fraction(5, 3), Fraction(1, 2)}
    # a list literal and an expression literal are one syntax
    for text, backend in (("#12", eqb), ("-3/4", dlo)):
        (atom,) = parse_atoms(text, backend)
        assert parse(text, backend) == AtomParam(atom)
    with pytest.raises(ParseError) as ei:
        parse_atoms("1, 1/0", dlo)
    assert ei.value.column == 4
    for bad, backend in (("1", eqb), ("#1", dlo), ("1/", dlo), ("#1x", eqb), ("abc", dlo)):
        with pytest.raises(VocabularyError, match=repr(bad)):
            parse_atoms(bad, backend)


def test_parse_tuple_and_enumset():
    e = parse("{(#1, #2), #3}")
    assert len(e.clauses) == 2
    assert print_expr(e) in ("{(#1, #2)} + {#3}", "{#3} + {(#1, #2)}")


def test_parse_comprehension():
    e = parse("{(a, b) | a, b in atoms, a != b}")
    c = e.clauses[0]
    assert c.binders == ("a", "b")
    assert isinstance(c.element, ETuple)
    assert c.guard != TRUE


def test_parse_union_flattens():
    e = parse("{#1} + {#2} + {#1}")
    assert len(e.clauses) == 2


def test_nested_set_value():
    e = parse("{ {a, b} | a, b in atoms, a != b }")
    c = e.clauses[0]
    assert isinstance(c.element, Union)


# one closed text per entry point, with a variable left free and trailing
# input after it
CLOSED_TAILS = {
    "parse": (parse, "{(a, b) | a in atoms}", "atoms atoms", "expression"),
    "parse_formula": (parse_formula, "exists a. a = b", "a = a a", "formula"),
}


@pytest.mark.parametrize("entry", sorted(CLOSED_TAILS))
def test_unbound_variable_reported(entry):
    parse_text, unbound, _, _ = CLOSED_TAILS[entry]
    with pytest.raises(ParseError) as ei:
        parse_text(unbound)
    assert "b" in str(ei.value)


def test_duplicate_binder_position():
    with pytest.raises(ParseError) as ei:
        parse("{a | a, a in atoms}")
    assert ei.value.line == 1


@pytest.mark.parametrize("entry", sorted(CLOSED_TAILS))
def test_trailing_input(entry):
    parse_text, _, trailing, what = CLOSED_TAILS[entry]
    with pytest.raises(ParseError) as ei:
        parse_text(trailing)
    assert f"trailing input after {what}" in str(ei.value)


def test_keyword_cannot_be_binder():
    with pytest.raises(ParseError):
        parse("{in | in in atoms}")


def test_singleton_tuple_rejected():
    with pytest.raises(ParseError):
        parse("{(a) | a in atoms}")


def test_comment_and_whitespace():
    e = parse("{ a | a in atoms, a != #1 }  # trailing note")
    assert expr_params(e) == frozenset({1})


def test_formula_precedence():
    f = parse_formula("#1 != #2 and #2 != #3 or #1 = #3")
    assert isinstance(f, Or)
    g = parse_formula("#1 = #2 -> #2 = #3 -> #1 = #3")
    assert isinstance(g, Implies)
    assert isinstance(g.conclusion, Implies)
    h = parse_formula("not #1 = #2")
    assert isinstance(h, Not)


def test_formula_quantifiers_and_relation():
    cyc_b = get_backend("cyclic")
    f = parse_formula("exists x. R(x, 0, 1)", cyc_b)
    assert isinstance(f, Exists)
    with pytest.raises(VocabularyError):
        parse_formula("#1 < #2", get_backend("equality"))
    with pytest.raises(ParseError):
        parse_formula("exists x. R(x, y, z)")  # y, z unbound


def test_print_formula_parenthesizes():
    f = parse_formula("(#1 = #2 or #2 = #3) and #1 != #3")
    s = print_formula(f)
    assert parse_formula(s) == f


def test_validate_expr_checks_guards_and_atoms():
    eqb = get_backend("equality")
    e = parse("{a | a in atoms, a != #2}")
    validate_expr(e, eqb)
    dlo_e = parse("{a | a in atoms, a < 1/2}", get_backend("dlo"))
    with pytest.raises(VocabularyError):
        validate_expr(dlo_e, eqb)


def test_parse_print_identity_on_fixture_strings():
    strings = [
        "atoms",
        "empty",
        "{ {a,b} | a,b in atoms, a != b }",
        "{(a, (a, #1)) | a in atoms} + {((a, #1), a) | a in atoms} + "
        "{((a, b), (a, b)) | a, b in atoms, b != #1}",
        "{(a, b, c) | a, b, c in atoms, R(a, b, c)}",
    ]
    for s in strings:
        backend = get_backend("cyclic") if "R(" in s else None
        e = parse(s, backend)
        assert parse(print_expr(e), backend) == e


def test_parse_print_identity_generated():
    rng = random.Random(99)
    for name in ("equality", "dlo", "cyclic"):
        b = get_backend(name)
        for _ in range(60):
            params = []
            if rng.random() < 0.5:
                from generators import sample_atoms

                params = sample_atoms(rng, name, 2)
            e = gen_set_expr(rng, name, params, max_binders=3, depth=2)
            s = print_expr(e)
            assert parse(s, b) == e, s


def test_error_positions():
    with pytest.raises(ParseError) as ei:
        parse("{a | a in atoms,, a != b}")
    assert ei.value.line == 1 and ei.value.column == 17
    with pytest.raises(ParseError) as ei2:
        parse("{a |\n a in}")
    assert ei2.value.line == 2


def _with_zz(e, pick):
    """e with the variable use that `pick()` first answers True for renamed
    `zz`: an element's through `subst_expr`, a guard literal's through
    `formulas.subst`.  `pick` is asked once per use."""
    if isinstance(e, EVar):
        return subst_expr(e, {e: EVar("zz")}) if pick() else e
    if isinstance(e, ETuple):
        return ETuple(tuple(_with_zz(i, pick) for i in e.items))
    if isinstance(e, Union):
        return Union(tuple(_with_zz(c, pick) for c in e.clauses))
    if isinstance(e, SetComp):
        return SetComp(_with_zz(e.element, pick), e.binders, _guard_with_zz(e.guard, pick))
    return e


def _guard_with_zz(f, pick):
    if isinstance(f, Rel):
        for t in f.args:
            if isinstance(t, Var) and pick():
                return subst(f, {t: Var("zz")})
        return f
    if isinstance(f, Not):
        return Not(_guard_with_zz(f.body, pick))
    if isinstance(f, (And, Or)):
        return type(f)(tuple(_guard_with_zz(g, pick) for g in f.args))
    return f


def test_unbound_variable_reported_at_its_first_use():
    """One use of a closed expression renamed to a fresh name is reported
    where the name first occurs, on every backend."""
    rng = random.Random(28)
    placed = 0
    for name in ("equality", "dlo", "cyclic"):
        b = get_backend(name)
        for _ in range(80):
            e = gen_set_expr(rng, name, sample_atoms(rng, name, 2), max_binders=3, depth=2)
            uses = []
            _with_zz(e, lambda: uses.append(None))
            if not uses:
                continue
            ticks = itertools.count(-rng.randrange(len(uses)))
            text = print_expr(_with_zz(e, lambda: next(ticks) == 0))
            assert "zz" in text
            with pytest.raises(ParseError) as ei:
                parse(text, b)
            assert str(ei.value) == f"unbound variable 'zz' (line 1, column {text.index('zz') + 1})", text
            placed += 1
    assert placed > 150


@pytest.mark.parametrize(
    "text, name, column",
    [
        # bound in another clause of the union, not in the one that uses it
        ("{x | x in atoms} + {(x, y) | y in atoms}", "x", 22),
        # free in the body of a quantifier that binds another name
        ("{a | a in atoms, exists b. a = b and c = b}", "c", 38),
    ],
)
def test_unbound_variable_edge_cases(text, name, column):
    with pytest.raises(ParseError) as ei:
        parse(text)
    assert str(ei.value) == f"unbound variable {name!r} (line 1, column {column})"


def test_nesting_limit():
    deep = "(" * 2000 + "a = a" + ")" * 2000
    with pytest.raises(ParseError) as ei:
        parse("{a | a in atoms, %s}" % deep)
    assert "nested deeper" in str(ei.value)
    # each arrow of a chain nests; runs of negations do not
    chain = " -> ".join(["a = a"] * 2000)
    with pytest.raises(ParseError):
        parse("{a | a in atoms, %s}" % chain)
    assert parse("{a | a in atoms, %sa = a}" % ("not " * 2000)) == parse(
        "{a | a in atoms, a = a}"
    )
    sets = "{" * (MAX_NESTING - 1) + "#1" + "}" * (MAX_NESTING - 1)
    assert print_expr(parse(sets)) == sets
    with pytest.raises(ParseError):
        parse("{" + sets + "}")
