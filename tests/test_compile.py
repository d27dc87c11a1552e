"""The lifetime of the compiler's memos: one question, the outermost call of
the public API, or one `with comp:` block."""

import inspect
import random
from fractions import Fraction

import pytest

import atomiso
from atomiso.algebra import (
    definable_subsets,
    is_member,
    is_subset,
    least_support,
    orbit_decomposition,
    orbit_expression,
    set_equal,
    sets_disjoint,
)
from atomiso.compile import Compiler, question
from atomiso.errors import ResourceError, SupportError
from atomiso.exprs import expr_params
from atomiso.parser import parse, print_expr
from atomiso.theories import get_backend
from generators import gen_set_expr, sample_atoms

QUESTIONS = {
    "set_equal",
    "is_member",
    "is_subset",
    "sets_disjoint",
    "orbit_decomposition",
    "orbit_expression",
    "least_support",
    "definable_subsets",
    "fn_validate",
    "fn_check",
    "fn_bijective",
    "fn_apply",
    "signatures_match",
    "validate_structure",
    "check_isomorphism",
    "find_definable_map",
    "decide_definable_iso",
    "eliminate_parameters",
}


def _memos(comp: Compiler) -> tuple:
    b = comp.backend
    return (
        comp._eq_cache,
        comp._mem_cache,
        comp._sub_cache,
        comp._orbit_cache,
        b._qe_cache,
        b._normal,
        b._free,
    )


def _forgotten(comp: Compiler) -> bool:
    return comp._depth == 0 and not any(_memos(comp))


def _counting_forgets(comp: Compiler, monkeypatch) -> list:
    """The total size of the memos at each `forget` of comp."""
    sizes = []
    real = comp.forget

    def forget():
        sizes.append(sum(map(len, _memos(comp))))
        real()

    monkeypatch.setattr(comp, "forget", forget)
    return sizes


def test_every_public_function_taking_the_compiler_is_a_question():
    wrapper = question(lambda comp: None).__code__
    taking = set()
    for name in atomiso.__all__:
        fn = getattr(atomiso, name)
        if not inspect.isfunction(fn):
            continue
        params = list(inspect.signature(fn).parameters)
        if params and params[0] == "comp":
            taking.add(name)
            assert fn.__code__ is wrapper, name
            assert fn.__wrapped__.__name__ == name
    assert taking == QUESTIONS


@pytest.mark.parametrize("name", ["equality", "dlo", "cyclic"])
def test_each_question_leaves_the_memos_empty(name, monkeypatch):
    rng = random.Random(61)
    comp = Compiler(get_backend(name))
    sizes = _counting_forgets(comp, monkeypatch)
    asked = 0
    for _ in range(6):
        params = sample_atoms(rng, name, 2)
        e1, e2 = (gen_set_expr(rng, name, params, max_binders=2, depth=2) for _ in range(2))
        x = orbit_decomposition(comp, e1, expr_params(e1))
        assert _forgotten(comp)
        calls = [
            lambda: set_equal(comp, e1, e2),
            lambda: is_subset(comp, e1, e2),
            lambda: sets_disjoint(comp, e1, e2),
            lambda: least_support(comp, e2),
            lambda: orbit_expression(comp, e2, expr_params(e2)),
        ]
        calls += [lambda o=o: is_member(comp, o.rep_element(), e2) for o in x]
        for call in calls:
            call()
            assert _forgotten(comp)
        asked += 1 + len(calls)
    # one forget per question, and the questions did fill the memos
    assert len(sizes) == asked and sum(sizes) > 0


def test_a_question_that_raises_leaves_the_memos_empty(monkeypatch):
    comp = Compiler(get_backend("equality"))
    sizes = _counting_forgets(comp, monkeypatch)
    x = parse("{(a, b) | a, b in atoms, a != #1}", comp.backend)
    with pytest.raises(SupportError):
        orbit_decomposition(comp, x, frozenset())
    assert _forgotten(comp)
    with pytest.raises(ResourceError):
        definable_subsets(comp, x, frozenset({1, 2}), budget=2)
    assert _forgotten(comp)
    # the decomposition was made and kept until the question raised
    assert len(sizes) == 2 and sizes[1] > 0
    # and the next question starts and ends with nothing kept
    assert least_support(comp, x) == frozenset({1})
    assert _forgotten(comp) and len(sizes) == 3


def test_nested_questions_and_with_blocks_keep_the_memos(monkeypatch):
    comp = Compiler(get_backend("dlo"))
    sizes = _counting_forgets(comp, monkeypatch)
    x = parse("{(a, b) | a, b in atoms, a < b and 1 < a}", comp.backend)
    y = parse("{(b, a) | a, b in atoms, b < a and 1 < b}", comp.backend)

    @question
    def both(comp):
        assert set_equal(comp, x, y)
        kept = sum(map(len, _memos(comp)))
        assert kept and comp._depth == 1
        assert least_support(comp, x) == frozenset({1})
        assert sum(map(len, _memos(comp))) > kept
        return kept

    both(comp)
    assert _forgotten(comp) and len(sizes) == 1

    with comp:
        assert set_equal(comp, x, y)
        kept = sum(map(len, _memos(comp)))
        assert kept
        # a second ask of the same question reads the kept formulas
        assert set_equal(comp, x, y) and sum(map(len, _memos(comp))) == kept
        with comp:
            orbit_decomposition(comp, x, frozenset({Fraction(1)}))
        assert comp._orbit_cache and comp._depth == 1
    assert _forgotten(comp) and len(sizes) == 2

    with pytest.raises(KeyError):
        with comp:
            is_subset(comp, x, y)
            raise KeyError("leaves the block")
    assert _forgotten(comp) and len(sizes) == 3 and sizes[-1] > 0


def _drawn(comp: Compiler) -> int:
    """How many fresh names comp's supply has drawn, or tried, since it
    started."""
    return comp.names._next - 1


def test_each_question_starts_the_name_supply_afresh():
    comp = Compiler(get_backend("dlo"))
    x = parse("{(a, b) | a, b in atoms, a < b and 1 < a}", comp.backend)
    y = parse("{(b, a) | a, b in atoms, b < a and 1 < b}", comp.backend)
    first = comp.names
    assert set_equal(comp, x, y)
    # the supply lasts as long as the memos: a new one, with nothing drawn
    # or reserved, after each question
    assert comp.names is not first and _drawn(comp) == 0 and not comp.names._used
    assert least_support(comp, x) == frozenset({1})
    assert _drawn(comp) == 0 and not comp.names._used


def test_nested_questions_and_with_blocks_keep_the_name_supply():
    comp = Compiler(get_backend("dlo"))
    x = parse("{(a, b) | a, b in atoms, a < b and 1 < a}", comp.backend)
    y = parse("{(b, a) | a, b in atoms, b < a and 1 < b}", comp.backend)

    @question
    def both(comp):
        names = comp.names
        assert set_equal(comp, x, y)
        drawn = _drawn(comp)
        assert drawn and comp.names is names
        assert least_support(comp, x) == frozenset({1})
        assert comp.names is names and _drawn(comp) > drawn

    both(comp)
    assert _drawn(comp) == 0
    with comp:
        names = comp.names
        assert set_equal(comp, x, y)
        drawn = _drawn(comp)
        with comp:
            assert least_support(comp, y) == frozenset({1})
        assert comp.names is names and _drawn(comp) > drawn
        # the kept names are reserved, so the memos' formulas never meet a
        # name drawn again
        assert "q1" in names._used
    assert comp.names is not names and _drawn(comp) == 0


def _ask(comp: Compiler, kind: int, e1, e2):
    if kind == 0:
        return set_equal(comp, e1, e2)
    if kind == 1:
        return is_subset(comp, e2, e1)
    if kind == 2:
        return sorted(least_support(comp, e1))
    return [print_expr(o.piece()) for o in orbit_decomposition(comp, e1, expr_params(e1))]


@pytest.mark.parametrize("name", ["equality", "dlo", "cyclic"])
def test_a_long_lived_compiler_answers_as_fresh_ones_do(name):
    rng = random.Random(67)
    kept = Compiler(get_backend(name))
    for i in range(40):
        params = sample_atoms(rng, name, 2)
        e1, e2 = (gen_set_expr(rng, name, params, max_binders=2, depth=2) for _ in range(2))
        fresh = Compiler(get_backend(name))
        assert _ask(kept, i % 4, e1, e2) == _ask(fresh, i % 4, e1, e2), (name, i)
    assert _forgotten(kept)
