"""Regression checks for the brute-force evaluators in oracles.py."""

from fractions import Fraction

from atomiso.parser import parse
from atomiso.theories import get_backend
from atomiso.theories.formulas import Const, Exists, Var, land, lt
from oracles import enum_value, eval_formula, exhaustive_pool


def test_guard_only_binder_ranges_beyond_the_pool():
    # every pool atom has a smaller atom, though not always inside the pool
    pool = exhaustive_pool("dlo", [], 3)
    e = parse("{x | x, y in atoms, y < x}", get_backend("dlo"))
    assert min(pool) == -4
    assert enum_value(e, {}, "dlo", pool) == frozenset(pool)


def test_cyclic_quantifiers_reach_below_the_least_atom():
    # the linear order that cyclic elimination leaves in its output reads as
    # over the rationals, which have points below 6
    six = Const(Fraction(6))
    f = Exists("w", Exists("v", land(lt(Var("w"), six), lt(six, Var("v")))))
    assert eval_formula("dlo", f, {})
    assert eval_formula("cyclic", f, {})
