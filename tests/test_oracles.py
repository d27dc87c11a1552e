"""Regression checks for the brute-force evaluators in oracles.py."""

from atomiso.parser import parse
from atomiso.theories import get_backend
from oracles import enum_value, exhaustive_pool


def test_guard_only_binder_ranges_beyond_the_pool():
    # every pool atom has a smaller atom, though not always inside the pool
    pool = exhaustive_pool("dlo", [], 3)
    e = parse("{x | x, y in atoms, y < x}", get_backend("dlo"))
    assert min(pool) == -4
    assert enum_value(e, {}, "dlo", pool) == frozenset(pool)
