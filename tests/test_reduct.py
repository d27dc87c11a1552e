"""Equality as a reduct: cross-backend checks that need no oracle.

Pure equality is the `=`-reduct of the dense order and of the circle, and
their automorphism groups are subgroups of the symmetric group.  So an
equality expression moved to rational atoms by any injective map keeps its
set equalities and inclusions on every backend; its least support over dlo
or cyclic lies inside the image of the one over equality; and it has at
least as many orbits over dlo or cyclic as over equality.  For structures,
an isomorphism definable with T over equality is defined by the same
formula over dlo and cyclic, with T moved: an equality `FOUND` is a `FOUND`
there, and a dlo `NOT_FOUND` an equality `NOT_FOUND`.
"""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

from atomiso.algebra import is_subset, least_support, orbit_decomposition, set_equal
from atomiso.compile import Compiler
from atomiso.engine import FOUND, NOT_FOUND, find_definable_map
from atomiso.exprs import act, expr_params
from atomiso.structures import Structure
from atomiso.theories import get_backend
from generators import equivalent_variant, gen_set_expr, gen_structure_pair, sample_atoms

ORDERED = ("dlo", "cyclic")


def _rational_atoms(rng: random.Random, atoms) -> dict:
    """An injective map from the equality atoms `atoms` to rationals, in a
    random order."""
    values: set = set()
    while len(values) < len(atoms):
        values.add(Fraction(rng.randrange(-30, 30), rng.choice((1, 2, 3))))
    images = sorted(values)
    rng.shuffle(images)
    return dict(zip(sorted(atoms), images))


def _pairs(seed: int, count: int):
    """Seeded pairs of equality set expressions over shared parameters; the
    second is an equivalent variant of the first for about half of them."""
    rng = random.Random(seed)
    for _ in range(count):
        params = sample_atoms(rng, "equality", rng.choice((1, 2, 3)))
        e1 = gen_set_expr(rng, "equality", params, max_binders=2, depth=2)
        if rng.random() < 0.5:
            e2 = equivalent_variant(rng, "equality", e1, params)
        else:
            e2 = gen_set_expr(rng, "equality", params, max_binders=2, depth=2)
        yield rng, e1, e2


def test_equality_answers_hold_on_every_backend_that_has_equality_as_a_reduct():
    eq = Compiler(get_backend("equality"))
    ordered = {name: Compiler(get_backend(name)) for name in ORDERED}
    seen = {"equal": 0, "unequal": 0, "more_orbits": 0}
    for i, (rng, e1, e2) in enumerate(_pairs(10, 100)):
        atoms = expr_params(e1) | expr_params(e2)
        phi = _rational_atoms(rng, atoms)
        same = set_equal(eq, e1, e2)
        within = is_subset(eq, e1, e2)
        support = least_support(eq, e1)
        orbits = len(orbit_decomposition(eq, e1, expr_params(e1)))
        seen["equal" if same else "unequal"] += 1
        for name, comp in ordered.items():
            m1, m2 = act(phi, e1), act(phi, e2)
            where = (name, i, e1, e2, phi)
            assert set_equal(comp, m1, m2) == same, where
            assert is_subset(comp, m1, m2) == within, where
            moved_support = least_support(comp, m1)
            assert moved_support <= {phi[a] for a in support}, where
            moved_orbits = len(orbit_decomposition(comp, m1, expr_params(m1)))
            assert moved_orbits >= orbits, where
            seen["more_orbits"] += moved_orbits > orbits
    # the pairs reach both verdicts, and the orders split some orbits
    assert seen["equal"] and seen["unequal"] and seen["more_orbits"], seen


def _moved(st: Structure, phi: dict, name: str) -> Structure:
    """The structure st over the backend `name`, each of its sets moved by
    `act` with phi."""
    return Structure(
        st.name,
        name,
        act(phi, st.universe),
        tuple(replace(r, interp=act(phi, r.interp)) for r in st.relations),
        tuple(
            replace(f, index_set=act(phi, f.index_set), interp=act(phi, f.interp))
            for f in st.families
        ),
    )


def test_equality_isomorphisms_hold_on_every_backend_that_has_equality_as_a_reduct():
    eq = Compiler(get_backend("equality"))
    ordered = {name: Compiler(get_backend(name)) for name in ORDERED}
    rng = random.Random(12)
    seen = Counter()
    for i in range(60):
        A, B = gen_structure_pair(rng)
        T = frozenset(sample_atoms(rng, "equality", rng.choice((0, 1))))
        phi = _rational_atoms(rng, T | A.params() | B.params())
        verdict = find_definable_map(eq, A, B, T).verdict
        seen[verdict] += 1
        for name, comp in ordered.items():
            moved = find_definable_map(
                comp, _moved(A, phi, name), _moved(B, phi, name), {phi[a] for a in T}
            ).verdict
            where = (name, i, A.universe, B.universe, T)
            if verdict == FOUND:
                assert moved == FOUND, where
            if name == "dlo" and moved == NOT_FOUND:
                assert verdict == NOT_FOUND, where
    # the pairs reach both verdicts
    assert seen[FOUND] and seen[NOT_FOUND], seen
