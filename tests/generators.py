"""Seeded random generators for formulas, set expressions, and structures.

All generation is driven by an explicit random.Random so failures replay.
Guards in generated set expressions stay quantifier-free: that keeps the
finite-pool oracle in oracles.py faithful.
"""

import random
from fractions import Fraction

from atomiso.exprs import AtomParam, ETuple, EVar, SetComp, Union, union_of
from atomiso.theories.formulas import (
    TRUE,
    Const,
    Exists,
    Forall,
    Implies,
    Rel,
    Var,
    land,
    lnot,
    lor,
)

_REL_NAMES = {
    "equality": ("=",),
    "dlo": ("=", "<", "<="),
    "cyclic": ("=", "R"),
}


def sample_atoms(rng: random.Random, backend_name: str, n: int) -> list:
    if backend_name == "equality":
        return rng.sample(range(9), n)
    vals = rng.sample(range(-4, 8), n)
    return [Fraction(v) for v in vals]


def gen_term(rng, names, atoms):
    if names and (not atoms or rng.random() < 0.7):
        return Var(rng.choice(names))
    return Const(rng.choice(atoms))


def gen_literal(rng, backend_name, names, atoms):
    rel = rng.choice(_REL_NAMES[backend_name])
    arity = 3 if rel == "R" else 2
    f = Rel(rel, tuple(gen_term(rng, names, atoms) for _ in range(arity)))
    return lnot(f) if rng.random() < 0.4 else f


def gen_qf_formula(rng, backend_name, names, atoms, depth=2):
    if depth == 0 or rng.random() < 0.4:
        return gen_literal(rng, backend_name, names, atoms)
    k = rng.choice((2, 2, 3))
    parts = [gen_qf_formula(rng, backend_name, names, atoms, depth - 1) for _ in range(k)]
    op = rng.choice((land, lor))
    return op(*parts)


def gen_formula(rng, backend_name, names, atoms, depth=3, qdepth=2):
    """Random formula with quantifier nesting at most qdepth."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return gen_literal(rng, backend_name, names, atoms)
    if roll < 0.55 and qdepth > 0:
        q = rng.choice((Exists, Forall))
        v = f"b{rng.randrange(4)}"
        body = gen_formula(rng, backend_name, names + [v], atoms, depth - 1, qdepth - 1)
        return q(v, body)
    if roll < 0.7:
        return lnot(gen_formula(rng, backend_name, names, atoms, depth - 1, qdepth))
    if roll < 0.8:
        return Implies(
            gen_formula(rng, backend_name, names, atoms, depth - 1, qdepth),
            gen_formula(rng, backend_name, names, atoms, depth - 1, qdepth),
        )
    parts = [gen_formula(rng, backend_name, names, atoms, depth - 1, qdepth) for _ in range(2)]
    return rng.choice((land, lor))(*parts)


# ---------------------------------------------------------------------------
# set expressions


def gen_element(rng, backend_name, binders, params, depth, budget):
    """Element term of a clause: an atom, a tuple, or a nested set using
    fresh binders drawn from the shared budget."""
    choices = ["atom"]
    if depth > 0:
        choices += ["tuple", "tuple"]
        if budget[0] > 0:
            choices.append("set")
    kind = rng.choice(choices)
    if kind == "atom" or (kind != "set" and not (binders or params)):
        if binders and (not params or rng.random() < 0.75):
            return EVar(rng.choice(binders))
        if params:
            return AtomParam(rng.choice(params))
        return AtomParam(sample_atoms(rng, backend_name, 1)[0])
    if kind == "tuple":
        n = rng.choice((2, 2, 3))
        return ETuple(
            tuple(
                gen_element(rng, backend_name, binders, params, depth - 1, budget)
                for _ in range(n)
            )
        )
    # set-valued elements are always Union-wrapped, matching what the
    # parser produces
    return Union((gen_clause(rng, backend_name, binders, params, depth - 1, budget),))


def gen_clause(rng, backend_name, outer, params, depth, budget) -> SetComp:
    take = rng.randint(0, min(2, budget[0]))
    budget[0] -= take
    fresh = [f"g{rng.randrange(100)}" for _ in range(take)]
    while len(set(fresh)) != len(fresh):
        fresh = [f"g{rng.randrange(100)}" for _ in range(take)]
    binders = [b for b in outer if b not in fresh] + fresh
    element = gen_element(rng, backend_name, binders, params, depth, budget)
    if fresh and rng.random() < 0.8:
        guard = gen_qf_formula(rng, backend_name, binders, params, depth=1)
    else:
        guard = TRUE
    if not fresh:
        guard = TRUE  # zero-binder clauses must carry a trivial guard
    return SetComp(element, tuple(fresh), guard)


def gen_set_expr(rng, backend_name, params, max_binders=3, depth=2) -> Union:
    """Closed set expression: a union of one or two clauses sharing a binder
    budget."""
    budget = [max_binders]
    k = rng.choice((1, 1, 2))
    parts = []
    for _ in range(k):
        c = gen_clause(rng, backend_name, [], params, depth, budget)
        parts.append(Union((c,)))
    return union_of(*parts)


def equivalent_variant(rng, backend_name, e: Union, params) -> Union:
    """A syntactically different expression denoting the same set."""
    kind = rng.choice(("rename", "split", "pad", "dup"))
    clauses = list(e.clauses)
    if not clauses:
        return e
    i = rng.randrange(len(clauses))
    c = clauses[i]
    if kind == "rename" and c.binders:
        from atomiso.exprs import rename_clause
        from atomiso.theories.formulas import NameSource

        fresh = NameSource(("x", "y", "z"))
        clauses[i] = rename_clause(c, fresh)
    elif kind == "split" and c.binders:
        # case split on a literal: the two restricted clauses cover the same
        # elements
        lit = gen_literal(rng, backend_name, list(c.binders), params)
        clauses[i : i + 1] = [
            SetComp(c.element, c.binders, land(c.guard, lit)),
            SetComp(c.element, c.binders, land(c.guard, lnot(lit))),
        ]
    elif kind == "pad" and c.binders:
        # weaken the guard with a disjunct it already implies
        lit = gen_literal(rng, backend_name, list(c.binders), params)
        clauses[i] = SetComp(c.element, c.binders, lor(c.guard, land(c.guard, lit)))
    else:
        clauses.append(c)
    return Union(tuple(clauses))


# ---------------------------------------------------------------------------
# random automorphisms fixing a prescribed finite set pointwise


def _increasing_values(rng, k, lo, hi):
    """k strictly increasing rationals in the open interval (lo, hi); either
    end may be None for unbounded."""
    if lo is None and hi is None:
        ticks = sorted(rng.sample(range(-40, 40), k))
        return [Fraction(t) for t in ticks]
    if hi is None:
        ticks = sorted(rng.sample(range(1, 60), k))
        return [lo + Fraction(t, 2) for t in ticks]
    if lo is None:
        ticks = sorted(rng.sample(range(1, 60), k), reverse=True)
        return [hi - Fraction(t, 2) for t in ticks]
    ticks = sorted(rng.sample(range(1, 97), k))
    return [lo + (hi - lo) * Fraction(t, 97) for t in ticks]


def gen_automorphism(rng: random.Random, backend_name: str, atoms, fixing=frozenset()):
    """A random finite partial automorphism defined on atoms | fixing and
    identity on fixing."""
    atoms = set(atoms) | set(fixing)
    fixing = frozenset(fixing)
    out = {a: a for a in fixing}
    free = sorted(atoms - fixing)
    if not free:
        return out
    if backend_name == "equality":
        used = set(fixing)
        for a in free:
            img = rng.randrange(0, 40)
            while img in used:
                img = rng.randrange(0, 40)
            out[a] = img
            used.add(img)
        return out
    fixed = sorted(fixing)
    if backend_name == "dlo":
        bounds = [None] + fixed + [None]
        for i in range(len(bounds) - 1):
            lo, hi = bounds[i], bounds[i + 1]
            group = [a for a in free if (lo is None or a > lo) and (hi is None or a < hi)]
            for a, v in zip(group, _increasing_values(rng, len(group), lo, hi)):
                out[a] = v
        return out
    # circle: with nothing fixed, rotate the circular arrangement; with cut
    # points fixed, remap every arc into itself
    if not fixed:
        r = rng.randrange(len(free))
        seq = free[r:] + free[:r]
        for a, v in zip(seq, _increasing_values(rng, len(seq), None, None)):
            out[a] = v
        return out
    for i in range(len(fixed) - 1):
        lo, hi = fixed[i], fixed[i + 1]
        group = [a for a in free if lo < a < hi]
        for a, v in zip(group, _increasing_values(rng, len(group), lo, hi)):
            out[a] = v
    # the wrap arc runs from the greatest cut point around to the least:
    # its linear order is (above the greatest) then (below the least), and
    # images may land anywhere along that line
    upper = [a for a in free if a > fixed[-1]]
    lower = [a for a in free if a < fixed[0]]
    arc = upper + lower
    split = rng.randint(0, len(arc))
    imgs = _increasing_values(rng, split, fixed[-1], None) + _increasing_values(
        rng, len(arc) - split, None, fixed[0]
    )
    for a, v in zip(arc, imgs):
        out[a] = v
    return out


# ---------------------------------------------------------------------------
# tiny structures over the equality atoms, for search-vs-naive comparisons

_UNIVERSES = (
    "atoms",
    "{(a, b) | a, b in atoms, a != b}",
    "{(a, b) | a, b in atoms}",
    "{ {a, b} | a, b in atoms, a != b }",
)

_EDGE_SETS: dict[str, tuple] = {
    "atoms": (
        "empty",
        "{(a, a) | a in atoms}",
        "{(a, b) | a, b in atoms, a != b}",
        "{(a, b) | a, b in atoms}",
    ),
    "{(a, b) | a, b in atoms, a != b}": (
        "empty",
        "{((a, b), (b, a)) | a, b in atoms, a != b}",
        "{((a, b), (a, c)) | a, b, c in atoms, a != b and a != c}",
    ),
    "{(a, b) | a, b in atoms}": (
        "empty",
        "{((a, a), (a, a)) | a in atoms}",
        "{((a, b), (b, a)) | a, b in atoms}",
    ),
    "{ {a, b} | a, b in atoms, a != b }": (
        "empty",
        "{({a, b}, {c, d}) | a, b, c, d in atoms, "
        "a != b and a != c and a != d and b != c and b != d and c != d}",
        "{({a, b}, {b, c}) | a, b, c in atoms, a != b and b != c and a != c}",
    ),
}


def gen_structure_pair(rng: random.Random, backend_name: str = "equality"):
    """Two random graph-like structures, over the equality atoms unless
    another backend is named (the sets use = alone, so they read the same
    over every backend); universes may differ, signatures always match."""
    from atomiso.structures import structure_from_dict

    ua = rng.choice(_UNIVERSES)
    ub = rng.choice(_UNIVERSES)
    ea = rng.choice(_EDGE_SETS[ua])
    eb = rng.choice(_EDGE_SETS[ub])
    mk = lambda name, u, e: structure_from_dict(
        {
            "backend": backend_name,
            "name": name,
            "universe": u,
            "relations": [{"name": "E", "arity": 2, "interp": e}],
            "families": [],
        }
    )
    return mk("left", ua, ea), mk("right", ub, eb)


# ---------------------------------------------------------------------------
# ladders: structures that grow with one size parameter


def _ladder(backend_name: str, name: str, universe: str, edge: str):
    from atomiso.structures import structure_from_dict

    return structure_from_dict(
        {
            "backend": backend_name,
            "name": name,
            "universe": universe,
            "relations": [{"name": "E", "arity": 2, "interp": edge}],
        }
    )


def dlo_chains(k: int):
    """The increasing k-chains of dlo atoms (k >= 2), with E = "x lies
    entirely below y"."""
    xs = [f"x{i}" for i in range(k)]
    ys = [f"y{i}" for i in range(k)]

    def below(vs):
        return " and ".join(f"{a} < {b}" for a, b in zip(vs, vs[1:]))

    x, y = ", ".join(xs), ", ".join(ys)
    return _ladder(
        "dlo",
        f"chains{k}",
        f"{{({x}) | {x} in atoms, {below(xs)}}}",
        f"{{(({x}), ({y})) | {x}, {y} in atoms, {below(xs + ys)}}}",
    )


def equality_tuples(k: int):
    """The k-tuples of equality atoms (k >= 2), with E sending each tuple
    to its rotation by one place."""
    xs = [f"x{i}" for i in range(k)]
    x, rotated = ", ".join(xs), ", ".join(xs[1:] + xs[:1])
    return _ladder(
        "equality",
        f"tuples{k}",
        f"{{({x}) | {x} in atoms}}",
        f"{{(({x}), ({rotated})) | {x} in atoms}}",
    )


def equality_subsets(k: int):
    """The k-subsets of equality atoms (k >= 2), with E = "the two sets are
    disjoint"; k = 2 is the kneser fixture."""
    xs = [f"x{i}" for i in range(k)]
    ys = [f"y{i}" for i in range(k)]

    def distinct(vs):
        return " and ".join(f"{a} != {b}" for i, a in enumerate(vs) for b in vs[i + 1 :])

    x, y = ", ".join(xs), ", ".join(ys)
    return _ladder(
        "equality",
        f"subsets{k}",
        f"{{{{{x}}} | {x} in atoms, {distinct(xs)}}}",
        f"{{({{{x}}}, {{{y}}}) | {x}, {y} in atoms, {distinct(xs + ys)}}}",
    )
