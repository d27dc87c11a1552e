"""Backend-level behavior: atom handling, quantifier elimination, complete
types, witnesses, and partial automorphisms."""

import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from atomiso.algebra import is_subset, least_support, set_equal
from atomiso.compile import Compiler
from atomiso.errors import DensenessError, ValuationError, VocabularyError
from atomiso.parser import parse_atoms
from atomiso.theories import backend_names, base, get_backend
from atomiso.theories.base import consistent
from atomiso.theories.formulas import (
    FALSE,
    TRUE,
    And,
    Const,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    Rel,
    Var,
    cyc,
    eq,
    format_atom_value,
    formula_atoms,
    free_vars,
    land,
    lnot,
    lor,
    lt,
    ne,
    quantify,
    subformulas,
)
from eager_references import eager_eliminate
from generators import gen_formula, gen_qf_formula, gen_set_expr, sample_atoms
from oracles import (
    const_folding_sat,
    count_tuple_orbits,
    eval_formula,
    exhaustive_pool,
    extend_automorphism,
    is_partial_automorphism,
    quantifier_depth,
    reference_conjuncts,
    reference_qe,
    reference_sat,
    scratch_consistent,
    types_with_reps,
)


def test_backend_names():
    assert set(backend_names()) == {"equality", "dlo", "cyclic"}


def test_atom_parsing_roundtrip():
    eqb = get_backend("equality")
    assert parse_atoms("#7", eqb) == {7}
    assert format_atom_value(7) == "#7"
    dlo = get_backend("dlo")
    assert parse_atoms("-3/2", dlo) == {Fraction(-3, 2)}
    assert format_atom_value(Fraction(5, 3)) == "5/3"
    cyc_b = get_backend("cyclic")
    assert parse_atoms("1/4", cyc_b) == {Fraction(1, 4)}
    for backend, atoms in ((eqb, {0, 7, 12}), (dlo, {Fraction(-3, 2), Fraction(0), Fraction(5)})):
        written = " ".join(format_atom_value(a) for a in sorted(atoms))
        assert parse_atoms(written, backend) == atoms


def test_check_atom_rejects_foreign_values():
    eqb = get_backend("equality")
    with pytest.raises(Exception):
        eqb.check_atom(Fraction(1, 2))
    with pytest.raises(Exception):
        eqb.check_atom(-1)


def test_validate_vocabulary():
    eqb = get_backend("equality")
    with pytest.raises(VocabularyError):
        eqb.validate(lt(Var("x"), Var("y")))
    dlo = get_backend("dlo")
    dlo.validate(lt(Var("x"), Var("y")))
    with pytest.raises(VocabularyError):
        dlo.validate(cyc(Var("x"), Var("y"), Var("z")))


_X, _Y = Var("x"), Var("y")
_BAD_LITERALS = [
    ("equality", lt(_X, _Y)),  # a relation outside the vocabulary
    ("dlo", cyc(_X, _Y, _Y)),
    ("cyclic", Rel("R", (_X, _Y))),  # a wrong arity
    ("dlo", Rel("<", (_X, _Y, _Y))),
    ("equality", eq(_X, Const(Fraction(1, 2)))),  # a wrong atom kind
    ("dlo", eq(_X, Const(3))),
    ("cyclic", cyc(_X, Const(1), _Y)),
]


@pytest.mark.parametrize("name, bad", _BAD_LITERALS)
def test_eliminate_rejects_a_bad_literal_as_validate_does(name, bad):
    # the normal-form walk checks each literal where it meets it; the
    # message is the one `validate` gives, at the top, behind a literal the
    # walk has already normalized, and under quantifiers
    b = get_backend(name)
    good = ne(_X, Const(Fraction(2) if name != "equality" else 2))
    for f in (bad, land(good, lnot(bad)), Forall("x", Exists("y", lor(good, bad)))):
        with pytest.raises(VocabularyError) as want:
            for g in subformulas(f):
                if isinstance(g, Rel):
                    b._check_literal(g, True)
        with pytest.raises(VocabularyError) as got:
            b.eliminate(f)
        assert str(got.value) == str(want.value), (name, f)
    assert not b._normal and not b._qe_cache


def test_qe_removes_quantifiers_simple():
    dlo = get_backend("dlo")
    f = Exists("x", land(lt(Var("a"), Var("x")), lt(Var("x"), Var("b"))))
    q = dlo.qe(f)
    assert free_vars(q) <= {"a", "b"}
    # density: a < b already guarantees a point in between
    assert dlo.sat(q, {"a": Fraction(0), "b": Fraction(1)})
    assert not dlo.sat(q, {"a": Fraction(1), "b": Fraction(0)})
    eqb = get_backend("equality")
    g = Exists("x", land(ne(Var("x"), Var("a")), ne(Var("x"), Var("b"))))
    assert eqb.holds(Forall("a", Forall("b", g)))


def test_sat_requires_full_valuation():
    eqb = get_backend("equality")
    with pytest.raises(ValuationError):
        eqb.sat(eq(Var("x"), Var("y")), {"x": 1})


@pytest.mark.parametrize("name", ["equality", "dlo", "cyclic"])
def test_sat_requires_a_variable_that_elimination_drops(name):
    # x = x eliminates to TRUE, yet x is free in the formula asked about;
    # the QE memo's one entry holds both, so f is eliminated and walked once
    b = get_backend(name)
    f = eq(_X, _X)
    entry = {f: (TRUE, frozenset({"x"}))}
    assert b.qe(f) == TRUE and b._qe_cache == entry
    for _ in range(2):
        with pytest.raises(ValuationError, match="misses variables: x"):
            b.sat(f, {})
    assert b._qe_cache == entry
    atom = 1 if name == "equality" else Fraction(1)
    assert b.sat(f, {"x": atom}) and b._qe_cache == entry
    # sat eliminates before it reports the missing variable
    fresh = get_backend(name)
    with pytest.raises(ValuationError, match="misses variables: x"):
        fresh.sat(f, {})
    assert fresh._qe_cache == entry


def test_find_witness_prefers_parameters_then_fresh():
    eqb = get_backend("equality")
    w = eqb.find_witness(ne(Var("x"), Const(0)))
    assert w == {"x": 1}
    w2 = eqb.find_witness(land(ne(Var("x"), Const(0)), ne(Var("x"), Const(1))))
    assert w2 == {"x": 2}
    dlo = get_backend("dlo")
    w3 = dlo.find_witness(lt(Const(Fraction(2)), Var("x")))
    assert w3 is not None and w3["x"] > 2
    assert dlo.find_witness(lt(Var("x"), Var("x"))) is None


def test_find_witness_deterministic():
    dlo = get_backend("dlo")
    f = land(lt(Const(Fraction(0)), Var("x")), lt(Var("x"), Const(Fraction(1))))
    assert dlo.find_witness(f) == dlo.find_witness(f)


# sha256 of qe(f).key and find_witness(f) over a seeded corpus, pinned so
# that a change to the conjunct kernel that moves a witness or an
# eliminated formula shows
WITNESS_DIGESTS = {
    "equality": "b2df4024658797df4044b4552b16abf95ab71481357b4efe4e15f2536e215a25",
    "dlo": "0e10d5dcad1f6fb33ca9d108e90484a559d0e86071b5f57d99e73dabb693733b",
    "cyclic": "b945bbe1ee38923de9b888be5dc810c9cf9aade3868dcf61acace209043f1e98",
}


def test_qe_and_witnesses_are_pinned():
    for name in backend_names():
        rng = random.Random(606)
        b = get_backend(name)
        out = []
        for _ in range(200):
            atoms = sample_atoms(rng, name, 3)
            f = gen_formula(rng, name, ["u", "v", "w"], atoms, depth=3, qdepth=2)
            w = b.find_witness(f)
            out.append((b.qe(f).key, None if w is None else sorted(w.items())))
        digest = hashlib.sha256(repr(out).encode()).hexdigest()
        assert digest == WITNESS_DIGESTS[name], name


def test_a_quantifier_whose_variable_does_not_occur_is_skipped():
    # no negation pair wraps a body the quantifier does not bind: over dlo
    # the negation of 1 < v is v < 1 or 1 = v, and negating that back
    # leaves 1 != v and (1 < v or 1 = v), not 1 < v
    dlo = get_backend("dlo")
    one, v = Const(Fraction(1)), Var("v")
    assert dlo.qe(Forall("b0", lt(one, v))) == lt(one, v)
    assert dlo.qe(Forall("b0", Forall("b1", lt(one, v)))) == lt(one, v)
    assert dlo.qe(Exists("b0", Forall("b1", lt(one, v)))) == lt(one, v)


def _raw_conjuncts(f, cap=64):
    """The disjunctive normal form of a normalized quantifier-free formula
    as literal sets, none pruned; None past `cap` sets."""
    if isinstance(f, (Rel, Not)):
        return [frozenset((f,))]
    if isinstance(f, Or):
        out = []
        for g in f.args:
            part = _raw_conjuncts(g, cap)
            if part is None:
                return None
            out += part
        return out if len(out) <= cap else None
    if isinstance(f, And):
        acc = [frozenset()]
        for g in f.args:
            part = _raw_conjuncts(g, cap)
            if part is None or len(acc) * len(part) > cap:
                return None
            acc = [c | p for c in acc for p in part]
        return acc
    return [frozenset()] if f == TRUE else []


def test_conjunct_kernel_matches_oracle():
    # every literal set of the unpruned DNF of eliminated random formulas,
    # the circle's R unfolded into the literals the kernel reads:
    # consistency is satisfiability, and a witness exists exactly then
    for name in backend_names():
        rng = random.Random(19)
        b = get_backend(name)
        seen = {True: 0, False: 0}
        while min(seen.values()) < 60:
            atoms = sample_atoms(rng, name, 3)
            f = gen_formula(rng, name, ["u", "v", "w"], atoms, depth=3, qdepth=2)
            for c in _raw_conjuncts(b._unfold(b.qe(f))) or ():
                fvs = sorted(free_vars(land(*c)))
                sat = eval_formula(name, quantify(Exists, fvs, land(*c)), {})
                assert consistent(c) == sat, (name, c)
                seen[sat] += 1
                params = sorted(formula_atoms(land(*c)) | set(atoms[:1]))
                w = b.conjunct_witness(c, fvs + ["z"], params)
                if not sat:
                    assert w is None, (name, c)
                    continue
                assert set(w) == set(fvs) | {"z"}, (name, c)
                assert all(eval_formula(name, lit, w) for lit in c), (name, c, w)


# a literal each backend folds in its own way, as (positive, relation): a
# negated = over the pure set, a negated < (a disjunction once normalized)
# over dlo, and R (rotated, and cut open into < only where it is
# eliminated) over the circle
_FOLDED_LITERAL = {"equality": (False, "="), "dlo": (False, "<"), "cyclic": (True, "R")}


def test_lazy_r_eliminates_as_the_eager_readings_do():
    # R stays a literal until one of its variables is eliminated or a DNF
    # decides; the reference cuts every R into its linear readings before
    # the normal form.  The two eliminations are equivalent, a witness
    # satisfies the formula, and only an unsatisfiable formula has none
    rng = random.Random(4402)
    b, ref, judge = (get_backend("cyclic") for _ in range(3))
    names = ["u", "v", "w"]
    # not R(u, v, w) where exactly two arguments meet: each pair in turn,
    # as a sentence, as an open elimination and at a constant
    u, v, w = map(Var, names)
    met = []
    for p, q, r in ((u, v, w), (v, w, u), (u, w, v)):
        body = land(eq(p, q), ne(p, r), ne(q, r), lnot(cyc(u, v, w)))
        met += [quantify(Exists, names, body), Exists(r.name, body)]
        met.append(Exists(p.name, land(eq(p, Const(Fraction(1))), body)))
    randoms = (
        gen_formula(rng, "cyclic", names, sample_atoms(rng, "cyclic", 3), depth=3, qdepth=2)
        for _ in range(150)
    )
    kept = witnessed = 0
    for f in itertools.chain(met, randoms):
        got, want = b.qe(f), eager_eliminate(ref, f)
        kept += any(isinstance(g, Rel) and g.name == "R" for g in subformulas(got))
        both = quantify(Forall, names, land(Implies(got, want), Implies(want, got)))
        assert judge.holds(both), (f, got, want)
        w = b.find_witness(f)
        fvs = sorted(free_vars(f))
        if w is None:
            assert not judge.holds(quantify(Exists, fvs, f)), f
        else:
            assert judge.sat(f, w) and eval_formula("cyclic", f, w), (f, w)
            witnessed += 1
    assert kept >= 30 and witnessed >= 30, (kept, witnessed)


def test_r_holds_at_its_ground_truth():
    # `_holds_at` reads R and not R by GROUND; the oracle sweeps the circle
    b = get_backend("cyclic")
    x, y, z = map(Var, "xyz")
    one = Const(Fraction(1))
    lits = [cyc(x, y, z), cyc(z, y, x), cyc(x, one, y), cyc(one, x, x)]
    pool = exhaustive_pool("cyclic", {Fraction(1)}, 1)
    for lit in lits + [lnot(l) for l in lits]:
        for values in itertools.product(pool, repeat=3):
            val = dict(zip("xyz", values))
            assert b._holds_at(lit, val) == eval_formula("cyclic", lit, val), (lit, val)


@pytest.mark.parametrize("name", ["equality", "dlo", "cyclic"])
def test_sat_by_evaluation_matches_substitution(name):
    # sat evaluates the eliminated formula at the valuation; the reference
    # substitutes the valuation into it and normalizes the ground result
    rng = random.Random(37)
    b = get_backend(name)
    names = ["x", "y"]
    verdicts = {True: 0, False: 0}
    literals = set()
    for i in range(40):
        atoms = sample_atoms(rng, name, 2)
        if i % 4 == 3:
            f = gen_formula(rng, name, names, atoms, depth=3, qdepth=2)
        else:
            f = gen_qf_formula(rng, name, names, atoms, depth=3)
        for g in subformulas(f):
            lit = g.body if isinstance(g, Not) else g
            if isinstance(lit, Rel):
                literals.add((g is lit, lit.name))
        for values in itertools.product(exhaustive_pool(name, set(atoms), 1), repeat=2):
            val = dict(zip(names, values))
            got = b.sat(f, val)
            assert got == reference_sat(b, f, val), (name, f, val)
            verdicts[got] += 1
    assert _FOLDED_LITERAL[name] in literals
    assert min(verdicts.values()) >= 100, verdicts


def _outcome(call):
    """What call() returns, or the type and message of the valuation or
    vocabulary error it raises."""
    try:
        return call()
    except (ValuationError, VocabularyError) as ex:
        return type(ex), str(ex)


@pytest.mark.parametrize("name", ["equality", "dlo", "cyclic"])
def test_sat_on_raw_atoms_matches_the_const_folding_evaluator(name):
    # sat compares the valuation's atoms by GROUND; the reference makes each
    # a Const and folds every literal by normalize_literal.  The valuations
    # mix the formula's parameter atoms with others; a missing variable, an
    # atom of another backend and a literal off the vocabulary raise the
    # same errors on both
    rng = random.Random(71)
    b, ref = get_backend(name), get_backend(name)
    names = ["x", "y", "z"]
    foreign = {"equality": Fraction(1, 2), "dlo": 3, "cyclic": 3}[name]
    off_vocabulary = [Rel("S", (Var("x"), Var("y"))), Rel("=", (Var("x"),))]
    if name == "equality":
        off_vocabulary.append(Rel("<", (Var("x"), Var("y"))))
    outcomes = Counter()
    for i in range(80):
        atoms = sample_atoms(rng, name, 3)
        f = gen_qf_formula(rng, name, names, atoms, depth=3)
        pool = atoms + sample_atoms(rng, name, 2)
        val = {v: rng.choice(pool) for v in names}
        dropped = {v: a for v, a in val.items() if v != min(free_vars(f), default=None)}
        cases = [(f, val), (f, dropped), (f, {**val, "y": foreign})]
        cases.append((land(f, off_vocabulary[i % len(off_vocabulary)]), val))
        for g, at in cases:
            got = _outcome(lambda: b.sat(g, at))
            assert got == _outcome(lambda: const_folding_sat(ref, g, at)), (name, g, at)
            outcomes[got if isinstance(got, bool) else got[0]] += 1
    assert min(outcomes[True], outcomes[False]) >= 20, outcomes
    assert outcomes[ValuationError] >= 40 and outcomes[VocabularyError] >= 100, outcomes


def _folded_literal(name, terms) -> Formula:
    """The literal of `_FOLDED_LITERAL` over `terms`, before normalization."""
    positive, rel = _FOLDED_LITERAL[name]
    lit = Rel(rel, tuple(terms[: 3 if rel == "R" else 2]))
    return lit if positive else lnot(lit)


@pytest.mark.parametrize("name", ["equality", "dlo", "cyclic"])
def test_resubmitted_outputs_eliminate_as_on_a_fresh_backend(name):
    # an output of eliminate is known normal and comes back unchanged; in a
    # formula with raw literals, under a quantifier or negated, it gives
    # what a backend that never saw it gives
    rng = random.Random(47)
    b = get_backend(name)
    names = ["x", "y", "z"]
    for _ in range(60):
        atoms = sample_atoms(rng, name, 2)
        out = b.eliminate(gen_formula(rng, name, names, atoms, depth=3, qdepth=2))
        assert out in b._normal and b._nf(out) is out and b.eliminate(out) is out
        raw = _folded_literal(name, [Var(rng.choice(names)) for _ in range(2)] + [Const(atoms[0])])
        for f in (out, land(out, raw), Exists("x", lor(raw, out)), Forall("y", lnot(out))):
            fresh = get_backend(name)
            assert b.eliminate(f) == fresh.eliminate(f), (name, f)
            assert b.qe(f) == fresh.qe(f), (name, f)


@pytest.mark.parametrize("name", ["equality", "dlo", "cyclic"])
def test_known_normal_formulas_are_each_held_by_a_cache(name):
    # `_normal` keeps no formula alive that the question did not make: after
    # compiles, membership and subset questions and `holds` calls, every
    # member is, as an object, an elimination of the QE memo, an inclusion
    # of the compiler's memo, or a membership compiled in the block
    rng = random.Random(53)
    comp = Compiler(get_backend(name))
    b = comp.backend
    members = []
    member = comp.member
    comp.member = lambda x, s: members.append(member(x, s)) or members[-1]
    with comp:
        for _ in range(20):
            params = sample_atoms(rng, name, 2)
            e1, e2 = (gen_set_expr(rng, name, params, max_binders=2, depth=2) for _ in range(2))
            set_equal(comp, e1, e2)
            is_subset(comp, e2, e1)
            least_support(comp, e1)
            comp.holds(gen_formula(rng, name, [], params, depth=3, qdepth=2))
        held = {id(q) for q, _ in b._qe_cache.values()}
        assert held and len(b._normal) > len(held)
        held |= {id(v) for v in comp._sub_cache.values()}
        # memberships compile on each call, and no memo holds them
        assert members and any(id(f) not in held for f in b._normal)
        held |= set(map(id, members))
        assert all(id(f) in held for f in b._normal)
    # and the question's end empties them together
    assert not b._normal and not b._qe_cache and not comp._sub_cache


@pytest.mark.parametrize("name", ["equality", "dlo", "cyclic"])
def test_conjuncts_match_the_union_then_check_reference(name):
    # the DNF of normalized random formulas, R unfolded, equals the
    # union-then-check reference as a set of literal sets (the fold takes the
    # arguments fewest branches first, the reference in their order), and
    # every union of a kept literal set with a branch gets the verdict of
    # the reference kernel
    rng = random.Random(23)
    b = get_backend(name)
    names = ["u", "v", "w", "x"]
    verdicts = {True: 0, False: 0}
    # absorption leaves fewer kept sets to extend, so more formulas are
    # drawn to reach 100 verdicts of each kind
    for _ in range(300):
        atoms = sample_atoms(rng, name, 3)
        f = b._unfold(land(
            b.qe(gen_qf_formula(rng, name, names, atoms, depth=3)),
            b.qe(gen_formula(rng, name, names[:3], atoms, depth=3, qdepth=1)),
        ))
        pairs = []
        got, want = b.conjuncts(f), reference_conjuncts(f, pairs)
        assert len(got) == len(set(got)) and set(got) == set(want), (name, f)
        for c, br in pairs:
            ok = scratch_consistent(c | br)
            assert consistent(c | br) == ok, (name, c, br)
            verdicts[ok] += 1
    assert min(verdicts.values()) >= 100, verdicts


@pytest.mark.parametrize("name", ["equality", "dlo", "cyclic"])
def test_absorbed_dnf_agrees_with_the_unabsorbed_one(name):
    # conjuncts keeps no literal set inside another, keeps exactly the
    # minimal sets of the union-then-check DNF without absorption, and the
    # two agree as disjunctions on a pool sweep (R unfolded, as the
    # reference reads only =, != and <)
    rng = random.Random(29)
    b = get_backend(name)
    names = ["x", "y", "z"]
    fired = 0
    for _ in range(60):
        atoms = sample_atoms(rng, name, 2)
        p, q, r = (
            b._unfold(b.qe(gen_qf_formula(rng, name, names, atoms, depth=3))) for _ in range(3)
        )
        # q or (q and r) gives absorption something to drop
        f = land(p, lor(q, land(q, r)) if rng.random() < 0.5 else q)
        got = b.conjuncts(f)
        assert not any(d < c for c in got for d in got), (name, f)
        full = reference_conjuncts(f, absorb=False)
        assert set(got) == {c for c in full if not any(d < c for d in full)}, (name, f)
        fired += len(got) < len(full)
        lits = frozenset().union(*full)
        pool = exhaustive_pool(name, set(atoms), 1)
        for values in itertools.product(pool, repeat=len(names)):
            val = dict(zip(names, values))
            true = {l for l in lits if eval_formula(name, l, val)}
            assert any(c <= true for c in got) == any(c <= true for c in full), (name, f, val)
    assert fired >= 10, fired


@pytest.mark.parametrize("name", ["equality", "dlo", "cyclic"])
def test_qe_agrees_with_evaluation_where_absorption_fires(name, monkeypatch):
    # open formulas whose elimination drops an absorbed literal set
    fired = []

    def counting(sets):
        out = minimal(sets)
        fired.append(len(out) < len(sets))
        return out

    minimal = base._minimal
    monkeypatch.setattr(base, "_minimal", counting)
    rng = random.Random(31)
    b = get_backend(name)
    checked = 0
    for _ in range(200):
        atoms = sample_atoms(rng, name, 2)
        p, q, r = (gen_formula(rng, name, ["u", "v", "w"], atoms, depth=3, qdepth=1) for _ in range(3))
        f = Exists("w", land(p, lor(q, land(q, r))))
        fired.clear()
        out = b.eliminate(f)
        if not any(fired):
            continue
        pool = exhaustive_pool(name, set(atoms), 1)
        for vu, vv in itertools.product(pool, repeat=2):
            val = {"u": vu, "v": vv}
            assert eval_formula(name, f, val) == eval_formula(name, out, val), (name, f, out, val)
        checked += 1
        if checked == 10:
            break
    assert checked >= 1, checked


def _closed_sentence(rng, name, atoms):
    """A closed quantifier block over random output: the closure of a
    `gen_formula` formula, a forall-exists or exists-forall alternation over
    a quantifier-free matrix, or a closure of two or three variable-disjoint
    parts."""
    roll = rng.random()
    kind = rng.choice((Exists, Forall))
    if roll < 0.3:
        f = gen_formula(rng, name, ["u", "v"], atoms, depth=3, qdepth=2)
        return quantify(kind, sorted(free_vars(f)), f)
    if roll < 0.6:
        m = gen_qf_formula(rng, name, ["x", "y", "z"], atoms, depth=3)
        names = sorted(free_vars(m))
        k = rng.randrange(len(names) + 1)
        other = Forall if kind is Exists else Exists
        return quantify(kind, names[:k], quantify(other, names[k:], m))
    # only a conjunction under Exists and a disjunction under Forall reach
    # the component split, where one contradictory (resp. tautological)
    # part decides the whole block
    op = land if (kind is Exists) == (rng.random() < 0.8) else lor
    parts = []
    for names in rng.sample((["x", "y"], ["z"], ["w"]), rng.choice((2, 3))):
        p = gen_qf_formula(rng, name, names, atoms, depth=2)
        parts.append(op(p, lnot(p)) if rng.random() < 0.3 else p)
    m = op(*parts)
    return quantify(kind, sorted(free_vars(m)), m)


@pytest.mark.parametrize("name", ["equality", "dlo", "cyclic"])
def test_closed_blocks_match_binder_by_binder_elimination(name):
    # qe decides a closed chain of like quantifiers by one DNF search over
    # variable-disjoint components; the sentence's truth must match the
    # binder-by-binder reference, and every eliminated open formula must be
    # equivalent to the reference's, which negates twice per universal where
    # qe negates once per run of them
    rng = random.Random(31)
    b = get_backend(name)
    verdicts = {True: 0, False: 0}
    for _ in range(150):
        atoms = sample_atoms(rng, name, 2)
        s = _closed_sentence(rng, name, atoms)
        assert not free_vars(s)
        got = b.qe(s)
        assert got == reference_qe(b, s), (name, s)
        truth = eval_formula(name, s, {})
        assert got == (TRUE if truth else FALSE), (name, s, got)
        verdicts[truth] += 1
        f = gen_formula(rng, name, ["u", "v"], atoms, depth=3, qdepth=2)
        got, want = b.qe(f), reference_qe(b, f)
        both = quantify(Forall, ["u", "v"], land(Implies(got, want), Implies(want, got)))
        assert eval_formula(name, both, {}), (name, f, got, want)
    assert min(verdicts.values()) >= 40, verdicts


def test_types_with_reps_counts_match_rn():
    for name in backend_names():
        b = get_backend(name)
        for n in range(4):
            variables = tuple(f"v{i}" for i in range(n))
            types = types_with_reps(b, variables, frozenset())
            assert len(types) == b.rn_count(n)


def test_types_with_reps_counts_match_orbits_over_params():
    for name in backend_names():
        b = get_backend(name)
        atoms = sample_atoms(random.Random(11), name, 2)
        for k in range(3):
            params = frozenset(atoms[:k])
            for n in range(4):
                variables = tuple(f"v{i}" for i in range(n))
                types = types_with_reps(b, variables, params)
                assert len(types) == count_tuple_orbits(name, n, params), (name, n, k)


# sha256 of the enumeration below, pinned so that a change to the order or
# the representatives of types_with_reps shows; orbit_decomposition promises
# a deterministic order, and search witnesses follow it
TYPE_ORDER_DIGESTS = {
    "equality": "1e52349da24e066cdbd1baff8d24562ea7a1b39e8c1b97fe7e146233daff3611",
    "dlo": "285015c8f73a1a4513cb772395074280484f1ccd895f08031f5ed39ea40f6c67",
    "cyclic": "5b5cd1a2d2ca384e7f989c44f56d7d50683334a3a2b416437ad44fbd0c7143ff",
}


def test_types_with_reps_order_is_pinned():
    pools = {
        "equality": [0, 1, 4],
        "dlo": [Fraction(-1), Fraction(1, 2), Fraction(3)],
        "cyclic": [Fraction(-1), Fraction(1, 2), Fraction(3)],
    }
    for name, pool in pools.items():
        b = get_backend(name)
        out = []
        for n in range(4):
            variables = tuple(f"v{i}" for i in range(n))
            for k in range(3):
                for params in itertools.combinations(pool, k):
                    types = types_with_reps(b, variables, frozenset(params))
                    out.append([(t.formula.key, t.rep) for t in types])
        digest = hashlib.sha256(repr(out).encode()).hexdigest()
        assert digest == TYPE_ORDER_DIGESTS[name], name


def test_pinned_reps_are_the_pinned_type_reps_in_order():
    # a row whose values all lie among the parameters pins every block, as
    # free blocks take values outside them
    for name in backend_names():
        b = get_backend(name)
        pool = sample_atoms(random.Random(12), name, 4)
        for n in range(5):
            variables = tuple(f"v{i}" for i in range(n))
            for k in range(5):
                params = frozenset(pool[:k])
                want = [r for r in b.type_reps(variables, params) if params.issuperset(r)]
                assert list(base.pinned_reps(variables, params)) == want, (name, n, k)


def test_rn_counts_match_bruteforce():
    for name in backend_names():
        b = get_backend(name)
        for n in range(5):
            assert b.rn_count(n) == count_tuple_orbits(name, n)


def test_types_partition_realizations():
    # every tuple satisfies exactly one complete type over the parameters
    for name in backend_names():
        b = get_backend(name)
        atoms = sample_atoms(random.Random(5), name, 3)
        params = frozenset(atoms[:1])
        types = types_with_reps(b, ("x", "y"), params)
        pool = exhaustive_pool(name, params, 1)
        for vx in pool:
            for vy in pool:
                sats = [
                    t
                    for t in types
                    if b.sat(t.formula, {"x": vx, "y": vy})
                ]
                assert len(sats) == 1


def test_type_of_agrees_with_enumeration():
    for name in backend_names():
        b = get_backend(name)
        params = frozenset(sample_atoms(random.Random(7), name, 2))
        pool = exhaustive_pool(name, params, 1)
        types = types_with_reps(b, ("x", "y"), params)
        for vx in pool[:4]:
            for vy in pool[:4]:
                f = b.type_of(("x", "y"), (vx, vy), params)
                assert b.sat(f, {"x": vx, "y": vy})
                # f must agree with exactly one complete type, semantically
                matching = [t for t in types if b.sat(f, t.rep_valuation())]
                assert len(matching) == 1
                t = matching[0]
                assert b.sat(t.formula, {"x": vx, "y": vy})


def test_type_of_empty_tuple():
    b = get_backend("equality")
    f = b.type_of((), (), frozenset())
    assert b.holds(f)


def test_partial_automorphism_checks():
    assert is_partial_automorphism("equality", {1: 5, 2: 2})
    assert not is_partial_automorphism("equality", {1: 5, 2: 5})
    good = {Fraction(0): Fraction(10), Fraction(1): Fraction(12)}
    bad = {Fraction(0): Fraction(12), Fraction(1): Fraction(10)}
    assert is_partial_automorphism("dlo", good)
    assert not is_partial_automorphism("dlo", bad)
    rot = {Fraction(0): Fraction(1), Fraction(1): Fraction(2), Fraction(2): Fraction(0)}
    flip = {Fraction(0): Fraction(0), Fraction(1): Fraction(2), Fraction(2): Fraction(1)}
    assert is_partial_automorphism("cyclic", rot)
    assert not is_partial_automorphism("cyclic", flip)


def test_extend_automorphism_covers_new_atoms():
    rng = random.Random(11)
    for name in backend_names():
        for _ in range(25):
            base = sample_atoms(rng, name, 3)
            imgs = sample_atoms(rng, name, 3)
            mapping = dict(zip(sorted(base), sorted(imgs)))
            if not is_partial_automorphism(name, mapping):
                continue
            extra = sample_atoms(rng, name, 2)
            out = extend_automorphism(name, mapping, extra)
            assert set(out) >= set(mapping) | set(extra)
            assert all(out[k] == v for k, v in mapping.items())
            assert is_partial_automorphism(name, out)


def test_cyclic_independence_formula_raises_denseness_error():
    cy = get_backend("cyclic")
    with pytest.raises(DensenessError):
        cy.independence_formula("x", frozenset(), frozenset())


def test_independence_formula_pins_region():
    dlo = get_backend("dlo")
    avoid = frozenset({Fraction(0), Fraction(1)})
    f = dlo.independence_formula("x", avoid, frozenset())
    w = dlo.find_witness(f)
    assert w is not None and w["x"] not in avoid


def test_qe_soundness_sample():
    rng = random.Random(2024)
    for name in backend_names():
        b = get_backend(name)
        checked = 0
        while checked < 120:
            atoms = sample_atoms(rng, name, 2)
            f = gen_formula(rng, name, ["u", "v"], atoms, depth=3, qdepth=2)
            q = b.qe(f)
            assert quantifier_depth(q) == 0
            assert free_vars(q) <= free_vars(f) | {"u", "v"}
            base = exhaustive_pool(name, set(atoms), 0)
            for vu in base[:3]:
                for vv in base[-3:]:
                    val = {"u": vu, "v": vv}
                    want = eval_formula(name, f, val)
                    got = eval_formula(name, q, val)
                    assert want == got, (name, f, q, val)
            checked += 1
