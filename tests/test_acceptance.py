"""End-to-end acceptance checks with pinned time limits.

Each test covers one required behavior and prints a single verdict line, so
a verbose run of this module reads as a checklist.  Time limits are part of
the contract: a slow pass is a fail.
"""

import random
import time
from fractions import Fraction

from atomiso import (
    FOUND,
    NOT_FOUND,
    DefFunction,
    ResourceError,
    act,
    check_isomorphism,
    decide_definable_iso,
    eliminate_parameters,
    expr_params,
    find_definable_map,
    fn_apply,
    get_backend,
    least_support,
    orbit_decomposition,
    parse,
    set_equal,
    sets_disjoint,
    union_of,
)
from atomiso.exprs import AtomParam, ETuple, EVar, SetComp, Union
from atomiso.fixtures import fixture_documents
from atomiso.structures import function_from_dict, structure_from_dict
from atomiso.theories import backend_names
from atomiso.theories.formulas import TRUE, Const, Var, eq, free_vars, land, lnot

from fixtures_helpers import circle_pair, kneser_pair, nondefiso_pair
from generators import (
    equivalent_variant,
    gen_automorphism,
    gen_formula,
    gen_set_expr,
    gen_structure_pair,
    sample_atoms,
)
from oracles import (
    count_tuple_orbits,
    enum_value,
    eval_formula,
    exhaustive_pool,
    naive_find_iso,
    quantifier_depth,
)


def run_criterion(capsys, number, name, limit, body):
    t0 = time.monotonic()
    ok, detail = body()
    dt = time.monotonic() - t0
    status = "PASS" if ok and dt <= limit else "FAIL"
    with capsys.disabled():
        print(f"\n[criterion {number}] {name}: {status} ({dt:.2f}s, limit {limit}s) {detail}")
    assert ok, detail
    assert dt <= limit, f"took {dt:.2f}s, limit is {limit}s"


def test_01_pairs_vs_atoms_has_no_definable_iso(eq_comp, capsys):
    def body():
        A, B = nondefiso_pair()
        cert = decide_definable_iso(eq_comp, A, B)
        ok = cert.verdict == NOT_FOUND and cert.witness is None and cert.caveat is None
        return ok, f"verdict={cert.verdict}"

    run_criterion(capsys, 1, "pair set admits no definable bijection with the atoms", 10, body)


def test_02_marked_point_map_smooths_to_parameter_free(eq_comp, capsys):
    def body():
        docs = fixture_documents("smoothing")
        A = structure_from_dict(docs["a"])
        B = structure_from_dict(docs["b"])
        _, fn = function_from_dict(docs["map"])
        h, report = eliminate_parameters(eq_comp, fn, A, B)
        checks = [
            expr_params(h.graph) == frozenset(),
            check_isomorphism(eq_comp, h, A, B),
        ]
        cert = decide_definable_iso(eq_comp, A, B)
        checks += [cert.verdict == FOUND, cert.params == ()]
        return all(checks), f"steps={len(report.steps)} verdict={cert.verdict}"

    run_criterion(capsys, 2, "marked-point map rebuilt without its parameter", 30, body)


def test_03_circle_rotation_needs_an_anchor(cyc_comp, capsys, tmp_path):
    def body():
        import json

        from atomiso.cli import main as cli_main

        cli_main(["fixture", "circle", "--emit", str(tmp_path)])
        capsys.readouterr()
        a = str(tmp_path / "circle.a.json")
        b = str(tmp_path / "circle.b.json")
        bare_code = cli_main(["iso", a, b, "--params", ""])
        bare_out = capsys.readouterr().out
        ok = bare_code == 4 and "NOT_FOUND_INCOMPLETE" in bare_out
        anch_code = cli_main(["--json", "iso", a, b, "--params", "0"])
        doc = json.loads(capsys.readouterr().out)
        ok = ok and anch_code == 0 and doc["verdict"] == FOUND
        _, w = function_from_dict(doc["witness"])
        A, B = circle_pair()
        ok = ok and expr_params(w.graph) <= frozenset({Fraction(0)})
        ok = ok and check_isomorphism(cyc_comp, w, A, B)
        return ok, f"bare exit={bare_code} anchored={doc['verdict']}"

    run_criterion(capsys, 3, "circle isomorphism found once an anchor atom is allowed", 60, body)


def test_04_pair_structure_witnessed_by_identity(eq_comp, capsys):
    def body():
        A, B = kneser_pair()
        cert = decide_definable_iso(eq_comp, A, B)
        ident = parse("{({a,b},{a,b}) | a,b in atoms, a != b}")
        ok = cert.verdict == FOUND
        ok = ok and set_equal(eq_comp, cert.witness.graph, ident)
        idfn = DefFunction(A.universe, B.universe, ident)
        ok = ok and check_isomorphism(eq_comp, idfn, A, B)
        return ok, f"verdict={cert.verdict}"

    run_criterion(capsys, 4, "disjointness structure maps to itself by the identity", 10, body)


def test_05_orbit_counts_match_enumeration(capsys):
    def body():
        want = {"equality": [1, 1, 2, 5, 15], "dlo": [1, 1, 3, 13, 75]}
        parts = []
        ok = True
        for name, expect in want.items():
            got = [get_backend(name).rn_count(n) for n in range(5)]
            brute = [count_tuple_orbits(name, n) for n in range(5)]
            ok = ok and got == expect == brute
            parts.append(f"{name}={got}")
        return ok, " ".join(parts)

    run_criterion(capsys, 5, "tuple orbit counts match exhaustive enumeration", 5, body)


def test_06_set_equality_matches_finite_enumeration(comp_for, capsys):
    def body():
        rng = random.Random(60)
        pairs = 0
        agreements = 0
        for name in backend_names():
            comp = comp_for(name)
            for _ in range(180):
                params = sample_atoms(rng, name, 2)
                e1 = gen_set_expr(rng, name, params, max_binders=3, depth=2)
                if rng.random() < 0.5:
                    e2 = equivalent_variant(rng, name, e1, params)
                else:
                    e2 = gen_set_expr(rng, name, params, max_binders=3, depth=2)
                atoms = set(params) | set(expr_params(e1)) | set(expr_params(e2))
                pool = exhaustive_pool(name, atoms, 2)
                want = enum_value(e1, {}, name, pool) == enum_value(e2, {}, name, pool)
                got = set_equal(comp, e1, e2)
                pairs += 1
                agreements += want == got
        return agreements == pairs >= 500, f"{agreements}/{pairs} agreements"

    run_criterion(capsys, 6, "declared set equality agrees with pool enumeration", 120, body)


def test_07_piece_search_agrees_with_union_search(eq_comp, capsys):
    def body():
        rng = random.Random(7)
        done = 0
        agreements = 0
        while done < 50:
            A, B = gen_structure_pair(rng)
            try:
                ref = naive_find_iso(eq_comp, A, B, frozenset(), max_orbits=4)
            except ResourceError:
                continue  # pair product too coarse for the reference search
            got = find_definable_map(eq_comp, A, B, frozenset())
            done += 1
            agreements += ref.verdict == got.verdict
        return agreements == done, f"{agreements}/{done} agreements"

    run_criterion(capsys, 7, "piece search matches the exhaustive union-of-orbits search", 120, body)


def _singleton(x):
    return Union((SetComp(x, (), TRUE),))


def _function_family(name, p, q):
    """Small stock of total definable maps on the atoms, with parameters."""
    ident = parse("{(a, a) | a in atoms}")
    squash = Union((SetComp(ETuple((EVar("a"), AtomParam(p))), ("a",), TRUE),))
    guard = land(lnot(eq(Var("a"), Const(p))), lnot(eq(Var("a"), Const(q))))
    swap = Union(
        (
            SetComp(ETuple((AtomParam(p), AtomParam(q))), (), TRUE),
            SetComp(ETuple((AtomParam(q), AtomParam(p))), (), TRUE),
            SetComp(ETuple((EVar("a"), EVar("a"))), ("a",), guard),
        )
    )
    pair_cod = Union((SetComp(ETuple((EVar("a"), AtomParam(p))), ("a",), TRUE),))
    pairing = Union(
        (SetComp(ETuple((EVar("a"), ETuple((EVar("a"), AtomParam(p))))), ("a",), TRUE),)
    )
    u = parse("atoms")
    return [
        DefFunction(u, u, ident),
        DefFunction(u, u, squash),
        DefFunction(u, u, swap),
        DefFunction(u, pair_cod, pairing),
    ]


def test_08_invariant_suites(comp_for, capsys):
    def body():
        rng = random.Random(8)
        counts = {}
        bad = []
        dense = ("equality", "dlo")

        # support transforms along with the atoms
        n = 0
        for _ in range(200):
            name = rng.choice(dense)
            comp = comp_for(name)
            params = sample_atoms(rng, name, 2)
            e = gen_set_expr(rng, name, params, max_binders=2, depth=1)
            s = least_support(comp, e)
            carrier = set(params) | s
            pi = gen_automorphism(rng, name, carrier)
            if least_support(comp, act(pi, e)) != frozenset(pi[a] for a in s):
                bad.append(("support", name, e))
            n += 1
        counts["support"] = n

        # orbit representatives keep their support size when moved
        n = 0
        while n < 200:
            name = rng.choice(dense)
            comp = comp_for(name)
            params = sample_atoms(rng, name, 2)
            e = gen_set_expr(rng, name, params, max_binders=2, depth=1)
            s = expr_params(e)
            for orb in orbit_decomposition(comp, e, s):
                rep = orb.rep_element()
                dim = len(least_support(comp, rep))
                carrier = set(s) | set(least_support(comp, rep))
                pi = gen_automorphism(rng, name, carrier, fixing=frozenset(s))
                if len(least_support(comp, act(pi, rep))) != dim:
                    bad.append(("dimension", name, rep))
                n += 1
        counts["dimension"] = n

        # applying a map never invents support
        n = 0
        for _ in range(200):
            name = rng.choice(dense)
            comp = comp_for(name)
            p, q, x = sample_atoms(rng, name, 3)
            fn = rng.choice(_function_family(name, p, q))
            y = fn_apply(comp, fn, AtomParam(x))
            lhs = least_support(comp, y)
            rhs = least_support(comp, fn.graph) | {x}
            if not lhs <= rhs:
                bad.append(("application-support", name, fn.graph, x))
            n += 1
        counts["application-support"] = n

        # maps commute with automorphisms fixing their parameters
        n = 0
        for _ in range(200):
            name = rng.choice(dense)
            comp = comp_for(name)
            p, q, x, extra = sample_atoms(rng, name, 4)
            fn = rng.choice(_function_family(name, p, q))
            s = least_support(comp, fn.graph)
            carrier = s | {x, extra}
            pi = gen_automorphism(rng, name, carrier, fixing=s)
            lhs = fn_apply(comp, fn, act(pi, AtomParam(x)))
            rhs = act(pi, fn_apply(comp, fn, AtomParam(x)))
            if lhs != rhs and not set_equal(comp, _singleton(lhs), _singleton(rhs)):
                bad.append(("equivariance", name, fn.graph, x))
            n += 1
        counts["equivariance"] = n

        # orbits partition the set and are setwise fixed
        n = 0
        for _ in range(200):
            name = rng.choice(dense)
            comp = comp_for(name)
            params = sample_atoms(rng, name, 2)
            e = gen_set_expr(rng, name, params, max_binders=2, depth=1)
            s = expr_params(e)
            orbs = orbit_decomposition(comp, e, s)
            pieces = [o.piece() for o in orbs]
            if not set_equal(comp, union_of(*pieces) if pieces else parse("{a | a in atoms, a != a}"), e):
                bad.append(("partition-union", name, e))
            for i in range(len(pieces)):
                for j in range(i + 1, len(pieces)):
                    if not sets_disjoint(comp, pieces[i], pieces[j]):
                        bad.append(("partition-disjoint", name, e))
            if pieces:
                carrier = set(s) | set().union(*(expr_params(p_) for p_ in pieces))
                pi = gen_automorphism(rng, name, carrier, fixing=frozenset(s))
                k = rng.randrange(len(pieces))
                if not set_equal(comp, act(pi, pieces[k]), pieces[k]):
                    bad.append(("partition-invariance", name, e))
            n += 1
        counts["partition"] = n

        ok = not bad and all(v >= 200 for v in counts.values())
        sizes = " ".join(f"{k}={v}" for k, v in counts.items())
        return ok, f"{sizes} violations={len(bad)}" + (f" first={bad[0]}" if bad else "")

    run_criterion(capsys, 8, "support, dimension, equivariance, and partition invariants", 300, body)


def test_09_elimination_agrees_with_direct_evaluation(capsys):
    def body():
        rng = random.Random(9)
        total = 0
        disagreements = 0
        for name in backend_names():
            b = get_backend(name)
            done = 0
            while done < 1000:
                atoms = sample_atoms(rng, name, 2)
                f = gen_formula(rng, name, ["u", "v"], atoms, depth=3, qdepth=2)
                q = b.qe(f)
                if quantifier_depth(q) != 0 or not free_vars(q) <= free_vars(f) | {"u", "v"}:
                    disagreements += 1
                    done += 1
                    continue
                base = exhaustive_pool(name, set(atoms), 0)
                for vu in base[:2]:
                    for vv in base[-2:]:
                        val = {"u": vu, "v": vv}
                        if eval_formula(name, f, val) != eval_formula(name, q, val):
                            disagreements += 1
                done += 1
            total += done
        return disagreements == 0 and total >= 3000, f"{total} formulas, {disagreements} disagreements"

    run_criterion(capsys, 9, "eliminated formulas agree with direct evaluation", 120, body)
