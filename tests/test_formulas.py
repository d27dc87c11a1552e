"""Formula-layer contract: cached keys and hashes, equality by key, interned
terms, pickling across processes, and the node-keyed QE cache against the
uncached path."""

import copy
import dataclasses
import gc
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import atomiso
from atomiso.algebra import least_support, set_equal
from atomiso.compile import Compiler
from atomiso.exprs import _CLOSED, AtomParam, ETuple, EVar, expr_names
from atomiso.theories import formulas as formulas_module
from atomiso.parser import parse
from atomiso.theories import get_backend
from atomiso.theories.formulas import (
    And,
    Bot,
    Const,
    Exists,
    Forall,
    Implies,
    Not,
    Or,
    Rel,
    Top,
    Var,
    land,
    lnot,
    lor,
    subst,
)
from generators import gen_formula, sample_atoms
from oracles import nnf, reference_nf

BACKENDS = ("equality", "dlo", "cyclic")
NAMES = ["x", "y"]


def reference_key(n) -> tuple:
    """The structural key, recomputed from scratch by recursion."""
    if isinstance(n, Var):
        return ("v", n.name)
    if isinstance(n, Const):
        return ("c", n.value)
    if isinstance(n, Top):
        return ("1",)
    if isinstance(n, Bot):
        return ("0",)
    if isinstance(n, Rel):
        return ("r", n.name) + tuple(reference_key(a) for a in n.args)
    if isinstance(n, Not):
        return ("n", reference_key(n.body))
    if isinstance(n, And):
        return ("a",) + tuple(reference_key(g) for g in n.args)
    if isinstance(n, Or):
        return ("o",) + tuple(reference_key(g) for g in n.args)
    if isinstance(n, Implies):
        return ("i", reference_key(n.premise), reference_key(n.conclusion))
    if isinstance(n, Exists):
        return ("e", n.var, reference_key(n.body))
    if isinstance(n, Forall):
        return ("f", n.var, reference_key(n.body))
    raise TypeError(n)


def subnodes(n):
    yield n
    if isinstance(n, Rel):
        yield from n.args
    elif isinstance(n, (And, Or)):
        for g in n.args:
            yield from subnodes(g)
    elif isinstance(n, Implies):
        yield from subnodes(n.premise)
        yield from subnodes(n.conclusion)
    elif isinstance(n, (Not, Exists, Forall)):
        yield from subnodes(n.body)


def formulas(name: str, seed: int, count: int):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        atoms = sample_atoms(rng, name, 2)
        out.append(gen_formula(rng, name, list(NAMES), atoms))
    return out


@pytest.mark.parametrize("name", BACKENDS)
def test_cached_key_matches_recomputation(name):
    for f in formulas(name, 11, 150):
        for n in subnodes(f):
            assert n.key == reference_key(n)
            if isinstance(n, (And, Or)):
                keys = [reference_key(g) for g in n.args]
                assert keys == sorted(keys) and len(set(keys)) == len(keys)


def _same(a, b) -> None:
    assert a == b and not (a != b)
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert {a: 1}[b] == 1


@pytest.mark.parametrize("name", BACKENDS)
def test_different_paths_build_equal_nodes(name):
    rng = random.Random(12)
    fs = formulas(name, 12, 120)
    for i in range(0, len(fs) - 2, 3):
        parts = fs[i : i + 3]
        shuffled = rng.sample(parts, len(parts))
        _same(land(*parts), land(*shuffled))
        _same(lor(*parts), lor(*shuffled))
        _same(land(parts[0], land(parts[1], parts[2])), land(land(*shuffled), parts[0]))
    for f in fs:
        there = subst(f, {Var("x"): Var("t")})
        back = subst(there, {Var("t"): Var("x")})
        _same(back, f)
        once = nnf(f)
        _same(nnf(once), once)


def test_nodes_with_overlapping_payloads_differ():
    for p in ("x", 1, Fraction(1, 2)):
        s = str(p)
        nodes = [
            Var(s),
            Const(p),
            Rel(s, ()),
            Not(Rel(s, ())),
            Rel(s, (Var(s),)),
            Rel(s, (Const(p),)),
            Not(Rel(s, (Var(s),))),
            Not(Rel(s, (Const(p),))),
        ]
        for i, a in enumerate(nodes):
            assert a != a.key
            for b in nodes[i + 1 :]:
                assert a != b and a.key != b.key
        assert len(set(nodes)) == len(nodes)
    # an int and an equal Fraction name the same atom, as before
    _same(Const(1), Const(Fraction(1)))


def test_terms_are_interned():
    assert Var("x") is Var("x")
    assert Const(Fraction(1, 2)) is Const(Fraction(1, 2))
    assert Const(3) is Const(3)
    # the table is keyed by the atom's type too: an int and an equal
    # Fraction are two nodes, still equal with equal hashes
    assert Const(1) is not Const(Fraction(1))
    _same(Const(1), Const(Fraction(1)))
    assert type(Const(1).value) is int
    assert type(Const(Fraction(1)).value) is Fraction
    assert Var("x") is not Var("y") and Var("x") != Var("y")


def test_an_interned_term_keeps_its_face():
    x, half = Var("x"), Const(Fraction(1, 2))
    for t in (x, half, Const(7)):
        assert pickle.loads(pickle.dumps(t)) is t
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t
        assert t.key == reference_key(t)
    assert repr(x) == "Var(name='x')"
    assert repr(half) == "Const(value=Fraction(1, 2))"
    with pytest.raises(dataclasses.FrozenInstanceError):
        x.name = "y"
    with pytest.raises(dataclasses.FrozenInstanceError):
        half.value = 1
    # a formula's cached hash reads its terms' cached hashes, not their
    # identities
    assert hash(Rel("<", (x, half))) == hash(("r", "<", x._hash, half._hash))


def test_a_term_nothing_holds_leaves_its_table():
    for kind, table, payload, token in (
        (Var, formulas_module._VARS, "gone_after_collect", "gone_after_collect"),
        (Const, formulas_module._CONSTS, Fraction(7919, 13), (Fraction, Fraction(7919, 13))),
    ):
        t = kind(payload)
        assert table[token] is t
        del t
        gc.collect()
        assert token not in table


def test_expression_name_sets_are_shared():
    x = EVar("x")
    assert expr_names(ETuple((x, x))) is expr_names(x) == {"x"}
    assert expr_names(ETuple((AtomParam(1), AtomParam(2)))) is _CLOSED
    assert expr_names(AtomParam(1)) is _CLOSED


_BUILD = """
from fractions import Fraction as F
from atomiso.theories.formulas import Const, Exists, Forall, Rel, Var, land, lnot, lor

x, y = Var("x"), Var("y")
f = lor(
    land(Rel("<", (x, Const(F(1, 3)))), lnot(Rel("=", (x, y)))),
    Exists("z", land(Rel("<=", (Var("z"), y)), Rel("R", (x, Var("z"), Const(F(-2)))))),
    Forall("w", lnot(Rel("=", (Var("w"), Const(7))))),
)
"""


def _run_under_another_hash_seed(script: str, stdin: str = "") -> str:
    """The stdout of `script`, run after `_BUILD` and imports of pickle and
    sys in a child process whose string hashes differ from this one's."""
    env = dict(os.environ)
    src = str(Path(atomiso.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = _BUILD + "import pickle, sys\n" + script
    script += "sys.stdout.write(' ' + str(hash('x')))\n"
    for seed in ("1", "2"):
        env["PYTHONHASHSEED"] = seed
        out = subprocess.run(
            [sys.executable, "-c", script],
            input=stdin,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        ).stdout
        data, their_str_hash = out.rsplit(" ", 1)
        if int(their_str_hash) != hash("x"):
            return data
    raise AssertionError("string hashes did not differ")


def test_pickled_node_is_rehashed_in_a_new_process():
    data = _run_under_another_hash_seed(
        "sys.stdout.write(pickle.dumps(f).hex())\n"
    )
    scope: dict = {}
    exec(_BUILD, scope)
    fresh = scope["f"]
    loaded = pickle.loads(bytes.fromhex(data))
    assert loaded is not fresh
    _same(loaded, fresh)
    assert loaded.key == fresh.key == reference_key(fresh)
    table = {fresh: "entry"}
    assert table[loaded] == "entry"
    for a, b in zip(subnodes(loaded), subnodes(fresh)):
        _same(a, b)


def test_node_pickled_here_is_rehashed_in_a_new_process():
    # the other direction: `_Node.__reduce__` runs in this process
    scope: dict = {}
    exec(_BUILD, scope)
    out = _run_under_another_hash_seed(
        "loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))\n"
        "table = {f: 'entry'}\n"
        "same = loaded == f and hash(loaded) == hash(f) and loaded.key == f.key\n"
        "sys.stdout.write(str(same) + ' ' + table[loaded])\n",
        stdin=pickle.dumps(scope["f"]).hex(),
    )
    assert out == "True entry"


def test_pickled_expression_is_rebuilt_in_a_new_process():
    # an expression rebuilds its key through its constructor, as a formula
    # node does; its leaves come back as the live nodes of this process
    text = "{(a, #3, {b | b in atoms, b != a}) | a in atoms, a != #5} + {#3}"
    data = _run_under_another_hash_seed(
        "from atomiso.parser import parse\n"
        f"sys.stdout.write(pickle.dumps(parse({text!r})).hex())\n"
    )
    loaded = pickle.loads(bytes.fromhex(data))
    fresh = parse(text)
    assert loaded is not fresh and loaded == fresh and loaded.key == fresh.key
    assert hash(loaded) == hash(fresh) and {fresh: "entry"}[loaded] == "entry"
    element = next(c.element for c in loaded.clauses if isinstance(c.element, ETuple))
    assert element.items[0] is EVar("a") and element.items[1] is AtomParam(3)
    comp = Compiler(get_backend("equality"))
    assert set_equal(comp, loaded, fresh)
    assert least_support(comp, loaded) == least_support(comp, fresh) == frozenset({3, 5})


def test_subst_renames_a_binder_that_would_capture():
    x, y, y1 = Var("x"), Var("y"), Var("y1")
    f = Exists("y", land(Rel("<", (x, y)), Rel("<", (y, y1))))
    y2 = Var("y2")
    want = Exists("y2", land(Rel("<", (y, y2)), Rel("<", (y2, y1))))
    _same(subst(f, {x: y}), want)


@pytest.mark.parametrize("name", BACKENDS)
def test_one_walk_normal_form_matches_the_three_walks(name):
    # `_nf` checks, expands, pushes the negation and normalizes in one walk;
    # the reference validates, expands the whole formula, builds its
    # negation normal form and then normalizes every literal
    backend = get_backend(name)
    for f in formulas(name, 14, 150):
        for negate, g in ((False, f), (True, lnot(f))):
            want = reference_nf(backend, g)
            _same(backend._nf(f, negate), want)
            _same(backend._nf(g), want)


@pytest.mark.parametrize("name", BACKENDS)
def test_qe_cache_agrees_with_uncached_elimination(name):
    backend = get_backend(name)
    fs = formulas(name, 13, 60)
    again = formulas(name, 13, 60)
    for f, g in zip(fs, again):
        ref = backend._eliminate(reference_nf(backend, f))
        first = backend.qe(f)
        assert first.key == ref.key
        # an equal formula built separately hits the entry of f
        assert g == f and g is not f
        size = len(backend._qe_cache)
        hit = backend.qe(g)
        assert len(backend._qe_cache) == size
        assert hit is first and hit.key == ref.key


def test_terms_built_in_another_order_leave_the_pinned_outputs():
    # identity hashes, and so the order of a set of variables, depend on
    # which terms a process built first; the pinned outputs must not
    tests = Path(__file__).resolve().parent
    out = _run_under_another_hash_seed(
        "import contextlib, io, random\n"
        "import pytest\n"
        "made = [(Var, n) for n in 'abcuvwxyz'] + [(Var, f'q{i}') for i in range(150)]\n"
        "made += [(Const, i) for i in range(-20, 80)] + [(Const, F(i, 3)) for i in range(-30, 30)]\n"
        "random.Random(34).shuffle(made)\n"
        "held = [kind(payload) for kind, payload in made]\n"
        "report = io.StringIO()\n"
        "with contextlib.redirect_stdout(report):\n"
        "    code = pytest.main(['-q', '-p', 'no:cacheprovider',\n"
        f"        {str(tests / 'test_theories.py')!r} + '::test_qe_and_witnesses_are_pinned',\n"
        f"        {str(tests / 'test_algebra.py')!r} + '::test_orbits_of_a_nested_cyclic_set'])\n"
        "sys.stdout.write('pinned' if code == 0 else report.getvalue())\n"
    )
    assert out == "pinned", out


def _node_classes(base: type) -> set:
    """The node classes under base that their module defines; a class that
    slots=True replaced may linger among the subclasses until collected."""
    out, todo = set(), [base]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if dataclasses.is_dataclass(sub) and getattr(sys.modules[sub.__module__], sub.__name__) is sub:
                out.add(sub)
    return out


def test_every_node_refuses_every_assignment():
    from atomiso import exprs

    x, one = Var("x"), Const(1)
    rel = Rel("=", (x, one))
    element = exprs.ETuple((exprs.EVar("a"), exprs.AtomParam(1)))
    clause = exprs.SetComp(element, ("a",), rel)
    nodes = [
        x, one, Top(), Bot(), rel, Not(rel), And((rel, Not(rel))), Or((rel, Not(rel))),
        Implies(rel, rel), Exists("x", rel), Forall("x", rel),
        exprs.EVar("a"), exprs.AtomParam(1), exprs.ATOMS, element, clause, exprs.Union((clause,)),
    ]
    classes = _node_classes(formulas_module._Node) | _node_classes(exprs.Expr)
    assert {type(n) for n in nodes} == classes
    for node in nodes:
        before = (node.key, hash(node))
        names = [f.name for f in dataclasses.fields(node)] + ["key", "zzz"]
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(node, name)
        assert (node.key, hash(node)) == before
        assert not hasattr(node, "zzz")
