"""The benchmark workloads: set-up, the timed closed loop, and the answer
checks.

Every workload is one caller in one thread: an operation starts when the
previous one returns.  ``iso-circle`` and ``iso-equality`` drive the command
line in-process, each command with the cold ``Compiler`` the command line
builds.  ``set-queries`` calls the library with one warm ``Compiler`` per
backend for the whole stream.

Answers are checked after the timed section against references the code
under test did not produce: a verdict table taken from the README for the
fixtures, and enumeration over finite atom pools, built on
``tests/oracles.py``, for the library queries.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
import signal
import time
from dataclasses import dataclass
from fractions import Fraction

from atomiso import algebra, cli
from atomiso.compile import Compiler
from atomiso.exprs import AtomParam, AtomsSet, ETuple, EVar, SetComp, Union, act, expr_params
from atomiso.parser import print_expr
from atomiso.structures import function_from_dict
from atomiso.theories import get_backend
from atomiso.theories.formulas import Exists, free_vars
from generators import equivalent_variant, gen_automorphism, gen_set_expr, sample_atoms
from oracles import eval_formula, exhaustive_pool

# exit codes of a command that raised an error rather than giving a verdict
_ERROR_EXITS = (2, 5)


@dataclass
class Op:
    """One timed operation: what ran, how long it took, and its outcome.
    failure is None for an answer, else why no answer came back."""

    index: int
    label: str
    seconds: float
    failure: str | None
    result: object


def digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# command-line workloads


@dataclass(frozen=True)
class Command:
    label: str
    fixture: str
    argv: tuple  # "{dir}" stands for the fixture directory
    exit_code: int
    verdict: str | None  # None for `eliminate`


def _iso(fixture: str, mode: str, code: int, verdict: str, params=None) -> Command:
    argv = ["--json", "iso", f"{{dir}}/{fixture}.a.json", f"{{dir}}/{fixture}.b.json"]
    if params is not None:
        argv += ["--params", params]
    argv += ["--mode", mode]
    label = f"iso {fixture} {mode}" + ("" if params is None else f" params={params!r}")
    return Command(label, fixture, tuple(argv), code, verdict)


# Expected verdicts and exit codes, from the README.
CIRCLE_COMMANDS = (
    _iso("circle", "iso", 4, "NOT_FOUND_INCOMPLETE", params=""),
    _iso("circle", "iso", 0, "FOUND", params="0"),
)

EQUALITY_COMMANDS = (
    *(_iso(f, m, 0, "FOUND") for f in ("kneser", "neighborhoods") for m in ("iso", "emb", "hom")),
    _iso("nondefiso", "iso", 3, "NOT_FOUND"),
    _iso("nondefiso", "emb", 4, "NOT_FOUND_INCOMPLETE"),
    _iso("nondefiso", "hom", 4, "NOT_FOUND_INCOMPLETE"),
    _iso("smoothing", "iso", 0, "FOUND"),
    Command(
        "eliminate smoothing",
        "smoothing",
        ("--json", "eliminate", "--map", "{dir}/smoothing.map.json",
         "{dir}/smoothing.a.json", "{dir}/smoothing.b.json"),
        0,
        None,
    ),
)


def _run_cli(argv: list) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class CliWorkload:
    """Rounds of command-line calls; the seed shuffles the order of the
    commands inside each round unless the order is fixed."""

    def __init__(self, commands, fixed_order: bool, seed: int, fixture_dir: str):
        self.commands = commands
        self.fixed_order = fixed_order
        self.seed = seed
        self.dir = fixture_dir
        self.fixtures = sorted({c.fixture for c in commands})
        for name in self.fixtures:
            code, _ = _run_cli(["fixture", name, "--emit", fixture_dir])
            if code != 0:
                raise RuntimeError(f"could not emit fixture {name}")

    def fingerprint(self) -> str:
        """Hash of the traffic the seed does not change: the fixture
        documents and the command table."""
        from atomiso.fixtures import fixture_documents

        docs = [json.dumps(fixture_documents(n), sort_keys=True) for n in self.fixtures]
        return digest(docs + [repr(c) for c in self.commands])

    def schedule(self, rounds: int) -> list:
        rng = random.Random(self.seed)
        out = []
        for _ in range(rounds):
            order = list(self.commands)
            if not self.fixed_order:
                rng.shuffle(order)
            out += order
        return out

    def stream_digest(self, rounds: int) -> str:
        return digest(c.label for c in self.schedule(rounds))

    def reset(self) -> None:
        """Every command builds its own compiler; nothing to reset."""

    def run(self, rounds: int, tracer=None) -> list[Op]:
        ops = []
        for i, cmd in enumerate(self.schedule(rounds)):
            argv = [a.replace("{dir}", self.dir) for a in cmd.argv]
            if tracer is not None:
                tracer.begin_op(i)
            t0 = time.perf_counter()
            try:
                code, out = _run_cli(argv)
                failure = f"exit {code}" if code in _ERROR_EXITS else None
            except Exception as ex:  # a traceback is a failed operation
                code, out, failure = None, "", f"{type(ex).__name__}: {ex}"
            ops.append(Op(i, cmd.label, time.perf_counter() - t0, failure, (cmd, code, out)))
        return ops

    def check(self, ops: list[Op]) -> list[str]:
        wrong = []
        for op in ops:
            if op.failure is not None:
                continue
            cmd, code, out = op.result
            why = _check_command(cmd, code, out)
            if why:
                wrong.append(f"op {op.index} ({cmd.label}): {why}")
        return wrong


def _check_command(cmd: Command, code: int, out: str) -> str | None:
    if code != cmd.exit_code:
        return f"exit {code}, expected {cmd.exit_code}"
    doc = json.loads(out)
    if cmd.verdict is None:
        # eliminate: equality atoms print as #n, so a parameter-free graph
        # has no '#' in its text
        if "#" in doc["graph"]:
            return f"graph still has parameters: {doc['graph']}"
        return None
    if doc["verdict"] != cmd.verdict:
        return f"verdict {doc['verdict']}, expected {cmd.verdict}"
    if cmd.fixture == "circle" and cmd.verdict == "FOUND":
        _, fn = function_from_dict(doc["witness"])
        if not expr_params(fn.graph) <= {Fraction(0)}:
            return "witness uses a parameter other than 0"
    return None


# ---------------------------------------------------------------------------
# library query stream


BACKENDS = ("equality", "dlo", "cyclic")
KINDS = ("set_equal", "is_subset", "orbit_decomposition", "least_support")


@dataclass(frozen=True)
class Query:
    backend: str
    kind: str
    params: tuple
    e1: object
    e2: object  # None for the one-set queries

    def text(self) -> str:
        parts = [self.backend, self.kind, print_expr(self.e1)]
        if self.e2 is not None:
            parts.append(print_expr(self.e2))
        return " | ".join(parts)

    def atoms(self) -> frozenset:
        out = frozenset(self.params) | expr_params(self.e1)
        return out | expr_params(self.e2) if self.e2 is not None else out


def make_corpus(spec: dict) -> list[Query]:
    """The fixed query stream: per_stratum queries for every backend and
    query kind, drawn with the generators of the test-suite, in a fixed
    shuffled order.  The order stays the same for every seed because, with
    warm caches, where a heavy query falls in the stream moves the peak
    memory."""
    rng = random.Random(spec["corpus_seed"])
    size = {"max_binders": spec["max_binders"], "depth": spec["depth"]}
    out = []
    for name in BACKENDS:
        for kind in KINDS:
            for _ in range(spec["per_stratum"]):
                params = sample_atoms(rng, name, 2)
                e1 = gen_set_expr(rng, name, params, **size)
                e2 = None
                if kind in ("set_equal", "is_subset"):
                    if rng.random() < 0.5:
                        e2 = equivalent_variant(rng, name, e1, params)
                    else:
                        e2 = gen_set_expr(rng, name, params, **size)
                out.append(Query(name, kind, tuple(params), e1, e2))
    rng.shuffle(out)
    return out


def seeded_stream(corpus: list[Query], seed: int) -> list[Query]:
    """The seed moves every query by a random automorphism of its atoms.  By
    homogeneity a moved query is the same amount of work with the same
    answer, so runs on different seeds stay comparable while no two seeds
    send the same traffic."""
    rng = random.Random(seed)
    out = []
    for q in corpus:
        pi = gen_automorphism(rng, q.backend, q.atoms())
        out.append(
            Query(
                q.backend,
                q.kind,
                tuple(pi[a] for a in q.params),
                act(pi, q.e1),
                None if q.e2 is None else act(pi, q.e2),
            )
        )
    return out


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def _answer(comp: Compiler, q: Query):
    if q.kind == "set_equal":
        return algebra.set_equal(comp, q.e1, q.e2)
    if q.kind == "is_subset":
        return algebra.is_subset(comp, q.e1, q.e2)
    if q.kind == "orbit_decomposition":
        return algebra.orbit_decomposition(comp, q.e1, expr_params(q.e1))
    return algebra.least_support(comp, q.e1)


class QueryWorkload:
    def __init__(self, spec: dict, seed: int):
        self.spec = spec
        self.seed = seed
        self.deadline_s = spec["deadline_s"]
        self.corpus = make_corpus(spec)
        self.stream = seeded_stream(self.corpus, seed)
        self.reset()

    def reset(self) -> None:
        self.comps = {b: Compiler(get_backend(b)) for b in BACKENDS}

    def fingerprint(self) -> str:
        return digest(q.text() for q in self.corpus)

    def stream_digest(self, passes: int) -> str:
        return digest(q.text() for q in self.stream)

    def run(self, passes: int, tracer=None) -> list[Op]:
        ops = []
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        try:
            for p in range(passes):
                if p:
                    self.reset()
                for q in self.stream:
                    i = len(ops)
                    if tracer is not None:
                        tracer.begin_op(i)
                    ops.append(self._timed(i, q))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return ops

    def _timed(self, i: int, q: Query) -> Op:
        comp = self.comps[q.backend]
        failure = answer = None
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.deadline_s)
            try:
                answer = _answer(comp, q)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineExceeded:
            failure = "deadline"
        except Exception as ex:
            failure = f"{type(ex).__name__}: {ex}"
        return Op(i, f"{q.backend} {q.kind}", time.perf_counter() - t0, failure, (q, answer))

    def check(self, ops: list[Op]) -> list[str]:
        rng = random.Random(self.seed)
        wrong = []
        for op in ops:
            if op.failure is not None:
                continue
            q, answer = op.result
            why = _check_query(rng, q, answer)
            if why:
                wrong.append(f"op {op.index} ({q.text()}): {why}")
        return wrong


# oracles.enum_value lets a binder that only the guard uses range over the
# finite pool, so it misses witnesses beyond the pool: over dlo it finds the
# least pool atom missing from {x | x, y in atoms, y < x}.  The reference
# below quantifies such binders with oracles.eval_formula, whose quantifiers
# sweep every region over the atoms in scope, and enumerates only the
# binders the element shows.  Those range over a pool with three atoms in
# every region of the query's atoms, or inside a nested set, of the pool one
# nesting level up.  That realises every type
# of the at most three binders of a query, so two different sets already
# differ on the pool.


def _expr_vars(e) -> frozenset:
    if isinstance(e, EVar):
        return frozenset((e.name,))
    if isinstance(e, ETuple):
        return frozenset().union(*(_expr_vars(i) for i in e.items))
    if isinstance(e, SetComp):
        return (_expr_vars(e.element) | free_vars(e.guard)) - set(e.binders)
    if isinstance(e, Union):
        return frozenset().union(*(_expr_vars(c) for c in e.clauses))
    return frozenset()


class _Reference:
    def __init__(self, backend: str, atoms):
        self.backend = backend
        depth = 2 if backend == "equality" else 1  # three atoms per region
        self.pools = [exhaustive_pool(backend, set(atoms), depth)]

    def pool(self, level: int) -> list:
        while len(self.pools) <= level:
            self.pools.append(exhaustive_pool(self.backend, set(self.pools[-1]), 1))
        return self.pools[level]

    def value(self, e, val: dict, level: int):
        if isinstance(e, EVar):
            return val[e.name]
        if isinstance(e, AtomParam):
            return e.value
        if isinstance(e, ETuple):
            return tuple(self.value(x, val, level) for x in e.items)
        return self.extension(e, val, level)

    def extension(self, s, val: dict, level: int = 0) -> frozenset:
        """The set s under val, cut down to the pool of its nesting level."""
        pool = self.pool(level)
        if isinstance(s, AtomsSet):
            return frozenset(pool)
        out = set()
        for c in s.clauses if isinstance(s, Union) else (s,):
            inner = _expr_vars(c.element)
            shown = [b for b in c.binders if b in inner]
            guard = c.guard
            for b in reversed(c.binders):
                if b not in inner:
                    guard = Exists(b, guard)
            for combo in itertools.product(pool, repeat=len(shown)):
                v = {**val, **dict(zip(shown, combo))}
                if eval_formula(self.backend, guard, v):
                    out.add(self.value(c.element, v, level + 1))
        return frozenset(out)


def _check_query(rng: random.Random, q: Query, answer) -> str | None:
    if q.kind in ("set_equal", "is_subset"):
        ref = _Reference(q.backend, q.atoms())
        x1 = ref.extension(q.e1, {})
        x2 = ref.extension(q.e2, {})
        want = x1 == x2 if q.kind == "set_equal" else x1 <= x2
        return None if answer == want else f"answered {answer}, enumeration says {want}"
    if q.kind == "orbit_decomposition":
        pieces = [o.piece() for o in answer]
        ref = _Reference(q.backend, q.atoms().union(*(expr_params(p) for p in pieces)))
        whole = ref.extension(q.e1, {})
        seen = set()
        for k, p in enumerate(pieces):
            part = ref.extension(p, {})
            if not part:
                return f"orbit {k} is empty on the pool"
            if part & seen:
                return f"orbit {k} overlaps an earlier orbit"
            seen |= part
        return None if seen == whole else "orbits do not cover the set"
    # least support: the set must be invariant under automorphisms fixing it
    if not answer <= expr_params(q.e1):
        return f"support {sorted(answer)} is not among the set's atoms"
    pi = gen_automorphism(rng, q.backend, expr_params(q.e1), fixing=answer)
    moved = act(pi, q.e1)
    ref = _Reference(q.backend, q.atoms() | expr_params(moved))
    if ref.extension(moved, {}) != ref.extension(q.e1, {}):
        return f"moving atoms outside the support {sorted(answer)} changes the set"
    return None


# ---------------------------------------------------------------------------


def build(name: str, spec: dict, seed: int, fixture_dir: str):
    """Set up one workload: fixtures, inputs and compilers."""
    if name == "iso-circle":
        return CliWorkload(CIRCLE_COMMANDS, True, seed, fixture_dir)
    if name == "iso-equality":
        return CliWorkload(EQUALITY_COMMANDS, False, seed, fixture_dir)
    if name == "set-queries":
        return QueryWorkload(spec, seed)
    raise ValueError(f"unknown workload {name!r}")
