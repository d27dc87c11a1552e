"""Shared decision machinery for the atom backends.

Each backend describes one countable homogeneous structure whose first-order
theory admits quantifier elimination.  The base class owns the elimination
pipeline (one normal-form walk, miniscoping, disjunctive normal form with
consistency pruning, per-conjunct variable elimination) and the derived
operations: truth under a valuation, deterministic witness search and
complete types.  The normal form is one walk, `_nf`, which checks each
relation atom against the vocabulary, expands it by `pre_transform`, pushes
the negation onto it and folds it by `normalize_literal`.  Every output of
`eliminate` joins `_normal`, which `_nf` and `_eliminate` return unchanged,
so the compiled memberships and inclusions that come back inside later
sentences of the same question are not walked again; `forget` empties it
with the caches that hold those outputs.  Truth under a valuation is the
eliminated formula evaluated on the valuation's atoms, each literal by
`GROUND`, which `normalize_literal` folds by too: no formula or term is
built.  A closed chain of like quantifiers, as in every sentence behind a
verdict, is not eliminated binder by binder: it is decided by one pruned DNF
search over the variable-disjoint components of its body, since an
existential closure holds exactly when some literal set of the DNF is
consistent.

The DNF is kept absorbed: a disjunction, and each step of the fold that
multiplies out a conjunction, keeps only the minimal literal sets, since
c or (c and d) is c.  This is exact for the fold too, as every extension of
an absorbed set contains an extension of the set that absorbed it, so the
folded DNF is the minimal part of the unabsorbed one, and the products
that elimination builds stay small.

One conjunct kernel serves all three backends.  Every backend normalizes its
literals to =, != and < (the pure set is the order-free reduct of the dense
order, and the circle is cut open into the linear order before elimination),
so consistency, `eliminate_from_conjunct` and `conjunct_witness` are written
once, over union-find classes and the strict-order digraph between them.
That state is a `ConjunctState`, and it is extended literal by literal.
`conjuncts` decides each union of a kept conjunct with a branch of the next
argument by growing the kept conjunct's state by the branch's new literals,
before the union is built; a kept union carries the state and the growth it
came from, so that its own state is built once.  `conjunct_witness` extends
one state by its pins.  A backend supplies only `normalize_literal`, whose =
case is the shared `normalize_equality`, and `_witness_candidates`, the
values a witness class may take beyond the parameters and the values already
taken (the least fresh ids for the pure set, one simplest rational per gap
for the orders).

Complete types are built in one place.  Quantifier elimination in a
homogeneous structure makes the orbit of an atom tuple over a parameter set
its complete quantifier-free type, which one realization determines, so
`type_reps` enumerates one realization per type and `type_of` writes the
type of given values.  A caller that filters the types, as
`orbit_decomposition` does by a guard, decides the guard at the realization
by `sat` and writes a type only once the guard admits it.  `pinned_reps`
walks only the types that pin every block to a parameter, in the same
order, for a caller that needs only those.  `type_reps` and `type_of`
handle the blocks of equal values and the blocks pinned to a parameter; a
backend supplies only two hooks on the remaining free blocks:
`_free_block_values` (one value tuple per arrangement, in a fixed order)
and `_free_block_literals` (the literals that fix an arrangement).
"""

import itertools
import operator

from ..errors import ValuationError, VocabularyError
from .formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    Bot,
    Const,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    Rel,
    Term,
    Top,
    Var,
    eq,
    formula_atoms,
    free_vars,
    land,
    lor,
    subformulas,
)

Valuation = dict[str, Atom]
_NAME = operator.attrgetter("name")
_VALUE = operator.attrgetter("value")
#: each normal-form relation on two atoms: the one definition of ground =
#: and <, by which `normalize_literal` folds and `Backend.sat` evaluates
GROUND = {"=": operator.eq, "<": operator.lt}


def normalize_equality(args: tuple[Term, ...], positive: bool) -> Formula:
    """The normal form of the literal `a = b` (positive) or `a != b`, shared
    by every backend: a ground one folds to TRUE or FALSE, and otherwise the
    arguments are put in key order."""
    a, b = args
    if a == b:
        return TRUE if positive else FALSE
    if isinstance(a, Const) and isinstance(b, Const):
        return TRUE if GROUND["="](a.value, b.value) == positive else FALSE
    if b.key < a.key:
        a, b = b, a
    lit = Rel("=", (a, b))
    return lit if positive else Not(lit)


def set_partitions(items: tuple) -> list[list[list]]:
    """All partitions of `items`, blocks listed in first-occurrence order,
    enumerated in restricted-growth order (coarsest assignment first)."""
    out: list[list[list]] = []

    def rec(i: int, blocks: list[list]):
        if i == len(items):
            out.append([list(b) for b in blocks])
            return
        for b in blocks:
            b.append(items[i])
            rec(i + 1, blocks)
            b.pop()
        blocks.append([items[i]])
        rec(i + 1, blocks)
        blocks.pop()

    rec(0, [])
    return out


def _anchor_choices(k: int, svals: list):
    """Assignments of k blocks to distinct anchors from svals or to None,
    anchors offered in ascending order before the free choice."""
    if k == 0:
        yield ()
        return
    for head in list(svals) + [None]:
        remaining = [s for s in svals if s != head] if head is not None else svals
        for tail in _anchor_choices(k - 1, remaining):
            yield (head,) + tail


def pinned_reps(variables: tuple[str, ...], params: frozenset[Atom]):
    """The rows of `Backend.type_reps` whose blocks are all pinned to a
    parameter, in the same order and on every backend: partitions, then
    the anchor choices with no free block, which are the permutations of
    the sorted parameters in lexicographic order."""
    svals = sorted(params)
    for blocks in set_partitions(tuple(variables)):
        for anchors in itertools.permutations(svals, len(blocks)):
            row = {v: a for block, a in zip(blocks, anchors) for v in block}
            yield tuple(row[v] for v in variables)


class Backend:
    """One atom structure: vocabulary, semantics, and decision procedures."""

    name: str = ""
    #: input vocabulary: relation name -> arity
    relations: dict[str, int] = {}
    #: extra relations the backend's own elimination may leave in its output;
    #: formulas fed back into qe are checked against relations | work_relations,
    #: while the input grammar stays gated by `relations` alone
    work_relations: dict[str, int] = {}
    #: whether the structure embeds into itself avoiding any finite region;
    #: needed for the independence constraints of parameter elimination
    dense: bool = True

    def __init__(self):
        self._qe_cache: dict[Formula, Formula] = {}
        #: every output of `eliminate`, each kept by `_qe_cache` or by a
        #: `Compiler` cache: quantifier-free and in normal form already;
        #: `forget` empties it with those caches, at the end of a question
        self._normal: set[Formula] = set()
        #: the free variables of each formula `sat` was asked about, for as
        #: long as `_qe_cache` holds its elimination
        self._free: dict[Formula, frozenset[str]] = {}

    def forget(self) -> None:
        """Empty the QE memo and the two memos that mirror it; a `Compiler`
        calls this at the end of each question, with its own caches."""
        self._qe_cache.clear()
        self._normal.clear()
        self._free.clear()

    # ------------------------------------------------------------------
    # atoms

    def check_atom(self, a: Atom | str) -> None:
        """Raise VocabularyError unless a is an atom of this backend; text
        that is no atom literal arrives as a string and is rejected."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # vocabulary validation

    def validate(self, f: Formula) -> None:
        for g in subformulas(f):
            if isinstance(g, Rel):
                self._check_literal(g, False)

    def _check_literal(self, g: Rel, internal: bool) -> None:
        """Raise VocabularyError unless the relation atom g is in the
        vocabulary, with `work_relations` too when `internal`."""
        arity = self.relations.get(g.name)
        if arity is None and internal:
            arity = self.work_relations.get(g.name)
        if arity is None:
            raise VocabularyError(
                f"relation {g.name!r} is not part of the {self.name} vocabulary"
            )
        if len(g.args) != arity:
            raise VocabularyError(
                f"relation {g.name!r} expects {arity} arguments, got {len(g.args)}"
            )
        for t in g.args:
            if isinstance(t, Const):
                self.check_atom(t.value)

    # ------------------------------------------------------------------
    # literal normalization (theory hooks)

    def pre_transform(self, f: Rel) -> Formula:
        """Rewrite the relation atom f by the symbols it defines, before
        elimination; `_nf` calls it on each relation atom."""
        return f

    def normalize_literal(self, name: str, args: tuple[Term, ...], positive: bool) -> Formula:
        """Rewrite one literal into the backend's literal normal form,
        folding ground comparisons to TRUE/FALSE."""
        raise NotImplementedError

    def _nf(self, f: Formula, negate: bool = False) -> Formula:
        """The normal form of f, or with `negate` of its negation, in one
        walk: each relation atom is checked against the vocabulary and the
        `work_relations`, expanded by `pre_transform`, and folded by
        `normalize_literal` with the negation pushed onto it; implications
        are expanded and quantifiers dualised under a negation.  A formula
        of `_normal` is its own normal form."""
        if not negate and f in self._normal:
            return f
        if isinstance(f, Rel):
            self._check_literal(f, True)
            g = self.pre_transform(f)
            if g is not f:
                return self._nf(g, negate)
            return self.normalize_literal(f.name, f.args, not negate)
        if isinstance(f, Not):
            return self._nf(f.body, not negate)
        if isinstance(f, (And, Or)):
            parts = [self._nf(g, negate) for g in f.args]
            return lor(*parts) if isinstance(f, And) == negate else land(*parts)
        if isinstance(f, (Exists, Forall)):
            kind = Forall if isinstance(f, Exists) == negate else Exists
            return kind(f.var, self._nf(f.body, negate))
        if isinstance(f, Implies):
            if negate:
                return land(self._nf(f.premise), self._nf(f.conclusion, True))
            return lor(self._nf(f.premise, True), self._nf(f.conclusion))
        if isinstance(f, (Top, Bot)):
            return FALSE if isinstance(f, Top) == negate else TRUE
        raise TypeError(f"not a formula: {f!r}")

    # ------------------------------------------------------------------
    # the conjunct kernel: literal sets over =, != and <

    def eliminate_from_conjunct(self, var: str, lits: frozenset[Formula]) -> Formula:
        """exists var: the conjunction of lits, as a quantifier-free formula.

        An equality on var substitutes its other side everywhere (the least
        such literal by key).  Otherwise every lower bound of var is put
        below every upper bound, as the order is dense, and a != on var is
        dropped, as every region holds infinitely many atoms."""
        v = Var(var)
        for lit in sorted(lits, key=lambda l: l.key):
            if isinstance(lit, Rel) and lit.name == "=" and _occurs(v, lit):
                other = lit.args[1] if lit.args[0] is v else lit.args[0]
                return land(
                    *(self._subst_literal(l, v, other) for l in lits if l is not lit)
                )
        lowers: list[Term] = []
        uppers: list[Term] = []
        keep: list[Formula] = []
        for lit in lits:
            if not _occurs(v, lit):
                keep.append(lit)
                continue
            if isinstance(lit, Not):
                continue
            if lit.name == "<":
                a, b = lit.args
                if b is v:
                    lowers.append(a)
                else:
                    uppers.append(b)
        for l in lowers:
            for u in uppers:
                keep.append(self.normalize_literal("<", (l, u), True))
        return land(*keep)

    def _subst_literal(self, lit: Formula, v: Var, term: Term) -> Formula:
        positive = isinstance(lit, Rel)
        rel = lit if positive else lit.body
        args = tuple(term if t is v else t for t in rel.args)
        return self.normalize_literal(rel.name, args, positive)

    def conjunct_witness(self, lits, fvs: list[str], params: list[Atom]) -> Valuation | None:
        """A valuation of `fvs` satisfying every literal, or None when the
        literals are inconsistent.

        The classes without a constant take values one by one, in the order
        of their least variable, never backtracking: each takes the first
        candidate consistent with the values fixed so far, trying the
        parameters, then the values already taken, then the backend's
        `_witness_candidates` around all of those, which by homogeneity
        meet every region a consistent value can lie in."""
        state = ConjunctState.EMPTY.extended(lits)
        if state is None:
            return None
        # the classes of the equality literals' terms and of `fvs`
        root = state.root
        members: dict[Term, list[Term]] = {}
        for t in {*root, *root.values(), *map(Var, fvs)}:
            members.setdefault(root.get(t, t), []).append(t)
        value: dict[Term, Atom] = {}
        heads: list[Var] = []
        for cls, mem in members.items():
            if isinstance(cls, Const):
                value[cls] = cls.value
            else:
                heads.append(min(mem, key=_NAME))
        for head in sorted(heads, key=_NAME):
            taken = set(value.values())
            cands = itertools.chain(
                params,
                sorted(taken - set(params)),
                self._witness_candidates(sorted(taken | set(params))),
            )
            for c in cands:
                pinned = state.extended((eq(head, Const(c)),))
                if pinned is not None:
                    break
            else:
                return None
            state = pinned
            value[root.get(head, head)] = c
        return {v: value[root.get(Var(v), Var(v))] for v in fvs}

    def _witness_candidates(self, landmarks: list[Atom]):
        """Values offered to a witness class after the parameters and the
        values already taken: at least one in every region over the sorted
        `landmarks`, none of them a landmark.  May be infinite."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # quantifier elimination

    def qe(self, f: Formula) -> Formula:
        """`eliminate(f)`, memoised in `_qe_cache` until `forget`, one entry
        per miss, keyed by the formula node itself: its hash and key are
        cached on the node, so a lookup costs one hash read, plus one key
        comparison on a hit.  A caller that keeps its own cache of the
        result, as `Compiler` does, calls `eliminate` instead, so that no
        formula is held twice."""
        hit = self._qe_cache.get(f)
        if hit is not None:
            return hit
        out = self.eliminate(f)
        self._qe_cache[f] = out
        return out

    def eliminate(self, f: Formula) -> Formula:
        """Equivalent quantifier-free formula; parameters never grow.

        Quantifiers with free variables are eliminated one binder at a
        time; a closed chain of like quantifiers is decided to TRUE or
        FALSE by one pruned DNF search over the variable-disjoint
        components of its body (`_decide_block`).  Not cached, but the
        output joins `_normal`, so that it is not normalized or eliminated
        again when it comes back inside a later formula."""
        out = self._eliminate(self._nf(f))
        self._normal.add(out)
        return out

    def _eliminate(self, f: Formula) -> Formula:
        """Eliminate the quantifiers of a normalized formula, innermost
        first: a closed quantifier block by `_decide_block`, any other
        binder by `_exists`, a universal as the negated existential of its
        negated body.  A quantifier directly under an open one is open too,
        so `free_vars` is walked once per chain of quantifiers.  A formula
        of `_normal` is returned unchanged."""
        if isinstance(f, (Top, Bot, Rel, Not)) or f in self._normal:
            return f
        if isinstance(f, And):
            return land(*(self._eliminate(g) for g in f.args))
        if isinstance(f, Or):
            return lor(*(self._eliminate(g) for g in f.args))
        if not isinstance(f, (Exists, Forall)):
            raise TypeError(f"not a formula: {f!r}")
        if not free_vars(f):
            return self._decide_block(f)
        chain = []
        while isinstance(f, (Exists, Forall)):
            chain.append(f)
            f = f.body
        out = self._eliminate(f)
        for q in reversed(chain):
            if isinstance(q, Exists):
                out = self._exists(q.var, out)
            else:
                out = self._nf(self._exists(q.var, self._nf(out, True)), True)
        return out

    def _decide_block(self, f: Formula) -> Formula:
        """TRUE or FALSE for a closed chain of like quantifiers.

        The body below the chain is eliminated, and negated under Forall,
        as the universal closure holds exactly when the existential closure
        of the negation fails.  An existential closure holds exactly when
        some literal set of its pruned DNF is consistent, and `conjuncts`
        keeps only consistent sets, every unsatisfiable single literal
        being folded by `normalize_literal`.  The top-level conjunction is
        split into variable-disjoint components first, each satisfiable on
        its own, so that no product of their DNFs is built."""
        kind = type(f)
        body = f.body
        while type(body) is kind:
            body = body.body
        inner = self._eliminate(body)
        if kind is Forall:
            inner = self._nf(inner, True)
        sat = all(self.conjuncts(part) for part in _components(inner))
        return TRUE if sat == (kind is Exists) else FALSE

    def _exists(self, var: str, f: Formula) -> Formula:
        """Eliminate one existential from a quantifier-free formula."""
        if isinstance(f, And):
            # the conjuncts without var stay outside, split in one pass
            v = Var(var)
            inside, outside = [], []
            for g in f.args:
                (inside if _occurs(v, g) else outside).append(g)
            if not inside:
                return f
            if outside:
                return land(*outside, self._exists(var, land(*inside)))
        elif not _occurs(Var(var), f):
            return f
        elif isinstance(f, Or):
            return lor(*(self._exists(var, d) for d in f.args))
        return lor(
            *(self.eliminate_from_conjunct(var, c) for c in self.conjuncts(f))
        )

    def conjuncts(self, f: Formula) -> list[frozenset[Formula]]:
        """Disjunctive normal form as literal sets, theory-pruned.

        A conjunction extends its kept literal sets one argument at a time.
        Each branch b of the next argument is decided by extending the
        `ConjunctState` of a kept set c by the literals of b not in c
        (`_grow`), before the union c | b is built: only consistent unions
        are built and deduplicated, in first-seen order.  A new union
        carries the state it grew from and the split `_grow` returned, and
        its own state is built from them once, by `_with`, when the next
        argument extends it.  A kept set that already contains a branch is
        kept as it is, with no branch tried: every other union with a
        branch contains it and would be dropped as not minimal.

        A disjunction and each step of a conjunction then drop every set
        that strictly contains another kept one (`_minimal`), so the result
        is an antichain under inclusion, in first-seen order."""
        if isinstance(f, Top):
            return [frozenset()]
        if isinstance(f, Bot):
            return []
        if isinstance(f, (Rel, Not)):
            return [frozenset((f,))]
        if isinstance(f, Or):
            seen: set[frozenset] = set()
            out = []
            for d in f.args:
                for c in self.conjuncts(d):
                    if c not in seen:
                        seen.add(c)
                        out.append(c)
            return _minimal(out)
        if isinstance(f, And):
            # each kept set with the state it grew from and its split
            acc = [(frozenset(), ConjunctState.EMPTY, None)]
            for g in f.args:
                branches = self.conjuncts(g)
                grown: dict[frozenset[Formula], tuple] = {}
                for c, parent, split in acc:
                    state = parent if split is None else parent._with(*split)
                    if any(b <= c for b in branches):
                        # c meets the argument already, and every other
                        # union with a branch contains c
                        grown.setdefault(c, (state, None))
                        continue
                    for b in branches:
                        step = state._grow(b, c)
                        if step is not None:
                            grown.setdefault(c | b, (state, step))
                acc = [(u, *grown[u]) for u in _minimal(list(grown))]
                if not acc:
                    return []
            return [c for c, _, _ in acc]
        raise TypeError(f"unexpected in DNF conversion: {f!r}")

    # ------------------------------------------------------------------
    # satisfiability and witnesses

    def sat(self, f: Formula, valuation: Valuation) -> bool:
        """Truth of f under a valuation covering its free variables: the
        quantifier-free `qe(f)` evaluated at the valuation's atoms
        (`_holds_at`), with no formula or term built.  The free variables
        of f are walked once per formula, in `_free`."""
        fvs = self._free.get(f)
        if fvs is None:
            fvs = self._free[f] = free_vars(f)
        missing = fvs.difference(valuation)
        if missing:
            raise ValuationError(
                f"valuation misses variables: {', '.join(sorted(missing))}"
            )
        for v in valuation.values():
            self.check_atom(v)
        return self._holds_at(self.qe(f), valuation)

    def _holds_at(self, f: Formula, valuation: Valuation) -> bool:
        """Truth of a normalized quantifier-free formula once each variable
        takes its atom in `valuation`.  And and Or short-circuit; a literal,
        = or < after normalization, compares its arguments' atoms by
        `GROUND`, so the ground semantics stay in one place."""
        kind = type(f)
        if kind is And or kind is Or:
            # an And fails at its first false argument, an Or holds at its
            # first true one
            for g in f.args:
                if self._holds_at(g, valuation) == (kind is Or):
                    return kind is Or
            return kind is And
        if kind is Top or kind is Bot:
            return kind is Top
        positive = kind is Rel
        rel = f if positive else f.body
        a, b = rel.args
        a = valuation[a.name] if isinstance(a, Var) else a.value
        b = valuation[b.name] if isinstance(b, Var) else b.value
        return GROUND[rel.name](a, b) == positive

    def holds(self, sentence: Formula) -> bool:
        return self.sat(sentence, {})

    def find_witness(self, f: Formula, variables=()) -> Valuation | None:
        """Deterministic satisfying valuation of the free variables of f
        and of `variables`, or None.

        Preference order: parameter atoms of the formula first, then the
        canonical fresh choice of the backend (least unused id for the pure
        set, simplest rational in the leftmost feasible gap for the orders).
        A variable that f does not constrain takes the first candidate, as
        `conjunct_witness` gives it to every class no literal pins.
        """
        q = self.qe(f)
        fvs = sorted(free_vars(f) | set(variables))
        params = sorted(formula_atoms(f) | formula_atoms(q))
        if not fvs:
            return {} if isinstance(q, Top) else None
        if isinstance(q, Bot):
            return None
        conjs = self.conjuncts(q)
        conjs.sort(key=lambda c: tuple(sorted(l.key for l in c)))
        for c in conjs:
            w = self.conjunct_witness(c, fvs, params)
            if w is not None:
                return w
        return None

    # ------------------------------------------------------------------
    # types and orbits of atom tuples

    def type_reps(self, variables: tuple[str, ...], params: frozenset[Atom]):
        """One realization of every complete type of `variables` over
        `params`, as a value tuple in the order of `variables`, in a fixed
        order: partitions of the variables into blocks, then anchor choices,
        then the backend's free-block values."""
        svals = sorted(params)
        for blocks in set_partitions(tuple(variables)):
            for anchors in _anchor_choices(len(blocks), svals):
                for free in self._free_block_values(anchors.count(None), svals):
                    fresh = iter(free)
                    block_values = [a if a is not None else next(fresh) for a in anchors]
                    row = {v: a for block, a in zip(blocks, block_values) for v in block}
                    yield tuple(row[v] for v in variables)

    def type_of(self, variables: tuple[str, ...], values: tuple[Atom, ...], params: frozenset[Atom]) -> Formula:
        """The complete type over `params` realized by concrete `values`:
        each block's variables equal its first one (the head), an anchored
        head equals its parameter, and the backend relates the free heads."""
        lits = []
        heads: dict[Atom, Var] = {}
        free: list[tuple[Atom, Var]] = []
        for v, a in zip(variables, values):
            head = heads.get(a)
            if head is not None:
                lits.append(eq(head, Var(v)))
                continue
            heads[a] = head = Var(v)
            if a in params:
                lits.append(eq(head, Const(a)))
            else:
                free.append((a, head))
        lits += self._free_block_literals(free, sorted(params))
        return land(*lits)

    def _free_block_values(self, k: int, svals: list[Atom]):
        """Yield representative values for k free blocks, one tuple per
        arrangement of the blocks relative to the sorted parameters `svals`
        and to each other, in a fixed order.  The values are distinct and
        avoid svals; this order decides the order of `type_reps`."""
        raise NotImplementedError

    def _free_block_literals(self, free: list[tuple[Atom, Var]], svals: list[Atom]) -> list[Formula]:
        """The literals fixing the arrangement of the free blocks, given as
        (value, head) pairs in first-occurrence order, relative to the
        sorted parameters `svals` and to each other."""
        raise NotImplementedError

    def rn_count(self, n: int) -> int:
        """Number of orbits of n-tuples of atoms under all automorphisms."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # independence regions (dense backends only)

    def independence_formula(self, var: str, avoid: frozenset[Atom], keep: frozenset[Atom]) -> Formula:
        """Constraint placing `var` inside a self-embedding image that avoids
        `avoid` except for the pinned atoms `keep`."""
        raise NotImplementedError


class ConjunctState:
    """The theory state of one consistent set of normal-form literals.

    `root` maps every term of an equality literal that does not represent
    its class to the representative, a constant whenever the class holds
    one.  `ne` and `lt`
    hold the argument pairs of the != and < literals.  `succ` is the
    strict-order digraph over the classes, in which the constant classes on
    its edges (`chain`, ascending) are also chained in value order.  Two
    constants, a != or a < inside one class contradict; without < nothing
    else can, the atoms being infinite.  With <, the literals are consistent
    exactly when that digraph has no cycle; a constant off every < edge lies
    on no cycle, so chaining only these is exact."""

    __slots__ = ("root", "ne", "lt", "succ", "chain")

    EMPTY: "ConjunctState"

    def __init__(self, root, ne, lt, succ, chain):
        self.root: dict[Term, Term] = root
        self.ne: tuple[tuple[Term, Term], ...] = ne
        self.lt: tuple[tuple[Term, Term], ...] = lt
        self.succ: dict[Term, frozenset[Term]] = succ
        self.chain: tuple[Const, ...] = chain

    def extended(self, lits) -> "ConjunctState | None":
        """This state extended by `lits`, or None when they contradict it."""
        grown = self._grow(lits, ())
        return None if grown is None else self._with(*grown)

    def _split(self, lits, known):
        """The literals of `lits` not in `known`, as the merges of classes
        they make (a map from each merged representative to the new one)
        and their != and < pairs; None when they merge two constants."""
        root = self.root
        up: dict[Term, Term] = {}
        ne: list[tuple[Term, Term]] = []
        lt: list[tuple[Term, Term]] = []
        for lit in lits:
            if lit in known:
                continue
            if isinstance(lit, Not):
                ne.append(lit.body.args)
            elif lit.name == "<":
                lt.append(lit.args)
            else:
                a, b = lit.args
                a, b = root.get(a, a), root.get(b, b)
                while a in up:
                    a = up[a]
                while b in up:
                    b = up[b]
                if a == b:
                    continue
                if isinstance(a, Const):
                    if isinstance(b, Const):
                        return None
                    up[b] = a
                else:
                    up[a] = b
        for t, r in up.items():
            while r in up:
                r = up[r]
            up[t] = r
        return up, ne, lt

    def _merged(self, up) -> dict[Term, Term]:
        """The class representatives after the merges `up`."""
        if not up:
            return self.root
        root = {t: up.get(r, r) for t, r in self.root.items()}
        root.update(up)
        return root

    def _grow(self, lits, known):
        """The split of the literals of `lits` not in `known` (see
        `_split`), or None when they contradict this state."""
        split = self._split(lits, known)
        if split is None:
            return None
        up, ne, lt = split
        root = self._merged(up)
        # a merge may put an old != or < pair inside one class, and moves
        # the old < pairs it touches onto the merged class
        for a, b in itertools.chain(ne, self.ne) if up else ne:
            if root.get(a, a) == root.get(b, b):
                return None
        edges: list[tuple[Term, Term]] = []
        for a, b in lt:
            a, b = root.get(a, a), root.get(b, b)
            if a == b:
                return None
            edges.append((a, b))
        if up:
            old = self.root
            for a, b in self.lt:
                ra, rb = root.get(a, a), root.get(b, b)
                if ra == rb:
                    return None
                if ra != old.get(a, a) or rb != old.get(b, b):
                    edges.append((ra, rb))
        if edges and self._closes_cycle(edges, root if up else None):
            return None
        return split

    def _closes_cycle(self, edges, root) -> bool:
        """Whether the new `edges` close a cycle with the old digraph, read
        through the merged representatives `root` (None without merges).
        The old digraph is acyclic and a merged class has its old edges
        among `edges`, so a new cycle runs through some new edge (u, v):
        u is reachable from v."""
        _, edges = _joined_chain(self.chain, edges)
        new: dict[Term, list[Term]] = {}
        for a, b in edges:
            new.setdefault(a, []).append(b)
        succ = self.succ
        for u, v in edges:
            stack = [v]
            seen = {v}
            while stack:
                n = stack.pop()
                nxt = succ.get(n, ())
                if root is not None and nxt:
                    nxt = [root.get(w, w) for w in nxt]
                if n in new:
                    nxt = [*nxt, *new[n]]
                for w in nxt:
                    if w == u:
                        return True
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        return False

    def _with(self, up, ne, lt) -> "ConjunctState":
        """This state with a split added that does not contradict it.  A
        merge rebuilds the digraph; otherwise it grows by the new edges, an
        old successor set copied only where it grows."""
        root = self._merged(up)
        lts = self.lt + tuple(lt)
        if up:
            succ, chain, new = {}, (), lts
        else:
            succ, chain, new = dict(self.succ), self.chain, lt
        edges = [(root.get(a, a), root.get(b, b)) for a, b in new]
        chain, edges = _joined_chain(chain, edges)
        for a, b in edges:
            succ[a] = succ.get(a, frozenset()) | {b}
        return ConjunctState(root, self.ne + tuple(ne), lts, succ, chain)


ConjunctState.EMPTY = ConjunctState({}, (), (), {}, ())


def _occurs(v: Var, f: Formula) -> bool:
    """Whether the variable v occurs in the quantifier-free formula f.
    Variables are interned, so a term is compared by identity; the walk
    stops at the first occurrence and builds no set."""
    kind = type(f)
    if kind is Not:
        return _occurs(v, f.body)
    if kind is Rel:
        # by identity: a Const's value equality is a Python-level call
        for t in f.args:
            if t is v:
                return True
        return False
    if kind is And or kind is Or:
        for g in f.args:
            if _occurs(v, g):
                return True
        return False
    if kind is Top or kind is Bot:
        return False
    raise TypeError(f"not a quantifier-free formula: {f!r}")


def _components(f: Formula) -> list[Formula]:
    """The arguments of a top-level conjunction grouped into conjunctions
    that share no variable, each keeping the arguments' order."""
    if not isinstance(f, And):
        return [f]
    groups: list[tuple[frozenset[str], list[int]]] = []
    for i, g in enumerate(f.args):
        names, members, rest = free_vars(g), [i], []
        for group in groups:
            if group[0] & names:
                names |= group[0]
                members += group[1]
            else:
                rest.append(group)
        groups = rest + [(names, members)]
    return [land(*(f.args[i] for i in sorted(members))) for _, members in groups]


def _joined_chain(chain: tuple[Const, ...], edges: list) -> tuple[tuple[Const, ...], list]:
    """The constant chain once the constants on `edges` join it, and
    `edges` with the chain edges of each newly touched constant."""
    fresh = {u for e in edges for u in e if isinstance(u, Const)}
    fresh.difference_update(chain)
    if not fresh:
        return chain, edges
    chain = tuple(sorted((*chain, *fresh), key=_VALUE))
    return chain, edges + [(p, q) for p, q in zip(chain, chain[1:]) if p in fresh or q in fresh]


def _minimal(sets: list[frozenset]) -> list[frozenset]:
    """The sets of `sets`, all distinct, that strictly contain no other
    one, in their given order: a disjunct c or (c and d) is absorbed by c."""
    kept: list[frozenset] = []
    for c in sorted(sets, key=len):
        # only a smaller set, kept before c, can lie strictly inside it
        if not any(map(c.__gt__, kept)):
            kept.append(c)
    if len(kept) == len(sets):
        return sets
    keep = set(kept)
    return [c for c in sets if c in keep]
