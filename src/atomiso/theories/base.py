"""Shared decision machinery for the atom backends.

Each backend describes one countable homogeneous structure whose first-order
theory admits quantifier elimination.  The base class owns the elimination
pipeline (one normal-form walk, miniscoping, disjunctive normal form with
consistency pruning, per-conjunct variable elimination) and the derived
operations: truth under a valuation, deterministic witness search and
complete types.  The normal form is one walk, `_nf`, which checks each
relation atom against the vocabulary, pushes the negation onto it and folds
it by `normalize_literal`; a node in which nothing changed comes back as
itself.  Every output of `eliminate` joins `_normal`, which `_nf` and
`_eliminate` return unchanged, so the compiled memberships and inclusions
that come back inside later sentences of the same question are not walked
again; `forget` empties it with the memos at the end of the question.
Truth under a valuation is the eliminated formula evaluated on the
valuation's atoms, each literal by `GROUND`, which `normalize_literal`
folds by too: no formula or term is built.  A run of universals is
eliminated as existentials under one negation on entering the run and one
on leaving it.  A closed chain of like quantifiers, as in every sentence
behind a verdict, is not eliminated binder by binder: it is decided by one
pruned DNF search over the variable-disjoint components of its body, since
an existential closure holds exactly when some literal set of the DNF is
consistent.

The DNF is kept absorbed: a disjunction, and each step of the fold that
multiplies out a conjunction, keeps only the minimal literal sets, since
c or (c and d) is c.  This is exact for the fold too, as every extension of
an absorbed set contains an extension of the set that absorbed it, so the
folded DNF is the minimal part of the unabsorbed one, and the products
that elimination builds stay small.

One conjunct kernel serves all three backends.  The kernel reads =, != and
< (the pure set is the order-free reduct of the dense order), so
consistency, `eliminate_from_conjunct` and `conjunct_witness` are written
once, over union-find classes and the strict-order digraph between them.
The circle is cut open into the linear order lazily: its R stays a literal
(a `deferred` relation), which the kernel does not read, and `_unfold`
rewrites it into =, != and < only where it is needed, in the conjuncts
whose R literals mention the variable `eliminate_from_conjunct` eliminates,
before the DNF that decides a closed block, and before the conjuncts of a
witness search.  Whether a literal set holds together is decided in one
place, by `consistent`, from nothing each time: no state is carried from
one set to the next.  `conjuncts` folds the arguments of a conjunction
fewest branches first and decides each union of a kept conjunct with a
branch of the next argument once; `conjunct_witness` decides the literals
with each pin it tries.  A backend supplies only `normalize_literal`, whose
= case is the shared `normalize_equality`, `unfold_literal` for its
`deferred` relations, and `_witness_candidates`, the values a witness class
may take beyond the parameters and the values already taken (the least
fresh ids for the pure set, one simplest rational per gap for the orders).

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
    unchanged,
)

Valuation = dict[str, Atom]
_NAME = operator.attrgetter("name")
_VALUE = operator.attrgetter("value")
#: each normal-form relation: the one definition of ground =, < and the
#: circle's R, by which `normalize_literal` folds and `Backend.sat` evaluates
GROUND = {
    "=": operator.eq,
    "<": operator.lt,
    "R": lambda a, b, c: a < b < c or b < c < a or c < a < b,
}


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
        #: per formula asked about, its elimination and its free variables:
        #: `sat` needs both, and the free variables of a guard that
        #: `orbit_decomposition` tests at every row are walked only once
        self._qe_cache: dict[Formula, tuple[Formula, frozenset[str]]] = {}
        #: every output of `eliminate` in this question: quantifier-free and
        #: in normal form already.  Each is an elimination of `_qe_cache`,
        #: an inclusion of the `Compiler`'s memo, or a membership the
        #: compiler built in this question; `forget` empties it with the
        #: memos, at the end of the question
        self._normal: set[Formula] = set()

    def forget(self) -> None:
        """Empty the QE memo and `_normal`; a `Compiler` calls this at the
        end of each question, with its own memos."""
        self._qe_cache.clear()
        self._normal.clear()

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

    #: relations whose literals `normalize_literal` keeps but the conjunct
    #: kernel does not read: `_unfold` rewrites them by `unfold_literal` only
    #: where a variable of theirs is eliminated or a DNF decides
    deferred: frozenset[str] = frozenset()

    def unfold_literal(self, name: str, args: tuple[Term, ...], positive: bool) -> Formula:
        """A literal of a `deferred` relation, or its negation, as a
        normalized quantifier-free formula over =, != and <."""
        raise NotImplementedError

    def normalize_literal(self, name: str, args: tuple[Term, ...], positive: bool) -> Formula:
        """Rewrite one literal into the backend's literal normal form,
        folding ground comparisons to TRUE/FALSE."""
        raise NotImplementedError

    def _nf(self, f: Formula, negate: bool = False) -> Formula:
        """The normal form of f, or with `negate` of its negation, in one
        walk: each relation atom is checked against the vocabulary and the
        `work_relations` and folded by `normalize_literal` with the negation
        pushed onto it; implications are expanded and quantifiers dualised
        under a negation.  A formula of `_normal` is its own normal form,
        and without `negate` a node in which nothing changed comes back as
        itself."""
        if not negate and f in self._normal:
            return f
        if isinstance(f, Rel):
            self._check_literal(f, True)
            g = self.normalize_literal(f.name, f.args, not negate)
            return f if g == f else g
        if isinstance(f, Not):
            g = self._nf(f.body, not negate)
            return f if g == f else g
        if isinstance(f, (And, Or)):
            parts = [self._nf(g, negate) for g in f.args]
            if not negate and unchanged(parts, f.args):
                return f
            return lor(*parts) if isinstance(f, And) == negate else land(*parts)
        if isinstance(f, (Exists, Forall)):
            body = self._nf(f.body, negate)
            if not negate and body is f.body:
                return f
            kind = Forall if isinstance(f, Exists) == negate else Exists
            return kind(f.var, body)
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
        such literal by key), a `deferred` literal included.  Otherwise a
        `deferred` literal on var is unfolded, and each conjunct of the
        unfolded set is eliminated from.  Otherwise every lower bound of var
        is put below every upper bound, as the order is dense, and a != on
        var is dropped, as every region holds infinitely many atoms."""
        v = Var(var)
        for lit in sorted(lits, key=lambda l: l.key):
            if isinstance(lit, Rel) and lit.name == "=" and _occurs(v, lit):
                other = lit.args[1] if lit.args[0] is v else lit.args[0]
                return land(
                    *(self._subst_literal(l, v, other) for l in lits if l is not lit)
                )
        if self.deferred:
            cut = [
                l for l in lits
                if (l.body if type(l) is Not else l).name in self.deferred and _occurs(v, l)
            ]
            if cut:
                rest = land(*lits.difference(cut), *map(self._unfold, cut))
                return lor(
                    *(self.eliminate_from_conjunct(var, c) for c in self.conjuncts(rest))
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

        The classes are those of `consistent`.  The classes without a
        constant take values one by one, in the order of their least
        variable, never backtracking: each takes the first candidate c
        whose pin head = c is `consistent` with the literals and the pins
        fixed so far, trying the parameters, then the values already taken,
        then the backend's `_witness_candidates` around all of those, which
        by homogeneity meet every region a consistent value can lie in."""
        if not consistent(lits):
            return None
        # the classes of the equality literals' terms and of `fvs`
        root = _classes(lits)
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
        fixed = [*lits]
        for head in sorted(heads, key=_NAME):
            taken = set(value.values())
            cands = itertools.chain(
                params,
                sorted(taken - set(params)),
                self._witness_candidates(sorted(taken | set(params))),
            )
            for c in cands:
                pin = eq(head, Const(c))
                if consistent([*fixed, pin]):
                    break
            else:
                return None
            fixed.append(pin)
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
        """`eliminate(f)`, memoised in `_qe_cache` until `forget`.  A caller
        that keeps its own cache of the result, as `Compiler` does, calls
        `eliminate` instead, so that no formula is held twice."""
        return self._qe_entry(f)[0]

    def _qe_entry(self, f: Formula) -> tuple[Formula, frozenset[str]]:
        """The `_qe_cache` entry of f, `(eliminate(f), free_vars(f))`, made
        on a miss.  The memo is keyed by the formula node itself: its hash
        and key are cached on the node, so a lookup costs one hash read,
        plus one key comparison on a hit."""
        entry = self._qe_cache.get(f)
        if entry is None:
            entry = self._qe_cache[f] = (self.eliminate(f), free_vars(f))
        return entry

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
        binder by `_exists`, a run of universals as the negated existentials
        of its negated body, negated once on entering the run and once on
        leaving it.  A quantifier whose variable does not occur in the
        eliminated body is skipped before any negation, so no negation pair
        rewrites a body it does not bind.  A quantifier directly under an
        open one is open too, so `free_vars` is walked once per chain of
        quantifiers.  A formula of `_normal` is returned unchanged."""
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
        negated = False
        for q in reversed(chain):
            if not _occurs(Var(q.var), out):
                continue
            if isinstance(q, Forall) != negated:
                out = self._nf(out, True)
                negated = not negated
            out = self._exists(q.var, out)
        return self._nf(out, True) if negated else out

    def _decide_block(self, f: Formula) -> Formula:
        """TRUE or FALSE for a closed chain of like quantifiers.

        The body below the chain is eliminated, and negated under Forall,
        as the universal closure holds exactly when the existential closure
        of the negation fails.  An existential closure holds exactly when
        some literal set of its pruned DNF is consistent, and `conjuncts`
        keeps only consistent sets, every unsatisfiable single literal
        being folded by `normalize_literal`, once the `deferred` literals
        are unfolded.  The top-level conjunction is split into
        variable-disjoint components first, each satisfiable on its own, so
        that no product of their DNFs is built."""
        kind = type(f)
        body = f.body
        while type(body) is kind:
            body = body.body
        inner = self._eliminate(body)
        if kind is Forall:
            inner = self._nf(inner, True)
        inner = self._unfold(inner)
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

        A conjunction extends its kept literal sets one argument at a time,
        the arguments with the fewest branches first (a stable sort): the
        minimal consistent unions do not depend on the order, and the kept
        sets stay few while the wide arguments come last.
        The union c | b of a kept set c and each branch b of the next
        argument is decided by `consistent`, once per step: the consistent
        unions are kept in first-seen order.  A kept set that already
        contains a branch is kept as it is, with no branch tried: every
        other union with a branch contains it and would be dropped as not
        minimal.

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
            acc = [frozenset()]
            for branches in sorted(map(self.conjuncts, f.args), key=len):
                # each union tried in this step, with its verdict
                tried: dict[frozenset[Formula], bool] = {}
                for c in acc:
                    if any(b <= c for b in branches):
                        # c meets the argument already, and every other
                        # union with a branch contains c
                        tried.setdefault(c, True)
                        continue
                    for b in branches:
                        u = c | b
                        if u not in tried:
                            tried[u] = consistent(u)
                acc = _minimal([u for u, ok in tried.items() if ok])
                if not acc:
                    return []
            return acc
        raise TypeError(f"unexpected in DNF conversion: {f!r}")

    def _unfold(self, f: Formula) -> Formula:
        """f with every `deferred` literal unfolded by `unfold_literal`; a
        node with none comes back as itself."""
        if not self.deferred:
            return f
        kind = type(f)
        if kind is And or kind is Or:
            args = [self._unfold(g) for g in f.args]
            if unchanged(args, f.args):
                return f
            return land(*args) if kind is And else lor(*args)
        if kind is Rel or kind is Not:
            rel = f if kind is Rel else f.body
            if rel.name in self.deferred:
                return self.unfold_literal(rel.name, rel.args, kind is Rel)
        return f

    # ------------------------------------------------------------------
    # satisfiability and witnesses

    def sat(self, f: Formula, valuation: Valuation) -> bool:
        """Truth of f under a valuation covering its free variables: the
        quantifier-free `qe(f)` evaluated at the valuation's atoms
        (`_holds_at`), with no formula or term built.  The elimination and
        the free variables of f come from one lookup of the QE memo, so f
        is eliminated before a missing variable is reported."""
        q, fvs = self._qe_entry(f)
        missing = fvs.difference(valuation)
        if missing:
            raise ValuationError(
                f"valuation misses variables: {', '.join(sorted(missing))}"
            )
        for v in valuation.values():
            self.check_atom(v)
        return self._holds_at(q, valuation)

    def _holds_at(self, f: Formula, valuation: Valuation) -> bool:
        """Truth of a normalized quantifier-free formula once each variable
        takes its atom in `valuation`.  And and Or short-circuit; a literal,
        = or < after normalization, compares its arguments' atoms by
        `GROUND`, so the ground semantics stay in one place.  A backend
        with a `deferred` relation of another arity evaluates its literals
        first."""
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
        conjs = self.conjuncts(self._unfold(q))
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


def consistent(lits) -> bool:
    """Whether a set of normal-form literals holds together, decided from
    nothing.  Only =, != and < are read: a `deferred` literal, the circle's
    R, is left out, so a set with one prunes less, never wrongly.

    Two constants in one equality class (`_classes`) or a != inside one
    contradict; without < nothing else can, the atoms being infinite.  The
    < literals are edges between the class representatives, and the
    constants on those edges are also chained in value order: the literals
    are consistent exactly when that digraph has no cycle, a < inside one
    class being a loop.  A constant off every edge lies on no cycle, so
    chaining only these is exact."""
    root = _classes(lits)
    if root is None:
        return False
    succ: dict[Term, list[Term]] = {}
    for lit in lits:
        if type(lit) is Not:
            if lit.body.name == "=":
                a, b = lit.body.args
                if root.get(a, a) == root.get(b, b):
                    return False
        elif lit.name == "<":
            a, b = lit.args
            succ.setdefault(root.get(a, a), []).append(root.get(b, b))
    if not succ:
        return True
    chain = sorted(
        {t for t in itertools.chain(succ, *succ.values()) if isinstance(t, Const)},
        key=_VALUE,
    )
    for p, q in zip(chain, chain[1:]):
        succ.setdefault(p, []).append(q)
    # acyclic exactly when repeatedly removing a node with no edge into it
    # removes them all (Kahn)
    into: dict[Term, int] = {}
    for ws in succ.values():
        for w in ws:
            into[w] = into.get(w, 0) + 1
    ready = [u for u in succ if u not in into]
    left = len(succ.keys() | into.keys())
    while ready:
        left -= 1
        for w in succ.get(ready.pop(), ()):
            into[w] -= 1
            if not into[w]:
                ready.append(w)
    return not left


def _classes(lits) -> dict[Term, Term] | None:
    """The equality classes of the = literals of `lits`, by union-find: each
    term of an = literal that does not represent its class maps to the
    representative, a constant whenever the class holds one.  None when two
    constants meet in one class."""
    root: dict[Term, Term] = {}
    for lit in lits:
        if type(lit) is Rel and lit.name == "=":
            a, b = lit.args
            while a in root:
                a = root[a]
            while b in root:
                b = root[b]
            if a == b:
                continue
            if isinstance(a, Const):
                if isinstance(b, Const):
                    return None
                root[b] = a
            else:
                root[a] = b
    for t, r in root.items():
        while r in root:
            r = root[r]
        root[t] = r
    return root


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
