"""Shared decision machinery for the atom backends.

Each backend describes one countable homogeneous structure whose first-order
theory admits quantifier elimination.  The base class owns the elimination
pipeline (negation normal form, miniscoping, disjunctive normal form with
consistency pruning, per-conjunct variable elimination) and the derived
operations: satisfiability under a valuation, deterministic witness search
and complete types.

One conjunct kernel serves all three backends.  Every backend normalizes
its literals to =, != and < (the pure set is the order-free reduct of the
dense order, and the circle is cut open into the linear order before
elimination), so `conjunct_consistent`, `eliminate_from_conjunct` and
`conjunct_witness` are written once, over union-find classes and the
strict-order digraph between them.  A backend supplies only
`normalize_literal` and `_witness_candidates`, the values a witness class
may take beyond the parameters and the values already taken (the least
fresh ids for the pure set, one simplest rational per gap for the orders).

Complete types are built in one place.  Quantifier elimination in a
homogeneous structure makes the orbit of an atom tuple over a parameter set
its complete quantifier-free type, which one realization determines, so
`type_of` writes the type of given values and `types_with_reps` enumerates
one realization per type and takes each formula from `type_of`.  Both
handle the blocks of equal values and the blocks pinned to a parameter; a
backend supplies only two hooks on the remaining free blocks:
`_free_block_values` (one value tuple per arrangement, in a fixed order)
and `_free_block_literals` (the literals that fix an arrangement).
"""

import itertools
from dataclasses import dataclass
from operator import attrgetter

from ..errors import ValuationError, VocabularyError
from .formulas import (
    And,
    Atom,
    Bot,
    Const,
    Exists,
    Forall,
    Formula,
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
    lnot,
    lor,
    nnf,
    subformulas,
    subst,
)

Valuation = dict[str, Atom]
_NAME = attrgetter("name")
_VALUE = attrgetter("value")


@dataclass(frozen=True)
class TypeInfo:
    """One complete type over a parameter set, with a concrete realization."""

    formula: Formula
    rep: tuple[tuple[str, Atom], ...]

    def rep_valuation(self) -> Valuation:
        return dict(self.rep)


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
    #: needed for independent-atom picking and parameter elimination
    dense: bool = True

    def __init__(self):
        self._qe_cache: dict[Formula, Formula] = {}

    # ------------------------------------------------------------------
    # atoms

    def parse_atom(self, text: str) -> Atom:
        raise NotImplementedError

    def format_atom(self, a: Atom) -> str:
        raise NotImplementedError

    def check_atom(self, a: Atom) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # vocabulary validation

    def validate(self, f: Formula, internal: bool = False) -> None:
        for g in subformulas(f):
            if not isinstance(g, Rel):
                continue
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

    def pre_transform(self, f: Formula) -> Formula:
        """Rewrite defined relation symbols before elimination."""
        return f

    def normalize_literal(self, name: str, args: tuple[Term, ...], positive: bool) -> Formula:
        """Rewrite one literal into the backend's literal normal form,
        folding ground comparisons to TRUE/FALSE."""
        raise NotImplementedError

    def _norm(self, f: Formula) -> Formula:
        """Normalize every literal of a negation-normal formula."""
        if isinstance(f, (Top, Bot)):
            return f
        if isinstance(f, Rel):
            return self.normalize_literal(f.name, f.args, True)
        if isinstance(f, Not):
            body = f.body
            if isinstance(body, Rel):
                return self.normalize_literal(body.name, body.args, False)
            return self._norm(nnf(f))
        if isinstance(f, And):
            return land(*(self._norm(g) for g in f.args))
        if isinstance(f, Or):
            return lor(*(self._norm(g) for g in f.args))
        if isinstance(f, Exists):
            return Exists(f.var, self._norm(f.body))
        if isinstance(f, Forall):
            return Forall(f.var, self._norm(f.body))
        return self._norm(nnf(f))

    # ------------------------------------------------------------------
    # the conjunct kernel: literal sets over =, != and <

    def conjunct_consistent(self, lits) -> bool:
        """Whether a set of normal-form literals has a solution.

        Equalities merge terms into classes.  Two constants, a != or a <
        inside one class contradict; without < nothing else can, the atoms
        being infinite.  With <, the literals are consistent exactly when
        the order digraph over the classes has no cycle once the constant
        classes on its edges are chained in value order.  A constant off
        every < edge lies on no cycle, so chaining only these is exact."""
        flat, _, ok = pinned_classes(lits)
        if not ok:
            return False
        edges: dict[Term, set[Term]] = {}
        for lit in lits:
            if isinstance(lit, Not):
                a, b = lit.body.args
                if flat.get(a, a) == flat.get(b, b):
                    return False
            elif lit.name == "<":
                a, b = lit.args
                a, b = flat.get(a, a), flat.get(b, b)
                if a == b:
                    return False
                edges.setdefault(a, set()).add(b)
        if not edges:
            return True
        # class representatives prefer constants, so every pinned class on
        # an edge is a Const node
        touched = set(edges).union(*edges.values())
        consts = sorted((u for u in touched if isinstance(u, Const)), key=_VALUE)
        for c1, c2 in zip(consts, consts[1:]):
            edges.setdefault(c1, set()).add(c2)
        state: dict[Term, int] = {}

        def dfs(u: Term) -> bool:
            state[u] = 1
            for w in edges.get(u, ()):
                s = state.get(w, 0)
                if s == 1:
                    return False
                if s == 0 and not dfs(w):
                    return False
            state[u] = 2
            return True

        return all(state.get(u, 0) or dfs(u) for u in edges)

    def eliminate_from_conjunct(self, var: str, lits: frozenset[Formula]) -> Formula:
        """exists var: the conjunction of lits, as a quantifier-free formula.

        An equality on var substitutes its other side everywhere (the least
        such literal by key).  Otherwise every lower bound of var is put
        below every upper bound, as the order is dense, and a != on var is
        dropped, as every region holds infinitely many atoms."""
        v = Var(var)
        for lit in sorted(lits, key=lambda l: l.key):
            if isinstance(lit, Rel) and lit.name == "=" and v in lit.args:
                other = lit.args[1] if lit.args[0] == v else lit.args[0]
                return land(
                    *(self._subst_literal(l, var, other) for l in lits if l is not lit)
                )
        lowers: list[Term] = []
        uppers: list[Term] = []
        keep: list[Formula] = []
        for lit in lits:
            if var not in free_vars(lit):
                keep.append(lit)
                continue
            if isinstance(lit, Not):
                continue
            if lit.name == "<":
                a, b = lit.args
                if b == v:
                    lowers.append(a)
                else:
                    uppers.append(b)
        for l in lowers:
            for u in uppers:
                keep.append(self.normalize_literal("<", (l, u), True))
        return land(*keep)

    def _subst_literal(self, lit: Formula, var: str, term: Term) -> Formula:
        positive = isinstance(lit, Rel)
        rel = lit if positive else lit.body
        args = tuple(term if t == Var(var) else t for t in rel.args)
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
        if not self.conjunct_consistent(lits):
            return None
        fixed = list(lits)
        flat, members, _ = pinned_classes(fixed + [eq(Var(v), Var(v)) for v in fvs])
        value: dict[Term, Atom] = {}
        heads: list[Var] = []
        for cls, mem in members.items():
            consts = [m.value for m in mem if isinstance(m, Const)]
            if consts:
                value[cls] = consts[0]
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
                pin = eq(head, Const(c))
                if self.conjunct_consistent(frozenset((*fixed, pin))):
                    break
            else:
                return None
            fixed.append(pin)
            value[flat[head]] = c
        return {v: value[flat[Var(v)]] for v in fvs}

    def _witness_candidates(self, landmarks: list[Atom]):
        """Values offered to a witness class after the parameters and the
        values already taken: at least one in every region over the sorted
        `landmarks`, none of them a landmark.  May be infinite."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # quantifier elimination

    def qe(self, f: Formula) -> Formula:
        """Equivalent quantifier-free formula; parameters never grow.

        Results are memoised in `_qe_cache`, one entry per miss, keyed by
        the formula node itself: its hash and key are cached on the node, so
        a lookup costs one hash read, plus one key comparison on a hit."""
        hit = self._qe_cache.get(f)
        if hit is not None:
            return hit
        self.validate(f, internal=True)
        out = self._eliminate(self._norm(nnf(self.pre_transform(f))))
        self._qe_cache[f] = out
        return out

    def _eliminate(self, f: Formula) -> Formula:
        if isinstance(f, (Top, Bot, Rel, Not)):
            return f
        if isinstance(f, And):
            return land(*(self._eliminate(g) for g in f.args))
        if isinstance(f, Or):
            return lor(*(self._eliminate(g) for g in f.args))
        if isinstance(f, Exists):
            return self._exists(f.var, self._eliminate(f.body))
        if isinstance(f, Forall):
            inner = self._eliminate(f.body)
            neg = self._norm(nnf(lnot(inner)))
            return self._norm(nnf(lnot(self._exists(f.var, neg))))
        raise TypeError(f"not a formula: {f!r}")

    def _exists(self, var: str, f: Formula) -> Formula:
        """Eliminate one existential from a quantifier-free formula."""
        if var not in free_vars(f):
            return f
        if isinstance(f, Or):
            return lor(*(self._exists(var, d) for d in f.args))
        if isinstance(f, And):
            outside = [g for g in f.args if var not in free_vars(g)]
            if outside:
                inside = [g for g in f.args if var in free_vars(g)]
                return land(*outside, self._exists(var, land(*inside)))
        return lor(
            *(self.eliminate_from_conjunct(var, c) for c in self.conjuncts(f))
        )

    def conjuncts(self, f: Formula) -> list[frozenset[Formula]]:
        """Disjunctive normal form as literal sets, theory-pruned."""
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
            return out
        if isinstance(f, And):
            acc: list[frozenset[Formula]] = [frozenset()]
            for g in f.args:
                branches = self.conjuncts(g)
                nxt = []
                seen = set()
                for c in acc:
                    for b in branches:
                        u = c | b
                        if u in seen:
                            continue
                        seen.add(u)
                        if self._conjunct_ok(u):
                            nxt.append(u)
                acc = nxt
                if not acc:
                    return []
            return acc
        raise TypeError(f"unexpected in DNF conversion: {f!r}")

    def _conjunct_ok(self, lits: frozenset[Formula]) -> bool:
        # a literal and its complement meet exactly when some negated
        # literal's body is in the set too
        for lit in lits:
            if isinstance(lit, Not) and lit.body in lits:
                return False
        return self.conjunct_consistent(lits)

    # ------------------------------------------------------------------
    # satisfiability and witnesses

    def sat(self, f: Formula, valuation: Valuation) -> bool:
        """Truth of f under a valuation covering its free variables."""
        missing = free_vars(f) - set(valuation)
        if missing:
            raise ValuationError(
                f"valuation misses variables: {', '.join(sorted(missing))}"
            )
        for v in valuation.values():
            self.check_atom(v)
        q = self.qe(f)
        g = subst(q, {k: Const(v) for k, v in valuation.items() if k in free_vars(q)})
        g = self._norm(g)
        if isinstance(g, Top):
            return True
        if isinstance(g, Bot):
            return False
        raise AssertionError(f"ground formula did not fold: {g!r}")

    def holds(self, sentence: Formula) -> bool:
        return self.sat(sentence, {})

    def find_witness(self, f: Formula) -> Valuation | None:
        """Deterministic satisfying valuation, or None.

        Preference order: parameter atoms of the formula first, then the
        canonical fresh choice of the backend (least unused id for the pure
        set, simplest rational in the leftmost feasible gap for the orders).
        """
        q = self.qe(f)
        fvs = sorted(free_vars(f))
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

    def types_with_reps(self, variables: tuple[str, ...], params: frozenset[Atom]) -> list[TypeInfo]:
        """Every complete type of `variables` over `params`, each with one
        realization, in a fixed order: partitions of the variables into
        blocks, then anchor choices, then the backend's free-block values."""
        svals = sorted(params)
        out = []
        for blocks in set_partitions(tuple(variables)):
            for anchors in _anchor_choices(len(blocks), svals):
                for free in self._free_block_values(anchors.count(None), svals):
                    fresh = iter(free)
                    block_values = [a if a is not None else next(fresh) for a in anchors]
                    row = {v: a for block, a in zip(blocks, block_values) for v in block}
                    values = tuple(row[v] for v in variables)
                    formula = self.type_of(variables, values, params)
                    out.append(TypeInfo(formula, tuple(sorted(row.items()))))
        return out

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
        avoid svals; this order decides the order of `types_with_reps`."""
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

    def independent_atoms(self, params: frozenset[Atom], n: int) -> tuple[Atom, ...]:
        raise NotImplementedError

    def independence_formula(self, var: str, avoid: frozenset[Atom], keep: frozenset[Atom]) -> Formula:
        """Constraint placing `var` inside a self-embedding image that avoids
        `avoid` except for the pinned atoms `keep`."""
        raise NotImplementedError


def pinned_classes(lits) -> tuple[dict[Term, Term], dict[Term, set], bool]:
    """Union-find over the terms of equality literals.

    Returns (find-map as parent pointers flattened, class->members, ok) where
    ok is False when two distinct constants were merged.
    """
    parent: dict[Term, Term] = {}

    def find(t: Term) -> Term:
        parent.setdefault(t, t)
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    def union(a: Term, b: Term) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            # keep constants as class representatives when present
            if isinstance(rb, Const):
                ra, rb = rb, ra
            parent[rb] = ra

    ok = True
    for lit in lits:
        if isinstance(lit, Rel) and lit.name == "=":
            union(lit.args[0], lit.args[1])
    members: dict[Term, set] = {}
    for t in list(parent):
        members.setdefault(find(t), set()).add(t)
    for root, mem in members.items():
        consts = {m.value for m in mem if isinstance(m, Const)}
        if len(consts) > 1:
            ok = False
    flat = {t: find(t) for t in parent}
    return flat, members, ok
