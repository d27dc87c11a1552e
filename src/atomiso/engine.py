"""Search for definable isomorphisms and removal of unneeded parameters.

The search works orbit by orbit.  Any definable bijection restricts, on each
orbit of the domain universe, to the graph of a bijection onto one orbit of
the target universe, and that restriction is itself a single orbit of pairs.
Such a piece is pinned down by where it sends one representative x0, and the
image y0 must be fixed by every automorphism fixing the anchor: x0's least
support with the allowed parameters.  When every clause of the target
universe shows all its binders, through tuples and finite set literals such
as `{a, b}`, those images are written down, as the rows of
`base.pinned_reps` that a clause's guard admits, once per value: such an
element is fixed exactly when every binder takes an anchor value.
Otherwise the target is decomposed over the anchor and
`algebra.supported_by` filters the representatives.  Enumerating those
finitely many candidate images yields every piece, and `algebra.orbit_index`
finds the target orbit of each kept one; a backtracking perfect matching
over pieces, pruned by per-symbol compatibility checks, then decides
existence.

A candidate piece is kept when it is functional, and injective if the mode
needs it, at its representative pair (x0, y0).  When x0 is flat (atoms and
tuples only) the piece is functional, and with a flat y0 it is injective
exactly when T and the atoms of y0 support x0: no sentence
(`_flat_piece_determined`).  Otherwise the `algebra.determined` kernel of
`fn_check` decides, on the piece's clause and the fixed pair.  The piece's
clause, `algebra.orbit_expression`, is written only when a check needs it
or the piece is kept.  The pieces assigned so far form a partial map, kept
in place as one dict per side from orbit index to piece, and pruned at the
tuples of `structures.transport_reps` with S = T (reflecting, also B's)
whose arguments they cover: `structures.carried`, the transport step of the
final check, over the same list of tuples.  One pair or representative
decides its orbit because orbits are transitive under the parameter-fixing
automorphisms and every set in play is invariant.  Each assembled candidate
is then verified in full by `structures.check_isomorphism` with the mode,
orbit by orbit and with no orbit pruned: the same `determined` kernel at
the representative of every orbit of its graph, and `carried` at every
tuple of `transport_reps` over the atoms of the structures and the graph.
What each mode requires, injective and surjective, is read from
`structures.MODES` (`mode_kind`).
"""

from dataclasses import dataclass, field

from .algebra import (
    DefFunction,
    _flat,
    _shape,
    determined,
    fn_apply,
    fn_inverse,
    least_support,
    orbit_decomposition,
    orbit_expression,
    orbit_index,
    supported_by,
)
from .compile import Compiler, question
from .errors import (
    DensenessError,
    DomainError,
    EliminationError,
    ResourceError,
    ValidationError,
)
from .exprs import ETuple, Expr, SetComp, clauses, expr_params, instantiate, union_of
from .structures import (
    Structure,
    carried,
    check_isomorphism,
    function_to_dict,
    mode_kind,
    require_backend,
    signatures_match,
    transport_reps,
)
from .theories.base import pinned_reps
from .theories.formulas import TRUE, format_atom_value, land

DEFAULT_BUDGET = 1 << 16

FOUND = "FOUND"
NOT_FOUND = "NOT_FOUND"
NOT_FOUND_INCOMPLETE = "NOT_FOUND_INCOMPLETE"


@dataclass(frozen=True)
class GraphPiece:
    """One candidate orbit of pairs: the T-orbit of (x0, y0), a bijection
    from the a_index-th domain orbit onto the b_index-th target orbit."""

    expr: Expr
    x0: Expr
    y0: Expr
    a_index: int
    b_index: int


@dataclass
class Certificate:
    verdict: str
    witness: DefFunction | None
    params: tuple
    stats: dict
    caveat: str | None = None

    def to_dict(self, backend_name: str) -> dict:
        out = {
            "verdict": self.verdict,
            "params": [format_atom_value(a) for a in self.params],
            "stats": self.stats,
        }
        if self.witness is not None:
            out["witness"] = function_to_dict(backend_name, self.witness)
        if self.caveat:
            out["caveat"] = self.caveat
        return out


# ---------------------------------------------------------------------------
# piece enumeration


def enumerate_pieces(
    comp: Compiler,
    A: Structure,
    B: Structure,
    T: frozenset,
    *,
    injective: bool = True,
    budget: int = DEFAULT_BUDGET,
):
    """All functional (optionally also injective) orbit graph pieces between
    the universes, grouped by domain orbit index.  The candidate images of
    a domain representative x0 are the values of B's universe that every
    automorphism fixing the anchor, T with the least support of x0, fixes:
    `_candidate_images`, in the order of the universe's orbits over the
    anchor."""
    a_orbits = orbit_decomposition(comp, A.universe, T)
    b_orbits = orbit_decomposition(comp, B.universe, T)
    pieces: list[GraphPiece] = []
    examined = 0
    for i, oa in enumerate(a_orbits):
        x0 = oa.rep_element()
        anchor = T | least_support(comp, x0)
        for y0 in _candidate_images(comp, B.universe, anchor):
            examined += 1
            if examined > budget:
                raise ResourceError(
                    f"piece enumeration exceeded the budget of {budget}",
                    count=examined,
                )
            pair = ETuple((x0, y0))
            piece_expr = None
            # across the orbit of pairs, the component `by` at its value in
            # (x0, y0) forces the other one: functional, then injective
            for by in (0, 1)[: 1 + injective]:
                ok = _flat_piece_determined(comp, T, x0, y0, by)
                if ok is None:
                    if piece_expr is None:
                        piece_expr = orbit_expression(comp, pair, T)
                    # the clause comes first, so it keeps its names
                    # (`breach_block`)
                    ok = determined(comp, (piece_expr.clauses[0], SetComp(pair, (), TRUE)), by)
                if not ok:
                    break
            else:
                if piece_expr is None:
                    piece_expr = orbit_expression(comp, pair, T)
                pieces.append(GraphPiece(piece_expr, x0, y0, i, orbit_index(comp, y0, b_orbits)))
    return pieces, a_orbits, b_orbits


def _flat_piece_determined(comp: Compiler, T: frozenset, x0: Expr, y0: Expr, by: int):
    """The piece check at (x0, y0) where flat values settle it with no
    sentence, else None.  When x0 is flat, its atoms lie in its least
    support and so in the anchor that fixes every candidate y0: the piece
    is functional.  When y0 is flat too, a T-automorphism fixes y0 exactly
    when it fixes the atoms of y0, so the piece is injective exactly when
    those and T support x0, which `supported_by` settles from the atoms of
    x0 alone."""
    if not _flat(x0):
        return None
    if by == 0:
        return True
    if not _flat(y0):
        return None
    return supported_by(comp, x0, T | expr_params(y0))


def _candidate_images(comp: Compiler, U: Expr, anchor: frozenset):
    """Each value of U that every automorphism fixing the anchor fixes,
    once, in the order of `orbit_decomposition(comp, U, anchor)`.

    Such a value is an orbit of its own, so it is the representative of
    the first orbit candidate (clause, then type over the anchor in
    `type_reps` order) that yields it.  When every clause's element shows
    all its binders (`algebra._shape`), through tuples and finite set
    literals, the element is fixed exactly when every binder takes an
    anchor value (the atoms it shows lie in every support, as
    `supported_by` argues, and the clause's own atoms lie in T), so the
    candidates are the `pinned_reps` rows that the guard admits,
    deduplicated by value across clauses and rows: `{a, b}` gives one
    image at (#1, #2) and at (#2, #1).  Otherwise the universe is
    decomposed over the anchor and `supported_by` filters the
    representatives."""
    cs = clauses(U)
    if not all([_shape(c.element, c.binders) for c in cs]):
        for o in orbit_decomposition(comp, U, anchor):
            y0 = o.rep_element()
            if supported_by(comp, y0, anchor):
                yield y0
        return
    seen = set()
    for c in cs:
        for values in pinned_reps(c.binders, anchor):
            row = dict(zip(c.binders, values))
            if not comp.backend.sat(c.guard, row):
                continue
            y0 = instantiate(c.element, row)
            # instantiation builds literals in canonical form, so equal
            # values have equal keys
            if y0.key in seen:
                continue
            seen.add(y0.key)
            yield y0


# ---------------------------------------------------------------------------
# per-symbol compatibility of partial maps


class _MorphismChecker:
    """Checks that the partial map the assigned pieces form carries each
    symbol, at the tuples of `structures.transport_reps` with S = T (with
    reflect, B's through the inverse pieces), by the step `carried` of the
    final check.  A piece maps one T-orbit of a universe onto one of the
    other, and every set in play is T-invariant, so the representative
    decides its orbit.  A tuple is checked once pieces cover the orbits of
    all its arguments; one with an argument outside the universe is not
    constrained."""

    def __init__(
        self, comp: Compiler, A: Structure, B: Structure, T, a_orbits, b_orbits, reflect: bool
    ):
        self.comp = comp
        self.universes = (A.universe, B.universe)
        # (reflected, universe orbit) -> the checks with an argument there,
        # each (head, arguments, target, the arguments' orbits)
        self.checks: dict[tuple, list] = {}
        orbits = (a_orbits, b_orbits)
        for back, head, args, target in transport_reps(comp, A, B, T, reflect=reflect):
            where = [orbit_index(comp, a, orbits[back]) for a in args]
            if None in where:  # an argument off the universe
                continue
            check = (head, args, target, where)
            for i in set(where):
                self.checks.setdefault((back, i), []).append(check)
        self.cache: dict[tuple, bool] = {}

    def compatible_with(self, at: tuple[dict, dict], new: GraphPiece) -> bool:
        """Every check at the new piece's orbits whose arguments the partial
        map `at` covers, cached per check and pieces.  at[0] maps A's orbit
        indices to their pieces, new among them, and with reflect at[1]
        maps B's."""
        for back, index in ((False, new.a_index), (True, new.b_index)):
            by = at[back]
            for check in self.checks.get((back, index), ()):
                head, args, target, where = check
                if not all(i in by for i in where):
                    continue
                pieces = [by[i] for i in where]
                key = (id(check), *map(id, pieces))
                ok = self.cache.get(key)
                if ok is None:
                    maps = [DefFunction(*self.universes, p.expr) for p in pieces]
                    maps = [fn_inverse(f) for f in maps] if back else maps
                    ok = self.cache[key] = carried(self.comp, head, args, maps, target)
                if not ok:
                    return False
        return True


# ---------------------------------------------------------------------------
# the search


@question
def find_definable_map(
    comp: Compiler,
    A: Structure,
    B: Structure,
    T,
    *,
    mode: str = "iso",
    budget: int = DEFAULT_BUDGET,
) -> Certificate:
    """Search for a T-definable isomorphism (mode 'iso'), embedding ('emb'),
    or homomorphism ('hom') from A to B.

    FOUND answers carry a verified witness and are exact in every mode.
    Negative answers are exact only for 'iso' over a backend with dense
    supports; otherwise they are reported as NOT_FOUND_INCOMPLETE.
    """
    injective, surjective = mode_kind(mode)
    T = _require_structure_atoms(comp, A, B, T)
    stats = {"orbits_a": 0, "orbits_b": 0, "pieces": 0, "candidates": 0}

    def negative() -> Certificate:
        if mode != "iso" or not comp.backend.dense:
            caveat = (
                "the search only rules out maps assembled from orbit-graph "
                "pieces; other definable maps of this mode may exist"
                if mode != "iso"
                else "negative answers are not conclusive over this backend"
            )
            return Certificate(NOT_FOUND_INCOMPLETE, None, tuple(sorted(T)), stats, caveat)
        return Certificate(NOT_FOUND, None, tuple(sorted(T)), stats)

    if not signatures_match(comp, A, B):
        return Certificate(NOT_FOUND, None, tuple(sorted(T)), stats)

    pieces, a_orbits, b_orbits = enumerate_pieces(
        comp, A, B, T, injective=injective, budget=budget
    )
    stats["orbits_a"] = len(a_orbits)
    stats["orbits_b"] = len(b_orbits)
    stats["pieces"] = len(pieces)

    # every piece maps one orbit onto one orbit
    if injective and len(a_orbits) > len(b_orbits):
        return negative()
    if surjective and len(a_orbits) < len(b_orbits):
        return negative()

    by_a: dict[int, list[GraphPiece]] = {}
    for p in pieces:
        by_a.setdefault(p.a_index, []).append(p)
    if any(i not in by_a for i in range(len(a_orbits))):
        return negative()

    # larger types first; ties broken by orbit index for determinism
    order = sorted(
        range(len(a_orbits)),
        key=lambda i: (-len(str(a_orbits[i].type_formula.key)), i),
    )
    checker = _MorphismChecker(comp, A, B, T, a_orbits, b_orbits, reflect=injective)

    # the partial map: A's orbit index -> its piece, in the order assigned
    # (the witness's clause order), and in an injective mode B's orbit
    # index -> the piece onto it
    at: tuple[dict, dict] = ({}, {})

    def matchings(k: int):
        if k == len(order):
            yield list(at[0].values())
            return
        i = order[k]
        for p in by_a[i]:
            if p.b_index in at[1]:
                continue
            at[0][i] = p
            if injective:
                at[1][p.b_index] = p
            if checker.compatible_with(at, p):
                yield from matchings(k + 1)
            at[1].pop(p.b_index, None)
        at[0].pop(i, None)

    mismatch = False
    for solution in matchings(0):
        stats["candidates"] += 1
        if stats["candidates"] > budget:
            raise ResourceError(
                f"candidate verification exceeded the budget of {budget}",
                count=stats["candidates"],
            )
        witness = DefFunction(
            A.universe, B.universe, union_of(*(p.expr for p in solution))
        )
        if check_isomorphism(comp, witness, A, B, mode=mode):
            return Certificate(FOUND, witness, tuple(sorted(T)), stats)
        # pruning should never let a bad candidate through; if it does,
        # keep searching but remember the answer may not be conclusive
        mismatch = True
    if mismatch:
        return Certificate(
            NOT_FOUND_INCOMPLETE,
            None,
            tuple(sorted(T)),
            stats,
            caveat="a candidate failed final verification; result inconclusive",
        )
    return negative()


@question
def decide_definable_iso(
    comp: Compiler,
    A: Structure,
    B: Structure,
    extra_params=(),
    *,
    mode: str = "iso",
    budget: int = DEFAULT_BUDGET,
) -> Certificate:
    """Decide existence of a definable isomorphism using the structures' own
    atoms plus any explicitly allowed extra ones."""
    T = A.params() | B.params() | frozenset(extra_params)
    return find_definable_map(comp, A, B, T, mode=mode, budget=budget)


# ---------------------------------------------------------------------------
# parameter elimination for isomorphisms


@dataclass
class SmoothingStep:
    side: str  # 'dom' when the orbit was picked in A, 'cod' for B
    a_index: int
    b_index: int
    x0: Expr
    exit_value: Expr
    walk: list


@dataclass
class SmoothingReport:
    steps: list = field(default_factory=list)
    walk_bound: int = 0


@question
def eliminate_parameters(
    comp: Compiler,
    fn: DefFunction,
    A: Structure,
    B: Structure,
    T=(),
) -> tuple[DefFunction, SmoothingReport]:
    """Rebuild an isomorphism using only the parameters in T, given one that
    may use more.

    Works one universe orbit at a time, highest support dimension first.
    For the chosen orbit, of A or of B, a representative is picked whose
    support is, apart from T, independent of every parameter in play.  One
    walk serves both sides: it follows the given map (from B, its inverse)
    forward and the partial result backward until `fn_apply` of the latter
    raises `DomainError`, i.e. until it leaves the covered region, which it
    must within finitely many steps.  The orbit of the (start, exit) pair
    is the next graph piece."""
    backend = comp.backend
    if not backend.dense:
        raise DensenessError(
            f"the {backend.name} backend has no region-avoiding self-embedding, "
            "so parameter elimination is unavailable"
        )
    T = _require_structure_atoms(comp, A, B, T)
    if not check_isomorphism(comp, fn, A, B):
        raise ValidationError("the given function is not an isomorphism")

    S = T | expr_params(fn.graph)
    a_orbits = orbit_decomposition(comp, A.universe, T)
    b_orbits = orbit_decomposition(comp, B.universe, T)
    if len(a_orbits) != len(b_orbits):
        raise EliminationError(
            "an isomorphism exists yet the universes have different orbit counts"
        )
    report = SmoothingReport()
    report.walk_bound = 1 + max(
        len(orbit_decomposition(comp, U, S)) for U in (B.universe, A.universe)
    )

    # per side, 0 for A and 1 for B: its orbits and the map walking forward
    # from them
    orbits = (a_orbits, b_orbits)
    forward = (fn, fn_inverse(fn))
    dims = [[len(least_support(comp, o.rep_element())) for o in os] for os in orbits]
    remaining = [set(range(len(os))) for os in orbits]
    graph_pieces: list[Expr] = []

    for _ in range(len(a_orbits)):
        # highest dimension first, then the domain side, then the index
        _, side, idx = min((-dims[s][i], s, i) for s in (0, 1) for i in remaining[s])
        other = 1 - side
        h_cur = DefFunction(A.universe, B.universe, union_of(*graph_pieces))
        # the partial result, from the other side back to this one
        back = h_cur if side else fn_inverse(h_cur)

        x0 = _independent_representative(comp, orbits[side][idx], S, T)
        walk = []
        x = x0
        while True:
            y = fn_apply(comp, forward[side], x)
            walk.append((x, y))
            if len(walk) > report.walk_bound:
                raise EliminationError("the forward walk failed to terminate")
            try:
                x = fn_apply(comp, back, y)
            except DomainError:  # y leaves the region already covered
                break
        exit_value = walk[-1][1]

        there = orbit_index(comp, exit_value, orbits[other])
        if there is None:
            raise EliminationError("the walk exited off the other universe")
        if there not in remaining[other]:
            raise EliminationError("the walk exited into an orbit already covered")
        remaining[side].discard(idx)
        remaining[other].discard(there)
        index = {side: idx, other: there}
        value = {side: x0, other: exit_value}
        graph_pieces.append(orbit_expression(comp, ETuple((value[0], value[1])), T))
        report.steps.append(
            SmoothingStep(("dom", "cod")[side], index[0], index[1], x0, exit_value, walk)
        )

    h = DefFunction(A.universe, B.universe, union_of(*graph_pieces))
    if not check_isomorphism(comp, h, A, B):
        raise EliminationError("the rebuilt map is not an isomorphism")
    return h, report


def _independent_representative(comp: Compiler, orbit, S: frozenset, T: frozenset):
    (c,) = orbit.piece().clauses
    constraints = [c.guard]
    for b in c.binders:
        constraints.append(comp.backend.independence_formula(b, S, T))
    # a binder drops out of the constraints only when S is empty, where
    # independence is vacuous and any value will do
    witness = comp.backend.find_witness(land(*constraints), c.binders)
    if witness is None:
        raise EliminationError(
            "no orbit representative independent of the parameters exists"
        )
    return instantiate(c.element, {b: witness[b] for b in c.binders})


def _require_structure_atoms(comp: Compiler, A: Structure, B: Structure, T) -> frozenset:
    """T as a frozenset; raises ValidationError unless both structures use
    the compiler's backend and T contains every atom of both."""
    require_backend(comp, A, B)
    T = frozenset(T)
    missing = (A.params() | B.params()) - T
    if missing:
        names = ", ".join(format_atom_value(a) for a in sorted(missing))
        raise ValidationError(
            f"parameter set must contain the structures' atoms; missing: {names}"
        )
    return T
