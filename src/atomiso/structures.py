"""Relational structures over definable universes.

A structure carries a universe expression, plain relation symbols, and
indexed families of unary-or-wider relations; family members are stored as
flat tuples whose first component is the index.  Structures serialize to a
small JSON document holding expressions in concrete syntax.

`MODES` says what a map of each search mode must be: an isomorphism is
injective and surjective, an embedding injective, a homomorphism neither;
a map that must be injective must also reflect every symbol.
`check_isomorphism` checks a map of any mode orbit by orbit.  With S the
atoms of both structures and of the map, the map commutes with every
automorphism fixing S, so a property those automorphisms preserve holds
everywhere once it holds at one representative of each S-orbit:
`algebra.fn_validate` and `algebra.fn_check` decide containment in
dom x cod, functional, injective, total and surjective at orbit
representatives, and `transports_symbols` maps each tuple of
`transport_reps` by `fn_apply` and tests the image's membership in the
counterpart.  `transport_reps` is the one list of tuples a map must carry,
one per S-orbit of every symbol's interpretation, and `carried` the one
step that carries a tuple: the search's pruning in engine.py runs both on
the pieces of a partial map.  `validate_structure` works at the orbit
representatives too, over the atoms a command's search (or first final
check) decomposes over, so both read one decomposition per symbol.
"""

import json
from dataclasses import dataclass, field

from .algebra import (
    DefFunction,
    fn_apply,
    fn_check,
    fn_inverse,
    fn_validate,
    is_member,
    orbit_decomposition,
    set_equal,
)
from .compile import Compiler, question
from .errors import DomainError, ValidationError
from .exprs import ETuple, Expr, expr_params
from .parser import parse, print_expr
from .theories import get_backend

MAX_ARITY = 4

#: search mode -> (injective, surjective) of the maps it looks for
MODES = {"iso": (True, True), "emb": (True, False), "hom": (False, False)}


def mode_kind(mode: str) -> tuple[bool, bool]:
    """`MODES[mode]`; ValidationError for an unknown mode."""
    if mode not in MODES:
        raise ValidationError(f"unknown search mode {mode!r}")
    return MODES[mode]


@dataclass(frozen=True)
class RelationSymbol:
    name: str
    arity: int
    interp: Expr


@dataclass(frozen=True)
class FamilySymbol:
    """A family of relations sharing one name, indexed by the elements of a
    definable set.  The interpretation is a set of (1+arity)-tuples whose
    head is the index."""

    name: str
    arity: int
    index_set: Expr
    interp: Expr


@dataclass(frozen=True)
class Structure:
    """A universe with relation and family symbols.  Its atoms (`params`)
    are computed once and kept on the instance, outside the compared
    fields, so they live and die with the structure."""

    name: str
    backend_name: str
    universe: Expr
    relations: tuple[RelationSymbol, ...] = ()
    families: tuple[FamilySymbol, ...] = ()
    _params: frozenset | None = field(default=None, init=False, repr=False, compare=False)

    def params(self) -> frozenset:
        """Every atom of the universe and of each symbol's expressions."""
        if self._params is None:
            out = expr_params(self.universe)
            for r in self.relations:
                out |= expr_params(r.interp)
            for f in self.families:
                out |= expr_params(f.index_set) | expr_params(f.interp)
            object.__setattr__(self, "_params", out)
        return self._params


# ---------------------------------------------------------------------------
# JSON


def structure_from_dict(doc: dict) -> Structure:
    doc = _object(doc, "structure document")
    try:
        backend = get_backend(_text(doc, "backend", "structure document"))
        name = _text(doc, "name", "structure document", "structure")
        universe = parse(_text(doc, "universe", "structure document"), backend)
        relations = []
        for r in _objects(doc, "relations"):
            relations.append(
                RelationSymbol(
                    _text(r, "name", "relation"),
                    _arity(r, "relation"),
                    parse(_text(r, "interp", "relation"), backend),
                )
            )
        families = []
        for f in _objects(doc, "families"):
            families.append(
                FamilySymbol(
                    _text(f, "name", "family"),
                    _arity(f, "family"),
                    parse(_text(f, "index", "family"), backend),
                    parse(_text(f, "interp", "family"), backend),
                )
            )
    except KeyError as ex:
        raise ValidationError(f"structure document lacks required field {ex}") from ex
    st = Structure(name, backend.name, universe, tuple(relations), tuple(families))
    _check_shape(st)
    return st


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(
            f"{what} must be a JSON object, not {type(value).__name__}"
        )
    return value


def _text(doc: dict, field: str, what: str, default: str | None = None) -> str:
    """The string `doc[field]`; KeyError when it is missing without default."""
    value = doc[field] if default is None else doc.get(field, default)
    if not isinstance(value, str):
        raise ValidationError(
            f"field {field!r} of a {what} must be a string, not {type(value).__name__}"
        )
    return value


def _objects(doc: dict, field: str) -> list[dict]:
    """The optional list of symbol objects `doc[field]`."""
    value = doc.get(field, [])
    if not isinstance(value, (list, tuple)):
        raise ValidationError(
            f"field {field!r} of a structure document must be an array, "
            f"not {type(value).__name__}"
        )
    return [_object(v, f"each entry of {field!r}") for v in value]


def _arity(sym: dict, what: str) -> int:
    value = sym["arity"]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(
            f"field 'arity' of a {what} must be an integer, not {value!r}"
        )
    return value


def structure_to_dict(st: Structure) -> dict:
    doc = {
        "backend": st.backend_name,
        "name": st.name,
        "universe": print_expr(st.universe),
    }
    doc["relations"] = [
        {"name": r.name, "arity": r.arity, "interp": print_expr(r.interp)}
        for r in st.relations
    ]
    doc["families"] = [
        {
            "name": f.name,
            "arity": f.arity,
            "index": print_expr(f.index_set),
            "interp": print_expr(f.interp),
        }
        for f in st.families
    ]
    return doc


def _load_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as ex:
            # ValueError covers malformed JSON and undecodable bytes
            raise ValidationError(f"{path}: not a JSON document ({ex})") from None


def load_structure(path: str) -> Structure:
    return structure_from_dict(_load_json(path))


def save_structure(st: Structure, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(structure_to_dict(st), fh, indent=2)
        fh.write("\n")


def function_from_dict(doc: dict) -> tuple[str, DefFunction]:
    what = "function document"
    doc = _object(doc, what)
    try:
        backend = get_backend(_text(doc, "backend", what))
        fn = DefFunction(
            parse(_text(doc, "dom", what), backend),
            parse(_text(doc, "cod", what), backend),
            parse(_text(doc, "graph", what), backend),
        )
    except KeyError as ex:
        raise ValidationError(f"function document lacks required field {ex}") from ex
    return backend.name, fn


def function_to_dict(backend_name: str, fn: DefFunction) -> dict:
    return {
        "backend": backend_name,
        "dom": print_expr(fn.dom),
        "cod": print_expr(fn.cod),
        "graph": print_expr(fn.graph),
    }


def load_function(path: str) -> tuple[str, DefFunction]:
    return function_from_dict(_load_json(path))


# ---------------------------------------------------------------------------
# validation


def _check_shape(st: Structure) -> None:
    seen = set()
    for sym in (*st.relations, *st.families):
        if sym.name in seen:
            raise ValidationError(f"symbol {sym.name!r} declared twice")
        seen.add(sym.name)
        if not 1 <= sym.arity <= MAX_ARITY:
            raise ValidationError(
                f"symbol {sym.name!r} has arity {sym.arity}; allowed range is "
                f"1..{MAX_ARITY}"
            )


@question
def validate_structure(comp: Compiler, st: Structure, S=frozenset()) -> None:
    """Containment checks: every interpretation lives in the matching power
    of the universe (with the index set in front for families).  The power
    is invariant under the automorphisms fixing the structure's atoms and S,
    so it holds when each orbit's representative has the symbol's shape and
    its components lie in the universe, or index set, by `is_member`.  A
    command passes as S the atoms its search decomposes over, to share it."""
    if comp.backend.name != st.backend_name:
        raise ValidationError(
            f"structure {st.name!r} targets backend {st.backend_name!r}, "
            f"not {comp.backend.name!r}"
        )
    S = st.params() | frozenset(S)
    for sym in (*st.relations, *st.families):
        if isinstance(sym, FamilySymbol):
            sets, where = [sym.index_set], f"index x universe^{sym.arity}"
        else:
            sets, where = [], f"the {sym.arity}-fold product of the universe"
        sets += [st.universe] * sym.arity
        for orbit in orbit_decomposition(comp, sym.interp, S):
            items = _components(orbit.rep_element(), len(sets))
            if items is None or not all(is_member(comp, x, s) for x, s in zip(items, sets)):
                raise ValidationError(f"interpretation of {sym.name!r} is not contained in {where}")


def _components(x: Expr, n: int) -> list[Expr] | None:
    """The components of the value x as an n-tuple (x itself when n is 1),
    or None when x has another shape."""
    if n == 1:
        return [x]
    return list(x.items) if isinstance(x, ETuple) and len(x.items) == n else None


# ---------------------------------------------------------------------------
# isomorphism checking


@question
def signatures_match(comp: Compiler, A: Structure, B: Structure) -> bool:
    if {(r.name, r.arity) for r in A.relations} != {
        (r.name, r.arity) for r in B.relations
    }:
        return False
    if {(f.name, f.arity) for f in A.families} != {
        (f.name, f.arity) for f in B.families
    }:
        return False
    bidx = {f.name: f.index_set for f in B.families}
    for f in A.families:
        if not set_equal(comp, f.index_set, bidx[f.name]):
            return False
    return True


def require_backend(comp: Compiler, A: Structure, B: Structure) -> None:
    """Raises ValidationError unless both structures use the compiler's
    backend: a verdict of another theory would be no answer."""
    if A.backend_name != comp.backend.name or B.backend_name != comp.backend.name:
        raise ValidationError("structures and compiler use different backends")


@question
def check_isomorphism(
    comp: Compiler, fn: DefFunction, A: Structure, B: Structure, *, mode: str = "iso"
) -> bool:
    """Whether fn is a map of the mode's kind from A to B: by default an
    isomorphism, a bijection between the universes that preserves and
    reflects every symbol; an embedding ('emb') need only be injective, and
    a homomorphism ('hom') need be neither injective nor reflect.  The map
    is validated first (ValidationError), so a malformed map is reported as
    such whatever the structures."""
    injective, surjective = mode_kind(mode)
    require_backend(comp, A, B)
    fn_validate(comp, fn)
    if not signatures_match(comp, A, B):
        return False
    if not set_equal(comp, fn.dom, A.universe):
        return False
    if not set_equal(comp, fn.cod, B.universe):
        return False
    if not fn_check(comp, fn, injective=injective, surjective=surjective):
        return False
    return transports_symbols(comp, fn, A, B, reflect=injective)


def transports_symbols(
    comp: Compiler, fn: DefFunction, A: Structure, B: Structure, *, reflect: bool
) -> bool:
    """Whether fn carries every symbol of A into its namesake in B (and,
    with reflect, every symbol of B back through the inverse graph),
    decided at the tuples of `transport_reps` with S the atoms of A, B and
    fn (`DefFunction.params`): fn then commutes with the automorphisms
    fixing S, and every interpretation is invariant under them, so a tuple
    and its image keep their membership along its orbit.

    Precondition: fn is functional, and injective when reflecting, as
    `check_isomorphism` decides before it transports; the signatures must
    match."""
    S = A.params() | B.params() | fn.params()
    maps = (fn, fn_inverse(fn)) if reflect else (fn,)
    return all(
        carried(comp, head, args, [maps[back]] * len(args), target)
        for back, head, args, target in transport_reps(comp, A, B, S, reflect=reflect)
    )


def transport_reps(comp: Compiler, A: Structure, B: Structure, S, *, reflect: bool):
    """The tuples a map from A to B must carry: for each symbol of A, and
    with reflect then for its namesake in B, `(back, head, args, target)`
    at the representative of every S-orbit of the interpretation.  back
    marks B's tuples, which go back through the inverse; head is a
    family's index (None for a relation), args the arguments, and target
    the other side's interpretation.  A representative of no tuple of the
    symbol's shape is skipped: it is no tuple of domain elements, so it is
    not constrained."""
    for sym in (*A.relations, *A.families):
        sym_b = counterpart(B, sym)
        for back, src, to in [(False, sym, sym_b)] + [(True, sym_b, sym)] * reflect:
            family = isinstance(src, FamilySymbol)
            for orbit in orbit_decomposition(comp, src.interp, S):
                items = _components(orbit.rep_element(), family + src.arity)
                if items is not None:
                    yield back, (items[0] if family else None), items[family:], to.interp


def carried(comp: Compiler, head, args, maps, target: Expr) -> bool:
    """Whether the tuple with family index head (None for a relation) and
    these arguments, its i-th argument mapped by `fn_apply` through
    maps[i], lies in target.  True when an argument lies off its map's
    domain: such a tuple is not constrained.  The one step of transport,
    at the tuples of `transport_reps`, for a whole map
    (`transports_symbols`) and for the pieces of the search's partial maps
    (engine.py)."""
    try:
        image = [fn_apply(comp, f, a) for f, a in zip(maps, args)]
    except DomainError:
        return True
    return is_member(comp, _mk_tuple(head, image), target)


def counterpart(B: Structure, sym):
    """The symbol of B named like sym."""
    return next(s for s in (*B.relations, *B.families) if s.name == sym.name)


def _mk_tuple(head, items: list[Expr]) -> Expr:
    parts = ([head] if head is not None else []) + items
    if len(parts) == 1:
        return parts[0]
    return ETuple(tuple(parts))
