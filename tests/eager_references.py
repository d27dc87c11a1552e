"""References for the support test's one inclusion and for the circle's
lazy R: `two_inclusions_supported_by`, the support sentence as an equality
of x and its moved copy, and `eager_eliminate`, elimination with every R
cut into its linear readings before the normal form, as `eager_readings`
does.

They are kept apart from `oracles.py` because the benchmark imports that
module, so every line there is compiled inside the measured process and
shows in its peak memory.
"""

from atomiso.algebra import _abstracted, _require_closed, _shown_atoms
from atomiso.theories.formulas import Forall, Implies, Rel, land, lor, lt, quantify
from reference_rewrites import reference_map_relations


def eager_readings(rel: Rel):
    """R(a, b, c) as its three linear readings; any other relation atom as
    itself."""
    if rel.name != "R":
        return rel
    a, b, c = rel.args
    return lor(land(lt(a, b), lt(b, c)), land(lt(b, c), lt(c, a)), land(lt(c, a), lt(a, b)))


def eager_eliminate(backend, f):
    """The elimination of f with the circle cut open up front: every R
    replaced by `eager_readings` before the normal form, so no R reaches
    the elimination."""
    return backend._eliminate(backend._nf(reference_map_relations(f, eager_readings)))


def two_inclusions_supported_by(comp, x, S) -> bool:
    """`algebra.supported_by` with the sentence asking that every valuation
    of x's atoms with their type over S gives x again, as an equality, both
    inclusions compiled."""
    _require_closed(x)
    S = frozenset(S)
    if not S.issuperset(_shown_atoms(x)):
        return False
    occs, binders, body = _abstracted(x)
    if S.issuperset(occs):
        return True
    t = comp.backend.type_of(binders, tuple(occs), S.intersection(occs))
    return comp.holds(quantify(Forall, binders, Implies(t, comp.equal(body, x))))
