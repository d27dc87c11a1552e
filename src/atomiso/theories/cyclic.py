"""The circular-order backend: rational atoms with a ternary betweenness
relation R, where R(a,b,c) holds when b lies on the arc from a to c taken
counterclockwise (equivalently a<b<c up to rotation of the three).

R stays a literal through normalization, rotated so that its least
argument comes first, and elimination cuts the circle open lazily: a
literal R(a,b,c) is unfolded into its three linear readings, and
not R(a,b,c) into a=b, b=c, a=c or the readings of R(a,c,b), only where
one of its variables is eliminated or a DNF decides (`Backend.deferred`),
so the dense-linear machinery does the rest.  The complete-type hooks use
only R and equality, so orbit formulas never mention <.  The circle is not
dense in the sense parameter elimination needs (no self-embedding misses a
point of every arc), so `independence_formula` raises DensenessError.
"""

import math
from fractions import Fraction

from ..errors import DensenessError
from .base import GROUND
from .formulas import (
    FALSE,
    TRUE,
    Const,
    Formula,
    Not,
    Rel,
    Term,
    Var,
    cyc,
    land,
    lor,
    ne,
)
from .dlo import DloBackend, _spread


class CyclicBackend(DloBackend):
    name = "cyclic"
    relations = {"=": 2, "R": 3}
    # elimination cuts the circle open, so its own output uses the linear order
    work_relations = {"<": 2, "<=": 2}
    deferred = frozenset({"R"})
    dense = False

    # -- R ------------------------------------------------------------------

    def normalize_literal(self, name: str, args: tuple[Term, ...], positive: bool) -> Formula:
        """R(a, b, c) folds to FALSE with a repeated argument and by its
        ground truth with constant ones, and otherwise rotates to begin at
        its least argument by key; the other relations as over the dense
        order."""
        if name != "R":
            return super().normalize_literal(name, args, positive)
        a, b, c = args
        if a == b or b == c or a == c:
            return FALSE if positive else TRUE
        if all(isinstance(t, Const) for t in args):
            return TRUE if GROUND["R"](a.value, b.value, c.value) == positive else FALSE
        i = min(range(3), key=lambda i: args[i].key)
        lit = Rel("R", args[i:] + args[:i])
        return lit if positive else Not(lit)

    def unfold_literal(self, name: str, args: tuple[Term, ...], positive: bool) -> Formula:
        """R(a, b, c) as its three linear readings; not R(a, b, c) as two of
        its arguments meeting or the readings of R(a, c, b), six disjuncts
        of at most two literals."""
        a, b, c = args
        if not positive:
            return lor(
                *(self.normalize_literal("=", pair, True) for pair in ((a, b), (b, c), (a, c))),
                self.unfold_literal(name, (a, c, b), True),
            )

        def lt(x: Term, y: Term) -> Formula:
            return self.normalize_literal("<", (x, y), True)

        return lor(
            land(lt(a, b), lt(b, c)),
            land(lt(b, c), lt(c, a)),
            land(lt(c, a), lt(a, b)),
        )

    def _holds_at(self, f: Formula, valuation) -> bool:
        """An R literal, which the shared walk's binary case does not read,
        by `GROUND`; any other node as the shared walk does."""
        rel = f.body if type(f) is Not else f
        if type(rel) is Rel and rel.name == "R":
            values = [valuation[t.name] if isinstance(t, Var) else t.value for t in rel.args]
            return GROUND["R"](*values) == (rel is f)
        return super()._holds_at(f, valuation)

    # -- types -------------------------------------------------------------

    def _free_block_values(self, k, svals):
        if svals:
            # arc g runs from svals[g] to the next anchor; the last one wraps
            yield from _spread(k, [*svals, None])
        elif k:
            # without anchors the first free block is the base point 0
            for rest in _spread(k - 1, [Fraction(0), None]):
                yield (Fraction(0), *rest)
        else:
            yield ()

    def _free_block_literals(self, free, svals):
        if not svals:
            # arrangements around the first free head, which no literal pins
            if not free:
                return []
            if len(free) == 2:
                return [ne(free[0][1], free[1][1])]
            (base, z0), rest = free[0], free[1:]
            return self._open_arc_literals(z0, _ccw_heads(base, rest), None)
        m = len(svals)
        by_arc: dict[int, list] = {}
        for a, head in free:
            by_arc.setdefault(_arc_index(svals, a), []).append((a, head))
        lits = []
        for g, members in by_arc.items():
            # a single anchor leaves one arc, the whole circle minus the anchor
            hi = Const(svals[(g + 1) % m]) if m > 1 else None
            lits += self._open_arc_literals(
                Const(svals[g]), _ccw_heads(svals[g], members), hi
            )
        return lits

    def _open_arc_literals(self, lo: Term, heads, hi: Term | None) -> list[Formula]:
        """Pin `heads` in order onto the arc from lo to hi (hi None means the
        arc is the whole circle minus lo)."""
        if not heads:
            return []
        lits = []
        if hi is None and len(heads) == 1:
            return [ne(heads[0], lo)]
        for a, b in zip(heads, heads[1:]):
            lits.append(cyc(lo, a, b))
        if hi is not None:
            lits.append(cyc(lo, heads[-1], hi))
        return lits

    def rn_count(self, n: int) -> int:
        # sum over block counts k of S(n,k) * (k-1)!  (circular arrangements)
        if n == 0:
            return 1
        s = [[0] * (n + 1) for _ in range(n + 1)]
        s[0][0] = 1
        for m in range(1, n + 1):
            for k in range(1, m + 1):
                s[m][k] = k * s[m - 1][k] + s[m - 1][k - 1]
        return sum(s[n][k] * math.factorial(k - 1) for k in range(1, n + 1))

    # -- independence --------------------------------------------------------

    def independence_formula(self, var: str, avoid, keep) -> Formula:
        raise DensenessError(
            "the circular order has no proper self-embedding avoiding a region, "
            "so independence constraints are unavailable"
        )


def _ccw_heads(base, members) -> list:
    """The heads of (value, head) members in counterclockwise order from
    the value `base`, which no member takes."""
    return [head for _, head in sorted(members, key=lambda m: (m[0] < base, m[0]))]


def _arc_index(svals, a) -> int:
    """Index of the anchor arc containing a non-anchor value; the wrap arc
    from svals[-1] around to svals[0] is the last index."""
    m = len(svals)
    if a < svals[0] or a > svals[-1]:
        return m - 1
    g = 0
    while a > svals[g + 1]:
        g += 1
    return g
