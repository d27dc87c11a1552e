"""The dense-linear-order backend: rational atoms with < and <=.

Literal normal form uses only <, =, and != (negations of < and <= are
rewritten at normalization time), the literals the shared conjunct kernel
of base.py works on: consistency is acyclicity of the strict order between
equality classes, and elimination is the classical lower/upper bound
product.  The backend's own hooks are the literal normal form, the witness
candidates (the simplest rational in every gap between the values in play)
and the free blocks of complete types.  Orbit counts of n-tuples are the
ordered Bell numbers.
"""

import itertools
import math
from fractions import Fraction

from ..errors import VocabularyError
from .base import GROUND, Backend, normalize_equality
from .formulas import (
    FALSE,
    TRUE,
    Atom,
    Const,
    Formula,
    Rel,
    Term,
    Var,
    eq,
    format_atom_value,
    land,
    lor,
    lt,
)


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The minimal-denominator rational strictly between lo and hi,
    ties broken toward the least such numerator (Stern-Brocot descent)."""
    if not lo < hi:
        raise ValueError(f"empty interval ({lo}, {hi})")
    if lo < 0 < hi:
        return Fraction(0)
    if hi <= 0:
        return -simplest_between(-hi, -lo)
    fl = lo.numerator // lo.denominator
    if Fraction(fl + 1) < hi:
        return Fraction(fl + 1)
    frac = lo - fl
    if frac == 0:
        k = (Fraction(1) / (hi - fl)).__floor__() + 1
        return fl + Fraction(1, k)
    return fl + 1 / simplest_between(Fraction(1) / (hi - fl), Fraction(1) / frac)


def simplest_above(lo: Fraction) -> Fraction:
    return Fraction(math.floor(lo) + 1)


def simplest_below(hi: Fraction) -> Fraction:
    return Fraction(math.ceil(hi) - 1)


class DloBackend(Backend):
    name = "dlo"
    relations = {"=": 2, "<": 2, "<=": 2}

    # -- atoms ---------------------------------------------------------

    def check_atom(self, a: Atom) -> None:
        if not isinstance(a, Fraction):
            raise VocabularyError(
                f"rational atoms look like 2, -1, or 5/3, got {format_atom_value(a)!r}"
            )

    # -- literals ------------------------------------------------------

    def normalize_literal(self, name: str, args: tuple[Term, ...], positive: bool) -> Formula:
        a, b = args
        if name == "=":
            return normalize_equality(args, positive)
        if name == "<":
            if positive:
                if a == b:
                    return FALSE
                if isinstance(a, Const) and isinstance(b, Const):
                    return TRUE if GROUND["<"](a.value, b.value) else FALSE
                return Rel("<", (a, b))
            return lor(
                self.normalize_literal("<", (b, a), True),
                self.normalize_literal("=", (a, b), True),
            )
        if name == "<=":
            if positive:
                return lor(
                    self.normalize_literal("<", (a, b), True),
                    self.normalize_literal("=", (a, b), True),
                )
            return self.normalize_literal("<", (b, a), True)
        raise VocabularyError(f"relation {name!r} not available over the dense order")

    def _witness_candidates(self, landmarks):
        # the simplest rational in each gap, the open ends included
        if not landmarks:
            return [Fraction(0)]
        out = [simplest_below(landmarks[0])]
        for lo, hi in zip(landmarks, landmarks[1:]):
            out.append(simplest_between(lo, hi))
        out.append(simplest_above(landmarks[-1]))
        return out

    # -- types -----------------------------------------------------------

    def _free_block_values(self, k, svals):
        # gap g lies between svals[g - 1] and svals[g], the outer ones open
        yield from _spread(k, [None, *svals, None])

    def _free_block_literals(self, free, svals):
        # one chain of < per occupied gap, closed by the gap's parameters
        by_gap: dict[int, list] = {}
        for a, head in free:
            by_gap.setdefault(_gap_index(svals, a), []).append((a, head))
        lits = []
        for g, members in by_gap.items():
            heads = [head for _, head in sorted(members, key=lambda m: m[0])]
            if g > 0:
                lits.append(lt(Const(svals[g - 1]), heads[0]))
            lits += [lt(a, b) for a, b in zip(heads, heads[1:])]
            if g < len(svals):
                lits.append(lt(heads[-1], Const(svals[g])))
        return lits

    def rn_count(self, n: int) -> int:
        # ordered Bell numbers
        a = [1] + [0] * n
        for m in range(1, n + 1):
            a[m] = sum(math.comb(m, k) * a[m - k] for k in range(1, m + 1))
        return a[n]

    # -- independence ------------------------------------------------------

    def independence_formula(self, var: str, avoid, keep) -> Formula:
        v = Var(var)
        choices = [eq(v, Const(t)) for t in sorted(keep)]
        for lo, hi in self._region_intervals(avoid, keep):
            parts = []
            if lo is not None:
                parts.append(lt(Const(lo), v))
            if hi is not None:
                parts.append(lt(v, Const(hi)))
            choices.append(land(*parts))
        return lor(*choices)

    def _region_intervals(self, avoid, keep):
        """Per gap of `keep`, one open interval free of `avoid`."""
        pins = sorted(keep)
        others = sorted(set(avoid) - set(keep))
        gaps = []
        bounds = [None] + pins + [None]
        for lo, hi in zip(bounds, bounds[1:]):
            inside = [
                s
                for s in others
                if (lo is None or s > lo) and (hi is None or s < hi)
            ]
            if inside:
                hi = inside[0]
            if lo is not None and hi is not None and not lo < hi:
                continue
            gaps.append((lo, hi))
        return gaps


def _gap_value(lo, hi, pos: int, count: int) -> Fraction:
    if lo is None and hi is None:
        return Fraction(pos + 1)
    if lo is None:
        return hi - (count - pos)
    if hi is None:
        return lo + pos + 1
    return lo + (hi - lo) * Fraction(pos + 1, count + 1)


def _gap_index(svals, a) -> int:
    g = 0
    while g < len(svals) and a > svals[g]:
        g += 1
    return g


def _spread(k: int, bounds: list):
    """Values for k free blocks, one tuple per way to place them in order
    into the open gaps between consecutive `bounds` (None is unbounded)."""
    gaps = len(bounds) - 1
    for assign in itertools.product(range(gaps), repeat=k):
        buckets: list[list[int]] = [[] for _ in range(gaps)]
        for i, g in enumerate(assign):
            buckets[g].append(i)
        for per_gap in itertools.product(*(itertools.permutations(b) for b in buckets)):
            values = [None] * k
            for g, ordered in enumerate(per_gap):
                for pos, i in enumerate(ordered):
                    values[i] = _gap_value(bounds[g], bounds[g + 1], pos, len(ordered))
            yield tuple(values)
