"""Bracket state sums computed compositionally in the tangle basis.

Every crossing is resolved two ways: a positive crossing smooths
horizontally (E) under an A label and vertically (V) under a B label, a
negative crossing the other way around.  The raw three-variable bracket
is the sum of A^i B^j d^k over all 2^n states, with k the number of
closed loops in the state.

It is computed without visiting the states.  The state sum of a tangle
is f.[E] + g.[V], with f and g polynomials in A, B and d: the connectivity
classes E and V are the tangle basis, and the algebra's table

    E.E = E    E.V = V.E = V    V.V = V plus one closed loop

lifts to coefficients, so one fold over the expression gives

    O -> (A, B)    U -> (B, A)    E -> (1, 0)
    tangle sum  (f1, g1) + (f2, g2) = (f1 f2, f1 g2 + g1 f2 + d g1 g2)
    <...>       swaps f and g
    closure     d^2 f + d g         (E closes to two circles, V to one)

This is Kauffman's state model written in Conway's tangle calculus.
Substituting B = 1/A, d = -A^2 - A^(-2) and dividing once by d gives the
bracket polynomial proper (so the unknot evaluates to 1).  The explicit
enumeration of all 2^n states is kept as state_sum_bracket, the
independent route that tests and `knotalg bracket --verify` compare
against.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from .algebra import ConnClass, closure_count, eval_smoothed
from .errors import CapacityError, ConsistencyError
from .expr import Concat, Cross, CrossingNeg, CrossingPos, Expr, IntTangle, iter_leaves

DEFAULT_MAX_CROSSINGS = 24
_CAP_ENV = "KNOTALG_MAX_CROSSINGS"


def crossing_cap(override: int | None = None) -> int:
    """The state-enumeration cap: explicit override, else the environment, else 24."""
    if override is not None:
        return override
    return int(os.environ.get(_CAP_ENV, DEFAULT_MAX_CROSSINGS))


def expand_crossings(e: Expr) -> Expr:
    """Replace every nonzero integral tangle by a run of explicit crossings."""
    if isinstance(e, IntTangle):
        if e.n == 0:
            return e
        leaf: Expr = CrossingPos() if e.n > 0 else CrossingNeg()
        count = abs(e.n)
        return leaf if count == 1 else Concat((leaf,) * count)
    if isinstance(e, Cross):
        return Cross(expand_crossings(e.inner))
    if isinstance(e, Concat):
        return Concat(tuple(expand_crossings(p) for p in e.parts))
    return e


def crossing_count(e: Expr) -> int:
    """Crossings of the diagram: |n| per integral tangle plus single crossings."""
    total = 0
    for leaf in iter_leaves(e):
        total += abs(leaf.n) if isinstance(leaf, IntTangle) else 1
    return total


def crossing_signs(e: Expr) -> list[int]:
    """Signs of the crossings of expand_crossings(e), in leaf order."""
    signs: list[int] = []
    for leaf in iter_leaves(e):
        if isinstance(leaf, CrossingPos):
            signs.append(+1)
        elif isinstance(leaf, CrossingNeg):
            signs.append(-1)
        elif leaf.n != 0:
            signs.extend([1 if leaf.n > 0 else -1] * abs(leaf.n))
    return signs


def state_string(index: int, n: int) -> str:
    """The index-th state over {A, B}: binary big-endian, A for 0."""
    return format(index, f"0{n}b").translate({ord("0"): "A", ord("1"): "B"}) if n else ""


def smoothing_class(sign: int, label: str) -> ConnClass:
    """Connectivity of one smoothed crossing: A on positive is horizontal."""
    return ConnClass.E if (label == "A") == (sign > 0) else ConnClass.V


class LaurentPoly:
    """Integer-coefficient Laurent polynomial in one variable A."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        self.terms: dict[int, int] = {}
        for exp, coeff in items:
            if coeff:
                self.terms[exp] = self.terms.get(exp, 0) + coeff
                if not self.terms[exp]:
                    del self.terms[exp]

    @classmethod
    def monomial(cls, coeff: int, exp: int = 0) -> "LaurentPoly":
        return cls({exp: coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            out[exp] = out.get(exp, 0) + coeff
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(out)

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative power")
        result = LaurentPoly({0: 1})
        for _ in range(k):
            result = result * self
        return result

    def inverted(self) -> "LaurentPoly":
        """Substitute A -> 1/A."""
        return LaurentPoly({-e: c for e, c in self.terms.items()})

    def divexact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises ConsistencyError on a nonzero remainder."""
        if not divisor:
            raise ZeroDivisionError("division by zero polynomial")
        if not self:
            return LaurentPoly()
        # Shift both to ordinary polynomials so the division terminates.
        shift = min(self.terms) - min(divisor.terms)
        rem = dict(self.terms)
        div_lead_exp = max(divisor.terms)
        div_lead = divisor.terms[div_lead_exp]
        quotient: dict[int, int] = {}
        while rem:
            lead_exp = max(rem)
            q_exp = lead_exp - div_lead_exp
            if q_exp - shift < 0:
                raise ConsistencyError("inexact polynomial division")
            q_coeff, leftover = divmod(rem[lead_exp], div_lead)
            if leftover:
                raise ConsistencyError("inexact polynomial division")
            quotient[q_exp] = q_coeff
            for e, c in divisor.terms.items():
                exp = e + q_exp
                rem[exp] = rem.get(exp, 0) - q_coeff * c
                if not rem[exp]:
                    del rem[exp]
        return LaurentPoly(quotient)

    def to_pairs(self) -> list[tuple[int, int]]:
        """[exponent, coefficient] pairs, descending exponent."""
        return sorted(self.terms.items(), key=lambda item: -item[0])

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for i, (exp, coeff) in enumerate(self.to_pairs()):
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            if exp == 0:
                body = str(mag)
            else:
                var = "A" if exp == 1 else f"A^{exp}"
                body = var if mag == 1 else f"{mag}{var}"
            if i == 0:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f" {sign} {body}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.terms!r})"


_LOOP_POLY = LaurentPoly({2: -1, -2: -1})


@dataclass(frozen=True)
class RawBracket:
    """The state sum as multiplicities of monomials A^i B^j d^k."""

    n: int
    terms: dict[tuple[int, int, int], int] = field(default_factory=dict)

    def multiplicity_total(self) -> int:
        return sum(self.terms.values())

    def specialize(self) -> LaurentPoly:
        """Set B = 1/A, d = -A^2 - A^(-2), divide once by d."""
        powers = {0: LaurentPoly({0: 1})}
        top = max((k for _, _, k in self.terms), default=0)
        for k in range(1, top + 1):
            powers[k] = powers[k - 1] * _LOOP_POLY
        total: dict[int, int] = {}
        for (i, j, k), mult in self.terms.items():
            for exp, coeff in powers[k].terms.items():
                total[i - j + exp] = total.get(i - j + exp, 0) + mult * coeff
        return LaurentPoly(total).divexact(_LOOP_POLY)

    def __str__(self) -> str:
        def factor(sym: str, power: int) -> str:
            if power == 0:
                return ""
            return sym if power == 1 else f"{sym}^{power}"

        pieces = []
        for (i, j, k), mult in sorted(self.terms.items(), key=lambda t: (-t[0][0], t[0][2])):
            factors = [f for f in (factor("A", i), factor("B", j), factor("d", k)) if f]
            if mult != 1 or not factors:
                factors.insert(0, str(mult))
            pieces.append(" ".join(factors))
        return " + ".join(pieces) if pieces else "0"


Monomials = dict[tuple[int, int, int], int]  # {(i, j, k): multiplicity of A^i B^j d^k}

_ONE: Monomials = {(0, 0, 0): 1}
_CROSSING: dict[int, tuple[Monomials, Monomials]] = {
    +1: ({(1, 0, 0): 1}, {(0, 1, 0): 1}),
    -1: ({(0, 1, 0): 1}, {(1, 0, 0): 1}),
}


def _poly_mul(p: Monomials, q: Monomials, loops: int = 0) -> Monomials:
    """p * q * d^loops.  Multiplicities are positive, so nothing cancels."""
    out: Monomials = {}
    for (i1, j1, k1), c1 in p.items():
        for (i2, j2, k2), c2 in q.items():
            key = (i1 + i2, j1 + j2, k1 + k2 + loops)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _poly_add(*polys: Monomials) -> Monomials:
    out: Monomials = {}
    for p in polys:
        for key, c in p.items():
            out[key] = out.get(key, 0) + c
    return out


def _tangle_sum(x: tuple[Monomials, Monomials], y: tuple[Monomials, Monomials]):
    """(f1, g1) + (f2, g2): E.E = E, E.V = V.E = V, and V.V = V with one loop."""
    (f1, g1), (f2, g2) = x, y
    return _poly_mul(f1, f2), _poly_add(_poly_mul(f1, g2), _poly_mul(g1, f2), _poly_mul(g1, g2, 1))


def _tangle_state_sum(e: Expr) -> tuple[Monomials, Monomials]:
    """(f, g) with state sum f.[E] + g.[V] for the tangle e."""
    if isinstance(e, CrossingPos):
        return _CROSSING[+1]
    if isinstance(e, CrossingNeg):
        return _CROSSING[-1]
    if isinstance(e, IntTangle):
        unit = _CROSSING[1 if e.n > 0 else -1]
        value: tuple[Monomials, Monomials] = (_ONE, {})
        for _ in range(abs(e.n)):
            value = _tangle_sum(value, unit)
        return value
    if isinstance(e, Cross):
        f, g = _tangle_state_sum(e.inner)
        return g, f
    value = _tangle_state_sum(e.parts[0])
    for p in e.parts[1:]:
        value = _tangle_sum(value, _tangle_state_sum(p))
    return value


def capped_crossing_count(e: Expr, max_crossings: int | None = None) -> int:
    """crossing_count(e); raises CapacityError, before any expansion, above the cap."""
    n = crossing_count(e)
    cap = crossing_cap(max_crossings)
    if n > cap:
        raise CapacityError(f"{n} crossings exceeds the cap of {cap}")
    return n


def raw_bracket(e: Expr, max_crossings: int | None = None) -> RawBracket:
    """The state sum of the closure of e, folded over e in the tangle basis."""
    n = capped_crossing_count(e, max_crossings)
    f, g = _tangle_state_sum(e)
    return RawBracket(n, _poly_add(_poly_mul(f, _ONE, 2), _poly_mul(g, _ONE, 1)))


def state_sum_bracket(e: Expr, max_crossings: int | None = None) -> RawBracket:
    """Enumerate all 2^n smoothing states of e and tally their loop counts.

    The independent second route to raw_bracket; it evaluates the whole
    expression once per state.
    """
    n = capped_crossing_count(e, max_crossings)
    expanded = expand_crossings(e)
    signs = crossing_signs(e)
    terms: Monomials = {}
    for index in range(1 << n):
        a_count = 0
        classes = []
        for pos in range(n):
            is_a = not (index >> (n - 1 - pos)) & 1
            a_count += is_a
            classes.append(smoothing_class(signs[pos], "A" if is_a else "B"))
        loops = closure_count(eval_smoothed(expanded, classes))
        key = (a_count, n - a_count, loops)
        terms[key] = terms.get(key, 0) + 1
    return RawBracket(n, terms)


def bracket(e: Expr, max_crossings: int | None = None) -> LaurentPoly:
    """The bracket polynomial of the numerator closure of e."""
    return raw_bracket(e, max_crossings).specialize()
