"""Enumeration of rational knots and links by ordered partitions.

A rational link with n crossings corresponds to a composition of n whose
first and last parts exceed 1, taken up to reversal.  The table streams
each class's lex-least member from one depth-first walk that updates the
continued fraction and the connectivity map once per prefix, and each
class is classified knot/link twice, by the fraction parity rule and by
the connectivity algebra; the two must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .algebra import ConnClass, ConnValue, closure_count, cross, mul, parity_class
from .bracket import crossing_cap
from .errors import CapacityError, ConsistencyError
from .rational import Frac, ParityClass, classify_fraction


def compositions_with_big_ends(n: int) -> Iterator[tuple[int, ...]]:
    """All compositions of n with first and last parts >= 2, in lex order."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")

    def extend(remaining: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        lo = 2 if not prefix else 1
        for part in range(lo, remaining + 1):
            rest = remaining - part
            if rest == 0:
                if part >= 2:
                    yield prefix + (part,)
            else:
                yield from extend(rest, prefix + (part,))

    yield from extend(n, ())


def canonical(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Representative of a composition under reversal: the lex minimum."""
    return min(parts, tuple(reversed(parts)))


@dataclass(frozen=True)
class TableEntry:
    parts: tuple[int, ...]
    fraction: Frac
    parity: ParityClass
    components: int

    @property
    def kind(self) -> str:
        return self.parity.kind


_CLASSES = (ConnClass.E, ConnClass.V, ConnClass.O)


def rational_table(n: int) -> list[TableEntry]:
    """One entry per reversal class of big-ended compositions of n, in lex order.

    One explicit-stack walk keeps each class's lex-least member.  A frame
    carries its parent's convergents p_k = a_k p_(k-1) + p_(k-2) (likewise q)
    and the map x -> [a1, ..., a_(k-1), x] as its values at E, V and O.
    Raises CapacityError above the crossing cap before allocating, and
    ConsistencyError if the two routes disagree (a bug, not bad input).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > crossing_cap():
        raise CapacityError(f"{n} crossings exceeds the cap of {crossing_cap()}")
    entries, maps, identity = [], {}, tuple(map(ConnValue, _CLASSES))
    # Prefixes are pushed in reverse so they pop in lex order, and only
    # while they can still end in a part >= their first.
    stack = [((a,), n - a, 1, 0, 0, 1, identity) for a in (n, *range(n // 2, 1, -1))]
    while stack:
        parts, rest, p, p1, q, q1, g = stack.pop()
        a = parts[-1]
        p, p1, q, q1 = a * p + p1, p, a * q + q1, q
        if rest:
            h = maps.get((g, a & 1))
            if h is None:  # x -> g(<x> a); g takes x = (c, l) to g[c] . (E, l)
                xs = [mul(cross(x), ConnValue(parity_class(a))) for x in identity]
                h = tuple(mul(g[_CLASSES.index(x.cls)], ConnValue(ConnClass.E, x.loops)) for x in xs)
                maps[g, a & 1] = h
            stack += [(parts + (c,), rest - c, p, p1, q, q1, h)
                      for c in (rest, *range(rest - parts[0], 0, -1))]
        elif parts <= parts[::-1]:
            fraction = Frac(p, q)  # the algebra route never reads P or Q
            parity = classify_fraction(fraction)
            components = closure_count(g[_CLASSES.index(parity_class(a))])
            if components != parity.components:
                raise ConsistencyError(
                    f"classifiers disagree on {parts}: fraction rule says "
                    f"{parity.components} components, algebra says {components}"
                )
            entries.append(TableEntry(parts, fraction, parity, components))
    return entries


def table_json(entries: list[TableEntry]) -> list[dict]:
    return [
        {
            "parts": list(e.parts),
            "fraction": str(e.fraction),
            "class": e.parity.value,
            "components": e.components,
        }
        for e in entries
    ]


def table_text(entries: list[TableEntry]) -> str:
    rows = [
        ("(" + ",".join(map(str, e.parts)) + ")", str(e.fraction), e.kind, str(e.components))
        for e in entries
    ]
    widths = [max(len(r[i]) for r in rows) for i in range(3)] if rows else [0, 0, 0]
    lines = [
        f"{parts:<{widths[0]}}  {frac:>{widths[1]}}  {kind:<{widths[2]}}  {comps}"
        for parts, frac, kind, comps in rows
    ]
    return "\n".join(lines)
