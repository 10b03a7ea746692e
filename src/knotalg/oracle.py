"""Ground-truth component counts by explicit strand tracing.

Builds a port-level diagram from an expression and counts closed curves
by walking them.  In the closed diagram every port has exactly two
partners: one through a wiring or closure arc, and one inside its leaf
(a crossing pass-through, a smoothing arc, or the strand of an identity
tangle), so the curves form a 2-regular graph and one walk per curve
counts them.  No parity shortcuts, no connectivity algebra: this module
exists so the rest of the package has something independent to be
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from .expr import Concat, Cross, CrossingNeg, CrossingPos, Expr, IntTangle


class CrossingPorts(NamedTuple):
    """The four ports of one crossing; sign is the handedness."""

    nw: int
    ne: int
    sw: int
    se: int
    sign: int


@dataclass(frozen=True)
class Diagram:
    """A tangle as ports: crossings in leaf order, connecting arcs, boundary.

    Arcs record identity-tangle strands and the gluings made by tangle
    addition; the wiring internal to each crossing is chosen at trace time
    (flat pass-through, or a smoothing).
    """

    crossings: tuple[CrossingPorts, ...]
    arcs: tuple[tuple[int, int], ...]
    boundary: tuple[int, int, int, int]
    n_ports: int


_GLUE, _TURN = "glue", "turn"

# Partner offsets inside a four-port block (nw, ne, sw, se) = 4i + (0, 1, 2, 3).
_PASS = (3, 1, -1, -3)  # nw-se, ne-sw: a flat crossing
_HORIZONTAL = (1, -1, 1, -1)  # nw-ne, sw-se: also the identity tangle's strands
_VERTICAL = (2, 2, -2, -2)  # nw-sw, ne-se


def _build(e: Expr) -> tuple[list[int], list[int], tuple[int, int, int, int]]:
    """Walk e with an explicit stack into four-port leaf blocks.

    Block i owns ports 4i..4i+3 (nw, ne, sw, se); integral tangles expand
    to chains of blocks.  Returns each block's sign (0 for the identity
    tangle), the arc partner of every port (-1 on the open boundary) and
    the boundary.
    """
    signs: list[int] = []
    wire: list[int] = []
    done: list[tuple[int, int, int, int]] = []
    todo: list = [e]
    while todo:
        node = todo.pop()
        if node is _GLUE:
            r_nw, r_ne, r_sw, r_se = done.pop()
            l_nw, l_ne, l_sw, l_se = done[-1]
            wire[l_ne], wire[r_nw], wire[l_se], wire[r_sw] = r_nw, l_ne, r_sw, l_se
            done[-1] = (l_nw, r_ne, l_sw, r_se)
        elif node is _TURN:
            # quarter turn plus mirror: new (nw, ne, sw, se) = old (sw, nw, se, ne)
            nw, ne, sw, se = done[-1]
            done[-1] = (sw, nw, se, ne)
        elif isinstance(node, Concat):
            todo += [x for part in reversed(node.parts[1:]) for x in (_GLUE, part)]
            todo.append(node.parts[0])
        elif isinstance(node, Cross):
            todo += (_TURN, node.inner)
        else:
            if isinstance(node, IntTangle):
                n = node.n
            else:
                n = 1 if isinstance(node, CrossingPos) else -1
            first, k = 4 * len(signs), max(abs(n), 1)
            last = first + 4 * (k - 1)
            signs += [(n > 0) - (n < 0)] * k
            wire += [-1] * (4 * k)
            for b in range(first, last, 4):
                wire[b + 1], wire[b + 4], wire[b + 3], wire[b + 6] = b + 4, b + 1, b + 6, b + 3
            done.append((first, last + 1, first + 2, last + 3))
    return signs, wire, done[0]


def build_diagram(e: Expr) -> Diagram:
    """Construct the port diagram of e; integral tangles become crossing chains."""
    signs, wire, boundary = _build(e)
    blocks = list(zip(range(0, len(wire), 4), signs))
    crossings = tuple(CrossingPorts(b, b + 1, b + 2, b + 3, s) for b, s in blocks if s)
    arcs = [arc for b, s in blocks if not s for arc in ((b, b + 1), (b + 2, b + 3))]
    arcs += [(p, q) for p, q in enumerate(wire) if p < q]
    return Diagram(crossings, tuple(arcs), boundary, len(wire))


def _count_curves(wire: list[int], boundary: tuple[int, int, int, int],
                  inner: list[tuple[int, int, int, int]]) -> int:
    """Close the diagram and walk its curves, given each block's partner offsets."""
    nw, ne, sw, se = boundary
    wire[nw], wire[ne], wire[sw], wire[se] = ne, nw, se, sw
    offsets = list(chain.from_iterable(inner))
    seen = bytearray(len(wire))
    curves = 0
    start = 0
    while (start := seen.find(0, start)) >= 0:
        curves += 1
        p = start
        while not seen[p]:
            q = p + offsets[p]
            seen[p] = seen[q] = 1
            p = wire[q]
    return curves


def trace_components(e: Expr) -> int:
    """Components of the numerator closure, by tracing flat crossings."""
    signs, wire, boundary = _build(e)
    return _count_curves(wire, boundary, [_PASS if s else _HORIZONTAL for s in signs])


def trace_state_loops(e: Expr, state: str) -> int:
    """Closed loops of the bracket state given by a string over {A, B}.

    state[i] labels the i-th crossing in leaf order after integral tangles
    are expanded; A smooths a positive crossing horizontally and a
    negative one vertically, B the other way around.
    """
    signs, wire, boundary = _build(e)
    n_crossings = len(signs) - signs.count(0)
    if len(state) != n_crossings:
        raise ValueError(f"state length {len(state)} != crossing count {n_crossings}")
    labels = iter(state)
    inner = []
    for s in signs:
        if not s:
            inner.append(_HORIZONTAL)
            continue
        label = next(labels)
        if label not in "AB":
            raise ValueError(f"state labels must be A or B, got {label!r}")
        inner.append(_HORIZONTAL if (label == "A") == (s > 0) else _VERTICAL)
    return _count_curves(wire, boundary, inner)
