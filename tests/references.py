"""Reference routes kept for the tests: the code the linear routes replaced.

`dense_rank` is the quadratic column-pivot elimination that
`GF2Matrix.rank` replaced, `dualize_network` the `sp_network` that
dualized every rotated subtree, and `union_find_curves` the recursive port
diagram with a union-find curve count that `oracle` replaced.  They are
slow and recursive on purpose: each is a separate route to compare with.
"""

from __future__ import annotations

from knotalg import Concat, Cross, CrossingNeg, CrossingPos, IntTangle, dualize
from knotalg.graph import Edge, par


def dense_rank(rows: list[int], n: int) -> int:
    """Rank by column pivots, clearing each pivot column from every row."""
    work = list(rows)
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, len(work)) if (work[r] >> col) & 1), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(len(work)):
            if r != rank and (work[r] >> col) & 1:
                work[r] ^= work[rank]
        rank += 1
    return rank


def dualize_network(e):
    """sp_network as it was: build each subtree, then dualize it under <...>."""
    if isinstance(e, CrossingPos):
        return Edge(1)
    if isinstance(e, CrossingNeg):
        return Edge(-1)
    if isinstance(e, IntTangle):
        return par(*(Edge(1 if e.n > 0 else -1),) * abs(e.n))
    if isinstance(e, Cross):
        return dualize(dualize_network(e.inner))
    assert isinstance(e, Concat)
    return par(*(dualize_network(p) for p in e.parts))


def union_find_curves(e, state=None) -> int:
    """Closed curves of e (flat crossings, or the smoothings of state) by union-find."""
    count = [0]
    crossings: list[tuple[int, int, int, int, int]] = []
    arcs: list[tuple[int, int]] = []

    def fresh() -> int:
        count[0] += 1
        return count[0] - 1

    def glue(left, right):
        arcs.append((left[1], right[0]))
        arcs.append((left[3], right[2]))
        return (left[0], right[1], left[2], right[3])

    def crossing(sign):
        ports = (fresh(), fresh(), fresh(), fresh())
        crossings.append(ports + (sign,))
        return ports

    def build(node):
        if isinstance(node, CrossingPos):
            return crossing(1)
        if isinstance(node, CrossingNeg):
            return crossing(-1)
        if isinstance(node, IntTangle):
            if node.n == 0:
                nw, ne, sw, se = fresh(), fresh(), fresh(), fresh()
                arcs.extend([(nw, ne), (sw, se)])
                return (nw, ne, sw, se)
            bnd = crossing(1 if node.n > 0 else -1)
            for _ in range(abs(node.n) - 1):
                bnd = glue(bnd, crossing(1 if node.n > 0 else -1))
            return bnd
        if isinstance(node, Cross):
            nw, ne, sw, se = build(node.inner)
            return (sw, nw, se, ne)
        bnd = build(node.parts[0])
        for p in node.parts[1:]:
            bnd = glue(bnd, build(p))
        return bnd

    nw, ne, sw, se = build(e)
    arcs.extend([(nw, ne), (sw, se)])
    for i, (cnw, cne, csw, cse, sign) in enumerate(crossings):
        if state is None:
            arcs.extend([(cnw, cse), (cne, csw)])
        elif (state[i] == "A") == (sign > 0):
            arcs.extend([(cnw, cne), (csw, cse)])
        else:
            arcs.extend([(cnw, csw), (cne, cse)])
    return union_find_classes(count[0], arcs)


def union_find_classes(n: int, pairs) -> int:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    return len({find(x) for x in range(n)})


def diagram_curves(d) -> int:
    """Flat closure of a public Diagram, counted by union-find."""
    nw, ne, sw, se = d.boundary
    pairs = list(d.arcs) + [(nw, ne), (sw, se)]
    pairs += [p for c in d.crossings for p in ((c.nw, c.se), (c.ne, c.sw))]
    return union_find_classes(d.n_ports, pairs)
