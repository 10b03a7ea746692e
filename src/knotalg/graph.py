"""Checkerboard networks of arborescent expressions and mod-2 nullity.

Tangle addition becomes a parallel join of two-terminal networks (so
tangle fractions add, matching conductances) and mirror rotation becomes
network duality (reciprocal conductance).  The nullity over GF(2) of the
mod-2 Laplacian of the realized multigraph counts the link components of
the closure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import Concat, Cross, CrossingPos, Expr, IntTangle
from .rational import INF, ZERO, Frac


@dataclass(frozen=True)
class Edge:
    """A single conductor; value -1 marks a negative crossing."""

    value: int = 1


@dataclass(frozen=True)
class Open:
    """No connection between the terminals (the 0 tangle)."""


@dataclass(frozen=True)
class Short:
    """Terminals directly identified (the infinity tangle)."""


@dataclass(frozen=True)
class Par:
    children: tuple["SPTree", ...]


@dataclass(frozen=True)
class Ser:
    children: tuple["SPTree", ...]


SPTree = Edge | Open | Short | Par | Ser


def par(*children: SPTree) -> SPTree:
    """Parallel join, normalized: nested Pars flatten and Opens drop out.

    A Short child is kept: it identifies the terminals but the siblings
    still carry crossings of the diagram, so absorbing it would change
    the realized graph (only its conductance would survive).
    """
    flat: list[SPTree] = []
    for c in children:
        if isinstance(c, Open):
            continue
        if isinstance(c, Par):
            flat.extend(c.children)
        else:
            flat.append(c)
    if not flat:
        return Open()
    if len(flat) == 1:
        return flat[0]
    return Par(tuple(flat))


def ser(*children: SPTree) -> SPTree:
    """Series join, normalized: nested Sers flatten and Shorts drop out.

    An Open child is kept, dually to par keeping Shorts.
    """
    flat: list[SPTree] = []
    for c in children:
        if isinstance(c, Short):
            continue
        if isinstance(c, Ser):
            flat.extend(c.children)
        else:
            flat.append(c)
    if not flat:
        return Short()
    if len(flat) == 1:
        return flat[0]
    return Ser(tuple(flat))


def dualize(t: SPTree) -> SPTree:
    """Swap series and parallel, Open and Short; an involution."""
    if isinstance(t, Edge):
        return t
    if isinstance(t, Open):
        return Short()
    if isinstance(t, Short):
        return Open()
    if isinstance(t, Par):
        return ser(*(dualize(c) for c in t.children))
    return par(*(dualize(c) for c in t.children))


_UNTURN = "unturn"


def sp_network(e: Expr) -> SPTree:
    """Two-terminal network of an expression.

    An integral tangle n is a parallel bank of |n| conductors, tangle
    addition joins in parallel, mirror rotation dualizes.  Duality is
    applied in one explicit-stack pass: under an odd number of enclosing
    rotations a sum joins in series, a twist is a series bank and the
    identity a Short, which equals dualizing each rotated subtree.
    """
    done: list[SPTree] = []
    todo: list = [e]
    odd = False
    while todo:
        node = todo.pop()
        if isinstance(node, IntTangle):
            bank = (Edge(1 if node.n > 0 else -1),) * abs(node.n)
            done.append(ser(*bank) if odd else par(*bank))
        elif isinstance(node, Concat):
            todo.append(len(node.parts))
            todo += reversed(node.parts)
        elif isinstance(node, Cross):
            odd = not odd
            todo += (_UNTURN, node.inner)
        elif node is _UNTURN:
            odd = not odd
        elif isinstance(node, int):  # join the last `node` networks
            done[-node:] = [ser(*done[-node:]) if odd else par(*done[-node:])]
        else:
            done.append(Edge(1 if isinstance(node, CrossingPos) else -1))
    return done[0]


def conductance(t: SPTree) -> Frac:
    """Signed symbolic conductance; equals the tangle fraction on rational input.

    Degenerate networks can demand inf + inf (two Shorts in parallel) and
    raise ArithmeticError; rational expressions never do.
    """
    if isinstance(t, Edge):
        return Frac(t.value)
    if isinstance(t, Open):
        return ZERO
    if isinstance(t, Short):
        return INF
    if isinstance(t, Par):
        total = conductance(t.children[0])
        for c in t.children[1:]:
            total = total + conductance(c)
        return total
    total = conductance(t.children[0]).reciprocal()
    for c in t.children[1:]:
        total = total + conductance(c).reciprocal()
    return total.reciprocal()


@dataclass(frozen=True)
class PlaneGraph:
    """A multigraph: node count plus an edge list (self-loops allowed)."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def to_json_dict(self) -> dict:
        return {"nodes": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "PlaneGraph":
        n = int(data["nodes"])
        edges = tuple((int(u), int(v)) for u, v in data["edges"])
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} nodes")
        return cls(n, edges)


def to_multigraph(t: SPTree, closed: bool = True) -> PlaneGraph:
    """Realize a network as a multigraph; the terminals pack to nodes 0 and 1.

    A Short identifies the nodes it spans.  The numerator closure adds no
    crossings, hence no nodes or edges, so the closed graph coincides with
    the open network graph except in one degenerate case: a bare Short
    keeps two distinct terminals while open and collapses to a single node
    once closed.
    """
    if isinstance(t, Short) and not closed:
        return PlaneGraph(2, ())
    parent = [0, 1]

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges: list[tuple[int, int]] = []
    todo: list[tuple[SPTree, int, int]] = [(t, 0, 1)]  # an Open realizes as nothing
    while todo:
        node, u, v = todo.pop()
        if isinstance(node, Edge):
            edges.append((u, v))
        elif isinstance(node, Short):
            parent[find(u)] = find(v)
        elif isinstance(node, Par):
            todo += [(c, u, v) for c in reversed(node.children)]
        elif isinstance(node, Ser):
            first = len(parent)
            inner = range(first, first + len(node.children) - 1)
            parent.extend(inner)
            nodes = [u, *inner, v]
            todo += reversed(list(zip(node.children, nodes, nodes[1:])))
    index: dict[int, int] = {}
    label = [index.setdefault(find(x), len(index)) for x in range(len(parent))]
    return PlaneGraph(len(index), tuple((label[u], label[v]) for u, v in edges))


@dataclass
class GF2Matrix:
    """A square bit matrix; each row is an int bitmask."""

    n: int
    rows: list[int]

    @classmethod
    def from_dense(cls, dense: list[list[int]]) -> "GF2Matrix":
        n = len(dense)
        rows = []
        for row in dense:
            if len(row) != n:
                raise ValueError("matrix must be square")
            mask = 0
            for j, bit in enumerate(row):
                if bit & 1:
                    mask |= 1 << j
            rows.append(mask)
        return cls(n, rows)

    def to_dense(self) -> list[list[int]]:
        return [[(row >> j) & 1 for j in range(self.n)] for row in self.rows]

    def rank(self) -> int:
        """Rank over GF(2) by elimination against a leading-bit basis.

        Each row is XORed with the basis row owning its leading bit until
        it vanishes (dependent) or owns a new leading bit (joins the basis).
        """
        basis: dict[int, int] = {}
        for row in self.rows:
            while row:
                lead = row.bit_length() - 1
                pivot = basis.get(lead)
                if pivot is None:
                    basis[lead] = row
                    break
                row ^= pivot
        return len(basis)


def mod2_laplacian(g: PlaneGraph) -> GF2Matrix:
    """Degrees on the diagonal, edge multiplicities off it, all mod 2.

    A self-loop adds two to its node's degree, hence nothing mod 2.
    """
    rows = [0] * g.n
    for u, v in g.edges:
        if u == v:
            continue
        rows[u] ^= (1 << u) ^ (1 << v)
        rows[v] ^= (1 << v) ^ (1 << u)
    return GF2Matrix(g.n, rows)


def nullity_gf2(m: GF2Matrix) -> int:
    """Dimension of the kernel over the two-element field."""
    return m.n - m.rank()


def closure_nullity(e: Expr) -> int:
    """Nullity of the mod-2 Laplacian of the closed checkerboard network of e."""
    return nullity_gf2(mod2_laplacian(to_multigraph(sp_network(e), closed=True)))
