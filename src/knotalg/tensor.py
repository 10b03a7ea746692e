"""Abstract Kronecker-delta tensors for per-state loop structure.

Each smoothed crossing becomes a pair of delta arcs on four boundary
labels; composing tangles identifies labels, and chains of deltas fuse
(delta_ab delta_bc = delta_ac) while remembering which smoothing sites
they passed through.  A fully closed expression resolves into loops, each
a cyclic sequence of (site, side) incidences, which is exactly what the
state cube needs: loop counts per state and, per site, whether its two
arcs sit on one loop or two.

Only the smoothing pairings change from one state to the next; the
wiring between sites is the same in every state.  build_cube therefore
contracts the wiring once, into a perfect matching on the 4n site ports
plus a count of bare circles, and per state swaps in the n smoothing
pairings and walks arc, wire, arc around each loop: one O(n) build, then
O(n) per state.  state_structure keeps the full delta contraction for a
single state and is the independent route the cube is tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .algebra import ConnClass, closure_count, eval_smoothed
from .bracket import (
    capped_crossing_count,
    crossing_signs,
    expand_crossings,
    smoothing_class,
    state_string,
)
from .errors import ConsistencyError
from .expr import Concat, Cross, CrossingNeg, CrossingPos, Expr, IntTangle

Incidence = tuple[int, int]  # (site id, side 0 or 1)
Loop = tuple[Incidence, ...]


@dataclass(frozen=True)
class Delta:
    """One Kronecker delta joining labels a and b.

    path lists the smoothing-site arcs fused into this delta, ordered from
    the a end to the b end.
    """

    a: int
    b: int
    path: tuple[Incidence, ...] = ()


@dataclass(frozen=True)
class DeltaTerm:
    """A product of deltas with a coefficient A^a_pow B^b_pow.

    free holds the surviving boundary labels (nw, ne, sw, se for tangle
    terms); loops are the closed cycles contracted away so far.
    """

    deltas: tuple[Delta, ...]
    free: tuple[int, ...]
    a_pow: int = 0
    b_pow: int = 0
    loops: tuple[Loop, ...] = ()

    def labels(self) -> set[int]:
        out = set(self.free)
        for d in self.deltas:
            out.add(d.a)
            out.add(d.b)
        return out


_PAIRINGS = {
    # (first delta, second delta) as index pairs into (nw, ne, sw, se)
    ConnClass.E: ((0, 1), (2, 3)),
    ConnClass.V: ((0, 2), (1, 3)),
    ConnClass.O: ((0, 3), (1, 2)),
}


def smoothing_tensor(kind: ConnClass, site: int | None = None, start: int = 0) -> DeltaTerm:
    """The two-delta tensor of one smoothing on labels start..start+3.

    Boundary order is (nw, ne, sw, se); E pairs the top and the bottom,
    V the left and the right, O the two diagonals.
    """
    labels = (start, start + 1, start + 2, start + 3)
    (i1, j1), (i2, j2) = _PAIRINGS[kind]
    first = Delta(labels[i1], labels[j1], ((site, 0),) if site is not None else ())
    second = Delta(labels[i2], labels[j2], ((site, 1),) if site is not None else ())
    return DeltaTerm((first, second), labels)


def crossing_tensor(sign: int, site: int | None = None, start: int = 0) -> tuple[DeltaTerm, DeltaTerm]:
    """Both resolution terms of a crossing: the A summand, then the B summand.

    A positive crossing smooths horizontally under A; negative, vertically.
    """
    a_kind = ConnClass.E if sign > 0 else ConnClass.V
    b_kind = ConnClass.V if sign > 0 else ConnClass.E
    a_term = replace(smoothing_tensor(a_kind, site, start), a_pow=1)
    b_term = replace(smoothing_tensor(b_kind, site, start), b_pow=1)
    return a_term, b_term


class _Labels:
    def __init__(self):
        self.counter = itertools.count()

    def take(self, k: int) -> int:
        first = next(self.counter)
        for _ in range(k - 1):
            next(self.counter)
        return first


def _fuse(terms: list[DeltaTerm], identifications: list[tuple[int, int]],
          free_order: tuple[int, ...]) -> DeltaTerm:
    """Merge delta products under label identifications.

    Chains of deltas sharing a label collapse into single deltas with
    concatenated site paths; closed cycles become loops.  A label may be
    used at most twice in total.
    """
    deltas: list[Delta] = []
    loops: list[Loop] = []
    a_pow = b_pow = 0
    for t in terms:
        deltas.extend(t.deltas)
        loops.extend(t.loops)
        a_pow += t.a_pow
        b_pow += t.b_pow

    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    free_labels = set()
    for t in terms:
        free_labels.update(t.free)
    for x, y in identifications:
        if x not in free_labels or y not in free_labels:
            raise ValueError(f"wiring may only identify free labels: ({x}, {y})")
        parent[find(x)] = find(y)

    # endpoints[root] = [(delta index, end), ...]; valence at most two
    endpoints: dict[int, list[tuple[int, int]]] = {}
    for idx, d in enumerate(deltas):
        for end, label in enumerate((d.a, d.b)):
            endpoints.setdefault(find(label), []).append((idx, end))
    for root, ends in endpoints.items():
        if len(ends) > 2:
            raise ValueError(f"label valence exceeds two at {root}")

    def step(idx: int, entry_end: int) -> tuple[int, tuple[Incidence, ...], int]:
        """Walk delta idx entered at entry_end; return (exit label, path, exit root)."""
        d = deltas[idx]
        if entry_end == 0:
            return d.b, d.path, find(d.b)
        return d.a, tuple(reversed(d.path)), find(d.a)

    used = [False] * len(deltas)
    new_deltas: list[Delta] = []

    # Open chains first, started from dangling labels in free order.
    for start_label in free_order:
        root = find(start_label)
        ends = endpoints.get(root, [])
        if len(ends) != 1:
            continue
        idx, end = ends[0]
        if used[idx]:
            continue
        path: list[Incidence] = []
        current_label = start_label
        while True:
            used[idx] = True
            exit_label, segment, exit_root = step(idx, end)
            path.extend(segment)
            nexts = [(i, en) for i, en in endpoints.get(exit_root, []) if not used[i]]
            if not nexts:
                new_deltas.append(Delta(current_label, exit_label, tuple(path)))
                break
            idx, end = nexts[0]

    # Whatever remains lies on closed cycles.
    for start in range(len(deltas)):
        if used[start]:
            continue
        idx, end = start, 0
        cycle: list[Incidence] = []
        while not used[idx]:
            used[idx] = True
            _, segment, exit_root = step(idx, end)
            cycle.extend(segment)
            nexts = [(i, en) for i, en in endpoints.get(exit_root, []) if not used[i]]
            if nexts:
                idx, end = nexts[0]
        loops.append(tuple(cycle))

    surviving = tuple(
        lbl for lbl in free_order if len(endpoints.get(find(lbl), [])) == 1
    )
    return DeltaTerm(tuple(new_deltas), surviving, a_pow, b_pow, tuple(loops))


def contract(t: DeltaTerm, s: DeltaTerm, wiring: list[tuple[int, int]]) -> DeltaTerm:
    """Contract two delta products under the given label identifications.

    Label sets must be disjoint; surviving free labels keep the order
    t.free + s.free.
    """
    if t.labels() & s.labels():
        raise ValueError("label sets must be disjoint; renumber one term first")
    return _fuse([t, s], wiring, t.free + s.free)


def _tangle_sum(t: DeltaTerm, s: DeltaTerm) -> DeltaTerm:
    fused = contract(t, s, [(t.free[1], s.free[0]), (t.free[3], s.free[2])])
    nw, sw, ne, se = fused.free
    return replace(fused, free=(nw, ne, sw, se))


def _tangle_cross(t: DeltaTerm) -> DeltaTerm:
    nw, ne, sw, se = t.free
    return replace(t, free=(sw, nw, se, ne))


def _close_numerator(t: DeltaTerm) -> DeltaTerm:
    nw, ne, sw, se = t.free
    return _fuse([t], [(nw, ne), (sw, se)], t.free)


def _canonical_cycle(cycle: Loop) -> Loop:
    if not cycle:
        return cycle
    candidates = []
    for seq in (cycle, tuple(reversed(cycle))):
        for shift in range(len(seq)):
            candidates.append(seq[shift:] + seq[:shift])
    return min(candidates)


@dataclass(frozen=True)
class LoopStructure:
    """The closed loops of one state, with ordered smoothing-site incidences."""

    loops: tuple[Loop, ...]
    n_sites: int

    @property
    def loop_count(self) -> int:
        return len(self.loops)

    def site_kinds(self) -> dict[int, str]:
        """'self' when both arcs of a site lie on one loop, 'joining' otherwise."""
        membership: dict[Incidence, int] = {}
        for loop_index, loop in enumerate(self.loops):
            for incidence in loop:
                if incidence in membership:
                    raise ConsistencyError(f"incidence {incidence} on two loops")
                membership[incidence] = loop_index
        kinds = {}
        for site in range(self.n_sites):
            first, second = membership.get((site, 0)), membership.get((site, 1))
            if first is None or second is None:
                raise ConsistencyError(f"site {site} is missing an arc")
            kinds[site] = "self" if first == second else "joining"
        return kinds


def state_structure(e: Expr, state: str) -> LoopStructure:
    """Loop structure of the state of e given by a string over {A, B}."""
    expanded = expand_crossings(e)
    signs = crossing_signs(e)
    if len(state) != len(signs):
        raise ValueError(f"state length {len(state)} != crossing count {len(signs)}")
    labels = _Labels()
    sites = itertools.count()

    def build(node: Expr) -> DeltaTerm:
        if isinstance(node, (CrossingPos, CrossingNeg)):
            site = next(sites)
            kind = smoothing_class(signs[site], state[site])
            term = smoothing_tensor(kind, site, labels.take(4))
            return replace(term, a_pow=int(state[site] == "A"), b_pow=int(state[site] == "B"))
        if isinstance(node, IntTangle):
            return smoothing_tensor(ConnClass.E, None, labels.take(4))
        if isinstance(node, Cross):
            return _tangle_cross(build(node.inner))
        term = build(node.parts[0])
        for p in node.parts[1:]:
            term = _tangle_sum(term, build(p))
        return term

    closed = _close_numerator(build(expanded))
    if closed.free or closed.deltas:
        raise ConsistencyError("closure left open strands")
    loops = tuple(sorted(_canonical_cycle(c) for c in closed.loops))
    return LoopStructure(loops, len(signs))


def classify_site_by_toggle(e: Expr, state: str, site: int) -> str:
    """Replace one site's smoothing by a crossing pairing and compare counts.

    An unchanged closure component count means the site joins a loop to
    itself; a changed count means it joins two distinct loops.
    """
    expanded = expand_crossings(e)
    signs = crossing_signs(e)
    if len(state) != len(signs):
        raise ValueError(f"state length {len(state)} != crossing count {len(signs)}")
    classes = [smoothing_class(s, lab) for s, lab in zip(signs, state)]
    baseline = closure_count(eval_smoothed(expanded, classes))
    classes[site] = ConnClass.O
    toggled = closure_count(eval_smoothed(expanded, classes))
    return "self" if toggled == baseline else "joining"


@dataclass(frozen=True)
class CubeVertex:
    bits: str
    structure: LoopStructure

    @property
    def loops(self) -> int:
        return self.structure.loop_count


@dataclass(frozen=True)
class CubeEdge:
    src: str
    dst: str
    site: int
    label: str  # merge or split


@dataclass(frozen=True)
class StateCube:
    """All smoothing states of a diagram with loop data and flip edges."""

    n: int
    vertices: dict[str, CubeVertex]
    edges: tuple[CubeEdge, ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "vertices": [
                {
                    "bits": v.bits,
                    "loops": v.loops,
                    "sites": [
                        {"id": site, "kind": kind}
                        for site, kind in sorted(v.structure.site_kinds().items())
                    ],
                }
                for v in self.vertices.values()
            ],
            "edges": [
                {"from": e.src, "to": e.dst, "site": e.site, "label": e.label}
                for e in self.edges
            ],
        }


_CROSS = object()  # stack marker: rotate the boundary on top of the value stack


def _port_diagram(e: Expr, n: int) -> tuple[list[int], list[int], int]:
    """Contract the wiring of the numerator closure of e once, for every state.

    Site s (crossings in leaf order) owns ports 4s .. 4s+3 in the order
    (nw, ne, sw, se); identity tangles own two fixed arcs on ports past 4n.
    Returns (signs, wire, bare): the crossing sign of each site, the port
    wire[p] that the wiring joins site port p to, and the number of bare
    circles, components of the wiring that meet no site.
    """
    parent = list(range(4 * n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        parent[find(x)] = find(y)

    def add(left: tuple, right: tuple) -> tuple:
        union(left[1], right[0])
        union(left[3], right[2])
        return left[0], right[1], left[2], right[3]

    signs: list[int] = []
    values: list[tuple[int, int, int, int]] = []  # boundary ports (nw, ne, sw, se)
    todo: list = [e]
    while todo:
        node = todo.pop()
        if node is _CROSS:
            nw, ne, sw, se = values.pop()
            values.append((sw, nw, se, ne))
        elif isinstance(node, int):  # a pending tangle sum of that many parts
            parts = values[-node:]
            del values[-node:]
            value = parts[0]
            for part in parts[1:]:
                value = add(value, part)
            values.append(value)
        elif isinstance(node, Cross):
            todo += (_CROSS, node.inner)
        elif isinstance(node, Concat):
            todo.append(len(node.parts))
            todo.extend(reversed(node.parts))
        elif isinstance(node, IntTangle) and node.n == 0:
            start = len(parent)
            parent += (start, start, start + 2, start + 2)  # the arcs nw-ne and sw-se
            values.append((start, start + 1, start + 2, start + 3))
        else:  # a single crossing, or an integral tangle of |n| sites in a row
            if isinstance(node, IntTangle):
                count, sign = abs(node.n), (1 if node.n > 0 else -1)
            else:
                count, sign = 1, (1 if isinstance(node, CrossingPos) else -1)
            base = 4 * len(signs)
            signs += [sign] * count
            value = (base, base + 1, base + 2, base + 3)
            for port in range(base + 4, base + 4 * count, 4):
                value = add(value, (port, port + 1, port + 2, port + 3))
            values.append(value)
    nw, ne, sw, se = values.pop()
    union(nw, ne)
    union(sw, se)

    ends: dict[int, list[int]] = {}
    for port in range(4 * n):
        ends.setdefault(find(port), []).append(port)
    wire = [0] * (4 * n)
    for ports in ends.values():
        if len(ports) != 2:
            raise ConsistencyError(f"wiring joins {len(ports)} site ports in one strand")
        first, second = ports
        wire[first], wire[second] = second, first
    circles = {find(port) for port in range(4 * n, len(parent))}
    return signs, wire, len(circles - ends.keys())


def _site_steps(site: int, kind: ConnClass, wire: list[int]) -> tuple:
    """Walk steps through one smoothed site, indexed by its four ports.

    Entering the site at a port, a loop runs along the arc of that
    smoothing which ends there, leaves by the arc's other port and follows
    the wiring; each step is (port entered next, arc id, incidence).
    """
    steps: list = [None] * 4
    for side, pair in enumerate(_PAIRINGS[kind]):
        for k, other in (pair, pair[::-1]):
            steps[k] = (wire[4 * site + other], 2 * site + side, (site, side))
    return tuple(steps)


def _state_loops(steps: list, bare: int) -> tuple[Loop, ...]:
    """The sorted canonical loops of one state from its per-port walk steps.

    Ports are scanned in order, so each loop is first met at its smallest
    incidence.  A loop visits each arc once, so its canonical cycle is the
    lesser of its two directions from that incidence.
    """
    seen = [False] * (len(steps) // 2)
    loops = []
    for start in range(len(steps)):
        cycle = []
        port, arc, incidence = steps[start]
        while not seen[arc]:
            seen[arc] = True
            cycle.append(incidence)
            port, arc, incidence = steps[port]
        if cycle:
            loops.append(min(tuple(cycle), tuple(cycle[:1] + cycle[:0:-1])))
    loops.sort()
    return ((),) * bare + tuple(loops)


def build_cube(e: Expr, max_crossings: int | None = None) -> StateCube:
    """Build the full state cube of e: vertices per state, edges per A-to-B flip.

    The wiring between smoothing sites is contracted once; each state then
    only lays its n smoothing pairings on the site ports and walks the
    loops, so the cube costs O(n) per state after one O(n) build.
    """
    n = capped_crossing_count(e, max_crossings)
    signs, wire, bare = _port_diagram(e, n)
    choices = [
        {label: _site_steps(site, smoothing_class(sign, label), wire) for label in "AB"}
        for site, sign in enumerate(signs)
    ]
    states = [state_string(index, n) for index in range(1 << n)]
    vertices = {}
    for bits in states:
        steps: list = []
        for choice, label in zip(choices, bits):
            steps += choice[label]
        vertices[bits] = CubeVertex(bits, LoopStructure(_state_loops(steps, bare), n))
    counts = [vertex.loops for vertex in vertices.values()]
    edges = []
    for index, bits in enumerate(states):
        for pos in range(n):
            if bits[pos] != "A":
                continue
            flipped = index | 1 << (n - 1 - pos)
            delta = counts[flipped] - counts[index]
            if delta not in (-1, 1):
                raise ConsistencyError(
                    f"edge {bits}->{states[flipped]} changes loop count by {delta}"
                )
            edges.append(CubeEdge(bits, states[flipped], pos, "merge" if delta < 0 else "split"))
    return StateCube(n, vertices, tuple(edges))
