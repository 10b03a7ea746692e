"""Seeded input generators and the reference routes the benchmark checks against.

The benchmark builds every expression itself as a small tree of tuples, so
it knows the expected answers without asking knotalg:

    ("L", k)          a leaf: "O", "U" or a twist of k crossings (k may be 0)
    ("X", child)      mirror rotation <child>
    ("S", parts)      tangle addition of two or more parts
    ("CF", entries)   continued-fraction sugar [a1,...,an]

Every walk in this file is iterative, so nesting depth never limits the
reference routes, and none of it imports knotalg.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

# Connectivity classes of a flat four-ended tangle.
E, V, O = 0, 1, 2
_CROSS = {E: V, V: E, O: O}
_MARK = {O: "o", V: "m", E: "u"}
_NAME = {E: "E", V: "V", O: "O"}


# ---------------------------------------------------------------------------
# Rendering and walking


def render(tree, expand: bool = False) -> str:
    """Expression text in the knotalg grammar.

    With expand, continued fractions are written out as nested <...> the way
    knotalg's to_text prints them, and 0 is written E.
    """
    out: list[str] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
            continue
        kind = node[0]
        if kind == "L":
            out.append(str(node[1]) if node[1] != 0 else "E")
        elif kind == "CF" and expand:
            entries = [str(a) if a else "E" for a in node[1]]
            out.append("<" * (len(entries) - 1) + entries[-1])
            out.extend("> " + a for a in reversed(entries[:-1]))
        elif kind == "CF":
            out.append("[" + ",".join(map(str, node[1])) + "]")
        elif kind == "X":
            stack += [">", node[1], "<"]
        else:
            parts = node[1]
            for i in range(len(parts) - 1, -1, -1):
                stack.append(parts[i])
                if i:
                    stack.append(" ")
    return "".join(out)


def iter_leaf_values(tree):
    """Leaf values ("O", "U" or an int) in knotalg's left-to-right leaf order.

    A continued fraction [a1,...,an] nests an innermost, so its leaves run
    an, ..., a1.
    """
    stack = [tree]
    while stack:
        node = stack.pop()
        kind = node[0]
        if kind == "L":
            yield node[1]
        elif kind == "CF":
            yield from reversed(node[1])
        elif kind == "X":
            stack.append(node[1])
        else:
            stack.extend(reversed(node[1]))


def fold(tree, leaf, cross, add):
    """Evaluate tree bottom-up with an explicit stack; leaf gets (value, index)."""
    out: list = []
    index = [0]

    def on_leaf(value):
        index[0] += 1
        return leaf(value, index[0])

    stack = [(tree, False)]
    while stack:
        node, done = stack.pop()
        kind = node[0]
        if kind == "L":
            out.append(on_leaf(node[1]))
        elif kind == "CF":
            entries = node[1]
            acc = on_leaf(entries[-1])
            for a in reversed(entries[:-1]):
                acc = add(cross(acc), on_leaf(a))
            out.append(acc)
        elif kind == "X":
            if done:
                out[-1] = cross(out[-1])
            else:
                stack += [(node, True), (node[1], False)]
        else:
            parts = node[1]
            if done:
                vals = out[-len(parts):]
                del out[-len(parts):]
                acc = vals[0]
                for v in vals[1:]:
                    acc = add(acc, v)
                out.append(acc)
            else:
                stack.append((node, True))
                stack.extend((p, False) for p in reversed(parts))
    return out[0]


def stats(tree) -> dict:
    """Leaves, crossings and strand-tracing ports (four per crossing or identity leaf)."""
    leaves = crossings = zero_leaves = 0
    for v in iter_leaf_values(tree):
        leaves += 1
        if isinstance(v, str):
            crossings += 1
        elif v == 0:
            zero_leaves += 1
        else:
            crossings += abs(v)
    return {"leaves": leaves, "crossings": crossings, "ports": 4 * (crossings + zero_leaves)}


# ---------------------------------------------------------------------------
# Reference route 1: the connectivity algebra (components, trace marks, opacity)


def leaf_class(value) -> int:
    if isinstance(value, str):
        return O
    return O if value % 2 else E


def _mul(a, b):
    (ca, la), (cb, lb) = a, b
    if ca == V or cb == V:
        return (V, la + lb + (1 if ca == V and cb == V else 0))
    return (E if ca == cb else O, la + lb)


def _cross(a):
    return (_CROSS[a[0]], a[1])


def closure(value) -> int:
    cls, loops = value
    return loops + (2 if cls == E else 1)


def conn_value(tree, toggled: int = 0):
    """(class, loops) of tree, with the parity of leaf number `toggled` flipped."""

    def leaf(value, index):
        cls = leaf_class(value)
        if index == toggled:
            cls = E if cls == O else O
        return (cls, 0)

    return fold(tree, leaf, _cross, _mul)


def components(tree) -> int:
    return closure(conn_value(tree))


def trace_marks(tree) -> tuple[list[str], str, int, int]:
    """Marks of every <...> node innermost first, final mark, class name, loops."""
    marks: list[str] = []

    def cross(a):
        v = _cross(a)
        marks.append(_MARK[v[0]])
        return v

    value = fold(tree, lambda v, i: (leaf_class(v), 0), cross, _mul)
    return marks, _MARK[value[0]], _NAME[value[0]], value[1]


def opaque(tree, index: int, baseline: int) -> bool:
    """Whether toggling the parity of leaf `index` keeps the component count."""
    return closure(conn_value(tree, toggled=index)) == baseline


# ---------------------------------------------------------------------------
# Reference route 2: the bracket by the tangle form of the state model.
# A tangle's state sum is f.[E] + g.[V] over monomials A^i B^j d^k; tangle
# addition gives (f1 f2, f1 g2 + g1 f2 + d g1 g2), <...> swaps f and g, and
# the closure is f d^2 + g d.


def _padd(*polys):
    out: dict = {}
    for p in polys:
        for key, c in p.items():
            out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


def _pmul(p, q, dk: int = 0):
    out: dict = {}
    for (i1, j1, k1), c1 in p.items():
        for (i2, j2, k2), c2 in q.items():
            key = (i1 + i2, j1 + j2, k1 + k2 + dk)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


_A = {(1, 0, 0): 1}
_B = {(0, 1, 0): 1}
_ONE = {(0, 0, 0): 1}


def _signed_count(value) -> tuple[int, int]:
    """(sign, crossing count) of a nonzero leaf."""
    if isinstance(value, str):
        return (1 if value == "O" else -1), 1
    return (1 if value > 0 else -1), abs(value)


def _bracket_leaf(value, _index):
    if value == 0:
        return (_ONE, {})
    sign, count = _signed_count(value)
    unit = (_A, _B) if sign > 0 else (_B, _A)
    acc = unit
    for _ in range(count - 1):
        acc = _bracket_add(acc, unit)
    return acc


def _bracket_add(x, y):
    (f1, g1), (f2, g2) = x, y
    return (_pmul(f1, f2), _padd(_pmul(f1, g2), _pmul(g1, f2), _pmul(g1, g2, dk=1)))


def raw_bracket_terms(tree) -> dict:
    """{(a_count, b_count, loops): states} of the closure of tree."""
    f, g = fold(tree, _bracket_leaf, lambda x: (x[1], x[0]), _bracket_add)
    return _padd(_pmul(f, {(0, 0, 2): 1}), _pmul(g, {(0, 0, 1): 1}))


def specialize(raw: dict) -> dict:
    """{exponent of A: coefficient} for B = 1/A, d = -A^2 - A^-2, divided once by d."""
    out: dict = {}
    for (i, j, k), mult in raw.items():
        # d^(k-1) = (-1)^(k-1) sum_m C(k-1, m) A^(2(k-1) - 4m)
        n = k - 1
        binom = 1
        for m in range(n + 1):
            exp = i - j + 2 * n - 4 * m
            out[exp] = out.get(exp, 0) + (-1) ** n * binom * mult
            binom = binom * (n - m) // (m + 1)
    return {e: c for e, c in out.items() if c}


def state_loops(tree, bits: str) -> int:
    """Closed loops of one smoothing state (a string over A, B in crossing order)."""
    it = iter(bits)

    def leaf(value, _index):
        if value == 0:
            return (E, 0)
        sign, count = _signed_count(value)
        acc = None
        for _ in range(count):
            label = next(it)
            v = (E if (label == "A") == (sign > 0) else V, 0)
            acc = v if acc is None else _mul(acc, v)
        return acc

    return closure(fold(tree, leaf, _cross, _mul))


# ---------------------------------------------------------------------------
# Reference route 3: rational tables by counting, fractions by Fraction


def _comps(m: int) -> int:
    """Compositions of m >= 0, the empty one included."""
    return 1 if m == 0 else 2 ** (m - 1)


def count_big_ended(n: int) -> int:
    """Compositions of n >= 2 whose first and last parts are >= 2."""
    return 1 + sum(_comps(n - a - b) for a in range(2, n + 1) for b in range(2, n - a + 1))


def count_reversal_classes(n: int) -> int:
    """Reversal classes of big-ended compositions of n >= 2, by Burnside's lemma."""
    # A palindrome of two or more parts is a half whose first part is >= 2,
    # an optional middle part, and the mirrored half.
    palindromes = 1 + sum(_comps(s - a) for s in range(2, n // 2 + 1) for a in range(2, s + 1))
    return (count_big_ended(n) + palindromes) // 2


def cf_fraction(entries) -> Fraction:
    value = Fraction(entries[-1])
    for a in reversed(entries[:-1]):
        value = a + 1 / value
    return value


def parity_kind(p: int, q: int) -> tuple[str, int]:
    """knotalg's parity class of P/Q: E for a two-component link, else O or V."""
    if p % 2 == 0:
        return "E", 2
    return ("O" if q % 2 else "V"), 1


def schubert(p: int, q: int, q2: int) -> bool:
    return (q - q2) % p == 0 or (q * q2) % p in (1 % p, -1 % p)


def big_fraction(rng: random.Random, digits: int) -> tuple[int, int]:
    """A reduced P/Q with P > Q > 0 and about `digits` decimal digits."""
    lo = 10 ** (digits - 1)
    while True:
        p = rng.randrange(lo, 10 * lo)
        q = rng.randrange(1, p)
        if gcd(p, q) == 1:
            return p, q


# ---------------------------------------------------------------------------
# Expression generators


def _leaf(rng: random.Random, twist: int):
    roll = rng.random()
    if roll < 0.25:
        return ("L", "O")
    if roll < 0.4:
        return ("L", "U")
    k = rng.randint(1, twist) * rng.choice((1, -1))
    return ("L", k)


def crossing_expr(rng: random.Random, n: int):
    """A random arborescent expression with exactly n crossings."""
    parts = []
    left = n
    while left:
        size = min(left, rng.choice((1, 1, 1, 2, 2, 3)))
        left -= size
        if size == 1:
            parts.append(("L", rng.choice("OU")))
        else:
            parts.append(("L", size * rng.choice((1, -1))))
    rng.shuffle(parts)
    if rng.random() < 0.3:
        parts.insert(rng.randrange(len(parts) + 1), ("L", 0))
    nodes = parts
    while len(nodes) > 1:
        i = rng.randrange(len(nodes) - 1)
        a, b = nodes[i], nodes[i + 1]
        if rng.random() < 0.5:
            a = ("X", a)
        joined = ("S", (a,) + (b[1] if b[0] == "S" else (b,)))
        if a[0] == "S":
            joined = ("S", a[1] + joined[1][1:])
        nodes[i:i + 2] = [("X", joined) if rng.random() < 0.4 else joined]
    return nodes[0]


def wide_sum(rng: random.Random, leaves: int, twist: int = 9, group: float = 0.25):
    """A tangle sum of about `leaves` leaves; a share of terms are <a b> groups."""
    terms = []
    count = 0
    while count < leaves:
        if rng.random() < group:
            terms.append(("X", ("S", (_leaf(rng, twist), _leaf(rng, twist)))))
            count += 2
        else:
            terms.append(_leaf(rng, twist))
            count += 1
    return ("S", tuple(terms)) if len(terms) > 1 else terms[0]


def nest(rng: random.Random, depth: int, twist: int = 5):
    """<...> nested `depth` deep, one leaf beside each level: <<<x> y> z>."""
    tree = _leaf(rng, twist)
    for _ in range(depth - 1):
        tree = ("X", ("S", (tree, _leaf(rng, twist))))
    return ("X", tree)


def cf_expr(rng: random.Random, entries: int, top: int = 4):
    """A continued fraction [a1,...,an] with entries in +-1..top."""
    return ("CF", tuple(rng.randint(1, top) * rng.choice((1, 1, -1)) for _ in range(entries)))


def twisty(rng: random.Random, terms: int, twist: int, rotate: bool = True):
    """A sum of big twists, with rotate every other one rotated: 717 <-940> ..."""
    parts = []
    for i in range(terms):
        k = rng.randint(twist // 2, twist) * rng.choice((1, -1))
        parts.append(("X", ("L", k)) if rotate and i % 2 else ("L", k))
    return ("S", tuple(parts)) if len(parts) > 1 else parts[0]
