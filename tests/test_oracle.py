import random

import pytest

from knotalg import (
    Concat,
    IntTangle,
    build_diagram,
    closure_components,
    crossing_count,
    parse,
    trace_components,
    trace_state_loops,
)
from corpus import BORROMEAN, component_corpus, random_expr
from references import diagram_curves, union_find_curves


def test_single_twist_diagram():
    d = build_diagram(IntTangle(1))
    assert len(d.crossings) == 1
    c = d.crossings[0]
    assert d.boundary == (c.nw, c.ne, c.sw, c.se)
    assert d.arcs == ()


def test_sum_wires_adjacent_sides():
    d = build_diagram(parse("O O"))
    first, second = d.crossings
    assert (first.ne, second.nw) in d.arcs
    assert (first.se, second.sw) in d.arcs
    assert d.boundary == (first.nw, second.ne, first.sw, second.se)


def test_rotated_identity_boundary():
    d = build_diagram(parse("<E>"))
    assert len(d.crossings) == 0
    nw, ne, sw, se = d.boundary
    pairs = {frozenset(a) for a in d.arcs}
    assert pairs == {frozenset({nw, sw}), frozenset({ne, se})}


def test_integral_tangles_expand_to_chains():
    d = build_diagram(IntTangle(-3))
    assert len(d.crossings) == 3
    assert all(c.sign == -1 for c in d.crossings)


def test_trace_examples():
    assert trace_components(BORROMEAN) == 3
    assert trace_components(parse("[3,7,16]")) == 1
    assert trace_components(parse("E")) == 2
    assert trace_components(parse("O")) == 1


def test_state_loops_examples():
    hopf = parse("O O")
    assert trace_state_loops(hopf, "AA") == 2
    assert trace_state_loops(hopf, "AB") == 1
    assert trace_state_loops(hopf, "BA") == 1
    assert trace_state_loops(hopf, "BB") == 2
    assert trace_state_loops(parse("O O O"), "BBB") == 3
    assert trace_state_loops(parse("E"), "") == 2


def test_state_loops_validates():
    with pytest.raises(ValueError, match="length"):
        trace_state_loops(parse("O O"), "A")
    with pytest.raises(ValueError, match="labels"):
        trace_state_loops(parse("O O"), "AX")


def test_state_tracks_expanded_leaf_order():
    # [2] as two crossings behaves like the explicit O O
    assert trace_state_loops(IntTangle(2), "AB") == trace_state_loops(parse("O O"), "AB")
    assert trace_state_loops(IntTangle(-2), "AB") == trace_state_loops(parse("U U"), "AB")


def test_reassociation_invariance():
    rng = random.Random(53)
    for _ in range(50):
        parts = tuple(random_expr(rng, depth=2) for _ in range(3))
        flat = Concat(parts)
        left = Concat((Concat(parts[:2]), parts[2]))
        right = Concat((parts[0], Concat(parts[1:])))
        assert trace_components(flat) == trace_components(left) == trace_components(right)


def test_agreement_with_algebra_on_corpus():
    for e in component_corpus():
        assert trace_components(e) == closure_components(e)


def test_agreement_with_algebra_random_large():
    rng = random.Random(4242)
    for _ in range(1000):
        e = random_expr(rng, depth=6)
        assert trace_components(e) == closure_components(e)


def test_trace_matches_union_find_reference():
    rng = random.Random(8101)
    for e in component_corpus() + [random_expr(rng, depth=6) for _ in range(200)]:
        assert trace_components(e) == union_find_curves(e) == diagram_curves(build_diagram(e))


def test_state_loops_match_union_find_reference():
    rng = random.Random(8102)
    exprs = component_corpus() + [random_expr(rng, depth=5) for _ in range(200)]
    for e in exprs:
        n = crossing_count(e)
        state = "".join(rng.choice("AB") for _ in range(n))
        assert trace_state_loops(e, state) == union_find_curves(e, state)
        with pytest.raises(ValueError, match="length"):
            trace_state_loops(e, state + "A")
        if n:
            bad = state[:-1] + rng.choice("abX0 ")
            with pytest.raises(ValueError, match="labels"):
                trace_state_loops(e, bad)


def test_oracle_loads_neither_the_algebra_nor_the_laplacian(python_child):
    code = "import sys, knotalg.oracle\nprint(' '.join(m for m in sys.modules if m.startswith('knotalg.')))"
    child = python_child("-c", code)
    assert child.returncode == 0, child.stderr
    assert set(child.stdout.split()) <= {"knotalg.oracle", "knotalg.expr", "knotalg.errors"}
