import random

import pytest

from knotalg import (
    CapacityError,
    ConnClass,
    Cross,
    IntTangle,
    build_cube,
    classify_site_by_toggle,
    closure_count,
    concat,
    contract,
    crossing_count,
    crossing_tensor,
    eval_smoothed,
    expand_crossings,
    parse,
    raw_bracket,
    smoothing_tensor,
    state_structure,
    trace_state_loops,
)
from knotalg.bracket import crossing_signs, smoothing_class, state_string
from corpus import random_leaf, state_sweep_corpus

E, V, O = ConnClass.E, ConnClass.V, ConnClass.O


def delta_pairs(term):
    return {frozenset((d.a, d.b)) for d in term.deltas}


def test_smoothing_tensor_pairings():
    a, b, c, d = range(4)
    assert delta_pairs(smoothing_tensor(E)) == {frozenset({a, b}), frozenset({c, d})}
    assert delta_pairs(smoothing_tensor(O)) == {frozenset({a, d}), frozenset({b, c})}
    assert delta_pairs(smoothing_tensor(V)) == {frozenset({a, c}), frozenset({b, d})}
    assert smoothing_tensor(E).free == (0, 1, 2, 3)
    assert smoothing_tensor(E, start=10).free == (10, 11, 12, 13)


def test_smoothing_tensor_site_tags():
    term = smoothing_tensor(E, site=7)
    assert sorted(d.path for d in term.deltas) == [((7, 0),), ((7, 1),)]
    assert all(d.path == () for d in smoothing_tensor(E).deltas)


def test_crossing_tensor_terms():
    a_term, b_term = crossing_tensor(+1, site=0)
    assert delta_pairs(a_term) == delta_pairs(smoothing_tensor(E))
    assert delta_pairs(b_term) == delta_pairs(smoothing_tensor(V))
    assert (a_term.a_pow, a_term.b_pow) == (1, 0)
    assert (b_term.a_pow, b_term.b_pow) == (0, 1)
    a_term, b_term = crossing_tensor(-1)
    assert delta_pairs(a_term) == delta_pairs(smoothing_tensor(V))
    assert delta_pairs(b_term) == delta_pairs(smoothing_tensor(E))


def wire_horizontally(t, s):
    return contract(t, s, [(t.free[1], s.free[0]), (t.free[3], s.free[2])])


def as_pairing(term):
    """Map the surviving free labels to index pairs like _PAIRINGS."""
    nw, sw, ne, se = term.free  # contract keeps t.free + s.free order
    order = {nw: 0, ne: 1, sw: 2, se: 3}
    return {frozenset((order[d.a], order[d.b])) for d in term.deltas}


def test_contract_horizontal_compositions():
    # E E -> E, no loops
    r = wire_horizontally(smoothing_tensor(E), smoothing_tensor(E, start=4))
    assert as_pairing(r) == {frozenset({0, 1}), frozenset({2, 3})}
    assert r.loops == ()
    # V V -> V with one loop
    r = wire_horizontally(smoothing_tensor(V), smoothing_tensor(V, start=4))
    assert as_pairing(r) == {frozenset({0, 2}), frozenset({1, 3})}
    assert len(r.loops) == 1
    # O O -> E, no loops
    r = wire_horizontally(smoothing_tensor(O), smoothing_tensor(O, start=4))
    assert as_pairing(r) == {frozenset({0, 1}), frozenset({2, 3})}
    assert r.loops == ()


def test_contract_records_loop_incidences():
    left = smoothing_tensor(V, site=0)
    right = smoothing_tensor(V, site=1, start=4)
    r = wire_horizontally(left, right)
    assert len(r.loops) == 1
    assert set(r.loops[0]) == {(0, 1), (1, 0)}  # right arc of site 0, left arc of site 1


def test_contract_requires_disjoint_labels():
    with pytest.raises(ValueError, match="disjoint"):
        contract(smoothing_tensor(E), smoothing_tensor(E), [])


def test_contract_rejects_overused_labels():
    t = smoothing_tensor(E)
    s = smoothing_tensor(E, start=4)
    with pytest.raises(ValueError, match="valence|free"):
        contract(t, s, [(t.free[1], s.free[0]), (t.free[1], s.free[2])])


def test_contract_wiring_must_touch_free_labels():
    t = smoothing_tensor(E)
    s = smoothing_tensor(E, start=4)
    with pytest.raises(ValueError, match="free"):
        contract(t, s, [(t.free[0], 99)])


def test_state_structure_hopf():
    hopf = parse("O O")
    aa = state_structure(hopf, "AA")
    assert aa.loop_count == 2
    assert aa.site_kinds() == {0: "joining", 1: "joining"}
    ab = state_structure(hopf, "AB")
    assert ab.loop_count == 1
    assert ab.site_kinds() == {0: "self", 1: "self"}


def test_state_structure_trefoil_alternating_state():
    s = state_structure(parse("O O O"), "BAB")
    assert s.loop_count == 2


def test_state_structure_counts_bare_circles():
    s = state_structure(parse("E"), "")
    assert s.loop_count == 2
    assert s.loops == ((), ())


def test_classify_site_by_toggle_hopf():
    hopf = parse("O O")
    assert classify_site_by_toggle(hopf, "AA", 0) == "joining"
    assert classify_site_by_toggle(hopf, "AA", 1) == "joining"
    assert classify_site_by_toggle(hopf, "AB", 0) == "self"
    assert classify_site_by_toggle(hopf, "AB", 1) == "self"


def test_single_crossing_site_classification():
    one = parse("O")
    for bits in ("A", "B"):
        by_toggle = classify_site_by_toggle(one, bits, 0)
        by_membership = state_structure(one, bits).site_kinds()[0]
        assert by_toggle == by_membership


def test_loop_counts_agree_three_ways():
    for e in state_sweep_corpus(6):
        n = crossing_count(e)
        for index in range(1 << n):
            bits = state_string(index, n)
            structure = state_structure(e, bits)
            assert structure.loop_count == trace_state_loops(e, bits)


def test_site_classifications_agree():
    for e in state_sweep_corpus(5):
        n = crossing_count(e)
        for index in range(1 << n):
            bits = state_string(index, n)
            kinds = state_structure(e, bits).site_kinds()
            for site in range(n):
                assert classify_site_by_toggle(e, bits, site) == kinds[site]


def test_hopf_cube():
    cube = build_cube(parse("O O"))
    assert {bits: v.loops for bits, v in cube.vertices.items()} == {
        "AA": 2, "AB": 1, "BA": 1, "BB": 2,
    }
    assert len(cube.edges) == 4
    labels = {(e.src, e.dst): e.label for e in cube.edges}
    assert labels == {
        ("AA", "AB"): "merge",
        ("AA", "BA"): "merge",
        ("AB", "BB"): "split",
        ("BA", "BB"): "split",
    }


def test_trefoil_cube_matches_raw_bracket():
    trefoil = parse("O O O")
    cube = build_cube(trefoil)
    by_weight: dict[int, list[int]] = {}
    for bits, v in cube.vertices.items():
        by_weight.setdefault(bits.count("B"), []).append(v.loops)
    assert by_weight[0] == [2]
    assert sorted(by_weight[1]) == [1, 1, 1]
    assert sorted(by_weight[2]) == [2, 2, 2]
    assert by_weight[3] == [3]


def test_cube_reconstructs_raw_bracket():
    for e in state_sweep_corpus(5):
        cube = build_cube(e)
        recomputed: dict[tuple[int, int, int], int] = {}
        for bits, v in cube.vertices.items():
            key = (bits.count("A"), bits.count("B"), v.loops)
            recomputed[key] = recomputed.get(key, 0) + 1
        assert recomputed == raw_bracket(e).terms


def test_cube_edges_change_loops_by_one():
    for e in state_sweep_corpus(5):
        cube = build_cube(e)
        for edge in cube.edges:
            delta = cube.vertices[edge.dst].loops - cube.vertices[edge.src].loops
            assert abs(delta) == 1
            assert edge.label == ("merge" if delta < 0 else "split")
        expected_edges = cube.n * 2 ** (cube.n - 1) if cube.n else 0
        assert len(cube.edges) == expected_edges


def random_wiring_expr(rng, depth=4):
    """Random crossings mixed with identity tangles and <...>, which close to bare circles."""
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        return IntTangle(0) if rng.random() < 0.4 else random_leaf(rng)
    if roll < 0.55:
        return Cross(random_wiring_expr(rng, depth - 1))
    return concat(*(random_wiring_expr(rng, depth - 1) for _ in range(rng.randint(2, 3))))


def test_cube_matches_state_structure():
    rng = random.Random(11)
    randoms = []
    while len(randoms) < 50:
        e = random_wiring_expr(rng)
        if crossing_count(e) <= 6:
            randoms.append(e)
    bare_circles = 0
    for e in state_sweep_corpus(6) + randoms:
        cube = build_cube(e)
        for bits, vertex in cube.vertices.items():
            assert vertex.structure == state_structure(e, bits)
            bare_circles += vertex.structure.loops.count(())
        for edge in cube.edges:
            kind = cube.vertices[edge.src].structure.site_kinds()[edge.site]
            assert edge.label == {"self": "split", "joining": "merge"}[kind]
    assert bare_circles > 0


def test_cube_json_schema():
    data = build_cube(parse("O O")).to_json_dict()
    assert set(data) == {"n", "vertices", "edges"}
    assert data["n"] == 2
    vertex = data["vertices"][0]
    assert set(vertex) == {"bits", "loops", "sites"}
    assert vertex["sites"][0] == {"id": 0, "kind": "joining"}
    edge = data["edges"][0]
    assert set(edge) == {"from", "to", "site", "label"}


def test_cube_capacity():
    with pytest.raises(CapacityError):
        build_cube(parse("25"), max_crossings=10)


def test_smoothed_eval_matches_structures():
    rng = random.Random(7)
    for e in state_sweep_corpus(5)[::7]:
        n = crossing_count(e)
        expanded = expand_crossings(e)
        signs = crossing_signs(e)
        for _ in range(3):
            bits = "".join(rng.choice("AB") for _ in range(n))
            classes = [smoothing_class(s, lab) for s, lab in zip(signs, bits)]
            assert closure_count(eval_smoothed(expanded, classes)) == \
                state_structure(e, bits).loop_count
