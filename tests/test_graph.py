import random

import pytest

from knotalg import (
    Frac,
    INF,
    IntTangle,
    PlaneGraph,
    cf_value,
    closure_components,
    closure_nullity,
    conductance,
    continued_fraction,
    dualize,
    mod2_laplacian,
    nullity_gf2,
    parse,
    sp_network,
    to_multigraph,
    trace_components,
)
from knotalg.graph import Edge, GF2Matrix, Open, Par, Ser, Short, par, ser
from corpus import BORROMEAN, WHITEHEAD, component_corpus, random_expr
from references import dense_rank, dualize_network


def test_sp_network_examples():
    assert sp_network(IntTangle(2)) == Par((Edge(1), Edge(1)))
    assert conductance(sp_network(IntTangle(2))) == Frac(2)
    assert sp_network(parse("<2>")) == Ser((Edge(1), Edge(1)))
    assert conductance(sp_network(parse("<2>"))) == Frac(1, 2)
    assert sp_network(IntTangle(0)) == Open()
    assert sp_network(parse("<E>")) == Short()
    assert sp_network(parse("U")) == Edge(-1)


def test_normalizing_constructors():
    assert par(Edge(), Open(), Edge()) == Par((Edge(), Edge()))
    assert ser(Edge(), Short(), Edge()) == Ser((Edge(), Edge()))
    assert par() == Open()
    assert ser() == Short()
    assert par(par(Edge(), Edge()), Edge()) == Par((Edge(), Edge(), Edge()))
    # a Short beside other branches must survive: its siblings still carry
    # crossings of the diagram even though it wins electrically
    assert par(Edge(), Short()) == Par((Edge(), Short()))
    assert ser(Edge(), Open()) == Ser((Edge(), Open()))


def test_short_in_parallel_keeps_sibling_edges():
    # <E> beside a vertical twist: two crossings survive as a doubled edge
    e = parse("V <2>")
    g = to_multigraph(sp_network(e))
    assert g.n == 2
    assert sorted(tuple(sorted(edge)) for edge in g.edges) == [(0, 1), (0, 1)]
    assert closure_nullity(e) == closure_components(e) == 2


def test_open_in_series_keeps_child_graph():
    e = parse("<V <2>>")
    assert closure_nullity(e) == closure_components(e) == 3


def test_dualize():
    assert dualize(Par((Edge(), Edge()))) == Ser((Edge(), Edge()))
    assert dualize(Open()) == Short()
    assert dualize(Short()) == Open()
    tree = sp_network(BORROMEAN)
    assert dualize(dualize(tree)) == tree


def test_dual_conductance_is_reciprocal():
    for parts in [(2,), (3,), (2, 2), (3, 1, 2), (2, 3, 2, 3)]:
        tree = sp_network(continued_fraction(parts))
        assert conductance(dualize(tree)) == conductance(tree).reciprocal()


def test_conductance_matches_tangle_fraction():
    rng = random.Random(61)
    for _ in range(200):
        parts = [rng.randint(1, 5) for _ in range(rng.randint(1, 6))]
        tree = sp_network(continued_fraction(parts))
        assert conductance(tree) == cf_value(parts)
    assert conductance(sp_network(parse("<E>"))) == INF


def test_multigraph_twist_closures():
    g = to_multigraph(sp_network(IntTangle(2)))
    assert (g.n, sorted(g.edges)) == (2, [(0, 1), (0, 1)])
    g = to_multigraph(sp_network(IntTangle(3)))
    assert (g.n, sorted(g.edges)) == (2, [(0, 1), (0, 1), (0, 1)])


def test_multigraph_borromean_edge_count():
    g = to_multigraph(sp_network(BORROMEAN))
    assert len(g.edges) == 8  # one edge per crossing of the expression
    assert nullity_gf2(mod2_laplacian(g)) == 3


def test_multigraph_degenerate_closures():
    open_closed = to_multigraph(sp_network(IntTangle(0)), closed=True)
    assert (open_closed.n, open_closed.edges) == (2, ())
    short_closed = to_multigraph(sp_network(parse("<E>")), closed=True)
    assert (short_closed.n, short_closed.edges) == (1, ())
    short_open = to_multigraph(sp_network(parse("<E>")), closed=False)
    assert (short_open.n, short_open.edges) == (2, ())


def test_series_realization_keeps_terminals_first():
    g = to_multigraph(sp_network(parse("<2>")))
    assert g.n == 3
    assert sorted(g.edges) == [(0, 2), (2, 1)]


def test_laplacian_spot_matrices():
    single = PlaneGraph(2, ((0, 1),))
    assert mod2_laplacian(single).to_dense() == [[1, 1], [1, 1]]
    doubled = PlaneGraph(2, ((0, 1), (0, 1)))
    assert mod2_laplacian(doubled).to_dense() == [[0, 0], [0, 0]]
    triangle = PlaneGraph(3, ((0, 1), (1, 2), (2, 0)))
    assert mod2_laplacian(triangle).to_dense() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_laplacian_ignores_self_loops():
    g = PlaneGraph(2, ((0, 0), (0, 1)))
    assert mod2_laplacian(g).to_dense() == [[1, 1], [1, 1]]


def test_nullity_spot_values():
    assert nullity_gf2(mod2_laplacian(PlaneGraph(2, ((0, 1),)))) == 1
    assert nullity_gf2(mod2_laplacian(PlaneGraph(2, ((0, 1), (0, 1))))) == 2
    assert nullity_gf2(mod2_laplacian(PlaneGraph(3, ((0, 1), (1, 2), (2, 0))))) == 1


def test_gf2_matrix_helpers():
    m = GF2Matrix.from_dense([[1, 0], [1, 1]])
    assert m.rank() == 2
    assert m.to_dense() == [[1, 0], [1, 1]]
    assert GF2Matrix(3, [0, 0, 0]).rank() == 0
    with pytest.raises(ValueError):
        GF2Matrix.from_dense([[1, 0]])


def test_plane_graph_json_round_trip():
    g = PlaneGraph(3, ((0, 1), (1, 2)))
    assert PlaneGraph.from_json_dict(g.to_json_dict()) == g
    with pytest.raises(ValueError):
        PlaneGraph.from_json_dict({"nodes": 2, "edges": [[0, 5]]})


def test_nullity_theorem_on_corpus():
    for e in component_corpus():
        assert closure_nullity(e) == closure_components(e) == trace_components(e)


def test_nullity_named_examples():
    assert closure_nullity(BORROMEAN) == 3
    assert closure_nullity(WHITEHEAD) == 2
    assert closure_nullity(parse("P(2,3,5)")) == 1


def test_dualize_involution_on_random_networks():
    import random
    from corpus import random_expr

    rng = random.Random(271)
    for _ in range(300):
        tree = sp_network(random_expr(rng, depth=5))
        assert dualize(dualize(tree)) == tree


def test_conductance_rejects_degenerate_networks():
    with pytest.raises(ArithmeticError):
        conductance(sp_network(parse("V V")))


def _random_laplacian(rng: random.Random, n: int) -> GF2Matrix:
    edges = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n)))
    return mod2_laplacian(PlaneGraph(n, edges))


def test_rank_matches_dense_reference_on_random_matrices():
    rng = random.Random(1729)
    for _ in range(300):
        n = rng.randint(0, 60)
        density = rng.choice((0.02, 0.1, 0.3, 0.5, 0.9))
        rows = [sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)]
        assert GF2Matrix(n, rows).rank() == dense_rank(rows, n), (n, density)


def test_rank_matches_dense_reference_on_random_laplacians():
    rng = random.Random(1730)
    for _ in range(100):
        m = _random_laplacian(rng, rng.randint(1, 80))
        assert m.rank() == dense_rank(m.rows, m.n)


def test_sp_network_matches_dualize_reference():
    rng = random.Random(2565)
    exprs = component_corpus() + [random_expr(rng, depth=6) for _ in range(500)]
    for e in exprs:
        reference = dualize_network(e)
        assert sp_network(e) == reference
        g = to_multigraph(reference, closed=True)
        m = mod2_laplacian(g)
        assert closure_nullity(e) == m.n - dense_rank(m.rows, m.n) == closure_components(e)
