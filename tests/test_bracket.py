import random
import tracemalloc
from fractions import Fraction

import pytest
import sympy as sp

from knotalg import (
    CapacityError,
    Concat,
    ConsistencyError,
    CrossingNeg,
    CrossingPos,
    IntTangle,
    LaurentPoly,
    bracket,
    build_cube,
    crossing_count,
    expand_crossings,
    mirror,
    parse,
    raw_bracket,
    trace_state_loops,
)
from knotalg.bracket import RawBracket, state_string, state_sum_bracket
from corpus import BORROMEAN, random_expr_with_cap, state_sweep_corpus

A, B, d = sp.symbols("A B d")


def sympy_raw(e):
    """Independent state sum: oracle loop counts, sympy arithmetic."""
    n = crossing_count(e)
    total = sp.Integer(0)
    for index in range(1 << n):
        bits = state_string(index, n)
        i = bits.count("A")
        total += A**i * B ** (n - i) * d ** trace_state_loops(e, bits)
    return sp.expand(total)


def sympy_bracket(e):
    raw = sympy_raw(e)
    return sp.expand(sp.cancel(raw.subs({B: 1 / A, d: -A**2 - A**-2}) / (-A**2 - A**-2)))


def to_sympy(poly: LaurentPoly):
    return sp.expand(sum(c * A**e for e, c in poly.to_pairs()))


# ---------------------------------------------------------------------------
# LaurentPoly


def test_poly_construction_drops_zeros():
    assert LaurentPoly({3: 0, 1: 2}).terms == {1: 2}
    assert not LaurentPoly()
    assert LaurentPoly([(1, 1), (1, -1)]).terms == {}


def test_poly_arithmetic():
    p = LaurentPoly({2: 1, 0: -1})
    q = LaurentPoly({-2: 3})
    assert (p + q).terms == {2: 1, 0: -1, -2: 3}
    assert (p - p).terms == {}
    assert (p * q).terms == {0: 3, -2: -3}
    assert (q**2).terms == {-4: 9}
    assert p.inverted().terms == {-2: 1, 0: -1}


def test_poly_str():
    assert str(LaurentPoly()) == "0"
    assert str(LaurentPoly({4: -1, -4: -1})) == "-A^4 - A^-4"
    assert str(LaurentPoly({8: 1, 4: -1, 0: 1, -4: -1, -8: 1})) == "A^8 - A^4 + 1 - A^-4 + A^-8"
    assert str(LaurentPoly({1: 2, 0: 3})) == "2A + 3"
    assert str(LaurentPoly({-1: 1})) == "A^-1"


def test_poly_pairs_descend():
    assert LaurentPoly({0: 1, 4: 2, -2: 3}).to_pairs() == [(4, 2), (0, 1), (-2, 3)]


def test_poly_divexact():
    divisor = LaurentPoly({2: -1, -2: -1})
    product = LaurentPoly({3: 2, 0: -1}) * divisor
    assert product.divexact(divisor) == LaurentPoly({3: 2, 0: -1})
    with pytest.raises(ConsistencyError):
        LaurentPoly({1: 1}).divexact(divisor)
    with pytest.raises(ZeroDivisionError):
        LaurentPoly({1: 1}).divexact(LaurentPoly())


# ---------------------------------------------------------------------------
# Expansion


def test_expand_crossings():
    assert expand_crossings(IntTangle(2)) == Concat((CrossingPos(), CrossingPos()))
    assert expand_crossings(IntTangle(-2)) == Concat((CrossingNeg(), CrossingNeg()))
    assert expand_crossings(IntTangle(1)) == CrossingPos()
    assert expand_crossings(IntTangle(0)) == IntTangle(0)
    assert crossing_count(BORROMEAN) == 8
    assert crossing_count(expand_crossings(BORROMEAN)) == 8


def test_state_string_order():
    assert [state_string(i, 2) for i in range(4)] == ["AA", "AB", "BA", "BB"]
    assert state_string(0, 0) == ""


# ---------------------------------------------------------------------------
# State sums


def test_raw_bracket_hopf():
    raw = raw_bracket(parse("O O"))
    assert raw.terms == {(2, 0, 2): 1, (1, 1, 1): 2, (0, 2, 2): 1}
    assert str(raw) == "A^2 d^2 + 2 A B d + B^2 d^2"


def test_raw_bracket_single_crossing():
    raw = raw_bracket(parse("O"))
    assert raw.terms == {(1, 0, 2): 1, (0, 1, 1): 1}


def test_raw_bracket_identity_tangle():
    raw = raw_bracket(parse("E"))
    assert raw.terms == {(0, 0, 2): 1}
    assert bracket(parse("E")) == LaurentPoly({2: -1, -2: -1})


def test_state_count_conservation():
    rng = random.Random(77)
    for _ in range(30):
        e = random_expr_with_cap(rng, 9)
        raw = raw_bracket(e)
        assert raw.multiplicity_total() == 2**raw.n
        assert all(i + j == raw.n for (i, j, _) in raw.terms)
        assert all(k >= 1 for (_, _, k) in raw.terms)


def test_bracket_golden_values():
    assert bracket(parse("O O")) == LaurentPoly({4: -1, -4: -1})
    assert bracket(parse("O")) == LaurentPoly({3: -1})
    assert bracket(parse("O O O")) == LaurentPoly({5: -1, -3: -1, -7: 1})
    fig8 = bracket(parse("<O O> U U"))
    assert fig8 == LaurentPoly({8: 1, 4: -1, 0: 1, -4: -1, -8: 1})
    assert fig8 == fig8.inverted()


def test_bracket_against_independent_route():
    targets = [parse("O O"), parse("O O O"), parse("<O O> U U"), parse("2 <2>")]
    rng = random.Random(99)
    targets += [random_expr_with_cap(rng, 6) for _ in range(5)]
    for e in targets:
        assert to_sympy(bracket(e)) == sympy_bracket(e)


def test_loop_counts_match_tracing():
    for e in state_sweep_corpus(6):
        n = crossing_count(e)
        raw = raw_bracket(e)
        recomputed: dict[tuple[int, int, int], int] = {}
        for index in range(1 << n):
            bits = state_string(index, n)
            i = bits.count("A")
            key = (i, n - i, trace_state_loops(e, bits))
            recomputed[key] = recomputed.get(key, 0) + 1
        assert recomputed == raw.terms


def test_mirror_symmetry():
    rng = random.Random(2025)
    for _ in range(50):
        e = random_expr_with_cap(rng, 10)
        assert bracket(mirror(e)) == bracket(e).inverted()


def test_fold_matches_state_sum():
    rng = random.Random(4012)
    exprs = state_sweep_corpus(8) + [random_expr_with_cap(rng, 12) for _ in range(200)]
    for e in exprs:
        assert raw_bracket(e).terms == state_sum_bracket(e).terms, e


def test_sixty_crossings_beyond_enumeration():
    e = parse("<3 <4 -5> 2> <<6> -7> <-9 <5> 3> U P(2,-3,4) [3,1,2]")
    assert crossing_count(e) == 60
    raw = raw_bracket(e, max_crossings=200)
    assert raw.n == 60
    assert raw.multiplicity_total() == 2**60
    assert all(i + j == raw.n for (i, j, _) in raw.terms)
    poly = raw.specialize()
    assert bracket(mirror(e), max_crossings=200) == poly.inverted()
    # Exact check of specialize at A = 2: sum of A^(i-j) d^(k-1) with d = -A^2 - A^-2.
    a = Fraction(2)
    loop = -(a**2) - 1 / a**2
    expected = sum(mult * a ** (i - j) * loop ** (k - 1) for (i, j, k), mult in raw.terms.items())
    assert sum(c * a**exp for exp, c in poly.terms.items()) == expected


def test_capacity_cap():
    big = IntTangle(25)
    with pytest.raises(CapacityError):
        raw_bracket(big)
    with pytest.raises(CapacityError):
        raw_bracket(IntTangle(5), max_crossings=4)


def test_capacity_env_override(monkeypatch):
    monkeypatch.setenv("KNOTALG_MAX_CROSSINGS", "3")
    with pytest.raises(CapacityError):
        raw_bracket(IntTangle(4))
    assert raw_bracket(IntTangle(3)).n == 3


@pytest.mark.parametrize("route", [raw_bracket, state_sum_bracket, build_cube])
def test_capacity_checked_before_allocation(route):
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            route(IntTangle(10**9))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_specialize_is_exact_by_construction():
    raw = RawBracket(1, {(1, 0, 2): 1, (0, 1, 1): 1})
    assert raw.specialize() == LaurentPoly({3: -1})
