"""The Laplacian and strand-tracing routes at nesting depth 10^4.

The trees are built directly, because the parser and the connectivity
algebra (and crossing_count) still recurse; the reference count comes
from the parity of the fraction instead.
"""

import pytest

from knotalg import (
    Concat,
    Cross,
    CrossingPos,
    Frac,
    IntTangle,
    cf_value,
    classify_fraction,
    closure_components,
    closure_nullity,
    continued_fraction,
    crossing_count,
    trace_components,
    trace_state_loops,
)

DEPTH = 10_000


def nested_identity_sums(depth: int):
    """<0 <0 ... <0 O> ...>> with `depth` rotations, its fraction and crossing count."""
    e, f = CrossingPos(), Frac(1)
    for _ in range(depth):
        e = Cross(Concat((IntTangle(0), e)))
        f = f.reciprocal()
    return e, f, 1


def ones_fraction(depth: int):
    """[1,1,...,1] with `depth` entries, its fraction and crossing count."""
    p, q = 1, 1  # the convergents of [1,...,1] are ratios of Fibonacci numbers
    for _ in range(depth - 1):
        p, q = p + q, p
    return continued_fraction([1] * depth), Frac(p, q), depth


@pytest.mark.parametrize("shape", [nested_identity_sums, ones_fraction])
def test_shape_fraction_matches_algebra_when_shallow(shape):
    for depth in range(1, 12):
        e, f, n = shape(depth)
        assert crossing_count(e) == n
        if shape is ones_fraction:
            assert f == cf_value([1] * depth)
        assert closure_components(e) == classify_fraction(f).components


@pytest.mark.parametrize("shape", [nested_identity_sums, ones_fraction])
def test_laplacian_and_oracle_at_depth(shape):
    e, f, n = shape(DEPTH)
    expected = classify_fraction(f).components
    assert closure_nullity(e) == trace_components(e) == expected
    assert trace_state_loops(e, "A" * n) >= 1
