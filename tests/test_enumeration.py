import json
import tracemalloc

import pytest

from knotalg import (
    CapacityError,
    ConsistencyError,
    ParityClass,
    canonical,
    cf_value,
    closure_components,
    closure_count,
    compositions_with_big_ends,
    continued_fraction,
    rational_table,
    schubert_equivalent,
    trace_components,
)
from knotalg import enumeration
from knotalg.enumeration import table_json, table_text


def test_compositions_small():
    assert list(compositions_with_big_ends(2)) == [(2,)]
    assert list(compositions_with_big_ends(3)) == [(3,)]
    assert list(compositions_with_big_ends(4)) == [(2, 2), (4,)]


def test_compositions_are_lexicographic_and_big_ended():
    got = list(compositions_with_big_ends(7))
    assert got == sorted(got)
    assert all(c[0] >= 2 and c[-1] >= 2 for c in got)
    assert all(sum(c) == 7 for c in got)


def test_composition_counts():
    # 2^(n-3) big-ended compositions of n for n >= 3
    assert len(list(compositions_with_big_ends(2))) == 1
    for n in range(3, 11):
        assert len(list(compositions_with_big_ends(n))) == 2 ** (n - 3)


def test_compositions_reject_tiny_n():
    with pytest.raises(ValueError):
        list(compositions_with_big_ends(1))


def test_canonical():
    assert canonical((3, 4)) == (3, 4)
    assert canonical((4, 3)) == (3, 4)
    assert canonical((2, 1, 4)) == (2, 1, 4)
    assert canonical((4, 1, 2)) == (2, 1, 4)
    assert canonical((2, 3, 2)) == (2, 3, 2)


def test_table_seven_matches_known_lists():
    entries = rational_table(7)
    knots = {e.parts for e in entries if e.kind == "knot"}
    links = {e.parts for e in entries if e.kind == "link"}
    assert knots == {
        (7,), (2, 5), (3, 4), (2, 2, 3), (3, 1, 3), (2, 1, 2, 2), (2, 1, 1, 1, 2),
    }
    assert links == {(2, 3, 2), (2, 1, 4), (2, 1, 1, 3)}


def test_table_two_is_the_two_crossing_link():
    entries = rational_table(2)
    assert len(entries) == 1
    assert entries[0].parts == (2,)
    assert entries[0].kind == "link"
    assert entries[0].fraction == cf_value([2])


def test_table_four():
    entries = {e.parts: e for e in rational_table(4)}
    assert set(entries) == {(2, 2), (4,)}
    assert entries[(2, 2)].kind == "knot"
    assert str(entries[(2, 2)].fraction) == "5/2"
    assert entries[(4,)].kind == "link"


def test_tables_have_no_duplicate_classes():
    for n in range(2, 10):
        entries = rational_table(n)
        seen = {e.parts for e in entries}
        assert len(seen) == len(entries)
        assert all(e.parts == canonical(e.parts) for e in entries)


def test_classification_is_reversal_invariant():
    for n in range(2, 10):
        for parts in compositions_with_big_ends(n):
            a = cf_value(parts)
            b = cf_value(parts[::-1])
            assert (a.p % 2) == (b.p % 2)


def test_entries_are_schubert_distinct():
    for n in range(2, 9):
        entries = rational_table(n)
        fractions = [
            (cf_value(e.parts), cf_value(e.parts[::-1])) for e in entries
        ]
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                for f in fractions[i]:
                    for g in fractions[j]:
                        assert not schubert_equivalent(f, g), (
                            entries[i].parts, entries[j].parts)


def test_entries_agree_with_tracing():
    for n in range(2, 9):
        for e in rational_table(n):
            assert trace_components(continued_fraction(e.parts)) == e.components


def test_json_and_text_output():
    entries = rational_table(4)
    data = table_json(entries)
    assert json.loads(json.dumps(data)) == data
    assert data[0] == {
        "parts": [2, 2], "fraction": "5/2", "class": "V", "components": 1,
    }
    text = table_text(entries)
    assert "(2,2)" in text and "5/2" in text and "knot" in text


def test_table_matches_set_and_sort_construction():
    for n in range(2, 15):
        entries = rational_table(n)
        assert [e.parts for e in entries] == sorted(
            {canonical(c) for c in compositions_with_big_ends(n)})
        for e in entries:
            assert e.fraction == cf_value(e.parts)
            assert e.components == closure_components(continued_fraction(e.parts))


@pytest.mark.parametrize("route", ["algebra", "fraction"])
def test_disagreeing_routes_raise(monkeypatch, route):
    if route == "algebra":
        monkeypatch.setattr(enumeration, "closure_count", lambda v: 3 - closure_count(v))
    else:
        monkeypatch.setattr(enumeration, "classify_fraction", lambda f: ParityClass.OKNOT)
    with pytest.raises(ConsistencyError):
        rational_table(6)


def test_capacity_cap(monkeypatch):
    monkeypatch.setenv("KNOTALG_MAX_CROSSINGS", "6")
    with pytest.raises(CapacityError):
        rational_table(7)
    assert len(rational_table(6)) == 6


def test_capacity_checked_before_allocation():
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            rational_table(10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
