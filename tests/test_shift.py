"""Core symbolic-space invariants, checked property-style."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruellekit.shift import (
    CylinderFunction,
    CylinderMeasure,
    Point,
    TableSizeError,
    check_table_size,
    first_disagreement,
    format_word,
    integrate,
    parse_word,
    prepend,
    shift,
    shift_n,
    word_index,
    word_table,
)

symbols = st.integers(min_value=0, max_value=2)
points = st.builds(
    Point,
    st.lists(symbols, max_size=5).map(tuple),
    st.lists(symbols, min_size=1, max_size=4).map(tuple),
)


def index_word(idx, length, d):
    """The word of the given length with lexicographic index idx (inverse of word_index)."""
    out = []
    for _ in range(length):
        out.append(idx % d)
        idx //= d
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# Words and tables
# ---------------------------------------------------------------------------

def test_word_index_is_lexicographic():
    # first symbol most significant: 0^m, 0^{m-1}1, ..., (d-1)^m
    d, m = 3, 3
    words = [index_word(i, m, d) for i in range(d**m)]
    assert words == sorted(words)
    assert words[0] == (0, 0, 0)
    assert words[-1] == (2, 2, 2)
    for i, w in enumerate(words):
        assert word_index(w, d) == i


def test_word_table_matches_index_word():
    table = word_table(2, 3)
    assert table.shape == (9, 2)
    for i in range(9):
        assert tuple(table[i]) == index_word(i, 2, 3)


def test_parse_format_roundtrip():
    assert parse_word("0120") == (0, 1, 2, 0)
    assert format_word((0, 1, 2, 0)) == "0120"
    with pytest.raises(ValueError):
        parse_word("01a")


def test_size_guard():
    assert check_table_size(2, 22) == 2**22
    with pytest.raises(TableSizeError):
        check_table_size(2, 23)
    with pytest.raises(TableSizeError):
        CylinderFunction.constant(2, 0.0, depth=23)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tables_refuse_non_finite_entries(bad):
    with pytest.raises(ValueError):
        CylinderFunction(2, 1, [0.0, bad])
    with pytest.raises(ValueError):
        CylinderMeasure(2, 1, [bad, 0.5])


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------

def test_point_canonical_forms_are_equal():
    assert Point((0,), (1, 0)) == Point((), (0, 1))
    assert Point((), (1, 1)) == Point.constant(1)
    assert Point((0, 1), (0, 1)) == Point.periodic((0, 1))
    assert Point.from_literal("01|10").literal == Point((0, 1), (1, 0)).literal


@given(st.lists(symbols, max_size=9), st.lists(symbols, min_size=1, max_size=6))
def test_point_fields_are_python_ints_whatever_the_symbols(prefix, cycle):
    x = Point(tuple(prefix), tuple(cycle))
    y = Point(np.array(prefix, dtype=np.int64), np.array(cycle, dtype=np.uint8))
    assert (y.prefix, y.cycle) == (x.prefix, x.cycle) and y == x and hash(y) == hash(x)
    assert all(type(s) is int for s in y.prefix + y.cycle)


def test_point_refuses_empty_cycles_and_negative_symbols():
    with pytest.raises(ValueError, match="cycle must be non-empty"):
        Point((0, 1), ())
    for prefix, cycle in (((-1,), (0,)), ((0,), (1, -2)), ((), (-1,))):
        with pytest.raises(ValueError, match="symbols must be non-negative integers"):
            Point(prefix, cycle)


@given(points)
def test_point_coords_periodic_tail(x):
    L = len(x.cycle)
    P = len(x.prefix)
    for i in range(P + 1, P + 2 * L + 1):
        assert x.coord(i) == x.coord(i + L)


@given(points)
def test_shift_drops_first_coordinate(x):
    y = shift(x)
    for i in range(1, 12):
        assert y.coord(i) == x.coord(i + 1)


@given(points, st.integers(min_value=0, max_value=6))
def test_shift_n_composes(x, n):
    y = x
    for _ in range(n):
        y = shift(y)
    assert shift_n(x, n) == y


@given(points, st.lists(symbols, min_size=1, max_size=4).map(tuple))
def test_prepend_then_shift(x, word):
    y = prepend(x, word)
    assert y.coords(len(word)) == word
    assert shift_n(y, len(word)) == x


@given(points, points)
@settings(max_examples=200)
def test_first_disagreement(x, y):
    n = first_disagreement(x, y)
    if n is None:
        assert x == y
    else:
        assert x.coords(n - 1) == y.coords(n - 1)
        assert x.coord(n) != y.coord(n)


# ---------------------------------------------------------------------------
# Cylinder tables
# ---------------------------------------------------------------------------

def test_refine_repeats_blocks():
    g = CylinderFunction(2, 1, np.array([3.0, 7.0]))
    g2 = g.refine(3)
    # value depends only on the first coordinate after refinement
    assert list(g2.values) == [3.0] * 4 + [7.0] * 4
    x = Point.from_literal("011|0")
    assert g.value_at(x) == g2.value_at(x) == 3.0


def test_indicator_and_value_at():
    ind = CylinderFunction.indicator(2, (0, 1))
    assert ind.value_at(Point.from_literal("01|1")) == 1.0
    assert ind.value_at(Point.from_literal("00|1")) == 0.0
    assert ind.values.sum() == 1.0


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2))
def test_coarsen_refine_tower(depth, extra):
    rng = np.random.default_rng(depth * 10 + extra)
    d = 2
    mu = CylinderMeasure(d, depth + extra, rng.uniform(0.0, 1.0, size=d ** (depth + extra)))
    g = CylinderFunction(d, depth, rng.uniform(-1.0, 1.0, size=d**depth))
    # integrating a coarse function against a fine measure factors through coarsening
    lhs = integrate(mu, g)
    rhs = integrate(mu.coarsen(depth), g)
    assert math.isclose(lhs, rhs, rel_tol=0, abs_tol=1e-12)
    # refinement never changes the integral
    assert math.isclose(lhs, integrate(mu, g.refine(depth + extra)), abs_tol=1e-12)


def test_measure_masses():
    mu = CylinderMeasure.uniform(2, 3)
    assert mu.total_mass() == pytest.approx(1.0)
    assert mu.cylinder_mass((0,)) == pytest.approx(0.5)
    assert mu.cylinder_mass((0, 1, 1)) == pytest.approx(1 / 8)
