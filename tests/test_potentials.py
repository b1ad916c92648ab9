import dataclasses
import itertools
import math

import numpy as np
import pytest

from ruellekit.ising import IsingParams, g_potential
from ruellekit.potentials import (
    GenericContinuous,
    Hoelder,
    Potential,
    SummableVariation,
    VariationUnavailable,
    birkhoff,
    birkhoff_table,
    jop_series,
    make_hofbauer_walters,
    scale,
    tabulate,
    tail_birkhoff,
    truncate,
    var_upper,
    walters_estimate,
)
from ruellekit.shift import Point, TableSizeError, prepend

MARKOV = Potential.from_table(
    2, 2, [math.log(2.0), 0.0, 0.0, 0.0], label="markov"
)


def brute_var(f, n, probe_depth=6):
    """Oscillation of f over each depth-n cylinder, by enumeration.

    Probes every word of length probe_depth >= table depth with a constant
    tail, which is exhaustive for a table-backed potential.
    """
    d = f.d
    worst = 0.0
    for w_idx in range(d**n):
        word = tuple((w_idx // d ** (n - 1 - k)) % d for k in range(n))
        vals = []
        for e_idx in range(d ** (probe_depth - n)):
            ext = tuple((e_idx // d ** (probe_depth - n - 1 - k)) % d for k in range(probe_depth - n))
            vals.append(f.evaluate(Point(word + ext, (0,)))[0])
        worst = max(worst, max(vals) - min(vals))
    return worst


def test_table_variation_exact():
    rng = np.random.default_rng(7)
    f = Potential.from_table(2, 3, rng.uniform(-1, 1, 8))
    for n in range(1, 3):
        assert var_upper(f, n) == pytest.approx(brute_var(f, n), abs=1e-14)
    assert var_upper(f, 3) == 0.0
    assert var_upper(f, 7) == 0.0


def test_hoelder_variation_majorant():
    def fn(x):
        # genuinely gamma-Hoelder: geometric series in the coordinates
        return sum(x.coord(i) * 2.0 ** (-0.5 * i) for i in range(1, 40)), 1e-12

    f = Potential.from_callable(2, fn, Hoelder(gamma=0.5, constant=4.0))
    for n in (1, 2, 5):
        assert var_upper(f, n) == 4.0 * 2.0 ** (-0.5 * n)
    with pytest.raises(VariationUnavailable):
        var_upper(Potential.from_callable(2, fn, GenericContinuous()), 1)


def test_birkhoff_matches_table_and_loop():
    f = MARKOV
    for n in (1, 2, 4):
        table = birkhoff_table(f, n)
        assert table.depth == n + 1
        for trial in range(20):
            rng = np.random.default_rng(trial)
            x = Point(tuple(rng.integers(0, 2, 6)), (int(rng.integers(0, 2)),))
            loop = math.fsum(f.evaluate(Point(x.coords(12)[k:], (x.coords(12)[-1],)))[0] for k in range(n))
            b = birkhoff(f, x, n)
            assert b.n == n
            assert b.value == pytest.approx(table.value_at(x), abs=1e-13)
            assert b.value == pytest.approx(loop, abs=1e-12)
    with pytest.raises(ValueError):
        birkhoff(f, Point.constant(0), 0)


def test_truncate_exact_for_tables():
    table, bound = truncate(MARKOV, 4)
    assert bound == 0.0
    assert table.depth == 4
    assert table.value_at(Point.from_literal("00|1")) == math.log(2.0)

    # truncating a callable reports the evaluation bound it inherited
    def fn(x):
        return float(x.coord(1)), 1e-9

    # truncating a callable charges the variation majorant plus evaluation error
    g = Potential.from_callable(2, fn, Hoelder(gamma=1.0, constant=1.0))
    _, bound = truncate(g, 3)
    assert bound == pytest.approx(2.0**-3 + 1e-9)


TAILS = ("|0", "|1", "|01", "2|10", "0110|2", "21|0")


def tail_twins(d, depth, seed, err=0.0):
    """A random depth-`depth` table potential, its callable twin (evaluation
    bound `err`), and boundary tails, purely periodic and with a prefix."""
    rng = np.random.default_rng([d, depth, seed])
    f = Potential.from_table(d, depth, rng.uniform(-1.0, 1.0, d**depth))
    h = Potential.from_callable(d, lambda x: (f.table.value_at(x), err), Hoelder(gamma=1.0, constant=2.0))
    tails = [Point.from_literal(t) for t in TAILS if max(map(int, t.replace("|", ""))) < d]
    return f, h, tails


@pytest.mark.parametrize("d,depth", [(2, 1), (2, 3), (3, 2)])
def test_tabulate_matches_point_oracle(d, depth):
    # lengths below, at and above the table depth
    f, h, tails = tail_twins(d, depth, 1, err=1e-9)
    for tail in tails:
        for length in range(0, depth + 3):
            words = list(itertools.product(range(d), repeat=length))
            oracle = [f.evaluate(prepend(tail, u))[0] for u in words]
            values, err = tabulate(f, length, tail)
            assert list(values) == oracle and err == 0.0
            values, err = tabulate(h, length, tail)
            assert list(values) == oracle and err == 1e-9


@pytest.mark.parametrize("d,depth", [(2, 1), (2, 3), (3, 2)])
def test_tail_birkhoff_matches_point_oracle(d, depth):
    f, h, tails = tail_twins(d, depth, 2, err=1e-9)
    n = depth + 2
    for tail in tails:
        for p, e in ((f, 0.0), (h, 1e-9)):
            for j, (sums, err) in enumerate(tail_birkhoff(p, n, tail), start=1):
                words = list(itertools.product(range(d), repeat=j))
                assert sums.shape == (len(words),)
                oracle = [birkhoff(f, prepend(tail, u), j).value for u in words]
                assert np.max(np.abs(sums - oracle)) <= 1e-13
                # j evaluation bounds plus the rounding of j - 1 additions
                assert j * e <= err <= j * e + 1e-13
                assert np.max(np.abs(sums - oracle)) <= err + 1e-15
            assert j == n
    with pytest.raises(TableSizeError):
        next(tail_birkhoff(h, 23, tails[0]))


def test_scale_rescales_tables_and_metadata():
    f2 = scale(MARKOV, -2.0)
    assert f2.table.values[0] == pytest.approx(-2.0 * math.log(2.0))
    h = Potential.from_callable(2, lambda x: (0.0, 0.0), Hoelder(gamma=0.5, constant=3.0))
    assert scale(h, 4.0).regularity.constant == 12.0


def test_walters_estimate_vanishes_past_table_depth():
    # S_n f reads n + depth - 1 coordinates, so p >= depth - 1 sees no variation
    f = Potential.from_table(2, 3, np.arange(8.0))
    assert walters_estimate(f, 2, 8) == 0.0
    assert walters_estimate(f, 5, 8) == 0.0
    assert walters_estimate(f, 1, 8) > 0.0


def test_walters_estimate_is_sup_over_volumes():
    # depth-2 tables have S_n f of depth exactly n+1, so every p >= 1 vanishes
    assert walters_estimate(MARKOV, 1, 8) == 0.0
    rng = np.random.default_rng(3)
    f = Potential.from_table(2, 3, rng.uniform(-1, 1, 8))
    sups = [walters_estimate(f, 1, N) for N in (1, 2, 4, 8)]
    assert all(b >= a for a, b in zip(sups, sups[1:]))
    # the N = 1 term is var_2(S_1 f) = var_2(f)
    assert sups[0] == pytest.approx(var_upper(f, 2), abs=1e-14)


def walters_over_every_volume(f, p, n_sup):
    """sup_{n <= n_sup} var_{n+p}(S_n f) of a table, one Birkhoff table per n."""
    best = 0.0
    for n in range(1, n_sup + 1):
        S = birkhoff_table(f, n)
        best = max(best, var_upper(Potential.from_table(f.d, S.depth, S.values), n + p))
    return best


@pytest.mark.parametrize("d,m", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4)])
def test_walters_estimate_stops_at_the_table_depth(d, m):
    # var_{n+p}(S_n f) no longer changes once n >= m - 1 - p
    rng = np.random.default_rng([d, m, 13])
    for _ in range(4):
        f = Potential.from_table(d, m, rng.uniform(-1.0, 1.0, d**m))
        for p in (1, 2, 3, 4, 8):
            for n_sup in (1, 2, 5):
                value = walters_estimate(f, p, n_sup)
                assert value == pytest.approx(walters_over_every_volume(f, p, n_sup), abs=1e-13)
                if p >= m - 1:
                    assert value == 0.0


def test_jop_series_flags():
    # summable variations: the exponent stalls, the series grows linearly
    res = jop_series(MARKOV, eps=0.5, n_terms=64)
    assert res.diverging
    assert res.n_terms == 64
    assert res.partial_sum > 1.0

    # cumulative variation 2 log(n+1)/(1/2+eps): terms ~ (n+1)^{-2}, convergent
    c = 2.0 / (0.5 + 0.5)

    def var_bound(n):
        return c * (math.log(n + 1) - math.log(n))

    g = Potential.from_callable(2, lambda x: (0.0, 0.0), SummableVariation(var_bound))
    res2 = jop_series(g, eps=0.5, n_terms=256)
    assert not res2.diverging
    assert res2.last_term == pytest.approx(257.0**-2, rel=0.05)

    with pytest.raises(ValueError):
        jop_series(MARKOV, eps=0.5, n_terms=2)


def test_hofbauer_walters_classification():
    a_seq = lambda k: 1.0 / k
    c_seq = lambda k: -1.0 / k**2
    f = make_hofbauer_walters(a_seq, c_seq, a=0.25, b=5.0, c=-0.75)
    # leading zero-run of length k: k = 1 gives a, longer runs give a_seq(k)
    assert f.evaluate(Point.constant(0))[0] == 0.25
    assert f.evaluate(Point.from_literal("01|1"))[0] == 0.25
    assert f.evaluate(Point.from_literal("0001|1"))[0] == pytest.approx(1.0 / 3)
    # leading one-run of length k: k = 1 gives b, longer runs give c_seq(k)
    assert f.evaluate(Point.from_literal("10|0"))[0] == 5.0
    assert f.evaluate(Point.from_literal("110|0"))[0] == pytest.approx(-0.25)
    assert f.evaluate(Point.constant(1))[0] == -0.75
    assert f.d == 2


def test_hofbauer_word_evaluator_equals_per_word_path():
    calls = []

    def a_seq(k):
        calls.append(("a", k))
        return 1.0 / k + 0.1

    def c_seq(k):
        calls.append(("c", k))
        return -(0.5**k) + 0.3

    f = make_hofbauer_walters(a_seq, c_seq, a=0.1, b=5.0, c=0.3)
    oracle = dataclasses.replace(f, batch=None)
    # constant tails of either symbol, and tails with prefixes
    for tail in ("|0", "|1", "0|1", "1|0", "000|1", "11|01", "01|10", "|01"):
        y = Point.from_literal(tail)
        for length in range(0, 7):
            expected = tabulate(oracle, length, y)
            calls.clear()
            values, err = tabulate(f, length, y)
            assert values.tolist() == expected[0].tolist() and err == expected[1] == 0.0
            assert len(calls) == len(set(calls))  # once per distinct run length
    # an all-s word on the constant-s tail is the constant point: a and c
    for length in (1, 4):
        values, _ = tabulate(f, length, Point.constant(0))
        assert values[0] == 0.1
        values, _ = tabulate(f, length, Point.constant(1))
        assert values[-1] == 0.3
    # ... and on the other constant tail its run ends with the word
    assert tabulate(f, 4, Point.constant(1))[0][0] == a_seq(4)
    assert tabulate(f, 4, Point.constant(0))[0][-1] == c_seq(4)


def test_scale_keeps_the_word_evaluator():
    f = make_hofbauer_walters(lambda k: 1.0 / k, lambda k: 0.3 - 1.0 / k, 0.0, 0.7, 0.3)
    h = Potential.from_callable(2, lambda x: (math.sin(x.coord(1) + 2 * x.coord(2)), 1e-9), GenericContinuous())
    g = g_potential(IsingParams(alpha=3.0, cutoff=40))
    y = Point.from_literal("01|10")
    calls = []
    for p in (f, h, g):
        words, err = tabulate(dataclasses.replace(p, batch=None), 5, y)
        counted = dataclasses.replace(p, fn=lambda x, fn=p.fn: calls.append(x) or fn(x))
        for c in (-2.5, 0.3, 1.0 / 3.0):
            calls.clear()
            values, bound = tabulate(scale(counted, c), 5, y)
            assert values.tolist() == (c * words).tolist()
            assert bound == abs(c) * err
            # c*f evaluates per point only when f does
            assert (calls == []) == (p.batch is not None)
            # and its per-word path agrees to the bit
            per_word = tabulate(dataclasses.replace(scale(p, c), batch=None), 5, y)
            assert per_word[0].tolist() == values.tolist() and per_word[1] == bound


def test_hofbauer_walters_metadata():
    f = make_hofbauer_walters(lambda k: 1.0 / k, lambda k: 0.0, 0.0, 1.0, 0.0)
    assert isinstance(f.regularity, GenericContinuous)
    g = make_hofbauer_walters(
        lambda k: 1.0 / k, lambda k: 0.0, 0.0, 1.0, 0.0, var_decay=lambda n: 1.0 / n**2
    )
    assert isinstance(g.regularity, SummableVariation)
    assert var_upper(g, 3) == pytest.approx(1.0 / 9)


def test_from_table_reads_the_leading_word():
    f = Potential.from_table(3, 1, [0.0, 1.0, 2.0])
    assert f.evaluate(Point.from_literal("2|0"))[0] == 2.0
    with pytest.raises(ValueError):
        Potential.from_table(2, 2, [1.0, 2.0, 3.0])
