"""Long-range chain: certified series against independent oracles."""

import functools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from pointwise import per_word, reading
from ruellekit import ising
from ruellekit.ising import (
    IsingParams,
    TwoSidedPoint,
    coboundary_checks,
    f_two_sided,
    g_one_sided,
    g_potential,
    hoelder_witness,
    ising_walters_estimate,
    transfer_h,
    zeta,
)
from ruellekit.potentials import tabulate, walters_estimate
from ruellekit.shift import Point, prepend
from ruellekit.transfer import power_iterate


def index_word(idx, length, d):
    """The word of the given length with lexicographic index idx (inverse of word_index)."""
    out = []
    for _ in range(length):
        out.append(idx % d)
        idx //= d
    return tuple(reversed(out))


P3 = IsingParams(alpha=3.0)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 2.0, 2.5, 3.0, 4.0])
def test_zeta_brackets_the_truth(alpha):
    value, err = zeta(alpha)
    truth = float(mpmath.zeta(alpha))
    assert abs(value - truth) <= err
    assert err < 1e-4


def test_zeta_guards():
    # NaN fails every comparison, so `alpha <= 1` alone let it through
    for alpha in (1.0, 0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="zeta series needs a finite alpha > 1"):
            zeta(alpha)


def test_params_guards():
    for alpha in (0.9, 1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            IsingParams(alpha=alpha)
    with pytest.raises(ValueError):
        IsingParams(alpha=3.0, cutoff=1)


def test_two_sided_coordinates_and_shift():
    x = TwoSidedPoint.from_literals("110|01", "0110|1")
    assert [x.coord(i) for i in range(4)] == [0, 1, 1, 0]
    assert [x.coord(-i) for i in (1, 2, 3, 4, 5)] == [1, 1, 0, 0, 1]
    y = x.shift()
    for i in range(-6, 7):
        assert y.coord(i) == x.coord(i + 1)
    assert x.spin(0) == -1 and x.spin(1) == 1


def test_g_all_plus_is_minus_two_zeta():
    value, err = g_one_sided(P3, Point.constant(1))
    zv, ze = zeta(3.0)
    assert abs(value + 2 * zv) <= err + 2 * ze


def test_g_closed_forms():
    # flipping only the origin spin cancels the zeta constant
    value, err = g_one_sided(P3, Point.from_literal("0|1"))
    assert abs(value) <= err
    # alternating spins give the eta function against zeta
    value, err = g_one_sided(P3, Point.from_literal("|10"))
    eta = float((1 - 2 ** (1 - 3.0)) * mpmath.zeta(3.0))
    target = eta - float(mpmath.zeta(3.0))
    assert abs(value - target) <= err + 1e-12


def test_g_spin_flip_symmetries():
    for literal in ("|0", "01|1", "110|10"):
        x = Point.from_literal(literal)
        flipped = Point(
            tuple(1 - s for s in x.prefix), tuple(1 - s for s in x.cycle)
        )
        # negating every spin leaves g unchanged (the product form is even)
        assert g_one_sided(P3, flipped)[0] == g_one_sided(P3, x)[0]
    # negating all but the origin spin negates the series part exactly
    zv, _ = zeta(3.0, P3.cutoff)
    g_plus = g_one_sided(P3, Point.constant(1))[0]
    g_mixed = g_one_sided(P3, Point.from_literal("1|0"))[0]
    assert g_plus + g_mixed == pytest.approx(-2 * zv, abs=1e-14)


def test_g_potential_feeds_the_transfer_machinery():
    gp = g_potential(P3)
    rpf = power_iterate(gp, depth=6)
    assert rpf.converged
    assert rpf.residual_fn < 1e-10 and rpf.residual_meas < 1e-10
    assert gp.regularity.var_bound(4) >= 2 * 3.0**-3.0


def test_g_potential_equals_g_one_sided_exactly():
    # g_potential computes zeta once; every value and bound stays bitwise the same
    for params in (P3, IsingParams(alpha=2.5, cutoff=37)):
        gp = g_potential(params)
        for text in ("|1", "|0", "1|0", "0110|01", "10|110"):
            x = Point.from_literal(text)
            assert reading(gp, x) == g_one_sided(params, x)


def test_transfer_h_vanishes_on_constant_configuration():
    value, bound = transfer_h(P3, TwoSidedPoint.constant(1), 100)
    assert value == 0.0
    assert 0 < bound < 0.02


def test_transfer_h_guards():
    with pytest.raises(ValueError):
        transfer_h(IsingParams(alpha=2.0), TwoSidedPoint.constant(1), 50)
    x = TwoSidedPoint.from_literals("|1", "1111111110|1")
    with pytest.raises(ValueError):
        transfer_h(P3, x, 5)  # tail cannot clear the prefix yet


def test_transfer_h_diverges_without_forward_constancy():
    x = TwoSidedPoint.from_literals("|1", "|10")
    value, bound = transfer_h(P3, x, 60)
    assert math.isinf(bound)


@pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
def test_coboundary_residual_within_bounds(alpha):
    params = IsingParams(alpha=alpha)
    for left, right in [("|1", "0|1"), ("110|01", "0110|1"), ("0|1", "10|1")]:
        x = TwoSidedPoint.from_literals(left, right)
        residual, bound = coboundary_checks(params, [x], 100)[0]
        assert residual <= bound
        assert bound < 0.05


def test_coboundary_bound_shrinks_fourfold():
    x = TwoSidedPoint.from_literals("110|01", "0110|1")
    _, b1 = coboundary_checks(IsingParams(alpha=3.0, cutoff=200), [x], 100)[0]
    _, b2 = coboundary_checks(IsingParams(alpha=3.0, cutoff=400), [x], 200)[0]
    assert b1 < 1e-3
    assert b1 / b2 >= 4.0


def test_hoelder_witness_defeats_the_bound():
    for M in (1.0, 1e6):
        x, y, ratio = hoelder_witness(IsingParams(alpha=2.0, cutoff=4000), 1.0, M)
        assert ratio > M
        # the pair differs exactly at indices +-(N+1)
        N = len(y.left.prefix) - 1
        assert x.coord(N + 1) != y.coord(N + 1)
        assert x.coord(-(N + 1)) != y.coord(-(N + 1))
        for i in range(-N, N + 1):
            assert x.coord(i) == y.coord(i)
        # and the energies really differ by 4/(N+1)^alpha
        if N + 2 <= 4000:
            df = abs(f_two_sided(IsingParams(alpha=2.0, cutoff=4000), x)[0]
                     - f_two_sided(IsingParams(alpha=2.0, cutoff=4000), y)[0])
            assert df == pytest.approx(4.0 / (N + 1) ** 2, rel=1e-12)


def test_witness_guards():
    with pytest.raises(ValueError):
        hoelder_witness(P3, 0.0, 1.0)


def test_walters_estimate_zeta_anchor():
    est = ising_walters_estimate(P3, 1)
    assert est.decaying
    assert abs(est.value - float(mpmath.zeta(2.0))) <= est.error_bound + 1e-12


def test_walters_estimate_flags_slow_decay():
    est = ising_walters_estimate(IsingParams(alpha=2.0), 8)
    assert not est.decaying
    assert math.isinf(est.value)
    finite = ising_walters_estimate(IsingParams(alpha=2.0), 8, N=16)
    assert not finite.decaying
    assert finite.value == pytest.approx(sum(j**-1.0 for j in range(8, 25)))


@pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
def test_walters_cross_check_against_generic_estimate(alpha):
    # the generic metadata majorant and the closed form agree to the
    # expected 2/(alpha-1) constant; requiring a factor three keeps the
    # comparison honest in both directions
    params = IsingParams(alpha=alpha)
    gp = g_potential(params)
    for p in (2, 4, 8):
        closed = ising_walters_estimate(params, p, N=8).value
        major = walters_estimate(gp, p, 8)
        assert closed / 3.0 <= major <= closed * 3.0


def test_f_two_sided_small_case():
    # manual three-site check: s_0 = -1, s_{+-1} = +1, rest +1
    x = TwoSidedPoint.from_literals("|1", "0|1")
    value, err = f_two_sided(P3, x)
    manual = 2.0 * sum(j**-3.0 for j in range(1, 201))
    assert value == pytest.approx(manual, abs=1e-14)
    assert err == pytest.approx(2.0 * 200.0**-2.0 / 2.0)


# ---------------------------------------------------------------------------
# Scalar oracle: the per-coordinate loops that the spin-array code replaced.
# Every series term is exact and math.fsum is correctly rounded, so the
# array code must reproduce these values bit for bit.
# ---------------------------------------------------------------------------

def scalar_spin(symbol):
    if symbol not in (0, 1):
        raise ValueError(f"symbol {symbol} is not a valid two-letter spin label")
    return 2 * symbol - 1


def scalar_g(params, x, zeta_cut):
    a, J = params.alpha, params.cutoff
    s0 = scalar_spin(x.coord(1))
    series = math.fsum(-s0 * scalar_spin(x.coord(j + 1)) * j ** (-a) for j in range(1, J + 1))
    zv, ze = zeta_cut
    return series - zv, ising._tail_bracket(a, J)[1] + ze


def scalar_f(params, x):
    a, J = params.alpha, params.cutoff
    s0 = scalar_spin(x.coord(0))
    total = math.fsum(
        -s0 * (scalar_spin(x.coord(n)) + scalar_spin(x.coord(-n))) * n ** (-a)
        for n in range(1, J + 1)
    )
    return total, 2.0 * ising._tail_bracket(a, J)[1]


def scalar_inner_sum(params, x, j):
    a = params.alpha
    sj = scalar_spin(x.coord(j))
    P = len(x.left.prefix)
    L = len(x.left.cycle)
    n_exact = max(params.cutoff, j + P + L)
    head = math.fsum(
        (scalar_spin(x.coord(j - n)) - sj) * n ** (-a) for n in range(1, n_exact + 1)
    )
    tail_mid = 0.0
    tail_err = 0.0
    for r in range(L):
        n_first = n_exact + 1 + r
        coeff = scalar_spin(x.coord(j - n_first)) - sj
        if coeff == 0:
            continue
        mid, half = ising._residue_tail(a, n_first, L)
        tail_mid += coeff * mid
        tail_err += abs(coeff) * half
    return head + tail_mid, tail_err


def scalar_transfer_h(params, x, terms, inner):
    a = params.alpha
    vals = []
    inner_err = 0.0
    for j in range(terms + 1):
        v, e = inner(x, j)
        vals.append(-scalar_spin(x.coord(j)) * v)
        inner_err += e
    value = math.fsum(vals)
    start = ising._forward_constant_from(x)
    if start is None:
        return value, math.inf
    B = start - 1
    assert terms >= B + 2
    tail = 2.0 / (a - 1.0) * (terms - B - 1) ** (2.0 - a) / (a - 2.0)
    return value, inner_err + tail


def scalar_coboundary_check(params, x, terms, inner):
    fv, fe = scalar_f(params, x)
    gv, ge = scalar_g(params, x.right, zeta(params.alpha, params.cutoff))
    hv, _ = scalar_transfer_h(params, x, terms, inner)
    hsv, hs_err = scalar_transfer_h(params, x.shift(), terms, inner)
    residual = abs(fv - gv - hv + hsv)
    if math.isinf(hs_err):
        return residual, math.inf
    v, last_err = inner(x, terms + 1)
    last = -scalar_spin(x.coord(terms + 1)) * v
    inner_err = 0.0
    for j in range(terms + 2):
        inner_err += inner(x, j)[1]
        if j >= 1:
            inner_err += inner(x.shift(), j - 1)[1]
    bound = fe + ge + abs(last) + last_err + inner_err + 1e-12
    return residual, bound


def criterion_09_points():
    rng = np.random.default_rng(42)
    points = []
    for _ in range(20):
        k = int(rng.integers(0, 7))
        flips = {
            int(p) if s else -int(p)
            for p, s in zip(rng.integers(1, 13, size=k), rng.integers(0, 2, size=k))
        }
        points.append(TwoSidedPoint(
            Point(tuple(0 if -i in flips else 1 for i in range(1, 13)), (1,)),
            Point(tuple(0 if i in flips else 1 for i in range(13)), (1,)),
        ))
    return points


def cli_points(seed):
    # the five points of `ruellekit ising --seed SEED`
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(5):
        spots = rng.integers(1, 13, size=3)
        signs = rng.integers(0, 2, size=3)
        flips = {int(p) if s else -int(p) for p, s in zip(spots, signs)}
        right = tuple(0 if i in flips else 1 for i in range(13))
        left = tuple(0 if -i in flips else 1 for i in range(1, 13))
        points.append(TwoSidedPoint(Point(left, (1,)), Point(right, (1,))))
    return points


ORACLE_PARAMS = [
    IsingParams(alpha=alpha, cutoff=cutoff)
    for alpha in (2.05, 2.5, 3.0, 3.77)
    for cutoff in (200, 400)
]


# cutoffs 2 and 5 stop inside the depth-7 words, so the tail adds nothing
@pytest.mark.parametrize(
    "params",
    ORACLE_PARAMS + [IsingParams(alpha=3.0, cutoff=2), IsingParams(alpha=2.2, cutoff=5)],
    ids=lambda p: f"{p.alpha}-{p.cutoff}",
)
def test_g_equals_scalar_oracle_on_every_depth_7_word(params, monkeypatch):
    # blocks of 5 rows split the words unevenly, the last block short
    monkeypatch.setattr(ising, "_WORD_BLOCK", 5)
    gp = g_potential(params)
    zeta_cut = zeta(params.alpha, params.cutoff)
    # the word evaluator reads a point by g_one_sided only at length 0, where
    # the tail is the whole point: count its calls
    calls = []
    monkeypatch.setattr(ising, "g_one_sided", lambda *args: calls.append(args) or g_one_sided(*args))
    for tail in ("|0", "|1", "|10", "0110|01", "1101001|0"):
        y = Point.from_literal(tail)
        calls.clear()
        values, err = tabulate(gp, 7, y)
        assert calls == []
        oracle = [scalar_g(params, prepend(y, index_word(i, 7, 2)), zeta_cut) for i in range(2**7)]
        assert values.tolist() == [v for v, _ in oracle]
        assert err == max(e for _, e in oracle)
        for length in (0, 1, 3):
            calls.clear()
            values, err = tabulate(gp, length, y)
            assert len(calls) == (length == 0)
            words, oracle_err = per_word(gp, length, y)
            assert values.tolist() == words.tolist() and err == oracle_err
    with pytest.raises(ValueError):
        tabulate(gp, 1, Point.from_literal("0|2"))
    for text in ("|1", "0|1", "0110|01", "10|110"):
        x = Point.from_literal(text)
        assert g_one_sided(params, x) == scalar_g(params, x, zeta_cut)


# 20 terms clear every prefix of these points; cutoff 8 puts j + alignment past
# the cutoff, where the exact head of an inner sum grows with j
@pytest.mark.parametrize(
    "params",
    ORACLE_PARAMS + [IsingParams(alpha=3.1, cutoff=8)],
    ids=lambda p: f"{p.alpha}-{p.cutoff}",
)
def test_chain_series_equal_scalar_oracle(params):
    terms = 20
    # the inner sums are pure, so the oracle caches them to stay affordable
    inner = functools.cache(lambda y, j: scalar_inner_sum(params, y, j))
    for x in criterion_09_points() + cli_points(0):
        assert f_two_sided(params, x) == scalar_f(params, x)
        assert transfer_h(params, x, terms) == scalar_transfer_h(params, x, terms, inner)
        assert coboundary_checks(params, [x], terms)[0] == scalar_coboundary_check(params, x, terms, inner)


def test_coboundary_check_computes_each_inner_sum_once(monkeypatch):
    windows, rows = [], []
    spin_windows, round_rows = ising._spin_windows, ising._round_rows

    def counted_windows(points, *args):
        windows.append(len(points))
        return spin_windows(points, *args)

    def counted_rows(sums):
        rows.append(len(sums))
        return round_rows(sums)

    monkeypatch.setattr(ising, "_spin_windows", counted_windows)
    monkeypatch.setattr(ising, "_round_rows", counted_rows)
    x = TwoSidedPoint.from_literals("110|01", "0110|1")
    for terms in (10, 40):
        windows.clear()
        rows.clear()
        coboundary_checks(P3, [x], terms)
        # f, g, and every row of shift x is a row of x: j <= terms + 1 at x
        assert windows == [1]
        assert rows == [2 + terms + 2]
    # left "|1" with x_0 = 1: shift x keeps prefix length 0, so its row j has
    # n_exact max(J, j + 1), against max(J, j + 2) for row j + 1 of x
    params = IsingParams(alpha=3.0, cutoff=7)
    x = TwoSidedPoint.from_literals("|1", "10|1")
    windows.clear()
    rows.clear()
    coboundary_checks(params, [x], 20)
    assert windows == [1]
    assert rows == [2 + 22 + sum(1 for j in range(21) if j + 2 > params.cutoff)]


def test_coboundary_checks_memory_is_linear_in_terms():
    # the five points of the command line at --n 3000: a (rows x n_exact)
    # coefficient matrix per point took 283 MB
    params = IsingParams(alpha=3.0)
    points = cli_points(0)
    tracemalloc.start()
    try:
        checks = ising.coboundary_checks(params, points, 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert all(res <= bound for res, bound in checks)


@pytest.mark.parametrize("left,right", [("|1", "01|2"), ("|1", "0|12"), ("2|1", "0|1"), ("|21", "0|1")])
def test_symbols_outside_the_spin_alphabet_are_refused(left, right):
    x = TwoSidedPoint.from_literals(left, right)
    with pytest.raises(ValueError):
        f_two_sided(P3, x)
    with pytest.raises(ValueError):
        coboundary_checks(P3, [x], 20)
    with pytest.raises(ValueError):
        transfer_h(P3, x, 20)
    if "2" in right:
        with pytest.raises(ValueError):
            g_one_sided(P3, x.right)
        with pytest.raises(ValueError):
            tabulate(g_potential(P3), 0, x.right)


def test_symbols_past_a_byte_are_refused_by_name():
    x = TwoSidedPoint(Point((), (1,)), Point((0, 300), (1,)))
    message = "symbol 300 is not a valid two-letter spin label"
    with pytest.raises(ValueError, match=message):
        coboundary_checks(P3, [x], 20)
    with pytest.raises(ValueError, match=message):
        transfer_h(P3, x, 20)
    with pytest.raises(ValueError, match="symbol 300 is not"):
        g_one_sided(P3, x.right)
