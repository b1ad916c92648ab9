"""Long-range chain: certified series against independent oracles."""

import math

import mpmath
import pytest

from ruellekit.ising import (
    IsingParams,
    TwoSidedPoint,
    coboundary_check,
    f_two_sided,
    g_one_sided,
    g_potential,
    hoelder_witness,
    ising_walters_estimate,
    transfer_h,
    zeta,
)
from ruellekit.potentials import walters_estimate
from ruellekit.shift import Point
from ruellekit.transfer import power_iterate

P3 = IsingParams(alpha=3.0)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 2.0, 2.5, 3.0, 4.0])
def test_zeta_brackets_the_truth(alpha):
    value, err = zeta(alpha)
    truth = float(mpmath.zeta(alpha))
    assert abs(value - truth) <= err
    assert err < 1e-4


def test_zeta_guards():
    with pytest.raises(ValueError):
        zeta(1.0)


def test_params_guards():
    with pytest.raises(ValueError):
        IsingParams(alpha=0.9)
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
            assert gp.evaluate(x) == g_one_sided(params, x)


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
        residual, bound = coboundary_check(params, x, 100)
        assert residual <= bound
        assert bound < 0.05


def test_coboundary_bound_shrinks_fourfold():
    x = TwoSidedPoint.from_literals("110|01", "0110|1")
    _, b1 = coboundary_check(IsingParams(alpha=3.0, cutoff=200), x, 100)
    _, b2 = coboundary_check(IsingParams(alpha=3.0, cutoff=400), x, 200)
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
