"""Transfer-operator machinery against dense linear-algebra oracles."""

import math

import numpy as np
import pytest

from ruellekit.potentials import Potential, scale
from ruellekit.shift import CylinderFunction, CylinderMeasure, Point, integrate
from ruellekit.transfer import (
    apply,
    check_normalized,
    dual_T_iterate,
    dual_apply,
    iterate_to_fixed_point,
    normalize,
    power_iterate,
    pressure,
    transfer_operator,
)

GOLDEN_LAMBDA = (3.0 + math.sqrt(5.0)) / 2.0
MARKOV = Potential.from_table(2, 2, [math.log(2.0), 0.0, 0.0, 0.0], label="markov")


def dense_spectral_radius(f, depth):
    m = transfer_operator(f, depth).matrix()
    return max(abs(w) for w in np.linalg.eigvals(m))


def test_apply_counts_preimages():
    zero = Potential.constant(2, 0.0)
    out = apply(zero, CylinderFunction.constant(2, 1.0, depth=1), depth=1)
    assert list(out.values) == [2.0, 2.0]


def test_apply_markov_unit():
    # summing e^{f(ax)} over a in {0,1}: 3 when x starts with 0, else 2
    out = apply(MARKOV, CylinderFunction.constant(2, 1.0, depth=1), depth=1)
    assert out.values == pytest.approx([3.0, 2.0])


def test_markov_eigenvalue_is_golden():
    rpf = power_iterate(MARKOV, depth=2)
    assert rpf.converged
    assert rpf.lam == pytest.approx(GOLDEN_LAMBDA, rel=1e-12)
    # the characteristic polynomial of [[2,1],[1,1]]
    assert rpf.lam**2 - 3 * rpf.lam + 1 == pytest.approx(0.0, abs=1e-10)
    assert rpf.residual_fn < 1e-10 and rpf.residual_meas < 1e-10


@pytest.mark.parametrize("d,depth,seed", [(2, 1, 0), (2, 2, 1), (3, 1, 2), (3, 2, 3), (2, 3, 4)])
def test_power_iterate_matches_dense_eigensolve(d, depth, seed):
    rng = np.random.default_rng(seed)
    f = Potential.from_table(d, depth, rng.uniform(-1.0, 1.0, d**depth))
    rpf = power_iterate(f, depth)
    assert rpf.lam == pytest.approx(dense_spectral_radius(f, depth), rel=1e-10)


def test_eigenvalue_stable_in_matrix_depth():
    for depth in (2, 3, 4, 5):
        rpf = power_iterate(MARKOV, depth)
        assert rpf.lam == pytest.approx(GOLDEN_LAMBDA, rel=1e-11)


def test_pressure_shift_by_constant():
    f = MARKOV
    for c in (-2.0, 0.5, 3.0):
        shifted = Potential.from_table(2, 2, f.table.values + c)
        assert pressure(shifted, 2) == pytest.approx(pressure(f, 2) + c, abs=1e-10)


def test_large_table_values_do_not_overflow():
    # exp(800) overflows; the iteration runs on f - max f and adds it back
    values = np.array([800.0, 800.0, 799.0, 800.5])
    rpf = power_iterate(Potential.from_table(2, 2, values), 2)
    assert rpf.converged
    assert math.isfinite(rpf.log_lam)
    shifted = Potential.from_table(2, 2, values - 800.0)
    expected = math.log(dense_spectral_radius(shifted, 2)) + 800.0
    assert rpf.log_lam == pytest.approx(expected, abs=1e-12)
    assert rpf.residual_fn < 1e-10 and rpf.residual_meas < 1e-10


def test_power_iterate_needs_one_step():
    with pytest.raises(ValueError):
        power_iterate(MARKOV, 2, max_iter=0)


def test_eigendata_normalisation_conventions():
    rpf = power_iterate(MARKOV, 3)
    assert rpf.nu.total_mass() == pytest.approx(1.0, abs=1e-12)
    assert integrate(rpf.nu, rpf.psi) == pytest.approx(1.0, abs=1e-12)


def test_normalize_and_check():
    rng = np.random.default_rng(11)
    for trial in range(5):
        f = Potential.from_table(2, 2, rng.uniform(-1.0, 1.0, 4))
        fbar = normalize(f, power_iterate(f, 2, tol=1e-13))
        assert fbar.depth() == 3
        assert check_normalized(fbar, 8) < 1e-10


def test_normalized_apply_fixes_one():
    fbar = normalize(MARKOV, power_iterate(MARKOV, 2, tol=1e-13))
    one = CylinderFunction.constant(2, 1.0, depth=3)
    out = apply(fbar, one, depth=3)
    assert np.max(np.abs(out.values - 1.0)) < 1e-12


def test_conjugation_identity():
    # applying the normalized operator n times equals the psi-conjugated,
    # lambda-rescaled plain operator
    depth = 6
    rpf = power_iterate(MARKOV, depth)
    fbar = normalize(MARKOV, rpf)
    rng = np.random.default_rng(5)
    g = CylinderFunction(2, depth, rng.uniform(-1.0, 1.0, 2**depth))
    psi = rpf.psi
    lhs = g
    rhs_inner = g * psi
    for n in range(1, 5):
        lhs = apply(fbar, lhs, depth)
        rhs_inner = apply(MARKOV, rhs_inner, depth)
        rhs = rhs_inner.zip_with(psi, lambda a, b: a / b).map(lambda v: v / rpf.lam**n)
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-9


def test_duality_pairing():
    rng = np.random.default_rng(9)
    depth = 3
    f = Potential.from_table(2, 2, rng.uniform(-1.0, 1.0, 4))
    g = CylinderFunction(2, depth, rng.uniform(-1.0, 1.0, 2**depth))
    mu = CylinderMeasure(2, depth, rng.uniform(0.1, 1.0, 2**depth))
    lhs = integrate(mu, apply(f, g, depth))
    rhs = integrate(dual_apply(f, mu, depth), g)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_iterate_to_fixed_point_reaches_the_mean():
    rpf = power_iterate(MARKOV, 6)
    fbar = normalize(MARKOV, rpf)
    mu = dual_T_iterate(fbar, CylinderMeasure.uniform(2, 6), 6, steps=300)[0]
    g = CylinderFunction.indicator(2, (0,)).refine(6)
    mean = integrate(mu, g)
    out = iterate_to_fixed_point(fbar, g, 6, n=200)
    assert np.max(np.abs(out.values - mean)) < 1e-10


def test_dual_T_iterate_agrees_with_power_iterate():
    rpf = power_iterate(MARKOV, 4)
    mu, lam = dual_T_iterate(MARKOV, CylinderMeasure.uniform(2, 4), 4, steps=400)
    assert lam == pytest.approx(rpf.lam, rel=1e-12)
    assert np.max(np.abs(mu.weights - rpf.nu.weights)) < 1e-10


def test_dual_T_iterate_depth_mismatch():
    with pytest.raises(ValueError):
        dual_T_iterate(MARKOV, CylinderMeasure.uniform(2, 3), 4, steps=5)


def test_power_iterate_reports_nonconvergence():
    rpf = power_iterate(MARKOV, 2, max_iter=2)
    assert not rpf.converged


def test_scaled_potential_interpolates():
    # beta = 0 gives log d, beta = 1 gives the Markov pressure
    assert pressure(scale(MARKOV, 0.0), 2) == pytest.approx(math.log(2.0))
    assert pressure(scale(MARKOV, 1.0), 2) == pytest.approx(math.log(GOLDEN_LAMBDA))
