"""Specification kernels against brute-force enumeration oracles."""

import inspect
import itertools
import math
from functools import cached_property

import mpmath
import numpy as np
import pytest

from pointwise import birkhoff, from_point_function
from ruellekit.dlr import (
    _LN2,
    D_estimate,
    _columns,
    _engine,
    _engine_sweep,
    _kernel_rounding,
    _row,
    _representative_point_bound,
    change_of_measure_check,
    constant_shift_check,
    default_tails,
    dlr_residual,
    finite_volume_dlr_check,
    kernel,
    kernel_measure,
    log_partition,
    sandwich_check,
    tl_sequence,
)
from ruellekit import dlr, shift, transfer
from ruellekit.ising import IsingParams, g_potential
from ruellekit.potentials import GenericContinuous, Hoelder, Potential, scale, tail_birkhoff
from ruellekit.shift import (
    CylinderFunction,
    CylinderMeasure,
    Point,
    TableSizeError,
    integrate,
    prepend,
    shift_n,
    sum_of_products,
    word_index,
    word_table,
    word_tail_index,
)
from ruellekit.transfer import TransferOperator, exp_or_inf, normalize, power_iterate, transfer_operator

MARKOV = Potential.from_table(2, 2, [math.log(2.0), 0.0, 0.0, 0.0], label="markov")


def brute_log_weights(f, beta, n, y):
    """beta S_n f(w . sigma^n y) for every volume word w, lexicographic."""
    tail = shift_n(y, n)
    return np.array([
        beta * birkhoff(f, prepend(tail, w), n)[0]
        for w in itertools.product(range(f.d), repeat=n)
    ])


def brute_weights(f, beta, n, y):
    """exp(beta S_n f(w . sigma^n y)) for every volume word w, lexicographic."""
    return np.exp(brute_log_weights(f, beta, n, y))


def brute_kernel(f, beta, n, y, g):
    """Direct enumeration of the volume-n kernel from its definition."""
    tail = shift_n(y, n)
    logw = brute_log_weights(f, beta, n, y)
    weights = np.exp(logw - np.max(logw))
    values = [g.value_at(prepend(tail, w)) for w in itertools.product(range(f.d), repeat=n)]
    return float(weights @ values) / weights.sum()


def brute_partition(f, beta, n, y):
    return math.fsum(brute_weights(f, beta, n, y))


def brute_log_partition(f, beta, n, y):
    logw = brute_log_weights(f, beta, n, y)
    top = float(np.max(logw))
    return top + math.log(np.exp(logw - top).sum())


def random_point(rng, d):
    return Point(tuple(rng.integers(0, d, int(rng.integers(0, 4)))),
                 tuple(rng.integers(0, d, int(rng.integers(1, 4)))))


# Alphabet size, potential depth 1-4, volume up to 10 (6 on three symbols).
ORACLE_CASES = [
    (d, depth, n)
    for d, volumes in ((2, (1, 3, 10)), (3, (1, 2, 6)))
    for depth in (1, 2, 3, 4)
    for n in volumes
]


def oracle_case(d, depth, n):
    """A random potential, boundary (purely periodic or with a prefix),
    inverse temperature, and test functions shallower and deeper than n."""
    rng = np.random.default_rng([d, depth, n])
    f = Potential.from_table(d, depth, rng.uniform(-1.0, 1.0, d**depth))
    prefix = tuple(rng.integers(0, d, int(rng.integers(0, 4)))) if n % 2 else ()
    y = Point(prefix, tuple(rng.integers(0, d, int(rng.integers(1, 4)))))
    beta = float(rng.uniform(-1.0, 2.0))
    tests = [
        CylinderFunction(d, q, rng.uniform(-1.0, 1.0, d**q))
        for q in (int(rng.integers(1, n + 1)), n + int(rng.integers(1, 3)))
    ]
    return f, y, beta, tests


def test_partition_counts_when_potential_vanishes():
    zero = Potential.constant(2, 0.0)
    for n in (1, 2, 3, 5):
        assert math.exp(log_partition(zero, n, Point.constant(0))) == pytest.approx(2.0**n)


def test_partition_matches_enumeration():
    rng = np.random.default_rng(21)
    for trial in range(8):
        f = Potential.from_table(2, 2, rng.uniform(-1.0, 1.0, 4))
        y = random_point(rng, 2)
        n = int(rng.integers(1, 5))
        beta = float(rng.uniform(0.2, 2.0))
        assert math.exp(log_partition(scale(f, beta), n, y)) == pytest.approx(
            brute_partition(f, beta, n, y), rel=1e-13
        )


@pytest.mark.parametrize("d,depth,n", ORACLE_CASES)
def test_partition_matches_enumeration_oracle(d, depth, n):
    f, y, beta, _ = oracle_case(d, depth, n)
    assert math.exp(log_partition(scale(f, beta), n, y)) == pytest.approx(brute_partition(f, beta, n, y), rel=1e-13)
    assert log_partition(scale(f, beta), n, y) == pytest.approx(brute_log_partition(f, beta, n, y), abs=1e-12)


def test_log_partition_outside_the_float_range():
    # at n = 2, Z = 2 e^-640000 (1 + e^-640000): Z underflows to 0, its log does not
    f = Potential.from_table(2, 2, [0.0, -800.0, 0.0, -800.0])
    h = Potential.from_callable(2, f.batch, Hoelder(gamma=1.0, constant=1600.0))
    y = Point.from_literal("|1")
    assert brute_log_partition(f, 800.0, 2, y) == pytest.approx(-640000.0 + math.log(2.0), rel=1e-15)
    for n in (1, 2, 5):
        for p in (f, h):
            assert log_partition(scale(p, 800.0), n, y) == pytest.approx(
                brute_log_partition(f, 800.0, n, y), rel=1e-13)
            assert exp_or_inf(log_partition(scale(p, 800.0), n, y)) == 0.0
            assert log_partition(scale(p, -800.0), n, y) == pytest.approx(
                brute_log_partition(f, -800.0, n, y), rel=1e-13)
            assert exp_or_inf(log_partition(scale(p, -800.0), n, y)) == math.inf


def test_no_dlr_function_takes_beta():
    # the kernels sum the potential they are given: beta enters as scale(f, beta)
    public = [
        obj for name, obj in vars(dlr).items()
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == dlr.__name__
    ]
    assert kernel in public and tl_sequence in public
    assert [fn.__name__ for fn in public if "beta" in inspect.signature(fn).parameters] == []


def test_one_symbol_kernels_are_one():
    # one row and log d = 0: nothing leaves the float range, one epoch covers the run
    f = Potential.constant(1, 0.3)
    g = CylinderFunction.indicator(1, (0,))
    y = Point.constant(0)
    for n in (1, 5, 2000):
        assert kernel(f, n, y, g) == 1.0
        assert log_partition(f, n, y) == pytest.approx(0.3 * n, rel=1e-12)
    table = tl_sequence(f, [(0,), (0, 0)], [y], 40)
    assert table.converged and table.worst.tolist() == [0.0] * 39


def test_tl_sequence_reports_an_unconverged_reference():
    # at beta 10, |lambda_2 / lambda_1| = 1 - 1.5e-6 at argument 2 pi / 3: the
    # default 10,000 steps leave the reference unconverged
    f = scale(Potential.from_table(2, 4, np.random.default_rng(5).normal(size=16)), 10.0)
    cylinders, boundaries = [(0,), (1, 0)], [Point.constant(0), Point.from_literal("|01")]
    table = tl_sequence(f, cylinders, boundaries, 12)
    assert not table.converged
    assert not power_iterate(f, 3).converged
    # a reference given by the caller is the caller's to check
    reference = CylinderMeasure.uniform(2, 2)
    assert tl_sequence(f, cylinders, boundaries, 12, reference).converged


def test_kernel_matches_enumeration():
    rng = np.random.default_rng(22)
    for trial in range(10):
        d = 2 if trial % 2 == 0 else 3
        depth = int(rng.integers(1, 4))
        f = Potential.from_table(d, depth, rng.uniform(-1.0, 1.0, d**depth))
        n = int(rng.integers(1, 4))
        q = int(rng.integers(1, n + 3))
        g = CylinderFunction(d, q, rng.uniform(-1.0, 1.0, d**q))
        y = random_point(rng, d)
        beta = float(rng.uniform(0.2, 1.5))
        assert kernel(scale(f, beta), n, y, g) == pytest.approx(
            brute_kernel(f, beta, n, y, g), abs=1e-13
        )


@pytest.mark.parametrize("d,depth,n", ORACLE_CASES)
def test_kernel_matches_enumeration_oracle(d, depth, n):
    f, y, beta, tests = oracle_case(d, depth, n)
    for g in tests:
        assert kernel(scale(f, beta), n, y, g) == pytest.approx(brute_kernel(f, beta, n, y, g), abs=1e-13)
    if n <= 6:
        weights = brute_weights(f, beta, n, y)
        km = kernel_measure(scale(f, beta), n, y)
        assert np.max(np.abs(km.weights - weights / weights.sum())) < 1e-13


def test_kernel_at_volume_40_is_dense_matrix_ratio():
    # K_n(g|y) = (M^n g / M^n 1)(sigma^n y) with the dense depth-3 transfer matrix
    rng = np.random.default_rng(32)
    f = Potential.from_table(3, 3, rng.uniform(-1.0, 1.0, 27))
    g = CylinderFunction(3, 3, rng.uniform(-1.0, 1.0, 27))
    mat = transfer_operator(f, 3).matrix()
    n = 40
    cols = np.linalg.matrix_power(mat, n) @ np.column_stack([g.values, np.ones(27)])
    for y in (Point.from_literal("2101|12"), Point.from_literal("|0"), Point.from_literal("1|021")):
        row = word_index(shift_n(y, n).coords(3), 3)
        assert kernel(f, n, y, g) == pytest.approx(cols[row, 0] / cols[row, 1], abs=1e-12)


def test_kernel_survives_any_spread_of_beta_f():
    # beta * osc(f) > 745: one common shift of the exponents would underflow
    # every weight of some boundary and leave 0 / 0
    f = Potential.from_table(2, 2, [0.0, -800.0, 0.0, -800.0])
    g = CylinderFunction.indicator(2, (0,))
    y = Point.from_literal("|1")
    for beta in (1.0, 800.0):
        assert kernel(scale(f, beta), 1, y, g) == 0.5
        assert finite_volume_dlr_check(1, 2, [(scale(f, beta), y, g)])[0] < 1e-12
    rng = np.random.default_rng(34)
    for d, depth, n in ((2, 2, 5), (2, 3, 7), (3, 2, 4), (3, 3, 3)):
        # some extended words cost 800 more than the rest
        values = rng.uniform(-1.0, 1.0, d**depth) - 800.0 * rng.integers(0, 2, d**depth)
        values[0] = 0.0
        f = Potential.from_table(d, depth, values)
        g = CylinderFunction(d, 2, rng.uniform(-1.0, 1.0, d**2))
        y, z = random_point(rng, d), random_point(rng, d)
        for beta in (1.0, 1.5, -1.0):
            # weights e^{beta S_n f} carry relative rounding ~ eps * |beta S_n f|
            assert kernel(scale(f, beta), n, y, g) == pytest.approx(brute_kernel(f, beta, n, y, g), abs=1e-11)
            assert finite_volume_dlr_check(n, 2, [(scale(f, beta), z, g)])[0] < 1e-11
            km = kernel_measure(scale(f, beta), n, y).coarsen(2)
            for w in itertools.product(range(d), repeat=2):
                ind = CylinderFunction.indicator(d, w)
                assert km.cylinder_mass(w) == pytest.approx(brute_kernel(f, beta, n, y, ind), abs=1e-11)
            logw = brute_log_weights(f, beta, n, y)
            top = float(np.max(logw))
            # f shifted per site so that log Z stays in range
            h = Potential.from_table(d, depth, values - top / (beta * n))
            assert log_partition(scale(h, beta), n, y) == pytest.approx(
                math.log(np.exp(logw - top).sum()), abs=1e-11)


def test_kernel_engine_exponentiates_once_per_epoch(monkeypatch):
    # a small spread of beta f lets an epoch run hundreds of steps on one
    # exponentiation of the weight table; the wide spreads of the test
    # above exercise one-step epochs
    exponentiations = []
    weights = TransferOperator.weights.func

    def counted(self):
        exponentiations.append(self.log_weights.shape)
        return weights(self)

    counted_weights = cached_property(counted)
    counted_weights.__set_name__(TransferOperator, "weights")
    monkeypatch.setattr(TransferOperator, "weights", counted_weights)
    f = Potential.from_table(2, 3, np.random.default_rng(38).uniform(-1.0, 1.0, 8))
    reference = power_iterate(f, 3).nu
    exponentiations.clear()
    boundaries = [Point.from_literal("|0"), Point.from_literal("01|1")]
    table = tl_sequence(f, [(0,), (1, 1, 0)], boundaries, 500, reference)
    assert table.K.size == 4 * 498
    assert 1 <= len(exponentiations) <= 5
    assert table.volumes[-1] == 500
    assert table.worst[-1] < 1e-10


def test_tower_check_refuses_volume_zero_on_both_routes(monkeypatch):
    # the table route used to read the unstepped block as a volume-0 kernel
    f = Potential.from_table(2, 2, [0.3, -0.5, 0.9, 0.1])
    h = Potential.from_callable(2, f.batch, Hoelder(gamma=1.0, constant=2.0))
    g = CylinderFunction.indicator(2, (0,))
    z = Point.from_literal("|1")
    engines = []
    monkeypatch.setattr(dlr, "_engine", lambda *args: engines.append(args))
    messages = []
    for pot in (f, h):
        with pytest.raises(ValueError) as info:
            finite_volume_dlr_check(0, 2, [(scale(pot, 0.7), z, g)])
        messages.append(str(info.value))
        with pytest.raises(ValueError, match="r must be >= 0"):
            finite_volume_dlr_check(2, -1, [(scale(pot, 0.7), z, g)])
    assert messages == ["volume must contain at least one site"] * 2
    assert engines == []


def test_callable_potential_matches_its_table():
    # a callable has no table, so its kernels are summed over the volume words
    rng = np.random.default_rng(33)
    f = Potential.from_table(2, 2, rng.uniform(-1.0, 1.0, 4))
    h = Potential.from_callable(2, f.batch, Hoelder(gamma=1.0, constant=2.0))
    g = CylinderFunction(2, 3, rng.uniform(-1.0, 1.0, 8))
    y, z = Point.from_literal("10|011"), Point.from_literal("|1")
    for n in (1, 4):
        assert kernel(scale(h, 0.7), n, y, g) == pytest.approx(kernel(scale(f, 0.7), n, y, g), abs=1e-13)
        assert math.exp(log_partition(scale(h, 0.7), n, y)) == pytest.approx(
            math.exp(log_partition(scale(f, 0.7), n, y)), rel=1e-13)
        assert np.allclose(kernel_measure(scale(h, 0.7), n, y).weights,
                           kernel_measure(scale(f, 0.7), n, y).weights, rtol=0, atol=1e-13)
        # the constant D = 0.5 of f is 0.7 * 0.5 for 0.7 f
        assert sandwich_check(scale(h, 0.7), [(n, (1,), y, z)], 0.7 * 0.5)[0][1] == pytest.approx(
            sandwich_check(scale(f, 0.7), [(n, (1,), y, z)], 0.7 * 0.5)[0][1], rel=1e-12)
        assert constant_shift_check(scale(h, 0.7), n, y, g, 30.0) < 1e-12
        assert finite_volume_dlr_check(n, 2, [(scale(h, 0.7), z, g)])[0] < 1e-12
        nu = power_iterate(f, 4, tol=1e-14).nu
        res_h, _ = dlr_residual(scale(h, 0.7), nu, n, g, z)
        res_f, _ = dlr_residual(scale(f, 0.7), nu, n, g, z)
        assert res_h == pytest.approx(res_f, abs=1e-13)
    table_h = tl_sequence(h, [(0,), (1, 0)], [y, z], 5)
    table_f = tl_sequence(f, [(0,), (1, 0)], [y, z], 5)
    assert (table_h.volumes.tolist(), table_h.cylinders, table_h.boundary_ids) == (
        table_f.volumes.tolist(), table_f.cylinders, table_f.boundary_ids)
    assert table_h.K.shape == table_f.K.shape
    assert np.max(np.abs(table_h.K - table_f.K)) < 1e-13


def test_kernel_is_transfer_ratio():
    # K_n(g|y) = (L^n g / L^n 1)(sigma^n y) once the tables resolve everything
    depth = 8
    rng = np.random.default_rng(23)
    g = CylinderFunction(2, 3, rng.uniform(-1.0, 1.0, 8))
    op = transfer_operator(MARKOV, depth)
    y = Point.from_literal("1101|01")
    num = g.refine(depth).values
    den = np.ones(op.size)
    for n in (1, 2, 3):
        num = op.apply(num)
        den = op.apply(den)
        row = word_index(shift_n(y, n).coords(depth), 2)
        ratio = num[row] / den[row]
        assert kernel(MARKOV, n, y, g) == pytest.approx(ratio, rel=1e-12)


def test_kernel_measure_coarsens_to_kernel_of_indicators():
    rng = np.random.default_rng(24)
    f = Potential.from_table(2, 2, rng.uniform(-1.0, 1.0, 4))
    y = Point.from_literal("01|1")
    km = kernel_measure(f, 3, y).coarsen(2)
    assert km.total_mass() == pytest.approx(1.0, abs=1e-12)
    for w in itertools.product(range(2), repeat=2):
        ind = CylinderFunction.indicator(2, w)
        assert km.cylinder_mass(w) == pytest.approx(
            kernel(f, 3, y, ind), abs=1e-13
        )


def test_constant_shift_invariance():
    rng = np.random.default_rng(25)
    for trial in range(10):
        f = Potential.from_table(2, 2, rng.uniform(-1.0, 1.0, 4))
        g = CylinderFunction(2, 2, rng.uniform(-1.0, 1.0, 4))
        y = random_point(rng, 2)
        a_n = float(rng.uniform(-50.0, 50.0))
        res = constant_shift_check(f, 3, y, g, a_n)
        assert res < 1e-12


def test_finite_volume_consistency_identity():
    rng = np.random.default_rng(26)
    for trial in range(10):
        f = Potential.from_table(2, 2, rng.uniform(-1.0, 1.0, 4))
        n = int(rng.integers(1, 5))
        r = int(rng.integers(1, 5))
        q = int(rng.integers(1, n + r + 1))
        g = CylinderFunction(2, q, rng.uniform(-1.0, 1.0, 2**q))
        z = random_point(rng, 2)
        assert finite_volume_dlr_check(n, r, [(f, z, g)])[0] < 1e-12


def test_finite_volume_consistency_reads_the_outer_boundary():
    # depth(f) - 1 > r: the inner kernels read symbols of sigma^{n+r} z too
    rng = np.random.default_rng(35)
    for d, depth in ((2, 4), (3, 3)):
        f = Potential.from_table(d, depth, rng.uniform(-1.0, 1.0, d**depth))
        for n, r, q in ((2, 1, 1), (3, 1, 4), (1, 2, 3)):
            g = CylinderFunction(d, q, rng.uniform(-1.0, 1.0, d**q))
            z = random_point(rng, d)
            assert finite_volume_dlr_check(n, r, [(scale(f, 1.3), z, g)])[0] < 1e-12


def test_dlr_residual_vanishes_for_eigenprobability():
    f = MARKOV
    nu = power_iterate(f, 6, tol=1e-14).nu
    g = CylinderFunction.indicator(2, (0, 1))
    for n in (1, 2, 3):
        res, quad = dlr_residual(f, nu, n, g, Point.constant(0))
        assert quad < 1e-12
        assert res < 1e-11


def test_dlr_residual_detects_wrong_measure():
    g = CylinderFunction.indicator(2, (0,)).refine(2)
    uniform = CylinderMeasure.uniform(2, 6)
    res, _ = dlr_residual(MARKOV, uniform, 2, g, Point.constant(0))
    assert res > 0.01


def test_dlr_residual_quadrature_bound_is_honest():
    # a shallow measure cannot resolve the integrand; the certified bound
    # must cover the gap to a fully resolved computation
    f = MARKOV
    nu_deep = power_iterate(f, 6, tol=1e-14).nu
    nu_shallow = nu_deep.coarsen(2)
    g = CylinderFunction.indicator(2, (0,))
    res_deep, _ = dlr_residual(f, nu_deep, 2, g, Point.constant(0))
    res_shallow, quad = dlr_residual(f, nu_shallow, 2, g, Point.constant(0))
    assert quad > 0.0
    assert abs(res_shallow - res_deep) <= quad


def test_tl_rows_converge_to_eigenprobability():
    fbar = normalize(MARKOV, power_iterate(MARKOV, 2, tol=1e-13))
    cylinders = [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
    boundaries = [Point.constant(0), Point.constant(1), Point.from_literal("|01")]
    table = tl_sequence(fbar, cylinders, boundaries, 10)
    assert table.volumes.tolist() == list(range(2, 11))
    devs = table.worst.tolist()
    assert all(b <= a * 1.001 + 1e-15 for a, b in zip(devs[2:], devs[3:]))
    assert devs[-1] < 1e-6


def test_engine_refuses_boundary_symbols_outside_the_alphabet():
    f = Potential.from_table(2, 2, [0.3, -0.5, 0.9, 0.1])
    g = CylinderFunction.indicator(2, (0,))
    with pytest.raises(ValueError, match="symbol 2 outside alphabet of size 2"):
        kernel(f, 3, Point.from_literal("0102|1"), g)
    # the volume's own coordinates are rewritten, never read
    assert kernel(f, 3, Point.from_literal("5|1"), g) == kernel(f, 3, Point.from_literal("|1"), g)


@pytest.mark.parametrize("kind", ["table", "ising_lr"])
def test_tl_table_axes_are_volume_cylinder_boundary(kind):
    # K[v, j, b] is bitwise the kernel of cylinder j at boundary b in volume volumes[v]
    if kind == "table":
        f = Potential.from_table(2, 3, np.random.default_rng(39).uniform(-1.0, 1.0, 8))
        n_max = 9
    else:
        f = g_potential(IsingParams(alpha=3.0, cutoff=40))
        n_max = 4
    cylinders = [(1,), (0, 1), (1, 1, 0)]
    boundaries = [Point.from_literal(t) for t in ("|0", "10|01", "1|10", "|1")]
    reference = CylinderMeasure(2, 3, np.full(8, 0.125))
    table = tl_sequence(scale(f, 0.8), cylinders, boundaries, n_max, reference)
    assert table.volumes.tolist() == list(range(3, n_max + 1))
    assert table.cylinders == ["1", "01", "110"]
    assert table.boundary_ids == [y.literal for y in boundaries]
    assert table.K.shape == (n_max - 2, 3, 4)
    for v, n in enumerate(table.volumes.tolist()):
        for j, w in enumerate(cylinders):
            g = CylinderFunction.indicator(2, w)
            for b, y in enumerate(boundaries):
                assert table.K[v, j, b] == kernel(scale(f, 0.8), n, y, g)
    assert np.array_equal(table.nu_ref, [0.5, 0.25, 0.125])
    assert np.array_equal(table.deviation, np.abs(table.K - table.nu_ref[:, None]))
    assert table.worst.tolist() == [max(table.deviation[v].ravel().tolist()) for v in range(n_max - 2)]


def test_D_estimate_stabilizes_and_bounds():
    rng = np.random.default_rng(27)
    f = Potential.from_table(2, 3, rng.uniform(-1.0, 1.0, 8))
    values1, b1 = D_estimate(f, 4)
    values2, b2 = D_estimate(f, 8)
    v1, v2 = values1[-1], values2[-1]
    assert abs(v1 - v2) < 1e-12
    assert v1 <= b1 + 1e-12
    assert b1 == b2

    h = from_point_function(2, lambda x: (0.0, 0.0), Hoelder(gamma=0.5, constant=1.0))
    _, bh = D_estimate(h, 3)
    q = 2.0**-0.5
    assert bh == pytest.approx(q / (1 - q))

    rough = from_point_function(2, lambda x: (0.0, 0.0), GenericContinuous())
    _, binf = D_estimate(rough, 3)
    assert math.isinf(binf)


MARKOV_DLR = Potential.from_table(2, 2, [math.log(2.0), 0.0, 0.0, 0.0])
DLR_REFUSALS = [
    ("tl_sequence", lambda: tl_sequence(MARKOV_DLR, [], [Point.constant(0)], 3),
     "need at least one cylinder and one boundary"),
    ("D_estimate", lambda: D_estimate(MARKOV_DLR, 3, [Point.constant(0)]), "need at least two tails to compare"),
    ("dlr_residual", lambda: dlr_residual(MARKOV_DLR, CylinderMeasure.uniform(2, 2), 3,
                                          CylinderFunction.indicator(2, (0,)), Point.constant(0)),
     "measure depth 2 does not resolve the volume 3"),
]


@pytest.mark.parametrize("call,message", [case[1:] for case in DLR_REFUSALS], ids=[c[0] for c in DLR_REFUSALS])
def test_dlr_refusals(call, message):
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value).startswith(message)


def test_dlr_residual_of_a_potential_without_variation_bounds_has_no_finite_quadrature_bound():
    # the integrand reads past the measure's depth, and nothing bounds how far it moves
    rough = from_point_function(2, lambda x: (0.1 * x.coord(3), 0.0), GenericContinuous())
    _, quad = dlr_residual(rough, CylinderMeasure.uniform(2, 2), 1, CylinderFunction.indicator(2, (0,)),
                           Point.constant(0))
    assert quad == math.inf


@pytest.mark.parametrize("d,m", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
def test_D_estimate_matches_enumeration_oracle(d, m):
    # the table branch stops at n = m - 1; the oracle runs every n <= m + 1
    rng = np.random.default_rng([d, m, 5])
    f = Potential.from_table(d, m, rng.uniform(-1.0, 1.0, d**m))
    tails = default_tails(d)
    brute = 0.0
    for N in range(1, m + 2):
        for w in itertools.product(range(d), repeat=N):
            vals = [birkhoff(f, prepend(t, w), N)[0] for t in tails]
            brute = max(brute, max(vals) - min(vals))
        assert D_estimate(f, N)[0][-1] == pytest.approx(brute, abs=1e-13)
        # the running maxima of one longer pass hold every shorter window's estimate
        assert D_estimate(f, m + 1)[0][N] == D_estimate(f, N)[0][-1]


@pytest.mark.parametrize("d,m", [(2, 1), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_D_estimate_of_callable_twin_matches_table(d, m):
    # the callable runs every n <= N, the table stops at n = m - 1
    rng = np.random.default_rng([d, m, 6])
    f = Potential.from_table(d, m, rng.uniform(-1.0, 1.0, d**m))
    h = Potential.from_callable(d, f.batch, Hoelder(gamma=1.0, constant=2.0))
    tails = default_tails(d) + [Point.from_literal("1|0"), Point.from_literal("01|10")]
    for N in range(1, m + 2):
        for ts in (None, tails):
            assert D_estimate(h, N, ts)[0][-1] == pytest.approx(D_estimate(f, N, ts)[0][-1], rel=1e-13, abs=1e-13)
            assert D_estimate(h, m + 1, ts)[0][N] == D_estimate(h, N, ts)[0][-1]


def test_callable_kernel_evaluates_each_tail_word_once():
    # Birkhoff sums along the tail: sum_{j <= n} d^j evaluations (enumeration: n d^n)
    f = Potential.from_table(2, 3, np.random.default_rng(36).uniform(-1.0, 1.0, 8))
    calls = []

    def fn(x):
        calls.append(x)
        return f.table.value_at(x), 0.0

    h = from_point_function(2, fn, Hoelder(gamma=1.0, constant=2.0))
    g = CylinderFunction.indicator(2, (1, 0))
    y = Point.from_literal("0|110")
    n = 8
    assert kernel(scale(h, 0.9), n, y, g) == pytest.approx(kernel(scale(f, 0.9), n, y, g), abs=1e-13)
    assert len(calls) <= sum(2**j for j in range(1, n + 1))
    calls.clear()
    assert log_partition(scale(h, 0.9), n, y) == pytest.approx(log_partition(scale(f, 0.9), n, y), rel=1e-13)
    assert len(calls) <= sum(2**j for j in range(1, n + 1))
    # one weight pass per boundary and volume serves every cylinder:
    # 4 boundaries x sum_{n=2}^{8} (2^{n+1} - 2) = 4,008 evaluations
    f = Potential.from_table(2, 2, np.random.default_rng(37).uniform(-1.0, 1.0, 4))
    h = from_point_function(2, fn, Hoelder(gamma=1.0, constant=2.0))  # fn reads this f
    cylinders = [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
    boundaries = [Point.from_literal(t) for t in ("|0", "|1", "0|110", "1|01")]
    reference = power_iterate(f, 2).nu
    calls.clear()
    table_h = tl_sequence(scale(h, 0.9), cylinders, boundaries, 8, reference)
    assert len(calls) <= 4_008
    table_f = tl_sequence(scale(f, 0.9), cylinders, boundaries, 8, reference)
    assert table_h.K.shape == table_f.K.shape
    assert np.max(np.abs(table_h.K - table_f.K)) < 1e-13


def enumerated_kernel(f, beta, n, tail, g):
    """A callable's volume-n kernel of g at one tail at inverse temperature
    beta, summed over the volume words one boundary at a time:
    (value, bound, log Z, weights)."""
    logw, werr = np.zeros(1), 0.0
    for logw, werr in tail_birkhoff(scale(f, beta), n, tail):
        pass
    top = float(np.max(logw))
    shifted = np.exp(logw - top)
    p = shifted / shifted.sum()
    gv = g.values[word_tail_index(g.d, n, g.depth, tail)]
    bound = (math.expm1(2.0 * werr) + _kernel_rounding(f.d**n, 1)) * float(np.max(np.abs(gv)))
    return sum_of_products(p, gv), bound, top + math.log(float(shifted.sum())), p


def engine_pass(f, beta, n, tests):
    """(engine operator, block, lift, exp2) after n plain steps from the columns of tests."""
    op = _engine(scale(f, beta), max((g.depth for g in tests), default=0))
    for _, block, lift, exp2 in itertools.islice(transfer.iterates(op, _columns(op, tests)), n):
        pass
    return op, block, lift, exp2


def reference_kernels(f, beta, n, g, tails):
    """Volume-n kernels of g and their bounds at the tails sigma^n y: rows of
    one engine pass for a table, one enumeration per tail for a callable."""
    if f.table is None:
        values, bounds = np.array([enumerated_kernel(f, beta, n, t, g)[:2] for t in tails]).T
        return values, bounds
    op, block, _, _ = engine_pass(f, beta, n, [g])
    rows = [word_index(t.coords(op.depth), f.d) for t in tails]
    return (block[0] / block[1])[rows], np.full(len(tails), _kernel_rounding(f.d, n) * np.max(np.abs(g.values)))


def reference_log_partition(f, beta, n, y):
    if f.table is None:
        return enumerated_kernel(f, beta, n, shift_n(y, n), CylinderFunction.constant(f.d, 1.0))[2]
    op, block, lift, exp2 = engine_pass(f, beta, n, [])
    row = _row(op, y, n)
    return math.log(float(block[0, row])) + float(lift[row]) + exp2 * _LN2


def reference_dlr_residual(f, beta, mu, n, g, tail):
    """dlr_residual with its inner kernels at the tails u . tail, |u| = M - n."""
    d, M = f.d, mu.depth
    L = M - n
    inner, errs = reference_kernels(f, beta, n, g, [prepend(tail, u) for u in word_table(L, d)])
    lhs = sum_of_products(mu.weights, inner[np.arange(d ** M) % d ** L])
    if g.depth <= M:
        rhs = integrate(mu, g)
    else:
        rhs = sum_of_products(mu.weights, g.values[word_tail_index(d, M, g.depth, tail)])
    quad = float(np.max(errs)) * mu.total_mass() + _representative_point_bound(scale(f, beta), M, n, g)
    return abs(lhs - rhs), quad


def reference_tower_check(f, beta, n, r, z, g):
    """A callable's tower check, summed over the volume words of each boundary."""
    d, tail = f.d, shift_n(z, n + r)
    inner, _ = reference_kernels(f, beta, n, g, [prepend(tail, u) for u in word_table(r, d)])
    rhs, _, _, p = enumerated_kernel(f, beta, n + r, tail, g)
    lhs = sum_of_products(p, inner[np.arange(d ** (n + r)) % d ** r])
    return abs(lhs - rhs)


def twin(f):
    """The callable twin of a table potential: its word evaluator, without its table."""
    return Potential.from_callable(f.d, f.batch, Hoelder(gamma=1.0, constant=2.0))


@pytest.mark.parametrize("beta", [1.0, -0.7, 2.5])
def test_sweep_equals_the_per_boundary_routes(beta):
    # every public kernel value read from _sweep is bitwise the one its
    # former per-boundary route gave (the table route of the tower check
    # did not change and is not repeated here)
    rng = np.random.default_rng([17, round(100 + 10 * beta)])
    potentials = [g_potential(IsingParams(alpha=3.0, cutoff=40))]
    for d in (2, 3):
        for m in (1, 2, 3, 4):
            f = Potential.from_table(d, m, rng.uniform(-1.0, 1.0, d**m))
            potentials += [f, twin(f)]
    for f in potentials:
        d = f.d
        n, r = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        y, z = random_point(rng, d), random_point(rng, d)
        for q in (1, n + r, n + r + 1):
            g = CylinderFunction(d, q, rng.uniform(-1.0, 1.0, d**q))
            assert log_partition(scale(f, beta), n, y) == reference_log_partition(f, beta, n, y)
            assert kernel(scale(f, beta), n, y, g) == reference_kernels(f, beta, n, g, [shift_n(y, n)])[0][0]
            for M in (n, n + 2):
                mu = kernel_measure(scale(f, beta), M, z)
                assert dlr_residual(scale(f, beta), mu, n, g, y) == reference_dlr_residual(f, beta, mu, n, g, y)
            if f.table is None:
                tower = finite_volume_dlr_check(n, r, [(scale(f, beta), z, g)])[0]
                assert tower == reference_tower_check(f, beta, n, r, z, g)
                # the callable tower check is the DLR equation of the volume-(n+r) kernel
                mu = kernel_measure(scale(f, beta), n + r, z)
                assert tower == dlr_residual(scale(f, beta), mu, n, g, shift_n(z, n + r))[0]


def reference_table_tower_check(beta, n, r, f, z, g):
    """A table's tower check on its own engine: three passes per case."""
    op = _engine(scale(f, beta), g.depth)
    block, lift = transfer.run(op, _columns(op, [g]), n)
    inner = block[0] / block[1]
    marginal, _ = transfer.run(op, block[1:], r, split=r, lift=lift)
    row = _row(op, z, n + r)
    p = marginal[:, row]
    cells = word_tail_index(f.d, r, op.depth, shift_n(z, n + r))
    lhs = sum_of_products(p, inner[cells]) / float(p.sum())
    outer, _ = transfer.run(op, block, r, lift=lift)
    return abs(lhs - float(outer[0, row] / outer[1, row]))


def tower_cases(rng, d, n, r, count):
    """Random table cases (f, z, g): table depths 1-3, test depths 1..n+r+1."""
    cases = []
    for _ in range(count):
        m = int(rng.integers(1, 4))
        q = int(rng.integers(1, n + r + 2))
        f = Potential.from_table(d, m, rng.uniform(-1.0, 1.0, d**m))
        cases.append((f, random_point(rng, d), CylinderFunction(d, q, rng.uniform(-1.0, 1.0, d**q))))
    return cases


def count_engine_passes(monkeypatch):
    """The sizes of the tables of every transfer.iterates pass started from now on."""
    passes = []
    iterates = transfer.iterates
    monkeypatch.setattr(transfer, "iterates", lambda op, *args: passes.append(op.size) or iterates(op, *args))
    return passes


@pytest.mark.parametrize("beta", [1.0, -0.7, 2.5])
def test_one_case_tower_check_is_the_per_case_route(beta):
    rng = np.random.default_rng([48, round(10 + 10 * beta)])
    for d in (2, 3):
        for r in range(4):
            n = int(rng.integers(1, 4))
            for f, z, g in tower_cases(rng, d, n, r, 3):
                assert finite_volume_dlr_check(n, r, [(scale(f, beta), z, g)]) == [reference_table_tower_check(beta, n, r, f, z, g)]


@pytest.mark.parametrize("beta", [1.0, -0.7, 2.5])
def test_batched_tower_check_matches_one_case_calls(beta):
    # block j of the union steps case j's table; only the engine's shared
    # row gauge (its common power of two and epoch length) couples them
    rng = np.random.default_rng([49, round(10 + 10 * beta)])
    for d in (2, 3):
        for r in range(4):
            n = int(rng.integers(1, 4))
            cases = tower_cases(rng, d, n, r, 7)
            # a callable rides in the same call, on its own route
            cases.insert(3, (twin(cases[0][0]), cases[1][1], cases[2][2]))
            cases = [(scale(f, beta), z, g) for f, z, g in cases]
            batched = finite_volume_dlr_check(n, r, cases)
            assert len(batched) == len(cases)
            for case, res in zip(cases, batched):
                alone = finite_volume_dlr_check(n, r, [case])[0]
                assert abs(res - alone) <= 1e-15 and res < 1e-12


def test_batched_tower_check_survives_a_wide_spread():
    # beta * osc(f) = 640000: one-step epochs, each row in its own gauge
    wide = (Potential.from_table(2, 2, [0.0, -800.0, 0.0, -800.0]), Point.from_literal("|1"),
            CylinderFunction.indicator(2, (0,)))
    rng = np.random.default_rng(50)
    for n, r in ((1, 2), (3, 1), (2, 3), (2, 0)):
        cases = [(scale(f, 800.0), z, g) for f, z, g in [wide] + tower_cases(rng, 2, n, r, 4)]
        batched = finite_volume_dlr_check(n, r, cases)
        for case, res in zip(cases, batched):
            alone = finite_volume_dlr_check(n, r, [case])[0]
            assert abs(res - alone) <= 1e-15 and res < 1e-12


def test_tower_check_batch_runs_three_engine_passes(monkeypatch):
    passes = count_engine_passes(monkeypatch)
    rng = np.random.default_rng(51)
    for count in (1, 2, 10, 40):
        passes.clear()
        cases = tower_cases(rng, 2, 3, 2, count)
        finite_volume_dlr_check(3, 2, cases)
        engine_sizes = [2 ** max(g.depth, f.truncation_depth() - 1, 1) for f, _, g in cases]
        assert passes == [sum(engine_sizes)] * 3


def test_tower_check_packs_cases_within_the_size_guard(monkeypatch):
    rng = np.random.default_rng(52)
    n, r = 2, 2
    # engine depth 2 per case: a split block of 2**2 * 4 = 16 entries each
    cases = [
        (Potential.from_table(2, 3, rng.uniform(-1.0, 1.0, 8)), random_point(rng, 2),
         CylinderFunction(2, 2, rng.uniform(-1.0, 1.0, 4)))
        for _ in range(4)
    ]
    one_pass = finite_volume_dlr_check(n, r, cases)
    passes = count_engine_passes(monkeypatch)
    monkeypatch.setattr(shift, "MAX_TABLE_ENTRIES", 32)
    two_passes = finite_volume_dlr_check(n, r, cases)
    assert passes == [8] * 6
    assert max(abs(a - b) for a, b in zip(one_pass, two_passes)) <= 1e-15
    assert max(two_passes) < 1e-12
    # a depth-4 test function alone needs 2**(4 + 2) entries: refused before any pass
    passes.clear()
    deep = (cases[0][0], cases[0][1], CylinderFunction(2, 4, rng.uniform(-1.0, 1.0, 16)))
    with pytest.raises(TableSizeError):
        finite_volume_dlr_check(n, r, cases + [deep])
    ternary = (Potential.constant(3, 0.0), cases[0][1], CylinderFunction.indicator(3, (2,)))
    with pytest.raises(ValueError, match="alphabet"):
        finite_volume_dlr_check(n, r, cases + [ternary])
    assert passes == []


@pytest.mark.parametrize("d", [2, 3])
def test_engine_sweep_reads_each_boundary_once(monkeypatch, d):
    rng = np.random.default_rng([d, 43])
    f = Potential.from_table(d, 3, rng.uniform(-1.0, 1.0, d**3))
    tests = [CylinderFunction(d, q, rng.uniform(-1.0, 1.0, d**q)) for q in (1, 2, 4)]
    boundaries = [random_point(rng, d) for _ in range(5)]
    volumes = [1, 2, 5, 9, 40]
    op = _engine(scale(f, 1.3), 4)
    # the per-volume read: y.coords(n + D) for every boundary at every volume
    expected = []
    for n, block, lift, exp2 in itertools.islice(transfer.iterates(op, _columns(op, tests)), volumes[-1]):
        if n in volumes:
            rows = [_row(op, y, n) for y in boundaries]
            log_z = np.array([math.log(block[-1, i]) + lift[i] + exp2 * _LN2 for i in rows])
            expected.append((n, (block[:-1, rows] / block[-1, rows]).T, log_z))
    reads = []
    coords = Point.coords
    monkeypatch.setattr(Point, "coords", lambda self, n: reads.append(self) or coords(self, n))
    swept = list(_engine_sweep(op, tests, boundaries, volumes))
    assert len(reads) == len(boundaries) and all(a is b for a, b in zip(reads, boundaries))
    for (n, K, log_z), (m, K_ref, log_z_ref) in zip(swept, expected, strict=True):
        assert n == m
        assert np.array_equal(K, K_ref) and np.array_equal(log_z, log_z_ref)


def test_sandwich_certificate():
    D = D_estimate(MARKOV, 6)[0][-1]
    tails = default_tails(2)
    rng = np.random.default_rng(28)
    for trial in range(10):
        n = int(rng.integers(1, 7))
        C = tuple(rng.integers(0, 2, int(rng.integers(1, min(n, 3) + 1))))
        y = tails[int(rng.integers(0, len(tails)))]
        z = tails[int(rng.integers(0, len(tails)))]
        holds, margin, _ = sandwich_check(MARKOV, [(n, C, y, z)], D)[0]
        assert holds
        assert margin >= 1.0
    # an understated D must be caught: with D = 0 any kernel gap violates
    holds, margin, _ = sandwich_check(MARKOV, [(1, (0,), Point.constant(0), Point.constant(1))], 0.0)[0]
    assert margin < 1.0 and not holds
    with pytest.raises(ValueError):
        sandwich_check(MARKOV, [(1, (0, 1), tails[0], tails[1])], D)


@pytest.mark.parametrize("beta", [1.0, -0.7, 2.5])
@pytest.mark.parametrize("d", [2, 3])
def test_sandwich_sweep_equals_each_draw_alone(d, beta):
    # one sweep at the deepest cylinder's depth gives every draw's kernels bitwise
    rng = np.random.default_rng([d, 41])
    tails = default_tails(d)

    def boundary(n):
        prefix = tuple(int(s) for s in rng.integers(0, d, size=int(rng.integers(0, n + 3))))
        return prepend(tails[int(rng.integers(0, len(tails)))], prefix)

    for m in (1, 2, 3, 4):
        f = Potential.from_table(d, m, rng.uniform(-3.0, 3.0, d**m))
        D = D_estimate(f, 8)[0][-1]
        draws = []
        for _ in range(20):
            n = int(rng.integers(1, 9))
            C = tuple(int(s) for s in rng.integers(0, d, size=int(rng.integers(1, min(n, 4) + 1))))
            draws.append((n, C, boundary(n), boundary(n)))
        # D(beta f) = |beta| D(f)
        for (n, C, y, z), check in zip(draws, sandwich_check(scale(f, beta), draws, abs(beta) * D), strict=True):
            ky, kz = (kernel(scale(f, beta), n, p, CylinderFunction.indicator(d, C)) for p in (y, z))
            log_margin = 2.0 * abs(beta) * D - abs(math.log(ky) - math.log(kz))
            assert check == (log_margin >= 0.0, exp_or_inf(log_margin), log_margin)


def test_change_of_measure():
    deviation, converged = change_of_measure_check(MARKOV, 3, tol=1e-13)
    assert converged and deviation < 1e-10
    rng = np.random.default_rng(29)
    f = Potential.from_table(2, 2, rng.uniform(-1.0, 1.0, 4))
    deviation, converged = change_of_measure_check(f, 3, tol=1e-13)
    assert converged and deviation < 1e-9


def test_change_of_measure_reports_unconverged_eigendata():
    deviation, converged = change_of_measure_check(MARKOV, 3, max_iter=1)
    assert not converged and deviation > 0.1


def test_scaled_kernel_is_beta_kernel():
    # beta enters only through beta*f
    rng = np.random.default_rng(30)
    f = Potential.from_table(2, 2, rng.uniform(-1.0, 1.0, 4))
    g = CylinderFunction(2, 2, rng.uniform(-1.0, 1.0, 4))
    y = Point.from_literal("0|1")
    beta = 1.7
    assert kernel(scale(f, beta), 3, y, g) == pytest.approx(
        brute_kernel(f, beta, 3, y, g), rel=1e-12
    )


def exact_kernel(values, n, g=(1.0, 1.0, 0.0, 0.0)):
    """The volume-n kernel at 0^inf of a depth-2 g (default 1_[0]) and a
    depth-3 table on two symbols, from 60-digit powers of its depth-2
    matrix: (M^n g)(00) / (M^n 1)(00)."""
    with mpmath.workdps(60):
        M = mpmath.matrix(4, 4)
        for a, i in itertools.product(range(2), range(4)):
            # word i = w_1 w_2 reads the child a w_1 with weight e^{f(a w_1 w_2)}
            M[i, 2 * a + i // 2] += mpmath.exp(mpmath.mpf(float(values[4 * a + i])))
        power, square, k = mpmath.eye(4), M, n
        while k:
            if k & 1:
                power = power * square
            square, k = square * square, k >> 1
        return float((power * mpmath.matrix(list(g)))[0] / (power * mpmath.matrix([1, 1, 1, 1]))[0])


def test_table_kernels_hold_their_rounding_bound_at_every_volume():
    # n steps of d-term sums of positive terms: a few d * n units of rounding,
    # where one nominal 1e-15 was exceeded from n ~ 100 on
    rng = np.random.default_rng(61)
    y, g = Point.constant(0), CylinderFunction.indicator(2, (0,))
    for _ in range(20):
        values = rng.normal(0.0, 3.0, 8)
        f = Potential.from_table(2, 3, values)
        for n in (10, 100, 1000, 3000):
            _, K, err, _ = next(dlr._sweep(f, [g], [y], [n]))
            assert err[0, 0] == _kernel_rounding(2, n)
            assert abs(K[0, 0] - exact_kernel(values, n)) <= err[0, 0]


def test_kernel_rounding_scales_with_the_test_function():
    # a signed test function of values ~1e3: the sums' rounding is relative to
    # max |g|, and the kernel's to cancellation among the words
    rng = np.random.default_rng(71)
    y = Point.constant(0)
    for _ in range(10):
        values = rng.normal(0.0, 3.0, 8)
        g = CylinderFunction(2, 2, rng.uniform(-1e3, 1e3, 4))
        f = Potential.from_table(2, 3, values)
        for n in (10, 100, 1000):
            _, K, err, _ = next(dlr._sweep(f, [g], [y], [n]))
            assert err[0, 0] == _kernel_rounding(2, n) * np.max(np.abs(g.values))
            assert abs(K[0, 0] - exact_kernel(values, n, g.values)) <= err[0, 0]
