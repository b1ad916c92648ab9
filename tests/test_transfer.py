"""Transfer-operator machinery against dense linear-algebra oracles."""

import collections
import dataclasses
import math

import numpy as np
import pytest

from karp import bracket, brute_max_mean_cycle, exact_log_spectral_radius, max_mean_cycle
from pointwise import from_point_function
from ruellekit import transfer
from ruellekit.ising import IsingParams, g_potential
from ruellekit.potentials import Hoelder, Potential, scale
from ruellekit.shift import CylinderFunction, integrate, sum_of_products
from ruellekit.transfer import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    Iterate,
    TransferOperator,
    _squared,
    check_normalized,
    disjoint_union,
    normalize,
    power_iterate,
    transfer_operator,
)

GOLDEN_LAMBDA = (3.0 + math.sqrt(5.0)) / 2.0
MARKOV = Potential.from_table(2, 2, [math.log(2.0), 0.0, 0.0, 0.0], label="markov")


def dense_spectral_radius(f, depth):
    m = transfer_operator(f, depth).matrix()
    return max(abs(w) for w in np.linalg.eigvals(m))


def test_apply_counts_preimages():
    zero = Potential.constant(2, 0.0)
    out = transfer_operator(zero, 1).apply(np.ones(2))
    assert list(out) == [2.0, 2.0]


def test_apply_markov_unit():
    # summing e^{f(ax)} over a in {0,1}: 3 when x starts with 0, else 2
    out = transfer_operator(MARKOV, 1).apply(np.ones(2))
    assert out == pytest.approx([3.0, 2.0])


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
        assert power_iterate(shifted, 2).log_lam == pytest.approx(
            power_iterate(f, 2).log_lam + c, abs=1e-10
        )


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


def test_max_mean_cycle_is_the_heaviest_simple_cycle():
    rng = np.random.default_rng(59)
    # graphs of at most 9 words, whose simple cycles can be listed
    cases = [(2, 2, 1, 1.0), (2, 3, 2, 20.0), (2, 4, 3, 3000.0), (3, 2, 1, 745.0), (3, 3, 2, 5.0), (2, 4, 3, 0.3),
             (2, 2, 3, 10.0)]
    for d, m, depth, spread in cases:
        for i in range(3):
            f = Potential.from_table(d, m, rng.uniform(-spread, spread, d**m))
            op = transfer_operator(f, depth)
            assert max_mean_cycle(op) == pytest.approx(brute_max_mean_cycle(op), rel=1e-12, abs=1e-12)
            low, high = bracket(op)
            if spread <= 20.0:  # where a dense solve in floats resolves lambda
                assert low <= math.log(dense_spectral_radius(f, depth)) <= high
            if i == 0:
                # the balanced 50-digit solve lies in the bracket, is the dense solve's
                # where that resolves lambda, and 80 digits do not move it
                exact = exact_log_spectral_radius(op)
                assert low <= exact <= high
                assert exact == pytest.approx(exact_log_spectral_radius(op, digits=80), rel=1e-15)
                if spread <= 20.0:
                    assert exact == pytest.approx(math.log(dense_spectral_radius(f, depth)), rel=1e-12, abs=1e-12)


def test_underflowing_weights_keep_lambda_in_karps_bracket():
    # exp(f - max f) underflows to 0 for half of the words; lambda ~ e^-500 comes
    # from a cycle of four words through one of them, nearly periodic, so no
    # power iteration converges: the pressure is the enclosure's, in the bracket
    values = [-1999.42, -0.81, -1999.84, -0.61, -1999.38, -2000.02, 0.98, -2000.63]
    f = Potential.from_table(2, 3, values)
    low, high = bracket(transfer_operator(f, 3))
    assert (low, high) == pytest.approx((-499.955, -499.262), abs=1e-3)
    assert low <= exact_log_spectral_radius(transfer_operator(f, 2)) <= high
    for depth in (2, 3, 6):
        rpf = power_iterate(f, depth, max_iter=2000)  # each step re-gauges every row: 2,000 keep it short
        assert not rpf.converged and low <= rpf.log_lam <= high
        # psi spans up to e^1991, past the float range, and its logs do not
        assert np.all(np.isfinite(rpf.log_psi)) and rpf.nu.total_mass() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_callable_values_are_refused(bad):
    f = from_point_function(2, lambda x: (bad if x.coord(2) else 0.0, 0.0), Hoelder(1.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        transfer_operator(f, 2)
    with pytest.raises(ValueError, match="finite"):
        power_iterate(f, 3)


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
        assert check_normalized(fbar) < 1e-10


@pytest.mark.parametrize("max_iter", [3, DEFAULT_MAX_ITER])
@pytest.mark.parametrize("d", [2, 3])
def test_check_normalized_reads_the_operator_at_the_tables_own_depth(d, max_iter):
    # the oracle: L_fbar 1 - 1 through the depth-m operator, m the table's depth
    rng = np.random.default_rng(10 * d + max_iter)
    for m in range(1, 5):
        for depth in range(max(m - 1, 1), m + 3):
            for spread in (0.3, 3.0, 30.0):
                f = Potential.from_table(d, m, rng.normal(0.0, spread, d**m))
                fbar = normalize(f, power_iterate(f, depth, max_iter=max_iter))
                op = transfer_operator(fbar, fbar.depth())
                oracle = float(np.max(np.abs(op.apply(np.ones(op.size)) - 1.0)))
                assert check_normalized(fbar) == oracle, (m, depth, spread)
    # a constant reads at depth 1: the d preimages of every word
    assert check_normalized(Potential.constant(d, -math.log(d) + 0.5)) == abs(d * math.exp(-math.log(d) + 0.5) - 1.0)


TRANSFER_REFUSALS = [
    # an unconverged pair whose log psi passes 1000
    ("psi", lambda: power_iterate(Potential.from_table(2, 3, np.random.default_rng(5).normal(0.0, 1000.0, 8)), 3,
                                  max_iter=500).psi,
     "psi leaves the float range: it spans e^"),
    # a converged pair whose log psi falls to -6000: its psi rounds to 0
    ("psi-underflow", lambda: power_iterate(Potential.from_table(2, 3, [3000.0] + [0.0] * 7), 3).psi,
     "psi leaves the float range: it spans e^"),
    # 4096**2 entries
    ("matrix", lambda: transfer_operator(Potential.constant(2, 0.0), 12).matrix(),
     "dense matrix would exceed the size guard"),
    ("normalize", lambda: normalize(Potential.constant(3, 0.0), power_iterate(MARKOV, 2)),
     "alphabet mismatch between potential and eigendata"),
    ("check_normalized", lambda: check_normalized(g_potential(IsingParams(alpha=3.0, cutoff=50))),
     "check_normalized reads a table potential"),
]


@pytest.mark.parametrize("call,message", [case[1:] for case in TRANSFER_REFUSALS], ids=[c[0] for c in TRANSFER_REFUSALS])
def test_transfer_refusals(call, message):
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value).startswith(message)


def test_normalized_apply_fixes_one():
    fbar = normalize(MARKOV, power_iterate(MARKOV, 2, tol=1e-13))
    out = transfer_operator(fbar, 3).apply(np.ones(8))
    assert np.max(np.abs(out - 1.0)) < 1e-12


def test_conjugation_identity():
    # applying the normalized operator n times equals the psi-conjugated,
    # lambda-rescaled plain operator
    depth = 6
    rpf = power_iterate(MARKOV, depth)
    fbar = normalize(MARKOV, rpf)
    rng = np.random.default_rng(5)
    op_bar, op = transfer_operator(fbar, depth), transfer_operator(MARKOV, depth)
    g = rng.uniform(-1.0, 1.0, 2**depth)
    psi = rpf.psi.values
    lhs = g
    rhs_inner = g * psi
    for n in range(1, 5):
        lhs = op_bar.apply(lhs)
        rhs_inner = op.apply(rhs_inner)
        rhs = rhs_inner / psi / rpf.lam**n
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_duality_pairing():
    rng = np.random.default_rng(9)
    depth = 3
    f = Potential.from_table(2, 2, rng.uniform(-1.0, 1.0, 4))
    g = rng.uniform(-1.0, 1.0, 2**depth)
    mu = rng.uniform(0.1, 1.0, 2**depth)
    op = transfer_operator(f, depth)
    lhs = np.dot(mu, op.apply(g))
    rhs = np.dot(op.dual_apply(mu), g)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_iterate_to_fixed_point_reaches_the_mean():
    rpf = power_iterate(MARKOV, 6)
    fbar = normalize(MARKOV, rpf)
    mu = power_iterate(fbar, 6).nu
    g = CylinderFunction.indicator(2, (0,)).refine(6)
    mean = integrate(mu, g)
    op = transfer_operator(fbar, 6)
    values = g.values
    for _ in range(200):
        values = op.apply(values)
    assert np.max(np.abs(values - mean)) < 1e-10


def test_power_iterate_reports_nonconvergence():
    rpf = power_iterate(MARKOV, 2, max_iter=2)
    assert not rpf.converged


def test_scaled_potential_interpolates():
    # beta = 0 gives log d, beta = 1 gives the Markov pressure
    assert power_iterate(scale(MARKOV, 0.0), 2).log_lam == pytest.approx(math.log(2.0))
    assert power_iterate(scale(MARKOV, 1.0), 2).log_lam == pytest.approx(math.log(GOLDEN_LAMBDA))


@pytest.mark.parametrize("max_iter", [2, 10_000])
def test_power_iterate_applies_each_operator_once_per_step(monkeypatch, max_iter):
    # a depth-2 table iterates at depth k = 1: one call of each per checked
    # step, and at D = 4 a depth-D check adds D - k = 3 adjoint calls, all at
    # depth k (and as many log-domain sums).  max_iter 2 takes two plain steps,
    # the second checked at depth D; the default squares, and checks the
    # converged square once at depth D on its dense matrix, with no call
    calls = {"apply": [], "dual_apply": []}
    for name in calls:
        method = getattr(TransferOperator, name)

        def counted(self, values, name=name, method=method):
            calls[name].append(self.size)
            return method(self, values)

        monkeypatch.setattr(TransferOperator, name, counted)
    rpf = power_iterate(Potential.from_table(2, 2, [0.3, -0.2, 0.9, 0.1]), 4, max_iter=max_iter)
    assert rpf.converged == (max_iter > 2)
    if max_iter == 2:
        assert calls == {"apply": [2] * 2, "dual_apply": [2] * (2 + (4 - 1))}
    else:
        assert calls == {"apply": [], "dual_apply": []}


@pytest.mark.parametrize("max_iter", [2, 10_000])
def test_reported_residuals_are_those_of_the_returned_vectors(max_iter):
    rng = np.random.default_rng(17)
    f = Potential.from_table(3, 2, rng.uniform(-1.0, 1.0, 9))
    rpf = power_iterate(f, 3, max_iter=max_iter)
    assert rpf.converged == (max_iter > 2)
    mat = transfer_operator(f, 3).matrix()
    psi, nu, lam = rpf.psi.values, rpf.nu.weights, rpf.lam
    res_fn = np.max(np.abs(mat @ psi - lam * psi)) / (lam * np.max(np.abs(psi)))
    res_meas = np.sum(np.abs(mat.T @ nu - lam * nu)) / (lam * np.sum(np.abs(nu)))
    assert rpf.residual_fn == pytest.approx(res_fn, abs=1e-12)
    assert rpf.residual_meas == pytest.approx(res_meas, abs=1e-12)


DEPTH_4_TABLE = Potential.from_table(2, 4, np.random.default_rng(23).uniform(-1.0, 1.0, 16))


def dense_eigendata(f, depth):
    """(lambda, psi, nu) of the dense depth-m matrix, normalised as power_iterate's."""
    mat = transfer_operator(f, depth).matrix()
    vals, right = np.linalg.eig(mat)
    lvals, left = np.linalg.eig(mat.T)
    psi = np.abs(np.real(right[:, np.argmax(np.abs(vals))]))
    nu = np.abs(np.real(left[:, np.argmax(np.abs(lvals))]))
    nu = nu / nu.sum()
    return float(np.max(np.abs(vals))), psi / (nu @ psi), nu


def test_table_iterates_on_its_own_depth_and_lifts_once(monkeypatch):
    # one entry per Ruelle step: an L^p table's call stands for p steps,
    # and a squared power L^(2^j) for 2^j steps of each operator
    sizes = {"apply": [], "dual_apply": []}
    for name in sizes:
        method = getattr(TransferOperator, name)

        def counted(self, values, name=name, method=method):
            steps = round(math.log(len(self.preimages), self.d))
            sizes[name].extend([self.size] * steps)
            return method(self, values)

        monkeypatch.setattr(TransferOperator, name, counted)

    dense_checks = []

    def squared(op, levels, tol, max_iter):
        psi, nu, steps, dense = _squared(op, levels, tol, max_iter)
        for calls in sizes.values():
            calls.extend([op.size] * steps)
        dense_checks.append((levels, dense is not None))
        return psi, nu, steps, dense

    monkeypatch.setattr(transfer, "_squared", squared)
    monkeypatch.setattr(transfer, "Iterate", _Refused("Iterate"))
    built, build = [], transfer.transfer_operator
    monkeypatch.setattr(transfer, "transfer_operator", lambda f, depth: built.append(depth) or build(f, depth))
    rpf = power_iterate(DEPTH_4_TABLE, 13)
    assert rpf.converged and rpf.iterations == 64 + 1
    assert built == [3]  # no depth-13 operator
    # 64 squared steps, and one depth-13 check made on the dense matrix of L_3
    # and its power L_3^(13 - 3): no call and no Iterate
    assert sizes == {"apply": [2**3] * 64, "dual_apply": [2**3] * 64}
    assert dense_checks == [(13 - 3, True)]
    # the depth-13 vectors are built when read
    assert rpf.psi.depth == rpf.nu.depth == 13


@pytest.mark.parametrize("depth", [5, 13, 14])
def test_lifted_eigendata_match_the_dense_table_depth_solve(depth):
    f, k = DEPTH_4_TABLE, 3
    lam, psi, nu = dense_eigendata(f, k)
    rpf = power_iterate(f, depth, tol=1e-12)
    assert rpf.converged
    assert rpf.log_lam == pytest.approx(math.log(lam), abs=1e-13)
    # psi reads w_1 ... w_k only; nu coarsens to the depth-k eigenmeasure
    assert np.max(np.abs(rpf.psi.values - np.repeat(psi, 2 ** (depth - k)))) < 1e-10
    assert np.sum(np.abs(rpf.nu.coarsen(k).weights - nu)) < 1e-10
    # the residuals are those of the returned depth-D vectors under the depth-D operator
    op = transfer_operator(f, depth)
    p, n = rpf.psi.values, rpf.nu.weights
    res_fn = np.max(np.abs(op.apply(p) - rpf.lam * p)) / (rpf.lam * np.max(p))
    res_meas = np.sum(np.abs(op.dual_apply(n) - rpf.lam * n)) / (rpf.lam * np.sum(n))
    assert max(res_fn, res_meas) < 1e-12
    assert rpf.residual_fn == pytest.approx(res_fn, abs=1e-14)
    assert rpf.residual_meas == pytest.approx(res_meas, abs=1e-14)


def test_wide_spread_lift_stays_finite():
    # beta * osc = 1400: e^{f - max f} spans e^0 .. e^-1400 (f(11) underflows to 0),
    # and lambda of e^{-max f} L is ~ e^-350, so every lifted level divides by it
    f = Potential.from_table(2, 2, [350.0, 700.0, 0.0, -700.0])
    rpf = power_iterate(f, 13)
    assert rpf.converged and rpf.iterations < 40
    assert rpf.log_lam == pytest.approx(350.0 + math.log((1 + math.sqrt(5)) / 2), abs=1e-12)
    psi, nu = rpf.psi.values, rpf.nu.weights
    assert np.all(np.isfinite(psi)) and np.all(psi > 0)
    assert np.all(np.isfinite(nu)) and nu.sum() == pytest.approx(1.0, abs=1e-12)
    # nu charges exactly the words without two adjacent 1s (weight e^{f(11) - max f} = 0)
    words = np.arange(2**13)
    assert np.array_equal(nu > 0, (words & (words >> 1)) == 0)


def test_last_permitted_step_runs_at_the_requested_depth():
    rpf = power_iterate(DEPTH_4_TABLE, 13, max_iter=2)
    assert not rpf.converged and rpf.iterations == 2
    assert rpf.psi.values.size == rpf.nu.weights.size == 2**13
    op = transfer_operator(DEPTH_4_TABLE, 13)
    p, n = rpf.psi.values, rpf.nu.weights
    res_fn = np.max(np.abs(op.apply(p) - rpf.lam * p)) / (rpf.lam * np.max(p))
    res_meas = np.sum(np.abs(op.dual_apply(n) - rpf.lam * n)) / (rpf.lam * np.sum(n))
    assert rpf.residual_fn == pytest.approx(res_fn, rel=1e-12)
    assert rpf.residual_meas == pytest.approx(res_meas, rel=1e-12)


class _Refused:
    def __init__(self, name):
        self.name = name

    def __call__(self, *args, **kwargs):
        raise AssertionError(f"{self.name} called")

    def __getattr__(self, attr):
        raise AssertionError(f"{self.name}.{attr} called")


def test_deep_inner_products_avoid_blas_dot(monkeypatch):
    # np.dot on vectors of more than 10,000 entries can stall in OpenBLAS's
    # threaded ddot; the squared matrices' products stay off BLAS as well
    for name in ("dot", "matmul", "linalg"):
        monkeypatch.setattr(np, name, _Refused(f"np.{name}"))
    for f in (MARKOV, DEPTH_4_TABLE, Potential.from_table(2, 7, np.linspace(-1.0, 1.0, 128))):
        rpf = power_iterate(f, 14)
        assert rpf.converged and rpf.psi.values.size == 2**14
        assert integrate(rpf.nu, rpf.psi) == pytest.approx(1.0, abs=1e-12)


def test_operators_share_one_preimage_index():
    op = transfer_operator(MARKOV, 5)
    assert transfer_operator(DEPTH_4_TABLE, 5).preimages is op.preimages
    assert np.array_equal(op.preimages[1], 2**4 + np.arange(2**5) // 2)


def test_disjoint_union_acts_on_each_block_as_its_operator():
    rng = np.random.default_rng(47)
    for d, depths in [(2, (1, 3, 2)), (3, (2, 1)), (2, (4,))]:
        ops = []
        for depth in depths:
            f = Potential.from_table(d, depth + 1, rng.uniform(-2.0, 2.0, d ** (depth + 1)))
            ops.append(transfer_operator(f, depth).gauged(rng.uniform(-1.0, 1.0, d**depth), 0.3))
        union = disjoint_union(ops)
        sizes = [op.size for op in ops]
        assert union.size == sum(sizes) and union.depth == max(depths)
        starts = np.cumsum([0] + sizes)
        # every preimage stays inside the block of its row
        for op, lo, hi in zip(ops, starts, starts[1:]):
            assert np.all((union.preimages[:, lo:hi] >= lo) & (union.preimages[:, lo:hi] < hi))
        values = rng.uniform(-1.0, 1.0, (3, union.size))
        weights = rng.uniform(0.0, 1.0, union.size)
        terms, applied = union.terms(values), union.apply(values)
        dual = union.dual_apply(weights)
        for op, lo, hi in zip(ops, starts, starts[1:]):
            assert np.array_equal(terms[..., lo:hi], op.terms(values[:, lo:hi]))
            assert np.array_equal(applied[:, lo:hi], op.apply(values[:, lo:hi]))
            assert np.array_equal(dual[lo:hi], op.dual_apply(weights[lo:hi]))
    op = transfer_operator(MARKOV, 3)
    assert disjoint_union([op]) is op
    with pytest.raises(ValueError, match="one alphabet"):
        disjoint_union([op, transfer_operator(Potential.constant(3, 0.0), 1)])


def test_power_table_is_the_matrix_power():
    rng = np.random.default_rng(29)
    for d, depth, p in [(2, 1, 3), (2, 3, 2), (3, 2, 3), (2, 4, 4)]:
        f = Potential.from_table(d, depth + 1, rng.uniform(-2.0, 2.0, d ** (depth + 1)))
        op = transfer_operator(f, depth)
        power = op.power(p)
        assert power.preimages.shape == power.log_weights.shape == (d**p, d**depth)
        # the matrix power, in the operator's own gauge
        expected = np.linalg.matrix_power(op.matrix(), p)
        got = power.matrix()
        assert np.max(np.abs(got - expected)) < 1e-15 * expected.sum()


def level_lift(full, nu, depth):
    """The depth-k eigenmeasure nu lifted to full.depth through the depth-D
    operator's weights: nu_{j+1}([a w]) = W_j(a, w) nu_j([w]) / lambda, each
    level divided by its own mass."""
    d = full.d
    for j in range(depth, full.depth):
        # W_j[a, w] = full.weights[a, w 0...0], laid out as the words a w
        nu = (full.weights[:, :: d ** (full.depth - j)] * nu).ravel()
        nu = nu / nu.sum()
    return nu


class OracleBreakdown(Exception):
    """The plain floats of stepwise_power_iterate left the float range."""


def stepwise_power_iterate(f, depth, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, leaps=False):
    """(log lambda, psi, nu, converged, iterations): power_iterate's loop
    with one residual check per Ruelle step, and an explicit depth-D
    operator, lift and steps, whose Rayleigh quotients take numpy's
    pairwise sums (einsum's running sum of 2^14 products leaves a
    ~1e-14 floor under the residuals).  With leaps, the depth-k iterates
    take power_iterate's squares and strides, so the schedule is
    power_iterate's: a pair whose squares converged goes straight to one
    step at depth D, and if that does not converge, the iteration goes on
    from the squared pair at depth k.  Its stop rule is the residuals'
    alone, and its iterates are plain floats, which weights that underflow
    to 0 can drive to 0 / 0: that raises OracleBreakdown."""
    full = transfer_operator(f, depth)
    top = float(np.max(full.log_weights))
    full = full.gauged(growth=top)
    k = depth if f.table is None else min(max(f.table.depth - 1, 1), depth)
    small = op = full if k == depth else transfer_operator(f, k).gauged(growth=top)
    psi = np.ones(op.size)
    nu = np.full(op.size, 1.0 / op.size)
    iterations, converged, straight = 0, False, False
    if leaps and f.table is not None and op.size <= transfer._SQUARE_ENTRIES and max_iter > 2:
        psi, nu, iterations, dense = _squared(op, depth - k, tol, max_iter)
        squared, straight = (psi, nu, iterations), dense is not None
    tiny = np.finfo(float).tiny
    strided = strides = leaps and max_iter > 4 and op.d**3 * op.size <= transfer._STRIDE_ENTRIES
    stride = None
    while True:
        iterations += 1
        if op is not full and (converged or straight or iterations == max_iter):
            with np.errstate(invalid="ignore"):  # a lift whose weights all underflowed: NaN, a breakdown
                psi, nu, op = np.repeat(psi, full.size // op.size), level_lift(full, nu, op.depth), full
            strided = False
        l_psi = op.apply(psi)
        l_nu = op.dual_apply(nu)
        dot = (lambda a, b: (a * b).sum()) if op is full and k < depth else sum_of_products
        num, den = dot(nu, l_psi), dot(nu, psi)
        if not (tiny <= num < math.inf and den >= tiny):
            raise OracleBreakdown("the iterates left the float range")
        lam = num / den
        res_psi = float(abs(l_psi - lam * psi).max() / (lam * psi.max()))
        res_nu = float(abs(l_nu - lam * nu).sum() / (lam * nu.sum()))
        converged = max(res_psi, res_nu) < tol
        if straight and not converged:  # the squared pair steps on at depth k
            (psi, nu, iterations), op, straight, strided = squared, small, False, strides
            continue
        if (converged and op is full) or iterations == max_iter:
            break
        psi = l_psi / l_psi.max()
        nu = l_nu / l_nu.sum()
        if strided and not converged and iterations + 4 <= max_iter:
            stride = stride or op.power(3)
            psi, nu = stride.apply(psi), stride.dual_apply(nu)
            if not (psi.max() > 0.0 and nu.sum() > 0.0):
                raise OracleBreakdown("the stride's weights underflowed")
            psi, nu = psi / psi.max(), nu / nu.sum()
            iterations += 3
    return math.log(lam) + top, psi / sum_of_products(nu, psi), nu, converged, iterations


def assert_matches_the_stepwise_loop(f, depth, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    rpf = power_iterate(f, depth, tol=tol, max_iter=max_iter)
    log_lam, psi, nu, converged, _ = stepwise_power_iterate(f, depth, tol, max_iter)
    assert rpf.converged == converged
    assert rpf.iterations <= max_iter
    if not converged:
        return rpf
    assert max(rpf.residual_fn, rpf.residual_meas) < tol
    # the residuals are those of the returned depth-D vectors
    op = transfer_operator(f, depth)
    p, n = rpf.psi.values, rpf.nu.weights
    res_fn = np.max(np.abs(op.apply(p) - rpf.lam * p)) / (rpf.lam * np.max(p))
    res_meas = np.sum(np.abs(op.dual_apply(n) - rpf.lam * n)) / (rpf.lam * np.sum(n))
    assert rpf.residual_fn == pytest.approx(res_fn, rel=1e-6, abs=1e-15)
    assert rpf.residual_meas == pytest.approx(res_meas, rel=1e-6, abs=1e-15)
    assert abs(rpf.log_lam - log_lam) < 1e-13
    assert np.max(np.abs(p - psi)) < 100 * tol
    assert np.sum(np.abs(n - nu)) < 100 * tol
    return rpf


# d = 3 stops at depth 8: 3**13 words are too many for a unit test
STRIDE_CASES = [
    (d, m, value_scale, depth, tol, max_iter)
    for d in (2, 3)
    for m in (1, 2, 3, 4)
    for value_scale in (0.3, 1.0, 3.0)
    for depth in sorted({m, 8, 13} if d == 2 else {m, 8})
    for tol in (1e-10, 1e-12)
    for max_iter in (1, 2, 3, 5, DEFAULT_MAX_ITER)
]


def test_strided_loop_matches_the_stepwise_loop_on_tables():
    assert len(STRIDE_CASES) >= 300
    rng = np.random.default_rng(31)
    for d, m, value_scale, depth, tol, max_iter in STRIDE_CASES:
        f = Potential.from_table(d, m, rng.uniform(-value_scale, value_scale, d**m))
        assert_matches_the_stepwise_loop(f, depth, tol, max_iter)


@pytest.mark.parametrize("depth", range(1, 13))
def test_strided_loop_matches_the_stepwise_loop_on_ising_lr(depth):
    rpf = assert_matches_the_stepwise_loop(g_potential(IsingParams(alpha=3.0, cutoff=200)), depth)
    assert rpf.converged


@pytest.mark.parametrize("max_iter", range(1, 14))
def test_unconverged_runs_stop_at_max_iter(max_iter):
    # tol 1e-300 is never met: every run takes exactly max_iter Ruelle steps
    for f, depth in [(DEPTH_4_TABLE, 13), (DEPTH_4_TABLE, 3), (g_potential(IsingParams(alpha=3.0, cutoff=200)), 6)]:
        rpf = power_iterate(f, depth, tol=1e-300, max_iter=max_iter)
        assert not rpf.converged and rpf.iterations == max_iter


def test_no_stride_table_above_the_cap(monkeypatch):
    builds = []
    power = TransferOperator.power
    monkeypatch.setattr(TransferOperator, "power", lambda self, p: builds.append(self.size) or power(self, p))
    f = g_potential(IsingParams(alpha=3.0, cutoff=200))
    assert power_iterate(f, 12).converged
    assert builds == []
    # one level down, the L^3 table holds 2**14 entries and is built
    assert power_iterate(f, 11).converged
    assert builds == [2**11]


@pytest.mark.parametrize("d,m,squared", [(2, 6, True), (2, 7, False), (3, 4, True), (3, 5, False)])
def test_tables_square_up_to_32_words_and_step_above(monkeypatch, d, m, squared):
    # d**(m-1) words at the iteration depth: 32 and 27 are squared, 64 and 81 stepped with L^3
    squares, strides = [], []
    monkeypatch.setattr(transfer, "_squared", lambda op, *args: squares.append(op.size) or _squared(op, *args))
    power = TransferOperator.power
    monkeypatch.setattr(TransferOperator, "power", lambda self, p: strides.append(self.size) or power(self, p))
    f = Potential.from_table(d, m, np.random.default_rng([d, m]).uniform(-1.0, 1.0, d**m))
    rpf = assert_matches_the_stepwise_loop(f, m + 1)
    assert rpf.converged
    assert (squares, strides) == (([d ** (m - 1)], []) if squared else ([], [d ** (m - 1)]))


def plain_float_outcome(f, depth, max_iter):
    """(log lambda, psi, converged, iterations) of the plain-float loop, or
    None where it breaks down."""
    try:
        log_lam, psi, _, converged, iterations = stepwise_power_iterate(f, depth, max_iter=max_iter)
    except OracleBreakdown:
        return None
    return log_lam, psi, converged, iterations


# (d, m, runs whose plain-float pair converges where power_iterate's does not): on
# (2, 4), one table's Perron pair at both depths, its least entries unsettled after
# 500 steps; on (3, 2), one table's pair of a non-dominant eigenvalue at both depths
@pytest.mark.parametrize("d,m,refused", [(2, 2, 0), (2, 3, 0), (2, 4, 2), (3, 2, 2), (3, 3, 0)])
def test_wide_spreads_keep_the_plain_float_outcome(d, m, refused):
    # beta * osc of 745 and more: weights e^{f - max f} underflow to 0, and the
    # plain-float loop breaks down on a share of the tables.  power_iterate
    # raises nothing and warns of nothing (warnings are errors), and reaches
    # the plain loop's outcome: its lambda within 1e-14 where both converge,
    # and no convergence where the plain loop's does not.  Where the plain
    # loop breaks down, a converged pair has the lambda of the 50-digit
    # solve within 1e-14, and an unconverged one a finite lambda.  Every
    # converged pair's lambda lies in Karp's bracket.  The expected
    # difference: a plain-float pair that passed the residuals with its
    # Collatz-Wielandt bounds more than e^_ENCLOSURE apart is not converged,
    # and its lambda, where it lies in the bracket, is the plain loop's
    rng = np.random.default_rng([41, d, m])
    seen = collections.Counter()
    for spread in (745.0, 1000.0, 3000.0):
        for _ in range(4):
            values = rng.uniform(-1.0, 1.0, d**m)
            f = Potential.from_table(d, m, values * spread / (values.max() - values.min()))
            op = transfer_operator(f, max(m - 1, 1))  # lambda's depth-k operator
            low, high = bracket(op)
            for depth in (max(m - 1, 1), m + 1):
                rpf = power_iterate(f, depth, max_iter=500)
                plain = plain_float_outcome(f, depth, 500)
                assert math.isfinite(rpf.log_lam)
                if rpf.converged:
                    assert low <= rpf.log_lam <= high
                if plain is None:
                    if rpf.converged:
                        assert rpf.log_lam == pytest.approx(exact_log_spectral_radius(op), rel=1e-14)
                    seen["breakdown", rpf.converged] += 1
                elif plain[2] and not rpf.converged:
                    # the plain pair passed the residuals with its Collatz-Wielandt bounds
                    # far apart: a non-dominant eigenvalue's pair (its lambda outside the
                    # bracket), or one whose least entries have not settled
                    if low <= plain[0] <= high:
                        assert rpf.log_lam == pytest.approx(plain[0], rel=1e-14)
                    seen["refused"] += 1
                else:
                    assert rpf.converged == plain[2]
                    if rpf.converged:
                        assert rpf.log_lam == pytest.approx(plain[0], rel=1e-14)
                    seen["same", rpf.converged] += 1
    assert seen["refused"] == refused


def test_stepped_wide_tables_converge_into_karps_bracket():
    # d = 2, m = 7: 64 iteration words, above the squaring cap, at beta * osc
    # 2000-3000, where a 50-digit solve of the 64-word matrix takes seconds
    rng = np.random.default_rng(67)
    converged = 0
    for spread in (2000.0, 2500.0, 3000.0):
        for _ in range(3):
            values = rng.uniform(-1.0, 1.0, 128)
            f = Potential.from_table(2, 7, values * spread / np.ptp(values))
            rpf = power_iterate(f, 7, max_iter=300)
            low, high = bracket(transfer_operator(f, 6))
            assert math.isfinite(rpf.log_lam) and (low <= rpf.log_lam <= high or not rpf.converged)
            converged += rpf.converged
    assert converged >= 3


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-14])
def test_squares_are_the_power_iterates_and_stop_at_sqrt_tol(tol):
    op = transfer_operator(DEPTH_4_TABLE, 3)
    psi, nu, steps, (mat, deep) = _squared(op, 13 - 3, tol, DEFAULT_MAX_ITER)
    # the scaled powers one square at a time: every change but the last exceeds sqrt(tol)
    power = op.matrix() / op.matrix().max()
    changes = []
    for _ in range(int(math.log2(steps))):
        square = power @ power
        square /= square.max()
        changes.append(np.max(np.abs(square - power)))
        power = square
    assert 2 ** len(changes) == steps
    assert changes[-1] <= math.sqrt(tol) < min(changes[:-1])
    # the row and column sums are the iterates of `steps` Ruelle steps from the start
    p, n = np.ones(op.size), np.full(op.size, 1.0 / op.size)
    for _ in range(steps):
        p, n = op.apply(p), op.dual_apply(n)
        p, n = p / p.max(), n / n.sum()
    assert np.max(np.abs(psi - p)) < 1e-13 and np.sum(np.abs(nu - n)) < 1e-13
    # the converged squares' dense pair: the matrix and its power L^(13 - 3), scaled
    expected = np.linalg.matrix_power(op.matrix(), 13 - 3)
    assert np.array_equal(mat, op.matrix()) and close(deep, expected / expected.max())


def close(got, expected):
    """Equal within abs 1e-15 or rel 1e-12, entry by entry."""
    return bool(np.all(np.abs(np.subtract(got, expected)) <= np.maximum(1e-15, 1e-12 * np.abs(expected))))


def explicit_step(f, depth, p, n):
    """(lambda, c, psi's residual, nu's residual) of one explicit step of
    the depth-D pair (p, n) under e^{-c} L_f, c the table's maximum: the
    Rayleigh quotient with correctly rounded sums, and the residuals at it."""
    op = transfer_operator(f, depth)
    top = float(op.log_weights.max())
    op = op.gauged(growth=top)
    l_p, l_n = op.apply(p), op.dual_apply(n)
    lam = math.fsum(n * l_p) / math.fsum(n * p)
    return lam, top, np.max(np.abs(l_p - lam * p)) / (lam * p.max()), np.sum(np.abs(l_n - lam * n)) / (lam * n.sum())


TOLS = (1e-3, 1e-8, 1e-12, 1e-14)
SPREADS = (0.6, 20.0, 1000.0, 3000.0)


def lift_depths(d, m):
    """D from the iteration depth k to past 2k, and on to 14 (8 on three symbols)."""
    return sorted({max(m - 1, 1), m, m + 1, 2 * m + 1, 14 if d == 2 else 8})


# (d, m, D, tol, max_iter, beta * osc): max_iter 1, 2 and 3 at every spread and
# depth, the default at the shallowest and deepest D; tol 1e-3 to 1e-14 in turn
LIFT_CASES = [
    (d, m, depth, TOLS[(i + j) % 4], max_iter, spread)
    for d in (2, 3)
    for m in (1, 2, 3, 4)
    for i, depth in enumerate(lift_depths(d, m))
    for max_iter in (1, 2, 3)
    for j, spread in enumerate(SPREADS)
] + [
    (d, m, depth, TOLS[(i + m) % 4], DEFAULT_MAX_ITER, SPREADS[(i + m + d) % 4])
    for d in (2, 3)
    for m in (1, 2, 3, 4)
    for i, depth in enumerate(lift_depths(d, m)[:: len(lift_depths(d, m)) - 1])
]


def test_depth_k_checks_equal_an_explicit_depth_d_step():
    # every case ends as the explicit schedule ends: the same iterations and
    # convergence with lambda, psi and nu equal; and one explicit depth-D step
    # of the returned vectors gives the reported numbers.  An unconverged pair
    # at beta * osc past ~745 (weights below the float range) is left out of
    # the last two: its psi and nu span more decades than a float, and one
    # rounding of nu's entries moves its Rayleigh quotient by up to 1e-10
    # relative, so there the explicit step is off by more than the tolerance.
    # Its explicit residuals must still fail tol.  Where the explicit plain
    # floats break down, power_iterate raises nothing, and a converged pair
    # has the 50-digit lambda (that of depth k, where lambda is the same).
    # Two differences are expected, and counted: the explicit schedule
    # converges on a pair whose Collatz-Wielandt bounds lie more than
    # e^_ENCLOSURE apart, where power_iterate goes on; and an unconverged
    # Rayleigh quotient outside the run's Collatz-Wielandt enclosure is
    # reported at the enclosure's nearer end, nearer the exact lambda
    assert len(LIFT_CASES) >= 400
    rng = np.random.default_rng(53)
    seen = collections.Counter()
    for case in LIFT_CASES:
        d, m, depth, tol, max_iter, spread = case
        values = rng.uniform(-1.0, 1.0, d**m)
        f = Potential.from_table(d, m, values * spread / max(np.ptp(values), 1e-300))
        rpf = power_iterate(f, depth, tol, max_iter)
        try:
            log_lam, psi, nu, converged, iterations = stepwise_power_iterate(f, depth, tol, max_iter, leaps=True)
        except OracleBreakdown:
            assert math.isfinite(rpf.log_lam), case
            if rpf.converged:
                op = transfer_operator(f, max(m - 1, 1))
                assert rpf.log_lam == pytest.approx(exact_log_spectral_radius(op), rel=1e-13), case
            seen["breakdown"] += 1
            continue
        if converged and not (rpf.converged and rpf.iterations == iterations):
            # refused by the enclosure: converged later on the same lambda, or not at all
            if rpf.converged:
                assert rpf.iterations > iterations and abs(rpf.log_lam - log_lam) <= 1e-12, case
            else:
                assert rpf.iterations == max_iter, case
            seen["refused", bool(rpf.converged)] += 1
            continue
        assert (rpf.iterations, rpf.converged) == (iterations, converged), case
        # psi's values, some of which may round to 0, where RPFData.psi refuses them
        p, n = np.exp(rpf.log_psi), rpf.nu.weights
        lam, top, res_fn, res_meas = explicit_step(f, depth, p, n)
        if not converged and spread > 745.0:
            assert max(res_fn, res_meas) >= tol, case
            seen["unconverged, wide"] += 1
            continue
        if abs(rpf.log_lam - log_lam) > 1e-12:
            assert not converged, case
            exact = exact_log_spectral_radius(transfer_operator(f, max(m - 1, 1)))
            assert abs(rpf.log_lam - exact) < abs(log_lam - exact), case
            seen["clipped"] += 1
        else:
            # log lambda within abs 1e-12: lambda within rel 1e-12
            assert abs(math.log(lam) + top - rpf.log_lam) <= 1e-12, case
        assert close(p, psi) and close(n, nu), case
        assert close(res_fn, rpf.residual_fn) and close(res_meas, rpf.residual_meas), case
        seen["converged" if converged else "unconverged"] += 1
    assert seen == {
        "converged": 90, "unconverged": 193, "unconverged, wide": 102, "breakdown": 54,
        ("refused", True): 4, ("refused", False): 29, "clipped": 1,
    }, seen


# (d, m, D, tol): every table that squares (at most 32 words at its iteration
# depth k), at every D from k to 14 (8 on three symbols)
DENSE_CASES = [
    (d, m, depth, tol)
    for d, top_m, deepest in ((2, 6, 14), (3, 4, 8))
    for m in range(1, top_m + 1)
    for depth in range(max(m - 1, 1), deepest + 1)
    for tol in (1e-8, 1e-12)
]


def test_converged_squares_finish_on_the_dense_matrix(monkeypatch):
    # a pair whose squares converged is checked once, at depth D, on the dense
    # matrix and its power L^(D - k), and returned with no Iterate: lambda is the
    # dense eigensolve's, and the residuals are those of one explicit depth-D
    # step of the returned vectors
    iterates, finished = [], 0
    monkeypatch.setattr(transfer, "Iterate", lambda *args, **kwargs: iterates.append(args) or Iterate(*args, **kwargs))
    rng = np.random.default_rng(71)
    for case in DENSE_CASES:
        d, m, depth, tol = case
        f = Potential.from_table(d, m, rng.uniform(-1.0, 1.0, d**m))
        iterates.clear()
        rpf = power_iterate(f, depth, tol)
        assert rpf.converged and max(rpf.residual_fn, rpf.residual_meas) < tol, case
        assert rpf.log_lam == pytest.approx(math.log(dense_spectral_radius(f, max(m - 1, 1))), abs=1e-13), case
        _, _, res_fn, res_meas = explicit_step(f, depth, rpf.psi.values, rpf.nu.weights)
        assert close(res_fn, rpf.residual_fn) and close(res_meas, rpf.residual_meas), case
        # psi is normalised against nu_D, through nu_D's first-k marginal
        assert integrate(rpf.nu, rpf.psi) == pytest.approx(1.0, abs=1e-12), case
        if not iterates:
            steps = rpf.iterations - 1  # the squares' 2^j steps, and the check
            assert steps & (steps - 1) == 0, case
            finished += 1
    assert len(DENSE_CASES) == 206 and finished == 206


def test_a_dense_power_that_underflows_leaves_the_squared_pair_to_iterate(monkeypatch):
    # beta * osc 700: M = [[1, e^-700], [e^-690, e^-350]] (k = 1) squares once to
    # sqrt(tol), and at D = 11 its power M^10 loses an entry to underflow, its
    # square M^8 holding e^-1390: the squared pair steps on as an Iterate, as it
    # does where no dense check is made
    f = Potential.from_table(2, 2, [0.0, -690.0, -700.0, -350.0])
    op = transfer_operator(f, 1)
    assert _squared(op, 1, DEFAULT_TOL, DEFAULT_MAX_ITER)[2] == 2 and _squared(op, 1, DEFAULT_TOL, DEFAULT_MAX_ITER)[3]
    assert _squared(op, 10, DEFAULT_TOL, DEFAULT_MAX_ITER)[2:] == (2, None)
    rpf = power_iterate(f, 11)
    assert rpf.converged and rpf.iterations == 2 + 2  # a depth-k check, then one at depth D
    assert rpf.log_lam == pytest.approx(math.log(dense_spectral_radius(f, 1)), abs=1e-15)
    squared = transfer._squared
    monkeypatch.setattr(transfer, "_squared", lambda *args: squared(*args)[:3] + (None,))
    iterated = power_iterate(f, 11)
    assert rpf == iterated and np.array_equal(rpf.log_psi, iterated.log_psi)
    assert np.array_equal(rpf.nu.weights, iterated.nu.weights)


@pytest.mark.parametrize("f,depth", [(DEPTH_4_TABLE, 13), (MARKOV, 9), (Potential.from_table(3, 3, np.linspace(-2.0, 1.0, 27)), 6)])
def test_nu_is_the_level_lift_through_the_depth_d_weights(f, depth):
    rpf = power_iterate(f, depth)
    full = transfer_operator(f, depth)
    full = full.gauged(growth=float(full.log_weights.max()))
    k = f.table.depth - 1
    nu = np.exp(rpf._log_nu - rpf._log_nu.max())
    assert close(rpf.nu.weights, level_lift(full, nu / nu.sum(), k))
    assert np.array_equal(rpf.psi.values, np.repeat(np.exp(rpf._log_psi), f.d ** (depth - k)))
    assert np.array_equal(rpf.log_psi, np.repeat(rpf._log_psi, f.d ** (depth - k)))
    assert rpf.nu is rpf.nu and rpf.psi is rpf.psi  # built once, on first read


def test_rpf_data_keeps_its_depth_k_fields_out_of_repr_and_eq():
    rpf = power_iterate(DEPTH_4_TABLE, 13)
    assert "_log_psi" not in repr(rpf) and "_log_nu" not in repr(rpf) and "_log_weights" not in repr(rpf)
    assert rpf == power_iterate(DEPTH_4_TABLE, 13)
    assert rpf == dataclasses.replace(rpf, _log_psi=2.0 * rpf._log_psi, _log_nu=rpf._log_nu[::-1], _log_weights=None)
    assert rpf != dataclasses.replace(rpf, iterations=rpf.iterations + 1)
    assert [field.name for field in dataclasses.fields(rpf) if field.repr] == [
        "d", "depth", "lam", "log_lam", "residual_fn", "residual_meas", "iterations", "converged",
    ]
