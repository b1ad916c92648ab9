"""Acceptance gate: one test per advertised numerical contract.

Each test prints a single PASS/FAIL line with the measured figure next
to its tolerance (run with -s to see them on success), and asserts at
exactly the advertised tolerance.  Corpora are sampled from fixed seeds
so the whole gate is reproducible.
"""

import functools
import math

import mpmath
import numpy as np

from pointwise import birkhoff
from ruellekit import dlr, interactions, ising, potentials, transfer
from ruellekit.shift import CylinderFunction, Point, prepend


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _random_point(rng, d, max_prefix=4, max_cycle=3):
    prefix = tuple(int(s) for s in rng.integers(0, d, size=int(rng.integers(0, max_prefix + 1))))
    cycle = tuple(int(s) for s in rng.integers(0, d, size=int(rng.integers(1, max_cycle + 1))))
    return Point(prefix, cycle)


def _random_table(rng, d, depth, scale=1.0):
    return potentials.Potential.from_table(
        d, depth, rng.uniform(-scale, scale, size=d**depth), label="sampled"
    )


@functools.lru_cache(maxsize=1)
def _eigen_corpus():
    """25 random depth-2 potentials on two symbols plus 10 on three."""
    rng = np.random.default_rng(5)
    corpus = []
    for d, count in ((2, 25), (3, 10)):
        for _ in range(count):
            f = _random_table(rng, d, 2)
            corpus.append((f, transfer.power_iterate(f, 2, tol=1e-13)))
    return corpus


def test_criterion_01_eigenvalue_matches_dense_solve():
    worst_rel, worst_res = 0.0, 0.0
    for f, rpf in _eigen_corpus():
        d = f.d
        dense = np.empty((d, d))
        for i in range(d):
            for j in range(d):
                dense[j, i] = math.exp(f.table.value_at(Point((i, j), (0,))))
        lam = max(abs(np.linalg.eigvals(dense)))
        worst_rel = max(worst_rel, abs(rpf.lam - lam) / lam)
        worst_res = max(worst_res, rpf.residual_fn, rpf.residual_meas)
    ok = worst_rel < 1e-10 and worst_res < 1e-10
    _report(1, ok, f"35 potentials: worst rel dev {worst_rel:.2e}, "
                   f"worst residual {worst_res:.2e} (tol 1e-10)")


def test_criterion_02_normalized_potential_fixes_one():
    worst = 0.0
    for f, rpf in _eigen_corpus():
        fbar = transfer.normalize(f, rpf)
        worst = max(worst, transfer.check_normalized(fbar))
    ok = worst < 1e-10
    _report(2, ok, f"sup |L1 - 1| at fbar's own depth over 35 potentials: {worst:.2e} (tol 1e-10)")


def test_criterion_03_finite_volume_consistency():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        f = _random_table(rng, 2, 2)
        n = int(rng.integers(1, 5))
        r = int(rng.integers(1, 5))
        q = int(rng.integers(1, n + r + 1))
        g = CylinderFunction(2, q, rng.uniform(-1.0, 1.0, size=2**q))
        z = _random_point(rng, 2)
        worst = max(worst, dlr.finite_volume_dlr_check(n, r, [(f, z, g)])[0])
    ok = worst < 1e-12
    _report(3, ok, f"50 tower instances: worst residual {worst:.2e} (tol 1e-12)")


def test_criterion_04_kernels_converge_to_eigenprobability():
    rng = np.random.default_rng(4)
    cylinders = [
        tuple((i >> (q - 1 - k)) & 1 for k in range(q)) for q in (1, 2, 3) for i in range(2**q)
    ]
    worst12, mono = 0.0, True
    for _ in range(3):
        f = _random_table(rng, 2, 2, scale=0.5)
        fbar = transfer.normalize(f, transfer.power_iterate(f, 2, tol=1e-13))
        boundaries = [_random_point(rng, 2, max_prefix=3) for _ in range(8)]
        table = dlr.tl_sequence(fbar, cylinders, boundaries, 12, tol=1e-13)
        worst = dict(zip(table.volumes.tolist(), table.worst.tolist()))
        worst12 = max(worst12, worst[12])
        mono = mono and all(worst[n + 1] <= worst[n] for n in range(4, 12))
    ok = worst12 < 1e-6 and mono
    _report(4, ok, f"worst |K_12 - nu| {worst12:.2e} (tol 1e-6), "
                   f"nonincreasing from n=4: {mono}")


def test_criterion_05_interaction_rebuilds_potential():
    rng = np.random.default_rng(7)
    worst_rec, worst_ham = 0.0, 0.0
    for m in (1, 2, 3, 4):
        f = _random_table(rng, 2, m)
        y = _random_point(rng, 2, max_prefix=2, max_cycle=1)
        phi = interactions.from_potential(f, y, k_max=8, n_max=max(m, 1))
        fy = f.table.value_at(y)
        for _ in range(20):
            x = _random_point(rng, 2)
            rec = interactions.reconstruct_at_site1(phi, x)
            worst_rec = max(worst_rec, abs(rec - (f.table.value_at(x) - fy)))
            for n in range(1, 9):
                ham = interactions.hamiltonian_from_interaction(phi, n, x)
                target = birkhoff(f, x, n)[0] - n * fy
                worst_ham = max(worst_ham, abs(ham - target))
    ok = worst_rec < 1e-14 and worst_ham < 1e-14
    _report(5, ok, f"depths 1-4, 20 points each: reconstruction {worst_rec:.2e}, "
                   f"hamiltonian {worst_ham:.2e} (tol 1e-14)")


def test_criterion_06_interaction_norms():
    nn = interactions.interaction_norm(interactions.ising_nn())
    ok = nn.value == 1.0 and nn.remainder == 0.0
    detail = [f"nn norm {nn.value}"]
    for alpha in (1.5, 2.0, 3.0):
        norm = interactions.interaction_norm(interactions.ising_lr(alpha))
        zeta_true = float(mpmath.zeta(alpha))
        bracketed = norm.value <= zeta_true <= norm.upper
        ok = ok and bracketed and norm.upper <= 2.0 * zeta_true
        detail.append(f"lr({alpha}) in [{norm.value:.6f}, {norm.upper:.6f}] "
                      f"vs zeta {zeta_true:.6f}")
    _report(6, ok, "; ".join(detail))


def test_criterion_07_uniqueness_certificate():
    pots = [
        _random_table(np.random.default_rng(seed), 2, m)
        for m, seed in ((2, 11), (3, 12), (4, 13))
    ]
    worst_stab = max(
        abs(dlr.D_estimate(f, 8)[0][-1] - dlr.D_estimate(f, 16)[0][-1]) for f in pots
    )
    rng = np.random.default_rng(21)
    tails = dlr.default_tails(2)
    min_margin, holds_all = np.inf, True
    for i in range(20):
        f = pots[i % 3]
        D = dlr.D_estimate(f, 8)[0][-1]
        n = int(rng.integers(1, 9))
        C = tuple(int(s) for s in rng.integers(0, 2, size=int(rng.integers(1, min(n, 4) + 1))))
        y = prepend(tails[int(rng.integers(0, 3))], tuple(int(s) for s in rng.integers(0, 2, size=n)))
        z = prepend(tails[int(rng.integers(0, 3))], tuple(int(s) for s in rng.integers(0, 2, size=n)))
        holds, margin, _ = dlr.sandwich_check(f, [(n, C, y, z)], D)[0]
        holds_all = holds_all and holds
        min_margin = min(min_margin, margin)
    ok = worst_stab < 1e-12 and holds_all and min_margin >= 1.0
    _report(7, ok, f"stabilisation {worst_stab:.2e} (tol 1e-12), "
                   f"20 sandwiches hold with min margin {min_margin:.3f}")


def test_criterion_08_ising_walters_scaling():
    ps = np.array([8.0, 16.0, 32.0, 64.0, 128.0])
    ok, detail = True, []
    for alpha in (2.5, 3.0):
        params = ising.IsingParams(alpha=alpha)
        vals = np.array([ising.ising_walters_estimate(params, int(p)).value for p in ps])
        slope = np.polyfit(np.log(ps), np.log(vals), 1)[0]
        ok = ok and abs(slope + (alpha - 2.0)) < 0.15
        detail.append(f"alpha={alpha}: slope {slope:.4f} vs {-(alpha - 2.0)}")
    flat = ising.ising_walters_estimate(ising.IsingParams(alpha=2.0), 8)
    ok = ok and not flat.decaying
    detail.append(f"alpha=2 flagged non-decaying: {not flat.decaying}")
    _report(8, ok, "; ".join(detail))


def test_criterion_09_ising_coboundary_certificate():
    rng = np.random.default_rng(42)
    base = ising.IsingParams(alpha=3.0, cutoff=200)
    doubled = ising.IsingParams(alpha=3.0, cutoff=400)
    within, worst_bound, min_ratio = True, 0.0, np.inf
    for _ in range(20):
        k = int(rng.integers(0, 7))
        flips = {
            int(p) if s else -int(p)
            for p, s in zip(rng.integers(1, 13, size=k), rng.integers(0, 2, size=k))
        }
        x = ising.TwoSidedPoint(
            Point(tuple(0 if -i in flips else 1 for i in range(1, 13)), (1,)),
            Point(tuple(0 if i in flips else 1 for i in range(13)), (1,)),
        )
        res, bound = ising.coboundary_checks(base, [x], 100)[0]
        res2, bound2 = ising.coboundary_checks(doubled, [x], 200)[0]
        within = within and res <= bound and res2 <= bound2
        worst_bound = max(worst_bound, bound)
        min_ratio = min(min_ratio, bound / bound2)
    ok = within and worst_bound < 1e-3 and min_ratio >= 4.0
    _report(9, ok, f"20 points: residual within bound {within}, worst bound "
                   f"{worst_bound:.2e} (tol 1e-3), doubling shrink x{min_ratio:.3f} (>= 4)")


def test_criterion_10_change_of_measure():
    rng = np.random.default_rng(10)
    checks = [dlr.change_of_measure_check(_random_table(rng, 2, 2), 3, tol=1e-13) for _ in range(10)]
    worst = max(deviation for deviation, _ in checks)
    ok = worst < 1e-9 and all(converged for _, converged in checks)
    _report(10, ok, f"10 potentials, depth-3 basis: worst deviation {worst:.2e} (tol 1e-9)")


def test_criterion_11_eigenprobability_solves_dlr():
    rng = np.random.default_rng(11)
    tails = dlr.default_tails(2)
    worst = 0.0
    for _ in range(5):
        f = _random_table(rng, 2, 2)
        fbar = transfer.normalize(f, transfer.power_iterate(f, 2, tol=1e-13))
        nu = transfer.power_iterate(fbar, 7, tol=1e-14).nu
        for n in range(1, 5):
            g = CylinderFunction(2, 3, rng.uniform(-1.0, 1.0, size=8))
            tail = tails[int(rng.integers(0, 3))]
            res, quad = dlr.dlr_residual(fbar, nu, n, g, tail)
            worst = max(worst, res + quad)
    ok = worst < 1e-9
    _report(11, ok, f"5 normalized potentials, n <= 4: worst residual {worst:.2e} (tol 1e-9)")


def test_criterion_12_kernels_ignore_constant_shifts():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(20):
        f = _random_table(rng, 2, 2)
        n = int(rng.integers(1, 7))
        q = int(rng.integers(1, n + 3))
        g = CylinderFunction(2, q, rng.uniform(-1.0, 1.0, size=2**q))
        y = _random_point(rng, 2)
        a_n = float(rng.uniform(-50.0, 50.0))
        worst = max(worst, dlr.constant_shift_check(f, n, y, g, a_n))
    ok = worst < 1e-12
    _report(12, ok, f"20 instances, shifts up to |50|: worst residual {worst:.2e} (tol 1e-12)")
