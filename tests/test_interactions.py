import math

import numpy as np
import pytest

from pointwise import birkhoff, from_point_function, value
from ruellekit.interactions import (
    Interaction,
    InteractionTerm,
    PairSupport,
    Progression,
    from_potential,
    hamiltonian_from_interaction,
    interaction_norm,
    ising_lr,
    ising_nn,
    reconstruct_at_site1,
)
from ruellekit.ising import zeta
from ruellekit.potentials import Hoelder, Potential
from ruellekit.shift import CylinderFunction, Point


def random_points(seed, d, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield Point(tuple(rng.integers(0, d, int(rng.integers(0, 5)))),
                    tuple(rng.integers(0, d, int(rng.integers(1, 3)))))


def long_points(seed, count):
    """Points with aperiodic prefixes of 40-180 sites, so the pairs of H_n read varied spins."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield Point(tuple(rng.integers(0, 2, int(rng.integers(40, 180)))),
                    tuple(rng.integers(0, 2, int(rng.integers(1, 4)))))


def translated_copies(phi, copies=32):
    """The per-anchor layout: the anchor row's pairs translated to leading
    sites 1..copies, each copy sharing the row's table."""
    terms = tuple(
        InteractionTerm(PairSupport(t.support.i + s, t.support.j + s), t.table)
        for s in range(copies)
        for t in phi.terms
    )
    return Interaction(d=phi.d, terms=terms, anchor_range=copies)


def brute_pair_sum(alpha, labels, pair_range, n, x):
    """H_n(x) summed pair by pair from the definition of the chain."""
    s = x.coords(n + pair_range)
    if labels == "spin":
        pair = [[(2 * a - 1) * (2 * b - 1) for b in (0, 1)] for a in (0, 1)]
    else:
        pair = [[a * b - 1 for b in (0, 1)] for a in (0, 1)]
    return math.fsum(
        pair[s[i]][s[i + r]] / float(r) ** alpha for i in range(n) for r in range(1, pair_range + 1)
    )


def test_progression_sites():
    assert Progression(2, 1).sites() == (2, 3, 4, 5)
    assert Progression(1, 0).sites() == (1, 2)
    assert Progression(3, 0).min_site == 3
    assert PairSupport(2, 5).sites() == (2, 5)
    with pytest.raises(ValueError):
        PairSupport(5, 2)


@pytest.mark.parametrize("depth,seed", [(2, 0), (3, 1), (4, 2)])
def test_reconstruction_is_exact(depth, seed):
    rng = np.random.default_rng(seed)
    f = Potential.from_table(2, depth, rng.uniform(-1.0, 1.0, 2**depth))
    y = Point.from_literal("|0")
    phi = from_potential(f, y, k_max=depth + 2, n_max=depth + 2)
    fy = value(f, y)[0]
    for x in random_points(seed + 10, 2, 10):
        lhs = reconstruct_at_site1(phi, x)
        rhs = value(f, x)[0] - fy
        assert abs(lhs - rhs) < 1e-14


def test_hamiltonian_identity():
    rng = np.random.default_rng(3)
    f = Potential.from_table(2, 3, rng.uniform(-1.0, 1.0, 8))
    y = Point.from_literal("|0")
    phi = from_potential(f, y, k_max=12, n_max=6)
    fy = value(f, y)[0]
    for x in random_points(17, 2, 10):
        for n in (1, 2, 5, 8):
            H = hamiltonian_from_interaction(phi, n, x)
            S = birkhoff(f, x, n)[0]
            assert H == pytest.approx(S - n * fy, abs=1e-12)
    with pytest.raises(ValueError):
        hamiltonian_from_interaction(phi, 0, y)
    with pytest.raises(ValueError):
        hamiltonian_from_interaction(phi, 13, y)


def test_locally_constant_terms_vanish_beyond_depth():
    rng = np.random.default_rng(4)
    f = Potential.from_table(2, 3, rng.uniform(-1.0, 1.0, 8))
    phi = from_potential(f, Point.constant(0), k_max=8, n_max=8)
    for term in phi.terms:
        k = term.support.min_site
        n = term.support.size - k - 1
        if n >= 1:
            assert k + n < 3
    assert phi.norm_remainder == 0.0


def test_hoelder_terms_decay_geometrically():
    gamma, K = 0.5, 2.0

    def fn(x):
        return math.fsum(x.coord(i) * 2.0 ** (-gamma * i) for i in range(1, 60)) * K * (1 - 2**-gamma), 1e-13

    f = from_point_function(2, fn, Hoelder(gamma=gamma, constant=K))
    phi = from_potential(f, Point.constant(0), k_max=6, n_max=6)
    assert 0 < phi.norm_remainder < math.inf
    for term in phi.terms:
        k = term.support.min_site
        n = term.support.size - k - 1
        cap = K * 2.0 ** (-gamma * (k + n)) if n >= 1 else K
        assert term.sup_bound <= cap + 1e-9


@pytest.mark.parametrize("d,depth,y", [(2, 3, "|0"), (2, 4, "01|10"), (3, 2, "2|01")])
def test_from_potential_of_callable_twin_matches_table(d, depth, y):
    rng = np.random.default_rng([d, depth])
    f = Potential.from_table(d, depth, rng.uniform(-1.0, 1.0, d**depth))
    h = Potential.from_callable(d, f.batch, Hoelder(gamma=1.0, constant=2.0))
    y = Point.from_literal(y)
    phi_f = from_potential(f, y, k_max=depth + 2, n_max=depth + 1)
    phi_h = from_potential(h, y, k_max=depth + 2, n_max=depth + 1)
    assert [t.support for t in phi_h.terms] == [t.support for t in phi_f.terms]
    for a, b in zip(phi_f.terms, phi_h.terms):
        # the callable's tables read the whole block, the table's only its depth
        assert np.array_equal(np.repeat(a.table.values, d ** (b.table.depth - a.table.depth)), b.table.values)
        assert a.sup_bound == b.sup_bound


def test_from_potential_evaluates_f_once_per_word():
    calls = []

    def fn(x):
        calls.append(x)
        return math.fsum(x.coord(i) * 2.0 ** (-0.5 * i) for i in range(1, 20)), 1e-13

    f = from_point_function(2, fn, Hoelder(gamma=0.5, constant=4.0))
    phi = from_potential(f, Point.from_literal("1|0"), k_max=3, n_max=3)
    assert len(phi.terms) == 3 * 4  # no term vanishes, so each tabulation is stored
    # one evaluation per word of each term, plus f(y)
    assert len(calls) == 1 + sum(2**t.table.depth for t in phi.terms)


def test_constant_potential_has_zero_hamiltonian():
    # every telescoped term vanishes, yet the volumes 1..k_max stay covered
    phi = from_potential(Potential.constant(2, 0.5), Point.from_literal("1|0"), 8, 8)
    assert phi.terms == ()
    for x in random_points(41, 2, 5):
        for n in range(1, 9):
            assert hamiltonian_from_interaction(phi, n, x) == 0.0
    with pytest.raises(ValueError, match="anchor range 8"):
        hamiltonian_from_interaction(phi, 9, Point.constant(0))


@pytest.mark.parametrize(
    "phi",
    [ising_nn(), ising_lr(2.5), ising_lr(1.5, labels="spin")],
    ids=["nn", "lr-occupation", "lr-spin"],
)
def test_anchor_row_hamiltonian_equals_translated_copies(phi):
    oracle = translated_copies(phi)
    assert phi.anchors() == [1]
    for x in long_points(42, 4):
        for n in (1, 2, 3, 9, 20, 31, 32):
            assert hamiltonian_from_interaction(phi, n, x) == hamiltonian_from_interaction(oracle, n, x)
    with pytest.raises(ValueError, match="anchor range 32"):
        hamiltonian_from_interaction(oracle, 33, Point.constant(0))


@pytest.mark.parametrize("labels", ["occupation", "spin"])
def test_anchor_row_hamiltonian_beyond_the_old_copies(labels):
    phi = ising_lr(2.5, labels=labels, pair_range=16)
    nn = ising_nn()
    for x in long_points(43, 3):
        for n in (40, 100):
            assert hamiltonian_from_interaction(phi, n, x) == brute_pair_sum(2.5, labels, 16, n, x)
            assert hamiltonian_from_interaction(nn, n, x) == brute_pair_sum(0.0, "occupation", 1, n, x)


@pytest.mark.parametrize("alpha", [1.0, 0.5, math.nan, math.inf, -math.inf])
def test_lr_refuses_alpha_without_a_summable_tail(alpha):
    # NaN fails every comparison, so `alpha <= 1` alone let it through
    with pytest.raises(ValueError, match="alpha must be a finite number > 1"):
        ising_lr(alpha)


@pytest.mark.parametrize("pair_range", [1, 64, 4096])
def test_lr_stores_one_row(pair_range):
    phi = ising_lr(2.0, pair_range=pair_range)
    assert len(phi.terms) == pair_range
    assert [t.support for t in phi.terms] == [PairSupport(1, 1 + r) for r in range(1, pair_range + 1)]
    assert all(t.sup_bound == t.table.sup_norm() for t in phi.terms)


def test_interaction_refuses_terms_beyond_its_anchors():
    table = CylinderFunction(2, 2, [-1.0, -1.0, -1.0, 0.0])
    off_row = InteractionTerm(PairSupport(2, 3), table)
    with pytest.raises(ValueError, match="leading sites in 1..1"):
        Interaction(d=2, terms=(InteractionTerm(PairSupport(1, 2), table), off_row), anchor_range=None)
    with pytest.raises(ValueError, match="leading sites in 1..1"):
        Interaction(d=2, terms=(off_row,), anchor_range=1)
    assert Interaction(d=2, terms=(off_row,), anchor_range=2).anchors() == [2]


def test_nn_norm_is_exactly_one():
    norm = interaction_norm(ising_nn())
    assert norm.value == 1.0
    assert norm.remainder == 0.0
    assert norm.upper == 1.0


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_lr_norm_within_zeta_bracket(alpha):
    phi = ising_lr(alpha, pair_range=4096)
    norm = interaction_norm(phi)
    zv, ze = zeta(alpha)
    assert norm.value <= norm.upper
    assert norm.upper <= 2 * (zv + ze) + 1e-12
    # the certified bracket actually contains 2*zeta... only the sup over
    # configurations of the summed |pair| couplings, which is zeta itself
    assert norm.value <= zv + ze + 1e-12
    assert norm.upper >= zv - ze - 1e-12


def test_lr_term_values_occupation_convention():
    phi = ising_lr(2.0)
    # the pair {1,3} at distance 2 contributes (x1*x3 - 1)/4 on occupations
    term = next(t for t in phi.terms if t.support == PairSupport(1, 3))
    assert term.value_at(Point.from_literal("000|0")) == pytest.approx(-0.25)
    assert term.value_at(Point.from_literal("101|0")) == pytest.approx(0.0)


def test_lr_spin_convention_differs_by_sign_structure():
    phi = ising_lr(3.0, labels="spin")
    term = next(t for t in phi.terms if t.support == PairSupport(1, 2))
    # spins 2s-1: aligned pairs couple +1, anti-aligned -1
    assert term.value_at(Point.from_literal("11|0")) == pytest.approx(1.0)
    assert term.value_at(Point.from_literal("10|0")) == pytest.approx(-1.0)


def test_lr_guards():
    with pytest.raises(ValueError):
        ising_lr(1.0)
    with pytest.raises(ValueError):
        ising_lr(3.0, labels="bogus")
