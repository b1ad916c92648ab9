"""Many-body interactions on the lattice of coordinates 1, 2, 3, ...

An interaction assigns to finitely many supports A a local term Phi_A that
depends only on the coordinates in A; absent supports are identically
zero.  Two support shapes cover everything built here:

* Progression(k, n): the contiguous block {k, ..., 2k+n} of k+n+1 sites.
  These arise from telescoping a potential along its first coordinate.
* PairSupport(i, j): two-body terms, as in the spin-chain families.

from_potential reproduces a potential from its telescoped differences:
with a fixed base configuration y,

    Phi_{A(k,n)}(x) = f(x_k..x_{2k+n}, y_{2k+n+1}, ...)
                      - f(x_k..x_{2k+n-1}, y_{2k+n}, ...)        (n >= 1)
    Phi_{A(k,0)}(x) = f(x_k..x_{2k}, y_{2k+1}, ...) - f(y)

so that summing the supports containing site 1 rebuilds f(x) - f(y), and
the Hamiltonian of the volume {1..n} (all stored supports meeting it)
telescopes to  S_n f(x) - n f(y).
Each term costs one tabulation of f (potentials.tabulate) on its block
words followed by the tail of y; the (k, n + 1) term reuses the (k, n)
tabulation as its second argument.  The result covers the leading sites
1..k_max, its anchor range, and refuses Hamiltonians of larger volumes.

The spin-chain families ising_nn and ising_lr are translation invariant,
Phi_{A+s} = Phi_A o sigma^s, so they store only their anchor row, the
supports with leading site 1, and have no anchor range: the term of A + s
at x is the row's term of A at sigma^s x, and the Hamiltonian of any
volume {1..n} sums the row at x, sigma x, ..., sigma^{n-1} x.

The reported norm groups supports by their *leading* site:
value = sup_s sum over stored A with min A = s of sup|Phi_A|.  Every
per-volume bound stated for the sup-over-memberships version holds for
this grouping too (each A with A meeting {1..n} has its leading site in
{1..n}), and it is the arithmetic under which the first-neighbour chain
has norm exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potentials import (
    Hoelder,
    LocallyConstant,
    Potential,
    tabulate,
    var_upper,
)
from .shift import CylinderFunction, Point, shift_n, word_index


# ---------------------------------------------------------------------------
# Supports and terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class Progression:
    """The contiguous block {k, ..., 2k+n}; k >= 1, n >= 0."""

    k: int
    n: int

    def __post_init__(self):
        if self.k < 1 or self.n < 0:
            raise ValueError("need k >= 1 and n >= 0")

    @property
    def min_site(self) -> int:
        return self.k

    @property
    def size(self) -> int:
        return self.k + self.n + 1

    def sites(self) -> tuple[int, ...]:
        return tuple(range(self.k, 2 * self.k + self.n + 1))


@dataclass(frozen=True, order=True)
class PairSupport:
    i: int
    j: int

    def __post_init__(self):
        if not 1 <= self.i < self.j:
            raise ValueError("need 1 <= i < j")

    @property
    def min_site(self) -> int:
        return self.i

    @property
    def size(self) -> int:
        return 2

    def sites(self) -> tuple[int, ...]:
        return (self.i, self.j)


@dataclass(frozen=True)
class InteractionTerm:
    """One local term: a value table over the leading sites of its support.

    The table reads the first table.depth sites of the support: for a
    Progression as many as the potential sees, for a pair both sites.
    sup_bound certifies sup|Phi_A| (default: the table's sup norm).
    """

    support: object
    table: CylinderFunction
    sup_bound: float = 0.0

    def __post_init__(self):
        if self.sup_bound == 0.0:
            object.__setattr__(self, "sup_bound", self.table.sup_norm())

    def value_at(self, x: Point) -> float:
        sites = self.support.sites()[: self.table.depth]
        word = tuple(x.coord(i) for i in sites)
        return float(self.table.values[word_index(word, self.table.d)])


@dataclass(frozen=True)
class Interaction:
    """Stored terms with leading sites 1..anchor_range.

    anchor_range None marks a translation-invariant family stored as its
    anchor row: every term has leading site 1, and anchor s is the row
    read at sigma^(s-1) x.
    """

    d: int
    terms: tuple[InteractionTerm, ...]
    anchor_range: int | None
    norm_remainder: float = 0.0
    label: str = ""

    def __post_init__(self):
        limit = 1 if self.anchor_range is None else self.anchor_range
        if any(t.support.min_site > limit for t in self.terms):
            raise ValueError(f"stored terms need leading sites in 1..{limit}")

    def anchors(self) -> list[int]:
        return sorted({t.support.min_site for t in self.terms})

    def terms_at_anchor(self, s: int) -> list[InteractionTerm]:
        return [t for t in self.terms if t.support.min_site == s]


# ---------------------------------------------------------------------------
# Potential -> interaction
# ---------------------------------------------------------------------------

def from_potential(
    f: Potential, y: Point, k_max: int, n_max: int
) -> Interaction:
    """Telescope f into progression terms, relative to the base point y.

    Stores supports A(k, n) for 1 <= k <= k_max and 0 <= n <= n_max,
    dropping terms that vanish identically (for a depth-m locally-constant
    potential that is every n >= 1 term with k + n >= m, so the result is
    finite as soon as the cutoffs cover the depth).  The tables are exact
    up to f's own evaluation bound.
    The second argument of the (k, n >= 1) term is the (k, n - 1)
    tabulation read at idx // d (the block without its last site).
    """
    depth = f.depth()  # None when not locally constant
    (f_y,), err_y = tabulate(f, 0, y)  # the empty word followed by y
    terms: list[InteractionTerm] = []
    for k in range(1, k_max + 1):
        for n in range(0, n_max + 1):
            if depth is not None and n >= 1 and k + n >= depth:
                break  # both telescoped arguments agree on everything f reads
            t = k + n + 1 if depth is None else min(k + n + 1, max(depth, 1))
            values, err = tabulate(f, t, shift_n(y, 2 * k + n))
            if n == 0:
                vals, bound = values - f_y, err + err_y
            else:
                vals, bound = values - np.repeat(prev, f.d), err + prev_err
            prev, prev_err = values, err
            if np.all(vals == 0.0):
                continue
            terms.append(
                InteractionTerm(
                    Progression(k, n), CylinderFunction(f.d, t, vals), float(np.max(np.abs(vals))) + bound
                )
            )
    return Interaction(
        d=f.d,
        terms=tuple(terms),
        anchor_range=k_max,
        norm_remainder=_from_potential_remainder(f, k_max, n_max),
        label=f"telescoped({f.label})" if f.label else "telescoped",
    )


def _from_potential_remainder(f: Potential, k_max: int, n_max: int) -> float:
    """Certified bound on the per-leading-site sums dropped by the cutoffs."""
    reg = f.regularity
    if isinstance(reg, LocallyConstant):
        m = reg.depth
        if k_max >= max(1, m) and n_max >= max(0, m - 1):
            return 0.0
        return 2.0 * var_upper(f, 0)
    if isinstance(reg, Hoelder):
        # The two telescoped arguments of the (k, n >= 1) term agree on
        # their first k+n coordinates, so sup|Phi_{A(k,n)}| <= K 2^(-g(k+n)).
        gamma, K = reg.gamma, reg.constant
        q = 2.0 ** (-gamma)
        # n-tail at a stored leading site k (worst at k = 1):
        n_tail = K * q ** (n_max + 2) / (1.0 - q)
        # an unstored leading site k > k_max carries its n = 0 term
        # (bounded by var_0) plus the full n >= 1 geometric sum
        unstored = var_upper(f, 0) + K * q ** (k_max + 2) / (1.0 - q)
        return max(n_tail, unstored)
    # No metadata: the caller still gets the exact norm of the stored part.
    return math.inf


def reconstruct_at_site1(phi: Interaction, x: Point) -> float:
    """Sum of Phi_A(x) over stored supports whose leading site is 1."""
    return math.fsum(t.value_at(x) for t in phi.terms_at_anchor(1))


def hamiltonian_from_interaction(phi: Interaction, n: int, x: Point) -> float:
    """H_n(x): total stored interaction of supports meeting {1, ..., n}.

    A support meets the volume exactly when its leading site does, so this
    sums the terms with min A <= n: for an anchor row, the row at
    sigma^s x for s < n.  Otherwise n must lie within the anchor range
    (the truncated family has nothing beyond it).
    """
    if n < 1:
        raise ValueError("volume must contain at least site 1")
    if phi.anchor_range is None:
        shifted = [shift_n(x, s) for s in range(n)]
        return math.fsum(t.value_at(xs) for xs in shifted for t in phi.terms)
    if n > phi.anchor_range:
        raise ValueError(f"volume {n} exceeds the stored anchor range {phi.anchor_range}")
    return math.fsum(
        t.value_at(x) for t in phi.terms if t.support.min_site <= n
    )


@dataclass(frozen=True)
class NormResult:
    value: float       # exact norm of the stored terms (leading-site grouping)
    remainder: float   # certified bound on what the truncation dropped

    @property
    def upper(self) -> float:
        return self.value + self.remainder


def interaction_norm(phi: Interaction) -> NormResult:
    """sup over leading sites of the summed term bounds, plus remainder.

    Scans the stored anchors (an anchor row has only site 1).  The
    remainder certifies the contribution of supports dropped by whatever
    truncation built the interaction.
    """
    value = 0.0
    for s in phi.anchors():
        value = max(value, math.fsum(t.sup_bound for t in phi.terms_at_anchor(s)))
    return NormResult(value=value, remainder=phi.norm_remainder)


# ---------------------------------------------------------------------------
# Spin-chain families
# ---------------------------------------------------------------------------

def ising_nn() -> Interaction:
    """Phi_{{s,s+1}}(x) = x_s x_{s+1} - 1 on occupation labels {0, 1}.

    Per leading site there is a single pair with sup|Phi| = 1, so the norm
    is exactly 1 with no remainder.  Stored as its anchor row {1, 2}.
    """
    vals = np.array([0.0 * 0 - 1, 0 * 1 - 1, 1 * 0 - 1, 1 * 1 - 1])
    return Interaction(
        d=2,
        terms=(InteractionTerm(PairSupport(1, 2), CylinderFunction(2, 2, vals)),),
        anchor_range=None,
        norm_remainder=0.0,
        label="ising-nn",
    )


def ising_lr(
    alpha: float,
    labels: str = "occupation",
    pair_range: int = 64,
) -> Interaction:
    """Two-body chain with couplings decaying like |i-j|**(-alpha).

    labels="occupation": Phi_{{i,j}}(x) = (x_i x_j - 1)/|i-j|^alpha over
    {0,1}; labels="spin": Phi = s_i s_j/|i-j|^alpha with s = 2x - 1.  Both
    have sup|Phi_{{i,j}}| = |i-j|^(-alpha); the two versions differ by
    one-body and constant pieces only, which every kernel absorbs (they
    shift the Hamiltonian by a configuration-independent amount once the
    volume is fixed).

    Stored as its anchor row, the pairs {1, 1 + r} for r <= pair_range.
    Needs alpha > 1 for a summable per-site tail; the remainder is the
    integral-enclosure upper bound on sum_{r > pair_range} r^(-alpha).
    """
    if not (math.isfinite(alpha) and alpha > 1):
        raise ValueError(f"alpha must be a finite number > 1 for a summable pair tail, got {alpha}")
    if labels == "occupation":
        base = np.array([-1.0, -1.0, -1.0, 0.0])
    elif labels == "spin":
        base = np.array([1.0, -1.0, -1.0, 1.0])
    else:
        raise ValueError(f"unknown labels {labels!r}")
    terms = []
    for r in range(1, pair_range + 1):
        p = float(r) ** alpha  # sup|base / p| = 1 / p, bitwise
        terms.append(InteractionTerm(PairSupport(1, 1 + r), CylinderFunction(2, 2, base / p), 1.0 / p))
    remainder = pair_range ** (1.0 - alpha) / (alpha - 1.0)
    return Interaction(
        d=2,
        terms=tuple(terms),
        anchor_range=None,
        norm_remainder=remainder,
        label=f"ising-lr(alpha={alpha},{labels})",
    )
