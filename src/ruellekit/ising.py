"""The long-range spin chain worked example.

Everything here lives on spins s = 2x - 1 in {-1, +1} obtained from the
two-symbol alphabet {0, 1}.  The chain's two-sided energy function is

    f(x) = - sum_{n != 0} s_0 s_n / |n|^alpha          (alpha > 1)

and the cohomologous one-sided potential is

    g(x) = - s_0 * sum_{j >= 1} s_j / j^alpha - zeta(alpha).

The transfer function h ties them together, f = g + h - h o shift, where
h(x) = sum_{j >= 0} [ f(shift^j x) - f(fix_past(shift^j x)) ] and
fix_past replaces every coordinate at negative index by the current
coordinate at index 0.  Term j of that series works out to

    term_j = - s_j * sum_{n >= 1} (s_{j-n} - s_j) / n^alpha,

which telescopes exactly: term_j(shift x) = term_{j+1}(x).  The series
converges (for alpha > 2) precisely when the forward tail of x is
eventually constant; other points get an infinite error bound.

Index translation: the library's one-sided Point is 1-indexed, so the
chain coordinate x_i (i >= 0) is right.coord(i + 1) and x_{-i} (i >= 1)
is left.coord(i).

Every series value carries a certified error bound built from
integral-enclosure tails; the per-residue tails along a periodic side
make the inner sums exact up to brackets of width ~ cutoff^(-alpha).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .potentials import Potential, SummableVariation
from .shift import Point, prepend, shift


# ---------------------------------------------------------------------------
# Parameters and certified series tails
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsingParams:
    alpha: float
    beta: float = 1.0
    cutoff: int = 200

    def __post_init__(self):
        if self.alpha <= 1:
            raise ValueError("alpha must be > 1 for a summable coupling")
        if self.beta <= 0:
            raise ValueError("beta must be > 0")
        if self.cutoff < 2:
            raise ValueError("cutoff must be >= 2")


def _tail_bracket(alpha: float, K: int) -> tuple[float, float]:
    """Enclosure of sum_{j > K} j^(-alpha) by the integral comparison."""
    lo = (K + 1) ** (1.0 - alpha) / (alpha - 1.0)
    hi = K ** (1.0 - alpha) / (alpha - 1.0)
    return lo, hi


def _residue_tail(alpha: float, start: int, step: int) -> tuple[float, float]:
    """(midpoint, half-width) enclosing sum_{k >= 0} (start + k*step)^(-alpha)."""
    base = start ** (1.0 - alpha) / (step * (alpha - 1.0))
    half = 0.5 * start ** (-alpha)
    return base + half, half


def zeta(alpha: float, cutoff: int = 100_000) -> tuple[float, float]:
    """zeta(alpha) as partial sum plus integral-bracketed tail midpoint.

    Returns (value, error_bound) with the true value inside
    value +/- error_bound.
    """
    if alpha <= 1:
        raise ValueError("zeta series needs alpha > 1")
    partial = math.fsum(j ** (-alpha) for j in range(1, cutoff + 1))
    lo, hi = _tail_bracket(alpha, cutoff)
    value = partial + 0.5 * (lo + hi)
    # the analytic width can drop below float resolution; charge rounding too
    fp = 4.0 * sys.float_info.epsilon * abs(value)
    return value, 0.5 * (hi - lo) + fp


# ---------------------------------------------------------------------------
# Two-sided points
# ---------------------------------------------------------------------------

def _spin(symbol: int) -> int:
    if symbol not in (0, 1):
        raise ValueError(f"symbol {symbol} is not a valid two-letter spin label")
    return 2 * symbol - 1


@dataclass(frozen=True)
class TwoSidedPoint:
    """An eventually periodic configuration over all integer sites.

    left stores the negative-index side outward: left.coord(i) is the
    chain coordinate at index -i.  right stores indices 0, 1, 2, ... with
    the usual 1-indexed Point, so chain index i >= 0 is right.coord(i+1).
    """

    left: Point
    right: Point

    @classmethod
    def constant(cls, symbol: int) -> "TwoSidedPoint":
        return cls(Point.constant(symbol), Point.constant(symbol))

    @classmethod
    def from_literals(cls, left: str, right: str) -> "TwoSidedPoint":
        return cls(Point.from_literal(left), Point.from_literal(right))

    def coord(self, i: int) -> int:
        """Chain coordinate at any integer index."""
        if i >= 0:
            return self.right.coord(i + 1)
        return self.left.coord(-i)

    def spin(self, i: int) -> int:
        return _spin(self.coord(i))

    def shift(self) -> "TwoSidedPoint":
        """Move the origin one step right: coordinate i of the result is i+1."""
        return TwoSidedPoint(prepend(self.left, (self.coord(0),)), shift(self.right))

    @property
    def literal(self) -> str:
        return f"{self.left.literal}~{self.right.literal}"


# ---------------------------------------------------------------------------
# The two-sided energy and its one-sided companion
# ---------------------------------------------------------------------------

def f_two_sided(params: IsingParams, x: TwoSidedPoint) -> tuple[float, float]:
    """- sum_{0 < |n| <= cutoff} s_0 s_n / |n|^alpha, with tail bound."""
    a, J = params.alpha, params.cutoff
    s0 = x.spin(0)
    total = math.fsum(
        -s0 * (x.spin(n) + x.spin(-n)) * n ** (-a) for n in range(1, J + 1)
    )
    return total, 2.0 * _tail_bracket(a, J)[1]


def g_one_sided(params: IsingParams, x: Point) -> tuple[float, float]:
    """- s_0 sum_{j >= 1} s_j / j^alpha - zeta(alpha), with certified bound.

    x is the library's 1-indexed one-sided point; its coordinate i+1
    carries the chain coordinate i.
    """
    return _g_given_zeta(params, x, zeta(params.alpha, params.cutoff))


def _g_given_zeta(params: IsingParams, x: Point, zeta_cut) -> tuple[float, float]:
    """g_one_sided with zeta(alpha, cutoff) given as (value, bound)."""
    a, J = params.alpha, params.cutoff
    s0 = _spin(x.coord(1))
    series = math.fsum(-s0 * _spin(x.coord(j + 1)) * j ** (-a) for j in range(1, J + 1))
    zv, ze = zeta_cut
    return series - zv, _tail_bracket(a, J)[1] + ze


def g_potential(params: IsingParams) -> Potential:
    """g as a Potential with summable-variation metadata.

    Points agreeing on their first n >= 2 coordinates share s_0, so the
    values differ only in the series tail from index n-1 on:
    var_n <= 2 sum_{j >= n-1} j^(-alpha).
    """
    a = params.alpha

    def var_bound(n: int) -> float:
        if n < 1:
            raise ValueError("variation bounds start at n = 1")
        if n == 1:
            return 2.0 * (1.0 + _tail_bracket(a, 1)[1])
        return 2.0 * ((n - 1) ** (-a) + _tail_bracket(a, n - 1)[1])

    zeta_cut = zeta(a, params.cutoff)  # the same for every point

    def fn(x: Point) -> tuple[float, float]:
        return _g_given_zeta(params, x, zeta_cut)

    return Potential.from_callable(
        2, fn, SummableVariation(var_bound), label=f"ising-lr-g(alpha={a})"
    )


# ---------------------------------------------------------------------------
# The transfer function h
# ---------------------------------------------------------------------------

def _inner_sum(params: IsingParams, x: TwoSidedPoint, j: int) -> tuple[float, float]:
    """Certified  sum_{n >= 1} (s_{j-n} - s_j) / n^alpha.

    The first max(cutoff, alignment) terms are summed exactly; beyond
    them the walk sits inside the left cycle, so the remainder splits
    into per-residue arithmetic-progression tails, each enclosed by the
    integral bracket.
    """
    a = params.alpha
    sj = x.spin(j)
    P = len(x.left.prefix)
    L = len(x.left.cycle)
    n_exact = max(params.cutoff, j + P + L)
    head = math.fsum(
        (x.spin(j - n) - sj) * n ** (-a) for n in range(1, n_exact + 1)
    )
    tail_mid = 0.0
    tail_err = 0.0
    for r in range(L):
        n_first = n_exact + 1 + r
        coeff = x.spin(j - n_first) - sj
        if coeff == 0:
            continue
        mid, half = _residue_tail(a, n_first, L)
        tail_mid += coeff * mid
        tail_err += abs(coeff) * half
    return head + tail_mid, tail_err


def _term(params: IsingParams, x: TwoSidedPoint, j: int) -> tuple[float, float]:
    inner, err = _inner_sum(params, x, j)
    return -x.spin(j) * inner, err


def _forward_constant_from(x: TwoSidedPoint) -> int | None:
    """Index from which the forward side is constant, or None if it never is."""
    if len(set(x.right.cycle)) != 1:
        return None
    return len(x.right.prefix)


def transfer_h(
    params: IsingParams, x: TwoSidedPoint, terms: int
) -> tuple[float, float]:
    """Partial sum of the transfer series, with certified error bound.

    Sums term_j for j = 0..terms.  The dropped tail is controlled through
    the last index B where x can still disagree with its forward
    constant: |term_j| <= 2 sum_{k >= j-B} k^(-alpha), summable over j
    exactly when alpha > 2 (smaller alpha is refused).  Points whose
    forward tail is not eventually constant get error_bound = inf -- the
    series has no reason to converge there.
    """
    if params.alpha <= 2:
        raise ValueError(
            "the transfer series needs alpha > 2; its terms are not summable below that"
        )
    a = params.alpha
    vals = []
    inner_err = 0.0
    for j in range(terms + 1):
        v, e = _term(params, x, j)
        vals.append(v)
        inner_err += e
    value = math.fsum(vals)
    start = _forward_constant_from(x)
    if start is None:
        return value, math.inf
    B = start - 1  # last chain index that may differ from the forward constant
    if terms < B + 2:
        raise ValueError(
            f"need terms >= {B + 2} so the certified tail clears the prefix"
        )
    tail = 2.0 / (a - 1.0) * (terms - B - 1) ** (2.0 - a) / (a - 2.0)
    return value, inner_err + tail


def coboundary_check(
    params: IsingParams, x: TwoSidedPoint, terms: int
) -> tuple[float, float]:
    """Residual and certified bound for  f = g + h - h o shift  at x.

    The residual evaluates the four pieces literally.  The bound uses the
    exact telescoping of the h partial sums -- h_M(x) - h_M(shift x) =
    term_0(x) - term_{M+1}(x) -- so it charges the series truncations of
    f and g, the certified size of term_{M+1}, and the inner-sum
    brackets, rather than the (much larger) one-sided tail bounds of the
    two h values.
    """
    fv, fe = f_two_sided(params, x)
    gv, ge = g_one_sided(params, x.right)
    hv, _ = transfer_h(params, x, terms)
    hsv, hs_err = transfer_h(params, x.shift(), terms)
    residual = abs(fv - gv - hv + hsv)
    if math.isinf(hs_err):
        return residual, math.inf
    last, last_err = _term(params, x, terms + 1)
    inner_err = 0.0
    for j in range(terms + 2):
        inner_err += _inner_sum(params, x, j)[1]
        if j >= 1:
            inner_err += _inner_sum(params, x.shift(), j - 1)[1]
    bound = fe + ge + abs(last) + last_err + inner_err + 1e-12
    return residual, bound


# ---------------------------------------------------------------------------
# Regularity diagnostics
# ---------------------------------------------------------------------------

def hoelder_witness(
    params: IsingParams, gamma: float, M: float
) -> tuple[TwoSidedPoint, TwoSidedPoint, float]:
    """A pair of configurations defeating a gamma-Hoelder bound of size M.

    Returns (x, y, ratio): x is the all-plus configuration, y flips the
    two spins at indices +-(N+1), so the energies differ by exactly
    4/(N+1)^alpha while the points agree on all indices of modulus <= N.
    N is the smallest index making ratio = 2^(N gamma) * 4/(N+1)^alpha
    exceed M; such N exists for every gamma in (0, 1] because the
    geometric factor outruns the polynomial one.
    """
    if not 0 < gamma <= 1:
        raise ValueError("gamma must lie in (0, 1]")
    a = params.alpha
    N = 1
    while 2.0 ** (N * gamma) * 4.0 / (N + 1) ** a <= M:
        N += 1
    x = TwoSidedPoint.constant(1)
    y = TwoSidedPoint(
        Point((1,) * N + (0,), (1,)),
        Point((1,) * (N + 1) + (0,), (1,)),
    )
    ratio = 2.0 ** (N * gamma) * 4.0 / (N + 1) ** a
    return x, y, ratio


@dataclass(frozen=True)
class WaltersScaling:
    value: float
    error_bound: float
    decaying: bool


def ising_walters_estimate(
    params: IsingParams, p: int, N: int | None = None
) -> WaltersScaling:
    """sup_n of the Birkhoff-oscillation estimate for the chain potential.

    The oscillation of the n-term Birkhoff sum over points agreeing on
    their first n+p coordinates works out to sum_{j=p}^{n+p} j^(1-alpha);
    the sup over n <= N (over all n when N is None) is returned with a
    certified bracket.  Finite for all alpha > 1, but it decays in p only
    when alpha > 2 -- below that the full series in j diverges and the
    estimate is flagged non-decaying.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    a = params.alpha
    if N is not None:
        value = math.fsum(j ** (1.0 - a) for j in range(p, p + N + 1))
        return WaltersScaling(value=value, error_bound=0.0, decaying=a > 2.0)
    if a <= 2.0:
        return WaltersScaling(value=math.inf, error_bound=math.inf, decaying=False)
    cut = max(params.cutoff, 4 * p)
    partial = math.fsum(j ** (1.0 - a) for j in range(p, cut + 1))
    lo, hi = _tail_bracket(a - 1.0, cut)
    return WaltersScaling(
        value=partial + 0.5 * (lo + hi),
        error_bound=0.5 * (hi - lo),
        decaying=True,
    )
