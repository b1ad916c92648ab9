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

The series are summed on spin arrays.  Each evaluation reads the
coordinates it needs once, through Point.coords, as one array of spins
(a spin window); symbols outside {0, 1} are refused once per window.
Every series is a row of small integer coefficients (in {-2, ..., 2})
times a shared float vector: the powers j^(-alpha), or for g's word
evaluator the powers followed by the exact partials of the tail.  Such a
row has one exact sum, and its value is that sum correctly rounded, which
is what math.fsum returns whatever the order of the terms.  _exact_rows
computes it for many rows at once, with no Python float per term: the
vector is split once into aligned pieces (Rump, Ogita and Oishi's
ExtractVector) so that one integer-matrix product gives each row's exact
piece sums, and those few floats are rounded once per row.  The powers
come from Python's float pow, computed and split once per IsingParams
(so once per run of the command line): numpy's power differs from it in
the last bit for a few j, which would change the values.

Every series value carries a certified error bound built from
integral-enclosure tails; the per-residue tails along a periodic side
make the inner sums exact up to brackets of width ~ cutoff^(-alpha).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .potentials import Potential, SummableVariation
from .shift import Point, prepend, shift


# ---------------------------------------------------------------------------
# Parameters and certified series tails
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsingParams:
    alpha: float
    cutoff: int = 200

    def __post_init__(self):
        if self.alpha <= 1:
            raise ValueError("alpha must be > 1 for a summable coupling")
        if self.cutoff < 2:
            raise ValueError("cutoff must be >= 2")

    @functools.cached_property
    def _table(self) -> "_PowerTable":
        """The powers j^(-alpha), j = 1..cutoff, and their split; built on
        first use and kept with these parameters."""
        return _power_table(self.alpha, self.cutoff)

    @functools.cached_property
    def cutoff_zeta(self) -> tuple[float, float]:
        """zeta(alpha, cutoff), bitwise, from the power table."""
        return _zeta_from(self.alpha, self.cutoff, math.fsum(self._table.powers.tolist()))


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


def _powers(alpha: float, count: int) -> np.ndarray:
    """j^(-alpha) for j = 1..count, from Python's float pow."""
    return np.array([j ** (-alpha) for j in range(1, count + 1)])


_WORD_BLOCK = 1 << 12  # rows of g_potential's word evaluator per spin matrix


def _partials(terms) -> list[float]:
    """Shewchuk's partials of a float sum: non-overlapping floats whose exact
    sum is the exact sum of `terms` (the expansion math.fsum keeps)."""
    partials: list[float] = []
    for x in terms:
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]
    return partials


# ---------------------------------------------------------------------------
# Exact row sums
# ---------------------------------------------------------------------------

def _split(v, weight: int) -> np.ndarray:
    """Pieces q_1, ..., q_K (the rows of the result) with v = q_1 + ... + q_K
    exactly, for integer rows c of weight sum_k |c_k| <= `weight`.

    Rump's ExtractVector, repeated until nothing is left: with 2^e_t above
    every entry of what the earlier pieces leave and b = bitlen(2 weight),
    piece t is that rest rounded to multiples of 2^(e_t + b - 53) by
    (r + 2^(e_t + b)) - 2^(e_t + b), and is at most 2^e_t in size.  So every
    partial sum of c_k q_tk is a multiple of 2^(e_t + b - 53) below
    2^(e_t + b - 1): exact in float64, in any order.
    """
    b = (2 * weight).bit_length()
    if b > 50:
        raise ValueError(f"row weight {weight} is too large to split for")
    rest = np.array(v, dtype=float)
    pieces = []
    while (top := float(np.max(np.abs(rest), initial=0.0))) > 0.0:
        e = math.frexp(top)[1]  # top < 2^e
        if e + b > 1023:
            raise ValueError(f"entry {top!r} is too large to split")
        sigma = math.ldexp(1.0, e + b)
        piece = (rest + sigma) - sigma
        pieces.append(piece)
        rest = rest - piece
    return np.array(pieces).reshape(len(pieces), len(rest))


def _exact_rows(C: np.ndarray, pieces: np.ndarray) -> np.ndarray:
    """math.fsum(C[i] * v) for every row i, bitwise, where pieces = _split(v, w)
    and w bounds the weight sum_k |C[i, k]| of every row.

    The coefficients are integers whose products with v are exact (those
    in {-2, ..., 2} are).  One product C @ pieces.T gives each row's exact
    piece sums; a row whose pieces past the second sum to zero is rounded
    by one IEEE addition, any other by math.fsum of its piece sums.  An
    exact zero is +0.0, as math.fsum returns it.
    """
    sums = np.einsum("ij,kj->ik", C, pieces)  # exact: never np.dot
    K = sums.shape[1]
    if K == 0:
        return np.zeros(len(sums))
    out = (sums[:, 0] if K == 1 else sums[:, 0] + sums[:, 1]) + 0.0
    if K > 2:
        rows = np.flatnonzero(np.any(sums[:, 2:], axis=1))
        out[rows] = list(map(math.fsum, sums[rows].tolist()))
    return out


@dataclass(frozen=True)
class _PowerTable:
    """j^(-alpha) for j = 1..len(powers) and its split for rows of
    coefficients in {-2, ..., 2}: _exact_rows(C, pieces[:, :n]) sums any
    such C of n <= len(powers) columns."""

    powers: np.ndarray
    pieces: np.ndarray


def _power_table(alpha: float, count: int) -> _PowerTable:
    powers = _powers(alpha, count)
    return _PowerTable(powers, _split(powers, 2 * count))


def zeta(alpha: float, cutoff: int = 100_000) -> tuple[float, float]:
    """zeta(alpha) as partial sum plus integral-bracketed tail midpoint.

    Returns (value, error_bound) with the true value inside
    value +/- error_bound.
    """
    if alpha <= 1:
        raise ValueError("zeta series needs alpha > 1")
    return _zeta_from(alpha, cutoff, math.fsum(j ** (-alpha) for j in range(1, cutoff + 1)))


def _zeta_from(alpha: float, cutoff: int, partial: float) -> tuple[float, float]:
    """zeta's value and bound from its partial sum up to the cutoff."""
    lo, hi = _tail_bracket(alpha, cutoff)
    value = partial + 0.5 * (lo + hi)
    # the analytic width can drop below float resolution; charge rounding too
    fp = 4.0 * sys.float_info.epsilon * abs(value)
    return value, 0.5 * (hi - lo) + fp


# ---------------------------------------------------------------------------
# Two-sided points and spin windows
# ---------------------------------------------------------------------------

def _spins(symbols: tuple[int, ...]) -> np.ndarray:
    """Spins 2x - 1 of a row of symbols; refuses symbols outside {0, 1}."""
    top = max(symbols, default=0)  # Points hold no negative symbols
    if top > 1:
        raise ValueError(f"symbol {top} is not a valid two-letter spin label")
    return 2 * np.array(symbols, dtype=np.int64) - 1


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
        return int(_spins((self.coord(i),))[0])

    def shift(self) -> "TwoSidedPoint":
        """Move the origin one step right: coordinate i of the result is i+1."""
        return TwoSidedPoint(prepend(self.left, (self.coord(0),)), shift(self.right))

    @property
    def literal(self) -> str:
        return f"{self.left.literal}~{self.right.literal}"


def _spin_window(x: TwoSidedPoint, lo: int, hi: int) -> np.ndarray:
    """Spins at chain indices lo..hi (lo < 0 <= hi + 1); entry k is index lo + k."""
    return _spins(x.left.coords(-lo)[::-1] + x.right.coords(hi + 1))


# ---------------------------------------------------------------------------
# The two-sided energy and its one-sided companion
# ---------------------------------------------------------------------------

def f_two_sided(params: IsingParams, x: TwoSidedPoint) -> tuple[float, float]:
    """- sum_{0 < |n| <= cutoff} s_0 s_n / |n|^alpha, with tail bound."""
    a, J = params.alpha, params.cutoff
    right = _spins(x.right.coords(J + 1))  # chain indices 0..J
    left = _spins(x.left.coords(J))  # chain indices -1..-J
    coeffs = -right[0] * (right[1:] + left)
    return _exact_rows(coeffs[None, :], params._table.pieces).item(), 2.0 * _tail_bracket(a, J)[1]


def g_one_sided(params: IsingParams, x: Point) -> tuple[float, float]:
    """- s_0 sum_{j >= 1} s_j / j^alpha - zeta(alpha), with certified bound.

    x is the library's 1-indexed one-sided point; its coordinate i+1
    carries the chain coordinate i.
    """
    zv, ze = params.cutoff_zeta
    s = _spins(x.coords(params.cutoff + 1))  # chain indices 0..J
    series = _exact_rows((-s[0] * s[1:])[None, :], params._table.pieces).item()
    return series - zv, _tail_bracket(params.alpha, params.cutoff)[1] + ze


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

    J = params.cutoff

    def fn(x: Point) -> tuple[float, float]:
        return g_one_sided(params, x)

    def batch(length: int, tail: Point) -> tuple[np.ndarray, float]:
        """g(u . tail) for every word u, from spin matrices of the words.

        The word holds chain indices 0..m-1, the tail the rest.  The tail
        sum T = sum_{j >= m} s_j j^(-alpha) is the same for every word, so
        its exact partials join the powers j^(-alpha), 0 < j < m, in one
        vector, split once.  Row i of the coefficient matrix is
        -s_0 (s_1, ..., s_{m-1}, 1, ..., 1) for word i, and _exact_rows
        rounds its exact sum: the sum that fn rounds, so every value is
        fn's to the bit.  The words go in blocks of _WORD_BLOCK rows, so
        memory does not grow with their number.
        """
        if length == 0:  # the tail is the whole point
            value, bound = fn(tail)
            return np.array([value]), bound
        zv, ze = params.cutoff_zeta
        powers = params._table.powers
        m = min(length, J + 1)
        t = _spins(tail.coords(J + 1 - m))  # chain indices m..J
        tail_partials = _partials((t * powers[m - 1:]).tolist())
        pieces = _split(np.concatenate([powers[: m - 1], tail_partials]), m - 1 + len(tail_partials))
        # column k of word i is its bit length-1-k: chain index k
        bits = np.arange(length - 1, length - 1 - m, -1)
        values = np.empty(2**length)
        for lo in range(0, len(values), _WORD_BLOCK):
            index = np.arange(lo, min(lo + _WORD_BLOCK, len(values)))
            s = 2 * ((index[:, None] >> bits) & 1) - 1
            ones = np.ones((len(s), len(tail_partials)), dtype=np.int64)
            coeffs = -s[:, :1] * np.hstack([s[:, 1:], ones])
            values[lo : lo + len(s)] = _exact_rows(coeffs, pieces)
        return values - zv, _tail_bracket(a, J)[1] + ze

    return Potential.from_callable(
        2, fn, SummableVariation(var_bound), label=f"ising-lr-g(alpha={a})", batch=batch
    )


# ---------------------------------------------------------------------------
# The transfer function h
# ---------------------------------------------------------------------------

def _transfer_terms(
    params: IsingParams, x: TwoSidedPoint, count: int, shifted: TwoSidedPoint | None = None
):
    """(term_j, certified error) for j = 0..count-1, from one spin window;
    given shifted = x.shift(), also the list for shifted, j = 0..count-2.

    term_j = -s_j * sum_{n >= 1} (s_{j-n} - s_j) / n^alpha.  The first
    n_exact = max(cutoff, j + alignment) terms of the inner sum are summed
    exactly; beyond them the walk sits inside the left cycle, so the
    remainder splits into per-residue arithmetic-progression tails, each
    enclosed by the integral bracket.  The error is that of the brackets.

    shift x keeps the left cycle of x (prepend at most folds the prefix),
    so its term_j is term_{j+1}(x), computed the same way, wherever the two
    have the same n_exact; only the other rows are computed for it, from
    the window of x.
    """
    J = params.cutoff
    P, L = len(x.left.prefix), len(x.left.cycle)
    n_max = max(J, count - 1 + P + L)
    lo = -(n_max + L)  # row j = 0 reads down to index -(n_exact + L)
    j = np.arange(count)
    centers = j - lo  # window entry of chain index j
    n_exact = np.maximum(J, j + P + L)
    differ = np.zeros(0, dtype=np.int64)
    if shifted is not None:
        assert len(shifted.left.cycle) == L
        n_shifted = np.maximum(J, j[:-1] + len(shifted.left.prefix) + L)
        differ = np.flatnonzero(n_shifted != n_exact[1:])
        centers = np.concatenate([centers, centers[1:][differ]])
        n_exact = np.concatenate([n_exact, n_shifted[differ]])
    w = _spin_window(x, lo, count - 1)
    table = params._table if n_max <= J else _power_table(params.alpha, n_max)
    values, errors = _inner_sums(params.alpha, w, centers, n_exact, L, table.pieces[:, :n_max])
    rows = list(zip(values.tolist(), errors.tolist()))
    if shifted is None:
        return rows
    rows_shifted = rows[1:count]
    for k, i in enumerate(differ.tolist()):
        rows_shifted[i] = rows[count + k]
    return rows[:count], rows_shifted


def _inner_sums(alpha, w, centers, n_exact, L, pieces):
    """term_j and its error for the chain index j at each window entry of
    `centers`, with its own n_exact, on a left cycle of length L."""
    n_max = pieces.shape[1]
    # row r holds w[c - n_max .. c] for c = centers[r]; column n - 1 of
    # coeffs is s_{j-n} - s_j, zero for n > n_exact
    view = sliding_window_view(w, n_max + 1)[centers - n_max]
    coeffs = view[:, -2::-1] - view[:, -1:]
    coeffs[np.arange(1, n_max + 1) > n_exact[:, None]] = 0
    head = _exact_rows(coeffs, pieces)
    sj = w[centers]
    tail_mid = np.zeros(len(centers))
    tail_err = np.zeros(len(centers))
    for r in range(L):
        n_first = (n_exact + 1 + r).tolist()
        tails = {n: _residue_tail(alpha, n, L) for n in set(n_first)}
        mid, half = np.array([tails[n] for n in n_first]).reshape(-1, 2).T
        coeff = w[centers - n_exact - 1 - r] - sj
        # a zero coefficient adds +0.0 to a sum that is never -0.0
        tail_mid = tail_mid + coeff * mid
        tail_err = tail_err + np.abs(coeff) * half
    return -sj * (head + tail_mid), tail_err


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
    return _h_from_terms(params, x, terms, _transfer_terms(params, x, terms + 1))


def _h_from_terms(
    params: IsingParams, x: TwoSidedPoint, terms: int, term_list
) -> tuple[float, float]:
    """transfer_h from (term_j, error) for j = 0..terms (the list may run on)."""
    if params.alpha <= 2:
        raise ValueError(
            "the transfer series needs alpha > 2; its terms are not summable below that"
        )
    a = params.alpha
    head = term_list[: terms + 1]
    value = math.fsum(v for v, _ in head)
    inner_err = 0.0
    for _, e in head:
        inner_err += e
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
    two h values.  Each inner sum is computed once: j <= terms + 1 at x,
    and at shift x only the rows that are not those of x.
    """
    fv, fe = f_two_sided(params, x)
    gv, ge = g_one_sided(params, x.right)
    sx = x.shift()
    tx, ts = _transfer_terms(params, x, terms + 2, sx)
    hv, _ = _h_from_terms(params, x, terms, tx)
    hsv, hs_err = _h_from_terms(params, sx, terms, ts)
    residual = abs(fv - gv - hv + hsv)
    if math.isinf(hs_err):
        return residual, math.inf
    last, last_err = tx[terms + 1]
    inner_err = 0.0
    for j in range(terms + 2):
        inner_err += tx[j][1]
        if j >= 1:
            inner_err += ts[j - 1][1]
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
