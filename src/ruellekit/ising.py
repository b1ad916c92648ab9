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
coboundary_checks reads the windows of all its points into one array.
Every series is a row of small integer coefficients (in {-2, ..., 2})
times the powers j^(-alpha).  Such a row has one exact sum, and its value
is that sum correctly rounded, which is what math.fsum returns whatever
the order of the terms.  It is computed with no Python float per term:
the powers are split once into aligned pieces (Rump, Ogita and Oishi's
ExtractVector), so that every partial sum of a row against a piece is
exact, in any order, and _round_rows rounds each row's few piece sums.
_exact_rows takes the piece sums as one integer-matrix product; the
transfer series take them as sliding products (convolutions) of the spin
windows with the pieces, and g's word evaluator adds the tail's piece
sums, taken once per call, to each word's.  The powers come from Python's
float pow, computed and split once per IsingParams (so once per run of the
command line; a transfer series whose exact heads run past the cutoff
splits a longer table per call): numpy's power differs from it in the last
bit for a few j, which would change the values.

Every series value carries a certified error bound built from
integral-enclosure tails; the per-residue tails along a periodic side
make the inner sums exact up to brackets of width ~ cutoff^(-alpha).
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
        if not (math.isfinite(self.alpha) and self.alpha > 1):
            raise ValueError(
                f"alpha must be a finite number > 1 for a summable coupling, got {self.alpha}"
            )
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
    piece sums, and _round_rows rounds them.
    """
    return _round_rows(np.einsum("ij,kj->ik", C, pieces))  # exact: never np.dot


def _round_rows(sums: np.ndarray) -> np.ndarray:
    """The correctly rounded total of every row of exact piece sums.

    A row whose piece sums past the second are zero is rounded by one IEEE
    addition, any other by math.fsum of its piece sums.  An exact zero is
    +0.0, as math.fsum returns it.
    """
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


# np.convolve takes each output from BLAS's ddot, which on vectors longer than
# 10,000 entries can stall for milliseconds per call (see shift.sum_of_products)
_DOT_BLOCK = 1 << 13


def _valid_convolve(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """np.convolve(a, q, "valid") for len(a) >= len(q) >= 1, summed over
    blocks of at most _DOT_BLOCK entries of q.  For a piece q of a split and
    spins a it is exact, whatever the order of the terms."""
    n = len(q)
    out = 0.0
    for lo in range(0, n, _DOT_BLOCK):
        hi = min(lo + _DOT_BLOCK, n)
        out = out + np.convolve(a[n - hi : len(a) - lo], q[lo:hi], "valid")
    return out


def zeta(alpha: float, cutoff: int = 100_000) -> tuple[float, float]:
    """zeta(alpha) as partial sum plus integral-bracketed tail midpoint.

    Returns (value, error_bound) with the true value inside
    value +/- error_bound.
    """
    if not (math.isfinite(alpha) and alpha > 1):
        raise ValueError(f"zeta series needs a finite alpha > 1, got {alpha}")
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

def _spins(symbols: Sequence[int]) -> np.ndarray:
    """Spins 2x - 1 of a row of symbols; refuses symbols outside {0, 1}."""
    # bytes() reads a list of small ints far faster than np.array, and
    # refuses symbols past 255 (Points hold no negative symbols)
    try:
        symbols = np.frombuffer(bytes(symbols), dtype=np.uint8)
    except ValueError:
        symbols = np.array([max(symbols)])
    top = symbols.max(initial=0)
    if top > 1:
        raise ValueError(f"symbol {top} is not a valid two-letter spin label")
    return 2 * symbols.astype(np.int64) - 1


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


def _spin_windows(points: Sequence[TwoSidedPoint], lo: int, hi: int) -> np.ndarray:
    """Spins at chain indices lo..hi (lo < 0 <= hi + 1) of every point, one
    row each: entry k of a row is index lo + k."""
    symbols = []
    for x in points:
        symbols += x.left.coords(-lo)[::-1]
        symbols += x.right.coords(hi + 1)
    return _spins(symbols).reshape(len(points), hi - lo + 1)


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

    def batch(length: int, tail: Point) -> tuple[np.ndarray, float]:
        """g(u . tail) for every word u, from spin matrices of the words.

        The word holds chain indices 0..m-1, the tail the rest.  The tail
        sum T = sum_{j >= m} s_j j^(-alpha) is the same for every word, so
        it is taken once, as its exact sums against the pieces of the power
        table.  Word i's piece sums are -s_0 times its head's, over
        j = 1..m-1, plus T's, and _round_rows rounds their exact total: the
        sum that g_one_sided rounds, so every value is its to the bit.  The
        words go in blocks of _WORD_BLOCK rows, so memory does not grow
        with their number.
        """
        if length == 0:  # the tail is the whole point
            value, bound = g_one_sided(params, tail)
            return np.array([value]), bound
        zv, ze = params.cutoff_zeta
        pieces = params._table.pieces
        m = min(length, J + 1)
        t = _spins(tail.coords(J + 1 - m))  # chain indices m..J
        tail_sums = np.einsum("kj,j->k", pieces[:, m - 1 :], t)
        # column k of word i is its bit length-1-k: chain index k
        bits = np.arange(length - 1, length - 1 - m, -1)
        values = np.empty(2**length)
        for lo in range(0, len(values), _WORD_BLOCK):
            index = np.arange(lo, min(lo + _WORD_BLOCK, len(values)))
            s = 2 * ((index[:, None] >> bits) & 1) - 1
            head_sums = np.einsum("ij,kj->ik", s[:, 1:], pieces[:, : m - 1])
            values[lo : lo + len(s)] = _round_rows(-s[:, :1] * (head_sums + tail_sums))
        return values - zv, _tail_bracket(a, J)[1] + ze

    return Potential.from_callable(2, batch, SummableVariation(var_bound), label=f"ising-lr-g(alpha={a})")


# ---------------------------------------------------------------------------
# The transfer function h
# ---------------------------------------------------------------------------

class _ChainRows(NamedTuple):
    """The series of a batch of points: entry p, or row p, is point p's."""

    f: np.ndarray  # f(x)
    g: np.ndarray  # g(x.right)
    terms: np.ndarray  # term_j(x), j < count
    errors: np.ndarray  # their certified errors
    shifted: np.ndarray  # term_j(shift x), j < count - 1
    shifted_errors: np.ndarray


def _chain_rows(params: IsingParams, points: Sequence[TwoSidedPoint], count: int) -> _ChainRows:
    """f(x), g(x.right), and term_j with its certified error for j < count
    at x and for j < count - 1 at shift x, for every point x.

    term_j = -s_j * sum_{n >= 1} (s_{j-n} - s_j) / n^alpha.  The first
    n_exact = max(cutoff, j + alignment) terms of the inner sum are summed
    exactly, where the alignment is the length of the left prefix plus
    the left cycle; beyond them the walk sits inside the left cycle, so
    the remainder splits into per-residue arithmetic-progression tails,
    each enclosed by the integral bracket.  The error is that of the
    brackets.  shift x keeps the left cycle of x (prepend at most folds
    the prefix), so its term_j is term_{j+1}(x), computed the same way,
    wherever the two have the same n_exact; only the other rows are
    computed for it, from the spins of x.

    Every point's spins are read once, into one array, and every exact
    head is taken as its sums against the pieces q of one split power
    table.  sum_{n <= n_exact} s_{j-n} q_n is a sliding product of the
    spins with q: one convolution per point and piece serves the rows
    with n_exact = cutoff, and one more per alignment the longer rows,
    which all read the spins from index -alignment on.  s_j times a prefix
    sum of q turns it into the head's piece sum.  Each of these partial
    sums is exact under _split's guarantee, in any order, and one
    _round_rows pass rounds the rows of every f, g and term.
    """
    a, J = params.alpha, params.cutoff
    cycles = [len(x.left.cycle) for x in points]
    aligns = [len(x.left.prefix) + L for x, L in zip(points, cycles)]
    # shift x's row j sits at index j + 1 of x.  Its left side is
    # prepend(x.left, (x_0,)): the same cycle, and a canonical prefix one
    # longer unless x_0 folds into the cycle, so its alignment as a row of x
    # is the same, or one less
    shifted_aligns = [
        A - (not x.left.prefix and x.right.coord(1) == x.left.cycle[-1])
        for x, A in zip(points, aligns)
    ]
    n_max = max(J, count - 1 + max(aligns))
    lo = -(n_max + max(cycles))  # a row reads down to index -(n_exact + L)
    s = _spin_windows(points, lo, max(J, count - 1))
    sf = s.astype(float)
    pieces = (params._table if n_max <= J else _power_table(a, n_max)).pieces
    prefix_sums = np.cumsum(pieces, axis=1)

    # f and g: the spins at indices 1..J, and -1..-J
    right = sf[:, 1 - lo : J + 1 - lo]
    left = sf[:, -1 - lo : -1 - lo - J : -1]
    s0 = s[:, -lo, None]
    g_sums = -s0 * np.einsum("pj,kj->pk", right, pieces[:, :J])
    f_sums = -s0 * np.einsum("pj,kj->pk", right + left, pieces[:, :J])

    # one row per centre c of x, then one per row of shift x that is not x's
    P, j = len(points), np.arange(count)
    n_x = np.maximum(J, j + np.array(aligns)[:, None])
    n_shifted = np.maximum(J, j[1:] + np.array(shifted_aligns)[:, None])
    differ = n_shifted != n_x[:, 1:]
    extra_owner, extra_c = np.nonzero(differ)
    owner = np.concatenate([np.repeat(np.arange(P), count), extra_owner])
    c = np.concatenate([np.tile(j, P), extra_c + 1])
    n = np.concatenate([n_x.ravel(), n_shifted[differ]])

    # rows with n_exact = J read the J spins below their centre
    window = sf[:, -J - lo : count - 1 - lo]  # indices -J .. count - 2
    at_cutoff = np.array([[_valid_convolve(w, q[:J]) for q in pieces] for w in window])
    sums = at_cutoff[owner, :, c]
    # longer rows read the spins from index c - n_exact = -alignment on
    longer, starts = n > J, c - n
    for p, start in set(zip(owner[longer].tolist(), starts[longer].tolist())):
        rows = longer & (owner == p) & (starts == start)
        w = sf[p, start - lo : c[rows].max() - lo]  # indices start .. the top centre - 1
        padded = np.concatenate([np.zeros(len(w) - 1), w])
        full = np.array([_valid_convolve(padded, q[: len(w)]) for q in pieces])
        sums[rows] = full[:, c[rows] - 1 - start].T
    at = owner * s.shape[1] + c - lo  # entry of s.ravel() at each row's centre
    flat = s.ravel()
    sj = flat[at]
    head_sums = sums - sj[:, None] * prefix_sums[:, n - 1].T

    rounded = _round_rows(np.concatenate([f_sums, g_sums, head_sums]))
    head = rounded[2 * P :]
    tail_mid = np.zeros(len(c))
    tail_err = np.zeros(len(c))
    cyc = np.asarray(cycles)[owner]
    for L in set(cycles):
        rows = np.flatnonzero(cyc == L)
        first = n[rows] + 1
        # (midpoint, half-width) of the residue tail from k on, k > J
        brackets = np.array([_residue_tail(a, k, L) for k in range(J + 1, first.max() + L)])
        for r in range(L):
            mid, half = brackets[first + r - J - 1].T
            coeff = flat[at[rows] - first - r] - sj[rows]
            # a zero coefficient adds +0.0 to a sum that is never -0.0
            tail_mid[rows] = tail_mid[rows] + coeff * mid
            tail_err[rows] = tail_err[rows] + np.abs(coeff) * half
    term = -sj * (head + tail_mid)

    terms, errors = term[: P * count].reshape(P, count), tail_err[: P * count].reshape(P, count)
    shifted, shifted_errors = terms[:, 1:].copy(), errors[:, 1:].copy()
    shifted[differ], shifted_errors[differ] = term[P * count :], tail_err[P * count :]
    f, g = rounded[:P], rounded[P : 2 * P] - params.cutoff_zeta[0]
    return _ChainRows(f, g, terms, errors, shifted, shifted_errors)


def _forward_constant_from(x: TwoSidedPoint) -> int | None:
    """Index from which the forward side is constant, or None if it never is."""
    if len(set(x.right.cycle)) != 1:
        return None
    return len(x.right.prefix)


def _series_tail(params: IsingParams, x: TwoSidedPoint, terms: int) -> float:
    """Certified bound on the terms past j = terms of the transfer series at x.

    The dropped tail is controlled through the last index B where x can
    still disagree with its forward constant: |term_j| <= 2 sum_{k >= j-B}
    k^(-alpha), summable over j exactly when alpha > 2 (smaller alpha is
    refused).  Points whose forward tail is not eventually constant get
    inf -- the series has no reason to converge there.
    """
    a = params.alpha
    if a <= 2:
        raise ValueError(
            "the transfer series needs alpha > 2; its terms are not summable below that"
        )
    if terms < 0:
        raise ValueError(f"need terms >= 0, got {terms}")
    start = _forward_constant_from(x)
    if start is None:
        return math.inf
    B = start - 1  # last chain index that may differ from the forward constant
    if terms < B + 2:
        raise ValueError(
            f"need terms >= {B + 2} so the certified tail clears the prefix"
        )
    return 2.0 / (a - 1.0) * (terms - B - 1) ** (2.0 - a) / (a - 2.0)


def transfer_h(
    params: IsingParams, x: TwoSidedPoint, terms: int
) -> tuple[float, float]:
    """Partial sum of the transfer series, with certified error bound.

    Sums term_j for j = 0..terms; the error is the terms' inner-sum
    brackets plus _series_tail's bound on the rest (inf where the forward
    side of x is never constant).
    """
    tail = _series_tail(params, x, terms)
    rows = _chain_rows(params, [x], terms + 1)
    return math.fsum(rows.terms[0].tolist()), float(np.cumsum(rows.errors[0])[-1]) + tail


def coboundary_checks(
    params: IsingParams, points: Sequence[TwoSidedPoint], terms: int
) -> list[tuple[float, float]]:
    """Residual and certified bound for  f = g + h - h o shift  at every point.

    The residual evaluates the four pieces literally.  The bound uses the
    exact telescoping of the h partial sums -- h_M(x) - h_M(shift x) =
    term_0(x) - term_{M+1}(x) -- so it charges the series truncations of
    f and g, the certified size of term_{M+1}, and the inner-sum
    brackets, rather than the (much larger) one-sided tail bounds of the
    two h values.  One _chain_rows pass serves every point: j <= terms + 1
    at x, and at shift x only the rows that are not those of x.
    """
    tails = [_series_tail(params, x, terms) for x in points]
    if not points:
        return []
    a, J = params.alpha, params.cutoff
    rows = _chain_rows(params, points, terms + 2)
    h = [math.fsum(t) for t in rows.terms[:, : terms + 1].tolist()]
    h_shifted = [math.fsum(t) for t in rows.shifted[:, : terms + 1].tolist()]
    residual = np.abs(rows.f - rows.g - h + h_shifted)
    # the errors of term_j(x), j <= terms + 1, and of term_{j-1}(shift x),
    # j >= 1, added up in turn
    errors = np.empty((len(points), 2 * terms + 3))
    errors[:, 0] = rows.errors[:, 0]
    errors[:, 1::2] = rows.errors[:, 1:]
    errors[:, 2::2] = rows.shifted_errors
    inner_err = np.cumsum(errors, axis=1)[:, -1]
    fe = 2.0 * _tail_bracket(a, J)[1]
    ge = _tail_bracket(a, J)[1] + params.cutoff_zeta[1]
    last = rows.terms[:, terms + 1]
    bound = fe + ge + np.abs(last) + rows.errors[:, terms + 1] + inner_err + 1e-12
    bound[np.isinf(tails)] = math.inf
    return list(zip(residual.tolist(), bound.tolist()))


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
