"""Potentials with regularity metadata and certified evaluation.

A potential is a real function on the shift space together with a
declaration of how fast it forgets remote coordinates.  Every evaluation
returns values with one certified absolute error bound (0.0 when the
values are exact, as for finite-depth tables).

The package reads a potential on cylinders only: tabulate(f, length,
tail) returns f(u . tail) for every word u of a length, in word_index
order.  It checks the table size, calls the potential's word evaluator,
f.batch(length, tail), and checks that the evaluator returned one value
per word.  The transfer operator, tail_birkhoff, interactions and the
kernels read f through it.  The value at one point x is the length-0
reading tabulate(f, 0, x).  A table potential reads its words by index
arithmetic; the Ising g, the run-length family below and c*f of any of
them compute all words at once without building a Point per word.
Every word evaluator must equal its own length-0 readings of the words
u . tail bit for bit.

Regularity metadata drives the variation estimates:

* LocallyConstant(m): depends on the first m coordinates only, so
  var_n = 0 for n >= m and all variation quantities are computed exactly
  from the table.
* Hoelder(gamma, constant): var_n <= constant * 2**(-gamma*n).
* SummableVariation(var_bound): an explicit upper-bound sequence.
* GenericContinuous: no quantitative information; variation queries are
  refused rather than silently under-estimated.

var_n(f) is the oscillation sup{|f(x)-f(y)| : x_i = y_i for i <= n}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .shift import (
    CylinderFunction,
    Point,
    check_table_size,
    word_table,
    word_tail_index,
)


# The tail that finite-depth tables freeze remote coordinates to.
REFERENCE_TAIL = Point.constant(0)


# ---------------------------------------------------------------------------
# Regularity metadata
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocallyConstant:
    depth: int


@dataclass(frozen=True)
class Hoelder:
    gamma: float
    constant: float

    def __post_init__(self):
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must lie in (0, 1]")
        if self.constant < 0:
            raise ValueError("constant must be >= 0")


@dataclass(frozen=True)
class SummableVariation:
    """var_n(f) <= var_bound(n) with sum var_bound(n) < infinity."""

    var_bound: Callable[[int], float]


@dataclass(frozen=True)
class GenericContinuous:
    pass


class VariationUnavailable(ValueError):
    """Raised when no certified variation bound can be produced."""


# ---------------------------------------------------------------------------
# Potential
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Potential:
    """A potential: word evaluator + regularity metadata.

    `batch` is the word evaluator: batch(length, tail) returns f(u . tail)
    for each of the d**length words u, in word_index order, and the
    largest evaluation bound; read it through tabulate.  `table` is set
    exactly for locally-constant potentials and is the exact value table
    at `regularity.depth`; the fast vectorised paths in the transfer and
    kernel modules key off it.
    """

    d: int
    regularity: object
    batch: Callable[[int, Point], tuple[np.ndarray, float]] = field(repr=False)
    table: CylinderFunction | None = field(default=None, repr=False)
    label: str = ""

    def __post_init__(self):
        table_depth = None if self.table is None else self.table.depth
        if table_depth != self.depth():
            raise ValueError("a potential has a value table exactly when its regularity is LocallyConstant of "
                             f"the table's depth, not {self.depth()} and {table_depth}: build one with from_table")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_table(cls, d: int, depth: int, values, label: str = "") -> "Potential":
        tab = CylinderFunction(d, depth, values)

        def batch(length: int, tail: Point) -> tuple[np.ndarray, float]:
            if length >= depth:
                # u . tail reads the leading `depth` symbols of u alone
                return np.repeat(tab.values, d ** (length - depth)), 0.0
            return tab.values[word_tail_index(d, length, depth, tail)], 0.0

        return cls(d, LocallyConstant(depth), batch, tab, label)

    @classmethod
    def constant(cls, d: int, c: float, label: str = "") -> "Potential":
        return cls.from_table(d, 0, [float(c)], label or f"constant({c})")

    @classmethod
    def from_callable(cls, d: int, batch, regularity, label: str = "") -> "Potential":
        return cls(d, regularity, batch, None, label)

    # -- metadata ------------------------------------------------------------

    def depth(self) -> int | None:
        if isinstance(self.regularity, LocallyConstant):
            return self.regularity.depth
        return None

    def truncation_depth(self) -> int:
        """Table depth used by finite-depth machinery (>= 1)."""
        m = self.depth()
        return max(1, m) if m is not None else 1


def scale(f: Potential, c: float) -> Potential:
    """The potential c*f, with error bounds and regularity metadata rescaled."""
    if f.table is not None:
        return Potential.from_table(
            f.d, f.table.depth, c * f.table.values, label=f"{c}*{f.label}"
        )

    def batch(length: int, tail: Point) -> tuple[np.ndarray, float]:
        values, err = tabulate(f, length, tail)
        return c * values, abs(c) * err

    reg = f.regularity
    if isinstance(reg, Hoelder):
        reg = Hoelder(reg.gamma, abs(c) * reg.constant)
    elif isinstance(reg, SummableVariation):
        bound = reg.var_bound
        reg = SummableVariation(lambda n: abs(c) * bound(n))
    return Potential(f.d, reg, batch, None, f"{c}*{f.label}")


def tabulate(f: Potential, length: int, tail: Point) -> tuple[np.ndarray, float]:
    """f(u . tail) for each of the d**length words u, in word_index order,
    and the largest evaluation bound: f's word evaluator, after the table
    size guard, its values checked to be one per word."""
    size = check_table_size(f.d, length)
    values, err = f.batch(length, tail)
    if np.shape(values) != (size,):
        raise ValueError(
            f"the word evaluator of potential {f.label!r} returned values of shape "
            f"{np.shape(values)} at length {length}, where ({size},) is due"
        )
    return values, err


def tail_birkhoff(f: Potential, n: int, tail: Point):
    """Yield (S_j f(w . tail) for every length-j word w, bound) for j = 1..n.

    S_j f(w . tail) = f(w . tail) + S_{j-1} f(w_2..w_j . tail), and w_2..w_j
    is w mod d**(j-1): the column of w when the words are laid out in d
    rows of d**(j-1), one row per first symbol.  The bound adds evaluation
    bounds and the rounding of j - 1 additions.  The guard on d**n comes
    before any evaluation.
    """
    check_table_size(f.d, n)
    sums, err, mag = np.zeros(1), 0.0, 0.0
    for j in range(1, n + 1):
        values, e = tabulate(f, j, tail)
        sums = (values.reshape(f.d, -1) + sums).ravel()
        err += e
        mag += float(np.max(np.abs(values)))
        yield sums, err + (j - 1) * math.ulp(1.0) * mag


def birkhoff_table(f: Potential, n: int) -> CylinderFunction:
    """Exact table of S_n f for a locally-constant f (depth m+n-1)."""
    if f.table is None:
        raise VariationUnavailable("birkhoff_table needs a table-backed potential")
    m = max(1, f.table.depth)
    tab = f.table.refine(m)
    depth = m + n - 1
    size = check_table_size(f.d, depth)
    idx = np.arange(size, dtype=np.int64)
    out = np.zeros(size)
    dm = f.d ** m
    for j in range(n):
        # word (w_{j+1}, ..., w_{j+m}) inside the length-(m+n-1) word
        block = (idx // f.d ** (depth - j - m)) % dm
        out += tab.values[block]
    return CylinderFunction(f.d, depth, out)


# ---------------------------------------------------------------------------
# Variation estimates
# ---------------------------------------------------------------------------

def _table_var(table: CylinderFunction, n: int) -> float:
    """Exact var_n of a depth-m table (0 when n >= m)."""
    if n >= table.depth:
        return 0.0
    blocks = table.values.reshape(table.d ** n, -1)
    return float(np.max(blocks.max(axis=1) - blocks.min(axis=1)))


def var_upper(f: Potential, n: int) -> float:
    """A certified upper bound on var_n(f); exact for locally-constant f."""
    if n < 0:
        raise ValueError("n must be >= 0")
    reg = f.regularity
    if isinstance(reg, LocallyConstant):
        return _table_var(f.table, n)
    if isinstance(reg, Hoelder):
        return reg.constant * 2.0 ** (-reg.gamma * n)
    if isinstance(reg, SummableVariation):
        if n < 1:
            raise VariationUnavailable("declared variation bounds start at n = 1")
        return float(reg.var_bound(n))
    raise VariationUnavailable(
        f"no variation metadata for {type(reg).__name__}; brute-force "
        "enumeration over finitely many tails would not be an upper bound"
    )


def walters_estimate(f: Potential, p: int, n_sup: int) -> float:
    """Upper estimate of sup_{1<=n<=n_sup} var_{n+p}(S_n f).

    The quantity decays in p exactly when the potential satisfies the
    flat-Birkhoff-oscillation condition; the estimate is exact for
    locally-constant potentials (and then vanishes once p >= depth - 1)
    and a metadata majorant sum_{j=1}^{n_sup} var_{p+j}(f) otherwise.

    For a depth-m table, two points agreeing on n + p coordinates differ
    in at most the last m - 1 - p terms of S_n f, the same function of
    the same coordinates for every n >= m - 1 - p: the sup stops there.
    """
    if p < 1 or n_sup < 1:
        raise ValueError("p and n_sup must be >= 1")
    if f.table is not None:
        last = min(n_sup, max(f.table.depth - 1 - p, 1))
        return max(_table_var(birkhoff_table(f, n), n + p) for n in range(1, last + 1))
    return math.fsum(var_upper(f, p + j) for j in range(1, n_sup + 1))


@dataclass(frozen=True)
class JopSeriesResult:
    partial_sum: float
    last_term: float
    growth_exponent: float
    diverging: bool
    n_terms: int


def jop_series(f: Potential, eps: float, n_terms: int) -> JopSeriesResult:
    """Partial sums of sum_n exp[-(1/2+eps)(var_1 + ... + var_n)].

    Divergence of the full series is the uniqueness criterion; the trend
    flag compares the term at n_terms with the one at n_terms//2 and
    reports diverging when the decay exponent s (terms ~ n^-s) is < 1.
    Terms are built from certified *upper* variation bounds, so the
    partial sum under-estimates the true series and the diverging flag is
    conservative.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if n_terms < 4:
        raise ValueError("need at least 4 terms for the trend flag")
    rate = 0.5 + eps
    cum = 0.0
    terms = np.empty(n_terms)
    for n in range(1, n_terms + 1):
        cum += var_upper(f, n)
        terms[n - 1] = math.exp(-rate * cum)
    half = terms[n_terms // 2 - 1]
    last = terms[-1]
    if last <= 0.0:
        exponent = math.inf
    else:
        exponent = math.log(half / last) / math.log(n_terms / (n_terms // 2))
    return JopSeriesResult(
        partial_sum=float(math.fsum(terms)),
        last_term=float(last),
        growth_exponent=float(exponent),
        diverging=bool(exponent < 1.0),
        n_terms=n_terms,
    )


# ---------------------------------------------------------------------------
# A run-length family on two symbols
# ---------------------------------------------------------------------------

def make_hofbauer_walters(
    a_seq: Callable[[int], float],
    c_seq: Callable[[int], float],
    a: float,
    b: float,
    c: float,
    var_decay: Callable[[int], float] | None = None,
    label: str = "hofbauer-walters",
) -> Potential:
    """Potential on two symbols determined by the leading run of the point.

    A point starting with exactly k >= 2 zeros followed by a one gets
    a_seq(k); one leading zero, or the constant-zero point, gets a;
    exactly k >= 2 leading ones followed by a zero gets c_seq(k); one
    leading one gets b; the constant-one point gets c.  Classification of
    eventually periodic points is exact, so every error bound is 0.

    a and c should be the limits of a_seq and c_seq for the potential to
    be continuous.  var_decay(n), when given, must dominate
    2 * max(sup_{k>=n}|a_seq(k)-a|, sup_{k>=n}|c_seq(k)-c|), which bounds
    var_n for n >= 2: two points agreeing on n coordinates either share
    their leading run (equal values) or both run past n.
    """

    def run(x: Point, s: int) -> int | None:
        """The number of leading symbols s of x; None when x is constant s."""
        if x == Point.constant(s):
            return None
        k = 0
        while x.coord(k + 1) == s:
            k += 1
        return k

    def value(s: int, k: int | None) -> float:
        """The value on a leading run of k >= 1 symbols s (None: endless)."""
        if s == 0:
            return a if k is None or k == 1 else float(a_seq(k))
        return c if k is None else b if k == 1 else float(c_seq(k))

    def batch(length: int, tail: Point) -> tuple[np.ndarray, float]:
        """Leading runs read from the word table, one value per run length."""
        if length == 0:  # the tail is the whole point
            s = tail.coord(1)
            return np.array([value(s, run(tail, s))]), 0.0
        words = word_table(length, 2)
        differs = words != words[:, :1]
        runs = np.where(differs.any(axis=1), differs.argmax(axis=1), length)
        # lut[s, k]: the value on a run of k < length symbols s ended inside
        # the word; lut[s, length] is the all-s word's, whose run goes on
        # into the tail
        lut = np.zeros((2, length + 1))
        for s in (0, 1):
            lut[s, 1:length] = [value(s, k) for k in range(1, length)]
            t = run(tail, s)
            lut[s, length] = value(s, None if t is None else length + t)
        return lut[words[:, 0], runs], 0.0

    if var_decay is not None:
        reg = SummableVariation(var_decay)
    else:
        reg = GenericContinuous()
    return Potential.from_callable(2, batch, reg, label)
