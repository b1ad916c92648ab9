"""Core objects for the one-sided full shift on a finite alphabet.

The configuration space is the set of sequences x = (x_1, x_2, ...) over the
alphabet {0, ..., d-1}.  Coordinates are 1-indexed throughout the package.
The left shift drops the first coordinate: (sigma x)_i = x_{i+1}.

Exactly representable points are the eventually periodic ones, stored as a
finite prefix followed by a repeating cycle.  All cylinder-level data (test
functions and measures of finite depth) are dense tables over the d**m words
of length m, in lexicographic order with the *first* coordinate most
significant, so that word (w_1, ..., w_m) sits at index
sum(w_k * d**(m-k)); word_tail_index locates a word followed by a point.

Everything here is immutable; tables are numpy arrays with the writeable
flag cleared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# Tables with more than this many entries are refused (d**n <= 2**22).
MAX_TABLE_ENTRIES = 2 ** 22


class TableSizeError(ValueError):
    """Raised when an operation would materialise a table beyond the guard."""


def check_table_size(d: int, depth: int) -> int:
    """Return d**depth after checking it against MAX_TABLE_ENTRIES."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    size = d ** depth
    if size > MAX_TABLE_ENTRIES:
        raise TableSizeError(
            f"table of {d}**{depth} = {size} entries exceeds the "
            f"{MAX_TABLE_ENTRIES} entry guard"
        )
    return size


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------

def word_index(word: Sequence[int], d: int) -> int:
    """Lexicographic index of a word, first symbol most significant."""
    idx = 0
    for s in word:
        if not 0 <= s < d:
            raise ValueError(f"symbol {s} outside alphabet of size {d}")
        idx = idx * d + s
    return idx


def word_table(length: int, d: int) -> np.ndarray:
    """All words of a given length as an integer array of shape (d**length, length).

    Row i spells out the word with index i, matching :func:`word_index`.
    """
    size = check_table_size(d, length)
    if length == 0:
        return np.zeros((1, 0), dtype=np.int64)
    powers = d ** np.arange(length - 1, -1, -1, dtype=np.int64)
    return (np.arange(size, dtype=np.int64)[:, None] // powers) % d


def word_tail_index(d: int, length: int, depth: int, tail: Point) -> np.ndarray:
    """Index into a depth-`depth` table of u . tail for every word u of the
    given length, in word_index order: the leading `depth` symbols of the
    word u . (tail_1, ..., tail_depth)."""
    head = word_index(tail.coords(depth), d)
    return (np.arange(d ** length, dtype=np.int64) * d ** depth + head) // d ** length


def parse_word(text: str) -> tuple[int, ...]:
    """Parse a word written as a digit string, e.g. "010"."""
    if not all(c.isdigit() for c in text):
        raise ValueError(f"word {text!r} must be a string of digits")
    return tuple(int(c) for c in text)


def format_word(word: Sequence[int]) -> str:
    return "".join(str(s) for s in word)


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------

def _primitive_cycle(cycle: tuple[int, ...]) -> tuple[int, ...]:
    n = len(cycle)
    for p in range(1, n + 1):
        if n % p == 0 and cycle == cycle[:p] * (n // p):
            return cycle[:p]


@dataclass(frozen=True)
class Point:
    """An eventually periodic sequence prefix . cycle cycle cycle ...

    The stored representation is canonical: the cycle is primitive (no
    shorter period spells the same repetition) and the prefix is as short
    as possible.  Two Points are equal as sequences iff their canonical
    fields compare equal, so dataclass equality and hashing are exact.
    """

    prefix: tuple[int, ...]
    cycle: tuple[int, ...]

    def __post_init__(self):
        prefix = tuple(map(int, self.prefix))
        cycle = tuple(map(int, self.cycle))
        if not cycle:
            raise ValueError("cycle must be non-empty")
        if min(prefix + cycle) < 0:
            raise ValueError("symbols must be non-negative integers")
        cycle = _primitive_cycle(cycle)
        # Absorb prefix symbols that merely repeat the tail of the cycle:
        # p . (c_1..c_L)^inf == p[:-1] . (c_L c_1..c_{L-1})^inf when p ends
        # with c_L.  Iterating yields the shortest prefix.
        while prefix and prefix[-1] == cycle[-1]:
            prefix = prefix[:-1]
            cycle = cycle[-1:] + cycle[:-1]
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "cycle", cycle)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, symbol: int) -> "Point":
        return cls((), (symbol,))

    @classmethod
    def periodic(cls, cycle: Sequence[int]) -> "Point":
        return cls((), tuple(cycle))

    @classmethod
    def from_literal(cls, text: str) -> "Point":
        """Parse the external literal "prefix|cycle", e.g. "01|1"."""
        if text.count("|") != 1:
            raise ValueError(f"point literal {text!r} must contain exactly one '|'")
        pre, cyc = text.split("|")
        return cls(parse_word(pre), parse_word(cyc))

    @property
    def literal(self) -> str:
        return f"{format_word(self.prefix)}|{format_word(self.cycle)}"

    # -- coordinate access --------------------------------------------------

    def coord(self, i: int) -> int:
        """Coordinate x_i, 1-indexed."""
        if i < 1:
            raise ValueError(f"coordinates are 1-indexed, got {i}")
        k = len(self.prefix)
        if i <= k:
            return self.prefix[i - 1]
        return self.cycle[(i - k - 1) % len(self.cycle)]

    def coords(self, n: int) -> tuple[int, ...]:
        """The first n coordinates (x_1, ..., x_n)."""
        k = len(self.prefix)
        if n <= k:
            return self.prefix[:n]
        reps = -(-(n - k) // len(self.cycle))
        return (self.prefix + self.cycle * reps)[:n]

    def __repr__(self) -> str:  # keep reprs short in test output
        return f"Point({self.literal!r})"


def shift(x: Point) -> Point:
    """Drop the first coordinate."""
    if x.prefix:
        return Point(x.prefix[1:], x.cycle)
    return Point((), x.cycle[1:] + x.cycle[:1])


def shift_n(x: Point, n: int) -> Point:
    """Drop the first n coordinates."""
    k = len(x.prefix)
    if n <= k:
        return Point(x.prefix[n:], x.cycle)
    r = (n - k) % len(x.cycle)
    return Point((), x.cycle[r:] + x.cycle[:r])


def prepend(x: Point, word: Sequence[int]) -> Point:
    """The point word . x (word occupies the first coordinates)."""
    return Point(tuple(word) + x.prefix, x.cycle)


def first_disagreement(x: Point, y: Point) -> int | None:
    """1-based index of the first coordinate where x and y differ, or None.

    Two eventually periodic sequences that agree up to
    max(prefix lengths) + lcm(cycle lengths) agree everywhere, so the scan
    horizon below decides equality exactly.
    """
    horizon = max(len(x.prefix), len(y.prefix)) + math.lcm(len(x.cycle), len(y.cycle))
    xs, ys = x.coords(horizon), y.coords(horizon)
    for i, (a, b) in enumerate(zip(xs, ys), start=1):
        if a != b:
            return i
    return None


# ---------------------------------------------------------------------------
# Cylinder tables
# ---------------------------------------------------------------------------

def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("table entries must be finite (no NaN or inf)")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class CylinderFunction:
    """A function of the first `depth` coordinates, as a dense value table.

    values[word_index(w, d)] is the value on the cylinder [w].  Depth-0
    tables are constants.
    """

    d: int
    depth: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        size = check_table_size(self.d, self.depth)
        arr = _frozen_array(self.values)
        if arr.shape != (size,):
            raise ValueError(f"expected {size} values, got shape {arr.shape}")
        object.__setattr__(self, "values", arr)

    @classmethod
    def constant(cls, d: int, value: float, depth: int = 0) -> "CylinderFunction":
        return cls(d, depth, np.full(d ** depth, float(value)))

    @classmethod
    def indicator(cls, d: int, word: Sequence[int]) -> "CylinderFunction":
        """Indicator of the cylinder [word]."""
        word = tuple(word)
        vals = np.zeros(d ** len(word))
        vals[word_index(word, d)] = 1.0
        return cls(d, len(word), vals)

    def refine(self, depth: int) -> "CylinderFunction":
        """Re-express on the finer partition of the given depth."""
        if depth < self.depth:
            raise ValueError(f"cannot refine depth {self.depth} down to {depth}")
        if depth == self.depth:
            return self
        check_table_size(self.d, depth)
        return CylinderFunction(
            self.d, depth, np.repeat(self.values, self.d ** (depth - self.depth))
        )

    def value_at(self, x: Point) -> float:
        return float(self.values[word_index(x.coords(self.depth), self.d)])

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True)
class CylinderMeasure:
    """A finitely additive assignment of mass to the depth-m cylinders.

    weights[word_index(w, d)] is the mass of [w].  Coarsening marginalises
    the trailing coordinate; refinement of a bare table is not defined
    (it would need a conditional law), so only coarsen exists.
    """

    d: int
    depth: int
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        size = check_table_size(self.d, self.depth)
        arr = _frozen_array(self.weights)
        if arr.shape != (size,):
            raise ValueError(f"expected {size} weights, got shape {arr.shape}")
        object.__setattr__(self, "weights", arr)

    @classmethod
    def uniform(cls, d: int, depth: int) -> "CylinderMeasure":
        size = d ** depth
        return cls(d, depth, np.full(size, 1.0 / size))

    def total_mass(self) -> float:
        return float(self.weights.sum())

    def coarsen(self, depth: int) -> "CylinderMeasure":
        if depth > self.depth:
            raise ValueError(f"cannot coarsen depth {self.depth} up to {depth}")
        if depth == self.depth:
            return self
        block = self.d ** (self.depth - depth)
        return CylinderMeasure(
            self.d, depth, self.weights.reshape(-1, block).sum(axis=1)
        )

    def cylinder_mass(self, word: Sequence[int]) -> float:
        word = tuple(word)
        if len(word) > self.depth:
            raise ValueError(
                f"cylinder of depth {len(word)} not resolved at depth {self.depth}"
            )
        return float(self.coarsen(len(word)).weights[word_index(word, self.d)])


def sum_of_products(a: np.ndarray, b: np.ndarray) -> float:
    """sum_i a_i b_i for 1-d float arrays, in numpy's own loop.

    np.dot and 1-d `@` call OpenBLAS's threaded ddot, which on vectors of
    more than 10,000 entries takes milliseconds per call in some processes
    (numpy 2.4 on scipy-openblas 0.3.31, 2 vCPUs) instead of microseconds.
    """
    return float(np.einsum("i,i->", a, b))


def integrate(mu: CylinderMeasure, g: CylinderFunction) -> float:
    """Integral of a depth-q function against a depth-m measure (q <= m)."""
    if g.d != mu.d:
        raise ValueError("alphabet mismatch")
    if g.depth > mu.depth:
        raise ValueError(
            f"function depth {g.depth} exceeds measure depth {mu.depth}"
        )
    return sum_of_products(mu.weights, g.refine(mu.depth).values)
