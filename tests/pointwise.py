"""Point evaluation of potentials, an oracle for their word evaluators.

The package reads a potential f on cylinders only, through
tabulate(f, length, tail).  f's value at one point x is the length-0
reading tabulate(f, 0, x); a table's is also its entry
f.table.value_at(x), which does not go through word_tail_index.  From
these readings this module builds, one point at a time, what the package
computes on all words at once: the values on every word u . tail, the
Birkhoff sum along one point, and the word evaluator of a point function.
"""

import math

import numpy as np

from ruellekit.potentials import Potential, tabulate
from ruellekit.shift import prepend, shift, word_table


def reading(f, x):
    """(f(x), its bound): the length-0 reading tabulate(f, 0, x)."""
    (v,), err = tabulate(f, 0, x)
    return float(v), err


def value(f, x):
    """(f(x), its bound): a table's entry, else the length-0 reading."""
    return (f.table.value_at(x), 0.0) if f.table is not None else reading(f, x)


def each_word(fn, d, length, tail):
    """fn(u . tail) for each of the d**length words u in word_index order,
    and the largest bound: fn returns (value, bound) at a point."""
    values = np.empty(d**length)
    err = 0.0
    for i, row in enumerate(word_table(length, d)):
        values[i], e = fn(prepend(tail, row))
        err = max(err, e)
    return values, err


def per_word(f, length, tail):
    """tabulate(f, length, tail), one length-0 reading per word."""
    return each_word(lambda x: reading(f, x), f.d, length, tail)


def from_point_function(d, fn, regularity, label=""):
    """The potential whose word evaluator calls fn once per word."""
    return Potential.from_callable(d, lambda length, tail: each_word(fn, d, length, tail), regularity, label)


def birkhoff(f, x, n):
    """S_n f(x) = f(x) + f(sigma x) + ... + f(sigma^{n-1} x), with its bound."""
    vals, errs = [], []
    for _ in range(n):
        v, e = value(f, x)
        vals.append(v)
        errs.append(e)
        x = shift(x)
    return math.fsum(vals), math.fsum(errs)
