"""Karp's maximum mean cycle (Discrete Math. 23, 1978), an oracle for the
leading eigenvalue of a table's transfer operator at any beta * osc.

The depth-m operator is the weighted de Bruijn graph whose word i has an
edge to each preimage word preimages[a, i] of weight log_weights[a, i].
Every cycle's weights repeat in the powers of the operator, and every
row has d entries, so e^{m(f)} <= lambda <= d e^{m(f)} for the maximum
mean cycle m(f): log lambda lies in [m(f), m(f) + log d].
"""

import itertools
import math

import mpmath
import numpy as np


def max_mean_cycle(op) -> float:
    """m(f) by Karp's recursion, in floats: D_j(v), the heaviest walk of j
    edges ending at v, for j <= n = op.size, and
    m = max_v min_{j < n} (D_n(v) - D_j(v)) / (n - j)."""
    n = op.size
    walks = np.zeros((n + 1, n))
    for j in range(1, n + 1):
        heaviest = np.full(n, -math.inf)
        np.maximum.at(heaviest, op.preimages.ravel(), (op.log_weights + walks[j - 1]).ravel())
        walks[j] = heaviest
    return float(np.max(np.min((walks[n] - walks[:n]) / (n - np.arange(n))[:, None], axis=0)))


def exact_log_spectral_radius(op, digits: int = 50) -> float:
    """log lambda of the operator in `digits`-digit arithmetic, at any spread.

    A diagonal similarity by Karp's max-plus eigenvector x (max_j (W_ij +
    x_j) = m(f) + x_i, x a column of the max-plus closure of W - m(f) at a
    word of a critical cycle) takes every row's largest entry to e^{m(f)}
    and leaves lambda as it is, so lambda is at least the largest entry of
    the balanced matrix, and a 50-digit solve resolves it however far the
    table spreads.  Without the balancing, lambda can lie 10^-300 below
    the matrix norm, under what 50 digits resolve."""
    n, m = op.size, max_mean_cycle(op)
    closure = np.full((n, n), -math.inf)
    rows = np.broadcast_to(np.arange(n), op.preimages.shape)
    np.maximum.at(closure, (rows.ravel(), op.preimages.ravel()), op.log_weights.ravel() - m)
    for j in range(n):  # Floyd-Warshall in (max, +): the heaviest walk of one edge or more
        closure = np.maximum(closure, closure[:, j:j + 1] + closure[j:j + 1, :])
    x = closure[:, int(np.argmax(np.diag(closure)))]  # a critical word: its closed walks weigh 0
    with mpmath.workdps(digits):
        mat = mpmath.matrix(n, n)
        for logs, pre in zip(op.log_weights, op.preimages):
            for i, (w, j) in enumerate(zip(logs, pre)):
                mat[i, int(j)] += mpmath.exp(mpmath.mpf(float(w)) + float(x[j]) - float(x[i]) - m)
        radius = max(abs(v) for v in mpmath.eig(mat, left=False, right=False))
        return float(mpmath.log(radius) + m)


def brute_max_mean_cycle(op) -> float:
    """m(f) over every simple cycle, each listed from its least word."""
    edges = {}
    for a, i in itertools.product(range(op.log_weights.shape[0]), range(op.size)):
        j = int(op.preimages[a, i])
        edges[i, j] = max(edges.get((i, j), -math.inf), float(op.log_weights[a, i]))
    best = -math.inf

    def extend(path, weight):
        nonlocal best
        for (i, j), w in edges.items():
            if i != path[-1] or j < path[0]:
                continue
            if j == path[0]:
                best = max(best, (weight + w) / len(path))
            elif j not in path:
                extend(path + [j], weight + w)

    for start in range(op.size):
        extend([start], 0.0)
    return best


def bracket(op, slack: float = 1e-9) -> tuple[float, float]:
    """[m(f), m(f) + log d], widened by `slack` relative for the rounding of
    the recursion's sums."""
    m = max_mean_cycle(op)
    pad = slack * max(1.0, abs(m))
    return m - pad, m + math.log(op.d) + pad
