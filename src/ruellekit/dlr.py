"""Finite-volume Gibbs kernels on the full shift, and their consistency checks.

The volume-n kernel conditioned on a boundary configuration y averages a
test function over all ways of rewriting the first n coordinates:

    kernel(g | y) = sum_w  e^{S_n f(w . sigma^n y)} g(w . sigma^n y)
                    / partition

where w runs over the d^n words.  Summed over w, numerator and partition
function are iterates of the Ruelle operator (L h)(x) = sum_a
e^{f(a x)} h(a x):

    kernel(g | y) = (L^n g)(sigma^n y) / (L^n 1)(sigma^n y).

Every function here sums the potential f it is given: the specification
at inverse temperature beta is the kernel of the potential beta*f, which
the caller forms with potentials.scale.

For table-backed potentials the kernels of test functions are computed
in that form by one engine, the iterates of transfer.iterates: n
operator steps on value tables of depth D = max(depth(g), depth(f) - 1,
1), each step exact, one pass serving every boundary (and every volume
up to n) at once.  The cost grows linearly in n, and volumes are not
bounded by the table-size guard.
Potentials without a table (callables) are summed over the d^n volume
words, weighted by potentials.tail_birkhoff: sum_{j <= n} d^j
evaluations of f.

_sweep is the one fork between the two for kernel values.  Per volume
it yields the kernels of a list of test functions at a list of
boundaries, their error bounds and the log-partitions; kernel,
log_partition, tl_sequence, sandwich_check and the inner kernels of
dlr_residual read it.  kernel_measure, the kernel as a measure on the
volume's cylinders, is that word enumeration for every potential: the
d^n normalised word weights, bounded by the table-size guard.  A
callable's tower check (finite_volume_dlr_check) is the DLR equation of
its volume-(n+r) kernel, dlr_residual of kernel_measure.  Only
constant_shift_check (a shifted gauge) and the table route of the tower
check fork on their own.  The tower check takes a list of cases
(f, z, g) and steps all its table cases on one engine: each case's
operator is one block of a disjoint union (transfer.disjoint_union), so
one n-step pass and its two continuations (r splitting steps, r plain
steps) serve every case, whatever their number.

tl_sequence returns its kernels as arrays, one TLTable: K[v, j, b] is the
kernel mass of cylinder j at boundary b in the v-th volume, the stack of
the per-volume K of one sweep, next to the reference masses nu_ref[j];
the deviations |K - nu_ref| and each volume's worst deviation are one
array operation each.

The kernel reads y only through sigma^n y (the coordinates outside the
volume); the engine reads exactly the first D of them, so boundary
dependence is structural rather than numerical.  Its steps are those of
transfer.Iterate, which power iteration steps on as well: the operator
in a gauge of per-row log scales, renewed and exponentiated once per
epoch, so no kernel underflows to 0 / 0 however large osc(f) is, and
adding a constant to the exponent cancels in the normalised kernel.
The word enumeration subtracts the maximum over the words of each
boundary.

The boundary-independence certificate asks many small kernels at once:
sandwich_check takes a list of draws (n, C, y, z) and reads all their
kernels from one sweep over the distinct indicators 1_[C], boundaries and
volumes, and D_estimate returns the running maxima of one pass, so one
call serves every window up to N.  Each sandwich is decided on its log
margin 2 D - |log K_y - log K_z|, which stays finite where the margin
itself overflows.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import shift, transfer
from .potentials import (
    Hoelder,
    LocallyConstant,
    Potential,
    VariationUnavailable,
    tail_birkhoff,
    var_upper,
)
from .shift import (
    CylinderFunction,
    CylinderMeasure,
    Point,
    check_table_size,
    integrate,
    prepend,
    shift_n,
    sum_of_products,
    word_index,
    word_table,
    word_tail_index,
)
from .transfer import (
    DEFAULT_MAX_ITER, DEFAULT_TOL, disjoint_union, exp_or_inf, normalize, power_iterate, transfer_operator,
)

_LN2 = math.log(2.0)


class NumericalBreakdown(ValueError):
    """Raised when a computation on valid input leaves the float range."""


def _kernel_rounding(d: int, n: int) -> float:
    """Rounding allowance of one volume-n kernel of a test function bounded
    by 1 in absolute value: four units of rounding per summand of n sums of
    d terms, for the table route's n steps (the callable route's one sum
    over the d^n words is d**n terms, n = 1); it scales with max |g|."""
    return 4.0 * d * n * sys.float_info.epsilon / 2.0


# ---------------------------------------------------------------------------
# The kernel reads of transfer.iterates: Ruelle-operator iterates on value tables
# ---------------------------------------------------------------------------
#
# A block stacks one depth-D value table per function of the first D
# coordinates (its columns; its rows are the table entries).  A step maps
# every column h to L h, so after n steps the row of the word
# (y_{n+1}, ..., y_{n+D}) holds (L^n h)(sigma^n y) for every boundary y at
# once.  Steps are exact when D covers the test functions' depth and the
# potential's reach past the preimage symbol, depth(f) - 1.

def _engine_depth(f: Potential, q: int) -> int:
    """The engine depth D = max(q, depth(f) - 1, 1) for test functions of
    depth <= q: steps are exact once D covers the tests and f's reach past
    the preimage symbol."""
    return max(q, f.truncation_depth() - 1, 1)


def _engine(f: Potential, q: int = 0):
    """The depth-D operator of a table-backed f for test functions of depth <= q."""
    return transfer_operator(f, _engine_depth(f, q))  # exact: depth + 1 >= depth(f)


def _columns(op, tests: list[CylinderFunction]) -> np.ndarray:
    """The block [g_1, ..., g_k, 1] of depth-D value tables."""
    return np.stack([np.repeat(g.values, op.size // g.values.size) for g in tests] + [np.ones(op.size)])


def _row(op, y: Point, n: int) -> int:
    """The row a volume-n kernel at boundary y reads: y_{n+1} ... y_{n+D}."""
    return word_index(y.coords(n + op.depth)[n:], op.d)


def _engine_sweep(op, tests, boundaries, volumes):
    """Yield (n, K, log_z) for each n of the increasing `volumes` (all >= 1):
    K[b, j] is the volume-n kernel of tests[j] at boundaries[b] and
    log_z[b] = log (L^n 1)(sigma^n boundaries[b])."""
    last, depth, d = max(volumes, default=0), op.depth, op.d
    # one read per boundary: y.coords(n + D) at every volume is quadratic in n
    coords = np.array([y.coords(last + depth) for y in boundaries], dtype=np.int64)
    coords = coords.reshape(len(boundaries), last + depth)
    # the kernels read y_{n+1} ... y_{n+D}: every coordinate from the first volume on
    top = int(coords[:, min(volumes, default=0):].max(initial=0))
    if top >= d:
        raise ValueError(f"symbol {top} outside alphabet of size {d}")
    # rows[b, n]: the row a volume-n kernel at boundaries[b] reads, y_{n+1} ... y_{n+D}
    rows = coords[:, :last + 1]
    for k in range(1, depth):
        rows = rows * d + coords[:, k:k + last + 1]
    for n, block, lift, exp2 in itertools.islice(transfer.iterates(op, _columns(op, tests)), last):
        if n in volumes:
            r = rows[:, n]
            z = block[-1, r]
            # L^n 1 = z * e^lift * 2**exp2 in the iterate's row scaling
            yield n, (block[:-1, r] / z).T, np.log(z) + lift[r] + exp2 * _LN2


# ---------------------------------------------------------------------------
# Word enumeration (potentials without a table)
# ---------------------------------------------------------------------------

def _log_weights_given_tail(f: Potential, n: int, tail: Point) -> tuple[np.ndarray, float]:
    """log-weights S_n f(w . tail) over all d^n words w, with bound:
    the kernel path for potentials without a table, and kernel_measure's."""
    sums, err = np.zeros(1), 0.0
    for sums, err in tail_birkhoff(f, n, tail):
        pass
    return sums, err


def _normalised(logw: np.ndarray) -> tuple[np.ndarray, float]:
    """(e^logw / Z, log Z), Z = sum e^logw, with the largest log-weight
    subtracted before exponentiating."""
    top = np.max(logw)
    shifted = np.exp(logw - top)
    total = shifted.sum()
    return shifted / total, top + math.log(total)


def _sweep(f: Potential, tests, boundaries, volumes):
    """Yield (n, K, err, log_z) for each n of the increasing `volumes`:
    K[b, j] is the volume-n kernel of tests[j] at boundaries[b], err[b, j]
    a bound on its error and log_z[b] the log-partition log Z_n there.

    The one table/callable fork for kernel values: a table runs one
    engine pass, a callable sums each boundary's volume words."""
    if min(volumes, default=1) < 1:
        raise ValueError("volume must contain at least one site")
    if f.table is not None:
        op = _engine(f, max((g.depth for g in tests), default=0))
        sizes = np.array([np.max(np.abs(g.values)) for g in tests])  # max |g| per test
        for n, K, log_z in _engine_sweep(op, tests, boundaries, volumes):
            yield n, K, np.full(K.shape, _kernel_rounding(f.d, n)) * sizes, log_z
        return
    for n in volumes:
        K = np.empty((len(boundaries), len(tests)))
        err = np.empty_like(K)
        log_z = np.empty(len(boundaries))
        for b, y in enumerate(boundaries):
            tail = shift_n(y, n)
            logw, werr = _log_weights_given_tail(f, n, tail)
            p, log_z[b] = _normalised(logw)  # p serves every test
            # each weight carries relative error at most e^{2 werr} - 1
            spread = math.expm1(2.0 * werr)
            for j, g in enumerate(tests):
                gv = g.values[word_tail_index(g.d, n, g.depth, tail)]
                K[b, j] = sum_of_products(p, gv)
                err[b, j] = (spread + _kernel_rounding(f.d**n, 1)) * float(np.max(np.abs(gv)))
        yield n, K, err, log_z


# ---------------------------------------------------------------------------
# Public kernel interface
# ---------------------------------------------------------------------------

def log_partition(f: Potential, n: int, y: Point) -> float:
    """log Z_n(y), Z_n(y) = sum_w exp(S_n f(w . sigma^n y)) = (L^n 1)(sigma^n y),
    finite however far Z_n(y) lies outside the float range."""
    return float(next(_sweep(f, [], [y], [n]))[3][0])


def kernel(f: Potential, n: int, y: Point, g: CylinderFunction) -> float:
    """The volume-n Gibbs average of g conditioned on the boundary y."""
    if g.d != f.d:
        raise ValueError("alphabet mismatch")
    return float(next(_sweep(f, [g], [y], [n]))[1][0, 0])


def kernel_measure(f: Potential, n: int, y: Point) -> CylinderMeasure:
    """The kernel as a measure on the depth-n cylinders: the normalised
    weights of the d^n volume words, for a table and a callable alike;
    the table-size guard bounds d^n.  CylinderMeasure.coarsen gives its
    marginal on shallower cylinders.
    """
    logw, _ = _log_weights_given_tail(f, n, shift_n(y, n))
    return CylinderMeasure(f.d, n, _normalised(logw)[0])


def constant_shift_check(
    f: Potential, n: int, y: Point, g: CylinderFunction, a_n: float
) -> float:
    """|kernel from exponent S_n f  vs  exponent S_n f - a_n|.

    Shifting the exponent by a constant moves every log-weight equally and
    the max-subtraction removes it again, so this measures pure
    floating-point jitter.  For a table-backed potential the shifted
    kernel is the engine's for f - a_n / n.
    """
    if n < 1:
        raise ValueError("volume must contain at least one site")
    if f.table is None:
        tail = shift_n(y, n)
        logw, _ = _log_weights_given_tail(f, n, tail)
        gv = g.values[word_tail_index(g.d, n, g.depth, tail)]
        k1 = sum_of_products(_normalised(logw)[0], gv)
        k2 = sum_of_products(_normalised(logw - a_n)[0], gv)
        return abs(k1 - k2)
    op = _engine(f, g.depth)
    k1, k2 = (next(_engine_sweep(o, [g], [y], [n]))[1][0, 0] for o in (op, op.gauged(growth=a_n / n)))
    return abs(k1 - k2)


# ---------------------------------------------------------------------------
# Consistency checks
# ---------------------------------------------------------------------------

def finite_volume_dlr_check(
    n: int, r: int, cases: list[tuple[Potential, Point, CylinderFunction]]
) -> list[float]:
    """Tower property of the kernels, one residual |lhs - rhs| per case
    (f, z, g): averaging the volume-n kernel of f over the
    volume-(n+r) one at boundary z reproduces the volume-(n+r) average of g.

    The inner kernel depends on its boundary through coordinates
    n+1, ..., n+r of the outer word plus t = sigma^{n+r} z.  For a
    table-backed f the two sides take separate routes through the
    engine.  The left side reads the inner kernels at the boundaries u.t
    (|u| = r) from the rows of one n-step pass, and weighs them by the
    volume-(n+r) marginal of coordinates n+1..n+r, which is
    L^r(1_[u] L^n 1)(t) / (L^{n+r} 1)(t): r splitting steps continue the
    pass's column L^n 1.  The right side is the volume-(n+r) kernel of g:
    r further plain steps of the same pass.

    The table cases take those three passes together.  Case j's operator
    of f_j at depth D_j = max(depth(g_j), depth(f_j) - 1, 1) is block
    j of one disjoint union (transfer.disjoint_union), which keeps each
    case's preimages inside its own block, and each case reads its rows at
    its block's offset.  Cases are packed in order into as few unions as
    keep the split block, d**r times the union's size, within the
    table-size guard; a case that alone exceeds it is refused before any
    work.  A one-case union is the case's own operator, so a case checked
    alone gets the per-case value bitwise; in a batch it moves only by
    the rounding of the engine's shared row gauge.
    For a callable f the check is the DLR equation of the volume-(n+r)
    kernel itself: dlr_residual of kernel_measure(f, n + r, z) at
    tail t.
    """
    if n < 1:
        raise ValueError("volume must contain at least one site")
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    if len({f.d for f, _, _ in cases} | {g.d for _, _, g in cases}) > 1:
        raise ValueError("alphabet mismatch: tower check cases must share one alphabet")
    splits = {}  # table case -> the entries of its split block, d**(D_j + r)
    for j, (f, _, g) in enumerate(cases):
        if f.table is None:
            check_table_size(f.d, n + r)  # the volume-(n+r) words
        else:
            splits[j] = check_table_size(f.d, _engine_depth(f, g.depth) + r)
    passes, size = [], 0
    for j, entries in splits.items():
        if not passes or size + entries > shift.MAX_TABLE_ENTRIES:
            passes.append([])
            size = 0
        passes[-1].append(j)
        size += entries
    residuals = [0.0] * len(cases)
    for batch in passes:
        for j, res in zip(batch, _tower_pass(n, r, [cases[j] for j in batch])):
            residuals[j] = res
    for j, (f, z, g) in enumerate(cases):
        if f.table is None:
            mu = kernel_measure(f, n + r, z)
            residuals[j] = dlr_residual(f, mu, n, g, shift_n(z, n + r))[0]
    return residuals


def _tower_pass(n: int, r: int, cases) -> list[float]:
    """The tower residuals of table cases (f, z, g), from one engine on the
    disjoint union of their operators (see finite_volume_dlr_check)."""
    ops = [_engine(f, g.depth) for f, _, g in cases]
    starts = np.cumsum([0] + [op.size for op in ops[:-1]])
    reads = []
    for op, start, (_, z, _) in zip(ops, starts, cases):
        tail = shift_n(z, n + r)
        # the outer kernels read the first D symbols of t, the inner ones
        # at boundary u.t the first D symbols of u.t
        row = start + word_index(tail.coords(op.depth), op.d)
        reads.append((row, start + word_tail_index(op.d, r, op.depth, tail)))
    union = disjoint_union(ops)
    tests = np.concatenate([np.repeat(g.values, op.size // g.values.size) for op, (_, _, g) in zip(ops, cases)])
    block, lift = transfer.run(union, np.stack([tests, np.ones(union.size)]), n)
    inner = block[0] / block[1]
    marginal, _ = transfer.run(union, block[1:], r, split=r, lift=lift)
    outer, _ = transfer.run(union, block, r, lift=lift)
    residuals = []
    for row, cells in reads:
        p = marginal[:, row]
        lhs = sum_of_products(p, inner[cells]) / float(p.sum())
        residuals.append(abs(lhs - float(outer[0, row] / outer[1, row])))
    return residuals


def dlr_residual(
    f: Potential, mu: CylinderMeasure, n: int, g: CylinderFunction, tail: Point
) -> tuple[float, float]:
    """How far mu is from solving the volume-n equation  mu(kernel(g|.)) = mu(g).

    mu lives on depth-M cylinders, each represented by the point
    word . tail when the integrand reads past depth M.  Returns
    (residual, quadrature_bound): the integrand x -> kernel(g|x) depends
    on coordinates n+1, ..., max(n + depth(f) - 1, depth(g)); when M
    covers that range the quadrature bound is zero (representative points
    are exact) and the residual measures mu itself.  Otherwise the bound
    accumulates variation estimates for the unresolved coordinates.
    The d^(M-n) inner kernels come from one sweep, read at one
    representative boundary 0^n . u . tail per word u of coordinates
    n+1..M (the kernel reads its boundary past the volume only).
    """
    d = f.d
    if mu.d != d or g.d != d:
        raise ValueError("alphabet mismatch")
    M = mu.depth
    if M < n:
        raise ValueError(f"measure depth {M} does not resolve the volume {n}")
    L = M - n
    boundaries = [prepend(tail, (0,) * n + tuple(u)) for u in word_table(L, d)]
    _, inner, errs, _ = next(_sweep(f, [g], boundaries, [n]))
    suffix = np.arange(d ** M) % d ** L
    lhs = sum_of_products(mu.weights, inner[suffix, 0])
    if g.depth <= M:
        rhs = integrate(mu, g)
    else:
        rhs = sum_of_products(mu.weights, g.values[word_tail_index(d, M, g.depth, tail)])
    quad = float(np.max(errs)) * mu.total_mass() + _representative_point_bound(f, M, n, g)
    return abs(lhs - rhs), quad


def _representative_point_bound(f: Potential, M: int, n: int, g: CylinderFunction) -> float:
    """Bound on replacing each depth-M cylinder by one representative point.

    The integrand's weight exponents move by at most n * var_{M-n+1}(f)
    across a depth-M cylinder, and the g-values by var based on depth.
    """
    gap = 0.0
    if g.depth > M:
        gap += float(np.max(g.values) - np.min(g.values))
    try:
        osc = var_upper(f, max(M - n + 1, 1))
    except VariationUnavailable:
        return math.inf
    gmax = float(np.max(np.abs(g.values)))
    return gap + math.expm1(2.0 * n * osc) * gmax


# ---------------------------------------------------------------------------
# Kernel limits along growing volumes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TLTable:
    """Kernel masses of cylinders along growing volumes, against a reference.

    K[v, j, b] is the volume-volumes[v] kernel mass of cylinder j at
    boundary b and nu_ref[j] the reference mass of cylinder j; cylinders and
    boundary_ids name the j and b axes.  converged is False when the
    power iteration that gave nu_ref stopped short of its tolerance.
    """

    volumes: np.ndarray
    cylinders: list[str]
    boundary_ids: list[str]
    K: np.ndarray
    nu_ref: np.ndarray
    converged: bool = True

    @cached_property
    def deviation(self) -> np.ndarray:
        """|K - nu_ref|, entry by entry."""
        return np.abs(self.K - self.nu_ref[:, None])

    @cached_property
    def worst(self) -> np.ndarray:
        """The largest deviation of each volume over cylinders and boundaries."""
        return self.deviation.max(axis=(1, 2))


def tl_sequence(
    f: Potential,
    cylinders: list[tuple[int, ...]],
    boundaries: list[Point],
    n_max: int,
    reference: CylinderMeasure | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> TLTable:
    """Kernel masses of cylinders against the eigenprobability, per volume.

    Tabulates the kernel mass of each cylinder word at each boundary point
    for every volume n from the deepest cylinder's length to n_max, next to
    the cylinder's reference mass; for a table-backed potential one engine
    pass over n serves the whole table.  Its worst deviation per volume,
    over (cylinder, boundary) pairs, is the sequence whose decay witnesses
    convergence to the eigenprobability.

    The reference defaults to power-iterated eigendata of f at a depth
    resolving every requested cylinder, within tol and max_iter; the
    table's converged flag is that iteration's (True for a given
    reference).
    """
    if not cylinders or not boundaries:
        raise ValueError("need at least one cylinder and one boundary")
    qmax = max(len(w) for w in cylinders)
    converged = True
    if reference is None:
        rpf = power_iterate(f, _engine_depth(f, qmax), tol, max_iter)
        reference, converged = rpf.nu, rpf.converged
    tests = [CylinderFunction.indicator(f.d, w) for w in cylinders]
    volumes = range(qmax, n_max + 1)
    K = np.empty((len(volumes), len(tests), len(boundaries)))
    for v, (_, values, _, _) in enumerate(_sweep(f, tests, boundaries, volumes)):
        K[v] = values.T
    return TLTable(
        volumes=np.array(volumes, dtype=np.int64),
        cylinders=["".join(str(s) for s in w) for w in cylinders],
        boundary_ids=[y.literal for y in boundaries],
        K=K,
        nu_ref=np.array([reference.cylinder_mass(w) for w in cylinders]),
        converged=converged,
    )


# ---------------------------------------------------------------------------
# Boundary-independence certificates
# ---------------------------------------------------------------------------

def default_tails(d: int) -> list[Point]:
    """The default tail set for D_estimate: constants, plus 0101... for d = 2."""
    tails = [Point.constant(s) for s in range(d)]
    if d == 2:
        tails.append(Point.periodic((0, 1)))
    return tails


def D_estimate(
    f: Potential, N: int, tails: list[Point] | None = None
) -> tuple[list[float], float]:
    """Worst oscillation of S_n f across tail choices, for each window n <= N,
    plus bound.

    values[n] = max over k <= n, over length-k words w, over pairs t, t'
    from the tail set, of |S_k f(w.t) - S_k f(w.t')|, for n = 0, ..., N
    (values[0] = 0): the running maxima of one pass, so values[-1] is the
    estimate at N and values[n] the one a shorter window n would give.
    bound is the metadata majorant sum_{i>=1} var_i(f) (finite for
    locally-constant and Hoelder regularity, inf otherwise).  tail_birkhoff
    gives S_k f(w.t) for every w.  For a depth-m table only the last m - 1
    terms of S_k f(w.t) read t, and they read only the last m - 1 symbols
    of w, so every k >= m - 1 gives the same maximum: tables stop at
    k = min(N, m - 1) and repeat that maximum up to N.
    """
    tails = default_tails(f.d) if tails is None else tails
    if len(tails) < 2:
        raise ValueError("need at least two tails to compare")
    n_max = min(N, f.truncation_depth() - 1) if f.table is not None else N
    values = [0.0]
    # each tail's pass checks d**n_max against the size guard before any work
    for sums in zip(*(tail_birkhoff(f, n_max, t) for t in tails)):
        stack = np.stack([s for s, _ in sums])
        values.append(max(values[-1], float(np.max(stack.max(axis=0) - stack.min(axis=0)))))
    values += values[-1:] * (N + 1 - len(values))
    return values, _variation_sum_bound(f)


def _variation_sum_bound(f: Potential) -> float:
    """sum_{i>=1} var_i(f) from metadata: exact finite sum for
    locally-constant potentials, the closed geometric form for Hoelder,
    inf when no summable closed form exists."""
    reg = f.regularity
    if isinstance(reg, LocallyConstant):
        return math.fsum(var_upper(f, i) for i in range(1, max(reg.depth, 1)))
    if isinstance(reg, Hoelder):
        q = 2.0 ** (-reg.gamma)
        return reg.constant * q / (1.0 - q)
    return math.inf


def sandwich_check(
    f: Potential, draws: list[tuple[int, tuple[int, ...], Point, Point]], D: float
) -> list[tuple[bool, float, float]]:
    """Does  e^{-2 D} <= kernel([C]|y) / kernel([C]|z) <= e^{2 D}  hold for
    each draw (n, C, y, z), D the boundary-oscillation constant of f?

    Returns (holds, margin, log_margin) per draw, where log_margin =
    2 D - |log K_y - log K_z| is the log of the worst of the two
    multiplicative slacks and margin = e^{log_margin} (inf past the float
    range).  holds reads the log margin, so it is decided however wide
    D is.  Valid whenever sigma^n y and sigma^n z lie in the tail family
    D was estimated over.

    Every kernel comes from one sweep over the distinct indicators 1_[C],
    boundaries and volumes; for a table-backed potential that is one
    engine pass at the depth of the deepest cylinder.  A shallower
    indicator lifted to that depth repeats its rows and the engine rescales
    each row by its constant-1 column, so every kernel is bitwise the one
    kernel() gives for its draw alone.  The kernel masses are positive; one
    that underflows to 0 raises NumericalBreakdown.
    """
    if any(n < len(C) for n, C, _, _ in draws):
        raise ValueError("volume must resolve the cylinder")
    test_of = {C: j for j, C in enumerate(dict.fromkeys(C for _, C, _, _ in draws))}
    row_of = {p: b for b, p in enumerate(dict.fromkeys(p for _, _, y, z in draws for p in (y, z)))}
    tests = [CylinderFunction.indicator(f.d, C) for C in test_of]
    volumes = sorted({n for n, _, _, _ in draws})
    kernels = {n: K for n, K, _, _ in _sweep(f, tests, list(row_of), volumes)}
    checks = []
    for n, C, y, z in draws:
        K, j = kernels[n], test_of[C]
        ky, kz = float(K[row_of[y], j]), float(K[row_of[z], j])
        if ky <= 0.0 or kz <= 0.0:
            raise NumericalBreakdown(
                "a kernel mass underflowed to 0, the sandwich ratio is out of double precision"
            )
        log_margin = 2.0 * D - abs(math.log(ky) - math.log(kz))
        checks.append((log_margin >= 0.0, exp_or_inf(log_margin), log_margin))
    return checks


# ---------------------------------------------------------------------------
# Change of measure (eigenprobability vs normalised fixed point)
# ---------------------------------------------------------------------------

def change_of_measure_check(
    f: Potential,
    depth: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[float, bool]:
    """Max over depth-m cylinder indicators g of |nu(g) - mu(g / psi)|,
    and whether both power iterations behind it converged.

    nu and psi are the eigenprobability and eigenfunction of f at the
    given depth, and mu is the fixed measure of the normalised potential;
    the two integrals agree because mu has density psi against nu.
    """
    rpf = power_iterate(f, depth, tol, max_iter)
    psi = rpf.psi.values  # refused past the float range
    fixed = power_iterate(normalize(f, rpf), depth, tol, max_iter)
    deviation = float(np.max(np.abs(rpf.nu.weights - fixed.nu.weights / psi)))
    return deviation, rpf.converged and fixed.converged
