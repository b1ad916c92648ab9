"""Finite-volume Gibbs kernels on the full shift, and their consistency checks.

The volume-n kernel conditioned on a boundary configuration y averages a
test function over all ways of rewriting the first n coordinates:

    kernel(g | y) = sum_w  e^{beta S_n f(w . sigma^n y)} g(w . sigma^n y)
                    / partition

where w runs over the d^n words.  Summed over w, numerator and partition
function are iterates of the Ruelle operator (L h)(x) = sum_a
e^{beta f(a x)} h(a x):

    kernel(g | y) = (L^n g)(sigma^n y) / (L^n 1)(sigma^n y).

For table-backed potentials every kernel here is computed in that form
by one engine: n operator steps on value tables of depth
D = max(depth(g), depth(f) - 1, 1), each step exact, one pass serving
every boundary (and every volume up to n) at once.  The cost grows
linearly in n, and volumes are not bounded by the table-size guard.
Potentials without a table (callables) are summed over the d^n volume
words, weighted by potentials.tail_birkhoff: sum_{j <= n} d^j
evaluations of f.

_sweep is the one fork between the two for kernel values.  Per volume
it yields the kernels of a list of test functions at a list of
boundaries, their error bounds and the log-partitions; kernel,
log_partition, tl_sequence, sandwich_check and the inner kernels of
dlr_residual read it.  A callable's tower check (finite_volume_dlr_check)
is the DLR equation of its volume-(n+r) kernel, dlr_residual of
kernel_measure.  Only kernel_measure (splitting steps),
constant_shift_check (a shifted gauge) and the table route of the tower
check (one continued pass) fork on their own.

The kernel reads y only through sigma^n y (the coordinates outside the
volume); the engine reads exactly the first D of them, so boundary
dependence is structural rather than numerical.  Its steps apply
transfer.TransferOperator in a gauge of per-row log scales, renewed and
exponentiated once per epoch, so no kernel underflows to 0 / 0 however
large beta * osc(f) is, and adding a constant to the exponent cancels in
the normalised kernel.  The word enumeration subtracts the maximum over
the words of each boundary.

The boundary-independence certificate asks many small kernels at once:
sandwich_check takes a list of draws (n, C, y, z) and reads all their
kernels from one sweep over the distinct indicators 1_[C], boundaries and
volumes, and D_estimate returns the running maxima of one pass, so one
call serves every window up to N.  Each sandwich is decided on its log
margin 2|beta| D - |log K_y - log K_z|, which stays finite where the
margin itself overflows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .potentials import (
    Hoelder,
    LocallyConstant,
    Potential,
    VariationUnavailable,
    scale,
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
    DEFAULT_MAX_ITER, DEFAULT_TOL, NumericalBreakdown, exp_or_inf, normalize, power_iterate,
    transfer_operator,
)

# Nominal rounding allowance of one computed kernel value.
_KERNEL_ROUNDING = 1e-15

_LN2 = math.log(2.0)
_EPOCH_RANGE = 512 * _LN2  # how far a row may grow or shrink within an epoch


# ---------------------------------------------------------------------------
# The kernel engine: Ruelle-operator iterates on value tables
# ---------------------------------------------------------------------------

class _Engine:
    """Iterates of the Ruelle operator L of beta*f on blocks of columns.

    A block stacks one depth-D value table per function of the first D
    coordinates (its columns; its rows are the table entries).  A step
    maps every column h to L h, so after n steps the row of the word
    (y_{n+1}, ..., y_{n+D}) holds (L^n h)(sigma^n y) for every boundary y
    at once.  Steps are exact when D covers the test functions' depth and
    the potential's reach past the preimage symbol, depth(f) - 1.  Each
    step is one application of `op`, the depth-D transfer operator of
    beta*f, in a gauge of the rows' log scales.
    """

    def __init__(self, op):
        self.op, self.d, self.depth = op, op.d, op.depth

    @classmethod
    def of(cls, f: Potential, beta: float, q: int = 0) -> "_Engine":
        """The engine of a table-backed beta*f for test functions of depth <= q."""
        depth = max(q, f.truncation_depth() - 1, 1)
        op = transfer_operator(f, depth)  # exact: depth + 1 >= depth(f)
        # the operator of beta*f, without building the potential beta*f
        return cls(replace(op, log_weights=beta * op.log_weights))

    def columns(self, tests: list[CylinderFunction]) -> np.ndarray:
        """The block [g_1, ..., g_k, 1] of depth-D value tables."""
        size = self.op.size
        return np.stack([np.repeat(g.values, size // g.values.size) for g in tests] + [np.ones(size)])

    def iterates(self, block: np.ndarray, split: int = 0, lift=None):
        """Yield (n, block_n, lift_n, exp2_n) for n = 1, 2, ...

        The n-th iterate is  block_n * exp(lift_n) * 2**exp2_n: lift_n is
        the log scale of each row and exp2_n a common power of two.  An
        epoch moves the row maxima into the lifts as exact powers of two
        and exponentiates the weights once, in the gauge of the lifts less
        the largest log-weight c, then steps while rows, growing at most
        d-fold and shrinking at most by e^(least row maximum - c) per step,
        stay within 2**512; past that, each row's own largest log-weight
        goes to its lift, one step at a time.  `lift` gives the row log
        scales of the starting block (default 0).

        The first `split` steps keep the preimage symbol apart instead of
        summing over it: column u becomes the d columns u.a.  Started from
        the constant 1, column u after j <= split steps holds
        L^j 1_[u] = e^{beta S_j f(u x)} for each word u of length j.
        """
        op, n, exp2 = self.op, 0, 0
        lift = np.zeros(op.size) if lift is None else lift
        while True:
            e = np.frexp(block.max(axis=0))[1]
            block = np.ldexp(block, -e)
            lift = lift + e * _LN2
            # whole powers of two of the largest lift go to exp2, so lifts stay small
            common = round(float(lift.max()) / _LN2)
            lift, exp2 = lift - common * _LN2, exp2 + common
            epoch = op.gauged(lift)
            row_top = epoch.log_weights.max(axis=0)
            top = float(row_top.max())
            steps = int(_EPOCH_RANGE // max(math.log(self.d), top - float(row_top.min())))
            growth = top if steps else row_top
            epoch = epoch.gauged(growth=growth)
            for k in range(1, max(steps, 1) + 1):
                n += 1
                block = epoch.terms(block).reshape(-1, op.size) if n <= split else epoch.apply(block)
                yield n, block, lift + k * growth, exp2
            lift = lift + k * growth

    def run(self, block: np.ndarray, n: int, split: int = 0, lift=None):
        """(block, lift) after n steps, in the scaling of `iterates`."""
        for _, block, lift, _ in itertools.islice(self.iterates(block, split, lift), n):
            pass
        return block, lift

    def row(self, y: Point, n: int) -> int:
        """The row a volume-n kernel at boundary y reads: y_{n+1} ... y_{n+D}."""
        return word_index(y.coords(n + self.depth)[n:], self.d)

    def sweep(self, tests, boundaries, volumes):
        """Yield (n, K, log_z) for each n of the increasing `volumes` (all >= 1):
        K[b, j] is the volume-n kernel of tests[j] at boundaries[b] and
        log_z[b] = log (L^n 1)(sigma^n boundaries[b])."""
        last = max(volumes, default=0)
        for n, block, lift, exp2 in itertools.islice(self.iterates(self.columns(tests)), last):
            if n in volumes:
                rows = [self.row(y, n) for y in boundaries]
                # L^n 1 = block[-1] * e^lift * 2**exp2 in the engine's row scaling
                log_z = np.array([math.log(block[-1, i]) + lift[i] + exp2 * _LN2 for i in rows])
                yield n, (block[:-1, rows] / block[-1, rows]).T, log_z


# ---------------------------------------------------------------------------
# Word enumeration (potentials without a table)
# ---------------------------------------------------------------------------

def _log_weights_given_tail(
    f: Potential, beta: float, n: int, tail: Point
) -> tuple[np.ndarray, float]:
    """log-weights beta * S_n f(w . tail) over all d^n words w, with bound:
    the kernel path for potentials without a table."""
    sums, err = np.zeros(1), 0.0
    for sums, err in tail_birkhoff(f, n, tail):
        pass
    return beta * sums, abs(beta) * err


def _softmax(logw: np.ndarray) -> np.ndarray:
    shifted = np.exp(logw - np.max(logw))
    return shifted / shifted.sum()


def _sweep(f: Potential, beta: float, tests, boundaries, volumes):
    """Yield (n, K, err, log_z) for each n of the increasing `volumes`:
    K[b, j] is the volume-n kernel of tests[j] at boundaries[b], err[b, j]
    a bound on its error and log_z[b] the log-partition log Z_n there.

    The one table/callable fork for kernel values: a table runs one
    engine pass, a callable sums each boundary's volume words."""
    if min(volumes, default=1) < 1:
        raise ValueError("volume must contain at least one site")
    if f.table is not None:
        eng = _Engine.of(f, beta, max((g.depth for g in tests), default=0))
        for n, K, log_z in eng.sweep(tests, boundaries, volumes):
            yield n, K, np.full(K.shape, _KERNEL_ROUNDING), log_z
        return
    for n in volumes:
        K = np.empty((len(boundaries), len(tests)))
        err = np.empty_like(K)
        log_z = np.empty(len(boundaries))
        for b, y in enumerate(boundaries):
            tail = shift_n(y, n)
            logw, werr = _log_weights_given_tail(f, beta, n, tail)
            top = np.max(logw)
            shifted = np.exp(logw - top)
            total = shifted.sum()
            log_z[b] = top + math.log(total)
            p = shifted / total  # serves every test
            # each weight carries relative error at most e^{2 werr} - 1
            spread = math.expm1(2.0 * werr)
            for j, g in enumerate(tests):
                gv = g.values[word_tail_index(g.d, n, g.depth, tail)]
                K[b, j] = sum_of_products(p, gv)
                err[b, j] = spread * float(np.max(np.abs(gv))) + _KERNEL_ROUNDING
        yield n, K, err, log_z


# ---------------------------------------------------------------------------
# Public kernel interface
# ---------------------------------------------------------------------------

def log_partition(f: Potential, beta: float, n: int, y: Point) -> float:
    """log Z_n(y), Z_n(y) = sum_w exp(beta S_n f(w . sigma^n y)) = (L^n 1)(sigma^n y),
    finite however far Z_n(y) lies outside the float range."""
    return float(next(_sweep(f, beta, [], [y], [n]))[3][0])


def kernel(
    f: Potential, beta: float, n: int, y: Point, g: CylinderFunction
) -> float:
    """The volume-n Gibbs average of g conditioned on the boundary y."""
    if g.d != f.d:
        raise ValueError("alphabet mismatch")
    return float(next(_sweep(f, beta, [g], [y], [n]))[1][0, 0])


def kernel_measure(
    f: Potential, beta: float, n: int, y: Point, depth_out: int | None = None
) -> CylinderMeasure:
    """The kernel as a measure on depth-`depth_out` cylinders (default n).

    For a table-backed potential the masses of all d^depth_out cylinders
    come from one pass: L^n 1_[u] = L^(n-k) (L^k 1_[u]) with k = depth_out,
    the inner iterates built by k splitting steps.  That pass holds
    d^(D + depth_out) values, D the engine depth, so the table-size guard
    bounds D + depth_out (the enumeration of callables bounds n).
    """
    depth_out = n if depth_out is None else depth_out
    if not 0 <= depth_out <= n:
        raise ValueError("cylinders of that depth are not resolved inside the volume")
    if f.table is None:
        logw, _ = _log_weights_given_tail(f, beta, n, shift_n(y, n))
        return CylinderMeasure(f.d, n, _softmax(logw)).coarsen(depth_out)
    eng = _Engine.of(f, beta)
    check_table_size(f.d, eng.depth + depth_out)
    block, _ = eng.run(eng.columns([]), n, split=depth_out)
    masses = block[:, eng.row(y, n)]
    return CylinderMeasure(f.d, depth_out, masses / masses.sum())


def constant_shift_check(
    f: Potential, beta: float, n: int, y: Point, g: CylinderFunction, a_n: float
) -> float:
    """|kernel from exponent beta S_n f  vs  exponent beta S_n f - a_n|.

    Shifting the exponent by a constant moves every log-weight equally and
    the max-subtraction removes it again, so this measures pure
    floating-point jitter.  For a table-backed potential the shifted
    kernel is the engine's for beta f - a_n / n.
    """
    if n < 1:
        raise ValueError("volume must contain at least one site")
    if f.table is None:
        tail = shift_n(y, n)
        logw, _ = _log_weights_given_tail(f, beta, n, tail)
        gv = g.values[word_tail_index(g.d, n, g.depth, tail)]
        k1 = sum_of_products(_softmax(logw), gv)
        k2 = sum_of_products(_softmax(logw - a_n), gv)
        return abs(k1 - k2)
    eng = _Engine.of(f, beta, g.depth)
    shifted = _Engine(eng.op.gauged(growth=a_n / n))
    k1, k2 = (next(e.sweep([g], [y], [n]))[1][0, 0] for e in (eng, shifted))
    return abs(k1 - k2)


# ---------------------------------------------------------------------------
# Consistency checks
# ---------------------------------------------------------------------------

def finite_volume_dlr_check(
    f: Potential,
    beta: float,
    n: int,
    r: int,
    z: Point,
    g: CylinderFunction,
) -> float:
    """Tower property of the kernels: averaging the volume-n kernel over the
    volume-(n+r) one reproduces the volume-(n+r) average of g.

    The inner kernel depends on its boundary through coordinates
    n+1, ..., n+r of the outer word plus t = sigma^{n+r} z.  For a
    table-backed potential the two sides take separate routes through the
    engine.  The left side reads the inner kernels at the boundaries u.t
    (|u| = r) from the rows of one n-step pass, and weighs them by the
    volume-(n+r) marginal of coordinates n+1..n+r, which is
    L^r(1_[u] L^n 1)(t) / (L^{n+r} 1)(t): r splitting steps continue the
    pass's column L^n 1.  The right side is kernel(f, beta, n + r, z, g):
    r further plain steps of the same pass.
    Otherwise the check is the DLR equation of the volume-(n+r) kernel
    itself: dlr_residual of kernel_measure(f, beta, n + r, z) at tail t.
    Returns |lhs - rhs|.
    """
    tail_z = shift_n(z, n + r)
    if f.table is None:
        return dlr_residual(f, beta, kernel_measure(f, beta, n + r, z), n, g, tail_z)[0]
    eng = _Engine.of(f, beta, g.depth)
    block, lift = eng.run(eng.columns([g]), n)
    inner = block[0] / block[1]
    check_table_size(f.d, eng.depth + r)
    marginal, _ = eng.run(block[1:], r, split=r, lift=lift)
    row = eng.row(z, n + r)
    p = marginal[:, row]
    # the inner kernel at boundary u.t reads the first D symbols of u.t
    lhs = sum_of_products(p, inner[word_tail_index(f.d, r, eng.depth, tail_z)]) / float(p.sum())
    outer, _ = eng.run(block, r, lift=lift)
    return abs(lhs - float(outer[0, row] / outer[1, row]))


def dlr_residual(
    f: Potential,
    beta: float,
    mu: CylinderMeasure,
    n: int,
    g: CylinderFunction,
    tail: Point,
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
    _, inner, errs, _ = next(_sweep(f, beta, [g], boundaries, [n]))
    suffix = np.arange(d ** M) % d ** L
    lhs = sum_of_products(mu.weights, inner[suffix, 0])
    if g.depth <= M:
        rhs = integrate(mu, g)
    else:
        rhs = sum_of_products(mu.weights, g.values[word_tail_index(d, M, g.depth, tail)])
    quad = float(np.max(errs)) * mu.total_mass() + _representative_point_bound(f, beta, M, n, g)
    return abs(lhs - rhs), quad


def _representative_point_bound(
    f: Potential, beta: float, M: int, n: int, g: CylinderFunction
) -> float:
    """Bound on replacing each depth-M cylinder by one representative point.

    The integrand's weight exponents move by at most beta * n * var_{M-n+1}(f)
    across a depth-M cylinder, and the g-values by var based on depth.
    """
    gap = 0.0
    if g.depth > M:
        gap += float(np.max(g.values) - np.min(g.values))
    try:
        osc = var_upper(f, max(M - n + 1, 1))
    except VariationUnavailable:
        return math.inf
    weight_move = abs(beta) * n * osc
    gmax = float(np.max(np.abs(g.values)))
    return gap + math.expm1(2.0 * weight_move) * gmax


# ---------------------------------------------------------------------------
# Kernel limits along growing volumes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TLRow:
    n: int
    cylinder: str
    boundary_id: str
    K_n: float
    nu_ref: float
    deviation: float


def tl_sequence(
    f: Potential,
    beta: float,
    cylinders: list[tuple[int, ...]],
    boundaries: list[Point],
    n_max: int,
    reference: CylinderMeasure | None = None,
    tol: float = DEFAULT_TOL,
) -> tuple[list[TLRow], dict[int, float]]:
    """Kernel masses of cylinders against the eigenprobability, per volume.

    For each volume n <= n_max (starting at the deepest cylinder), each
    cylinder word and each boundary point, tabulates the kernel mass, the
    eigenprobability reference, and their deviation; for a table-backed
    potential one engine pass over n serves every row.  Returns the rows and
    the per-volume worst deviation over (cylinder, boundary) pairs -- the
    sequence whose decay witnesses convergence to the eigenprobability.

    The reference defaults to power-iterated eigendata of beta*f at a
    depth resolving every requested cylinder.
    """
    if not cylinders or not boundaries:
        raise ValueError("need at least one cylinder and one boundary")
    qmax = max(len(w) for w in cylinders)
    if reference is None:
        depth = max(qmax, f.truncation_depth() - 1, 1)
        reference = power_iterate(scale(f, beta), depth, tol=tol).nu
    tests = [CylinderFunction.indicator(f.d, w) for w in cylinders]
    refs = [reference.cylinder_mass(w) for w in cylinders]
    names = ["".join(str(s) for s in w) for w in cylinders]
    ids = [y.literal for y in boundaries]
    rows: list[TLRow] = []
    worst: dict[int, float] = {}
    for n, values, _, _ in _sweep(f, beta, tests, boundaries, range(qmax, n_max + 1)):
        dev = 0.0
        for j, (name, ref) in enumerate(zip(names, refs)):
            for b, boundary_id in enumerate(ids):
                val = float(values[b, j])
                delta = abs(val - ref)
                dev = max(dev, delta)
                rows.append(
                    TLRow(
                        n=n,
                        cylinder=name,
                        boundary_id=boundary_id,
                        K_n=val,
                        nu_ref=ref,
                        deviation=delta,
                    )
                )
        worst[n] = dev
    return rows, worst


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
    f: Potential,
    beta: float,
    draws: list[tuple[int, tuple[int, ...], Point, Point]],
    D: float,
) -> list[tuple[bool, float, float]]:
    """Does  e^{-2 D beta} <= kernel([C]|y) / kernel([C]|z) <= e^{2 D beta}
    hold for each draw (n, C, y, z)?

    Returns (holds, margin, log_margin) per draw, where log_margin =
    2 |beta| D - |log K_y - log K_z| is the log of the worst of the two
    multiplicative slacks and margin = e^{log_margin} (inf past the float
    range).  holds reads the log margin, so it is decided however wide
    beta * D is.  Valid whenever sigma^n y and sigma^n z lie in the tail
    family D was estimated over.

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
    kernels = {n: K for n, K, _, _ in _sweep(f, beta, tests, list(row_of), volumes)}
    checks = []
    for n, C, y, z in draws:
        K, j = kernels[n], test_of[C]
        ky, kz = float(K[row_of[y], j]), float(K[row_of[z], j])
        if ky <= 0.0 or kz <= 0.0:
            raise NumericalBreakdown(
                "a kernel mass underflowed to 0, the sandwich ratio is out of double precision"
            )
        log_margin = 2.0 * abs(beta) * D - abs(math.log(ky) - math.log(kz))
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
) -> float:
    """Max over depth-m cylinder indicators g of |nu(g) - mu(g / psi)|.

    nu and psi are the eigenprobability and eigenfunction of f at the
    given depth, and mu is the fixed measure of the normalised potential;
    the two integrals agree because mu has density psi against nu.
    """
    rpf = power_iterate(f, depth, tol, max_iter)
    fbar = normalize(f, rpf)
    mu = power_iterate(fbar, depth, tol, max_iter).nu
    return float(np.max(np.abs(rpf.nu.weights - mu.weights / rpf.psi.values)))
