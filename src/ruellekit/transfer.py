"""Transfer operator at finite cylinder depth and its leading eigendata.

For a potential f the operator acts on functions by
(L_f g)(x) = sum over one-step preimages a.x of exp(f(a.x)) g(a.x).
Restricted to depth-m tables it becomes a d**m x d**m matrix with d
positive entries per row: the weight of row w and preimage symbol a is
exp(f(a w_1 ... w_m tail...)), where the potential is truncated at depth
m+1 with the all-zero reference tail (potentials.REFERENCE_TAIL).  The
truncation is exact for locally-constant potentials of depth <= m+1.

TransferOperator is the one code applying L_f and its adjoint, for power
iteration and dlr's kernels alike, each one gather over its preimage
index, in a gauge (h, c) of row log scales: the matrix D_{h+c}^{-1} L_f D_h.
power_iterate is the one route to the leading
eigenvalue lambda (log lambda is the finite-depth pressure), the positive
eigenfunction psi, and the eigenprobability nu of the adjoint, with the
normalisations nu(whole space) = 1 and integral of psi against nu = 1.
The iteration starts from the constant function / uniform measure
(deterministic) and reaches its iterates in one of three ways.

- Squared: a table whose iteration depth has at most _SQUARE_ENTRIES
  words squares its dense matrix, scaled by the maximum after each
  product, until a product changes the scaled power by at most sqrt(tol)
  (the next would change it by about tol) or the next would pass
  max_iter.  The row and column sums of L^(2^j) are the power iterates
  of psi and nu after 2^j Ruelle steps, and `iterations` counts them so.
- Strided: callables, tables above that cap, and a squared pair that
  has not converged take the next iterate three Ruelle steps further on
  after each check, with one application of L^3 (TransferOperator.power)
  and its adjoint, so one residual check serves four steps.  A pass takes
  one plain step instead when four would pass max_iter, and so does
  every pass when the L^3 table would hold more than _STRIDE_ENTRIES
  entries (there its gather costs more than the checks it saves) or a
  weight of L is below the normal float range (there L^3's iterates
  part from the steps').
- Plain: each pass applies L and its adjoint once: the products L psi
  and L* nu give the Rayleigh quotient and the residuals of the current
  (psi, nu), and the stop rule reads them.  Plain steps check the
  squared and strided iterates, and the last checks are of the pair
  at the requested depth.

The iteration stops when both relative residuals fall under tol, and
returns the vectors whose residuals it reports.  Squaring makes a table
run report more `iterations` than stepping would, rounded up to a power
of two plus its checks (e.g. 30 -> 66), with far fewer operator calls.

A table potential of depth m reads only a w_1 ... w_{m-1}, so its
eigendata are fixed by the depth-(m-1) words: every pass of power_iterate
runs on depth k = min(max(m-1, 1), D) tables, and no depth-D operator is
built.  The depth-D pair is the lift of the depth-k one (psi repeated,
nu([a w]) = e^{f(a w)} nu([w]) / lambda level by level), and its
residuals, checked once the depth-k pair has converged, are read from
depth-k tables (_lifted).  RPFData builds the depth-D psi and nu when
they are first read, so `pressure` at any depth allocates only depth-k
tables.  Callables iterate at D throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .potentials import REFERENCE_TAIL, Potential, tabulate, var_upper
from .shift import CylinderFunction, CylinderMeasure, check_table_size, sum_of_products

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000
# Ruelle steps per residual check: one plain step and one of L^(_STRIDE-1)
_STRIDE = 4
# the largest L^(_STRIDE-1) table power_iterate builds; past it the gather
# of a stride costs more than the three checks it saves
_STRIDE_ENTRIES = 2**14
# the most words of a table iteration depth power_iterate squares the
# matrix of: an einsum product costs ~3 us at 8 words, ~91 us at 64, where
# stepping wins
_SQUARE_ENTRIES = 32
# the smallest positive normal float
_TINY = float(np.finfo(float).tiny)


class NumericalBreakdown(ValueError):
    """Raised when a computation on valid input leaves the float range."""


def exp_or_inf(x: float) -> float:
    """e^x, inf when it exceeds the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class TransferOperator:
    """Depth-m matrix form of L_f (weights laid out per preimage symbol).

    weights[a, i] multiplies the value of the argument at the child word
    (a, w_1, ..., w_{m-1}) when producing the output at word w = index i.
    Their logs are f(a w), plus h[preimages[a, i]] - h[i] - c in a gauge.
    The table of L^p (`power`) has one row per preimage word u of length p
    in place of a.  A disjoint union of operators (disjoint_union) lays
    their tables side by side in one.
    """

    d: int
    depth: int
    log_weights: np.ndarray    # shape (d, size)
    preimages: np.ndarray      # [a, i]: index of the child word (a, w_1, ..., w_{m-1}) of word i
    truncation_bound: float    # certified bound on the dropped tail-dependence

    @property
    def size(self) -> int:
        """Entries of the tables it acts on: d**depth for an operator of one
        depth, the sum of its blocks' sizes for a disjoint union, whose
        preimages never leave the block of their row."""
        return self.log_weights.shape[-1]

    @cached_property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)

    def gauged(self, scale=None, growth=0.0) -> "TransferOperator":
        """D_{scale+growth}^{-1} L D_scale: from tables with row log scales
        `scale` (default 0) to tables with row log scales scale + growth."""
        logs = self.log_weights if scale is None else self.log_weights + scale[self.preimages] - scale
        return TransferOperator(self.d, self.depth, logs - growth, self.preimages, self.truncation_bound)

    def power(self, p: int) -> "TransferOperator":
        """L^p in the same layout, gauged by its own largest log-weight:
        the row of the preimage word u = u_1 ... u_p (lexicographic index)
        weighs the child word u w of word w by the product of the p steps'
        weights, e^{S_p f(u w)} in the operator's gauge.

        The gauge keeps the largest weight at 1, so a table whose
        lambda^(p-1) lies below the float range still has weights."""
        logs, pre = self.log_weights, self.preimages
        for _ in range(p - 1):
            # a symbol b in front of every child word: row b * d**j + row
            logs = (self.log_weights[:, pre] + logs).reshape(-1, self.size)
            pre = self.preimages[:, pre].reshape(-1, self.size)
        return TransferOperator(self.d, self.depth, logs - logs.max(), pre, self.truncation_bound)

    def terms(self, values: np.ndarray) -> np.ndarray:
        """The summands of L per preimage symbol, shape (..., d, d**m)."""
        return self.weights * values.take(self.preimages, axis=-1)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """One application of L_f to a depth-m value table (or a stack of them)."""
        return self.terms(values).sum(axis=-2)

    def dual_apply(self, weights: np.ndarray) -> np.ndarray:
        """One application of the adjoint to a depth-m weight table."""
        return np.bincount(
            self.preimages.ravel(), (self.weights * weights).ravel(), minlength=self.size
        )

    def matrix(self) -> np.ndarray:
        """Dense d**m x d**m matrix (small depths only)."""
        if self.size ** 2 > 2 ** 22:
            raise ValueError("dense matrix would exceed the size guard")
        mat = np.zeros((self.size, self.size))
        rows = np.arange(self.size)
        for pre, weights in zip(self.preimages, self.weights):
            mat[rows, pre] += weights
        return mat


def disjoint_union(ops: list[TransferOperator]) -> TransferOperator:
    """The operators of `ops` side by side, as one operator on the
    concatenation of their tables.

    Block j holds ops[j]'s log-weights, and its preimages offset by the
    block's start, so every preimage stays inside its own block: apply,
    terms and dual_apply act on each block as its own operator does,
    bitwise.  The union has the deepest block's depth and the largest
    truncation bound; a union of one operator is that operator.
    """
    if len({op.d for op in ops}) != 1:
        raise ValueError("a disjoint union needs operators on one alphabet")
    if len(ops) == 1:
        return ops[0]
    starts = np.cumsum([0] + [op.size for op in ops[:-1]])
    return TransferOperator(
        ops[0].d,
        max(op.depth for op in ops),
        np.concatenate([op.log_weights for op in ops], axis=-1),
        np.concatenate([op.preimages + start for op, start in zip(ops, starts)], axis=-1),
        max(op.truncation_bound for op in ops),
    )


@lru_cache(maxsize=16)
def _preimage_index(d: int, depth: int) -> np.ndarray:
    """[a, i]: the index a * d**(m-1) + i // d of the child word
    (a, w_1, ..., w_{m-1}) of the depth-m word i.

    One array per (d, m), shared by every operator of that shape and never
    written.  It keeps its writeable flag: np.take and np.bincount copy a
    read-only index on every call (5-10x slower at depth 16).
    """
    return np.arange(d)[:, None] * d ** (depth - 1) + np.arange(d ** depth) // d


def transfer_operator(f: Potential, depth: int) -> TransferOperator:
    """Build the depth-m operator L_f from the depth-(m+1) truncation of f."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    values, err = tabulate(f, depth + 1, REFERENCE_TAIL)
    # a table was checked when it was built; a callable's values are checked here
    if f.table is None and not np.all(np.isfinite(values)):
        raise ValueError("potential values must be finite (no NaN or inf)")
    bound = err + var_upper(f, depth + 1)
    d = f.d
    # extended word (a, w) has index a * d**m + index(w): reshape splits off a.
    return TransferOperator(d, depth, values.reshape(d, d ** depth), _preimage_index(d, depth), bound)


@dataclass(frozen=True)
class RPFData:
    """Leading eigendata of the depth-m transfer operator.

    lam > 0 is simple and equals the spectral radius (the matrix is
    entrywise positive); psi > 0 with integral 1 against nu; nu has total
    mass 1.  log_lam is the finite-depth pressure.

    psi and nu are built on first read from the depth-k pair the
    iteration ran on (see power_iterate): psi repeated, nu lifted level
    by level through the depth-k weights.  Those private fields stay out
    of repr and ==.
    """

    d: int
    depth: int
    lam: float
    log_lam: float
    residual_fn: float
    residual_meas: float
    iterations: int
    converged: bool
    _psi: np.ndarray = field(repr=False, compare=False)      # depth-k psi, integral 1 against nu
    _nu: np.ndarray = field(repr=False, compare=False)       # depth-k eigenmeasure
    _weights: np.ndarray = field(repr=False, compare=False)  # depth-k weights, read by the lift

    @cached_property
    def psi(self) -> CylinderFunction:
        return CylinderFunction(self.d, self.depth, np.repeat(self._psi, self.d ** self.depth // self._psi.size))

    @cached_property
    def nu(self) -> CylinderMeasure:
        return CylinderMeasure(self.d, self.depth, _lift(self._weights, self._nu, self.depth))


def power_iterate(
    f: Potential,
    depth: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> RPFData:
    """Leading eigentriple (lambda, psi, nu) by two-sided power iteration.

    Entrywise positivity makes the iteration a contraction in the Hilbert
    projective metric, so the deterministic all-ones start converges for
    every potential; lambda is read off the generalized Rayleigh quotient
    <nu, L psi> / <nu, psi> which is exact at the fixed point.

    A table of depth m reads a w_1 ... w_{m-1} only, so every pass runs on
    depth k = min(max(m-1, 1), depth) tables (k = depth for callables),
    and the depth-D operator is never built.  Once the depth-k residuals
    are under tol, or at the last permitted step, the passes check the
    residuals of the lifted pair at the requested depth D instead, read
    from depth-k tables (_lifted): psi_D = psi_k o pi, and
    nu_D([a w]) = e^{f(a w)} nu_D([w]) / lambda level by level from k to
    D (_lift).  Such a check adds D - k applications of the adjoint at
    depth k.  So the reported residuals are those of the returned
    depth-D vectors, which RPFData builds only when they are read (of
    their exact values: an unconverged pair whose nu spans more than the
    float range has residuals its level-by-level rounding does not keep).

    A table whose depth k has at most _SQUARE_ENTRIES words starts from
    the iterates after 2^j steps, the row and column sums of the squared
    depth-k matrix (_squared); other operators start from the constant
    function and the uniform measure.  Each pass checks the residuals of
    the current pair with one plain step; while the pair has not
    converged at depth k and four more steps stay within max_iter, it
    then takes three more at once with L^3, built at the first such pass,
    when the L^3 table holds at most _STRIDE_ENTRIES entries and every
    weight of L is a normal float (past that, L^3's iterates part from
    the steps').  Otherwise the next iterate is that plain step's
    product.  So a squared pair that converged builds no L^3.
    `iterations` never exceeds max_iter.

    The iteration runs on e^{-c} L_f, c the maximum of the truncated
    table, and adds c back to log lambda: exact, and no weight overflows.
    lam is inf when e^{log_lam} exceeds the float range.
    A table spread so wide that weights underflow to 0 can drive the
    iterates to 0 / 0, or drive lambda or <nu, psi> below the smallest
    normal float, past which the residuals and psi / <nu, psi> leave the
    float range; that raises NumericalBreakdown.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    check_table_size(f.d, depth + 1)  # the depth-(D+1) truncation the returned pair stands for
    k = depth if f.table is None else min(max(f.table.depth - 1, 1), depth)
    op = transfer_operator(f, k)
    top = float(np.max(op.log_weights))
    op = op.gauged(growth=top)  # e^{-top} L: no weight exceeds 1
    psi = np.ones(op.size)
    nu = np.full(op.size, 1.0 / op.size)
    iterations, converged = 0, False
    if f.table is not None and op.size <= _SQUARE_ENTRIES and max_iter > 2:
        psi, nu, iterations = _squared(op, tol, max_iter)
    # no stride once a weight leaves the normal range: L^3's iterates part from the steps'
    strided = (
        max_iter > _STRIDE
        and op.d ** (_STRIDE - 1) * op.size <= _STRIDE_ENTRIES
        and op.weights.min() >= _TINY
    )
    stride = None
    deep = k == depth  # whether the checks read the residuals at depth D
    while True:
        iterations += 1
        if not deep and (converged or iterations == max_iter):
            deep, strided = True, False  # the depth-D checks run one step apart
        # L psi and L* nu give the residuals of (psi, nu) and the next iterate
        l_psi = op.apply(psi)
        l_nu = op.dual_apply(nu)
        # at depth D > k: the lifted nu's first-k marginal, and log L_k^(D-k) 1
        marginal, reach = _lifted(op, nu, depth - k) if deep and k < depth else (nu, None)
        num, den = sum_of_products(marginal, l_psi), sum_of_products(marginal, psi)
        if not (_TINY <= num < math.inf and den >= _TINY):
            # weights are in (0, 1] unless exp(f - max f) underflowed to 0;
            # below _TINY, lambda and psi / <nu, psi> leave the float range
            raise _breakdown()
        lam = num / den
        res_psi = float(abs(l_psi - lam * psi).max() / (lam * psi.max()))
        gap = abs(l_nu - lam * nu)
        if reach is None:
            res_nu = float(gap.sum() / (lam * nu.sum()))
        else:
            res_nu = exp_or_inf(_log_mass(gap, reach) - _log_mass(nu, reach) - math.log(lam))
        converged = max(res_psi, res_nu) < tol
        if (converged and deep) or iterations == max_iter:
            break
        # one statement per vector: each frees its old iterate before the next
        # is made, which keeps a deep run's peak memory and page faults down
        psi = l_psi / l_psi.max()
        nu = l_nu / l_nu.sum()
        if strided and not converged and iterations + _STRIDE <= max_iter:
            if stride is None:
                # L^3 in its own gauge: its steps take the iterate, the checks use op
                stride = op.power(_STRIDE - 1)
            # from the normalised pair: a psi spread times the spread of L^3's
            # weights must not pass the float range on top of lambda's scale
            psi = stride.apply(psi)
            nu = stride.dual_apply(nu)
            scale, mass = psi.max(), nu.sum()
            if not (scale > 0.0 and mass > 0.0):
                raise _breakdown()  # L^3's weights underflowed where L's did not
            psi = psi / scale
            nu = nu / mass
            iterations += _STRIDE - 1
    log_lam = math.log(lam) + top
    return RPFData(
        d=f.d,
        depth=depth,
        lam=exp_or_inf(log_lam),
        log_lam=log_lam,
        residual_fn=res_psi,
        residual_meas=res_nu,
        iterations=iterations,
        converged=converged,
        _psi=psi / den,  # den = <nu_D, psi_D>
        _nu=nu,
        _weights=op.weights,
    )


def _lifted(op: TransferOperator, nu: np.ndarray, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """(m, r): the depth-k tables that the residuals of the pair lifted
    `levels` levels past k = op.depth read.

    The lifted pair is psi_D = psi o pi and nu_D = T nu, with T the
    positive linear lift of _lift (nu_D([a w]) = W(a, w) nu_D([w]) / c_j
    at level j).  psi_D and L_D psi_D = (L_k psi) o pi read w_1 ... w_k
    alone, so nu_D pairs with them as m does: the first-k marginal of
    nu_D, (L_k*)^levels nu divided by its mass level by level.  And
    L_D* T = T L_k*, so L_D* nu_D - lambda nu_D = T (L_k* nu - lambda nu),
    whose l1 norm, like nu_D's mass, is a pairing with T* 1, which is
    L_k^levels 1 up to a factor.  r is log L_k^levels 1, summed in logs
    so that no word's share under- or overflows however wide the spread
    or deep the lift.
    """
    log_weights = np.where(op.weights > 0.0, op.log_weights, -math.inf)
    reach = np.zeros(op.size)
    for _ in range(levels):
        nu = op.dual_apply(nu)
        mass = nu.sum()
        if not mass > 0.0:
            raise _breakdown()  # every weight the lift reads underflowed
        nu = nu / mass
        reach = np.logaddexp.reduce(log_weights + reach.take(op.preimages), axis=0)
    return nu, reach


def _log_mass(values: np.ndarray, log_scale: np.ndarray) -> float:
    """log sum_y values[y] e^{log_scale[y]}, for values >= 0 (-inf when it is 0)."""
    terms = np.log(values, out=np.full(values.size, -math.inf), where=values > 0.0) + log_scale
    top = terms.max()
    if top == -math.inf:
        return top
    return float(top + math.log(np.exp(terms - top).sum()))


def _squared(op: TransferOperator, tol: float, max_iter: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(psi, nu, 2^j): the power iterates 2^j Ruelle steps from the constant
    function and the uniform measure, from the squares of op's matrix.

    Each square is scaled by its maximum.  Squaring stops once a product
    changes the scaled power by at most sqrt(tol): the error falls
    quadratically, so the last power's is about tol.  It also stops
    before 2^j + 1 steps would pass max_iter, which leaves the residual
    check a step, and before a square in which a sum underflowed to 0
    where the exact power is positive: steps, normalised one at a time,
    keep such entries, so they take over from the last power.  The
    products are np.einsum's, not BLAS's (see shift.sum_of_products).
    """
    power = op.matrix()
    power = power / power.max()
    reach = power > 0.0  # where the exact power is positive
    steps, enough = 1, math.sqrt(tol)
    while 2 * steps < max_iter:
        square = np.einsum("ij,jk->ik", power, power)
        reach = np.einsum("ij,jk->ik", reach, reach)
        positive = np.count_nonzero(square)
        if positive == 0 or positive < np.count_nonzero(reach):
            break
        square = square / square.max()
        change = float(np.abs(square - power).max())
        power, steps = square, 2 * steps
        if change <= enough:
            break
    psi, nu = power.sum(axis=1), power.sum(axis=0)
    return psi / psi.max(), nu / nu.sum(), steps


def _breakdown() -> NumericalBreakdown:
    return NumericalBreakdown(
        "power iteration broke down: weights exp(f - max f) underflow, "
        "the spread of the table is too wide for double precision"
    )


def _lift(weights: np.ndarray, nu: np.ndarray, depth: int) -> np.ndarray:
    """Lift a depth-k eigenmeasure nu of the operator with depth-k weights
    `weights` (weights[a, w] reads a w_1 ... w_k) to `depth`:
    nu_{j+1}([a w]) = W(a, w_1 ... w_k) nu_j([w]) / lambda.

    The mass of W * nu_j is <nu_j, L 1>, lambda at the fixed point, so
    each level is divided by its own mass: neither a wide spread nor a
    deep lift under- or overflows, and the result is a probability.
    """
    d, size = weights.shape
    while nu.size < d ** depth:
        # the words a w, w = (w_1 ... w_k, rest): W[a, w_1 ... w_k] * nu[w]
        nu = (weights[:, :, None] * nu.reshape(size, -1)).ravel()
        nu = nu / nu.sum()
    return nu


def normalize(f: Potential, rpf: RPFData) -> Potential:
    """The normalised potential  f + log psi - log psi o sigma - log lambda.

    rpf must be eigendata of f (power_iterate at some depth m); the result
    is a locally-constant potential of depth m+1 whose transfer operator
    fixes the constants up to the eigen-residual.  Inputs that are not
    locally constant of depth <= m+1 get their depth-(m+1) truncation
    normalised.
    """
    if rpf.d != f.d:
        raise ValueError("alphabet mismatch between potential and eigendata")
    if np.min(rpf.psi.values) <= 0.0:
        raise ValueError("eigenfunction must be strictly positive")
    # its log-weights are those of L_f in the gauge (log psi, log lambda)
    op = transfer_operator(f, rpf.depth).gauged(np.log(rpf.psi.values), rpf.log_lam)
    return Potential.from_table(
        f.d, rpf.depth + 1, op.log_weights.ravel(),
        label=(f.label + "~normalised") if f.label else "normalised",
    )


def check_normalized(fbar: Potential, depth: int) -> float:
    """sup |L_fbar 1 - 1| over the depth-m words."""
    op = transfer_operator(fbar, depth)
    return float(np.max(np.abs(op.apply(np.ones(op.size)) - 1.0)))

