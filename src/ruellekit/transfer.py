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
(deterministic) and applies L and its adjoint once each per step: the
products L psi and L* nu give the residuals of the current (psi, nu) and,
renormalised, the next iterate.  It stops when both relative residuals
fall under tol, and returns the vectors whose residuals it reports.

A table potential of depth m reads only a w_1 ... w_{m-1}, so its
eigendata are fixed by the depth-(m-1) words: power_iterate iterates on
depth k = min(max(m-1, 1), D) tables and lifts the pair to the requested
depth D once (psi repeated, nu([a w]) = e^{f(a w)} nu([w]) / lambda
level by level), then takes its last step(s) at depth D.  `iterations`
counts the steps at both depths.  Callables iterate at D throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .potentials import REFERENCE_TAIL, Potential, tabulate, var_upper
from .shift import CylinderFunction, CylinderMeasure, sum_of_products

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000


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
    """

    d: int
    depth: int
    log_weights: np.ndarray    # shape (d, d**depth)
    preimages: np.ndarray      # [a, i]: index of the child word (a, w_1, ..., w_{m-1}) of word i
    truncation_bound: float    # certified bound on the dropped tail-dependence

    @property
    def size(self) -> int:
        return self.d ** self.depth

    @cached_property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)

    def gauged(self, scale=None, growth=0.0) -> "TransferOperator":
        """D_{scale+growth}^{-1} L D_scale: from tables with row log scales
        `scale` (default 0) to tables with row log scales scale + growth."""
        logs = self.log_weights if scale is None else self.log_weights + scale[self.preimages] - scale
        return TransferOperator(self.d, self.depth, logs - growth, self.preimages, self.truncation_bound)

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
        for a in range(self.d):
            mat[rows, self.preimages[a]] += self.weights[a]
        return mat


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
    """

    d: int
    depth: int
    lam: float
    log_lam: float
    psi: CylinderFunction
    nu: CylinderMeasure
    residual_fn: float
    residual_meas: float
    iterations: int
    converged: bool


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

    A table of depth m reads a w_1 ... w_{m-1} only, so the iteration runs
    on depth k = min(max(m-1, 1), depth) tables (k = depth for callables).
    Once the depth-k residuals are under tol, or at the last permitted
    step, the pair is lifted to the requested depth D: psi does not read
    past w_k, and L* nu = lambda nu read one cylinder at a time gives
    nu([a w]) = e^{f(a w)} nu([w]) / lambda, one level at a time from
    k to D.  The last step(s) run on the depth-D operator, so the
    reported residuals are those of the returned depth-D vectors, and
    `iterations` counts the steps at both depths.

    The iteration runs on e^{-c} L_f, c the maximum of the truncated
    table, and adds c back to log lambda: exact, and no weight overflows.
    lam is inf when e^{log_lam} exceeds the float range.
    A table spread so wide that weights underflow to 0 can drive the
    iterates to 0 / 0; that raises NumericalBreakdown.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    full = transfer_operator(f, depth)
    top = float(np.max(full.log_weights))
    full = full.gauged(growth=top)  # e^{-top} L: no weight exceeds 1
    k = depth if f.table is None else min(max(f.table.depth - 1, 1), depth)
    op = full if k == depth else transfer_operator(f, k).gauged(growth=top)
    psi = np.ones(op.size)
    nu = np.full(op.size, 1.0 / op.size)
    converged = False
    for iterations in range(1, max_iter + 1):
        if op is not full and (converged or iterations == max_iter):
            psi, nu, op = np.repeat(psi, full.size // op.size), _lift(full, nu, op.depth), full
        # L psi and L* nu give the residuals of (psi, nu) and the next iterate
        l_psi = op.apply(psi)
        l_nu = op.dual_apply(nu)
        num, den = sum_of_products(nu, l_psi), sum_of_products(nu, psi)
        if not (den > 0.0 and math.isfinite(num)):
            # weights are in (0, 1] unless exp(f - max f) underflowed to 0
            raise NumericalBreakdown(
                "power iteration broke down: weights exp(f - max f) underflow, "
                "the spread of the table is too wide for double precision"
            )
        lam = num / den
        res_psi = float(abs(l_psi - lam * psi).max() / (lam * psi.max()))
        res_nu = float(abs(l_nu - lam * nu).sum() / (lam * nu.sum()))
        converged = max(res_psi, res_nu) < tol
        if (converged and op is full) or iterations == max_iter:
            break
        psi = l_psi / l_psi.max()
        nu = l_nu / l_nu.sum()
    log_lam = math.log(lam) + top
    return RPFData(
        d=f.d,
        depth=depth,
        lam=exp_or_inf(log_lam),
        log_lam=log_lam,
        psi=CylinderFunction(f.d, depth, psi / sum_of_products(nu, psi)),
        nu=CylinderMeasure(f.d, depth, nu),
        residual_fn=res_psi,
        residual_meas=res_nu,
        iterations=iterations,
        converged=converged,
    )


def _lift(full: TransferOperator, nu: np.ndarray, depth: int) -> np.ndarray:
    """Lift a depth-k eigenmeasure of `full` (whose weights read a w_1 ... w_k)
    to full.depth: nu_{j+1}([a w]) = W_j(a, w) nu_j([w]) / lambda.

    The mass of W_j * nu_j is <nu_j, L 1>, lambda at the fixed point, so
    each level is divided by its own mass: neither a wide spread nor a
    deep lift under- or overflows, and the result is a probability.
    """
    d = full.d
    for j in range(depth, full.depth):
        # W_j[a, w] = full.weights[a, w 0...0], laid out as the words a w
        nu = (full.weights[:, :: d ** (full.depth - j)] * nu).ravel()
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

