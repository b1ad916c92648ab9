"""Transfer operator at finite cylinder depth and its leading eigendata.

For a potential f the operator acts on functions by
(L_f g)(x) = sum over one-step preimages a.x of exp(f(a.x)) g(a.x).
Restricted to depth-m tables it is a d**m x d**m matrix with d positive
entries per row: row w weighs preimage symbol a by exp(f(a w_1 ... w_m
tail...)), f truncated at depth m+1 with the all-zero reference tail
(potentials.REFERENCE_TAIL), exact for locally-constant f of depth <= m+1.

TransferOperator is the one code applying L_f and its adjoint, in a gauge
(h, c) of row log scales: the matrix D_{h+c}^{-1} L_f D_h.  Iterate is the
one iterator of L_f and its adjoint, for power iteration and dlr's kernels
alike: each table entry carries a log scale of its own, so no iterate
under- or overflows however wide the spread of f.

power_iterate is the one route to the leading eigenvalue lambda (log
lambda is the finite-depth pressure), the eigenfunction psi and the
eigenprobability nu, normalised by nu(whole space) = 1 and nu(psi) = 1.
From the constant function and the uniform measure it reaches its
iterates in three ways, every step after the squares and their one
dense check an Iterate's:

- Squared: a table of at most _SQUARE_ENTRIES words at its iteration
  depth, none of whose weights e^{f - max f} underflows to 0, squares its
  dense matrix M (scaled by the maximum) until a product changes the
  power by at most sqrt(tol), a square loses an entry to underflow, or
  the next would pass max_iter: the row and column sums of L^(2^j) are
  the iterates after 2^j steps, and `iterations` counts them so.  A pair
  whose squares converged is checked once, at depth D, from M psi, nu M,
  nu's first-k marginal nu M^(D-k) and the weights M^(D-k) 1 of nu's
  residual, M^(D-k) a product of the squares; if it converges it is
  returned, and otherwise (or where M^(D-k) loses an entry to
  underflow) the pair steps on.
- Strided: after each check, three Ruelle steps at once with L^3
  (TransferOperator.power) and its adjoint, so one check serves four
  steps, while four stay within max_iter and the L^3 table holds at most
  _STRIDE_ENTRIES entries (past that its gather costs more than the checks
  it saves).
- Plain: each pass steps psi under L and nu under its adjoint once; the
  two steps give the Rayleigh quotient and the residuals of the current
  pair, and the stop rule reads them.

The iteration stops when both relative residuals fall under tol and the
pair's Collatz-Wielandt bounds lie within e^_ENCLOSURE of each other
(_check, the one stop rule of the dense check and of every pass), and
returns the vectors whose residuals it reports, as logs: psi and nu are
rounded once each, when read.  A table potential of depth m reads only
a w_1 ... w_{m-1}, so every pass runs on depth k = min(max(m-1, 1), D)
tables; the depth-D pair is the lift of the depth-k one, its residuals
read from depth-k tables (the dense powers above, or _lifted and _reach
for an Iterate), and no depth-D operator is built.  Callables iterate at
D throughout.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .potentials import REFERENCE_TAIL, Potential, tabulate, var_upper
from .shift import MAX_TABLE_ENTRIES, CylinderFunction, CylinderMeasure, check_table_size, sum_of_products

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
_LN2 = math.log(2.0)
# the largest log ratio of a converged pair's Collatz-Wielandt bounds on lambda:
# a pair of a non-dominant eigenvalue passed the residuals with bounds e^48
# apart (beta * osc 745), converged pairs at beta * osc <= 20 stay within e^8.5
# (tol 1e-3) and within e^0.02 at the default tol
_ENCLOSURE = 16.0
_EPOCH_RANGE = 512 * _LN2  # how far a row may grow or shrink within an epoch
_SPAN = 500  # rows within 2**-_SPAN of the largest share one scale: they stay normal floats


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
        """L^p in the same layout and gauge: the row of the preimage word
        u = u_1 ... u_p (lexicographic index) weighs the child word u w of
        word w by the product of the p steps' weights, e^{S_p f(u w)} in
        the operator's gauge, kept as logs (an Iterate exponentiates them
        in a gauge of its own)."""
        logs, pre = self.log_weights, self.preimages
        for _ in range(p - 1):
            # a symbol b in front of every child word: row b * d**j + row
            logs = (self.log_weights[:, pre] + logs).reshape(-1, self.size)
            pre = self.preimages[:, pre].reshape(-1, self.size)
        return TransferOperator(self.d, self.depth, logs, pre, self.truncation_bound)

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
        if self.size ** 2 > MAX_TABLE_ENTRIES:
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


class Iterate:
    """Iterates of L, or of its adjoint L*, on log-scaled tables.

    `block` stacks tables of one operator's size (its columns; one table
    for the adjoint), the iterate block * e^(lift + growth) * 2**exp2:
    a log scale per table entry (row), one gained by all rows alike, and
    a common power of two.  The lift is one float while a single power of
    two serves every row, and an array from the first epoch that needs
    one per row.  A step applies the operator gauged by the lifts (the
    adjoint through the one gauged by the negated lifts).

    An epoch moves the row maxima into the lifts as powers of two and
    exponentiates each operator's weights once, less its largest
    log-weight c; rows then grow at most r-fold per step (r =
    len(op.preimages)) and shrink at most by e^(least row maximum - c),
    and the epoch steps while that stays within 2**512.  An operator whose
    spread alone passes that steps once, each row in its own gauge.
    """

    def __init__(self, block: np.ndarray, lift=None, adjoint: bool = False):
        self.block, self.adjoint, self.exp2, self.growth = block, adjoint, 0, 0.0
        self.lift, self._epochs = 0.0 if lift is None else lift, {}
        self._renew()

    @property
    def scale(self) -> np.ndarray:
        return self.lift + (self.growth + self.exp2 * _LN2)

    def step(self, op: TransferOperator, split: bool = False):
        """Apply op to every column (its adjoint for an adjoint iterate);
        with split, keep the preimage symbol apart: column u becomes the d
        columns u.a.  Returns (block, lift, rise): the iterate stepped
        from (up to the factor common to all rows), and the log growth of
        each row that the new block leaves out (one float when common)."""
        epoch = self._epochs.get(id(op)) or (self._room > 0.0 and self._join(op))
        if not epoch or epoch[3] > self._room:
            self._renew()
            epoch = self._join(op)
        _, gauged, rise, cost = epoch
        block, lift = self.block, self.lift
        if self.adjoint:
            self.block = gauged.dual_apply(block)
        elif split:
            self.block = gauged.terms(block).reshape(-1, op.size)
        else:
            self.block = gauged.apply(block)
        if cost < _EPOCH_RANGE:
            self.growth += rise
        else:  # the room is spent: the next step renews the epoch at these lifts
            self.lift = lift + rise
        self._room -= cost
        return block, lift, rise

    def _renew(self) -> None:
        """Start an epoch: each row's maximum to [1/2, 1), its power of two
        to the lift, whole powers of two of the largest lift to exp2."""
        top = self.block.max(axis=0) if self.block.ndim > 1 else self.block
        self._room = _EPOCH_RANGE
        high = math.frexp(top.max())[1]
        if not isinstance(self.lift, np.ndarray) and high - math.frexp(top.min())[1] <= _SPAN:
            # every row within 2**-_SPAN of the largest: one scale serves all, and the gauge stays
            self.block, self.exp2 = self.block * math.ldexp(1.0, -high), self.exp2 + high
            return
        e = np.frexp(top)[1]
        self.block = np.ldexp(self.block, -e)
        lift = self.lift + _LN2 * e
        common = round(float(lift.max()) / _LN2)
        self.lift, self.exp2, self._epochs = lift - common * _LN2, self.exp2 + common, {}

    def _join(self, op: TransferOperator):
        """op in the gauge of this epoch's lifts: (op, gauged op, rise, cost)."""
        logs = op.log_weights
        if isinstance(self.lift, np.ndarray):  # a common scale leaves op as it is
            shift = self.lift[op.preimages] - self.lift
            logs = logs - shift if self.adjoint else logs + shift
        # the weights into word j under the adjoint are entries j*r ... j*r + r - 1 of the flat table
        row_top = logs.reshape(op.size, -1).max(axis=1) if self.adjoint else logs.max(axis=0)
        top = float(row_top.max())
        cost = max(math.log(len(op.preimages)), top - float(row_top.min()))
        if cost < _EPOCH_RANGE:
            rise, logs = top, logs - top if top else logs
        else:  # one step, each row in its own gauge
            rise, cost = row_top, _EPOCH_RANGE
            logs = logs - (row_top[op.preimages] if self.adjoint else row_top)
        gauged = op if logs is op.log_weights else TransferOperator(op.d, op.depth, logs, op.preimages, op.truncation_bound)
        epoch = self._epochs[id(op)] = (op, gauged, rise, cost)
        return epoch


def iterates(op: TransferOperator, block: np.ndarray, split: int = 0, lift=None):
    """Yield (n, block_n, lift_n, exp2_n) for n = 1, 2, ...: the n-th
    iterate of the block's columns under L is block_n * e^lift_n *
    2**exp2_n (Iterate), the first `split` steps split.  Started from the
    constant 1, column u after j <= split steps holds L^j 1_[u] =
    e^{S_j f(u x)} for each word u of length j.  The lifts are an array
    from the start: the kernels read them row by row."""
    it = Iterate(block, np.zeros(op.size) if lift is None else lift)
    for n in itertools.count(1):
        it.step(op, n <= split)
        yield n, it.block, it.lift + it.growth, it.exp2


def run(op: TransferOperator, block: np.ndarray, n: int, split: int = 0, lift=None):
    """(block, lift) after n steps, in the scaling of `iterates`."""
    for _, block, lift, _ in itertools.islice(iterates(op, block, split, lift), n):
        pass
    return block, lift


@dataclass(frozen=True)
class RPFData:
    """Leading eigendata of the depth-m transfer operator.

    lam > 0 is simple and equals the spectral radius (the matrix is
    entrywise positive); psi > 0 with integral 1 against nu; nu has total
    mass 1.  log_lam is the finite-depth pressure.

    psi and nu are built on first read from the logs of the depth-k pair
    (see power_iterate), each rounded once; psi past the float range, an
    entry that overflows or rounds to 0, is refused, log_psi is not.  The
    private fields stay out of repr and ==.
    """

    d: int
    depth: int
    lam: float
    log_lam: float
    residual_fn: float
    residual_meas: float
    iterations: int
    converged: bool
    _log_psi: np.ndarray = field(repr=False, compare=False)      # depth-k log psi, integral 1 against nu
    _log_nu: np.ndarray = field(repr=False, compare=False)       # depth-k log eigenmeasure, up to a constant
    _log_weights: np.ndarray = field(repr=False, compare=False)  # depth-k log-weights, read by the lift

    @cached_property
    def log_psi(self) -> np.ndarray:
        return np.repeat(self._log_psi, self.d ** self.depth // self._log_psi.size)

    @cached_property
    def psi(self) -> CylinderFunction:
        with np.errstate(over="ignore"):
            values = np.exp(self._log_psi)
        if not (values.min() > 0.0 and values.max() < math.inf):
            raise ValueError(f"psi leaves the float range: it spans e^{np.ptp(self._log_psi):.6g}")
        return CylinderFunction(self.d, self.depth, np.repeat(values, self.d ** self.depth // values.size))

    @cached_property
    def nu(self) -> CylinderMeasure:
        return CylinderMeasure(self.d, self.depth, _lift(self._log_weights, self._log_nu, self.depth))


def power_iterate(
    f: Potential,
    depth: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> RPFData:
    """Leading eigentriple (lambda, psi, nu) by two-sided power iteration.

    Entrywise positivity makes the iteration a contraction in the Hilbert
    projective metric, so the deterministic all-ones start converges for
    every potential with a simple dominant eigenvalue; lambda is the
    generalized Rayleigh quotient <nu, L psi> / <nu, psi>, exact at the
    fixed point, and (for an unconverged pair) kept within the run's
    Collatz-Wielandt enclosure of lambda: log (L^n psi_0 / psi_0) / n
    lies between its least and largest entry, at each check n.

    Every pass runs on depth k tables (see the module docstring).  A pair
    whose squares converged is checked once, at depth D, on the dense
    matrix M of L_k and its power M^(D-k) (_squared), and returned if it
    converges.  Otherwise, once the depth-k pair has converged, or at the
    last permitted step, the checks read the residuals of the lifted pair
    at depth D from depth-k tables (_lifted, _reach), at D - k more
    adjoint steps each: psi_D = psi_k o pi, and nu_D([a w]) = e^{f(a w)}
    nu_D([w]) / lambda level by level (_lift), so they are those of the
    returned depth-D vectors, which RPFData builds only when read.  A
    squared pair that converged builds no L^3, and `iterations` never
    exceeds max_iter.  The iteration runs on e^{-c} L_f, c the maximum of
    the truncated table, and adds c back to log lambda; lam is inf when
    e^{log_lam} exceeds the float range.
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
    if f.table is not None and op.size <= _SQUARE_ENTRIES and max_iter > 2:
        psi, nu, iterations, dense = _squared(op, depth - k, tol, max_iter)
    else:
        psi, nu, iterations, dense = np.ones(op.size), np.full(op.size, 1.0 / op.size), 0, None
    # each vector a block and its log scale, a float common to every entry or one
    # per entry: (p, a) psi and (n, t) nu, (m, u) the nu that pairs with psi
    with np.errstate(over="ignore", divide="ignore"):
        if dense is not None:
            # one step at depth D: L psi = M psi and L* nu = nu M, nu_D's first-k
            # marginal nu P and the weights P 1 of nu's residual, P = M^(D-k)
            mat, power = dense
            pair = psi, 0.0, nu, 0.0, np.einsum("i,ij->j", nu, power), 0.0
            lp, ln = np.einsum("ij,j->i", mat, psi), np.einsum("i,ij->j", nu, mat)
            check = _check(*pair, lp, 0.0, ln, 0.0, np.log(power.sum(axis=1)), tol)
            if check[3]:  # converged
                return _eigendata(f, depth, op, top, pair, check, iterations + 1)
        psi, nu = Iterate(psi), Iterate(nu, adjoint=True)
        origin, start = np.log(psi.block) + psi.scale, iterations  # log psi_0 and its step
        strided = max_iter > _STRIDE and op.d ** (_STRIDE - 1) * op.size <= _STRIDE_ENTRIES
        stride, reach, converged = None, _reach(op, depth - k), False
        deep = k == depth  # whether the checks read the residuals at depth D
        while True:
            iterations += 1
            if not deep and (converged or iterations == max_iter):
                deep, strided = True, False  # the depth-D checks run one step apart
            # at depth D > k, nu_D's first-k marginal pairs with psi, and r = log T* 1
            # weighs nu's l1 norms (_lifted, _reach)
            lifted = _lifted(nu, op, depth - k) if deep and k < depth else None
            p, a, g = psi.step(op)
            n, t, h = nu.step(op)
            (m, u), r = ((n, t), 0.0) if lifted is None else (lifted, reach)
            log_lam, res_psi, res_nu, converged = _check(p, a, n, t, m, u, psi.block, g, nu.block, h, r, tol)
            if (converged and deep) or iterations == max_iter:
                break
            if strided and not converged and iterations + _STRIDE <= max_iter:
                stride = stride or op.power(_STRIDE - 1)  # built at the first stride
                psi.step(stride)
                nu.step(stride)
                iterations += _STRIDE - 1
        if not converged:
            # an unconverged pair's Rayleigh quotient may lie far off (a nearly periodic
            # cycle): keep it within log (L^n psi_0 / psi_0) / n, whose least and largest
            # entries enclose log lambda (Collatz-Wielandt)
            rates = (np.log(psi.block) + psi.scale - origin) / (iterations - start)
            log_lam = min(max(log_lam, float(rates.min())), float(rates.max()))
    check = log_lam, res_psi, res_nu, converged
    return _eigendata(f, depth, op, top, (p, a, n, t, m, u), check, iterations)


def _check(p, a, n, t, m, u, lp, g, ln, h, r, tol: float) -> tuple[float, float, float, bool]:
    """(log lambda, psi's residual, nu's residual, converged) of one step of
    the pair psi = p e^a, nu = n e^t: L psi = lp e^(a + g) and L* nu =
    ln e^(t + h), each up to a factor common to all entries.

    lambda is the Rayleigh quotient against m e^u, nu_D's first-k
    marginal; psi's residual is relative in the max norm, nu's in the l1
    norm weighted by e^r (L^(D-k) 1, up to a factor).  The pair converges
    when both fall under tol and its Collatz-Wielandt bounds
    min (L psi / psi) <= lambda <= max (L psi / psi) lie at most
    e^_ENCLOSURE apart: the residuals bound lambda's error only where psi
    is the Perron vector.
    """
    w, low = _weights(m, u, p, a)  # <m e^u, p e^a> = <w, p> e^low
    v, G = _weights(w, 0.0, lp, g)  # <w, L psi> = <v, lp> e^G
    den, num = sum_of_products(w, p), sum_of_products(v, lp)
    # L psi / lambda and L* nu / lambda in the scales of psi and nu
    up = lp * (np.exp(g - G) * (den / num))
    down = ln * (np.exp(h - G) * (den / num))
    res_psi = _relative(np.abs(up - p), p, a, np.ndarray.max)
    res_nu = _relative(np.abs(down - n), n, t + r, np.ndarray.sum)
    ratios = up / p
    converged = max(res_psi, res_nu) < tol and ratios.max() <= math.exp(_ENCLOSURE) * ratios.min()
    return math.log(num / den) + G, res_psi, res_nu, converged


def _eigendata(f: Potential, depth: int, op: TransferOperator, top: float, pair, check, iterations: int) -> RPFData:
    """RPFData of a checked pair (p, a, n, t, m, u) of power_iterate and
    its _check, log lambda that of e^{-top} L."""
    p, a, n, t, m, u = pair
    log_lam, res_psi, res_nu, converged = check
    with np.errstate(over="ignore", divide="ignore"):
        w, low = _weights(m, u, p, a)  # <m e^u, p e^a> = <w, p> e^low
    share, high = _weights(m, u, np.ones(m.size), 0.0)  # nu_D's mass: share.sum() e^high
    log_lam += top
    return RPFData(
        d=f.d,
        depth=depth,
        lam=exp_or_inf(log_lam),
        log_lam=log_lam,
        residual_fn=res_psi,
        residual_meas=res_nu,
        iterations=iterations,
        converged=converged,
        _log_psi=np.log(p) + a - (math.log(sum_of_products(w, p) / share.sum()) + low - high),  # psi / <nu_D, psi_D>
        _log_nu=np.log(n) + t,
        _log_weights=op.log_weights,
    )


def _lifted(nu: Iterate, op: TransferOperator, levels: int):
    """(m, u): the first-k marginal m e^u of the lift of nu `levels` levels
    past k = op.depth, up to a constant factor: (L_k*)^levels nu.

    T, the positive linear lift of _lift, gives T nu this marginal, and
    psi_D, L_D psi_D = (L_k psi) o pi read w_1 ... w_k alone: nu_D pairs
    with them as its marginal does.  The steps are a twin of the Iterate
    nu, in its epoch.
    """
    twin = copy.copy(nu)  # the epoch's gauged operators stay valid at nu's lifts
    for _ in range(levels):
        twin.step(op)
    return twin.block, twin.lift


def _reach(op: TransferOperator, levels: int) -> np.ndarray:
    """log L_k^levels 1, summed in logs.  L_D* T = T L_k*, so L_D* nu_D -
    lambda nu_D = T g, g = L_k* nu - lambda nu, and T maps each entry of g
    to entries of one sign: the l1 norms of T g and of T nu are their
    pairings with T* 1, L_k^levels 1 up to a factor."""
    reach = np.zeros(op.size)
    for _ in range(levels):
        reach = np.logaddexp.reduce(op.log_weights + reach.take(op.preimages), axis=0)
    return reach


def _weights(m: np.ndarray, u, p: np.ndarray, a) -> tuple[np.ndarray, float]:
    """(w, c): the weights w = m e^(u + a - c) that pair m e^u with p e^a,
    <m e^u, p e^a> = <w, p> e^c, c the log of the largest term m p e^(u + a)
    (u + a when the log scales u and a are floats, common to all entries)."""
    s = u + a
    if not isinstance(s, np.ndarray):
        return m, s
    c = float((np.log(m * p) + s).max())
    return np.exp(np.log(m) + (s - c)), c  # in logs: m e^(s - c) may be 0 * inf


def _relative(gap: np.ndarray, x: np.ndarray, log_scale, norm) -> float:
    """norm(gap e^log_scale) / norm(x e^log_scale), for gap, x >= 0 and norm
    ndarray.max or ndarray.sum: a float log_scale cancels, and an array is
    taken to the largest term of x first."""
    if isinstance(log_scale, np.ndarray):
        shift = log_scale - float((np.log(x) + log_scale).max())
        gap, x = np.exp(np.log(gap) + shift), np.exp(np.log(x) + shift)
    return float(norm(gap)) / float(norm(x))


def _squared(
    op: TransferOperator, levels: int, tol: float, max_iter: int
) -> tuple[np.ndarray, np.ndarray, int, tuple | None]:
    """(psi, nu, 2^j, dense): the power iterates 2^j Ruelle steps from the
    constant function and the uniform measure, from the squares of op's
    matrix M, and dense = (M, M^levels) once the squares converged, for
    power_iterate's one check at depth op.depth + levels; else None.

    Each square is scaled by its maximum.  Squaring stops once a product
    changes the scaled power by at most sqrt(tol) (the error falls
    quadratically), before 2^j + 1 steps would pass max_iter, and before a
    square in which a sum underflowed to 0 where the exact power is
    positive; a matrix with a weight that underflowed is not squared (j =
    0).  M^levels is the product of the squares M^(2^i) of levels' binary
    digits i (squared on past 2^j where levels needs it), each product
    scaled by its maximum; one that loses an entry to underflow leaves
    dense None, as squares that stop short of sqrt(tol) do.  The products
    are np.einsum's, not BLAS's (shift.sum_of_products).
    """
    if not op.weights.min() > 0.0:
        return np.ones(op.size), np.full(op.size, 1.0 / op.size), 0, None
    matrix = op.matrix()
    squares, change, enough = [matrix / matrix.max()], math.inf, math.sqrt(tol)  # squares[i]: M^(2^i)
    while 2 ** len(squares) < max_iter and change > enough:
        square = _product(squares[-1], squares[-1], 2 ** len(squares), op)
        if square is None:
            break
        change = float(np.abs(square - squares[-1]).max())
        squares.append(square)
    steps, power = 2 ** (len(squares) - 1), squares[-1]
    psi, nu = power.sum(axis=1), power.sum(axis=0)
    deep = _power(squares, levels, op) if change <= enough else None
    return psi / psi.max(), nu / nu.sum(), steps, None if deep is None else (matrix, deep)


def _power(squares: list, n: int, op: TransferOperator) -> np.ndarray | None:
    """M^n scaled by its maximum, from squares[i] = M^(2^i) (appending the
    squares n needs), or None where a product lost an entry to underflow."""
    power = np.identity(op.size)
    for i in range(n.bit_length()):
        if i == len(squares):
            squares.append(_product(squares[-1], squares[-1], 2**i, op))
        if n >> i & 1:
            power = squares[i] if n % 2**i == 0 else _product(power, squares[i], n % 2 ** (i + 1), op)
    return power


def _product(a, b, steps: int, op: TransferOperator) -> np.ndarray | None:
    """a b = M^steps scaled by its maximum, or None where a or b is None or
    a sum underflowed to 0 where M^steps is positive."""
    if a is None or b is None:
        return None
    product = np.einsum("ij,jk->ik", a, b)
    # L^n is positive at the d**min(n, k) child words of each word
    if np.count_nonzero(product) < op.size * op.d ** min(steps, op.depth):
        return None
    product /= product.max()
    return product


def _lift(log_weights: np.ndarray, log_nu: np.ndarray, depth: int) -> np.ndarray:
    """Lift a depth-k eigenmeasure e^log_nu of the operator with depth-k
    log-weights (log_weights[a, w] reads a w_1 ... w_k) to `depth`:
    nu_{j+1}([a w]) = W(a, w_1 ... w_k) nu_j([w]) / lambda.

    Each entry keeps a mantissa and a power of two of its own, so neither a
    wide spread nor a deep lift (depth is bounded by the table-size guard)
    under- or overflows, and each level rounds as one product does; the
    result is divided by its mass once, at the end."""
    d, size = log_weights.shape
    (weights, shifts), (nu, exps) = _split(log_weights), _split(log_nu)
    while nu.size < d ** depth:  # mantissas in [1/2, 1): products of under 1000 stay normal
        # the words a w, w = (w_1 ... w_k, rest): W[a, w_1 ... w_k] * nu[w]
        nu = (weights[:, :, None] * nu.reshape(size, -1)).ravel()
        exps = (shifts[:, :, None] + exps.reshape(size, -1)).ravel()
    nu = np.ldexp(nu, (exps - exps.max()).astype(np.int64))
    return nu / nu.sum()


def _split(logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m, k): e^logs = m * 2**k, m in [1/2, 1), rounded once where e^logs
    is a normal float."""
    if logs.min() >= -700.0:
        return np.frexp(np.exp(logs))
    shift = np.where(logs < -700.0, np.floor(logs / _LN2), 0.0)
    m, k = np.frexp(np.exp(logs - shift * _LN2))
    return m, k + shift


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
    # its log-weights are those of L_f in the gauge (log psi, log lambda)
    op = transfer_operator(f, rpf.depth).gauged(rpf.log_psi, rpf.log_lam)
    return Potential.from_table(
        f.d, rpf.depth + 1, op.log_weights.ravel(),
        label=(f.label + "~normalised") if f.label else "normalised",
    )


def check_normalized(fbar: Potential) -> float:
    """sup |L_fbar 1 - 1| at fbar's depth: sup_w |sum_a e^{fbar(a w)} - 1|, from its table refined to depth >= 1."""
    if fbar.table is None:
        raise ValueError("check_normalized reads a table potential, as normalize returns")
    table = fbar.table.refine(fbar.truncation_depth())
    return float(np.max(np.abs(np.exp(table.values.reshape(fbar.d, -1)).sum(axis=0) - 1.0)))

