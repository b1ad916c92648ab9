"""Exact row sums of the Ising series against one math.fsum per row.

The oracle below is the per-row code that _exact_rows replaced: every
series term made a Python float and each row went to math.fsum.  Every
value of the array code must equal it bit for bit, and so must the
reports of the command line.
"""

import contextlib
import dataclasses
import io
import json
import math
import re
import types

import numpy as np
import pytest

from ruellekit import cli, ising
from ruellekit.ising import IsingParams, TwoSidedPoint, _exact_rows, _split
from ruellekit.shift import Point


def fsum_rows(C, v):
    return [math.fsum((row * v).tolist()) for row in np.asarray(C)]


def exact_rows(C, v):
    weight = int(np.abs(C).sum(axis=1).max(initial=0))
    return _exact_rows(C, _split(v, weight))


def same_bits(a, b):
    """Equal as floats and in sign, so 0.0 and -0.0 differ."""
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b, dtype=float).view(np.int64))


# ---------------------------------------------------------------------------
# _exact_rows against math.fsum
# ---------------------------------------------------------------------------

TINY = 5e-324  # the smallest subnormal
ADVERSARIAL = {
    "cancellation": [1.0, -1.0, 1e-16, -1e-16, 3.0, -3.0 + 2**-51],
    "tie to even": [1.0, 2.0**-53],
    "tie to even, odd": [1.0 + 2**-52, 2.0**-53],
    "just past the tie": [1.0, 2.0**-53, 2.0**-106],
    "just short of the tie": [1.0, 2.0**-53, -(2.0**-106)],
    "subnormals": [TINY, 3 * TINY, 2.0**-1022, -(2.0**-1022) + TINY, 2.0**-1060],
    "signed zeros": [-0.0, 0.0, -0.0],
    "mixed magnitudes": [1e300, 1.0, 1e-300, -1e300, 2.0**-1000, TINY],
    "underflowing powers": [j ** -400.0 for j in range(1, 12)],
}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_exact_rows_equal_fsum_on_adversarial_rows(name):
    v = np.array(ADVERSARIAL[name])
    # every coefficient row in {-2, ..., 2}, the zero row among them
    C = np.array(np.meshgrid(*[np.arange(-2, 3)] * min(len(v), 4))).reshape(min(len(v), 4), -1).T
    C = np.hstack([C, np.ones((len(C), len(v) - C.shape[1]), dtype=np.int64)])
    C = np.vstack([C, -C[:, ::-1], np.zeros((1, len(v)), dtype=np.int64)])
    assert same_bits(exact_rows(C, v), fsum_rows(C, v))


def test_exact_rows_edge_shapes():
    # no columns: every row sums to +0.0, as math.fsum([]) does
    C = np.zeros((3, 0), dtype=np.int64)
    assert same_bits(exact_rows(C, np.zeros(0)), [0.0, 0.0, 0.0])
    # no rows
    assert exact_rows(np.zeros((0, 2), dtype=np.int64), np.array([1.0, 2.0])).shape == (0,)
    # an all-zero vector splits into no pieces at all
    v = np.array([0.0, -0.0])
    assert _split(v, 4).shape == (0, 2)
    assert same_bits(exact_rows(np.array([[1, -2], [-1, -1]]), v), [0.0, 0.0])


def test_split_is_exact_and_takes_three_pieces_when_it_must():
    v = np.array([1.0, 2.0**-53, 2.0**-106, 1.0 / 3.0])
    pieces = _split(v, 8)
    assert pieces.shape[0] >= 3
    assert [math.fsum(col) for col in pieces.T.tolist()] == v.tolist()
    C = np.array([[1, 1, 1, 0], [1, 1, -1, 0], [2, -2, 2, -2]])
    assert same_bits(_exact_rows(C, pieces), fsum_rows(C, v))


def test_exact_rows_fuzz():
    rng = np.random.default_rng(2008)
    for trial in range(1000):
        n = int(rng.integers(0, 40))
        scale = rng.choice([0, 10, 60, 300, 1000])
        v = rng.standard_normal(n) * 2.0 ** rng.integers(-scale, scale + 1, size=n).astype(float)
        v[rng.random(n) < 0.1] = 0.0
        if n and trial % 3 == 0:  # near-cancelling pairs
            v[n // 2 :] = -v[: n - n // 2] * (1 + 2.0**-52 * rng.integers(-3, 4, size=n - n // 2))
        v = np.clip(v, -1e300, 1e300)
        C = rng.integers(-2, 3, size=(int(rng.integers(1, 8)), n))
        assert same_bits(exact_rows(C, v), fsum_rows(C, v)), (trial, v.tolist(), C.tolist())


# ---------------------------------------------------------------------------
# The per-row oracle: the series as they were summed before _exact_rows
# ---------------------------------------------------------------------------

def oracle_powers(alpha, count):
    return np.array([j ** (-alpha) for j in range(1, count + 1)])


def oracle_f(params, x):
    a, J = params.alpha, params.cutoff
    right = ising._spins(x.right.coords(J + 1))
    left = ising._spins(x.left.coords(J))
    terms = -right[0] * (right[1:] + left) * oracle_powers(a, J)
    return math.fsum(terms.tolist()), 2.0 * ising._tail_bracket(a, J)[1]


def oracle_g(params, x):
    a, J = params.alpha, params.cutoff
    zv, ze = ising.zeta(a, J)
    s = ising._spins(x.coords(J + 1))
    series = math.fsum((-s[0] * s[1:] * oracle_powers(a, J)).tolist())
    return series - zv, ising._tail_bracket(a, J)[1] + ze


def partials(terms):
    """Shewchuk's partials of a float sum: non-overlapping floats whose exact
    sum is the exact sum of `terms` (the expansion math.fsum keeps)."""
    out = []
    for x in terms:
        i = 0
        for y in out:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                out[i] = lo
                i += 1
            x = hi
        out[i:] = [x]
    return out


def oracle_batch(params, length, tail):
    a, J = params.alpha, params.cutoff
    if length == 0:
        value, bound = oracle_g(params, tail)
        return np.array([value]), bound
    powers = oracle_powers(a, J)
    zv, ze = ising.zeta(a, J)
    m = min(length, J + 1)
    t = ising._spins(tail.coords(J + 1 - m))
    tail_partials = np.array(partials((t * powers[m - 1:]).tolist()))
    bits = np.arange(length - 1, length - 1 - m, -1)
    index = np.arange(2**length)
    s = 2 * ((index[:, None] >> bits) & 1) - 1
    head = -s[:, :1] * s[:, 1:] * powers[: m - 1]
    terms = np.hstack([head, -s[:, :1] * tail_partials]).tolist()
    return np.array(list(map(math.fsum, terms))) - zv, ising._tail_bracket(a, J)[1] + ze


def oracle_g_potential(params, g_potential=ising.g_potential):
    return dataclasses.replace(
        g_potential(params),
        batch=lambda length, tail: oracle_batch(params, length, tail),
    )


def oracle_transfer_terms(params, x, count):
    a, J = params.alpha, params.cutoff
    P = len(x.left.prefix)
    L = len(x.left.cycle)
    lo = -(max(J, P + L) + L)
    w = np.array([2 * x.coord(i) - 1 for i in range(lo, count)])
    powers = oracle_powers(a, max(J, count - 1 + P + L))
    out = []
    for j in range(count):
        c = j - lo
        sj = int(w[c])
        n_exact = max(J, j + P + L)
        coeffs = w[c - n_exact : c][::-1] - sj
        head = math.fsum((coeffs * powers[:n_exact]).tolist())
        tail_mid = 0.0
        tail_err = 0.0
        for r in range(L):
            n_first = n_exact + 1 + r
            coeff = int(w[c - n_first]) - sj
            if coeff == 0:
                continue
            mid, half = ising._residue_tail(a, n_first, L)
            tail_mid += coeff * mid
            tail_err += abs(coeff) * half
        out.append((-sj * (head + tail_mid), tail_err))
    return out


def oracle_h_from_terms(params, x, terms, term_list):
    """transfer_h from (term_j, error) for j = 0..terms (the list may run on)."""
    if params.alpha <= 2:
        raise ValueError("the transfer series needs alpha > 2")
    a = params.alpha
    head = term_list[: terms + 1]
    value = math.fsum(v for v, _ in head)
    inner_err = 0.0
    for _, e in head:
        inner_err += e
    start = ising._forward_constant_from(x)
    if start is None:
        return value, math.inf
    B = start - 1
    if terms < B + 2:
        raise ValueError(f"need terms >= {B + 2}")
    return value, inner_err + 2.0 / (a - 1.0) * (terms - B - 1) ** (2.0 - a) / (a - 2.0)


def oracle_transfer_h(params, x, terms):
    return oracle_h_from_terms(params, x, terms, oracle_transfer_terms(params, x, terms + 1))


def oracle_coboundary_check(params, x, terms):
    fv, fe = oracle_f(params, x)
    gv, ge = oracle_g(params, x.right)
    sx = x.shift()
    tx = oracle_transfer_terms(params, x, terms + 2)
    ts = oracle_transfer_terms(params, sx, terms + 1)
    hv, _ = oracle_h_from_terms(params, x, terms, tx)
    hsv, hs_err = oracle_h_from_terms(params, sx, terms, ts)
    residual = abs(fv - gv - hv + hsv)
    if math.isinf(hs_err):
        return residual, math.inf
    last, last_err = tx[terms + 1]
    inner_err = 0.0
    for j in range(terms + 2):
        inner_err += tx[j][1]
        if j >= 1:
            inner_err += ts[j - 1][1]
    return residual, fe + ge + abs(last) + last_err + inner_err + 1e-12


# ---------------------------------------------------------------------------
# The series against the oracle
# ---------------------------------------------------------------------------

PARAMS = [
    IsingParams(alpha=alpha, cutoff=cutoff)
    for alpha in (2.05, 3.0, 4.0, 400.0)
    for cutoff in (2, 7, 200)
]
ids = [f"{p.alpha}-{p.cutoff}" for p in PARAMS]

# the last four fold the prefix under shift (left "|1" or "|01" against
# x_0 = 1, left "|0" against x_0 = 0), so with a small cutoff the rows of
# shift x past j + alignment > cutoff are not rows of x
POINTS = [
    ("110|01", "0110|1"),
    ("0|1", "10|1"),
    ("1011|1", "0|1"),
    ("|10", "1|0"),
    ("|1", "10|1"),
    ("|01", "1|1"),
    ("|0", "0110|1"),
    ("|1", "1|0"),
]


@pytest.mark.parametrize("params", PARAMS, ids=ids)
def test_chain_series_equal_the_per_row_oracle(params):
    terms = 20
    for left, right in POINTS:
        x = TwoSidedPoint.from_literals(left, right)
        assert ising.f_two_sided(params, x) == oracle_f(params, x)
        assert ising.g_one_sided(params, x.right) == oracle_g(params, x.right)
        for count in (1, 2, terms + 2):
            rows = ising._chain_rows(params, [x], count)
            assert [rows.f.item(), rows.g.item()] == [oracle_f(params, x)[0], oracle_g(params, x.right)[0]]
            assert list(zip(rows.terms[0], rows.errors[0])) == oracle_transfer_terms(params, x, count)
            shifted = list(zip(rows.shifted[0], rows.shifted_errors[0]))
            assert shifted == oracle_transfer_terms(params, x.shift(), count - 1)
        if params.alpha > 2:
            assert ising.transfer_h(params, x, terms) == oracle_transfer_h(params, x, terms)
            assert ising.coboundary_checks(params, [x], terms)[0] == oracle_coboundary_check(params, x, terms)


# cutoff 8 puts j + alignment past the cutoff from j = 4 on at "110|01"
BATCH_PARAMS = PARAMS + [IsingParams(alpha=alpha, cutoff=8) for alpha in (2.05, 3.0, 4.0, 400.0)]


@pytest.mark.parametrize("params", BATCH_PARAMS, ids=[f"{p.alpha}-{p.cutoff}" for p in BATCH_PARAMS])
def test_batch_equals_one_point_at_a_time(params):
    # left cycles of length 1 and 2, prefix folds, and a forward side that
    # is never constant, all in one batch
    points = [TwoSidedPoint.from_literals(left, right) for left, right in POINTS + [("1|0", "|10")]]
    terms = 20
    batch = ising._chain_rows(params, points, terms + 2)
    for p, x in enumerate(points):
        single = ising._chain_rows(params, [x], terms + 2)
        for name, values in batch._asdict().items():
            assert same_bits(values[p], getattr(single, name)[0]), (name, x.literal)
    checks = ising.coboundary_checks(params, points, terms)
    assert same_bits(checks, [ising.coboundary_checks(params, [x], terms)[0] for x in points])
    assert checks[-1][1] == math.inf and all(math.isfinite(bound) for _, bound in checks[:-1])


def test_convolutions_in_blocks_change_no_bit(monkeypatch):
    # blocks of 3 entries split every piece, at every cutoff, as blocks of
    # 8192 split a cutoff past 8192
    points = [TwoSidedPoint.from_literals(left, right) for left, right in POINTS]
    whole = [ising._chain_rows(params, points, 22) for params in BATCH_PARAMS]
    lengths = []
    convolve = np.convolve
    monkeypatch.setattr(np, "convolve", lambda a, v, mode: lengths.append(len(v)) or convolve(a, v, mode))
    monkeypatch.setattr(ising, "_DOT_BLOCK", 3)
    for params, rows in zip(BATCH_PARAMS, whole):
        blocked = ising._chain_rows(params, points, 22)
        assert all(same_bits(a, b) for a, b in zip(blocked, rows))
    assert lengths and max(lengths) == 3


@pytest.mark.parametrize("params", PARAMS, ids=ids)
def test_word_evaluator_equals_the_per_row_oracle(params):
    gp = ising.g_potential(params)
    for tail in ("|0", "|1", "|10", "0110|01", "1101001|0"):
        y = Point.from_literal(tail)
        for length in (0, 1, 2, 5, 9):
            values, bound = gp.batch(length, y)
            oracle_values, oracle_bound = oracle_batch(params, length, y)
            assert same_bits(values, oracle_values) and bound == oracle_bound


def test_word_evaluator_makes_no_per_word_fsum(monkeypatch):
    calls, splits = [], []
    split = ising._split

    def counted_fsum(items):
        calls.append(len(items))
        return math.fsum(items)

    def counted_split(v, weight):
        splits.append(weight)
        return split(v, weight)

    fake_math = types.SimpleNamespace(**{k: getattr(math, k) for k in dir(math) if not k.startswith("_")})
    fake_math.fsum = counted_fsum
    for params in (IsingParams(alpha=3.0), IsingParams(alpha=3.0, cutoff=2)):
        gp = ising.g_potential(params)
        params.cutoff_zeta  # built before counting
        with monkeypatch.context() as mp:
            mp.setattr(ising, "math", fake_math)
            mp.setattr(ising, "_split", counted_split)
            calls.clear()
            splits.clear()
            values, _ = gp.batch(8, Point.from_literal("0110|01"))
        # the tail joins the power table's own split: nothing is split per call
        assert splits == []
        K = params._table.pieces.shape[0]
        # only rows of more than two pieces go to fsum, with K floats each
        assert len(calls) <= (2**8 if K > 2 else 0)
        assert set(calls) <= {K}
        assert same_bits(values, oracle_batch(params, 8, Point.from_literal("0110|01"))[0])
    # cutoff 2: the powers are [1, 2^-alpha], one piece and no fsum at all
    assert K == 1 and calls == []


# ---------------------------------------------------------------------------
# Reports of the command line against the oracle
# ---------------------------------------------------------------------------

def report_text(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, re.sub(r'"generated_at": "[^"]*"', "", buf.getvalue())


def oracle_program(monkeypatch):
    monkeypatch.setattr(ising, "f_two_sided", oracle_f)
    monkeypatch.setattr(ising, "g_one_sided", oracle_g)
    monkeypatch.setattr(
        ising,
        "coboundary_checks",
        lambda params, points, terms: [oracle_coboundary_check(params, x, terms) for x in points],
    )
    monkeypatch.setattr(ising, "g_potential", oracle_g_potential)
    monkeypatch.setattr(
        ising.IsingParams, "cutoff_zeta", property(lambda p: ising.zeta(p.alpha, p.cutoff))
    )


def ising_lr_config(tmp_path, alpha, cutoff):
    path = tmp_path / f"ising-{alpha}-{cutoff}.json"
    path.write_text(json.dumps({"potential": {"kind": "ising_lr", "params": {"alpha": alpha, "cutoff": cutoff}}}))
    return str(path)


def test_reports_equal_the_per_row_oracle_byte_for_byte(tmp_path, monkeypatch):
    argvs = [
        ["ising", "--n", str(n), "--alpha", repr(alpha), "--cutoff", str(cutoff), "--seed", str(n)]
        for alpha in (1.5, 2.0, 2.5, 3.0, 4.0)
        for cutoff in (2, 7, 200)
        for n in (14, 40)
    ]
    for alpha, cutoff in ((3.0, 200), (2.5, 7)):
        cfg = ising_lr_config(tmp_path, alpha, cutoff)
        for depth in range(1, 13):
            argvs += [["pressure", "--config", cfg, "--depth", str(depth)],
                      ["rpf", "--config", cfg, "--depth", str(depth)]]
    new = [report_text(argv) for argv in argvs]
    with monkeypatch.context() as mp:
        oracle_program(mp)
        old = [report_text(argv) for argv in argvs]
    for argv, (code, text), oracle in zip(argvs, new, old):
        assert code == 0, argv
        assert (code, text) == oracle, argv


def test_ising_command_builds_one_power_table_per_run(monkeypatch):
    tables, zetas = [], []
    powers, zeta = ising._powers, ising.zeta
    monkeypatch.setattr(ising, "_powers", lambda a, n: tables.append(n) or powers(a, n))
    monkeypatch.setattr(ising, "zeta", lambda *args: zetas.append(args) or zeta(*args))
    for _ in range(2):
        tables.clear()
        assert report_text(["ising", "--n", "40", "--alpha", "3.0"])[0] == 0
        # one table per run, none kept from the run before
        assert tables == [200]
    assert zetas == []


def test_ising_command_reads_one_spin_array_and_makes_one_row_pass(monkeypatch):
    windows, passes = [], []
    spin_windows, round_rows = ising._spin_windows, ising._round_rows
    monkeypatch.setattr(
        ising, "_spin_windows", lambda points, *args: windows.append(len(points)) or spin_windows(points, *args)
    )
    monkeypatch.setattr(ising, "_round_rows", lambda sums: passes.append(len(sums)) or round_rows(sums))
    assert report_text(["ising", "--n", "40", "--alpha", "3.0"])[0] == 0
    # all five points in one window array; one pass rounds their f, g and
    # 42 term rows each (every row of shift x is one of x at cutoff 200),
    # and one more the all-plus g of the report
    assert windows == [5]
    assert sorted(passes) == [1, 5 * (2 + 42)]
