"""The benchmark's workloads: inputs made from a seed, one operation recipe
each, and checks of every output against computations made here, apart
from the program.

An operation is a fixed list of `ruellekit` subcommands, each called
through `cli.run` with its JSON report captured from stdout.  A workload
generates a pool of inputs (config files and `--seed` values for the
subcommands' own sampling); one round of the benchmark runs the operation
once on every input of the pool.

Every check below recomputes the quantity with plain numpy (or mpmath)
from the generated inputs: dense eigen-solves of the transfer matrix,
a transfer-matrix evaluation of the finite-volume kernels, and a numpy
evaluation of the Ising potential.  Nothing is compared with a stored
copy of earlier output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import mpmath
import numpy as np

from ruellekit import cli

# np.dot and `@` on float vectors longer than this go to OpenBLAS's
# threaded ddot, which in some processes takes ~8 ms per call instead of
# ~5 us.  Every vector a workload sends there has 2**depth (operator
# depth) or 2**n (volume) entries, so inputs are held to depth and
# volume <= 13 on two symbols.
BLAS_SAFE_LEN = 10_000

# Table values are drawn uniformly from [-SCALE, SCALE] for the eigen
# workloads.  The cost of a power iteration follows the spectral gap of the
# random potential; at this scale the iteration count of a 128-input pool
# moves by ~2% between seeds, at scale 1 by ~10% at the 90th percentile.
EIGEN_SCALE = 0.3


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def require_blas_safe(what: str, d: int, depth: int) -> None:
    if d ** depth > BLAS_SAFE_LEN:
        raise ValueError(
            f"{what} {depth} on {d} symbols makes vectors of {d ** depth} entries, "
            f"beyond the {BLAS_SAFE_LEN}-entry limit this benchmark keeps to"
        )


def call(argv: list[str]) -> tuple[int, str]:
    """One subcommand through cli.run; returns the exit code and the report."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(argv)
    return rc, buf.getvalue()


@dataclass
class Input:
    """One pool entry: the argv of every subcommand of the recipe, plus
    what the checks need to know about how it was made."""

    argvs: list[list[str]]
    params: dict
    ref: dict = field(default_factory=dict)  # references, computed on first check

    def run(self) -> tuple[bool, list[str]]:
        """One operation; returns (every subcommand exited 0, the reports)."""
        reports = []
        ok = True
        for argv in self.argvs:
            rc, text = call(argv)
            ok = ok and rc == 0
            reports.append(text)
        return ok, reports


def _write_config(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg))
    return str(path)


def _table_config(values: np.ndarray, depth: int) -> dict:
    return {
        "potential": {
            "kind": "table",
            "params": {"d": 2, "depth": depth, "values": [float(v) for v in values]},
        }
    }


def _cli_seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2**31)))


def _report(text: str, command: str) -> dict:
    rep = json.loads(text)
    require(rep.get("schema") == "ruelle-kit/1", f"{command}: unexpected schema")
    require(rep.get("command") == command, f"{command}: report names {rep.get('command')}")
    require(rep.get("status") == "ok", f"{command}: status {rep.get('status')}")
    return rep["results"]


# ---------------------------------------------------------------------------
# Independent numerics
# ---------------------------------------------------------------------------

def _children(size: int, d: int) -> np.ndarray:
    """child[a, i]: index of the word (a, w_1, ..., w_{k-1}) for word i = w."""
    return np.arange(d)[:, None] * (size // d) + np.arange(size)[None, :] // d


def markov_matrix(values: np.ndarray, d: int, m: int) -> np.ndarray:
    """Dense transfer matrix of a depth-m table potential on words of length m-1.

    (L h)(u) = sum_a exp(f(a u)) h(a u_1 ... u_{m-2}); its spectral radius
    is exp(pressure) exactly.
    """
    size = d ** (m - 1)
    mat = np.zeros((size, size))
    weights = np.exp(np.asarray(values, dtype=float).reshape(d, size))
    child = _children(size, d)
    for a in range(d):
        mat[np.arange(size), child[a]] += weights[a]
    return mat


def log_spectral_radius(mat: np.ndarray) -> float:
    return math.log(float(np.max(np.abs(np.linalg.eigvals(mat)))))


def _depth_weights(values: np.ndarray, d: int, m: int, depth: int) -> np.ndarray:
    """weights[a, i] = exp(f(a w)) for the depth-`depth` word i = w (depth >= m-1)."""
    tab = np.asarray(values, dtype=float).reshape(d, d ** (m - 1))
    return np.exp(tab[:, np.arange(d ** depth) // d ** (depth - m + 1)])


def _parse_point(literal: str) -> tuple[list[int], list[int]]:
    prefix, cycle = literal.split("|")
    return [int(c) for c in prefix], [int(c) for c in cycle]


def _coords(literal: str, start: int, count: int) -> list[int]:
    """Coordinates start+1 .. start+count (1-indexed) of an eventually periodic point."""
    prefix, cycle = _parse_point(literal)
    out = []
    for i in range(start, start + count):
        out.append(prefix[i] if i < len(prefix) else cycle[(i - len(prefix)) % len(cycle)])
    return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    pool = 0    # inputs per round
    warmup = 2  # operations run once per set-up, on the first inputs of the pool

    def make_inputs(self, rng: np.random.Generator, workdir: Path) -> list[Input]:
        raise NotImplementedError

    def check(self, inp: Input, reports: list[str]) -> None:
        raise NotImplementedError


class EigenDeep(Workload):
    """`pressure` of a random depth-4 table potential, operator depth 13."""

    name = "eigen_deep"
    pool = 128
    warmup = 8  # ~0.15 s, averaged over inputs whose iteration counts differ
    potential_depth = 4
    depth = 13

    def make_inputs(self, rng, workdir):
        m, depth = self.potential_depth, self.depth
        require_blas_safe("operator depth", 2, depth)
        inputs = []
        for k in range(self.pool):
            values = rng.uniform(-EIGEN_SCALE, EIGEN_SCALE, size=2**m)
            path = _write_config(workdir / f"{self.name}-{k}.json", _table_config(values, m))
            argv = ["pressure", "--config", path, "--depth", str(depth), "--tol", "1e-12"]
            inputs.append(Input([argv], {"values": values}))
        return inputs

    def check(self, inp, reports):
        res = _report(reports[0], "pressure")
        if "log_rho" not in inp.ref:
            mat = markov_matrix(inp.params["values"], 2, self.potential_depth)
            inp.ref["log_rho"] = log_spectral_radius(mat)
        expect = inp.ref["log_rho"]
        require(
            abs(res["pressure"] - expect) <= 1e-10 * max(1.0, abs(expect)),
            f"pressure {res['pressure']!r} vs dense log spectral radius {expect!r}",
        )


class EigenVectors(Workload):
    """`rpf` at depth 10: the whole eigenfunction and eigenmeasure in the report."""

    name = "eigen_vectors"
    pool = 16
    potential_depth = 4
    depth = 10

    def make_inputs(self, rng, workdir):
        m, depth = self.potential_depth, self.depth
        require_blas_safe("operator depth", 2, depth)
        inputs = []
        for k in range(self.pool):
            values = rng.uniform(-EIGEN_SCALE, EIGEN_SCALE, size=2**m)
            path = _write_config(workdir / f"{self.name}-{k}.json", _table_config(values, m))
            argv = ["rpf", "--config", path, "--depth", str(depth), "--tol", "1e-12"]
            inputs.append(Input([argv], {"values": values}))
        return inputs

    def check(self, inp, reports):
        res = _report(reports[0], "rpf")
        d, m, depth = 2, self.potential_depth, self.depth
        size = d**depth
        psi = np.asarray(res["psi"], dtype=float)
        nu = np.asarray(res["nu"], dtype=float)
        lam = float(res["lambda"])
        require(psi.shape == (size,) and nu.shape == (size,), "psi/nu are not 2^depth long")
        if "weights" not in inp.ref:
            values = inp.params["values"]
            inp.ref["weights"] = _depth_weights(values, d, m, depth)
            inp.ref["log_rho"] = log_spectral_radius(markov_matrix(values, d, m))
        weights = inp.ref["weights"]
        child = _children(size, d)
        l_psi = (weights * psi[child]).sum(axis=0)
        # adjoint: the mass of word i moves to its children with weight exp(f(a i))
        l_nu = np.bincount(child.ravel(), weights=(weights * nu).ravel(), minlength=size)
        res_fn = np.max(np.abs(l_psi - lam * psi)) / (lam * np.max(np.abs(psi)))
        res_nu = np.sum(np.abs(l_nu - lam * nu)) / (lam * np.sum(np.abs(nu)))
        require(res_fn <= 1e-10, f"eigenfunction residual {res_fn:.3e}")
        require(res_nu <= 1e-10, f"eigenmeasure residual {res_nu:.3e}")
        require(bool(np.all(psi > 0.0)), "eigenfunction not positive")
        require(bool(np.all(nu >= 0.0)), "eigenmeasure has negative mass")
        require(abs(math.fsum(nu) - 1.0) <= 1e-12, f"nu(whole space) = {math.fsum(nu)!r}")
        require(abs(math.fsum(psi * nu) - 1.0) <= 1e-12, "integral of psi against nu != 1")
        expect = inp.ref["log_rho"]
        require(abs(math.log(lam) - expect) <= 1e-10, f"lambda {lam!r} vs dense solve")


class KernelDeep(Workload):
    """`tl` with CSV output up to volume 12 on random depth-3 table potentials."""

    name = "kernel_deep"
    pool = 8
    potential_depth = 3
    n_max = 12

    def make_inputs(self, rng, workdir):
        m, n_max = self.potential_depth, self.n_max
        require_blas_safe("volume", 2, n_max)
        inputs = []
        for k in range(self.pool):
            values = rng.uniform(-1.0, 1.0, size=2**m)
            path = _write_config(workdir / f"{self.name}-{k}.json", _table_config(values, m))
            csv_path = str(workdir / f"{self.name}-{k}.csv")
            argv = ["tl", "--config", path, "--n", str(n_max), "--csv", csv_path,
                    "--seed", _cli_seed(rng)]
            inputs.append(Input([argv], {"values": values, "csv": csv_path}))
        return inputs

    def _reference(self, values, boundaries):
        """K_n([C] | y) = L^n 1_[C] (sigma^n y) / L^n 1 (sigma^n y) for every
        volume n <= n_max, every cylinder of length <= 2 and boundary y,
        iterating the depth-D transfer matrix (D = max(2, m - 1))."""
        d, m = 2, self.potential_depth
        depth = max(2, m - 1)
        size = d**depth
        mat = np.zeros((size, size))
        weights = _depth_weights(values, d, m, depth)
        child = _children(size, d)
        for a in range(d):
            mat[np.arange(size), child[a]] += weights[a]
        cylinders = ["0", "1", "00", "01", "10", "11"]
        tests = np.zeros((size, len(cylinders) + 1))
        for j, word in enumerate(cylinders):
            q = len(word)
            block = d ** (depth - q)
            start = int(word, 2) * block
            tests[start:start + block, j] = 1.0
        tests[:, -1] = 1.0
        ref = {}
        for n in range(1, self.n_max + 1):
            tests = mat @ tests
            tests /= np.max(tests[:, -1])
            for y in boundaries:
                row = tests[int("".join(map(str, _coords(y, n, depth))), 2)]
                for j, word in enumerate(cylinders):
                    ref[(n, word, y)] = row[j] / row[-1]
        return ref

    def check(self, inp, reports):
        res = _report(reports[0], "tl")
        with open(inp.params["csv"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        require(len(rows) == res["rows"], f"CSV has {len(rows)} rows, report says {res['rows']}")
        boundaries = res["boundaries"]
        require({r["boundary_id"] for r in rows} == set(boundaries), "CSV boundaries differ")
        if inp.ref.get("boundaries") != boundaries:
            inp.ref["boundaries"] = boundaries
            inp.ref["K"] = self._reference(inp.params["values"], boundaries)
        ref = inp.ref["K"]
        mass = {}
        for r in rows:
            n, word, y = int(r["n"]), r["cylinder"], r["boundary_id"]
            k_n, nu_ref = float(r["K_n"]), float(r["nu_ref"])
            expect = ref[(n, word, y)]
            require(abs(k_n - expect) <= 1e-12, f"K_{n}([{word}]|{y}) = {k_n!r}, transfer matrix {expect!r}")
            require(abs(float(r["deviation"]) - abs(k_n - nu_ref)) <= 1e-15, "deviation column")
            key = (n, len(word), y)
            mass[key] = mass.get(key, 0.0) + k_n
        distinct = set(boundaries)
        require(len(mass) == 2 * len(distinct) * (self.n_max - 1), "missing (volume, boundary) rows")
        for (n, q, y), total in mass.items():
            # a boundary drawn twice contributes its rows twice
            total /= boundaries.count(y)
            require(abs(total - 1.0) <= 1e-12, f"length-{q} cylinder masses sum to {total!r} (n={n}, y={y})")


class KernelMany(Workload):
    """`uniqueness --n 6` then `dlr-check --n 4 --r 3`: many small-volume kernels."""

    name = "kernel_many"
    pool = 32
    warmup = 8
    potential_depth = 3
    volumes = (8, 4 + 3)  # largest sandwich volume; dlr-check's n + r

    def make_inputs(self, rng, workdir):
        for n in self.volumes:
            require_blas_safe("volume", 2, n)
        m = self.potential_depth
        inputs = []
        for k in range(self.pool):
            values = rng.uniform(-1.0, 1.0, size=2**m)
            path = _write_config(workdir / f"{self.name}-{k}.json", _table_config(values, m))
            argvs = [
                ["uniqueness", "--config", path, "--n", "6", "--seed", _cli_seed(rng)],
                ["dlr-check", "--n", "4", "--r", "3", "--seed", _cli_seed(rng)],
            ]
            inputs.append(Input(argvs, {}))
        return inputs

    def check(self, inp, reports):
        uniq = _report(reports[0], "uniqueness")
        require(len(uniq["margins"]) == 20, "uniqueness: expected 20 sandwich checks")
        require(all(x >= 1.0 for x in uniq["margins"]), f"sandwich margin {min(uniq['margins'])!r} < 1")
        require(uniq["stabilized"] is True and uniq["holds_all"] is True, "uniqueness flags")
        tower = _report(reports[1], "dlr-check")
        require(len(tower["residuals"]) == 10, "dlr-check: expected 10 instances")
        require(all(r <= 1e-12 for r in tower["residuals"]), f"tower residual {max(tower['residuals'])!r}")


class IsingChain(Workload):
    """`ising --n 40` then `pressure` of the ising_lr potential at depth 7."""

    name = "ising_chain"
    pool = 8
    depth = 7
    cutoff = 200  # the subcommands' default series cutoff

    def make_inputs(self, rng, workdir):
        require_blas_safe("operator depth", 2, self.depth)
        inputs = []
        for k in range(self.pool):
            alpha = 2.0 + 2.0 * (1.0 - rng.random())  # in (2, 4]
            cfg = {"potential": {"kind": "ising_lr", "params": {"alpha": alpha}}}
            path = _write_config(workdir / f"{self.name}-{k}.json", cfg)
            argvs = [
                ["ising", "--n", "40", "--alpha", repr(alpha), "--seed", _cli_seed(rng)],
                ["pressure", "--config", path, "--depth", str(self.depth)],
            ]
            inputs.append(Input(argvs, {"alpha": alpha}))
        return inputs

    def _reference(self, alpha):
        zeta = float(mpmath.zeta(mpmath.mpf(alpha)))
        # g at (w . 000...) for every word w of length depth+1: chain spins
        # s_0 .. s_depth from w, s_j = -1 beyond, so that
        # sum_{j>=1} s_j j^-a = sum_{j<=depth} (s_j + 1) j^-a - zeta(a).
        depth = self.depth
        n = depth + 1
        words = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
        spins = 2.0 * words - 1.0
        js = np.arange(1, n, dtype=float)
        series = (spins[:, 1:] + 1.0) @ js**-alpha - zeta
        g = -spins[:, 0] * series - zeta
        size = 2**depth
        mat = np.zeros((size, size))
        weights = np.exp(g.reshape(2, size))
        child = _children(size, 2)
        for a in range(2):
            mat[np.arange(size), child[a]] += weights[a]
        return {"zeta": zeta, "pressure": log_spectral_radius(mat)}

    def check(self, inp, reports):
        alpha = inp.params["alpha"]
        if "zeta" not in inp.ref:
            inp.ref.update(self._reference(alpha))
        zeta = inp.ref["zeta"]
        chain = _report(reports[0], "ising")
        require(chain["cutoff"] == self.cutoff, "ising: unexpected cutoff")
        zv, ze = chain["zeta"]["value"], chain["zeta"]["bound"]
        require(abs(zv - zeta) <= ze, f"zeta({alpha}) = {zv!r} +/- {ze!r}, mpmath {zeta!r}")
        gv, ge = chain["g_all_plus"]["value"], chain["g_all_plus"]["bound"]
        require(abs(gv + 2.0 * zeta) <= ge, f"g(all plus) = {gv!r} +/- {ge!r}, exact {-2 * zeta!r}")
        checks = chain["coboundary"]
        require(len(checks) == 5, "ising: expected 5 coboundary checks")
        for c in checks:
            require(c["residual"] <= c["bound"], f"coboundary residual {c['residual']!r} > {c['bound']!r}")
        press = _report(reports[1], "pressure")
        # the program's g drops sum_{j > cutoff} j^-a and carries its zeta
        # error; pressure is 1-Lipschitz in the sup norm of the potential
        tail = self.cutoff ** (1.0 - alpha) / (alpha - 1.0)
        budget = tail + abs(zv - zeta) + 1e-9
        diff = abs(press["pressure"] - inp.ref["pressure"])
        require(diff <= budget, f"ising pressure off by {diff:.3e}, budget {budget:.3e}")


WORKLOADS = {w.name: w for w in (EigenDeep(), EigenVectors(), KernelDeep(), KernelMany(), IsingChain())}
