"""Batch front-end: parse configs, dispatch computations, emit reports.

Every subcommand writes a JSON report (schema "ruelle-kit/1") to --out or
stdout in the layout of json.dumps(sort_keys=True, indent=2): sorted keys,
one array element per line.  Floats, there and in the tl --csv rows, are
"%.17g" or NaN/Infinity/-Infinity, so identical config + seed reproduces
identical bytes (modulo the generated_at field).  Exit status: 0 on
success, 2 when a computed residual lands beyond its tolerance (normalize:
power iteration did not converge, or sup |L_fbar 1 - 1| > tol * max psi /
min psi), 1 on usage/config errors and on a numerical breakdown of a valid
config (no report is written then).

Config files are JSON objects; recognized keys:

    potential   {"kind": "constant"|"table"|"ising_lr"|"hofbauer",
                 "params": {...}}
    boundary    point literal such as "01|1" (prefix "01", cycle "1")
    boundaries  list of point literals
    cylinders   list of words such as "010"
    test_word   word whose indicator serves as the test function

Randomness enters only through test-point/boundary sampling, from a
single numpy Generator seeded by --seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import dlr, interactions, ising, potentials, transfer
from .shift import CylinderFunction, Point, TableSizeError, parse_word

SCHEMA = "ruelle-kit/1"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

def _format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _join_floats(values, sep: str) -> str:
    """_format_float of each value, joined by sep: one % call when all are finite."""
    if all(map(math.isfinite, values)):
        return sep.join(["%.17g"] * len(values)) % tuple(values)
    return sep.join(map(_format_float, values))


def _emit(obj, pad: str) -> str:
    """obj as json.dumps(obj, sort_keys=True, indent=2) lays it out, floats by _format_float."""
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if not isinstance(obj, (dict, list, tuple, np.ndarray)):
        return json.dumps(int(obj) if isinstance(obj, np.integer) else obj)
    if len(obj) == 0:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        # json.dumps writes a non-string key (tl's int keys) as the string of its JSON text
        body = sep.join(
            f"{json.dumps(k if isinstance(k, str) else json.dumps(k))}: {_emit(v, inner)}"
            for k, v in sorted(obj.items())
        )
        return "{\n" + inner + body + "\n" + pad + "}"
    values = obj.tolist() if isinstance(obj, np.ndarray) else obj
    all_floats = all(isinstance(v, float) for v in values)
    body = _join_floats(values, sep) if all_floats else sep.join([_emit(v, inner) for v in values])
    return "[\n" + inner + body + "\n" + pad + "]"


def dump_report(report: dict) -> str:
    return _emit(report, "") + "\n"


def _write_report(report: dict, out_path: str | None) -> None:
    text = dump_report(report)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(rows, path: str) -> None:
    floats = [v for row in rows for v in (row.K_n, row.nu_ref, row.deviation)]
    cells = iter(_join_floats(floats, "\n").split("\n"))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "cylinder", "boundary_id", "K_n", "nu_ref", "deviation"])
        writer.writerows(
            (r.n, r.cylinder, r.boundary_id, next(cells), next(cells), next(cells)) for r in rows
        )


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def _opt(value, default):
    """A flag's value, or the default when the flag was not given (0 is a value)."""
    return default if value is None else value


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid config (not valid JSON): {exc}")
    if not isinstance(cfg, dict):
        raise UsageError("invalid config: top level must be a JSON object")
    return cfg


def _sequence_from(desc: dict):
    form = desc.get("form")
    base = float(desc.get("base", 0.0))
    coef = float(desc.get("coef", 1.0))
    if form == "power":
        exponent = float(desc["exponent"])
        return lambda k: base + coef * k ** (-exponent)
    if form == "geometric":
        ratio = float(desc["ratio"])
        return lambda k: base + coef * ratio**k
    raise UsageError(f"invalid config: unknown sequence form {form!r}")


def _potential_from(cfg: dict, args) -> potentials.Potential:
    desc = cfg.get("potential")
    if desc is None:
        d = _opt(args.d, 2)
        return potentials.Potential.constant(d, 0.0)
    kind = desc.get("kind")
    params = desc.get("params", {})
    try:
        if kind == "constant":
            return potentials.Potential.constant(
                int(params.get("d", _opt(args.d, 2))), float(params.get("value", 0.0))
            )
        if kind == "table":
            return potentials.Potential.from_table(
                int(params["d"]),
                int(params["depth"]),
                [float(v) for v in params["values"]],
                label=params.get("label", "config-table"),
            )
        if kind == "ising_lr":
            if "beta" in params:
                # --beta scales g; a second factor in g would apply it twice
                raise UsageError(
                    "invalid config: ising_lr takes no 'beta'; --beta scales the potential"
                )
            ip = ising.IsingParams(
                alpha=float(params.get("alpha", _opt(args.alpha, 3.0))),
                cutoff=int(params.get("cutoff", _opt(args.cutoff, 200))),
            )
            return ising.g_potential(ip)
        if kind == "hofbauer":
            decay = params.get("var_decay")
            return potentials.make_hofbauer_walters(
                _sequence_from(params["a_seq"]),
                _sequence_from(params["c_seq"]),
                float(params["a"]),
                float(params["b"]),
                float(params["c"]),
                var_decay=_sequence_from(decay) if decay else None,
            )
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"invalid config: bad potential descriptor ({exc})")
    raise UsageError(f"invalid config: unknown potential kind {kind!r}")


def _point_from_literal(text: str) -> Point:
    try:
        return Point.from_literal(text)
    except ValueError as exc:
        raise UsageError(f"invalid config: bad point literal {text!r} ({exc})")


# ---------------------------------------------------------------------------
# Sampling helpers (the only consumers of the RNG)
# ---------------------------------------------------------------------------

def _random_point(rng: np.random.Generator, d: int) -> Point:
    prefix = tuple(int(s) for s in rng.integers(0, d, size=int(rng.integers(0, 4))))
    cycle = tuple(int(s) for s in rng.integers(0, d, size=int(rng.integers(1, 4))))
    return Point(prefix, cycle)


def _random_table_potential(
    rng: np.random.Generator, d: int, depth: int, scale: float = 1.0
) -> potentials.Potential:
    values = rng.uniform(-scale, scale, size=d**depth)
    return potentials.Potential.from_table(d, depth, values, label="sampled")


def _random_word(rng: np.random.Generator, d: int, max_len: int) -> tuple[int, ...]:
    return tuple(int(s) for s in rng.integers(0, d, size=int(rng.integers(1, max_len + 1))))


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (results, ok, csv_rows)
# ---------------------------------------------------------------------------

def _rpf_data(cfg, args):
    f = _potential_from(cfg, args)
    if args.beta is not None:
        f = potentials.scale(f, args.beta)
    depth = _opt(args.depth, max(f.depth() or 1, 1))
    tol = _opt(args.tol, transfer.DEFAULT_TOL)
    max_iter = _opt(args.max_iter, transfer.DEFAULT_MAX_ITER)
    rpf = transfer.power_iterate(f, depth, tol=tol, max_iter=max_iter)
    return f, rpf, tol


def _cmd_rpf(cfg, args):
    _, rpf, _ = _rpf_data(cfg, args)
    results = {
        "lambda": rpf.lam,
        "log_lambda": rpf.log_lam,
        "psi": rpf.psi.values,
        "nu": rpf.nu.weights,
        "residuals": {"function": rpf.residual_fn, "measure": rpf.residual_meas},
        "iterations": rpf.iterations,
        "depth": rpf.depth,
        "d": rpf.d,
    }
    return results, rpf.converged, None


def _cmd_pressure(cfg, args):
    _, rpf, _ = _rpf_data(cfg, args)
    results = {
        "pressure": rpf.log_lam,
        "lambda": rpf.lam,
        "residuals": {"function": rpf.residual_fn, "measure": rpf.residual_meas},
        "iterations": rpf.iterations,
    }
    return results, rpf.converged, None


def _cmd_normalize(cfg, args):
    f, rpf, tol = _rpf_data(cfg, args)
    fbar = transfer.normalize(f, rpf)
    check_depth = _opt(args.n, fbar.depth())
    check = transfer.check_normalized(fbar, check_depth)
    results = {
        "depth": fbar.depth(),
        "values": fbar.table.values,
        "check_depth": check_depth,
        "check_sup_norm": check,
        "log_lambda": rpf.log_lam,
    }
    # check is per entry: up to max psi / min psi times the sup-norm residual held under tol
    psi = rpf.psi.values
    return results, rpf.converged and check <= tol * psi.max() / psi.min(), None


def _cmd_kernel(cfg, args):
    f = _potential_from(cfg, args)
    beta = _opt(args.beta, 1.0)
    n = _opt(args.n, 2)
    y = _point_from_literal(cfg.get("boundary", "|0"))
    word = parse_word(cfg.get("test_word", "0"))
    g = CylinderFunction.indicator(f.d, word)
    value = dlr.kernel(f, beta, n, y, g)
    log_z = dlr.log_partition(f, beta, n, y)
    results = {
        "partition": transfer.exp_or_inf(log_z),
        "log_partition": log_z,
        "kernel_value": value,
        "test_word": cfg.get("test_word", "0"),
        "boundary": y.literal,
        "n": n,
        "beta": beta,
    }
    return results, True, None


def _default_cylinders(d: int, max_depth: int = 2):
    words = []
    for q in range(1, max_depth + 1):
        for i in range(d**q):
            word = tuple((i // d ** (q - 1 - k)) % d for k in range(q))
            words.append(word)
    return words


def _cmd_tl(cfg, args):
    f = _potential_from(cfg, args)
    beta = _opt(args.beta, 1.0)
    n_max = _opt(args.n, 12)
    rng = np.random.default_rng(args.seed)
    if "cylinders" in cfg:
        cylinders = [parse_word(w) for w in cfg["cylinders"]]
    else:
        cylinders = _default_cylinders(f.d)
    if "boundaries" in cfg:
        boundaries = [_point_from_literal(t) for t in cfg["boundaries"]]
    else:
        boundaries = [_random_point(rng, f.d) for _ in range(4)]
    tol = _opt(args.tol, transfer.DEFAULT_TOL)
    rows, worst = dlr.tl_sequence(f, beta, cylinders, boundaries, n_max, tol=tol)
    results = {
        "worst": worst,
        "n_max": n_max,
        "rows": len(rows),
        "boundaries": [y.literal for y in boundaries],
    }
    return results, True, rows


def _cmd_dlr_check(cfg, args):
    d = _opt(args.d, 2)
    depth = _opt(args.depth, 2)
    n = _opt(args.n, 2)
    r = _opt(args.r, 2)
    tol = _opt(args.tol, 1e-12)
    beta = _opt(args.beta, 1.0)
    rng = np.random.default_rng(args.seed)
    residuals = []
    for _ in range(10):
        f = _random_table_potential(rng, d, depth)
        q = int(rng.integers(1, n + r + 1))
        g = CylinderFunction(d, q, rng.uniform(-1.0, 1.0, size=d**q))
        z = _random_point(rng, d)
        residuals.append(dlr.finite_volume_dlr_check(f, beta, n, r, z, g))
    worst = max(residuals)
    results = {
        "residuals": residuals,
        "max_residual": worst,
        "tol": tol,
        "n": n,
        "r": r,
        "instances": len(residuals),
    }
    return results, worst < tol, None


def _refuse_beta(args, reason: str) -> None:
    """Subcommands that do not scale the potential refuse --beta."""
    if args.beta is not None:
        raise UsageError(f"{args.command} takes no --beta: {reason}")


def _cmd_interaction(cfg, args):
    _refuse_beta(args, "it reads the interaction of the potential as given")
    if cfg.get("potential") is not None:
        f = _potential_from(cfg, args)
        depth = f.depth()
        if depth is None:
            raise UsageError("interaction subcommand needs a table potential or --alpha")
        y = _point_from_literal(cfg.get("boundary", "|0"))
        phi = interactions.from_potential(f, y, k_max=2 * depth, n_max=2 * depth)
        norm = interactions.interaction_norm(phi)
        results = {
            "kind": "from_potential",
            "terms": len(phi.terms),
            "norm": {"value": norm.value, "remainder": norm.remainder, "upper": norm.upper},
        }
        return results, True, None
    if args.alpha is not None:
        phi = interactions.ising_lr(args.alpha)
        norm = interactions.interaction_norm(phi)
        zv, ze = ising.zeta(args.alpha)
        results = {
            "kind": "ising_lr",
            "alpha": args.alpha,
            "norm": {"value": norm.value, "remainder": norm.remainder, "upper": norm.upper},
            "two_zeta": 2.0 * zv,
        }
        return results, norm.upper <= 2.0 * (zv + ze) + 1e-12, None
    phi = interactions.ising_nn()
    norm = interactions.interaction_norm(phi)
    results = {
        "kind": "ising_nn",
        "norm": {"value": norm.value, "remainder": norm.remainder, "upper": norm.upper},
    }
    return results, norm.value == 1.0, None


def _cmd_walters(cfg, args):
    _refuse_beta(args, "its estimates are those of the potential as given")
    f = _potential_from(cfg, args)
    n_sup = _opt(args.n, 16)
    estimates = [
        {"p": p, "value": potentials.walters_estimate(f, p, n_sup)} for p in (1, 2, 4, 8)
    ]
    jop = potentials.jop_series(f, eps=0.5, n_terms=max(n_sup, 8))
    results = {
        "estimates": estimates,
        "jop": {
            "partial_sum": jop.partial_sum,
            "last_term": jop.last_term,
            "growth_exponent": jop.growth_exponent,
            "diverging": jop.diverging,
            "n_terms": jop.n_terms,
        },
    }
    return results, True, None


def _cmd_uniqueness(cfg, args):
    f = _potential_from(cfg, args)
    beta = _opt(args.beta, 1.0)
    N = _opt(args.n, 8)
    rng = np.random.default_rng(args.seed)
    # one pass over the 2N window, whose size guard refuses before any work;
    # its running maxima hold the estimate at N too
    values, bound = dlr.D_estimate(f, 2 * N)
    value = values[max(N, 0)]
    stabilized = abs(value - values[-1]) < 1e-12
    tails = dlr.default_tails(f.d)
    draws = []
    for _ in range(20):
        n = int(rng.integers(1, 9))
        C = _random_word(rng, f.d, min(n, 4))
        y = tails[int(rng.integers(0, len(tails)))]
        z = tails[int(rng.integers(0, len(tails)))]
        draws.append((n, C, y, z))
    holds, margins, log_margins = zip(*dlr.sandwich_check(f, beta, draws, value))
    results = {
        "D": value,
        "metadata_bound": bound,
        "stabilized": stabilized,
        "margins": list(margins),
        "min_margin": min(margins),
        "log_margins": list(log_margins),
        "min_log_margin": min(log_margins),
        "holds_all": all(holds),
    }
    return results, all(holds) and stabilized, None


def _cmd_ising(cfg, args):
    _refuse_beta(args, "its series are those of the energy at beta = 1")
    alpha = _opt(args.alpha, 3.0)
    params = ising.IsingParams(alpha=alpha, cutoff=_opt(args.cutoff, 200))
    terms = _opt(args.n, 100)
    rng = np.random.default_rng(args.seed)
    zv, ze = ising.zeta(alpha, params.cutoff)
    gv, ge = ising.g_one_sided(params, Point.constant(1))
    results = {
        "alpha": alpha,
        "cutoff": params.cutoff,
        "zeta": {"value": zv, "bound": ze},
        "g_all_plus": {"value": gv, "bound": ge},
    }
    west = ising.ising_walters_estimate(params, 8)
    results["walters"] = {
        "p": 8,
        "value": west.value,
        "bound": west.error_bound,
        "decaying": west.decaying,
    }
    _, _, ratio = ising.hoelder_witness(params, 0.5, 10.0)
    results["witness_ratio"] = ratio
    ok = True
    if alpha > 2:
        checks = []
        for _ in range(5):
            spots = rng.integers(1, 13, size=3)
            signs = rng.integers(0, 2, size=3)
            flips = {int(p) if s else -int(p) for p, s in zip(spots, signs)}
            right = tuple(0 if i in flips else 1 for i in range(13))
            left = tuple(0 if -i in flips else 1 for i in range(1, 13))
            x = ising.TwoSidedPoint(Point(left, (1,)), Point(right, (1,)))
            res, bnd = ising.coboundary_check(params, x, terms)
            checks.append({"point": x.literal, "residual": res, "bound": bnd})
            ok = ok and res <= bnd
        results["coboundary"] = checks
    return results, ok, None


def _cmd_change_of_measure(cfg, args):
    _refuse_beta(args, "it checks the potential as given")
    depth = _opt(args.depth, 3)
    tol = _opt(args.tol, 1e-9)
    if cfg.get("potential") is not None:
        f = _potential_from(cfg, args)
        deviations = [dlr.change_of_measure_check(f, depth)]
    else:
        d = _opt(args.d, 2)
        rng = np.random.default_rng(args.seed)
        deviations = [
            dlr.change_of_measure_check(_random_table_potential(rng, d, 2), depth)
            for _ in range(10)
        ]
    worst = max(deviations)
    results = {"deviations": deviations, "max_deviation": worst, "tol": tol, "depth": depth}
    return results, worst < tol, None


_COMMANDS = {
    "rpf": _cmd_rpf,
    "pressure": _cmd_pressure,
    "normalize": _cmd_normalize,
    "kernel": _cmd_kernel,
    "tl": _cmd_tl,
    "dlr-check": _cmd_dlr_check,
    "interaction": _cmd_interaction,
    "walters": _cmd_walters,
    "uniqueness": _cmd_uniqueness,
    "ising": _cmd_ising,
    "change-of-measure": _cmd_change_of_measure,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="ruellekit", description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=sorted(_COMMANDS), metavar="subcommand")
    parser.add_argument("--config", metavar="PATH")
    parser.add_argument("--out", metavar="PATH")
    parser.add_argument("--d", type=int)
    parser.add_argument("--depth", type=int)
    parser.add_argument("--n", type=int)
    parser.add_argument("--r", type=int)
    parser.add_argument("--beta", type=float)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--cutoff", type=int)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--max-iter", type=int, dest="max_iter")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--csv", metavar="PATH")
    return parser


_PARSER = _build_parser()


def run(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if args.n is not None and args.n < 0:
            raise UsageError(f"--n must be >= 0, got {args.n}")
        cfg = _load_config(args.config)
        results, ok, rows = _COMMANDS[args.command](cfg, args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except TableSizeError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return 1
    except transfer.NumericalBreakdown as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "params": {k: v for k, v in vars(args).items() if k not in ("command", "out", "csv")},
        "results": results,
        "status": "ok" if ok else "check-failed",
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    _write_report(report, args.out)
    if args.csv and rows is not None:
        _write_csv(rows, args.csv)
    return 0 if ok else 2


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
