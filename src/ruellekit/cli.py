"""Batch front-end: parse configs, dispatch computations, emit reports.

Every subcommand writes a JSON report (schema "ruelle-kit/1") to --out or
stdout in the layout of json.dumps(sort_keys=True, indent=2): sorted keys,
one array element per line.  Floats, there and in the tl --csv rows, are
"%.17g" or NaN/Infinity/-Infinity, so identical config + seed reproduces
identical bytes (modulo the generated_at field).  A float array with
fewer than half its entries distinct (psi repeats each of its values) has
each distinct value formatted once; the bytes are the same.

Each subcommand takes only the flags it reads (_FLAGS), each a _Key as a
config param is, refused outside its domain as "<flag> must ..., got <v>".
The parser is that table (_parse): a flag is its exact name, given once,
as --flag value or --flag=value; any other token is a usage error.
Exit status: 0 on success; 2 when a check fails: a power iteration did not
converge (rpf, pressure, normalize, change-of-measure, tl's reference), or
a residual, deviation or certificate lands beyond its tolerance
(normalize: sup |L_fbar 1 - 1| at fbar's depth > tol * max psi / min psi);
1 on usage/config errors, on a computation that leaves the float range
(uniqueness's underflowed kernel mass, change-of-measure's psi) and on an
output that cannot be written (no report is written then).

A config file is a JSON object of the keys its subcommand reads (_CONFIG),
its potential's params those of its kind (_PARAMS).  Any other key, one
of the wrong JSON type or a param outside its domain is a usage error
naming it, raised before any work, and so is a word or point literal off
the potential's alphabet.  --d (and interaction's --alpha) names the
potential of a config without one.

Randomness enters only through test-point/boundary sampling, from a
single numpy Generator seeded by --seed.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Callable
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii as _quoted
from types import SimpleNamespace
from typing import Any, NamedTuple

import numpy as np

from . import dlr, interactions, ising, potentials, transfer
from .shift import CylinderFunction, Point, TableSizeError, parse_word, word_table

SCHEMA = "ruelle-kit/1"


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

def _format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _format_floats(values: list[float], finite: bool, sep: str) -> str:
    """_format_float of each value, joined by sep; when all are finite, one % call formats them."""
    if finite:
        return sep.join(["%.17g"] * len(values)) % tuple(values)
    return sep.join(map(_format_float, values))


def _join_floats(values: np.ndarray, sep: str) -> str:
    """_format_float of each entry of a 1-D float64 array, joined by sep.

    When fewer than half the entries are distinct (psi repeats each of its
    values), each distinct value is formatted once and its text gathered
    back in array order.  Values are keyed by bit pattern, so 0.0 and -0.0
    keep their own text; the bytes are those of formatting every entry.
    """
    bits = values.view(np.uint64)
    keys = np.sort(bits)
    keys = np.append(keys[:1], keys[1:][keys[1:] != keys[:-1]])
    if 2 * keys.size < values.size:
        distinct = keys.view(np.float64)
        texts = _format_floats(distinct.tolist(), bool(np.isfinite(distinct).all()), "\n").split("\n")
        return sep.join(np.array(texts, dtype=object)[np.searchsorted(keys, bits)].tolist())
    return _format_floats(values.tolist(), bool(np.isfinite(values).all()), sep)


def _emit(obj, pad: str) -> str:
    """obj as json.dumps(obj, sort_keys=True, indent=2) lays it out, floats by _format_float."""
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return _quoted(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if not isinstance(obj, (dict, list, tuple, np.ndarray)):
        return json.dumps(int(obj) if isinstance(obj, np.integer) else obj)
    if len(obj) == 0:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        # json.dumps writes a non-string key (tl's int keys) as the string of its JSON text
        body = sep.join(
            f"{_quoted(k if isinstance(k, str) else json.dumps(k))}: {_emit(v, inner)}"
            for k, v in sorted(obj.items())
        )
        return "{\n" + inner + body + "\n" + pad + "}"
    if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind == "f":
        body = _join_floats(obj.astype(np.float64, copy=False), sep)
    else:
        values = obj.tolist() if isinstance(obj, np.ndarray) else obj
        if all(isinstance(v, float) for v in values):
            body = _format_floats(values, all(map(math.isfinite, values)), sep)
        else:
            body = sep.join([_emit(v, inner) for v in values])
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


def _write_csv(table: dlr.TLTable, path: str) -> None:
    """tl's table, one row per (volume, cylinder, boundary) in that order,
    written as the csv module's default dialect writes it: no field needs
    quoting (cylinder names are digits, boundary ids digits and '|'), and
    every line ends in \\r\\n."""
    refs = _join_floats(table.nu_ref, "\n").split("\n")
    template = "".join([
        f"{n},{name},{boundary_id},%s,{ref},%s\r\n"
        for n in table.volumes.tolist()
        for name, ref in zip(table.cylinders, refs)
        for boundary_id in table.boundary_ids
    ])
    # K_n and deviation of each row, side by side in row order
    pairs = np.stack([table.K, table.deviation], axis=-1).ravel()
    cells = tuple(_join_floats(pairs, "\n").split("\n")) if pairs.size else ()
    with open(path, "w", newline="") as fh:
        fh.write("n,cylinder,boundary_id,K_n,nu_ref,deviation\r\n" + template % cells)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def _opt(value, default):
    """A flag's value, or the default when the flag was not given (0 is a value)."""
    return default if value is None else value


class _Key(NamedTuple):
    """A flag or config entry: its type (a flag's int, float or str; an entry's JSON type, _is: int,
    float, a number a float holds, str, [a list of one]), a table {key: _Key}, or (selector, {name:
    table}) for an object whose selector names the table of its other keys; its default, ... for a
    key that must be given and None for one that may be absent; the words naming its type; and its
    domain, a test of the value and the inputs beside it returning what is wrong."""

    type: Any
    default: Any = None
    what: str = ""
    domain: Callable[[Any, dict], str | None] | None = None

    def __call__(self, default):  # the input with another default: _SITES(2)
        return self._replace(default=default)


def _at_least(low):
    return lambda value, _: None if value >= low else f"must be >= {low}, got {value}"


def _finite(value, _):
    return None if math.isfinite(value) else f"must be finite, got {json.dumps(value)}"


def _table_values(values, params):
    d, depth = params["d"], params["depth"]
    if not all(map(math.isfinite, values)):
        return "must be finite numbers"
    # no list holds 2**64 entries: d**depth need not be formed past that
    if (d == 1 or depth < 64) and len(values) == d**depth:
        return None
    return f"must hold d**depth = {d}**{depth} numbers, got {len(values)}"


_REAL = _Key(float, ..., domain=_finite)
_D = _Key(int, ..., domain=_at_least(1))
# the long-range Ising chain's couplings are summable only at a finite alpha > 1
_ALPHA = _Key(float, 3.0, domain=lambda v, _: None if math.isfinite(v) and v > 1
              else f"must be a finite number > 1, got {json.dumps(v)}")
_CUTOFF = _Key(int, 200, domain=_at_least(2))
# a hofbauer sequence: base + coef * k^-exponent, or base + coef * ratio^k
_SEQUENCE = ("form", {
    "power": {"base": _REAL(0.0), "coef": _REAL(1.0), "exponent": _REAL},
    "geometric": {"base": _REAL(0.0), "coef": _REAL(1.0), "ratio": _REAL},
})
# the params of each potential kind
_PARAMS = {
    "constant": {"d": _D(2), "value": _Key(float, 0.0, domain=_finite)},
    "table": {"d": _D, "depth": _Key(int, ..., domain=_at_least(0)),
              "values": _Key([float], ..., "a list of numbers", _table_values), "label": _Key(str, "config-table")},
    # no beta: --beta scales the potential, and a second factor in g would apply it twice
    "ising_lr": {"alpha": _ALPHA, "cutoff": _CUTOFF},
    "hofbauer": {"a_seq": _Key(_SEQUENCE, ...), "c_seq": _Key(_SEQUENCE, ...), "a": _REAL, "b": _REAL, "c": _REAL,
                 "var_decay": _Key(_SEQUENCE, None)},
}
_DESCRIPTOR = ("kind", {kind: {"params": _Key(params, {})} for kind, params in _PARAMS.items()})
_POINT, _WORD = _Key(str, "|0", "a point literal"), _Key(str, "0", "a word")
# the keys each subcommand reads from its --config; the checker refuses all others
_CONFIG = {
    **{command: {"potential": _Key(_DESCRIPTOR)}
       for command in ("rpf", "pressure", "normalize", "walters", "uniqueness", "change-of-measure")},
    "kernel": {"potential": _Key(_DESCRIPTOR), "boundary": _POINT, "test_word": _WORD},
    "tl": {"potential": _Key(_DESCRIPTOR), "cylinders": _Key([str], None, "a list of words"),
           "boundaries": _Key([str], None, "a list of point literals")},
    # it telescopes a table; the long-range chain is --alpha's, without a config potential
    "interaction": {"potential": _Key(("kind", {k: _DESCRIPTOR[1][k] for k in ("constant", "table")})),
                    "boundary": _POINT},
}


# the words naming each type in the usage error for a flag value or config entry not of it
_TYPE_WHAT = {int: "an integer", float: "a number", str: "a string"}


def _is(value, kind) -> bool:
    if isinstance(kind, list):
        return type(value) is list and all(_is(v, kind[0]) for v in value)
    return type(value) is kind or kind is float and type(value) is int and abs(value) <= sys.float_info.max


def _checked(value, kind, key: str, what: str = ""):
    """value, the config entry `key`, with the defaults of its JSON type `kind` filled in: a usage
    error naming the key (or one inside it) that is unknown, missing, not of its type or outside
    its domain."""
    if not isinstance(kind, (dict, tuple)):
        if _is(value, kind):
            return float(value) if kind is float else value
        what = what or _TYPE_WHAT[kind]
        raise UsageError(f"invalid config: {key} must be {what}, got {json.dumps(value)}")
    if type(value) is not dict:
        raise UsageError(f"invalid config: {key} must be a JSON object, got {json.dumps(value)}")
    if isinstance(kind, tuple):
        selector, tables = kind
        name = value.get(selector)
        if not (type(name) is str and name in tables):
            raise UsageError(
                f"invalid config: unknown {key} {selector} {json.dumps(name)}: one of {', '.join(tables)}")
        rest = {k: v for k, v in value.items() if k != selector}
        return {selector: name, **_checked(rest, tables[name], key)}
    for k in value:
        if k not in kind:
            raise UsageError(f"invalid config: {key} takes no {k}: it takes {', '.join(kind)}")
    for k, entry in kind.items():
        if entry.default is ... and k not in value:
            raise UsageError(f"invalid config: {key} needs {k}")
    # an absent key reads as its default, checked as a given one (a table's defaults filled in)
    checked = {k: None if entry.default is None and k not in value else
               _checked(value.get(k, entry.default), entry.type, k, entry.what) for k, entry in kind.items()}
    _check_domains(kind, checked, "invalid config: ")
    return checked


def _check_domains(table: dict, values: dict, prefix: str) -> None:
    """A usage error naming the first input of `table` whose value (in `values`) lies outside its domain."""
    for key, entry in table.items():
        wrong = entry.domain and values[key] is not None and entry.domain(values[key], values)
        if wrong:
            raise UsageError(f"{prefix}{key} {wrong}")


def _load_config(args) -> dict:
    """The --config keys the subcommand reads, checked, with their defaults filled in (_CONFIG)."""
    cfg = {}
    if vars(args).get("config") is not None:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config: {exc}")
        except json.JSONDecodeError as exc:
            raise UsageError(f"invalid config (not valid JSON): {exc}")
    cfg = _checked(cfg, _CONFIG.get(args.command, {}), f"the {args.command} config")
    # each names the potential of a config without one
    given = [flag for flag in ("--d", "--alpha") if vars(args).get(flag[2:]) is not None]
    if given and cfg.get("potential") is not None:
        raise UsageError(f"{args.command} {given[0]} applies without a config potential, and the config names one")
    return cfg


def _sequence_from(desc: dict):
    base, coef, x = desc["base"], desc["coef"], desc.get("exponent", desc.get("ratio"))
    return (lambda k: base + coef * k ** (-x)) if desc["form"] == "power" else (lambda k: base + coef * x**k)


def _potential_from(cfg: dict, args) -> potentials.Potential:
    """The config's potential (0 on --d symbols when it names none), times
    --beta when the flag is given."""
    desc = cfg["potential"]
    if desc is None:
        f = potentials.Potential.constant(_opt(args.d, 2), 0.0)
    else:
        f = _described_potential(desc["kind"], desc["params"])
    beta = vars(args).get("beta")  # a subcommand without --beta computes with f as given
    return f if beta is None else potentials.scale(f, beta)


def _described_potential(kind: str, params: dict) -> potentials.Potential:
    if kind == "constant":
        return potentials.Potential.constant(params["d"], params["value"])
    if kind == "table":
        return potentials.Potential.from_table(**params)
    if kind == "ising_lr":
        return ising.g_potential(ising.IsingParams(**params))
    # hofbauer, its sequences as functions of k
    sequences = {k: _sequence_from(v) for k, v in params.items() if isinstance(v, dict)}
    return potentials.make_hofbauer_walters(**{**params, **sequences})


def _point_from(text: str, d: int, key: str) -> Point:
    """The point literal `text` of the config key `key`, on d symbols."""
    try:
        y = Point.from_literal(text)
    except ValueError as exc:
        raise UsageError(f"invalid config: {key} {text!r} is no point literal ({exc})")
    _check_alphabet(y.prefix + y.cycle, d, key, text)
    return y


def _word_from(text: str, d: int, key: str) -> tuple[int, ...]:
    """The word `text` of the config key `key`, on d symbols."""
    try:
        word = parse_word(text)
    except ValueError as exc:
        raise UsageError(f"invalid config: {key} {text!r} is no word ({exc})")
    _check_alphabet(word, d, key, text)
    return word


def _check_alphabet(symbols, d: int, key: str, text: str) -> None:
    if any(s >= d for s in symbols):
        raise UsageError(f"invalid config: {key} {text!r} has a symbol outside the potential's alphabet of size {d}")


# ---------------------------------------------------------------------------
# Sampling helpers (the only consumers of the RNG)
# ---------------------------------------------------------------------------

def _random_point(rng: np.random.Generator, d: int) -> Point:
    prefix = tuple(int(s) for s in rng.integers(0, d, size=int(rng.integers(0, 4))))
    cycle = tuple(int(s) for s in rng.integers(0, d, size=int(rng.integers(1, 4))))
    return Point(prefix, cycle)


def _random_table_potential(rng: np.random.Generator, d: int, depth: int) -> potentials.Potential:
    values = rng.uniform(-1.0, 1.0, size=d**depth)
    return potentials.Potential.from_table(d, depth, values, label="sampled")


def _random_word(rng: np.random.Generator, d: int, max_len: int) -> tuple[int, ...]:
    return tuple(int(s) for s in rng.integers(0, d, size=int(rng.integers(1, max_len + 1))))


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (results, ok, csv_table)
# ---------------------------------------------------------------------------

def _rpf_data(cfg, args):
    f = _potential_from(cfg, args)
    if args.depth is None and f.table is None:
        raise UsageError(f"{args.command} needs --depth for the callable {cfg['potential']['kind']} potential")
    return f, transfer.power_iterate(f, _opt(args.depth, f.truncation_depth()), tol=args.tol, max_iter=args.max_iter)


def _cmd_rpf(cfg, args):
    _, rpf = _rpf_data(cfg, args)
    with np.errstate(over="ignore"):  # an entry past the float range rounds to Infinity
        psi = np.exp(rpf.log_psi)
    results = {
        "lambda": rpf.lam,
        "log_lambda": rpf.log_lam,
        "psi": psi,
        "nu": rpf.nu.weights,
        "residuals": {"function": rpf.residual_fn, "measure": rpf.residual_meas},
        "iterations": rpf.iterations,
        "depth": rpf.depth,
        "d": rpf.d,
    }
    return results, rpf.converged, None


def _cmd_pressure(cfg, args):
    _, rpf = _rpf_data(cfg, args)
    results = {
        "pressure": rpf.log_lam,
        "lambda": rpf.lam,
        "residuals": {"function": rpf.residual_fn, "measure": rpf.residual_meas},
        "iterations": rpf.iterations,
    }
    return results, rpf.converged, None


def _cmd_normalize(cfg, args):
    f, rpf = _rpf_data(cfg, args)
    fbar = transfer.normalize(f, rpf)
    check = transfer.check_normalized(fbar)
    results = {
        "depth": fbar.depth(),
        "values": fbar.table.values,
        "check_depth": fbar.depth(),
        "check_sup_norm": check,
        "log_lambda": rpf.log_lam,
    }
    # check is per entry: up to max psi / min psi times the sup-norm residual held under tol
    spread = transfer.exp_or_inf(float(np.ptp(rpf.log_psi)))
    return results, rpf.converged and check <= args.tol * spread, None


def _cmd_kernel(cfg, args):
    f = _potential_from(cfg, args)
    y = _point_from(cfg["boundary"], f.d, "boundary")
    g = CylinderFunction.indicator(f.d, _word_from(cfg["test_word"], f.d, "test_word"))
    # the kernel and its log-partition from one sweep
    _, K, _, log_zs = next(dlr._sweep(f, [g], [y], [args.n]))
    value, log_z = float(K[0, 0]), float(log_zs[0])
    results = {
        "partition": transfer.exp_or_inf(log_z),
        "log_partition": log_z,
        "kernel_value": value,
        "test_word": cfg["test_word"],
        "boundary": y.literal,
        "n": args.n,
        # without --beta the potential as given: beta 1
        "beta": _opt(args.beta, 1.0),
    }
    return results, True, None


def _cmd_tl(cfg, args):
    f = _potential_from(cfg, args)
    n_max = args.n
    rng = np.random.default_rng(args.seed)
    if cfg["cylinders"] is not None:
        cylinders = [_word_from(w, f.d, "cylinders") for w in cfg["cylinders"]]
    else:
        # every word of length 1 and 2, in word_index order
        cylinders = [tuple(w) for q in (1, 2) for w in word_table(q, f.d).tolist()]
    # the volumes run from the deepest cylinder's length up to --n
    qmax = max(map(len, cylinders), default=0)
    if n_max < qmax:
        raise UsageError(f"--n {n_max} is below the deepest cylinder's length {qmax}")
    if cfg["boundaries"] is not None:
        boundaries = [_point_from(t, f.d, "boundaries") for t in cfg["boundaries"]]
    else:
        boundaries = [_random_point(rng, f.d) for _ in range(4)]
    table = dlr.tl_sequence(f, cylinders, boundaries, n_max, tol=args.tol, max_iter=args.max_iter)
    results = {
        "worst": dict(zip(table.volumes.tolist(), table.worst.tolist())),
        "n_max": n_max,
        "rows": table.K.size,
        "boundaries": [y.literal for y in boundaries],
    }
    # kernels against an unconverged reference measure nothing: check-failed, as pressure
    return results, table.converged, table


def _cmd_dlr_check(cfg, args):
    d, n, r = args.d, args.n, args.r
    rng = np.random.default_rng(args.seed)
    cases = []
    for _ in range(10):
        f = _random_table_potential(rng, d, args.depth)
        if args.beta is not None:
            f = potentials.scale(f, args.beta)
        q = int(rng.integers(1, n + r + 1))
        g = CylinderFunction(d, q, rng.uniform(-1.0, 1.0, size=d**q))
        cases.append((f, _random_point(rng, d), g))
    residuals = dlr.finite_volume_dlr_check(n, r, cases)
    worst = max(residuals)
    results = {
        "residuals": residuals,
        "max_residual": worst,
        "tol": args.tol,
        "n": n,
        "r": r,
        "instances": len(residuals),
    }
    return results, worst < args.tol, None


def _cmd_interaction(cfg, args):
    # the config's table telescoped, else --alpha's long-range chain, else the nearest-neighbour one
    if cfg["potential"] is not None:
        f = _potential_from(cfg, args)
        y = _point_from(cfg["boundary"], f.d, "boundary")
        phi = interactions.from_potential(f, y, k_max=2 * f.depth(), n_max=2 * f.depth())
        results, ok = {"kind": "from_potential", "terms": len(phi.terms)}, lambda norm: True
    elif args.alpha is not None:
        phi = interactions.ising_lr(args.alpha)
        zv, ze = ising.zeta(args.alpha)
        results = {"kind": "ising_lr", "alpha": args.alpha, "two_zeta": 2.0 * zv}
        ok = lambda norm: norm.upper <= 2.0 * (zv + ze) + 1e-12
    else:
        phi = interactions.ising_nn()
        results, ok = {"kind": "ising_nn"}, lambda norm: norm.value == 1.0
    norm = interactions.interaction_norm(phi)
    results["norm"] = {"value": norm.value, "remainder": norm.remainder, "upper": norm.upper}
    return results, ok(norm), None


def _cmd_walters(cfg, args):
    f = _potential_from(cfg, args)
    estimates = [
        {"p": p, "value": potentials.walters_estimate(f, p, args.n)} for p in (1, 2, 4, 8)
    ]
    jop = potentials.jop_series(f, eps=0.5, n_terms=max(args.n, 8))
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
    if f.d < 2:
        raise UsageError(f"uniqueness --d must be >= 2: it compares tails on two symbols or more, got {f.d}")
    N = args.n
    rng = np.random.default_rng(args.seed)
    # one pass over the 2N window, whose size guard refuses before any work;
    # its running maxima hold the estimate at N too
    values, bound = dlr.D_estimate(f, 2 * N)
    value = values[N]
    stabilized = abs(value - values[-1]) < 1e-12
    tails = dlr.default_tails(f.d)
    draws = []
    for _ in range(20):
        n = int(rng.integers(1, 9))
        C = _random_word(rng, f.d, min(n, 4))
        y = tails[int(rng.integers(0, len(tails)))]
        z = tails[int(rng.integers(0, len(tails)))]
        draws.append((n, C, y, z))
    holds, margins, log_margins = zip(*dlr.sandwich_check(f, draws, value))
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


# the coboundary points flip chain sites up to 12, and a point that differs
# from the all-plus chain up to site B needs a transfer series of B + 2 terms
_ISING_MIN_TERMS = 14


def _cmd_ising(cfg, args):
    alpha, terms = args.alpha, args.n
    params = ising.IsingParams(alpha=alpha, cutoff=args.cutoff)
    if alpha > 2 and terms < _ISING_MIN_TERMS:
        raise UsageError(f"ising --n must be >= {_ISING_MIN_TERMS} for alpha > 2, got {terms}")
    rng = np.random.default_rng(args.seed)
    zv, ze = params.cutoff_zeta
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
        points = []
        for _ in range(5):
            spots = rng.integers(1, 13, size=3)
            signs = rng.integers(0, 2, size=3)
            flips = {int(p) if s else -int(p) for p, s in zip(spots, signs)}
            right = tuple(0 if i in flips else 1 for i in range(13))
            left = tuple(0 if -i in flips else 1 for i in range(1, 13))
            points.append(ising.TwoSidedPoint(Point(left, (1,)), Point(right, (1,))))
        checks = ising.coboundary_checks(params, points, terms)
        results["coboundary"] = [
            {"point": x.literal, "residual": res, "bound": bnd} for x, (res, bnd) in zip(points, checks)
        ]
        ok = all(res <= bnd for res, bnd in checks)
    return results, ok, None


def _cmd_change_of_measure(cfg, args):
    depth, tol = args.depth, args.tol
    if cfg["potential"] is not None:
        corpus = [_potential_from(cfg, args)]
    else:
        rng = np.random.default_rng(args.seed)
        corpus = [_random_table_potential(rng, _opt(args.d, 2), 2) for _ in range(10)]
    checks = [dlr.change_of_measure_check(f, depth, max_iter=args.max_iter) for f in corpus]
    deviations = [deviation for deviation, _ in checks]
    worst = max(deviations)
    results = {"deviations": deviations, "max_deviation": worst, "tol": tol, "depth": depth}
    # a deviation of unconverged eigendata certifies nothing, however small
    return results, worst < tol and all(converged for _, converged in checks), None


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


# a flag's default is the one it runs with, None when it is not given or is read from the input;
# --d, --alpha and --cutoff are the params of those names (_PARAMS)
_PATH = _Key(str)
_BETA = _Key(float)
_SIZE = _Key(int, None, domain=_at_least(0))
_SITES = _Key(int, None, domain=_at_least(1))
_TOL = _Key(float, transfer.DEFAULT_TOL, domain=lambda v, _: None if math.isfinite(v) and v > 0.0
            else f"must be a positive finite number, got {json.dumps(v)}")
_MAX_ITER = _Key(int, transfer.DEFAULT_MAX_ITER, domain=_at_least(1))
_SEED = _Key(int, 0, domain=_at_least(0))

# the potential of --config, or 0 on --d symbols when it names none
_POTENTIAL = {"--config": _PATH, "--d": _D(None)}
# --depth defaults to a table's depth
_EIGEN = {**_POTENTIAL, "--depth": _SITES, "--beta": _BETA, "--tol": _TOL, "--max-iter": _MAX_ITER}

# the flags each subcommand reads, besides the --out of every report; the
# parser (_parse) refuses all others.  _SITES marks a number of sites, at least 1.
_FLAGS = {
    "rpf": _EIGEN,
    "pressure": _EIGEN,
    "normalize": _EIGEN,
    "kernel": {**_POTENTIAL, "--n": _SITES(2), "--beta": _BETA},
    "tl": {**_POTENTIAL, "--n": _SIZE(12), "--beta": _BETA, "--tol": _TOL, "--max-iter": _MAX_ITER,
           "--seed": _SEED, "--csv": _PATH},
    "dlr-check": {"--d": _D(2), "--depth": _SIZE(2), "--n": _SITES(2), "--r": _SIZE(2), "--beta": _BETA,
                  "--tol": _TOL(1e-12), "--seed": _SEED},
    "interaction": {"--config": _PATH, "--alpha": _ALPHA(None)},
    "walters": {**_POTENTIAL, "--n": _SITES(16)},
    "uniqueness": {**_POTENTIAL, "--n": _SITES(8), "--beta": _BETA, "--seed": _SEED},
    "ising": {"--n": _SIZE(100), "--alpha": _ALPHA, "--cutoff": _CUTOFF, "--seed": _SEED},
    "change-of-measure": {**_POTENTIAL, "--depth": _SITES(3), "--tol": _TOL(1e-9), "--max-iter": _MAX_ITER,
                          "--seed": _SEED},
}


def _dest(flag: str) -> str:
    """The name of a flag's value in args and in a report's params: --max-iter's is max_iter."""
    return flag[2:].replace("-", "_")


def _usage(command: str | None) -> str:
    """The --help text of a subcommand, from its _FLAGS row, or of ruellekit when command is None."""
    if command is None:
        return (f"usage: ruellekit <subcommand> [--out PATH] [flags of the subcommand]\n\n"
                f"{__doc__.splitlines()[0]}\n\nsubcommands: {', '.join(_FLAGS)}\n"
                "ruellekit <subcommand> --help lists the flags of a subcommand\n")
    flags = {"--out": _PATH, **_FLAGS[command]}
    words = (f"[{flag} {'PATH' if spec.type is str else _dest(flag).upper()}]" for flag, spec in flags.items())
    return f"usage: ruellekit {command} [-h] {' '.join(words)}\n"


def _parse(argv) -> SimpleNamespace:
    """The subcommand of argv, as command, and the value of each flag of its _FLAGS row and of --out,
    by its _dest name: the flag's default when it is absent, else its one value, given as `--flag value`
    or `--flag=value`, of its type and inside its domain.  Any other token, a flag given twice, or a
    value missing or not of its flag's type is a usage error; -h or --help prints the usage and exits 0."""
    if not argv:
        raise UsageError(f"ruellekit needs a subcommand: one of {', '.join(_FLAGS)}")
    command = argv[0]
    if command in ("-h", "--help"):
        print(_usage(None), end="")
        raise SystemExit(0)
    if command not in _FLAGS:
        raise UsageError(f"unknown subcommand {json.dumps(command)}: one of {', '.join(_FLAGS)}")
    flags = _FLAGS[command]
    table = {"--out": _PATH, **flags}
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            print(_usage(command), end="")
            raise SystemExit(0)
        flag, eq, text = token.partition("=")
        spec = table.get(flag)
        if spec is None:
            raise UsageError(f"{command} takes no {flag}: it takes --out, {', '.join(flags)}")
        if flag in given:
            raise UsageError(f"{flag} is given twice: {command} takes each flag once")
        if not eq:
            text = next(tokens, None)
            if text is None:
                raise UsageError(f"{flag} needs a value")
        try:
            given[flag] = spec.type(text)
        except ValueError:
            raise UsageError(f"{flag} must be {_TYPE_WHAT[spec.type]}, got {json.dumps(text)}") from None
    values = {flag: given.get(flag, spec.default) for flag, spec in table.items()}
    _check_domains(flags, values, "")
    return SimpleNamespace(command=command, **{_dest(flag): value for flag, value in values.items()})


def run(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        cfg = _load_config(args)
        results, ok, table = _COMMANDS[args.command](cfg, args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except TableSizeError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return 1
    except dlr.NumericalBreakdown as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return 1
    except potentials.VariationUnavailable as exc:
        # a valid config whose potential declares no variation bound the command needs
        print(f"no certified bound: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # every config fault is refused before any work: this is the computation's
        print(f"computation error: {exc}", file=sys.stderr)
        return 1
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "params": {k: v for k, v in vars(args).items() if k not in ("command", "out", "csv")},
        "results": results,
        "status": "ok" if ok else "check-failed",
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    try:
        # the CSV first: a report says ok only beside the rows it counts
        if table is not None and args.csv:
            _write_csv(table, args.csv)
        _write_report(report, args.out)
    except OSError as exc:
        print(f"cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(run())
