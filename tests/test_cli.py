"""End-to-end exercises of the command-line front-end.

Covers the exit-code contract (0 ok / 2 check-failed / 1 usage error),
the versioned JSON report schema, byte-level reproducibility, CSV
output, and config parsing for each potential descriptor kind.
"""

import csv
import dataclasses
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from karp import bracket

from ruellekit import cli, dlr, interactions, potentials, transfer
from ruellekit.shift import CylinderFunction, Point, parse_word

GOLDEN = (3.0 + math.sqrt(5.0)) / 2.0


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def markov_config(tmp_path):
    return write_config(
        tmp_path,
        {
            "potential": {
                "kind": "table",
                "params": {
                    "d": 2,
                    "depth": 2,
                    "values": [math.log(2.0), 0.0, 0.0, 0.0],
                    "label": "markov",
                },
            }
        },
    )


def run(tmp_path, *args, name="report.json"):
    out = tmp_path / name
    code = cli.run([*args, "--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def test_rpf_doubling_map(tmp_path):
    code, report = run(tmp_path, "rpf")
    assert code == 0
    assert report["schema"] == "ruelle-kit/1"
    assert report["command"] == "rpf"
    assert report["status"] == "ok"
    assert report["results"]["lambda"] == pytest.approx(2.0, rel=1e-12)
    assert report["results"]["residuals"]["function"] < 1e-10
    assert set(report) == {"schema", "command", "params", "results", "status", "generated_at"}


def test_pressure_markov(tmp_path):
    code, report = run(tmp_path, "pressure", "--config", markov_config(tmp_path))
    assert code == 0
    assert report["results"]["pressure"] == pytest.approx(math.log(GOLDEN), rel=1e-10)


def test_eigen_subcommands_honour_beta(tmp_path):
    # --beta scales the potential, as for the kernel commands
    f = potentials.scale(potentials.Potential.from_table(2, 2, [math.log(2.0), 0.0, 0.0, 0.0]), 2.0)
    rpf = transfer.power_iterate(f, 2)
    code, report = run(tmp_path, "pressure", "--config", markov_config(tmp_path), "--beta", "2")
    assert code == 0
    assert report["params"]["beta"] == 2
    assert report["results"]["pressure"] == rpf.log_lam
    code, report = run(tmp_path, "normalize", "--config", markov_config(tmp_path), "--beta", "2")
    assert code == 0
    assert report["results"]["values"] == list(transfer.normalize(f, rpf).table.values)


def test_normalize_markov(tmp_path):
    code, report = run(tmp_path, "normalize", "--config", markov_config(tmp_path))
    assert code == 0
    assert report["results"]["depth"] == 3
    assert report["results"]["check_sup_norm"] < 1e-10


def test_normalize_passes_converged_eigendata_with_a_wide_psi_spread(tmp_path):
    # the check is per entry, up to max psi / min psi (2.9e3 here) times the residual held under tol;
    # a depth-7 table iterates on 64 words, above the squaring cap, and stops just under tol
    values = np.random.default_rng(7).normal(size=128).tolist()
    cfg = write_config(tmp_path, {"potential": {"kind": "table", "params": {"d": 2, "depth": 7, "values": values}}})
    code, report = run(tmp_path, "normalize", "--config", cfg, "--depth", "6")
    assert code == 0
    assert report["status"] == "ok"
    assert 1e-10 < report["results"]["check_sup_norm"] < 13.9e-10


def test_normalize_fails_eigendata_that_did_not_converge(tmp_path, monkeypatch):
    power_iterate = transfer.power_iterate
    monkeypatch.setattr(
        transfer, "power_iterate", lambda *a, **k: dataclasses.replace(power_iterate(*a, **k), converged=False)
    )
    code, report = run(tmp_path, "normalize", "--config", markov_config(tmp_path))
    assert code == 2
    assert report["status"] == "check-failed"
    assert report["results"]["check_sup_norm"] < 1e-10


def test_dlr_check_seed_one(tmp_path):
    code, report = run(tmp_path, "dlr-check", "--n", "2", "--r", "2", "--seed", "1")
    assert code == 0
    assert report["results"]["max_residual"] < 1e-12
    assert report["results"]["instances"] == 10


def test_dlr_check_makes_one_call(tmp_path, monkeypatch):
    calls = []
    check = dlr.finite_volume_dlr_check
    monkeypatch.setattr(dlr, "finite_volume_dlr_check", lambda *args: calls.append(args) or check(*args))
    code, report = run(tmp_path, "dlr-check", "--n", "4", "--r", "3", "--seed", "7")
    assert code == 0
    ((n, r, cases),) = calls
    assert (n, r, len(cases)) == (4, 3, 10)
    assert len(report["results"]["residuals"]) == 10


def test_dlr_check_scales_its_sampled_tables_by_beta(tmp_path, monkeypatch):
    # the same draws, each table times --beta: the tower check of beta*f
    calls = []
    check = dlr.finite_volume_dlr_check
    monkeypatch.setattr(dlr, "finite_volume_dlr_check", lambda *args: calls.append(args) or check(*args))
    for beta in ([], ["--beta", "2.5"]):
        code, _ = run(tmp_path, "dlr-check", "--seed", "7", *beta)
        assert code == 0
    (_, _, plain), (_, _, scaled) = calls
    for (f, z, g), (bf, bz, bg) in zip(plain, scaled, strict=True):
        assert np.array_equal(bf.table.values, 2.5 * f.table.values)
        assert bz == z and np.array_equal(bg.values, g.values)


def test_tl_refuses_n_below_the_deepest_cylinder(tmp_path, capsys):
    # the volumes run from the deepest cylinder's length: none lie below it
    cfg = write_config(
        tmp_path, {"potential": {"kind": "table", "params": {"d": 2, "depth": 3, "values": [0.1] * 8}}}
    )
    assert cli.run(["tl", "--config", cfg, "--n", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "--n 1" in err and "length 2" in err
    code, report = run(tmp_path, "tl", "--config", cfg, "--n", "2")
    assert code == 0 and report["results"]["rows"] == 6 * 4


def test_kernel_uniform_potential(tmp_path):
    code, report = run(tmp_path, "kernel")
    assert code == 0
    # f == 0 at volume 2: four words, the test indicator [0] picks up half
    assert report["results"]["partition"] == 4.0
    assert report["results"]["kernel_value"] == 0.5


def test_one_symbol_kernels_are_one(tmp_path, capsys):
    # one symbol: a single volume word, so every kernel is 1 at every volume
    code, report = run(tmp_path, "kernel", "--d", "1")
    assert code == 0
    assert report["results"]["kernel_value"] == 1.0
    code, report = run(tmp_path, "tl", "--d", "1", "--n", "5")
    assert code == 0
    assert report["results"]["worst"] == {str(n): 0 for n in range(2, 6)}
    # the sandwich compares tails, and one symbol has one tail
    code, report = run(tmp_path, "uniqueness", "--d", "1", name="uniqueness.json")
    assert code == 1 and report is None
    assert capsys.readouterr().err.startswith("usage error: uniqueness --d must be >= 2")


def test_tl_fails_the_check_on_an_unconverged_reference(tmp_path):
    # at beta 10 this table's |lambda_2 / lambda_1| is 1 - 1.5e-6: 10,000 steps
    # leave the reference unconverged, and pressure exits 2 on it too
    values = np.random.default_rng(5).normal(size=16).tolist()
    cfg = write_config(tmp_path, {"potential": {"kind": "table", "params": {"d": 2, "depth": 4, "values": values}}})
    code, report = run(tmp_path, "tl", "--config", cfg, "--beta", "10", "--n", "30")
    assert code == 2
    assert report["status"] == "check-failed"
    assert len(report["results"]["worst"]) == 29
    code, report = run(tmp_path, "pressure", "--config", cfg, "--beta", "10", "--depth", "4")
    assert code == 2


@pytest.mark.parametrize("command", ["dlr-check", "ising"])
def test_subcommands_without_a_config_refuse_the_flag(tmp_path, monkeypatch, capsys, command):
    # neither reads a config: a user's potential would go unchecked
    assert_refused(tmp_path, monkeypatch, capsys, [command, "--config", markov_config(tmp_path)], "--config")


def test_change_of_measure_honours_max_iter(tmp_path):
    # one power-iteration step leaves nu and the normalised fixed point 0.18 apart
    code, report = run(tmp_path, "change-of-measure", "--config", markov_config(tmp_path), "--max-iter", "1")
    assert code == 2
    assert report["results"]["max_deviation"] > 0.1
    code, report = run(tmp_path, "change-of-measure", "--config", markov_config(tmp_path))
    assert code == 0
    assert report["results"]["max_deviation"] < 1e-9


@pytest.mark.parametrize("unconverged", [0, 1])
def test_change_of_measure_fails_unconverged_eigendata(tmp_path, monkeypatch, unconverged):
    # a deviation under tol from eigendata short of tol certifies nothing:
    # either power iteration (f's, then the normalised potential's) fails the check
    calls = []
    power_iterate = dlr.power_iterate

    def flagged(*args):
        rpf = power_iterate(*args)
        calls.append(rpf)
        return dataclasses.replace(rpf, converged=False) if len(calls) == unconverged + 1 else rpf

    monkeypatch.setattr(dlr, "power_iterate", flagged)
    code, report = run(tmp_path, "change-of-measure", "--config", markov_config(tmp_path))
    assert len(calls) == 2
    assert report["results"]["max_deviation"] < 1e-9
    assert code == 2
    assert report["status"] == "check-failed"


def test_zero_beta_is_a_value_not_a_missing_flag(tmp_path):
    code, report = run(tmp_path, "kernel", "--config", markov_config(tmp_path), "--beta", "0")
    assert code == 0
    assert report["params"]["beta"] == 0
    assert report["results"]["beta"] == 0
    # beta = 0 weighs the four volume words equally: the uniform average
    assert report["results"]["kernel_value"] == 0.5
    assert report["results"]["partition"] == 4.0


def test_zero_max_iter_is_refused(tmp_path, capsys):
    assert cli.run(["rpf", "--max-iter", "0"]) == 1
    assert capsys.readouterr().err.startswith("usage error: --max-iter must be >= 1")


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--max-iter", "-3", "--max-iter must be >= 1"),
        ("--tol", "nan", "--tol must be a positive finite number"),
        ("--tol", "0", "--tol must be a positive finite number"),
        ("--tol", "-1", "--tol must be a positive finite number"),
    ],
)
def test_bad_max_iter_and_tol_are_usage_errors(tmp_path, monkeypatch, capsys, flag, value, message):
    # --tol nan or 0 used to run all 10,000 iterations and exit 2
    calls = []
    monkeypatch.setattr(potentials, "tabulate", lambda *args: calls.append(args))
    assert cli.run(["rpf", "--config", markov_config(tmp_path), flag, value]) == 1
    assert capsys.readouterr().err.startswith(f"usage error: {message}")
    assert calls == []


def test_change_of_measure_default_corpus(tmp_path):
    code, report = run(tmp_path, "change-of-measure")
    assert code == 0
    assert report["results"]["max_deviation"] < 1e-9
    assert len(report["results"]["deviations"]) == 10


def test_interaction_nearest_neighbour(tmp_path):
    code, report = run(tmp_path, "interaction")
    assert code == 0
    assert report["results"]["kind"] == "ising_nn"
    assert report["results"]["norm"]["value"] == 1.0


def test_interaction_long_range(tmp_path):
    code, report = run(tmp_path, "interaction", "--alpha", "3.0")
    assert code == 0
    assert report["results"]["kind"] == "ising_lr"
    norm = report["results"]["norm"]
    assert norm["value"] <= norm["upper"] <= report["results"]["two_zeta"] + 1e-12


def test_interaction_from_table_config(tmp_path):
    code, report = run(tmp_path, "interaction", "--config", markov_config(tmp_path))
    assert code == 0
    assert report["results"]["kind"] == "from_potential"
    assert report["results"]["terms"] > 0


def hofbauer_config(tmp_path, **extra):
    params = {
        "a_seq": {"form": "power", "base": 0.25, "coef": 1.0, "exponent": 2.0},
        "c_seq": {"form": "geometric", "base": -0.75, "coef": 2.0, "ratio": 0.5},
        "a": 0.25,
        "b": 5.0,
        "c": -0.75,
    }
    return write_config(tmp_path, {"potential": {"kind": "hofbauer", "params": {**params, **extra}}})


def test_walters_hofbauer_config(tmp_path):
    decay = {"form": "power", "base": 0.0, "coef": 8.0, "exponent": 2.0}
    code, report = run(tmp_path, "walters", "--config", hofbauer_config(tmp_path, var_decay=decay), "--n", "4")
    assert code == 0
    assert report["results"]["jop"]["n_terms"] >= 8
    assert all(e["value"] >= 0.0 for e in report["results"]["estimates"])


def test_walters_without_variation_metadata(tmp_path, capsys):
    # no honest variation majorant exists, so the subcommand refuses
    assert cli.run(["walters", "--config", hofbauer_config(tmp_path), "--n", "4"]) == 1
    assert "no variation metadata" in capsys.readouterr().err


def test_missing_variation_bound_is_not_a_config_error(tmp_path, capsys):
    # the config is valid; the operator at depth 8 needs a variation bound it does not declare
    code, report = run(tmp_path, "pressure", "--config", hofbauer_config(tmp_path), "--depth", "8")
    assert code == 1
    assert report is None
    err = capsys.readouterr().err
    assert err.startswith("no certified bound: no variation metadata for GenericContinuous")
    assert "invalid config" not in err


def test_walters_on_a_table_stops_at_its_depth(tmp_path):
    # every n past depth - 2 repeats the same variation, so --n 40 builds no deep table
    cfg = write_config(
        tmp_path,
        {"potential": {"kind": "table", "params": {"d": 2, "depth": 3, "values": [0.3, -1, 0.5, 0, 1, -0.2, 0.8, -0.6]}}},
    )
    code, report = run(tmp_path, "walters", "--config", cfg, "--n", "40")
    assert code == 0
    values = [e["value"] for e in report["results"]["estimates"]]
    assert values[0] > 0.0 and values[1:] == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("command", ["uniqueness", "tl", "kernel", "walters", "dlr-check"])
def test_negative_n_is_a_usage_error(tmp_path, monkeypatch, capsys, command):
    calls = []
    monkeypatch.setattr(potentials, "tabulate", lambda *args: calls.append(args))
    config = ["--config", markov_config(tmp_path)] if "--config" in cli._FLAGS[command] else []
    assert cli.run([command, *config, "--n", "-1"]) == 1
    assert capsys.readouterr().err.startswith("usage error: --n must be >= ")
    assert calls == []


@pytest.mark.parametrize("flag", ["--depth", "--r", "--seed"])
def test_negative_depth_and_r_are_usage_errors(capsys, flag):
    # --depth -1 used to die in rng.uniform(size=0.5), --r -1 in islice,
    # and --seed -1 in default_rng as an "invalid config"
    assert cli.run(["dlr-check", flag, "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {flag} must be >= 0")


ZERO_FLAG_RUNS = [
    ("kernel", "--n", "0"),
    ("dlr-check", "--n", "0"),
    ("walters", "--n", "0"),
    ("uniqueness", "--config", markov_config, "--n", "0"),
    *((command, "--depth", "0") for command in ("rpf", "pressure", "normalize", "change-of-measure")),
    *((command, "--d", "0") for command in ("kernel", "dlr-check", "change-of-measure")),
]


@pytest.mark.parametrize(
    "argv", ZERO_FLAG_RUNS, ids=lambda argv: " ".join(getattr(a, "__name__", a) for a in argv)
)
def test_zero_sites_or_symbols_are_usage_errors(tmp_path, monkeypatch, capsys, argv):
    # each used to fail inside the computation as "invalid config", and
    # uniqueness to exit 2 on a D estimated over an empty window
    argv = [a(tmp_path) if callable(a) else a for a in argv]
    monkeypatch.setitem(cli._COMMANDS, argv[0], lambda cfg, args: pytest.fail("the command ran"))
    code, report = run(tmp_path, *argv)
    assert code == 1 and report is None
    assert capsys.readouterr().err.startswith(f"usage error: {argv[-2]} must be >= 1")


def test_tl_honours_tol(tmp_path):
    # the eigenprobability reference is power-iterated to --tol
    values = [0.3, -0.5, 0.9, 0.1, -0.7, 0.2, 0.5, -0.2]
    cylinders, boundaries = ["0", "1", "01"], ["|0", "01|1"]
    cfg = write_config(
        tmp_path,
        {
            "potential": {"kind": "table", "params": {"d": 2, "depth": 3, "values": values}},
            "cylinders": cylinders,
            "boundaries": boundaries,
        },
    )
    f = potentials.Potential.from_table(2, 3, values)
    words = [parse_word(w) for w in cylinders]
    points = [Point.from_literal(t) for t in boundaries]
    worst = {}
    for tol in ("1e-2", "1e-10"):
        code, report = run(tmp_path, "tl", "--config", cfg, "--n", "8", "--tol", tol)
        assert code == 0
        expected = dlr.tl_sequence(f, words, points, 8, tol=float(tol))
        worst[tol] = report["results"]["worst"]
        assert worst[tol] == {str(n): w for n, w in zip(expected.volumes.tolist(), expected.worst.tolist())}
    assert worst["1e-2"] != worst["1e-10"]


def test_tl_honours_max_iter(tmp_path):
    # one Ruelle step leaves the eigenprobability reference unconverged
    values = [0.3, -0.5, 0.9, 0.1, -0.7, 0.2, 0.5, -0.2]
    cfg = write_config(tmp_path, {"potential": {"kind": "table", "params": {"d": 2, "depth": 3, "values": values}}})
    code, report = run(tmp_path, "tl", "--config", cfg, "--n", "6", "--max-iter", "1")
    assert code == 2
    assert report["status"] == "check-failed"
    # the default is the 10,000-step cap, as for pressure
    reports = []
    for argv in ([], ["--max-iter", str(transfer.DEFAULT_MAX_ITER)]):
        code, _ = run(tmp_path, "tl", "--config", cfg, "--n", "6", *argv)
        assert code == 0
        text = (tmp_path / "report.json").read_text()
        reports.append([ln for ln in text.splitlines() if "generated_at" not in ln and "max_iter" not in ln])
    assert reports[0] == reports[1]


@pytest.mark.parametrize("flag,value", [("--depth", "3"), ("--r", "2"), ("--tol", "1e-3"), ("--max-iter", "5"), ("--csv", "k.csv")])
def test_kernel_refuses_the_flags_it_does_not_read(tmp_path, monkeypatch, capsys, flag, value):
    argv = ["kernel", "--config", markov_config(tmp_path), "--n", "4", flag, value]
    assert_refused(tmp_path, monkeypatch, capsys, argv, flag)


def test_uniqueness_reports_certificate(tmp_path):
    code, report = run(tmp_path, "uniqueness", "--config", markov_config(tmp_path), "--n", "6")
    assert code == 0
    assert report["results"]["stabilized"] is True
    assert report["results"]["holds_all"] is True
    assert report["results"]["min_margin"] >= 1.0
    log_margins = report["results"]["log_margins"]
    assert report["results"]["margins"] == [math.exp(x) for x in log_margins]
    assert report["results"]["min_log_margin"] == min(log_margins)


def test_uniqueness_builds_one_engine_and_one_D_pass(tmp_path, monkeypatch):
    # all 20 sandwich kernels come from one operator; one pass gives D at N and 2N
    built, passes = [], []
    build, estimate = dlr.transfer_operator, dlr.D_estimate
    monkeypatch.setattr(dlr, "transfer_operator", lambda *a: built.append(a) or build(*a))
    monkeypatch.setattr(dlr, "D_estimate", lambda *a: passes.append(a) or estimate(*a))
    cfg = write_config(
        tmp_path,
        {"potential": {"kind": "table", "params": {"d": 2, "depth": 3, "values": [0.3, -1, 0.5, 0, 1, -0.2, 0.8, -0.6]}}},
    )
    code, report = run(tmp_path, "uniqueness", "--config", cfg, "--n", "6")
    assert code == 0 and len(report["results"]["margins"]) == 20
    assert len(built) == 1
    assert len(passes) == 1


def test_uniqueness_reads_D_at_N_from_the_2N_pass(tmp_path):
    # a depth-4 table oscillates further at n = 2 than at n = 1: --n 1 is not stabilised
    values = [0.0, 1.0, -0.5, 2.0, 0.25, -1.0, 1.5, 0.0, -2.0, 0.5, 1.0, -0.25, 0.75, 0.0, -1.5, 1.25]
    cfg = write_config(tmp_path, {"potential": {"kind": "table", "params": {"d": 2, "depth": 4, "values": values}}})
    f = potentials.Potential.from_table(2, 4, values)
    code, report = run(tmp_path, "uniqueness", "--config", cfg, "--n", "1")
    D1, D2 = dlr.D_estimate(f, 1)[0][-1], dlr.D_estimate(f, 2)[0][-1]
    assert D1 < D2
    assert report["results"]["D"] == D1
    assert report["results"]["stabilized"] is False and code == 2


def wide_table_config(tmp_path):
    return write_config(
        tmp_path,
        {"potential": {"kind": "table", "params": {"d": 2, "depth": 2, "values": [0.0, -800.0, 0.0, -800.0]}}},
    )


def test_uniqueness_margin_beyond_the_float_range(tmp_path):
    # 2 D = 720 overflows exp; the margin is decided as a log
    code, report = run(tmp_path, "uniqueness", "--config", wide_table_config(tmp_path), "--beta", "0.45")
    assert code == 0
    # D is that of the potential 0.45 f: 0.45 times the 800 of f
    assert report["results"]["D"] == 0.45 * 800.0
    assert report["results"]["holds_all"] is True
    assert all(m >= 1.0 for m in report["results"]["margins"])
    # the margins overflow to Infinity; their logs say by how much each sandwich holds
    log_margins = report["results"]["log_margins"]
    assert len(log_margins) == 20
    assert all(math.isfinite(x) and 0.0 <= x <= 2 * 0.45 * 800.0 for x in log_margins)
    assert report["results"]["min_log_margin"] == min(log_margins)


def test_uniqueness_underflowed_kernel_mass_is_a_breakdown(tmp_path, capsys):
    # at beta 1 kernel masses of order e^-800 underflow to 0
    code, report = run(tmp_path, "uniqueness", "--config", wide_table_config(tmp_path), "--beta", "1")
    assert code == 1
    assert report is None
    assert "numerical breakdown:" in capsys.readouterr().err


def test_console_script_is_cli_run(tmp_path):
    # the [project.scripts] entry (tomllib needs Python 3.11; the package supports 3.10)
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    module, name = re.search(r'^ruellekit = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
    assert getattr(importlib.import_module(module), name) is cli.run
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "ruellekit.cli", "pressure"],
        capture_output=True, text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["status"] == "ok"


def test_unknown_subcommand_exit_1(capsys):
    # and no subcommand, or a stray token after one
    for argv, message in [(["frobnicate"], 'unknown subcommand "frobnicate": one of rpf, '),
                          ([], "ruellekit needs a subcommand: one of rpf, "),
                          (["pressure", "foo"], "pressure takes no foo: it takes --out, ")]:
        assert cli.run(argv) == 1
        assert capsys.readouterr().err.startswith(f"usage error: {message}")


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_help_lists_the_subcommands(capsys, flag):
    with pytest.raises(SystemExit) as done:
        cli.run([flag])
    assert done.value.code == 0
    assert re.search(r"^subcommands: (.*)$", capsys.readouterr().out, re.M).group(1).split(", ") == list(cli._FLAGS)


def test_unreadable_config_exit_1(tmp_path, capsys):
    assert cli.run(["rpf", "--config", str(tmp_path / "missing.json")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_invalid_json_config_exit_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert cli.run(["rpf", "--config", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_unknown_potential_kind_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path, {"potential": {"kind": "frob"}})
    assert cli.run(["rpf", "--config", cfg]) == 1
    assert "unknown potential kind" in capsys.readouterr().err


def ising_config(tmp_path):
    return write_config(tmp_path, {"potential": {"kind": "ising_lr", "params": {}}})


def test_size_guard_exit_1(tmp_path, capsys):
    # doubling the window asks the callable for 2^32 volume words
    assert cli.run(["uniqueness", "--config", ising_config(tmp_path), "--n", "16"]) == 1
    assert "size guard" in capsys.readouterr().err


def test_size_guard_fires_before_any_table(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(potentials, "tabulate", lambda *args: calls.append(args))
    assert cli.run(["uniqueness", "--config", ising_config(tmp_path), "--n", "16"]) == 1
    assert "size guard" in capsys.readouterr().err
    assert calls == []


DEPTH_4_TABLE = {"kind": "table", "params": {"d": 2, "depth": 4, "values": np.linspace(-1.0, 1.0, 16).tolist()}}


def test_pressure_size_guard_refuses_depth_22_before_any_work(tmp_path, monkeypatch, capsys):
    # the guard of the depth-(D+1) truncation: depth 21 runs, depth 22 is refused
    cfg = write_config(tmp_path, {"potential": DEPTH_4_TABLE})
    code, report = run(tmp_path, "pressure", "--config", cfg, "--depth", "21")
    assert code == 0 and report["status"] == "ok"
    built = []
    monkeypatch.setattr(transfer, "transfer_operator", lambda *args: built.append(args))
    assert cli.run(["pressure", "--config", cfg, "--depth", "22"]) == 1
    assert capsys.readouterr().err == "size guard: table of 2**23 = 8388608 entries exceeds the 4194304 entry guard\n"
    assert built == []


def test_deep_pressure_allocates_no_depth_d_table(tmp_path):
    # a 2**21-entry table of floats is 16 MiB; the whole run stays under 64 KiB
    argv = ["pressure", "--config", write_config(tmp_path, {"potential": DEPTH_4_TABLE}), "--depth", "21"]
    assert run(tmp_path, *argv)[0] == 0  # warm: first-call caches and imports
    tracemalloc.start()
    try:
        code, report = run(tmp_path, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and report["status"] == "ok"
    assert peak < 64 * 1024


@pytest.mark.parametrize("command,cfg,message", [
    ("pressure", {"potential": 5}, "potential must be a JSON object, got 5"),
    ("pressure", {"potential": {"kind": "table", "params": [2, 1, [0.0, 1.0]]}},
     "params must be a JSON object, got [2, 1, [0.0, 1.0]]"),
    ("pressure", {"potential": {"kind": "table", "params": {"d": 2, "depth": 2, "values": "0123"}}},
     'values must be a list of numbers, got "0123"'),
    ("normalize", {"potential": {"kind": "table", "params": {"d": 2, "depth": 1, "values": [0.0, 1.0], "label": 5}}},
     "label must be a string, got 5"),
    ("walters", {"potential": {"kind": "hofbauer", "params": {"a_seq": "power", "c_seq": {}, "a": 1, "b": 1, "c": 1}}},
     'a_seq must be a JSON object, got "power"'),
    ("tl", {"cylinders": "01"}, 'cylinders must be a list of words, got "01"'),
    ("tl", {"cylinders": [0, 1]}, "cylinders must be a list of words, got [0, 1]"),
    ("tl", {"boundaries": "0|1"}, 'boundaries must be a list of point literals, got "0|1"'),
    ("kernel", {"boundary": 5}, "boundary must be a point literal, got 5"),
    ("interaction", {"potential": {"kind": "constant"}, "boundary": ["|0"]},
     'boundary must be a point literal, got ["|0"]'),
    ("kernel", {"test_word": 0}, "test_word must be a word, got 0"),
], ids=["potential", "params", "values", "label", "a_seq", "cylinders", "cylinder", "boundaries", "boundary", "interaction-boundary",
        "test_word"])
def test_config_keys_of_the_wrong_shape_are_usage_errors_naming_the_key(tmp_path, capsys, command, cfg, message):
    code, report = run(tmp_path, command, "--config", write_config(tmp_path, cfg))
    assert code == 1 and report is None
    assert capsys.readouterr().err == f"usage error: invalid config: {message}\n"


ISING_LR = {"kind": "ising_lr", "params": {"alpha": 3.0}}
TABLE = {"kind": "table", "params": {"d": 2, "depth": 1, "values": [0.0, 1.0]}}
CONSTANT = {"kind": "constant", "params": {"value": 0.5}}
HOFBAUER = {"kind": "hofbauer", "params": {"a_seq": {"form": "power", "exponent": 2.0},
                                           "c_seq": {"form": "geometric", "ratio": 0.5}, "a": 0.25, "b": 5.0, "c": -0.75}}
# the subcommands that read a potential from their config
POTENTIAL_COMMANDS = [c for c, flags in cli._FLAGS.items() if "--config" in flags and c != "interaction"]


def with_params(potential, **params):
    return {"potential": {**potential, "params": {**potential["params"], **params}}}


REFUSED_INPUTS = [
    # values of the wrong JSON type: a bool is no number, an integer param needs a JSON integer
    ("d-2.5", "pressure", with_params(CONSTANT, d=2.5), [], "invalid config: d must be an integer, got 2.5"),
    ("d-true", "pressure", with_params(CONSTANT, d=True), [], "invalid config: d must be an integer, got true"),
    ("alpha-string", "pressure", with_params(ISING_LR, alpha="3"), ["--depth", "7"],
     'invalid config: alpha must be a number, got "3"'),
    ("alpha-beyond-floats", "pressure", with_params(ISING_LR, alpha=10**400), ["--depth", "7"],
     "invalid config: alpha must be a number, got 1000"),
    ("cutoff-200.7", "pressure", with_params(ISING_LR, cutoff=200.7), ["--depth", "7"],
     "invalid config: cutoff must be an integer, got 200.7"),
    ("values-string", "pressure", with_params(TABLE, values=[0, "1"]), [],
     'invalid config: values must be a list of numbers, got [0, "1"]'),
    ("depth-1.9", "pressure", with_params(TABLE, depth=1.9), [], "invalid config: depth must be an integer, got 1.9"),
    ("values-true", "pressure", with_params(TABLE, values=[0, True]), [],
     "invalid config: values must be a list of numbers, got [0, true]"),
    ("coef-true", "walters", {"potential": {"kind": "hofbauer", "params": {
        "a_seq": {"form": "power", "coef": True, "exponent": 2.0}, "c_seq": {"form": "geometric", "ratio": 0.5},
        "a": 0.25, "b": 5.0, "c": -0.75}}}, [], "invalid config: coef must be a number, got true"),
    # --beta scales the potential: no params hold a second factor
    ("table-beta", "pressure", with_params(TABLE, beta=2.0), [],
     "invalid config: params takes no beta: it takes d, depth, values, label"),
    ("ising_lr-beta", "pressure", with_params(ISING_LR, beta=2.0), ["--depth", "7"],
     "invalid config: params takes no beta: it takes alpha, cutoff"),
    # keys the subcommand does not read
    ("kernel-boundaries", "kernel", {"potential": TABLE, "boundaries": ["|1"]}, [],
     "invalid config: the kernel config takes no boundaries: it takes potential, boundary, test_word"),
    ("tl-boundary", "tl", {"boundary": "|1"}, [],
     "invalid config: the tl config takes no boundary: it takes potential, cylinders, boundaries"),
    ("pressure-cylinders", "pressure", {"cylinders": ["0"]}, [],
     "invalid config: the pressure config takes no cylinders: it takes potential"),
    ("potentail", "pressure", {"potentail": TABLE}, [],
     "invalid config: the pressure config takes no potentail: it takes potential"),
    # the flags that filled in a config's potential
    *((f"{command}{flag}", command, {"potential": ISING_LR}, [flag, value], f"{command} takes no {flag}:")
      for command in POTENTIAL_COMMANDS for flag, value in (("--alpha", "2.5"), ("--cutoff", "50"))),
    *((f"{command}--d", command, {"potential": CONSTANT}, ["--d", "3"],
       f"{command} --d applies without a config potential, and the config names one")
      for command in POTENTIAL_COMMANDS),
    ("interaction--d", "interaction", {"potential": CONSTANT}, ["--d", "3"], "interaction takes no --d:"),
    ("interaction--alpha", "interaction", {"potential": TABLE}, ["--alpha", "3"],
     "interaction --alpha applies without a config potential, and the config names one"),
    # params outside their domains, refused before the constructors see them
    ("constant-d-0", "pressure", with_params(CONSTANT, d=0), [], "invalid config: d must be >= 1, got 0"),
    ("table-d-0", "pressure", with_params(TABLE, d=0, values=[0.0]), [], "invalid config: d must be >= 1, got 0"),
    ("table-depth--1", "pressure", with_params(TABLE, depth=-1), [], "invalid config: depth must be >= 0, got -1"),
    ("table-values-3", "pressure", with_params(TABLE, depth=2, values=[0, 1, 2]), [],
     "invalid config: values must hold d**depth = 2**2 numbers, got 3"),
    ("table-values-huge-depth", "pressure", with_params(TABLE, depth=10**6), [],
     "invalid config: values must hold d**depth = 2**1000000 numbers, got 2"),
    ("alpha-1", "pressure", with_params(ISING_LR, alpha=1), ["--depth", "7"],
     "invalid config: alpha must be a finite number > 1, got 1.0"),
    ("alpha-inf", "pressure", with_params(ISING_LR, alpha=math.inf), ["--depth", "7"],
     "invalid config: alpha must be a finite number > 1, got Infinity"),
    ("cutoff-1", "pressure", with_params(ISING_LR, cutoff=1), ["--depth", "7"], "invalid config: cutoff must be >= 2, got 1"),
    # each number of a hofbauer potential and of both its sequence forms
    *((f"hofbauer-{key}-{json.dumps(bad)}", "pressure", with_params(HOFBAUER, **{key: bad}), ["--depth", "4"],
       f"invalid config: {key} must be finite, got {json.dumps(bad)}")
      for key in ("a", "b", "c") for bad in (math.nan, math.inf)),
    *((f"hofbauer-{seq}-{key}-{json.dumps(bad)}", "pressure",
       with_params(HOFBAUER, **{seq: {**HOFBAUER["params"][seq], key: bad}}), ["--depth", "4"],
       f"invalid config: {key} must be finite, got {json.dumps(bad)}")
      for seq, keys in (("a_seq", ("base", "coef", "exponent")), ("c_seq", ("base", "coef", "ratio")))
      for key in keys for bad in (math.nan, math.inf)),
]


@pytest.mark.parametrize("command,cfg,argv,message", [pytest.param(*case[1:], id=case[0]) for case in REFUSED_INPUTS])
def test_refused_inputs_are_usage_errors_naming_the_key_or_flag(tmp_path, monkeypatch, capsys, command, cfg, argv,
                                                                message):
    # each exits 1 before its subcommand runs, with no report
    argv = [command, "--config", write_config(tmp_path, cfg), *argv]
    assert_refused_as(tmp_path, monkeypatch, capsys, argv, message)


OFF_THE_ALPHABET = [
    ("kernel", {"test_word": "2"}, "test_word '2' has a symbol outside the potential's alphabet of size 2"),
    ("kernel", {"boundary": "0|12"}, "boundary '0|12' has a symbol outside the potential's alphabet of size 2"),
    ("tl", {"cylinders": ["0", "0a"]}, "cylinders '0a' is no word (word '0a' must be a string of digits)"),
    # the sweep reads only the coordinates past the volume: "2|0" used to exit 0
    ("tl", {"boundaries": ["|1", "2|0"]}, "boundaries '2|0' has a symbol outside the potential's alphabet of size 2"),
    ("interaction", {"potential": CONSTANT, "boundary": "3|0"},
     "boundary '3|0' has a symbol outside the potential's alphabet of size 2"),
]


@pytest.mark.parametrize("command,cfg,message", OFF_THE_ALPHABET, ids=[c[0] + "-" + next(iter(c[1])) for c in OFF_THE_ALPHABET])
def test_words_and_points_off_the_alphabet_are_usage_errors_naming_the_key(tmp_path, monkeypatch, capsys, command,
                                                                           cfg, message):
    # checked where they are parsed, before any kernel or telescoping runs
    for module, name in [(dlr, "_sweep"), (dlr, "tl_sequence"), (interactions, "from_potential")]:
        monkeypatch.setattr(module, name, lambda *args, **kwargs: pytest.fail("the computation ran"))
    code, report = run(tmp_path, command, "--config", write_config(tmp_path, cfg))
    assert code == 1 and report is None
    assert capsys.readouterr().err == f"usage error: invalid config: {message}\n"


CONFIG_REFUSALS = [
    ("needs", "pressure", {"potential": {"kind": "table", "params": {"d": 2, "depth": 1}}},
     "invalid config: params needs values"),
    ("point-literal", "kernel", {"boundary": "0|"}, "invalid config: boundary '0|' is no point literal"),
]


@pytest.mark.parametrize("command,cfg,message", [c[1:] for c in CONFIG_REFUSALS], ids=[c[0] for c in CONFIG_REFUSALS])
def test_config_refusals(tmp_path, capsys, command, cfg, message):
    code, report = run(tmp_path, command, "--config", write_config(tmp_path, cfg))
    assert code == 1 and report is None
    assert capsys.readouterr().err.startswith(f"usage error: {message}")


SHARED_DOMAINS = [
    ("kernel", "--d", "0", CONSTANT, 0, "must be >= 1, got 0"),
    ("interaction", "--alpha", "1", ISING_LR, 1, "must be a finite number > 1, got 1.0"),
    ("ising", "--alpha", "inf", ISING_LR, math.inf, "must be a finite number > 1, got Infinity"),
    ("ising", "--cutoff", "1", ISING_LR, 1, "must be >= 2, got 1"),
]


@pytest.mark.parametrize("command,flag,value,potential,param_value,wrong", SHARED_DOMAINS,
                         ids=[f"{c[0]} {c[1]} {c[2]}" for c in SHARED_DOMAINS])
def test_a_flag_and_the_param_of_its_name_share_one_domain(tmp_path, monkeypatch, capsys, command, flag, value,
                                                           potential, param_value, wrong):
    name = flag[2:]
    assert cli._FLAGS[command][flag].domain is cli._PARAMS[potential["kind"]][name].domain
    assert_refused_as(tmp_path, monkeypatch, capsys, [command, flag, value], f"{flag} {wrong}")
    cfg = write_config(tmp_path, with_params(potential, **{name: param_value}), name="param.json")
    assert_refused_as(tmp_path, monkeypatch, capsys, ["pressure", "--config", cfg, "--depth", "3"],
                      f"invalid config: {name} {wrong}")


def test_each_subcommand_with_a_config_declares_its_keys():
    assert set(cli._CONFIG) == {command for command, flags in cli._FLAGS.items() if "--config" in flags}


@pytest.mark.parametrize("command", ["rpf", "pressure", "normalize"])
@pytest.mark.parametrize("potential", ["ising_lr", "hofbauer"])
def test_eigen_commands_need_depth_on_a_callable(tmp_path, monkeypatch, capsys, command, potential):
    # a callable has no depth of its own; it used to run at depth 1
    path = ising_config(tmp_path) if potential == "ising_lr" else hofbauer_config(tmp_path)
    power_iterate = transfer.power_iterate
    monkeypatch.setattr(transfer, "power_iterate", lambda *a, **k: pytest.fail("power iteration ran"))
    code, report = run(tmp_path, command, "--config", path)
    assert code == 1 and report is None
    assert capsys.readouterr().err == f"usage error: {command} needs --depth for the callable {potential} potential\n"
    monkeypatch.setattr(transfer, "power_iterate", power_iterate)
    if potential == "ising_lr":
        code, report = run(tmp_path, command, "--config", path, "--depth", "3")
        assert code == 0 and report["status"] == "ok"


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_table_is_refused(tmp_path, capsys, bad):
    cfg = write_config(
        tmp_path, {"potential": {"kind": "table", "params": {"d": 2, "depth": 1, "values": [0.0, bad]}}}
    )
    assert cli.run(["pressure", "--config", cfg]) == 1
    assert "invalid config" in capsys.readouterr().err


def test_kernel_reports_log_partition_outside_the_float_range(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "potential": {"kind": "table", "params": {"d": 2, "depth": 2, "values": [0.0, -800.0, 0.0, -800.0]}},
            "boundary": "|1",
        },
    )
    code, report = run(tmp_path, "kernel", "--config", cfg, "--beta", "800")
    assert code == 0
    # two volume words weigh e^-640000, two e^-1280000
    assert report["results"]["partition"] == 0.0
    assert report["results"]["log_partition"] == pytest.approx(-640000.0 + math.log(2.0), rel=1e-13)
    assert report["results"]["kernel_value"] == 0.5


WIDE_TABLE = {"kind": "table", "params": {"d": 2, "depth": 3, "values": [
    -1999.42, -0.81, -1999.84, -0.61, -1999.38, -2000.02, 0.98, -2000.63]}}


def test_wide_table_eigendata_stay_in_karps_bracket(tmp_path, capsys):
    # beta * osc ~ 2001: weights exp(f - max f) underflow to 0, and lambda comes
    # from a cycle of four words, nearly periodic, so no power iteration
    # converges.  Each eigen subcommand reports (check-failed), with no numpy
    # warning, and the pressure lies in Karp's bracket [-499.955, -499.262]
    cfg = write_config(tmp_path, {"potential": WIDE_TABLE})
    low, high = bracket(transfer.transfer_operator(potentials.Potential.from_table(**WIDE_TABLE["params"]), 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, report = run(tmp_path, "pressure", "--config", cfg, name="default.json")
        assert code == 2 and -499.955 - 1e-9 <= report["results"]["pressure"] <= -499.262
        # each step re-gauges every row, so the others stop at 2,000 steps (4-step phases: still tight)
        reports = {command: run(tmp_path, command, "--config", cfg, "--max-iter", "2000", name=f"{command}.json")
                   for command in ("pressure", "tl", "rpf", "normalize")}
        code, report = run(tmp_path, "change-of-measure", "--config", cfg, "--max-iter", "2000", name="com.json")
    assert {command: code for command, (code, _) in reports.items()} == dict.fromkeys(reports, 2)
    assert all(report["status"] == "check-failed" for _, report in reports.values())
    assert low <= reports["pressure"][1]["results"]["pressure"] <= high
    assert reports["rpf"][1]["results"]["log_lambda"] == reports["pressure"][1]["results"]["pressure"]
    # psi spans e^1991: change-of-measure divides by it, and names it
    err = capsys.readouterr().err
    assert code == 1 and report is None
    assert err.startswith("computation error: psi leaves the float range") and "numerical breakdown" not in err


def test_ising_refuses_too_few_terms_for_its_own_points(tmp_path, capsys):
    # its points flip chain sites up to 12, and their series need 14 terms;
    # --n 13 used to fail as "invalid config" on about half of the seeds
    for seed in range(20):
        code, report = run(tmp_path, "ising", "--n", "13", "--seed", str(seed), name=f"{seed}-13.json")
        assert code == 1 and report is None
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "--n" in err and "14" in err
        code, report = run(tmp_path, "ising", "--n", "14", "--seed", str(seed), name=f"{seed}-14.json")
        assert code == 0 and report["status"] == "ok"
    # alpha <= 2 runs no series
    assert run(tmp_path, "ising", "--n", "3", "--alpha", "2.0", name="alpha-2.json")[0] == 0


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--alpha", "nan", "--alpha must be a finite number > 1, got NaN"),
        ("--alpha", "inf", "--alpha must be a finite number > 1, got Infinity"),
        ("--alpha", "1", "--alpha must be a finite number > 1, got 1.0"),
        ("--cutoff", "1", "--cutoff must be >= 2, got 1"),
    ],
)
def test_ising_refuses_bad_alpha_and_cutoff(tmp_path, capsys, flag, value, message):
    # --alpha nan used to print an all-NaN report with status "ok"
    code, report = run(tmp_path, "ising", flag, value)
    assert code == 1 and report is None
    assert capsys.readouterr().err.startswith(f"usage error: {message}")


BAD_CHAIN_FLAGS = [
    *(
        pytest.param(command, "--alpha", value, "must be a finite number > 1, got", id=f"{command}-{value}")
        for command in ("interaction", "pressure")
        for value in ("nan", "inf", "-inf", "1", "0.5")
    ),
    *(
        pytest.param(command, "--cutoff", value, "", id=f"{command}---cutoff={value}")
        for command in ("pressure", "kernel", "walters")
        for value in ("1", "0", "-3")
    ),
]


@pytest.mark.parametrize("command,flag,value,need", BAD_CHAIN_FLAGS)
def test_bad_alpha_is_a_usage_error_naming_the_flag(tmp_path, monkeypatch, capsys, command, flag, value, need):
    # interaction's --alpha is checked for its domain; the commands with a
    # config take neither flag, whose values an ising_lr config names
    cfg = write_config(tmp_path, {"potential": {"kind": "ising_lr", "params": {}}})
    monkeypatch.setitem(cli._COMMANDS, command, lambda cfg, args: pytest.fail("the command ran"))
    argv = [f"{flag}={value}"] + (["--config", cfg] if command != "interaction" else [])
    code, report = run(tmp_path, command, *argv)
    assert code == 1 and report is None
    expected = f"{flag} {need}" if command == "interaction" else f"{command} takes no {flag}:"
    assert capsys.readouterr().err.startswith(f"usage error: {expected}")


def test_ising_lr_config_refuses_beta(tmp_path, capsys):
    # kernels scale g by --beta; a beta inside g would be applied twice
    cfg = write_config(tmp_path, {"potential": {"kind": "ising_lr", "params": {"beta": 7, "cutoff": 50}}})
    code, report = run(tmp_path, "pressure", "--config", cfg, "--depth", "6")
    assert code == 1
    assert report is None
    assert capsys.readouterr().err.startswith("usage error: invalid config: params takes no beta")


def test_ising_refuses_beta_flag(tmp_path, monkeypatch, capsys):
    assert_refused(tmp_path, monkeypatch, capsys, ["ising", "--beta", "2"], "--beta")


@pytest.mark.parametrize("command", ["walters", "change-of-measure", "interaction"])
def test_subcommands_without_beta_refuse_the_flag(tmp_path, monkeypatch, capsys, command):
    argv = [command, "--config", markov_config(tmp_path), "--beta", "7"]
    assert_refused(tmp_path, monkeypatch, capsys, argv, "--beta")


# a valid value of each flag of the command line
FLAG_VALUES = {
    "--config": markov_config, "--csv": "x.csv", "--d": "2", "--depth": "3", "--n": "5", "--r": "3",
    "--beta": "2", "--alpha": "3", "--cutoff": "50", "--tol": "1e-3", "--max-iter": "5", "--seed": "1",
}


def dest(flag):
    return flag[2:].replace("-", "_")


def assert_refused_as(tmp_path, monkeypatch, capsys, argv, message):
    """argv exits 1 with the usage error `message` (its start): no report,
    no CSV, and the subcommand does not run."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(cli._COMMANDS, argv[0], lambda cfg, args: pytest.fail("the command ran"))
    code, report = run(tmp_path, *argv)
    assert code == 1 and report is None
    assert capsys.readouterr().err.startswith(f"usage error: {message}")
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "k.csv").exists()


def assert_refused(tmp_path, monkeypatch, capsys, argv, flag):
    """argv exits 1 as a usage error naming its subcommand and a flag it does not take."""
    assert_refused_as(tmp_path, monkeypatch, capsys, argv, f"{argv[0]} takes no {flag}:")


def prefixes(flags):
    """{prefix: the first of the flags it begins}, for each proper prefix past `--` that is no flag itself."""
    found = {}
    for flag in flags:
        for end in range(3, len(flag)):
            found.setdefault(flag[:end], flag)
    return {prefix: flag for prefix, flag in found.items() if prefix not in flags}


REFUSED_RUNS = [
    *((command, flag, FLAG_VALUES[flag]) for command, flags in cli._FLAGS.items() for flag in FLAG_VALUES
      if flag not in flags),
    # a flag's name is given in full: no prefix stands for it
    *((command, prefix, {**FLAG_VALUES, "--out": "other.json"}[flag]) for command, flags in cli._FLAGS.items()
      for prefix, flag in prefixes(["--out", *flags]).items()),
    # none of the three is rpf's: the first is named
    ("rpf", "--r", "3", "--n", "5", "--csv", "x.csv"),
    ("pressure", "--dep", "5", "--max", "3", "--t", "1e-3"),
]


@pytest.mark.parametrize(
    "argv", REFUSED_RUNS, ids=lambda argv: " ".join(getattr(a, "__name__", a) for a in argv)
)
def test_flags_outside_a_subcommands_table_are_usage_errors(tmp_path, monkeypatch, capsys, argv):
    argv = [a(tmp_path) if callable(a) else a for a in argv]
    assert_refused(tmp_path, monkeypatch, capsys, argv, argv[1])


@pytest.mark.parametrize("command", list(cli._FLAGS))
def test_params_echo_the_flags_of_a_subcommands_table(tmp_path, monkeypatch, command):
    # absent, a flag reads its fixed default, or null where the default comes from the input
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(cli._COMMANDS, command, lambda cfg, args: ({}, True, None))
    flags = {flag: spec for flag, spec in cli._FLAGS[command].items() if flag != "--csv"}
    code, report = run(tmp_path, command)
    assert code == 0
    assert report["params"] == {dest(flag): spec.default for flag, spec in flags.items()}
    # every flag of the table at once is accepted, and each echoes its value;
    # --d and --alpha name the potential of a config that names none
    values = {flag: v(tmp_path) if callable(v) else v for flag, v in FLAG_VALUES.items()}
    values["--config"] = write_config(tmp_path, {}, name="empty.json")
    code, report = run(tmp_path, command, *(a for flag in cli._FLAGS[command] for a in (flag, values[flag])))
    assert code == 0
    assert report["params"] == {dest(flag): spec.type(values[flag]) for flag, spec in flags.items()}
    # --flag=value is --flag value
    code, joined = run(tmp_path, command, *(f"{flag}={values[flag]}" for flag in cli._FLAGS[command]))
    assert code == 0
    assert {**joined, "generated_at": None} == {**report, "generated_at": None}


# the flag given first is given again
REPEATED_FLAG_RUNS = [
    ("pressure", "--depth", "5", "--depth", "7"),
    ("pressure", "--depth", "5", "--depth", "5"),
    ("tl", "--n=6", "--n", "8", "--csv", "x.csv"),
    ("kernel", "--config", markov_config, "--config", markov_config),
    # run() gives --out after it
    ("ising", "--out", "other.json"),
]


@pytest.mark.parametrize(
    "argv", REPEATED_FLAG_RUNS, ids=lambda argv: " ".join(getattr(a, "__name__", a) for a in argv)
)
def test_a_flag_given_twice_is_a_usage_error_naming_it(tmp_path, monkeypatch, capsys, argv):
    # neither value is the one the user meant
    argv = [a(tmp_path) if callable(a) else a for a in argv]
    flag = argv[1].split("=")[0]
    assert_refused_as(tmp_path, monkeypatch, capsys, argv, f"{flag} is given twice: {argv[0]} takes each flag once")
    assert not (tmp_path / "other.json").exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["kernel", "--n", "x"], '--n must be an integer, got "x"'),
        (["kernel", "--n=2.5"], '--n must be an integer, got "2.5"'),
        (["rpf", "--tol", "abc"], '--tol must be a number, got "abc"'),
        (["pressure", "--depth"], "--depth needs a value"),
    ],
    ids=["n-x", "n=2.5", "tol-abc", "depth-without-a-value"],
)
def test_values_not_of_their_flags_type_are_usage_errors(tmp_path, monkeypatch, capsys, argv, message):
    # refused before any work as a config entry of the wrong type is; the last flag has no value after it
    monkeypatch.setitem(cli._COMMANDS, argv[0], lambda cfg, args: pytest.fail("the command ran"))
    out = tmp_path / "report.json"
    assert cli.run([argv[0], "--out", str(out), *argv[1:]]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == f"usage error: {message}\n"


def help_flags(capsys, command):
    with pytest.raises(SystemExit) as done:
        cli.run([command, "--help"])
    assert done.value.code == 0
    return set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}


@pytest.mark.parametrize("command", list(cli._FLAGS))
def test_help_lists_exactly_the_flags_of_a_subcommands_table(capsys, command):
    assert help_flags(capsys, command) == {"--out", *cli._FLAGS[command]}


def test_readme_flag_table_lists_each_subcommands_flags_as_the_parser_does(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| subcommand          | flags")[1].split("\n\n")[0]
    rows = {}
    for line in table.splitlines()[2:]:
        name, flags = re.fullmatch(r"\| `([a-z-]+)` +\| (.*) \|", line).groups()
        rows[name] = {"--out", *re.findall(r"--[a-z][a-z-]*", flags)}
    assert list(rows) == list(cli._FLAGS)
    for command, flags in rows.items():
        assert flags == help_flags(capsys, command), command


def readme_table(header):
    """The rows of the README table whose header row starts with header: {first cell's name: the second cell}."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split(header)[1].split("\n\n")[0]
    return dict(re.fullmatch(r"\| `([a-z_-]+)` +\| (.*?) *\|", line).groups() for line in table.splitlines()[2:])


def readme_params(table):
    """A params table as the README writes it: `name`: JSON type (default)."""
    def json_type(key):
        if key.type is cli._SEQUENCE:
            return "sequence"
        return key.what.removeprefix("a ") or {int: "integer", float: "number", str: "string"}[key.type]

    def default(value):
        return {...: "required", None: "absent"}.get(value) or json.dumps(value)

    return ", ".join(f"`{name}`: {json_type(key)} ({default(key.default)})" for name, key in table.items())


def test_readme_config_schema_lists_each_subcommands_keys_and_each_kinds_params():
    rows = readme_table("| subcommand          | config keys")
    assert {command: re.findall(r"`(\w+)`", keys) for command, keys in rows.items()} == {
        command: list(keys) for command, keys in cli._CONFIG.items()
    }
    assert readme_table("| kind       | params") == {kind: readme_params(t) for kind, t in cli._PARAMS.items()}
    form, forms = cli._SEQUENCE
    assert readme_table(f"| {form}        | params") == {name: readme_params(t) for name, t in forms.items()}


def test_unwritable_report_path_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    assert cli.run(["rpf", "--out", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"cannot write {path}: ") and err.count("\n") == 1


def test_unwritable_csv_path_leaves_no_report(tmp_path, capsys):
    # the CSV is written first: no report says ok beside rows that were not written
    path = tmp_path / "missing" / "x.csv"
    assert cli.run(["tl", "--n", "3", "--csv", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"cannot write {path}: ") and err.count("\n") == 1
    code, report = run(tmp_path, "tl", "--n", "3", "--csv", str(path))
    assert code == 1 and report is None


def test_interaction_config_must_hold_a_table_potential(tmp_path, monkeypatch, capsys):
    # an ising_lr config has no table to telescope
    code, report = run(tmp_path, "interaction", "--config", ising_config(tmp_path))
    assert code == 1 and report is None
    assert capsys.readouterr().err == (
        'usage error: invalid config: unknown potential kind "ising_lr": one of constant, table\n'
    )
    # a constant is a depth-0 table, on the symbols its params name; interaction takes no --d
    cfg = write_config(tmp_path, {"potential": {"kind": "constant", "params": {"d": 3, "value": 0.5}}}, name="c.json")
    code, report = run(tmp_path, "interaction", "--config", cfg)
    assert code == 0 and report["results"]["kind"] == "from_potential"
    (tmp_path / "report.json").unlink()
    assert_refused(tmp_path, monkeypatch, capsys, ["interaction", "--config", cfg, "--d", "3"], "--d")
    # the long-range chain is --alpha's, and a config potential leaves no room for it
    argv = ["interaction", "--config", markov_config(tmp_path), "--alpha", "3"]
    assert_refused_as(tmp_path, monkeypatch, capsys, argv, "interaction --alpha applies without a config potential")


@pytest.mark.parametrize("config", ["table", "ising_lr"])
def test_kernel_report_computes_log_partition_once(tmp_path, monkeypatch, config):
    # the kernel value and its log-partition come from one sweep, one engine for a table
    calls = []
    sweep = dlr._sweep
    monkeypatch.setattr(dlr, "_sweep", lambda *args: calls.append(args) or sweep(*args))
    path = markov_config(tmp_path) if config == "table" else ising_config(tmp_path)
    code, report = run(tmp_path, "kernel", "--config", path, "--n", "4")
    assert code == 0
    assert len(calls) == 1
    f, [g], [y], [n] = calls[0]
    results = report["results"]
    assert (results["beta"], n, y.literal) == (1.0, 4, "|0")
    # bitwise the values of the two separate routes
    assert results["kernel_value"] == dlr.kernel(f, n, y, g)
    assert results["log_partition"] == dlr.log_partition(f, n, y)
    assert results["partition"] == pytest.approx(math.exp(results["log_partition"]), rel=1e-15)


def test_check_failure_exit_2(tmp_path):
    code, report = run(
        tmp_path, "rpf", "--config", markov_config(tmp_path), "--max-iter", "2"
    )
    assert code == 2
    assert report["status"] == "check-failed"


def test_reports_reproducible_modulo_timestamp(tmp_path):
    cfg = markov_config(tmp_path)

    def strip_timestamp(name):
        _, _ = run(tmp_path, "tl", "--config", cfg, "--n", "6", "--seed", "3", name=name)
        lines = (tmp_path / name).read_text().splitlines()
        return [ln for ln in lines if "generated_at" not in ln]

    assert strip_timestamp("a.json") == strip_timestamp("b.json")

    _, other = run(tmp_path, "tl", "--config", cfg, "--n", "6", "--seed", "4")
    _, ref = run(tmp_path, "tl", "--config", cfg, "--n", "6", "--seed", "3")
    assert other["results"]["boundaries"] != ref["results"]["boundaries"]


def test_csv_rows_match_report(tmp_path):
    csv_path = tmp_path / "rows.csv"
    code, report = run(
        tmp_path, "tl", "--config", markov_config(tmp_path), "--n", "5",
        "--csv", str(csv_path),
    )
    assert code == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "cylinder", "boundary_id", "K_n", "nu_ref", "deviation"]
    assert len(rows) - 1 == report["results"]["rows"]
    assert all(float(row[5]) >= 0.0 for row in rows[1:])
    # no cylinders in the config: every word of length 1 and 2, in word order
    assert list(dict.fromkeys(row[1] for row in rows[1:])) == ["0", "1", "00", "01", "10", "11"]


def test_floats_rendered_at_17_digits(tmp_path):
    out = tmp_path / "report.json"
    cli.run(["pressure", "--config", markov_config(tmp_path), "--out", str(out)])
    text = out.read_text()
    value = json.loads(text)["results"]["pressure"]
    assert format(value, ".17g") in text
    assert float(format(value, ".17g")) == value


def test_tl_deep_volumes(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "potential": {
                "kind": "table",
                "params": {"d": 2, "depth": 3, "values": [0.3, -0.5, 0.9, 0.1, -0.7, 0.2, 0.5, -0.2]},
            }
        },
    )
    csv_path = tmp_path / "rows.csv"
    code, report = run(tmp_path, "tl", "--config", cfg, "--n", "500", "--csv", str(csv_path))
    assert code == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == report["results"]["rows"] == 499 * 6 * 4
    # the kernel masses of the cylinders of one length sum to 1
    totals = defaultdict(list)
    for row in rows:
        totals[(row["n"], row["boundary_id"], len(row["cylinder"]))].append(float(row["K_n"]))
    assert len(totals) == 499 * 4 * 2
    assert all(abs(math.fsum(v) - 1.0) <= 1e-12 for v in totals.values())


def test_dump_report_many_floats():
    rng = np.random.default_rng(31)
    values = [float(v) for v in rng.standard_normal(5000) * 10.0 ** rng.integers(-300, 300, 5000)]
    text = cli.dump_report({"values": values, "nested": {"first": values[0], "count": 5000}})
    for v in values:
        assert format(v, ".17g") in text
    parsed = json.loads(text)
    assert parsed["values"] == values
    assert parsed["nested"]["first"] == values[0]


def _format_float(x):
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _tokenize(obj, floats):
    """Replace floats by placeholder strings so json.dumps leaves them alone."""
    if isinstance(obj, float):
        floats.append(obj)
        return f"__rk_float_{len(floats) - 1}__"
    if isinstance(obj, dict):
        return {k: _tokenize(v, floats) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_tokenize(v, floats) for v in obj]
    if isinstance(obj, np.ndarray):  # as the list of its numpy scalars
        return _tokenize(list(obj), floats)
    if isinstance(obj, np.floating):
        return _tokenize(float(obj), floats)
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def reference_dump_report(report):
    """The report layout by definition: json.dumps(sort_keys=True, indent=2)
    with every float put back at .17g in place of its placeholder."""
    floats = []
    text = json.dumps(_tokenize(report, floats), sort_keys=True, indent=2)
    text = re.sub(r'"__rk_float_(\d+)__"', lambda m: _format_float(floats[int(m.group(1))]), text)
    return text + "\n"


def reference_csv(table):
    """tl's CSV by definition: csv.writer, one row per (volume, cylinder, boundary)."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["n", "cylinder", "boundary_id", "K_n", "nu_ref", "deviation"])
    for v, n in enumerate(table.volumes.tolist()):
        for j, name in enumerate(table.cylinders):
            for b, boundary_id in enumerate(table.boundary_ids):
                floats = (table.K[v, j, b], table.nu_ref[j], table.deviation[v, j, b])
                writer.writerow([n, name, boundary_id, *(_format_float(float(x)) for x in floats)])
    return buf.getvalue()


def test_write_csv_matches_the_csv_writer_on_special_floats(tmp_path):
    specials = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 0.1, 1.0]
    K = np.array(specials * 4).reshape(2, 7, 2)
    table = dlr.TLTable(
        volumes=np.array([3, 12]),
        cylinders=["0", "1", "01", "10", "110", "0", "11"],
        boundary_ids=["|0", "01|1"],
        K=K,
        nu_ref=np.array([0.5, -0.0, 5e-324, float("nan"), float("inf"), 1.0, 0.25]),
    )
    path = tmp_path / "rows.csv"
    with np.errstate(invalid="ignore"):  # inf - inf in the deviation column
        cli._write_csv(table, str(path))
        expected = reference_csv(table)
    assert path.read_bytes().decode() == expected
    assert {"NaN", "Infinity", "-Infinity", "-0", "4.9406564584124654e-324"} <= set(re.split(r"[,\r\n]", expected))
    # repeated cells, 0.0 beside -0.0, format each distinct value once
    K = np.array([0.0, -0.0, 0.25, 0.0, -0.0, 0.25, 0.5] * 4).reshape(2, 7, 2)
    repeated = dataclasses.replace(table, K=K, nu_ref=np.array([0.25, -0.0, 0.0, 0.25, -0.0, 1.0, 0.0]))
    cli._write_csv(repeated, str(path))
    expected = reference_csv(repeated)
    assert path.read_bytes().decode() == expected
    assert "3,0,|0,0,0.25,0.25\r\n3,0,01|1,-0,0.25,0.25\r\n3,1,|0,0.25,-0,0.25\r\n" in expected
    # every finite table writes its floats in one % call; so does an empty one
    for K in (np.full((2, 7, 2), 0.1), np.zeros((0, 7, 2))):
        finite = dataclasses.replace(table, volumes=np.array([3, 12][:len(K)]), K=K, nu_ref=np.full(7, 0.5))
        cli._write_csv(finite, str(path))
        assert path.read_bytes().decode() == reference_csv(finite)


# as CylinderFunction.values: the formatter reads through a view it never writes
READ_ONLY = CylinderFunction(2, 4, [0.25, -0.0, 0.0, 0.25] * 4).values


@pytest.mark.parametrize(
    "obj",
    [
        {"specials": [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 0.1, 1e308]},
        {"mixed": [1.5, float("nan")], "scalar": float("-inf"), "zero": -0.0, "tiny": 5e-324},
        {"worst": {1: 0.5, 2: 0.25, 10: 0.125}, "by_name": {"b": 1, "a": 2, "10": 3, "9": 4}},
        {"empty_list": [], "empty_dict": {}, "nested": [[], {}, [[]], {"x": {}}]},
        {"tuple": (1.0, 2.5, -3.0), "pair": (1, "a"), "float_tuple_with_nan": (float("nan"), 1.0)},
        {"f64": np.float64(0.1), "i64": np.int64(-7), "f32": np.float32(0.1), "list_f64": [np.float64(1 / 3), np.float64(2.0)]},
        {"array": np.random.default_rng(7).standard_normal(33), "array_nan": np.array([1.0, np.nan, -np.inf, 2.0])},
        {"int_array": np.arange(4), "empty_array": np.zeros(0), "array_2d": np.ones((2, 2))},
        {"mixed": [1, 2.5, "three", None, True, False, {"k": [0.1]}, np.float32(4.5), np.int64(6)]},
        {"text": "déjà vu — ψ, ν", "ключ": "значение", "quote": 'a "b" \\ c\n'},
        # arrays with fewer than half their entries distinct format each once
        {"signed_zeros": np.array([0.0, -0.0, 0.5] * 7), "repeated_ties": np.repeat([0.1, 0.2], 8)},
        {"specials": np.repeat([np.nan, np.inf, -np.inf, 5e-324, -0.0, 1.0], 5)},
        {"read_only": READ_ONLY, "read_only_plain": READ_ONLY[:3]},
        {"all_equal": np.full(9, 1 / 3), "one": np.array([2.5]), "one_nan": np.array([np.nan])},
        {"f32": np.repeat(np.float32([0.1, -0.0, np.inf]), 3), "f32_plain": np.float32([1 / 3, 2.5])},
        {"f64_2d": np.repeat([[0.1, -0.0], [np.nan, 0.1]], 3, axis=0), "strided": np.arange(12.0)[::3] % 2},
        [0.1, 0.2],
        "top-level string",
        3.0,
        {},
    ],
)
def test_dump_report_matches_the_json_dumps_layout(obj):
    assert cli.dump_report(obj) == reference_dump_report(obj)


def test_rpf_formats_each_distinct_psi_value_once(tmp_path, monkeypatch):
    # psi of a depth-4 table at depth 10 repeats each of its 2^3 values 2^7 times
    values = np.random.default_rng(5).uniform(-0.3, 0.3, size=16).tolist()
    cfg = write_config(tmp_path, {"potential": {"kind": "table", "params": {"d": 2, "depth": 4, "values": values}}})
    formatted = []
    format_floats = cli._format_floats
    monkeypatch.setattr(cli, "_format_floats", lambda v, *rest: formatted.append(list(v)) or format_floats(v, *rest))
    code, report = run(tmp_path, "rpf", "--config", cfg, "--depth", "10", "--tol", "1e-12")
    assert code == 0 and len(report["results"]["psi"]) == 1024
    psi = set(report["results"]["psi"])
    assert len(psi) == 8
    # nu's entries are nearly all distinct and are formatted as they stand
    assert sorted(map(len, formatted)) == [8, 1024]
    assert [len(v) for v in formatted if set(v) <= psi] == [8]


SUBCOMMAND_RUNS = [
    ("rpf",),
    ("rpf", "--config", markov_config, "--depth", "6"),
    ("rpf", "--config", markov_config, "--max-iter", "2"),
    ("pressure", "--config", markov_config),
    ("normalize", "--config", markov_config),
    ("kernel", "--config", markov_config, "--n", "4"),
    ("kernel", "--config", ising_config, "--n", "4"),
    ("tl", "--config", markov_config, "--n", "6", "--seed", "3"),
    ("tl", "--config", markov_config, "--n", "40"),
    ("dlr-check", "--n", "2", "--r", "2", "--seed", "1"),
    ("interaction",),
    ("interaction", "--alpha", "3.0"),
    ("interaction", "--config", markov_config),
    ("walters", "--config", markov_config, "--n", "4"),
    ("uniqueness", "--config", markov_config, "--n", "6"),
    ("ising", "--n", "20"),
    ("change-of-measure",),
]


@pytest.mark.parametrize(
    "argv", SUBCOMMAND_RUNS, ids=lambda argv: " ".join(getattr(a, "__name__", a) for a in argv)
)
def test_subcommand_reports_match_the_json_dumps_layout(tmp_path, monkeypatch, argv):
    argv = [a(tmp_path) if callable(a) else a for a in argv]
    reports, tables = [], []
    dump_report, write_csv = cli.dump_report, cli._write_csv
    monkeypatch.setattr(cli, "dump_report", lambda r: reports.append(r) or dump_report(r))
    monkeypatch.setattr(cli, "_write_csv", lambda table, path: tables.append(table) or write_csv(table, path))
    csv_path = tmp_path / "rows.csv"
    # tl writes the one CSV; kernel refuses the flag
    code, _ = run(tmp_path, *argv, *(("--csv", str(csv_path)) if argv[0] == "tl" else ()))
    assert code in (0, 2)
    (report,) = reports
    text = (tmp_path / "report.json").read_text()
    assert text == dump_report(report) == reference_dump_report(report)
    if argv[0] == "tl":
        (table,) = tables
        assert csv_path.read_bytes().decode() == reference_csv(table)
