"""End-to-end exercises of the command-line front-end.

Covers the exit-code contract (0 ok / 2 check-failed / 1 usage error),
the versioned JSON report schema, byte-level reproducibility, CSV
output, and config parsing for each potential descriptor kind.
"""

import csv
import dataclasses
import io
import json
import math
import re
import warnings
from collections import defaultdict

import numpy as np
import pytest

from ruellekit import cli, dlr, potentials, transfer
from ruellekit.shift import Point, parse_word

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
    code = cli.main([*args, "--out", str(out)])
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
    # the check is per entry, up to max psi / min psi (17.5 here) times the residual held under tol
    cfg = write_config(tmp_path, {"potential": {"kind": "table", "params": {"d": 2, "depth": 2, "values": [0.0, 0.0, -1.0, 2.0]}}})
    code, report = run(tmp_path, "normalize", "--config", cfg, "--depth", "2")
    assert code == 0
    assert report["status"] == "ok"
    assert 1e-10 < report["results"]["check_sup_norm"] < 17.6e-10


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


def test_kernel_uniform_potential(tmp_path):
    code, report = run(tmp_path, "kernel")
    assert code == 0
    # f == 0 at volume 2: four words, the test indicator [0] picks up half
    assert report["results"]["partition"] == 4.0
    assert report["results"]["kernel_value"] == 0.5


def test_zero_beta_is_a_value_not_a_missing_flag(tmp_path):
    code, report = run(tmp_path, "kernel", "--config", markov_config(tmp_path), "--beta", "0")
    assert code == 0
    assert report["params"]["beta"] == 0
    assert report["results"]["beta"] == 0
    # beta = 0 weighs the four volume words equally: the uniform average
    assert report["results"]["kernel_value"] == 0.5
    assert report["results"]["partition"] == 4.0


def test_zero_max_iter_is_refused(tmp_path, capsys):
    assert cli.main(["rpf", "--max-iter", "0"]) == 1
    assert "max_iter" in capsys.readouterr().err


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


def test_walters_hofbauer_config(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "potential": {
                "kind": "hofbauer",
                "params": {
                    "a_seq": {"form": "power", "base": 0.25, "coef": 1.0, "exponent": 2.0},
                    "c_seq": {"form": "geometric", "base": -0.75, "coef": 2.0, "ratio": 0.5},
                    "a": 0.25,
                    "b": 5.0,
                    "c": -0.75,
                    "var_decay": {"form": "power", "base": 0.0, "coef": 8.0, "exponent": 2.0},
                },
            }
        },
    )
    code, report = run(tmp_path, "walters", "--config", cfg, "--n", "4")
    assert code == 0
    assert report["results"]["jop"]["n_terms"] >= 8
    assert all(e["value"] >= 0.0 for e in report["results"]["estimates"])


def test_walters_without_variation_metadata(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "potential": {
                "kind": "hofbauer",
                "params": {
                    "a_seq": {"form": "power", "base": 0.25, "coef": 1.0, "exponent": 2.0},
                    "c_seq": {"form": "geometric", "base": -0.75, "coef": 2.0, "ratio": 0.5},
                    "a": 0.25,
                    "b": 5.0,
                    "c": -0.75,
                },
            }
        },
    )
    # no honest variation majorant exists, so the subcommand refuses
    assert cli.main(["walters", "--config", cfg, "--n", "4"]) == 1
    assert "no variation metadata" in capsys.readouterr().err


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
    assert cli.main([command, "--config", markov_config(tmp_path), "--n", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "--n" in err
    assert calls == []


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
        _, expected = dlr.tl_sequence(f, 1.0, words, points, 8, tol=float(tol))
        worst[tol] = report["results"]["worst"]
        assert worst[tol] == {str(n): w for n, w in expected.items()}
    assert worst["1e-2"] != worst["1e-10"]


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
    # 2 beta D = 720 overflows exp; the margin is decided as a log
    code, report = run(tmp_path, "uniqueness", "--config", wide_table_config(tmp_path), "--beta", "0.45")
    assert code == 0
    assert report["results"]["D"] == 800.0
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


def test_unknown_subcommand_exit_1(capsys):
    assert cli.main(["frobnicate"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unreadable_config_exit_1(tmp_path, capsys):
    assert cli.main(["rpf", "--config", str(tmp_path / "missing.json")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_invalid_json_config_exit_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert cli.main(["rpf", "--config", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_unknown_potential_kind_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path, {"potential": {"kind": "frob"}})
    assert cli.main(["rpf", "--config", cfg]) == 1
    assert "unknown potential kind" in capsys.readouterr().err


def ising_config(tmp_path):
    return write_config(tmp_path, {"potential": {"kind": "ising_lr", "params": {}}})


def test_size_guard_exit_1(tmp_path, capsys):
    # doubling the window asks the callable for 2^32 volume words
    assert cli.main(["uniqueness", "--config", ising_config(tmp_path), "--n", "16"]) == 1
    assert "size guard" in capsys.readouterr().err


def test_size_guard_fires_before_any_table(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(potentials, "tabulate", lambda *args: calls.append(args))
    assert cli.main(["uniqueness", "--config", ising_config(tmp_path), "--n", "16"]) == 1
    assert "size guard" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_table_is_refused(tmp_path, capsys, bad):
    cfg = write_config(
        tmp_path, {"potential": {"kind": "table", "params": {"d": 2, "depth": 1, "values": [0.0, bad]}}}
    )
    assert cli.main(["pressure", "--config", cfg]) == 1
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


def test_numerical_breakdown_is_not_a_config_error(tmp_path, capsys):
    # a valid table whose weights exp(f - max f) underflow: no report, exit 1,
    # and the breakdown is caught before lambda is divided out, so numpy warns of nothing
    cfg = write_config(
        tmp_path,
        {"potential": {"kind": "table", "params": {"d": 2, "depth": 3, "values": [
            -1999.42, -0.81, -1999.84, -0.61, -1999.38, -2000.02, 0.98, -2000.63]}}},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, report = run(tmp_path, "pressure", "--config", cfg)
    assert code == 1
    assert report is None
    assert capsys.readouterr().err == (
        "numerical breakdown: power iteration broke down: weights exp(f - max f) "
        "underflow, the spread of the table is too wide for double precision\n"
    )


def test_ising_lr_config_refuses_beta(tmp_path, capsys):
    # kernels scale g by --beta; a beta inside g would be applied twice
    cfg = write_config(tmp_path, {"potential": {"kind": "ising_lr", "params": {"beta": 7}}})
    code, report = run(tmp_path, "pressure", "--config", cfg, "--depth", "6", "--cutoff", "50")
    assert code == 1
    assert report is None
    assert "invalid config" in capsys.readouterr().err


def test_ising_refuses_beta_flag(tmp_path, capsys):
    code, report = run(tmp_path, "ising", "--beta", "2")
    assert code == 1
    assert report is None
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["walters", "change-of-measure", "interaction"])
def test_subcommands_without_beta_refuse_the_flag(tmp_path, capsys, command):
    code, report = run(tmp_path, command, "--config", markov_config(tmp_path), "--beta", "7")
    assert code == 1
    assert report is None
    assert f"usage error: {command} takes no --beta" in capsys.readouterr().err


@pytest.mark.parametrize("config", ["table", "ising_lr"])
def test_kernel_report_computes_log_partition_once(tmp_path, monkeypatch, config):
    calls = []
    log_partition = dlr.log_partition

    def counted(*args):
        calls.append(args)
        return log_partition(*args)

    monkeypatch.setattr(dlr, "log_partition", counted)
    path = markov_config(tmp_path) if config == "table" else ising_config(tmp_path)
    code, report = run(tmp_path, "kernel", "--config", path, "--n", "4")
    assert code == 0
    assert len(calls) == 1
    assert report["results"]["partition"] == pytest.approx(math.exp(report["results"]["log_partition"]), rel=1e-15)


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


def test_floats_rendered_at_17_digits(tmp_path):
    out = tmp_path / "report.json"
    cli.main(["pressure", "--config", markov_config(tmp_path), "--out", str(out)])
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


def reference_csv(rows):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["n", "cylinder", "boundary_id", "K_n", "nu_ref", "deviation"])
    for row in rows:
        writer.writerow(
            [row.n, row.cylinder, row.boundary_id, *map(_format_float, (row.K_n, row.nu_ref, row.deviation))]
        )
    return buf.getvalue()


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
        [0.1, 0.2],
        "top-level string",
        3.0,
        {},
    ],
)
def test_dump_report_matches_the_json_dumps_layout(obj):
    assert cli.dump_report(obj) == reference_dump_report(obj)


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
    monkeypatch.setattr(cli, "_write_csv", lambda rows, path: tables.append(rows) or write_csv(rows, path))
    csv_path = tmp_path / "rows.csv"
    code, _ = run(tmp_path, *argv, "--csv", str(csv_path))
    assert code in (0, 2)
    (report,) = reports
    text = (tmp_path / "report.json").read_text()
    assert text == dump_report(report) == reference_dump_report(report)
    if argv[0] == "tl":
        (rows,) = tables
        assert csv_path.read_bytes().decode() == reference_csv(rows)
