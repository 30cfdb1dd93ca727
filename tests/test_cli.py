import argparse
import contextlib
import csv
import dataclasses
import decimal
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from importlib import resources
from unittest import mock

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infotherm import cli, errors
from infotherm.bounds import EntropyLedger
from infotherm.broadcast import BroadcastBalance, BroadcastInformation, ReceiverTemperature
from infotherm.fileinfo import FileReport
from infotherm.mcsim import EnsembleSummary, SimLedger
from infotherm.twolevel import GasState, GasTemperature, TransferLedger

SCHEMA = json.loads(
    resources.files("infotherm").joinpath("data/output_schema.json").read_text(encoding="utf-8")
)


#: A simulate command line without L, steps or ensemble.
SIMULATE = ["simulate", "--t-hot", "600", "--t-cold", "300", "--epsilon", "4.14e-21"]

#: A gas temperature command line without epsilon.
GAS_TEMPERATURE = ["gas", "temperature", "--L", "10", "--p", "2"]


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv + ["--json"])
    assert code == 0, err
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return payload


@pytest.fixture()
def random_file(tmp_path, random_megabyte):
    path = tmp_path / "random.bin"
    path.write_bytes(random_megabyte)
    return str(path)


class TestEnvelopes:
    def test_gas_temperature_inf_sentinel(self, capsys):
        payload = run_json(capsys, ["gas", "temperature", "--L", "6", "--p", "3", "--epsilon", "1e-20"])
        assert payload["results"]["temperature"] == "inf"
        assert payload["units"]["temperature"] == "K"
        assert payload["warnings"]

    def test_gas_temperature_regular_value(self, capsys):
        payload = run_json(capsys, ["gas", "temperature", "--L", "6", "--p", "2", "--epsilon", "1e-20"])
        assert payload["results"]["temperature"] == pytest.approx(1044.9397644795769, rel=1e-12)
        assert payload["warnings"] == []

    def test_gas_inversion_warning(self, capsys):
        payload = run_json(capsys, ["gas", "temperature", "--L", "10", "--p", "8", "--epsilon", "1e-20"])
        assert payload["results"]["temperature"] < 0
        assert payload["results"]["inverted"] is True
        assert any("inversion" in w for w in payload["warnings"])

    def test_broadcast_range_reference_case(self, capsys):
        payload = run_json(
            capsys,
            ["broadcast", "range", "--power", "50", "--bit-rate", "9e8", "--carrier", "9e8",
             "--area-mode", "wavelength-squared"],
        )
        assert payload["results"]["max_range"] == pytest.approx(1.0882651962020044e5, rel=1e-12)
        assert payload["units"]["max_range"] == "m"

    def test_file_analyze_random_input_is_equilibrium(self, capsys, random_file):
        payload = run_json(capsys, ["file", "analyze", "--epsilon", "1e-20", "--path", random_file])
        results = payload["results"]
        assert results["equilibrium_score"] >= 0.95
        assert set(results) == {
            "bit_length", "ones_count", "bit_energy", "energy", "info_max", "info_order0",
            "info_block_k", "info_compression", "file_temperature", "effective_temperature",
            "equilibrium_score",
        }
        assert any("equilibrium" in w for w in payload["warnings"])

    def test_file_analyze_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xaa" * 4096)))
        payload = run_json(capsys, ["file", "analyze", "--epsilon", "1e-20"])
        assert payload["results"]["ones_count"] == 4096 * 4
        assert payload["results"]["equilibrium_score"] < 0.05

    def test_clausius_reads_a_ledger_from_stdin(self, capsys, monkeypatch):
        # delta_S = 1e-23 J/K against dQ/T = 3e-20/300 = 1e-22 J/K: violated.
        ledger = {"delta_S": 1e-23, "heat_terms": [[3e-20, 300.0]], "info_term": 0.0}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(ledger)))
        payload = run_json(capsys, ["clausius"])
        assert payload["results"]["verdict"] == "violated"

    def test_clausius_reads_a_ledger_file(self, capsys, tmp_path):
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps({"delta_S": 2e-22, "heat_terms": [[1e-20, 100.0]]}))
        payload = run_json(capsys, ["clausius", "--ledger", str(path)])
        assert payload["results"]["verdict"] == "satisfied"

    def test_a_temperature_near_half_filling_is_finite(self, capsys):
        # (L - p) / p rounds to 1.0; this printed inf and "exactly half filling".
        payload = run_json(capsys, ["gas", "temperature", "--L", "100000000000000000", "--p", "49999999999999999",
                                    "--epsilon", "1e-21"])
        assert payload["results"]["temperature"] == pytest.approx(1.81e18, rel=1e-3)
        assert payload["warnings"] == []

    def test_compute_bound(self, capsys):
        payload = run_json(capsys, ["compute-bound", "--power", "1", "--noise-temp", "300", "--margin", "10"])
        assert payload["results"]["max_rate"] == pytest.approx(3.4831325482652564e19, rel=1e-6)

    def test_simulate_single_run(self, capsys):
        payload = run_json(
            capsys,
            ["simulate", "--L", "100", "--t-hot", "2089.88", "--t-cold", "1044.94",
             "--epsilon", "1e-20", "--steps", "1e4", "--seed", "3"],
        )
        results = payload["results"]
        assert results["energy_initial"] - results["energy_final"] == pytest.approx(
            results["heat_to_cold"], rel=1e-14, abs=1e-300
        )
        assert payload["inputs"]["steps"]["value"] == 10000

    def test_simulate_ensemble_summary(self, capsys):
        payload = run_json(
            capsys,
            ["simulate", "--L", "50", "--t-hot", "2089.88", "--t-cold", "1044.94",
             "--epsilon", "1e-20", "--steps", "2000", "--seed", "1", "--ensemble", "5"],
        )
        assert len(payload["results"]["runs"]) == 5
        assert payload["results"]["mean_p_final"] > 0

    def test_every_scalar_numeric_result_has_a_unit(self, capsys, random_file):
        cases = [
            ["gas", "temperature", "--L", "6", "--p", "2", "--epsilon", "1e-20"],
            ["gas", "entropy", "--L", "100", "--p", "25"],
            ["gas", "occupation", "--L", "100", "--T", "500", "--epsilon", "1e-20"],
            ["gas", "transfer", "--L", "100", "--p-hot", "20", "--p-cold", "10", "--epsilon", "1e-20"],
            ["gas", "state", "--L", "100", "--p", "25", "--epsilon", "1e-20"],
            ["file", "analyze", "--epsilon", "1e-20", "--path", random_file],
            ["broadcast", "range", "--power", "50", "--bit-rate", "9e8"],
            ["broadcast", "temperature", "--power", "50", "--bit-rate", "9e8", "--distance", "1e5"],
            ["broadcast", "balance", "--info-bits", "1e6", "--receivers", "5"],
            ["broadcast", "capacity", "--bit-rate", "1e9", "--carrier", "9e8", "--radius", "1.0"],
            ["compute-bound", "--power", "1"],
            ["simulate", "--L", "50", "--t-hot", "2000", "--t-cold", "1000", "--epsilon", "1e-20",
             "--steps", "1000", "--seed", "0"],
        ]
        for argv in cases:
            payload = run_json(capsys, argv)
            for key, value in payload["results"].items():
                if isinstance(value, bool) or isinstance(value, (list, dict)) or isinstance(value, str):
                    continue
                if value is None:
                    continue
                assert key in payload["units"], f"{argv}: no unit for {key}"


class TestFormats:
    def test_text_is_the_default(self, capsys):
        code, out, _ = run_cli(capsys, ["compute-bound", "--power", "1"])
        assert code == 0
        assert "command: compute-bound" in out
        assert "max_rate" in out and "[bit/s]" in out

    def test_csv_emits_header_then_row(self, capsys):
        code, out, _ = run_cli(capsys, ["compute-bound", "--power", "1", "--csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "max_rate"
        assert float(lines[1]) == pytest.approx(3.4831325482652564e19, rel=1e-6)

    def test_ensemble_csv_has_the_documented_columns(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["simulate", "--L", "50", "--t-hot", "2089.88", "--t-cold", "1044.94",
             "--epsilon", "1e-20", "--steps", "2000", "--seed", "1", "--ensemble", "4", "--csv"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "seed,p_final,heat_to_cold,total_entropy_change"
        assert len(lines) == 5
        assert [int(line.split(",")[0]) for line in lines[1:]] == [1, 2, 3, 4]

    def test_environment_variable_sets_the_default_format(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.FORMAT_ENV_VAR, "json")
        code, out, _ = run_cli(capsys, ["compute-bound", "--power", "1"])
        assert code == 0
        jsonschema.validate(json.loads(out), SCHEMA)

    @pytest.mark.parametrize("value", ["xml", "JSON", " json"])
    @pytest.mark.parametrize("flag", [[], ["--json"], ["--csv"]], ids=["no-flag", "json-flag", "csv-flag"])
    def test_unknown_environment_format_is_a_usage_error(self, capsys, monkeypatch, value, flag):
        monkeypatch.setenv(cli.FORMAT_ENV_VAR, value)
        with pytest.raises(SystemExit) as exc:
            cli.main(["compute-bound", "--power", "1"] + flag)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1
        assert cli.FORMAT_ENV_VAR in captured.err and "text, json, csv" in captured.err

    def test_empty_environment_format_is_text(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.FORMAT_ENV_VAR, "")
        code, out, _ = run_cli(capsys, ["compute-bound", "--power", "1"])
        assert code == 0
        assert out.startswith("command: compute-bound")

    def test_flags_override_the_environment(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.FORMAT_ENV_VAR, "json")
        code, out, _ = run_cli(capsys, ["compute-bound", "--power", "1", "--csv"])
        assert code == 0
        assert out.startswith("max_rate")


class TestSweep:
    def test_sweep_emits_sorted_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--param", "p", "--start", "5", "--stop", "1", "--count", "5", "--",
             "gas", "temperature", "--L", "10", "--epsilon", "1e-20"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("p,temperature")
        values = [float(line.split(",")[0]) for line in lines[1:]]
        assert values == sorted(values)
        assert len(values) == 5
        assert lines[-1].split(",")[1] == "inf"

    def test_the_header_is_the_union_of_the_points_names(self, capsys):
        # At p = 0 the gas has no temperature, so its row has no inverted flag either: those cells are empty.
        code, out, _ = run_cli(capsys, ["sweep", "--param", "p", "--start", "0", "--stop", "2", "--count", "3", "--",
                                        "gas", "state", "--L", "4", "--epsilon", "1e-21"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["p", "energy", "entropy_exact", "entropy_stirling", "temperature", "inverted"]
        assert [row[-2:] for row in rows[1:]] == [["", ""], ["65.92835881001162", "false"], ["inf", "false"]]

    def test_incomplete_target_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(
                ["sweep", "--param", "epsilon", "--start", "1e-21", "--stop", "1e-19",
                 "--count", "3", "--log", "--", "file"]
            )
        assert exc.value.code == 2

    def test_log_sweep_values_scale_geometrically(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--param", "epsilon", "--start", "1e-21", "--stop", "1e-19", "--count", "3",
             "--log", "--", "gas", "temperature", "--L", "10", "--p", "2"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        temps = [float(line.split(",")[1]) for line in lines[1:]]
        assert temps[1] == pytest.approx(10 * temps[0], rel=1e-9)
        assert temps[2] == pytest.approx(100 * temps[0], rel=1e-9)

    def test_sweep_cannot_target_itself(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--param", "x", "--start", "0", "--stop", "1", "--count", "2", "--", "sweep"])
        assert exc.value.code == 2

    @pytest.fixture()
    def executed(self, monkeypatch):
        """The target argv of every sweep point that runs."""
        calls = []
        run = cli._execute
        monkeypatch.setattr(cli, "_execute", lambda args: calls.append(args) or run(args))
        return calls

    def test_a_grid_the_count_parser_refuses_is_a_usage_error_before_any_point(self, capsys, executed):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--param", "L", "--start", "1", "--stop", "10", "--count", "3", "--",
                      "gas", "entropy", "--p", "0"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--L" in captured.err.splitlines()[-1]
        assert "5.5" in captured.err.splitlines()[-1]
        assert executed == []

    @pytest.mark.parametrize(
        "param,target",
        [
            ("bogus", ["gas", "entropy", "--p", "0"]),
            ("help", ["gas", "entropy", "--p", "0"]),
            ("p", ["gas", "transfer", "--L", "100", "--epsilon", "1e-21"]),
            ("json", ["gas", "entropy", "--L", "10", "--p", "0"]),
            ("criterion", ["broadcast", "range", "--power", "50", "--bit-rate", "9e8"]),
            ("area-mode", ["broadcast", "range", "--power", "50", "--bit-rate", "9e8"]),
            ("path", ["file", "analyze", "--epsilon", "1e-21"]),
        ],
    )
    def test_unknown_or_non_numeric_param_is_a_usage_error(self, capsys, executed, param, target):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--param", param, "--start", "1", "--stop", "2", "--count", "2", "--"] + target)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert executed == []

    def test_an_integer_grid_of_a_count_flag_runs(self, capsys):
        code, out, _ = run_cli(capsys, ["sweep", "--param", "p-hot", "--start", "3", "--stop", "1e1",
                                        "--count", "8", "--", "gas", "transfer", "--L", "100", "--p-cold", "2",
                                        "--epsilon", "1e-21"])
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()] == ["p-hot"] + [f"{v}.0" for v in range(3, 11)]

    def test_file_analyze_from_stdin_is_refused_before_any_point(self, capsys, executed, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\x5a" * 64)))
        code, out, err = run_cli(capsys, ["sweep", "--param", "epsilon", "--start", "1e-21", "--stop", "2e-21",
                                          "--count", "3", "--", "file", "analyze"])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1
        assert "--path" in err
        assert executed == []

    @pytest.mark.parametrize(
        "sweep,fixed",
        [
            (["--param", "seed", "--start", "0", "--stop", "999", "--count", "1000"], ["--L", "10", "--steps", "2e9"]),
            (["--param", "L", "--start", "1e6", "--stop", "1e7", "--count", "10"], []),
            (["--param", "ensemble", "--start", "2", "--stop", "500", "--count", "3"], ["--L", "10", "--steps", "4e6"]),
        ],
        ids=["seeds-of-2e9-steps", "default-steps-of-each-L", "ensembles"],
    )
    def test_a_simulate_sweep_over_the_step_budget_exits_one_before_any_point(self, capsys, monkeypatch, sweep,
                                                                              fixed):
        from infotherm import mcsim

        def refuse(*args):
            raise AssertionError("a point ran")

        monkeypatch.setattr(mcsim, "_relax", refuse)
        code, out, err = run_cli(capsys, ["sweep"] + sweep + ["--"] + SIMULATE + fixed)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1
        assert "budget of 2147483648 steps" in err

    def test_a_simulate_sweep_within_the_step_budget_runs(self, capsys):
        code, out, _ = run_cli(capsys, ["sweep", "--param", "L", "--start", "10", "--stop", "30", "--count", "3",
                                        "--"] + SIMULATE)
        assert code == 0
        assert [line.split(",")[2] for line in out.splitlines()[1:]] == ["1000", "2000", "3000"]

    def test_a_one_point_sweep_may_read_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\x5a" * 64)))
        code, out, _ = run_cli(capsys, ["sweep", "--param", "epsilon", "--start", "1e-21", "--stop", "2e-21",
                                        "--count", "1", "--", "file", "analyze"])
        assert code == 0
        assert out.startswith("epsilon,bit_length,")

    def test_a_unique_prefix_names_the_flag_as_argparse_allows(self, capsys):
        target = ["--start", "1e-21", "--stop", "1e-19", "--count", "3", "--", "gas", "temperature",
                  "--L", "10", "--p", "2"]
        _, full, _ = run_cli(capsys, ["sweep", "--param", "epsilon"] + target)
        code, short, _ = run_cli(capsys, ["sweep", "--param", "eps"] + target)
        assert code == 0
        assert short.replace("eps,", "epsilon,", 1) == full

    def test_file_analyze_with_a_path_sweeps(self, capsys, tmp_path):
        path = tmp_path / "data.bin"
        path.write_bytes(bytes(range(256)) * 4)
        code, out, _ = run_cli(capsys, ["sweep", "--param", "epsilon", "--start", "1e-21", "--stop", "2e-21",
                                        "--count", "3", "--", "file", "analyze", "--path", str(path)])
        assert code == 0
        assert len(out.splitlines()) == 4

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--param", "L", "--start", "inf", "--stop", "10", "--count", "2", "--", "gas", "entropy", "--p", "0"],
             "start must be a finite number, got inf"),
            (["--param", "epsilon", "--start", "1e-21", "--stop", "inf", "--count", "3", "--"] + GAS_TEMPERATURE,
             "stop must be a finite number, got inf"),
            (["--param", "epsilon", "--start", "nan", "--stop", "1e-21", "--count", "3", "--"] + GAS_TEMPERATURE,
             "start must be a finite number, got nan"),
            (["--param", "epsilon", "--start=-1e308", "--stop", "1.7e308", "--count", "3", "--"] + GAS_TEMPERATURE,
             "the linear grid from start to stop overflows"),
            (["--param", "T", "--start", "0.5", "--stop", "1.7976931348623157e308", "--count", "4", "--",
              "gas", "occupation", "--L", "10", "--epsilon", "1e-21"], "the linear grid from start to stop overflows"),
            (["--param", "T", "--start", "1.7976931348623157e308", "--stop", "0.5", "--count", "4", "--",
              "gas", "occupation", "--L", "10", "--epsilon", "1e-21"], "the linear grid from start to stop overflows"),
        ],
        ids=["inf-start-of-a-count", "inf-stop", "nan-start", "overflowing-step", "last-point-rounds-up",
             "last-point-rounds-down"],
    )
    def test_a_linear_grid_with_a_non_finite_point_exits_one_before_any_point(self, capsys, executed, argv,
                                                                             message):
        # Each once ran a nan or inf point the user never typed: exit 2 or 1 naming it, or an inf row with exit 0.
        code, out, err = run_cli(capsys, ["sweep"] + argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"
        assert executed == []

    def test_a_single_point_may_be_infinite(self, capsys):
        code, out, _ = run_cli(capsys, ["sweep", "--param", "T", "--start", "inf", "--stop", "inf", "--count", "1",
                                        "--", "gas", "occupation", "--L", "10", "--epsilon", "1e-21"])
        assert code == 0
        assert out == "T,occupation\ninf,5.0\n"

    @pytest.mark.parametrize(
        "start,stop,count",
        [
            (1e-10, 1e300, 3),  # stop / start overflows
            (1e300, 1e-300, 3),  # stop / start underflows to 0
            (1e300, 1e-20, 3),  # stop / start is subnormal: a ratio from it is off by 5.6e-6
            (1.0, sys.float_info.max, 5),  # ratio**4 rounds past the range: OverflowError
            (3.0, sys.float_info.max, 2),  # start * ratio rounds past the range: inf
            (5e-324, sys.float_info.max, 7),
        ],
        ids=["quotient-overflows", "quotient-underflows", "quotient-subnormal", "power-overflows",
             "product-overflows", "whole-range"],
    )
    def test_a_log_grid_past_the_float_range_is_within_two_ulps(self, start, stop, count):
        with decimal.localcontext() as context:  # oracle: log space at 60 digits
            context.prec = 60
            first, last = decimal.Decimal(start).ln(), decimal.Decimal(stop).ln()
            exact = sorted(float(((last - first) * i / (count - 1) + first).exp()) for i in range(count))
        values = cli._sweep_values(argparse.Namespace(start=start, stop=stop, count=count, log=True))
        assert all(abs(v - x) <= 2 * math.ulp(x) for v, x in zip(values, exact, strict=True)), (values, exact)

    @pytest.mark.parametrize("start,stop", [(1e-10, 1e300), (1e300, 1e-300)], ids=["overflows", "underflows"])
    def test_a_log_sweep_past_the_float_range_runs_its_typed_values(self, capsys, start, stop):
        # It once printed inf twice with exit 0, or exited 1 naming a temperature of 0.0 the user never typed.
        code, out, err = run_cli(capsys, ["sweep", "--param", "T", "--start", repr(start), "--stop", repr(stop),
                                          "--count", "3", "--log", "--", "gas", "occupation", "--L", "10",
                                          "--epsilon", "1e-40"])
        assert (code, err) == (0, "")
        assert [line.split(",")[0] for line in out.splitlines()] == (
            ["T", "1e-10", "1e+145", "1e+300"] if start < stop else ["T", "1e-300", "1.0", "1e+300"])

    @pytest.mark.parametrize("start,stop,count", [(1e-21, 1e-19, 3), (1e-21, 1e-19, 50), (7.0, 3e-5, 11),
                                                  (1e-300, 1e7, 9), (2.0, 1e308, 4), (1e150, 1e-150, 6)])
    def test_a_log_grid_inside_the_float_range_keeps_its_digits(self, start, stop, count):
        ratio = (stop / start) ** (1.0 / (count - 1))
        values = cli._sweep_values(argparse.Namespace(start=start, stop=stop, count=count, log=True))
        assert values == sorted(start * ratio**i for i in range(count))

    @pytest.mark.parametrize("target", [GAS_TEMPERATURE, SIMULATE + ["--L", "10", "--steps", "10"]],
                             ids=["gas-temperature", "simulate"])
    def test_a_negative_value_in_scientific_notation_is_a_value(self, capsys, target):
        # Parsed as "--epsilon -1e-05", it read as a flag: exit 2, "expected one argument".
        code, out, err = run_cli(capsys, ["sweep", "--param", "epsilon", "--start=-1e-5", "--stop=-1e-6",
                                          "--count", "2", "--"] + target)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "-1e-05" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--param", "epsilon", "--start", "1e-21", "--stop", "1e-19", "--count", "50", "--"]
            + GAS_TEMPERATURE,
            ["sweep", "--param", "seed", "--start", "0", "--stop", "2", "--count", "3", "--"]
            + SIMULATE + ["--L", "10", "--steps", "10"],
        ],
        ids=["gas-temperature-50-points", "simulate-3-points"],
    )
    def test_the_target_is_parsed_once(self, capsys, argv):
        parser = cli.build_parser()
        with mock.patch.object(parser, "parse_args", wraps=parser.parse_args) as spy:
            code, _, _ = run_cli(capsys, argv)
        assert code == 0
        target = argv[argv.index("--") + 1:]
        parsed = [call.args[0] for call in spy.call_args_list]
        assert parsed[0] == argv
        assert [point[:len(target)] for point in parsed[1:]] == [target]

    @pytest.mark.parametrize(
        "count,target",
        [
            (20000, ["--param", "epsilon", "--start", "1e-21", "--stop", "1e-19", "--"] + GAS_TEMPERATURE),
            (2000, ["--param", "seed", "--start", "0", "--stop", "1999", "--"]
             + SIMULATE + ["--L", "10", "--steps", "10"]),
        ],
        ids=["gas-temperature", "simulate"],
    )
    def test_the_memory_estimate_bounds_a_sweep(self, count, target):
        from infotherm import mcsim  # noqa: F401  (imported outside the traced call, as the parser is built)

        cli.build_parser()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = cli.main(["sweep", "--count", str(count)] + target)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak <= count * cli._SWEEP_POINT_BYTES


class TestExitCodes:
    def test_domain_error_exits_one_with_stderr_message(self, capsys):
        code, out, err = run_cli(capsys, ["gas", "temperature", "--L", "5", "--p", "9", "--epsilon", "1e-20"])
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run_cli(capsys, ["file", "analyze", "--epsilon", "1e-20", "--path", "/nonexistent.bin"])
        assert code == 1
        assert "error:" in err

    def test_an_empty_path_is_a_missing_file_not_stdin(self, capsys, monkeypatch):
        # An unset $FILE gives --path ''; only a path that is absent reads stdin.
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xaa" * 4096)))
        code, out, err = run_cli(capsys, ["file", "analyze", "--epsilon", "1e-20", "--path", ""])
        assert code == 1
        assert out == ""
        assert err == "error: [Errno 2] No such file or directory: ''\n"

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv",
        [
            GAS_TEMPERATURE + ["--epsilon", "1e-21"],
            GAS_TEMPERATURE + ["--epsilon", "1e-21", "--json"],
            ["sweep", "--param", "L", "--start", "10", "--stop", "30", "--count", "3", "--", "gas", "temperature",
             "--p", "2", "--epsilon", "1e-21"],
        ],
        ids=["text", "json", "sweep"],
    )
    def test_a_reader_that_left_early_is_one_error_line(self, argv, unbuffered):
        # As `infotherm ... | head -c 0` does: the pipe's read end is closed before the command writes.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "infotherm", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, env=env, text=True)
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert done.stderr == "error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("epsilon", ["inf", "nan", "1e308"])
    def test_nonfinite_file_energy_exits_one(self, capsys, tmp_path, epsilon):
        path = tmp_path / "ones.bin"
        path.write_bytes(b"\xff" * 64)
        code, out, err = run_cli(capsys, ["file", "analyze", "--epsilon", epsilon, "--path", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "seed_flags",
        [
            ["--seed", "-1"],
            ["--seed", "18446744073709551616"],
            ["--seed", "18446744073709551614", "--ensemble", "3"],
        ],
    )
    def test_seed_outside_64_bits_exits_one(self, capsys, seed_flags):
        code, out, err = run_cli(capsys, ["simulate", "--L", "10", "--t-hot", "2089.88", "--t-cold", "1044.94",
                                          "--epsilon", "1e-20", "--steps", "10"] + seed_flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_largest_seed_is_kept_exactly(self, capsys):
        payload = run_json(capsys, ["simulate", "--L", "10", "--t-hot", "2089.88", "--t-cold", "1044.94",
                                    "--epsilon", "1e-20", "--steps", "10", "--seed", "18446744073709551615"])
        assert payload["inputs"]["seed"]["value"] == 2**64 - 1
        assert payload["results"]["seed"] == 2**64 - 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["gas", "entropy", "--L", "1" + "0" * 400, "--p", "5"],
            ["gas", "temperature", "--L", "1" + "0" * 400, "--p", "5", "--epsilon", "1e-21"],
            ["broadcast", "balance", "--info-bits", "1", "--receivers", "1" + "0" * 400],
            ["simulate", "--L", "10", "--t-hot", "600", "--t-cold", "300", "--epsilon", "1e-21",
             "--steps", "-" + "9" * 400],
        ],
        ids=["gas-entropy", "gas-temperature", "broadcast-balance", "simulate-negative-steps"],
    )
    def test_count_beyond_the_float_range_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "expected a finite integer" in err
        assert "Traceback" not in err

    def test_count_inside_the_float_range_stays_exact(self, capsys):
        payload = run_json(capsys, ["gas", "entropy", "--L", "1" + "0" * 300, "--p", "5"])
        assert payload["inputs"]["L"]["value"] == 10**300

    @pytest.mark.parametrize(
        "ledger",
        [
            '{"delta_S": 1.0, "heat_terms": [[1e308, 1e-10]]}',
            '{"delta_S": 1.0, "heat_terms": [[1e308, 1.0], [1e308, 1.0]]}',
            '{"delta_S": 1.0, "heat_terms": [[1e308, 1e-10], [-1e308, 1e-10]]}',
            '{"delta_S": 1e308, "heat_terms": [[-1e308, 1.0]]}',
            '{"delta_S": 0.0, "heat_terms": [[1e308, 1.0], [-1e308, 1.0]]}',
        ],
        ids=["inf-term", "sum-overflow", "inf-minus-inf", "slack-overflow", "scale-overflow"],
    )
    def test_overflowing_clausius_ledger_exits_one(self, capsys, monkeypatch, ledger):
        monkeypatch.setattr(sys, "stdin", io.StringIO(ledger))
        code, out, err = run_cli(capsys, ["clausius"])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [["--power", "1", "--noise-temp", "300", "--margin", "inf"],
                                      ["--power", "5e-324", "--noise-temp", "1e300"]])
    def test_degenerate_zero_computing_rate_exits_one(self, capsys, argv):
        code, out, err = run_cli(capsys, ["compute-bound", *argv])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1

    def test_overflowing_file_temperature_exits_one(self, capsys, monkeypatch):
        # 64 zero bytes carry no energy, so only the file temperature overflows.
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(bytes(64))))
        code, out, err = run_cli(capsys, ["file", "analyze", "--epsilon", "1e300"])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1

    def test_overflowing_computing_rate_exits_one(self, capsys):
        code, out, err = run_cli(capsys, ["compute-bound", "--power", "1e308", "--noise-temp", "1e-300"])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("flag,value", [("--L", "1e400"), ("--steps", "inf"), ("--steps", "nan")])
    def test_nonfinite_count_is_a_usage_error(self, capsys, flag, value):
        argv = {"--L": "10", "--t-hot": "2089.88", "--t-cold": "1044.94", "--epsilon": "1e-20", "--steps": "10"}
        argv[flag] = value
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate"] + [item for pair in argv.items() for item in pair])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_nan_clausius_tolerance_exits_one(self, capsys, tmp_path):
        path = tmp_path / "ledger.json"
        path.write_text('{"delta_S": -1.0, "tolerance": NaN}', encoding="utf-8")
        code, out, err = run_cli(capsys, ["clausius", "--ledger", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "ledger",
        [
            '{"delta_S": "abc"}',
            '{"delta_S": [1]}',
            '{"delta_S": 1e-22, "heat_terms": [[1]]}',
            '{"delta_S": 1e-22, "heat_terms": 5}',
            '{"delta_S": 1e-22, "heat_terms": [["a", 300]]}',
            '{"delta_S": 1e-22, "info_term": null}',
            '{"delta_S": 1e-22, "tolerance": "x"}',
            '{"delta_S": -1.0, "tolerance": Infinity}',
            '\xff{"delta_S": 1e-22}',
            pytest.param("[" * 100_000 + "]" * 100_000, id="nested-100000-deep"),
            pytest.param('{"delta_S": 1e-23, "heat_term": [[3e-20, 300.0]]}', id="misspelt-heat_terms"),
        ],
    )
    def test_malformed_clausius_ledger_exits_one(self, capsys, tmp_path, ledger):
        path = tmp_path / "ledger.json"
        path.write_bytes(ledger.encode("latin-1"))
        code, out, err = run_cli(capsys, ["clausius", "--ledger", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1

    def test_infinite_occupation_energy_exits_one(self, capsys):
        code, out, err = run_cli(capsys, ["gas", "occupation", "--L", "10", "--T", "300", "--epsilon", "inf"])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(SIMULATE + ["--L", "1000", "--steps", "1e12"], id="steps-1e12"),
            pytest.param(SIMULATE + ["--L", "1e9"], id="L-1e9-default-steps"),
            pytest.param(SIMULATE + ["--L", "10", "--steps", "10", "--ensemble", "1e12"], id="ensemble-1e12"),
            pytest.param(SIMULATE + ["--L", "10", "--steps", "10", "--ensemble", "1e20"], id="ensemble-1e20"),
            pytest.param(["sweep", "--param", "epsilon", "--start", "1e-21", "--stop", "1e-19", "--count", "1e12",
                          "--", "gas", "temperature", "--L", "1000", "--p", "250"], id="sweep-count-1e12"),
        ],
    )
    def test_over_budget_request_exits_one_before_allocating(self, capsys, argv):
        cli.build_parser()  # the cached parser is built outside the traced call
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1
        assert "budget" in err
        assert peak < 2**20

    @pytest.mark.parametrize(
        "argv",
        [
            ["gas", "temperature", "--L", "10", "--p", "1", "--epsilon", "1e308"],
            ["gas", "state", "--L", "10", "--p", "1", "--epsilon", "1e308"],
            ["gas", "transfer", "--L", "1000", "--p-hot", "100", "--p-cold", "10", "--epsilon", "1e308"],
            ["broadcast", "range", "--power", "1", "--bit-rate", "1", "--carrier", "1e-200"],
            ["broadcast", "temperature", "--power", "1", "--bit-rate", "1", "--carrier", "1e-200", "--distance", "1"],
            ["broadcast", "temperature", "--power", "1", "--bit-rate", "1", "--distance", "1e-200", "--area", "1"],
            ["broadcast", "capacity", "--bit-rate", "1", "--carrier", "1", "--radius", "1e200"],
            ["broadcast", "range", "--power", "1", "--bit-rate", "1e9", "--carrier", "1e9", "--area", "1e300"],
            ["broadcast", "balance", "--info-bits", "1e308", "--receivers", "1e10"],
            ["broadcast", "temperature", "--power", "1e308", "--bit-rate", "1e-300"],
            ["gas", "state", "--L", "10", "--p", "5", "--epsilon", "1e308"],
            ["gas", "occupation", "--L", "1", "--T", "5e-324", "--epsilon", "1"],
            ["simulate", "--L", "10", "--t-hot", "1", "--t-cold", "5e-324", "--epsilon", "1e-21", "--steps", "10"],
            ["compute-bound", "--power", "1", "--noise-temp", "5e-324"],
            ["broadcast", "temperature", "--power", "1", "--bit-rate", "5e-324"],
            ["broadcast", "range", "--power", "1", "--bit-rate", "1", "--noise-temp", "5e-324"],
            ["broadcast", "range", "--power", "5e-324", "--bit-rate", "1e-300", "--carrier", "1", "--area", "5e-324"],
            ["gas", "entropy", "--L", "3e305", "--p", "5"],
            ["gas", "entropy", "--L", "1e308", "--p", "1e308"],
        ],
        ids=["gas-temperature-overflow", "gas-state-overflow", "gas-transfer-overflow", "range-wavelength-squared",
             "temperature-wavelength-squared", "temperature-distance-squared", "capacity-radius-squared",
             "range-overflow", "balance-information-overflow", "transmitter-temperature-overflow",
             "gas-state-energy-overflow", "occupation-denominator", "simulate-denominator",
             "compute-bound-denominator", "transmitter-denominator", "range-denominator", "range-underflow",
             "entropy-lgamma-overflow", "entropy-lgamma-overflow-full"],
    )
    def test_overflowing_result_exits_one(self, capsys, argv):
        # Each once printed a wrong verdict, a nan, a 0.0 or a traceback.
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1

    def test_unknown_clausius_keys_are_named(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO('{"delta_S": 1e-23, "heat_term": [], "info": 0}'))
        code, out, err = run_cli(capsys, ["clausius"])
        assert code == 1
        assert "unknown keys ['heat_term', 'info']" in err

    def test_unknown_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["compute-bound", "--power", "1", "--warp", "9"])
        assert exc.value.code == 2


LEAF_COMMANDS = [
    (["gas", "temperature"], ["--L", "--p", "--epsilon", "--json", "--csv"]),
    (["gas", "entropy"], ["--L", "--p"]),
    (["gas", "occupation"], ["--L", "--T", "--epsilon"]),
    (["gas", "transfer"], ["--L", "--p-hot", "--p-cold", "--epsilon"]),
    (["gas", "state"], ["--L", "--p", "--epsilon"]),
    (["file", "analyze"], ["--epsilon", "--block-k", "--path"]),
    (["broadcast", "range"],
     ["--power", "--bit-rate", "--carrier", "--area", "--area-mode", "--noise-temp", "--margin", "--criterion"]),
    (["broadcast", "temperature"], ["--power", "--bit-rate", "--distance", "--area"]),
    (["broadcast", "balance"], ["--info-nats", "--info-bits", "--receivers"]),
    (["broadcast", "capacity"], ["--bit-rate", "--carrier", "--radius", "--duration"]),
    (["compute-bound"], ["--power", "--noise-temp", "--margin"]),
    (["clausius"], ["--ledger"]),
    (["simulate"], ["--L", "--t-hot", "--t-cold", "--epsilon", "--steps", "--seed", "--ensemble"]),
    (["sweep"], ["--param", "--start", "--stop", "--count", "--log"]),
]


class TestHelp:
    @pytest.mark.parametrize("command,flags", LEAF_COMMANDS, ids=lambda v: " ".join(v) if isinstance(v, list) else "")
    def test_help_lists_every_flag(self, capsys, command, flags):
        with pytest.raises(SystemExit) as exc:
            cli.main(command + ["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in flags:
            assert flag in out
        if any(f in out for f in ("--noise-temp", "--margin", "--block-k", "--seed", "--duration")):
            assert "default" in out

    @pytest.mark.parametrize("command,flags", LEAF_COMMANDS, ids=lambda v: " ".join(v) if isinstance(v, list) else "")
    def test_each_flag_shows_one_default(self, capsys, monkeypatch, command, flags):
        monkeypatch.setenv("COLUMNS", "1000")  # one line per flag
        with pytest.raises(SystemExit):
            cli.main(command + ["--help"])
        out = capsys.readouterr().out
        assert out.count("(default:") == out.count("\n  --") > 0, out

    def test_units_appear_in_help(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["broadcast", "range", "--help"])
        out = capsys.readouterr().out
        for unit in ("[W]", "[bit/s]", "[Hz]", "[m^2]", "[K]"):
            assert unit in out


class TestDeterminism:
    def _run(self, argv, stdin_bytes=None):
        return subprocess.run(
            [sys.executable, "-m", "infotherm"] + argv,
            input=stdin_bytes,
            capture_output=True,
            check=True,
        ).stdout

    def test_simulation_output_is_byte_identical_across_runs(self):
        argv = ["simulate", "--L", "200", "--t-hot", "2089.88", "--t-cold", "1044.94",
                "--epsilon", "1e-20", "--steps", "20000", "--seed", "11", "--json"]
        assert self._run(argv) == self._run(argv)

    def test_file_analysis_from_stdin_is_byte_identical(self, random_megabyte):
        argv = ["file", "analyze", "--epsilon", "1e-20", "--json"]
        first = self._run(argv, stdin_bytes=random_megabyte[:65536])
        second = self._run(argv, stdin_bytes=random_megabyte[:65536])
        assert first == second


#: Every public name of the package, pinned when ``mcsim`` became lazy.
PUBLIC_NAMES = [
    "BroadcastBalance", "BroadcastInformation", "C_LIGHT", "ConfigDistribution", "Configuration",
    "DomainError", "EmptyFileError", "EnsembleSummary", "EntropyLedger", "FileReport", "GasSpec", "GasState",
    "GasTemperature", "InvalidDistributionError", "InvalidQuantityError", "K_B", "LN2", "LinkBudget",
    "ReceiverTemperature", "SampleSizeError", "SimLedger", "TransferLedger", "UndefinedTemperatureError",
    "analyze", "analyze_counts", "block_entropy", "bounds", "broadcast", "broadcast_entropy_balance",
    "carnot_efficiency", "clausius_check", "compression_information", "convert_information",
    "effective_temperature", "ensemble_summary", "entropy_stirling", "equilibrium_score",
    "equivalent_bit_energy", "equivalent_power", "errors", "file_temperature", "fileinfo", "gas_state",
    "gas_temperature", "h_function", "lz", "max_broadcast_information", "max_computing_rate",
    "max_information", "max_range", "mcsim", "multiplicity_ln", "occupation_at", "quantities",
    "receiver_temperature", "run_ensemble", "sample_canonical", "sample_equilibrium",
    "shannon_entropy_order0", "simulate_transfer", "transfer_entropy_delta", "transmitter_temperature",
    "twolevel",
]

#: Runs every calculator in-process in a fresh interpreter, then the two
#: numpy commands; prints the exit codes and when numpy got loaded.
_LAZY_IMPORT_SCRIPT = """
import contextlib, io, json, sys
import infotherm
import infotherm.cli as cli

ledger, data = sys.argv[1:]
calculators = [
    ["gas", "temperature", "--L", "1000", "--p", "100", "--epsilon", "1e-21"],
    ["gas", "entropy", "--L", "1000", "--p", "100"],
    ["gas", "occupation", "--L", "1000", "--T", "300", "--epsilon", "1e-21"],
    ["gas", "transfer", "--L", "1000", "--p-hot", "300", "--p-cold", "100", "--epsilon", "1e-21"],
    ["gas", "state", "--L", "1000", "--p", "100", "--epsilon", "1e-21", "--json"],
    ["broadcast", "range", "--power", "50", "--bit-rate", "9e8"],
    ["broadcast", "temperature", "--power", "50", "--bit-rate", "9e8", "--distance", "1e5"],
    ["broadcast", "balance", "--info-bits", "1e6", "--receivers", "5", "--csv"],
    ["broadcast", "capacity", "--bit-rate", "1e9", "--carrier", "9e8", "--radius", "1.0"],
    ["compute-bound", "--power", "1"],
    ["clausius", "--ledger", ledger],
    ["sweep", "--param", "epsilon", "--start", "1e-21", "--stop", "1e-19", "--count", "3", "--log", "--",
     "gas", "temperature", "--L", "1000", "--p", "100"],
]
heavy = [
    ["file", "analyze", "--epsilon", "1e-21", "--path", data],
    ["simulate", "--L", "100", "--t-hot", "2000", "--t-cold", "1000", "--epsilon", "1e-20", "--steps", "1000"],
]
report = {"numpy_after_import": "numpy" in sys.modules}
with contextlib.redirect_stdout(io.StringIO()):
    report["calculator_codes"] = [cli.main(argv) for argv in calculators]
    report["numpy_after_calculators"] = "numpy" in sys.modules
    report["heavy_codes"] = [cli.main(argv) for argv in heavy]
print(json.dumps(report))
"""


#: The public names of ``infotherm.mcsim``, which a star import leaves out.
_MCSIM_NAMES = ["ConfigDistribution", "Configuration", "EnsembleSummary", "SimLedger", "ensemble_summary",
                "h_function", "run_ensemble", "sample_canonical", "sample_equilibrium", "simulate_transfer"]

#: The modules that starting the CLI must not load: each command loads only those it uses.
_WATCHED_MODULES = ["csv", "dataclasses", "json", "numpy"] + [
    f"infotherm.{name}" for name in ("bounds", "broadcast", "fileinfo", "lz", "mcsim", "twolevel")]

#: Runs one command in a fresh interpreter (argv: the watched modules joined
#: by commas, then the command's argv); prints its exit status and the
#: watched modules that it loaded beyond those that importing the CLI loaded.
_LOADS_SCRIPT = """
import contextlib, io, sys
import infotherm.cli as cli

before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main(sys.argv[2:])
    except SystemExit as exc:
        code = exc.code
print(code, *sorted(set(sys.argv[1].split(",")) & (set(sys.modules) - before)))
"""


def _fresh_interpreter(script: str, *args: str) -> str:
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True, check=True, text=True).stdout


class TestInProcessUse:
    def test_calculators_never_import_numpy(self, tmp_path):
        ledger = tmp_path / "ledger.json"
        ledger.write_text(json.dumps({"delta_S": 1e-22, "heat_terms": [[3e-20, 300.0]]}))
        data = tmp_path / "data.bin"
        data.write_bytes(bytes(range(256)) * 64)
        report = json.loads(_fresh_interpreter(_LAZY_IMPORT_SCRIPT, str(ledger), str(data)))
        assert report == {
            "numpy_after_import": False,
            "calculator_codes": [0] * 12,
            "numpy_after_calculators": False,
            "heavy_codes": [0, 0],
        }

    def test_every_public_name_resolves(self):
        # The lazy submodule is checked first: any mcsim name would import it.
        script = (
            "import json, sys, infotherm; names = json.loads(sys.argv[1]); "
            "print(json.dumps([hasattr(infotherm, 'mcsim'), [n for n in names if n not in dir(infotherm)], "
            "[n for n in names if not hasattr(infotherm, n)]]))"
        )
        assert json.loads(_fresh_interpreter(script, json.dumps(PUBLIC_NAMES))) == [True, [], []]
        from infotherm import SimLedger, simulate_transfer  # noqa: F401  (the lazy path of a from-import)

    def test_public_names_are_listed_before_any_is_resolved(self):
        script = "import infotherm; print(' '.join(n for n in dir(infotherm) if not n.startswith('_')))"
        assert _fresh_interpreter(script).split() == sorted(PUBLIC_NAMES)

    def test_a_star_import_binds_all_but_mcsim_without_numpy(self):
        script = ("from infotherm import *; import json, sys; "
                  "print(json.dumps([sorted(n for n in dir() if not n.startswith('_')), 'numpy' in sys.modules]))")
        names = sorted(set(PUBLIC_NAMES) - {"mcsim", *_MCSIM_NAMES} | {"json", "sys"})
        assert json.loads(_fresh_interpreter(script)) == [names, False]

    def test_starting_the_cli_loads_no_library_module(self):
        script = "import sys; b = set(sys.modules); import infotherm.cli; print(*sorted(set(sys.modules) - b))"
        loaded = _fresh_interpreter(script).split()
        assert not {*_WATCHED_MODULES, "concurrent.futures", "inspect"} & set(loaded), loaded
        assert {"infotherm", "infotherm.cli", "infotherm.errors"} <= set(loaded)

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["--help"], []),
            (["gas", "--help"], []),
            (GAS_TEMPERATURE + ["--epsilon", "1e-21"], ["dataclasses", "infotherm.twolevel"]),
            (["gas", "entropy", "--L", "10", "--p", "2", "--csv"], ["csv", "dataclasses", "infotherm.twolevel"]),
            (["gas", "occupation", "--L", "10", "--T", "300", "--epsilon", "1e-21"],
             ["dataclasses", "infotherm.twolevel"]),
            (["gas", "transfer", "--L", "100", "--p-hot", "30", "--p-cold", "10", "--epsilon", "1e-21"],
             ["dataclasses", "infotherm.twolevel"]),
            (["gas", "state", "--L", "10", "--p", "2", "--epsilon", "1e-21", "--json"],
             ["dataclasses", "infotherm.twolevel", "json"]),
            (["broadcast", "range", "--power", "50", "--bit-rate", "9e8", "--csv"],
             ["csv", "dataclasses", "infotherm.broadcast"]),
            (["broadcast", "temperature", "--power", "50", "--bit-rate", "9e8", "--distance", "1e5"],
             ["dataclasses", "infotherm.broadcast"]),
            (["broadcast", "balance", "--info-bits", "1e6", "--receivers", "5"],
             ["dataclasses", "infotherm.broadcast"]),
            (["broadcast", "capacity", "--bit-rate", "1e9", "--carrier", "9e8", "--radius", "1"],
             ["dataclasses", "infotherm.broadcast"]),
            (["compute-bound", "--power", "1", "--json"], ["dataclasses", "infotherm.bounds", "json"]),
            (["clausius", "--ledger", "LEDGER"], ["dataclasses", "infotherm.bounds", "json"]),
            (["file", "analyze", "--epsilon", "1e-21", "--path", "DATA"],
             ["dataclasses", "infotherm.fileinfo", "infotherm.lz", "numpy"]),
            (SIMULATE + ["--L", "100", "--steps", "1000"],
             ["dataclasses", "infotherm.mcsim", "infotherm.twolevel", "numpy"]),
            (["sweep", "--param", "epsilon", "--start", "1e-21", "--stop", "1e-19", "--count", "3", "--"]
             + GAS_TEMPERATURE, ["csv", "dataclasses", "infotherm.twolevel"]),
        ],
        ids=["help", "gas-help", "gas-temperature", "gas-entropy-csv", "gas-occupation", "gas-transfer",
             "gas-state-json", "broadcast-range-csv", "broadcast-temperature", "broadcast-balance",
             "broadcast-capacity", "compute-bound-json", "clausius", "file-analyze", "simulate", "sweep"],
    )
    def test_a_command_loads_only_its_modules(self, tmp_path, argv, expected):
        ledger = tmp_path / "ledger.json"
        ledger.write_text(json.dumps({"delta_S": 1e-22, "heat_terms": [[3e-20, 300.0]]}))
        data = tmp_path / "data.bin"
        data.write_bytes(bytes(range(256)) * 64)
        argv = [{"LEDGER": str(ledger), "DATA": str(data)}.get(arg, arg) for arg in argv]
        assert _fresh_interpreter(_LOADS_SCRIPT, ",".join(_WATCHED_MODULES), *argv).split() == ["0"] + expected

    def test_the_table_spells_out_the_library_constants(self):
        from infotherm import broadcast, fileinfo

        assert cli._rows("file analyze")["block_k"].default == fileinfo.DEFAULT_BLOCK_BITS
        assert cli._rows("broadcast range")["criterion"].parse == broadcast.RANGE_CRITERIA

    def test_the_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_a_usage_error_leaks_nothing_into_the_next_call(self, capsys):
        argv = ["broadcast", "range", "--power", "50", "--bit-rate", "9e8"]
        for bad in (["--area-mode", "bogus"], ["--margin", "3", "--json", "--csv"], ["--criterion"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv + bad)
            assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        fresh = subprocess.run([sys.executable, "-m", "infotherm", *argv], capture_output=True, check=True, text=True)
        assert out == fresh.stdout

    def test_the_format_variable_is_read_on_every_call(self, capsys, monkeypatch):
        argv = ["compute-bound", "--power", "1"]
        for fmt, start in (("json", "{"), ("csv", "max_rate\n"), ("text", "command: compute-bound"), ("json", "{")):
            monkeypatch.setenv(cli.FORMAT_ENV_VAR, fmt)
            code, out, _ = run_cli(capsys, argv)
            assert code == 0
            assert out.startswith(start), fmt


#: (result type, fields not reported, fields reported without a unit, printed names that differ from the field's).
_DECLARED = [
    (TransferLedger, {"length", "p_hot", "p_cold", "bit_energy"}, {"canonical"}, {}),
    (SimLedger, {"t_hot", "t_cold", "bit_energy"}, set(), {}),
    (FileReport, set(), set(), {}),
    (EntropyLedger, set(), {"heat_terms", "verdict"}, {}),
    (BroadcastBalance, set(), set(), {}),
    (EnsembleSummary, set(), set(), {}),
    (GasTemperature, set(), {"inverted"}, {"kelvin": "temperature"}),
    (GasState, {"spec", "temperature"}, set(), {}),
    (ReceiverTemperature, set(), set(), {"kelvin": "receiver_temperature"}),
    (BroadcastInformation, {"radius"}, set(), {"nats": "max_information", "bits": "max_information_bits"}),
]


class TestDeclaredUnits:
    """The envelope reports exactly the dataclass fields declared with ``quantities.unit``."""

    @pytest.mark.parametrize("cls,unreported,unitless,printed", _DECLARED)
    def test_only_input_echoes_are_unreported(self, cls, unreported, unitless, printed):
        fields = dataclasses.fields(cls)
        assert {f.name for f in fields if "unit" not in f.metadata} == unreported
        assert {f.name for f in fields if f.metadata.get("unit", "") is None} == unitless
        assert {f.name: f.metadata["name"] for f in fields if f.metadata.get("name")} == printed
        assert cli._reported_fields(cls) == tuple(
            (f.name, printed.get(f.name, f.name), f.metadata["unit"]) for f in fields if f.name not in unreported)

    def test_every_result_the_cli_reports_is_declared_here(self, capsys, tmp_path):
        data, ledger = tmp_path / "data.bin", tmp_path / "ledger.json"
        data.write_bytes(bytes(range(256)))
        ledger.write_text('{"delta_S": 1.0}')
        commands = (
            GAS_TEMPERATURE + ["--epsilon", "1e-21"],
            ["gas", "state", "--L", "10", "--p", "2", "--epsilon", "1e-21"],
            ["gas", "transfer", "--L", "100", "--p-hot", "30", "--p-cold", "10", "--epsilon", "1e-21"],
            ["broadcast", "temperature", "--power", "50", "--bit-rate", "9e8", "--distance", "1e5"],
            ["broadcast", "balance", "--info-bits", "1e6", "--receivers", "5"],
            ["broadcast", "capacity", "--bit-rate", "1e9", "--carrier", "9e8", "--radius", "1"],
            ["clausius", "--ledger", str(ledger)],
            ["file", "analyze", "--epsilon", "1e-21", "--path", str(data)],
            SIMULATE + ["--L", "10", "--steps", "10"],
            SIMULATE + ["--L", "10", "--steps", "10", "--ensemble", "2"],
        )
        original = cli.Envelope.add_results
        with mock.patch.object(cli.Envelope, "add_results", autospec=True, side_effect=original) as spy:
            for argv in commands:
                assert run_cli(capsys, argv)[0] == 0, argv
        assert {type(call.args[1]) for call in spy.call_args_list} == {row[0] for row in _DECLARED}


#: Values of the CLI fuzz gate: zero, a negative, the ends of the float range,
#: the non-finite values, a count beyond 64 bits and a non-number. The memory
#: budget refuses a simulation or a sweep with any larger count than 1 of
#: these, so the gate needs no cap of its own.
_FUZZ_VALUES = (0, -1, 5e-324, 1e-300, 1, 1e300, 1e308, math.inf, math.nan, 2**64, "x")

#: The finite positive ones. Half the examples draw only these, so that most
#: of them pass the argument checks and reach the arithmetic.
_FUZZ_POSITIVE = (5e-324, 1e-300, 1, 1e300, 1e308, 2**64)


def _fuzz_flag(draw, flag, values: tuple, data_path: str) -> list[str]:
    if flag.parse is bool:
        return ["--" + flag.name]
    if isinstance(flag.parse, tuple):
        value = draw(st.sampled_from(flag.parse + ("x",)))
    elif flag.name == "path":
        value = data_path
    elif flag.name == "ledger":
        value = "-"
    else:
        value = str(draw(st.sampled_from(values)))
    return ["--" + flag.name, value]


def _fuzz_leaf(draw, leaf: str, values: tuple, data_path: str) -> list[str]:
    """argv of ``leaf``: every required flag, some optional ones, one flag of each group at most."""
    argv = leaf.split()
    for entry in cli._COMMANDS[leaf][2]:
        if isinstance(entry, cli._Flag):
            flag = entry if entry.default is cli._REQUIRED or draw(st.booleans()) else None
        else:
            required = entry[0].default is cli._REQUIRED
            flag = draw(st.sampled_from(entry)) if required or draw(st.booleans()) else None
        if flag is not None:
            argv += _fuzz_flag(draw, flag, values, data_path)
    if draw(st.booleans()):
        argv.append(draw(st.sampled_from(["--json", "--csv"])))
    return argv


@st.composite
def _fuzz_argv(draw, data_path: str) -> list[str]:
    """argv of a leaf command, or of a sweep over one of its flags."""
    values = draw(st.sampled_from([_FUZZ_VALUES, _FUZZ_POSITIVE]))
    leaf = draw(st.sampled_from(sorted(cli._COMMANDS)))
    argv = _fuzz_leaf(draw, leaf, values, data_path)
    if not draw(st.booleans()):
        return argv
    params = [f.name for f in cli._rows(leaf).values()] + ["x"]
    sweep = ["sweep", "--param", draw(st.sampled_from(params))]
    for name in ("start", "stop", "count"):
        sweep += ["--" + name, str(draw(st.sampled_from(values)))]
    if draw(st.booleans()):
        sweep.append("--log")
    return sweep + ["--"] + argv


#: A clausius ledger with every key, each present or not (delta_S too).
_FUZZ_LEDGER = st.fixed_dictionaries({}, optional={
    "delta_S": st.sampled_from(_FUZZ_VALUES),
    "heat_terms": st.lists(st.lists(st.sampled_from(_FUZZ_VALUES), min_size=1, max_size=3), max_size=2),
    "info_term": st.sampled_from(_FUZZ_VALUES),
    "tolerance": st.sampled_from(_FUZZ_VALUES),
})


def run_main(argv: list[str], stdin: bytes, sweep=None) -> tuple:
    """(exit status, stdout, stderr) of ``cli.main(argv)`` on ``stdin``, a usage error's exit too.

    ``sweep``, if given, stands in for ``cli._sweep``.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin)))
        if sweep is not None:
            patch.setattr(cli, "_sweep", sweep)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def fuzz_data(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("fuzz") / "data.bin"
    path.write_bytes(bytes(range(256)) * 2)
    return str(path)


class TestFuzz:
    """Every command line of the fuzz values ends in an exit status, never in a traceback."""

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(data=st.data(), ledger=_FUZZ_LEDGER)
    def test_no_traceback(self, fuzz_data, data, ledger):
        argv = data.draw(_fuzz_argv(fuzz_data))
        code, _, err = run_main(argv, json.dumps(ledger).encode())  # file analyze reads the ledger without --path
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err
        if code == 1:
            assert err.startswith("error:") and len(err.splitlines()) == 1, (argv, err)


def per_point_sweep(args, parser, stream) -> None:
    """Oracle: the earlier ``cli._sweep``, kept as a test-local copy.

    It parses each point's whole argv, the target and the swept flag with
    its value, and a simulate target's twice: once for the step budget and
    once to run it. It writes the CSV once every point has run, under the
    union of the points' result names.
    """
    target = args.target[1:] if args.target[:1] == ["--"] else args.target
    leaf = " ".join(target[:2] if target and target[0] in cli._GROUPS else target[:1])
    if leaf not in cli._COMMANDS:
        parser.error(f"sweep needs a result command after the sweep flags, got {leaf!r}")
    name = args.param.lstrip("-").replace("_", "-")
    by_name = {row.name: row for row in cli._rows(leaf).values()}
    matches = [by_name[name]] if name in by_name else [row for n, row in by_name.items() if n.startswith(name)]
    if len(matches) != 1 or matches[0].parse not in (float, cli._count):
        parser.error(f"--param {args.param!r} is not a numeric flag of {leaf}")
    swept = matches[0]
    flag = "--" + swept.name
    values = cli._sweep_values(args)
    for value in values:
        try:
            swept.parse(repr(value))
        except argparse.ArgumentTypeError as exc:
            parser.error(f"argument {flag}: {exc}")
    if leaf == "simulate":
        total = 0
        for value in values:
            sub_args = parser.parse_args(target + [flag, repr(value)])
            total += cli._simulate_steps(sub_args) * (1 if sub_args.ensemble is None else sub_args.ensemble)
        errors.require_within_step_budget(total, f"a sweep of {len(values)} simulate points")
    points = []
    for value in values:
        sub_args = parser.parse_args(target + [flag, repr(value)])
        if leaf == "file analyze" and sub_args.path is None and len(values) > 1:
            raise errors.DomainError("a sweep cannot re-read stdin at every point; give file analyze a --path")
        env = cli._execute(sub_args)
        points.append((value, {k: v for k, v in env.results.items() if not isinstance(v, cli._COMPOUND)}))
    names = list(dict.fromkeys(k for _, scalars in points for k in scalars))
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow([args.param] + names)
    for value, scalars in points:
        writer.writerow(cli._format_scalar(v) for v in [value] + [scalars.get(k) for k in names])


class TestSweepMatchesItsPoints:
    """A sweep prints what parsing each point's whole argv prints: stdout, stderr and exit status."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), count=st.sampled_from([None, "3"]))
    def test_fuzz_sweeps(self, fuzz_data, data, count):
        argv = data.draw(_fuzz_argv(fuzz_data).filter(lambda argv: argv[0] == "sweep"))
        if count is not None:  # the fuzz values give one point at most
            argv[argv.index("--count") + 1] = count
        stdin = b"\x5a" * 64
        assert run_main(argv, stdin) == run_main(argv, stdin, per_point_sweep)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--param", "L", "--start", "5", "--stop", "15", "--count", "3", "--", "gas", "entropy", "--p", "0",
             "--L", "5"],
            ["--param", "eps", "--start", "1e-21", "--stop", "1e-19", "--count", "3", "--"] + GAS_TEMPERATURE,
            ["--param", "epsilon", "--start", "1e-21", "--stop", "1e-19", "--count", "4", "--log", "--"]
            + GAS_TEMPERATURE,
            ["--param", "p-hot", "--start", "3", "--stop", "1e1", "--count", "8", "--", "gas", "transfer", "--L",
             "100", "--p-cold", "2", "--epsilon", "1e-21"],
            ["--param", "carrier", "--start", "1e8", "--stop", "2e9", "--count", "4", "--", "broadcast", "range",
             "--power", "50", "--bit-rate", "9e8"],
            ["--param", "distance", "--start", "1e3", "--stop", "1e5", "--count", "3", "--", "broadcast",
             "temperature", "--power", "50", "--bit-rate", "9e8", "--area-mode", "wavelength-squared-over-100"],
            ["--param", "t-hot", "--start", "400", "--stop", "800", "--count", "3", "--"] + SIMULATE
            + ["--L", "50", "--steps", "1000", "--ensemble", "3"],
            ["--param", "L", "--start", "10", "--stop", "30", "--count", "3", "--"] + SIMULATE,
            ["--param", "p", "--start", "1", "--stop", "21", "--count", "3", "--", "gas", "temperature", "--L",
             "15", "--epsilon", "1e-21"],
            ["--param", "info-nats", "--start", "1", "--stop", "2", "--count", "2", "--", "broadcast", "balance",
             "--info-bits", "5", "--receivers", "3"],
            ["--param", "epsilon", "--start", "1e-21", "--stop", "1e-19", "--count", "3", "--", "gas", "temperature",
             "--L", "10"],
        ],
        ids=["swept-flag-in-the-target", "unique-prefix", "log-grid", "integer-grid-of-a-count", "range-over-carrier",
             "temperature-over-distance", "simulate-ensemble", "simulate-default-steps", "last-point-domain-error",
             "exclusive-flag-in-the-target", "incomplete-target"],
    )
    def test_equals_the_per_point_parse(self, argv):
        argv = ["sweep"] + argv
        result = run_main(argv, b"")
        assert result == run_main(argv, b"", per_point_sweep)
        assert result[0] in (0, 1, 2) and "Traceback" not in result[2]

    def test_a_domain_error_at_the_last_point_exits_one(self):
        argv = ["sweep", "--param", "p", "--start", "1", "--stop", "21", "--count", "3", "--", "gas", "temperature",
                "--L", "15", "--epsilon", "1e-21"]
        assert run_main(argv, b"") == (1, "", "error: ones must be an integer in [0, 15], got 21\n")

    def test_file_analyze_with_a_path(self, fuzz_data):
        argv = ["sweep", "--param", "block-k", "--start", "1", "--stop", "8", "--count", "8", "--", "file", "analyze",
                "--epsilon", "1e-21", "--path", fuzz_data]
        result = run_main(argv, b"")
        assert result[0] == 0
        assert result == run_main(argv, b"", per_point_sweep)
