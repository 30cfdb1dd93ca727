"""Frozen CLI output: full stdout of every command, byte for byte.

``cli_golden.json`` holds the stdout of every case below: each result
command in text, JSON and CSV (warning paths included), sweeps, and every
``--help`` text at a fixed terminal width. Re-record it with
``PYTHONPATH=src python tests/test_cli_golden.py``, but only when a change
to the CLI output is intended.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from infotherm import cli
from infotherm.bounds import EntropyLedger
from infotherm.broadcast import BroadcastBalance
from infotherm.fileinfo import FileReport
from infotherm.mcsim import SimLedger
from infotherm.twolevel import TransferLedger

GOLDEN = Path(__file__).with_name("cli_golden.json")

#: 2 KiB of hash output: block entropy at k=8 and an incompressible coder run.
_HASHED = b"".join(hashlib.sha256(i.to_bytes(4, "big")).digest() for i in range(64))
_LEDGER = json.dumps({"delta_S": 1e-23, "heat_terms": [[3e-20, 300.0], [-1e-20, 600.0]], "info_term": 2.5}).encode()
_FORMATS = {"text": [], "json": ["--json"], "csv": ["--csv"]}

#: Terminal width for the help texts: argparse wraps them to $COLUMNS.
_COLUMNS = "80"

#: Every parser that prints a help text, from the top level down.
_HELP_COMMANDS = (
    [], ["gas"], ["gas", "temperature"], ["gas", "entropy"], ["gas", "occupation"], ["gas", "transfer"],
    ["gas", "state"], ["file"], ["file", "analyze"], ["broadcast"], ["broadcast", "range"],
    ["broadcast", "temperature"], ["broadcast", "balance"], ["broadcast", "capacity"], ["compute-bound"],
    ["clausius"], ["simulate"], ["sweep"],
)


def _cases() -> dict:
    """Case id -> (argv, stdin bytes)."""
    gas = ["--epsilon", "1e-21"]
    base = {
        "gas-temperature": (["gas", "temperature", "--L", "1000", "--p", "100"] + gas, b""),
        "gas-temperature-half-filling": (["gas", "temperature", "--L", "10", "--p", "5"] + gas, b""),
        "gas-temperature-inverted": (["gas", "temperature", "--L", "10", "--p", "7"] + gas, b""),
        "gas-entropy": (["gas", "entropy", "--L", "1000", "--p", "100"], b""),
        "gas-entropy-endpoint": (["gas", "entropy", "--L", "1000", "--p", "0"], b""),
        "gas-occupation": (["gas", "occupation", "--L", "1000", "--T", "300", "--epsilon", "4.14e-21"], b""),
        "gas-state": (["gas", "state", "--L", "1000", "--p", "100"] + gas, b""),
        "gas-state-endpoint": (["gas", "state", "--L", "1000", "--p", "0"] + gas, b""),
        "gas-state-half-filling": (["gas", "state", "--L", "10", "--p", "5"] + gas, b""),
        "gas-state-inverted": (["gas", "state", "--L", "10", "--p", "7"] + gas, b""),
        "broadcast-range": (["broadcast", "range", "--power", "50", "--bit-rate", "9e8"], b""),
        "broadcast-range-options": (["broadcast", "range", "--power", "1", "--bit-rate", "1e6", "--carrier", "1e9",
                                     "--area-mode", "wavelength-squared-over-100", "--noise-temp", "50",
                                     "--margin", "3", "--criterion", "file-temperature"], b""),
        "broadcast-range-area": (["broadcast", "range", "--power", "1", "--bit-rate", "1e6", "--area", "2.5"], b""),
        "broadcast-temperature": (["broadcast", "temperature", "--power", "50", "--bit-rate", "9e8"], b""),
        "broadcast-temperature-unused-geometry": (["broadcast", "temperature", "--power", "1", "--bit-rate", "1e6",
                                                   "--carrier", "1e9", "--area", "3"], b""),
        "broadcast-temperature-distance": (["broadcast", "temperature", "--power", "50", "--bit-rate", "9e8",
                                            "--distance", "1000"], b""),
        "broadcast-temperature-oversized": (["broadcast", "temperature", "--power", "1", "--bit-rate", "1e6",
                                             "--carrier", "1e9", "--distance", "0.01", "--area", "10"], b""),
        "broadcast-capacity": (["broadcast", "capacity", "--bit-rate", "1e9", "--carrier", "1e9", "--radius", "10"],
                               b""),
        "broadcast-capacity-subwavelength": (["broadcast", "capacity", "--bit-rate", "1e6", "--carrier", "1e6",
                                              "--radius", "1", "--duration", "2"], b""),
        "compute-bound": (["compute-bound", "--power", "1"], b""),
        "compute-bound-options": (["compute-bound", "--power", "1e-3", "--noise-temp", "4", "--margin", "2"], b""),
        "gas-transfer": (["gas", "transfer", "--L", "1000", "--p-hot", "200", "--p-cold", "100",
                          "--epsilon", "1e-21"], b""),
        "gas-transfer-noncanonical": (["gas", "transfer", "--L", "1000", "--p-hot", "100", "--p-cold", "700",
                                       "--epsilon", "1e-21"], b""),
        "file-analyze-hashed": (["file", "analyze", "--epsilon", "1e-21"], _HASHED),
        "file-analyze-periodic": (["file", "analyze", "--epsilon", "3e-21", "--block-k", "12"], b"abcab" * 400),
        "file-analyze-too-short": (["file", "analyze", "--epsilon", "1e-21"], b"ab"),
        "broadcast-balance": (["broadcast", "balance", "--info-bits", "8e6", "--receivers", "5"], b""),
        "broadcast-balance-peer": (["broadcast", "balance", "--info-nats", "0", "--receivers", "1"], b""),
        "clausius-heat-terms": (["clausius"], _LEDGER),
        "clausius-tolerance": (["clausius"], b'{"delta_S": -1e-30, "tolerance": 1e-29}'),
        "simulate": (["simulate", "--L", "200", "--t-hot", "2000", "--t-cold", "500", "--epsilon", "1e-20",
                      "--steps", "20000", "--seed", "3"], b""),
        "simulate-frozen": (["simulate", "--L", "20", "--t-hot", "2000", "--t-cold", "50", "--epsilon", "1e-20",
                             "--steps", "2000", "--seed", "11"], b""),
    }
    cases = {
        f"{name}-{fmt}": (argv + flags, stdin)
        for name, (argv, stdin) in base.items()
        for fmt, flags in _FORMATS.items()
    }
    ensemble = ["simulate", "--L", "100", "--t-hot", "2000", "--t-cold", "500", "--epsilon", "1e-20",
                "--steps", "5000", "--seed", "40", "--ensemble", "3"]
    for fmt, flags in _FORMATS.items():
        cases[f"simulate-ensemble-{fmt}"] = (ensemble + flags, b"")
    sweeps = {
        "linear": ["--param", "p", "--start", "5", "--stop", "1", "--count", "5", "--",
                   "gas", "temperature", "--L", "10", "--epsilon", "1e-20"],
        "log": ["--param", "epsilon", "--start", "1e-21", "--stop", "1e-19", "--count", "3", "--log", "--",
                "gas", "temperature", "--L", "10", "--p", "2"],
        "count": ["--param", "L", "--start", "10", "--stop", "30", "--count", "3", "--", "gas", "entropy", "--p", "2"],
        "simulate": ["--param", "t_cold", "--start", "100", "--stop", "500", "--count", "3", "--",
                     "simulate", "--L", "50", "--t-hot", "2000", "--epsilon", "1e-20", "--steps", "2000",
                     "--seed", "5"],
    }
    for name, argv in sweeps.items():
        cases[f"sweep-{name}"] = (["sweep"] + argv, b"")
    for command in _HELP_COMMANDS:
        cases["help-" + "-".join(command or ["infotherm"])] = (command + ["--help"], b"")
    return cases


CASES = _cases()


def stdout_of(argv: list[str], stdin: bytes) -> str:
    """What ``infotherm argv`` prints, run in-process with the default format.

    ``--help`` ends in SystemExit(0); its text is returned like any output.
    """
    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdin = saved
    if code != 0:
        raise AssertionError(f"{argv}: exit {code}")
    return out.getvalue()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_case_is_recorded(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_is_unchanged(case, golden, monkeypatch):
    monkeypatch.delenv(cli.FORMAT_ENV_VAR, raising=False)
    monkeypatch.setenv("COLUMNS", _COLUMNS)
    assert stdout_of(*CASES[case]) == golden[case]


def test_golden_covers_the_edge_cases(golden):
    assert "heat_terms = [[3e-20, 300.0], [-1e-20, 600.0]]" in golden["clausius-heat-terms-text"]
    assert json.loads(golden["file-analyze-too-short-json"])["results"]["info_block_k"] is None
    assert json.loads(golden["simulate-frozen-json"])["results"]["entropy_full_transfer"] is None
    assert golden["simulate-ensemble-csv"].startswith("seed,p_final,heat_to_cold,total_entropy_change\n")
    assert "temperature = inf [K]" in golden["gas-temperature-half-filling-text"]
    assert "warning: population inversion" in golden["gas-temperature-inverted-text"]
    assert json.loads(golden["gas-entropy-endpoint-json"])["results"]["entropy_stirling"] is None
    assert "distance" not in golden["broadcast-temperature-unused-geometry-text"]
    assert "warning: antenna radius below the carrier wavelength" in golden["broadcast-capacity-subwavelength-text"]
    assert golden["sweep-count"].startswith("L,entropy_exact,")
    assert golden["help-infotherm"].startswith("usage: infotherm [-h]")


@pytest.mark.parametrize(
    "cls,names",
    [
        (EntropyLedger, ("delta_s", "heat_terms", "info_term", "slack", "tolerance", "verdict")),
        (FileReport, ("bit_length", "ones_count", "bit_energy", "energy", "info_max", "info_order0",
                      "info_block_k", "info_compression", "file_temperature", "effective_temperature",
                      "equilibrium_score")),
        (SimLedger, ("seed", "steps", "length", "t_hot", "t_cold", "bit_energy", "p_initial", "p_final",
                     "energy_initial", "energy_final", "heat_to_cold", "entropy_hot_bath", "entropy_cold_bath",
                     "entropy_gas_change", "entropy_full_transfer", "total_entropy_change")),
        (TransferLedger, ("length", "p_hot", "p_cold", "bit_energy", "delta_q", "delta_s_occupation",
                          "delta_s_clausius", "t_hot", "t_cold", "canonical")),
        (BroadcastBalance, ("info_per_file", "receivers", "entropy_increase")),
    ],
)
def test_result_dataclasses_construct_positionally(cls, names):
    values = tuple(float(i) for i in range(len(names)))
    result = cls(*values)
    assert tuple(getattr(result, name) for name in names) == values
    assert result == cls(**dict(zip(names, values)))


def record() -> None:
    os.environ.pop(cli.FORMAT_ENV_VAR, None)
    os.environ["COLUMNS"] = _COLUMNS
    outputs = {case: stdout_of(*CASES[case]) for case in sorted(CASES)}
    GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
