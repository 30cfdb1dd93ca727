"""Frozen CLI output: full stdout of the result-reporting commands, byte for byte.

``cli_golden.json`` holds the stdout of every case below. Re-record it with
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


def _cases() -> dict:
    """Case id -> (argv, stdin bytes)."""
    base = {
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
    return cases


CASES = _cases()


def stdout_of(argv: list[str], stdin: bytes) -> str:
    """What ``infotherm argv`` prints, run in-process with the default format."""
    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
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
    assert stdout_of(*CASES[case]) == golden[case]


def test_golden_covers_the_edge_cases(golden):
    assert "heat_terms = [[3e-20, 300.0], [-1e-20, 600.0]]" in golden["clausius-heat-terms-text"]
    assert json.loads(golden["file-analyze-too-short-json"])["results"]["info_block_k"] is None
    assert json.loads(golden["simulate-frozen-json"])["results"]["entropy_full_transfer"] is None
    assert golden["simulate-ensemble-csv"].startswith("seed,p_final,heat_to_cold,total_entropy_change\n")


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
    outputs = {case: stdout_of(*CASES[case]) for case in sorted(CASES)}
    GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
