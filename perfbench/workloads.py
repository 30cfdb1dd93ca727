"""Workloads of the benchmark: frozen input pools and seeded op plans.

Every input a workload can use belongs to a pool whose members are made
from fixed generator seeds, so the CLI output of every possible op is
pinned byte for byte in ``golden.json``. The run seed chooses which pool
members a run uses and the order of its ops; the op mix (which kinds of op,
in which proportion) is the same for every seed, so runs with different
seeds measure the same thing.

An op is a dict: ``argv`` for ``infotherm.cli.main``, ``kind`` (ops of one
kind cost about the same), ``input`` (the path of the file it reads, or
None) and ``ensemble`` (the ensemble parameters when the op is an ensemble
simulation whose mean is checked against the exact finite-step mean).

All input paths are relative to the repository root and never change from
run to run, because ``file analyze`` and ``clausius`` echo them.
"""

import hashlib
import json
import random
from pathlib import Path

import numpy as np

WORKLOADS = ("analyze-random", "analyze-redundant", "simulate-mix", "cli-calculators")

#: Directory, relative to the repository root, that holds generated inputs
#: and run artifacts.
DATA_DIR = Path(".perfbench_data")

FORMATS = ("text", "json", "csv")
_FORMAT_FLAGS = {"text": [], "json": ["--json"], "csv": ["--csv"]}

#: Sizes per scale. "full" is what the benchmark measures; "tiny" runs every
#: workload and every check in a few seconds, for the self-check.
SCALES = {
    "full": {
        # 256 KiB rather than 1 MiB: block entropy's temporaries (about 72
        # bytes per input byte) then stay near the cache, and the op time
        # drifts far less with the load of other tenants of the machine.
        "random_bytes": 256 << 10,
        "random_pool": 12,
        "random_used": 6,
        # Sized so that every kind takes about the same time per op: with
        # equal kinds the median latency sits inside one mode instead of
        # jumping between two.
        "redundant_bytes": {"sym4": 64 << 10, "sym16": 96 << 10, "ones10": 96 << 10, "text": 96 << 10},
        "redundant_pool": 4,
        "redundant_used": 2,
        "single_L": 15_000,
        "ensemble_L": 1000,
        "ensemble_steps": 100_000,
        "ensemble_runs": 20,
        "sim_pool": 16,
    },
    "tiny": {
        "random_bytes": 16 << 10,
        "random_pool": 2,
        "random_used": 2,
        "redundant_bytes": {"sym4": 4 << 10, "sym16": 4 << 10, "ones10": 4 << 10, "text": 4 << 10},
        "redundant_pool": 1,
        "redundant_used": 1,
        "single_L": 1000,
        "ensemble_L": 100,
        "ensemble_steps": 1000,
        "ensemble_runs": 5,
        "sim_pool": 2,
    },
}

BLOCK_KS = (8, 12, 16)
REDUNDANT_KINDS = ("sym4", "sym16", "ones10", "text")
_VOCABULARY = (b"heat", b"cold", b"bit", b"gas", b"entropy", b"energy", b"file", b"order", b"noise", b"kelvin")

#: One bit's energy for file analysis, and the simulation's bath temperatures
#: and site energy (about k_B * 300 K, so relaxation is far from trivial).
FILE_EPSILON = "1e-21"
T_HOT, T_COLD, SIM_EPSILON = 600.0, 300.0, 4.14e-21

# Distinct first words for the generator seeds of each pool.
_POOL_TAGS = {"random": 101, "sym4": 102, "sym16": 103, "ones10": 104, "text": 105,
              "single": 106, "ensemble": 107, "calc": 108}


def _pool_rng(pool: str, index: int) -> np.random.Generator:
    return np.random.default_rng([_POOL_TAGS[pool], index])


def _redundant_bytes(kind: str, size: int, rng: np.random.Generator) -> bytes:
    if kind in ("sym4", "sym16"):
        symbols = rng.choice(256, size=4 if kind == "sym4" else 16, replace=False).astype(np.uint8)
        return symbols[rng.integers(0, len(symbols), size=size)].tobytes()
    if kind == "ones10":
        return np.packbits(rng.random(8 * size) < 0.1).tobytes()
    words = rng.integers(0, len(_VOCABULARY), size=size // 2)
    return b" ".join(_VOCABULARY[w] for w in words)[:size]


def _analyze_argv(path: str, block_k: int, fmt: str) -> list[str]:
    return ["file", "analyze", "--epsilon", FILE_EPSILON, "--block-k", str(block_k), "--path", path,
            *_FORMAT_FLAGS[fmt]]


def _interleave(groups: list[list[dict]]) -> list[dict]:
    """Round-robin over groups, so every stretch of the plan has the same mix."""
    plan = []
    for i in range(max(len(g) for g in groups)):
        plan.extend(g[i % len(g)] for g in groups)
    return plan


class Inputs:
    """Input files a run writes, with their generator parameters and sha256."""

    def __init__(self, scale: str):
        self.scale = scale
        self.files: dict[str, bytes] = {}
        self.params: dict[str, dict] = {}

    def add(self, pool: str, index: int, data: bytes, **params) -> str:
        path = str(DATA_DIR / f"{self.scale}-{pool}-{index:02d}.{params.pop('suffix', 'bin')}")
        self.files[path] = data
        self.params[path] = {"pool": pool, "pool_index": index, "generator_seed": [_POOL_TAGS[pool], index],
                             "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest(), **params}
        return path

    def write(self, root: Path) -> None:
        (root / DATA_DIR).mkdir(exist_ok=True)
        for path, data in self.files.items():
            (root / path).write_bytes(data)


def _analyze_random(scale: dict, chooser: random.Random, inputs: Inputs) -> list[dict]:
    size = scale["random_bytes"]
    groups = {k: [] for k in BLOCK_KS}
    for index in chooser.sample(range(scale["random_pool"]), scale["random_used"]):
        data = _pool_rng("random", index).integers(0, 256, size=size, dtype=np.uint8).tobytes()
        path = inputs.add("random", index, data, kind="uniform")
        for k in BLOCK_KS:
            groups[k].extend({"argv": _analyze_argv(path, k, fmt), "kind": f"k{k}", "input": path}
                             for fmt in FORMATS)
    for ops in groups.values():
        chooser.shuffle(ops)
    return _interleave(list(groups.values()))


def _analyze_redundant(scale: dict, chooser: random.Random, inputs: Inputs) -> list[dict]:
    groups = []
    for kind in REDUNDANT_KINDS:
        size = scale["redundant_bytes"][kind]
        ops = []
        for index in chooser.sample(range(scale["redundant_pool"]), scale["redundant_used"]):
            path = inputs.add(kind, index, _redundant_bytes(kind, size, _pool_rng(kind, index)), kind=kind)
            ops.extend({"argv": _analyze_argv(path, 8, fmt), "kind": kind, "input": path} for fmt in FORMATS)
        chooser.shuffle(ops)
        groups.append(ops)
    return _interleave(groups)


def _pool_seed(pool: str, index: int) -> int:
    return int(_pool_rng(pool, index).integers(0, 1 << 32))


def _simulate_mix(scale: dict, chooser: random.Random, inputs: Inputs) -> list[dict]:
    common = ["simulate", "--json", "--t-hot", repr(T_HOT), "--t-cold", repr(T_COLD), "--epsilon", repr(SIM_EPSILON)]
    singles = [{"argv": common + ["--L", str(scale["single_L"]), "--seed", str(_pool_seed("single", i))],
                "kind": "single", "input": None}
               for i in chooser.sample(range(scale["sim_pool"]), scale["sim_pool"])]
    ensemble = {"L": scale["ensemble_L"], "steps": scale["ensemble_steps"], "runs": scale["ensemble_runs"]}
    ensembles = [{"argv": common + ["--L", str(ensemble["L"]), "--steps", str(ensemble["steps"]),
                                    "--ensemble", str(ensemble["runs"]), "--seed", str(_pool_seed("ensemble", i))],
                  "kind": "ensemble", "input": None, "ensemble": ensemble}
                 for i in chooser.sample(range(scale["sim_pool"]), scale["sim_pool"])]
    return _interleave([singles, ensembles])


def _calculator_argvs(rng: np.random.Generator, ledger: str) -> list[list[str]]:
    """One parameter set for every closed-form command, all in their valid domains."""
    length = int(10 ** rng.uniform(3, 6))
    p_hot = int(length * rng.uniform(0.2, 0.45))
    p_cold = int(p_hot * rng.uniform(0.1, 0.9))
    epsilon = f"{rng.uniform(1, 10):.3f}e-21"
    power = f"{10 ** rng.uniform(-3, 3):.4g}"
    bit_rate = f"{10 ** rng.uniform(3, 9):.4g}"
    distance = f"{10 ** rng.uniform(0, 4):.4g}"
    return [
        ["gas", "temperature", "--L", str(length), "--p", str(p_hot), "--epsilon", epsilon],
        ["gas", "entropy", "--L", str(length), "--p", str(p_cold)],
        ["gas", "occupation", "--L", str(length), "--T", f"{rng.uniform(50, 1000):.2f}", "--epsilon", epsilon],
        ["gas", "transfer", "--L", str(length), "--p-hot", str(p_hot), "--p-cold", str(p_cold), "--epsilon", epsilon],
        ["gas", "state", "--L", str(length), "--p", str(p_cold), "--epsilon", epsilon],
        ["broadcast", "range", "--power", power, "--bit-rate", bit_rate,
         "--criterion", ("bit-energy", "file-temperature")[int(rng.integers(2))]],
        ["broadcast", "temperature", "--power", power, "--bit-rate", bit_rate, "--distance", distance],
        ["broadcast", "balance", "--info-bits", f"{10 ** rng.uniform(3, 9):.4g}",
         "--receivers", str(int(rng.integers(1, 1000)))],
        ["broadcast", "capacity", "--bit-rate", bit_rate, "--carrier", f"{10 ** rng.uniform(8, 11):.4g}",
         "--radius", f"{10 ** rng.uniform(0, 2):.3g}"],
        ["compute-bound", "--power", power, "--noise-temp", f"{rng.uniform(3, 400):.2f}"],
        ["clausius", "--ledger", ledger],
    ]


def _ledger(rng: np.random.Generator) -> bytes:
    heat = [[float(f"{rng.uniform(1e-21, 1e-18):.4g}"), float(f"{rng.uniform(10, 600):.1f}")] for _ in range(3)]
    payload = {"delta_S": float(f"{rng.uniform(-1e-22, 1e-20):.4g}"), "heat_terms": heat,
               "info_term": float(f"{rng.uniform(0, 100):.2f}")}
    return json.dumps(payload, indent=1).encode()


CALC_POOL = 4
SWEEP_POINTS = 50


def _cli_calculators(scale: dict, chooser: random.Random, inputs: Inputs) -> list[dict]:
    ops = []
    for index in range(CALC_POOL):
        rng = _pool_rng("calc", index)
        ledger = inputs.add("calc", index, _ledger(rng), kind="clausius-ledger", suffix="json")
        for argv in _calculator_argvs(rng, ledger):
            kind = " ".join(argv[:2] if argv[0] in ("gas", "broadcast") else argv[:1])
            ops.extend({"argv": argv + _FORMAT_FLAGS[fmt], "kind": kind,
                        "input": ledger if kind == "clausius" else None} for fmt in FORMATS)
        start = float(f"{rng.uniform(1, 5):.3f}e-21")
        ops.append({"argv": ["sweep", "--param", "epsilon", "--start", repr(start), "--stop", repr(10 * start),
                             "--count", str(SWEEP_POINTS), "--", "gas", "temperature",
                             "--L", str(int(10 ** rng.uniform(3, 6))), "--p", "100"],
                    "kind": "sweep", "input": None})
    chooser.shuffle(ops)
    return ops


_BUILDERS = {
    "analyze-random": _analyze_random,
    "analyze-redundant": _analyze_redundant,
    "simulate-mix": _simulate_mix,
    "cli-calculators": _cli_calculators,
}


def build(workload: str, seed: int, scale: str = "full") -> tuple[list[dict], Inputs]:
    """The op plan of one run and the inputs it reads, both fixed by the seed."""
    inputs = Inputs(scale)
    plan = _BUILDERS[workload](SCALES[scale], random.Random(seed), inputs)
    return plan, inputs


def all_pool_ops(workload: str, scale: str) -> tuple[list[dict], Inputs]:
    """Every op any seed can produce, with every pool input; for recording golden.json."""
    settings = dict(SCALES[scale])
    for pool in ("random", "redundant"):
        settings[f"{pool}_used"] = settings[f"{pool}_pool"]
    inputs = Inputs(scale)
    return _BUILDERS[workload](settings, random.Random(0), inputs), inputs
