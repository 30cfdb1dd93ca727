"""The repository's benchmark: infotherm's CLI measured end to end and per layer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it works from the repository root
and builds nothing (the package is pure Python, imported from ``src``).

One fresh interpreter runs the workload's ops back to back, one closed-loop
client, since the machine this was built on has two cores. With
``--trace 0`` it prints the end-to-end metrics (set-up time, throughput,
median and 90th-percentile latency, peak RSS); with ``--trace 1`` it
replays the ops under span tracing and prints per-layer metrics. The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it gives the inputs, their
sha256 and the failures.

Inputs are generated from the seed and written before anything is timed.
Every check runs after the timed ops: each op's stdout must match the digest
frozen in ``golden.json``, JSON output must match the shipped schema, the
coder must round-trip each analyzed file, and each ensemble's mean final
occupation must lie within 4 standard errors of the exact finite-step mean.
An op also fails on a nonzero exit, an exception or any stderr output.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import jsonschema

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
SCHEMA = ROOT / "src" / "infotherm" / "data" / "output_schema.json"
sys.path.insert(0, str(ROOT / "src"))

#: Fresh interpreters timed for set-up per run. The first of them writes
#: the bytecode caches, as an installed package has them, and is discarded.
SETUP_PROBES = {"full": 7, "tiny": 2}
_IMPORT_PROBE = "import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"

#: The exact Boltzmann constant (SI 2019), independent of the package's copy.
_K_B = 1.380649e-23
_ENSEMBLE_SIGMAS = 4.0
_CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = {key: value for key, value in os.environ.items()
           if key not in ("INFOTHERM_FORMAT", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def import_seconds(module: str, probes: int, prelude: str = "") -> float:
    """Median in-process time to import ``module`` in fresh interpreters."""
    times = []
    for _ in range(probes + 1):
        proc = subprocess.run([sys.executable, "-c", prelude + _IMPORT_PROBE.format(module=module)],
                              env=child_env(), capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times[1:])


def expected_mean_p_final(length: int, steps: int) -> float:
    """Exact mean ones count after ``steps`` Metropolis hits, from a hot start."""
    b_cold = math.exp(-workloads.SIM_EPSILON / (_K_B * workloads.T_COLD))
    b_hot = math.exp(-workloads.SIM_EPSILON / (_K_B * workloads.T_HOT))
    q_cold, q_hot = b_cold / (1 + b_cold), b_hot / (1 + b_hot)
    return length * (q_cold + (q_hot - q_cold) * (1 - (1 + b_cold) / length) ** steps)


class Checker:
    """Every correctness check of a run; all run after the timed ops."""

    def __init__(self, plan: list[dict], inputs: workloads.Inputs):
        from infotherm import lz  # here, so a checkout without the package gets a clear error

        self.plan = plan
        self.golden = json.loads(GOLDEN.read_text())
        self.validator = jsonschema.Draft7Validator(json.loads(SCHEMA.read_text()))
        self.bad_inputs = {}
        for path, params in inputs.params.items():
            if self.golden["inputs"].get(path) != params["sha256"]:
                self.bad_inputs[path] = "input differs from the one golden.json was recorded with"
            elif path.endswith(".bin") and lz.decompress(lz.compress(inputs.files[path])) != inputs.files[path]:
                self.bad_inputs[path] = "coder does not round-trip this input"

    def _json_problem(self, op: dict, text: str) -> str | None:
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON: {exc}"
        errors = [error.message for error in self.validator.iter_errors(payload)]
        if errors:
            return f"schema: {errors[0]}"
        if op.get("ensemble"):
            spec, results = op["ensemble"], payload["results"]
            expected = expected_mean_p_final(spec["L"], spec["steps"])
            if not abs(results["mean_p_final"] - expected) <= _ENSEMBLE_SIGMAS * results["se_p_final"]:
                return (f"ensemble mean p_final {results['mean_p_final']} is more than {_ENSEMBLE_SIGMAS} "
                        f"standard errors ({results['se_p_final']}) from the exact mean {expected}")
        return None

    def failures(self, records: list, json_texts: dict) -> list[str]:
        """One message per failed op."""
        json_problems = {}
        messages = []
        for index, _, code, stderr, digest in records:
            op = self.plan[index]
            argv = " ".join(op["argv"])
            if code != 0 or stderr:
                problem = f"exit {code!r}, stderr {stderr[:200]!r}"
            elif op["input"] in self.bad_inputs:
                problem = self.bad_inputs[op["input"]]
            elif self.golden["outputs"].get(argv) != digest:
                problem = "stdout differs from golden.json"
            elif "--json" in op["argv"]:
                if digest not in json_problems:
                    json_problems[digest] = self._json_problem(op, json_texts[digest])
                problem = json_problems[digest]
            else:
                problem = None
            if problem:
                messages.append(f"{argv}: {problem}")
        return messages


def run_worker(job: dict, workload: str) -> dict:
    data = ROOT / workloads.DATA_DIR
    job_path, result_path = data / f"job-{workload}.json", data / f"result-{workload}.json"
    job_path.write_text(json.dumps(job))
    result_path.unlink(missing_ok=True)
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
                   env=child_env(), timeout=_CHILD_TIMEOUT_S, check=True)
    return json.loads(result_path.read_text())


def end_to_end_metrics(result: dict, setup_s: float) -> dict:
    latencies_ms = [op[1] * 1000 for op in result["ops"]]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (result["ops_run"] / result["wall_s"], "1/s"),
        "latency_p50_ms": (statistics.median(latencies_ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(latencies_ms, n=10)[-1], "ms"),
        "peak_rss_mib": (result["peak_rss_kib"] / 1024, "MiB"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run [s]")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SCALES), default="full",
                        help="input sizes; 'tiny' is for the self-check")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "infotherm" / "cli.py").is_file():
        print(f"error: no infotherm sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)

    plan, inputs = workloads.build(args.workload, args.seed, args.scale)
    inputs.write(ROOT)
    checker = Checker(plan, inputs)
    job = {"plan": plan, "seconds": args.seconds, "trace": bool(args.trace),
           "spans_path": str(ROOT / workloads.DATA_DIR / f"spans-{args.workload}.json")}

    probes = SETUP_PROBES[args.scale]
    if args.trace:
        import_metrics = {"import.numpy_s": (import_seconds("numpy", probes), "s"),
                          "import.infotherm_s": (import_seconds("infotherm.cli", probes, "import numpy; "), "s")}
        result = run_worker(job, args.workload)
        metrics = {**result["layer_metrics"], **import_metrics}
    else:
        setup_s = import_seconds("infotherm.cli", probes)
        result = run_worker(job, args.workload)
        metrics = end_to_end_metrics(result, setup_s)

    failures = checker.failures(result["ops"], result["json_texts"])
    attempted = len(result["ops"])
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "scale": args.scale, "ops_run": result["ops_run"],
        "failed_ops_ratio": len(failures) / attempted, "failures": failures[:10],
        "inputs": list(inputs.params.values()),
    }))
    print(json.dumps({
        "correct": not failures and not checker.bad_inputs,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
