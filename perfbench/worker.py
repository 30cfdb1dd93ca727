"""One workload's ops, run in a fresh interpreter.

Usage: python3 perfbench/worker.py JOB.json RESULT.json

JOB.json holds the op plan, the seconds to measure and whether to trace.
Each op is one in-process call to ``infotherm.cli.main(argv)`` with stdout
and stderr captured; ops run back to back in one closed loop. The worker
only measures and records: every correctness check is made by ``run.py``
after this process has ended.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from infotherm import cli  # noqa: E402  (imported after the path is set)

import tracing  # noqa: E402


class Recorder:
    """Outcome of every op run, plus the text of each distinct JSON output."""

    def __init__(self, plan: list[dict]):
        self.plan = plan
        self.ops: list = []
        self.json_texts: dict[str, str] = {}
        self.output_bytes = 0

    def run(self, index: int) -> float:
        argv = self.plan[index]["argv"]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        text = out.getvalue()
        data = text.encode()
        digest = hashlib.sha256(data).hexdigest()
        if "--json" in argv and digest not in self.json_texts:
            self.json_texts[digest] = text
        self.output_bytes += len(data)
        self.ops.append([index, elapsed, code, err.getvalue(), digest])
        return elapsed

    def run_for(self, seconds: float) -> tuple[int, float]:
        """Run the plan in a loop until ``seconds`` have passed; (ops run, wall time)."""
        start = time.perf_counter()
        count = 0
        while True:
            self.run(count % len(self.plan))
            count += 1
            wall = time.perf_counter() - start
            if wall >= seconds:
                return count, wall


def first_of_each_kind(plan: list[dict]) -> list[int]:
    first = {}
    for index, op in enumerate(plan):
        first.setdefault(op["kind"], index)
    return list(first.values())


def warm_up(recorder: Recorder) -> None:
    """One untimed op of each kind, so lazy set-up and first-touch costs are paid."""
    for index in first_of_each_kind(recorder.plan):
        recorder.run(index)
    recorder.ops.clear()


def traced_run(recorder: Recorder, seconds: float, spans_path: str) -> dict:
    """Per-layer metrics: the ops of an untraced half run, replayed under tracing."""
    count, _ = recorder.run_for(seconds / 2)
    untraced = sum(op[1] for op in recorder.ops)
    recorder.output_bytes = 0
    tracer = tracing.Tracer()
    tracer.install()
    traced = 0.0
    try:
        for index in range(count):
            tracer.op_id = index
            traced += recorder.run(index % len(recorder.plan))
    finally:
        tracer.uninstall()
    output_bytes = recorder.output_bytes
    with tracing.MemoryProbe() as probe:
        for index in first_of_each_kind(recorder.plan):
            recorder.run(index)
    Path(spans_path).write_text(json.dumps(tracer.spans))
    return tracing.layer_metrics(tracer.spans, probe.peaks, traced - untraced, output_bytes)


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    recorder = Recorder(job["plan"])
    warm_up(recorder)
    if job["trace"]:
        result = {"layer_metrics": traced_run(recorder, job["seconds"], job["spans_path"])}
    else:
        _, wall = recorder.run_for(job["seconds"])
        result = {"wall_s": wall, "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    result.update(ops_run=len(recorder.ops), ops=recorder.ops, json_texts=recorder.json_texts)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
