"""Record golden.json: the sha256 of every pool input and of every op's stdout.

Usage: python3 perfbench/record_golden.py

Run it from a checkout whose CLI output is the reference. It runs every op
that any seed can produce, at both scales, and refuses to record an op
that exits nonzero or writes to stderr. The CLI's output is frozen byte for
byte, so the file changes only when a change to the output is intended.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402  (needs the package on the path)
import workloads  # noqa: E402


def main() -> int:
    os.chdir(ROOT)
    os.environ.pop("INFOTHERM_FORMAT", None)
    golden = {"inputs": {}, "outputs": {}}
    for scale in workloads.SCALES:
        for workload in workloads.WORKLOADS:
            ops, inputs = workloads.all_pool_ops(workload, scale)
            inputs.write(ROOT)
            golden["inputs"].update({path: params["sha256"] for path, params in inputs.params.items()})
            recorder = worker.Recorder(ops)
            for index, op in enumerate(ops):
                recorder.run(index)
                _, _, code, stderr, digest = recorder.ops[-1]
                if code != 0 or stderr:
                    raise SystemExit(f"{' '.join(op['argv'])}: exit {code!r}, stderr {stderr!r}")
                golden["outputs"][" ".join(op["argv"])] = digest
            print(f"{scale} {workload}: {len(ops)} ops", file=sys.stderr)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
