"""Show that every output check can fire.

Runs the benchmark once per kind of corruption (see `Corruptions` in
workloads.py): the named output is corrupted after the CLI wrote it and
before it is checked. Each run must report `correct: false` and count
the operation whose output was corrupted as failed. Run from the root
of a checkout:

    python3 pipebench/fire_checks.py
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"

# (corruption, workload, operation whose check must fire)
CASES = [
    ("boundary", "screen_long", "segment"),
    ("merge", "long_segments", "segment"),
    ("graph", "long_segments", "classify"),
    ("prediction", "screen_long", "classify"),
    ("invert", "train_protocol", "train"),
    ("accuracy", "long_segments", "evaluate"),
    ("selection", "long_segments", "localize"),
    ("score", "long_segments", "localize"),
    ("reverse", "screen_long", "localize"),
]


def main() -> int:
    missed = 0
    for corruption, workload, op in CASES:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "0",
             "--trace", "0", "--corrupt", corruption],
            capture_output=True, text=True, check=False)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed_ops = [line.split(": ")[1] for line in proc.stderr.splitlines()
                      if line.startswith("pipebench: ") and "check failed" in line]
        fired = not result["correct"] and op in failed_ops
        missed += not fired
        print(f"{corruption:10s} {workload:14s} {'fired' if fired else 'MISSED':6s} "
              f"attempted {result['attempted']} failed {result['failed']} "
              f"failed ops {failed_ops}")
        for line in proc.stderr.splitlines():
            if "check failed" in line:
                print(f"    {line}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
