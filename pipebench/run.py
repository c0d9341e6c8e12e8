"""Pipeline benchmark: times `cegl` CLI commands in-process on generated inputs.

Run from the root of a checkout:

    python3 pipebench/run.py --workload screen_long --seed 1 --seconds 20 --trace 0

The benchmark imports the package from the checkout's `src/`, pins BLAS
to one thread, generates the workload's inputs from the seed, sets up
(writes the files and, for inference workloads, trains the model) at
least three times and for at least a second, then runs whole rounds of the workload's CLI commands until
`--seconds` have passed, checking every output. The last line of
standard output is one JSON object: `correct`, `attempted`, `failed`
and `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics
from wrapped layer calls with `--trace 1`).
"""

import os

# Single-threaded BLAS, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".pipebench_out"
# Set-up runs at least this many times and for at least this long; the
# median is reported.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 1.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", default=None,
                        help="corrupt one kind of output before it is checked, "
                             "to show that the check fires")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cegl" / "__init__.py").is_file():
        print(f"pipebench: no package source at {ROOT / 'src' / 'cegl'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import cegl.cli
    from hostspeed import HostSpeed, scale
    from tracing import Tracer
    from workloads import WORKLOADS, Corruptions, Round, SetupError

    if args.workload not in WORKLOADS:
        print(f"pipebench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, Corruptions(args.corrupt))
    tracer = Tracer() if args.trace else None
    host = HostSpeed()
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times = []
        setup_probes = host.probe()
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
            directory = work / f"setup-{len(setup_times)}"
            directory.mkdir(parents=True)
            start = time.perf_counter()
            workload.setup(cegl.cli.main, directory)
            setup_times.append(time.perf_counter() - start)
            shutil.rmtree(directory.with_name(f"setup-{len(setup_times) - 2}"), ignore_errors=True)
        setup_probes += host.probe()
        if tracer is not None:  # one more set-up, traced and not timed
            tracer.install(cegl)
            directory = work / "setup-traced"
            directory.mkdir()
            workload.setup(cegl.cli.main, directory)
            tracer.phase = "round"
        digests: dict[str, str] = {}
        rounds: list[Round] = []
        started = time.perf_counter()
        while not rounds or time.perf_counter() - started < args.seconds:
            directory = work / f"round-{len(rounds)}"
            directory.mkdir()
            rnd = Round(cegl.cli.main, host, directory, digests)
            workload.round(rnd)
            rounds.append(rnd)
            shutil.rmtree(directory)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except SetupError as exc:
        print(f"pipebench: {exc}", file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    wall = statistics.median(r.wall_s for r in rounds)
    wall_scale = scale([p for r in rounds for p in r.probes])
    setup_scale = scale(setup_probes)
    print(f"pipebench: {len(rounds)} rounds, wall {[round(r.wall_s, 4) for r in rounds]} s, "
          f"host scale {wall_scale:.4f}; {len(setup_times)} set-ups, host scale "
          f"{setup_scale:.4f}; quality {rounds[0].notes}", file=sys.stderr)
    if tracer is not None:
        trace_path = OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(trace_path)
        print(f"pipebench: spans in {trace_path}", file=sys.stderr)
        metrics = tracer.layer_metrics(len(rounds))
    else:
        metrics = {
            "wall_s": (wall * wall_scale, "s"),
            "setup_s": (statistics.median(setup_times) * setup_scale, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": not any(r.check_failed for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(len(r.failed_ops) for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
