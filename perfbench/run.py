#!/usr/bin/env python3
"""Benchmark of the spikecontrol package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload control_n50 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --seed 0 --seconds 15 --trace 0    # every workload

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics. Without ``--workload`` every workload runs in a fresh
process of its own and a table of all of them is printed. Results files
(with provenance) and spans go to ``.perfbench/`` in the checkout.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED_MAX = 2 ** 32 - 1          # numpy seed sequences take 32-bit words
BLAS_THREADS = 1                # one thread spreads least between runs
CHILD_TIMEOUT_S = 900


def parse_args(spec: dict, argv=None):
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="workload to run (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0,
                        help=f"workload seed, 0..{SEED_MAX} (default 0)")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"],
                        help="how long to repeat the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if not 0 <= args.seed <= SEED_MAX:
        parser.error(f"--seed must be in 0..{SEED_MAX}, got {args.seed}")
    if args.seconds < 0:
        parser.error("--seconds must not be negative")
    return args


def _result_line(spec: dict, record: dict, trace: int) -> dict:
    """The result line: metrics named and with units as in BENCHMARK.json."""
    values = record["per_layer"] if trace else record["end_to_end"]
    specs = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in specs},
    }


def run_one(spec: dict, args) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import spikecontrol
    if Path(spikecontrol.__file__).resolve().parent != ROOT / "src" / "spikecontrol":
        print(f"error: imported spikecontrol from {spikecontrol.__file__}, "
              "not from this checkout", file=sys.stderr)
        return 1
    from measure import measure

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     ROOT, BLAS_THREADS)
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    line = _result_line(spec, record, args.trace)
    for name, metric in line["metrics"].items():
        print(f"{args.workload:14s} {name:40s} {metric['value']:14.6g} {metric['unit']}")
    for failure in record["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps(line))
    return int(record["failed"] != 0)


def run_all(spec: dict, args) -> int:
    """Every workload in a fresh process; prints one table and writes the
    combined results file."""
    combined = {}
    code = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if not lines or not lines[-1].startswith('{"correct"'):
            print(f"{name}: exited with {done.returncode} without a result")
            code = 1
            continue
        print("\n".join(lines[:-1]))
        path = ROOT / ".perfbench" / "results" / f"{name}-s{args.seed}-t{args.trace}.json"
        record = json.loads(path.read_text())
        print(f"{name:14s} {'failed_share':40s} {record['failed_share']:14.6g} ratio")
        combined[name] = record
        code |= record["failed"] != 0
    path = ROOT / ".perfbench" / "results" / f"all-s{args.seed}-t{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(combined, indent=1) + "\n")
    print(f"results: {path.relative_to(ROOT)}")
    return code


def main(argv=None) -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError as err:
        print(f"error: cannot read BENCHMARK.json: {err}", file=sys.stderr)
        return 1
    args = parse_args(spec, argv)
    if not (ROOT / "src" / "spikecontrol" / "__init__.py").is_file():
        print("error: no package source at src/spikecontrol in this checkout",
              file=sys.stderr)
        return 1
    return run_all(spec, args) if args.workload is None else run_one(spec, args)


if __name__ == "__main__":
    sys.exit(main())
