"""One workload, measured in this process: set-up, timed repetitions, output
checks, and the metrics derived from them.

Imported by run.py after it has pinned the BLAS thread count and put the
checkout's ``src`` first on the import path.
"""

import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import checks
from spans import RUNNER, WRITERS, Tracer, layer_table
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
# Set-up is measured for this long (at least once) before each repetition,
# and SETUP_MIN_REPS times before the first; the median is reported.
SETUP_SECONDS_PER_REP = 0.1
SETUP_MIN_REPS = 5

# Timings are reported at a reference host speed. The shared host runs the
# same code up to 1.7x slower for stretches of a second to over a minute
# (README.md, "Host speed"), so a fixed calibration kernel is timed between
# repetitions, and each timing is multiplied by the kernel's reference time
# over its median time next to it. The raw timings stay in the results file.
CAL_REFERENCE_S = 1e-3
# A workload whose step is a dense N x N product slows with the host's memory
# bandwidth, which the kernel above barely feels; its kernel adds one such
# product, with this much more reference time.
CAL_DENSE_N = 2000
CAL_DENSE_REFERENCE_S = 3e-3
CAL_SHARE = 0.15            # kernel time after a repetition, as a share of it
CAL_MIN_SECONDS = 0.05
_CAL_RNG = np.random.default_rng(20221225)
_CAL_D = _CAL_RNG.standard_normal((2, 50))
_CAL_X0 = _CAL_RNG.standard_normal(50)


def calibration_kernel():
    """A fixed mix of what a closed-loop step does: a small decode, an
    element-wise update, a threshold and reset, Python float arithmetic as
    in a plant step, and float repr as in the writers. Its code must not
    change, or the reference speed changes with it."""
    x = _CAL_X0.copy()
    acc = 0.0
    text = []
    for _ in range(100):
        v = _CAL_D @ x
        x = 0.99 * x + 0.01
        j = int(np.argmax(x))
        x[j] -= 0.1
        a, b = float(v[0]), float(v[1])
        acc += math.sin(a) * math.cos(b) / (1.0 + b * b)
        text.append(repr(acc))
    return acc, text


def calibrate(seconds: float, dense: bool = False) -> list:
    """(kernel time, dense product time) of kernel runs for `seconds` (at
    least 5 runs). Without `dense` the product time is 0. The dense matrix
    lives only while the kernel runs, so it adds nothing to the peak memory
    of the repetitions."""
    matrix = np.full((CAL_DENSE_N, CAL_DENSE_N), 0.5) if dense else None
    times = []
    end = perf_counter() + seconds
    while len(times) < 5 or perf_counter() < end:
        t0 = perf_counter()
        calibration_kernel()
        t1 = perf_counter()
        if matrix is not None:
            matrix @ matrix[0]
        times.append((t1 - t0, perf_counter() - t1))
    return times


def slowdown(kernel_times: list, dense: bool = False) -> float:
    """How much slower than the reference speed the host ran the kernel,
    with the dense product when `dense`."""
    step = median(t for t, _ in kernel_times)
    if not dense:
        return step / CAL_REFERENCE_S
    product = median(t for _, t in kernel_times)
    return (step + product) / (CAL_REFERENCE_S + CAL_DENSE_REFERENCE_S)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _git(root: Path, *args):
    # Only ask git inside a repository, so it never searches above the checkout.
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                          text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(root: Path, name: str, seed: int, blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads},
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
        "workload": WORKLOADS[name].describe(seed),
    }


class OutputCheckFailed(Exception):
    """A repetition ran but its exit code or outputs are wrong."""


class Run:
    """Repetitions of one workload in one process."""

    def __init__(self, name: str, seed: int, root: Path):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.out = root / ".perfbench" / "runs" / f"{name}-s{seed}"
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.next_rep = 0
        self.peak_rss_mb = None
        self.setup_attempted = self.setup_failed = False
        with open(BENCH_DIR / "reference.json") as fh:
            self.reference = json.load(fh)

    def _fail(self, what, err):
        if not isinstance(err, OutputCheckFailed):
            traceback.print_exc(file=sys.stderr)
        self.failed += 1
        self.failures.append(f"{what}: {type(err).__name__}: {err}")
        print(f"{what} failed: {err}", file=sys.stderr)

    def setups(self, times: list, count: int, seconds: float = 0.0):
        """Append set-up times to `times` until at least `count` set-ups and
        `seconds` have passed. The set-up measurement as a whole counts as
        one operation; after a failure it is not repeated."""
        if self.setup_failed:
            return
        if not self.setup_attempted:
            self.setup_attempted = True
            self.attempted += 1
        start = perf_counter()
        done = 0
        while done < count or perf_counter() - start < seconds:
            t0 = perf_counter()
            try:
                self.workload.setup(self.seed)
            except Exception as err:  # counted as a failed operation
                self._fail("set-up", err)
                self.setup_failed = True
                return
            times.append(perf_counter() - t0)
            done += 1

    def reps(self, tracer: Tracer, seconds: float, setup_times=None) -> list:
        """Repeat the workload for `seconds` (at least once). A repetition
        is not started when the previous one shows it would end late.

        The calibration kernel runs between repetitions. Each timing is
        scaled by the kernel runs nearest to it: a repetition's `slowdown`
        comes from the runs on both sides of it, and `write_slowdown` from
        the runs just after it, since the writers end the call. The writers
        format floats in Python, so their scale never takes the dense
        product. With a
        `setup_times` list, set-ups are measured before every repetition, so
        they sample the same stretch of time as the repetitions do; they are
        scaled by the kernel runs just before them.
        """
        records = []
        start = perf_counter()
        last = 0.0  # duration of the previous pass
        dense = self.workload.dense_calibration
        window = calibrate(CAL_MIN_SECONDS, dense)
        while not records or perf_counter() - start + last <= seconds:
            pass_start = perf_counter()
            if setup_times is not None:
                tracer.run_id = None  # set-up spans belong to no repetition
                raw = []
                self.setups(raw, 1 if records else SETUP_MIN_REPS,
                            SETUP_SECONDS_PER_REP)
                setup_times += [t / slowdown(window, dense) for t in raw]
            if records:  # keep the outputs of the last and of failed reps only
                shutil.rmtree(self.out / f"rep{records[-1]['rep']}", ignore_errors=True)
            rep_id = self.next_rep
            self.next_rep += 1
            self.attempted += 1
            tracer.run_id = rep_id
            out = self.out / f"rep{rep_id}"
            try:
                record, sc, result = self._rep(tracer, out)
                after = calibrate(max(CAL_MIN_SECONDS, CAL_SHARE * record["wall_s"]),
                                  dense)
                record["slowdown"] = slowdown(window + after, dense)
                record["write_slowdown"] = slowdown(after)
                window = after
                self._check(record, sc, result, out)
                records.append(record)
            except Exception as err:  # counted as a failed operation
                self._fail(f"rep {rep_id}", err)
                window = calibrate(CAL_MIN_SECONDS, dense)
                if not records and perf_counter() - start >= seconds:
                    break
            last = perf_counter() - pass_start
        return records

    def _rep(self, tracer: Tracer, out: Path):
        """One timed call of the workload: (raw record, scenario, runner result)."""
        span, fn, args = self.workload.entry(self.seed, out)
        tracer.runner_call = None
        t0 = perf_counter()
        code = tracer.call(span, fn, *args)
        wall = perf_counter() - t0
        if self.peak_rss_mb is None:
            # Read before any output check, so the checks' memory is not counted.
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if code != 0:
            raise OutputCheckFailed(f"exit code {code}")
        (sc, *_), result = tracer.runner_call
        cells = result.scn_mae.size if self.workload.command == "sweep" else 1
        record = {
            "rep": tracer.run_id,
            "wall_s": wall,
            "sim_s": tracer.seconds(tracer.run_id, {RUNNER}),
            "steps": sc.n_steps * cells,
            "write_s": tracer.seconds(tracer.run_id, set(WRITERS)),
        }
        return record, sc, result

    def _check(self, record: dict, sc, result, out: Path):
        """The output checks of one repetition; adds its output size and
        oracle factor to `record`."""
        sweep = self.workload.command == "sweep"
        if sweep:
            failures = checks.check_sweep(result, out)
            ratio = checks.sweep_oracle_ratio(result)
        else:
            with open(out / "summary.json") as fh:
                stride = json.load(fh)["artifact_choices"].get("trajectory_stride", 1)
            failures = checks.check_trajectory(result, sc, out, stride)
            ratio = checks.oracle_ratio(result)
        if self.seed == self.reference["seed"]:
            failures += checks.check_reference(
                checks.summary_numbers(out, sweep),
                self.reference["workloads"][self.workload.name],
                self.reference["rtol"])
        if failures:
            raise OutputCheckFailed("; ".join(failures))
        record.update(output_bytes=_dir_bytes(out),
                      oracle_mae_factor=max(ratio, 1.0 / ratio))


def _scaled(reps: list, key: str, factor: str = "slowdown") -> list:
    """A raw timing of every repetition, at the reference host speed."""
    return [r[key] / r[factor] for r in reps]


def measure(name: str, seed: int, seconds: float, traced: bool, root: Path,
            blas_threads: int) -> dict:
    """Measure one workload; returns the results record (see README.md)."""
    run = Run(name, seed, root)
    shutil.rmtree(run.out, ignore_errors=True)
    run.out.mkdir(parents=True)
    record = {"workload": name, "trace": int(traced),
              "provenance": provenance(root, name, seed, blas_threads)}

    setup = None if traced else []
    # A traced run measures untraced repetitions first, for trace.overhead.
    with Tracer(traced=False) as plain:
        untraced = run.reps(plain, seconds / 2 if traced else seconds, setup)
    plain.write(run.out / "spans.csv")
    if not untraced or not (traced or setup):
        raise RuntimeError("no repetition succeeded: " + "; ".join(run.failures))

    # Timings are medians over the repetitions (set-ups), each scaled to the
    # reference host speed by the calibration kernel run next to it.
    e2e = {
        "wall_s": median(_scaled(untraced, "wall_s")),
        "setup_s": median(setup) if setup else None,
        "sim_steps_per_s": median(r["steps"] / s for r, s in
                                  zip(untraced, _scaled(untraced, "sim_s"))),
        "write_s": median(_scaled(untraced, "write_s", "write_slowdown")),
        "peak_rss_mb": run.peak_rss_mb,
        "output_bytes": median(r["output_bytes"] for r in untraced),
        "oracle_mae_factor": median(r["oracle_mae_factor"] for r in untraced),
    }
    record.update(calibration_reference_s=CAL_REFERENCE_S + (
        CAL_DENSE_REFERENCE_S if run.workload.dense_calibration else 0.0), setup_s=setup,
                  reps=untraced, end_to_end=e2e)

    if traced:
        with Tracer(traced=True) as tracer:
            reps = run.reps(tracer, seconds / 2)
        tracer.write(run.out / "spans-traced.csv")
        tables = []
        for r in reps:
            try:
                tables.append(layer_table(tracer, r["rep"], r["steps"],
                                          run.workload.dynamics_calls_per_step))
            except ValueError as err:
                run._fail(f"rep {r['rep']} trace accounting", err)
        if not tables:
            raise RuntimeError("no traced repetition succeeded: "
                               + "; ".join(run.failures))
        layers = {key: median(t[key] for t in tables) for key in tables[0]}
        layers["trace.overhead"] = median(_scaled(reps, "wall_s")) / e2e["wall_s"] - 1.0
        record.update(traced_reps=reps, per_layer=layers)

    record.update(attempted=run.attempted, failed=run.failed,
                  failed_share=run.failed / run.attempted,
                  failures=run.failures)
    return record
