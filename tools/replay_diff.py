"""Check that another source tree of spikecontrol replays this one bit for bit.

    python3 tools/replay_diff.py OTHER_SRC [--seeds 0 1 2 3 4]
                                 [--skip-acceptance] [--workdir DIR]

OTHER_SRC is another checkout, or its `src/` directory; for example the
parent commit unpacked with `git archive HEAD~1 | tar -x -C /tmp/parent`.
Both trees run the same cases, each tree in its own subprocess (the two run
side by side, with BLAS pinned to one thread):

- the four benchmark workloads of `perfbench/workloads.py`, at each seed,
  through their runners (`run_control`, `run_robustness_sweep`,
  `run_cartpole`), and a 10 s `run_estimation`;
- a 3 x 3 sweep with a silencing schedule and a 1e308 pulse column, whose
  1e-7 sensor-noise cell diverges mid-run, through the runner (six neurons,
  so the cells run in three batches) and through the CLI (the default
  silencing at 10 s);
- a 3 x 3 sweep of six neurons over 22 000 steps through the runner: its
  three batches each draw their voltage rows in blocks of 21 845, so every
  batch crosses a block boundary;
- a 0.3 s control run whose reference steps, pulse edges and silencing
  blocks each fall 5e-10 s or 2e-9 s before or after a grid time (dt =
  1e-3), through the runner, the sweep (so `_lockstep` places them too)
  and the CLI (reference and pulse only; the CLI sets no silencing time),
  so a change in where an event lands on the grid shows as a shifted step;
- a 0.6 s cartpole run with a 50 N pulse and a third of the neurons silenced
  during it, the pole kept up, through the runner (so the nonlinear plant is
  stepped through the pulse and silencing branches), and a 0.6 s cartpole
  with the same pulse set by `pulse.*` keys through the CLI;
- the same workloads through the CLI, as the benchmark runs them, a 10 s
  `estimate`, an `estimate --dt 1e-6 --duration 0.001` (100 trajectory rows
  whose times, `9.999999999999999e-06` and on, are below 1e-4, where a
  number is written in exponent form), a 3 s `sparsity` at the default
  leaks and at leaks set by `sparsity.lambdas` (the sparsity stair starts
  at 2 s, so every leak's `spikes.csv` holds spikes), and `export-weights`
  for each of its five `scenario` values, each writing its output directory
  (so all six
  subcommands, and every network mode `weights.json` can hold, are covered);
- once, a table of bad inputs (REFUSALS) through the CLI, each a usage error
  of some subcommand, an `--out` under a regular file among them: its exit
  code, its full stderr text and whether it made the output directory must
  be equal, so a moved input rule cannot reword a message or start writing
  output unnoticed;
- unless --skip-acceptance, the scenarios of tests/test_acceptance.py at full
  length (A3 estimation, A4 control seeds 0-9, A5 silencing, A6 cartpole,
  A7's 5 x 5 sweep, A8's three leaks) and the equilibrium-quiet control run.
  They take a few minutes per tree.

Every array of every result must be equal under np.array_equal (NaN equal
to NaN) with equal np.signbit, a trajectory's `weights` (the network its
runner stepped) and their `mode` included. A float array that differs is
reported with its first differing entry and the largest distance in ulps
(units in the last place) among its differing entries that are finite on
both sides, so a rounding change shows its size. The spike and silence logs,
sweep failures and the scenario each result holds must be equal; every file
the CLI wrote must be byte-identical. `run_sparsity` returns the list of
its trajectories, each compared as above; a tree whose `run_sparsity`
returns a `SparsityResult` also stores its `lambdas` and `spike_counts`
fields, copies of each trajectory's leak and spike count, so against such a
tree those two keys of A8-sparsity are reported as in that tree only, by
design. Each report names the tree of every value it shows, as
`this <value>, other <value>`: "this" is the tree the tool sits in, "other"
is OTHER_SRC. A run, an array or a CLI file that only one tree made is
reported as in "this tree" or "the other tree" only.
Exit status: 0 when nothing differs, 1 on any difference or a crashed
worker, 2 on a usage error.
"""

import argparse
import contextlib
import dataclasses
import filecmp
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# The sweep case's axes: the 1e-7 row diverges under the 1e308 pulse.
SWEEP_NOISE = (1e-7, 1e-5, 0.01)
SWEEP_PULSE = (300.0, 1e308, 900.0)
# Event times of the grid-edge cases at dt = 1e-3, each 5e-10 s or 2e-9 s from
# a grid time: within the grid rule's 1e-9 s tolerance (that step) or past it.
EDGE_REFERENCE = (0.02 + 5e-10, 0.06 - 5e-10, 0.1 + 2e-9, 0.14 - 2e-9)
EDGE_PULSE = (0.05 - 2e-9, 0.21 + 5e-10)  # onset and end
EDGE_SILENCING = [(0.08 + 2e-9, tuple(range(0, 50, 5))),
                  (0.17 - 5e-10, tuple(range(1, 50, 5)))]
# Bad inputs, as (command line, config file text or None); MISSING stands for
# a config file that does not exist, FILE for a regular file.
REFUSALS = [
    ("estimate --config MISSING", None),
    ("estimate", "bogus.key = 1"),
    ("control --neurons 20 --duration 1", None),
    ("control", "initial.state = 1"),
    ("cartpole", "initial.state = 1"),
    ("control --neurons 0", None),
    ("estimate --dt 0.5", None),
    ("control --duration inf", None),
    ("control --duration 0.0004", None),
    ("cartpole --duration 0.00004", None),
    ("sparsity --duration 0.00004", None),
    ("estimate --duration 0.0004", None),
    ("sweep --duration 0.00004", None),
    ("estimate --seed -1", None),
    *(("estimate", f"seed = {value}") for value in ("1.5", "true", "abc")),
    *(("control", line) for line in (
        "noise.sigma_n = 0", "noise.sigma_n = -0.1", "noise.sigma_d = -0.1",
        "network.eta_v = -1e-5", "network.leak = -0.1", "network.gamma_x = 0",
        "network.gamma_z = 0", "integration.duration = inf", "noise.sigma_d = nan",
        "network.eta_v = nan", "network.leak = nan", "network.gamma_x = nan")),
    *(("sweep", line) for line in (
        "sweep.noise_grid = 0, -0.01", "sweep.noise_grid = -0.01",
        "sweep.noise_grid = 0.001, nan", "sweep.noise_grid = 0.001, inf",
        "sweep.noise_grid = 0.001, low", "sweep.pulse_grid = 100, big",
        "sweep.pulse_grid = nan, inf", "sweep.pulse_grid = 100, -inf",
        "sweep.noise_grid = ,", "sweep.pulse_grid = ,", "sparsity.lambdas = 0, 1",
        "cost.q = 1, 1, 1", "pulse.onset = nan")),
    ("sparsity", "sparsity.lambdas = ,"),
    ("control", "reference.times = ,\nreference.positions = ,"),
    ("control", "initial.state = ,"),
    ("control", "cost.q = ,"),
    ("estimate", "cost.q = 1, 1\ncost.r = 1"),
    ("export-weights", "scenario = estimation\ncost.q = 1, 1\ncost.r = 1"),
    ("estimate", "silencing.enabled = true\nnetwork.n_neurons = 50"),
    ("estimate", "pulse.magnitude = 100"),
    ("estimate", "reference.times = 1\nreference.positions = 2"),
    ("estimate", "network.gamma_z = 0.5"),
    ("export-weights", "scenario = estimation\nnetwork.gamma_z = 0.5"),
    ("control", "sweep.noise_grid = 0.01"),
    ("control", "sparsity.lambdas = 5"),
    ("estimate", "sweep.pulse_grid = 100, 200"),
    ("cartpole", "sweep.noise_grid = 0.01"),
    ("export-weights", "sparsity.lambdas = 1"),
    ("sparsity", "sweep.noise_grid = 0.01"),
    ("control", "cost.q = 1, 1, 1"),
    ("cartpole", "cost.q = 1, 1"),
    ("export-weights", "scenario = cartpole\ncost.q = 1, 1"),
    ("export-weights", "scenario = nonesuch"),
    ("control", "pulse.onset = nan"),
    ("control", "pulse.magnitude = nan\npulse.onset = 0.1"),
    ("cartpole", "pulse.duration = inf"),
    ("control", "reference.positions = nan, 1\nreference.times = 1, 2"),
    ("control", "reference.times = 0.05, nan\nreference.positions = 1, 2"),
    ("control", "initial.state = nan, 0"),
    ("estimate", "initial.state = 1, inf"),
    ("control", "cost.q = inf, 1"),
    ("cartpole", "cost.r = nan"),
    ("control", "network.eta_v = 1e300"),
    ("sparsity", "sparsity.lambdas = nan"),
    ("sparsity", "sparsity.lambdas = 0, -1"),
    ("sparsity", "sparsity.lambdas = 1e5"),
    ("control", "plant.m = nan"),
    ("control", "plant.k = inf"),
    ("cartpole", "plant.L = nan"),
    ("control --duration 1e308", None),
    ("estimate --duration 1e308", None),
    ("control", "integration.duration = 1e308"),
    ("cartpole", "integration.duration = 1e308"),
    ("control", "network.gamma_x = 1e160"),
    ("estimate", "network.gamma_x = 1e160"),
    ("control", "network.gamma_z = 1e160"),
    ("export-weights", "network.gamma_z = 1e160"),
    ("sparsity", "integration.dt = 0.1"),
    ("control", "plant.m = -1"),
    ("control", "plant.c = -1"),
    ("cartpole", "plant.L = 0"),
    ("sweep", "pulse.duration = 0"),
    ("sweep", "pulse.onset = -1"),
    *((f"{command} --out FILE/out", None)
      for command in ("control", "sweep", "export-weights")),
]


@dataclasses.dataclass
class Refusal:
    """What the CLI did with a bad input."""

    exit_code: int
    stderr: str
    made_output: bool


def _source_dir(path: Path) -> Path:
    for candidate in (path / "src", path):
        if (candidate / "spikecontrol" / "__init__.py").is_file():
            return candidate.resolve()
    raise SystemExit(f"error: no spikecontrol package under {path} or {path / 'src'}")


# ---------------------------------------------------------------------------
# worker: runs the cases on one tree


def _flatten(result, prefix: str, out: dict):
    """Store every field of a result dataclass under `prefix`: arrays as they
    are, dataclasses (a trajectory's weights and their decoders) and lists of
    results recursively, everything else as exact JSON. A weights object's
    `mode`, a field in some trees and a property in others, is stored too. A
    list result, `run_sparsity`'s trajectories, stores item i under
    `trajectories[i].`, where older trees' `SparsityResult` stores it."""
    if isinstance(result, list):
        for i, item in enumerate(result):
            _flatten(item, f"{prefix}trajectories[{i}].", out)
        return
    names = {f.name for f in dataclasses.fields(result)}
    if hasattr(result, "mode"):
        names.add("mode")
    for name in sorted(names):
        value = getattr(result, name)
        key = f"{prefix}{name}"
        if isinstance(value, np.ndarray):
            out[key] = value
        elif dataclasses.is_dataclass(value):
            _flatten(value, f"{key}.", out)
        elif (isinstance(value, list) and value
              and dataclasses.is_dataclass(value[0])):
            for i, item in enumerate(value):
                _flatten(item, f"{key}[{i}].", out)
        else:
            # floats go out as repr, so -0.0 and every last bit are kept
            out[key] = np.array(json.dumps(value, sort_keys=True, default=repr))


def _cases(seeds, acceptance: bool, cli_dir: Path):
    """(name, thunk) pairs. A thunk returns a result dataclass, or None
    when it wrote its output directory under `cli_dir` instead."""
    from dataclasses import replace

    from spikecontrol import cli
    from spikecontrol import experiments as ex
    from spikecontrol.plants import PulseSchedule
    from workloads import WORKLOADS

    def runner(workload, seed):
        run, extra = workload.runner()
        return lambda: run(workload.scenario(seed), *extra)

    def cli_entry(workload, seed):
        def thunk():
            _, fn, args = workload.entry(seed, cli_dir / f"{workload.name}-s{seed}")
            (cli_dir / f"{workload.name}-s{seed}.exit").write_text(f"{fn(*args)}\n")
        return thunk

    def cli_run(name, seed, argv, config=None):
        def thunk():
            out = cli_dir / f"{name}-s{seed}"
            extra = []
            if config is not None:
                path = cli_dir / f"{name}-s{seed}.cfg"
                path.write_text(config)
                extra = ["--config", str(path)]
            code = cli.main(argv + extra + ["--seed", str(seed), "--out", str(out)])
            (cli_dir / f"{name}-s{seed}.exit").write_text(f"{code}\n")
        return thunk

    def refusal(i, argv, config):
        # Paths in a message are shown relative to the case directory, which
        # differs between the two trees.
        def thunk():
            work = cli_dir.parent / "refusals"
            work.mkdir(exist_ok=True)
            (work / "file").write_text("")
            args = [str(work / "missing.cfg") if a == "MISSING"
                    else a.replace("FILE", str(work / "file")) for a in argv.split()]
            if "--out" not in args:
                args += ["--out", str(work / f"out{i}")]
            out = Path(args[args.index("--out") + 1])
            if config is not None:
                (work / f"case{i}.cfg").write_text(config + "\n")
                args += ["--config", str(work / f"case{i}.cfg")]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(args)
            return Refusal(code, err.getvalue().replace(str(work), "."), out.exists())
        return thunk

    def grid_edges(seed):
        onset, end = EDGE_PULSE
        return replace(
            ex.smd_control_scenario(seed), duration=0.3, silencing=EDGE_SILENCING,
            reference=ex.stair_reference([1.0, 2.0, 3.0, 4.0], EDGE_REFERENCE, 2),
            pulse=PulseSchedule(onset=onset, duration=end - onset, magnitude=50.0))

    cases = []
    for seed in seeds:
        for workload in WORKLOADS.values():
            cases.append((f"{workload.name}-s{seed}", runner(workload, seed)))
            cases.append((f"cli-{workload.name}-s{seed}", cli_entry(workload, seed)))
        cases.append((f"sweep-silencing-s{seed}", lambda s=seed: ex.run_robustness_sweep(
            replace(ex.robustness_scenario(s), dt=1e-3, duration=1.0, n_neurons=6,
                    pulse=replace(ex.robustness_scenario(s).pulse, onset=0.1,
                                  duration=0.8),
                    silencing=[(0.2, (0, 1)), (0.5, (2,))]),
            SWEEP_NOISE, SWEEP_PULSE)))
        cases.append((f"sweep-blocks-s{seed}", lambda s=seed: ex.run_robustness_sweep(
            replace(ex.robustness_scenario(s), duration=2.2, n_neurons=6,
                    pulse=replace(ex.robustness_scenario(s).pulse, onset=1.0,
                                  duration=0.5)),
            SWEEP_NOISE, (300.0, 900.0, -600.0))))
        cases.append((f"cli-sweep-silencing-s{seed}", cli_run(
            "sweep-silencing", seed, ["sweep"],
            f"sweep.noise_grid = {', '.join(map(repr, SWEEP_NOISE))}\n"
            f"sweep.pulse_grid = {', '.join(map(repr, SWEEP_PULSE))}\n"
            "silencing.enabled = true\nintegration.dt = 0.001\n"
            "integration.duration = 11\npulse.onset = 9.8\npulse.duration = 0.8\n")))
        cases.append((f"control-grid-edges-s{seed}",
                      lambda s=seed: ex.run_control(grid_edges(s))))
        cases.append((f"sweep-grid-edges-s{seed}", lambda s=seed: ex.run_robustness_sweep(
            grid_edges(s), (1e-3, 0.1), (50.0, -300.0))))
        onset, end = EDGE_PULSE
        cases.append((f"cli-control-grid-edges-s{seed}", cli_run(
            "control-grid-edges", seed, ["control"],
            "integration.duration = 0.3\n"
            f"reference.times = {', '.join(map(repr, EDGE_REFERENCE))}\n"
            "reference.positions = 1, 2, 3, 4\n"
            f"pulse.onset = {onset!r}\npulse.duration = {end - onset!r}\n"
            "pulse.magnitude = 50\n")))
        # The silencing block falls inside the pulse, 0.28-0.33 s.
        cases.append((f"cartpole-pulse-silencing-s{seed}", lambda s=seed: ex.run_cartpole(
            replace(ex.cartpole_scenario(s), duration=0.6,
                    reference=ex.stair_reference([0.5, 1.0], [0.04, 0.19], 4),
                    pulse=PulseSchedule(onset=0.28, duration=0.05, magnitude=50.0),
                    silencing=[(0.3, tuple(range(0, 100, 3)))]))))
        cases.append((f"cli-cartpole-pulse-s{seed}", cli_run(
            "cartpole-pulse", seed, ["cartpole"],
            "integration.duration = 0.6\nreference.times = 0.04, 0.19\n"
            "reference.positions = 0.5, 1.0\npulse.onset = 0.28\n"
            "pulse.duration = 0.05\npulse.magnitude = 50.0\n")))
        cases.append((f"estimation-10s-s{seed}", lambda s=seed: ex.run_estimation(
            replace(ex.estimation_scenario(s), duration=10.0))))
        cases.append((f"cli-estimate-s{seed}",
                      cli_run("estimate", seed, ["estimate", "--duration", "10"])))
        # 100 rows at stride 10, their times (9.999999999999999e-06, ...)
        # below 1e-4, where repr writes a number in exponent form.
        cases.append((f"cli-estimate-dt1e-6-s{seed}", cli_run(
            "estimate-dt1e-6", seed, ["estimate", "--dt", "1e-6", "--duration", "0.001"])))
        cases.append((f"cli-sparsity-s{seed}",
                      cli_run("sparsity", seed, ["sparsity", "--duration", "3"])))
        cases.append((f"cli-sparsity-lambdas-s{seed}", cli_run(
            "sparsity-lambdas", seed, ["sparsity", "--duration", "3"],
            "sparsity.lambdas = 0.5, 2, 20\n")))
        for scenario in cli._EXPORT_SCENARIOS:
            cases.append((f"cli-export-{scenario}-s{seed}",
                          cli_run(f"export-{scenario}", seed, ["export-weights"],
                                  f"scenario = {scenario}\n")))
    for i, (argv, config) in enumerate(REFUSALS):
        cases.append((f"refusal-{i:02d}", refusal(i, argv, config)))
    if acceptance:
        cases.append(("A3-estimation",
                      lambda: ex.run_estimation(ex.estimation_scenario(0))))
        for seed in range(10):
            cases.append((f"A4-control-s{seed}",
                          lambda s=seed: ex.run_control(ex.smd_control_scenario(s))))
        cases.append(("A5-silencing", lambda: ex.run_control(
            ex.smd_control_scenario(7, with_silencing=True))))
        cases.append(("A6-cartpole", lambda: ex.run_cartpole(ex.cartpole_scenario(0))))
        cases.append(("A7-sweep", lambda: ex.run_robustness_sweep(
            ex.robustness_scenario(7), np.logspace(-5, -1, 5),
            np.linspace(100.0, 900.0, 5))))
        cases.append(("A8-sparsity", lambda: ex.run_sparsity(ex.sparsity_scenario(7))))
        cases.append(("equilibrium-quiet", lambda: ex.run_control(replace(
            ex.smd_control_scenario(0), duration=2.0, sigma_d=0.0,
            sigma_n=1e-12, eta_v=0.0))))
    return cases


def _worker(src: Path, out_dir: Path, seeds, acceptance: bool) -> int:
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import spikecontrol
    if Path(spikecontrol.__file__).resolve().parent != src / "spikecontrol":
        print(f"error: imported spikecontrol from {spikecontrol.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 1
    cli_dir = out_dir / "cli"
    cli_dir.mkdir(parents=True)
    for name, thunk in _cases(seeds, acceptance, cli_dir):
        start = time.perf_counter()
        try:
            result = thunk()
        except Exception as err:  # a failing case is compared like a result
            arrays = {"error": np.array(f"{type(err).__name__}: {err}")}
        else:
            if result is None:
                continue
            arrays = {}
            _flatten(result, "", arrays)
        np.savez(out_dir / f"{name}.npz", **arrays)
        print(f"[{src}] {name} {time.perf_counter() - start:.1f} s", flush=True)
    return 0


# ---------------------------------------------------------------------------
# comparison


def _ulps(a: np.ndarray, b: np.ndarray) -> int:
    """The largest distance in units in the last place between the finite
    entries of two float arrays of one dtype: the count of representable
    values from one to the other."""
    ints = np.dtype(f"i{a.dtype.itemsize}")
    # Signed bit patterns, flipped below zero, order the floats as integers.
    a, b = (np.where(v < 0, np.iinfo(ints).min - v, v)
            for v in (a.view(ints), b.view(ints)))
    hi, lo = np.maximum(a, b), np.minimum(a, b)
    # hi - lo fits the unsigned type, where the subtraction wraps exactly.
    uints = np.dtype(f"u{a.dtype.itemsize}")
    return int((hi.view(uints) - lo.view(uints)).max())


def _array_diff(a: np.ndarray, b: np.ndarray):
    """None when equal, else a short description of the first difference,
    `a` named as this tree's value and `b` as the other's; for real floats,
    also the largest ulp distance among the differing entries that are
    finite in both arrays."""
    if a.shape != b.shape or a.dtype.kind != b.dtype.kind:
        return f"shape/dtype: this {a.shape} {a.dtype}, other {b.shape} {b.dtype}"
    if a.dtype.kind in "US":
        return None if a == b else "values differ"
    same = a == b
    if a.dtype.kind in "fc":
        same |= np.isnan(a) & np.isnan(b)
    if not same.all():
        bad = np.argwhere(~same)
        where = tuple(int(i) for i in bad[0])
        found = (f"{len(bad)} entries differ, first at {where}: "
                 f"this {a[where]!r}, other {b[where]!r}")
        finite = ~same & np.isfinite(a) & np.isfinite(b)
        if a.dtype == b.dtype and a.dtype.kind == "f" and finite.any():
            found += f", max {_ulps(a[finite], b[finite])} ulp"
        return found
    if a.dtype.kind == "f" and not np.array_equal(np.signbit(a), np.signbit(b)):
        return "signs of zero differ"
    return None


def _tree(this: bool) -> str:
    return "this tree" if this else "the other tree"


def _compare_results(dir_a: Path, dir_b: Path) -> list:
    diffs = []
    names = sorted({p.name for p in dir_a.glob("*.npz")} | {p.name for p in dir_b.glob("*.npz")})
    for name in names:
        if not (dir_a / name).is_file() or not (dir_b / name).is_file():
            diffs.append(f"{name[:-4]}: ran in {_tree((dir_a / name).is_file())} only")
            continue
        with np.load(dir_a / name) as a, np.load(dir_b / name) as b:
            for key in sorted(set(a.files) | set(b.files)):
                if key not in a.files or key not in b.files:
                    diffs.append(f"{name[:-4]}: {key} in {_tree(key in a.files)} only")
                    continue
                found = _array_diff(a[key], b[key])
                if found:
                    diffs.append(f"{name[:-4]}: {key}: {found}")
    return diffs


def _compare_files(dir_a: Path, dir_b: Path) -> list:
    def listing(root):
        return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}
    files_a, files_b = listing(dir_a), listing(dir_b)
    diffs = [f"cli/{rel}: written in {_tree(rel in files_a)} only"
             for rel in sorted(files_a ^ files_b)]
    for rel in sorted(files_a & files_b):
        if not filecmp.cmp(dir_a / rel, dir_b / rel, shallow=False):
            diffs.append(f"cli/{rel}: bytes differ")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="the other checkout or its src/")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    parser.add_argument("--skip-acceptance", action="store_true",
                        help="leave out the full-length acceptance scenarios")
    parser.add_argument("--workdir", type=Path,
                        help="where both trees write their results "
                             "(default: a temporary directory, removed after)")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--worker-out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        return _worker(args.worker, args.worker_out, args.seeds, not args.skip_acceptance)

    trees = {"this": _source_dir(ROOT), "other": _source_dir(args.other)}
    with tempfile.TemporaryDirectory() as tmp:
        work = args.workdir if args.workdir is not None else Path(tmp)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        procs = {}
        for label, src in trees.items():
            out = work / label
            if out.exists():
                print(f"error: {out} exists; give an empty --workdir", file=sys.stderr)
                return 2
            cmd = [sys.executable, __file__, str(args.other), "--worker", str(src),
                   "--worker-out", str(out), "--seeds", *map(str, args.seeds)]
            if args.skip_acceptance:
                cmd.append("--skip-acceptance")
            procs[label] = subprocess.Popen(cmd, env=env)
        crashed = [label for label, proc in procs.items() if proc.wait() != 0]
        if crashed:
            print(f"error: worker for {', '.join(crashed)} tree failed", file=sys.stderr)
            return 1
        diffs = (_compare_results(work / "this", work / "other")
                 + _compare_files(work / "this" / "cli", work / "other" / "cli"))
        runs = len(list((work / "this").glob("*.npz")))
        files = sum(1 for p in (work / "this" / "cli").rglob("*") if p.is_file())
    for line in diffs:
        print(f"DIFF {line}")
    print(f"{trees['this']} vs {trees['other']}: {runs} runs and {files} CLI files "
          f"compared, {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
