"""Command-line runner: seeded experiments with CSV/JSON outputs.

Each subcommand builds its scenario from defaults, applies an optional config
file, then applies command-line flag overrides (flags win over config).
Every input, --out included, is checked before the run, and --out is made
only once the run has finished: a run that fails leaves nothing behind. Its
files are trajectory.csv, spikes.csv, summary.json and weights.json (the sweep
writes four error-matrix CSVs and summary.json, export-weights weights.json).
"""

import argparse
import os
import sys
from pathlib import Path

from . import experiments as ex
from .config import ConfigError, _want_tuple, apply_config, load_config
from .scn import NetworkDivergedError, ScnWeights, save_weights
from .state_space import _reraise

_RUN_HELP = {
    "estimate": "spiking state estimation of the noisy spring-mass-damper",
    "control": "spiking LQG control of the SMD stair scenario (with neuron kills)",
    "sweep": "sensor-noise x pulse-strength robustness grid",
    "cartpole": "stabilize the nonlinear cartpole about the upright pole",
    "sparsity": "spike counts for several leak values at decoder norm 1",
    "export-weights": "write the network weight file without running",
}

_BUILDERS = {
    "estimate": lambda seed: ex.estimation_scenario(seed),
    "control": lambda seed: ex.smd_control_scenario(seed, with_silencing=True),
    "sweep": lambda seed: ex.robustness_scenario(seed),
    "cartpole": lambda seed: ex.cartpole_scenario(seed),
    "sparsity": lambda seed: ex.sparsity_scenario(seed),
}

# Config keys read by one subcommand, beside the scenario's own fields.
_LIST_KEYS = {"sweep.noise_grid": "sweep", "sweep.pulse_grid": "sweep",
              "sparsity.lambdas": "sparsity"}

# A sparsity leak's output directory; {:g} keeps six significant digits.
_LEAK_DIR = "lambda_{:g}"

_EXPORT_SCENARIOS = {
    "estimation": ex.estimation_scenario,
    "smd_control": ex.smd_control_scenario,
    "robustness_sweep": ex.robustness_scenario,
    "cartpole": ex.cartpole_scenario,
    "sparsity": ex.sparsity_scenario,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikecontrol",
        description="analytically constructed spiking estimators and controllers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _RUN_HELP.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="key=value config file overriding defaults")
        sp.add_argument("--seed", type=int, help="master seed (default 0)")
        sp.add_argument("--out", help=f"output directory (default out/{name})")
        sp.add_argument("--dt", type=float, help="integration step in seconds")
        sp.add_argument("--duration", type=float, help="simulated seconds")
        sp.add_argument("--neurons", type=int, help="population size")
    return parser


def _build_scenario(command: str, args, cfg: dict):
    builder = _BUILDERS.get(command, ex.smd_control_scenario)
    if command == "export-weights":
        which = cfg.pop("scenario", "smd_control")
        if which not in _EXPORT_SCENARIOS:
            raise ConfigError(
                f"scenario must be one of {sorted(_EXPORT_SCENARIOS)}, got {which!r}")
        builder = _EXPORT_SCENARIOS[which]
    # Flags are applied as the config keys they stand for, so a bad flag
    # value is a usage error (exit 2) exactly like a bad config value.
    flags = {"seed": args.seed, "integration.dt": args.dt,
             "integration.duration": args.duration, "network.n_neurons": args.neurons}
    cfg.update({key: value for key, value in flags.items() if value is not None})
    return apply_config(builder(0), cfg)


def _write(out: Path, result):
    """Make `out` and write into it what a finished run returned: a network,
    a trajectory, a sweep's matrices, or one trajectory directory per leak.
    Every summary is made first, so one that is refused leaves no directory."""
    if isinstance(result, ScnWeights):
        out.mkdir(parents=True, exist_ok=True)
        save_weights(result, out / "weights.json")
        return
    leaks = result if isinstance(result, list) else []
    dirs = [(out, result)] + [(out / _LEAK_DIR.format(t.scenario.leak), t) for t in leaks]
    summaries = [ex.summarize(part) for _, part in dirs]
    for (path, part), summary in zip(dirs, summaries):
        path.mkdir(parents=True, exist_ok=True)
        if isinstance(part, ex.SweepResult):
            for name in ("scn_mae", "oracle_mae", "scn_rmse", "oracle_rmse"):
                ex.write_sweep_matrix(getattr(part, name), part.noise_grid,
                                      part.pulse_grid, path / f"{name}.csv")
        elif isinstance(part, ex.Trajectory):
            # Full-resolution CSVs at dt=1e-4 run to hundreds of MB; thin them.
            stride = 10 if part.scenario.dt <= 1e-4 + 1e-12 else 1
            summary["artifact_choices"]["trajectory_stride"] = stride
            ex.write_trajectory(part, path / "trajectory.csv", stride=stride)
            ex.write_spikes(part, path / "spikes.csv")
            save_weights(part.weights, path / "weights.json")
        ex.write_summary(summary, path / "summary.json")


def _check_out(out: Path):
    """Refuse an --out that cannot be made a directory to write in: its
    nearest existing ancestor (itself, if it exists) must be one."""
    ancestor = out
    while not os.path.lexists(ancestor):
        ancestor = ancestor.parent
    if not (ancestor.is_dir() and os.access(ancestor, os.W_OK | os.X_OK)):
        raise ConfigError(f"--out {out}: {ancestor} is not a writable directory")


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    cfg = load_config(args.config) if args.config else {}
    # List keys that are not scenario fields; a single value is one entry.
    lists = {}
    for key, owner in _LIST_KEYS.items():
        if key in cfg:
            if owner != command:
                raise ConfigError(f"{key} is used only by the {owner} subcommand, "
                                  f"not by {command}")
            lists[key] = _want_tuple(key, cfg.pop(key))
    noise, pulse, lambdas = (lists.get(key) for key in _LIST_KEYS)
    # The runners check their own lists; the checks run before any output.
    if command == "sweep":
        with _reraise("sweep.", ConfigError):
            ex._sweep_grids(noise, pulse)
    sc = _build_scenario(command, args, cfg)
    if command == "sparsity":
        with _reraise("sparsity.", ConfigError):
            runs = ex._sparsity_runs(sc, ex.DEFAULT_LAMBDAS if lambdas is None else lambdas)
        dirs = [_LEAK_DIR.format(run.leak) for run in runs]
        if len(set(dirs)) < len(dirs):
            raise ConfigError("sparsity.lambdas: two leaks share the output directory "
                              + max(dirs, key=dirs.count))
    out = Path(args.out) if args.out else Path("out") / command
    _check_out(out)
    result = {"estimate": lambda: ex.run_estimation(sc),
              "control": lambda: ex.run_control(sc),
              "cartpole": lambda: ex.run_cartpole(sc),
              "sparsity": lambda: ex.run_sparsity(sc, [run.leak for run in runs]),
              "sweep": lambda: ex.run_robustness_sweep(sc, noise, pulse),
              "export-weights": lambda: ex.build_network(sc)[1]}[command]()
    _write(out, result)
    return 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except (NetworkDivergedError, ex.PoleDroppedError, ValueError, TypeError,
            MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2 if isinstance(err, ConfigError) else 1  # a usage error, or a run's


if __name__ == "__main__":
    sys.exit(main())
