"""Command-line runner: seeded experiments with CSV/JSON outputs.

Each subcommand builds the `experiments.SCENARIOS` entry of its `_COMMANDS`
row, applies an optional config file, then flag overrides (flags win), and
runs it with the row's list keys. Every input, --out included, is checked
before the first step (list entries by their runner), and --out is made only
once the run has finished: a run that fails leaves nothing behind. Its files
are trajectory.csv, spikes.csv, summary.json and weights.json (the sweep
writes four error-matrix CSVs and summary.json, export-weights weights.json).
"""

import argparse
import os
import sys
from pathlib import Path

from . import experiments as ex
from .config import ConfigError, _want_tuple, apply_config, load_config
from .scn import NetworkDivergedError, ScnWeights, save_weights

# Each subcommand's help, the `ex.SCENARIOS` name it builds (export-weights: by
# default), the list keys it reads beside the scenario's fields, and its run,
# which looks its runner up in `ex` when called.
_COMMANDS = {
    "estimate": ("spiking state estimation of the noisy spring-mass-damper", "estimation",
                 (), lambda sc: ex.run_estimation(sc)),
    "control": ("spiking LQG control of the SMD stair scenario (with neuron kills)",
                "silencing", (), lambda sc: ex.run_control(sc)),
    "sweep": ("sensor-noise x pulse-strength robustness grid", "robustness_sweep",
              ("sweep.noise_grid", "sweep.pulse_grid"),
              lambda sc, **grids: ex.run_robustness_sweep(sc, **grids)),
    "cartpole": ("stabilize the nonlinear cartpole about the upright pole", "cartpole",
                 (), lambda sc: ex.run_cartpole(sc)),
    "sparsity": ("spike counts for several leak values at decoder norm 1", "sparsity",
                 ("sparsity.lambdas",), lambda sc, **lambdas: ex.run_sparsity(sc, **lambdas)),
    "export-weights": ("write the network weight file without running", "smd_control",
                       (), lambda sc: ex.build_network(sc)[1]),
}

# A sparsity leak's output directory; {:g} keeps six significant digits.
_LEAK_DIR = "lambda_{:g}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikecontrol",
        description="analytically constructed spiking estimators and controllers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, *_) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="key=value config file overriding defaults")
        sp.add_argument("--seed", type=int, help="master seed (default 0)")
        sp.add_argument("--out", help=f"output directory (default out/{name})")
        sp.add_argument("--dt", type=float, help="integration step in seconds")
        sp.add_argument("--duration", type=float, help="simulated seconds")
        sp.add_argument("--neurons", type=int, help="population size")
    return parser


def _build_scenario(command: str, args, cfg: dict):
    name = _COMMANDS[command][1]
    if command == "export-weights":
        name = cfg.pop("scenario", name)
        if name not in ex.SCENARIOS:
            raise ConfigError(f"scenario must be one of {sorted(ex.SCENARIOS)}, got {name!r}")
    # Flags are applied as the config keys they stand for, so a bad flag
    # value is a usage error (exit 2) exactly like a bad config value.
    flags = {"seed": args.seed, "integration.dt": args.dt,
             "integration.duration": args.duration, "network.n_neurons": args.neurons}
    cfg.update({key: value for key, value in flags.items() if value is not None})
    return apply_config(ex.SCENARIOS[name](0), cfg)


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
    # List keys are not scenario fields; a single value is one entry, passed
    # to the runner as the argument the key names. The runner checks them.
    lists = {}
    for owner, (_, _, keys, _) in _COMMANDS.items():
        for key in filter(cfg.__contains__, keys):
            if owner != command:
                raise ConfigError(f"{key} is used only by the {owner} subcommand, "
                                  f"not by {command}")
            lists[key.partition(".")[2]] = _want_tuple(key, cfg.pop(key))
    sc = _build_scenario(command, args, cfg)
    dirs = [_LEAK_DIR.format(lam) for lam in lists.get("lambdas", ())]
    if len(set(dirs)) < len(dirs):
        raise ConfigError("sparsity.lambdas: two leaks share the output directory "
                          + max(dirs, key=dirs.count))
    out = Path(args.out) if args.out else Path("out") / command
    _check_out(out)
    _write(out, _COMMANDS[command][3](sc, **lists))
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
