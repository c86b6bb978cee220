"""Command-line runner: seeded experiments with CSV/JSON outputs.

Each subcommand builds its scenario from defaults, applies an optional config
file, then applies command-line flag overrides (flags win over config).
Outputs land in --out: trajectory.csv, spikes.csv, summary.json and
weights.json (the sweep writes the four error-matrix CSVs instead of a
trajectory).
"""

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import experiments as ex
from .config import ConfigError, _want_tuple, apply_config, load_config
from .scn import NetworkDivergedError, save_weights

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


def _stride(sc) -> int:
    # Full-resolution CSVs at dt=1e-4 run to hundreds of MB; thin them.
    return 10 if sc.dt <= 1e-4 + 1e-12 else 1


def _write_run(out: Path, sc, traj):
    stride = _stride(sc)
    summary = ex.summarize(traj)
    summary["artifact_choices"]["trajectory_stride"] = stride
    ex.write_trajectory(traj, out / "trajectory.csv", stride=stride)
    ex.write_spikes(traj, out / "spikes.csv")
    ex.write_summary(summary, out / "summary.json")
    _write_weights(out, sc)


def _write_weights(out: Path, sc):
    save_weights(ex.build_network(sc)[1], out / "weights.json")


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
    for value in noise or ():  # each is a cell's sigma_n, and obeys its rule
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"sweep.noise_grid entry {value:g} must be finite "
                              "and positive, like noise.sigma_n")
    for value in pulse or ():
        if not math.isfinite(value):
            raise ConfigError(f"sweep.pulse_grid entry {value:g} must be finite")
    sc = _build_scenario(command, args, cfg)
    for value in lambdas or ():  # each is a run's leak, and obeys its rules
        try:
            replace(sc, leak=value)
        except ValueError as err:
            raise ConfigError(f"sparsity.lambdas entry {value:g}: {err}") from None
    out = Path(args.out) if args.out else Path("out") / command
    out.mkdir(parents=True, exist_ok=True)

    if command == "estimate":
        _write_run(out, sc, ex.run_estimation(sc))
    elif command == "control":
        _write_run(out, sc, ex.run_control(sc))
    elif command == "cartpole":
        _write_run(out, sc, ex.run_cartpole(sc))
    elif command == "sparsity":
        if lambdas is None:
            lambdas = ex.DEFAULT_LAMBDAS
        result = ex.run_sparsity(sc, lambdas)
        for lam, traj in zip(result.lambdas, result.trajectories):
            sub = out / f"lambda_{lam:g}"
            sub.mkdir(parents=True, exist_ok=True)
            _write_run(sub, replace(sc, leak=lam), traj)
        ex.write_summary({
            "scenario": sc.name,
            "master_seed": sc.master_seed,
            "lambdas": result.lambdas,
            "spike_counts": result.spike_counts,
            "artifact_choices": ex._artifact_choices(sc),
        }, out / "summary.json")
    elif command == "sweep":
        result = ex.run_robustness_sweep(sc, noise, pulse)
        for name, matrix in (("scn_mae", result.scn_mae),
                             ("oracle_mae", result.oracle_mae),
                             ("scn_rmse", result.scn_rmse),
                             ("oracle_rmse", result.oracle_rmse)):
            ex.write_sweep_matrix(matrix, result.noise_grid, result.pulse_grid,
                                  out / f"{name}.csv")
        ex.write_summary({
            "scenario": sc.name,
            "master_seed": sc.master_seed,
            "noise_grid": result.meta["noise_grid"],
            "pulse_grid": result.meta["pulse_grid"],
            "failed_cells": [list(cell) for cell in result.failed_cells],
            "artifact_choices": result.meta["artifact_choices"],
        }, out / "summary.json")
        _write_weights(out, sc)
    elif command == "export-weights":
        _write_weights(out, sc)
    else:
        raise ConfigError(f"unknown command {command!r}")
    return 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (NetworkDivergedError, ex.PoleDroppedError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ValueError, TypeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
