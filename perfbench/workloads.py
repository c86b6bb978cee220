"""The benchmark's four closed-loop workloads (why each was chosen is in
BENCHMARK.json and README.md).

Each workload is one scenario, run start to finish in one process through the
package's public functions. Three go through ``cli.main`` with a config file,
as a user would; ``control_n2000`` calls ``experiments.run_control`` and the
writers directly, because ``save_weights`` grows as N^2 and would swamp the
simulation at N=2000. All module attributes are looked up at call time, so
the tracer's wrappers (``spans.py``) see every call.
"""

from dataclasses import dataclass, field, replace
from pathlib import Path

from spikecontrol import cli, config, experiments


@dataclass(frozen=True)
class Workload:
    name: str
    factory: object                 # seed -> Scenario, as the CLI builds it
    overrides: dict                 # config keys applied on top of the factory
    command: str = None             # CLI subcommand; None runs the library path
    grids: dict = field(default_factory=dict)   # sweep axes, as config keys
    dynamics_calls_per_step: int = 0          # plants.cartpole_dynamics calls
    dense_calibration: bool = False # the host-speed kernel adds a dense product

    def config_lines(self) -> list:
        items = {**self.overrides, **self.grids}
        return [f"{key} = {_cfg_value(value)}" for key, value in items.items()]

    def argv(self, seed: int, out: Path, cfg_path: Path) -> list:
        return [self.command, "--config", str(cfg_path), "--seed", str(seed),
                "--out", str(out)]

    def scenario(self, seed: int):
        return config.apply_config(self.factory(seed), dict(self.overrides))

    def runner(self):
        """(runner, extra positional args) for this workload's scenario."""
        if self.command == "sweep":
            return (experiments.run_robustness_sweep,
                    (self.grids["sweep.noise_grid"], self.grids["sweep.pulse_grid"]))
        if self.command == "cartpole":
            return experiments.run_cartpole, ()
        return experiments.run_control, ()

    def setup(self, seed: int):
        """The workload's runner cut to one Euler step (one per sweep cell)."""
        sc = self.scenario(seed)
        run, extra = self.runner()
        return run(replace(sc, duration=sc.dt), *extra)

    def entry(self, seed: int, out: Path):
        """(span name, callable, args) of one run writing its outputs to
        `out`; the callable returns the exit code, 0 on success."""
        out.mkdir(parents=True, exist_ok=True)
        if self.command is None:
            return "workload", self._library_run, (seed, out)
        cfg_path = out.parent / f"{out.name}.cfg"
        cfg_path.write_text("\n".join(self.config_lines()) + "\n")
        return "cli.main", cli.main, (self.argv(seed, out, cfg_path),)

    def _library_run(self, seed: int, out: Path) -> int:
        traj = experiments.run_control(self.scenario(seed))
        summary = experiments.summarize(traj)
        experiments.write_trajectory(traj, out / "trajectory.csv")
        experiments.write_spikes(traj, out / "spikes.csv")
        experiments.write_summary(summary, out / "summary.json")
        return 0

    def describe(self, seed: int) -> dict:
        """What ran, for the provenance block."""
        if self.command is None:
            return {"call": "experiments.run_control + writers (no weights.json)",
                    "factory": self.factory.__name__, "seed": seed,
                    "overrides": {k: _cfg_value(v) for k, v in self.overrides.items()}}
        return {"argv": self.argv(seed, Path("<out>"), Path("<cfg>")),
                "config": self.config_lines()}


def _cfg_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(repr(v) for v in value)
    return repr(value)


def _silencing_control(seed: int):
    return experiments.smd_control_scenario(seed, with_silencing=True)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="control_n50",
        factory=_silencing_control,
        # The stair is moved to 2-8 s and the run ends at 12 s, 2 s after
        # the first silencing block (t=10 s). The other two blocks (26.6 s,
        # 43.3 s) are fixed in the package and would make a repetition 4x as
        # long (README.md, "Why these run lengths").
        overrides={"integration.duration": 12.0,
                   "reference.times": (2.0, 4.0, 6.0, 8.0),
                   "reference.positions": (2.0, 4.0, 6.0, 8.0)},
        command="control",
    ),
    Workload(
        name="control_n2000",
        factory=experiments.smd_control_scenario,
        # The stair is moved into the run, so the controller works against a
        # moving reference for all of its 0.5 s.
        overrides={"network.n_neurons": 2000, "integration.duration": 0.5,
                   "reference.times": (0.1, 0.2, 0.3, 0.4),
                   "reference.positions": (2.0, 4.0, 6.0, 8.0)},
        dense_calibration=True,
    ),
    Workload(
        name="sweep_grid",
        factory=experiments.robustness_scenario,
        # The pulse moves from 2.5 s to 0.3 s, so 1 s cells cover a short
        # hold, the pulse and 0.5 s of recovery, and the A7 gap stays below
        # its bound (a hold-dominated cell fails it).
        overrides={"integration.duration": 1.0, "pulse.onset": 0.3},
        command="sweep",
        grids={"sweep.noise_grid": (1e-4, 1e-2), "sweep.pulse_grid": (300.0, 900.0)},
    ),
    Workload(
        name="cartpole",
        factory=experiments.cartpole_scenario,
        # The default stair, compressed into the run: tracking transients,
        # not sensor jitter, then set the MAE that the oracle ratio compares.
        overrides={"integration.duration": 0.6,
                   "reference.times": (0.04, 0.19, 0.34, 0.49),
                   "reference.positions": (0.5, 1.0, 1.5, 2.0)},
        command="cartpole",
        dynamics_calls_per_step=2,
    ),
)}
