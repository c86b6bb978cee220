"""Spans recorded around calls into the package's modules, and the per-layer
table derived from them.

The benchmark never edits the package: it replaces public functions in the
namespaces where their callers look them up (``spikecontrol.experiments``,
``spikecontrol.cli``, the ``NoiseSource`` class) with timing wrappers, and
puts the originals back on exit. The untraced run wraps only the coarse
boundaries (runners, writers), a handful of calls per run; the traced run
adds the per-step ones.
"""

import os
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

from spikecontrol import cli, experiments, state_space

RUNNER = "experiments.runner"
WRITERS = ("experiments.write_trajectory", "experiments.write_spikes",
           "experiments.write_other", "scn.save_weights")


def _file_bytes(args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return os.path.getsize(path)


def _spiked(args, kwargs, result):
    return result[1] is not None


def _values_drawn(args, kwargs, result):
    return result.size


def _weights_bytes(args, kwargs, result):
    arrays = [v for v in vars(result).values() if isinstance(v, np.ndarray)]
    arrays += [d.values for d in (result.decoder_x, result.decoder_z) if d is not None]
    return sum(a.nbytes for a in arrays)


# (owner, attribute, span name, counter hook); hooks run outside the span.
COARSE = (
    (experiments, "run_control", RUNNER, None),
    (experiments, "run_cartpole", RUNNER, None),
    (experiments, "run_robustness_sweep", RUNNER, None),
    (experiments, "write_trajectory", "experiments.write_trajectory", _file_bytes),
    (experiments, "write_spikes", "experiments.write_spikes", None),
    (experiments, "write_summary", "experiments.write_other", None),
    (experiments, "write_sweep_matrix", "experiments.write_other", None),
    (experiments, "summarize", "experiments.write_other", None),
    (cli, "save_weights", "scn.save_weights", _file_bytes),
)
FINE = (
    (experiments, "network_step", "scn.network_step", _spiked),
    (experiments, "build_controller", "scn.build", _weights_bytes),
    (experiments, "lqg_step", "lqg.lqg_step", None),
    (experiments, "cartpole_dynamics", "plants.cartpole_dynamics", None),
    (experiments, "kalman_gain", "riccati.gains", None),
    (experiments, "lqr_gain", "riccati.gains", None),
    (state_space.NoiseSource, "sample_block", "state_space.sample_block",
     _values_drawn),
)


class Tracer:
    """In-memory span recorder. Use as a context manager: wrappers are
    installed on entry and the original functions restored on exit.

    A span is (name, start_ns, end_ns, parent index or -1, run id). The run
    id is the repetition the span belongs to. `counts[(run, name)]` sums the
    hook values of a span name; `runner_call` keeps the (args, result) of the
    latest runner call so the output checks can see the runner's arrays.
    """

    def __init__(self, traced: bool):
        self.points = COARSE + (FINE if traced else ())
        self.spans = []
        self.stack = []
        self.run_id = 0
        self.counts = defaultdict(float)
        self.runner_call = None
        self._originals = []

    def __enter__(self):
        for owner, attr, name, hook in self.points:
            fn = getattr(owner, attr)
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, hook))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    def _wrap(self, fn, name, hook):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if name == RUNNER:
                self.runner_call = (args, result)
            if hook is not None:
                self.counts[(self.run_id, name)] += hook(args, kwargs, result)
            return result
        return wrapper

    def call(self, name, fn, *args, **kwargs):
        """Call fn inside a span named `name`."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.run_id)

    def seconds(self, run_id, names) -> float:
        return sum(end - start for name, start, end, _, run in self.spans
                   if run == run_id and name in names) / 1e9

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("id,parent,run,name,start_ns,end_ns\n")
            for idx, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(f"{idx},{parent},{run},{name},{start},{end}\n")


def self_time(spans, idx) -> tuple:
    """(self seconds, child seconds) of span `idx`.

    Self time is the span minus the part of it its direct children cover.
    Raises ValueError when a child lies outside its parent or overlaps a
    sibling, i.e. when self time plus child spans would not add up to the
    span.
    """
    _, start, end, _, _ = spans[idx]
    children = sorted((s, e) for _, s, e, p, _ in spans if p == idx)
    covered = 0
    cursor = start
    for s, e in children:
        if s < cursor or e > end:
            raise ValueError(f"span {spans[idx][0]} has a child outside it or "
                             "overlapping a sibling")
        covered += e - s
        cursor = e
    return (end - start - covered) / 1e9, covered / 1e9


def check_calls(durations, steps: int, dynamics_per_step: int):
    """Raise ValueError unless the per-step wrappers caught every step: one
    `network_step` and one `lqg_step` per Euler step, and
    `dynamics_per_step` plant calls. A wrapper the runners bypass would
    otherwise read 0 without notice."""
    expected = {"scn.network_step": steps, "lqg.lqg_step": steps,
                "plants.cartpole_dynamics": dynamics_per_step * steps}
    for name, want in expected.items():
        got = len(durations.get(name, ()))
        if got != want:
            raise ValueError(f"{name} was traced {got} times, not {want}")


def layer_table(tracer: Tracer, run_id: int, steps: int,
                dynamics_per_step: int) -> dict:
    """Per-layer metrics of one traced repetition."""
    spans = tracer.spans
    durations = defaultdict(list)
    for name, start, end, _, run in spans:
        if run == run_id:
            durations[name].append((end - start) / 1e9)
    check_calls(durations, steps, dynamics_per_step)
    total = {name: sum(d) for name, d in durations.items()}
    runner_s = total.get(RUNNER, 0.0)
    count = lambda name: tracer.counts.get((run_id, name), 0.0)

    def share(name):
        return total.get(name, 0.0) / runner_s if runner_s else 0.0

    def us(name, q):
        d = durations.get(name)
        return float(np.percentile(d, q)) * 1e6 if d else 0.0

    runner_self = cli_self = 0.0
    for idx, (name, _, _, _, run) in enumerate(spans):
        if run != run_id:
            continue
        if name == RUNNER:
            runner_self += self_time(spans, idx)[0]
        elif name == "cli.main":
            cli_self += self_time(spans, idx)[0]

    traj_s = total.get("experiments.write_trajectory", 0.0)
    traj_bytes = count("experiments.write_trajectory")
    return {
        "scn.network_step.calls": steps,
        "scn.network_step.us_p50": us("scn.network_step", 50),
        "scn.network_step.us_p99": us("scn.network_step", 99),
        "scn.network_step.share": share("scn.network_step"),
        "scn.spikes_per_step": count("scn.network_step") / steps,
        "scn.weights_bytes": count("scn.build") / max(len(durations.get("scn.build", ())), 1),
        "scn.build.s": total.get("scn.build", 0.0),
        "scn.save_weights.s": total.get("scn.save_weights", 0.0),
        "scn.save_weights.bytes": count("scn.save_weights"),
        "lqg.lqg_step.calls": steps,
        "lqg.lqg_step.us_p50": us("lqg.lqg_step", 50),
        "lqg.lqg_step.us_p99": us("lqg.lqg_step", 99),
        "lqg.lqg_step.share": share("lqg.lqg_step"),
        "plants.cartpole_dynamics.calls": dynamics_per_step * steps,
        "plants.cartpole_dynamics.us_p50": us("plants.cartpole_dynamics", 50),
        "plants.cartpole_dynamics.share": share("plants.cartpole_dynamics"),
        "riccati.gains.calls": len(durations.get("riccati.gains", ())),
        "riccati.gains.s": total.get("riccati.gains", 0.0),
        "state_space.sample_block.calls": len(durations.get("state_space.sample_block", ())),
        "state_space.sample_block.s": total.get("state_space.sample_block", 0.0),
        "state_space.sample_block.values_drawn": count("state_space.sample_block"),
        "experiments.runner.self_s": runner_self,
        "experiments.runner.self_us_per_step": runner_self / steps * 1e6,
        "experiments.write_trajectory.s": traj_s,
        "experiments.write_trajectory.bytes": traj_bytes,
        "experiments.write_trajectory.mb_per_s": traj_bytes / 1e6 / traj_s if traj_s else 0.0,
        "experiments.write_spikes.s": total.get("experiments.write_spikes", 0.0),
        "experiments.write_other.s": total.get("experiments.write_other", 0.0),
        "cli.self_s": cli_self,
    }
