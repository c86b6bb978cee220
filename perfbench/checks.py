"""Output checks run after every repetition of a workload.

Each check returns a list of failure messages (empty when the outputs are
correct). The checks read what the run wrote to disk and compare it with the
arrays the runner returned, so a writer that loses a digit fails as surely as
a runner that returns NaN.
"""

import json
import math

import numpy as np

from spikecontrol import (CartpoleParams, cartpole_linearize_up, lqr_gain,
                          smd_system)

# The A4/A7 bound on |MAE_scn - MAE_oracle| / MAE_oracle.
ORACLE_GAP_BOUND = 0.25
READOUT_TOLERANCE = 1e-12
# Sensor noise at or below this is "low noise", as in acceptance criterion A7.
LOW_NOISE = 0.01
SWEEP_MATRICES = ("scn_mae", "oracle_mae", "scn_rmse", "oracle_rmse")


def read_csv(path):
    """(header, float matrix) of a numeric CSV, parsed with float()."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        values = np.fromiter((float(v) for line in fh for v in line.split(",")),
                             dtype=float)
    return header, values.reshape(-1, len(header))


def _trajectory_columns(traj):
    columns = [("time", traj.time.reshape(-1, 1)), ("x", traj.x), ("y", traj.y),
               ("xhat", traj.x_hat), ("zhat", traj.z_hat), ("u", traj.u),
               ("oracle_xhat", traj.oracle_x_hat), ("oracle_u", traj.oracle_u),
               ("oracle_x", traj.oracle_x), ("z", traj.z)]
    header, blocks = [], []
    for name, arr in columns:
        if arr is None:
            continue
        header += ["time"] if name == "time" else [
            f"{name}{j + 1}" for j in range(arr.shape[1])]
        blocks.append(arr)
    return header, np.hstack(blocks)


def control_gain(sc):
    """K_c of a control scenario, from the plant's public model functions."""
    if isinstance(sc.plant, CartpoleParams):
        A, B, _ = cartpole_linearize_up(sc.plant)
    else:
        A, B, _ = smd_system(sc.plant)
    return lqr_gain(A, B, sc.cost.Q, sc.cost.R)


def oracle_ratio(traj) -> float:
    """MAE_scn / MAE_oracle of the position error to the reference."""
    mae_s = np.mean(np.abs(traj.x[:, 0] - traj.z[:, 0]))
    mae_o = np.mean(np.abs(traj.oracle_x[:, 0] - traj.z[:, 0]))
    return float(mae_s / mae_o)


def sweep_oracle_ratio(result) -> float:
    """MAE_scn / MAE_oracle of the worst low-noise cell, as A7 takes it."""
    rows = result.noise_grid <= LOW_NOISE + 1e-15
    ratio = result.scn_mae[rows] / result.oracle_mae[rows]
    return float(ratio.flat[np.argmax(np.abs(ratio - 1.0))])


def check_gap(ratio) -> list:
    gap = abs(ratio - 1.0)
    if not gap < ORACLE_GAP_BOUND:
        return [f"oracle gap {gap:.4g} is not below {ORACLE_GAP_BOUND}"]
    return []


def check_trajectory(traj, sc, out, stride=1) -> list:
    """Trajectory, raster and summary of one control or cartpole run."""
    failures = []
    header, expected = _trajectory_columns(traj)
    if not np.isfinite(expected).all():
        failures.append("runner arrays hold non-finite values")
    got_header, got = read_csv(out / "trajectory.csv")
    if got_header != header:
        failures.append("trajectory.csv header differs from the runner's columns")
    elif not np.array_equal(got, expected[::stride]):
        failures.append("trajectory.csv does not re-parse to the runner's arrays")

    times = np.array([t for t, _ in traj.spikes], dtype=float)
    ids = np.array([j for _, j in traj.spikes], dtype=int)
    if times.size and not np.all(np.diff(times) > 0):
        failures.append("spike times do not strictly increase")
    if ids.size and (ids.min() < 0 or ids.max() >= sc.n_neurons):
        failures.append("spike ids outside the population")
    _, raster = read_csv(out / "spikes.csv")
    if not (np.array_equal(raster[:, 0], times) and np.array_equal(raster[:, 1], ids)):
        failures.append("spikes.csv does not re-parse to the runner's raster")

    recomputed = -(traj.x_hat - traj.z_hat) @ control_gain(sc).T
    worst = float(np.abs(recomputed - traj.u).max())
    if not worst <= READOUT_TOLERANCE:
        failures.append(f"readout identity off by {worst:.3g}")
    failures += check_summary(out)
    return failures + check_gap(oracle_ratio(traj))


def check_sweep(result, out) -> list:
    failures = []
    if result.failed_cells:
        failures.append(f"{len(result.failed_cells)} sweep cells failed")
    for name in SWEEP_MATRICES:
        matrix = getattr(result, name)
        if not np.isfinite(matrix).all():
            failures.append(f"{name} holds non-finite values")
        _, got = read_csv(out / f"{name}.csv")
        if not (np.array_equal(got[:, 0], result.noise_grid)
                and np.array_equal(got[:, 1:], matrix)):
            failures.append(f"{name}.csv does not re-parse to the sweep result")
    failures += check_summary(out)
    if not failures:
        failures += check_gap(sweep_oracle_ratio(result))
    return failures


def check_summary(out) -> list:
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    if not all(math.isfinite(v) for v in _numbers(summary)):
        return ["summary.json holds non-finite numbers"]
    if summary.get("failed_cells"):
        return ["summary.json lists failed sweep cells"]
    return []


def _numbers(doc):
    if isinstance(doc, bool):
        return
    if isinstance(doc, (int, float)):
        yield doc
    elif isinstance(doc, dict):
        for value in doc.values():
            yield from _numbers(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _numbers(value)


def summary_numbers(out, sweep: bool) -> dict:
    """The user-facing numbers of a run, compared with the stored reference
    values on the default seed."""
    if sweep:
        return {name: read_csv(out / f"{name}.csv")[1][:, 1:].ravel().tolist()
                for name in SWEEP_MATRICES}
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    keys = ("spike_count", "spikes_per_second", "rmse_vs_oracle",
            "rmse_vs_reference", "mae_vs_reference", "max_pole_deviation")
    numbers = {k: summary[k] for k in keys if k in summary}
    numbers["phase_mae"] = [p["mae"] for p in summary["phase_errors"]]
    return numbers


def check_reference(numbers: dict, reference: dict, rtol: float) -> list:
    failures = []
    for key, want in reference.items():
        got = np.asarray(numbers.get(key, np.nan), dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape or not np.allclose(got, want, rtol=rtol, atol=0.0):
            failures.append(f"summary {key} differs from the reference value")
    return failures
