"""End-to-end acceptance gate.

Each test prints a single PASS/FAIL line so a full run reads as a checklist.
Expensive scenario runs are shared through module fixtures and re-checked by
the final mechanics suite.
"""

from dataclasses import replace

import numpy as np
import pytest

from spikecontrol import (CartpoleParams, LinearSystem, SmdParams,
                          build_autoencoder, build_network, cartpole_linearize_up,
                          cartpole_scenario, decode, estimation_scenario,
                          kalman_gain, lqr_gain, network_step, new_state,
                          run_cartpole, run_control, run_estimation,
                          run_robustness_sweep, run_sparsity, robustness_scenario,
                          sample_decoder, smd_control_scenario, smd_system,
                          solve_care, sparsity_scenario)

_REGISTRY = {}  # scenario runs the mechanics suite (A9) re-checks


def _criterion(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\n{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def estimation_run():
    sc = estimation_scenario(0)
    item = (sc, run_estimation(sc))
    _REGISTRY["estimation"] = item
    return item


@pytest.fixture(scope="module")
def control_runs():
    runs = {}
    for seed in range(10):
        sc = smd_control_scenario(seed)
        runs[seed] = (sc, run_control(sc))
    _REGISTRY["smd_control_seed0"] = runs[0]
    _REGISTRY["smd_control_seed7"] = runs[7]
    return runs


@pytest.fixture(scope="module")
def silencing_run():
    sc = smd_control_scenario(7, with_silencing=True)
    item = (sc, run_control(sc))
    _REGISTRY["silencing"] = item
    return item


@pytest.fixture(scope="module")
def cartpole_run():
    sc = cartpole_scenario(0)
    item = (sc, run_cartpole(sc))
    _REGISTRY["cartpole"] = item
    return item


@pytest.fixture(scope="module")
def sparsity_runs():
    sc = sparsity_scenario(7)
    res = run_sparsity(sc)
    for lam, traj in zip(res.lambdas, res.trajectories):
        _REGISTRY[f"sparsity_leak_{lam:g}"] = (replace(sc, leak=lam), traj)
    return res


def test_a1_riccati_correctness(capsys):
    worst = 0.0
    # scalar closed forms
    p = solve_care([[1.0]], [[1.0]], [[1.0]], [[1.0]]).P[0, 0]
    ok = abs(p - (1.0 + np.sqrt(2.0))) < 1e-10
    kf_scalar = kalman_gain([[0.0]], [[1.0]], [[1.0]], [[1.0]])[0, 0]
    ok &= abs(kf_scalar + 1.0) < 1e-10
    # both plants with their experiment costs and noise levels
    for A, B, C, Q, sd, sn in (
        (*smd_system(SmdParams(m=20.0, k=6.0, c=2.0)), np.diag([10.0, 1.0]),
         0.1, 0.1),
        (*cartpole_linearize_up(CartpoleParams()), np.diag([1.0, 1.0, 10.0, 1.0]),
         1e-7, 1e-7),
    ):
        n = A.shape[0]
        sol = solve_care(A, B, Q, [[1e-2]])
        resid = (A.T @ sol.P + sol.P @ A
                 - sol.P @ B @ np.linalg.solve([[1e-2]], B.T) @ sol.P + Q)
        worst = max(worst, np.linalg.norm(resid))
        ok &= np.linalg.norm(resid) < 1e-8
        kc = lqr_gain(A, B, Q, [[1e-2]])
        kf = kalman_gain(A, C, sd * np.eye(n), sn * np.eye(1))
        ok &= np.linalg.eigvals(A - B @ kc).real.max() < 0
        ok &= np.linalg.eigvals(A + kf @ C).real.max() < 0
    _criterion(capsys, "A1 riccati-correctness", ok,
               f"max CARE residual {worst:.2e}, closed loops stable")


def test_a2_coding_soundness(capsys):
    gamma, dt, n = 0.1, 1e-3, 5000
    enc = build_autoencoder(sample_decoder(2, 20, gamma, seed=0), leak=1.0)
    st = new_state(enc)
    tgrid = np.arange(n + 1) * dt
    omega = 2 * np.pi * 0.2
    sig = 0.5 * np.column_stack([np.sin(omega * tgrid),
                                 1.0 - np.cos(omega * tgrid)])
    sig_dot = np.diff(sig, axis=0) / dt
    inputs = np.hstack((sig[:-1], sig_dot))  # (signal, signal_dot) per step
    D = enc.decoder_x.values
    worst_err, spikes, reductions = 0.0, 0, 0
    seen_spike = False
    for i in range(n):
        st, spiked = network_step(enc, st, dt, inputs[i])
        err_vec = sig[i + 1] - decode(enc, st).x_hat
        err = np.linalg.norm(err_vec)
        if spiked is not None:
            seen_spike = True
            spikes += 1
            # same instant without this spike: decode short by column `spiked`
            if err < np.linalg.norm(err_vec + D[:, spiked]):
                reductions += 1
        if seen_spike:
            worst_err = max(worst_err, err)
    ok = seen_spike and worst_err <= gamma + 1e-9 and reductions == spikes
    _criterion(capsys, "A2 coding-soundness", ok,
               f"{spikes} spikes, all reduce error: {reductions == spikes}, "
               f"max decode error {worst_err:.4f} <= {gamma}")


def test_a3_estimation(capsys, estimation_run):
    sc, traj = estimation_run
    mask = traj.time > 5.0
    rmse = float(np.sqrt(np.mean(
        (traj.x_hat[mask, 0] - traj.oracle_x_hat[mask, 0]) ** 2)))
    mismatch = abs(traj.x_hat[0, 0] - traj.x[0, 0])
    ok = rmse < 0.05 and mismatch > 0.5
    _criterion(capsys, "A3 estimation", ok,
               f"post-transient position RMSE vs oracle {rmse:.4f} < 0.05, "
               f"initial mismatch {mismatch:.2f}")


def test_a4_controller_equivalence(capsys, control_runs):
    worst = 0.0
    ok = True
    for seed, (sc, traj) in control_runs.items():
        mae_s = np.mean(np.abs(traj.x[:, 0] - traj.z[:, 0]))
        mae_o = np.mean(np.abs(traj.oracle_x[:, 0] - traj.z[:, 0]))
        rel = abs(mae_s - mae_o) / mae_o
        worst = max(worst, rel)
        ok &= rel < 0.25
    _criterion(capsys, "A4 controller-equivalence", ok,
               f"10 seeds, worst |MAE_scn - MAE_ideal| / MAE_ideal = {worst:.4f} < 0.25")


def test_a5_silencing_robustness(capsys, control_runs, silencing_run):
    _, base = control_runs[7]
    _, traj = silencing_run
    third_kill = 43.3
    mask = traj.time < third_kill
    mae_sil = np.mean(np.abs(traj.x[mask, 0] - traj.z[mask, 0]))
    mae_base = np.mean(np.abs(base.x[mask, 0] - base.z[mask, 0]))
    ratio = mae_sil / mae_base
    # after the last kill only 5 neurons remain; log, don't assert
    tail = traj.time >= third_kill
    tail_sil = np.mean(np.abs(traj.x[tail, 0] - traj.z[tail, 0]))
    tail_base = np.mean(np.abs(base.x[tail, 0] - base.z[tail, 0]))
    ok = ratio < 2.0
    _criterion(capsys, "A5 silencing-robustness", ok,
               f"error ratio through second kill {ratio:.3f} < 2; "
               f"post-third-kill MAE {tail_sil:.3f} vs baseline {tail_base:.3f} (logged)")


def test_a6_cartpole(capsys, cartpole_run):
    sc, traj = cartpole_run
    pole_dev = float(np.abs(traj.x[:, 2]).max())
    times = list(sc.reference.times)
    levels = list(sc.reference.values[:, 0])
    bounds = zip(times, times[1:] + [sc.duration])
    worst_gap = 0.0
    for level, (start, end) in zip(levels, bounds):
        mask = (traj.time >= start) & (traj.time < end)
        gap = float(np.abs(traj.x[mask, 0] - level).min())
        worst_gap = max(worst_gap, gap)
    step_height = levels[0]
    ok = pole_dev < 0.2 and worst_gap <= 0.1 * step_height
    _criterion(capsys, "A6 cartpole", ok,
               f"max pole deviation {pole_dev:.3f} rad < 0.2, "
               f"worst approach to a stair level {worst_gap:.4f} <= {0.1 * step_height}")


def _spearman(values):
    ranks = np.argsort(np.argsort(values))
    ideal = np.arange(len(values))
    return float(np.corrcoef(ranks, ideal)[0, 1])


def test_a7_robustness_sweep(capsys):
    sc = robustness_scenario(7)
    noise_grid = np.logspace(-5, -1, 5)
    pulse_grid = np.linspace(100.0, 900.0, 5)
    res = run_robustness_sweep(sc, noise_grid, pulse_grid)
    ok = res.failed_cells == []
    low_noise = noise_grid <= 0.01 + 1e-15
    rel = np.abs(res.scn_mae - res.oracle_mae) / res.oracle_mae
    worst_rel = float(rel[low_noise].max())
    ok &= worst_rel < 0.25
    worst_rho = 1.0
    for mat in (res.scn_mae, res.oracle_mae):
        for row in mat:
            worst_rho = min(worst_rho, _spearman(row))
        for col in mat.T:
            worst_rho = min(worst_rho, _spearman(col))
    ok &= worst_rho > 0.9
    _criterion(capsys, "A7 robustness-sweep", ok,
               f"worst relative gap on low-noise rows {worst_rel:.4f} < 0.25, "
               f"worst Spearman rho {worst_rho:.2f} > 0.9")


def test_a8_sparsity_trend(capsys, sparsity_runs):
    counts = sparsity_runs.spike_counts
    expected = (163, 358, 2381)
    ordered = counts[0] < counts[1] < counts[2]
    in_band = all(ref / 3 <= got <= ref * 3 for got, ref in zip(counts, expected))
    ok = ordered and in_band
    _criterion(capsys, "A8 sparsity-trend", ok,
               f"spike counts {counts} ordered and within 3x of {expected}")


def test_a9_mechanics_invariants(capsys, estimation_run, control_runs,
                                 silencing_run, cartpole_run, sparsity_runs):
    ok = True
    details = []

    # one spike per step, valid ids, everywhere
    for name, (sc, traj) in _REGISTRY.items():
        times = np.array([t for t, _ in traj.spikes])
        ids = np.array([j for _, j in traj.spikes])
        ok &= bool(np.all(np.diff(times) > 0))
        ok &= bool(ids.min() >= 0 and ids.max() < sc.n_neurons)

    # control readout identity, recomputed from the exported gain
    worst_identity = 0.0
    for name, (sc, traj) in _REGISTRY.items():
        if traj.u is None:
            continue
        _, weights = build_network(sc)
        recomputed = -(traj.x_hat - traj.z_hat) @ weights.control_gain.T
        worst_identity = max(worst_identity,
                             float(np.abs(recomputed - traj.u).max()))
    ok &= worst_identity <= 1e-12

    # silenced neurons stay silent
    _, sil = _REGISTRY["silencing"]
    for kill_t, kill_ids in sil.silence_events:
        dead = set(kill_ids)
        ok &= not any(t >= kill_t and j in dead for t, j in sil.spikes)

    # bit-identical replay
    sc0, traj0 = _REGISTRY["estimation"]
    again = run_estimation(sc0)
    ok &= bool(np.array_equal(traj0.x_hat, again.x_hat)) and traj0.spikes == again.spikes

    details.append(f"{len(_REGISTRY)} runs, readout identity max "
                   f"{worst_identity:.2e} <= 1e-12, replay bit-identical")
    _criterion(capsys, "A9 mechanics-invariants", ok, "; ".join(details))
