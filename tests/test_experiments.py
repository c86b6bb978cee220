"""Scenario runners, file formats, config handling, and the CLI."""

import json
import math
import re
import threading
import time
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spikecontrol import (CARTPOLE_UP, CartpoleParams, ConfigError,
                          LinearSystem, LqgState, LqrCost, NetworkDivergedError,
                          PulseSchedule, ReferenceSchedule, Scenario, SmdParams,
                          apply_config, build_estimator,
                          build_network, cartpole_scenario,
                          estimation_scenario, estimator_step, experiments, kalman_gain,
                          load_config, load_weights,
                          network_step, new_state, parse_config,
                          robustness_scenario, run_cartpole, run_control,
                          run_estimation, run_robustness_sweep, run_sparsity,
                          sample_decoder, save_weights, silence, smd_control_scenario,
                          smd_system,
                          sparsity_scenario, stair_reference, summarize,
                          write_spikes, write_summary, write_sweep_matrix,
                          write_trajectory)
from spikecontrol.cli import main as cli_main


@pytest.fixture(scope="module")
def est_short():
    return run_estimation(replace(estimation_scenario(7), duration=2.0))


@pytest.fixture(scope="module")
def ctrl_silenced():
    # Long enough to pass the first kill at t=10 s.
    return run_control(replace(smd_control_scenario(7, with_silencing=True),
                               duration=12.0))


# ---------------------------------------------------------------------------
# reference schedules


def test_schedule_values_and_zero_prehistory():
    sched = ReferenceSchedule(times=[1.0, 3.0], values=[[2.0, 0.0], [5.0, 0.0]])
    z, _ = sched.sample_grid(100_001, 1e-3)
    rows = {0.0: [0.0, 0.0], 0.999: [0.0, 0.0], 1.0: [2.0, 0.0], 2.9: [2.0, 0.0],
            3.0: [5.0, 0.0], 100.0: [5.0, 0.0]}
    for t, value in rows.items():
        np.testing.assert_array_equal(z[round(t / 1e-3)], value)


def test_schedule_grid_forward_difference():
    sched = ReferenceSchedule(times=[0.2], values=[[3.0, 0.0]])
    z, zdot = sched.sample_grid(5, 0.1)
    np.testing.assert_array_equal(z[:, 0], [0.0, 0.0, 3.0, 3.0, 3.0])
    # the stair appears as a single one-step kick just before the jump
    np.testing.assert_array_equal(zdot[:, 0], [0.0, 30.0, 0.0, 0.0, 0.0])
    assert np.all(zdot[-1] == 0.0)


def test_schedule_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        ReferenceSchedule(times=[2.0, 1.0], values=[[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="one value row"):
        ReferenceSchedule(times=[1.0], values=[[1.0, 0.0], [2.0, 0.0]])


def test_stair_reference_shape():
    sched = stair_reference([2.0, 4.0], [10.0, 20.0], state_dim=4)
    np.testing.assert_array_equal(sched.values,
                                  [[2.0, 0, 0, 0], [4.0, 0, 0, 0]])


# ---------------------------------------------------------------------------
# scenarios


def test_factory_defaults():
    est = estimation_scenario(3)
    assert est.name == "estimation" and est.master_seed == 3
    assert est.n_neurons == 20 and est.gamma_x == 0.1
    assert isinstance(est.plant, SmdParams) and est.plant.m == 3.0

    ctrl = smd_control_scenario(0)
    assert ctrl.name == "smd_control" and ctrl.silencing is None
    assert ctrl.plant.m == 20.0 and ctrl.n_neurons == 50
    np.testing.assert_array_equal(ctrl.reference.times, [10.0, 20.0, 30.0, 40.0])
    np.testing.assert_array_equal(ctrl.reference.values[:, 0], [2.0, 4.0, 6.0, 8.0])

    killed = smd_control_scenario(0, with_silencing=True)
    assert killed.name == "silencing"
    assert [t for t, _ in killed.silencing] == [10.0, 26.6, 43.3]
    assert killed.silencing[0][1] == tuple(range(15))

    rob = robustness_scenario(0)
    assert rob.pulse.onset == 2.5 and rob.pulse.duration == 0.2
    assert rob.dt == 1e-4 and rob.duration == 5.0

    cp = cartpole_scenario(0)
    assert isinstance(cp.plant, CartpoleParams) and cp.n_neurons == 100
    np.testing.assert_array_equal(cp.x0, CARTPOLE_UP)

    sp = sparsity_scenario(0)
    assert sp.gamma_x == 1.0 and sp.duration == 10.0


def test_scenario_validation():
    base = estimation_scenario(0)
    with pytest.raises(ValueError, match="unknown scenario name"):
        replace(base, name="frobnicate")
    with pytest.raises(ValueError, match="positive"):
        replace(base, dt=0.0)
    with pytest.raises(ValueError, match="at least one neuron"):
        replace(base, n_neurons=0)
    # A run needs at least one step: duration at least half of dt.
    with pytest.raises(ValueError, match="duration = 0.0004 is under half of dt"):
        replace(base, duration=4e-4)
    with pytest.raises(ValueError, match="duration = 5e-05 is under half of dt"):
        replace(robustness_scenario(0), duration=5e-5)
    assert replace(base, duration=6e-4).n_steps == 1
    with pytest.raises(ValueError, match="master_seed = -1 must be nonnegative"):
        replace(base, master_seed=-1)
    with pytest.raises(ValueError, match="x0 has 1 entries"):
        replace(base, x0=[1.0])
    with pytest.raises(TypeError, match="unsupported plant object"):
        replace(base, plant=object())
    with pytest.raises(ValueError, match="silencing ids 0..44 are out of range"):
        replace(smd_control_scenario(0, with_silencing=True), n_neurons=20)
    # Forward Euler must be stable for the network and for a stable plant.
    with pytest.raises(ValueError, match=r"dt\*leak = 1 must be below 1"):
        replace(base, leak=1000.0)
    with pytest.raises(ValueError, match=r"spectral radius of I \+ dt\*A is 1.155"):
        replace(base, dt=0.5)
    # The cartpole linearization is unstable: the plant check does not apply.
    replace(cartpole_scenario(0), dt=0.01)
    # Noise, decoder and leak values: finite, and positive or nonnegative.
    ctrl = smd_control_scenario(0)
    for key, value, message in (
            ("sigma_n", 0.0, "sigma_n = 0 must be finite and positive"),
            ("sigma_n", -0.1, "sigma_n = -0.1 must be finite and positive"),
            ("sigma_d", -0.1, "sigma_d = -0.1 must be finite and nonnegative"),
            ("eta_v", -1e-5, "eta_v = -1e-05 must be finite and nonnegative"),
            ("leak", -0.1, "leak = -0.1 must be finite and nonnegative"),
            ("gamma_x", 0.0, "gamma_x = 0 must be finite and positive"),
            ("gamma_z", -0.1, "gamma_z = -0.1 must be finite and positive"),
            ("duration", np.inf, "duration = inf must be finite and positive"),
            ("dt", np.nan, "dt = nan must be finite and positive")):
        with pytest.raises(ValueError, match=message):
            replace(ctrl, **{key: value})
    for key in ("sigma_n", "sigma_d", "eta_v", "leak", "gamma_x", "gamma_z"):
        with pytest.raises(ValueError, match=f"{key} = nan must be finite"):
            replace(ctrl, **{key: np.nan})
    # Zero is allowed where the bound is nonnegative, and gamma_z may be unset.
    replace(ctrl, sigma_d=0.0, eta_v=0.0, leak=0.0)
    assert replace(ctrl, gamma_z=None).gamma_z is None
    # run_estimation runs no controller, target decoder, reference, pulse or
    # kill schedule.
    pulse = robustness_scenario(0).pulse
    for key, value in (("gamma_z", 0.5), ("cost", ctrl.cost),
                       ("reference", ctrl.reference), ("pulse", pulse),
                       ("silencing", [(1.0, (0,))])):
        with pytest.raises(ValueError, match=f"estimation scenario takes no {key}"):
            replace(base, **{key: value})
    # The cost must fit the plant: Q is K x K and R is m x m.
    for sc, cost, message in (
            (ctrl, LqrCost(Q=np.eye(3), R=[[1.0]]),
             "cost Q is 3x3, but the SmdParams plant needs 2x2"),
            (ctrl, LqrCost(Q=np.eye(2), R=np.eye(2)),
             "cost R is 2x2, but the SmdParams plant needs 1x1"),
            (cartpole_scenario(0), ctrl.cost,
             "cost Q is 2x2, but the CartpoleParams plant needs 4x4")):
        with pytest.raises(ValueError, match=message):
            replace(sc, cost=cost)
    # Non-finite start, schedule and cost values, each refused by its owner.
    with pytest.raises(ValueError, match=r"x0 = \[nan, 0.0\] must be finite"):
        replace(ctrl, x0=[np.nan, 0.0])
    with pytest.raises(ValueError, match=r"x0 = \[0.0, 0.0, inf, 0.0\] must be finite"):
        replace(cartpole_scenario(0), x0=[0.0, 0.0, np.inf, 0.0])
    with pytest.raises(ValueError, match="silencing times must be finite"):
        replace(ctrl, silencing=[(np.nan, (0,))])
    for key in ("onset", "duration", "magnitude"):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"pulse {key} = {value} must be finite"):
                replace(pulse, **{key: value})
    with pytest.raises(ValueError, match="reference times must be finite, got nan"):
        stair_reference([1.0, 2.0], [0.05, np.nan], 2)
    with pytest.raises(ValueError, match="reference values must be finite, got -inf"):
        stair_reference([-np.inf, 2.0], [1.0, 2.0], 2)
    with pytest.raises(ValueError, match=r"cost Q must be finite, got \[\[inf"):
        LqrCost(Q=np.diag([np.inf, 1.0]), R=[[1.0]])
    with pytest.raises(ValueError, match=r"cost R must be finite, got \[\[nan\]\]"):
        LqrCost(Q=np.eye(2), R=[[np.nan]])
    # eta_v is finite, but its square, the voltage-noise variance, must be too.
    with pytest.raises(ValueError, match="eta_v = 1e[+]300 is too large: its square"):
        replace(ctrl, eta_v=1e300)
    assert replace(ctrl, eta_v=1e150).eta_v == 1e150
    # So must the step count and the spike thresholds, half the summed squared
    # decoder norms; a controller's unset gamma_z counts as gamma_x.
    for sc, key, value, message in (
            (ctrl, "duration", 1e308, "duration = 1e[+]308 is too large: its step count"),
            (base, "duration", 1e308, "duration = 1e[+]308 is too large: its step count"),
            (ctrl, "gamma_x", 1e160, "gamma_x = 1e[+]160 is too large: the spike thresholds"),
            (ctrl, "gamma_z", 1e160, "gamma_z = 1e[+]160 is too large: the spike thresholds"),
            (base, "gamma_x", 1e160, "gamma_x = 1e[+]160 is too large: the spike thresholds"),
            (replace(ctrl, gamma_z=None), "gamma_x", 1e154,
             "gamma_x = 1e[+]154 is too large: the spike thresholds")):
        with pytest.raises(ValueError, match=message):
            replace(sc, **{key: value})
    assert replace(base, gamma_x=1e154).gamma_x == 1e154
    # Each leak of a sparsity run obeys the leak rules, named by its entry.
    with pytest.raises(ValueError, match="lambdas entry -1: leak = -1 must be finite"):
        run_sparsity(sparsity_scenario(0), [-1.0, 0.0])
    with pytest.raises(ValueError, match="lambdas must be nonempty"):
        run_sparsity(sparsity_scenario(0), [])


def test_scenario_sorts_silencing():
    sc = replace(smd_control_scenario(0),
                 silencing=[(5.0, (1,)), (2.0, (0,))])
    assert [t for t, _ in sc.silencing] == [2.0, 5.0]


# ---------------------------------------------------------------------------
# runners


def test_estimation_run_is_deterministic(est_short):
    again = run_estimation(replace(estimation_scenario(7), duration=2.0))
    np.testing.assert_array_equal(est_short.x, again.x)
    np.testing.assert_array_equal(est_short.x_hat, again.x_hat)
    np.testing.assert_array_equal(est_short.oracle_x_hat, again.oracle_x_hat)
    assert est_short.spikes == again.spikes


def test_estimation_run_prefix_stable(est_short):
    # Shortening the run must not change the shared prefix: noise is drawn
    # from seeded streams, not reshuffled per duration.
    short = run_estimation(replace(estimation_scenario(7), duration=1.0))
    n = len(short.time)
    np.testing.assert_array_equal(short.x, est_short.x[:n])
    np.testing.assert_array_equal(short.x_hat, est_short.x_hat[:n])


def test_estimation_seeds_differ(est_short):
    other = run_estimation(replace(estimation_scenario(8), duration=2.0))
    assert not np.array_equal(other.x, est_short.x)


def test_estimation_rejects_other_scenarios():
    with pytest.raises(ValueError, match="estimation scenario"):
        run_estimation(smd_control_scenario(0))
    # The estimator integrates the linear plant; the cartpole's upright
    # linearization is not a plant to step.
    cart = replace(estimation_scenario(0), plant=CartpoleParams(), x0=CARTPOLE_UP)
    with pytest.raises(ValueError, match="run_estimation integrates the linear plant"):
        run_estimation(cart)


def test_estimation_steps_one_free_plant_and_filters_its_y():
    # An estimation run's oracle filters the trajectory's own y at u = 0, and
    # its one plant runs free: x[i + 1] = x[i] + dt A x[i] + w[i], bit for bit.
    sc = replace(estimation_scenario(3), duration=0.2)
    traj = run_estimation(sc)
    system, kf, _, _ = experiments._network(sc)
    w = experiments._noise_rows(sc, system)[0]
    est, u0, x = LqgState(np.zeros(2)), np.zeros(1), traj.x
    assert np.array_equal(x[0], sc.x0)
    for i in range(sc.n_steps):
        estimator_step(system, kf, est, traj.y[i], u0, sc.dt)
        assert np.array_equal(traj.oracle_x_hat[i], est.x_hat)
        if i + 1 < sc.n_steps:
            step = x[i] + sc.dt * system.A.dot(x[i]) + w[i]
            assert np.array_equal(step, x[i + 1])
            assert np.array_equal(np.signbit(step), np.signbit(x[i + 1]))
    for key in ("z_hat", "u", "z", "oracle_u", "oracle_x"):
        assert getattr(traj, key) is None


def test_matched_noiseless_estimator_tracks_plant():
    # Exact observations, matched initial decode: after the first second the
    # decode stays within the coding error of the true state.
    sc = estimation_scenario(0)
    A, B, C = smd_system(sc.plant)
    sys = LinearSystem(A=A, B=B, C=C, sigma_d=sc.sigma_d * np.eye(2),
                       sigma_n=sc.sigma_n * np.eye(1))
    kf = kalman_gain(A, C, sys.sigma_d, sys.sigma_n)
    dec = sample_decoder(2, sc.n_neurons, sc.gamma_x, seed=0)
    w = build_estimator(sys, kf, dec, sc.leak)
    st = new_state(w)
    x = np.array([1.0, 0.0])
    st.r[:] = np.linalg.pinv(dec.values) @ x
    dt, u0, sq = sc.dt, np.zeros(1), []
    for i in range(int(10.0 / sc.dt)):
        network_step(w, st, dt, np.concatenate((C @ x, u0)))
        x = x + dt * (A @ x)
        if (i + 1) * dt > 1.0:
            sq.append(np.sum((x - dec.values @ st.r) ** 2))
    assert np.sqrt(np.mean(sq)) < sc.gamma_x


def test_control_run_is_deterministic():
    sc = replace(smd_control_scenario(3), duration=3.0)
    a = run_control(sc)
    b = run_control(sc)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.u, b.u)
    np.testing.assert_array_equal(a.oracle_x, b.oracle_x)
    assert a.spikes == b.spikes


def test_control_at_equilibrium_is_exactly_quiet():
    # Zero disturbance, zero reference, no voltage noise: nothing ever crosses
    # threshold and the plant never moves.
    sc = replace(smd_control_scenario(0), duration=2.0, sigma_d=0.0,
                 sigma_n=1e-12, eta_v=0.0)
    traj = run_control(sc)
    assert traj.spike_count == 0
    np.testing.assert_array_equal(traj.u, np.zeros_like(traj.u))
    np.testing.assert_array_equal(traj.x, np.zeros_like(traj.x))
    np.testing.assert_array_equal(traj.oracle_x, np.zeros_like(traj.oracle_x))


def test_closed_loop_call_contract(monkeypatch):
    # One network step and one oracle step per Euler step of every run and
    # sweep cell, and two plant evaluations per step on the cartpole. The
    # benchmark's traced run counts calls through these same module names.
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("network_step", "lqg_step", "estimator_step", "cartpole_dynamics"):
        monkeypatch.setattr(experiments, name,
                            counting(name, getattr(experiments, name)))

    # `lqg_step` calls `lqg.estimator_step` in its own module, which the
    # patched name does not see: only an estimation run counts it.
    run_estimation(replace(estimation_scenario(0), duration=0.1))
    assert calls == {"network_step": 100, "estimator_step": 100}
    calls.clear()
    sc = replace(smd_control_scenario(0), duration=0.1,
                 silencing=[(0.05, (0, 1, 2))])
    assert run_control(sc).silence_events == [(0.05, (0, 1, 2))]
    assert calls == {"network_step": 100, "lqg_step": 100}
    calls.clear()
    run_cartpole(replace(cartpole_scenario(0), duration=0.01))
    assert calls == {"network_step": 100, "lqg_step": 100,
                     "cartpole_dynamics": 200}
    calls.clear()
    run_robustness_sweep(replace(robustness_scenario(0), duration=0.01),
                         noise_grid=[1e-3], pulse_grid=[100.0, 300.0])
    assert calls == {"network_step": 200, "lqg_step": 200}
    # Six neurons: the nine cells of a 3 x 3 sweep run in three batches.
    calls.clear()
    run_robustness_sweep(replace(robustness_scenario(0), duration=0.01, n_neurons=6),
                         noise_grid=[1e-4, 1e-3, 1e-2], pulse_grid=[100.0, 300.0, 900.0])
    assert calls == {"network_step": 900, "lqg_step": 900}


def test_cli_run_builds_its_network_once_and_saves_it(tmp_path, monkeypatch):
    # A CLI run solves each Riccati equation once: weights.json is the network
    # the runner stepped, not a second build of it.
    calls, runs = Counter(), []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if name == "run_control":
                runs.append(result)
            return result
        return wrapper

    for name in ("kalman_gain", "lqr_gain", "run_control"):
        monkeypatch.setattr(experiments, name, counting(name, getattr(experiments, name)))
    out = tmp_path / "run"
    assert cli_main(["control", "--duration", "0.2", "--out", str(out)]) == 0
    assert calls == {"kalman_gain": 1, "lqr_gain": 1, "run_control": 1}
    save_weights(runs[0].weights, tmp_path / "stepped.json")
    assert (out / "weights.json").read_bytes() == (tmp_path / "stepped.json").read_bytes()
    # A sweep solves one Kalman gain per noise row and one LQR gain, and
    # builds no network of its own for a weights.json.
    calls.clear()
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("sweep.noise_grid = 1e-4, 1e-2\nsweep.pulse_grid = 300\n"
                   "integration.duration = 0.01\n")
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")]) == 0
    assert calls == {"kalman_gain": 2, "lqr_gain": 1}


def test_control_requires_cost_and_reference():
    sc = estimation_scenario(0)
    with pytest.raises(ValueError, match="cost and a reference"):
        run_control(sc)
    # Each runner refuses, before its first step, a scenario it cannot run.
    cart, smd = cartpole_scenario(0), robustness_scenario(0)
    for run, bad, message in (
            (run_control, cart, "use run_cartpole for the cartpole"),
            (run_cartpole, smd, "run_cartpole needs a cartpole scenario"),
            (run_cartpole, replace(cart, cost=None), "cartpole run needs a cost"),
            (run_robustness_sweep, replace(smd, pulse=None), "a pulse template"),
            (run_robustness_sweep, replace(cart, pulse=smd.pulse),
             "the sweep integrates the linear plant")):
        with pytest.raises(ValueError, match=message):
            run(bad)


def test_silencing_is_enforced(ctrl_silenced):
    traj = ctrl_silenced
    assert traj.silence_events == [(10.0, tuple(range(15)))]
    before = [j for t, j in traj.spikes if t < 10.0 and j < 15]
    after = [j for t, j in traj.spikes if t >= 10.0 and j < 15]
    assert before and not after
    # survivors keep the loop alive
    assert any(t >= 10.0 for t, _ in traj.spikes)


@pytest.mark.parametrize("runner", ["control", "cartpole"])
def test_silencing_at_grid_edges(runner):
    # A block applies at the first step whose time is at least the block's
    # time less 1e-9 s: exactly on the grid, 5e-10 s after a grid time (that
    # step), 2e-9 s after one (the next step), and two blocks on one step.
    if runner == "control":
        run, base = run_control, replace(
            smd_control_scenario(0), duration=0.2,
            reference=stair_reference([2.0, 4.0, 6.0, 8.0], [0.01, 0.05, 0.09, 0.13], 2))
    else:
        run, base = run_cartpole, replace(
            cartpole_scenario(0), duration=0.02,
            reference=stair_reference([0.5, 1.0], [0.001, 0.01], 4))
    dt = base.dt
    edges = [(40 * dt, 40), (80 * dt + 5e-10, 80), (120 * dt + 2e-9, 121),
             (160 * dt, 160), (160 * dt + 5e-10, 160)]
    # Silence, at each block, the neurons most active from its step on in a
    # run without silencing, so the check below has spikes to forbid.
    free = run(base)
    blocks = []
    for k, (t, step) in enumerate(edges):
        later = Counter(j for ts, j in free.spikes if round(ts / dt) >= step)
        ids = tuple(sorted(j for j, _ in later.most_common(2 + k % 2)))
        assert ids, (runner, step)
        blocks.append((t, ids))
    traj = run(replace(base, silencing=blocks))
    assert traj.silence_events == [(float(traj.time[step]), ids)
                                   for (_, step), (_, ids) in zip(edges, blocks)]
    for (_, step), (_, ids) in zip(edges, blocks):
        assert not [j for ts, j in traj.spikes if j in ids and round(ts / dt) >= step]
    assert traj.spike_count > 0


def test_closed_loop_and_lockstep_silence_at_the_same_step(monkeypatch):
    # Both engines apply a block at the first step whose time is at least its
    # own less 1e-9 s: on the grid, 1e-10 s after or before a grid time (that
    # step), 2e-9 s before one (that step) or after one (the next step), two
    # blocks on one step, and never when that step is past the run's end.
    calls = []

    def recording(state, ids):
        calls.append((state.step, tuple(ids), float(state.t)))
        return silence(state, ids)

    monkeypatch.setattr(experiments, "silence", recording)
    base = robustness_scenario(3)
    sc = replace(base, dt=1e-3, duration=0.2,
                 pulse=replace(base.pulse, onset=0.05, duration=0.05))
    dt = sc.dt
    edges = [(0.0, 0), (40 * dt, 40), (60 * dt + 1e-10, 60), (80 * dt - 1e-10, 80),
             (100 * dt - 2e-9, 100), (120 * dt + 2e-9, 121), (120 * dt + 5e-10, 120),
             (0.2, None), (7.5, None), (40 * dt + 5e-10, 40)]
    sc = replace(sc, silencing=[(t, (k, k + 10)) for k, (t, _) in enumerate(edges)])
    want = sorted((step, (k, k + 10), float(np.arange(sc.n_steps)[step] * dt))
                  for k, (_, step) in enumerate(edges) if step is not None)
    run_control(sc)
    closed_loop = list(calls)
    calls.clear()
    res = run_robustness_sweep(sc, noise_grid=[sc.sigma_n], pulse_grid=[100.0])
    assert res.failed_cells == []
    assert closed_loop == calls == want


# An event time near grid time k * dt: well inside the 1e-9 s tolerance (that
# step), or 2e-9 s before (that step) or after it (the next step).
_NEAR_GRID = st.tuples(st.integers(1, 60),
                       st.floats(-5e-10, 5e-10) | st.sampled_from([-2e-9, 2e-9]))


@settings(max_examples=60, deadline=None)
@given(dt=st.floats(1e-4, 1e-2), events=st.lists(_NEAR_GRID, min_size=5, max_size=5))
def test_every_event_lands_on_the_grid_by_one_rule(dt, events):
    # A reference step, each pulse edge, a silencing block, each phase
    # segment's bounds and `_lockstep`'s pulse window all fall on the first
    # grid step whose time is at least the event's time less 1e-9 s.
    n = 64
    time, steps = np.arange(n) * dt, np.arange(n)
    ref_1, ref_2, onset, end, kill = (k * dt + offset for k, offset in events)
    assume(ref_1 < ref_2 and onset < end)

    def step(t):
        return int(np.searchsorted(time, t - 1e-9))

    reference = ReferenceSchedule([ref_1, ref_2], [[1.0, 0.0], [2.0, 0.0]])
    z = reference.sample_grid(n, dt)[0][:, 0]
    np.testing.assert_array_equal(z, 1.0 * (steps >= step(ref_1)) + (steps >= step(ref_2)))
    pulse = PulseSchedule(onset=onset, duration=end - onset, magnitude=300.0)
    on, off = step(pulse.onset), step(pulse.onset + pulse.duration)
    np.testing.assert_array_equal(pulse.profile(time), np.where(
        (steps >= on) & (steps < off), 300.0, 0.0))
    sc = replace(robustness_scenario(0), dt=dt, duration=n * dt, n_neurons=4,
                 reference=reference, pulse=pulse, silencing=[(kill, (0, 1))])
    assert sc.n_steps == n
    assert experiments._silencing_steps(sc, time) == {step(kill): [(0, 1)]}
    # The lockstep engine places the pulse, the reference and the block where
    # the closed loop does, or the plant states would differ.
    traj, x_end, xo_end = experiments._closed_loop(sc)
    [(positions, final, spikes)] = experiments._lockstep(sc, [(sc.sigma_n, 300.0)])
    want = np.column_stack((np.append(traj.x[1:, 0], x_end[0]),
                            np.append(traj.oracle_x[1:, 0], xo_end[0])))
    assert _bitwise_equal(positions, want) and _bitwise_equal(final, [x_end, xo_end])
    assert spikes == traj.spikes
    # Error |x - z| = step + 1 and z = step on each row: a segment's least
    # error is its first step + 1, and its level its last step.
    coded = replace(traj, x=np.column_stack((2 * steps + 1.0, steps)),
                    z=np.column_stack((steps * 1.0, steps)))
    bounds = [0.0, ref_1, ref_2, n * dt]
    want = [(start, end, step(end) - 1.0, step(start) + 1.0)
            for start, end in zip(bounds, bounds[1:]) if step(start) < step(end)]
    assert [(p["start"], p["end"], p["level"], p["min_abs_error"])
            for p in experiments._phase_errors(coded)] == want


def test_spike_raster_integrity(ctrl_silenced):
    traj = ctrl_silenced
    times = np.array([t for t, _ in traj.spikes])
    ids = np.array([j for _, j in traj.spikes])
    assert traj.spike_count == len(traj.spikes) > 0
    assert np.all(np.diff(times) > 0)  # at most one spike per step
    assert ids.min() >= 0 and ids.max() < 50
    # spike times sit on the integration grid
    steps = times / 1e-3
    np.testing.assert_allclose(steps, np.round(steps), atol=1e-6)


def test_spike_times_are_grid_times(monkeypatch):
    # A spike's time is the trajectory's time at the step it fired, bit for
    # bit: the network's clock is step * dt, the product that builds `time`.
    fired = []

    def recording(weights, state, dt, inputs, noise=None):
        step = state.step
        state, spike = network_step(weights, state, dt, inputs, noise)
        if spike is not None:
            fired.append((step, spike))
        return state, spike

    monkeypatch.setattr(experiments, "network_step", recording)
    control = replace(smd_control_scenario(3), duration=1.0,
                      reference=stair_reference([2.0, 4.0], [0.1, 0.5], 2),
                      silencing=[(0.3, tuple(range(10)))])
    runs = [(run_control, control),
            (run_cartpole, replace(cartpole_scenario(3), duration=0.05,
                                   reference=stair_reference([0.5, 1.0], [0.001, 0.01], 4))),
            (run_estimation, replace(estimation_scenario(3), duration=1.0))]
    for run, sc in runs:
        fired.clear()
        traj = run(sc)
        assert traj.spike_count > 0, sc.name
        assert traj.spikes == [(traj.time[k], j) for k, j in fired], sc.name
        assert all(type(t) is float for t, _ in traj.spikes), sc.name


def test_readout_identity_on_recorded_run(ctrl_silenced):
    traj = ctrl_silenced
    _, weights = build_network(replace(smd_control_scenario(7, with_silencing=True),
                                       duration=12.0))
    gain = weights.control_gain
    recomputed = -(traj.x_hat - traj.z_hat) @ gain.T
    assert np.abs(recomputed - traj.u).max() < 1e-12


# ---------------------------------------------------------------------------
# summaries and writers


def test_summary_keys_and_phases(ctrl_silenced):
    s = summarize(ctrl_silenced)
    assert s["scenario"] == "silencing" and s["master_seed"] == 7
    assert s["spike_count"] == ctrl_silenced.spike_count
    assert s["spikes_per_second"] == pytest.approx(s["spike_count"] / 12.0)
    assert isinstance(s["rmse_vs_oracle"], float)
    assert s["artifact_choices"]["voltage_noise_scaling"] == "sqrt(dt)"
    phases = s["phase_errors"]
    assert [p["level"] for p in phases] == [0.0, 2.0]
    assert phases[1]["start"] == 10.0 and phases[1]["end"] == 12.0
    # A reference step at t = 0 leaves the segment before it without steps.
    hold = run_control(replace(robustness_scenario(7), duration=0.01))
    assert [(p["start"], p["end"], p["level"])
            for p in summarize(hold)["phase_errors"]] == [(0.0, 0.01, 1.0)]


def test_summary_estimation_uses_plant_as_reference(est_short):
    s = summarize(est_short)
    err = est_short.x_hat[:, 0] - est_short.x[:, 0]
    assert s["rmse_vs_reference"] == pytest.approx(float(np.sqrt(np.mean(err ** 2))))
    assert "phase_errors" not in s


def test_trajectory_csv_estimation(tmp_path, est_short):
    path = tmp_path / "trajectory.csv"
    write_trajectory(est_short, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "time,x1,x2,y1,xhat1,xhat2,oracle_xhat1,oracle_xhat2"
    assert len(lines) == 1 + len(est_short.time)
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    np.testing.assert_array_equal(data[:, 0], est_short.time)
    np.testing.assert_array_equal(data[:, 1:3], est_short.x)  # repr round-trips
    np.testing.assert_array_equal(data[:, 4:6], est_short.x_hat)


def test_trajectory_csv_control_columns_and_stride(tmp_path, ctrl_silenced):
    path = tmp_path / "trajectory.csv"
    write_trajectory(ctrl_silenced, path, stride=10)
    lines = path.read_text().splitlines()
    assert lines[0] == ("time,x1,x2,y1,xhat1,xhat2,zhat1,zhat2,u1,"
                        "oracle_xhat1,oracle_xhat2,oracle_u1,"
                        "oracle_x1,oracle_x2,z1,z2")
    n = len(ctrl_silenced.time)
    assert len(lines) == 1 + (n + 9) // 10
    first = np.array([float(v) for v in lines[1].split(",")])
    assert first[0] == 0.0
    np.testing.assert_array_equal(first[1:3], ctrl_silenced.x[0])


def _write_trajectory_per_float(traj, path, stride):
    # The writer as it was before block writes: repr(float(v)) per value.
    columns = [traj.time.reshape(-1, 1), traj.x, traj.y, traj.x_hat, traj.z_hat,
               traj.u, traj.oracle_x_hat, traj.oracle_u, traj.oracle_x, traj.z]
    columns = [arr for arr in columns if arr is not None]
    with open(path, "w") as fh:
        for i in range(0, len(traj.time), stride):
            fh.write(",".join(repr(float(v)) for arr in columns for v in arr[i]) + "\n")


def _trajectory_of(time, column):
    return experiments.Trajectory(
        time=time, x=column(2), y=column(1), x_hat=column(2),
        oracle_x_hat=column(2), z_hat=column(2), u=column(1), z=column(2),
        oracle_u=column(1), oracle_x=column(2))


def _random_exponents_trajectory():
    # 10 613 rows: 20.7 blocks of 512 written rows at stride 1, 2.07 at 10.
    n = 10_613
    rng = np.random.default_rng(5)
    special = [-0.0, 5e-324, 1e22, 0.1 + 0.2, np.inf, -np.inf, np.nan, 0.0]

    def column(width):
        arr = rng.standard_normal((n, width)) * 10.0 ** rng.integers(-300, 300, (n, width))
        arr.flat[rng.choice(arr.size, 40 * len(special))] = np.repeat(special, 40)
        return arr

    traj = _trajectory_of(np.arange(n) * 1e-3, column)
    traj.x[:len(special), 0] = special  # in the first and the last block
    traj.x[-len(special):, 1] = special
    return traj


def _repr_split_trajectory():
    # Where repr prints fixed-point (0 and 1e-4 <= |v| < 1e16) the writer
    # takes orjson's digits; NaN, inf and every other value take repr's text.
    # Three blocks of 512 rows at dt = 1e-5, so rows 1-9 have times below
    # 1e-4: a mixed block, a block with no repr-only value, and a block whose
    # values but the time are all repr-only.
    rng = np.random.default_rng(6)
    fixed = [0.0, -0.0, 1e-4, -1e-4, 9999999999999998.0]
    exponent = [9.999999999999999e-05, 1.5e-05, 1e16, -1e16,
                2.2250738585072014e-308, 1.7976931348623157e308,
                np.nan, np.inf, -np.inf]
    signs = rng.choice([-1.0, 1.0], 400)
    fixed_pool = np.concatenate([fixed, signs[:200] * 10.0 ** rng.uniform(-4, 16, 200)])
    exponent_pool = np.concatenate([
        exponent, signs[200:300] * 10.0 ** rng.uniform(-320, -4, 100),
        signs[300:] * 10.0 ** rng.uniform(16, 308, 100)])
    mixed_pool = np.concatenate([fixed_pool, exponent_pool])

    def column(width):
        return np.vstack([rng.choice(pool, (512, width))
                          for pool in (mixed_pool, fixed_pool, exponent_pool)])

    traj = _trajectory_of(np.arange(3 * 512) * 1e-5, column)
    traj.x[:len(fixed) + len(exponent), 0] = fixed + exponent
    traj.x[512:512 + len(fixed), 0] = fixed
    traj.x[1024:1024 + len(exponent), 0] = exponent
    return traj


@pytest.mark.parametrize("make, stride", [
    pytest.param(_random_exponents_trajectory, 1, id="1"),
    pytest.param(_random_exponents_trajectory, 10, id="10"),
    pytest.param(_repr_split_trajectory, 1, id="repr-split"),
])
def test_trajectory_csv_bytes_match_per_float_repr(tmp_path, make, stride):
    traj = make()
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_trajectory(traj, got, stride=stride)
    _write_trajectory_per_float(traj, want, stride)
    header, body = got.read_bytes().split(b"\n", 1)
    assert header.startswith(b"time,x1,x2,y1,")
    assert body == want.read_bytes()
    assert body.count(b"\n") == (len(traj.time) + stride - 1) // stride


@pytest.mark.parametrize("stride", [0, -1, 2.5, True, "2"])
def test_trajectory_stride_must_be_a_positive_integer(tmp_path, est_short, stride):
    path = tmp_path / "trajectory.csv"
    with pytest.raises(ValueError, match=re.escape(
            f"stride must be a positive integer, got {stride!r}")):
        write_trajectory(est_short, path, stride=stride)
    assert not path.exists()


def _before_worker_draws(monkeypatch, before):
    """Patch `NoiseSource._draw` to call `before(source, n)` first whenever
    it runs on a thread other than this one."""
    draw, main = experiments.NoiseSource._draw, threading.get_ident()

    def patched(self, n):
        if threading.get_ident() != main:
            before(self, n)
        return draw(self, n)

    monkeypatch.setattr(experiments.NoiseSource, "_draw", patched)


def test_voltage_rows_are_scaled_noise_source_blocks(monkeypatch):
    # `_voltage_rows` draws blocks of at most 1 MiB: 2621 rows at N=50, so
    # 16 484 steps cross six block boundaries, and 65 rows at N=2000, so 200
    # steps cross three. Every row equals one draw of all n rows.
    # Every block is taken by `sample_block` on the caller's thread; blocks
    # 2, 3, ... were drawn ahead on a worker thread.
    drawn, callers, ahead = [], set(), []
    sample_block = experiments.NoiseSource.sample_block

    def recording(self, k):
        drawn.append((self.dim, k))
        callers.add(threading.get_ident())
        return sample_block(self, k)

    monkeypatch.setattr(experiments.NoiseSource, "sample_block", recording)
    _before_worker_draws(monkeypatch, lambda src, k: ahead.append((src.dim, k)))
    for n_neurons, n, per_block in ((50, 16_484, 2621), (2000, 200, 65)):
        sc = replace(smd_control_scenario(3), n_neurons=n_neurons, duration=n * 1e-3)
        assert sc.n_steps == n
        drawn.clear()
        ahead.clear()
        _, _, rows = experiments._noise_rows(sc, build_network(sc)[0])
        got = np.array(list(rows))
        blocks = [k for dim, k in drawn if dim == n_neurons]
        assert blocks == [per_block] * (n // per_block) + [n % per_block], n_neurons
        assert callers == {threading.get_ident()} and ahead == [(n_neurons, k) for k in blocks[1:]]
        assert per_block * n_neurons * 8 <= 1 << 20 < (per_block + 1) * n_neurons * 8
        src = experiments.NoiseSource(sc.eta_v ** 2, sc.n_neurons, sc.master_seed,
                                      experiments.StreamLabel.VOLTAGE)
        want = np.sqrt(sc.dt) * src.sample_block(n)
        assert np.array_equal(got, want), n_neurons
        assert np.array_equal(np.signbit(got), np.signbit(want)), n_neurons


def test_one_row_voltage_blocks_are_drawn_inline(monkeypatch):
    # Above N = 131 072 a block is one row: the caller would wait for a
    # worker at once, so no block is drawn ahead, and the rows are the same.
    dim = (1 << 17) + 1
    src = experiments.NoiseSource(1.0, dim, 0, experiments.StreamLabel.VOLTAGE)
    want = 0.5 * src.sample_block(3)
    ahead = []
    _before_worker_draws(monkeypatch, lambda src, n: ahead.append(n))
    src = experiments.NoiseSource(1.0, dim, 0, experiments.StreamLabel.VOLTAGE)
    got = np.array(list(experiments._voltage_rows(src, 3, 0.5)))
    assert ahead == [] and np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_voltage_rows_hold_at_most_two_blocks():
    # A caller that keeps the previous row while it takes the next, as
    # `_lockstep` does, holds the block being yielded and the one being
    # drawn, never a third: block k + 1 is drawn only once the caller has
    # moved past block k - 1. Waiting for each pending draw before dropping
    # the previous row makes a third block show in the peak.
    src = experiments.NoiseSource(1.0, 2000, 0, experiments.StreamLabel.VOLTAGE)
    block_bytes = 65 * 2000 * 8
    tracemalloc.start()
    try:
        prev = None
        for row in experiments._voltage_rows(src, 300, 0.5):
            src.wait()
            prev = row
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prev is not None and 2 * block_bytes <= peak < 2.5 * block_bytes, peak


@pytest.fixture
def slow_prefetch(monkeypatch):
    """Make every draw on a worker thread take 0.1 s longer, so that a run
    which did not wait for its pending draw would return with the worker
    still alive. Returns the thread count before the test."""
    _before_worker_draws(monkeypatch, lambda src, n: time.sleep(0.1))
    return threading.active_count()


def _diverging_after(monkeypatch, step):
    """Patch the engines' network step to raise NetworkDivergedError at `step`."""
    network_step = experiments.network_step

    def diverging(weights, state, *args):
        if state.step == step:
            raise NetworkDivergedError(f"network diverged at step {step}")
        return network_step(weights, state, *args)

    monkeypatch.setattr(experiments, "network_step", diverging)


def test_voltage_draws_end_with_their_run(monkeypatch, slow_prefetch):
    # However a run ends, no draw outlives it: a run of several blocks, a run
    # whose network diverges in block 3 (65 rows a block at N=2000), a
    # one-neuron cartpole dropping its pole in block 1 of two (131 072 rows a
    # block at N=1), and a generator closed after its first or second row.
    # A caller may keep the error, whose traceback keeps the run's frame.
    sc = replace(smd_control_scenario(3), n_neurons=2000, duration=0.2)
    run_control(sc)
    assert threading.active_count() == slow_prefetch
    with monkeypatch.context() as patch:
        _diverging_after(patch, 2 * 65 + 3)
        with pytest.raises(NetworkDivergedError, match="at step 133") as diverged:
            run_control(sc)
    assert threading.active_count() == slow_prefetch
    cart = replace(cartpole_scenario(1), n_neurons=1, dt=1e-3, duration=135.0)
    with pytest.raises(experiments.PoleDroppedError, match=r"\(step 3175\)") as dropped:
        run_cartpole(cart)
    assert threading.active_count() == slow_prefetch
    assert diverged.tb is not None and dropped.tb is not None
    for rows_taken in (1, 2):
        src = experiments.NoiseSource(1.0, 2000, 0, experiments.StreamLabel.VOLTAGE)
        rows = experiments._voltage_rows(src, 200, 0.5)
        for _ in range(rows_taken):
            next(rows)
        rows.close()
        assert threading.active_count() == slow_prefetch


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_lockstep_batch_that_all_diverges_waits_for_its_draw(slow_prefetch):
    # Both cells' networks diverge at step 535 under the pulse, in block 9
    # of 10 (65 rows a block), so the batch returns early with block 10
    # being drawn.
    base = robustness_scenario(2)
    sc = replace(base, dt=1e-3, duration=0.6, n_neurons=2000,
                 pulse=replace(base.pulse, onset=0.2, duration=0.3))
    out = experiments._lockstep(sc, [(1e-7, 1e308), (1e-7, -1e308)])
    assert [str(err) for err in out] == ["network diverged at step 535 (t=0.535)"] * 2
    assert threading.active_count() == slow_prefetch


def test_voltage_draw_error_surfaces_from_the_run(tmp_path, capsys, monkeypatch):
    # A MemoryError in the worker's draw of block 2 is raised by the run on
    # the caller's thread, and the CLI reports it as a run's failure.
    def failing(src, n):
        raise MemoryError("injected: no room for voltage block 2")

    _before_worker_draws(monkeypatch, failing)
    start = threading.active_count()
    sc = replace(smd_control_scenario(3), n_neurons=2000, duration=0.2)
    with pytest.raises(MemoryError, match="injected"):
        run_control(sc)
    code = cli_main(["control", "--neurons", "2000", "--duration", "0.2",
                     "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == "error: injected: no room for voltage block 2\n"
    assert not (tmp_path / "o").exists()
    assert threading.active_count() == start


def test_spike_csv_roundtrip(tmp_path, est_short):
    path = tmp_path / "spikes.csv"
    write_spikes(est_short, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "time,neuron"
    assert len(lines) == 1 + est_short.spike_count
    t0, j0 = lines[1].split(",")
    assert (float(t0), int(j0)) == est_short.spikes[0]


def test_summary_artifact_choices_are_its_own(ctrl_silenced):
    # The CLI adds trajectory_stride to a summary's artifact_choices; an edit
    # of one summary, its lists included, must not reach the next one.
    first = summarize(ctrl_silenced)["artifact_choices"]
    first["trajectory_stride"] = 10
    first["reference_times"].append(99.0)
    assert (summarize(ctrl_silenced)["artifact_choices"]
            == experiments._artifact_choices(ctrl_silenced.scenario))
    assert "trajectory_stride" not in summarize(ctrl_silenced)["artifact_choices"]


def test_summary_of_sweep_and_sparsity_results():
    sc = robustness_scenario(3)  # a 1e308 N pulse from t=0 fails its column
    sc = replace(sc, duration=0.01, pulse=replace(sc.pulse, onset=0.0))
    sweep = run_robustness_sweep(sc, [1e-3, 1e-2], [100.0, 1e308])
    sparse_sc = replace(sparsity_scenario(4), duration=0.01)
    sparse = run_sparsity(sparse_sc, [0.0, 2.0])
    summaries = summarize(sweep), summarize(sparse)
    assert summaries == (
        {"scenario": "robustness_sweep", "master_seed": 3,
         "noise_grid": [1e-3, 1e-2], "pulse_grid": [100.0, 1e308],
         "failed_cells": [list(cell) for cell in sweep.failed_cells],
         "artifact_choices": experiments._artifact_choices(sc)},
        {"scenario": "sparsity", "master_seed": 4, "lambdas": [0.0, 2.0],
         "spike_counts": [traj.spike_count for traj in sparse],
         "artifact_choices": experiments._artifact_choices(sparse_sc)})
    assert [cell[:2] for cell in summaries[0]["failed_cells"]] == [[0, 1], [1, 1]]
    # The grids go out as Python floats, not numpy scalars.
    assert all(type(v) is float
               for v in summaries[0]["noise_grid"] + summaries[0]["pulse_grid"])
    for result, summary in zip((sweep, sparse), summaries):
        summary["artifact_choices"]["trajectory_stride"] = 10
        assert "trajectory_stride" not in summarize(result)["artifact_choices"]


def test_results_carry_the_scenario_that_ran():
    # Every runner's result holds the Scenario it ran, and a summary reads
    # the run's settings from it.
    keys = ("scenario", "master_seed", "n_neurons", "dt", "duration", "leak")

    def settings(sc):
        return {"scenario": sc.name, "master_seed": sc.master_seed,
                "n_neurons": sc.n_neurons, "dt": sc.dt, "duration": sc.duration,
                "leak": sc.leak}

    runs = [(run_estimation, replace(estimation_scenario(2), duration=1)),
            (run_control, replace(smd_control_scenario(2, with_silencing=True),
                                  duration=0.05)),
            (run_cartpole, replace(cartpole_scenario(2), duration=0.01))]
    for run, sc in runs:
        traj = run(sc)
        assert traj.scenario is sc, sc.name
        summary = summarize(traj)
        assert {key: summary[key] for key in keys} == settings(sc), sc.name
        assert type(summary["duration"]) is float  # an int duration writes 1.0
    sc = replace(robustness_scenario(2), duration=0.01)
    sweep = run_robustness_sweep(sc, [1e-3], [100.0, 300.0])
    assert sweep.scenario is sc
    assert summarize(sweep)["scenario"] == sc.name
    assert summarize(sweep)["master_seed"] == sc.master_seed
    sc = replace(sparsity_scenario(2), duration=0.01)
    sparse = run_sparsity(sc, [0.0, 2.0])
    assert [traj.scenario.leak for traj in sparse] == [0.0, 2.0]
    for leak, traj in zip((0.0, 2.0), sparse):
        summary = summarize(traj)
        assert {key: summary[key] for key in keys} == settings(replace(sc, leak=leak))
    assert summarize(sparse)["scenario"] == sc.name
    assert summarize(sparse)["master_seed"] == sc.master_seed


def test_summary_json_roundtrip(tmp_path, est_short):
    path = tmp_path / "summary.json"
    summary = summarize(est_short)
    write_summary(summary, path)
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == summary


def test_sweep_matrix_csv(tmp_path):
    mat = np.array([[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "mat.csv"
    write_sweep_matrix(mat, [0.01, 0.1], [100.0, 200.0], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "sigma_n\\pulse,100.0,200.0"
    assert lines[1] == "0.01,1.0,2.0"
    assert len(lines) == 3


def test_small_sweep_shapes():
    sc = replace(robustness_scenario(5), duration=1.0)
    res = run_robustness_sweep(sc, noise_grid=[0.001, 0.01],
                               pulse_grid=[100.0, 300.0])
    for mat in (res.scn_mae, res.oracle_mae, res.scn_rmse, res.oracle_rmse):
        assert mat.shape == (2, 2)
        assert np.isfinite(mat).all()
        assert (mat > 0).all()
    assert res.failed_cells == []
    assert res.scenario is sc
    assert summarize(res)["noise_grid"] == [0.001, 0.01]
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=f"pulse_grid entry {bad:g} must be finite"):
            run_robustness_sweep(sc, noise_grid=[0.001], pulse_grid=[100.0, bad])
    # Each noise entry is a cell's sigma_n, refused before any gain is solved.
    for bad in (np.nan, 0.0, -1e-3):
        with pytest.raises(ValueError,
                           match=f"noise_grid entry {bad:g} must be finite and positive"):
            run_robustness_sweep(sc, noise_grid=[0.001, bad], pulse_grid=[100.0])


def test_sweep_grids_must_be_one_dimensional(monkeypatch):
    # A nested or scalar grid is refused, naming the grid and its shape,
    # before any network is built.
    monkeypatch.setattr(experiments, "_network", None)
    sc = robustness_scenario(0)
    for noise, pulse, message in (
            ([[1e-3, 1e-2]], [300.0], "noise_grid must be one-dimensional, got shape (1, 2)"),
            ([1e-3], 300.0, "pulse_grid must be one-dimensional, got shape ()"),
            ([], [300.0], "grids must be nonempty"),
            ([1e-3], [], "grids must be nonempty")):
        with pytest.raises(ValueError, match=re.escape(message)):
            run_robustness_sweep(sc, noise_grid=noise, pulse_grid=pulse)


def _lockstep_cells(monkeypatch, sc, noise_grid, pulse_grid):
    """(sweep result, each cell's `_lockstep` outcome in grid order, number of
    lockstep batches) of one sweep."""
    cells, batches = [], []
    lockstep = experiments._lockstep

    def recording(*args):
        runs = lockstep(*args)
        cells.extend(runs)
        batches.append(len(runs))
        return runs

    monkeypatch.setattr(experiments, "_lockstep", recording)
    res = run_robustness_sweep(sc, noise_grid=noise_grid, pulse_grid=pulse_grid)
    monkeypatch.undo()
    return res, cells, len(batches)


def test_sweep_cells_follow_run_control(monkeypatch):
    # Each cell scales the unit sensor rows by its own sqrt(sigma_n), so it
    # sees the rows `_noise_rows` draws for that cell's scenario, bit for bit.
    sc = replace(robustness_scenario(4), duration=0.4,
                 pulse=replace(robustness_scenario(4).pulse, onset=0.1))
    sn, pulses = 0.01, (300.0, 900.0)
    _, cells, _ = _lockstep_cells(monkeypatch, sc, [sn], pulses)
    assert len(cells) == 2
    for (positions, _, spikes), m in zip(cells, pulses):
        ref = run_control(replace(sc, sigma_n=sn, pulse=replace(sc.pulse, magnitude=m)))
        assert spikes == ref.spikes and len(spikes) > 0
        # Column 0 holds x after each step, column 1 oracle_x.
        for col, name in enumerate(("x", "oracle_x")):
            assert _bitwise_equal(positions[:-1, col], getattr(ref, name)[1:, 0])


def _bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _match_closed_loop(monkeypatch, sc, noise_grid, pulse_grid):
    """Run the sweep and require each lockstep cell to equal `_closed_loop`
    of that cell's scenario, run alone. Returns (sweep result, number of
    lockstep batches, messages of the cells that diverged)."""
    res, cells, batches = _lockstep_cells(monkeypatch, sc, noise_grid, pulse_grid)
    assert len(cells) == len(noise_grid) * len(pulse_grid)
    messages = []
    cell = iter(cells)
    for sn in noise_grid:
        for m in pulse_grid:
            run = next(cell)
            try:
                traj, x_end, xo_end = experiments._closed_loop(
                    replace(sc, sigma_n=sn, pulse=replace(sc.pulse, magnitude=m)))
            except NetworkDivergedError as err:
                assert isinstance(run, NetworkDivergedError) and str(run) == str(err)
                messages.append(str(err))
                continue
            positions, final, spikes = run
            want = np.column_stack((np.append(traj.x[1:, 0], x_end[0]),
                                    np.append(traj.oracle_x[1:, 0], xo_end[0])))
            assert _bitwise_equal(positions, want)
            assert _bitwise_equal(final, [x_end, xo_end])
            assert spikes == traj.spikes and len(spikes) > 0
    return res, batches, messages


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("seed", [2, 9])
def test_lockstep_cells_match_closed_loop_bitwise(monkeypatch, seed):
    # Six neurons make batches of three cells, each drawing the voltage rows
    # again; the 1e-7 sensor noise row diverges mid-run under the huge
    # pulses, so rows leave their batch at different steps; neurons are
    # silenced on the way.
    base = robustness_scenario(seed)
    sc = replace(base, dt=1e-3, duration=1.0, n_neurons=6,
                 pulse=replace(base.pulse, onset=0.1, duration=0.8),
                 silencing=[(0.2, (0, 1)), (0.5, (2,))])
    noise_grid, pulse_grid = [1e-7, 1e-5, 1e-2], [300.0, 1e308, 900.0, -1.7e308]
    res, batches, messages = _match_closed_loop(monkeypatch, sc, noise_grid, pulse_grid)
    assert batches == 4
    assert any(m.startswith("network diverged at step") for m in messages)
    assert any(m.startswith("closed loop diverged") for m in messages)
    assert [msg for _, _, msg in res.failed_cells if "overflow" not in msg] == messages
    # A batch whose every cell diverges ends at the step the last one leaves.
    res, batches, messages = _match_closed_loop(monkeypatch, sc, [1e-7], [1e308, -1e308])
    assert batches == 1 and len(messages) == 2
    assert all(m.startswith("network diverged at step") for m in messages)


def test_lockstep_cells_match_closed_loop_across_voltage_blocks(monkeypatch):
    # At N=400 the sweep draws its voltage rows in blocks of 327, so 1200
    # steps cross three block boundaries; the four cells run in one batch,
    # and a quarter of the neurons is silenced between two boundaries.
    base = robustness_scenario(5)
    sc = replace(base, dt=1e-3, duration=1.2, n_neurons=400,
                 pulse=replace(base.pulse, onset=0.5, duration=0.3),
                 silencing=[(0.8, tuple(range(0, 400, 4)))])
    block = (1 << 20) // (8 * sc.n_neurons)
    assert block == 327 and sc.n_steps > 3 * block
    res, batches, messages = _match_closed_loop(monkeypatch, sc, [1e-5, 1e-2],
                                                [300.0, 900.0])
    assert batches == 1 and messages == [] and res.failed_cells == []


def test_lockstep_builds_one_network_per_noise_level(monkeypatch):
    # Six neurons make two batches of three cells, each batch with two noise
    # levels, 1e-3 among them twice. A batch builds each level's network once,
    # through `_network`, which holds every gain solve and network build; the
    # LQR gain is solved once per batch, and cells at one level share the
    # network object.
    calls, inside, built, stepped = Counter(), [], [], []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name, bool(inside)] += 1
            inside.append(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                inside.pop()
            if name == "_network":
                built.append(result[3])
            return result
        return wrapper

    for name in ("_network", "kalman_gain", "lqr_gain", "build_controller",
                 "sample_decoder"):
        monkeypatch.setattr(experiments, name, counting(name, getattr(experiments, name)))
    start = experiments.new_state
    monkeypatch.setattr(experiments, "new_state",
                        lambda weights: stepped.append(weights) or start(weights))
    base = robustness_scenario(6)
    sc = replace(base, dt=1e-3, duration=0.5, n_neurons=6,
                 pulse=replace(base.pulse, onset=0.1, duration=0.3))
    # `_match_closed_loop` undoes the patches after the sweep, so only the
    # sweep's calls are counted.
    res, batches, messages = _match_closed_loop(monkeypatch, sc, [1e-3, 1e-2, 1e-3],
                                                [300.0, 900.0])
    assert batches == 2 and messages == [] and res.failed_cells == []
    assert calls == {("_network", False): 4, ("kalman_gain", True): 4,
                     ("lqr_gain", True): 2, ("build_controller", True): 4,
                     ("sample_decoder", True): 8}
    # Cells (0, 0), (0, 1), (1, 0) | (1, 1), (2, 0), (2, 1).
    assert [[w is b for b in built].index(True) for w in stepped] == [0, 0, 1, 2, 3, 3]


def test_sweep_memory_is_bounded():
    # A one-cell sweep at N=2000 over 2000 steps crosses 30 voltage blocks of
    # 65 rows. Held whole, its n x N voltage rows would be 32 MB.
    base = robustness_scenario(0)
    sc = replace(base, n_neurons=2000, duration=0.2,
                 pulse=replace(base.pulse, onset=0.1, duration=0.05))
    tracemalloc.start()
    try:
        res = run_robustness_sweep(sc, noise_grid=[1e-3], pulse_grid=[300.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.failed_cells == [] and np.isfinite(res.scn_mae).all()
    assert peak < 8e6, peak


# ---------------------------------------------------------------------------
# config files


def test_parse_config_values():
    cfg = parse_config("""
    # comment line
    seed = 4
    network.leak = 0.5   # trailing comment
    silencing.enabled = true
    reference.positions = 2, 4, 6
    label = hello
    """)
    assert cfg == {"seed": 4, "network.leak": 0.5, "silencing.enabled": True,
                   "reference.positions": (2, 4, 6), "label": "hello"}


def test_parse_config_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("seed = 1\nnot a pair\n")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="missing value"):
        parse_config("seed =\n")
    with pytest.raises(ConfigError, match="missing key"):
        parse_config("= 3\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(tmp_path / "nope.cfg")


def test_apply_config_overrides():
    sc = apply_config(smd_control_scenario(0), {
        "seed": 9, "network.n_neurons": 60, "network.leak": 0.2,
        "noise.sigma_n": 0.05, "integration.dt": 5e-4,
        "integration.duration": 20.0, "initial.state": (1.0, 0.0),
        "plant.m": 10.0, "cost.q": (4.0, 2.0), "cost.r": 0.5,
        "reference.times": (5.0, 10.0), "reference.positions": (1.0, 3.0),
    })
    assert sc.master_seed == 9 and sc.n_neurons == 60 and sc.leak == 0.2
    assert sc.sigma_n == 0.05 and sc.dt == 5e-4 and sc.duration == 20.0
    np.testing.assert_array_equal(sc.x0, [1.0, 0.0])
    assert sc.plant.m == 10.0 and sc.plant.k == 6.0  # other fields kept
    np.testing.assert_array_equal(sc.cost.Q, np.diag([4.0, 2.0]))
    np.testing.assert_array_equal(sc.reference.times, [5.0, 10.0])


def test_apply_config_silencing_toggle():
    on = apply_config(smd_control_scenario(0), {"silencing.enabled": True})
    assert on.name == "silencing" and len(on.silencing) == 3
    # A config file's false, no and off (any case) read as False.
    for cfg in ({"silencing.enabled": False}, parse_config("silencing.enabled = false"),
                parse_config("silencing.enabled = No"), parse_config("silencing.enabled = OFF")):
        off = apply_config(smd_control_scenario(0, with_silencing=True), cfg)
        assert off.name == "smd_control" and off.silencing is None


def test_apply_config_rejections():
    base = smd_control_scenario(0)
    with pytest.raises(ConfigError, match="unknown config key"):
        apply_config(base, {"bogus.key": 1})
    with pytest.raises(ConfigError, match="expects an integer"):
        apply_config(base, {"network.n_neurons": 1.5})
    with pytest.raises(ConfigError, match="not a SmdParams field"):
        apply_config(base, {"plant.length": 1.0})
    with pytest.raises(ConfigError, match="bad plant value"):
        apply_config(base, {"plant.m": -1.0})
    with pytest.raises(ConfigError, match="given together"):
        apply_config(estimation_scenario(0), {"cost.q": (1.0, 1.0)})
    with pytest.raises(ConfigError, match="given together"):
        apply_config(base, {"reference.times": (1.0,)})
    with pytest.raises(ConfigError, match="bad cost value"):
        apply_config(base, {"cost.q": (1.0, 1.0), "cost.r": -1.0})
    with pytest.raises(ConfigError, match="bad config value"):
        apply_config(base, {"integration.dt": -1.0})
    with pytest.raises(ConfigError, match="silencing.enabled expects true/false, got 1"):
        apply_config(base, parse_config("silencing.enabled = 1"))
    with pytest.raises(ConfigError, match="reference.times and reference.positions differ"):
        apply_config(base, parse_config("reference.times = 1, 2\nreference.positions = 3"))
    with pytest.raises(ConfigError, match="noise.sigma_n expects a number, got 'abc'"):
        apply_config(base, parse_config("noise.sigma_n = abc"))


def test_apply_config_cost_partial_update():
    sc = apply_config(smd_control_scenario(0), {"cost.r": 0.5})
    np.testing.assert_array_equal(sc.cost.Q, np.diag([10.0, 1.0]))
    assert sc.cost.R[0, 0] == 0.5


# ---------------------------------------------------------------------------
# command line


def test_cli_estimate_outputs_and_replay(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    argv = ["estimate", "--seed", "7", "--duration", "2", "--out"]
    assert cli_main(argv + [str(d1)]) == 0
    assert cli_main(argv + [str(d2)]) == 0
    names = ["trajectory.csv", "spikes.csv", "summary.json", "weights.json"]
    for name in names:
        assert (d1 / name).is_file()
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    summary = json.loads((d1 / "summary.json").read_text())
    n_spike_rows = len((d1 / "spikes.csv").read_text().splitlines()) - 1
    assert summary["spike_count"] == n_spike_rows
    assert summary["master_seed"] == 7 and summary["duration"] == 2.0


def test_cli_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\nintegration.duration = 1\n")
    out = tmp_path / "out"
    assert cli_main(["estimate", "--config", str(cfg), "--seed", "5",
                     "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["master_seed"] == 5  # flag wins over config
    assert summary["duration"] == 1.0


def test_cli_config_errors_exit_2(tmp_path, capsys, monkeypatch):
    assert cli_main(["estimate", "--config", str(tmp_path / "missing.cfg"),
                     "--out", str(tmp_path / "o")]) == 2
    assert "cannot read config file" in capsys.readouterr().err
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus.key = 1\n")
    assert cli_main(["estimate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
    assert "unknown config key" in capsys.readouterr().err
    # Scenario checks and flag values fail before any output is written.
    short_state = tmp_path / "state.cfg"
    short_state.write_text("initial.state = 1\n")
    for argv, message in (
            (["control", "--neurons", "20", "--duration", "1"], "silencing ids"),
            (["control", "--config", str(short_state)], "x0 has 1 entries"),
            (["cartpole", "--config", str(short_state)], "x0 has 1 entries"),
            (["control", "--neurons", "0"], "at least one neuron"),
            (["estimate", "--dt", "0.5"], "Euler-unstable"),
            (["control", "--duration", "inf"], "duration = inf must be finite"),
            # Runs of zero steps, and seeds that are not nonnegative integers.
            (["control", "--duration", "0.0004"], "duration = 0.0004 is under half"),
            (["cartpole", "--duration", "0.00004"], "duration = 4e-05 is under half"),
            (["sparsity", "--duration", "0.00004"], "duration = 4e-05 is under half"),
            (["estimate", "--duration", "0.0004"], "duration = 0.0004 is under half"),
            (["sweep", "--duration", "0.00004"], "duration = 4e-05 is under half"),
            (["estimate", "--seed", "-1"], "master_seed = -1 must be nonnegative"),
            # A duration whose step count is not finite.
            (["control", "--duration", "1e308"], "duration = 1e+308 is too large"),
            (["estimate", "--duration", "1e308"], "duration = 1e+308 is too large")):
        out = tmp_path / "rejected"
        assert cli_main(argv + ["--out", str(out)]) == 2, argv
        assert message in capsys.readouterr().err, argv
        assert not out.exists(), argv
    for value in ("1.5", "true", "abc"):
        bad_seed = tmp_path / "seed.cfg"
        bad_seed.write_text(f"seed = {value}\n")
        out = tmp_path / "rejected"
        assert cli_main(["estimate", "--config", str(bad_seed), "--out", str(out)]) == 2
        assert "seed expects an integer" in capsys.readouterr().err, value
        assert not out.exists(), value
    # Noise, decoder and leak values set in a config file.
    for line, message in (
            ("noise.sigma_n = 0", "sigma_n = 0 must be finite and positive"),
            ("noise.sigma_n = -0.1", "sigma_n = -0.1 must be finite and positive"),
            ("noise.sigma_d = -0.1", "sigma_d = -0.1 must be finite and nonnegative"),
            ("network.eta_v = -1e-5", "eta_v = -1e-05 must be finite and nonnegative"),
            ("network.leak = -0.1", "leak = -0.1 must be finite and nonnegative"),
            ("network.gamma_x = 0", "gamma_x = 0 must be finite and positive"),
            ("network.gamma_z = 0", "gamma_z = 0 must be finite and positive"),
            ("integration.duration = inf", "duration = inf must be finite"),
            ("noise.sigma_d = nan", "sigma_d = nan must be finite"),
            ("network.eta_v = nan", "eta_v = nan must be finite"),
            ("network.leak = nan", "leak = nan must be finite"),
            ("network.gamma_x = nan", "gamma_x = nan must be finite")):
        bad_value = tmp_path / "value.cfg"
        bad_value.write_text(line + "\n")
        out = tmp_path / "rejected"
        assert cli_main(["control", "--config", str(bad_value), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()
    # Sweep noise values are the cells' sigma_n; a bad one fails before the
    # output directory is made.
    for line, message in (
            ("sweep.noise_grid = 0, -0.01", "noise_grid entry 0 must be finite and positive"),
            ("sweep.noise_grid = -0.01", "noise_grid entry -0.01 must be finite"),
            ("sweep.noise_grid = 0.001, nan", "noise_grid entry nan must be finite"),
            ("sweep.noise_grid = 0.001, inf", "noise_grid entry inf must be finite"),
            ("sweep.noise_grid = 0.001, low", "noise_grid expects a comma-separated"),
            ("sweep.pulse_grid = 100, big", "pulse_grid expects a comma-separated"),
            ("sweep.pulse_grid = nan, inf", "pulse_grid entry nan must be finite"),
            ("sweep.pulse_grid = 100, -inf", "pulse_grid entry -inf must be finite")):
        bad_grid = tmp_path / "grid.cfg"
        bad_grid.write_text(line + "\n")
        out = tmp_path / "no_sweep"
        assert cli_main(["sweep", "--config", str(bad_grid), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
    # Empty lists, keys the estimation scenario does not use, and a cost that
    # does not fit the plant all fail before the output directory is made.
    for command, text, message in (
            ("sweep", "sweep.noise_grid = ,", "sweep.noise_grid is an empty list"),
            ("sweep", "sweep.pulse_grid = ,", "sweep.pulse_grid is an empty list"),
            ("sparsity", "sparsity.lambdas = ,", "sparsity.lambdas is an empty list"),
            ("control", "reference.times = ,\nreference.positions = ,",
             "reference.times is an empty list"),
            ("control", "initial.state = ,", "initial.state is an empty list"),
            ("control", "cost.q = ,", "cost.q is an empty list"),
            ("estimate", "cost.q = 1, 1\ncost.r = 1", "takes no cost"),
            ("export-weights", "scenario = estimation\ncost.q = 1, 1\ncost.r = 1",
             "takes no cost"),
            ("estimate", "silencing.enabled = true\nnetwork.n_neurons = 50",
             "takes no silencing"),
            ("estimate", "pulse.magnitude = 100", "takes no pulse"),
            ("estimate", "reference.times = 1\nreference.positions = 2",
             "takes no reference"),
            ("estimate", "network.gamma_z = 0.5", "takes no gamma_z"),
            ("export-weights", "scenario = estimation\nnetwork.gamma_z = 0.5",
             "takes no gamma_z"),
            ("control", "sweep.noise_grid = 0.01",
             "sweep.noise_grid is used only by the sweep subcommand, not by control"),
            ("control", "sparsity.lambdas = 5",
             "sparsity.lambdas is used only by the sparsity subcommand"),
            ("estimate", "sweep.pulse_grid = 100, 200", "sweep.pulse_grid is used only"),
            ("cartpole", "sweep.noise_grid = 0.01", "sweep.noise_grid is used only"),
            ("export-weights", "sparsity.lambdas = 1", "sparsity.lambdas is used only"),
            ("sparsity", "sweep.noise_grid = 0.01", "sweep.noise_grid is used only"),
            ("sweep", "sparsity.lambdas = 0, 1", "sparsity.lambdas is used only"),
            ("control", "cost.q = 1, 1, 1", "cost Q is 3x3, but the SmdParams plant"),
            ("sweep", "cost.q = 1, 1, 1", "cost Q is 3x3, but the SmdParams plant"),
            ("cartpole", "cost.q = 1, 1", "cost Q is 2x2, but the CartpoleParams plant"),
            ("export-weights", "scenario = cartpole\ncost.q = 1, 1",
             "cost Q is 2x2, but the CartpoleParams plant"),
            # Non-finite schedule, start and cost values, and an eta_v whose
            # square overflows.
            ("control", "pulse.onset = nan", "pulse onset = nan must be finite"),
            ("sweep", "pulse.onset = nan", "pulse onset = nan must be finite"),
            ("control", "pulse.magnitude = nan\npulse.onset = 0.1",
             "pulse magnitude = nan must be finite"),
            ("cartpole", "pulse.duration = inf", "pulse duration = inf must be finite"),
            ("control", "reference.positions = nan, 1\nreference.times = 1, 2",
             "reference values must be finite, got nan"),
            ("control", "reference.times = 0.05, nan\nreference.positions = 1, 2",
             "reference times must be finite, got nan"),
            ("control", "initial.state = nan, 0", "x0 = [nan, 0.0] must be finite"),
            ("estimate", "initial.state = 1, inf", "x0 = [1.0, inf] must be finite"),
            ("control", "cost.q = inf, 1", "cost Q must be finite"),
            ("cartpole", "cost.r = nan", "cost R must be finite"),
            ("control", "network.eta_v = 1e300", "eta_v = 1e+300 is too large"),
            # Each leak of a sparsity run obeys network.leak's rules, and each
            # plant parameter must be finite.
            ("sparsity", "sparsity.lambdas = nan",
             "sparsity.lambdas entry nan: leak = nan must be finite and nonnegative"),
            ("sparsity", "sparsity.lambdas = 0, -1",
             "sparsity.lambdas entry -1: leak = -1 must be finite and nonnegative"),
            ("sparsity", "sparsity.lambdas = 1e5",
             "sparsity.lambdas entry 100000: dt*leak = 10 must be below 1"),
            ("control", "plant.m = nan", "plant m = nan must be finite"),
            ("control", "plant.k = inf", "plant k = inf must be finite"),
            ("cartpole", "plant.L = nan", "plant L = nan must be finite"),
            # Each plant and pulse sign rule names its key and value.
            ("control", "plant.m = -1", "plant m = -1 must be finite and positive"),
            ("control", "plant.c = -1", "plant c = -1 must be finite and nonnegative"),
            ("cartpole", "plant.L = 0", "plant L = 0 must be finite and positive"),
            ("sweep", "pulse.duration = 0", "pulse duration = 0 must be finite and positive"),
            ("sweep", "pulse.onset = -1", "pulse onset = -1 must be finite and nonnegative"),
            # A duration or decoder norm too large for its derived values.
            ("control", "integration.duration = 1e308",
             "duration = 1e+308 is too large: its step count, duration / dt, is not finite"),
            ("cartpole", "integration.duration = 1e308", "duration = 1e+308 is too large"),
            ("control", "network.gamma_x = 1e160",
             "gamma_x = 1e+160 is too large: the spike thresholds"),
            ("control", "network.gamma_z = 1e160",
             "gamma_z = 1e+160 is too large: the spike thresholds"),
            ("estimate", "network.gamma_x = 1e160", "gamma_x = 1e+160 is too large"),
            ("export-weights", "network.gamma_z = 1e160", "gamma_z = 1e+160 is too large"),
            # The default leaks are checked too: at dt = 0.1 a leak of 10 is unstable.
            ("sparsity", "integration.dt = 0.1",
             "sparsity.lambdas entry 10: dt*leak = 1 must be below 1")):
        bad = tmp_path / "bad_list.cfg"
        bad.write_text(text + "\n")
        out = tmp_path / "not_made"
        assert cli_main([command, "--config", str(bad), "--out", str(out)]) == 2, text
        assert message in capsys.readouterr().err, text
        assert not out.exists(), text
    # An --out that cannot be made a directory fails before any run: one line
    # naming the path, and nothing created.
    def never(*args):
        raise AssertionError("ran despite a bad --out")

    for name in ("run_control", "run_robustness_sweep", "build_network"):
        monkeypatch.setattr(experiments, name, never)
    blocker = tmp_path / "file"
    blocker.write_text("")
    before = sorted(tmp_path.rglob("*"))
    for command, out in (("control", blocker / "out"), ("sweep", blocker / "a" / "b"),
                         ("export-weights", blocker)):
        assert cli_main([command, "--out", str(out)]) == 2, command
        assert capsys.readouterr().err == (
            f"error: --out {out}: {blocker} is not a writable directory\n"), command
        assert sorted(tmp_path.rglob("*")) == before and blocker.read_text() == ""


def test_cli_runtime_failure_exits_1(tmp_path, capsys):
    # One neuron cannot balance the cartpole; the pole drop is a runtime
    # error, not a usage error.
    code = cli_main(["cartpole", "--neurons", "1", "--duration", "8",
                     "--out", str(tmp_path / "o")])
    assert code == 1
    assert "pole dropped" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # a run that fails writes nothing


def test_cli_run_out_of_memory_exits_1(tmp_path, capsys, monkeypatch):
    # A run too large to allocate is a run's failure: one line, exit 1.
    message = ("Unable to allocate 14.2 PiB for an array with shape "
               "(1000000000000000, 2) and data type float64")

    def huge(sc):
        raise MemoryError(message)

    monkeypatch.setattr(experiments, "run_control", huge)
    code = cli_main(["control", "--duration", "1e12", "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_cli_spike_times_are_trajectory_times(tmp_path):
    out = tmp_path / "c"
    assert cli_main(["control", "--duration", "2", "--out", str(out)]) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    assert len(rows) == 2000  # stride 1
    times = {row.split(",", 1)[0] for row in rows}
    spikes = [row.split(",")[0] for row in (out / "spikes.csv").read_text().splitlines()[1:]]
    assert spikes and set(spikes) <= times


def test_cli_sweep_outputs(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    # A 1e308 N pulse overflows the error sums: that column fails.
    cfg.write_text("sweep.noise_grid = 0.001, 0.01\n"
                   "sweep.pulse_grid = 100, 200, 1e308\n"
                   "pulse.onset = 0.3\n"
                   "integration.duration = 1\n")
    out = tmp_path / "out"
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("scn_mae", "oracle_mae", "scn_rmse", "oracle_rmse"):
        lines = (out / f"{name}.csv").read_text().splitlines()
        assert len(lines) == 3 and len(lines[1].split(",")) == 4
        assert [line.split(",")[3] for line in lines[1:]] == ["nan", "nan"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["noise_grid"] == [0.001, 0.01]
    assert [cell[:2] for cell in summary["failed_cells"]] == [[0, 2], [1, 2]]
    assert all("not finite" in cell[2] for cell in summary["failed_cells"])
    # No cell steps the nominal-noise network; export-weights writes it.
    assert not (out / "weights.json").exists()
    # A single value on each axis is a 1 x 1 sweep.
    cfg.write_text("sweep.noise_grid = 0.01\nsweep.pulse_grid = 100\n"
                   "pulse.onset = 0.1\nintegration.duration = 0.3\n")
    out = tmp_path / "one_cell"
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("scn_mae", "oracle_mae", "scn_rmse", "oracle_rmse"):
        lines = (out / f"{name}.csv").read_text().splitlines()
        assert lines[0] == "sigma_n\\pulse,100.0"
        assert len(lines) == 2 and lines[1].startswith("0.01,")
        assert math.isfinite(float(lines[1].split(",")[1]))
    summary = json.loads((out / "summary.json").read_text())
    assert summary["noise_grid"] == [0.01] and summary["pulse_grid"] == [100.0]
    assert summary["failed_cells"] == []


def test_cli_sweep_divergence_is_quiet(tmp_path, capsys):
    # The 1e-7 row diverges mid-run under the 1e308 pulse, and the 0.01 row's
    # errors overflow. Both are reported cells: no numpy warning leaks.
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text("sweep.noise_grid = 1e-7, 0.01\n"
                   "sweep.pulse_grid = 100, 1e308\n"
                   "pulse.onset = 0.1\npulse.duration = 0.8\n"
                   "integration.duration = 1\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failed_cells"] == [
        [0, 1, "network diverged at step 4327 (t=0.4327)"],
        [1, 1, "position errors overflow: MAE/RMSE not finite"]]


def test_cli_sparsity_outputs(tmp_path):
    cfg = tmp_path / "sparsity.cfg"
    cfg.write_text("sparsity.lambdas = 0.5, 2\nintegration.duration = 1\n")
    out = tmp_path / "out"
    assert cli_main(["sparsity", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["lambdas"] == [0.5, 2.0]
    assert len(summary["spike_counts"]) == 2
    for lam in ("0.5", "2"):
        sub = out / f"lambda_{lam}"
        for name in ("trajectory.csv", "spikes.csv", "summary.json",
                     "weights.json"):
            assert (sub / name).is_file()


def test_cli_sparsity_refuses_leaks_that_share_a_directory(tmp_path, capsys, monkeypatch):
    # Each leak writes into lambda_{leak:g}, which keeps six significant
    # digits, so two leaks that print alike would write one directory, the
    # second run over the first. That is refused before any run.
    def never(*args):
        raise AssertionError("ran despite two leaks sharing a directory")

    monkeypatch.setattr(experiments, "run_sparsity", never)
    cfg, out = tmp_path / "sparsity.cfg", tmp_path / "out"
    for lambdas, shared in (("1, 1.0000001", "lambda_1"), ("1, 1", "lambda_1"),
                            ("0.5, 2, 0.50000001", "lambda_0.5")):
        cfg.write_text(f"sparsity.lambdas = {lambdas}\n")
        assert cli_main(["sparsity", "--config", str(cfg), "--out", str(out)]) == 2, lambdas
        assert capsys.readouterr().err == (
            f"error: sparsity.lambdas: two leaks share the output directory {shared}\n")
        assert not out.exists(), lambdas


def test_cli_export_weights_roundtrip(tmp_path):
    cfg = tmp_path / "export.cfg"
    cfg.write_text("scenario = estimation\nseed = 3\n")
    out = tmp_path / "out"
    assert cli_main(["export-weights", "--config", str(cfg),
                     "--out", str(out)]) == 0
    loaded = load_weights(out / "weights.json")
    _, built = build_network(estimation_scenario(3))
    assert loaded.mode == "estimator"
    np.testing.assert_array_equal(loaded.decoder_x.values,
                                  built.decoder_x.values)
    # The dense slow weights D'MD, expanded from each side's factors.
    D, Dl = built.decoders, loaded.decoders
    np.testing.assert_array_equal(Dl.T @ loaded.recurrent @ Dl,
                                  D.T @ built.recurrent @ D)


def test_cli_export_weights_grows_as_n_times_k(tmp_path):
    out = tmp_path / "out"
    assert cli_main(["export-weights", "--neurons", "2000", "--out", str(out)]) == 0
    assert (out / "weights.json").stat().st_size < 1_000_000
    assert load_weights(out / "weights.json").n_neurons == 2000


def test_cli_export_weights_rejects_unknown_scenario(tmp_path, capsys):
    cfg = tmp_path / "export.cfg"
    cfg.write_text("scenario = nonesuch\n")
    assert cli_main(["export-weights", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
    assert "scenario must be one of" in capsys.readouterr().err
