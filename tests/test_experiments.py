"""Scenario runners, file formats, config handling, and the CLI."""

import json
import math
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from spikecontrol import (CARTPOLE_UP, CartpoleParams, ConfigError,
                          LinearSystem, LqrCost, NetworkDivergedError,
                          ReferenceSchedule, Scenario, SmdParams, StreamLabel,
                          apply_config, build_controller, build_estimator,
                          build_network, cartpole_scenario, decode,
                          estimation_scenario, experiments, kalman_gain,
                          load_config, load_weights, lqr_gain, make_rng,
                          network_step, new_state, parse_config,
                          robustness_scenario, run_cartpole, run_control,
                          run_estimation, run_robustness_sweep,
                          sample_decoder, smd_control_scenario, smd_system,
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
            sq.append(np.sum((x - decode(w, st).x_hat) ** 2))
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

    for name in ("network_step", "lqg_step", "cartpole_dynamics"):
        monkeypatch.setattr(experiments, name,
                            counting(name, getattr(experiments, name)))

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


def test_control_requires_cost_and_reference():
    sc = estimation_scenario(0)
    with pytest.raises(ValueError, match="cost and a reference"):
        run_control(sc)


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


@pytest.mark.parametrize("stride", [1, 10])
def test_trajectory_csv_bytes_match_per_float_repr(tmp_path, stride):
    # 10 613 rows: 20.7 blocks of 512 written rows at stride 1, 2.07 at 10.
    n = 10_613
    rng = np.random.default_rng(5)
    special = [-0.0, 5e-324, 1e22, 0.1 + 0.2, np.inf, -np.inf, np.nan, 0.0]

    def column(width):
        arr = rng.standard_normal((n, width)) * 10.0 ** rng.integers(-300, 300, (n, width))
        arr.flat[rng.choice(arr.size, 40 * len(special))] = np.repeat(special, 40)
        return arr

    traj = experiments.Trajectory(
        time=np.arange(n) * 1e-3, x=column(2), y=column(1), x_hat=column(2),
        oracle_x_hat=column(2), z_hat=column(2), u=column(1), z=column(2),
        oracle_u=column(1), oracle_x=column(2))
    traj.x[:len(special), 0] = special  # in the first and the last block
    traj.x[-len(special):, 1] = special
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_trajectory(traj, got, stride=stride)
    _write_trajectory_per_float(traj, want, stride)
    header, body = got.read_bytes().split(b"\n", 1)
    assert header.startswith(b"time,x1,x2,y1,")
    assert body == want.read_bytes()
    assert body.count(b"\n") == (n + stride - 1) // stride


def test_voltage_rows_are_scaled_noise_source_blocks(monkeypatch):
    # `_voltage_rows` draws blocks of at most 1 MiB: 2621 rows at N=50, so
    # 16 484 steps cross six block boundaries, and 65 rows at N=2000, so 200
    # steps cross three. Every row equals one draw of all n rows.
    drawn = []
    sample_block = experiments.NoiseSource.sample_block

    def recording(self, k):
        drawn.append((self.dim, k))
        return sample_block(self, k)

    monkeypatch.setattr(experiments.NoiseSource, "sample_block", recording)
    for n_neurons, n, per_block in ((50, 16_484, 2621), (2000, 200, 65)):
        sc = replace(smd_control_scenario(3), n_neurons=n_neurons, duration=n * 1e-3)
        assert sc.n_steps == n
        drawn.clear()
        _, _, rows = experiments._noise_rows(sc, build_network(sc)[0])
        got = np.array(list(rows))
        blocks = [k for dim, k in drawn if dim == n_neurons]
        assert blocks == [per_block] * (n // per_block) + [n % per_block], n_neurons
        assert per_block * n_neurons * 8 <= 1 << 20 < (per_block + 1) * n_neurons * 8
        src = experiments.NoiseSource(sc.eta_v ** 2, sc.n_neurons, sc.master_seed,
                                      experiments.StreamLabel.VOLTAGE)
        want = np.sqrt(sc.dt) * src.sample_block(n)
        assert np.array_equal(got, want), n_neurons
        assert np.array_equal(np.signbit(got), np.signbit(want)), n_neurons


def test_spike_csv_roundtrip(tmp_path, est_short):
    path = tmp_path / "spikes.csv"
    write_spikes(est_short, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "time,neuron"
    assert len(lines) == 1 + est_short.spike_count
    t0, j0 = lines[1].split(",")
    assert (float(t0), int(j0)) == est_short.spikes[0]


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
    assert res.meta["noise_grid"] == [0.001, 0.01]
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=f"pulse_grid entry {bad:g} must be finite"):
            run_robustness_sweep(sc, noise_grid=[0.001], pulse_grid=[100.0, bad])


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
    # The sweep scales unit draws made once per sweep; each cell must see the
    # rows `_noise_rows` would draw for that cell's scenario, up to rounding.
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
            got, want = positions[:-1, col], getattr(ref, name)[1:, 0]
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _match_closed_loop(monkeypatch, sc, noise_grid, pulse_grid):
    """Run the sweep and require each lockstep cell to equal `_closed_loop`
    run alone on that cell's rows, each stream's rows drawn in one piece and
    scaled whole. Returns (sweep result, number of lockstep batches, messages
    of the cells that diverged)."""
    res, cells, batches = _lockstep_cells(monkeypatch, sc, noise_grid, pulse_grid)
    assert len(cells) == len(noise_grid) * len(pulse_grid)

    system = experiments._linear_system(sc)
    kc = lqr_gain(system.A, system.B, sc.cost.Q, sc.cost.R)
    dec_x, dec_z = experiments._decoders(sc, 2, need_z=True)
    n, dt = sc.n_steps, sc.dt
    z, zdot = sc.reference.sample_grid(n, dt)
    unit = {label: make_rng(sc.master_seed, label).standard_normal((n, dim))
            for label, dim in ((StreamLabel.DISTURBANCE, 2), (StreamLabel.SENSOR, 1),
                               (StreamLabel.VOLTAGE, sc.n_neurons))}
    w = np.sqrt(dt * sc.sigma_d) * unit[StreamLabel.DISTURBANCE]
    e_unit = unit[StreamLabel.SENSOR]
    eta = np.sqrt(dt) * sc.eta_v * unit[StreamLabel.VOLTAGE]
    messages = []
    cell = iter(cells)
    for sn in noise_grid:
        kf = kalman_gain(system.A, system.C, system.sigma_d, sn * np.eye(1))
        net = (system, kf, kc, build_controller(system, kf, kc, dec_x, dec_z, sc.leak))
        for m in pulse_grid:
            pulse = replace(sc.pulse, magnitude=m).profile(np.arange(n) * dt)
            run = next(cell)
            try:
                traj, x_end, xo_end = experiments._closed_loop(
                    sc, net, (w, np.sqrt(sn) * e_unit, eta), (z, zdot, pulse))
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
    off = apply_config(smd_control_scenario(0, with_silencing=True),
                       {"silencing.enabled": False})
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


def test_cli_config_errors_exit_2(tmp_path, capsys):
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
            (["estimate", "--seed", "-1"], "master_seed = -1 must be nonnegative")):
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
            ("cartpole", "plant.L = nan", "plant L = nan must be finite")):
        bad = tmp_path / "bad_list.cfg"
        bad.write_text(text + "\n")
        out = tmp_path / "not_made"
        assert cli_main([command, "--config", str(bad), "--out", str(out)]) == 2, text
        assert message in capsys.readouterr().err, text
        assert not out.exists(), text


def test_cli_runtime_failure_exits_1(tmp_path, capsys):
    # One neuron cannot balance the cartpole; the pole drop is a runtime
    # error, not a usage error.
    code = cli_main(["cartpole", "--neurons", "1", "--duration", "8",
                     "--out", str(tmp_path / "o")])
    assert code == 1
    assert "pole dropped" in capsys.readouterr().err


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
    assert (out / "weights.json").is_file()
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
