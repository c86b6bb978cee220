"""Seeded experiment scenarios, runners, and output writers.

Every run is a pure function of (Scenario, master_seed): noise is drawn from
labelled streams, the spiking network and the ideal LQG loop consume the same
disturbance/sensor realizations, and all outputs (trajectory, raster, summary)
replay bit-for-bit under the same seed.

`run_control` and `run_cartpole` run through one closed-loop kernel,
`_closed_loop`, and `run_robustness_sweep` steps its cells through
`_lockstep`, the same loop on a stack of cells; `run_estimation` is the
open-loop counterpart. Trajectory row convention: row i carries time
t_i = i*dt, the plant state *before* the step, the observation consumed during
the step, and the decodes (x_hat, z_hat, u) *after* the step — i.e. the
estimate that has absorbed y_i and the control that drove the plant from t_i
to t_{i+1}. The oracle columns follow the same alignment. Plant states are
recorded in the network's coordinates, about the plant's equilibrium: the
cartpole's pole angle column is theta - pi.
"""

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .lqg import LqgState, estimator_step, lqg_step
from .plants import (CARTPOLE_UP, CartpoleParams, PulseSchedule, SmdParams,
                     cartpole_dynamics, cartpole_linearize_up, smd_system)
from .riccati import LqrCost, kalman_gain, lqr_gain
from .scn import (NetworkDivergedError, build_controller, build_estimator,
                  new_state, network_step, sample_decoder, silence)
from .state_space import LinearSystem, NoiseSource, StreamLabel, make_rng


class PoleDroppedError(RuntimeError):
    pass


SCENARIO_NAMES = ("estimation", "smd_control", "silencing", "robustness_sweep",
                  "cartpole", "sparsity")

DEFAULT_LAMBDAS = (0.0, 1.0, 10.0)
DEFAULT_NOISE_GRID = tuple(np.logspace(-5, -1, 10))
DEFAULT_PULSE_GRID = tuple(np.linspace(100.0, 900.0, 10))
DEFAULT_SILENCING = ((10.0, tuple(range(0, 15))), (26.6, tuple(range(15, 30))),
                     (43.3, tuple(range(30, 45))))


@dataclass
class ReferenceSchedule:
    """Piecewise-constant target states: values[i] holds from times[i] onward.

    Before times[0] the reference is the zero state. `sample_grid` returns the
    reference on the integration grid together with its forward-difference
    derivative, so a stair step appears as a single one-step kick in zdot.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.atleast_1d(np.asarray(self.times, dtype=float))
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if self.times.ndim != 1 or len(self.times) != len(self.values):
            raise ValueError("need one value row per schedule time")
        for key, value in (("times", self.times), ("values", self.values)):
            bad = value[~np.isfinite(value)]
            if bad.size:
                raise ValueError(f"reference {key} must be finite, got {bad[0]:g}")
        if len(self.times) > 1 and np.diff(self.times).min() <= 0:
            raise ValueError("schedule times must be strictly increasing")

    @property
    def state_dim(self):
        return self.values.shape[1]

    def sample_grid(self, n: int, dt: float):
        tgrid = np.arange(n) * dt
        idx = np.searchsorted(self.times, tgrid + 1e-9, side="right")
        extended = np.vstack([np.zeros((1, self.state_dim)), self.values])
        z = extended[idx]
        zdot = np.zeros_like(z)
        zdot[:-1] = (z[1:] - z[:-1]) / dt
        return z, zdot


def stair_reference(positions, times, state_dim: int) -> ReferenceSchedule:
    """Stair on the position component (index 0), zeros elsewhere."""
    positions = np.asarray(positions, dtype=float)
    values = np.zeros((len(positions), state_dim))
    values[:, 0] = positions
    return ReferenceSchedule(times=np.asarray(times, dtype=float), values=values)


@dataclass
class Scenario:
    name: str
    plant: object
    n_neurons: int
    gamma_x: float
    leak: float
    eta_v: float
    sigma_d: float
    sigma_n: float
    dt: float
    duration: float
    master_seed: int
    x0: np.ndarray
    gamma_z: float = None
    cost: LqrCost = None
    reference: ReferenceSchedule = None
    silencing: list = None          # [(time, (neuron ids...)), ...]
    pulse: PulseSchedule = None

    def __post_init__(self):
        if self.name not in SCENARIO_NAMES:
            raise ValueError(f"unknown scenario name {self.name!r}")
        if self.name == "estimation":  # run_estimation runs no controller
            for key in ("gamma_z", "cost", "reference", "pulse", "silencing"):
                if getattr(self, key) is not None:
                    raise ValueError(f"the estimation scenario takes no {key}")
        positive = ["dt", "duration", "sigma_n", "gamma_x"]
        if self.gamma_z is not None:
            positive.append("gamma_z")
        for key in positive + ["sigma_d", "eta_v", "leak"]:
            value = getattr(self, key)
            sign_ok = value > 0 if key in positive else value >= 0
            if not (math.isfinite(value) and sign_ok):
                kind = "positive" if key in positive else "nonnegative"
                raise ValueError(f"{key} = {value:g} must be finite and {kind}")
        if not math.isfinite(self.eta_v * self.eta_v):
            raise ValueError(f"eta_v = {self.eta_v:g} is too large: its square, the "
                             "voltage-noise variance, is not finite")
        if self.n_steps < 1:
            raise ValueError(f"duration = {self.duration:g} is under half of dt = "
                             f"{self.dt:g}, so the run has no steps")
        if self.master_seed < 0:
            raise ValueError(f"master_seed = {self.master_seed} must be nonnegative")
        if self.n_neurons < 1:
            raise ValueError("need at least one neuron")
        if self.dt * self.leak >= 1:
            raise ValueError(f"dt*leak = {self.dt * self.leak:.4g} must be below 1, "
                             "or the network's Euler step is unstable")
        A, B, _ = _plant_matrices(self.plant)
        rho = np.abs(np.linalg.eigvals(np.eye(len(A)) + self.dt * A)).max()
        if rho >= 1 and np.linalg.eigvals(A).real.max() < 0:
            raise ValueError(f"dt={self.dt:g} is Euler-unstable for the stable "
                             f"plant: spectral radius of I + dt*A is {rho:.4g}")
        self.x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        state_dim = A.shape[0]
        if self.x0.size != state_dim:
            raise ValueError(f"x0 has {self.x0.size} entries, but the "
                             f"{type(self.plant).__name__} state has {state_dim}")
        if not np.isfinite(self.x0).all():
            raise ValueError(f"x0 = {self.x0.tolist()} must be finite")
        if self.cost is not None:
            for key, dim in (("Q", state_dim), ("R", B.shape[1])):
                shape = getattr(self.cost, key).shape
                if shape != (dim, dim):
                    raise ValueError(f"cost {key} is {shape[0]}x{shape[1]}, but the "
                                     f"{type(self.plant).__name__} plant needs {dim}x{dim}")
        if self.silencing:
            self.silencing = sorted(
                (float(t), tuple(int(i) for i in ids)) for t, ids in self.silencing
            )
            if not all(math.isfinite(t) for t, _ in self.silencing):
                raise ValueError("silencing times must be finite")
            ids = [i for _, block in self.silencing for i in block]
            if ids and not (0 <= min(ids) and max(ids) < self.n_neurons):
                raise ValueError(f"silencing ids {min(ids)}..{max(ids)} are out of "
                                 f"range for n_neurons={self.n_neurons}")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))


def estimation_scenario(master_seed: int = 0) -> Scenario:
    """Passive SMD observed through noisy position; network estimates state."""
    return Scenario(
        name="estimation", plant=SmdParams(m=3.0, k=5.0, c=0.5), n_neurons=20,
        gamma_x=0.1, leak=0.1, eta_v=1e-5, sigma_d=0.001, sigma_n=0.001,
        dt=1e-3, duration=50.0, master_seed=master_seed, x0=[1.0, 0.0],
    )


def smd_control_scenario(master_seed: int = 0, with_silencing: bool = False) -> Scenario:
    """SMD position driven up a stair of setpoints; optional neuron kills."""
    silencing = list(DEFAULT_SILENCING) if with_silencing else None
    return Scenario(
        name="silencing" if with_silencing else "smd_control",
        plant=SmdParams(m=20.0, k=6.0, c=2.0), n_neurons=50,
        gamma_x=0.1, gamma_z=0.1, leak=0.1, eta_v=1e-5, sigma_d=0.1, sigma_n=0.1,
        cost=LqrCost(Q=np.diag([10.0, 1.0]), R=[[1e-2]]),
        reference=stair_reference([2.0, 4.0, 6.0, 8.0], [10.0, 20.0, 30.0, 40.0], 2),
        silencing=silencing, dt=1e-3, duration=50.0, master_seed=master_seed,
        x0=[0.0, 0.0],
    )


def robustness_scenario(master_seed: int = 0) -> Scenario:
    """Hold-at-setpoint SMD run hit by a force pulse; swept over noise/pulse."""
    return Scenario(
        name="robustness_sweep", plant=SmdParams(m=3.0, k=5.0, c=0.5),
        n_neurons=50, gamma_x=0.1, gamma_z=0.1, leak=0.1, eta_v=1e-5,
        sigma_d=0.001, sigma_n=0.001,
        cost=LqrCost(Q=np.diag([10.0, 1.0]), R=[[1e-2]]),
        reference=ReferenceSchedule(times=[0.0], values=[[1.0, 0.0]]),
        pulse=PulseSchedule(onset=2.5, duration=0.2, magnitude=0.0),
        dt=1e-4, duration=5.0, master_seed=master_seed, x0=[1.0, 0.0],
    )


def cartpole_scenario(master_seed: int = 0, step_height: float = 1.0) -> Scenario:
    """Nonlinear cartpole balanced about theta=pi while the cart climbs a stair."""
    levels = [step_height * (i + 1) for i in range(4)]
    return Scenario(
        name="cartpole", plant=CartpoleParams(), n_neurons=100,
        gamma_x=0.01, gamma_z=0.01, leak=0.1, eta_v=1e-5, sigma_d=1e-7, sigma_n=1e-7,
        cost=LqrCost(Q=np.diag([1.0, 1.0, 10.0, 1.0]), R=[[1e-2]]),
        reference=stair_reference(levels, [10.0, 20.0, 30.0, 40.0], 4),
        dt=1e-4, duration=50.0, master_seed=master_seed, x0=CARTPOLE_UP,
    )


def sparsity_scenario(master_seed: int = 0, leak: float = 1.0) -> Scenario:
    """Large-decoder SMD control run used to count spikes as the leak varies."""
    return Scenario(
        name="sparsity", plant=SmdParams(m=20.0, k=6.0, c=2.0), n_neurons=50,
        gamma_x=1.0, gamma_z=1.0, leak=leak, eta_v=1e-6, sigma_d=0.001,
        sigma_n=0.001, cost=LqrCost(Q=np.diag([10.0, 1.0]), R=[[1e-2]]),
        reference=stair_reference([6.0, 12.0, 18.0, 24.0], [2.0, 4.0, 6.0, 8.0], 2),
        dt=1e-4, duration=10.0, master_seed=master_seed, x0=[0.0, 0.0],
    )


@dataclass
class Trajectory:
    time: np.ndarray
    x: np.ndarray
    y: np.ndarray
    x_hat: np.ndarray
    oracle_x_hat: np.ndarray
    z_hat: np.ndarray = None
    u: np.ndarray = None
    z: np.ndarray = None
    oracle_u: np.ndarray = None
    oracle_x: np.ndarray = None
    spikes: list = field(default_factory=list)
    silence_events: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def spike_count(self) -> int:
        return len(self.spikes)


@dataclass
class SweepResult:
    noise_grid: np.ndarray
    pulse_grid: np.ndarray
    scn_mae: np.ndarray
    oracle_mae: np.ndarray
    scn_rmse: np.ndarray
    oracle_rmse: np.ndarray
    failed_cells: list
    meta: dict


@dataclass
class SparsityResult:
    lambdas: list
    spike_counts: list
    trajectories: list


def _plant_matrices(plant):
    """(A, B, C) of the plant, linearized about its equilibrium."""
    if isinstance(plant, SmdParams):
        return smd_system(plant)
    if isinstance(plant, CartpoleParams):
        return cartpole_linearize_up(plant)
    raise TypeError(f"unsupported plant {type(plant).__name__}")


def _linear_system(sc: Scenario) -> LinearSystem:
    A, B, C = _plant_matrices(sc.plant)
    return LinearSystem(A=A, B=B, C=C,
                        sigma_d=sc.sigma_d * np.eye(A.shape[0]),
                        sigma_n=sc.sigma_n * np.eye(C.shape[0]))


def _decoders(sc: Scenario, state_dim: int, need_z: bool):
    rng = make_rng(sc.master_seed, StreamLabel.DECODER)
    dec_x = sample_decoder(state_dim, sc.n_neurons, sc.gamma_x, rng=rng)
    if not need_z:
        return dec_x, None
    gamma_z = sc.gamma_z if sc.gamma_z is not None else sc.gamma_x
    dec_z = sample_decoder(state_dim, sc.n_neurons, gamma_z, rng=rng)
    return dec_x, dec_z


def _network(sc: Scenario):
    """(system, K_f, K_c, weights) of the scenario; K_c is None and the
    network an estimator when the scenario has no cost."""
    system = _linear_system(sc)
    kf = kalman_gain(system.A, system.C, system.sigma_d, system.sigma_n)
    if sc.cost is None:
        dec_x, _ = _decoders(sc, system.state_dim, need_z=False)
        return system, kf, None, build_estimator(system, kf, dec_x, sc.leak)
    kc = lqr_gain(system.A, system.B, sc.cost.Q, sc.cost.R)
    dec_x, dec_z = _decoders(sc, system.state_dim, need_z=True)
    return system, kf, kc, build_controller(system, kf, kc, dec_x, dec_z, sc.leak)


def build_network(sc: Scenario):
    """Construct the scenario's network; returns (system, weights)."""
    system, _, _, weights = _network(sc)
    return system, weights


def _noise_rows(sc: Scenario, system: LinearSystem):
    """Per-step (disturbance, sensor, voltage-noise) rows, already scaled;
    the voltage rows come from a generator."""
    dist = NoiseSource(sc.sigma_d, system.state_dim, sc.master_seed,
                       StreamLabel.DISTURBANCE)
    sens = NoiseSource(sc.sigma_n, system.obs_dim, sc.master_seed, StreamLabel.SENSOR)
    volt = NoiseSource(sc.eta_v ** 2, sc.n_neurons, sc.master_seed, StreamLabel.VOLTAGE)
    n, sdt = sc.n_steps, np.sqrt(sc.dt)
    w = dist.sample_block(n)
    w *= sdt
    return w, sens.sample_block(n), _voltage_rows(volt, n, sdt)


def _reference_rows(sc: Scenario):
    """Per-step (z, zdot, pulse force) rows of a closed-loop run; the pulse
    rows are None when the scenario has no pulse."""
    n, dt = sc.n_steps, sc.dt
    z, zdot = sc.reference.sample_grid(n, dt)
    pulse = sc.pulse.profile(np.arange(n) * dt) if sc.pulse is not None else None
    return z, zdot, pulse


def _voltage_rows(src: NoiseSource, n: int, scale):
    """Yield n per-step voltage-noise rows of `src`, each multiplied by
    `scale`, drawn in blocks of about 1 MiB (at least one row) to bound
    memory whatever the population size."""
    block = max(1, (1 << 20) // (8 * src.dim))
    for start in range(0, n, block):
        rows = src.sample_block(min(block, n - start))
        rows *= scale  # in place: a scaled copy beside the block raises peak memory
        yield from rows


def _meta(sc: Scenario, **extra) -> dict:
    out = {
        "scenario": sc.name, "master_seed": sc.master_seed,
        "n_neurons": sc.n_neurons, "dt": sc.dt, "duration": sc.duration,
        "leak": sc.leak, "gamma_x": sc.gamma_x, "gamma_z": sc.gamma_z,
        "sigma_d": sc.sigma_d, "sigma_n": sc.sigma_n, "eta_v": sc.eta_v,
        "artifact_choices": _artifact_choices(sc),
    }
    out.update(extra)
    return out


def _artifact_choices(sc: Scenario) -> dict:
    # Parameters the reference material leaves open; values here are ours.
    out = {"voltage_noise_scaling": "sqrt(dt)"}
    if sc.reference is not None:
        out["reference_times"] = [float(t) for t in sc.reference.times]
        out["reference_positions"] = [float(v) for v in sc.reference.values[:, 0]]
    if sc.pulse is not None:
        out["pulse_onset"] = sc.pulse.onset
        out["pulse_duration"] = sc.pulse.duration
    return out


def run_estimation(sc: Scenario) -> Trajectory:
    """Simulate the noisy plant with u=0 and estimate it with SCN and oracle."""
    if sc.name != "estimation":
        raise ValueError("run_estimation needs an estimation scenario")
    system, kf, _, weights = _network(sc)
    st = new_state(weights)
    est = LqgState(np.zeros(system.state_dim))

    n, dt = sc.n_steps, sc.dt
    w, e, vrows = _noise_rows(sc, system)
    A, C = system.A, system.C
    dxv = weights.decoder_x.values
    u0 = np.zeros(system.input_dim)
    X = np.empty((n, system.state_dim))
    Y = np.empty((n, system.obs_dim))
    XH = np.empty_like(X)
    OXH = np.empty_like(X)
    x = sc.x0.copy()
    for i in range(n):
        y = C.dot(x) + e[i]
        network_step(weights, st, dt, np.concatenate((y, u0)), next(vrows))
        estimator_step(system, kf, est, y, u0, dt)
        X[i] = x
        Y[i] = y
        XH[i] = dxv.dot(st.r)
        OXH[i] = est.x_hat
        x = x + dt * A.dot(x) + w[i]
    return Trajectory(time=np.arange(n) * dt, x=X, y=Y, x_hat=XH,
                      oracle_x_hat=OXH, spikes=list(st.spike_log),
                      meta=_meta(sc))


def _closed_loop(sc: Scenario, net, noise, reference):
    """The spiking controller and the ideal LQG loop on twin plants.

    `net` is (system, K_f, K_c, weights); `noise` holds the (disturbance,
    sensor, voltage) rows and `reference` the (z, zdot, pulse) rows, one per
    step, as the runner prepared them; both loops consume the same rows. The
    plant, start state, step and silencing schedule come from the scenario:
    the linear plant is stepped as x + dt (A x + B u) in network coordinates;
    the cartpole through `cartpole_dynamics`, its network coordinates taken
    about the upright pole, raising PoleDroppedError when a pole falls more
    than 90 degrees. Each step writes what it records in place, into arrays
    made before the loop. Returns (trajectory, final SCN plant state, final
    ideal plant state), the states in network coordinates. Raises
    NetworkDivergedError when a final plant state is not finite.
    """
    system, kf, kc, weights = net
    w, e, eta = noise
    eta = iter(eta)
    z, zdot, pulse = reference
    n, dt = sc.n_steps, sc.dt
    time = np.arange(n) * dt
    # A silencing block applies at the first step whose time is at least its
    # own less 1e-9 s; the schedule ends with a step no run reaches.
    blocks = sc.silencing or []
    steps = np.searchsorted(time, [t - 1e-9 for t, _ in blocks])
    kills = iter([(int(k), ids) for k, (_, ids) in zip(steps, blocks)] + [(n, ())])
    kill_step, kill_ids = next(kills)
    st = new_state(weights)
    est = LqgState(np.zeros(system.state_dim))
    cart = sc.plant if isinstance(sc.plant, CartpoleParams) else None

    A, B, C = system.A, system.B, system.C
    dxv, dzv, r = weights.decoder_x.values, weights.decoder_z.values, st.r
    dt_arr = np.array(dt)  # the same product as a Python float, converted once
    K, P, p = system.state_dim, system.input_dim, system.obs_dim
    # Row i of IN is step i's network input (y, z, zdot); y is written per step.
    IN = np.empty((n, p + 2 * K))
    IN[:, p:p + K], IN[:, p + K:] = z, zdot
    Y = IN[:, :p]
    # Row i of XS/OS is the SCN/ideal plant state before step i; row n is final.
    XS, OS = np.empty((n + 1, K)), np.empty((n + 1, K))
    XS[0] = OS[0] = sc.x0
    XH, ZH, OXH = (np.empty((n, K)) for _ in range(3))
    U, OU = np.empty((n, P)), np.empty((n, P))
    x, xo = XS[0], OS[0]
    for i in range(n):
        while i == kill_step:
            silence(st, kill_ids, time[i])
            kill_step, kill_ids = next(kills)
        ei = e[i]
        dev, devo = (x, xo) if cart is None else (x - CARTPOLE_UP, xo - CARTPOLE_UP)
        np.add(C.dot(dev), ei, out=Y[i])
        network_step(weights, st, dt, IN[i], next(eta))
        xh = dxv.dot(r, out=XH[i])
        zh = dzv.dot(r, out=ZH[i])
        u = np.negative(kc.dot(xh - zh), out=U[i])
        lqg_step(system, kf, kc, est, C.dot(devo) + ei, z[i], dt)
        OXH[i] = est.x_hat
        OU[i] = uo = est.u
        if pulse is not None:
            u, uo = u + pulse[i], uo + pulse[i]
        xn, xon, wi = XS[i + 1], OS[i + 1], w[i]
        if cart is None:
            np.add(x + dt_arr * (A.dot(x) + B.dot(u)), wi, out=xn)
            np.add(xo + dt_arr * (A.dot(xo) + B.dot(uo)), wi, out=xon)
        else:
            np.add(x + dt_arr * cartpole_dynamics(cart, x, u.item(0)), wi, out=xn)
            np.add(xo + dt_arr * cartpole_dynamics(cart, xo, uo.item(0)), wi, out=xon)
            for state, loop in ((xn, ""), (xon, ", ideal loop")):
                if abs(state.item(2) - math.pi) > math.pi / 2:
                    raise PoleDroppedError(
                        f"pole dropped at t={(i + 1) * dt:.4f} s (step {i}{loop})")
        x, xo = xn, xon
    if not (np.isfinite(x).all() and np.isfinite(xo).all()):
        raise NetworkDivergedError(
            f"closed loop diverged: plant state not finite after {n} steps")
    if cart is not None:
        XS -= CARTPOLE_UP
        OS -= CARTPOLE_UP
    traj = Trajectory(time=time, x=XS[:n], y=Y, x_hat=XH, oracle_x_hat=OXH,
                      z_hat=ZH, u=U, z=z, oracle_u=OU, oracle_x=OS[:n],
                      spikes=list(st.spike_log),
                      silence_events=list(st.silence_log), meta=_meta(sc))
    return traj, XS[n], OS[n]


def _lockstep(sc: Scenario, system: LinearSystem, kc, cells, noise, reference):
    """`_closed_loop` of several sweep cells on the linear plant, stepped in
    lockstep, recording only the plant positions the sweep's metrics read.

    `cells` holds each cell's (weights, K_f, sensor-noise scale, pulse
    magnitude), the weights sharing one pair of decoders; `noise` the shared
    (disturbance, unit sensor) rows and an iterator of voltage rows, one taken
    per step, and `reference` the (z, zdot, pulse on) rows. Each step writes
    the cells' network inputs (y, z, zdot) into the rows of one buffer made
    before the loop. Each cell still gets its own `network_step` and
    `lqg_step` call per step. Its SCN and ideal plants are rows 2j and 2j + 1
    of one stacked array, and the observation, decode, readout, pulse, Euler
    step and record are each one operation on all rows: stacked `np.matmul`
    repeats each row's `ndarray.dot` bit for bit, where a 2-D product or
    einsum would not. A cell whose network diverges gets no more network or
    oracle steps; its rows stay in place and keep stepping, unread, so the
    other rows are untouched. The batch ends when no cell is left.

    Returns, per cell, the NetworkDivergedError that ended it, or (positions,
    final, spikes): the (n, 2) SCN and ideal plant positions after each step,
    the (2, K) final plant states and the spike log.
    """
    n, dt = sc.n_steps, sc.dt
    w, e_unit, eta = noise
    z, zdot, pulse_on = reference
    A, B, C = system.A, system.B, system.C
    K, p = system.state_dim, system.obs_dim
    dxv, dzv = cells[0][0].decoder_x.values, cells[0][0].decoder_z.values
    time = np.arange(n) * dt
    kills = list(sc.silencing or [])
    ki = 0
    out = [None] * len(cells)
    live = [(j, weights, new_state(weights), kf, LqgState(np.zeros(system.state_dim)))
            for j, (weights, kf, _, _) in enumerate(cells)]
    # States, inputs and noise rows are column vectors on a leading row axis,
    # so that no product needs a reshape per step.
    w3, e3 = w[:, :, None], e_unit[:, :, None]
    X = np.repeat(sc.x0[None, :, None], 2 * len(cells), axis=0)
    scale = np.repeat([[[s]] for _, _, s, _ in cells], 2, axis=0)
    pulse = np.repeat([[[m]] for _, _, _, m in cells], 2, axis=0)
    U = np.empty((len(X), system.input_dim, 1))
    IN = np.empty((len(cells), p + 2 * K))  # row j: cell j's network input
    positions = np.empty((n, len(X)))
    R = np.array([st.r for _, _, st, _, _ in live])  # row j: cell j's r
    for (_, _, st, _, _), r in zip(live, R):
        st.r = r
    R3 = R[:, :, None]
    for i in range(n):
        t = time[i]
        while ki < len(kills) and t >= kills[ki][0] - 1e-9:
            for _, _, st, _, _ in live:
                silence(st, kills[ki][1], t)
            ki += 1
        Y = (np.matmul(C, X) + scale * e3[i])[:, :, 0]
        zi, etai = z[i], next(eta)
        IN[:, :p], IN[:, p:p + K], IN[:, p + K:] = Y[0::2], zi, zdot[i]
        for cell in tuple(live):
            j, weights, st, kf, est = cell
            try:
                network_step(weights, st, dt, IN[j], etai)
            except NetworkDivergedError as err:
                out[j] = err
                live.remove(cell)
                continue
            lqg_step(system, kf, kc, est, Y[2 * j + 1], zi, dt)
            U[2 * j + 1, :, 0] = est.u
        if not live:
            return out
        U[0::2] = -np.matmul(kc, np.matmul(dxv, R3) - np.matmul(dzv, R3))
        up = U + (pulse if pulse_on[i] else 0.0)
        X = X + dt * (np.matmul(A, X) + np.matmul(B, up)) + w3[i]
        positions[i] = X[:, 0, 0]
    for j, _, st, _, _ in live:
        final = X[2 * j:2 * j + 2, :, 0]
        if np.isfinite(final).all():
            out[j] = (positions[:, 2 * j:2 * j + 2], final, list(st.spike_log))
        else:
            out[j] = NetworkDivergedError(
                f"closed loop diverged: plant state not finite after {n} steps")
    return out


def run_control(sc: Scenario) -> Trajectory:
    """Close the loop on the linear SMD plant with the spiking controller.

    An ideal LQG loop runs on an identical plant copy fed the same noise
    draws, so the two trajectories differ only by the spiking approximation.
    Handles the plain stair scenario, the silencing schedule, and the
    large-decoder sparsity configuration.
    """
    if sc.cost is None or sc.reference is None:
        raise ValueError("control run needs a cost and a reference schedule")
    if not isinstance(sc.plant, SmdParams):
        raise ValueError("run_control integrates the linear plant; "
                         "use run_cartpole for the cartpole")
    net = _network(sc)
    return _closed_loop(sc, net, _noise_rows(sc, net[0]), _reference_rows(sc))[0]


def run_cartpole(sc: Scenario) -> Trajectory:
    """Balance the nonlinear cartpole with the controller built on the
    upright linearization; raises PoleDroppedError when either pole falls
    more than 90 degrees from upright."""
    if sc.name != "cartpole" or not isinstance(sc.plant, CartpoleParams):
        raise ValueError("run_cartpole needs a cartpole scenario")
    if sc.cost is None or sc.reference is None:
        raise ValueError("cartpole run needs a cost and a reference schedule")
    net = _network(sc)
    return _closed_loop(sc, net, _noise_rows(sc, net[0]), _reference_rows(sc))[0]


def run_sparsity(sc: Scenario, lambdas=DEFAULT_LAMBDAS) -> SparsityResult:
    """Re-run the sparsity scenario once per leak value and count spikes."""
    lambdas = list(lambdas)
    if not lambdas:
        raise ValueError("lambdas must be nonempty")
    trajectories = [run_control(replace(sc, leak=float(lam))) for lam in lambdas]
    return SparsityResult(
        lambdas=[float(lam) for lam in lambdas],
        spike_counts=[t.spike_count for t in trajectories],
        trajectories=trajectories,
    )


def run_robustness_sweep(sc: Scenario, noise_grid=None, pulse_grid=None) -> SweepResult:
    """Grid of closed-loop runs over (sensor noise, pulse magnitude), each
    lasting the scenario's duration.

    All cells share the same decoders and the same unit noise draws (scaled
    per cell), so differences across the grid reflect the swept parameters
    rather than sampling luck. The metric per cell is the time-mean absolute
    position error |x1 - z1| after each step (RMSE is recorded alongside). A
    cell whose loop diverges or whose errors are not finite is recorded as
    NaN and listed in failed_cells as (noise index, pulse index, message).
    The cells run through `_lockstep` in batches of at most N // 2 (at least
    one). Each batch draws its voltage rows afresh in blocks of about 1 MiB,
    so a batch's n x 2B position record, which the metrics read whole, is
    the sweep's largest array, and the cap holds it to n x N floats.
    """
    if sc.cost is None or sc.reference is None or sc.pulse is None:
        raise ValueError("sweep needs a cost, a reference and a pulse template")
    if not isinstance(sc.plant, SmdParams):
        raise ValueError("the sweep integrates the linear plant")
    noise_grid = np.asarray(DEFAULT_NOISE_GRID if noise_grid is None else noise_grid,
                            dtype=float)
    pulse_grid = np.asarray(DEFAULT_PULSE_GRID if pulse_grid is None else pulse_grid,
                            dtype=float)
    if noise_grid.size == 0 or pulse_grid.size == 0:
        raise ValueError("grids must be nonempty")
    bad = pulse_grid[~np.isfinite(pulse_grid)]
    if bad.size:
        raise ValueError(f"pulse_grid entry {bad[0]:g} must be finite")

    system = _linear_system(sc)
    kc = lqr_gain(system.A, system.B, sc.cost.Q, sc.cost.R)
    dec_x, dec_z = _decoders(sc, system.state_dim, need_z=True)

    n, dt = sc.n_steps, sc.dt
    z, zdot = sc.reference.sample_grid(n, dt)
    time = np.arange(n) * dt
    # Common random numbers: unit draws, scaled per cell. Drawing each cell's
    # rows through `_noise_rows` gives the same rows up to rounding, but
    # builds three streams per cell instead of three per sweep, which made a
    # 2 x 2 sweep's set-up 13-29% slower.
    w = NoiseSource(1.0, system.state_dim, sc.master_seed,
                    StreamLabel.DISTURBANCE).sample_block(n)
    w *= np.sqrt(dt * sc.sigma_d)
    e_unit = NoiseSource(1.0, system.obs_dim, sc.master_seed,
                         StreamLabel.SENSOR).sample_block(n)

    shape = (noise_grid.size, pulse_grid.size)
    scn_mae = np.full(shape, np.nan)
    oracle_mae = np.full(shape, np.nan)
    scn_rmse = np.full(shape, np.nan)
    oracle_rmse = np.full(shape, np.nan)
    failed = []
    nets = []
    for sn in noise_grid:
        kf = kalman_gain(system.A, system.C, system.sigma_d,
                         sn * np.eye(system.obs_dim))
        nets.append((build_controller(system, kf, kc, dec_x, dec_z, sc.leak), kf))
    scales = np.sqrt(noise_grid)
    # A cell's pulse row is its magnitude inside the pulse window, else 0.
    pulse_on = replace(sc.pulse, magnitude=1.0).profile(time) != 0.0
    grid = [(a, b) for a in range(noise_grid.size) for b in range(pulse_grid.size)]
    size = max(1, sc.n_neurons // 2)  # two position records per cell
    for start in range(0, len(grid), size):
        batch = grid[start:start + size]
        cells = [(*nets[a], scales[a], pulse_grid[b]) for a, b in batch]
        volt = NoiseSource(1.0, sc.n_neurons, sc.master_seed, StreamLabel.VOLTAGE)
        eta = _voltage_rows(volt, n, np.sqrt(dt) * sc.eta_v)
        # A diverging cell's rows overflow; the cell is reported below.
        with np.errstate(over="ignore", invalid="ignore"):
            runs = _lockstep(sc, system, kc, cells, (w, e_unit, eta), (z, zdot, pulse_on))
        for (a, b), run in zip(batch, runs):
            if isinstance(run, NetworkDivergedError):
                failed.append((a, b, str(run)))
                continue
            err_s = np.abs(run[0][:, 0] - z[:, 0])
            err_o = np.abs(run[0][:, 1] - z[:, 0])
            with np.errstate(over="ignore"):  # an overflow fails the cell below
                metrics = (err_s.mean(), err_o.mean(), np.sqrt(np.mean(err_s ** 2)),
                           np.sqrt(np.mean(err_o ** 2)))
            if not all(map(math.isfinite, metrics)):
                failed.append((a, b, "position errors overflow: MAE/RMSE not finite"))
                continue
            scn_mae[a, b], oracle_mae[a, b], scn_rmse[a, b], oracle_rmse[a, b] = metrics
    meta = _meta(sc, noise_grid=[float(v) for v in noise_grid],
                 pulse_grid=[float(v) for v in pulse_grid])
    return SweepResult(noise_grid=noise_grid, pulse_grid=pulse_grid,
                       scn_mae=scn_mae, oracle_mae=oracle_mae,
                       scn_rmse=scn_rmse, oracle_rmse=oracle_rmse,
                       failed_cells=failed, meta=meta)


def summarize(traj: Trajectory) -> dict:
    """Scalar metrics for summary.json; everything JSON-serializable."""
    meta = traj.meta
    duration = float(meta.get("duration", traj.time[-1] + traj.time[1] - traj.time[0]
                              if len(traj.time) > 1 else 0.0))
    out = {
        "scenario": meta.get("scenario"),
        "master_seed": meta.get("master_seed"),
        "n_neurons": meta.get("n_neurons"),
        "dt": meta.get("dt"),
        "duration": duration,
        "leak": meta.get("leak"),
        "spike_count": traj.spike_count,
        "spikes_per_second": traj.spike_count / duration if duration else 0.0,
        "rmse_vs_oracle": _rmse(traj.x_hat[:, 0] - traj.oracle_x_hat[:, 0]),
        "artifact_choices": meta.get("artifact_choices", {}),
    }
    if traj.z is not None:
        err = traj.x[:, 0] - traj.z[:, 0]
        out["rmse_vs_reference"] = _rmse(err)
        out["mae_vs_reference"] = float(np.mean(np.abs(err)))
        out["phase_errors"] = _phase_errors(traj)
    else:
        # Estimation runs: the reference is the true plant state.
        err = traj.x_hat[:, 0] - traj.x[:, 0]
        out["rmse_vs_reference"] = _rmse(err)
        out["mae_vs_reference"] = float(np.mean(np.abs(err)))
    if meta.get("scenario") == "cartpole":
        out["max_pole_deviation"] = float(np.abs(traj.x[:, 2]).max())
    return out


def _rmse(err: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.asarray(err) ** 2)))


def _phase_errors(traj: Trajectory) -> list:
    """Position error per constant-reference segment."""
    times = traj.meta.get("artifact_choices", {}).get("reference_times")
    if not times:
        return []
    duration = float(traj.meta.get("duration", traj.time[-1]))
    bounds = [0.0] + [float(t) for t in times if t < duration] + [duration]
    phases = []
    for start, end in zip(bounds[:-1], bounds[1:]):
        mask = (traj.time >= start - 1e-9) & (traj.time < end - 1e-9)
        if not mask.any():
            continue
        err = np.abs(traj.x[mask, 0] - traj.z[mask, 0])
        phases.append({
            "start": start, "end": end,
            "level": float(traj.z[mask, 0][-1]),
            "mae": float(err.mean()),
            "min_abs_error": float(err.min()),
        })
    return phases


def _fmt(value) -> str:
    return repr(float(value))


def write_trajectory(traj: Trajectory, path, stride: int = 1):
    """CSV with one row per recorded step (optionally strided)."""
    columns = [("time", traj.time.reshape(-1, 1)), ("x", traj.x), ("y", traj.y),
               ("xhat", traj.x_hat), ("zhat", traj.z_hat), ("u", traj.u),
               ("oracle_xhat", traj.oracle_x_hat), ("oracle_u", traj.oracle_u),
               ("oracle_x", traj.oracle_x), ("z", traj.z)]
    columns = [(name, arr) for name, arr in columns if arr is not None]
    header = []
    for name, arr in columns:
        if name == "time":
            header.append("time")
        else:
            header.extend(f"{name}{j + 1}" for j in range(arr.shape[1]))
    # 512 rows at a time: repr of .tolist()'s Python floats is what _fmt writes,
    # and 4096-row blocks raised peak memory by 4% on a 12 000-row run.
    block = 512 * stride
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(traj.time), block):
            rows = np.hstack([arr[start:start + block:stride] for _, arr in columns],
                             dtype=float)
            fh.writelines(",".join(map(repr, row)) + "\n" for row in rows.tolist())


def write_spikes(traj: Trajectory, path):
    with open(path, "w") as fh:
        fh.write("time,neuron\n")
        for t, j in traj.spikes:
            fh.write(f"{_fmt(t)},{int(j)}\n")


def write_summary(summary: dict, path):
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_sweep_matrix(matrix: np.ndarray, noise_grid, pulse_grid, path):
    """Matrix CSV: rows = sensor-noise values, columns = pulse magnitudes."""
    with open(path, "w") as fh:
        fh.write("sigma_n\\pulse," + ",".join(_fmt(p) for p in pulse_grid) + "\n")
        for sn, row in zip(noise_grid, matrix):
            fh.write(_fmt(sn) + "," + ",".join(_fmt(v) for v in row) + "\n")
