"""Seeded experiment scenarios, runners, and output writers.

Every run is a pure function of (Scenario, master_seed): noise is drawn from
labelled streams, the spiking network and the ideal LQG loop consume the same
disturbance/sensor realizations, and all outputs (trajectory, raster, summary)
replay bit-for-bit under the same seed.

`run_estimation`, `run_control` and `run_cartpole` run through one kernel,
`_closed_loop`, the estimator as the controller's loop with no cost, and
`run_robustness_sweep` steps its cells through `_lockstep`, the same loop on
a stack of cells. Every runner, the sweep included, gets its networks from
one builder, `_network`. Trajectory row convention: row i carries time
t_i = i*dt, the plant state *before* the step, the observation consumed during
the step, and the decodes (x_hat, z_hat, u) *after* the step — i.e. the
estimate that has absorbed y_i and the control that drove the plant from t_i
to t_{i+1}. The oracle columns follow the same alignment. Plant states are
recorded in the network's coordinates, about the plant's equilibrium: the
cartpole's pole angle column is theta - pi.
"""

import json
import math
from contextlib import closing
from dataclasses import dataclass, field, replace

import numpy as np

from .lqg import LqgState, estimator_step, lqg_step
from .plants import (CARTPOLE_UP, CartpoleParams, PulseSchedule, SmdParams, _grid_steps,
                     cartpole_dynamics, cartpole_linearize_up, smd_system)
from .riccati import LqrCost, kalman_gain, lqr_gain
from .scn import (NetworkDivergedError, ScnWeights, build_controller,
                  build_estimator, new_state, network_step, sample_decoder, silence)
from .state_space import (ConfigError, LinearSystem, NoiseSource, StreamLabel,
                          _require_finite, _reraise, make_rng)


class PoleDroppedError(RuntimeError):
    pass


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
            _require_finite(value, f"reference {key}",
                            message="{name} must be {rule}, got {bad:g}")
        if len(self.times) > 1 and np.diff(self.times).min() <= 0:
            raise ValueError("schedule times must be strictly increasing")

    def sample_grid(self, n: int, dt: float):
        # The zero state, then values[k] from the step times[k] falls on.
        starts = _grid_steps(np.arange(n) * dt, self.times)
        rows = np.vstack([np.zeros_like(self.values[:1]), self.values])
        z = np.repeat(rows, np.diff(starts, prepend=0, append=n), axis=0)
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
        if self.name not in SCENARIOS:
            raise ValueError(f"unknown scenario name {self.name!r}")
        if self.name == "estimation":  # run_estimation runs no controller
            for key in ("gamma_z", "cost", "reference", "pulse", "silencing"):
                if getattr(self, key) is not None:
                    raise ValueError(f"the estimation scenario takes no {key}")
        positive = ["dt", "duration", "sigma_n", "gamma_x"]
        if self.gamma_z is not None:
            positive.append("gamma_z")
        for key in positive + ["sigma_d", "eta_v", "leak"]:
            _require_finite(getattr(self, key), key,
                            "positive" if key in positive else "nonnegative")
        # Values whose derived quantities must be finite too. A controller's
        # target decoder has norm gamma_z, or gamma_x when that is unset.
        norms = [self.gamma_x] + ([self.gamma_z or self.gamma_x] if self.cost else [])
        for key, derived, what in (
                ("eta_v", self.eta_v * self.eta_v,
                 "its square, the voltage-noise variance, is"),
                ("duration", self.duration / self.dt, "its step count, duration / dt, is"),
                ("gamma_z" if max(norms) > self.gamma_x else "gamma_x",
                 0.5 * sum(g * g for g in norms),
                 "the spike thresholds, half the summed squared decoder norms, are")):
            _require_finite(derived, f"{key} = {getattr(self, key):g}",
                            message="{name} is too large: " + what + " not finite")
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
        lam = np.linalg.eigvals(A)  # I + dt*A has eigenvalues 1 + dt*lam
        rho = np.abs(1 + self.dt * lam).max()
        if rho >= 1 and lam.real.max() < 0:
            raise ValueError(f"dt={self.dt:g} is Euler-unstable for the stable "
                             f"plant: spectral radius of I + dt*A is {rho:.4g}")
        self.x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        state_dim = A.shape[0]
        if self.x0.size != state_dim:
            raise ValueError(f"x0 has {self.x0.size} entries, but the "
                             f"{type(self.plant).__name__} state has {state_dim}")
        _require_finite(self.x0, "x0", message="{name} = {all} must be {rule}")
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
            _require_finite([t for t, _ in self.silencing], "silencing times",
                            message="{name} must be {rule}")
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


def cartpole_scenario(master_seed: int = 0) -> Scenario:
    """Nonlinear cartpole balanced about theta=pi while the cart climbs a stair."""
    return Scenario(
        name="cartpole", plant=CartpoleParams(), n_neurons=100,
        gamma_x=0.01, gamma_z=0.01, leak=0.1, eta_v=1e-5, sigma_d=1e-7, sigma_n=1e-7,
        cost=LqrCost(Q=np.diag([1.0, 1.0, 10.0, 1.0]), R=[[1e-2]]),
        reference=stair_reference([1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 30.0, 40.0], 4),
        dt=1e-4, duration=50.0, master_seed=master_seed, x0=CARTPOLE_UP,
    )


def sparsity_scenario(master_seed: int = 0) -> Scenario:
    """Large-decoder SMD control run used to count spikes as the leak varies."""
    return Scenario(
        name="sparsity", plant=SmdParams(m=20.0, k=6.0, c=2.0), n_neurons=50,
        gamma_x=1.0, gamma_z=1.0, leak=1.0, eta_v=1e-6, sigma_d=0.001,
        sigma_n=0.001, cost=LqrCost(Q=np.diag([10.0, 1.0]), R=[[1e-2]]),
        reference=stair_reference([6.0, 12.0, 18.0, 24.0], [2.0, 4.0, 6.0, 8.0], 2),
        dt=1e-4, duration=10.0, master_seed=master_seed, x0=[0.0, 0.0],
    )


# Each scenario's factory of the master seed, by the name `Scenario` checks.
SCENARIOS = {"estimation": estimation_scenario, "smd_control": smd_control_scenario,
             "silencing": lambda seed=0: smd_control_scenario(seed, with_silencing=True),
             "robustness_sweep": robustness_scenario, "cartpole": cartpole_scenario,
             "sparsity": sparsity_scenario}


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
    scenario: Scenario = None  # the scenario the runner ran
    weights: ScnWeights = None  # the network the runner stepped

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
    scenario: Scenario


def _plant_matrices(plant):
    """(A, B, C) of the plant, linearized about its equilibrium."""
    if isinstance(plant, SmdParams):
        return smd_system(plant)
    if isinstance(plant, CartpoleParams):
        return cartpole_linearize_up(plant)
    raise TypeError(f"unsupported plant {type(plant).__name__}")


def _network(sc: Scenario, kc=None, sigma_n_key="noise.sigma_n"):
    """(system, K_f, K_c, weights) of the scenario; K_c is None and the
    network an estimator when the scenario has no cost. The decoders come
    from the seed's decoder stream, so scenarios that differ only in their
    noise get the same ones. A given `kc` stands in for the LQR gain, which
    depends only on the plant and the cost; by default it is solved here.
    A gain with no stabilizing solution raises ConfigError naming the gain
    and the config keys it depends on, `sigma_n_key` for the one that set
    the scenario's sigma_n."""
    A, B, C = _plant_matrices(sc.plant)
    system = LinearSystem(A=A, B=B, C=C, sigma_d=sc.sigma_d * np.eye(A.shape[0]),
                          sigma_n=sc.sigma_n * np.eye(C.shape[0]))
    with _reraise(f"no Kalman gain for plant.*, noise.sigma_d and {sigma_n_key}: ",
                  ConfigError):
        kf = kalman_gain(system.A, system.C, system.sigma_d, system.sigma_n)
    rng = make_rng(sc.master_seed, StreamLabel.DECODER)
    dec_x = sample_decoder(system.state_dim, sc.n_neurons, sc.gamma_x, rng=rng)
    if sc.cost is None:
        return system, kf, None, build_estimator(system, kf, dec_x, sc.leak)
    dec_z = sample_decoder(system.state_dim, sc.n_neurons, sc.gamma_z or sc.gamma_x, rng=rng)
    if kc is None:
        with _reraise("no LQR gain for plant.*, cost.q and cost.r: ", ConfigError):
            kc = lqr_gain(system.A, system.B, sc.cost.Q, sc.cost.R)
    return system, kf, kc, build_controller(system, kf, kc, dec_x, dec_z, sc.leak)


def build_network(sc: Scenario):
    """Construct the scenario's network; returns (system, weights)."""
    system, _, _, weights = _network(sc)
    return system, weights


def _noise_rows(sc: Scenario, system: LinearSystem):
    """Per-step (disturbance, sensor, voltage-noise) rows, already scaled;
    the voltage rows come from the generator `NoiseSource.rows`."""
    dist = NoiseSource(sc.sigma_d, system.state_dim, sc.master_seed,
                       StreamLabel.DISTURBANCE)
    sens = NoiseSource(sc.sigma_n, system.obs_dim, sc.master_seed, StreamLabel.SENSOR)
    volt = NoiseSource(sc.eta_v ** 2, sc.n_neurons, sc.master_seed, StreamLabel.VOLTAGE)
    n, sdt = sc.n_steps, np.sqrt(sc.dt)
    w = dist.sample_block(n)
    w *= sdt
    return w, sens.sample_block(n), volt.rows(n, sdt)


def _silencing_steps(sc: Scenario, time: np.ndarray) -> dict:
    """{step: neuron ids of each silencing block applied before it, in order}. A block
    applies at the step `_grid_steps` gives for its time, if the run has that step."""
    kills = {}
    for t, ids in sc.silencing or ():
        kills.setdefault(int(_grid_steps(time, t)), []).append(ids)
    return kills


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


def _closed_loop(sc: Scenario):
    """The spiking network and the ideal LQG loop on the scenario's plant.

    Both loops consume the same per-step rows: the scenario's `_noise_rows`,
    its reference on the grid and, when it has a pulse, its force on both
    controls: the magnitude on `PulseSchedule.window`'s steps, 0.0 elsewhere. The
    plant, start state, step and silencing schedule come from the scenario:
    the linear plant is stepped as x + dt (A x + B u) in network coordinates;
    the cartpole through `cartpole_dynamics`, its network coordinates taken
    about the upright pole, raising PoleDroppedError when a pole falls more
    than 90 degrees. A controller and its LQG loop drive twin plants. With no
    cost (`_network`'s K_c is None) the network is an estimator fed (y, u = 0),
    the oracle is `estimator_step` on the same y at u = 0, and one linear
    plant runs free, x + dt A x, as both loops' plant; the trajectory has no
    z_hat, u, z, oracle_u or oracle_x. Each step writes what it records in
    place, into arrays made before the loop. Returns (trajectory, final SCN
    plant state, final ideal plant state), the states in network coordinates.
    Raises NetworkDivergedError when a final plant state is not finite.
    """
    system, kf, kc, weights = _network(sc)
    w, e, eta = _noise_rows(sc, system)
    n, dt = sc.n_steps, sc.dt
    time = np.arange(n) * dt
    kills = _silencing_steps(sc, time)
    st = new_state(weights)
    est = LqgState(np.zeros(system.state_dim))
    cart = sc.plant if isinstance(sc.plant, CartpoleParams) else None

    A, B, C = system.A, system.B, system.C
    dxv, r = weights.decoder_x.values, st.r
    dt_arr = np.array(dt)  # the same product as a Python float, converted once
    K, P, p = system.state_dim, system.input_dim, system.obs_dim
    # Row i of IN is step i's network input, (y, z, zdot) or (y, 0); y is per step.
    IN = np.zeros((n, weights.input_op.shape[1]))
    Y = IN[:, :p]
    # Row i of XS/OS is the SCN/ideal plant state before step i; row n is final.
    XS, XH, OXH = np.empty((n + 1, K)), np.empty((n, K)), np.empty((n, K))
    OS = XS if kc is None else np.empty((n + 1, K))
    XS[0] = OS[0] = sc.x0
    u0, ctrl = np.zeros(P), {}  # ctrl: the records only a controller makes
    if kc is not None:
        z, zdot = sc.reference.sample_grid(n, dt)
        IN[:, p:p + K], IN[:, p + K:] = z, zdot
        pulse = sc.pulse
        on, off = pulse.window(time) if pulse is not None else (n, n)
        dzv = weights.decoder_z.values
        ZH, U, OU = np.empty((n, K)), np.empty((n, P)), np.empty((n, P))
        ctrl = dict(z_hat=ZH, u=U, z=z, oracle_u=OU, oracle_x=OS[:n])
    x, xo = XS[0], OS[0]
    with closing(eta):  # however the loop ends, the voltage rows wait for a pending draw
        for i in range(n):
            for ids in kills.get(i, ()):
                silence(st, ids)
            ei = e[i]
            # C x = C (x - CARTPOLE_UP): the cartpole observes only the cart position,
            # 0 upright.
            np.add(C.dot(x), ei, out=Y[i])
            network_step(weights, st, dt, IN[i], next(eta))
            xh = dxv.dot(r, out=XH[i])
            xn, xon, wi = XS[i + 1], OS[i + 1], w[i]
            if kc is None:
                OXH[i] = estimator_step(system, kf, est, Y[i], u0, dt_arr).x_hat
                x = np.add(x + dt_arr * A.dot(x), wi, out=xn)
                continue
            zh = dzv.dot(r, out=ZH[i])
            u = np.negative(kc.dot(xh - zh), out=U[i])
            lqg_step(system, kf, kc, est, C.dot(xo) + ei, z[i], dt_arr)
            OXH[i] = est.x_hat
            OU[i] = uo = est.u
            if pulse is not None:
                force = pulse.magnitude if on <= i < off else 0.0
                u, uo = u + force, uo + force
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
    if not (np.isfinite(XS[n]).all() and np.isfinite(OS[n]).all()):
        raise NetworkDivergedError(
            f"closed loop diverged: plant state not finite after {n} steps")
    if cart is not None:
        XS -= CARTPOLE_UP
        OS -= CARTPOLE_UP
    traj = Trajectory(time=time, x=XS[:n], y=Y, x_hat=XH, oracle_x_hat=OXH,
                      spikes=list(st.spike_log), silence_events=list(st.silence_log),
                      scenario=sc, weights=weights, **ctrl)
    return traj, XS[n], OS[n]


def run_estimation(sc: Scenario) -> Trajectory:
    """Estimate the noisy linear plant at u=0 with SCN and oracle: `_closed_loop`."""
    if sc.name != "estimation":
        raise ValueError("run_estimation needs an estimation scenario")
    if not isinstance(sc.plant, SmdParams):
        raise ValueError("run_estimation integrates the linear plant")
    return _closed_loop(sc)[0]


def _lockstep(sc: Scenario, nets: dict, cells):
    """`_closed_loop` of several sweep cells on the linear plant, stepped in
    lockstep, recording only the plant positions the sweep's metrics read.

    A cell is a (sigma_n, pulse magnitude) pair: cell j is the closed loop of
    `replace(sc, sigma_n=sigma_n, pulse=replace(sc.pulse, magnitude=m))`, and
    can differ from `sc` in nothing else. `nets` maps each cell's sigma_n to
    `_network` of its scenario, all sharing one LQR gain; cells at one level
    share its network. The cells share the rows `_noise_rows` draws for `sc`
    at unit sensor variance; a cell scales the sensor rows by its own
    sqrt(sigma_n), the same product `_noise_rows` makes for that cell's
    scenario. Each step writes the cells' network
    inputs (y, z, zdot) into the rows of one buffer made before the loop.
    Each cell still gets its own `network_step` and `lqg_step` call per
    step. Its SCN and ideal plants are rows 2j and 2j + 1 of one stacked
    array, and the observation, decode, readout, pulse, Euler step and
    record are each one operation on all rows: stacked `np.matmul` repeats
    each row's `ndarray.dot` bit for bit, where a 2-D product or einsum
    would not. So every cell equals `_closed_loop` of its scenario, bit for
    bit. A cell whose network diverges gets no more network or oracle steps;
    its rows stay in place and keep stepping, unread, so the other rows are
    untouched. The batch ends when no cell is left.

    Returns, per cell, the NetworkDivergedError that ended it, or (positions,
    final, spikes): the (n, 2) SCN and ideal plant positions after each step,
    the (2, K) final plant states and the spike log.
    """
    n, dt = sc.n_steps, sc.dt
    dt_arr = np.array(dt)  # the same product as a Python float, converted once
    system, _, kc, weights = nets[cells[0][0]]  # the plant, K_c and decoders every level shares
    w, e_unit, eta = _noise_rows(replace(sc, sigma_n=1.0), system)
    z, zdot = sc.reference.sample_grid(n, dt)
    A, B, C = system.A, system.B, system.C
    K, p = system.state_dim, system.obs_dim
    dxv, dzv = weights.decoder_x.values, weights.decoder_z.values  # any network's
    time = np.arange(n) * dt
    kills = _silencing_steps(sc, time)
    on, off = sc.pulse.window(time)  # a cell's pulse force is its magnitude on [on, off)
    out = [None] * len(cells)
    live = [(j, weights, new_state(weights), kf, LqgState(np.zeros(system.state_dim)))
            for j, (_, kf, _, weights) in enumerate(nets[sn] for sn, _ in cells)]
    # States, inputs and noise rows are column vectors on a leading row axis,
    # so that no product needs a reshape per step.
    w3, e3 = w[:, :, None], e_unit[:, :, None]
    X = np.repeat(sc.x0[None, :, None], 2 * len(cells), axis=0)
    scale = np.repeat([[[np.sqrt(sn)]] for sn, _ in cells], 2, axis=0)
    pulse = np.repeat([[[m]] for _, m in cells], 2, axis=0)
    U, Y3 = np.empty((len(X), system.input_dim, 1)), np.empty((len(X), p, 1))
    IN, Y = np.empty((len(cells), p + 2 * K)), Y3[:, :, 0]  # row j of IN: cell j's input
    # Cell j's network input, oracle observation and oracle control, as views.
    rows = [(IN[j], Y[2 * j + 1], U[2 * j + 1, :, 0]) for j in range(len(cells))]
    positions = np.empty((n, len(X)))
    R = np.array([st.r for _, _, st, _, _ in live])  # row j: cell j's r
    for (_, _, st, _, _), r in zip(live, R):
        st.r = r
    R3 = R[:, :, None]
    with closing(eta):  # however the loop ends, the voltage rows wait for a pending draw
        for i in range(n):
            for ids in kills.get(i, ()):
                for _, _, st, _, _ in live:
                    silence(st, ids)
            np.add(np.matmul(C, X), scale * e3[i], out=Y3)
            zi, etai = z[i], next(eta)
            IN[:, :p], IN[:, p:p + K], IN[:, p + K:] = Y[0::2], zi, zdot[i]
            for cell in tuple(live):
                j, weights, st, kf, est = cell
                inp, yo, uo = rows[j]
                try:
                    network_step(weights, st, dt, inp, etai)
                except NetworkDivergedError as err:
                    out[j] = err
                    live.remove(cell)
                    continue
                lqg_step(system, kf, kc, est, yo, zi, dt_arr)
                uo[...] = est.u
            if not live:
                return out
            U[0::2] = -np.matmul(kc, np.matmul(dxv, R3) - np.matmul(dzv, R3))
            up = U + (pulse if on <= i < off else 0.0)
            X = X + dt_arr * (np.matmul(A, X) + np.matmul(B, up)) + w3[i]
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
    return _closed_loop(sc)[0]


def run_cartpole(sc: Scenario) -> Trajectory:
    """Balance the nonlinear cartpole with the controller built on the
    upright linearization; raises PoleDroppedError when either pole falls
    more than 90 degrees from upright."""
    if sc.name != "cartpole" or not isinstance(sc.plant, CartpoleParams):
        raise ValueError("run_cartpole needs a cartpole scenario")
    if sc.cost is None or sc.reference is None:
        raise ValueError("cartpole run needs a cost and a reference schedule")
    return _closed_loop(sc)[0]


def run_sparsity(sc: Scenario, lambdas=DEFAULT_LAMBDAS) -> list:
    """Re-run the sparsity scenario once per leak value: one control
    Trajectory per leak, in order, each holding its leak and spike count.
    Every leak is checked as the scenario's leak before the first run; a bad
    one raises ConfigError naming its `sparsity.lambdas` entry."""
    runs = []
    for lam in map(float, lambdas):
        with _reraise(f"sparsity.lambdas entry {lam:g}: ", ConfigError):
            runs.append(replace(sc, leak=lam))
    if not runs:
        raise ConfigError("sparsity.lambdas must be nonempty")
    return [run_control(run) for run in runs]


def run_robustness_sweep(sc: Scenario, noise_grid=None, pulse_grid=None) -> SweepResult:
    """Grid of closed-loop runs over (sensor noise, pulse magnitude), each
    lasting the scenario's duration.

    Cell (a, b) is the closed loop of the scenario with sigma_n =
    noise_grid[a] and pulse magnitude pulse_grid[b], bit for bit: each noise
    level's network is built by `_network`, its decoders drawn from the
    seed, and the cells share the seed's noise streams, so differences
    across the grid reflect the swept parameters rather than sampling luck.
    The metric per cell is the time-mean absolute position error |x1 - z1|
    after each step (RMSE is recorded alongside). A cell whose loop diverges or
    whose errors are not finite is recorded as NaN and listed in
    failed_cells as (noise index, pulse index, message). Before the first
    step, a bad grid or a noise level with no Kalman gain raises ConfigError
    naming its `sweep.*` key, and each distinct level's network is built,
    the LQR gain solved once. The cells run through `_lockstep` in batches
    of at most N // 2 (at least one). Each batch draws its rows through
    `_noise_rows`, the voltage rows in blocks of about 1 MiB, so a batch's
    n x 2B position record, which the metrics read whole, is the sweep's
    largest array, and the cap holds it to n x N floats.
    """
    if sc.cost is None or sc.reference is None or sc.pulse is None:
        raise ValueError("sweep needs a cost, a reference and a pulse template")
    if not isinstance(sc.plant, SmdParams):
        raise ValueError("the sweep integrates the linear plant")
    with _reraise("sweep.", ConfigError):
        noise_grid = np.asarray(DEFAULT_NOISE_GRID if noise_grid is None else noise_grid,
                                dtype=float)
        pulse_grid = np.asarray(DEFAULT_PULSE_GRID if pulse_grid is None else pulse_grid,
                                dtype=float)
        for name, grid in (("noise_grid", noise_grid), ("pulse_grid", pulse_grid)):
            if grid.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional, got shape {grid.shape}")
        if noise_grid.size == 0 or pulse_grid.size == 0:
            raise ValueError("grids must be nonempty")
        _require_finite(noise_grid, "noise_grid", "positive",
                        "{name} entry {bad:g} must be {rule}, like noise.sigma_n")
        _require_finite(pulse_grid, "pulse_grid", message="{name} entry {bad:g} must be {rule}")
    nets, kc = {}, None
    for sn in dict.fromkeys(noise_grid.tolist()):  # each distinct level once
        nets[sn] = _network(replace(sc, sigma_n=sn), kc, f"sweep.noise_grid entry {sn:g}")
        kc = nets[sn][2]

    z = sc.reference.sample_grid(sc.n_steps, sc.dt)[0][:, 0]

    # scn_mae, oracle_mae, scn_rmse and oracle_rmse; a failed cell stays NaN.
    metrics = np.full((4, noise_grid.size, pulse_grid.size), np.nan)
    failed = []
    grid = [(a, b) for a in range(noise_grid.size) for b in range(pulse_grid.size)]
    size = max(1, sc.n_neurons // 2)  # two position records per cell
    for start in range(0, len(grid), size):
        batch = grid[start:start + size]
        cells = [(noise_grid[a], pulse_grid[b]) for a, b in batch]
        # A diverging cell's rows overflow; the cell is reported below.
        with np.errstate(over="ignore", invalid="ignore"):
            runs = _lockstep(sc, nets, cells)
        for (a, b), run in zip(batch, runs):
            if isinstance(run, NetworkDivergedError):
                failed.append((a, b, str(run)))
                continue
            with np.errstate(over="ignore"):  # an overflow fails the cell below
                scn, ideal = _errors(run[0][:, 0] - z), _errors(run[0][:, 1] - z)
            cell = (scn[0], ideal[0], scn[1], ideal[1])  # in the order of `metrics`
            if not all(map(math.isfinite, cell)):
                failed.append((a, b, "position errors overflow: MAE/RMSE not finite"))
                continue
            metrics[:, a, b] = cell
    return SweepResult(noise_grid, pulse_grid, *metrics, failed_cells=failed, scenario=sc)


def summarize(result) -> dict:
    """summary.json of a runner's result, all JSON-serializable: a Trajectory's
    scalar metrics, a SweepResult's grids and failed cells, or the leak and spike
    count of each run `run_sparsity` returns. Each call builds its own `artifact_choices`.
    Raises NetworkDivergedError when a trajectory's error metric is not finite."""
    # The leak is all that differs between the runs of a sparsity list.
    sc = (result[0] if isinstance(result, list) else result).scenario
    out = {"scenario": sc.name, "master_seed": sc.master_seed,
           "artifact_choices": _artifact_choices(sc)}
    if isinstance(result, SweepResult):
        out.update(noise_grid=result.noise_grid.tolist(), pulse_grid=result.pulse_grid.tolist(),
                   failed_cells=[list(cell) for cell in result.failed_cells])
        return out
    if isinstance(result, list):
        out.update(lambdas=[t.scenario.leak for t in result],
                   spike_counts=[t.spike_count for t in result])
        return out
    traj = result
    duration = float(sc.duration)  # a library scenario may hold an int
    out.update(n_neurons=sc.n_neurons, dt=sc.dt, duration=duration, leak=sc.leak,
               spike_count=traj.spike_count, spikes_per_second=traj.spike_count / duration)
    with np.errstate(over="ignore"):  # an overflow is refused below
        out["rmse_vs_oracle"] = _errors(traj.x_hat[:, 0] - traj.oracle_x_hat[:, 0])[1]
        if traj.z is not None:
            err = traj.x[:, 0] - traj.z[:, 0]
            out["phase_errors"] = _phase_errors(traj)
        else:  # estimation runs: the reference is the true plant state
            err = traj.x_hat[:, 0] - traj.x[:, 0]
        out["mae_vs_reference"], out["rmse_vs_reference"] = _errors(err)
    errors = {key: out[key] for key in ("rmse_vs_oracle", "mae_vs_reference",
                                        "rmse_vs_reference")}
    errors.update((f"phase_errors[{i}].mae", phase["mae"])
                  for i, phase in enumerate(out.get("phase_errors", ())))
    bad = [key for key, value in errors.items() if not math.isfinite(value)]
    if bad:
        raise NetworkDivergedError(f"position errors overflow: {', '.join(bad)} not finite")
    if sc.name == "cartpole":
        out["max_pole_deviation"] = float(np.abs(traj.x[:, 2]).max())
    return out


def _errors(err: np.ndarray) -> tuple:
    """(MAE, RMSE) of an error series, as floats."""
    err = np.abs(err)
    return float(err.mean()), float(np.sqrt(np.mean(err ** 2)))


def _phase_errors(traj: Trajectory) -> list:
    """Position error per constant-reference segment of the run, [0, duration):
    a reference time at or before 0 bounds none. `_grid_steps` places the bounds."""
    duration = float(traj.scenario.duration)
    times = traj.scenario.reference.times
    bounds = [0.0] + [float(t) for t in times if 0 < t < duration] + [duration]
    steps = _grid_steps(traj.time, bounds)
    phases = []
    for start, end, on, off in zip(bounds, bounds[1:], steps, steps[1:]):
        if on >= off:
            continue
        err = np.abs(traj.x[on:off, 0] - traj.z[on:off, 0])
        phases.append({
            "start": start, "end": end,
            "level": float(traj.z[off - 1, 0]),
            "mae": float(err.mean()),
            "min_abs_error": float(err.min()),
        })
    return phases


def _fmt(value) -> str:
    return repr(float(value))


def _csv_rows(rows: np.ndarray) -> bytes:
    """CSV lines of a float64 block, each number as `repr` writes it."""
    import orjson  # here, so that runs which write no trajectory never load it

    text = orjson.dumps(rows, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].replace(b"],[", b"\n")
    # orjson prints repr's shortest digits wherever repr prints fixed-point:
    # 0 and 1e-4 <= |v| < 1e16. NaN, inf (orjson: null) and the rest
    # (orjson: 1e-7, 0.000015, 1e16) take repr's own text.
    mag = np.abs(rows)
    odd = ~(((mag >= 1e-4) & (mag < 1e16)) | (rows == 0))
    if not odd.any():
        return text + b"\n"
    lines = text.split(b"\n")
    for i in np.flatnonzero(odd.any(axis=1)):
        cells = lines[i].split(b",")
        for j in np.flatnonzero(odd[i]):
            cells[j] = repr(rows.item(i, j)).encode()
        lines[i] = b",".join(cells)
    return b"\n".join(lines) + b"\n"


def write_trajectory(traj: Trajectory, path, stride: int = 1):
    """CSV with one row per recorded step (optionally strided). Numbers are
    Python `repr` text, so `float()` reads back the exact double."""
    if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ValueError(f"stride must be a positive integer, got {stride!r}")
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
    # 512 rows at a time: 4096-row blocks raised peak memory by 4% on a
    # 12 000-row run.
    block = 512 * stride
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(traj.time), block):
            rows = np.hstack([arr[start:start + block:stride] for _, arr in columns],
                             dtype=float)
            fh.write(_csv_rows(rows))


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
