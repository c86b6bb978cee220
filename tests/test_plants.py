"""Spring-mass-damper and cartpole ground truth."""

import numpy as np
import pytest

from spikecontrol import (CARTPOLE_UP, CartpoleParams, PulseSchedule,
                          ReferenceSchedule, SmdParams, cartpole_dynamics,
                          cartpole_linearize_up, smd_system)
from reference_models import linearize, smd_dynamics


def test_smd_dynamics_values():
    p = SmdParams()  # m=3, k=5, c=0.5
    np.testing.assert_allclose(smd_dynamics(p, [1.0, 0.0], 0.0), [0.0, -5.0 / 3.0])
    np.testing.assert_allclose(smd_dynamics(p, [0.0, 1.0], 0.0), [1.0, -0.5 / 3.0])
    np.testing.assert_allclose(smd_dynamics(p, [0.0, 0.0], 1.0), [0.0, 1.0 / 3.0])


def test_smd_system_matches_dynamics():
    p = SmdParams(m=20.0, k=6.0, c=2.0)
    A, B, C = smd_system(p)
    f = lambda x, u: smd_dynamics(p, x, u)
    A_hat, B_hat = linearize(f, [0.0, 0.0], [0.0])
    np.testing.assert_allclose(A_hat, A, atol=1e-8)
    np.testing.assert_allclose(B_hat, B, atol=1e-8)
    np.testing.assert_array_equal(C, [[1.0, 0.0]])


def test_smd_energy_decays():
    # E = k x^2 / 2 + m v^2 / 2 dissipates at rate c v^2.
    p = SmdParams()
    dt, x = 1e-3, np.array([1.0, 0.0])
    energy = [0.5 * p.k * x[0] ** 2 + 0.5 * p.m * x[1] ** 2]
    for _ in range(10_000):
        x = x + dt * smd_dynamics(p, x, 0.0)
        energy.append(0.5 * p.k * x[0] ** 2 + 0.5 * p.m * x[1] ** 2)
    energy = np.array(energy)
    assert energy[-1] < 0.5 * energy[0]
    assert np.diff(energy).max() < 1e-4  # Euler overshoot only


def test_smd_params_validation():
    with pytest.raises(ValueError):
        SmdParams(m=0.0)
    with pytest.raises(ValueError):
        SmdParams(k=-1.0)
    for key, value in (("m", np.nan), ("k", np.inf), ("c", -np.inf)):
        with pytest.raises(ValueError, match=f"plant {key} = {value:g} must be finite"):
            SmdParams(**{key: value})


def test_cartpole_equilibria():
    p = CartpoleParams()
    np.testing.assert_allclose(cartpole_dynamics(p, [0.0, 0.0, 0.0, 0.0], 0.0),
                               np.zeros(4), atol=1e-12)
    np.testing.assert_allclose(cartpole_dynamics(p, CARTPOLE_UP, 0.0),
                               np.zeros(4), atol=1e-12)


def test_cartpole_upright_is_unstable():
    # Tip the pole slightly past upright: the angle accelerates away.
    p = CartpoleParams()
    rate = cartpole_dynamics(p, [0.0, 0.0, np.pi + 0.01, 0.0], 0.0)
    assert rate[3] > 0
    rate = cartpole_dynamics(p, [0.0, 0.0, np.pi - 0.01, 0.0], 0.0)
    assert rate[3] < 0


def test_cartpole_linearization_matches_finite_differences():
    p = CartpoleParams()
    A, B, C = cartpole_linearize_up(p)
    f = lambda x, u: cartpole_dynamics(p, x, u)
    A_hat, B_hat = linearize(f, CARTPOLE_UP, [0.0])
    np.testing.assert_allclose(A, A_hat, atol=1e-5)
    np.testing.assert_allclose(B, B_hat, atol=1e-5)
    np.testing.assert_array_equal(C, [[1.0, 0.0, 0.0, 0.0]])
    assert np.linalg.eigvals(A).real.max() > 0  # inverted pendulum


def test_cartpole_force_pushes_cart():
    p = CartpoleParams()
    rate = cartpole_dynamics(p, CARTPOLE_UP, 1.0)
    assert rate[1] > 0


def _cartpole_dynamics_numpy(p, x, u):
    # The formula on numpy scalars with np.sin/np.cos, as it was written
    # before cartpole_dynamics moved to Python floats and math.sin/cos.
    u = float(np.asarray(u).reshape(-1)[0]) if np.ndim(u) else float(u)
    _, vel, theta, omega = np.asarray(x, dtype=float)
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    den = p.m * p.L**2 * (p.M + p.m * (1.0 - cos_t**2))
    swing = p.m * p.L * omega**2 * sin_t - p.d * vel
    acc_cart = (
        -(p.m**2) * p.L**2 * p.g * cos_t * sin_t + p.m * p.L**2 * swing + p.m * p.L**2 * u
    ) / den
    acc_pole = (
        (p.m + p.M) * p.m * p.g * p.L * sin_t - p.m * p.L * cos_t * swing - p.m * p.L * cos_t * u
    ) / den
    return np.array([vel, acc_cart, omega, acc_pole])


@pytest.mark.parametrize("p", [CartpoleParams(),
                               CartpoleParams(m=0.3, M=2.5, L=0.7, g=-9.81, d=0.2)])
def test_cartpole_dynamics_bitwise_matches_numpy_scalar_formula(p):
    rng = np.random.default_rng(11)
    n = 2000
    near = np.column_stack([rng.normal(0, 1, n), rng.normal(0, 0.5, n),
                            np.pi + rng.uniform(-0.3, 0.3, n), rng.normal(0, 0.5, n)])
    far = np.column_stack([rng.normal(0, 100, n), rng.normal(0, 50, n),
                           rng.uniform(-20, 20, n), rng.normal(0, 50, n)])
    forces = rng.normal(0, 30, 2 * n)
    states = np.vstack([near, far, np.zeros((1, 4)), [CARTPOLE_UP]])
    forces = np.concatenate([forces, [-0.0, 0.0]])
    for i, (x, u) in enumerate(zip(states, forces)):
        # the force as the kernel passes it, as a Python float and as an array
        for force in (u, float(u), np.array([u])):
            got = cartpole_dynamics(p, x, force)
            want = _cartpole_dynamics_numpy(p, x, force)
            assert np.array_equal(got, want), (i, x, u)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (i, x, u)
    got = cartpole_dynamics(p, [0, 0, 3, 1], 2)  # a list of ints, an int force
    assert np.array_equal(got, _cartpole_dynamics_numpy(p, np.array([0, 0, 3, 1]), 2))


def test_cartpole_params_validation():
    with pytest.raises(ValueError):
        CartpoleParams(M=0.0)
    with pytest.raises(ValueError):
        CartpoleParams(L=-2.0)
    for key in ("m", "M", "L", "g", "d"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"plant {key} = {value:g} must be finite"):
                CartpoleParams(**{key: value})


def test_pulse_half_open_interval():
    pulse = PulseSchedule(onset=2.5, duration=0.2, magnitude=500.0)
    grid = np.array([2.4999, 2.5, 2.6, 2.6999, 2.7])
    np.testing.assert_array_equal(pulse.profile(grid), [0.0, 500.0, 500.0, 500.0, 0.0])


def test_pulse_edges_follow_the_grid_rule():
    # Each edge falls at the first grid time at or after its own time less
    # 1e-9 s, where a reference step falls: 9.8 + 0.8 and 0.1 + 0.05 round
    # just above the grid times 10.6 and 0.15, and the pulse ends there.
    tgrid = np.arange(11000) * 1e-3
    for onset, duration, steps in ((9.8, 0.8, range(9800, 10600)),
                                   (0.1, 0.05, range(100, 150))):
        on = PulseSchedule(onset, duration, 1.0).profile(tgrid) != 0.0
        np.testing.assert_array_equal(np.flatnonzero(on), steps)
        ref = ReferenceSchedule([onset, onset + duration], [[1.0], [0.0]])
        np.testing.assert_array_equal(ref.sample_grid(len(tgrid), 1e-3)[0][:, 0], on)


def test_pulse_validation():
    with pytest.raises(ValueError):
        PulseSchedule(onset=-1.0, duration=0.2, magnitude=1.0)
    with pytest.raises(ValueError):
        PulseSchedule(onset=0.0, duration=0.0, magnitude=1.0)
