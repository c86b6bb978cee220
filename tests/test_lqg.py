"""Ideal (non-spiking) Kalman filter and LQG loop."""

import numpy as np

from spikecontrol import (LinearSystem, LqgState, SmdParams, estimator_step,
                          kalman_gain, lqg_step, lqr_gain, smd_system)
import reference_models
from reference_models import closed_loop_steady_state


def _system(p=None, sigma_d=0.001, sigma_n=0.001):
    A, B, C = smd_system(p or SmdParams())
    return LinearSystem(A=A, B=B, C=C, sigma_d=sigma_d * np.eye(2),
                        sigma_n=sigma_n * np.eye(1))


def test_equilibrium_is_a_fixed_point():
    sys = _system()
    kf = kalman_gain(sys.A, sys.C, sys.sigma_d, sys.sigma_n)
    kc = lqr_gain(sys.A, sys.B, np.diag([10.0, 1.0]), [[1e-2]])
    st = LqgState(x_hat=[0.0, 0.0])
    for _ in range(10):
        st = lqg_step(sys, kf, kc, st, y=[0.0], z=[0.0, 0.0], dt=1e-3)
        np.testing.assert_array_equal(st.u, [0.0])
        np.testing.assert_array_equal(st.x_hat, [0.0, 0.0])


def test_zero_gain_filter_ignores_observations():
    sys = _system()
    a = LqgState(x_hat=[1.0, -0.5])
    b = LqgState(x_hat=[1.0, -0.5])
    for i in range(50):
        estimator_step(sys, np.zeros((2, 1)), a, y=[100.0], u_ext=[0.3], dt=1e-3)
        estimator_step(sys, np.zeros((2, 1)), b, y=[-7.0], u_ext=[0.3], dt=1e-3)
    np.testing.assert_array_equal(a.x_hat, b.x_hat)


def test_noiseless_matched_filter_is_exact():
    # With x_hat(0) = x(0) and exact observations the innovation vanishes and
    # the filter reproduces the plant trajectory bit for bit.
    sys = _system()
    kf = kalman_gain(sys.A, sys.C, sys.sigma_d, sys.sigma_n)
    x = np.array([0.4, -1.2])
    st = LqgState(x_hat=x.copy())
    rng = np.random.default_rng(1)
    for _ in range(200):
        u = rng.standard_normal(1)
        y = sys.C @ x
        estimator_step(sys, kf, st, y=y, u_ext=u, dt=1e-3)
        x = x + 1e-3 * (sys.A @ x + sys.B @ u)
        np.testing.assert_array_equal(st.x_hat, x)


def test_estimator_error_decays_at_the_closed_loop_rate():
    # The error obeys e' = (A + K_f C) e; measure the decay over one complex
    # period so the oscillating part cancels, and compare rates within 10%.
    sys = _system()
    kf = kalman_gain(sys.A, sys.C, sys.sigma_d, sys.sigma_n)
    eigs = np.linalg.eigvals(sys.A + kf @ sys.C)
    slow = eigs[np.argmax(eigs.real)]
    period = 2 * np.pi / abs(slow.imag)
    dt = 1e-4
    x = np.array([1.0, 0.0])
    st = LqgState(x_hat=[0.0, 0.0])
    norms = {}
    checkpoints = {int(round(period / dt)): 1, int(round(2 * period / dt)): 2}
    for i in range(1, max(checkpoints) + 1):
        y = sys.C @ x
        estimator_step(sys, kf, st, y=y, u_ext=[0.0], dt=dt)
        x = x + dt * (sys.A @ x)
        if i in checkpoints:
            norms[checkpoints[i]] = np.linalg.norm(x - st.x_hat)
    rate = -np.log(norms[2] / norms[1]) / period
    assert abs(rate - (-slow.real)) < 0.1 * abs(slow.real)


def test_closed_loop_settles_at_the_predicted_offset():
    # State feedback leaves a spring-force offset from the commanded position;
    # the loop must settle onto the predicted fixed point, not onto z.
    sys = _system(SmdParams(m=20.0, k=6.0, c=2.0), sigma_d=0.1, sigma_n=0.1)
    kf = kalman_gain(sys.A, sys.C, sys.sigma_d, sys.sigma_n)
    kc = lqr_gain(sys.A, sys.B, np.diag([10.0, 1.0]), [[1e-2]])
    z = np.array([2.0, 0.0])
    x_ss = closed_loop_steady_state(sys, kc, z)
    assert abs(x_ss[0] - z[0]) > 0.05 * z[0]  # the offset is real
    np.testing.assert_allclose((sys.A - sys.B @ kc) @ x_ss, -sys.B @ kc @ z,
                               atol=1e-12)

    tau = 1.0 / -np.linalg.eigvals(sys.A - sys.B @ kc).real.max()
    dt, total = 1e-3, 10.0
    x = np.zeros(2)
    st = LqgState(x_hat=np.zeros(2))
    worst = 0.0
    for i in range(int(total / dt)):
        st = lqg_step(sys, kf, kc, st, y=sys.C @ x, z=z, dt=dt)
        x = x + dt * (sys.A @ x + sys.B @ st.u)
        if (i + 1) * dt > 5 * tau:
            worst = max(worst, abs(x[0] - x_ss[0]))
    assert worst < 0.01 * z[0]


def _spd(rng, n, floor):
    G = rng.standard_normal((n, n))
    return G @ G.T + floor * np.eye(n)


def _signed_floats(rng, shape):
    a = rng.standard_normal(shape)
    a[rng.random(shape) < 0.2] = 0.0
    a[rng.random(shape) < 0.2] = -0.0
    return a


def _assert_same(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_oracle_step_matches_the_converting_step_bitwise():
    # The oracle step does its arithmetic on what it is given; the step that
    # first converted every argument to a float array (kept in
    # reference_models) must give the same estimate and control, signs of zero
    # included, when y, z and u come as float arrays, float lists or int lists.
    rng = np.random.default_rng(15)
    systems = 0
    while systems < 2000:
        K, P, p = int(rng.integers(1, 5)), int(rng.integers(1, 3)), int(rng.integers(1, 3))
        sys = LinearSystem(A=rng.standard_normal((K, K)), B=rng.standard_normal((K, P)),
                           C=rng.standard_normal((p, K)), sigma_d=_spd(rng, K, 1e-3),
                           sigma_n=_spd(rng, p, 0.1))
        try:
            kf = kalman_gain(sys.A, sys.C, sys.sigma_d, sys.sigma_n)
            kc = lqr_gain(sys.A, sys.B, _spd(rng, K, 1e-3), _spd(rng, P, 0.1))
        except ValueError:  # no stabilizing solution for this draw
            continue
        systems += 1
        dt = float(rng.uniform(1e-4, 0.05))
        x0 = _signed_floats(rng, K)
        # Step k's (y, z, y, u), as a float array, a float list or an int list.
        cuts = np.cumsum([p, K, p])
        floats = _signed_floats(rng, (50, 2 * p + K + P))
        ints = rng.integers(-3, 4, floats.shape)
        rows = [np.split(floats[k], cuts) if k % 3 == 0
                else [a.tolist() for a in np.split((floats if k % 3 == 1 else ints)[k], cuts)]
                for k in range(50)]
        loop, loop_ref = LqgState(x0.copy()), LqgState(x0.copy())
        filt, filt_ref = LqgState(x0.copy()), LqgState(x0.copy())
        got, want = [], []
        for y, z, y2, u in rows:
            lqg_step(sys, kf, kc, loop, y, z, dt)
            reference_models.lqg_step(sys, kf, kc, loop_ref, y, z, dt)
            estimator_step(sys, kf, filt, y2, u, dt)
            reference_models.estimator_step(sys, kf, filt_ref, y2, u, dt)
            got.append(np.concatenate((loop.x_hat, loop.u, filt.x_hat, filt.u)))
            want.append(np.concatenate((loop_ref.x_hat, loop_ref.u,
                                        filt_ref.x_hat, filt_ref.u)))
        _assert_same(np.array(got), np.array(want))
