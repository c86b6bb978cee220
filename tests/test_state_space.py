"""Noise streams, the plant step and observation of the closed-loop kernel,
and the finite-difference Jacobians the plant tests use as a reference."""

from dataclasses import replace

import numpy as np
import pytest

from spikecontrol import (NoiseSource, SmdParams, StreamLabel, make_rng,
                          robustness_scenario, run_control, smd_system)
from reference_models import linearize


def _kernel_run(**changes):
    """A five-step SMD control run through the closed-loop kernel, and the
    plant matrices; `changes` replace scenario fields."""
    sc = replace(robustness_scenario(3), **changes)
    sc = replace(sc, duration=5 * sc.dt)
    A, B, C = smd_system(sc.plant)
    return sc, run_control(sc), A, B, C


# ---------------------------------------------------------------------------
# seeded streams


def test_make_rng_is_deterministic():
    a = make_rng(3, StreamLabel.DECODER).standard_normal(8)
    b = make_rng(3, StreamLabel.DECODER).standard_normal(8)
    np.testing.assert_array_equal(a, b)


def test_make_rng_streams_are_distinct():
    a = make_rng(3, StreamLabel.DISTURBANCE).standard_normal(8)
    b = make_rng(3, StreamLabel.SENSOR).standard_normal(8)
    c = make_rng(4, StreamLabel.DISTURBANCE).standard_normal(8)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)


def test_noise_source_replay():
    s1 = NoiseSource(2.0, 2, seed=11, label=StreamLabel.DISTURBANCE)
    s2 = NoiseSource(2.0, 2, seed=11, label=StreamLabel.DISTURBANCE)
    np.testing.assert_array_equal(s1.sample_block(50), s2.sample_block(50))
    np.testing.assert_array_equal(s1.sample_block(7), s2.sample_block(7))


def test_sample_block_matches_repeated_samples():
    # Successive blocks continue one stream: 17 one-row blocks, or blocks of
    # 5 and 12 rows, give the rows of one 17-row block.
    blocked = NoiseSource(1.5, 2, seed=9, label=StreamLabel.VOLTAGE).sample_block(17)
    looped = NoiseSource(1.5, 2, seed=9, label=StreamLabel.VOLTAGE)
    rows = np.vstack([looped.sample_block(1) for _ in range(17)])
    np.testing.assert_array_equal(blocked, rows)
    split = NoiseSource(1.5, 2, seed=9, label=StreamLabel.VOLTAGE)
    np.testing.assert_array_equal(
        blocked, np.vstack([split.sample_block(5), split.sample_block(12)]))


def test_noise_source_matches_cholesky_factor():
    # Seeded replay of the covariance form: unit draws times the Cholesky
    # factor of s*I, bit for bit and sign for sign.
    for label in (StreamLabel.DISTURBANCE, StreamLabel.SENSOR, StreamLabel.VOLTAGE):
        for dim in (1, 2, 4):
            for s in (1e-14, 1e-10, 1e-5, 1e-3, 0.1, 0.3, 1.0, 2.0, 7.0, 10.0):
                got = NoiseSource(s, dim, seed=5, label=label).sample_block(64)
                unit = make_rng(5, label).standard_normal((64, dim))
                want = unit * np.linalg.cholesky(s * np.eye(dim)).diagonal()
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_noise_source_statistics():
    # 1e5 samples: sample mean ~ 0 and sample covariance ~ 2 I within 5%.
    cov = 2.0 * np.eye(2)
    draws = NoiseSource(2.0, 2, seed=0, label=StreamLabel.DISTURBANCE).sample_block(100_000)
    mean = draws.mean(axis=0)
    emp = np.cov(draws.T)
    assert np.abs(mean).max() < 0.05 * np.sqrt(cov.diagonal().max())
    assert np.abs(emp - cov).max() < 0.05 * np.abs(cov).max()


def test_noise_source_zero_covariance():
    src = NoiseSource(0.0, 2, seed=1, label=StreamLabel.DISTURBANCE)
    np.testing.assert_array_equal(src.sample_block(4), np.zeros((4, 2)))


def test_noise_source_rejects_bad_covariance():
    for variance in (-0.1, -1e-300, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="noise variance must be finite"):
            NoiseSource(variance, 2, seed=0, label=StreamLabel.DISTURBANCE)


def test_validate_flags_noise_definiteness():
    # The noise covariances are sigma * I, so definiteness is the sign of the
    # scalar: a singular sensor covariance or an indefinite disturbance
    # covariance is refused when the scenario is built.
    base = robustness_scenario(3)
    with pytest.raises(ValueError, match="sigma_n = 0 must be finite and positive"):
        replace(base, sigma_n=0.0)
    with pytest.raises(ValueError, match="sigma_d = -1 must be finite and nonnegative"):
        replace(base, sigma_d=-1.0)
    with pytest.raises(ValueError, match="noise variance must be finite"):
        NoiseSource(-1.0, 2, seed=0, label=StreamLabel.DISTURBANCE)
    # A semidefinite (zero) disturbance covariance is allowed: the kernel
    # then steps the plant without any disturbance.
    sc, traj, A, B, _ = _kernel_run(sigma_d=0.0)
    np.testing.assert_array_equal(
        traj.x[1:], traj.x[:-1] + sc.dt * (traj.x[:-1] @ A.T + traj.u[:-1] @ B.T))


# ---------------------------------------------------------------------------
# the closed-loop kernel's plant step and observation


def test_euler_step_double_integrator():
    # k = c = 0 leaves a double integrator: the position moves by dt * v and
    # the velocity by dt * u / m, each plus that step's disturbance draw (the
    # Kalman gain needs sigma_d > 0 here).
    plant, dt, sigma_d = SmdParams(m=3.0, k=0.0, c=0.0), 0.1, 1e-6
    sc, traj, A, B, _ = _kernel_run(plant=plant, x0=[1.0, 2.0], dt=dt, sigma_d=sigma_d)
    w = np.sqrt(dt) * (make_rng(sc.master_seed, StreamLabel.DISTURBANCE)
                       .standard_normal((5, 2)) * np.sqrt(sigma_d))
    np.testing.assert_allclose(traj.x[1], [1.2 + w[0, 0], 2.0 + dt * traj.u[0, 0] / 3.0
                                           + w[0, 1]], atol=1e-15)
    np.testing.assert_allclose(traj.x[1:], traj.x[:-1] + dt * (
        traj.x[:-1] @ A.T + traj.u[:-1] @ B.T) + w[:-1], atol=1e-15)


def test_euler_step_smd_from_unit_position():
    sc, traj, A, B, _ = _kernel_run(x0=[1.0, 0.0], dt=1e-3, sigma_d=0.0)
    u0 = traj.u[0, 0]
    np.testing.assert_allclose(traj.x[1], [1.0, 1e-3 * (-5.0 / 3.0 + u0 / 3.0)],
                               rtol=1e-12)


def test_euler_step_disturbance_scaling():
    # Per-step disturbance variance is dt * sigma_d: the injected sample is
    # sqrt(dt) times a unit-covariance draw here.
    dt = 0.04
    sc, traj, A, B, _ = _kernel_run(dt=dt, sigma_d=1.0)
    unit = make_rng(sc.master_seed, StreamLabel.DISTURBANCE).standard_normal((5, 2))
    drift = traj.x[:-1] + dt * (traj.x[:-1] @ A.T + traj.u[:-1] @ B.T)
    np.testing.assert_allclose(traj.x[1:] - drift, np.sqrt(dt) * unit[:-1],
                               atol=1e-15)


def test_observe_reads_position():
    # y = C x plus the sensor draw of that step, of variance sigma_n.
    sc, traj, _, _, C = _kernel_run(sigma_n=0.3)
    e = make_rng(sc.master_seed, StreamLabel.SENSOR).standard_normal((5, 1))
    np.testing.assert_array_equal(traj.y, traj.x @ C.T + e * np.sqrt(0.3))
    assert not np.array_equal(traj.y[:, 0], traj.x[:, 0])


# ---------------------------------------------------------------------------
# linearization


def test_linearize_recovers_linear_dynamics():
    A, B, _ = smd_system(SmdParams())
    f = lambda x, u: A @ x + B @ np.atleast_1d(u)
    A_hat, B_hat = linearize(f, [0.0, 0.0], [0.0])
    np.testing.assert_allclose(A_hat, A, atol=1e-8)
    np.testing.assert_allclose(B_hat, B, atol=1e-8)


def test_linearize_rejects_non_equilibrium():
    A, B, _ = smd_system(SmdParams())
    f = lambda x, u: A @ x + B @ np.atleast_1d(u)
    with pytest.raises(ValueError, match="not an equilibrium"):
        linearize(f, [1.0, 0.0], [0.0])
