"""Noise streams, the plant step and observation of the closed-loop kernel,
and the finite-difference Jacobians the plant tests use as a reference."""

import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def _off_main_thread_draws(monkeypatch, fail=None):
    """Patch `NoiseSource._draw` to list the sizes it draws on a worker
    thread; with `fail`, a worker's draw raises that error instead."""
    draw, main, sizes = NoiseSource._draw, threading.get_ident(), []

    def recording(self, n):
        if threading.get_ident() != main:
            sizes.append(n)
            if fail is not None:
                raise fail
        return draw(self, n)

    monkeypatch.setattr(NoiseSource, "_draw", recording)
    return sizes


def _hand_overs(monkeypatch):
    """Patch `NoiseSource.sample_block` to list (calling thread, size) of each call."""
    sample_block, calls = NoiseSource.sample_block, []

    def recording(self, n):
        calls.append((threading.get_ident(), n))
        return sample_block(self, n)

    monkeypatch.setattr(NoiseSource, "sample_block", recording)
    return calls


@pytest.mark.parametrize("variance", [0.0, 1.5])
def test_prefetch_draws_the_next_block_on_a_worker(monkeypatch, variance):
    # `rows` yields one inline draw of all n samples times the scale, bit for
    # bit, for blocks of 2621 rows (dim 50), 3 rows (dim 43 690) and one row
    # (dim 131 073, all drawn inline), n not a multiple of the block. Every
    # block is taken by `sample_block` on the caller's thread; blocks 2, 3, ...
    # were drawn on a worker. At zero variance every sample is a zero of its
    # draw's sign, so the signs of zero are compared.
    on_worker, calls = _off_main_thread_draws(monkeypatch), _hand_overs(monkeypatch)
    for dim, n, blocks in ((50, 6000, [2621, 2621, 758]), (43_690, 10, [3, 3, 3, 1]),
                           ((1 << 17) + 1, 3, [1, 1, 1])):
        want = NoiseSource(variance, dim, seed=4, label=StreamLabel.VOLTAGE).sample_block(n)
        want *= 0.25
        on_worker.clear()
        calls.clear()
        got = np.array(list(NoiseSource(variance, dim, seed=4,
                                        label=StreamLabel.VOLTAGE).rows(n, 0.25)))
        assert calls == [(threading.get_ident(), k) for k in blocks], dim
        assert on_worker == (blocks[1:] if blocks[0] > 1 else []), dim
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    if variance == 0.0:
        assert not got.any() and np.signbit(got).any() and not np.signbit(got).all()


def test_prefetch_error_is_raised_at_the_hand_over(monkeypatch):
    # The worker keeps its error; `rows` raises it on the caller's thread
    # where block 2 is taken, after the rows of block 1 (3 rows at dim
    # 43 690), and no exception escapes the worker.
    _off_main_thread_draws(monkeypatch, fail=MemoryError("no room for the block"))
    src = NoiseSource(1.0, 43_690, seed=2, label=StreamLabel.VOLTAGE)
    rows = src.rows(5, 1.0)
    assert len([next(rows) for _ in range(3)]) == 3
    with pytest.raises(MemoryError, match="no room for the block"):
        next(rows)
    assert src.sample_block(2).shape == (2, 43_690)  # nothing is pending any more


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 3000), n=st.integers(1, 300),
       variance=st.just(0.0) | st.floats(0.0, 1e6), scale=st.floats(0.0, 1e3),
       seed=st.integers(0, 2**32 - 1))
def test_rows_equal_one_scaled_draw(dim, n, variance, scale, seed):
    # Row by row and bit for bit, signs of zero included, whatever the
    # block size (43 rows at dim 3000 up to all n at small dims).
    src = NoiseSource(variance, dim, seed, StreamLabel.VOLTAGE)
    want = NoiseSource(variance, dim, seed, StreamLabel.VOLTAGE).sample_block(n) * scale
    got = list(src.rows(n, scale))
    assert len(got) == n
    for row, want_row in zip(got, want):
        assert np.array_equal(row, want_row)
        assert np.array_equal(np.signbit(row), np.signbit(want_row))


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
