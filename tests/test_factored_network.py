"""The factored network against the dense weight matrices it stands for.

The slow drive and the spike reset are computed as D'(M D r + In inputs) and
-D' D[:, j]. These tests expand the dense N x N forms from the closed-form
formulas, on random plants, and check the factored step against them, then
run a fixed controller against a dense reference stepper spike for spike.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from spikecontrol import (LinearSystem, build_controller, build_network,
                          kalman_gain, network_step, new_state, sample_decoder,
                          smd_control_scenario)


def _dense(sys, kf, kc, Dx, Dz, leak):
    """The controller's dense weights, term by term as the theory writes them:
    slow Dx'(A+leak I)Dx + Dx'K_f C Dx - Dx'B K_c Dx + Dx'B K_c Dz, fast
    -Dx'Dx - Dz'Dz, observation -Dx'K_f and target Dz'."""
    BKc = sys.B @ kc
    slow = (Dx.T @ (sys.A + leak * np.eye(sys.state_dim)) @ Dx
            + Dx.T @ kf @ sys.C @ Dx - Dx.T @ BKc @ Dx + Dx.T @ BKc @ Dz)
    return {"slow": slow, "fast": -Dx.T @ Dx - Dz.T @ Dz, "obs": -Dx.T @ kf,
            "target": Dz.T,
            "thresholds": 0.5 * (np.sum(Dx * Dx, axis=0) + np.sum(Dz * Dz, axis=0))}


@st.composite
def controllers(draw):
    """A random controller on a random Hurwitz plant (K <= 4, N <= 300)."""
    K = draw(st.integers(1, 4))
    n = draw(st.integers(1, 300))
    p = draw(st.integers(1, K))
    m = draw(st.integers(1, 2))
    leak = draw(st.floats(0.0, 10.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((K, K))
    A -= (np.linalg.eigvals(A).real.max() + rng.uniform(0.1, 2.0)) * np.eye(K)
    sys = LinearSystem(A=A, B=rng.standard_normal((K, m)),
                       C=rng.standard_normal((p, K)), sigma_d=np.eye(K),
                       sigma_n=np.eye(p))
    kf = rng.standard_normal((K, p))
    kc = rng.standard_normal((m, K))
    dx = sample_decoder(K, n, rng.uniform(0.01, 1.0), rng=rng)
    dz = sample_decoder(K, n, rng.uniform(0.01, 1.0), rng=rng)
    w = build_controller(sys, kf, kc, dx, dz, leak)
    return w, _dense(sys, kf, kc, dx.values, dz.values, leak), rng


@settings(max_examples=60, deadline=None)
@given(controllers())
def test_factored_drive_matches_dense_formula(case):
    w, dense, rng = case
    n, K = w.n_neurons, w.decoder_x.dim
    p = dense["obs"].shape[1]
    y, z, zdot = rng.standard_normal(p), rng.standard_normal(K), rng.standard_normal(K)
    # Unreachable thresholds, v = 0 and dt = 1: the step leaves v = drive.
    quiet = replace(w, thresholds=np.full(n, np.inf))
    state = new_state(quiet)
    state.r[:] = 5.0 * rng.standard_normal(n)
    r = state.r.copy()
    _, spike = network_step(quiet, state, 1.0, np.concatenate((y, z, zdot)))
    assert spike is None
    target = zdot + w.leak * z
    expected = dense["slow"] @ r + dense["obs"] @ y + dense["target"] @ target
    # Relative to the magnitude of the summed terms, which bounds the
    # rounding of either evaluation order even where the terms cancel.
    scale = (np.abs(dense["slow"]) @ np.abs(r) + np.abs(dense["obs"]) @ np.abs(y)
             + np.abs(dense["target"]) @ np.abs(target)).max()
    assert np.abs(state.v - expected).max() <= 1e-12 * scale
    np.testing.assert_array_equal(w.thresholds, dense["thresholds"])


@settings(max_examples=60, deadline=None)
@given(controllers(), st.data())
def test_factored_reset_matches_dense_formula(case, data):
    w, dense, _ = case
    n, K = w.n_neurons, w.decoder_x.dim
    j = data.draw(st.integers(0, n - 1))
    # r = 0 and zero inputs give a zero drive; only neuron j can fire.
    thresholds = np.full(n, np.inf)
    thresholds[j] = -np.inf
    forced = replace(w, thresholds=thresholds)
    state = new_state(forced)
    _, spike = network_step(forced, state, 1e-3,
                            np.zeros(dense["obs"].shape[1] + 2 * K))
    assert spike == j
    Dx, Dz = w.decoder_x.values, w.decoder_z.values
    scale = (np.abs(Dx.T) @ np.abs(Dx[:, j]) + np.abs(Dz.T) @ np.abs(Dz[:, j])).max()
    assert np.abs(state.v - dense["fast"][:, j]).max() <= 1e-12 * scale


def test_controller_run_matches_dense_stepper_spike_for_spike():
    sc = smd_control_scenario(3)
    system, w = build_network(sc)
    kf = kalman_gain(system.A, system.C, system.sigma_d, system.sigma_n)
    dense = _dense(system, kf, w.control_gain, w.decoder_x.values,
                   w.decoder_z.values, w.leak)
    n, dt, lam = w.n_neurons, 1e-3, w.leak
    steps = 2000
    rng = np.random.default_rng(11)
    tgrid = np.arange(steps) * dt
    y = 2.0 * np.sin(2 * np.pi * tgrid)[:, None] + 0.1 * rng.standard_normal((steps, 1))
    z = np.zeros((steps, 2))
    z[500:, 0], z[1200:, 0] = 1.0, 2.0
    zdot = np.zeros_like(z)
    zdot[:-1] = np.diff(z, axis=0) / dt
    noise = 1e-5 * np.sqrt(dt) * rng.standard_normal((steps, n))
    inputs = np.hstack((y, z, zdot))

    state = new_state(w)
    v, r, spikes, dense_spikes = np.zeros(n), np.zeros(n), [], []
    for i in range(steps):
        _, spike = network_step(w, state, dt, inputs[i], noise[i])
        if spike is not None:
            spikes.append((i, spike))
        # Dense reference: the same Euler step with the N x N matrices.
        drive = dense["slow"] @ r + dense["obs"] @ y[i] \
            + dense["target"] @ (zdot[i] + lam * z[i])
        v += dt * (drive - lam * v)
        v += noise[i]
        r *= 1.0 - lam * dt
        excess = v - dense["thresholds"]
        j = int(np.argmax(excess))
        if excess[j] > 0.0:
            v += dense["fast"][:, j]
            r[j] += 1.0
            dense_spikes.append((i, j))
    assert len(dense_spikes) > 100
    assert spikes == dense_spikes
    np.testing.assert_array_equal(state.r, r)
    np.testing.assert_allclose(state.v, v, rtol=0, atol=1e-12)
