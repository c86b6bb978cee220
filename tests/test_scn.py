"""Spike-rule mechanics and the closed-form network constructions."""

import json

import numpy as np
import pytest

from spikecontrol import (DecoderMatrix, LinearSystem, NetworkDivergedError,
                          SmdParams, build_autoencoder, build_controller,
                          build_estimator, load_weights, network_step,
                          new_state, sample_decoder, save_weights, silence,
                          smd_system)
from spikecontrol.scn import MODE_INPUTS

from reference_models import autoencoder_operators


def _smd_linear_system():
    A, B, C = smd_system(SmdParams())
    return LinearSystem(A=A, B=B, C=C, sigma_d=0.001 * np.eye(2),
                        sigma_n=0.001 * np.eye(1))


def dynamics_network(A, dec, leak):
    """The autonomous network whose decode follows dx/dt = A x: the estimator
    at zero Kalman gain of a plant whose B and C are zero. Step it with
    y = u = 0."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    K = A.shape[0]
    sys = LinearSystem(A=A, B=np.zeros((K, 1)), C=np.zeros((1, K)),
                       sigma_d=np.eye(K), sigma_n=np.eye(1))
    return build_estimator(sys, np.zeros((K, 1)), dec, leak)


def _random_estimator(n_neurons=7, leak=0.1, seed=4):
    rng = np.random.default_rng(seed)
    sys = _smd_linear_system()
    kf = rng.standard_normal((2, 1))
    dec = sample_decoder(2, n_neurons, 0.1, seed=seed)
    return sys, kf, dec, build_estimator(sys, kf, dec, leak)


# ---------------------------------------------------------------------------
# decoders


def test_sample_decoder_column_norms():
    dec = sample_decoder(2, 20, 0.1, seed=0)
    assert dec.dim == 2 and dec.n_neurons == 20
    np.testing.assert_allclose(np.linalg.norm(dec.values, axis=0), 0.1,
                               atol=1e-12)


def test_sample_decoder_deterministic():
    a = sample_decoder(2, 20, 0.1, seed=3)
    b = sample_decoder(2, 20, 0.1, seed=3)
    np.testing.assert_array_equal(a.values, b.values)


def test_sample_decoder_sequential_draws_differ():
    rng = np.random.default_rng(0)
    a = sample_decoder(2, 5, 0.1, rng=rng)
    b = sample_decoder(2, 5, 0.1, rng=rng)
    assert not np.allclose(a.values, b.values)


def test_sample_decoder_single_neuron():
    dec = sample_decoder(2, 1, 0.5, seed=1)
    assert dec.values.shape == (2, 1)
    np.testing.assert_allclose(np.linalg.norm(dec.values[:, 0]), 0.5)


def test_decoder_matrix_rejects_wrong_norms():
    with pytest.raises(ValueError, match="norm"):
        DecoderMatrix(values=np.array([[1.0, 0.0], [0.0, 0.5]]), column_norm=1.0)
    with pytest.raises(ValueError, match="2-D"):
        DecoderMatrix(values=np.ones(3), column_norm=1.0)


def test_sample_decoder_needs_seed_or_rng():
    with pytest.raises(ValueError):
        sample_decoder(2, 5, 0.1)


# ---------------------------------------------------------------------------
# builders: closed forms checked entry by entry, on the dense matrices the
# factored weights stand for


def _expand(w):
    """(slow, fast, input) dense weights of a factored network: D'MD, -D'D
    and D' In, expanded from the stacked decoder D and the operators."""
    D = w.decoders
    return D.T @ w.recurrent @ D, -D.T @ D, D.T @ w.input_op


def test_autoencoder_weights_closed_form():
    dec = sample_decoder(2, 9, 0.1, seed=5)
    w = build_autoencoder(dec, leak=2.0)
    D = dec.values
    slow, fast, inp = _expand(w)
    # fast weights: -D'D, symmetric, diagonal -gamma^2
    np.testing.assert_allclose(fast, fast.T, atol=1e-15)
    np.testing.assert_allclose(np.diag(fast), -0.01, atol=1e-15)
    for i in range(9):
        for j in range(9):
            assert abs(fast[i, j] - (-D[:, i] @ D[:, j])) < 1e-15
    np.testing.assert_array_equal(slow, np.zeros((9, 9)))
    # inputs: D'(signal_dot + leak * signal)
    np.testing.assert_allclose(inp, np.hstack((2.0 * D.T, D.T)), atol=1e-15)
    np.testing.assert_allclose(w.thresholds, 0.005, atol=1e-15)
    assert w.mode == "estimator" and w.leak == 2.0


def test_autoencoder_matches_its_closed_form_bitwise():
    # The estimator of the integrator at K_f = -leak I has the autoencoder's
    # own operators entry for entry and sign of zero for sign of zero, on
    # random decoders of K <= 4 and leaks including 0.
    rng = np.random.default_rng(21)
    for case in range(1000):
        K, n = int(rng.integers(1, 5)), int(rng.integers(1, 31))
        leak = (0.0, 0, 1.0, float(rng.random() * 10), float(rng.exponential(100)))[case % 5]
        dec = sample_decoder(K, n, float(rng.uniform(0.01, 2.0)), rng=rng)
        w = build_autoencoder(dec, leak)
        assert w.decoder_x is dec and w.leak == leak and w.decoder_z is None
        for got, want in zip((w.recurrent, w.input_op, w.thresholds),
                             autoencoder_operators(dec, leak)):
            assert got.shape == want.shape and np.array_equal(got, want), case
            assert np.array_equal(np.signbit(got), np.signbit(want)), case


def test_single_neuron_dynamics_network():
    d, a, lam = 0.3, -0.7, 0.4
    dec = DecoderMatrix(values=np.array([[d]]), column_norm=d)
    w = dynamics_network([[a]], dec, leak=lam)
    slow, fast, inp = _expand(w)
    assert abs(slow[0, 0] - d * d * (a + lam)) < 1e-15
    assert abs(fast[0, 0] - (-d * d)) < 1e-15
    assert abs(w.thresholds[0] - 0.5 * d * d) < 1e-15
    assert not inp.any()  # the input columns (y, u) are exactly zero


def test_dynamics_network_pure_leak_has_no_slow_weights():
    # A = -leak * I makes the slow recurrence vanish identically.
    lam = 0.8
    dec = sample_decoder(2, 6, 0.1, seed=2)
    w = dynamics_network(-lam * np.eye(2), dec, leak=lam)
    np.testing.assert_array_equal(w.recurrent, np.zeros((2, 2)))
    np.testing.assert_array_equal(_expand(w)[0], np.zeros((6, 6)))


def test_dynamics_network_dimension_mismatch():
    dec = sample_decoder(2, 6, 0.1, seed=2)
    with pytest.raises(ValueError, match="dimension"):
        dynamics_network(np.eye(3), dec, leak=0.1)


def test_estimator_weights_entrywise():
    sys, kf, dec, w = _random_estimator()
    D, lam = dec.values, 0.1
    n = dec.n_neurons
    ApL = sys.A + lam * np.eye(2)
    KfC = kf @ sys.C
    slow, _, inp = _expand(w)
    for i in range(n):
        for j in range(n):
            expected = D[:, i] @ ApL @ D[:, j] + D[:, i] @ KfC @ D[:, j]
            assert abs(slow[i, j] - expected) < 1e-14
    # inputs in the order (y, u): obs_in = -D' K_f, drive_in = D' B
    np.testing.assert_allclose(inp[:, :1], -D.T @ kf, atol=1e-15)
    np.testing.assert_allclose(inp[:, 1:], D.T @ sys.B, atol=1e-15)


def test_estimator_zero_gain_reduces_to_dynamics_network():
    sys = _smd_linear_system()
    dec = sample_decoder(2, 8, 0.1, seed=6)
    w = build_estimator(sys, np.zeros((2, 1)), dec, leak=0.1)
    slow, _, inp = _expand(w)
    np.testing.assert_array_equal(inp[:, :1], np.zeros((8, 1)))
    # The dense slow weights of the autonomous network, D'(A + leak I)D.
    ApL = sys.A + 0.1 * np.eye(2)
    np.testing.assert_array_equal(w.recurrent, ApL)
    np.testing.assert_array_equal(slow, dec.values.T @ ApL @ dec.values)


def test_estimator_shape_checks():
    sys = _smd_linear_system()
    with pytest.raises(ValueError, match="decoder dimension"):
        build_estimator(sys, np.zeros((2, 1)), sample_decoder(3, 5, 0.1, seed=0),
                        leak=0.1)
    with pytest.raises(ValueError, match="gain shape"):
        build_estimator(sys, np.zeros((1, 2)), sample_decoder(2, 5, 0.1, seed=0),
                        leak=0.1)


def _readout(w):
    """Dense control readout -K_c (Dx - Dz), u = readout @ r."""
    return -w.control_gain @ (w.decoder_x.values - w.decoder_z.values)


def test_controller_weights_entrywise():
    sys = _smd_linear_system()
    rng = np.random.default_rng(8)
    kf = rng.standard_normal((2, 1))
    kc = rng.standard_normal((1, 2))
    dx = sample_decoder(2, 6, 0.1, seed=7)
    dz = sample_decoder(2, 6, 0.2, seed=8)
    w = build_controller(sys, kf, kc, dx, dz, leak=0.1)
    Dx, Dz = dx.values, dz.values
    BKc = sys.B @ kc
    ApL = sys.A + 0.1 * np.eye(2)
    KfC = kf @ sys.C
    np.testing.assert_array_equal(w.decoders, np.vstack((Dx, Dz)))
    slow, fast, inp = _expand(w)
    for i in range(6):
        for j in range(6):
            expected = (Dx[:, i] @ ApL @ Dx[:, j] + Dx[:, i] @ KfC @ Dx[:, j]
                        - Dx[:, i] @ BKc @ Dx[:, j] + Dx[:, i] @ BKc @ Dz[:, j])
            assert abs(slow[i, j] - expected) < 1e-14
            expected = -Dx[:, i] @ Dx[:, j] - Dz[:, i] @ Dz[:, j]
            assert abs(fast[i, j] - expected) < 1e-14
    np.testing.assert_allclose(w.thresholds, 0.5 * (0.1**2 + 0.2**2), atol=1e-15)
    # inputs in the order (y, z, zdot): -Dx' K_f y + Dz'(zdot + leak z)
    np.testing.assert_allclose(inp[:, :1], -Dx.T @ kf, atol=1e-15)
    np.testing.assert_allclose(inp[:, 1:3], 0.1 * Dz.T, atol=1e-15)
    np.testing.assert_allclose(inp[:, 3:], Dz.T, atol=1e-15)
    np.testing.assert_allclose(_readout(w), -kc @ (Dx - Dz), atol=1e-15)
    np.testing.assert_array_equal(w.control_gain, np.atleast_2d(kc))


def test_controller_operators_match_np_block_bitwise():
    # M and In, written block by block into zeros, equal the np.block form
    # entry for entry and sign of zero for sign of zero, on random plants of
    # K <= 4 with signed zeros in the gains and leaks including 0.
    rng = np.random.default_rng(12)
    for case in range(300):
        K, m, p = (int(v) for v in rng.integers(1, [5, 3, 3]))
        A, B, C, kf, kc = (rng.standard_normal(shape) for shape in
                           ((K, K), (K, m), (p, K), (K, p), (m, K)))
        for gain in (A, kf, kc):
            gain[rng.random(gain.shape) < 0.3] = rng.choice([0.0, -0.0])
        sys = LinearSystem(A=A, B=B, C=C, sigma_d=np.eye(K), sigma_n=np.eye(p))
        leak = (0.0, 0.1, float(rng.random() * 10))[case % 3]
        dx, dz = (sample_decoder(K, 5, 0.1, seed=case + i) for i in (0, 1))
        w = build_controller(sys, kf, kc, dx, dz, leak)
        eye, BKc = np.eye(K), B @ kc
        want_m = np.block([[A + leak * eye + kf @ C - BKc, BKc], [np.zeros((K, 2 * K))]])
        want_in = np.block([[-kf, np.zeros((K, 2 * K))],
                            [np.zeros((K, p)), leak * eye, eye]])
        for got, want in ((w.recurrent, want_m), (w.input_op, want_in)):
            assert got.shape == want.shape and np.array_equal(got, want), case
            assert np.array_equal(np.signbit(got), np.signbit(want)), case


def test_controller_readout_identity_on_random_rates():
    sys = _smd_linear_system()
    rng = np.random.default_rng(12)
    kc = rng.standard_normal((1, 2))
    w = build_controller(sys, rng.standard_normal((2, 1)), kc,
                         sample_decoder(2, 30, 0.1, seed=1),
                         sample_decoder(2, 30, 0.1, seed=2), leak=0.1)
    st = new_state(w)
    for _ in range(20):
        st.r[:] = rng.standard_normal(30) * 10
        direct = _readout(w) @ st.r
        x_hat, z_hat = w.decoder_x.values @ st.r, w.decoder_z.values @ st.r
        np.testing.assert_allclose(direct, -(w.control_gain @ (x_hat - z_hat)),
                                   atol=1e-12)


def test_controller_identical_decoders_read_out_zero():
    sys = _smd_linear_system()
    dx = sample_decoder(2, 6, 0.1, seed=7)
    w = build_controller(sys, np.zeros((2, 1)), np.ones((1, 2)), dx, dx, leak=0.1)
    np.testing.assert_array_equal(_readout(w), np.zeros((1, 6)))
    # The control feedback -BK_c x_hat and the target term BK_c z_hat cancel.
    BKc = sys.B @ np.ones((1, 2))
    np.testing.assert_array_equal(w.recurrent[:2, 2:], BKc)
    np.testing.assert_array_equal(w.recurrent[:2, :2],
                                  sys.A + 0.1 * np.eye(2) - BKc)
    D = dx.values
    np.testing.assert_allclose(_expand(w)[0], D.T @ (sys.A + 0.1 * np.eye(2)) @ D,
                               atol=1e-15)


def test_controller_zero_lqr_gain():
    sys = _smd_linear_system()
    dx = sample_decoder(2, 6, 0.1, seed=7)
    dz = sample_decoder(2, 6, 0.1, seed=9)
    w = build_controller(sys, np.zeros((2, 1)), np.zeros((1, 2)), dx, dz, leak=0.1)
    Dx, Dz = dx.values, dz.values
    M = w.recurrent
    np.testing.assert_array_equal(Dx.T @ M[:2, 2:] @ Dz, np.zeros((6, 6)))
    np.testing.assert_array_equal(M[:2, :2], sys.A + 0.1 * np.eye(2))
    np.testing.assert_array_equal(M[2:], np.zeros((2, 4)))
    np.testing.assert_array_equal(_readout(w), np.zeros((1, 6)))


def test_controller_population_mismatch():
    sys = _smd_linear_system()
    with pytest.raises(ValueError, match="population"):
        build_controller(sys, np.zeros((2, 1)), np.zeros((1, 2)),
                         sample_decoder(2, 6, 0.1, seed=0),
                         sample_decoder(2, 7, 0.1, seed=1), leak=0.1)
    with pytest.raises(ValueError, match="decoder dimensions must match system state"):
        build_controller(sys, np.zeros((2, 1)), np.zeros((1, 2)),
                         sample_decoder(2, 6, 0.1, seed=0),
                         sample_decoder(3, 6, 0.1, seed=1), leak=0.1)


# ---------------------------------------------------------------------------
# stepping mechanics


def test_step_input_requirements():
    # The input vector is what input_op acts on: y, u (1 + 1) for the
    # estimator, y, z, zdot (1 + 2 + 2) for the controller and y, u =
    # signal, signal_dot (2 + 2) for the autoencoder. One entry short or long fails.
    sys, _, _, est = _random_estimator()
    ctrl = build_controller(sys, np.zeros((2, 1)), np.zeros((1, 2)),
                            sample_decoder(2, 5, 0.1, seed=0),
                            sample_decoder(2, 5, 0.1, seed=1), leak=0.1)
    enc = build_autoencoder(sample_decoder(2, 5, 0.1, seed=0), leak=0.1)
    for weights, size in ((est, 2), (ctrl, 5), (enc, 4)):
        for wrong in (size - 1, size + 1):
            with pytest.raises(ValueError):
                network_step(weights, new_state(weights), 1e-3, np.zeros(wrong))
        network_step(weights, new_state(weights), 1e-3, np.zeros(size))


def test_quiet_network_never_spikes():
    enc = build_autoencoder(sample_decoder(2, 5, 0.1, seed=0), leak=0.1)
    st = new_state(enc)
    for _ in range(100):
        st, spike = network_step(enc, st, 1e-3, np.zeros(4))
    assert spike is None and st.spike_log == []
    np.testing.assert_array_equal(st.v, np.zeros(5))
    assert st.step == 100 and abs(st.t - 0.1) < 1e-12


def test_voltage_and_rate_leak_kinematics():
    lam, dt, k = 3.0, 1e-3, 200
    enc = build_autoencoder(sample_decoder(2, 4, 0.1, seed=0), leak=lam)
    st = new_state(enc)
    st.v[:] = 0.004  # below threshold 0.005: decays without spiking
    st.r[:] = 1.0
    for _ in range(k):
        st, spike = network_step(enc, st, dt, np.zeros(4))
        assert spike is None
    np.testing.assert_allclose(st.v, 0.004 * (1 - lam * dt) ** k, rtol=1e-12)
    np.testing.assert_allclose(st.r, (1 - lam * dt) ** k, rtol=1e-12)


def test_zero_leak_rate_is_a_spike_counter():
    enc = build_autoencoder(sample_decoder(2, 6, 0.1, seed=3), leak=0.0)
    st = new_state(enc)
    rng = np.random.default_rng(0)
    for _ in range(500):
        st, _ = network_step(enc, st, 1e-3, np.concatenate(
            (rng.standard_normal(2), rng.standard_normal(2) * 5)))
    assert len(st.spike_log) > 0
    assert st.r.sum() == len(st.spike_log)
    assert np.all(st.r == np.round(st.r))


def test_single_spike_updates():
    enc = build_autoencoder(sample_decoder(2, 5, 0.1, seed=0), leak=0.0)
    st = new_state(enc)
    st.v[2] = enc.thresholds[2] + 0.001
    st, spike = network_step(enc, st, 1e-3, np.zeros(4))
    assert spike == 2
    assert st.r[2] == 1.0 and st.r.sum() == 1.0
    assert st.spike_log == [(0.0, 2)]
    # fast reset: the winner's voltage drops by gamma^2 (diagonal of -D'D)
    expected_v2 = enc.thresholds[2] + 0.001 + _expand(enc)[1][2, 2]
    assert abs(st.v[2] - expected_v2) < 1e-15


def test_one_spike_per_step_greedy_winner():
    enc = build_autoencoder(sample_decoder(2, 5, 0.1, seed=0), leak=0.0)
    st = new_state(enc)
    st.v[1] = enc.thresholds[1] + 0.001
    st.v[3] = enc.thresholds[3] + 0.002  # larger excess: greedy pick
    st, spike = network_step(enc, st, 1e-3, np.zeros(4))
    assert spike == 3
    assert len(st.spike_log) == 1


def test_threshold_tie_goes_to_lowest_index():
    enc = build_autoencoder(sample_decoder(2, 5, 0.1, seed=0), leak=0.0)
    st = new_state(enc)
    st.v[1] = enc.thresholds[1] + 0.001
    st.v[4] = enc.thresholds[4] + 0.001
    st, spike = network_step(enc, st, 1e-3, np.zeros(4))
    assert spike == 1


def test_silenced_neuron_never_spikes_but_keeps_integrating():
    lam = 0.5
    enc = build_autoencoder(sample_decoder(2, 5, 0.1, seed=0), leak=lam)
    st = new_state(enc)
    silence(st, [0])
    st.v[0] = 10.0  # way above threshold
    st.v[1] = enc.thresholds[1] + 0.001
    st, spike = network_step(enc, st, 1e-3, np.zeros(4))
    assert spike == 1  # the runner-up wins instead
    assert all(j != 0 for _, j in st.spike_log)
    # the silenced voltage still obeys the leak dynamics (plus fast kick)
    expected = 10.0 * (1 - lam * 1e-3) + _expand(enc)[1][0, 1]
    assert abs(st.v[0] - expected) < 1e-12


def test_silence_everything_decays_to_zero():
    enc = build_autoencoder(sample_decoder(2, 5, 0.1, seed=0), leak=1.0)
    st = new_state(enc)
    st.r[:] = 2.0
    silence(st, range(5))
    d0 = np.linalg.norm(enc.decoder_x.values @ st.r)
    for _ in range(300):
        st, spike = network_step(enc, st, 1e-2,
                                 np.concatenate((np.ones(2), np.zeros(2))))
        assert spike is None
    assert np.linalg.norm(enc.decoder_x.values @ st.r) < 0.06 * d0
    assert st.silence_log == [(0.0, (0, 1, 2, 3, 4))]


def test_silence_rejects_out_of_range_ids():
    enc = build_autoencoder(sample_decoder(2, 5, 0.1, seed=0), leak=0.1)
    st = new_state(enc)
    with pytest.raises(ValueError, match="out of range"):
        silence(st, [5])
    with pytest.raises(ValueError, match="out of range"):
        silence(st, [-1])


def test_divergence_raises_with_step_index():
    enc = build_autoencoder(sample_decoder(2, 5, 0.1, seed=0), leak=0.1)
    st = new_state(enc)
    st.step = 41
    st.v[0] = np.nan
    with pytest.raises(NetworkDivergedError, match="step 41"):
        network_step(enc, st, 1e-3, np.zeros(4))


# ---------------------------------------------------------------------------
# coding behaviour


def _run_autoencoder(n_neurons, seed, duration=5.0, dt=1e-3, gamma=0.1,
                     leak=1.0):
    """Drive a network with a circular 2-D sweep; return per-step decode errors."""
    enc = build_autoencoder(sample_decoder(2, n_neurons, gamma, seed=seed),
                            leak=leak)
    st = new_state(enc)
    n = int(round(duration / dt))
    tgrid = np.arange(n + 1) * dt
    omega = 2 * np.pi * 0.2
    sig = 0.5 * np.column_stack([np.sin(omega * tgrid),
                                 1.0 - np.cos(omega * tgrid)])
    sig_dot = np.diff(sig, axis=0) / dt
    inputs = np.hstack((sig[:-1], sig_dot))
    errors = np.empty(n)
    first_spike = None
    for i in range(n):
        st, spike = network_step(enc, st, dt, inputs[i])
        if first_spike is None and spike is not None:
            first_spike = i
        errors[i] = np.linalg.norm(sig[i + 1] - enc.decoder_x.values @ st.r)
    assert first_spike is not None
    return errors, first_spike, st


def test_autoencoder_tracks_signal_within_column_norm():
    errors, first_spike, _ = _run_autoencoder(20, seed=0)
    assert errors[first_spike:].max() <= 0.1 + 1e-9


def test_more_neurons_do_not_hurt_decode_error():
    # Doubling the population at fixed column norm should not increase the
    # time-averaged decode error (checked across seeds, not per draw).
    small, large = [], []
    for seed in range(10):
        e20, f20, _ = _run_autoencoder(20, seed=seed)
        e40, f40, _ = _run_autoencoder(40, seed=seed)
        small.append(e20[f20:].mean())
        large.append(e40[f40:].mean())
    assert np.mean(large) <= np.mean(small) * 1.05


def test_autonomous_network_follows_embedded_dynamics():
    A, _, _ = smd_system(SmdParams())
    dec = sample_decoder(2, 20, 0.1, seed=0)
    lam, dt = 0.1, 1e-3
    w = dynamics_network(A, dec, leak=lam)
    st = new_state(w)
    x = np.array([1.0, 0.0])
    st.r[:] = np.linalg.pinv(dec.values) @ x  # matched initial decode
    sq = 0.0
    n = 10_000
    for _ in range(n):
        x = x + dt * (A @ x)
        st, _ = network_step(w, st, dt, np.zeros(2))
        sq += np.sum((x - w.decoder_x.values @ st.r) ** 2)
    assert np.sqrt(sq / n) < 5 * 0.1


# ---------------------------------------------------------------------------
# persistence


def test_weight_roundtrip_controller(tmp_path):
    sys = _smd_linear_system()
    rng = np.random.default_rng(2)
    w = build_controller(sys, rng.standard_normal((2, 1)),
                         rng.standard_normal((1, 2)),
                         sample_decoder(2, 12, 0.1, seed=3),
                         sample_decoder(2, 12, 0.3, seed=4), leak=0.7)
    path = tmp_path / "weights.json"
    save_weights(w, path)
    loaded = load_weights(path)
    assert loaded.mode == "controller" and loaded.leak == 0.7
    np.testing.assert_array_equal(loaded.thresholds, w.thresholds)
    np.testing.assert_array_equal(loaded.decoder_x.values, w.decoder_x.values)
    np.testing.assert_array_equal(loaded.decoder_z.values, w.decoder_z.values)
    assert loaded.decoder_z.column_norm == 0.3
    for name in ("recurrent", "input_op", "control_gain"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(w, name),
                                      err_msg=name)
    for name, got, want in zip(("slow", "fast", "input"), _expand(loaded),
                               _expand(w)):
        np.testing.assert_array_equal(got, want, err_msg=name)
    np.testing.assert_array_equal(_readout(loaded), _readout(w))


def test_weight_roundtrip_estimator(tmp_path):
    _, _, _, w = _random_estimator()
    path = tmp_path / "weights.json"
    save_weights(w, path)
    loaded = load_weights(path)
    assert loaded.mode == "estimator"
    assert loaded.decoder_z is None and loaded.control_gain is None
    np.testing.assert_array_equal(loaded.recurrent, w.recurrent)
    np.testing.assert_array_equal(loaded.input_op, w.input_op)


def _inputs(mode, rng):
    """One step's random input vector for a network of the given mode (state
    dimension 2, one observation, one control input)."""
    shapes = {"y": 1, "u": 1, "z": 2, "zdot": 2}
    return np.concatenate([rng.standard_normal(shapes[name])
                           for name in MODE_INPUTS[mode]])


def test_weight_roundtrip_all_modes_replays(tmp_path):
    sys = _smd_linear_system()
    rng = np.random.default_rng(5)
    dx = sample_decoder(2, 15, 0.1, seed=1)
    dz = sample_decoder(2, 15, 0.1, seed=2)
    built = (build_estimator(sys, rng.standard_normal((2, 1)), dx, leak=0.5),
             build_controller(sys, rng.standard_normal((2, 1)),
                              rng.standard_normal((1, 2)), dx, dz, leak=0.5))
    assert [w.mode for w in built] == list(MODE_INPUTS)
    for w in built:
        path = tmp_path / f"{w.mode}.json"
        save_weights(w, path)
        loaded = load_weights(path)
        assert loaded.mode == w.mode
        for name in ("recurrent", "input_op", "thresholds"):
            assert np.array_equal(getattr(loaded, name), getattr(w, name)), name
        assert np.array_equal(loaded.decoders, w.decoders)
        runs = []
        for net in (w, loaded):
            st = new_state(net)
            st.r[:] = 3.0
            step_rng = np.random.default_rng(9)
            for _ in range(300):
                noise = 1e-3 * step_rng.standard_normal(15)
                network_step(net, st, 1e-2, _inputs(w.mode, step_rng), noise)
            runs.append(st)
        assert runs[0].spike_log and runs[0].spike_log == runs[1].spike_log, w.mode
        np.testing.assert_array_equal(runs[0].v, runs[1].v)


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "not_weights.json"
    path.write_text('{"format": "something-else", "version": 2}\n')
    with pytest.raises(ValueError, match="not a version-2"):
        load_weights(path)


def test_load_rejects_version_1(tmp_path):
    path = tmp_path / "old_weights.json"
    path.write_text('{"format": "scn-weights", "version": 1, "matrices": {}}\n')
    with pytest.raises(ValueError, match="version 1"):
        load_weights(path)


def test_load_reads_an_autoencoder_file_as_its_estimator(tmp_path):
    # Earlier writers saved an autoencoder under mode 'autoencoder' with
    # inputs (signal, signal_dot). Such a file still loads, as the estimator
    # of the integrator its arrays are, with every array the step reads.
    w = build_autoencoder(sample_decoder(2, 7, 0.1, seed=4), leak=0.3)
    path = tmp_path / "weights.json"
    save_weights(w, path)
    doc = json.loads(path.read_text())
    assert (doc["mode"], doc["inputs"]) == ("estimator", ["y", "u"])
    doc.update(mode="autoencoder", inputs=["signal", "signal_dot"])
    path.write_text(json.dumps(doc))
    loaded = load_weights(path)
    assert loaded.mode == "estimator" and loaded.leak == 0.3
    for name in ("recurrent", "input_op", "thresholds", "decoders"):
        assert np.array_equal(getattr(loaded, name), getattr(w, name)), name


def test_load_rejects_a_mode_its_arrays_contradict(tmp_path):
    _, _, _, w = _random_estimator()
    path = tmp_path / "weights.json"
    save_weights(w, path)
    path.write_text(path.read_text().replace('"mode": "estimator"',
                                             '"mode": "controller"'))
    with pytest.raises(ValueError, match="names mode 'controller', but its arrays "
                                         "hold a network of mode 'estimator'"):
        load_weights(path)


def test_load_rejects_unknown_mode(tmp_path):
    # No builder makes an 'autonomous' network: that is an estimator at zero
    # gain. A file naming the mode fails on load, not at its first step.
    _, _, _, w = _random_estimator()
    path = tmp_path / "weights.json"
    save_weights(w, path)
    path.write_text(path.read_text().replace('"mode": "estimator"',
                                             '"mode": "autonomous"'))
    with pytest.raises(ValueError, match="unknown mode 'autonomous'"):
        load_weights(path)
