"""Riccati solver and the LQR / Kalman gain pair."""

import re

import numpy as np
import pytest

from reference_models import _solve_lyapunov_kron, solve_care_kron
from spikecontrol import (CartpoleParams, LqrCost, SmdParams,
                          cartpole_linearize_up, kalman_gain, lqr_gain,
                          riccati, smd_system, solve_care)


def _care_residual(A, B, Q, R, P):
    return A.T @ P + P @ A - P @ B @ np.linalg.solve(R, B.T) @ P + Q


def test_scalar_care_closed_form():
    # a = b = q = r = 1: p^2 - 2p - 1 = 0, stabilizing root p = 1 + sqrt(2).
    sol = solve_care([[1.0]], [[1.0]], [[1.0]], [[1.0]])
    assert abs(sol.P[0, 0] - (1.0 + np.sqrt(2.0))) < 1e-10
    assert abs(lqr_gain([[1.0]], [[1.0]], [[1.0]], [[1.0]])[0, 0]
               - (1.0 + np.sqrt(2.0))) < 1e-10


def test_scalar_care_zero_cost_stable_plant():
    # Stable plant, no state cost: doing nothing is optimal, P = 0, K = 0.
    sol = solve_care([[-1.0]], [[1.0]], [[0.0]], [[1.0]])
    assert abs(sol.P[0, 0]) < 1e-12
    assert abs(lqr_gain([[-1.0]], [[1.0]], [[0.0]], [[1.0]])[0, 0]) < 1e-12


def test_scalar_kalman_gain():
    # a = 0, c = 1, unit noise: error covariance 1, K_f = -1 (so a + K_f c < 0).
    kf = kalman_gain([[0.0]], [[1.0]], [[1.0]], [[1.0]])
    assert abs(kf[0, 0] - (-1.0)) < 1e-10


def test_kalman_gain_zero_disturbance():
    # No process noise on a stable plant: the filter trusts its model, K_f = 0.
    A, _, C = smd_system(SmdParams())
    kf = kalman_gain(A, C, np.zeros((2, 2)), np.eye(1))
    np.testing.assert_allclose(kf, np.zeros((2, 1)), atol=1e-12)


@pytest.mark.parametrize("name", ["smd", "cartpole"])
def test_care_solution_properties(name):
    if name == "smd":
        A, B, _ = smd_system(SmdParams(m=20.0, k=6.0, c=2.0))
        Q, R = np.diag([10.0, 1.0]), np.array([[1e-2]])
    else:
        A, B, _ = cartpole_linearize_up(CartpoleParams())
        Q, R = np.diag([1.0, 1.0, 10.0, 1.0]), np.array([[1e-2]])
    sol = solve_care(A, B, Q, R)
    n = A.shape[0]
    np.testing.assert_allclose(sol.P, sol.P.T, atol=1e-10)
    assert np.linalg.eigvalsh(sol.P).min() >= -1e-10
    resid = _care_residual(A, B, Q, R, sol.P)
    assert np.linalg.norm(resid) < 1e-8 * max(1.0, np.linalg.norm(sol.P))
    assert sol.residual_norm < 1e-8 * max(1.0, np.linalg.norm(sol.P))
    kc = lqr_gain(A, B, Q, R)
    assert kc.shape == (1, n)
    assert np.linalg.eigvals(A - B @ kc).real.max() < 0
    np.testing.assert_allclose(sol.closed_loop_eigs.real.max(),
                               np.linalg.eigvals(A - B @ kc).real.max(),
                               rtol=1e-6)


@pytest.mark.parametrize("name", ["smd", "cartpole"])
def test_kalman_gain_stabilizes_estimator(name):
    if name == "smd":
        A, _, C = smd_system(SmdParams())
        sd, sn = 0.001 * np.eye(2), 0.001 * np.eye(1)
    else:
        A, _, C = cartpole_linearize_up(CartpoleParams())
        sd, sn = 1e-7 * np.eye(4), 1e-7 * np.eye(1)
    kf = kalman_gain(A, C, sd, sn)
    assert kf.shape == (A.shape[0], 1)
    assert np.linalg.eigvals(A + kf @ C).real.max() < 0


def test_kalman_is_dual_lqr():
    # Filtering is control of the transposed system: K_f = -(lqr of A', C')'.
    A, _, C = smd_system(SmdParams())
    sd, sn = 0.002 * np.eye(2), 0.0005 * np.eye(1)
    kf = kalman_gain(A, C, sd, sn)
    dual = lqr_gain(A.T, C.T, sd, sn)
    np.testing.assert_allclose(kf, -dual.T, atol=1e-10)


def test_care_rejects_unstabilizable_pair():
    # Unstable mode with no input authority: no stabilizing P exists.
    with pytest.raises(ValueError, match="no stabilizing solution"):
        solve_care([[1.0]], [[0.0]], [[1.0]], [[1.0]])


def test_care_rejects_imaginary_axis_hamiltonian():
    # Undamped oscillator, no cost, no input: Hamiltonian eigenvalues sit on
    # the imaginary axis.
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError, match="no stabilizing solution"):
        solve_care(A, np.zeros((2, 1)), np.zeros((2, 2)), [[1.0]])


def test_care_rejects_bad_shapes():
    with pytest.raises(ValueError, match="dimensions"):
        solve_care(np.eye(2), np.zeros((3, 1)), np.eye(2), [[1.0]])


def test_lqr_cost_validation():
    LqrCost(Q=np.diag([10.0, 1.0]), R=[[1e-2]])  # fine
    with pytest.raises(ValueError, match="symmetric"):
        LqrCost(Q=np.array([[1.0, 0.5], [0.0, 1.0]]), R=[[1.0]])
    with pytest.raises(ValueError, match="positive definite"):
        LqrCost(Q=np.eye(2), R=[[0.0]])
    with pytest.raises(ValueError, match="positive semidefinite"):
        LqrCost(Q=-np.eye(2), R=[[1.0]])


# ---------------------------------------------------------------------------
# cross-check against an independent solver (scipy, tests only)


def _random_care_problem(rng):
    K, m = rng.integers(1, 5), rng.integers(1, 3)
    G, H = rng.standard_normal((K, K)), rng.standard_normal((m, m))
    return (rng.standard_normal((K, K)), rng.standard_normal((K, m)),
            G @ G.T + 1e-3 * np.eye(K), H @ H.T + 0.1 * np.eye(m))


def test_care_matches_scipy_on_random_systems():
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(20)
    for case in range(500):
        A, B, Q, R = _random_care_problem(rng)
        P = solve_care(A, B, Q, R).P
        ref = linalg.solve_continuous_are(A, B, Q, R)
        # Both solvers are backward stable, so the forward error scales with
        # the conditioning of P; a plain relative bound fails at cond ~1e7.
        bound = 1e-11 * np.linalg.cond(ref) * np.abs(ref).max()
        assert np.abs(P - ref).max() <= bound, (case, A, B, Q, R)


@pytest.mark.parametrize("name", ["smd_estimation", "smd_control", "cartpole"])
def test_gains_match_scipy_on_package_plants(name):
    linalg = pytest.importorskip("scipy.linalg")
    if name == "cartpole":
        A, B, C = cartpole_linearize_up(CartpoleParams())
        Q, R, noise = np.diag([1.0, 1.0, 10.0, 1.0]), np.array([[1e-2]]), 1e-7
    else:
        p = SmdParams() if name == "smd_estimation" else SmdParams(m=20.0, k=6.0, c=2.0)
        A, B, C = smd_system(p)
        Q, R = np.diag([10.0, 1.0]), np.array([[1e-2]])
        noise = 0.001 if name == "smd_estimation" else 0.1
    sd, sn = noise * np.eye(A.shape[0]), noise * np.eye(C.shape[0])
    kc_ref = np.linalg.solve(R, B.T @ linalg.solve_continuous_are(A, B, Q, R))
    # K_f = -Sigma C' sigma_n^-1, with Sigma from the dual (filtering) CARE.
    sigma = linalg.solve_continuous_are(A.T, C.T, sd, sn)
    kf_ref = -(np.linalg.solve(sn, C @ sigma)).T
    for got, ref in ((lqr_gain(A, B, Q, R), kc_ref), (kalman_gain(A, C, sd, sn), kf_ref)):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# bitwise pins of the in-place build against np.kron / np.block


def _signed_zero_matrix(rng, n):
    """Random n x n matrix with some entries +0.0 or -0.0."""
    A = rng.standard_normal((n, n))
    A[rng.random((n, n)) < 0.3] = 0.0
    A[rng.random((n, n)) < 0.2] = -0.0
    return A


def _assert_bitwise(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    for g, w in ((got.real, want.real), (got.imag, want.imag)):
        assert np.array_equal(np.signbit(g), np.signbit(w))


def test_kron_sum_matches_np_kron_bitwise():
    rng = np.random.default_rng(13)
    for _ in range(2000):
        n = int(rng.integers(1, 5))
        A = _signed_zero_matrix(rng, n)
        for M in (A, A.T):  # the solver passes a transposed view
            want = np.kron(np.eye(n), M) + np.kron(M, np.eye(n))
            _assert_bitwise(riccati._kron_sum(M), want)


def test_lyapunov_solve_matches_kron_form_bitwise():
    rng = np.random.default_rng(14)
    for _ in range(2000):
        n = int(rng.integers(1, 5))
        A, S = _signed_zero_matrix(rng, n), _signed_zero_matrix(rng, n)
        S = S + S.T
        with np.errstate(all="ignore"):  # a singular draw fails alike in both
            try:
                want = _solve_lyapunov_kron(A, S)
            except np.linalg.LinAlgError:
                with pytest.raises(np.linalg.LinAlgError):
                    riccati._solve_lyapunov(A, S)
                continue
            _assert_bitwise(riccati._solve_lyapunov(A, S), want)


def _assert_same_solution(args):
    try:
        want = solve_care_kron(*args)
    except ValueError as err:
        with pytest.raises(ValueError, match=re.escape(str(err))):
            solve_care(*args)
        return
    got = solve_care(*args)
    _assert_bitwise(got.P, want.P)
    assert got.residual_norm == want.residual_norm
    _assert_bitwise(got.closed_loop_eigs, want.closed_loop_eigs)


def test_care_matches_kron_solver_bitwise_on_random_systems():
    # The systems of test_care_matches_scipy_on_random_systems.
    rng = np.random.default_rng(20)
    for _ in range(500):
        _assert_same_solution(_random_care_problem(rng))


@pytest.mark.parametrize("name", ["smd_estimation", "smd_control", "cartpole"])
def test_care_matches_kron_solver_bitwise_on_package_plants(name):
    if name == "cartpole":
        A, B, C = cartpole_linearize_up(CartpoleParams())
        Q, noise = np.diag([1.0, 1.0, 10.0, 1.0]), 1e-7
    else:
        p = SmdParams() if name == "smd_estimation" else SmdParams(m=20.0, k=6.0, c=2.0)
        A, B, C = smd_system(p)
        Q, noise = np.diag([10.0, 1.0]), 0.001 if name == "smd_estimation" else 0.1
    # The control CARE, and the filtering CARE that kalman_gain solves.
    _assert_same_solution((A, B, Q, np.array([[1e-2]])))
    _assert_same_solution((A.T, C.T, noise * np.eye(A.shape[0]), noise * np.eye(1)))


def test_care_matches_kron_solver_on_refusals():
    # The same errors, with the same messages, where no stabilizing P exists.
    _assert_same_solution(([[1.0]], [[0.0]], [[1.0]], [[1.0]]))
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    _assert_same_solution((A, np.zeros((2, 1)), np.zeros((2, 2)), [[1.0]]))


def test_lqr_cost_symmetry_check_agrees_with_allclose():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        Q = _signed_zero_matrix(rng, n)
        Q = Q @ Q.T + np.eye(n)
        scale = 10.0 ** rng.integers(-14, 1)
        Q[0, -1] += scale * rng.standard_normal()  # sometimes inside the tolerance
        symmetric = np.allclose(Q, Q.T, atol=1e-12)
        try:
            LqrCost(Q=Q, R=[[1.0]])
        except ValueError as err:
            assert not symmetric and "symmetric" in str(err)
        else:
            assert symmetric
