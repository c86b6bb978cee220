"""Reference models the tests compare the package against.

Not a test module (pytest does not collect it); tests import it by name. The
package itself never calls these: it builds every plant matrix in closed form
and runs no fixed-point solve. `solve_care_kron` is the package's Riccati
solver as it was written with np.block, np.kron and np.linalg.cond, kept so
that tests can pin the in-place assembly to it bit for bit, and
`autoencoder_operators` is the autoencoder's own closed form, which
`build_autoencoder` replaced with the estimator of an integrator.
`estimator_step` and `lqg_step` are the oracle step as it was written when it
converted every argument to a float array first (`_array`), kept so that
tests can pin the step without that conversion to it bit for bit.
`network_step` is the network step as it was written when it read dt and the
leak as Python floats on every call, kept so that tests can pin the step that
converts them once per (dt, leak) to it bit for bit.
"""

import numpy as np

from spikecontrol import LinearSystem, LqgState, NetworkDivergedError, SmdParams
from spikecontrol.riccati import CareSolution


def linearize(f, x_eq, u_eq, h: float = 1e-6):
    """Jacobians (A, B) of f(x, u) at an equilibrium, by central differences.

    Args:
        f: callable (x, u) -> state rate.
        x_eq, u_eq: the equilibrium to linearize around; f(x_eq, u_eq) must
            vanish (norm below 1e-6).
        h: finite-difference step.

    Raises:
        ValueError: if (x_eq, u_eq) is not an equilibrium.
    """
    x_eq = np.asarray(x_eq, dtype=float)
    u_eq = np.atleast_1d(np.asarray(u_eq, dtype=float))
    residual = np.linalg.norm(f(x_eq, u_eq))
    if residual > 1e-6:
        raise ValueError(f"not an equilibrium: f(x_eq, u_eq) has norm {residual:.3e}")
    n, p = x_eq.size, u_eq.size
    A = np.empty((n, n))
    for j in range(n):
        dx = np.zeros(n)
        dx[j] = h
        A[:, j] = (f(x_eq + dx, u_eq) - f(x_eq - dx, u_eq)) / (2 * h)
    B = np.empty((n, p))
    for j in range(p):
        du = np.zeros(p)
        du[j] = h
        B[:, j] = (f(x_eq, u_eq + du) - f(x_eq, u_eq - du)) / (2 * h)
    return A, B


def smd_dynamics(p: SmdParams, x, u):
    """State rate for state x = (position, velocity) and scalar force u."""
    u = float(np.asarray(u).reshape(-1)[0]) if np.ndim(u) else float(u)
    return np.array([x[1], (-p.k * x[0] - p.c * x[1] + u) / p.m])


def closed_loop_steady_state(model: LinearSystem, lqr_gain, z) -> np.ndarray:
    """Fixed point of x' = Ax + Bu with u = -K_c(x - z) (state feedback).

    The regulator does not track position references exactly: the fixed point
    solves (A - B K_c) x_ss = -B K_c z, which generally leaves an offset.
    """
    Kc = np.atleast_2d(lqr_gain)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    BKc = model.B @ Kc
    return np.linalg.solve(model.A - BKc, -BKc @ z)


def solve_care_kron(A, B, Q, R) -> CareSolution:
    """`spikecontrol.solve_care` with the Hamiltonian built by np.block, the
    Lyapunov operator by np.kron and the subspace check by np.linalg.cond."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    n = A.shape[0]
    if A.shape != (n, n) or B.shape[0] != n or Q.shape != (n, n):
        raise ValueError("inconsistent matrix dimensions")

    rinv_bt = np.linalg.solve(R, B.T)
    gain_term = B @ rinv_bt  # B R^-1 B'
    ham = np.block([[A, -gain_term], [-Q, -A.T]])
    evals, evecs = np.linalg.eig(ham)
    stable = evals.real < -1e-9
    if stable.sum() != n:
        raise ValueError(
            "no stabilizing solution: Hamiltonian has "
            f"{int(stable.sum())} strictly stable eigenvalues, expected {n} "
            "(pair may be unstabilizable or undetectable)"
        )
    basis = evecs[:, stable]
    x1, x2 = basis[:n], basis[n:]
    if np.linalg.cond(x1) > 1e12:
        raise ValueError("no stabilizing solution: invariant subspace is degenerate")
    P = (x2 @ np.linalg.inv(x1)).real
    P = 0.5 * (P + P.T)

    # Newton-Kleinman polish: each step solves a Lyapunov equation exactly.
    for _ in range(3):
        K = rinv_bt @ P
        A_cl = A - B @ K
        P = _solve_lyapunov_kron(A_cl, Q + K.T @ R @ K)

    residual = A.T @ P + P @ A - P @ gain_term @ P + Q
    residual_norm = float(np.linalg.norm(residual))
    scale = max(1.0, float(np.linalg.norm(P)))
    if residual_norm > 1e-8 * scale:
        raise ValueError(f"Riccati residual too large: {residual_norm:.3e}")
    closed_loop = np.linalg.eigvals(A - gain_term @ P)
    if closed_loop.real.max() >= 0:
        raise ValueError("computed solution is not stabilizing")
    return CareSolution(P=P, residual_norm=residual_norm, closed_loop_eigs=closed_loop)


def _solve_lyapunov_kron(A, S):
    """Solve A'X + XA = -S for symmetric X (dense Kronecker formulation)."""
    n = A.shape[0]
    M = np.kron(np.eye(n), A.T) + np.kron(A.T, np.eye(n))
    X = np.linalg.solve(M, -S.reshape(n * n)).reshape(n, n)
    return 0.5 * (X + X.T)


def autoencoder_operators(decoder, leak):
    """(recurrent, input_op, thresholds) of the autoencoder as built in closed
    form: no slow recurrence, and the drive D'(signal_dot + leak signal)."""
    K = decoder.dim
    return (np.zeros((K, K)), np.hstack((leak * np.eye(K), np.eye(K))),
            0.5 * np.sum(decoder.values * decoder.values, axis=0))


_FLOAT = np.dtype(float)


def _array(a, ndim: int) -> np.ndarray:
    """`a` as a float array of at least `ndim` dimensions; such arrays pass
    through unconverted, which keeps the per-step path cheap."""
    if isinstance(a, np.ndarray) and a.ndim >= ndim and a.dtype is _FLOAT:
        return a
    return np.array(a, dtype=float, ndmin=ndim)


def estimator_step(model: LinearSystem, kalman_gain, st: LqgState,
                   y, u_ext, dt: float) -> LqgState:
    """One Euler step of x_hat' = A x_hat + B u + K_f (C x_hat - y)."""
    u_ext = _array(u_ext, 1)
    xh = st.x_hat
    innov = _array(kalman_gain, 2).dot(model.C.dot(xh) - _array(y, 1))
    st.x_hat = xh + dt * (model.A.dot(xh) + model.B.dot(u_ext) + innov)
    st.u = u_ext
    return st


def lqg_step(model: LinearSystem, kalman_gain, lqr_gain, st: LqgState,
             y, z, dt: float) -> LqgState:
    """Control from the current estimate, then advance the estimate.

    u = -K_c (x_hat - z) is computed before the filter update so the plant and
    the estimator consume the same control this step.
    """
    # (-K_c) times the error, not -(K_c times it): at a zero error the two
    # differ in the sign of the zero.
    u = (-_array(lqr_gain, 2)).dot(st.x_hat - _array(z, 1))
    return estimator_step(model, kalman_gain, st, y, u, dt)


def network_step(weights, state, dt: float, inputs, noise=None):
    """Advance the network one Euler step; at most one neuron spikes."""
    D, v, r = weights.decoders, state.v, state.r
    q = weights.recurrent.dot(D.dot(r))
    q += weights.input_op.dot(inputs)
    v += dt * (q.dot(D) - weights.leak * v)
    if noise is not None:
        v += noise
    if np.count_nonzero(np.isfinite(v)) != v.size:
        raise NetworkDivergedError(
            f"network diverged at step {state.step} (t={state.t:.6g})"
        )
    r *= 1.0 - weights.leak * dt

    excess = v - weights.thresholds
    if state.any_silenced:
        excess[state.silenced] = -np.inf
    winner = int(excess.argmax())
    spike = None
    if excess[winner] > 0.0:
        v -= D[:, winner].dot(D)
        r[winner] += 1.0
        state.spike_log.append((state.t, winner))
        spike = winner
    state.step += 1
    state.t = state.step * dt
    return state, spike
