"""Continuous-time algebraic Riccati solver and the LQG gain pair.

The solver uses the Hamiltonian-matrix method (stable invariant subspace)
followed by Newton-Kleinman polish steps, which is ample for the small dense
problems that arise here (state dimension <= 4).
"""

from dataclasses import dataclass

import numpy as np

from .state_space import _require_finite


@dataclass
class LqrCost:
    """Quadratic cost x'Qx + u'Ru."""

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        self.Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        self.R = np.atleast_2d(np.asarray(self.R, dtype=float))
        for key, value in (("Q", self.Q), ("R", self.R)):
            _require_finite(value, f"cost {key}", message="{name} must be {rule}, got {all}")
            # np.allclose(value, value.T, atol=1e-12) on finite values, without its overhead
            if not (np.abs(value - value.T) <= 1e-12 + 1e-5 * np.abs(value.T)).all():
                raise ValueError(f"{key} must be symmetric")
        if np.linalg.eigvalsh(self.Q).min() < -1e-12:
            raise ValueError("Q must be positive semidefinite")
        if np.linalg.eigvalsh(self.R).min() <= 0:
            raise ValueError("R must be positive definite")


@dataclass
class CareSolution:
    """Stabilizing solution of A'P + PA - PBR^-1B'P + Q = 0."""

    P: np.ndarray
    residual_norm: float
    closed_loop_eigs: np.ndarray


def solve_care(A, B, Q, R) -> CareSolution:
    """Solve the continuous algebraic Riccati equation for the stabilizing P.

    Raises:
        ValueError: if no stabilizing solution exists (Hamiltonian eigenvalues
            on the imaginary axis — e.g. an unstabilizable/undetectable pair),
            or if the computed solution fails the residual check.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    n = A.shape[0]
    if A.shape != (n, n) or B.shape[0] != n or Q.shape != (n, n):
        raise ValueError("inconsistent matrix dimensions")

    rinv_bt = np.linalg.solve(R, B.T)
    gain_term = B @ rinv_bt  # B R^-1 B'
    ham = np.empty((2 * n, 2 * n))  # [[A, -gain_term], [-Q, -A']], filled in place
    ham[:n, :n], ham[:n, n:], ham[n:, :n], ham[n:, n:] = A, -gain_term, -Q, -A.T
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
    sv = np.linalg.svd(x1, compute_uv=False)  # cond(x1) is sv[0] / sv[-1], inf at 0
    if not sv[-1] or sv[0] / sv[-1] > 1e12:
        raise ValueError("no stabilizing solution: invariant subspace is degenerate")
    P = (x2 @ np.linalg.inv(x1)).real
    P = 0.5 * (P + P.T)

    # Newton-Kleinman polish: each step solves a Lyapunov equation exactly.
    for _ in range(3):
        K = rinv_bt @ P
        A_cl = A - B @ K
        P = _solve_lyapunov(A_cl, Q + K.T @ R @ K)

    residual = A.T @ P + P @ A - P @ gain_term @ P + Q
    residual_norm = float(np.linalg.norm(residual))
    scale = max(1.0, float(np.linalg.norm(P)))
    if residual_norm > 1e-8 * scale:
        raise ValueError(f"Riccati residual too large: {residual_norm:.3e}")
    closed_loop = np.linalg.eigvals(A - gain_term @ P)
    if closed_loop.real.max() >= 0:
        raise ValueError("computed solution is not stabilizing")
    return CareSolution(P=P, residual_norm=residual_norm, closed_loop_eigs=closed_loop)


def _solve_lyapunov(A, S):
    """Solve A'X + XA = -S for symmetric X (dense Kronecker formulation)."""
    X = np.linalg.solve(_kron_sum(A.T), -S.reshape(-1)).reshape(A.shape)
    return 0.5 * (X + X.T)


def _kron_sum(A):
    """np.kron(I, A) + np.kron(A, I) as one broadcast: entry (i n + k, j n + l) is
    I[i, j] A[k, l] + A[i, j] I[k, l], the products and sum np.kron forms."""
    n, I = len(A), np.eye(len(A))
    return (I[:, None, :, None] * A[None, :, None, :]
            + A[:, None, :, None] * I[None, :, None, :]).reshape(n * n, n * n)


def lqr_gain(A, B, Q, R) -> np.ndarray:
    """Optimal state-feedback gain K_c for u = -K_c x; K_c = R^-1 B' P."""
    sol = solve_care(A, B, Q, R)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    return np.linalg.solve(R, B.T @ sol.P)


def kalman_gain(A, C, sigma_d, sigma_n) -> np.ndarray:
    """Stationary Kalman gain K_f = -Sigma C' sigma_n^-1.

    Sign convention: the estimator is written x_hat' = A x_hat + B u
    + K_f (C x_hat - y), so A + K_f C is stable and K_f itself is the
    negative of the textbook gain L = Sigma C' sigma_n^-1.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    sigma_n = np.atleast_2d(np.asarray(sigma_n, dtype=float))
    sol = solve_care(A.T, C.T, sigma_d, sigma_n)
    return -(np.linalg.solve(sigma_n, C @ sol.P)).T
