"""Non-spiking LQG baseline: continuous Kalman filter plus LQR feedback.

Used as the ideal-controller comparison curve and as the oracle the spiking
network is measured against. Integrates with the same forward-Euler step and
the same noise streams as the network runs.
"""

from dataclasses import dataclass

import numpy as np

from .state_space import LinearSystem


@dataclass
class LqgState:
    x_hat: np.ndarray
    u: np.ndarray = None

    def __post_init__(self):
        self.x_hat = np.asarray(self.x_hat, dtype=float).reshape(-1)


def estimator_step(model: LinearSystem, kalman_gain, st: LqgState,
                   y, u_ext, dt: float) -> LqgState:
    """One Euler step of x_hat' = A x_hat + B u + K_f (C x_hat - y)."""
    xh = st.x_hat
    innov = kalman_gain.dot(model.C.dot(xh) - y)
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
    u = (-lqr_gain).dot(st.x_hat - z)
    return estimator_step(model, kalman_gain, st, y, u, dt)
