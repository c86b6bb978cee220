"""Ground-truth plants: spring-mass-damper and the nonlinear cartpole."""

import math
from dataclasses import dataclass

import numpy as np


def _refuse_non_finite(params, what: str):
    for key in params.__dataclass_fields__:
        value = getattr(params, key)
        if not math.isfinite(value):
            raise ValueError(f"{what} {key} = {value:g} must be finite")


@dataclass
class SmdParams:
    """Spring-mass-damper: mass m, spring constant k, damping c."""

    m: float = 3.0
    k: float = 5.0
    c: float = 0.5

    def __post_init__(self):
        _refuse_non_finite(self, "plant")
        if self.m <= 0:
            raise ValueError("mass must be positive")
        if self.k < 0 or self.c < 0:
            raise ValueError("spring and damping constants must be nonnegative")


def smd_system(p: SmdParams):
    """(A, B, C) of the spring-mass-damper; only position is observed."""
    A = np.array([[0.0, 1.0], [-p.k / p.m, -p.c / p.m]])
    B = np.array([[0.0], [1.0 / p.m]])
    C = np.array([[1.0, 0.0]])
    return A, B, C


@dataclass
class CartpoleParams:
    """Cart of mass M on a frictional track (coefficient d), pole mass m, length L.

    g is signed (negative for downward gravity); theta = pi is the upright pole.
    """

    m: float = 1.0
    M: float = 5.0
    L: float = 2.0
    g: float = -10.0
    d: float = 1.0

    def __post_init__(self):
        _refuse_non_finite(self, "plant")
        if self.m <= 0 or self.M <= 0 or self.L <= 0:
            raise ValueError("masses and length must be positive")


def cartpole_dynamics(p: CartpoleParams, x, u):
    """State rate for x = (cart pos, cart vel, pole angle, pole ang. vel), force u."""
    # A Python float force and a float64 state, as the closed loop passes
    # them, need no conversion.
    if type(u) is not float:
        u = float(np.asarray(u).reshape(-1)[0]) if np.ndim(u) else float(u)
    if type(x) is not np.ndarray or x.dtype != np.float64:
        x = np.asarray(x, dtype=float)
    # Python floats and math.sin/cos: the same IEEE operations as on numpy
    # scalars, without their per-operation dispatch.
    _, vel, theta, omega = x.tolist()
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    den = p.m * p.L**2 * (p.M + p.m * (1.0 - cos_t**2))
    swing = p.m * p.L * omega**2 * sin_t - p.d * vel
    acc_cart = (
        -(p.m**2) * p.L**2 * p.g * cos_t * sin_t + p.m * p.L**2 * swing + p.m * p.L**2 * u
    ) / den
    acc_pole = (
        (p.m + p.M) * p.m * p.g * p.L * sin_t - p.m * p.L * cos_t * swing - p.m * p.L * cos_t * u
    ) / den
    return np.array([vel, acc_cart, omega, acc_pole])


def cartpole_linearize_up(p: CartpoleParams):
    """(A, B, C) of the cartpole linearized at the upright pole (theta = pi).

    Analytic Jacobian of `cartpole_dynamics`; only the cart position is
    observed.
    """
    ML = p.M * p.L
    A = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [0.0, -p.d / p.M, -p.m * p.g / p.M, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, -p.d / ML, -(p.m + p.M) * p.g / ML, 0.0],
        ]
    )
    B = np.array([[0.0], [1.0 / p.M], [0.0], [1.0 / ML]])
    C = np.array([[1.0, 0.0, 0.0, 0.0]])
    return A, B, C


CARTPOLE_UP = np.array([0.0, 0.0, np.pi, 0.0])


@dataclass
class PulseSchedule:
    """A rectangular force pulse on the plant's input channel, active on
    [onset, onset + duration)."""

    onset: float
    duration: float
    magnitude: float

    def __post_init__(self):
        _refuse_non_finite(self, "pulse")
        if self.onset < 0 or self.duration <= 0:
            raise ValueError("pulse onset must be nonnegative and duration positive")

    def profile(self, tgrid: np.ndarray) -> np.ndarray:
        return np.where(
            (tgrid >= self.onset) & (tgrid < self.onset + self.duration), self.magnitude, 0.0
        )
