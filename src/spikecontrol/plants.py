"""Ground-truth plants: spring-mass-damper and the nonlinear cartpole."""

import math
from dataclasses import dataclass

import numpy as np

from .state_space import _require_finite


def _grid_steps(tgrid: np.ndarray, times) -> np.ndarray:
    """The step each scheduled event at `times` falls on in the ascending grid `tgrid`:
    the first whose time is at least the event's less 1e-9 s, or len(tgrid) if none is."""
    return np.searchsorted(tgrid, np.asarray(times) - 1e-9)


@dataclass
class SmdParams:
    """Spring-mass-damper: mass m, spring constant k, damping c."""

    m: float = 3.0
    k: float = 5.0
    c: float = 0.5

    def __post_init__(self):
        for key, value in vars(self).items():
            _require_finite(value, f"plant {key}")
        for key, sign in (("m", "positive"), ("k", "nonnegative"), ("c", "nonnegative")):
            _require_finite(getattr(self, key), f"plant {key}", sign)


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
        for key, value in vars(self).items():
            _require_finite(value, f"plant {key}")
        for key in ("m", "M", "L"):
            _require_finite(getattr(self, key), f"plant {key}", "positive")


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
    [onset, onset + duration). On a time grid, each edge falls on the step
    `_grid_steps` gives, as a reference step does."""

    onset: float
    duration: float
    magnitude: float

    def __post_init__(self):
        for key, value in vars(self).items():
            _require_finite(value, f"pulse {key}")
        for key, sign in (("onset", "nonnegative"), ("duration", "positive")):
            _require_finite(getattr(self, key), f"pulse {key}", sign)

    def window(self, tgrid: np.ndarray):
        """The steps [on, off) of the time grid `tgrid` the pulse is active on."""
        return _grid_steps(tgrid, [self.onset, self.onset + self.duration])

    def profile(self, tgrid: np.ndarray) -> np.ndarray:
        on, off = self.window(tgrid)
        force = np.zeros(len(tgrid))
        force[on:off] = self.magnitude
        return force
