"""Linear state-space models and seeded noise streams."""

import math
from contextlib import contextmanager
from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class StreamLabel(IntEnum):
    """Labels for the independent random streams spawned from one master seed.

    Each label owns its own generator, so toggling or reordering draws on one
    stream never shifts the samples produced by another.
    """

    DISTURBANCE = 0
    SENSOR = 1
    VOLTAGE = 2
    DECODER = 3


def _require_finite(value, name: str, sign: str = None,
                    message: str = "{name} = {bad:g} must be {rule}"):
    """Raise ValueError unless every entry of `value` is finite and, for a `sign` of
    "positive" or "nonnegative", of that sign. `message` may show the `name`, the
    first bad entry `bad`, the whole value as a list `all` and the broken `rule`."""
    values = np.asarray(value, dtype=float)
    for bad in values.ravel().tolist():  # Python floats: ufuncs cost more on so few
        if not (math.isfinite(bad) and (bad > 0 if sign == "positive" else
                                        bad >= 0 if sign == "nonnegative" else True)):
            rule = "finite" if sign is None else f"finite and {sign}"
            raise ValueError(message.format(name=name, bad=bad, all=values.tolist(),
                                            rule=rule))


@contextmanager
def _reraise(prefix: str, error=ValueError, catch=ValueError):
    """Re-raise the block's `catch` errors as `error`, the message after `prefix`."""
    try:
        yield
    except catch as err:
        raise error(f"{prefix}{err}") from None


def make_rng(seed: int, label: StreamLabel) -> np.random.Generator:
    """Return the generator for stream `label` of master seed `seed`."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(label))))


class NoiseSource:
    """Zero-mean Gaussian noise of covariance `variance * I` on a labelled stream.

    Draws are deterministic given (seed, label): two sources constructed with
    the same pair replay the same sequence, and successive blocks continue one
    stream, so drawing in blocks yields the same values as one large draw.
    """

    def __init__(self, variance: float, dim: int, seed: int, label: StreamLabel):
        variance = float(variance)
        _require_finite(variance, "noise variance", "nonnegative",
                        "{name} must be {rule}, got {all}")
        self.dim = int(dim)
        self._scale = np.sqrt(variance)
        self._rng = make_rng(seed, label)

    def sample_block(self, n: int) -> np.ndarray:
        """Draw `n` consecutive samples as an (n, dim) array."""
        out = self._rng.standard_normal((n, self.dim))
        out *= self._scale  # in place: no second block-sized array
        return out


@dataclass
class LinearSystem:
    """dx/dt = A x + B u + disturbance, y = C x + sensor noise.

    sigma_d is the disturbance intensity (per unit time); sigma_n is the
    per-sample observation noise covariance.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    sigma_d: np.ndarray
    sigma_n: np.ndarray

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.B = np.asarray(self.B, dtype=float)
        self.C = np.asarray(self.C, dtype=float)
        self.sigma_d = np.atleast_2d(np.asarray(self.sigma_d, dtype=float))
        self.sigma_n = np.atleast_2d(np.asarray(self.sigma_n, dtype=float))

    @property
    def state_dim(self):
        return self.A.shape[0]

    @property
    def input_dim(self):
        return self.B.shape[1]

    @property
    def obs_dim(self):
        return self.C.shape[0]

