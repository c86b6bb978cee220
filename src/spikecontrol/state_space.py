"""Linear state-space models and seeded noise streams."""

import math
import numbers
import threading
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
    stream, so drawing in blocks yields the same values as one large draw. A
    block may be drawn ahead on a worker thread (`prefetch`); it is still the
    next block of the stream.
    """

    def __init__(self, variance: float, dim: int, seed: int, label: StreamLabel):
        variance = float(variance)
        _require_finite(variance, "noise variance", "nonnegative",
                        "{name} must be {rule}, got {all}")
        self.dim = int(dim)
        self._scale = np.sqrt(variance)
        self._rng = make_rng(seed, label)
        self._pending = None  # (n, worker thread, [its samples or its error])

    def _draw(self, n: int) -> np.ndarray:
        out = self._rng.standard_normal((n, self.dim))
        out *= self._scale  # in place: no second block-sized array
        return out

    def sample_block(self, n: int) -> np.ndarray:
        """Draw `n` consecutive samples as an (n, dim) array. After `prefetch(n)`
        this waits for the worker's samples and returns them, or raises the
        error the worker's draw raised; a size other than the prefetched one
        raises ValueError and leaves the prefetch pending."""
        if self._pending is None:
            return self._draw(n)
        want, worker, result = self._pending
        if n != want:
            raise ValueError(f"sample_block({n}) does not match the pending "
                             f"prefetch({want})")
        worker.join()
        self._pending = None
        (out,) = result
        if isinstance(out, Exception):
            raise out
        return out

    def prefetch(self, n: int) -> None:
        """Start drawing the next `n` samples on a worker thread, for the next
        `sample_block(n)`. numpy's normal fill releases the GIL, so the draw
        overlaps with the caller's work on another core. One prefetch may be
        pending at a time."""
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"prefetch needs a positive whole number of samples, "
                             f"got {n!r}")
        if self._pending is not None:
            raise RuntimeError(f"a prefetch of {self._pending[0]} samples is pending")
        result = []

        def draw():
            try:
                result.append(self._draw(n))
            except Exception as err:  # raised again in the caller, by sample_block
                result.append(err)

        worker = threading.Thread(target=draw, name="NoiseSource.prefetch")
        worker.start()
        self._pending = (n, worker, result)

    def wait(self) -> None:
        """Wait for a pending prefetch to finish; its samples stay pending."""
        if self._pending is not None:
            self._pending[1].join()


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

