"""Linear state-space models and seeded noise streams, read ahead by `NoiseSource.rows`."""

import math
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
    stream, so drawing in blocks yields the same values as one large draw.
    `rows` yields the stream row by row, drawing the next block ahead on a
    worker thread; it is still the next block of the stream.
    """

    def __init__(self, variance: float, dim: int, seed: int, label: StreamLabel):
        variance = float(variance)
        _require_finite(variance, "noise variance", "nonnegative",
                        "{name} must be {rule}, got {all}")
        self.dim = int(dim)
        self._scale = np.sqrt(variance)
        self._rng = make_rng(seed, label)
        self._ahead = None  # (worker thread, [its samples or its error]) inside `rows`

    def _draw(self, n: int) -> np.ndarray:
        out = self._rng.standard_normal((n, self.dim))
        out *= self._scale  # in place: no second block-sized array
        return out

    def _draw_into(self, n: int, result: list):
        """A worker's draw: its samples, or the error to raise at the hand-over."""
        try:
            result.append(self._draw(n))
        except Exception as err:
            result.append(err)

    def sample_block(self, n: int) -> np.ndarray:
        """Draw `n` consecutive samples as an (n, dim) array. Inside `rows`,
        this takes the block drawn ahead, or raises the error its draw raised."""
        if self._ahead is None:
            return self._draw(n)
        worker, result = self._ahead
        worker.join()
        self._ahead = None
        (out,) = result
        if isinstance(out, Exception):
            raise out
        return out

    def rows(self, n: int, scale):
        """Yield `n` consecutive samples one row at a time, each times `scale`, in
        blocks of about 1 MiB (at least one row) to bound memory whatever the
        dimension. Block 1 is drawn inline; once the caller takes row 2 of block
        k, and so holds no row of block k - 1, block k + 1 is drawn on a worker
        thread (numpy's normal fill releases the GIL), so at most two blocks are
        alive. `sample_block` takes each block on the caller's thread, in stream
        order. One-row blocks (dim > 131 072) are drawn inline: the caller would
        wait at once. However the generator ends, it waits for a pending draw
        and drops its samples. One generator per source at a time."""
        block = max(1, (1 << 20) // (8 * self.dim))
        try:
            for start in range(0, n, block):
                out = self.sample_block(min(block, n - start))
                out *= scale  # in place: a scaled copy beside the block raises peak memory
                yield out[0]
                if block > 1 and start + block < n:
                    result = []
                    worker = threading.Thread(target=self._draw_into, name="NoiseSource.rows",
                                              args=(min(block, n - start - block), result))
                    worker.start()
                    self._ahead = (worker, result)
                    del worker  # held until the next block, it cost 1 MB of peak RSS
                yield from out[1:]
        finally:
            if self._ahead is not None:
                self._ahead[0].join()
                self._ahead = None


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

