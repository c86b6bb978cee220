"""Spike coding networks built in closed form from a plant model and LQG gains.

Each neuron's voltage tracks a projection of the coding error; a spike is fired
only when it shrinks that error (greedy rule), which yields the usual fast
inhibition -D'D, thresholds |D_i|^2/2, and slow recurrence embedding the plant
dynamics and the Kalman/control feedback through the filtered spike trains.

Every recurrent matrix has the form D' M D, with D the stacked decoders and M
a small operator on the decoded state, so the network is held and stepped in
that factored form: O(N K) memory and work per step for N neurons and K state
dimensions, never an N x N matrix.
"""

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .state_space import LinearSystem, StreamLabel, make_rng


class NetworkDivergedError(RuntimeError):
    pass


@dataclass
class DecoderMatrix:
    """Decoder with columns of equal norm; x_hat = values @ r."""

    values: np.ndarray
    column_norm: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("decoder must be a 2-D matrix")
        norms = np.linalg.norm(self.values, axis=0)
        if np.abs(norms - self.column_norm).max() > 1e-12:
            raise ValueError(
                f"decoder columns must all have norm {self.column_norm}"
            )

    @property
    def dim(self):
        return self.values.shape[0]

    @property
    def n_neurons(self):
        return self.values.shape[1]


def sample_decoder(dim: int, n_neurons: int, column_norm: float,
                   seed: int = None, rng: np.random.Generator = None) -> DecoderMatrix:
    """Sample a decoder with standard-normal directions scaled to `column_norm`.

    Pass `rng` to draw from an existing stream (successive calls then yield
    distinct matrices); pass `seed` for a self-contained deterministic draw.
    """
    if rng is None:
        if seed is None:
            raise ValueError("provide either seed or rng")
        rng = make_rng(seed, StreamLabel.DECODER)
    values = rng.standard_normal((dim, n_neurons))
    values = column_norm * values / np.linalg.norm(values, axis=0)
    return DecoderMatrix(values=values, column_norm=float(column_norm))


# The inputs each mode's step reads, in the column order of its input operator;
# weights.json records them.
MODE_INPUTS = {"estimator": ("y", "u"), "controller": ("y", "z", "zdot")}


@dataclass
class ScnWeights:
    """Analytic network weights in the factored form the theory gives them.

    With D the stacked decoder ([Dx; Dz] for controllers, Dx otherwise), the
    slow drive is D'(recurrent @ D r + input_op @ inputs), the inputs stacked
    in the order of MODE_INPUTS[mode], and a spike of neuron j adds the fast
    reset -D' D[:, j] to the voltages. Modes: 'estimator', and 'controller'
    (observation + target, control readout) when there is a target decoder.
    An autonomous network, whose decode follows dx/dt = A x, is the estimator
    of a plant with B = 0 at zero Kalman gain; an autoencoder is the estimator
    of a directly observed integrator (`build_autoencoder`).
    """

    decoder_x: DecoderMatrix
    thresholds: np.ndarray
    leak: float
    recurrent: np.ndarray              # M, acts on the decode D r
    input_op: np.ndarray               # In, acts on the stacked inputs
    decoder_z: DecoderMatrix = None    # controller only
    control_gain: np.ndarray = None    # K_c, so u = -K_c(x_hat - z_hat) exactly

    @property
    def mode(self) -> str:
        return "estimator" if self.decoder_z is None else "controller"

    @property
    def n_neurons(self):
        return self.decoder_x.n_neurons

    @cached_property
    def decoders(self) -> np.ndarray:
        """The stacked decoder D."""
        if self.decoder_z is None:
            return self.decoder_x.values
        return np.vstack((self.decoder_x.values, self.decoder_z.values))


def _thresholds(*decoders):
    return 0.5 * sum(np.sum(D * D, axis=0) for D in decoders)


def build_autoencoder(decoder: DecoderMatrix, leak: float) -> ScnWeights:
    """Network that re-encodes an external signal fed as (y, u) = (signal, signal_dot):
    the estimator of the integrator dx/dt = u, y = x at K_f = -leak I, drive D'(u + leak y)."""
    eye = np.eye(decoder.dim)
    integrator = LinearSystem(A=np.zeros_like(eye), B=eye, C=eye, sigma_d=eye, sigma_n=eye)
    return build_estimator(integrator, -float(leak) * eye, decoder, leak)


def build_estimator(system: LinearSystem, kalman_gain, decoder: DecoderMatrix,
                    leak: float) -> ScnWeights:
    """Spiking Kalman filter: decode of r tracks the optimal estimate of x.

    Slow weights D'(A + leak I + K_f C)D; inputs enter as D'(-K_f y + B u).
    """
    Kf = np.atleast_2d(np.asarray(kalman_gain, dtype=float))
    if decoder.dim != system.state_dim:
        raise ValueError("decoder dimension does not match system state")
    if Kf.shape != (system.state_dim, system.obs_dim):
        raise ValueError("Kalman gain shape does not match system")
    eye = np.eye(system.state_dim)
    return ScnWeights(decoder_x=decoder, leak=float(leak),
                      thresholds=_thresholds(decoder.values),
                      recurrent=system.A + leak * eye + Kf @ system.C,
                      input_op=np.hstack((-Kf, system.B)))


def build_controller(system: LinearSystem, kalman_gain, lqr_gain,
                     decoder_x: DecoderMatrix, decoder_z: DecoderMatrix,
                     leak: float) -> ScnWeights:
    """Spiking LQG controller: the network filters y, encodes the target z,
    and reads out u = -K_c (x_hat - z_hat).

    Slow weights Dx'(A + leak I)Dx + Dx' K_f C Dx - Dx' B K_c Dx + Dx' B K_c Dz;
    inputs enter as -Dx' K_f y + Dz'(zdot + leak z); fast weights
    -Dx'Dx - Dz'Dz.
    """
    Kf = np.atleast_2d(np.asarray(kalman_gain, dtype=float))
    Kc = np.atleast_2d(np.asarray(lqr_gain, dtype=float))
    if decoder_x.dim != system.state_dim or decoder_z.dim != system.state_dim:
        raise ValueError("decoder dimensions must match system state")
    if decoder_x.n_neurons != decoder_z.n_neurons:
        raise ValueError("state and target decoders must share the population")
    K, p = system.state_dim, system.obs_dim
    eye = np.eye(K)
    BKc = system.B @ Kc
    # M = [[A + leak I + K_f C - B K_c, B K_c], [0, 0]], In = [[-K_f, 0, 0], [0, leak I, I]]
    recurrent, input_op = np.zeros((2 * K, 2 * K)), np.zeros((2 * K, p + 2 * K))
    recurrent[:K, :K], recurrent[:K, K:] = system.A + leak * eye + Kf @ system.C - BKc, BKc
    input_op[:K, :p], input_op[K:, p:p + K], input_op[K:, p + K:] = -Kf, leak * eye, eye
    return ScnWeights(
        decoder_x=decoder_x, decoder_z=decoder_z, leak=float(leak), control_gain=Kc,
        thresholds=_thresholds(decoder_x.values, decoder_z.values),
        recurrent=recurrent, input_op=input_op)


@dataclass
class ScnState:
    v: np.ndarray
    r: np.ndarray
    silenced: np.ndarray
    spike_log: list
    t: float = 0.0  # step * dt, the time on the trajectory's grid
    step: int = 0
    any_silenced: bool = False
    silence_log: list = field(default_factory=list)
    # network_step's (dt, leak) objects, then dt, leak and 1 - leak dt as 0-d arrays
    scalars: tuple = field(default=(None, None), init=False, repr=False, compare=False)


def new_state(weights: ScnWeights) -> ScnState:
    n = weights.n_neurons
    return ScnState(
        v=np.zeros(n), r=np.zeros(n), silenced=np.zeros(n, dtype=bool), spike_log=[]
    )


def silence(state: ScnState, neuron_ids) -> ScnState:
    """Bar the given neurons from spiking (their voltages keep integrating);
    the block is logged at the state's time."""
    ids = np.atleast_1d(np.asarray(neuron_ids, dtype=int))
    n = state.v.size
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ValueError(f"neuron ids out of range for population of {n}")
    state.silenced[ids] = True
    state.any_silenced = True
    state.silence_log.append((state.t, tuple(int(i) for i in ids)))
    return state


def network_step(weights: ScnWeights, state: ScnState, dt: float, inputs,
                 noise=None):
    """Advance the network one Euler step; at most one neuron spikes.

    `inputs` is the vector `input_op` acts on: the mode's inputs stacked in
    MODE_INPUTS order (estimator: y, u; controller: y, z, zdot). A vector of
    the wrong length raises ValueError.
    `noise` is an optional per-step additive voltage-noise vector (already
    scaled by the caller).

    Returns (state, spiked neuron index or None); `state` is mutated in place.
    """
    D, v, r = weights.decoders, state.v, state.r
    if state.scalars[0] is not dt or state.scalars[1] is not weights.leak:
        leak = weights.leak
        state.scalars = (dt, leak, np.array(dt), np.array(leak), np.array(1.0 - leak * dt))
    _, _, dt_a, leak_a, decay = state.scalars
    # ndarray.dot (half the cost of `@` here) and array methods skip np.* dispatch.
    q = weights.recurrent.dot(D.dot(r))
    q += weights.input_op.dot(inputs)
    v += dt_a * (q.dot(D) - leak_a * v)
    if noise is not None:
        v += noise
    if np.count_nonzero(np.isfinite(v)) != v.size:  # isfinite(v).all() at half the cost
        raise NetworkDivergedError(
            f"network diverged at step {state.step} (t={state.t:.6g})"
        )
    r *= decay

    excess = v - weights.thresholds
    if state.any_silenced:
        excess[state.silenced] = -np.inf
    winner = int(excess.argmax())
    spike = None
    if excess.item(winner) > 0.0:
        v -= D[:, winner].dot(D)
        r[winner] += 1.0
        state.spike_log.append((state.t, winner))
        spike = winner
    state.step += 1
    state.t = state.step * dt
    return state, spike


WEIGHTS_VERSION = 2
_OPERATORS = ("recurrent", "input_op", "control_gain")


def save_weights(weights: ScnWeights, path):
    """Write the factored network to a self-describing JSON file (exact
    roundtrip); its size grows as N K."""
    doc = {
        "format": "scn-weights",
        "version": WEIGHTS_VERSION,
        "mode": weights.mode,
        "inputs": list(MODE_INPUTS[weights.mode]),
        "leak": weights.leak,
        "n_neurons": weights.n_neurons,
        "state_dim": weights.decoder_x.dim,
        "thresholds": list(weights.thresholds),
        "decoder_x": _encode_decoder(weights.decoder_x),
        "decoder_z": _encode_decoder(weights.decoder_z),
        "operators": {
            name: _encode_matrix(getattr(weights, name)) for name in _OPERATORS
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_weights(path) -> ScnWeights:
    with open(path) as fh:
        doc = json.load(fh)
    found = (doc.get("format"), doc.get("version"))
    if found != ("scn-weights", WEIGHTS_VERSION):
        raise ValueError(
            f"{path} is not a version-{WEIGHTS_VERSION} scn-weights file "
            f"(format {found[0]!r}, version {found[1]!r})")
    # Earlier writers saved an autoencoder under its own mode; it is an estimator.
    mode = {"autoencoder": "estimator"}.get(doc.get("mode"), doc.get("mode"))
    if mode not in MODE_INPUTS:
        raise ValueError(f"{path} holds a network of unknown mode {doc.get('mode')!r} "
                         f"(known: {', '.join(MODE_INPUTS)})")
    kwargs = {name: _decode_matrix(doc["operators"][name]) for name in _OPERATORS}
    weights = ScnWeights(
        decoder_x=_decode_decoder(doc["decoder_x"]),
        decoder_z=_decode_decoder(doc["decoder_z"]),
        thresholds=np.array(doc["thresholds"], dtype=float),
        leak=float(doc["leak"]),
        **kwargs,
    )
    if weights.mode != mode:
        raise ValueError(f"{path} names mode {mode!r}, but its arrays hold a network "
                         f"of mode {weights.mode!r}")
    return weights


def _encode_matrix(mat):
    if mat is None:
        return None
    return {"shape": list(mat.shape), "data": [list(row) for row in np.asarray(mat)]}


def _decode_matrix(doc):
    if doc is None:
        return None
    return np.array(doc["data"], dtype=float).reshape(doc["shape"])


def _encode_decoder(dec):
    if dec is None:
        return None
    out = _encode_matrix(dec.values)
    out["column_norm"] = dec.column_norm
    return out


def _decode_decoder(doc):
    if doc is None:
        return None
    return DecoderMatrix(values=_decode_matrix(doc), column_norm=doc["column_norm"])
