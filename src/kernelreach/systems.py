"""Built-in stochastic systems, controllers, and seeded terminal-state sampling.

Two simulatable benchmark systems are provided:

* CWH: linearized in-plane spacecraft relative motion, state
  (x, y, xdot, ydot), driven by an open-loop thrust sequence and advanced
  with the exact zero-order-hold discretization.
* TORA: translational oscillations with a rotational actuator, state
  (x1, x2, x3, x4), closed loop under either a saturated linear feedback or
  a user-supplied feed-forward network, integrated with classical RK4.

All randomness flows through numpy Generators.  Sample i of a run uses the
child seed ``child_seed(master_seed, i)``; the mixing function is pinned to
numpy's SeedSequence spawn mechanism so runs reproduce themselves exactly
regardless of evaluation order.  The sampler seeds the streams of a block in
one vectorised pass of numpy's SeedSequence arithmetic, and tests pin each
stream bitwise to ``default_rng(child_seed(master_seed, i))``.

One simulator serves single trajectories and sample sets: it steps a batch
of states together, each sample drawing a chunk of steps of disturbance per
call from its own Generator in step order, and every operation acts on each
sample separately.  A batch is therefore bitwise equal to its samples
stepped one at a time.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .atomic import write_csv, write_json
from .estimator import SampleSet
from .kernels import _read_only_copy
from .schema import FieldError, build, finite, load_json, typed

# Admissible thrust box for the CWH system: each input coordinate must lie
# in [-CWH_INPUT_LIMIT, CWH_INPUT_LIMIT].
CWH_INPUT_LIMIT = 0.1

# Both built-in systems step a 4-d state.
STATE_DIM = 4

# Default open-loop CWH policy: constant small thrust toward the docking
# target at the origin (the built-in initial condition sits at negative x, y).
DEFAULT_CWH_THRUST = 0.01

# Samples stepped together at most.  Each live sample holds a Generator
# (about 0.8 kB) and its share of the step temporaries, so blocks bound the
# sampler's memory at large M without slowing it.
_SAMPLE_BLOCK = 4096
# Control steps of disturbance a sample draws per call, so that a horizon of
# up to 256 steps takes one call per sample.  It caps the block's noise chunk:
# 256 x 4096 x 4 doubles, 33.5 MB.
_NOISE_STEPS = 256


def _sigmoid(v):
    # Imported here so that only a network with a sigmoid layer pays for
    # importing scipy.special.  expit, not 1 / (1 + exp(-v)): the two differ
    # in the last bit of some values.
    from scipy.special import expit

    return expit(v)


_ACTIVATIONS = {
    "relu": lambda v: np.maximum(v, 0.0),
    "tanh": np.tanh,
    "sigmoid": _sigmoid,
    "linear": lambda v: v,
}


def child_seed(master_seed: int, index: int) -> int:
    """Deterministic per-stream seed for sample index ``index``.

    Pinned mixing function: numpy ``SeedSequence(master_seed,
    spawn_key=(index,))`` hashed to a 128-bit integer.  Streams for distinct
    indices are statistically independent and independent of the order in
    which they are consumed.
    """
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(index),))
    words = seq.generate_state(4, dtype=np.uint32)
    return int.from_bytes(words.tobytes(), "little")


# numpy's SeedSequence: O'Neill's seed_seq replacement ("Developing a seed_seq
# Alternative", pcg-random.org, 2015), with numpy's pool size and constants.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _hash_constants(const: int, mult: int):
    # the (xor, multiply) constants of each successive hash in one SeedSequence stage
    while True:
        nxt = const * mult & 0xFFFFFFFF
        yield const, nxt
        const = nxt


def _hash(value: np.ndarray, constants) -> np.ndarray:
    xor, mult = next(constants)
    value = (value ^ xor) * mult  # uint32 arrays wrap, as numpy's C code does
    return value ^ value >> _XSHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ result >> _XSHIFT


def _seed_sequence_state(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(...).generate_state(n_words)`` of each column of (L >= 4, n) uint32 words.

    Column j holds the assembled entropy of one SeedSequence: numpy's
    ``mix_entropy`` over a pool of 4, then ``generate_state`` with uint32 output.
    """
    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hash(word, constants) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], constants))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hash(word, constants))
    constants = _hash_constants(_INIT_B, _MULT_B)
    return np.array([_hash(pool[i % _POOL_SIZE], constants) for i in range(n_words)])


class _SeedWords(ISeedSequence):
    """A stream's precomputed seed: the 4 uint64 words ``PCG64`` asks its seed for, once."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _stream_generators(master_seed: int, start: int, stop: int) -> list:
    """``[default_rng(child_seed(master_seed, i)) for i in range(start, stop)]``, in one pass.

    Both SeedSequence hashes of every stream run together as uint32 array
    arithmetic, bitwise as numpy runs them one stream at a time (tests pin
    this against ``child_seed``):

    1. ``child_seed``: the master's 32-bit words, low first, zero-padded to
       the pool size as numpy pads them when a spawn key follows, then the
       index word.  An index is one word only below 2**32, which every count
       that fits in memory keeps to.
    2. ``default_rng(child)``: the child int's 4 words hashed into 4 uint64.
       numpy drops the int's trailing zero words, but without a spawn key a
       missing word hashes like an explicit zero, so all 4 are hashed.

    The Generators serve the sampler only: their stand-in seed cannot spawn.
    """
    master = int(master_seed)
    n_master = max(_POOL_SIZE, -(-master.bit_length() // 32))
    entropy = np.empty((n_master + 1, stop - start), dtype=np.uint32)
    entropy[:n_master] = np.frombuffer(master.to_bytes(4 * n_master, "little"), "<u4")[:, None]
    entropy[n_master] = np.arange(start, stop)
    # child_seed reads the child words' bytes as a little-endian int; on a
    # little-endian host this view changes nothing
    child = _seed_sequence_state(entropy, 4).view("<u4").astype(np.uint32)
    state = _seed_sequence_state(child, 8).astype(np.uint64)
    # generate_state's uint64 words are little-endian pairs: low word first
    seeds = (state[0::2] | state[1::2] << 32).T.copy()
    return [Generator(PCG64(_SeedWords(row))) for row in seeds]


# ---------------------------------------------------------------------------
# Disturbances
# ---------------------------------------------------------------------------


# A disturbance's ``sample(rng, steps)`` returns the (steps, width) draws of that
# many control steps at its own width, which a SystemConfig checks, consuming the
# Generator as one-step calls would: numpy draws variates element by element, row-major.


def _check_finite(owner, names, positive=False) -> None:
    """Raise a FieldError naming the first field of ``names`` not finite (or not positive)."""
    for name in names:
        value = getattr(owner, name)
        if positive and not value > 0:
            raise FieldError(name, f"must be positive, got {value!r}")
        if not finite(value):
            raise FieldError(name, f"must be finite, got {value!r}")


@dataclass(frozen=True)
class NoDisturbance:
    def sample(self, rng, steps: int) -> np.ndarray:
        return np.zeros((steps, STATE_DIM))


@dataclass(frozen=True)
class GaussianDisturbance:
    """Diagonal-covariance Gaussian draws mean + sqrt(diag) * z; a zero variance is exact."""

    mean: tuple[float, ...]
    covariance_diagonal: tuple[float, ...]
    # read-only arrays built once, so a draw is one multiply-add
    _mean: np.ndarray = field(init=False, repr=False, compare=False)
    _sd: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float)
        var = np.array(self.covariance_diagonal, dtype=float)
        if mean.ndim != 1 or mean.shape != var.shape:
            raise FieldError("covariance_diagonal", "and mean must be 1-d vectors of equal length")
        for name, values in (("mean", mean), ("covariance_diagonal", var)):
            if not np.all(np.isfinite(values)):
                raise FieldError(name, f"must be finite, got {values.tolist()}")
        if np.any(var < 0):
            raise FieldError("covariance_diagonal", f"must be nonnegative, got {var.tolist()}")
        object.__setattr__(self, "mean", tuple(mean.tolist()))
        object.__setattr__(self, "covariance_diagonal", tuple(var.tolist()))
        sd = np.sqrt(var)
        mean.flags.writeable = False
        sd.flags.writeable = False
        object.__setattr__(self, "_mean", mean)
        object.__setattr__(self, "_sd", sd)

    def sample(self, rng, steps: int) -> np.ndarray:
        return self._mean + self._sd * rng.standard_normal((steps, self._mean.size))


@dataclass(frozen=True)
class ScaledBetaDisturbance:
    """Per-coordinate scale * Beta(alpha, beta) draws, optionally masked.

    A draw is the ratio g1 / (g1 + g2) of two independent gamma variates
    with shapes alpha and beta, which is exact for every shape parameter
    (including beta < 1, where naive inversion schemes lose accuracy).
    ``mask`` selects which state coordinates receive the disturbance
    (default: all of them).  Masked-off coordinates still consume draws, so
    changing the mask never realigns the random stream.
    """

    alpha: float = 2.0
    beta: float = 0.5
    scale: float = 0.01
    dims: int = 4
    mask: tuple[bool, ...] = None

    def __post_init__(self):
        _check_finite(self, ("alpha", "beta"), positive=True)
        _check_finite(self, ("scale",))
        if self.dims < 1:
            raise FieldError("dims", f"must be at least 1, got {self.dims}")
        if self.mask is not None:
            mask = tuple(bool(v) for v in self.mask)
            if len(mask) != self.dims:
                raise FieldError("mask", f"must hold dims = {self.dims} flags, got {len(mask)}")
            object.__setattr__(self, "mask", mask)

    def sample(self, rng, steps: int) -> np.ndarray:
        # each step draws dims gamma(alpha) variates, then dims gamma(beta) ones
        g = rng.gamma(np.tile(np.repeat([self.alpha, self.beta], self.dims), (steps, 1)))
        g1, g2 = g[:, :self.dims], g[:, self.dims:]
        draw = self.scale * g1 / (g1 + g2)
        if self.mask is not None:
            draw = draw * np.array(self.mask, dtype=float)
        return draw


def sample_gaussian(mean, covariance_diagonal, rng, size=None):
    """One ``GaussianDisturbance`` draw (dim,), or a (size, dim) matrix of them."""
    spec = GaussianDisturbance(mean, covariance_diagonal)
    draws = spec.sample(rng, 1 if size is None else int(size))
    return draws[0] if size is None else draws


def sample_scaled_beta(alpha, beta, scale, rng, size=None):
    """One scale * Beta(alpha, beta) draw, or a (size,) vector of them."""
    dims = 1 if size is None else int(size)
    draws = ScaledBetaDisturbance(alpha, beta, scale, dims).sample(rng, 1)[0]
    return draws[0] if size is None else draws


# ---------------------------------------------------------------------------
# Controllers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MlpLayer:
    weights: np.ndarray  # (out, in), applied as weights @ v + bias
    bias: np.ndarray
    activation: str

    def __post_init__(self):
        w = _read_only_copy(self.weights)
        b = _read_only_copy(self.bias)
        if w.ndim != 2:
            raise FieldError("weights", f"must be an (out, in) matrix, got shape {w.shape}")
        if b.shape != w.shape[:1]:
            raise FieldError("bias", f"must hold one number per weight row, got shape {b.shape}")
        for name, arr in (("weights", w), ("bias", b)):
            if not np.all(np.isfinite(arr)):
                raise FieldError(name, "must be finite")
        if self.activation not in _ACTIVATIONS:
            raise FieldError(
                "activation", f"must be one of {sorted(_ACTIVATIONS)}, got {self.activation!r}"
            )
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)


@dataclass(frozen=True)
class MlpController:
    """Feed-forward network mapping a state vector to a control vector."""

    layers: tuple
    saturation: tuple = None  # optional (lo, hi) per-coordinate output box

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise FieldError("layers", "must hold at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.weights.shape[1] != prev.weights.shape[0]:
                raise FieldError(
                    "layers", f"do not chain: {prev.weights.shape} then {nxt.weights.shape}"
                )
        object.__setattr__(self, "layers", layers)
        if self.saturation is not None:
            lo = _read_only_copy(self.saturation[0])
            hi = _read_only_copy(self.saturation[1])
            if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
                raise FieldError("saturation", f"must be finite, got {(lo.tolist(), hi.tolist())}")
            if lo.shape != hi.shape or lo.size != self.output_dim or np.any(lo > hi):
                raise FieldError("saturation", "must give lo <= hi per output coordinate")
            object.__setattr__(self, "saturation", (lo, hi))

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weights.shape[0]


@dataclass(frozen=True)
class SaturatedFeedback:
    """Built-in TORA policy u = clamp(-k1 x3 - k2 x4) onto [-saturation, saturation]."""

    k1: float = 1.0
    k2: float = 1.0
    saturation: float = 1.0

    def __post_init__(self):
        _check_finite(self, ("k1", "k2"))
        # a negative bound would clamp every control to that bound
        if not self.saturation >= 0:
            raise FieldError("saturation", f"must be nonnegative, got {self.saturation!r}")


def _matvec(weights: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``weights @ v`` for one vector (k,) or for each row of a batch (M, k).

    The stacked product makes the same BLAS matrix-vector call per row that
    ``weights @ row`` makes, so every batched row is bitwise equal to the
    product on that row alone.  ``v @ weights.T`` and ``einsum`` sum in
    another order and differ in the last bit on many entries; so does the
    stacked product on a non-contiguous batch.
    """
    return np.matmul(weights, np.ascontiguousarray(v)[..., None])[..., 0]


def mlp_forward(controller: MlpController, state) -> np.ndarray:
    """Evaluate the network on one state (n,) or a batch of states (M, n).

    Affine map then activation per layer, then clamp.  Row i of a batch is
    bitwise equal to the network evaluated on state i alone.
    """
    v = np.asarray(state, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != controller.input_dim:
        raise ValueError(
            f"controller expects an input of dimension {controller.input_dim}, got shape {v.shape}"
        )
    if not np.all(np.isfinite(v)):
        raise ValueError("controller input has non-finite entries")
    for index, layer in enumerate(controller.layers):
        # overflow is detected by the finite check, not raised as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            v = _ACTIVATIONS[layer.activation](_matvec(layer.weights, v) + layer.bias)
        if not np.all(np.isfinite(v)):
            raise ValueError(f"non-finite controller activation at layer {index}")
    if controller.saturation is not None:
        lo, hi = controller.saturation
        v = np.clip(v, lo, hi)
    return v


def _tora_controls(controller, x: np.ndarray) -> np.ndarray:
    """Scalar TORA control of each column of a state-major (4, M) batch."""
    if isinstance(controller, MlpController):
        return mlp_forward(controller, x.T)[:, 0]
    u = -controller.k1 * x[2] - controller.k2 * x[3]
    return np.minimum(np.maximum(u, -controller.saturation), controller.saturation)


def mlp_controller_to_dict(controller: MlpController) -> dict:
    doc = {
        "input_dim": controller.input_dim,
        "output_dim": controller.output_dim,
        "layers": [
            {
                "weights": [float(v) for v in layer.weights.ravel()],
                "rows": layer.weights.shape[0],
                "cols": layer.weights.shape[1],
                "bias": [float(v) for v in layer.bias],
                "activation": layer.activation,
            }
            for layer in controller.layers
        ],
        "saturation": None,
    }
    if controller.saturation is not None:
        lo, hi = controller.saturation
        doc["saturation"] = {"lo": [float(v) for v in lo], "hi": [float(v) for v in hi]}
    return doc


def load_mlp_controller(path) -> MlpController:
    """Read a weight file: the document ``mlp_controller_to_dict`` writes."""

    def layer(weights: tuple[float, ...], rows: int, cols: int, bias: tuple[float, ...],
              activation: str):
        flat = np.asarray(weights, dtype=float)
        if flat.shape != (rows * cols,):
            raise FieldError(
                "weights", f"holds {flat.size} values, expected rows*cols {rows * cols}"
            )
        return MlpLayer(flat.reshape(rows, cols), bias, activation)

    def layer_list(value, where):
        specs = enumerate(typed(value, tuple, path, where))
        return tuple(build(layer, spec, path, f"{where}[{i}]") for i, spec in specs)

    def box(lo: tuple[float, ...], hi: tuple[float, ...]):
        return lo, hi

    def controller(input_dim: int, output_dim: int, layers: tuple, saturation: tuple = None):
        net = MlpController(layers, saturation)
        for name, declared in (("input_dim", input_dim), ("output_dim", output_dim)):
            if declared != getattr(net, name):
                raise FieldError(
                    name, f"is declared as {declared}, but the layers give {getattr(net, name)}"
                )
        return net

    sections = {"layers": layer_list, "saturation": lambda v, w: build(box, v, path, w)}
    return build(controller, load_json(path), path, "", sections)


def save_mlp_controller(controller: MlpController, path) -> None:
    write_json(path, mlp_controller_to_dict(controller))


# ---------------------------------------------------------------------------
# System configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CwhSystem:
    """In-plane spacecraft relative motion under an open-loop thrust sequence.

    The default orbital rate, spacecraft mass, and sampling period are
    standard low-Earth-orbit rendezvous values; all are overridable.
    ``input_sequence`` is an (N, 2) thrust schedule; None selects the
    constant default thrust toward the target.  A ``SystemConfig`` checks
    that the schedule covers its horizon inside the admissible box.
    """

    omega: float = 0.00113
    mass: float = 300.0
    dt: float = 20.0
    input_sequence: tuple = None

    def __post_init__(self):
        _check_finite(self, ("omega", "mass", "dt"), positive=True)
        if self.input_sequence is not None:
            seq = _read_only_copy(self.input_sequence)
            if seq.ndim != 2 or seq.shape[1] != 2 or not np.all(np.isfinite(seq)):
                raise FieldError("input_sequence", "must be a finite (N, 2) array")
            object.__setattr__(self, "input_sequence", seq)

    def resolved_inputs(self, horizon: int) -> np.ndarray:
        """The thrust of steps 0..horizon-1; unchecked, as ``SystemConfig`` checks the schedule."""
        if self.input_sequence is None:
            return np.full((horizon, 2), DEFAULT_CWH_THRUST)
        return self.input_sequence[:horizon]


@dataclass(frozen=True)
class ToraSystem:
    """Rotational-actuator benchmark in closed loop with a scalar controller."""

    controller: object = SaturatedFeedback()
    control_period: float = 0.1
    integrator_substeps: int = 10

    def __post_init__(self):
        _check_finite(self, ("control_period",), positive=True)
        if self.integrator_substeps < 1:
            raise FieldError(
                "integrator_substeps", f"must be at least 1, got {self.integrator_substeps}"
            )
        net = self.controller
        if isinstance(net, MlpController) and (net.input_dim, net.output_dim) != (4, 1):
            raise FieldError(
                "controller", "must map the 4-d state to a scalar control, got "
                f"{net.input_dim} inputs and {net.output_dim} outputs"
            )


def _finite_coordinates(name: str, values) -> tuple:
    """``values`` as a tuple of floats; a FieldError naming ``name`` if one is not finite."""
    values = tuple(float(v) for v in values)
    if not all(map(finite, values)):
        raise FieldError(name, f"must be finite, got {values!r}")
    return values


@dataclass(frozen=True)
class PointInitial:
    x: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "x", _finite_coordinates("x", self.x))

    def draw(self, rng) -> np.ndarray:
        return np.array(self.x)


@dataclass(frozen=True)
class BoxInitial:
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        lo = _finite_coordinates("lo", self.lo)
        hi = _finite_coordinates("hi", self.hi)
        if len(hi) != len(lo):
            raise FieldError("hi", f"must hold as many numbers as lo ({len(lo)}), got {len(hi)}")
        if any(a > b for a, b in zip(lo, hi)):
            raise FieldError("lo", "must be <= hi in every coordinate")
        # a uniform draw needs the width hi - lo as a double
        for k, (a, b) in enumerate(zip(lo, hi)):
            if not finite(b - a):
                raise FieldError("hi", f"- lo overflows a double in coordinate {k}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def draw(self, rng) -> np.ndarray:
        return rng.uniform(self.lo, self.hi)


# The field that sets the dimension of each built-in initial condition and disturbance.
_DIMENSION_FIELDS = {
    PointInitial: "x",
    BoxInitial: "lo",
    GaussianDisturbance: "mean",
    ScaledBetaDisturbance: "dims",
}


@dataclass(frozen=True)
class SystemConfig:
    """A simulatable system (dynamics, horizon, disturbance, initial), checked when built."""

    system: object
    horizon: int
    disturbance: object = NoDisturbance()
    initial: object = field(kw_only=True)  # required; keyword-only as it follows a default

    def __post_init__(self):
        if self.horizon < 1:
            raise FieldError("horizon", f"must be at least 1, got {self.horizon}")
        for section in ("initial", "disturbance"):
            part = getattr(self, section)
            key = _DIMENSION_FIELDS.get(type(part))
            if key is not None:
                value = getattr(part, key)
                dim = value if key == "dims" else len(value)
                if dim != STATE_DIM:
                    raise FieldError(
                        f"{section}.{key}", f"gives dimension {dim}, but the state has {STATE_DIM}"
                    )
        if not isinstance(self.system, (CwhSystem, ToraSystem)):
            raise FieldError(
                "system", f"cannot simulate a {type(self.system).__name__}; "
                "expected a CwhSystem or ToraSystem"
            )
        seq = getattr(self.system, "input_sequence", None)  # a CWH thrust schedule
        if seq is not None and seq.shape[0] < self.horizon:
            raise FieldError(
                "system.input_sequence", f"has {seq.shape[0]} steps, so step "
                f"{seq.shape[0]} of horizon {self.horizon} is missing"
            )
        if seq is not None:
            _check_cwh_controls(seq[:self.horizon], "system.input_sequence")


# ---------------------------------------------------------------------------
# Dynamics
# ---------------------------------------------------------------------------


def cwh_discrete_matrices(omega: float, mass: float, dt: float):
    """Exact zero-order-hold discretization of the CWH equations.

    Returns (A, B) with state (x, y, xdot, ydot) and thrust input held
    constant over the step; B folds in the 1/mass force scaling.  At dt = 0
    this is exactly (identity, zero).
    """
    if omega <= 0 or mass <= 0:
        raise ValueError("omega and mass must be positive")
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    n = omega
    t = dt
    c = np.cos(n * t)
    s = np.sin(n * t)
    a = np.array(
        [
            [4.0 - 3.0 * c, 0.0, s / n, 2.0 * (1.0 - c) / n],
            [6.0 * (s - n * t), 1.0, -2.0 * (1.0 - c) / n, (4.0 * s - 3.0 * n * t) / n],
            [3.0 * n * s, 0.0, c, 2.0 * s],
            [-6.0 * n * (1.0 - c), 0.0, -2.0 * s, 4.0 * c - 3.0],
        ]
    )
    # Columns are the step integrals of the velocity-input columns of the
    # state transition matrix.
    b = (1.0 / mass) * np.array(
        [
            [(1.0 - c) / n**2, 2.0 * t / n - 2.0 * s / n**2],
            [2.0 * s / n**2 - 2.0 * t / n, 4.0 * (1.0 - c) / n**2 - 1.5 * t**2],
            [s / n, 2.0 * (1.0 - c) / n],
            [-2.0 * (1.0 - c) / n, 4.0 * s / n - 3.0 * t],
        ]
    )
    return a, b


def _check_cwh_controls(controls: np.ndarray, field: str = "control") -> None:
    """Reject a thrust schedule (K, 2) that leaves the admissible box; name ``field``, step."""
    # NaN fails the comparison too, so non-finite thrust is rejected here
    outside = np.flatnonzero(~np.all(np.abs(controls) <= CWH_INPUT_LIMIT, axis=1))
    if outside.size:
        k = outside[0]
        raise FieldError(
            field, f"{controls[k]} at step {k} lies outside the admissible box "
            f"[-{CWH_INPUT_LIMIT}, {CWH_INPUT_LIMIT}]^2"
        )


def cwh_step(a: np.ndarray, b: np.ndarray, state, control, noise) -> np.ndarray:
    """One discrete CWH step A x + B u + w, with u checked against the input box.

    ``state`` and ``noise`` are one state (4,) or a batch (M, 4) that shares
    the control u; row i of a batch is bitwise equal to the step on state i.
    """
    u = np.asarray(control, dtype=float)
    if u.shape != (2,):
        raise ValueError("CWH control must be a 2-vector")
    _check_cwh_controls(u[None])
    return _cwh_update(a, b, np.asarray(state, dtype=float), u, np.asarray(noise, dtype=float))


def _cwh_update(a: np.ndarray, b: np.ndarray, x: np.ndarray, u, w: np.ndarray) -> np.ndarray:
    # unchecked; x and w are one state (4,) or a batch (M, 4) sharing the control u
    return _matvec(a, x) + b @ u + w


def tora_derivative(state, u: float) -> np.ndarray:
    """TORA vector field (x2, -x1 + 0.1 sin x3, x4, u)."""
    x = np.asarray(state, dtype=float)
    if x.shape != (4,):
        raise ValueError("TORA state must be a 4-vector")
    if not (np.all(np.isfinite(x)) and np.isfinite(u)):
        raise ValueError("non-finite state or control")
    return np.array([x[1], -x[0] + 0.1 * np.sin(x[2]), x[3], float(u)])


def rk4_step(derivative, state, u, h: float) -> np.ndarray:
    """Classical 4th-order Runge-Kutta step with the input held constant."""
    if h <= 0:
        raise ValueError("step size must be positive")
    x = np.asarray(state, dtype=float)
    k1 = derivative(x, u)
    k2 = derivative(x + 0.5 * h * k1, u)
    k3 = derivative(x + 0.5 * h * k2, u)
    k4 = derivative(x + h * k3, u)
    nxt = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(nxt).all():
        raise ValueError("integration produced a non-finite state")
    return nxt


def _tora_integrator(m: int, h: float, substeps: int):
    """``period(x, u)``: ``substeps`` RK4 steps of the TORA field on a (4, m) batch, u held.

    ``period`` is bitwise ``rk4_step(tora_derivative, ., u, h)`` applied
    ``substeps`` times to each column, unchecked, and returns a new (4, m)
    array.  With u held, x3' = x4 and x4' = u do not depend on x1 or x2, so
    x4 after every substep is one running sum of the same increment, x3's
    RK4 stages and increments are arrays over the substeps followed by a
    second running sum (``add.accumulate`` adds left to right, as the loop
    does), and the four sin x3 of every substep take one ``sin``.  Only
    (x1, x2) stays in the loop, with the IEEE operations of ``rk4_step`` on
    the same operands in the same order; S - x1, with S = 0.1 sin x3, is
    bitwise rk4's (-x1) + S.

    What does not depend on a period's data is built here, once: every
    buffer, view and constant, so that a period allocates only its result.
    """
    add, subtract, multiply = np.add, np.subtract, np.multiply
    # 0-d arrays: a ufunc converts a Python float operand on every call
    s, c, h, two, tenth = (np.array(v) for v in (0.5 * h, h / 6.0, h, 2.0, 0.1))
    x4 = np.empty((substeps + 1, m))
    x3 = np.empty((substeps + 1, m))
    v, w = x4[:-1], x3[:-1]  # x4 and x3 at the start of each substep; v is k1 of x3
    dx4, x3_in, x4_in = x4[1:], x3[0], x4[0]
    mid = np.empty((substeps, m))  # k2 and k3 of x3
    dx3 = np.empty((substeps, m))
    tmp = np.empty((substeps, m))
    u2, uh = np.empty(m), np.empty(m)
    # the x3 of each substep's four stages, then 0.1 sin of them
    forcing = np.empty((substeps, 4, m))
    f0, f1, f2, f3 = forcing.swapaxes(0, 1)
    rows = tuple(tuple(f) for f in forcing)
    # per RK4 stage: its (x1, x2), then its x2 slope S - x1, so that the
    # stage's slope (x2, S - x1) is two adjacent rows
    stage = np.empty((4, 3, m))
    z, y2, y3, y4 = stage[:, :2]
    e1, e2, e3, e4 = stage[:, 0]
    g1, g2, g3, g4 = stage[:, 2]
    k1, k2, k3, k4 = slopes = stage[:, 1:]
    k23 = slopes[1:3]  # doubled in place once the stages are done
    acc = np.empty((2, m))

    def period(x: np.ndarray, u: np.ndarray) -> np.ndarray:
        # x4: x[3], then a running sum of c * (((u + 2 u) + 2 u) + u)
        x4_in[...] = x[3]
        multiply(two, u, u2)
        add(u, u2, uh)
        add(uh, u2, uh)
        add(uh, u, uh)
        multiply(c, uh, uh)
        dx4[...] = uh
        add.accumulate(x4, out=x4)
        # mid = v + s u; x3: x[2], then a running sum of
        # c * (((v + 2 mid) + 2 mid) + (v + h u))
        multiply(s, u, uh)
        add(v, uh, mid)
        multiply(two, mid, tmp)
        add(v, tmp, dx3)
        add(dx3, tmp, dx3)
        multiply(h, u, uh)
        add(v, uh, tmp)
        add(dx3, tmp, dx3)
        x3_in[...] = x[2]
        multiply(c, dx3, x3[1:])
        add.accumulate(x3, out=x3)
        # the stages' x3: w, w + s v, w + s mid and w + h mid
        f0[...] = w
        multiply(s, v, tmp)
        add(w, tmp, f1)
        multiply(s, mid, tmp)
        add(w, tmp, f2)
        multiply(h, mid, tmp)
        add(w, tmp, f3)
        np.sin(forcing, out=forcing)
        multiply(forcing, tenth, forcing)
        z[...] = x[:2]
        for r1, r2, r3, r4 in rows:
            subtract(r1, e1, g1)
            multiply(k1, s, y2)
            add(y2, z, y2)
            subtract(r2, e2, g2)
            multiply(k2, s, y3)
            add(y3, z, y3)
            subtract(r3, e3, g3)
            multiply(k3, h, y4)
            add(y4, z, y4)
            subtract(r4, e4, g4)
            multiply(k23, two, k23)
            add(k1, k2, acc)
            add(acc, k3, acc)
            add(acc, k4, acc)
            multiply(acc, c, acc)
            add(z, acc, z)
        return np.concatenate((z, x3[-1:], x4[-1:]))

    return period


def _steps(config: SystemConfig, x0: np.ndarray, rngs):
    """Step M samples together; yield the (M, 4) batch after each control step.

    Row i of ``x0`` is the initial state of sample i, and ``rngs[i]`` is its
    Generator, drawn from in step order, ``_NOISE_STEPS`` steps per call.
    Every operation acts on each sample separately, so row i is bitwise
    equal to sample i stepped on its own: the batch never couples samples.
    A TORA control period is integrated by the ``_tora_integrator`` built
    once here for the whole simulation, whose buffers every period reuses;
    it is bitwise ``rk4_step`` on every substep, and the state is checked
    once a period.
    The built ``config`` is trusted: only ``x0`` and divergence are checked.
    """
    system = config.system
    horizon = config.horizon
    if x0.ndim != 2 or x0.shape[1] != 4:
        raise ValueError("state must be a 4-vector")
    if not np.all(np.isfinite(x0)):
        raise ValueError("initial state has non-finite entries")

    def noise():
        # the (M, 4) disturbance of each step; no draw runs past the horizon.
        # A step's rows are read before the next chunk overwrites them.
        chunk = np.empty((min(_NOISE_STEPS, horizon), len(rngs), 4))
        for start in range(0, horizon, _NOISE_STEPS):
            steps = min(_NOISE_STEPS, horizon - start)
            for i, r in enumerate(rngs):
                chunk[:steps, i] = config.disturbance.sample(r, steps)
            yield from chunk[:steps]

    if isinstance(system, CwhSystem):
        a, b = cwh_discrete_matrices(system.omega, system.mass, system.dt)
        x = x0
        for u, w in zip(system.resolved_inputs(horizon), noise()):
            x = _cwh_update(a, b, x, u, w)
            yield x
    else:  # a ToraSystem, the only other system a SystemConfig admits
        h = system.control_period / system.integrator_substeps
        period = _tora_integrator(x0.shape[0], h, system.integrator_substeps)
        # state-major (4, M): each coordinate is one row of array ops
        x = x0.T
        for w in noise():
            # divergence is reported by the finite check, not by warnings
            with np.errstate(over="ignore", invalid="ignore"):
                u = _tora_controls(system.controller, x)
                x = period(x, u)
            # one check a period: inf and NaN stay non-finite through adds,
            # nonzero scalings and sin, so it catches what a per-substep one does
            if not np.isfinite(x).all():
                raise ValueError("integration produced a non-finite state")
            x = x + w.T
            yield x.T


def simulate_trajectory(config: SystemConfig, x0, seed: int) -> np.ndarray:
    """Simulate one closed-loop trajectory; rows are states at steps 0..N.

    Deterministic in (config, x0, seed): the disturbance stream comes from
    ``numpy.random.default_rng(seed)``, consumed in step order.  The draw
    enters the CWH update additively inside the step; for TORA it is added
    to the state after the control period is integrated.  This is the batch
    simulator of ``sample_terminal_states`` on a batch of one.
    """
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    x0 = np.asarray(x0, dtype=float)
    steps = _steps(config, x0[None], [np.random.default_rng(seed)])
    return np.array([x0, *(x[0] for x in steps)])


def sample_terminal_states(config: SystemConfig, count: int, master_seed: int) -> SampleSet:
    """Draw ``count`` i.i.d. terminal states at the configured horizon.

    Sample i runs on its own stream, ``default_rng(child_seed(master_seed,
    i))``; the initial condition (when random) is drawn from that same stream
    before the trajectory, so results do not depend on evaluation order.
    The samples are stepped together, in blocks of up to 4096, and each
    terminal state is bitwise equal to simulating that sample on its own.
    So the first k rows of a count-M draw are bitwise the count-k draw with
    the same seed, across block boundaries too.  The streams of a block are
    seeded in one vectorised pass, bitwise equal to seeding each one by
    ``child_seed``, as tests pin.
    """
    if count < 1:
        raise ValueError("sample count must be at least 1")
    if master_seed < 0:
        raise ValueError(f"master_seed must be nonnegative, got {master_seed}")
    blocks = []
    for start in range(0, count, _SAMPLE_BLOCK):
        stop = min(count, start + _SAMPLE_BLOCK)
        rngs = _stream_generators(master_seed, start, stop)
        x = np.array([config.initial.draw(rng) for rng in rngs], dtype=float)
        for x in _steps(config, x, rngs):
            pass  # keep only the state after the last step
        blocks.append(x)
    name = type(config.system).__name__
    return SampleSet(
        np.concatenate(blocks),
        provenance=f"{name} N={config.horizon} M={count} seed={master_seed}",
    )


# ---------------------------------------------------------------------------
# Sample CSV files
# ---------------------------------------------------------------------------


def save_sample_csv(samples: SampleSet, path) -> None:
    """Write terminal states as CSV with header x1..xn."""
    write_csv(path, [f"x{j + 1}" for j in range(samples.dim)], samples.points)


def load_sample_csv(path) -> SampleSet:
    """Read a terminal-state CSV; a malformed row or cell is reported by line and column.

    A cell is a finite decimal number; ``float``'s digit separators are not read.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise ValueError(f"sample file {path} is empty")
    header = rows[0]
    dim = len(header)
    if dim < 1 or any(not name.strip() for name in header):
        raise ValueError(f"sample file {path} has a malformed header")
    data = np.empty((len(rows) - 1, dim))
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != dim:
            raise ValueError(
                f"sample file {path} line {line}: expected {dim} values, got {len(row)}"
            )
        values = []
        for column, tok in enumerate(row, start=1):
            try:
                value = None if "_" in tok else float(tok)
            except ValueError:
                value = None
            if value is None:
                raise ValueError(
                    f"sample file {path} line {line} column {column}: {tok!r} is not a number"
                )
            if not math.isfinite(value):
                raise ValueError(f"sample file {path} contains non-finite values: "
                                 f"line {line} column {column} is {tok!r}")
            values.append(value)
        data[line - 2] = values
    if data.shape[0] < 1:
        raise ValueError(f"sample file {path} has no data rows")
    return SampleSet(data, provenance=f"csv:{path}")
