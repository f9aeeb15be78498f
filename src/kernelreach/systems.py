"""Built-in stochastic systems, controllers, and seeded terminal-state sampling.

Two simulatable benchmark systems are provided, and a third "external"
source that reads terminal states from a CSV file for systems simulated
elsewhere:

* CWH: linearized in-plane spacecraft relative motion, state
  (x, y, xdot, ydot), driven by an open-loop thrust sequence and advanced
  with the exact zero-order-hold discretization.
* TORA: translational oscillations with a rotational actuator, state
  (x1, x2, x3, x4), closed loop under either a saturated linear feedback or
  a user-supplied feed-forward network, integrated with classical RK4.

All randomness flows through numpy Generators.  Sample i of a run uses the
child seed ``child_seed(master_seed, i)``; the mixing function is pinned to
numpy's SeedSequence spawn mechanism so runs reproduce themselves exactly
regardless of evaluation order.

One simulator serves single trajectories and sample sets: it steps a batch
of states together, each sample drawing a chunk of steps of disturbance per
call from its own Generator in step order, and every operation acts on each
sample separately.  A batch is therefore bitwise equal to its samples
stepped one at a time.
"""

import csv
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .atomic import atomic_write
from .estimator import SampleSet
from .schema import build, load_json, typed

# Admissible thrust box for the CWH system: each input coordinate must lie
# in [-CWH_INPUT_LIMIT, CWH_INPUT_LIMIT].
CWH_INPUT_LIMIT = 0.1

# Default open-loop CWH policy: constant small thrust toward the docking
# target at the origin (the built-in initial condition sits at negative x, y).
DEFAULT_CWH_THRUST = 0.01

# Samples stepped together at most.  Each live sample holds a Generator
# (about 0.9 kB) and its share of the step temporaries, so blocks bound the
# sampler's memory at large M without slowing it.
_SAMPLE_BLOCK = 4096
# Control steps of disturbance a sample draws per call: 8 MB for a full block.
_NOISE_STEPS = 64

RELU = "relu"
TANH = "tanh"
SIGMOID = "sigmoid"
LINEAR = "linear"

_ACTIVATIONS = {
    RELU: lambda v: np.maximum(v, 0.0),
    TANH: np.tanh,
    SIGMOID: expit,
    LINEAR: lambda v: v,
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


# ---------------------------------------------------------------------------
# Disturbances
# ---------------------------------------------------------------------------


# A disturbance's ``sample(rng, dim, steps)`` returns the (steps, dim) draws of
# that many control steps and consumes the Generator as that many one-step calls
# would: numpy draws normal and gamma variates element by element, row-major.


@dataclass(frozen=True)
class NoDisturbance:
    def sample(self, rng, dim: int, steps: int) -> np.ndarray:
        return np.zeros((steps, dim))


@dataclass(frozen=True)
class GaussianDisturbance:
    """Diagonal-covariance Gaussian draws mean + sqrt(diag) * z; a zero variance is exact."""

    mean: tuple
    covariance_diagonal: tuple
    # read-only arrays built once, so a draw is one multiply-add
    _mean: np.ndarray = field(init=False, repr=False, compare=False)
    _sd: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float)
        var = np.array(self.covariance_diagonal, dtype=float)
        if mean.ndim != 1 or mean.shape != var.shape:
            raise ValueError("mean and covariance diagonal must be 1-d vectors of equal length")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(var))):
            raise ValueError("Gaussian parameters must be finite")
        if np.any(var < 0):
            raise ValueError("covariance diagonal entries must be nonnegative")
        object.__setattr__(self, "mean", tuple(mean.tolist()))
        object.__setattr__(self, "covariance_diagonal", tuple(var.tolist()))
        sd = np.sqrt(var)
        mean.flags.writeable = False
        sd.flags.writeable = False
        object.__setattr__(self, "_mean", mean)
        object.__setattr__(self, "_sd", sd)

    def sample(self, rng, dim: int, steps: int) -> np.ndarray:
        if dim != len(self.mean):
            raise ValueError(
                f"disturbance dimension {len(self.mean)} does not match state dimension {dim}"
            )
        return self._mean + self._sd * rng.standard_normal((steps, dim))


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
    mask: tuple = None

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("beta shape parameters must be positive")
        if self.dims < 1:
            raise ValueError("dims must be at least 1")
        if self.mask is not None:
            mask = tuple(bool(v) for v in self.mask)
            if len(mask) != self.dims:
                raise ValueError("mask length must equal dims")
            object.__setattr__(self, "mask", mask)

    def sample(self, rng, dim: int, steps: int) -> np.ndarray:
        if dim != self.dims:
            raise ValueError(
                f"disturbance dimension {self.dims} does not match state dimension {dim}"
            )
        # each step draws dim gamma(alpha) variates, then dim gamma(beta) ones
        g = rng.gamma(np.tile(np.repeat([self.alpha, self.beta], dim), (steps, 1)))
        g1, g2 = g[:, :dim], g[:, dim:]
        draw = self.scale * g1 / (g1 + g2)
        if self.mask is not None:
            draw = draw * np.array(self.mask, dtype=float)
        return draw


def sample_gaussian(mean, covariance_diagonal, rng, size=None):
    """One ``GaussianDisturbance`` draw (dim,), or a (size, dim) matrix of them."""
    spec = GaussianDisturbance(mean, covariance_diagonal)
    draws = spec.sample(rng, len(spec.mean), 1 if size is None else int(size))
    return draws[0] if size is None else draws


def sample_scaled_beta(alpha, beta, scale, rng, size=None):
    """One scale * Beta(alpha, beta) draw, or a (size,) vector of them."""
    dims = 1 if size is None else int(size)
    draws = ScaledBetaDisturbance(alpha, beta, scale, dims).sample(rng, dims, 1)[0]
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
        w = np.asarray(self.weights, dtype=float)
        b = np.asarray(self.bias, dtype=float)
        if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.size:
            raise ValueError("layer weights must be (out, in) with a matching bias vector")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError("layer parameters must be finite")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(
                f"unknown activation {self.activation!r}; expected one of {sorted(_ACTIVATIONS)}"
            )
        w.flags.writeable = False
        b.flags.writeable = False
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
            raise ValueError("controller needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.weights.shape[1] != prev.weights.shape[0]:
                raise ValueError(
                    f"layer dimensions do not chain: {prev.weights.shape} then {nxt.weights.shape}"
                )
        object.__setattr__(self, "layers", layers)
        if self.saturation is not None:
            lo = np.asarray(self.saturation[0], dtype=float)
            hi = np.asarray(self.saturation[1], dtype=float)
            if lo.shape != hi.shape or lo.size != self.output_dim or np.any(lo > hi):
                raise ValueError("saturation box must give lo <= hi per output coordinate")
            lo.flags.writeable = False
            hi.flags.writeable = False
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

    def layer(weights: tuple, rows: int, cols: int, bias: tuple, activation: str):
        flat = np.asarray(weights, dtype=float)
        if flat.shape != (rows * cols,):
            raise ValueError(f"weights hold {flat.size} values, expected rows*cols {rows * cols}")
        return MlpLayer(flat.reshape(rows, cols), bias, activation)

    def layer_list(value, where):
        specs = enumerate(typed(value, tuple, path, where))
        return tuple(build(layer, spec, path, f"{where}[{i}]") for i, spec in specs)

    def box(lo: tuple, hi: tuple):
        return lo, hi

    def controller(input_dim: int, output_dim: int, layers: tuple, saturation: tuple = None):
        net = MlpController(layers, saturation)
        if (net.input_dim, net.output_dim) != (input_dim, output_dim):
            raise ValueError(
                "declared input_dim/output_dim do not match the layer shapes: "
                f"{input_dim}->{output_dim} vs {net.input_dim}->{net.output_dim}"
            )
        return net

    sections = {"layers": layer_list, "saturation": lambda v, w: build(box, v, path, w)}
    return build(controller, load_json(path), path, "", sections)


def save_mlp_controller(controller: MlpController, path) -> None:
    with atomic_write(path) as fh:
        json.dump(mlp_controller_to_dict(controller), fh)
        fh.write("\n")


# ---------------------------------------------------------------------------
# System configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CwhSystem:
    """In-plane spacecraft relative motion under an open-loop thrust sequence.

    The default orbital rate, spacecraft mass, and sampling period are
    standard low-Earth-orbit rendezvous values; all are overridable.
    ``input_sequence`` is an (N, 2) thrust schedule inside the admissible
    box; None selects the constant default thrust toward the target.
    """

    omega: float = 0.00113
    mass: float = 300.0
    dt: float = 20.0
    input_sequence: tuple = None

    def __post_init__(self):
        if not (self.omega > 0 and self.mass > 0 and self.dt > 0):
            raise ValueError("omega, mass, and dt must be positive")
        if self.input_sequence is not None:
            seq = np.asarray(self.input_sequence, dtype=float)
            if seq.ndim != 2 or seq.shape[1] != 2 or not np.all(np.isfinite(seq)):
                raise ValueError("input_sequence must be a finite (N, 2) array")
            seq.flags.writeable = False
            object.__setattr__(self, "input_sequence", seq)

    def resolved_inputs(self, horizon: int) -> np.ndarray:
        if self.input_sequence is None:
            return np.full((horizon, 2), DEFAULT_CWH_THRUST)
        if self.input_sequence.shape[0] < horizon:
            raise ValueError(
                f"input_sequence has {self.input_sequence.shape[0]} steps, horizon needs {horizon}"
            )
        return self.input_sequence[:horizon]


@dataclass(frozen=True)
class ToraSystem:
    """Rotational-actuator benchmark in closed loop with a scalar controller."""

    controller: object = SaturatedFeedback()
    control_period: float = 0.1
    integrator_substeps: int = 10

    def __post_init__(self):
        if self.control_period <= 0:
            raise ValueError("control_period must be positive")
        if self.integrator_substeps < 1:
            raise ValueError("integrator_substeps must be at least 1")
        net = self.controller
        if isinstance(net, MlpController) and (net.input_dim, net.output_dim) != (4, 1):
            raise ValueError(
                "TORA controller must map the 4-d state to a scalar control, got "
                f"{net.input_dim} inputs and {net.output_dim} outputs"
            )


@dataclass(frozen=True)
class ExternalSource:
    """Terminal states supplied in a CSV sample file instead of simulation."""

    path: str


@dataclass(frozen=True)
class PointInitial:
    x: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))

    def draw(self, rng) -> np.ndarray:
        return np.array(self.x)


@dataclass(frozen=True)
class BoxInitial:
    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        if len(lo) != len(hi) or any(a > b for a, b in zip(lo, hi)):
            raise ValueError("initial box needs lo <= hi per coordinate")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def draw(self, rng) -> np.ndarray:
        return rng.uniform(self.lo, self.hi)


@dataclass(frozen=True)
class SystemConfig:
    """A simulatable system: dynamics, horizon, disturbance, initial condition."""

    system: object
    horizon: int
    disturbance: object = NoDisturbance()
    initial: object = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.initial is None and not isinstance(self.system, ExternalSource):
            raise ValueError("simulatable systems need an initial condition")


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


def _check_cwh_controls(controls: np.ndarray) -> None:
    """Reject a thrust schedule (K, 2) with any entry outside the admissible box."""
    # NaN fails the comparison too, so non-finite thrust is rejected here
    outside = np.flatnonzero(~np.all(np.abs(controls) <= CWH_INPUT_LIMIT, axis=1))
    if outside.size:
        k = outside[0]
        raise ValueError(
            f"control {controls[k]} at step {k} lies outside the admissible box "
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
    return _matvec(a, np.asarray(state, dtype=float)) + b @ u + np.asarray(noise, dtype=float)


def _tora_field(x: np.ndarray, u) -> np.ndarray:
    # unchecked; x is one state (4,) or a state-major batch (4, M)
    return np.array([x[1], -x[0] + 0.1 * np.sin(x[2]), x[3], u])


def tora_derivative(state, u: float) -> np.ndarray:
    """TORA vector field (x2, -x1 + 0.1 sin x3, x4, u)."""
    x = np.asarray(state, dtype=float)
    if x.shape != (4,):
        raise ValueError("TORA state must be a 4-vector")
    if not (np.all(np.isfinite(x)) and np.isfinite(u)):
        raise ValueError("non-finite state or control")
    return _tora_field(x, float(u))


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


def _steps(config: SystemConfig, x0: np.ndarray, rngs):
    """Step M samples together; yield the (M, 4) batch after each control step.

    Row i of ``x0`` is the initial state of sample i, and ``rngs[i]`` is its
    Generator, drawn from in step order, ``_NOISE_STEPS`` steps per call.
    Every operation acts on each sample separately, so row i is bitwise
    equal to sample i stepped on its own: the batch never couples samples.
    """
    system = config.system
    horizon = config.horizon
    if x0.ndim != 2 or x0.shape[1] != 4:
        raise ValueError("state must be a 4-vector")
    if not np.all(np.isfinite(x0)):
        raise ValueError("initial state has non-finite entries")

    def noise():
        # the (M, 4) disturbance of each step; no draw runs past the horizon
        for start in range(0, horizon, _NOISE_STEPS):
            steps = min(_NOISE_STEPS, horizon - start)
            yield from np.stack([config.disturbance.sample(r, 4, steps) for r in rngs], axis=1)

    if isinstance(system, CwhSystem):
        a, b = cwh_discrete_matrices(system.omega, system.mass, system.dt)
        inputs = system.resolved_inputs(horizon)
        _check_cwh_controls(inputs)
        x = x0
        for u, w in zip(inputs, noise()):
            x = cwh_step(a, b, x, u, w)
            yield x
    elif isinstance(system, ToraSystem):
        h = system.control_period / system.integrator_substeps
        # state-major (4, M): each coordinate of the field is one array op
        x = x0.T
        for w in noise():
            # divergence is reported by rk4_step's finite check, not by warnings
            with np.errstate(over="ignore", invalid="ignore"):
                u = _tora_controls(system.controller, x)
                for _ in range(system.integrator_substeps):
                    x = rk4_step(_tora_field, x, u, h)
            x = x + w.T
            yield x.T
    else:
        raise ValueError("external sample sources cannot be simulated")


def simulate_trajectory(config: SystemConfig, x0, seed: int) -> np.ndarray:
    """Simulate one closed-loop trajectory; rows are states at steps 0..N.

    Deterministic in (config, x0, seed): the disturbance stream comes from
    ``numpy.random.default_rng(seed)``, consumed in step order.  The draw
    enters the CWH update additively inside the step; for TORA it is added
    to the state after the control period is integrated.  This is the batch
    simulator of ``sample_terminal_states`` on a batch of one.
    """
    x0 = np.asarray(x0, dtype=float)
    steps = _steps(config, x0[None], [np.random.default_rng(seed)])
    return np.array([x0, *(x[0] for x in steps)])


def sample_terminal_states(config: SystemConfig, count: int, master_seed: int) -> SampleSet:
    """Draw ``count`` i.i.d. terminal states at the configured horizon.

    Sample i runs on its own stream seeded with ``child_seed(master_seed,
    i)``; the initial condition (when random) is drawn from that same stream
    before the trajectory, so results do not depend on evaluation order.
    The samples are stepped together, in blocks of up to 4096, and each
    terminal state is bitwise equal to simulating that sample on its own.
    For an external source the first ``count`` file rows are returned.
    """
    if count < 1:
        raise ValueError("sample count must be at least 1")
    system = config.system
    if isinstance(system, ExternalSource):
        samples = load_sample_csv(system.path)
        if samples.size < count:
            raise ValueError(
                f"sample file {system.path} holds {samples.size} rows, need {count}"
            )
        return SampleSet(samples.points[:count], provenance=f"external:{system.path}")

    blocks = []
    for start in range(0, count, _SAMPLE_BLOCK):
        stop = min(count, start + _SAMPLE_BLOCK)
        rngs = [np.random.default_rng(child_seed(master_seed, i)) for i in range(start, stop)]
        x = np.array([config.initial.draw(rng) for rng in rngs], dtype=float)
        for x in _steps(config, x, rngs):
            pass  # keep only the state after the last step
        blocks.append(x)
    name = type(system).__name__
    return SampleSet(
        np.concatenate(blocks),
        provenance=f"{name} N={config.horizon} M={count} seed={master_seed}",
    )


# ---------------------------------------------------------------------------
# Sample CSV files
# ---------------------------------------------------------------------------


def save_sample_csv(samples: SampleSet, path) -> None:
    """Write terminal states as CSV with header x1..xn and round-trip decimals."""
    with atomic_write(path, newline="") as fh:
        fh.write(",".join(f"x{j + 1}" for j in range(samples.dim)) + "\n")
        for row in samples.points:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_sample_csv(path) -> SampleSet:
    """Read a terminal-state CSV; malformed rows are reported by line number."""
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
        try:
            data[line - 2] = [float(tok) for tok in row]
        except ValueError as exc:
            raise ValueError(f"sample file {path} line {line}: {exc}") from exc
    if data.shape[0] < 1:
        raise ValueError(f"sample file {path} has no data rows")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"sample file {path} contains non-finite values")
    return SampleSet(data, provenance=f"csv:{path}")
