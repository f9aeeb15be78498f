import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import expit

from kernelreach import (
    BoxInitial,
    CwhSystem,
    GaussianDisturbance,
    KernelSpec,
    MlpController,
    MlpLayer,
    NoDisturbance,
    PointInitial,
    SampleSet,
    SaturatedFeedback,
    ScaledBetaDisturbance,
    SupportModel,
    SystemConfig,
    ToraSystem,
    child_seed,
    convergence_sweep,
    cwh_discrete_matrices,
    cwh_step,
    load_mlp_controller,
    load_sample_csv,
    mlp_forward,
    rk4_step,
    sample_gaussian,
    sample_scaled_beta,
    sample_terminal_states,
    save_mlp_controller,
    save_sample_csv,
    simulate_trajectory,
    tora_derivative,
)
from kernelreach.schema import ConfigError, FieldError
from kernelreach.systems import _steps, _stream_generators, _tora_integrator

CWH_DEFAULTS = dict(omega=0.00113, mass=300.0, dt=20.0)


def _cwh_continuous(omega, mass):
    ac = np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [3.0 * omega**2, 0.0, 0.0, 2.0 * omega],
            [0.0, 0.0, -2.0 * omega, 0.0],
        ]
    )
    bc = np.array([[0.0, 0.0], [0.0, 0.0], [1.0 / mass, 0.0], [0.0, 1.0 / mass]])
    return ac, bc


# ---------------------------------------------------------------------------
# Controllers
# ---------------------------------------------------------------------------


def test_mlp_identity_linear_layer():
    net = MlpController((MlpLayer(np.eye(3), np.zeros(3), "linear"),))
    x = np.array([0.5, -1.0, 2.0])
    assert np.array_equal(mlp_forward(net, x), x)


def test_mlp_relu_zeroes_negative_input():
    net = MlpController((MlpLayer(np.eye(2), np.zeros(2), "relu"),))
    assert np.array_equal(mlp_forward(net, [-1.0, -3.0]), [0.0, 0.0])


def test_mlp_two_layer_manual_oracle():
    # hand forward pass: tanh layer then linear readout
    w1 = np.array([[0.5, -0.25], [0.75, 0.1]])
    b1 = np.array([0.1, -0.2])
    w2 = np.array([[1.0, 2.0]])
    b2 = np.array([0.05])
    net = MlpController((MlpLayer(w1, b1, "tanh"), MlpLayer(w2, b2, "linear")))

    x = (0.4, -0.8)
    h0 = math.tanh(0.5 * x[0] + -0.25 * x[1] + 0.1)
    h1 = math.tanh(0.75 * x[0] + 0.1 * x[1] + -0.2)
    expected = 1.0 * h0 + 2.0 * h1 + 0.05
    assert mlp_forward(net, x)[0] == pytest.approx(expected, abs=1e-14)


def test_mlp_saturation_clamps_output():
    net = MlpController(
        (MlpLayer(np.array([[10.0]]), np.zeros(1), "linear"),),
        saturation=([-1.0], [1.0]),
    )
    assert mlp_forward(net, [5.0])[0] == 1.0
    assert mlp_forward(net, [-5.0])[0] == -1.0


def test_mlp_rejects_bad_shapes_and_inputs():
    with pytest.raises(ValueError):
        MlpController(
            (
                MlpLayer(np.eye(2), np.zeros(2), "tanh"),
                MlpLayer(np.ones((1, 3)), np.zeros(1), "linear"),
            )
        )
    with pytest.raises(ValueError):
        MlpLayer(np.eye(2), np.zeros(2), "softplus")
    net = MlpController((MlpLayer(np.eye(2), np.zeros(2), "linear"),))
    with pytest.raises(ValueError):
        mlp_forward(net, [1.0])
    with pytest.raises(ValueError):
        mlp_forward(net, [np.nan, 0.0])


def test_mlp_reports_nonfinite_layer():
    big = MlpController(
        (
            MlpLayer(np.array([[1e308]]), np.zeros(1), "linear"),
            MlpLayer(np.array([[1e308]]), np.zeros(1), "linear"),
        )
    )
    with pytest.raises(ValueError, match="layer 1"):
        mlp_forward(big, [1.0])


def test_mlp_loader_reports_malformed_file(tmp_path):
    import json
    import re

    path = tmp_path / "weights.json"
    path.write_text(json.dumps({"input_dim": 2}))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: missing field output_dim"):
        load_mlp_controller(path)
    path.write_text(json.dumps({
        "input_dim": 3, "output_dim": 1,
        "layers": [{"weights": [1.0, 1.0], "rows": 1, "cols": 2,
                    "bias": [0.0], "activation": "linear"}],
    }))
    with pytest.raises(ValueError, match="declared"):
        load_mlp_controller(path)


def test_mlp_json_round_trip(tmp_path):
    net = MlpController(
        (
            MlpLayer(np.array([[0.5, -0.25], [0.75, 0.1]]), np.array([0.1, -0.2]), "tanh"),
            MlpLayer(np.array([[1.0, 2.0]]), np.array([0.05]), "linear"),
        ),
        saturation=([-1.0], [1.0]),
    )
    path = tmp_path / "weights.json"
    save_mlp_controller(net, path)
    loaded = load_mlp_controller(path)
    assert loaded.input_dim == 2 and loaded.output_dim == 1
    for a, b in zip(loaded.layers, net.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)
        assert a.activation == b.activation
    x = np.array([0.3, 0.9])
    assert mlp_forward(loaded, x) == pytest.approx(mlp_forward(net, x), abs=0)


# ---------------------------------------------------------------------------
# CWH dynamics
# ---------------------------------------------------------------------------


def test_cwh_matrices_at_zero_dt():
    a, b = cwh_discrete_matrices(0.00113, 300.0, 0.0)
    assert np.array_equal(a, np.eye(4))
    assert np.array_equal(b, np.zeros((4, 2)))


def test_cwh_matrices_match_matrix_exponential():
    # independent oracle: exponential of the augmented continuous-time system
    omega, mass, dt = 0.00113, 300.0, 20.0
    ac, bc = _cwh_continuous(omega, mass)
    aug = np.zeros((6, 6))
    aug[:4, :4] = ac
    aug[:4, 4:] = bc
    big = expm(aug * dt)
    a, b = cwh_discrete_matrices(omega, mass, dt)
    assert np.allclose(a, big[:4, :4], atol=1e-10)
    assert np.allclose(b, big[:4, 4:], atol=1e-10)


def test_cwh_semigroup_property():
    a1, _ = cwh_discrete_matrices(0.00113, 300.0, 20.0)
    a2, _ = cwh_discrete_matrices(0.00113, 300.0, 40.0)
    assert np.allclose(a2, a1 @ a1, atol=1e-10)


def test_cwh_small_dt_first_order():
    omega, mass = 0.00113, 300.0
    ac, _ = _cwh_continuous(omega, mass)
    errs = []
    for dt in (1.0, 0.5):
        a, _ = cwh_discrete_matrices(omega, mass, dt)
        errs.append(np.max(np.abs(a - np.eye(4) - dt * ac)))
    # O(dt^2) residual: halving dt divides the error by about 4
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)


def test_cwh_matrices_reject_bad_parameters():
    with pytest.raises(ValueError):
        cwh_discrete_matrices(0.0, 300.0, 20.0)
    with pytest.raises(ValueError):
        cwh_discrete_matrices(0.00113, -1.0, 20.0)


def test_cwh_step_equilibrium_and_drift():
    a, b = cwh_discrete_matrices(**CWH_DEFAULTS)
    zero = np.zeros(4)
    assert np.array_equal(cwh_step(a, b, zero, np.zeros(2), zero), zero)
    state = np.array([1.0, -2.0, 0.01, 0.02])
    assert np.array_equal(cwh_step(a, b, state, np.zeros(2), zero), a @ state)


def test_cwh_step_matches_manual_arithmetic():
    a, b = cwh_discrete_matrices(**CWH_DEFAULTS)
    rng = np.random.default_rng(17)
    state = rng.normal(size=4)
    u = rng.uniform(-0.1, 0.1, size=2)
    w = rng.normal(scale=1e-3, size=4)
    expected = np.array(
        [
            sum(a[i, j] * state[j] for j in range(4))
            + sum(b[i, j] * u[j] for j in range(2))
            + w[i]
            for i in range(4)
        ]
    )
    assert cwh_step(a, b, state, u, w) == pytest.approx(expected, abs=1e-12)


def test_cwh_step_rejects_input_outside_box():
    a, b = cwh_discrete_matrices(**CWH_DEFAULTS)
    with pytest.raises(ValueError):
        cwh_step(a, b, np.zeros(4), np.array([0.2, 0.0]), np.zeros(4))
    # the admissible box is closed: its corners are accepted
    cwh_step(a, b, np.zeros(4), np.array([0.1, -0.1]), np.zeros(4))


# ---------------------------------------------------------------------------
# TORA dynamics and integration
# ---------------------------------------------------------------------------


def test_tora_derivative_values():
    assert np.array_equal(tora_derivative(np.zeros(4), 0.0), np.zeros(4))
    d = tora_derivative(np.array([0.0, 0.0, np.pi / 2, 0.0]), 0.0)
    assert d == pytest.approx([0.0, 0.1, 0.0, 0.0], abs=1e-15)
    d = tora_derivative(np.array([1.0, 2.0, 3.0, 4.0]), 5.0)
    assert d == pytest.approx([2.0, -1.0 + 0.1 * math.sin(3.0), 4.0, 5.0], abs=1e-15)
    with pytest.raises(ValueError):
        tora_derivative(np.array([np.nan, 0.0, 0.0, 0.0]), 0.0)


def test_rk4_zero_field_keeps_state():
    state = np.array([1.0, -2.0])
    out = rk4_step(lambda x, u: np.zeros_like(x), state, 0.0, 0.1)
    assert np.array_equal(out, state)


def test_rk4_linear_field_polynomial():
    # one step of xdot = x from 1: 1 + h + h^2/2 + h^3/6 + h^4/24
    h = 0.1
    out = rk4_step(lambda x, u: x, np.array([1.0]), 0.0, h)
    expected = 1.0 + h + h**2 / 2 + h**3 / 6 + h**4 / 24
    assert out[0] == pytest.approx(expected, abs=1e-15)


def test_rk4_fourth_order_convergence():
    def integrate(h):
        x = np.array([1.0])
        for _ in range(round(1.0 / h)):
            x = rk4_step(lambda s, u: -s, x, 0.0, h)
        return abs(x[0] - math.exp(-1.0))

    ratio = integrate(0.1) / integrate(0.05)
    assert 12.0 <= ratio <= 20.0


def test_rk4_rejects_nonpositive_step_and_divergence():
    with pytest.raises(ValueError):
        rk4_step(lambda x, u: x, np.array([1.0]), 0.0, 0.0)
    with np.errstate(over="ignore"), pytest.raises(ValueError):
        rk4_step(lambda x, u: x * 1e308, np.array([1e308]), 0.0, 1.0)


# ---------------------------------------------------------------------------
# Trajectory simulation
# ---------------------------------------------------------------------------


def _cwh_config(horizon=5, disturbance=NoDisturbance(), inputs=None):
    return SystemConfig(
        system=CwhSystem(input_sequence=inputs),
        horizon=horizon,
        disturbance=disturbance,
        initial=PointInitial((-0.75, -0.75, 0.0, 0.0)),
    )


def _tora_config(horizon=10, disturbance=NoDisturbance(), controller=SaturatedFeedback()):
    return SystemConfig(
        system=ToraSystem(controller=controller),
        horizon=horizon,
        disturbance=disturbance,
        initial=BoxInitial((0.6, -0.7, -0.4, 0.5), (0.7, -0.6, -0.3, 0.6)),
    )


def test_cwh_origin_stays_at_origin():
    config = SystemConfig(
        system=CwhSystem(input_sequence=np.zeros((8, 2))),
        horizon=8,
        initial=PointInitial((0.0, 0.0, 0.0, 0.0)),
    )
    trajectory = simulate_trajectory(config, np.zeros(4), seed=0)
    assert np.array_equal(trajectory, np.zeros((9, 4)))


def test_trajectory_deterministic():
    config = _cwh_config(disturbance=GaussianDisturbance((0.0,) * 4, (1e-4, 1e-4, 5e-8, 5e-8)))
    x0 = np.array([-0.75, -0.75, 0.0, 0.0])
    first = simulate_trajectory(config, x0, seed=99)
    second = simulate_trajectory(config, x0, seed=99)
    assert np.array_equal(first, second)
    assert not np.array_equal(first, simulate_trajectory(config, x0, seed=100))


def test_cwh_input_sequence_too_short():
    with pytest.raises(ValueError):
        _cwh_config(horizon=5, inputs=np.zeros((3, 2)))


def test_tora_single_step_matches_hand_sequenced_oracle():
    # recompute the N=1 noiseless step by explicitly chaining the substeps
    config = _tora_config(horizon=1)
    x0 = np.array([0.65, -0.65, -0.35, 0.55])
    trajectory = simulate_trajectory(config, x0, seed=1)

    u = min(max(-x0[2] - x0[3], -1.0), 1.0)
    state = x0.copy()
    for _ in range(10):
        state = rk4_step(tora_derivative, state, u, 0.1 / 10)
    assert np.array_equal(trajectory[1], state)
    assert np.array_equal(trajectory[0], x0)


def test_tora_mlp_matches_builtin_feedback():
    # a linear network with weights (0, 0, -1, -1) reproduces the built-in policy
    net = MlpController(
        (MlpLayer(np.array([[0.0, 0.0, -1.0, -1.0]]), np.zeros(1), "linear"),),
        saturation=([-1.0], [1.0]),
    )
    x0 = np.array([0.62, -0.68, -0.33, 0.57])
    base = simulate_trajectory(_tora_config(horizon=20), x0, seed=3)
    via_net = simulate_trajectory(_tora_config(horizon=20, controller=net), x0, seed=3)
    assert np.allclose(base, via_net, atol=1e-14)


def test_tora_checks_the_controller_width():
    # a network that does not map the 4-d state to one control fails when the system is built
    for weights in (np.ones((1, 1)), np.ones((2, 4))):
        net = MlpController((MlpLayer(weights, np.zeros(weights.shape[0]), "linear"),))
        with pytest.raises(ValueError, match="4-d state to a scalar control"):
            ToraSystem(controller=net)


def test_tora_saturation_bound_is_nonnegative():
    with pytest.raises(FieldError, match="^saturation must be nonnegative, got -1.0"):
        SaturatedFeedback(saturation=-1.0)
    # a zero bound is valid: every control is 0, so x4, whose derivative is the control, stays put
    x0 = np.array([0.65, -0.65, -0.35, 0.55])
    config = _tora_config(horizon=3, controller=SaturatedFeedback(saturation=0.0))
    assert np.all(simulate_trajectory(config, x0, seed=0)[:, 3] == x0[3])


def test_tora_builtin_feedback_envelope():
    # noiseless closed loop from the benchmark initial box stays in [-2.5, 2.5]
    config = _tora_config(horizon=200)
    corners = np.array(
        [
            [a, b, c, d]
            for a in (0.6, 0.7)
            for b in (-0.7, -0.6)
            for c in (-0.4, -0.3)
            for d in (0.5, 0.6)
        ]
    )
    rng = np.random.default_rng(4)
    extra = rng.uniform((0.6, -0.7, -0.4, 0.5), (0.7, -0.6, -0.3, 0.6), size=(4, 4))
    for x0 in np.vstack([corners, extra]):
        trajectory = simulate_trajectory(config, x0, seed=0)
        assert np.abs(trajectory).max() <= 2.5


def test_simulate_rejects_external_source():
    # only CWH and TORA simulate; any other system object, such as a path to
    # samples produced elsewhere, is rejected by name
    with pytest.raises(ValueError, match="cannot simulate a str"):
        SystemConfig(system="samples.csv", horizon=1, initial=PointInitial((0.0,) * 4))


# ---------------------------------------------------------------------------
# Terminal-state sampling
# ---------------------------------------------------------------------------


def test_sample_terminal_states_deterministic():
    config = _cwh_config(disturbance=GaussianDisturbance((0.0,) * 4, (1e-4, 1e-4, 5e-8, 5e-8)))
    a = sample_terminal_states(config, 20, master_seed=7)
    b = sample_terminal_states(config, 20, master_seed=7)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, sample_terminal_states(config, 20, master_seed=8).points)


def test_sample_without_randomness_repeats_rows():
    samples = sample_terminal_states(_cwh_config(), 5, master_seed=0)
    assert samples.size == 5
    assert np.array_equal(samples.points, np.tile(samples.points[0], (5, 1)))


def test_point_initial_streams_match_child_seeds():
    # with a deterministic initial condition, sample i equals a trajectory
    # run directly on the child seed
    config = _cwh_config(disturbance=GaussianDisturbance((0.0,) * 4, (1e-4, 1e-4, 5e-8, 5e-8)))
    samples = sample_terminal_states(config, 4, master_seed=31)
    x0 = np.array([-0.75, -0.75, 0.0, 0.0])
    for i in range(4):
        direct = simulate_trajectory(config, x0, seed=child_seed(31, i))
        assert np.array_equal(samples.points[i], direct[-1])


def test_single_deterministic_sample_is_terminal_state():
    config = _cwh_config()
    samples = sample_terminal_states(config, 1, master_seed=5)
    trajectory = simulate_trajectory(config, np.array([-0.75, -0.75, 0.0, 0.0]), seed=child_seed(5, 0))
    assert np.array_equal(samples.points[0], trajectory[-1])


def test_child_seed_fixed_mixer():
    assert child_seed(0, 0) == child_seed(0, 0)
    seen = {child_seed(123, i) for i in range(100)}
    assert len(seen) == 100
    assert child_seed(123, 0) != child_seed(124, 0)


@pytest.mark.parametrize("master_seed", [0, 1, 2106, 2**32 - 1, 2**32, 2**64 + 7, 2**128 + 1])
def test_stream_generators_match_child_seed_streams(master_seed):
    # masters of one to five 32-bit words; indices on both sides of a block boundary
    for start, stop in ((0, 100), (4094, 4098)):
        streams = _stream_generators(master_seed, start, stop)
        assert len(streams) == stop - start
        for i, rng in zip(range(start, stop), streams):
            reference = np.random.default_rng(child_seed(master_seed, i))
            assert rng.bit_generator.state == reference.bit_generator.state
            assert np.array_equal(rng.standard_normal(3), reference.standard_normal(3))
            assert np.array_equal(rng.gamma(0.5, size=2), reference.gamma(0.5, size=2))


def test_sample_count_validation():
    with pytest.raises(ValueError):
        sample_terminal_states(_cwh_config(), 0, master_seed=0)


# seed argument -> a library call that passes -1 to it
_NEGATIVE_SEED_CALLS = {
    "master_seed": lambda config: sample_terminal_states(config, 2, -1),
    "seed": lambda config: simulate_trajectory(config, np.zeros(4), -1),
    "seeds": lambda config: convergence_sweep(config, [3], [-1], fresh_size=5),
}


@pytest.mark.parametrize("argument", list(_NEGATIVE_SEED_CALLS))
def test_negative_seed_error_names_its_argument(argument):
    # numpy's own error ("expected non-negative integer") names no argument
    with pytest.raises(ValueError, match=f"^{argument} must be nonnegative, got "):
        _NEGATIVE_SEED_CALLS[argument](_tora_config())


# ---------------------------------------------------------------------------
# Batched simulation against the scalar reference
# ---------------------------------------------------------------------------


def _reference_draw(spec, rng):
    """One step of disturbance from raw Generator calls, in the per-step formulas."""
    if isinstance(spec, GaussianDisturbance):
        mean, var = np.asarray(spec.mean), np.asarray(spec.covariance_diagonal)
        return mean + np.sqrt(var) * rng.standard_normal(mean.size)
    if isinstance(spec, ScaledBetaDisturbance):
        g1 = rng.gamma(spec.alpha, size=spec.dims)
        g2 = rng.gamma(spec.beta, size=spec.dims)
        draw = spec.scale * g1 / (g1 + g2)
        return draw if spec.mask is None else draw * np.asarray(spec.mask, dtype=float)
    assert isinstance(spec, NoDisturbance)
    return np.zeros(4)


def _reference_terminal_states(config, count, master_seed):
    """The per-sample loop the batched simulator replaced, one 4-vector at a time."""
    system = config.system
    points = []
    for i in range(count):
        rng = np.random.default_rng(child_seed(master_seed, i))
        x = np.asarray(config.initial.draw(rng), dtype=float)

        def disturbance():
            return _reference_draw(config.disturbance, rng)

        if isinstance(system, CwhSystem):
            a, b = cwh_discrete_matrices(system.omega, system.mass, system.dt)
            for u in system.resolved_inputs(config.horizon):
                x = a @ x + b @ u + disturbance()
        else:
            ctrl = system.controller
            h = system.control_period / system.integrator_substeps
            for _ in range(config.horizon):
                if isinstance(ctrl, MlpController):
                    v = x
                    for layer in ctrl.layers:
                        v = _REFERENCE_ACTIVATIONS[layer.activation](layer.weights @ v + layer.bias)
                    u = float(np.clip(v, *ctrl.saturation)[0])
                else:
                    u = min(max(-ctrl.k1 * x[2] - ctrl.k2 * x[3], -ctrl.saturation), ctrl.saturation)
                for _ in range(system.integrator_substeps):
                    x = rk4_step(tora_derivative, x, u, h)
                x = x + disturbance()
        points.append(x)
    return np.array(points)


_REFERENCE_ACTIVATIONS = {
    "tanh": np.tanh,
    "relu": lambda v: np.maximum(v, 0.0),
    "sigmoid": expit,
    "linear": lambda v: v,
}


def _random_mlp(seed):
    rng = np.random.default_rng(seed)
    shapes = ((20, 4, "tanh"), (20, 20, "relu"), (20, 20, "sigmoid"), (1, 20, "linear"))
    layers = tuple(
        MlpLayer(rng.normal(scale=0.5, size=(rows, cols)), rng.normal(scale=0.1, size=rows), act)
        for rows, cols, act in shapes
    )
    return MlpController(layers, saturation=([-0.5], [0.5]))


_BETA = ScaledBetaDisturbance(alpha=2.0, beta=0.5, scale=0.01, dims=4, mask=(1, 0, 1, 1))
_GAUSS = GaussianDisturbance((0.0, 1e-3, 0.0, -1e-5), (1e-4, 1e-4, 5e-8, 5e-8))
_ORACLE_CONFIGS = {
    "tora-feedback-beta": _tora_config(horizon=25, disturbance=_BETA),
    "tora-mlp": _tora_config(horizon=25, disturbance=_BETA, controller=_random_mlp(8)),
    "cwh-gaussian-inputs": _cwh_config(
        horizon=8,
        disturbance=_GAUSS,
        inputs=np.random.default_rng(12).uniform(-0.1, 0.1, size=(8, 2)),
    ),
    # long horizons; 260 steps cross a 256-step draw chunk
    "tora-feedback-beta-130": _tora_config(horizon=130, disturbance=_BETA),
    "cwh-gaussian-260-inputs": _cwh_config(
        horizon=260,
        disturbance=_GAUSS,
        inputs=np.random.default_rng(14).uniform(-0.1, 0.1, size=(260, 2)),
    ),
    "cwh-gaussian-70-inputs": _cwh_config(
        horizon=70,
        disturbance=_GAUSS,
        inputs=np.random.default_rng(13).uniform(-0.1, 0.1, size=(70, 2)),
    ),
}


@pytest.mark.parametrize("count", [1, 3, 50])
@pytest.mark.parametrize("name", sorted(_ORACLE_CONFIGS))
def test_batched_sampler_matches_scalar_reference_bitwise(name, count):
    config = _ORACLE_CONFIGS[name]
    batched = sample_terminal_states(config, count, master_seed=404).points
    assert np.array_equal(batched, _reference_terminal_states(config, count, 404))


@pytest.mark.parametrize(
    "config",
    [_tora_config(horizon=20, disturbance=_BETA), _ORACLE_CONFIGS["cwh-gaussian-inputs"]],
    ids=["tora-box", "cwh"],
)
@pytest.mark.parametrize("k", [1, 7])
def test_batch_size_never_couples_samples(config, k):
    full = sample_terminal_states(config, 50, master_seed=11).points
    assert np.array_equal(full[:k], sample_terminal_states(config, k, master_seed=11).points)


@pytest.mark.parametrize(
    "config",
    [_tora_config(horizon=3, disturbance=_BETA), _ORACLE_CONFIGS["cwh-gaussian-inputs"]],
    ids=["tora", "cwh"],
)
def test_a_draw_is_the_prefix_of_a_larger_one_across_blocks(config):
    # what lets a sweep simulate its largest M once per seed
    full = sample_terminal_states(config, 4100, master_seed=2**64 + 7).points
    for k in (1, 4095, 4096, 4097):
        assert np.array_equal(full[:k], sample_terminal_states(config, k, 2**64 + 7).points), k


@pytest.mark.parametrize("master_seed", [31, 2**64 + 7])
def test_samples_across_blocks_match_their_own_streams(master_seed):
    # more samples than one block holds: the last rows still run on their own streams
    config = _ORACLE_CONFIGS["cwh-gaussian-inputs"]
    count = 4100
    points = sample_terminal_states(config, count, master_seed=master_seed).points
    assert points.shape == (count, 4)
    x0 = np.array([-0.75, -0.75, 0.0, 0.0])
    for i in (0, 4095, 4096, count - 1):
        direct = simulate_trajectory(config, x0, seed=child_seed(master_seed, i))
        assert np.array_equal(points[i], direct[-1])


def test_mlp_forward_batch_rows_equal_single_states():
    rng = np.random.default_rng(21)
    for rows, cols in ((4, 4), (20, 4), (20, 20), (1, 20), (64, 64)):
        net = MlpController((MlpLayer(rng.normal(size=(rows, cols)), rng.normal(size=rows), "tanh"),))
        batch = rng.normal(size=(50, cols))
        out = mlp_forward(net, batch)
        assert out.shape == (50, rows)
        assert np.array_equal(out, np.array([mlp_forward(net, v) for v in batch]))
        assert np.array_equal(out[0], np.tanh(net.layers[0].weights @ batch[0] + net.layers[0].bias))
        # a transposed (non-contiguous) batch gives the same rows
        assert np.array_equal(mlp_forward(net, np.asfortranarray(batch)), out)


def test_cwh_step_batch_rows_equal_single_states():
    a, b = cwh_discrete_matrices(**CWH_DEFAULTS)
    rng = np.random.default_rng(22)
    states = rng.normal(size=(30, 4))
    noise = rng.normal(scale=1e-3, size=(30, 4))
    u = np.array([0.05, -0.1])
    out = cwh_step(a, b, states, u, noise)
    assert np.array_equal(out, np.array([a @ x + b @ u + w for x, w in zip(states, noise)]))


# Sample 4 of 8 is the only one that overflows for these seeds: a huge initial
# x2 in the RK4 stage sum, and a 1e308 weight in the network's second layer.
_DIVERGING = {
    "huge-box-corner": (
        SystemConfig(
            system=ToraSystem(),
            horizon=1,
            initial=BoxInitial((0.6, -0.7, -0.4, 0.5), (0.7, 3.3e307, -0.3, 0.6)),
        ),
        8,
    ),
    "1e308-weight-mlp": (
        SystemConfig(
            system=ToraSystem(
                controller=MlpController(
                    (
                        MlpLayer(np.array([[1e308, 0.0, 0.0, 0.0]]), np.zeros(1), "linear"),
                        MlpLayer(np.array([[10.0]]), np.zeros(1), "linear"),
                    ),
                    saturation=([-1.0], [1.0]),
                )
            ),
            horizon=1,
            initial=BoxInitial((0.0, -0.7, -0.4, 0.5), (0.2, -0.6, -0.3, 0.6)),
        ),
        3,
    ),
}


@pytest.mark.parametrize("name", sorted(_DIVERGING))
def test_one_diverging_sample_fails_the_batch(name):
    config, seed = _DIVERGING[name]
    diverges = []
    for i in range(8):
        x0 = config.initial.draw(np.random.default_rng(child_seed(seed, i)))
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                simulate_trajectory(config, x0, seed=0)
                diverges.append(False)
            except ValueError:
                diverges.append(True)
    assert diverges == [False] * 4 + [True] + [False] * 3
    assert np.all(np.isfinite(sample_terminal_states(config, 4, master_seed=seed).points))
    with pytest.raises(ValueError, match="non-finite"):
        sample_terminal_states(config, 8, master_seed=seed)


def _period_batch(m, rng):
    """(4, M) states, as _steps holds them, and held controls with signed zeros,
    magnitudes near 1e300 and both saturation bounds."""
    states = rng.normal(scale=[1.0, 1.0, 3.0, 2.0], size=(m, 4))
    kind = np.arange(m) % 4
    states[kind == 1] = rng.choice([0.0, -0.0], size=(np.sum(kind == 1), 4))
    states[kind == 2] *= 1e300
    states[kind == 3, ::2] = -0.0
    u = rng.choice([1.0, -1.0, 0.0, -0.0, 0.37], size=m)
    return states.T, u


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _rk4_columns(x, u, h, substeps):
    # the reference: rk4_step on each column alone, once per substep
    out = np.empty(x.shape)
    for j in range(x.shape[1]):
        col = x[:, j]
        for _ in range(substeps):
            col = rk4_step(tora_derivative, col, u[j], h)
        out[:, j] = col
    return out


@pytest.mark.parametrize("substeps", [1, 2, 10, 11])
@pytest.mark.parametrize("m", [1, 2, 3, 7, 8, 9, 64, 65])
def test_tora_period_is_rk4_step_per_substep_bitwise(m, substeps):
    x, u = _period_batch(m, np.random.default_rng([m, substeps]))
    h = 0.1 / substeps
    assert _same_bits(_tora_integrator(m, h, substeps)(x, u), _rk4_columns(x, u, h, substeps))


@pytest.mark.parametrize("substeps", [1, 2, 10, 11])
def test_tora_period_keeps_the_sign_of_every_zero(substeps):
    # all 16 sign patterns of the zero state, each under u = +0 and u = -0
    bits = (np.arange(32)[:, None] >> np.arange(5)) & 1
    x = np.where(bits[:, :4], -0.0, 0.0).T
    u = np.where(bits[:, 4], -0.0, 0.0)
    h = 0.1 / substeps
    period = _tora_integrator(x.shape[1], h, substeps)
    assert _same_bits(period(x, u), _rk4_columns(x, u, h, substeps))


@pytest.mark.parametrize("substeps", [1, 10, 11])
@pytest.mark.parametrize("m", [1, 3, 9, 65])
def test_one_integrator_is_rk4_step_over_consecutive_periods(m, substeps):
    # a built integrator reuses its buffers: no period may see the last one's
    # values, and no result may alias a buffer the next period overwrites
    h = 0.1 / substeps
    period = _tora_integrator(m, h, substeps)
    rng = np.random.default_rng([m, substeps, 3])
    results = []
    for _ in range(4):
        x, u = _period_batch(m, rng)
        results.append((period(x, u), _rk4_columns(x, u, h, substeps)))
        assert _same_bits(*results[-1])
    assert all(_same_bits(got, want) for got, want in results)


def test_a_period_allocates_only_its_result():
    m = 4096
    x, u = _period_batch(m, np.random.default_rng(4096))
    period = _tora_integrator(m, 0.01, 10)
    period(x, u)
    tracemalloc.start()
    try:
        result = period(x, u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.shape == (4, m)
    assert peak <= 2 * result.nbytes


def test_overflow_inside_a_period_fails_at_the_reference_step():
    # (x1, x2) turns at unit rate on radius 3.5e307, so RK4's stage sum of
    # x2's slope, about 6 x1, overflows once x1 passes 3e307: mid-period
    config = _tora_config(horizon=10)
    system, ctrl = config.system, config.system.controller
    h = system.control_period / system.integrator_substeps
    x0 = np.array([3.5e307 * math.sqrt(0.5), 3.5e307 * math.sqrt(0.5), 0.3, -0.2])
    x, states, failed = x0, [], None
    for step in range(config.horizon):
        u = min(max(-ctrl.k1 * x[2] - ctrl.k2 * x[3], -ctrl.saturation), ctrl.saturation)
        for sub in range(system.integrator_substeps):
            try:
                with np.errstate(over="ignore"):
                    x = rk4_step(tora_derivative, x, u, h)
            except ValueError as exc:
                assert str(exc) == "integration produced a non-finite state"
                failed = (step, sub)
                break
        if failed:
            break
        x = x + np.zeros(4)
        states.append(x)
    assert failed == (2, 4)
    batched = []
    with pytest.raises(ValueError, match="^integration produced a non-finite state$"):
        for state in _steps(config, x0[None], [np.random.default_rng(0)]):
            batched.append(state[0].copy())
    assert len(batched) == failed[0]
    assert _same_bits(np.array(batched), np.array(states))


class _CountingDisturbance:
    def __init__(self):
        self.draws = 0
        self.steps = 0

    def sample(self, rng, steps):
        self.draws += 1
        self.steps += steps
        return np.zeros((steps, 4))


@pytest.mark.parametrize("bad", [(0.0, 0.2), (-0.11, 0.0)])
def test_cwh_inputs_outside_box_rejected_before_any_step(bad):
    inputs = np.zeros((6, 2))
    inputs[4] = bad
    counter = _CountingDisturbance()
    with pytest.raises(ValueError, match="step 4 lies outside the admissible box"):
        _cwh_config(horizon=6, disturbance=counter, inputs=inputs)
    assert counter.draws == 0
    # entries beyond the horizon are never used, so they are not checked
    assert sample_terminal_states(_cwh_config(horizon=4, inputs=inputs), 2, master_seed=0).size == 2


@pytest.mark.parametrize("config", [_cwh_config, _tora_config], ids=["cwh", "tora"])
@pytest.mark.parametrize("horizon", [1, 63, 64, 65, 130, 256, 257])
def test_each_sample_draws_a_chunk_of_steps_per_call(config, horizon):
    counter = _CountingDisturbance()
    sample_terminal_states(config(horizon=horizon, disturbance=counter), 3, master_seed=0)
    assert counter.draws == 3 * math.ceil(horizon / 256)
    assert counter.steps == 3 * horizon


# ---------------------------------------------------------------------------
# Disturbance samplers
# ---------------------------------------------------------------------------


def test_gaussian_zero_variance_is_exact_mean():
    rng = np.random.default_rng(0)
    mean = np.array([0.5, -1.5])
    draw = sample_gaussian(mean, np.zeros(2), rng)
    assert np.array_equal(draw, mean)


def test_gaussian_rejects_negative_variance():
    with pytest.raises(ValueError):
        sample_gaussian(np.zeros(2), np.array([-1e-6, 0.0]), np.random.default_rng(0))


def test_gaussian_empirical_covariance():
    rng = np.random.default_rng(1)
    var = np.array([0.5, 1.0, 2.0, 4.0])
    draws = sample_gaussian(np.zeros(4), var, rng, size=100_000)
    empirical = draws.var(axis=0)
    assert np.all(np.abs(empirical - var) <= 0.05 * var)


def test_beta_uniform_special_case():
    rng = np.random.default_rng(2)
    draws = sample_scaled_beta(1.0, 1.0, 1.0, rng, size=100_000)
    assert abs(draws.mean() - 0.5) <= 0.005


def test_beta_2_05_moments_and_range():
    rng = np.random.default_rng(3)
    draws = sample_scaled_beta(2.0, 0.5, 1.0, rng, size=100_000)
    assert np.all((draws >= 0.0) & (draws <= 1.0))
    assert abs(draws.mean() - 0.8) <= 0.01


def test_beta_scale_bounds_draws():
    rng = np.random.default_rng(4)
    draws = sample_scaled_beta(2.0, 0.5, 0.01, rng, size=10_000)
    assert np.all((draws >= 0.0) & (draws <= 0.01))


def test_beta_negative_scale_flips_range():
    rng = np.random.default_rng(40)
    draws = sample_scaled_beta(2.0, 0.5, -0.01, rng, size=10_000)
    assert np.all((draws >= -0.01) & (draws <= 0.0))


def test_beta_rejects_bad_shapes():
    with pytest.raises(ValueError):
        sample_scaled_beta(0.0, 0.5, 1.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        ScaledBetaDisturbance(alpha=2.0, beta=-1.0)


def test_scaled_beta_disturbance_mask():
    spec = ScaledBetaDisturbance(alpha=2.0, beta=0.5, scale=0.01, dims=4, mask=(1, 0, 1, 0))
    rng = np.random.default_rng(5)
    draw = spec.sample(rng, 1)[0]
    assert draw[1] == 0.0 and draw[3] == 0.0
    assert draw[0] > 0.0 and draw[2] > 0.0
    # masked draws consume the same stream entries as unmasked ones
    unmasked = ScaledBetaDisturbance(alpha=2.0, beta=0.5, scale=0.01, dims=4)
    full = unmasked.sample(np.random.default_rng(5), 1)[0]
    assert draw[0] == full[0] and draw[2] == full[2]


def test_gaussian_disturbance_draw_equals_sample_gaussian():
    spec = GaussianDisturbance((0.5, -1.0, 0.0, 2.0), (1e-4, 0.0, 5e-8, 3.0))
    for seed in range(5):
        draw = spec.sample(np.random.default_rng(seed), 1)[0]
        reference = sample_gaussian(spec.mean, spec.covariance_diagonal, np.random.default_rng(seed))
        assert np.array_equal(draw, reference)
    with pytest.raises(ValueError, match="finite"):
        GaussianDisturbance((0.0, math.nan), (1.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        GaussianDisturbance((0.0, 0.0), (1.0, math.inf))


_STREAM_SPECS = {
    "none": NoDisturbance(),
    "gaussian": _GAUSS,
    "beta-2-0.5-masked": _BETA,
    "beta-1-1": ScaledBetaDisturbance(alpha=1.0, beta=1.0, scale=1.0),
    "beta-0.3-3": ScaledBetaDisturbance(alpha=0.3, beta=3.0, scale=0.5),
    "beta-1-0.5": ScaledBetaDisturbance(alpha=1.0, beta=0.5, scale=-0.01),
}


@pytest.mark.parametrize("steps", [1, 63, 64, 65, 200])
@pytest.mark.parametrize("name", sorted(_STREAM_SPECS))
def test_chunked_draw_consumes_the_stream_as_single_steps(name, steps):
    spec = _STREAM_SPECS[name]
    for seed in range(3):
        chunked, single = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = spec.sample(chunked, steps)
        expected = np.array([_reference_draw(spec, single) for _ in range(steps)])
        assert draws.shape == (steps, 4)
        assert draws.tobytes() == expected.tobytes()
        assert chunked.random() == single.random()


def test_samplers_keep_their_formulas_and_checks():
    mean, var = np.array([0.5, -1.0, 0.0]), np.array([1e-4, 0.0, 3.0])
    for seed, size in enumerate((None, 1, 7)):
        rng, raw = np.random.default_rng(seed), np.random.default_rng(seed)
        shape = 3 if size is None else (size, 3)
        expected = mean + np.sqrt(var) * raw.standard_normal(shape)
        assert sample_gaussian(mean, var, rng, size=size).tobytes() == expected.tobytes()
        rng, raw = np.random.default_rng(seed), np.random.default_rng(seed)
        g1, g2 = raw.gamma(0.3, size=size), raw.gamma(0.5, size=size)
        expected = np.asarray(2.0 * g1 / (g1 + g2))
        drawn = np.asarray(sample_scaled_beta(0.3, 0.5, 2.0, rng, size=size))
        assert drawn.tobytes() == expected.tobytes()
    rng = np.random.default_rng(0)
    for bad_mean, bad_var in (([0.0, 0.0], [1.0]), ([[0.0]], [[1.0]]), (0.0, 1.0)):
        with pytest.raises(ValueError, match="1-d vectors of equal length"):
            sample_gaussian(bad_mean, bad_var, rng)
    with pytest.raises(ValueError, match="finite"):
        sample_gaussian([0.0], [math.inf], rng)
    with pytest.raises(ValueError, match="positive"):
        sample_scaled_beta(1.0, math.nan, 1.0, rng)


# ---------------------------------------------------------------------------
# Sample CSV round trip
# ---------------------------------------------------------------------------


def test_sample_csv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    samples = SampleSet(rng.normal(size=(17, 4)))
    path = tmp_path / "sample.csv"
    save_sample_csv(samples, path)
    header = path.read_text().splitlines()[0]
    assert header == "x1,x2,x3,x4"
    loaded = load_sample_csv(path)
    assert np.array_equal(loaded.points, samples.points)


def test_sample_csv_reports_bad_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2\n1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="line 3"):
        load_sample_csv(path)
    path.write_text("x1,x2\n1.0,abc\n")
    with pytest.raises(ValueError, match="line 2"):
        load_sample_csv(path)


def test_sample_csv_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError):
        load_sample_csv(path)
    path.write_text("x1,x2\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_sample_csv(path)


# ---------------------------------------------------------------------------
# Range checks
# ---------------------------------------------------------------------------


def _write(path, text):
    path.write_text(text)
    return path


_LINEAR = MlpLayer(np.eye(2), np.zeros(2), "linear")
_NET_FILE = (
    '{"input_dim": 4, "output_dim": 1, "layers": [{"weights": [0.0, 0.0, -1.0, -1.0], '
    '"rows": 2, "cols": 4, "bias": [0.0, 0.0], "activation": "linear"}]}'
)


# name -> (the error, what its message says, a call that raises it in a scratch directory)
_RANGE_CASES = {
    "beta-dims": (FieldError, "dims must be at least 1",
                  lambda _: ScaledBetaDisturbance(dims=0)),
    "beta-mask": (FieldError, "mask must hold dims = 4 flags, got 1",
                  lambda _: ScaledBetaDisturbance(mask=(True,))),
    "layer-weights-shape": (FieldError, "weights must be an (out, in) matrix",
                            lambda _: MlpLayer(np.ones(2), np.zeros(2), "linear")),
    "layer-bias-shape": (FieldError, "bias must hold one number per weight row",
                         lambda _: MlpLayer(np.ones((2, 3)), np.zeros(3), "linear")),
    "layer-weights-finite": (FieldError, "weights must be finite",
                             lambda _: MlpLayer([[np.nan]], np.zeros(1), "linear")),
    "layer-bias-finite": (FieldError, "bias must be finite",
                          lambda _: MlpLayer(np.ones((1, 1)), [np.inf], "linear")),
    "controller-no-layers": (FieldError, "layers must hold at least one layer",
                             lambda _: MlpController(())),
    "controller-box-order": (FieldError, "saturation must give lo <= hi",
                             lambda _: MlpController((_LINEAR,), ([1.0, 0.0], [0.0, 0.0]))),
    "controller-box-size": (FieldError, "saturation must give lo <= hi",
                            lambda _: MlpController((_LINEAR,), ([0.0], [1.0]))),
    # a NaN box passes lo <= hi, so finiteness is its own check
    "controller-box-nan": (FieldError, "saturation must be finite, got ([nan, 0.0], [nan, 0.0])",
                           lambda _: MlpController((_LINEAR,), ([math.nan, 0.0], [math.nan, 0.0]))),
    "gaussian-mean-nan": (FieldError, "mean must be finite, got [nan, 0.0, 0.0, 0.0]",
                          lambda _: GaussianDisturbance((math.nan, 0, 0, 0), (0, 0, 0, 0))),
    "gaussian-covariance-inf": (FieldError, "covariance_diagonal must be finite, got [0.0, inf]",
                                lambda _: GaussianDisturbance((0, 0), (0, math.inf))),
    "weight-file-rows-cols": (ConfigError, "layers[0].weights holds 4 values, expected rows*cols 8",
                              lambda tmp: load_mlp_controller(_write(tmp / "net.json", _NET_FILE))),
    "cwh-omega": (FieldError, "omega must be positive, got 0.0",
                  lambda _: CwhSystem(omega=0.0)),
    "cwh-mass": (FieldError, "mass must be positive, got -300.0",
                 lambda _: CwhSystem(mass=-300.0)),
    "cwh-dt": (FieldError, "dt must be positive, got 0",
               lambda _: CwhSystem(dt=0)),
    "cwh-input-sequence": (FieldError, "input_sequence must be a finite (N, 2) array",
                           lambda _: CwhSystem(input_sequence=np.zeros((5, 3)))),
    "tora-control-period": (FieldError, "control_period must be positive",
                            lambda _: ToraSystem(control_period=0.0)),
    # non-finite parameters that would otherwise build, and simulate NaN
    # states or fail later naming no field
    "cwh-omega-inf": (FieldError, "omega must be finite, got inf",
                      lambda _: CwhSystem(omega=math.inf)),
    "cwh-mass-inf": (FieldError, "mass must be finite, got inf",
                     lambda _: CwhSystem(mass=math.inf)),
    "cwh-dt-inf": (FieldError, "dt must be finite, got inf", lambda _: CwhSystem(dt=math.inf)),
    "beta-alpha-inf": (FieldError, "alpha must be finite, got inf",
                       lambda _: ScaledBetaDisturbance(alpha=math.inf)),
    "beta-beta-inf": (FieldError, "beta must be finite, got inf",
                      lambda _: ScaledBetaDisturbance(beta=math.inf)),
    "beta-scale-nan": (FieldError, "scale must be finite, got nan",
                       lambda _: ScaledBetaDisturbance(scale=math.nan)),
    "beta-scale-inf": (FieldError, "scale must be finite, got -inf",
                       lambda _: ScaledBetaDisturbance(scale=-math.inf)),
    "tora-control-period-inf": (FieldError, "control_period must be finite, got inf",
                                lambda _: ToraSystem(control_period=math.inf)),
    "feedback-k1-nan": (FieldError, "k1 must be finite, got nan",
                        lambda _: SaturatedFeedback(k1=math.nan)),
    "feedback-k2-inf": (FieldError, "k2 must be finite, got inf",
                        lambda _: SaturatedFeedback(k2=math.inf)),
    "tora-substeps": (FieldError, "integrator_substeps must be at least 1, got 0",
                      lambda _: ToraSystem(integrator_substeps=0)),
    "box-lo-above-hi": (FieldError, "lo must be <= hi in every coordinate",
                        lambda _: BoxInitial((0.0, 1.0), (0.5, 0.5))),
    # non-finite initial conditions, and a box wider than a double can hold,
    # which numpy's uniform draw would refuse with a bare OverflowError
    "point-x-nan": (FieldError, "x must be finite, got (nan, 0.0, 0.0, 0.0)",
                    lambda _: PointInitial((math.nan, 0, 0, 0))),
    "box-lo-inf": (FieldError, "lo must be finite, got (-inf, 0.0, 0.0, 0.0)",
                   lambda _: BoxInitial((-math.inf, 0, 0, 0), (0, 0, 0, 0))),
    "box-hi-nan": (FieldError, "hi must be finite, got (0.0, nan, 0.0, 0.0)",
                   lambda _: BoxInitial((0, 0, 0, 0), (0, math.nan, 0, 0))),
    "box-width-overflow": (FieldError, "hi - lo overflows a double in coordinate 2",
                           lambda _: BoxInitial((0, 0, -1e308, 0), (0, 0, 1e308, 0))),
    "horizon": (FieldError, "horizon must be at least 1, got 0",
                lambda _: _cwh_config(horizon=0)),
    "cwh-matrices-dt": (ValueError, "dt must be nonnegative",
                        lambda _: cwh_discrete_matrices(0.00113, 300.0, -1.0)),
    "cwh-step-control": (ValueError, "CWH control must be a 2-vector",
                         lambda _: cwh_step(np.eye(4), np.zeros((4, 2)), np.zeros(4),
                                            np.zeros(3), np.zeros(4))),
    "tora-derivative-state": (ValueError, "TORA state must be a 4-vector",
                              lambda _: tora_derivative(np.zeros(3), 0.0)),
    "steps-initial-shape": (ValueError, "state must be a 4-vector",
                            lambda _: simulate_trajectory(_cwh_config(), np.zeros(3), seed=0)),
    "steps-initial-finite": (ValueError, "initial state has non-finite entries",
                             lambda _: simulate_trajectory(_tora_config(), [0, np.nan, 0, 0], 0)),
    "csv-header": (ValueError, "has a malformed header",
                   lambda tmp: load_sample_csv(_write(tmp / "s.csv", "x1, ,x3\n1,2,3\n"))),
    "csv-non-finite": (ValueError, "contains non-finite values",
                       lambda tmp: load_sample_csv(_write(tmp / "s.csv", "x1,x2\n1.0,inf\n"))),
}


@pytest.mark.parametrize("name", list(_RANGE_CASES))
def test_range_checks_reject_out_of_range_values(tmp_path, name):
    error, expected, call = _RANGE_CASES[name]
    with pytest.raises(error) as info:
        call(tmp_path)
    assert expected in str(info.value)
    if error is FieldError:
        assert str(info.value).startswith(expected)  # it names the field at fault


# Constructors that keep arrays: each builds one from a (2, 2) array and returns what it kept.
_KEEPERS = {
    "SampleSet": lambda a: [SampleSet(a).points],
    "SupportModel": lambda a: [SupportModel(a, KernelSpec(), 0.5).support],
    "MlpLayer": lambda a: [MlpLayer(a, np.zeros(2), "linear").weights],
    "MlpController": lambda a: list(MlpController((_LINEAR,), saturation=(a[0], a[1])).saturation),
    "CwhSystem": lambda a: [CwhSystem(input_sequence=a).input_sequence],
}


@pytest.mark.parametrize("view", [False, True], ids=["array", "column-view"])
@pytest.mark.parametrize("keeper", list(_KEEPERS))
def test_constructors_keep_a_read_only_copy(keeper, view):
    # the caller's array stays writable, and writing it or its base leaves the object as built
    values = np.array([[-0.05, -0.02], [0.03, 0.05]])
    base = np.hstack([values, values]) if view else values.copy()
    arr = base[:, :2] if view else base
    kept = _KEEPERS[keeper](arr)
    assert arr.flags.writeable and not any(k.flags.writeable for k in kept)
    arr[0, 0] = 1.0
    base[1, 1] = 1.0
    assert np.array_equal(np.vstack(kept), values.reshape(-1, 2))
