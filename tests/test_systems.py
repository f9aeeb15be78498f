import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import expit

from kernelreach import (
    BoxInitial,
    CwhSystem,
    ExternalSource,
    GaussianDisturbance,
    MlpController,
    MlpLayer,
    NoDisturbance,
    PointInitial,
    SampleSet,
    SaturatedFeedback,
    ScaledBetaDisturbance,
    SystemConfig,
    ToraSystem,
    child_seed,
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
    config = _cwh_config(horizon=5, inputs=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        simulate_trajectory(config, np.zeros(4), seed=0)


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
    config = SystemConfig(system=ExternalSource("none.csv"), horizon=1)
    with pytest.raises(ValueError):
        simulate_trajectory(config, np.zeros(4), seed=0)


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


def test_sample_count_validation():
    with pytest.raises(ValueError):
        sample_terminal_states(_cwh_config(), 0, master_seed=0)


def test_external_source_sampling(tmp_path):
    rng = np.random.default_rng(9)
    path = tmp_path / "terminal.csv"
    save_sample_csv(SampleSet(rng.normal(size=(10, 3))), path)
    config = SystemConfig(system=ExternalSource(str(path)), horizon=1)
    subset = sample_terminal_states(config, 6, master_seed=0)
    full = load_sample_csv(path)
    assert np.array_equal(subset.points, full.points[:6])
    with pytest.raises(ValueError):
        sample_terminal_states(config, 11, master_seed=0)


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
    # horizons that cross draw-chunk boundaries (64 steps a chunk)
    "tora-feedback-beta-130": _tora_config(horizon=130, disturbance=_BETA),
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


def test_samples_across_blocks_match_their_own_streams():
    # more samples than one block holds: the last rows still run on their own streams
    config = _ORACLE_CONFIGS["cwh-gaussian-inputs"]
    count = 4100
    points = sample_terminal_states(config, count, master_seed=31).points
    assert points.shape == (count, 4)
    x0 = np.array([-0.75, -0.75, 0.0, 0.0])
    for i in (0, 4095, 4096, count - 1):
        direct = simulate_trajectory(config, x0, seed=child_seed(31, i))
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


class _CountingDisturbance:
    def __init__(self):
        self.draws = 0
        self.steps = 0

    def sample(self, rng, dim, steps):
        self.draws += 1
        self.steps += steps
        return np.zeros((steps, dim))


@pytest.mark.parametrize("bad", [(0.0, 0.2), (-0.11, 0.0)])
def test_cwh_inputs_outside_box_rejected_before_any_step(bad):
    inputs = np.zeros((6, 2))
    inputs[4] = bad
    counter = _CountingDisturbance()
    config = _cwh_config(horizon=6, disturbance=counter, inputs=inputs)
    with pytest.raises(ValueError, match="step 4 lies outside the admissible box"):
        sample_terminal_states(config, 5, master_seed=0)
    assert counter.draws == 0
    # entries beyond the horizon are never used, so they are not checked
    assert sample_terminal_states(_cwh_config(horizon=4, inputs=inputs), 2, master_seed=0).size == 2


@pytest.mark.parametrize("config", [_cwh_config, _tora_config], ids=["cwh", "tora"])
@pytest.mark.parametrize("horizon", [1, 63, 64, 65, 130])
def test_each_sample_draws_a_chunk_of_steps_per_call(config, horizon):
    counter = _CountingDisturbance()
    sample_terminal_states(config(horizon=horizon, disturbance=counter), 3, master_seed=0)
    assert counter.draws == 3 * math.ceil(horizon / 64)
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
    draw = spec.sample(rng, 4, 1)[0]
    assert draw[1] == 0.0 and draw[3] == 0.0
    assert draw[0] > 0.0 and draw[2] > 0.0
    # masked draws consume the same stream entries as unmasked ones
    unmasked = ScaledBetaDisturbance(alpha=2.0, beta=0.5, scale=0.01, dims=4)
    full = unmasked.sample(np.random.default_rng(5), 4, 1)[0]
    assert draw[0] == full[0] and draw[2] == full[2]


def test_gaussian_disturbance_draw_equals_sample_gaussian():
    spec = GaussianDisturbance((0.5, -1.0, 0.0, 2.0), (1e-4, 0.0, 5e-8, 3.0))
    for seed in range(5):
        draw = spec.sample(np.random.default_rng(seed), 4, 1)[0]
        reference = sample_gaussian(spec.mean, spec.covariance_diagonal, np.random.default_rng(seed))
        assert np.array_equal(draw, reference)
    with pytest.raises(ValueError, match="finite"):
        GaussianDisturbance((0.0, math.nan), (1.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        GaussianDisturbance((0.0, 0.0), (1.0, math.inf))


def test_disturbance_dimension_checked():
    spec = GaussianDisturbance((0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        spec.sample(np.random.default_rng(0), 4, 1)


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
        draws = spec.sample(chunked, 4, steps)
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
